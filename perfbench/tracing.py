"""Per-layer tracing by attribute wrapping.

Each public call into a module of ``nsfk`` is wrapped, in every namespace
that looks the name up, by a span that records its call count, total time
and self time (total minus the time of the spans it encloses).  Spans are
aggregated in memory per label while the traced operation runs.  The
program's own files are not changed: ``Tracer.installed()`` patches the
attributes and restores every one of them on exit.
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from time import perf_counter

STEP = "nonlinear_solver.IntegratingFactorRK4.step"
FFT = "numpy.fft"


def _targets():
    """(label, namespace, attribute, options) for every wrapped call site."""
    import numpy.fft
    from nsfk import (cli, convex_extension, dissipativity, fitting,
                      linear_evolution, nonlinear_solver, symbols, thermo)

    nl, le, dis, sym = nonlinear_solver, linear_evolution, dissipativity, symbols
    targets = [("cli.main", cli, "main", {}),
               ("cli.RunConfig.load", cli.RunConfig, "load", {}),
               ("cli.Report.write", cli.Report, "write", {}),
               ("reports.write_csv", cli, "write_csv", {}),
               ("thermo.verify_hypotheses", thermo, "verify_hypotheses", {}),
               ("convex_extension.verify_entropy_pair", convex_extension,
                "verify_entropy_pair", {}),
               ("dissipativity.genuine_coupling_scan", dis, "genuine_coupling_scan",
                {"count_result": ("dissipativity.genuine_coupling_scan.xi_points",
                                  lambda rep: rep.n_xi)}),
               ("linear_evolution.ModePropagator.init", le.ModePropagator,
                "__init__", {}),
               ("linear_evolution.ModePropagator.propagate", le.ModePropagator,
                "propagate", {}),
               ("linear_evolution.expm", le, "expm", {}),
               ("linear_evolution.evolve_and_fit", le, "evolve_and_fit", {}),
               ("nonlinear_solver.IntegratingFactorRK4.init",
                nl.IntegratingFactorRK4, "__init__", {}),
               (STEP, nl.IntegratingFactorRK4, "step", {}),
               ("nonlinear_solver.IntegratingFactorRK4._nonlinear",
                nl.IntegratingFactorRK4, "_nonlinear", {}),
               ("nonlinear_solver.rhs", nl, "rhs", {}),
               ("nonlinear_solver._sample", nl, "_sample", {}),
               ("nonlinear_solver.w_diagnostics", nl, "w_diagnostics", {}),
               # StepRejected is raised by validate; count it, re-raise it
               ("nonlinear_solver.StateField.validate", nl.StateField, "validate",
                {"count_error": ("nonlinear_solver.step_rejected.calls",
                                 nl.StepRejected)}),
               (FFT, numpy.fft, "rfft", {}),
               (FFT, numpy.fft, "irfft", {})]
    targets += [(f"cli.cmd_{cmd.replace('-', '_')}", cli._COMMANDS, cmd, {})
                for cmd in cli._COMMANDS]
    for name in ("check_friedrichs", "verify_certificate", "spectral_bound",
                 "lyapunov_check", "atilde_eigenvalues"):
        targets.append((f"dissipativity.{name}", dis, name, {}))
    for name in ("flux_and_tensors", "nonlinear_terms", "w_variables"):
        targets.append((f"symbols.{name}", sym, name, {}))
    # names imported into other modules' namespaces
    for ns in (sym, nl, le, dis):
        targets.append(("symbols.evolution_symbol", ns, "evolution_symbol", {}))
    for ns in (le, nl):
        targets.append(("linear_evolution.matrix_exponentials", ns,
                        "matrix_exponentials", {}))
    for ns in (fitting, nl, le, dis):
        targets.append(("fitting.fit_power_law", ns, "fit_power_law", {}))
    return targets


def _get(ns, attr):
    if isinstance(ns, dict):
        return ns[attr]
    if isinstance(ns, type):
        return ns.__dict__[attr]        # keeps a staticmethod wrapper intact
    return getattr(ns, attr)


def _set(ns, attr, value):
    if isinstance(ns, dict):
        ns[attr] = value
    else:
        setattr(ns, attr, value)


class Tracer:
    """Aggregated spans: per label [calls, total_s, self_s] plus counters.

    ``in_step`` counts the calls of each label made while a nonlinear
    ``step`` span is open, so that FFTs per stage are measured where they
    happen rather than over the whole run.
    """

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(int)
        self.in_step = defaultdict(int)
        self._stack = []          # child time accumulated by each open span
        self._step_depth = 0

    def wrap(self, label, fn, count_result=None, count_error=None):
        stats, counters, in_step, stack = (self.stats, self.counters,
                                           self.in_step, self._stack)
        stats[label]                                  # listed even if never called
        for counted in (count_result, count_error):
            if counted:
                counters[counted[0]] += 0

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            is_step = label == STEP
            self._step_depth += is_step
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if count_error and isinstance(exc, count_error[1]):
                    counters[count_error[0]] += 1
                raise
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                st = stats[label]
                st[0] += 1
                st[1] += dt
                st[2] += dt - child
                if stack:
                    stack[-1] += dt
                self._step_depth -= is_step
                if self._step_depth and not is_step:
                    in_step[label] += 1
            if count_result:
                counters[count_result[0]] += count_result[1](result)
            return result

        return span

    @contextlib.contextmanager
    def installed(self):
        """Patch every target while the block runs; always restore them."""
        saved = []
        try:
            for label, ns, attr, opts in _targets():
                raw = _get(ns, attr)
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(label, raw.__func__, **opts))
                else:
                    new = self.wrap(label, raw, **opts)
                saved.append((ns, attr, raw))
                _set(ns, attr, new)
            yield self
        finally:
            for ns, attr, raw in reversed(saved):
                _set(ns, attr, raw)

    def metrics(self) -> dict:
        """Flat ``<label>.{calls,total_s,self_s}`` plus counters and ratios."""
        out = {}
        for label, (calls, total, self_s) in self.stats.items():
            out[f"{label}.calls"] = calls
            out[f"{label}.total_s"] = total
            out[f"{label}.self_s"] = self_s
        out.update(self.counters)
        nonlinear = self.stats["nonlinear_solver.IntegratingFactorRK4._nonlinear"][0]
        out[f"{FFT}.per_nonlinear"] = (self.in_step[FFT] / nonlinear
                                      if nonlinear else 0.0)
        return out
