"""Workload definitions, seeded INI inputs, expected call counts and the
reference-output check.  Standard library only: run.py imports this module
without numpy.

A seed selects one of ``N_INPUT_SETS`` shipped input sets (seed mod
``N_INPUT_SETS``); each set has stored reference outputs in
``references.json``.  The work an operation does never depends on the seed.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

N_INPUT_SETS = 16
# Relative tolerance of the reference comparison.  Reordered arithmetic
# (a Fourier-space rhs, adaptive steps) moves norm_u by <= 1e-9; a wrong
# flux moves it by percent.
REL_TOL = 1e-7
LEDGER_COLUMNS = ("t", "norm_u", "mass", "energy")
# Reference ledgers keep every ``stride``-th row (and the last) so that
# references.json stays small; a wrong flux changes every row.
LEDGER_REF_ROWS = 51


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the subcommands of one operation and the
    [nonlinear] overrides applied to configs/reference.ini."""

    name: str
    commands: tuple
    constants: tuple               # report constants checked against references
    nonlinear: dict = field(default_factory=dict)   # seed-independent overrides

    @property
    def t_final(self) -> float:
        return float(self.nonlinear.get("t_final", 0.0))

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / float(self.nonlinear["dt"])))

    @property
    def n_samples(self) -> int:
        every = int(self.nonlinear["sample_every"])
        n = self.n_steps
        return 1 + sum(1 for i in range(1, n + 1) if i % every == 0 or i == n)


_NL_BASE = {"length": "400.0", "n": "4096", "dt": "0.02", "scheme": "if-rk4",
            "shape": "gaussian", "fields": "rho"}

WORKLOADS = {
    # criterion 10 in miniature; t_final is the shortest run whose decay-fit
    # window [fit_t_min, t_final] holds enough samples
    "nonlinear-ref": Workload(
        "nonlinear-ref", ("nonlinear-run",), ("decay_exponent",),
        {**_NL_BASE, "t_final": "40.0", "sample_every": "100", "fit_t_min": "20.0"}),
    # same dx at a quarter of the size, sampled every step: the diagnostics
    # path costs about as much as stepping
    "nonlinear-diag": Workload(
        "nonlinear-diag", ("nonlinear-run",), ("decay_exponent",),
        {**_NL_BASE, "length": "100.0", "n": "1024", "t_final": "20.0",
         "sample_every": "1", "fit_t_min": "5.0"}),
    # the three linear/symbol-level pipelines; no nonlinear stepping at all
    "certify": Workload(
        "certify", ("verify-thermo", "analyze-symbol", "linear-decay"),
        ("coupling_min_margin", "gamma_bar", "exponent")),
}


# modules each subcommand imports lazily: their import is set-up cost
COMMAND_MODULES = {
    "verify-thermo": ("nsfk.thermo", "nsfk.convex_extension"),
    "analyze-symbol": ("nsfk.symbols", "nsfk.dissipativity"),
    "linear-decay": ("nsfk.symbols", "nsfk.linear_evolution"),
    "nonlinear-run": ("nsfk.nonlinear_solver",),
}


def modules(workload: Workload) -> list:
    """nsfk.cli plus the modules the workload's subcommands import."""
    out = ["nsfk.cli"]
    for command in workload.commands:
        out += [m for m in COMMAND_MODULES[command] if m not in out]
    return out


def input_set(seed: int) -> int:
    return seed % N_INPUT_SETS


def perturbation(index: int) -> dict:
    """Seeded initial bump: amplitude in [0.5, 1.5]e-2, width in [2.5, 3.5]."""
    rng = random.Random(index)
    return {"amplitude": repr(rng.uniform(0.5, 1.5) * 1e-2),
            "width": repr(rng.uniform(2.5, 3.5))}


def write_config(workload: Workload, index: int, base: Path, dest: Path) -> Path:
    """Write the INI the program sees for this workload and input set."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(base)
    if workload.nonlinear:
        parser["nonlinear"].update(workload.nonlinear)
        parser["nonlinear"].update(perturbation(index))
    dest.parent.mkdir(parents=True, exist_ok=True)
    with open(dest, "w") as fh:
        parser.write(fh)
    return dest


def argv(command: str, config: Path, out: Path, index: int) -> list:
    return [command, "--config", str(config), "--out", str(out),
            "--seed", str(index), "--quiet"]


# ---------------------------------------------------------------------------
# expected traced call counts
# ---------------------------------------------------------------------------

_NL = "nonlinear_solver."
_IF = _NL + "IntegratingFactorRK4."

_COMMON_NONZERO = ("cli.main", "cli.RunConfig.load", "cli.Report.write",
                   "reports.write_csv", "fitting.fit_power_law",
                   "symbols.evolution_symbol")

_NONLINEAR_NONZERO = _COMMON_NONZERO + (
    "cli.cmd_nonlinear_run", _IF + "init", "linear_evolution.matrix_exponentials",
    _NL + "w_diagnostics", "symbols.flux_and_tensors", "symbols.nonlinear_terms",
    "symbols.w_variables", "numpy.fft")

_CERTIFY_NONZERO = _COMMON_NONZERO + (
    "cli.cmd_verify_thermo", "cli.cmd_analyze_symbol", "cli.cmd_linear_decay",
    "thermo.verify_hypotheses", "convex_extension.verify_entropy_pair",
    "dissipativity.genuine_coupling_scan", "dissipativity.check_friedrichs",
    "dissipativity.verify_certificate", "dissipativity.spectral_bound",
    "dissipativity.lyapunov_check", "dissipativity.atilde_eigenvalues",
    "linear_evolution.ModePropagator.init",
    "linear_evolution.ModePropagator.propagate",
    "linear_evolution.evolve_and_fit")


def expected_calls(workload: Workload) -> tuple[dict, tuple]:
    """(exact call counts, labels that must be called) for one operation."""
    if workload.name == "certify":
        # analyze-symbol's default grid: 4001 |xi| points, mirrored
        exact = {"dissipativity.genuine_coupling_scan.xi_points": 8002,
                 _IF + "step.calls": 0, _NL + "rhs.calls": 0,
                 _NL + "_sample.calls": 0}
        return exact, _CERTIFY_NONZERO
    n = workload.n_steps
    exact = {_IF + "step.calls": n, _IF + "_nonlinear.calls": 4 * n,
             _NL + "rhs.calls": 4 * n, _NL + "_sample.calls": workload.n_samples,
             _IF + "init.calls": 1}
    return exact, _NONLINEAR_NONZERO


def check_counts(workload: Workload, metrics: dict) -> list:
    exact, nonzero = expected_calls(workload)
    problems = [f"{k} = {metrics.get(k)}, expected {v}"
                for k, v in exact.items() if metrics.get(k) != v]
    problems += [f"{label} was never called"
                 for label in nonzero if not metrics.get(label + ".calls")]
    return problems


# ---------------------------------------------------------------------------
# observed outputs and the reference comparison
# ---------------------------------------------------------------------------


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _report_constants(path: Path) -> dict:
    out, in_block = {}, False
    for line in path.read_text().splitlines():
        if line == "observed constants:":
            in_block = True
        elif in_block and " = " in line:
            key, value = line.strip().split(" = ", 1)
            try:
                out[key] = float(value)
            except ValueError:
                out[key] = value
    return out


def observe(workload: Workload, out_root: Path) -> tuple[dict, list]:
    """(observed values, problems) from one operation's output directories.

    A problem is a FAIL or an empty summary.csv, or a missing output file.
    """
    problems, constants, ledger = [], {}, None
    for command in workload.commands:
        out = out_root / command
        try:
            rows = _read_csv(out / "summary.csv")
            constants.update(_report_constants(out / "report.txt"))
            if command == "nonlinear-run":
                ledger = _read_csv(out / "ledger.csv")
        except OSError as exc:
            problems.append(f"{command}: {exc}")
            continue
        if not rows:
            problems.append(f"{command}: summary.csv has no rows")
        problems += [f"{command}: FAIL {r['report']} / {r['check']} "
                     f"(observed {r['observed']})"
                     for r in rows if r["passed"] != "1"]
    observed = {"constants": {k: constants.get(k) for k in workload.constants}}
    if ledger is not None:
        observed["ledger"] = {"n_rows": len(ledger)}
        stride = max(1, (len(ledger) - 1) // (LEDGER_REF_ROWS - 1))
        picked = ledger[::stride]
        if (len(ledger) - 1) % stride:
            picked.append(ledger[-1])
        for col in LEDGER_COLUMNS:
            observed["ledger"][col] = [float(r[col]) for r in picked]
    return observed, problems


def _close(a, b, rel_tol: float) -> bool:
    return (isinstance(a, float) and isinstance(b, float)
            and math.isclose(a, b, rel_tol=rel_tol, abs_tol=0.0))


def compare(observed: dict, reference: dict, rel_tol: float = REL_TOL) -> list:
    """Mismatches between observed outputs and a stored reference."""
    problems = []
    for key, ref in reference["constants"].items():
        got = observed["constants"].get(key)
        if not _close(got, ref, rel_tol):
            problems.append(f"constant {key} = {got}, reference {ref}")
    if "ledger" in reference:
        obs, ref = observed.get("ledger"), reference["ledger"]
        if obs is None or obs["n_rows"] != ref["n_rows"]:
            return problems + [f"ledger rows {obs and obs['n_rows']}, "
                               f"reference {ref['n_rows']}"]
        for col in LEDGER_COLUMNS:
            bad = [i for i, (a, b) in enumerate(zip(obs[col], ref[col]))
                   if not _close(a, b, rel_tol)]
            if bad:
                i = bad[0]
                problems.append(f"ledger {col} differs in {len(bad)} rows, first "
                                f"{obs[col][i]!r} vs reference {ref[col][i]!r}")
    return problems


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())
