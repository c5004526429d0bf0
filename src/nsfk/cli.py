"""Command-line driver: config parsing, pipelines, bit-stable reports.

Subcommands
-----------
verify-thermo   closure hypotheses + entropy-pair certificate
analyze-symbol  coupling, Friedrichs search, compensating certificate,
                spectral bound and (p, q) classification, Lyapunov check
linear-decay    per-mode semigroup evolution and decay-rate fit
nonlinear-run   pseudo-spectral integration with diagnostics ledger

Configs are flat INI files with one section per module; ``SCHEMA`` declares
every key.  A subcommand checks every section it reads before it computes
anything: a bad value or an unknown key exits 2 with ``config error:``.
Identical configs produce byte-identical CSV outputs.  Exit codes:
0 all criteria pass, 1 criterion failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Callable, NamedTuple

# CPython's built-in SHA-256: hashlib would load OpenSSL (_hashlib) for the
# one digest of the config a call takes
try:
    from _sha2 import sha256                # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256          # Python 3.10-3.11
    except ImportError:     # a CPython built without its built-in hashes
        from hashlib import sha256


def _configure_threads() -> None:
    """Honor NSFK_THREADS before any numerical library spins up a pool."""
    n = os.environ.get("NSFK_THREADS")
    if n:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, n)


_configure_threads()

import numpy as np  # noqa: E402  (after thread setup)

from . import __version__  # noqa: E402
from .reports import Check, CheckReport, check_columns, fmt, write_csv  # noqa: E402


class ConfigError(ValueError):
    """Invalid or missing configuration value."""


class Key(NamedTuple):
    """A config key: parser of its text, default, rule (predicate, message)."""
    parse: Callable[[str], object]
    default: object                 # a callable gets the values read before it
    rule: tuple = ()


def _finite(raw: str) -> float:
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError("not finite")
    return value


def _names(raw: str) -> tuple:
    return tuple(f.strip() for f in raw.split(",") if f.strip())


def _at_least(n):
    return (lambda v: v >= n, f"must be >= {n}")


def _between(lo, hi):
    return (lambda v: lo <= v <= hi, f"must be in [{lo}, {hi}]")


def _one_of(*names):
    return (lambda v: v in names, "must be one of " + ", ".join(names))


_POSITIVE = (lambda v: v > 0, "must be > 0")
# analyze-symbol holds about 0.7 KB per xi point: 10**6 points is ~0.7 GB
_MAX_XI = 10 ** 6
_FIELDS = (lambda v: bool(v) and set(v) <= {"rho", "u", "theta"},
           "must list one or more of rho, u, theta")

# Every config key, declared once.  Checks that span keys (the xi, eps and fit
# windows) stay in the subcommands.
SCHEMA = {
    "closure": {
        "type": Key(str, "ideal_gas", _one_of("ideal_gas")),
        "R": Key(_finite, 1.0), "gamma": Key(_finite, 5.0 / 3.0),
        "kappa0": Key(_finite, 1.0), "mu0": Key(_finite, 1.0),
        "alpha0": Key(_finite, 1.0)},
    "equilibrium": {
        "rho": Key(_finite, 1.0, _POSITIVE), "u": Key(_finite, 0.0),
        "theta": Key(_finite, 1.0, _POSITIVE)},
    "domain": {
        "rho_min": Key(_finite, 0.1), "theta_min": Key(_finite, 0.1),
        "rho_max": Key(_finite, 3.0), "theta_max": Key(_finite, 3.0)},
    "thermo": {"n_samples": Key(int, 50, _at_least(1))},
    "symbol": {
        "xi_min": Key(_finite, 1e-3, _POSITIVE), "xi_max": Key(_finite, 1e3),
        "n_xi": Key(int, 4001, _between(10, _MAX_XI)),
        "eps": Key(_finite, None),      # None: midpoint of the admissible window
        "cert_xi_max": Key(_finite, 100.0, _POSITIVE),
        "cert_n_xi": Key(int, 4001, _between(10, _MAX_XI)),
        "lyapunov_delta": Key(_finite, 0.05, _POSITIVE)},
    "linear": {
        "n_nodes": Key(int, 4096), "xi_cap": Key(_finite, 200.0),
        "h0": Key(_finite, 1e-4),
        "profile": Key(str, "gaussian", _one_of(
            "gaussian", "zero-mass-gaussian", "csv")),
        "profile_csv": Key(str, None), "ell": Key(_finite, 0.0, _at_least(0)),
        "t_min": Key(_finite, 0.1, _POSITIVE), "t_max": Key(_finite, 1e4),
        "n_times": Key(int, 41, _at_least(4)), "fit_t_min": Key(_finite, 1e2),
        "fit_t_max": Key(_finite, lambda values: values["t_max"])},
    "nonlinear": {
        "length": Key(_finite, 400.0), "n": Key(int, 4096),
        "dt": Key(_finite, 0.02, _POSITIVE), "t_final": Key(_finite, 150.0, _POSITIVE),
        "scheme": Key(str, "if-rk4", _one_of("if-rk4")),
        "shape": Key(str, "gaussian"), "fields": Key(_names, ("rho",), _FIELDS),
        "amplitude": Key(_finite, 1e-2, _at_least(0)),
        "width": Key(_finite, 3.0, _POSITIVE),
        "sample_every": Key(int, 100, _at_least(1)), "fit_t_min": Key(_finite, 20.0)},
}


def _build(where: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ValueError reported as a config error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where} {exc}") from exc


@dataclass
class RunConfig:
    """Parsed run configuration plus provenance."""

    parser: configparser.ConfigParser
    path: Path
    config_hash: str
    seed: int = 0

    @staticmethod
    def load(path, seed: int = 0) -> "RunConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        raw = path.read_bytes()
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            parser.read_string(raw.decode("utf-8"))
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        digest = sha256(raw).hexdigest()
        return RunConfig(parser=parser, path=path, config_hash=digest, seed=seed)

    def section(self, name: str) -> dict:
        """Every key of ``[name]`` in SCHEMA, parsed, defaulted and checked.

        A blank or missing value takes the default.  An undeclared key is an
        error; configparser lower-cases names, so ``R`` is read back as ``r``.
        So is a section that SCHEMA does not declare, and a ``[DEFAULT]``
        with keys (configparser would copy them into every section).
        """
        undeclared = [s for s in self.parser.sections() if s not in SCHEMA]
        if self.parser.defaults():
            undeclared.insert(0, self.parser.default_section)
        if undeclared:
            raise ConfigError(f"undeclared section [{undeclared[0]}] "
                              f"(known: {', '.join(SCHEMA)})")
        keys = SCHEMA[name]
        if self.parser.has_section(name):
            unknown = set(self.parser[name]) - {key.lower() for key in keys}
            if unknown:
                raise ConfigError(f"unknown key [{name}] {min(unknown)} "
                                  f"(known: {', '.join(keys)})")
        values = {}
        for key, (parse, default, rule) in keys.items():
            raw = self.parser.get(name, key, fallback="").strip()
            if raw == "":
                values[key] = default(values) if callable(default) else default
                continue
            try:
                values[key] = parse(raw)
                if rule and not rule[0](values[key]):
                    raise ValueError(rule[1])
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for [{name}] {key}: {raw!r} ({exc})") from exc
        return values

    def closure(self):
        from .thermo import ideal_gas_eos
        c = self.section("closure")
        return _build("[closure]", ideal_gas_eos, c["R"], c["gamma"], c["kappa0"],
                      c["mu0"], c["alpha0"])

    def equilibrium(self):
        from .thermo import State
        return State(**self.section("equilibrium"))

    def domain(self):
        from .thermo import Domain
        return _build("[domain]", Domain, **self.section("domain"))


@dataclass
class Report:
    """Aggregated machine-readable outcome of one subcommand."""

    command: str
    config_hash: str
    seed: int
    sections: list[CheckReport] = dc_field(default_factory=list)
    constants: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.sections)

    def to_text(self) -> str:
        lines = [
            f"nsfk {self.command} report",
            f"version: {__version__}",
            f"config sha256: {self.config_hash}",
            f"seed: {self.seed}",
            f"overall: {'PASS' if self.passed else 'FAIL'}",
            "",
        ]
        for s in self.sections:
            lines.append(s.to_text())
            lines.append("")
        if self.constants:
            lines.append("observed constants:")
            for k in sorted(self.constants):
                lines.append(f"  {k} = {fmt(self.constants[k])}")
        return "\n".join(lines) + "\n"

    def write(self, out_dir: Path, quiet: bool) -> None:
        text = self.to_text()
        (out_dir / "report.txt").write_text(text)
        columns = check_columns(self.sections)
        rows = len(columns["check"])
        write_csv(out_dir / "summary.csv",
                  {**columns, "config_hash": [self.config_hash] * rows,
                   "version": [__version__] * rows})
        if not quiet:
            sys.stdout.write(text)


def _coefficients(eos, ubar):
    """The linearized coefficients at ``ubar``, checked finite, with A0 > 0,
    and the conserved quantities F0(ubar) checked finite too: at
    u = 1e300 the coefficients are finite but rho (e + u^2/2) is not."""
    from .convex_extension import f0
    from .symbols import equilibrium_coefficients
    with np.errstate(all="ignore"):
        coeffs = equilibrium_coefficients(eos, ubar)
        conserved = f0(eos, ubar)
    bad = [name for name, value in vars(coeffs).items()
           if not np.isfinite(value).all()]
    if not np.isfinite(conserved).all():
        bad.append("F0 = (rho, rho u, rho (e + u^2/2))")
    problem = ""
    if bad:
        problem = f"linearized coefficients that are not finite: {', '.join(bad)}"
    # A0 = diag(p_rho / rho, rho, rho e_theta / theta) / theta, whose last
    # entry underflows to 0 at theta = 1e300
    elif not (np.diag(coeffs.A0) > 0.0).all():
        problem = "an A0 that is not positive definite"
    if problem:
        raise ConfigError(f"[equilibrium] rho = {coeffs.rho:g}, u = {coeffs.u:g}, "
                          f"theta = {coeffs.theta:g} give {problem}")
    return coeffs


def _finite_symbol(coeffs, xi_top: float, key: str) -> None:
    """Refuse a grid whose largest |xi|, ``xi_top``, set by ``key``, takes
    the symbol past the range of binary64.  The pieces the checks factor,
    A(xi), B(xi) and the real form R(xi), grow with |xi|, so they are
    finite on the grid if they are at its largest |xi|."""
    from .symbols import real_form
    with np.errstate(over="ignore", invalid="ignore"):
        parts = coeffs.a(xi_top), coeffs.b(xi_top), real_form(coeffs, xi_top)[0]
    if not all(np.isfinite(part).all() for part in parts):
        raise ConfigError(f"{key} = {xi_top:g}: the symbol is not finite at the "
                          f"grid's largest |xi|")


def _normal_sigma(coeffs, xi_low: float, xi_top: float) -> None:
    """Refuse a grid whose smallest |xi|, ``xi_low``, set by ``[symbol]
    xi_min``, takes sigma(xi) ~ -c0 xi^2 below the normal range of binary64
    on a strictly dissipative symbol (sigma < 0 at the largest |xi|,
    ``xi_top``): there sigma is subnormal or -0, and the verdict and c0
    would be read from underflowed arithmetic."""
    from .symbols import real_form, real_form_eig
    low, top = -real_form_eig(real_form(coeffs, np.array([xi_low, xi_top]))[0]
                              ).real.min(axis=-1)
    if top < 0.0 and not abs(low) >= np.finfo(float).tiny:
        raise ConfigError(f"[symbol] xi_min = {xi_low:g}: sigma(xi) = {low:g} at the "
                          f"grid's smallest |xi| is below the normal range of binary64")


def _section(title: str, **check) -> CheckReport:
    """A report section holding the single check built from ``check``."""
    return CheckReport(title, [Check(**check)])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_verify_thermo(cfg: RunConfig, out_dir: Path, quiet: bool) -> int:
    from .convex_extension import verify_entropy_pair
    from .thermo import verify_hypotheses

    eos, domain = cfg.closure(), cfg.domain()
    rep_h = verify_hypotheses(eos, domain, cfg.section("thermo")["n_samples"])
    rep_p = _build("[domain]", verify_entropy_pair, eos, domain)

    report = Report("verify-thermo", cfg.config_hash, cfg.seed,
                    sections=[rep_h, rep_p])
    write_csv(out_dir / "thermo_checks.csv", check_columns([rep_h, rep_p]))
    report.write(out_dir, quiet)
    return 0 if report.passed else 1


def cmd_analyze_symbol(cfg: RunConfig, out_dir: Path, quiet: bool) -> int:
    from . import dissipativity as dis
    from .symbols import _by_magnitude

    eos, ubar = cfg.closure(), cfg.equilibrium()
    sym = cfg.section("symbol")
    eps, cert_max, cert_n = sym["eps"], sym["cert_xi_max"], sym["cert_n_xi"]
    if sym["xi_max"] <= sym["xi_min"]:
        raise ConfigError("[symbol] requires xi_min < xi_max")
    grid = dis.default_xi_grid(sym["xi_min"], sym["xi_max"], sym["n_xi"])
    for lo, hi in (dis.SMALL_XI_WINDOW, dis.LARGE_XI_WINDOW):
        if np.count_nonzero((grid >= lo) & (grid <= hi)) < 2:
            raise ConfigError(f"[symbol] the xi grid needs two points in the "
                              f"spectral fit window [{lo:g}, {hi:g}]")
    coeffs = _coefficients(eos, ubar)
    _finite_symbol(coeffs, float(np.abs(grid).max()), "[symbol] xi_max")
    _finite_symbol(coeffs, cert_max, "[symbol] cert_xi_max")
    _normal_sigma(coeffs, float(np.abs(grid).min()), float(np.abs(grid).max()))
    gamma_bar, eps_lo, eps_hi = dis.compensating_window(coeffs)
    # an empty window is a property of the closure (no dissipation) and is
    # reported as a failed check; an eps outside a non-empty one is a bad input
    have_cert = eps_hi > eps_lo
    if have_cert and eps is not None and not eps_lo < eps < eps_hi:
        raise ConfigError(f"[symbol] eps = {eps} outside the admissible window "
                          f"({eps_lo:.6g}, {eps_hi:.6g})")
    delta = sym["lyapunov_delta"]
    lyap = dis.lyapunov_check(coeffs, eps, delta) if have_cert else None
    # with capillarity |xi K| is bounded in xi: a delta past the equivalence
    # bound is a bad input, not the inconclusive capillarity-free case
    if have_cert and coeffs.k > 0 and not lyap.equivalence_ok:
        sup_xiK = lyap.sup_xiK
        raise ConfigError(
            f"[symbol] lyapunov_delta = {delta:g} gives sup |delta xi K| = "
            f"{delta * sup_xiK:.6g} > 1/2 on the Lyapunov grid; the largest "
            f"admissible lyapunov_delta is 0.5 / sup |xi K| = {0.5 / sup_xiK:.6g}")

    sections = []
    constants = {}

    coupling = dis.genuine_coupling_scan(coeffs.a0, coeffs.a, coeffs.b, grid)
    offending = ", ".join(f"{x:.6g}" for x, _ in coupling.failures[:5])
    where = (f"worst xi = {coupling.worst_xi:.6g}" if coupling.min_margin < np.inf
             else "no kernel of B(xi) on any")
    sections.append(_section(
        "genuine coupling", name="min coupling margin", passed=coupling.passed,
        observed=coupling.min_margin, tolerance=1e-10,
        detail=(f"{where} of {coupling.n_xi} grid points"
                + (f"; offending xi = {offending}" if offending else ""))))
    constants["coupling_min_margin"] = coupling.min_margin

    fried = dis.check_friedrichs(coeffs)
    # the capillary system must NOT be Friedrichs symmetrizable; without
    # capillarity a symmetrizer must exist.  An inconclusive search decides
    # neither.
    expect_feasible = coeffs.k == 0.0
    sections.append(_section(
        "Friedrichs symmetrizability", name="symmetrizer exists iff kappa = 0",
        passed=fried.feasible == expect_feasible and not fried.inconclusive,
        observed=fried.min_eig,
        detail=(f"{'feasible' if fried.feasible else 'infeasible'}, constraint "
                f"nullspace dimension {fried.nullspace_dim}: {fried.certificate}")))

    if have_cert:
        cert = dis.verify_certificate(
            coeffs, eps, dis.mirrored_linspace(cert_max, cert_n))
        sections.append(_section(
            "compensating certificate", name="min eigenvalue of [K A]^s + Btilde",
            passed=cert.passed, observed=cert.min_eig, tolerance=cert.gamma_bar,
            detail=(f"eps = {cert.eps:.12g}, sup|K| = {cert.sup_K:.12g}, "
                    f"sup|xi K| = {cert.sup_xiK:.12g}, off-diagonal residual "
                    f"{cert.off_diagonal_residual:.3e}, {cert.n_xi} xi")))
        constants.update(cert_eps=cert.eps, gamma_bar=cert.gamma_bar,
                         sup_K=cert.sup_K, sup_xiK=cert.sup_xiK,
                         cert_min_eig=cert.min_eig)
    else:
        sections.append(_section(
            "compensating certificate", name="admissible eps window", passed=False,
            observed=eps_hi - eps_lo, tolerance=0.0,
            detail=(f"empty window (gamma_bar = {gamma_bar:.6g}, upper end "
                    f"{eps_hi:.6g}): no uniform certificate")))

    spect = dis.spectral_bound(coeffs, grid)
    # regularity-gain type (1, 0) with capillarity, standard (1, 1) without
    target = (1.0, 1.0) if expect_feasible else (1.0, 0.0)
    deviation = float(np.abs(np.subtract((spect.p, spect.q), target)).max())
    sections.append(_section(
        "spectral bound", name="max sigma over xi != 0",
        passed=spect.strictly_dissipative, observed=float(spect.sigma.max()),
        tolerance=0.0,
        detail=(f"{spect.xi.size} modes, (p, q) = ({spect.p:.4f}, {spect.q:.4f}), "
                f"c0 = {spect.c0:.6g}, log-residual {spect.residual:.3e}, "
                f"classification: {spect.classification}, "
                f"Re lambda <= -{spect.c0_uniform:.6g} xi^2")))
    sections[-1].checks.append(Check(          # criterion 7's gate of 0.05
        name="(p, q) deviation from ({:g}, {:g})".format(*target),
        passed=deviation <= 0.05, observed=deviation, tolerance=0.05))
    if spect.strictly_dissipative:
        constants.update(type_p=spect.p, type_q=spect.q, c0_fit=spect.c0,
                         c0_uniform=spect.c0_uniform,
                         classification=spect.classification)

    if have_cert:
        # an inconclusive check (precondition on delta violated: the
        # capillarity-free sub-case) is reported but not a criterion failure
        sections.append(_section(
            "Lyapunov functional",
            name="worst slack of dY/dt + c0 xi^2 Y per xi^2",
            passed=lyap.passed or lyap.inconclusive, observed=lyap.worst_slack,
            tolerance=1e-10,
            detail=(f"inconclusive: {lyap.reason}" if lyap.inconclusive else
                    f"c0 = {lyap.c0:.6g}, delta = {lyap.delta:g}, "
                    f"exact over unit modes")))
        constants["lyapunov_c0"] = lyap.c0

    # CSV artifacts
    pred = (-spect.c0 * np.abs(spect.xi) ** (2 * spect.p)
            / (1 + spect.xi ** 2) ** spect.q
            if spect.strictly_dissipative else np.full_like(spect.xi, np.nan))
    write_csv(out_dir / "sigma.csv",
              {"xi": spect.xi, "sigma": spect.sigma, "predicted_bound": pred})
    # the numeric eigenvalues, even in xi, taken once per |xi| and read back
    tracks_xi = dis.mirrored_linspace(cert_max, min(cert_n, 2001))
    magnitudes, back = _by_magnitude(tracks_xi)
    closed = dis.atilde_eigenvalues(coeffs, tracks_xi)
    numeric = np.sort(np.linalg.eigvalsh(dis.atilde(coeffs, magnitudes)), axis=-1)[back]
    lams = {f"lam{i + 1}_{kind}": values[:, i]
            for kind, values in (("closed", closed), ("numeric", numeric))
            for i in range(3)}
    write_csv(out_dir / "eigen_tracks.csv", {"xi": tracks_xi, **lams})

    report = Report("analyze-symbol", cfg.config_hash, cfg.seed,
                    sections=sections, constants=constants)
    report.write(out_dir, quiet)
    return 0 if report.passed else 1


def _load_profile(lin: dict, nodes, weights):
    from . import linear_evolution as le
    if lin["profile"] == "gaussian":
        return le.gaussian_profile(nodes, weights)
    if lin["profile"] != "csv":
        return le.zero_mass_gaussian_profile(nodes, weights)
    if lin["profile_csv"] is None:
        raise ConfigError("missing [linear] profile_csv for profile = csv")
    path = Path(lin["profile_csv"])
    if not path.is_file():
        raise ConfigError(f"[linear] profile_csv not found: {path}")
    profile = _build(f"[linear] profile_csv {path}:", le.csv_profile, path)
    # a zero (or nan) norm leaves no decay to fit
    if not le.weighted_norm(profile, lin["ell"]) > 0:
        raise ConfigError(f"[linear] profile_csv {path}: the order-{lin['ell']:g} "
                          f"norm of the profile is not positive")
    return profile


def cmd_linear_decay(cfg: RunConfig, out_dir: Path, quiet: bool) -> int:
    from .linear_evolution import evolve_and_fit, geometric_nodes

    eos, ubar = cfg.closure(), cfg.equilibrium()
    lin = cfg.section("linear")
    ell, t_min, t_max = lin["ell"], lin["t_min"], lin["t_max"]
    fit_lo, fit_hi = lin["fit_t_min"], lin["fit_t_max"]
    if not t_min <= fit_lo < fit_hi <= t_max:
        raise ConfigError("[linear] requires t_min <= fit_t_min < fit_t_max <= t_max")
    times = np.logspace(np.log10(t_min), np.log10(t_max), lin["n_times"])
    # the same comparison as the fit's window on 1 + t
    if np.count_nonzero((1.0 + times >= 1.0 + fit_lo)
                        & (1.0 + times <= 1.0 + fit_hi)) < 2:
        raise ConfigError("[linear] the fit window holds fewer than two of the "
                          "n_times evaluation times")
    nodes, weights = _build("[linear]", geometric_nodes, lin["n_nodes"],
                            lin["xi_cap"], lin["h0"])
    coeffs = _coefficients(eos, ubar)
    xi_top = np.abs(nodes).max()
    _finite_symbol(coeffs, float(xi_top), "[linear] xi_cap")
    with np.errstate(over="ignore"):
        top_weight = (1.0 + xi_top ** 2) * xi_top ** (2.0 * ell)
    if not np.isfinite(top_weight):
        raise ConfigError(f"[linear] ell = {ell:g}: the order-ell weight (1 + xi^2) "
                          f"|xi|^(2 ell) overflows at the grid's largest |xi| = {xi_top:g}")
    profile = _load_profile(lin, nodes, weights)
    # a norm that underflows to 0 before the window leaves nothing to fit
    fit = _build(f"[linear] the order-{ell:g} norm of the profile cannot be fitted "
                 f"on [fit_t_min, fit_t_max] = [{fit_lo:g}, {fit_hi:g}]:",
                 evolve_and_fit, coeffs, profile, times, ell, (fit_lo, fit_hi))

    predicted = -(ell / 2.0 + 0.25)
    # the predicted rate is an upper bound: faster decay (e.g. zero-mass data)
    # passes, slower decay beyond the criterion-8 gate of 0.05 fails
    bound = predicted + 0.05
    rep = _section("linear decay fit",
                   name=f"decay exponent at ell={ell:g} (predicted {predicted:g})",
                   passed=not fit.flagged and fit.exponent <= bound,
                   observed=fit.exponent, tolerance=bound,
                   detail=(f"residual {fit.residual:.3e}, window {fit.t_window}, "
                           f"xi = 0 share of the final norm^2 {fit.zero_share:.3g}"))
    write_csv(out_dir / "decay.csv", {"t": fit.times, "norm": fit.norms})
    report = Report("linear-decay", cfg.config_hash, cfg.seed, sections=[rep],
                    constants={"exponent": fit.exponent,
                               "amplitude": fit.amplitude,
                               "residual": fit.residual,
                               "predicted_exponent": predicted})
    report.write(out_dir, quiet)
    return 0 if report.passed else 1


def cmd_nonlinear_run(cfg: RunConfig, out_dir: Path, quiet: bool) -> int:
    from .nonlinear_solver import (LEDGER_COLUMNS, PerturbationSpec, SpectralGrid,
                                   initial_field, run, sample_times, wrap_time)

    eos, ubar = cfg.closure(), cfg.equilibrium()
    nl = cfg.section("nonlinear")
    length, n, dt, t_final = nl["length"], nl["n"], nl["dt"], nl["t_final"]
    amplitude = nl["amplitude"]
    sample_every, fit_t_min = nl["sample_every"], nl["fit_t_min"]
    times = _build("[nonlinear]", sample_times, t_final, dt, sample_every)
    grid = _build("[nonlinear]", SpectralGrid, n, length)
    spec = _build("[nonlinear]", PerturbationSpec, shape=nl["shape"],
                  amplitude=amplitude, width=nl["width"], fields=nl["fields"])
    reach = 0.5 * length / spec.width    # the bump squares (x - L/2) / width
    if not np.isfinite(reach * reach):
        raise ConfigError(f"[nonlinear] width = {spec.width:g}: ((length/2)/width)^2 "
                          f"is past the range of binary64")
    field = initial_field(grid, ubar, spec)
    for name in ("rho", "theta"):      # the admissible set run() steps in
        low = float(getattr(field, name).min())
        if not low > 0:
            raise ConfigError(f"[nonlinear] the initial field leaves the admissible "
                              f"set: min {name} = {low:.6g} (must be > 0)")
    if amplitude > 0:
        # the same window on 1 + t that the decay fit uses after the run
        t = 1.0 + times
        hi = 1.0 + wrap_time(eos, ubar, length)
        if np.count_nonzero((t >= 1.0 + fit_t_min) & (t <= hi)) < 2:
            raise ConfigError("[nonlinear] the decay-fit window [fit_t_min, "
                              "wrap time] holds fewer than two ledger samples")

    ledger = run(eos, ubar, spec, t_final, dt, length, n,
                 sample_every=sample_every)

    checks = [Check(name="run completed without blow-up",
                    passed=ledger.aborted is None,
                    observed=float(ledger.t[-1]),
                    detail=ledger.aborted or "")]
    constants = {}
    if amplitude == 0:
        # rhs is identically zero at a constant field, so the stepped
        # spectrum of V - Vbar stays exactly 0 and every sample must read
        # the t = 0 one.  norm_u(0) itself need not be 0: the ledger's u is
        # the stepped m / rho, and (rhobar ubar) / rhobar can miss ubar by
        # an ulp (3 * 0.1 / 3 does)
        moved = float(np.abs(ledger.norm_u - ledger.norm_u[0]).max())
        checks.append(Check(name="equilibrium kept", passed=moved == 0.0,
                            observed=moved, tolerance=0.0,
                            detail=f"norm_u(0) = {ledger.norm_u[0]:.3g}"))
    elif ledger.aborted is None:
        for name in ("mass", "momentum", "energy"):
            drift = ledger.drift(getattr(ledger, name))
            checks.append(Check(name=f"{name} conservation", passed=drift <= 1e-8,
                                observed=drift, tolerance=1e-8))
        ent_min = float(ledger.entropy_steps().min()) if ledger.entropy.size > 1 else 0.0
        checks.append(Check(name="entropy non-decreasing",
                            passed=ent_min >= -1e-9 * sample_every,
                            observed=ent_min, tolerance=1e-9 * sample_every))
        fit = ledger.decay_fit(t_min=fit_t_min)
        checks.append(Check(name="decay exponent in [-0.5, -0.15]",
                            passed=-0.5 <= fit.exponent <= -0.15,
                            observed=fit.exponent,
                            detail=f"residual {fit.residual:.3e}"))
        constants.update(decay_exponent=fit.exponent, decay_residual=fit.residual,
                         wrap_time=ledger.wrap_time,
                         max_n1=float(ledger.max_n1.max()))
    rep = CheckReport("nonlinear run", checks)
    write_csv(out_dir / "ledger.csv",
              {name: getattr(ledger, name) for name in LEDGER_COLUMNS})
    report = Report("nonlinear-run", cfg.config_hash, cfg.seed, sections=[rep],
                    constants=constants)
    report.write(out_dir, quiet)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------


_COMMANDS = {
    "verify-thermo": cmd_verify_thermo,
    "analyze-symbol": cmd_analyze_symbol,
    "linear-decay": cmd_linear_decay,
    "nonlinear-run": cmd_nonlinear_run,
}


def _seed(raw: str) -> int:
    """A --seed value: numpy's generators take only integers >= 0."""
    if not raw.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {raw!r}")
    return int(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsfk",
        description="Dissipative-structure toolkit for 1-D capillary heat-conducting fluids")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--out", default="nsfk-out", help="output directory")
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out_dir = Path(args.out)
    # the directories this call creates, deepest first
    created = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
    try:
        cfg = RunConfig.load(args.config, seed=args.seed)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:      # e.g. --out names an existing file
            message = (f"nsfk: error: cannot create --out directory "
                       f"{out_dir}: {exc.strerror}\n")
        else:
            return _COMMANDS[args.command](cfg, out_dir, args.quiet)
    except ConfigError as exc:
        message = f"config error: {exc}\n"
    except MemoryError:         # a size key that no rule bounds, set too large
        message = f"config error: not enough memory for the sizes {args.config} sets\n"
    # an exit 2 leaves no directory behind that this call created and wrote
    # nothing to
    for path in created:
        try:
            path.rmdir()
        except OSError:     # never made, or holding what the call wrote
            pass
    sys.stderr.write(message)
    return 2


if __name__ == "__main__":
    sys.exit(main())
