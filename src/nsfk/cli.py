"""Command-line driver: config parsing, pipelines, bit-stable reports.

Subcommands
-----------
verify-thermo   closure hypotheses + entropy-pair certificate
analyze-symbol  coupling, Friedrichs search, compensating certificate,
                spectral bound and (p, q) classification, Lyapunov check
linear-decay    per-mode semigroup evolution and decay-rate fit
nonlinear-run   pseudo-spectral integration with diagnostics ledger

Configs are flat INI key-value files with one section per module; every
numeric field is validated before the computation that reads it, and a bad
value exits 2 with ``config error:``.  Identical config + seed
produce byte-identical CSV outputs.  Exit codes: 0 all criteria pass,
1 criterion failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import os
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path


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
from .reports import Check, CheckReport, fmt, write_csv  # noqa: E402


class ConfigError(ValueError):
    """Invalid or missing configuration value."""


@dataclass
class RunConfig:
    """Validated run configuration plus provenance."""

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
        digest = hashlib.sha256(raw).hexdigest()
        return RunConfig(parser=parser, path=path, config_hash=digest, seed=seed)

    # typed getters with section/field context in error messages -------------

    def _get(self, section: str, key: str, cast, default=None):
        try:
            raw = self.parser.get(section, key)
        except (configparser.NoSectionError, configparser.NoOptionError):
            if default is None:
                raise ConfigError(f"missing [{section}] {key}")
            return default
        raw = raw.strip()
        if raw == "":
            if default is None:
                raise ConfigError(f"empty value for [{section}] {key}")
            return default
        try:
            value = cast(raw)
            if cast is float and not np.isfinite(value):
                raise ValueError(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc
        return value

    def get_float(self, section, key, default=None) -> float:
        return self._get(section, key, float, default)

    def get_int(self, section, key, default=None) -> int:
        return self._get(section, key, int, default)

    def get_str(self, section, key, default=None) -> str:
        return self._get(section, key, str, default)

    def get_optional_float(self, section, key):
        sentinel = object()
        val = self._get(section, key, float, sentinel)
        return None if val is sentinel else val

    # domain objects ----------------------------------------------------------

    def closure(self):
        from .thermo import ideal_gas_eos
        kind = self.get_str("closure", "type", "ideal_gas")
        if kind != "ideal_gas":
            raise ConfigError(f"unknown closure type {kind!r}")
        R = self.get_float("closure", "R", 1.0)
        gamma = self.get_float("closure", "gamma", 5.0 / 3.0)
        kappa0 = self.get_float("closure", "kappa0", 1.0)
        mu0 = self.get_float("closure", "mu0", 1.0)
        alpha0 = self.get_float("closure", "alpha0", 1.0)
        try:
            return ideal_gas_eos(R, gamma, kappa0, mu0, alpha0)
        except ValueError as exc:
            raise ConfigError(f"[closure] {exc}") from exc

    def equilibrium(self):
        from .thermo import State
        rho = self.get_float("equilibrium", "rho", 1.0)
        u = self.get_float("equilibrium", "u", 0.0)
        theta = self.get_float("equilibrium", "theta", 1.0)
        if rho <= 0 or theta <= 0:
            raise ConfigError("[equilibrium] rho and theta must be positive")
        return State(rho, u, theta)

    def domain(self):
        from .thermo import Domain
        try:
            return Domain(
                rho_min=self.get_float("domain", "rho_min", 0.1),
                theta_min=self.get_float("domain", "theta_min", 0.1),
                rho_max=self.get_float("domain", "rho_max", 3.0),
                theta_max=self.get_float("domain", "theta_max", 3.0),
            )
        except ValueError as exc:
            raise ConfigError(f"[domain] {exc}") from exc


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

    def summary_rows(self) -> list[dict]:
        return [dict(row, config_hash=self.config_hash, version=__version__)
                for s in self.sections for row in s.rows()]

    def write(self, out_dir: Path, quiet: bool) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        text = self.to_text()
        (out_dir / "report.txt").write_text(text)
        write_csv(out_dir / "summary.csv",
                  ["report", "check", "passed", "observed", "tolerance",
                   "config_hash", "version"],
                  self.summary_rows())
        if not quiet:
            sys.stdout.write(text)


def _section(title: str, **check) -> CheckReport:
    """A report section holding the single check built from ``check``."""
    return CheckReport(title, [Check(**check)])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_verify_thermo(cfg: RunConfig, out_dir: Path, quiet: bool) -> int:
    from .convex_extension import verify_entropy_pair
    from .thermo import verify_hypotheses

    eos = cfg.closure()
    domain = cfg.domain()
    n_thermo = cfg.get_int("thermo", "n_samples", 50)
    n_pair = cfg.get_int("entropy_pair", "n_samples", 100)
    fd_step = cfg.get_float("entropy_pair", "fd_step", 1e-5)

    try:
        rep_h = verify_hypotheses(eos, domain, n_thermo)
    except ValueError as exc:
        raise ConfigError(f"[thermo] {exc}") from exc
    try:
        rep_p = verify_entropy_pair(eos, domain, n_pair, fd_step, seed=cfg.seed)
    except ValueError as exc:
        raise ConfigError(f"[entropy_pair] {exc}") from exc

    report = Report("verify-thermo", cfg.config_hash, cfg.seed,
                    sections=[rep_h, rep_p])
    write_csv(out_dir / "thermo_checks.csv",
              ["report", "check", "passed", "observed", "tolerance", "detail"],
              rep_h.rows() + rep_p.rows())
    report.write(out_dir, quiet)
    return 0 if report.passed else 1


def cmd_analyze_symbol(cfg: RunConfig, out_dir: Path, quiet: bool) -> int:
    from . import dissipativity as dis
    from .symbols import equilibrium_coefficients, symbol_triplet

    eos = cfg.closure()
    ubar = cfg.equilibrium()
    coeffs = equilibrium_coefficients(eos, ubar)

    xi_min = cfg.get_float("symbol", "xi_min", 1e-3)
    xi_max = cfg.get_float("symbol", "xi_max", 1e3)
    n_xi = cfg.get_int("symbol", "n_xi", 4001)
    eps = cfg.get_optional_float("symbol", "eps")
    cert_max = cfg.get_float("symbol", "cert_xi_max", 100.0)
    cert_n = cfg.get_int("symbol", "cert_n_xi", 4001)
    delta = cfg.get_float("symbol", "lyapunov_delta", 0.05)
    if xi_min <= 0 or xi_max <= xi_min or n_xi < 10:
        raise ConfigError("[symbol] requires 0 < xi_min < xi_max and n_xi >= 10")
    if cert_max <= 0 or cert_n < 10 or delta <= 0:
        raise ConfigError("[symbol] requires cert_xi_max > 0, cert_n_xi >= 10 "
                          "and lyapunov_delta > 0")
    grid = dis.default_xi_grid(xi_min, xi_max, n_xi)
    for lo, hi in (dis.SMALL_XI_WINDOW, dis.LARGE_XI_WINDOW):
        if np.count_nonzero((grid >= lo) & (grid <= hi)) < 2:
            raise ConfigError(f"[symbol] the xi grid needs two points in the "
                              f"spectral fit window [{lo:g}, {hi:g}]")
    gamma_bar, eps_lo, eps_hi = dis.compensating_window(coeffs)
    # an empty window is a property of the closure (no dissipation) and is
    # reported as a failed check; an eps outside a non-empty one is a bad input
    have_cert = eps_hi > eps_lo
    if have_cert and eps is not None and not eps_lo < eps < eps_hi:
        raise ConfigError(f"[symbol] eps = {eps} outside the admissible window "
                          f"({eps_lo:.6g}, {eps_hi:.6g})")

    sections = []
    constants = {}

    coupling = dis.check_genuine_coupling(symbol_triplet(coeffs), grid)
    offending = ", ".join(f"{x:.6g}" for x, _ in coupling.failures[:5])
    sections.append(_section(
        "genuine coupling", name="min coupling margin", passed=coupling.passed,
        observed=coupling.min_margin, tolerance=1e-10,
        detail=(f"worst xi = {coupling.worst_xi:.6g} of {coupling.n_xi} grid points"
                + (f"; offending xi = {offending}" if offending else ""))))
    constants["coupling_min_margin"] = coupling.min_margin

    fried = dis.check_friedrichs(coeffs, seed=cfg.seed)
    # the capillary system must NOT be Friedrichs symmetrizable; without
    # capillarity a symmetrizer must exist
    expect_feasible = coeffs.k == 0.0
    sections.append(_section(
        "Friedrichs symmetrizability", name="symmetrizer exists iff kappa = 0",
        passed=fried.feasible == expect_feasible, observed=fried.min_eig,
        detail=(f"{'feasible' if fried.feasible else 'infeasible'}, constraint "
                f"nullspace dimension {fried.nullspace_dim}: {fried.certificate}")))

    if have_cert:
        cert = dis.verify_certificate(
            coeffs, eps, np.linspace(-cert_max, cert_max, cert_n))
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
    sections.append(_section(
        "spectral bound", name="max sigma over xi != 0",
        passed=spect.strictly_dissipative, observed=float(spect.sigma.max()),
        tolerance=0.0,
        detail=(f"{spect.xi.size} modes, (p, q) = ({spect.p:.4f}, {spect.q:.4f}), "
                f"c0 = {spect.c0:.6g}, log-residual {spect.residual:.3e}, "
                f"classification: {spect.classification}, "
                f"Re lambda <= -{spect.c0_uniform:.6g} xi^2")))
    if spect.strictly_dissipative:
        constants.update(type_p=spect.p, type_q=spect.q, c0_fit=spect.c0,
                         c0_uniform=spect.c0_uniform,
                         classification=spect.classification)

    if have_cert:
        lyap = dis.lyapunov_check(coeffs, eps, delta, seed=cfg.seed)
        # an inconclusive check (precondition on delta violated, e.g. the
        # capillarity-free sub-case) is reported but not a criterion failure
        sections.append(_section(
            "Lyapunov functional", name="worst slack of dY/dt + c0 xi^2 Y",
            passed=lyap.passed or lyap.inconclusive, observed=lyap.worst_slack,
            tolerance=1e-10,
            detail=(f"inconclusive: {lyap.reason}" if lyap.inconclusive else
                    f"c0 = {lyap.c0:.6g}, delta = {lyap.delta:g}, "
                    f"max |Im Y| = {lyap.max_imag:.3e}")))
        constants["lyapunov_c0"] = lyap.c0

    # CSV artifacts
    pred = (-spect.c0 * np.abs(spect.xi) ** (2 * spect.p)
            / (1 + spect.xi ** 2) ** spect.q
            if spect.strictly_dissipative else np.full_like(spect.xi, np.nan))
    write_csv(out_dir / "sigma.csv", ["xi", "sigma", "predicted_bound"],
              [{"xi": float(x), "sigma": float(s), "predicted_bound": float(p)}
               for x, s, p in zip(spect.xi, spect.sigma, pred)])
    tracks_xi = np.linspace(-cert_max, cert_max, min(cert_n, 2001))
    closed = dis.atilde_eigenvalues(coeffs, tracks_xi)
    tt = dis.transformed_triplet(coeffs)
    numeric = np.sort(np.linalg.eigvalsh(tt.atilde(tracks_xi)), axis=-1)
    lams = [f"lam{i}_{kind}" for kind in ("closed", "numeric") for i in (1, 2, 3)]
    write_csv(out_dir / "eigen_tracks.csv", ["xi", *lams],
              [dict(zip(["xi", *lams], map(float, (x, *c, *n))))
               for x, c, n in zip(tracks_xi, closed, numeric)])

    report = Report("analyze-symbol", cfg.config_hash, cfg.seed,
                    sections=sections, constants=constants)
    report.write(out_dir, quiet)
    return 0 if report.passed else 1


def _load_profile(cfg: RunConfig, nodes, weights):
    from .linear_evolution import (SpectralProfile, gaussian_profile,
                                   zero_mass_gaussian_profile)
    kind = cfg.get_str("linear", "profile", "gaussian")
    if kind == "gaussian":
        return gaussian_profile(nodes, weights)
    if kind in ("zero-mass-gaussian", "zero_mass_gaussian"):
        return zero_mass_gaussian_profile(nodes, weights)
    if kind == "csv":
        path = Path(cfg.get_str("linear", "profile_csv"))
        if not path.is_file():
            raise ConfigError(f"[linear] profile_csv not found: {path}")
        try:
            data = np.genfromtxt(path, delimiter=",", names=True)
            xi = np.asarray(data["xi"], dtype=float)
            modes = np.stack([
                data["re1"] + 1j * data["im1"],
                data["re2"] + 1j * data["im2"],
                data["re3"] + 1j * data["im3"],
            ], axis=1)
            return SpectralProfile(xi, np.gradient(xi), modes)
        except ValueError as exc:
            raise ConfigError(f"[linear] profile_csv {path}: {exc}") from exc
    raise ConfigError(f"[linear] unknown profile {kind!r}")


def cmd_linear_decay(cfg: RunConfig, out_dir: Path, quiet: bool) -> int:
    from .linear_evolution import evolve_and_fit, geometric_nodes
    from .symbols import equilibrium_coefficients

    eos = cfg.closure()
    coeffs = equilibrium_coefficients(eos, cfg.equilibrium())

    n_nodes = cfg.get_int("linear", "n_nodes", 4096)
    xi_cap = cfg.get_float("linear", "xi_cap", 200.0)
    h0 = cfg.get_float("linear", "h0", 1e-4)
    ell = cfg.get_float("linear", "ell", 0.0)
    t_min = cfg.get_float("linear", "t_min", 0.1)
    t_max = cfg.get_float("linear", "t_max", 1e4)
    n_times = cfg.get_int("linear", "n_times", 41)
    fit_lo = cfg.get_float("linear", "fit_t_min", 1e2)
    fit_hi = cfg.get_float("linear", "fit_t_max", t_max)
    if t_min <= 0 or t_max <= t_min or n_times < 4 or ell < 0:
        raise ConfigError("[linear] requires 0 < t_min < t_max, n_times >= 4 "
                          "and ell >= 0")
    if not (t_min <= fit_lo < fit_hi <= t_max):
        raise ConfigError("[linear] fit window must sit inside the time range")
    times = np.logspace(np.log10(t_min), np.log10(t_max), n_times)
    # the same comparison as the fit's window on 1 + t
    if np.count_nonzero((1.0 + times >= 1.0 + fit_lo)
                        & (1.0 + times <= 1.0 + fit_hi)) < 2:
        raise ConfigError("[linear] the fit window holds fewer than two of the "
                          "n_times evaluation times")
    try:
        nodes, weights = geometric_nodes(n_nodes, xi_cap, h0)
    except ValueError as exc:
        raise ConfigError(f"[linear] {exc}") from exc

    profile = _load_profile(cfg, nodes, weights)
    fit = evolve_and_fit(coeffs, profile, times, ell, (fit_lo, fit_hi))

    predicted = -(ell / 2.0 + 0.25)
    # the predicted rate is an upper bound: faster decay (e.g. zero-mass data)
    # passes, slower decay beyond the criterion-8 gate of 0.05 fails
    bound = predicted + 0.05
    rep = _section("linear decay fit",
                   name=f"decay exponent at ell={ell:g} (predicted {predicted:g})",
                   passed=not fit.flagged and fit.exponent <= bound,
                   observed=fit.exponent, tolerance=bound,
                   detail=f"residual {fit.residual:.3e}, window {fit.t_window}")
    write_csv(out_dir / "decay.csv", ["t", "norm"],
              [{"t": float(t), "norm": float(nm)}
               for t, nm in zip(fit.times, fit.norms)])
    report = Report("linear-decay", cfg.config_hash, cfg.seed, sections=[rep],
                    constants={"exponent": fit.exponent,
                               "amplitude": fit.amplitude,
                               "residual": fit.residual,
                               "predicted_exponent": predicted})
    report.write(out_dir, quiet)
    return 0 if report.passed else 1


def cmd_nonlinear_run(cfg: RunConfig, out_dir: Path, quiet: bool) -> int:
    from .nonlinear_solver import (PerturbationSpec, SpectralGrid, make_stepper,
                                   run, sample_times, wrap_time)

    eos = cfg.closure()
    ubar = cfg.equilibrium()
    length = cfg.get_float("nonlinear", "length", 400.0)
    n = cfg.get_int("nonlinear", "n", 4096)
    dt = cfg.get_float("nonlinear", "dt", 0.02)
    t_final = cfg.get_float("nonlinear", "t_final", 150.0)
    scheme = cfg.get_str("nonlinear", "scheme", "if-rk4")
    amplitude = cfg.get_float("nonlinear", "amplitude", 1e-2)
    width = cfg.get_float("nonlinear", "width", 3.0)
    shape = cfg.get_str("nonlinear", "shape", "gaussian")
    fields = tuple(f.strip() for f in
                   cfg.get_str("nonlinear", "fields", "rho").split(",") if f.strip())
    sample_every = cfg.get_int("nonlinear", "sample_every", 100)
    fit_t_min = cfg.get_float("nonlinear", "fit_t_min", 20.0)
    if dt <= 0 or t_final <= 0:
        raise ConfigError("[nonlinear] dt and t_final must be positive")
    if sample_every < 1:
        raise ConfigError("[nonlinear] sample_every must be >= 1")
    if amplitude < 0 or width <= 0:
        raise ConfigError("[nonlinear] amplitude >= 0 and width > 0 required")
    if not fields:
        raise ConfigError("[nonlinear] fields must name at least one field")
    for f in fields:
        if f not in ("rho", "u", "theta"):
            raise ConfigError(f"[nonlinear] unknown perturbed field {f!r}")
    if scheme not in ("if-rk4", "rk4"):
        raise ConfigError(f"[nonlinear] unknown scheme {scheme!r} "
                          "(expected 'if-rk4' or 'rk4')")
    try:
        grid = SpectralGrid(n, length)
        spec = PerturbationSpec(shape=shape, amplitude=amplitude, width=width,
                                fields=fields)
    except ValueError as exc:
        raise ConfigError(f"[nonlinear] {exc}") from exc
    if amplitude > 0:
        # the same window on 1 + t that the decay fit uses after the run
        t = 1.0 + sample_times(t_final, dt, sample_every)
        hi = 1.0 + wrap_time(eos, ubar, length)
        if np.count_nonzero((t >= 1.0 + fit_t_min) & (t <= hi)) < 2:
            raise ConfigError("[nonlinear] the decay-fit window [fit_t_min, "
                              "wrap time] holds fewer than two ledger samples")
    if scheme == "rk4":
        limit = make_stepper("rk4", eos, ubar, grid, dt).stability_limit()
        if dt > limit:
            raise ConfigError(
                f"[nonlinear] dt = {dt} exceeds the explicit stability bound "
                f"{limit:.3e} for scheme rk4")

    ledger = run(eos, ubar, spec, t_final, dt, length, n, scheme=scheme,
                 sample_every=sample_every)

    checks = [Check(name="run completed without blow-up",
                    passed=ledger.aborted is None,
                    observed=float(ledger.times[-1]),
                    detail=ledger.aborted or "")]
    constants = {}
    if ledger.aborted is None and amplitude > 0:
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
              ["t", "mass", "momentum", "energy", "entropy", "norm_u",
               "norm_w", "ratio", "max_n1"],
              ledger.rows())
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsfk",
        description="Dissipative-structure toolkit for 1-D capillary heat-conducting fluids")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--out", default="nsfk-out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = RunConfig.load(args.config, seed=args.seed)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir, args.quiet)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
