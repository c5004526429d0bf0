"""Acceptance criteria for the reference configuration.

Reference closure throughout: ideal gas R = 1, gamma = 5/3, unit capillarity,
viscosity and heat conductivity, equilibrium (rho, u, theta) = (1, 0, 1).
Each criterion prints one PASS/FAIL line (run with -s to see them inline)
and asserts at its stated tolerance.
"""

import time

import numpy as np
import pytest

from nsfk import convex_extension as cx
from nsfk import dissipativity as dis
from nsfk import linear_evolution as lin
from nsfk import nonlinear_solver as nls
from nsfk import symbols as sym
from nsfk.fitting import fit_power_law
from oracles import free_energy


def _criterion(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number:2d}: {name} -- {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_01_thermodynamic_identities(ref_eos, domain):
    t0 = time.perf_counter()
    rho, theta = domain.grid(50)
    res = np.abs(ref_eos.e_rho(rho, theta)
                 - (ref_eos.p(rho, theta) - theta * ref_eos.p_theta(rho, theta))
                 / rho ** 2).max()
    res = max(res, np.abs(ref_eos.eta_theta(rho, theta)
                          - ref_eos.e_theta(rho, theta) / theta).max())
    res = max(res, np.abs(ref_eos.eta_rho(rho, theta)
                          + ref_eos.p_theta(rho, theta) / rho ** 2).max())
    # Legendre identity eps = Psi + theta s with a gradient sweep
    for rho_x in (0.0, 0.5, 1.0):
        eps = ref_eos.epsilon(rho, theta, rho_x)
        psi = free_energy(ref_eos, rho, theta, rho_x)
        s = ref_eos.s(rho, theta, rho_x)
        res = max(res, np.abs(eps - (psi + theta * s)).max())
    elapsed = time.perf_counter() - t0
    _criterion(1, "thermodynamic identities", res <= 1e-10 and elapsed < 1.0,
               f"max residual {res:.3e} (tol 1e-10), {elapsed:.3f}s (< 1s)")


def test_criterion_02_entropy_pair_certificate(ref_eos, domain):
    t0 = time.perf_counter()
    report = cx.verify_entropy_pair(ref_eos, domain, n_samples=100,
                                    fd_step=1e-5, seed=11)
    elapsed = time.perf_counter() - t0
    by_name = {c.name: c for c in report.checks}
    sym_res = by_name["Hessian/A0/A1 symmetry residual"].observed
    flux_res = by_name["flux compatibility D_U Theta = Z^T D_U f1"].observed
    hess_min = by_name["entropy Hessian positive definite"].observed
    ok = (sym_res <= 1e-12 and flux_res <= 1e-6 and hess_min > 0
          and elapsed < 1.0)
    _criterion(2, "entropy-pair certificate", ok,
               f"symmetry {sym_res:.2e} (1e-12), flux {flux_res:.2e} (1e-6), "
               f"min Hessian eig {hess_min:.3e} > 0, {elapsed:.3f}s (< 1s)")


def test_criterion_03_eigenvalue_tracks(ref_coeffs):
    xi = np.linspace(-100.0, 100.0, 2001)
    closed = dis.atilde_eigenvalues(ref_coeffs, xi)
    numeric = np.sort(np.linalg.eigvalsh(dis.atilde(ref_coeffs, xi)), axis=-1)
    err = np.abs(closed - numeric).max()
    gap = np.diff(closed, axis=-1).min()
    root = float(np.sqrt(5.0 / 3.0))
    at_zero = closed[np.argmin(np.abs(xi))]
    pair_err = max(abs(at_zero[0] + root), abs(at_zero[2] - root))
    ok = err <= 1e-12 and gap > 0 and pair_err <= 1e-12
    _criterion(3, "closed-form eigenvalue tracks", ok,
               f"max |closed - numeric| {err:.2e} (1e-12), min gap {gap:.3f}, "
               f"extreme pair at xi=0 within {pair_err:.2e} of +/-sqrt(5/3)")


def test_criterion_04_genuine_coupling(ref_coeffs, nsf_coeffs):
    grid = dis.default_xi_grid(n_per_decade=1001)
    full = dis.genuine_coupling_scan(ref_coeffs.a0, ref_coeffs.a, ref_coeffs.b, grid)
    nsf = dis.genuine_coupling_scan(nsf_coeffs.a0, nsf_coeffs.a, nsf_coeffs.b, grid)
    a0 = ref_coeffs.A0
    control = dis.genuine_coupling_scan(
        lambda xi: a0, lambda xi: a0, lambda xi: np.zeros((3, 3)),
        np.linspace(-5, 5, 11))
    ok = (full.passed and full.min_margin > 0
          and nsf.passed and not control.passed)
    _criterion(4, "genuine coupling", ok,
               f"capillary margin {full.min_margin:.3e} > 0, "
               f"NSF margin {nsf.min_margin:.3e} > 0, "
               f"decoupled control fails ({len(control.failures)} violations)")


def test_criterion_05_friedrichs_infeasibility(ref_coeffs, nsf_coeffs):
    t0 = time.perf_counter()
    full = dis.check_friedrichs(ref_coeffs)
    nsf = dis.check_friedrichs(nsf_coeffs)
    elapsed = time.perf_counter() - t0
    ok = (not full.feasible) and nsf.feasible and elapsed < 1.0
    detail = (f"capillary system infeasible ({full.certificate.split(';')[0]}), "
              f"NSF symmetrizer min eig {nsf.min_eig:.3f}, {elapsed:.3f}s (< 1s)")
    _criterion(5, "Friedrichs infeasibility", ok, detail)


def test_criterion_06_compensating_certificate(ref_coeffs):
    gamma_bar, lo, hi = dis.compensating_window(ref_coeffs)
    window_ok = (abs(gamma_bar - 1.0 / 6.0) <= 1e-12
                 and abs(lo - 1.0 / 6.0) <= 1e-12 and abs(hi - 0.5) <= 1e-12)
    cert = dis.verify_certificate(ref_coeffs, eps=1.0 / 3.0,
                                  xi_grid=np.linspace(-100.0, 100.0, 8001),
                                  tol=1e-10)
    ok = (window_ok and cert.passed and cert.min_eig >= 1.0 / 6.0 - 1e-10
          and np.isfinite(cert.sup_K) and np.isfinite(cert.sup_xiK))
    _criterion(6, "compensating certificate", ok,
               f"window ({lo:.6g}, {hi:.6g}), eps 1/3, min eig {cert.min_eig:.12f} "
               f">= 1/6 - 1e-10, sup|K| {cert.sup_K:.4f}, sup|xi K| {cert.sup_xiK:.4f}")


def test_criterion_07_strict_dissipativity_type(ref_coeffs):
    t0 = time.perf_counter()
    rep = dis.spectral_bound(ref_coeffs, dis.default_xi_grid(n_per_decade=4001))
    elapsed = time.perf_counter() - t0
    ok = (rep.strictly_dissipative
          and abs(rep.p - 1.0) <= 0.05 and abs(rep.q) <= 0.05
          and rep.classification == "regularity-gain"
          and elapsed < 10.0)
    _criterion(7, "strict dissipativity of type (1, 0)", ok,
               f"(p, q) = ({rep.p:.4f}, {rep.q:.4f}) within +/-0.05, "
               f"{rep.classification}, c0 = {rep.c0:.4f}, {elapsed:.2f}s (< 10s)")


def test_criterion_08_linear_decay_rates(ref_coeffs):
    t0 = time.perf_counter()
    nodes, weights = lin.geometric_nodes(4096, 200.0, 1e-4)
    profile = lin.gaussian_profile(nodes, weights)
    times = np.logspace(-1, 4, 41)
    fit0 = lin.evolve_and_fit(ref_coeffs, profile, times, 0, (1e2, 1e4))
    fit1 = lin.evolve_and_fit(ref_coeffs, profile, times, 1, (1e2, 1e4))
    elapsed = time.perf_counter() - t0
    ok = (abs(fit0.exponent + 0.25) <= 0.05 and abs(fit1.exponent + 0.75) <= 0.05
          and elapsed < 60.0)
    _criterion(8, "linear decay rates", ok,
               f"ell=0 exponent {fit0.exponent:.4f} (-0.25 +/- 0.05), "
               f"ell=1 exponent {fit1.exponent:.4f} (-0.75 +/- 0.05), "
               f"{elapsed:.1f}s (< 60s)")


def test_criterion_09_lyapunov_functional(ref_coeffs):
    xi = np.linspace(-50.0, 50.0, 201)  # 200 nonzero grid points
    rep = dis.lyapunov_check(ref_coeffs, eps=1.0 / 3.0, delta=0.05,
                             xi_grid=xi, tol=1e-10)
    ok = rep.passed and rep.worst_slack <= 1e-10
    _criterion(9, "Lyapunov modal decay", ok,
               f"worst slack {rep.worst_slack:.3e} <= 1e-10 with "
               f"c0 = {rep.c0:.5f}, delta = 0.05, all unit modes x 200 xi")


@pytest.fixture(scope="module")
def nonlinear_ledger(ref_eos, ref_equilibrium):
    t0 = time.perf_counter()
    ledger = nls.run(ref_eos, ref_equilibrium,
                     nls.PerturbationSpec(amplitude=1e-2, width=3.0),
                     t_final=150.0, dt=0.02, length=400.0, n=4096,
                     sample_every=100)
    return ledger, time.perf_counter() - t0


@pytest.mark.slow
def test_criterion_10_nonlinear_global_decay(nonlinear_ledger):
    ledger, elapsed = nonlinear_ledger
    completed = ledger.aborted is None
    mass = ledger.drift(ledger.mass)
    momentum = ledger.drift(ledger.momentum)
    energy = ledger.drift(ledger.energy)
    # ledger samples every 100 steps: per-step bound scales accordingly
    entropy_min = float(ledger.entropy_steps().min())
    entropy_ok = entropy_min >= -1e-9 * 100
    n1_rel = float((ledger.max_n1 / ledger.nonlinear_scale).max())
    monotone = bool(np.all(np.diff(ledger.norm_u) < 0))
    fit = ledger.decay_fit(t_min=20.0)
    ratios = ledger.ratio[np.isfinite(ledger.ratio)]
    band_lo, band_hi = 0.5, 2.0
    in_band = bool(np.all((ratios >= band_lo) & (ratios <= band_hi)))
    ok = (completed and mass <= 1e-8 and momentum <= 1e-8 and energy <= 1e-8
          and entropy_ok and n1_rel <= 1e-12
          and monotone and -0.5 <= fit.exponent <= -0.15
          and in_band and elapsed < 600.0)
    _criterion(10, "nonlinear global decay", ok,
               f"drift mass {mass:.1e} / momentum {momentum:.1e} / "
               f"energy {energy:.1e} (<= 1e-8), min entropy step {entropy_min:.1e}, "
               f"max |N1|/scale {n1_rel:.1e} (<= 1e-12), monotone {monotone}, "
               f"exponent {fit.exponent:.3f} in [-0.5, -0.15], "
               f"ratio in [{ratios.min():.4f}, {ratios.max():.4f}] within "
               f"[{band_lo}, {band_hi}], {elapsed:.0f}s (< 600s)")


def test_criterion_11_nonlinearity_order(ref_eos, ref_equilibrium):
    x = np.linspace(0.0, 2 * np.pi, 33)[:-1]
    deltas = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    norms = []
    for d in deltas:
        ext = sym.ExtendedState(
            rho=1.0 + d * np.sin(x), u=d * np.cos(x),
            theta=1.0 + d * np.sin(2 * x),
            rho_x=d * np.cos(x), u_x=-d * np.sin(x),
            theta_x=2 * d * np.cos(2 * x),
            rho_xx=-d * np.sin(x), u_xx=-d * np.cos(x),
            theta_xx=-4 * d * np.sin(2 * x),
        )
        n = sym.nonlinear_terms(ref_eos, ref_equilibrium, ext,
                                sym.flux_and_tensors(ref_eos, ext))
        norms.append(np.abs(n).max())
    fit = fit_power_law(deltas, np.array(norms))
    ok = 1.9 <= fit.exponent <= 2.1
    _criterion(11, "quadratic nonlinearity order", ok,
               f"amplitude-scaling slope {fit.exponent:.4f} in [1.9, 2.1] "
               f"(log-residual {fit.residual:.2e})")
