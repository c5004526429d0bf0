import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsfk.thermo import (
    Coefficient,
    Domain,
    EquationOfState,
    ideal_gas_eos,
    verify_hypotheses,
)
from conftest import sample_states
from oracles import free_energy

interior = st.floats(min_value=0.3, max_value=2.5)
gradient = st.floats(min_value=-1.5, max_value=1.5)


def kappa_linear_in_theta(kappa0: float) -> Coefficient:
    """kappa = kappa0 * theta (kappa_thth = 0, admissible)."""
    return Coefficient(
        f=lambda r, t: kappa0 * np.asarray(t, dtype=float),
        d_r=lambda r, t: 0.0 * np.asarray(t, dtype=float),
        d_t=lambda r, t: kappa0 + 0.0 * np.asarray(t, dtype=float),
        d_rr=lambda r, t: 0.0 * np.asarray(t, dtype=float),
        d_rt=lambda r, t: 0.0 * np.asarray(t, dtype=float),
        d_tt=lambda r, t: 0.0 * np.asarray(t, dtype=float),
    )


class TestConstantCoefficient:
    def test_returns_float_for_arrays(self):
        c = Coefficient.constant(2)
        rho, theta = np.ones(7), np.ones((3, 1))
        for fn in (c, c.d_r, c.d_t, c.d_rr, c.d_rt, c.d_tt):
            assert type(fn(rho, theta)) is float
        assert c(rho, theta) == 2.0 and c.d_tt(rho, theta) == 0.0

    def test_verify_hypotheses_reports_grid_state(self, ref_eos, domain):
        rep = verify_hypotheses(ref_eos, domain, n_samples=4)
        mu = next(c for c in rep.checks if c.name == "viscosity mu > 0")
        assert mu.observed == 1.0
        # the first grid state holds the (tied) minimum
        assert mu.detail == f"worst at (rho, theta) = {(0.1, 0.1)}"


class TestIdealGasValues:
    def test_reference_state(self, ref_eos):
        # by hand: p = R rho theta = 1, e = R theta/(gamma-1) = 1.5
        assert ref_eos.p(1.0, 1.0) == pytest.approx(1.0, abs=1e-14)
        assert ref_eos.e(1.0, 1.0) == pytest.approx(1.5, abs=1e-14)
        assert ref_eos.e_theta(1.0, 1.0) == pytest.approx(1.5, abs=1e-14)

    def test_off_reference_state(self, ref_eos):
        # p = R rho theta evaluated by hand at (2, 3)
        assert ref_eos.p(2.0, 3.0) == pytest.approx(6.0, abs=1e-13)
        assert ref_eos.p_rho(2.0, 3.0) == pytest.approx(3.0, abs=1e-13)
        assert ref_eos.p_theta(2.0, 3.0) == pytest.approx(2.0, abs=1e-13)

    @given(rho=interior, theta=interior)
    @settings(max_examples=50, deadline=None)
    def test_entropy_pressure_relation(self, ref_eos, rho, theta):
        # eta_rho + p_theta / rho^2 = 0 exactly for the ideal gas
        res = ref_eos.eta_rho(rho, theta) + ref_eos.p_theta(rho, theta) / rho ** 2
        assert abs(res) <= 1e-13

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ideal_gas_eos(0.0, 5.0 / 3.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ideal_gas_eos(1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ideal_gas_eos(1.0, 1.4, -0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            ideal_gas_eos(1.0, 1.4, 1.0, -1.0, 1.0)
        # kappa0 = 0 (no capillarity) and mu0 = alpha0 = 0 are legal controls
        ideal_gas_eos(1.0, 1.4, 0.0, 0.0, 0.0)


class TestAnalyticDerivatives:
    """Analytic partials agree with central differences at step 1e-5."""

    @pytest.mark.parametrize("name,value,deriv_r,deriv_t", [
        ("p", "p", "p_rho", "p_theta"),
        ("e", "e", "e_rho", "e_theta"),
        ("eta", "eta", "eta_rho", "eta_theta"),
    ])
    def test_first_derivatives(self, ref_eos, domain, rng, name, value,
                               deriv_r, deriv_t):
        h = 1e-5
        states = sample_states(domain, 200, rng)
        f = getattr(ref_eos, value)
        for rho, theta in zip(np.asarray(states.rho), np.asarray(states.theta)):
            fd_r = (f(rho + h, theta) - f(rho - h, theta)) / (2 * h)
            fd_t = (f(rho, theta + h) - f(rho, theta - h)) / (2 * h)
            scale_r = max(abs(fd_r), 1.0)
            scale_t = max(abs(fd_t), 1.0)
            assert abs(getattr(ref_eos, deriv_r)(rho, theta) - fd_r) <= 1e-6 * scale_r
            assert abs(getattr(ref_eos, deriv_t)(rho, theta) - fd_t) <= 1e-6 * scale_t


class TestClosureFixtures:
    @pytest.mark.parametrize("closure", ["sqrt_kappa_eos", "rho_theta_kappa_eos"])
    def test_kappa_partials_match_differences(self, request, closure, domain, rng):
        # the analytic partials of the test closures' kappa against central
        # differences of the value and of the first partials at step 1e-5
        kap = request.getfixturevalue(closure).kappa
        h = 1e-5
        states = sample_states(domain, 50, rng)
        rho, theta = np.asarray(states.rho), np.asarray(states.theta)
        for fn, d_r, d_t in ((kap, kap.d_r, kap.d_t), (kap.d_r, kap.d_rr, kap.d_rt),
                             (kap.d_t, kap.d_rt, kap.d_tt)):
            fd_r = (fn(rho + h, theta) - fn(rho - h, theta)) / (2 * h)
            fd_t = (fn(rho, theta + h) - fn(rho, theta - h)) / (2 * h)
            assert np.abs(d_r(rho, theta) - fd_r).max() <= 1e-6 * max(1.0, np.abs(fd_r).max())
            assert np.abs(d_t(rho, theta) - fd_t).max() <= 1e-6 * max(1.0, np.abs(fd_t).max())

    def test_potentials_match_the_methods(self, ref_eos, sqrt_kappa_eos, domain, rng):
        # the one call the closure pass makes, bit for bit the single methods
        states = sample_states(domain, 100, rng)
        for eos in (ref_eos, sqrt_kappa_eos):
            got = eos.potentials(states.rho, states.theta, entropy=True)
            for value, name in zip(got, ("p", "e", "e_rho", "e_theta", "eta")):
                want = getattr(eos, name)(states.rho, states.theta)
                assert np.array_equal(*np.broadcast_arrays(value, want)), name
            assert eos.potentials(states.rho, states.theta)[4] is None


class TestNonstandardPotentials:
    def test_energy_without_gradient_is_standard(self, ref_eos):
        assert ref_eos.epsilon(1.3, 0.9, 0.0) == pytest.approx(
            float(np.asarray(ref_eos.e(1.3, 0.9))), abs=1e-15)

    def test_energy_with_gradient(self, ref_eos):
        # constant kappa: eps = e + kappa0 rho_x^2 = 1.5 + 1 = 2.5 by hand
        assert ref_eos.epsilon(1.0, 1.0, 1.0) == pytest.approx(2.5, abs=1e-14)

    def test_energy_gradient_term_cancels_for_linear_kappa(self, ref_eos):
        # kappa = kappa0 theta: kappa - theta kappa_theta = 0 identically
        eos = EquationOfState(psi=ref_eos.psi, kappa=kappa_linear_in_theta(0.7),
                              mu=ref_eos.mu, alpha=ref_eos.alpha)
        for rho_x in (0.0, 0.5, 2.0):
            assert eos.epsilon(1.2, 0.8, rho_x) == pytest.approx(
                float(np.asarray(eos.e(1.2, 0.8))), abs=1e-14)

    def test_entropy_without_gradient(self, ref_eos):
        assert ref_eos.s(1.1, 1.4, 0.0) == pytest.approx(
            float(np.asarray(ref_eos.eta(1.1, 1.4))), abs=1e-15)

    def test_entropy_constant_kappa(self, ref_eos):
        # kappa_theta = 0: s = eta for any gradient
        assert ref_eos.s(1.1, 1.4, 3.0) == pytest.approx(
            float(np.asarray(ref_eos.eta(1.1, 1.4))), abs=1e-15)

    def test_entropy_affine_kappa(self, ref_eos):
        # kappa = kappa0 (2 - theta/theta*): s = eta + (kappa0/theta*) rho_x^2
        kappa0, theta_star = 0.4, 2.0

        def shape(r, t):
            return kappa0 * (2.0 - np.asarray(t, dtype=float) / theta_star)

        kap = Coefficient(
            f=shape,
            d_r=lambda r, t: 0.0 * np.asarray(t, dtype=float),
            d_t=lambda r, t: -kappa0 / theta_star + 0.0 * np.asarray(t, dtype=float),
            d_rr=lambda r, t: 0.0 * np.asarray(t, dtype=float),
            d_rt=lambda r, t: 0.0 * np.asarray(t, dtype=float),
            d_tt=lambda r, t: 0.0 * np.asarray(t, dtype=float),
        )
        eos = EquationOfState(psi=ref_eos.psi, kappa=kap, mu=ref_eos.mu,
                              alpha=ref_eos.alpha)
        expected = float(np.asarray(eos.eta(1.0, 1.5))) + (kappa0 / theta_star) * 0.8 ** 2
        assert eos.s(1.0, 1.5, 0.8) == pytest.approx(expected, abs=1e-14)

    @given(rho=interior, theta=interior, rho_x=gradient)
    @settings(max_examples=100, deadline=None)
    def test_legendre_identity(self, ref_eos, rho, theta, rho_x):
        # eps = Psi + theta s to machine precision
        eps = ref_eos.epsilon(rho, theta, rho_x)
        psi = free_energy(ref_eos, rho, theta, rho_x)
        ent = ref_eos.s(rho, theta, rho_x)
        assert abs(eps - (psi + theta * ent)) <= 1e-12 * max(1.0, abs(eps))


class TestModifiedCapillarity:
    def test_values(self, ref_eos):
        assert ref_eos.k(1.0, 1.0) == pytest.approx(2.0)
        assert ref_eos.k(2.0, 1.0) == pytest.approx(4.0)
        eos_half = ideal_gas_eos(1.0, 5.0 / 3.0, 0.5, 1.0, 1.0)
        assert eos_half.k(3.0, 1.0) == pytest.approx(3.0)

    @given(rho=interior, theta=interior)
    @settings(max_examples=30, deadline=None)
    def test_linearity_in_rho(self, ref_eos, rho, theta):
        s1 = ref_eos.k(rho, theta)
        s2 = ref_eos.k(2 * rho, theta)
        assert s2 == pytest.approx(2 * s1, rel=1e-13)


class TestVerifyHypotheses:
    def test_ideal_gas_passes(self, ref_eos, domain):
        report = verify_hypotheses(ref_eos, domain, 50)
        assert report.passed, report.to_text()

    def test_sqrt_kappa_closure_passes(self, sqrt_kappa_eos, domain):
        report = verify_hypotheses(sqrt_kappa_eos, domain, 50)
        assert report.passed, report.to_text()

    def test_convex_kappa_fails_stability(self, ref_eos, domain):
        # kappa = theta^2 has kappa_thth = 2 > 0
        kap = Coefficient(
            f=lambda r, t: np.asarray(t, dtype=float) ** 2,
            d_r=lambda r, t: 0.0 * np.asarray(t, dtype=float),
            d_t=lambda r, t: 2.0 * np.asarray(t, dtype=float),
            d_rr=lambda r, t: 0.0 * np.asarray(t, dtype=float),
            d_rt=lambda r, t: 0.0 * np.asarray(t, dtype=float),
            d_tt=lambda r, t: 2.0 + 0.0 * np.asarray(t, dtype=float),
        )
        eos = EquationOfState(psi=ref_eos.psi, kappa=kap, mu=ref_eos.mu,
                              alpha=ref_eos.alpha)
        report = verify_hypotheses(eos, domain, 20)
        bad = {c.name: c for c in report.checks}["thermal stability kappa_thth <= 0"]
        assert not bad.passed
        assert report.passed is False

    def test_theta_independent_pressure_fails_weyl(self, ref_eos, domain):
        # psi = log(rho) - theta^2/2: p = rho, p_theta = 0
        psi = Coefficient(
            f=lambda r, t: np.log(np.asarray(r, dtype=float)) - np.asarray(t, dtype=float) ** 2 / 2,
            d_r=lambda r, t: 1.0 / np.asarray(r, dtype=float) + 0.0 * np.asarray(t, dtype=float),
            d_t=lambda r, t: -np.asarray(t, dtype=float) + 0.0 * np.asarray(r, dtype=float),
            d_rr=lambda r, t: -1.0 / np.asarray(r, dtype=float) ** 2 + 0.0 * np.asarray(t, dtype=float),
            d_rt=lambda r, t: 0.0 * np.asarray(r, dtype=float) * np.asarray(t, dtype=float),
            d_tt=lambda r, t: -1.0 + 0.0 * np.asarray(r, dtype=float),
        )
        eos = EquationOfState(psi=psi, kappa=ref_eos.kappa, mu=ref_eos.mu,
                              alpha=ref_eos.alpha)
        report = verify_hypotheses(eos, domain, 20)
        bad = {c.name: c for c in report.checks}["Weyl p_theta > 0"]
        assert not bad.passed

    def test_rho_theta_kappa_closure_passes(self, rho_theta_kappa_eos, domain):
        report = verify_hypotheses(rho_theta_kappa_eos, domain, 50)
        assert report.passed, report.to_text()

    def test_energy_row_checks_the_closed_form(self, ref_eos, domain):
        # the ideal gas states e = c_v theta; derived from psi it reads 0
        derived = EquationOfState(psi=ref_eos.psi, kappa=ref_eos.kappa,
                                  mu=ref_eos.mu, alpha=ref_eos.alpha)
        name = "relation e = psi - theta psi_theta"
        rows = {eos: {c.name: c for c in verify_hypotheses(eos, domain, 20).checks}
                for eos in (ref_eos, derived)}
        assert rows[derived][name].observed == 0.0
        assert 0.0 < rows[ref_eos][name].observed <= 1e-13
        assert rows[ref_eos][name].tolerance == 1e-10

    def test_scaled_closed_form_energy_fails_only_its_row(self, ref_eos, domain):
        # e scaled by 1 + 1e-8 (e_rho and e_theta kept): only the new row sees it
        class ScaledEnergy(type(ref_eos)):
            def e(self, rho, theta):
                return (1.0 + 1e-8) * super().e(rho, theta)

        eos = ScaledEnergy(**{f.name: getattr(ref_eos, f.name)
                              for f in dataclasses.fields(ref_eos)})
        report = verify_hypotheses(eos, domain, 20)
        failed = [c.name for c in report.checks if not c.passed]
        assert failed == ["relation e = psi - theta psi_theta"]

    def test_pressure_row_checks_the_closed_form(self, ref_eos, domain):
        # the ideal gas states p = R rho theta; derived from psi it reads 0
        derived = EquationOfState(psi=ref_eos.psi, kappa=ref_eos.kappa,
                                  mu=ref_eos.mu, alpha=ref_eos.alpha)
        name = "relation p = rho^2 psi_rho"
        rows = {eos: {c.name: c for c in verify_hypotheses(eos, domain, 20).checks}
                for eos in (ref_eos, derived)}
        assert rows[derived][name].observed == 0.0
        assert 0.0 < rows[ref_eos][name].observed <= 1e-13
        assert rows[ref_eos][name].tolerance == 1e-10

    def test_scaled_closed_form_pressure_fails_only_its_row(self, ref_eos, domain):
        # p scaled by 1 + 1e-8: the e_rho relation reads p through psi, so
        # only the pressure row sees it
        class ScaledPressure(type(ref_eos)):
            def p(self, rho, theta):
                return (1.0 + 1e-8) * super().p(rho, theta)

        eos = ScaledPressure(**{f.name: getattr(ref_eos, f.name)
                                for f in dataclasses.fields(ref_eos)})
        report = verify_hypotheses(eos, domain, 20)
        failed = [c.name for c in report.checks if not c.passed]
        assert failed == ["relation p = rho^2 psi_rho"]

    def test_rejects_bad_sample_count(self, ref_eos, domain):
        with pytest.raises(ValueError):
            verify_hypotheses(ref_eos, domain, 0)


class TestDomain:
    def test_validation(self):
        with pytest.raises(ValueError):
            Domain(rho_min=-1.0)
        with pytest.raises(ValueError):
            Domain(rho_min=1.0, rho_max=0.5)
