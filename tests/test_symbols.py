import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsfk import convex_extension as cx
from nsfk import symbols as sym
from nsfk.fitting import fit_power_law
from nsfk.thermo import Coefficient, EquationOfState, State, ideal_gas_eos
from oracles import (capillarity_matrix, conserved_quantities, d_ux_F0,
                     definitional_nonlinear_terms, korteweg_entries, mv,
                     real_form_roots, state_of, total_flux)

interior = st.floats(min_value=0.4, max_value=2.2)
velocity = st.floats(min_value=-1.5, max_value=1.5)
gradient = st.floats(min_value=-1.0, max_value=1.0)


def random_extended(rng, n):
    return sym.ExtendedState(
        rho=rng.uniform(0.5, 2.0, n), u=rng.uniform(-1, 1, n),
        theta=rng.uniform(0.5, 2.0, n),
        rho_x=rng.uniform(-1, 1, n), u_x=rng.uniform(-1, 1, n),
        theta_x=rng.uniform(-1, 1, n),
        rho_xx=rng.uniform(-1, 1, n), u_xx=rng.uniform(-1, 1, n),
        theta_xx=rng.uniform(-1, 1, n),
    )


def conserved(eos, ext):
    """F0 of the closure pass."""
    return sym.flux_and_tensors(eos, ext).F0


def closure_flux(eos, rho, u, theta, rho_x=0.0, rho_xx=0.0, u_x=0.0, theta_x=0.0):
    """The solver's flux -F1 + G U_x + H U_xx + g~ from one closure pass,
    its heat flux alpha theta_x added to ``symbols._total_flux``."""
    c = sym._closure(eos, rho, u, theta, rho_x, u_x, theta_x)
    flux = sym._total_flux(c, rho * u, u, rho_xx, u_x, out=np.empty(3))
    flux[2] += c.alpha * theta_x
    return flux


class TestConservedQuantities:
    def test_reduces_to_standard_without_gradient(self, ref_eos):
        ext = sym.ExtendedState(rho=1.3, u=0.5, theta=0.9)
        assert np.allclose(conserved(ref_eos, ext), cx.f0(ref_eos, state_of(ext)),
                           atol=1e-15)

    def test_gradient_contribution(self, ref_eos):
        # rho (eps + u^2/2) = 1.5 + 1 = 2.5 at the reference with rho_x = 1
        ext = sym.ExtendedState(rho=1.0, u=0.0, theta=1.0, rho_x=1.0)
        F0 = conserved(ref_eos, ext)
        assert np.allclose(F0, [1.0, 0.0, 2.5], atol=1e-14)

    @given(rho=interior, u=velocity, theta=interior, rho_x=gradient)
    @settings(max_examples=50, deadline=None)
    def test_first_two_components_ignore_gradient(self, ref_eos, rho, u, theta, rho_x):
        with_g = conserved(ref_eos, sym.ExtendedState(rho, u, theta, rho_x=rho_x))
        without = conserved(ref_eos, sym.ExtendedState(rho, u, theta))
        assert np.all(with_g[:2] == without[:2])

    def test_gamma_terms_vanish_without_gradient(self, ref_eos):
        # F0 - f0 and F1 - f1 carry the gradient energy only: without
        # gradients the solver's flux is -f1
        ext = sym.ExtendedState(rho=1.4, u=0.2, theta=1.1)
        tensors = sym.flux_and_tensors(ref_eos, ext)
        assert np.all(tensors.F0 == cx.f0(ref_eos, state_of(ext)))
        want = -cx.f1(ref_eos, state_of(ext))
        assert np.abs(tensors.flux - want).max() <= 1e-15 * np.abs(want).max()


class TestFluxAndTensors:
    def test_gtilde_vanishes_without_gradients(self, ref_eos):
        ext = sym.ExtendedState(rho=1.2, u=0.7, theta=0.8)
        c = sym.flux_and_tensors(ref_eos, ext).closure
        assert c.g2 == 0.0 and c.w == 0.0

    def test_capillarity_tensor_structure(self, ref_eos):
        # H's only entries are (2,1) = k rho and (3,1) = k rho u
        ext = sym.ExtendedState(rho=1.5, u=0.6, theta=1.2)
        h = sym.flux_and_tensors(ref_eos, ext).closure.h
        k = float(np.asarray(ref_eos.k(1.5, 1.2)))
        assert h == pytest.approx(k * 1.5, abs=1e-14)
        assert h * 0.6 == pytest.approx(k * 1.5 * 0.6, abs=1e-14)

    def test_gtilde_at_rest(self, ref_eos):
        # u = 0 leaves only the interstitial-work term in the third slot
        ext = sym.ExtendedState(rho=1.1, u=0.0, theta=0.9,
                                rho_x=0.5, u_x=0.3, theta_x=0.2)
        c = sym.flux_and_tensors(ref_eos, ext).closure
        k = float(np.asarray(ref_eos.k(1.1, 0.9)))
        assert ext.u * c.g2 - c.w == pytest.approx(-1.1 * 0.5 * 0.3 * k, abs=1e-14)

    @pytest.mark.parametrize("closure", ["ref_eos", "sqrt_kappa_eos",
                                         "rho_theta_kappa_eos"])
    def test_tensors_match_the_matrix_builders(self, request, closure, rng):
        # the entries of G and H, placed in 3x3 matrices, are bit for bit
        # those of cx.visc_matrix and of the first column k rho (0, 1, u)
        eos = request.getfixturevalue(closure)
        ext = random_extended(rng, 100)
        t = sym.flux_and_tensors(eos, ext).closure
        z = np.zeros(100)
        G = cx.mat3([[z, z, z], [z, t.mu, z], [z, t.mu * ext.u, t.alpha]])
        assert np.array_equal(G, cx.visc_matrix(eos, state_of(ext)))
        H = cx.mat3([[z, z, z], [t.h, z, z], [t.h * ext.u, z, z]])
        assert np.array_equal(H, capillarity_matrix(eos, state_of(ext)))
        g2, g3 = korteweg_entries(eos, ext.rho, ext.u, ext.theta, ext.rho_x,
                                  ext.u_x, ext.theta_x)
        assert np.array_equal(cx.vec3([0.0, t.g2, ext.u * t.g2 - t.w]),
                              cx.vec3([0.0, g2, g3]))

    @pytest.mark.parametrize("closure", ["ref_eos", "sqrt_kappa_eos",
                                         "rho_theta_kappa_eos"])
    def test_closure_pass_matches_the_potentials(self, request, closure, rng):
        # the one pass forms epsilon, its partials, p and s itself; bit for
        # bit the values of the single-potential methods
        eos = request.getfixturevalue(closure)
        ext = random_extended(rng, 100)
        t = sym.flux_and_tensors(eos, ext)
        assert np.array_equal(t.F0, conserved_quantities(eos, ext).T)
        jac = cx.jac_f0(eos, state_of(ext))
        assert np.array_equal(t.closure.a31, jac[:, 2, 0])
        assert np.array_equal(t.closure.a33, jac[:, 2, 2])
        assert np.array_equal(t.closure.b31, d_ux_F0(eos, ext)[:, 2, 0])
        assert np.array_equal(t.entropy, ext.rho * eos.s(ext.rho, ext.theta, ext.rho_x))
        flux = total_flux(eos, ext.rho, ext.u, ext.theta, ext.rho_x, ext.rho_xx,
                          ext.u_x, ext.theta_x, heat=False)
        assert np.array_equal(t.flux, np.stack(flux))
        # the heat flux the solver adds to it, in nonlinear_terms' order
        heat = total_flux(eos, ext.rho, ext.u, ext.theta, ext.rho_x, ext.rho_xx,
                          ext.u_x, ext.theta_x)[2]
        assert np.array_equal(t.flux[2] + t.closure.alpha * ext.theta_x, heat)


class TestKortewegStress:
    """K and w read off the solver's flux: flux2 = -(rho u^2 + p) + mu u_x + K
    and, at rest, flux3 = alpha theta_x + w."""

    def test_zero_at_rest(self, ref_eos):
        flux = closure_flux(ref_eos, 1.0, 0.0, 1.0)
        assert flux[1] + ref_eos.p(1.0, 1.0) == 0.0 and flux[2] == 0.0

    def test_constant_k_value(self):
        # kappa = 1/(2 rho) gives k = 1 with k_rho = k_theta = 0; then
        # K = k rho rho_xx - k rho_x^2 / 2 = 1 - 1/2 = 1/2 by hand
        kap = Coefficient(
            f=lambda r, t: 0.5 / np.asarray(r, dtype=float),
            d_r=lambda r, t: -0.5 / np.asarray(r, dtype=float) ** 2,
            d_t=lambda r, t: 0.0 * np.asarray(r, dtype=float),
            d_rr=lambda r, t: 1.0 / np.asarray(r, dtype=float) ** 3,
            d_rt=lambda r, t: 0.0 * np.asarray(r, dtype=float),
            d_tt=lambda r, t: 0.0 * np.asarray(r, dtype=float),
        )
        base = ideal_gas_eos(1.0, 5.0 / 3.0, 1.0, 1.0, 1.0)
        eos = EquationOfState(psi=base.psi, kappa=kap, mu=base.mu, alpha=base.alpha)
        assert float(np.asarray(eos.k_rho(1.0, 1.0))) == pytest.approx(0.0, abs=1e-15)
        flux = closure_flux(eos, 1.0, 0.0, 1.0, rho_x=1.0, rho_xx=1.0)
        assert flux[1] + eos.p(1.0, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_constant_kappa_g2_is_zero(self, rng):
        # a constant kappa makes the two kappa terms of g2 cancel: the pass
        # gives the scalar 0.0, and g3 = -w = -h rho_x u_x.  Summed in full at
        # kappa0 = 0.7 they leave roundoff, so the flux agrees with the
        # oracles' to roundoff, not bit for bit
        eos = ideal_gas_eos(1.0, 5.0 / 3.0, 0.7, 1.0, 1.0)
        ext = random_extended(rng, 100)
        args = (ext.rho, ext.u, ext.theta, ext.rho_x, ext.u_x, ext.theta_x)
        c = sym._closure(eos, *args)
        assert type(c.g2) is float and c.g2 == 0.0
        g2, g3 = korteweg_entries(eos, *args)
        assert 0.0 < np.abs(g2).max() <= 1e-14
        assert np.array_equal(c.w, c.h * ext.rho_x * ext.u_x)
        got = sym._total_flux(c, ext.rho * ext.u, ext.u, ext.rho_xx, ext.u_x,
                              out=np.empty((3, 100)))
        want = np.stack(total_flux(eos, ext.rho, ext.u, ext.theta, ext.rho_x,
                                   ext.rho_xx, ext.u_x, ext.theta_x, heat=False))
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_work_flux_sign(self, ref_eos):
        plus = closure_flux(ref_eos, 1.0, 0.0, 1.0, rho_x=0.4, u_x=0.3)[2]
        minus = closure_flux(ref_eos, 1.0, 0.0, 1.0, rho_x=0.4, u_x=-0.3)[2]
        assert plus == pytest.approx(-minus, abs=1e-15)
        assert plus < 0


class TestWVariables:
    def test_zero_at_equilibrium(self, ref_eos, ref_equilibrium):
        ext = sym.ExtendedState(1.0, 0.0, 1.0)
        assert np.allclose(w_variables(ref_eos, ref_equilibrium, ext), 0.0,
                           atol=1e-15)

    def test_reference_perturbation(self, ref_eos, ref_equilibrium):
        # hand product with the inverse Jacobian rows: W = (0.1, 0, 0)
        ext = sym.ExtendedState(rho=1.1, u=0.0, theta=1.0)
        w = w_variables(ref_eos, ref_equilibrium, ext)
        assert np.allclose(w, [0.1, 0.0, 0.0], atol=1e-13)

    @given(rho=interior, u=velocity, theta=interior, rho_x=gradient,
           u_x=gradient, theta_x=gradient)
    @settings(max_examples=100, deadline=None)
    def test_first_component_is_density_perturbation(self, ref_eos, ref_equilibrium,
                                                     rho, u, theta, rho_x, u_x, theta_x):
        ext = sym.ExtendedState(rho, u, theta, rho_x=rho_x, u_x=u_x, theta_x=theta_x)
        w = w_variables(ref_eos, ref_equilibrium, ext)
        assert w[0] == rho - 1.0

    def test_second_component(self, ref_eos):
        ubar = State(2.0, 0.5, 1.0)
        ext = sym.ExtendedState(rho=2.2, u=0.9, theta=1.1, rho_x=0.3)
        w = w_variables(ref_eos, ubar, ext)
        assert w[1] == pytest.approx(2.2 * (0.9 - 0.5) / 2.0, rel=1e-13)


class TestNonlinearTerms:
    def test_zero_at_equilibrium(self, ref_eos, ref_equilibrium):
        ext = sym.ExtendedState(1.0, 0.0, 1.0)
        n = nonlinear_terms(ref_eos, ref_equilibrium, ext)
        assert np.abs(n).max() <= 1e-15

    def test_first_component_vanishes(self, ref_eos, rng):
        ubar = State(1.0, 0.3, 1.0)
        ext = random_extended(rng, 1000)
        n = nonlinear_terms(ref_eos, ubar, ext)
        assert n.shape == (3, 1000)
        assert np.abs(n[0]).max() <= 1e-13

    @pytest.mark.parametrize("closure", ["ref_eos", "sqrt_kappa_eos"])
    def test_bracket_first_rows_are_exact(self, request, closure, rng):
        # the third-gradient bracket is annihilated because these rows are
        # exactly constant at every density gradient (see nonlinear_terms)
        eos = request.getfixturevalue(closure)
        ext = random_extended(rng, 200)
        assert np.all(np.asarray(ext.rho_x) != 0.0)
        jac = cx.jac_f0(eos, state_of(ext))
        assert np.all(jac[:, 0, :] == [1.0, 0.0, 0.0])
        assert np.all(d_ux_F0(eos, ext)[:, 0, :] == 0.0)

    def test_quadratic_amplitude_scaling(self, ref_eos, ref_equilibrium):
        # smooth profile V = (sin x, cos x, sin 2x) with analytic derivatives
        x = np.linspace(0.0, 2 * np.pi, 17)[:-1]
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
            n = nonlinear_terms(ref_eos, ref_equilibrium, ext)
            norms.append(np.abs(n).max())
        fit = fit_power_law(deltas, np.array(norms))
        assert 1.9 <= fit.exponent <= 2.1

    def test_reads_the_solvers_flux_once(self, ref_eos, rng, monkeypatch):
        # TF = -F1 + G U_x + H U_xx + g~ is the flux rhs differentiates,
        # written once by symbols._total_flux in the closure pass of
        # flux_and_tensors; nonlinear_terms reads it from that pass
        ext = random_extended(rng, 50)
        sym.nonlinear_terms(ref_eos, State(1.2, 0.3, 0.9), ext,
                            sym.flux_and_tensors(ref_eos, ext))  # cached maps
        calls = []
        flux = sym._total_flux
        monkeypatch.setattr(sym, "_total_flux",
                            lambda *a, **kw: calls.append(1) or flux(*a, **kw))
        tensors = sym.flux_and_tensors(ref_eos, ext)
        assert len(calls) == 1
        sym.nonlinear_terms(ref_eos, State(1.2, 0.3, 0.9), ext, tensors)
        assert len(calls) == 1

    @pytest.mark.parametrize("closure", ["ref_eos", "sqrt_kappa_eos", "sqrt_alpha_eos"])
    def test_second_gradients_of_u_and_theta_are_not_read(self, request, closure, rng):
        # Hbar Jf0bar^{-1} D_U F0 U_xx = (0, hbar, hbar ubar) rho_xx (see
        # nonlinear_terms): other u_xx and theta_xx give the same N, which
        # still matches the matrix form that applies the whole product
        eos = request.getfixturevalue(closure)
        ubar = State(1.2, 0.3, 0.9)
        ext = random_extended(rng, 200)
        other = dataclasses.replace(ext, u_xx=rng.uniform(-5, 5, 200),
                                    theta_xx=rng.uniform(-5, 5, 200))
        n_terms = nonlinear_terms(eos, ubar, ext)
        assert np.array_equal(n_terms, nonlinear_terms(eos, ubar, other))
        for e in (ext, other):
            fresh = definitional_nonlinear_terms(eos, ubar, e).T
            assert np.abs(n_terms - fresh).max() <= 1e-13 * np.abs(fresh).max()


    def test_a_repeated_lookup_hashes_no_coefficient(self, ref_eos, monkeypatch):
        # the closure's hash is taken once, at construction: a lookup of the
        # equilibrium terms hashes none of its four Coefficients again, and
        # equal closures still share the cached terms
        ubar = State(1.0, 0.0, 1.0)
        terms = sym._equilibrium_terms(ref_eos, ubar)
        calls = []
        hash_of = Coefficient.__hash__
        monkeypatch.setattr(Coefficient, "__hash__",
                            lambda self: calls.append(1) or hash_of(self))
        assert sym._equilibrium_terms(ref_eos, ubar) is terms
        assert calls == []
        same = dataclasses.replace(ref_eos)
        assert len(calls) == 4            # at construction
        assert same == ref_eos and same is not ref_eos
        assert sym._equilibrium_terms(same, ubar) is terms
        assert sym._equilibrium_terms(same, ubar) is terms
        assert len(calls) == 4

    @pytest.mark.parametrize("closure", ["ref_eos", "sqrt_kappa_eos"])
    def test_equilibrium_cache_follows_the_equilibrium(self, request, closure, rng):
        # alternating equilibria against the matrix form evaluated from
        # scratch: a cache that ignored the equilibrium would hand the
        # second one the first one's matrices
        eos = request.getfixturevalue(closure)
        ext = random_extended(rng, 50)
        for ubar in (State(1.0, 0.0, 1.0), State(1.3, 0.2, 0.8)) * 2:
            n_terms = nonlinear_terms(eos, ubar, ext)
            fresh = definitional_nonlinear_terms(eos, ubar, ext).T
            assert np.abs(n_terms - fresh).max() <= 1e-13 * np.abs(fresh).max()
            w = w_variables(eos, ubar, ext)
            fresh = mv(cx.jac_f0_inv(eos, ubar),
                       conserved_quantities(eos, ext) - cx.f0(eos, ubar)).T
            assert np.abs(w - fresh).max() <= 1e-13 * np.abs(fresh).max()


def w_variables(eos, ubar, ext):
    """sym.w_variables through the closure pass of ``ext``."""
    return sym.w_variables(eos, ubar, sym.flux_and_tensors(eos, ext))


def nonlinear_terms(eos, ubar, ext):
    """sym.nonlinear_terms through the closure pass of ``ext``."""
    return sym.nonlinear_terms(eos, ubar, ext, sym.flux_and_tensors(eos, ext))


class TestEquilibriumCoefficients:
    def test_reference_values(self, ref_coeffs):
        c = ref_coeffs
        assert np.allclose(c.C, [[0, 0, 0], [2, 0, 0], [0, 0, 0]], atol=1e-14)
        assert c.beta(1.0) == pytest.approx(3.0, abs=1e-14)
        assert c.beta(0.0) == pytest.approx(c.p_rho, abs=1e-15)
        assert c.cbar == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)
        assert np.allclose(c.B, np.diag([0.0, 1.0, 1.0]), atol=1e-14)

    def test_odd_even_split(self, ref_coeffs):
        assert np.allclose(ref_coeffs.a(0.0), ref_coeffs.A1, atol=1e-15)
        a1 = ref_coeffs.a(1.0)
        assert a1[1, 0] == pytest.approx(3.0, abs=1e-14)  # beta(1)/theta
        assert a1[0, 1] == pytest.approx(1.0, abs=1e-14)
        xi = np.array([0.5, 1.0, 2.0, 5.0])
        b = ref_coeffs.b(xi)
        ratios = b / xi[:, None, None] ** 2
        assert np.abs(ratios - ratios[0]).max() <= 1e-14

    @given(xi=st.floats(min_value=-50, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_asymmetry_is_single_capillary_entry(self, ref_coeffs, xi):
        a = ref_coeffs.a(xi)
        skew = a - a.T
        expected = xi ** 2 * ref_coeffs.k * ref_coeffs.rho / ref_coeffs.theta
        assert skew[1, 0] == pytest.approx(expected, rel=1e-12, abs=1e-12)
        skew[1, 0] = skew[0, 1] = 0.0
        assert np.abs(skew).max() <= 1e-14


class TestEvolutionSymbol:
    def test_zero_frequency(self, ref_coeffs):
        assert np.abs(sym.evolution_symbol(ref_coeffs, 0.0)).max() == 0.0

    def test_reality_symmetry(self, ref_coeffs, rng):
        xi = rng.uniform(0.1, 30.0, 20)
        m_plus = sym.evolution_symbol(ref_coeffs, xi)
        m_minus = sym.evolution_symbol(ref_coeffs, -xi)
        assert np.abs(m_minus - np.conj(m_plus)).max() <= 1e-13

    def test_reference_entry(self, ref_coeffs):
        # row 2 of A0^{-1} (i xi A(xi)) at xi = 1: entry (2,1) = 3i by hand
        m = sym.evolution_symbol(ref_coeffs, 1.0)
        assert m[1, 0] == pytest.approx(3.0j, abs=1e-14)


class TestRealForm:
    XI = np.concatenate([-np.geomspace(1e-3, 1e3, 301), [0.0],
                         np.geomspace(1e-3, 1e3, 301)])

    def test_reconstructs_the_generator(self, symbol_coeffs):
        # Q (i xi u + R) Q^{-1} against A0^{-1} (i xi A + B), per xi
        r, q = sym.real_form(symbol_coeffs, self.XI)
        assert r.dtype == np.float64 and r.shape == self.XI.shape + (3, 3)
        want = sym.evolution_symbol(symbol_coeffs, self.XI)
        gen = r + 1j * (symbol_coeffs.u * self.XI)[:, None, None] * np.eye(3)
        got = q[:, :, None] * gen / q[:, None, :]
        err = np.abs(got - want).max(axis=(-2, -1))
        assert np.all(err <= 1e-14 * np.abs(want).max(axis=(-2, -1)))


# the corners of the closure lattice: kappa0, mu0, alpha0, gamma, rho, theta
# (u does not enter R)
LATTICE_CORNERS = list(itertools.product((1e-4, 100.0), (1e-3, 100.0), (1e-3, 100.0),
                                         (1.01, 3.0), (0.2, 5.0), (0.2, 5.0)))
# mu0 = 1, alpha0 = 100, gamma = 1.01 give b2 = b3 (d2 = d3): a nearly double
# pair about d2 whose discriminant cancels in its plain form s^2 - 4C
EQUAL_DAMPING = [(0.0, 1.0, 100.0, 1.01, 0.2, 0.2), (1e-4, 1.0, 100.0, 1.01, 0.2, 5.0)]


class TestRealFormEig:
    """The structured factorization of R against 50-digit arithmetic."""

    XI = np.array([1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 200.0, 1e3])

    @staticmethod
    def coeffs(kappa0, mu0, alpha0, gamma, rho, theta):
        return sym.equilibrium_coefficients(
            ideal_gas_eos(1.0, gamma, kappa0, mu0, alpha0), State(rho, 0.0, theta))

    @pytest.mark.parametrize("corner", LATTICE_CORNERS + EQUAL_DAMPING,
                             ids=["-".join(f"{v:g}" for v in c)
                                  for c in LATTICE_CORNERS + EQUAL_DAMPING])
    def test_lattice_corner_against_mpmath(self, corner):
        r = sym.real_form(self.coeffs(*corner), self.XI)[0]
        lam, vecs = sym.real_form_eig(r, vectors=True)
        np.testing.assert_array_equal(sym.real_form_eig(r), lam)
        for k in range(self.XI.size):
            want = real_form_roots(r[k])
            radius = np.abs(want).max()
            # each eigenvalue within 4e-15 of the spectral radius of its own
            # 50-digit root, matched both ways
            dist = np.abs(lam[k][:, None] - want[None, :])
            assert dist.min(axis=0).max() <= 4e-15 * radius
            assert dist.min(axis=1).max() <= 4e-15 * radius
            sigma, sigma_want = -lam[k].real.min(), -want.real.min()
            assert abs(sigma - sigma_want) <= 1e-14 * abs(sigma_want)
            residual = r[k] @ vecs[k] - vecs[k] * lam[k][None, :]
            assert np.linalg.norm(residual) <= 1e-14 * np.linalg.norm(r[k])
            np.testing.assert_allclose(np.linalg.norm(vecs[k], axis=0), 1.0, rtol=1e-15)

    @pytest.mark.parametrize("corner", [(1.0, 1.0, 1.0, 5.0 / 3.0, 1.0, 1.0),
                                        (0.0, 1.0, 1.0, 5.0 / 3.0, 1.0, 1.0),
                                        (1.0, 1.0, 1.0, 3.0, 0.2, 5.0),
                                        (100.0, 1e-3, 100.0, 3.0, 5.0, 5.0)])
    def test_newton_stops_early(self, corner, monkeypatch):
        # one np.spacing call per iteration: on the analyze-symbol grid and
        # the linear-decay nodes Newton stops in a few iterations, also
        # where its iterates trade places a few ulp apart (gamma = 3,
        # rho = 0.2, theta = 5 at |xi| = 0.562), far below the cap
        from nsfk.dissipativity import default_xi_grid
        from nsfk.linear_evolution import geometric_nodes
        coeffs = self.coeffs(*corner)
        spacing, calls = np.spacing, []
        monkeypatch.setattr(np, "spacing", lambda x: calls.append(1) or spacing(x))
        for xi in (default_xi_grid(), geometric_nodes()[0]):
            calls.clear()
            sym.real_form_eig(sym.real_form(coeffs, np.unique(np.abs(xi)))[0])
            assert 1 <= len(calls) <= 8

    @pytest.mark.parametrize("factor", [2.0 ** -1000, 2.0 ** 1000])
    def test_scaled_real_form(self, ref_coeffs, factor):
        # R is divided by its largest |entry| first: a power-of-two multiple
        # of R has the eigenvalues multiplied, bit for bit, and the same
        # eigenvectors, where the cubic of 2^1000 R itself would overflow
        r = sym.real_form(ref_coeffs, self.XI)[0]
        lam, vecs = sym.real_form_eig(r, vectors=True)
        lam_big, vecs_big = sym.real_form_eig(factor * r, vectors=True)
        np.testing.assert_array_equal(lam_big, factor * lam)
        np.testing.assert_array_equal(vecs_big, vecs)
