import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsfk import convex_extension as cx
from nsfk import symbols as sym
from nsfk.fitting import fit_power_law
from nsfk.thermo import Coefficient, EquationOfState, State, ideal_gas_eos

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


class TestConservedQuantities:
    def test_reduces_to_standard_without_gradient(self, ref_eos):
        ext = sym.ExtendedState(rho=1.3, u=0.5, theta=0.9)
        assert np.allclose(sym.conserved_quantities(ref_eos, ext),
                           cx.f0(ref_eos, ext.state), atol=1e-15)

    def test_gradient_contribution(self, ref_eos):
        # rho (eps + u^2/2) = 1.5 + 1 = 2.5 at the reference with rho_x = 1
        ext = sym.ExtendedState(rho=1.0, u=0.0, theta=1.0, rho_x=1.0)
        F0 = sym.conserved_quantities(ref_eos, ext)
        assert np.allclose(F0, [1.0, 0.0, 2.5], atol=1e-14)

    @given(rho=interior, u=velocity, theta=interior, rho_x=gradient)
    @settings(max_examples=50, deadline=None)
    def test_first_two_components_ignore_gradient(self, ref_eos, rho, u, theta, rho_x):
        with_g = sym.conserved_quantities(
            ref_eos, sym.ExtendedState(rho, u, theta, rho_x=rho_x))
        without = sym.conserved_quantities(
            ref_eos, sym.ExtendedState(rho, u, theta))
        assert np.all(with_g[:2] == without[:2])

    def test_gamma_terms_vanish_without_gradient(self, ref_eos):
        # F0 - f0 and F1 - f1 carry the gradient energy only
        ext = sym.ExtendedState(rho=1.4, u=0.2, theta=1.1)
        tensors = sym.flux_and_tensors(ref_eos, ext)
        assert np.all(tensors.F0 == cx.f0(ref_eos, ext.state))
        assert np.all(tensors.F1 == cx.f1(ref_eos, ext.state))


class TestFluxAndTensors:
    def test_gtilde_vanishes_without_gradients(self, ref_eos):
        ext = sym.ExtendedState(rho=1.2, u=0.7, theta=0.8)
        assert np.all(sym.flux_and_tensors(ref_eos, ext).gtilde == 0.0)

    def test_capillarity_tensor_structure(self, ref_eos):
        ext = sym.ExtendedState(rho=1.5, u=0.6, theta=1.2)
        H = sym.flux_and_tensors(ref_eos, ext).H
        k = float(np.asarray(ref_eos.k(1.5, 1.2)))
        expected = np.zeros((3, 3))
        expected[1, 0] = k * 1.5
        expected[2, 0] = k * 1.5 * 0.6
        assert np.allclose(H, expected, atol=1e-14)

    def test_gtilde_at_rest(self, ref_eos):
        # u = 0 leaves only the interstitial-work term in the third slot
        ext = sym.ExtendedState(rho=1.1, u=0.0, theta=0.9,
                                rho_x=0.5, u_x=0.3, theta_x=0.2)
        gt = sym.flux_and_tensors(ref_eos, ext).gtilde
        k = float(np.asarray(ref_eos.k(1.1, 0.9)))
        assert gt[0] == 0.0
        assert gt[2] == pytest.approx(-1.1 * 0.5 * 0.3 * k, abs=1e-14)

    @pytest.mark.parametrize("closure", ["ref_eos", "sqrt_kappa_eos"])
    def test_tensors_match_the_matrix_builders(self, request, closure, rng):
        # G and H are filled in place; bit for bit the matrices of
        # cx.visc_matrix and of the first column k rho (0, 1, u)
        eos = request.getfixturevalue(closure)
        ext = random_extended(rng, 100)
        t = sym.flux_and_tensors(eos, ext)
        assert np.array_equal(t.G, cx.visc_matrix(eos, ext.state))
        h = eos.k(ext.rho, ext.theta) * ext.rho
        assert np.array_equal(t.H, cx.mat3([[0, 0, 0], [h, 0, 0], [h * ext.u, 0, 0]]))

    @pytest.mark.parametrize("closure", ["ref_eos", "sqrt_kappa_eos"])
    def test_closure_pass_matches_the_potentials(self, request, closure, rng):
        # the one pass forms epsilon, its partials, p and s itself; bit for
        # bit the values of the single-potential methods
        eos = request.getfixturevalue(closure)
        ext = random_extended(rng, 100)
        t = sym.flux_and_tensors(eos, ext)
        assert np.array_equal(t.F0, sym.conserved_quantities(eos, ext))
        jac = cx.jac_f0(eos, ext.state)
        assert np.array_equal(t.a31, jac[:, 2, 0])
        assert np.array_equal(t.a33, jac[:, 2, 2])
        assert np.array_equal(t.b31, sym.d_ux_F0(eos, ext)[:, 2, 0])
        assert np.array_equal(t.entropy, ext.rho * eos.s(ext.rho, ext.theta, ext.rho_x))
        f1 = definitional_f1(eos, ext)
        assert np.abs(t.F1 - f1).max() <= 1e-15 * np.abs(f1).max()


class TestKortewegStress:
    """K and w read off total_flux: flux2 = -(rho u^2 + p) + mu u_x + K and,
    at rest, flux3 = alpha theta_x + w."""

    def test_zero_at_rest(self, ref_eos):
        flux = sym.total_flux(ref_eos, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
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
        flux = sym.total_flux(eos, 1.0, 0.0, 1.0, rho_x=1.0, rho_xx=1.0,
                              u_x=0.0, theta_x=0.0)
        assert flux[1] + eos.p(1.0, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_work_flux_sign(self, ref_eos):
        plus = sym.total_flux(ref_eos, 1.0, 0.0, 1.0, rho_x=0.4, rho_xx=0.0,
                              u_x=0.3, theta_x=0.0)[2]
        minus = sym.total_flux(ref_eos, 1.0, 0.0, 1.0, rho_x=0.4, rho_xx=0.0,
                               u_x=-0.3, theta_x=0.0)[2]
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
        assert n.shape == (1000, 3)
        assert np.abs(n[:, 0]).max() <= 1e-13

    @pytest.mark.parametrize("closure", ["ref_eos", "sqrt_kappa_eos"])
    def test_bracket_first_rows_are_exact(self, request, closure, rng):
        # the third-gradient bracket is annihilated because these rows are
        # exactly constant at every density gradient (see nonlinear_terms)
        eos = request.getfixturevalue(closure)
        ext = random_extended(rng, 200)
        assert np.all(np.asarray(ext.rho_x) != 0.0)
        jac = cx.jac_f0(eos, ext.state)
        assert np.all(jac[:, 0, :] == [1.0, 0.0, 0.0])
        assert np.all(sym.d_ux_F0(eos, ext)[:, 0, :] == 0.0)

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


    @pytest.mark.parametrize("closure", ["ref_eos", "sqrt_kappa_eos"])
    def test_equilibrium_cache_follows_the_equilibrium(self, request, closure, rng):
        # alternating equilibria against the matrix form evaluated from
        # scratch: a cache that ignored the equilibrium would hand the
        # second one the first one's matrices
        eos = request.getfixturevalue(closure)
        ext = random_extended(rng, 50)
        for ubar in (State(1.0, 0.0, 1.0), State(1.3, 0.2, 0.8)) * 2:
            n_terms = nonlinear_terms(eos, ubar, ext)
            fresh = definitional_nonlinear_terms(eos, ubar, ext)
            assert np.abs(n_terms - fresh).max() <= 1e-13 * np.abs(fresh).max()
            w = w_variables(eos, ubar, ext)
            fresh = cx.mv(cx.jac_f0_inv(eos, ubar),
                          sym.conserved_quantities(eos, ext) - cx.f0(eos, ubar))
            assert np.abs(w - fresh).max() <= 1e-13 * np.abs(fresh).max()


def w_variables(eos, ubar, ext):
    """sym.w_variables through the closure pass of ``ext``."""
    return sym.w_variables(eos, ubar, sym.flux_and_tensors(eos, ext))


def nonlinear_terms(eos, ubar, ext):
    """sym.nonlinear_terms through the closure pass of ``ext``."""
    return sym.nonlinear_terms(eos, ubar, ext, sym.flux_and_tensors(eos, ext))


def definitional_f1(eos, ext):
    """F1 = f1 + (0, 0, rho u m rho_x^2) from the standard flux."""
    rho, u = np.asarray(ext.rho), np.asarray(ext.u)
    grad = rho * u * eos.grad_energy(rho, ext.theta) * np.asarray(ext.rho_x) ** 2
    return cx.f1(eos, ext.state) + cx.vec3([0.0, 0.0, grad])


def definitional_nonlinear_terms(eos, ubar, ext):
    """nonlinear_terms in its matrix form, every equilibrium matrix rebuilt."""
    jac0, jac0_inv = cx.jac_f0(eos, ubar), cx.jac_f0_inv(eos, ubar)
    g_bar = cx.visc_matrix(eos, ubar)
    h_bar = sym.flux_and_tensors(eos, sym.ExtendedState(ubar.rho, ubar.u, ubar.theta)).H
    L = jac0.T @ cx.jac_z(eos, ubar) @ jac0_inv
    t = sym.flux_and_tensors(eos, ext)
    dF0, dF0_inv = cx.jac_f0(eos, ext.state), cx.jac_f0_inv(eos, ext.state)
    r = -(definitional_f1(eos, ext) - cx.f1(eos, ubar)) + cx.mv(
        cx.jac_f1(eos, ubar) @ jac0_inv,
        sym.conserved_quantities(eos, ext) - cx.f0(eos, ubar))
    r_visc = cx.mv((t.G @ dF0_inv - g_bar @ jac0_inv) @ dF0, ext.grad)
    i1 = -cx.mv(g_bar @ jac0_inv, cx.mv(sym.d_ux_F0(eos, ext), ext.grad2))
    i2 = cx.mv((t.H @ dF0_inv - h_bar @ jac0_inv) @ dF0, ext.grad2)
    a0 = cx.coefficient_matrices(eos, ubar)[0]
    return cx.mv(L, r + r_visc + i1 + i2 + t.gtilde) / np.diag(a0)


class TestEquilibriumCoefficients:
    def test_reference_values(self, ref_coeffs):
        c = ref_coeffs
        assert np.allclose(c.C, [[0, 0, 0], [2, 0, 0], [0, 0, 0]], atol=1e-14)
        assert c.beta(1.0) == pytest.approx(3.0, abs=1e-14)
        assert c.beta(0.0) == pytest.approx(c.p_rho, abs=1e-15)
        assert c.cbar == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)
        assert np.allclose(c.B, np.diag([0.0, 1.0, 1.0]), atol=1e-14)

    def test_symbol_triplet_split(self, ref_coeffs):
        trip = sym.symbol_triplet(ref_coeffs)
        assert np.allclose(trip.a(0.0), ref_coeffs.A1, atol=1e-15)
        a1 = trip.a(1.0)
        assert a1[1, 0] == pytest.approx(3.0, abs=1e-14)  # beta(1)/theta
        assert a1[0, 1] == pytest.approx(1.0, abs=1e-14)
        xi = np.array([0.5, 1.0, 2.0, 5.0])
        b = trip.b(xi)
        ratios = b / xi[:, None, None] ** 2
        assert np.abs(ratios - ratios[0]).max() <= 1e-14

    @given(xi=st.floats(min_value=-50, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_asymmetry_is_single_capillary_entry(self, ref_coeffs, xi):
        trip = sym.symbol_triplet(ref_coeffs)
        a = trip.a(xi)
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
