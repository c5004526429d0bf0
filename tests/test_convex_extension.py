import numpy as np
import pytest

from nsfk import convex_extension as cx
from nsfk import symbols as sym
from nsfk.thermo import Domain, State
from conftest import sample_states
from oracles import conserved_quantities, entropy_flux, entropy_pair_observed, mv


def fd_jacobian(fn, state, h=1e-6):
    base = np.array([state.rho, state.u, state.theta], dtype=float)
    cols = []
    for j in range(3):
        hi, lo = base.copy(), base.copy()
        hi[j] += h
        lo[j] -= h
        cols.append((fn(State(*hi)) - fn(State(*lo))) / (2 * h))
    return np.stack(cols, axis=-1)


class TestMapsAndJacobians:
    def test_jacobians_match_finite_differences(self, ref_eos, domain, rng):
        states = sample_states(domain, 30, rng)
        for i in range(30):
            s = State(float(np.asarray(states.rho)[i]),
                      float(np.asarray(states.u)[i]),
                      float(np.asarray(states.theta)[i]))
            for analytic, mapped in ((cx.jac_f0, cx.f0), (cx.jac_f1, cx.f1),
                                     (cx.jac_z, cx.z_map),
                                     (cx.jac_entropy_flux, entropy_flux)):
                J = analytic(ref_eos, s)
                J_fd = fd_jacobian(lambda st: mapped(ref_eos, st), s)
                scale = max(1.0, np.abs(J_fd).max())
                assert np.abs(J - J_fd).max() <= 1e-6 * scale

    def test_jacobian_inverse(self, ref_eos, domain, rng):
        states = sample_states(domain, 50, rng)
        for i in range(50):
            s = State(float(np.asarray(states.rho)[i]),
                      float(np.asarray(states.u)[i]),
                      float(np.asarray(states.theta)[i]))
            prod = cx.jac_f0(ref_eos, s) @ cx.jac_f0_inv(ref_eos, s)
            assert np.abs(prod - np.eye(3)).max() <= 1e-12

    def test_jacobian_determinant(self, ref_eos, domain, rng):
        # det D_U f0 = rho^2 e_theta, closed form
        states = sample_states(domain, 50, rng)
        for i in range(50):
            rho = float(np.asarray(states.rho)[i])
            theta = float(np.asarray(states.theta)[i])
            s = State(rho, float(np.asarray(states.u)[i]), theta)
            det = np.linalg.det(cx.jac_f0(ref_eos, s))
            expected = rho ** 2 * float(np.asarray(ref_eos.e_theta(rho, theta)))
            assert det == pytest.approx(expected, rel=1e-12)
            assert det > 0

    @pytest.mark.parametrize("closure", ["ref_eos", "sqrt_kappa_eos"])
    def test_gradient_jacobian_matches_finite_differences(self, request, closure,
                                                          domain, rng):
        # jac_f0 at rho_x != 0 is D_U F0(U, U_x) of the capillary system
        eos = request.getfixturevalue(closure)
        states = sample_states(domain, 20, rng)
        for i in range(20):
            rho_x = float(np.asarray(states.rho_x)[i])
            s = State(float(np.asarray(states.rho)[i]),
                      float(np.asarray(states.u)[i]),
                      float(np.asarray(states.theta)[i]), rho_x)
            J = cx.jac_f0(eos, s)
            J_fd = fd_jacobian(lambda st: conserved_quantities(
                eos, sym.ExtendedState(st.rho, st.u, st.theta, rho_x=rho_x)), s)
            assert np.abs(J - J_fd).max() <= 1e-6 * max(1.0, np.abs(J_fd).max())
            assert np.abs(J @ cx.jac_f0_inv(eos, s) - np.eye(3)).max() <= 1e-12


class TestZMap:
    def test_reference_value(self, ref_eos, ref_equilibrium):
        # eta(1,1) = 1.5 and (e + p/rho)/theta = 2.5, so Z = (1, 0, -1) by hand
        z = cx.z_map(ref_eos, ref_equilibrium)
        assert np.allclose(z, [1.0, 0.0, -1.0], atol=1e-14)

    def test_second_component_vanishes_at_rest(self, ref_eos):
        z = cx.z_map(ref_eos, State(1.7, 0.0, 0.6))
        assert z[1] == 0.0

    def test_third_component(self, ref_eos, domain, rng):
        states = sample_states(domain, 20, rng)
        z = cx.z_map(ref_eos, State(states.rho, states.u, states.theta))
        assert np.allclose(z[..., 2], -1.0 / np.asarray(states.theta), atol=1e-14)


class TestHessian:
    def test_symmetry_and_positivity(self, ref_eos, domain, rng):
        states = sample_states(domain, 100, rng)
        for i in range(100):
            s = State(float(np.asarray(states.rho)[i]),
                      float(np.asarray(states.u)[i]),
                      float(np.asarray(states.theta)[i]))
            H = cx.hessian_entropy(ref_eos, s)
            assert np.abs(H - H.T).max() <= 1e-12 * max(1.0, np.abs(H).max())
            assert np.linalg.eigvalsh(0.5 * (H + H.T)).min() > 0

    def test_congruence_with_a0(self, ref_eos, ref_equilibrium, domain, rng):
        # (D_U f0)^T H (D_U f0) = A0; at the reference state A0 = diag(1,1,1.5)
        H = cx.hessian_entropy(ref_eos, ref_equilibrium)
        J = cx.jac_f0(ref_eos, ref_equilibrium)
        assert np.abs(J.T @ H @ J - np.diag([1.0, 1.0, 1.5])).max() <= 1e-12
        states = sample_states(domain, 30, rng)
        for i in range(30):
            s = State(float(np.asarray(states.rho)[i]),
                      float(np.asarray(states.u)[i]),
                      float(np.asarray(states.theta)[i]))
            H = cx.hessian_entropy(ref_eos, s)
            J = cx.jac_f0(ref_eos, s)
            a0, _, _ = cx.coefficient_matrices(ref_eos, s)
            assert np.abs(J.T @ H @ J - a0).max() <= 1e-12 * max(1.0, np.abs(a0).max())


class TestCoefficientMatrices:
    def test_reference_values(self, ref_eos, ref_equilibrium):
        a0, a1, b = cx.coefficient_matrices(ref_eos, ref_equilibrium)
        assert np.allclose(a0, np.diag([1.0, 1.0, 1.5]), atol=1e-14)
        assert np.allclose(a1, [[0, 1, 0], [1, 0, 1], [0, 1, 0]], atol=1e-14)
        assert np.allclose(b, np.diag([0.0, 1.0, 1.0]), atol=1e-14)

    def test_transport_entries_scale_with_velocity(self, ref_eos):
        # diagonal entries of A1 are the only ones that pick up ubar
        _, a1_rest, _ = cx.coefficient_matrices(ref_eos, State(1.0, 0.0, 1.0))
        _, a1_mov, _ = cx.coefficient_matrices(ref_eos, State(1.0, 0.7, 1.0))
        diff = a1_mov - a1_rest
        off_diag = diff - np.diag(np.diag(diff))
        assert np.abs(off_diag).max() <= 1e-14
        assert np.all(np.diag(diff) != 0)
        _, a1_double, _ = cx.coefficient_matrices(ref_eos, State(1.0, 1.4, 1.0))
        assert np.allclose(np.diag(a1_double - a1_rest), 2 * np.diag(diff), atol=1e-13)

    def test_b_first_row_zero(self, ref_eos, domain, rng):
        states = sample_states(domain, 20, rng)
        _, _, b = cx.coefficient_matrices(
            ref_eos, State(states.rho, states.u, states.theta))
        assert np.abs(b[..., 0, :]).max() == 0.0
        assert np.abs(b[..., :, 0]).max() == 0.0


class TestVisc:
    def test_array_state_shape(self, ref_eos, domain, rng):
        states = sample_states(domain, 5, rng)
        g = cx.visc_matrix(ref_eos, State(states.rho, states.u, states.theta))
        assert g.shape == (5, 3, 3)
        assert np.array_equal(g[:, 2, 1], states.u)
        assert cx.visc_matrix(ref_eos, State(1.0, 0.5, 1.0)).shape == (3, 3)


class TestMv:
    def test_constant_matrix_matches_einsum(self, rng):
        m = rng.standard_normal((3, 3))
        for shape in ((3,), (8, 3), (2, 4, 3)):
            v = rng.standard_normal(shape)
            want = np.einsum("ij,...j->...i", m, v)
            np.testing.assert_allclose(mv(m, v), want, rtol=1e-14, atol=1e-15)


class TestVerifyEntropyPair:
    def test_ideal_gas_passes(self, ref_eos, domain):
        report = cx.verify_entropy_pair(ref_eos, domain)
        assert report.passed, report.to_text()
        by_name = {c.name: c for c in report.checks}
        # D_U Theta in closed form: the flux row reads roundoff
        assert by_name["flux compatibility D_U Theta = Z^T D_U f1"].observed <= 1e-12
        assert by_name["Hessian/A0/A1 symmetry residual"].observed <= 1e-12
        assert by_name["A0/A1 entropy congruence residual"].observed <= 1e-12

    def test_a1_off_its_congruence_fails(self, ref_eos, domain, monkeypatch):
        # A1's (0, 1) and (1, 0) entries scaled alike stay symmetric: only
        # the congruence with the entropy Hessian can see the change
        exact = cx.coefficient_matrices

        def scaled(eos, state):
            a0, a1, b = exact(eos, state)
            a1 = a1.copy()
            a1[..., 0, 1] *= 1 + 1e-6
            a1[..., 1, 0] *= 1 + 1e-6
            return a0, a1, b

        monkeypatch.setattr(cx, "coefficient_matrices", scaled)
        report = cx.verify_entropy_pair(ref_eos, domain)
        by_name = {c.name: c for c in report.checks}
        assert by_name["Hessian/A0/A1 symmetry residual"].passed
        assert not by_name["A0/A1 entropy congruence residual"].passed

    @pytest.fixture
    def pressure_dropped(self, monkeypatch):
        # D_U f1 of a momentum flux without the pressure: compatibility must
        # break
        exact = cx.jac_f1

        def jac(eos, state):
            out = exact(eos, state).copy()
            out[..., 1, 0] -= eos.p_rho(state.rho, state.theta)
            out[..., 1, 2] -= eos.p_theta(state.rho, state.theta)
            return out

        monkeypatch.setattr(cx, "jac_f1", jac)

    def test_corrupted_flux_fails(self, ref_eos, domain, pressure_dropped):
        report = cx.verify_entropy_pair(ref_eos, domain)
        bad = {c.name: c for c in report.checks}[
            "flux compatibility D_U Theta = Z^T D_U f1"]
        assert not bad.passed

    @pytest.mark.parametrize("closure", ["ref_eos", "sqrt_kappa_eos",
                                         "rho_theta_kappa_eos"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_batched_pass_matches_sample_loop(self, request, closure, seed):
        # every map broadcasts, so the batched pass reports the observed
        # values of the state-by-state loop bit for bit, on any box (the
        # seed draws one)
        eos = request.getfixturevalue(closure)
        lo, hi = np.random.default_rng(seed).uniform([0.05, 0.05], [2.0, 2.0], (2, 2))
        box = Domain(rho_min=lo[0], theta_min=lo[1], rho_max=lo[0] + hi[0],
                     theta_max=lo[1] + hi[1])
        report = cx.verify_entropy_pair(eos, box)
        assert tuple(c.observed for c in report.checks) == entropy_pair_observed(eos, box)

    def test_corrupted_flux_matches_sample_loop(self, ref_eos, domain,
                                                pressure_dropped):
        report = cx.verify_entropy_pair(ref_eos, domain)
        want = entropy_pair_observed(ref_eos, domain)
        assert tuple(c.observed for c in report.checks) == want
        assert want[4] > 1e-6

    def test_lattice(self, ref_eos, domain, monkeypatch):
        # the grid's (rho, theta) nodes times u in {-1, 0, 1}: 108 states,
        # the box corners among them
        seen = []
        exact = cx.hessian_entropy

        def spied(eos, state):
            seen.append(state)
            return exact(eos, state)

        monkeypatch.setattr(cx, "hessian_entropy", spied)
        cx.verify_entropy_pair(ref_eos, domain)
        (state,) = seen
        rho, theta = domain.grid(6)
        assert np.shape(state.rho) == (3, 6, 6)
        for i, u in enumerate((-1.0, 0.0, 1.0)):
            assert np.array_equal(state.rho[i], rho)
            assert np.array_equal(state.theta[i], theta)
            assert np.all(state.u[i] == u)


class TestEntropyFlux:
    def test_values(self, ref_eos):
        # Theta = -rho u eta = -2 * 1.5 at (1, 2, 1)
        assert entropy_flux(ref_eos, State(1.0, 2.0, 1.0)) == pytest.approx(
            -3.0, abs=1e-14)
