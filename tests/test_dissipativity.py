import itertools

import numpy as np
import pytest

from nsfk import dissipativity as dis
from nsfk import symbols as sym
from nsfk.thermo import State, ideal_gas_eos
from conftest import SYMBOL_CLOSURES
from oracles import (atilde_congruence, complex_sigma, hermitian_lyapunov_slack,
                     per_point_certificate, sampled_lyapunov_slack)


class TestSymmetrizer:
    def test_identity_at_origin(self, ref_coeffs):
        assert np.allclose(sym.symbol_symmetrizer(ref_coeffs, 0.0), np.eye(3),
                           atol=1e-15)

    def test_reference_value(self, ref_coeffs):
        s = sym.symbol_symmetrizer(ref_coeffs, 1.0)
        assert np.allclose(np.diag(s), [3.0, 1.0, 1.0], atol=1e-14)

    def test_symmetrizes_symbols(self, ref_coeffs):
        xi = np.linspace(-40, 40, 101)
        s = sym.symbol_symmetrizer(ref_coeffs, xi)
        sa = s @ ref_coeffs.a(xi)
        sb = s @ ref_coeffs.b(xi)
        sa0 = s @ ref_coeffs.A0
        for m in (sa, sb, sa0):
            assert np.abs(m - np.swapaxes(m, -1, -2)).max() <= 1e-14 * max(
                1.0, np.abs(m).max())
        assert np.linalg.eigvalsh(sa0).min() > 0


class TestTransformedTriplet:
    def test_closed_form_at_origin(self, ref_coeffs):
        c = np.sqrt(2.0 / 3.0)
        assert np.allclose(dis.atilde(ref_coeffs, 0.0),
                           [[0, 1, 0], [1, 0, c], [0, c, 0]], atol=1e-12)

    def test_btilde(self, ref_coeffs):
        assert np.allclose(ref_coeffs.btilde, [0.0, 1.0, 2.0 / 3.0], atol=1e-14)

    def test_congruence_agreement(self, ref_coeffs):
        xi = np.concatenate([np.linspace(-90, 90, 181), [1e-4, 1e3]])
        a = dis.atilde(ref_coeffs, xi)
        assert np.abs(a - atilde_congruence(ref_coeffs, xi)).max() <= 1e-12 * max(
            1.0, np.abs(a).max())


class TestEigenvalues:
    def test_extreme_pair_at_origin(self, ref_coeffs):
        lam = dis.atilde_eigenvalues(ref_coeffs, 0.0)
        root = np.sqrt(5.0 / 3.0)
        assert np.allclose(lam, [-root, 0.0, root], atol=1e-13)

    def test_match_numeric_solver(self, ref_coeffs):
        xi = np.linspace(-100, 100, 2001)
        closed = dis.atilde_eigenvalues(ref_coeffs, xi)
        numeric = np.sort(np.linalg.eigvalsh(dis.atilde(ref_coeffs, xi)), axis=-1)
        assert np.abs(closed - numeric).max() <= 1e-12

    def test_simple_and_middle_is_velocity(self):
        eos = ideal_gas_eos(1.0, 5.0 / 3.0, 1.0, 1.0, 1.0)
        coeffs = sym.equilibrium_coefficients(eos, State(1.3, 0.7, 0.9))
        xi = np.linspace(-30, 30, 301)
        lam = dis.atilde_eigenvalues(coeffs, xi)
        assert np.all(np.diff(lam, axis=-1) > 0)
        assert np.allclose(lam[:, 1], 0.7, atol=1e-14)


class TestGenuineCoupling:
    def test_reference_passes(self, ref_coeffs):
        grid = dis.default_xi_grid(n_per_decade=301)
        rep = dis.genuine_coupling_scan(ref_coeffs.a0, ref_coeffs.a, ref_coeffs.b, grid)
        assert rep.passed
        assert rep.min_margin > 0.1

    def test_transformed_triplet_passes(self, ref_coeffs):
        grid = dis.default_xi_grid(n_per_decade=101)
        btilde = np.diag(ref_coeffs.btilde)
        rep = dis.genuine_coupling_scan(
            lambda xi: np.eye(3), lambda xi: dis.atilde(ref_coeffs, xi),
            lambda xi: xi[..., None, None] ** 2 * btilde, grid)
        assert rep.passed

    def test_nsf_subcase_passes(self, nsf_coeffs):
        grid = dis.default_xi_grid(n_per_decade=301)
        rep = dis.genuine_coupling_scan(nsf_coeffs.a0, nsf_coeffs.a, nsf_coeffs.b, grid)
        assert rep.passed

    def test_decoupled_control_fails(self, ref_coeffs):
        # B = 0 makes every vector a kernel vector; A = A0 pairs each with
        # itself, so rho = -1 kills the pencil
        a0 = ref_coeffs.A0
        rep = dis.genuine_coupling_scan(
            lambda xi: a0, lambda xi: a0, lambda xi: np.zeros((3, 3)),
            np.linspace(-5, 5, 21))
        assert not rep.passed
        assert rep.failures

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_loop_oracle(self, seed):
        self.assert_matches_loop(*_random_triplet(seed))

    @staticmethod
    def assert_matches_loop(a0_of_xi, a_of_xi, b_of_xi, grid, flat=False):
        """The scan against the per-point loop: n_xi, the verdict, every
        margin (the minimum over the grid and at each point), worst_xi, and
        the failures in order, their vectors to 1e-14.
        Failing margins are roundoff, so their argmin is arbitrary; so is
        the argmin of a margin ``flat`` in |xi|, where the loop's margin at
        worst_xi is compared instead."""
        ref = _loop_scan(a0_of_xi, a_of_xi, b_of_xi, grid)
        rep = dis.genuine_coupling_scan(a0_of_xi, a_of_xi, b_of_xi, grid)
        assert rep.n_xi == ref.n_xi == np.count_nonzero(grid)
        assert rep.passed is ref.passed
        assert rep.min_margin == pytest.approx(ref.min_margin, rel=0, abs=1e-14)
        if flat:
            worst = _loop_scan(a0_of_xi, a_of_xi, b_of_xi, [rep.worst_xi])
            assert worst.min_margin == pytest.approx(ref.min_margin, rel=0, abs=1e-14)
        elif not ref.failures:
            np.testing.assert_equal(rep.worst_xi, ref.worst_xi)
        assert [x for x, _ in rep.failures] == [x for x, _ in ref.failures]
        for (_, v), (_, w) in zip(rep.failures, ref.failures):
            np.testing.assert_allclose(v, w, rtol=0, atol=1e-14)
        # per-point margins, one single-point grid each
        for xi in grid[grid != 0.0]:
            got = dis.genuine_coupling_scan(a0_of_xi, a_of_xi, b_of_xi, [xi])
            want = _loop_scan(a0_of_xi, a_of_xi, b_of_xi, [xi])
            assert got.min_margin == pytest.approx(want.min_margin, rel=0, abs=1e-14)
        return rep

    @pytest.mark.parametrize("diagonal", [
        (0.0, 0.0, 0.0),        # B = 0: every unit vector is a kernel vector
        (1e-12, 0.0, 1.0),      # two kernel vectors, not in ascending order
        (1.0, 1e-12, 1e-12),    # a repeated kernel entry
        (2.0, 2.0, 0.0),        # a repeated entry outside the kernel
        (0.0, 3.0, 3.0)])
    @pytest.mark.parametrize("parallel", [False, True])
    def test_diagonal_b_matches_loop_oracle(self, diagonal, parallel):
        # a diagonal B(xi) = xi^2 diag(b) is its own eigendecomposition; with
        # A = A0 diag(g) each unit vector's pair {A0 V, A V} is parallel, so
        # every kernel vector fails and the failures list them in eigh's order
        a0_of_xi, a_of_xi, _, grid = _random_triplet(1)
        if parallel:
            g = np.array([2.0, -0.5, 3.0])
            a_of_xi = lambda xi: np.broadcast_to(  # noqa: E731
                a0_of_xi(xi) * g, np.shape(xi) + (3, 3))
        rep = self.assert_matches_loop(
            a0_of_xi, a_of_xi,
            lambda xi: np.asarray(xi)[..., None, None] ** 2 * np.diag(diagonal), grid)
        kernel = np.count_nonzero(np.array(diagonal) <= 1e-10 * max(diagonal))
        assert len(rep.failures) == (kernel * rep.n_xi if parallel else 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_diagonal_b_matches_loop_oracle(self, seed):
        # positive diagonals drawn with zero, sub-threshold and repeated
        # entries; odd seeds pair each unit vector with itself
        rng = np.random.default_rng(500 + seed)
        diagonal = rng.choice([0.0, 1e-12, 0.5, 2.0], 3)
        a0_of_xi, a_of_xi, _, grid = _random_triplet(seed + 1)
        if seed % 2:
            a_of_xi = lambda xi: np.broadcast_to(  # noqa: E731
                -3.0 * a0_of_xi(xi), np.shape(xi) + (3, 3))
        self.assert_matches_loop(
            a0_of_xi, a_of_xi,
            lambda xi: np.asarray(xi)[..., None, None] ** 2 * np.diag(diagonal), grid)

    @pytest.mark.parametrize("mu0,alpha0", [(0.0, 1.0), (1.0, 0.0)])
    @pytest.mark.parametrize("triplet", ["symbol", "symmetrized"])
    def test_weak_dissipation_matches_loop_oracle(self, mu0, alpha0, triplet):
        # mu0 = 0 or alpha0 = 0 widens the kernel of the diagonal B(xi) to two
        # unit vectors, on both of the CLI's and the paper's triplets
        coeffs = sym.equilibrium_coefficients(
            ideal_gas_eos(1.0, 5.0 / 3.0, 1.0, mu0, alpha0), State(1.0, 0.0, 1.0))
        grid = dis.default_xi_grid(n_per_decade=101)
        if triplet == "symbol":
            maps = coeffs.a0, coeffs.a, coeffs.b
        else:
            btilde = np.diag(coeffs.btilde)
            maps = (lambda xi: np.eye(3), lambda xi: dis.atilde(coeffs, xi),
                    lambda xi: np.asarray(xi)[..., None, None] ** 2 * btilde)
        self.assert_matches_loop(*maps, grid, flat=True)

    def test_every_diagonal_fails_in_eighs_order(self):
        # every positive semi-definite diagonal of 0, -0, a sub-threshold and
        # two positive entries (125, ties and signed zeros among them), with
        # each unit vector's pair parallel: the failures are the kernel
        # vectors eigh gives, in its order, although its selection sort
        # orders some ties among the other entries otherwise
        a0_of_xi = _random_triplet(1)[0]
        g = np.array([2.0, -0.5, 3.0])
        a_of_xi = lambda xi: np.broadcast_to(  # noqa: E731
            a0_of_xi(xi) * g, np.shape(xi) + (3, 3))
        for diagonal in itertools.product([0.0, -0.0, 1e-12, 0.5, 2.0], repeat=3):
            self.assert_matches_loop(
                a0_of_xi, a_of_xi,
                lambda xi: np.asarray(xi)[..., None, None] ** 2 * np.diag(diagonal),
                np.array([-2.0, 0.5, 2.0]))

    @pytest.mark.parametrize("d", [1e-12, -1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3])
    def test_closed_form_margin_matches_svd(self, d):
        # kernel of B is e1; A0 e1 = e1 and A e1 = (1, d, 0), so the pair is
        # d away from parallel (antiparallel for a flipped A)
        for sign in (1.0, -1.0):
            a = sign * np.array([[1.0, 0.0, 0.0], [d, 1.0, 0.0], [0.0, 0.0, 1.0]])
            rep = dis.genuine_coupling_scan(
                lambda xi: np.eye(3), lambda xi: a,
                lambda xi: np.diag([0.0, 1.0, 1.0]), [1.0])
            col = a[:, 0] / np.linalg.norm(a[:, 0])
            svd = np.linalg.svd(np.stack([[1.0, 0.0, 0.0], col], axis=1),
                                compute_uv=False)[1]
            exact = np.sqrt(2.0) * np.sin(0.5 * np.arctan(abs(d)))
            assert rep.min_margin == pytest.approx(svd, rel=0, abs=1e-15)
            assert rep.min_margin == pytest.approx(exact, rel=1e-9)
            assert rep.passed is bool(exact > 1e-10)

    def test_zero_grid_is_vacuous(self, ref_coeffs):
        rep = dis.genuine_coupling_scan(ref_coeffs.a0, ref_coeffs.a, ref_coeffs.b,
                                        [0.0, 0.0])
        assert rep.n_xi == 0
        assert rep.passed is False
        assert rep.min_margin == np.inf and np.isnan(rep.worst_xi)
        assert rep.failures == []

    def test_no_kernel_anywhere_passes(self):
        # B nonsingular on every point: no kernel vector, so coupling holds
        eye = lambda xi: np.eye(3)  # noqa: E731
        rep = dis.genuine_coupling_scan(eye, eye, eye, np.linspace(1.0, 5.0, 5))
        assert rep.passed is True
        assert rep.n_xi == 5 and rep.failures == []
        assert rep.min_margin == np.inf

    def test_passed_is_python_bool(self, ref_coeffs):
        rep = dis.genuine_coupling_scan(ref_coeffs.a0, ref_coeffs.a, ref_coeffs.b,
                                        dis.default_xi_grid(n_per_decade=11))
        assert rep.passed is True


def _loop_scan(a0_of_xi, a_of_xi, b_of_xi, xi_grid, rank_rtol=1e-10,
               margin_tol=1e-10):
    """Reference scan: one eigh and one SVD per grid point."""
    min_margin, worst_xi, failures, n = np.inf, np.nan, [], 0
    for xi in np.asarray(xi_grid, dtype=float):
        if xi == 0.0:
            continue
        n += 1
        b = np.asarray(b_of_xi(xi), dtype=float)
        evals, evecs = np.linalg.eigh(0.5 * (b + b.T))
        lam_max = float(np.abs(evals).max())
        if lam_max == 0.0:
            kernel = np.eye(3)
        else:
            kernel = evecs[:, np.abs(evals) <= rank_rtol * lam_max]
        a0 = np.asarray(a0_of_xi(xi), dtype=float)
        a = np.asarray(a_of_xi(xi), dtype=float)
        for idx in range(kernel.shape[1]):
            v = kernel[:, idx]
            a0v, av = a0 @ v, a @ v
            n0, na = np.linalg.norm(a0v), np.linalg.norm(av)
            if na == 0.0:
                margin = 0.0
            elif n0 == 0.0:
                margin = 1.0
            else:
                pair = np.stack([a0v / n0, av / na], axis=1)
                margin = float(np.linalg.svd(pair, compute_uv=False)[1])
            if margin < min_margin:
                min_margin, worst_xi = margin, float(xi)
            if margin <= margin_tol:
                failures.append((float(xi), v.copy()))
    passed = bool(not failures and n > 0)
    return dis.GenuineCouplingReport(passed=passed, min_margin=min_margin,
                                     worst_xi=worst_xi, failures=failures, n_xi=n)


def _random_triplet(seed):
    """Random (A0, A(xi), B(xi), grid) covering the scan's special cases.

    B(xi) = xi^2 R R^T has rank seed % 4, so kernels of dimension 3 (B = 0)
    down to 0.  Seeds 4-7 set A = 2 A0 (margin 0 on every kernel vector);
    seeds 8-11 zero a column of A and another of A0, which at B = 0 gives
    the margins 0 (A V = 0) and 1 (A0 V = 0).  Every grid contains xi = 0.
    """
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((3, seed % 4))
    d2 = r @ r.T
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    a0 = q @ np.diag(rng.uniform(0.5, 2.0, 3)) @ q.T
    d1, d3 = rng.standard_normal((2, 3, 3))
    if 4 <= seed < 8:
        d1, d3 = 2.0 * a0, np.zeros((3, 3))
    elif seed >= 8:
        d1[:, 0] = d3[:, 0] = 0.0
        a0[:, 1] = 0.0
    grid = np.concatenate([[0.0], rng.uniform(-20.0, 20.0, 24), [0.0]])

    def a_of_xi(xi):
        return d1 + np.asarray(xi, dtype=float)[..., None, None] ** 2 * d3

    def b_of_xi(xi):
        return np.asarray(xi, dtype=float)[..., None, None] ** 2 * d2

    return (lambda xi: a0), a_of_xi, b_of_xi, grid


class TestFriedrichs:
    def test_capillary_system_infeasible(self, ref_coeffs):
        rep = dis.check_friedrichs(ref_coeffs)
        assert not rep.feasible
        assert rep.nullspace_dim == 0

    def test_nsf_feasible(self, nsf_coeffs):
        rep = dis.check_friedrichs(nsf_coeffs)
        assert rep.feasible
        s = rep.symmetrizer
        assert np.linalg.eigvalsh(s).min() > 0
        sa0 = s @ nsf_coeffs.A0
        assert np.abs(sa0 - sa0.T).max() <= 1e-10
        assert np.linalg.eigvalsh(0.5 * (sa0 + sa0.T)).min() > 0

    def test_symmetric_first_order_feasible(self):
        # D2 = D3 = 0 and symmetric D1: the identity symmetrizes everything
        a0 = np.diag([2.0, 1.0, 0.5])
        d1 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]])
        # a0 here is diagonal with distinct entries, so S must be diagonal;
        # identity remains admissible
        rep = dis.friedrichs_search(np.eye(3), [d1, np.zeros((3, 3)),
                                                np.zeros((3, 3))])
        assert rep.feasible

    @staticmethod
    def search_with_nullspace(monkeypatch, *elements):
        """friedrichs_search whose constraint nullspace is spanned by the
        symmetric ``elements``: the constraint rows span the complement."""
        vecs = np.array([[m[i, j] for i, j in dis._SYM_INDEX] for m in elements])
        rows = np.linalg.svd(vecs)[2][len(elements):]
        monkeypatch.setattr(dis, "_symmetry_constraint_rows", lambda mats: rows)
        return dis.friedrichs_search(np.eye(3), [])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_one_dimensional_nullspace_feasible(self, monkeypatch, sign):
        # either sign of the basis element: the projection of I has positive trace
        rep = self.search_with_nullspace(monkeypatch, sign * np.diag([1.0, 2.0, 3.0]))
        assert rep.feasible and not rep.inconclusive
        np.testing.assert_allclose(rep.symmetrizer, np.diag([1.0, 2.0, 3.0]),
                                   rtol=0, atol=1e-14)

    def test_one_dimensional_nullspace_decided(self, monkeypatch):
        # every element of the line t diag(1, -1, 2) is indefinite: a proof
        rep = self.search_with_nullspace(monkeypatch, np.diag([1.0, -1.0, 2.0]))
        assert not rep.feasible and not rep.inconclusive
        assert rep.nullspace_dim == 1 and rep.min_eig < 0
        assert "no positive-definite symmetrizer exists" in rep.certificate

    def test_larger_nullspace_inconclusive(self, monkeypatch):
        # span{diag(1, -1, 1), e1 e2^T + e2 e1^T}: the projection of I is
        # diag(1, -1, 1)/3, indefinite with either sign, and no proof follows
        offdiag = np.zeros((3, 3))
        offdiag[0, 1] = offdiag[1, 0] = 1.0
        rep = self.search_with_nullspace(monkeypatch, np.diag([1.0, -1.0, 1.0]),
                                         offdiag)
        assert not rep.feasible and rep.inconclusive
        assert rep.nullspace_dim == 2
        assert rep.certificate.startswith("inconclusive:")

    def test_forced_zero_diagonal_certificate(self):
        # only the capillarity-type constraint: S D3 symmetric with
        # D3 = e_2 e_1^T forces S[1,1] = 0
        d3 = np.zeros((3, 3))
        d3[1, 0] = -1.0
        rep = dis.friedrichs_search(np.eye(3), [np.zeros((3, 3)),
                                                np.zeros((3, 3)), d3])
        assert not rep.feasible
        assert "S[1,1] = 0" in rep.certificate


class TestMirroredLinspace:
    @pytest.mark.parametrize("xi_max,n", [(100.0, 4001), (100.0, 2001), (100.0, 4000),
                                          (3.7, 10), (3.7, 11), (1e-3, 3), (5.0, 2),
                                          (0.1, 23), (0.1, 39)])
    def test_exact_mirror_of_linspace(self, xi_max, n):
        # linspace's middle point is +-1.4e-17 at 23 and 39 points on [-0.1, 0.1]
        xi = dis.mirrored_linspace(xi_max, n)
        ref = np.linspace(-xi_max, xi_max, n)
        bits = xi.view(np.int64)
        # the points past the middle keep linspace's bits; each point before
        # it is their exact negative; an odd count's middle is +0.0
        assert np.array_equal(bits[n - n // 2:], ref[n - n // 2:].view(np.int64))
        assert np.array_equal(bits[:n // 2], (-xi[::-1][:n // 2]).view(np.int64))
        if n % 2:
            assert bits[n // 2] == 0
        assert (xi[n // 2:] >= 0).all() and np.abs(xi - ref).max() <= 1e-13 * xi_max
        assert np.unique(np.abs(xi)).size == n - n // 2


class TestCompensatingMatrix:
    def test_window_values(self, ref_coeffs):
        gamma_bar, lo, hi = dis.compensating_window(ref_coeffs)
        assert gamma_bar == pytest.approx(1.0 / 6.0, abs=1e-13)
        assert lo == pytest.approx(1.0 / 6.0, abs=1e-13)
        assert hi == pytest.approx(0.5, abs=1e-13)
        k = dis.compensating_matrix(ref_coeffs)
        assert k.eps == pytest.approx(1.0 / 3.0, abs=1e-13)

    def test_skew_symmetry(self, ref_coeffs):
        k = dis.compensating_matrix(ref_coeffs, 1.0 / 3.0)
        xi = np.linspace(-80, 80, 161)
        K = k(xi)
        assert np.abs(K + np.swapaxes(K, -1, -2)).max() == 0.0

    @pytest.mark.parametrize("xi", [np.linspace(-100.0, 100.0, 4001),
                                    np.linspace(-50.0, 50.0, 201)],
                             ids=["certificate grid", "lyapunov grid"])
    def test_closed_form_norm_is_the_spectral_norm(self, ref_coeffs, xi):
        # on the grids analyze-symbol checks: K is skew to the bit, so
        # ||K||_F / sqrt(2) is its spectral norm; the SVD agrees to roundoff
        K = dis.compensating_matrix(ref_coeffs)(xi)
        assert np.all(K + np.swapaxes(K, -1, -2) == 0.0)
        svd = np.linalg.norm(K, 2, axis=(-2, -1))
        assert np.all(svd > 0)
        assert np.abs(dis._skew_norm(K) / svd - 1.0).max() <= 1e-15

    def test_rejects_out_of_window(self, ref_coeffs):
        for eps in (0.0, 1.0 / 6.0, 0.5, 0.9, -0.1):
            with pytest.raises(ValueError):
                dis.compensating_matrix(ref_coeffs, eps)

    def test_decay_at_large_frequency(self, ref_coeffs):
        k = dis.compensating_matrix(ref_coeffs, 1.0 / 3.0)
        xi = np.array([10.0, 100.0, 1000.0])
        norms = np.linalg.norm(k(xi), ord=2, axis=(-2, -1))
        # |K| ~ 1/xi: multiplying xi by 10 divides the norm by ~10
        assert norms[1] == pytest.approx(norms[0] / 10.0, rel=0.05)
        assert np.all(np.abs(xi * norms) <= 0.24)

    def test_no_window_without_dissipation(self):
        eos = ideal_gas_eos(1.0, 5.0 / 3.0, 1.0, 0.0, 0.0)
        coeffs = sym.equilibrium_coefficients(eos, State(1.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            dis.compensating_matrix(coeffs)


class TestCertificate:
    def test_reference_certificate(self, ref_coeffs):
        cert = dis.verify_certificate(ref_coeffs, eps=1.0 / 3.0,
                                      xi_grid=np.linspace(-100, 100, 8001))
        assert cert.passed
        assert cert.min_eig >= 1.0 / 6.0 - 1e-10
        assert cert.off_diagonal_residual <= 1e-14
        assert np.isfinite(cert.sup_K) and np.isfinite(cert.sup_xiK)

    @pytest.mark.parametrize("grid", [
        dis.mirrored_linspace(100.0, 4001), dis.mirrored_linspace(100.0, 4000),
        np.linspace(-100.0, 100.0, 4001), np.linspace(-3.0, 100.0, 777)],
        ids=["mirrored", "mirrored-even", "linspace", "one-sided"])
    @pytest.mark.parametrize("closure", ["reference", "kappa0=0", "gamma=1.4,u=0.7"])
    def test_per_magnitude_matches_per_point(self, closure, grid):
        # every quantity is formed once per distinct |xi|; the extrema are
        # those of every grid point formed on its own, bit for bit, on a
        # mirrored grid and on grids that are not
        args, u = SYMBOL_CLOSURES[closure]
        coeffs = sym.equilibrium_coefficients(ideal_gas_eos(*args), State(1.0, u, 1.0))
        cert = dis.verify_certificate(coeffs, xi_grid=grid)
        want = per_point_certificate(coeffs, cert.eps, grid)
        got = (cert.min_eig, cert.off_diagonal_residual, cert.sup_K, cert.sup_xiK)
        assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))
        assert cert.n_xi == grid.size

    def test_default_grid_is_mirrored(self, ref_coeffs, monkeypatch):
        # 4001 points, 2001 distinct |xi| formed
        shapes, atilde = [], dis.atilde
        monkeypatch.setattr(dis, "atilde", lambda c, xi: shapes.append(np.shape(xi))
                            or atilde(c, xi))
        assert dis.verify_certificate(ref_coeffs).n_xi == 4001
        assert shapes == [(2001,)]

    def test_vanishing_eps_fails_bound(self, ref_coeffs):
        # negative control: with eps -> 0 the (1,1) entry of [K A]^s + B
        # degenerates to 0 < gamma_bar; the product bound must fail
        xi = np.linspace(-10, 10, 101)
        xi = xi[xi != 0]
        a = dis.atilde(ref_coeffs, xi)
        gamma_bar, _, _ = dis.compensating_window(ref_coeffs)
        for eps in (0.0, 1e-6):
            rb = np.sqrt(ref_coeffs.beta(xi))
            K = np.zeros(xi.shape + (3, 3))
            K[..., 0, 1] = 1.0
            K[..., 1, 0] = -1.0
            K[..., 1, 2] = ref_coeffs.cbar / rb
            K[..., 2, 1] = -ref_coeffs.cbar / rb
            K = (eps / rb)[..., None, None] * K
            ka = K @ a
            total = 0.5 * (ka + np.swapaxes(ka, -1, -2)) + np.diag(ref_coeffs.btilde)
            assert np.linalg.eigvalsh(total).min() < gamma_bar


class TestSpectralBound:
    def test_reference_classification(self, ref_coeffs):
        rep = dis.spectral_bound(ref_coeffs, dis.default_xi_grid(n_per_decade=2001))
        assert rep.strictly_dissipative
        assert rep.p == pytest.approx(1.0, abs=0.05)
        assert rep.q == pytest.approx(0.0, abs=0.05)
        assert rep.classification == "regularity-gain"
        assert rep.c0 > 0 and rep.c0_uniform > 0

    def test_sigma_even(self, ref_coeffs):
        xi = np.linspace(-30, 30, 121)
        xi = xi[xi != 0]
        rep = dis.spectral_bound(ref_coeffs, xi,
                                 small_window=(0.1, 1.0), large_window=(5.0, 30.0))
        sigma = rep.sigma
        assert np.abs(sigma - sigma[::-1]).max() <= 1e-12

    def test_nsf_subcase_records_standard_type(self, nsf_coeffs):
        rep = dis.spectral_bound(nsf_coeffs, dis.default_xi_grid(n_per_decade=1001))
        # recorded, not asserted against any stated value: the run must be
        # strictly dissipative with a (1, 1)-type large-frequency saturation
        assert rep.strictly_dissipative
        assert rep.p == pytest.approx(1.0, abs=0.05)
        assert rep.q == pytest.approx(1.0, abs=0.05)

    def test_matches_complex_oracle(self, symbol_coeffs):
        # the real form's sigma against max Re eig(-M) of the complex symbol
        rep = dis.spectral_bound(symbol_coeffs, dis.default_xi_grid(n_per_decade=501))
        radius = np.abs(np.linalg.eigvals(
            sym.evolution_symbol(symbol_coeffs, rep.xi))).max(axis=-1)
        err = np.abs(rep.sigma - complex_sigma(symbol_coeffs, rep.xi))
        assert np.all(err <= 1e-13 * radius)

    def test_no_dissipation_fails(self):
        eos = ideal_gas_eos(1.0, 5.0 / 3.0, 1.0, 0.0, 0.0)
        coeffs = sym.equilibrium_coefficients(eos, State(1.0, 0.0, 1.0))
        rep = dis.spectral_bound(coeffs, dis.default_xi_grid(n_per_decade=301))
        assert not rep.strictly_dissipative
        assert rep.classification == "not strictly dissipative"


class TestLyapunov:
    XI = np.delete(np.linspace(-50.0, 50.0, 201), 100)   # the check's xi != 0

    def test_reference_passes(self, ref_coeffs):
        rep = dis.lyapunov_check(ref_coeffs, eps=1.0 / 3.0, delta=0.05)
        assert rep.passed
        assert rep.worst_slack <= 1e-10
        assert rep.equivalence_ok

    def test_exact_slack_matches_hermitian_oracle(self, ref_coeffs):
        # the real frame's lambda_max against the complex Hermitian H itself
        rep = dis.lyapunov_check(ref_coeffs, eps=1.0 / 3.0, delta=0.05)
        want = hermitian_lyapunov_slack(ref_coeffs, 1.0 / 3.0, 0.05, self.XI, rep.c0)
        assert rep.worst_slack == pytest.approx((want / self.XI ** 2).max(),
                                                rel=1e-12)
        assert rep.worst_slack == pytest.approx(-0.0250, abs=5e-4)

    def test_sevenfold_c0_fails_exact_check_only(self, ref_coeffs, monkeypatch):
        # a c0 seven times too large breaks dY/dt + c0 xi^2 Y <= 0 for the
        # worst modes, which 100 random modes per xi do not find
        c0 = dis.lyapunov_check(ref_coeffs, eps=1.0 / 3.0, delta=0.05).c0
        make = dis.compensating_matrix

        def sevenfold(coeffs, eps=None):
            k_fn = make(coeffs, eps)
            k_fn.gamma_bar *= 7.0
            return k_fn

        monkeypatch.setattr(dis, "compensating_matrix", sevenfold)
        rep = dis.lyapunov_check(ref_coeffs, eps=1.0 / 3.0, delta=0.05)
        assert rep.c0 == pytest.approx(7.0 * c0, rel=1e-14)
        assert not rep.passed and rep.worst_slack > 0.01
        assert rep.violations
        for seed in (0, 7, 23):
            assert sampled_lyapunov_slack(ref_coeffs, 1.0 / 3.0, 0.05, self.XI,
                                          7.0 * c0, seed=seed) <= 1e-10

    def test_zero_delta_inconclusive(self, ref_coeffs):
        rep = dis.lyapunov_check(ref_coeffs, eps=1.0 / 3.0, delta=0.0)
        assert rep.inconclusive
        assert not rep.passed
