import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import nsfk
from nsfk import dissipativity as dis
from nsfk import linear_evolution as lin
from nsfk import symbols as sym
from nsfk.fitting import fit_power_law
from nsfk.thermo import State, ideal_gas_eos
from oracles import hermitian_defect, per_node_propagate, per_node_propagator


def at(prop, modes, t):
    """The modes evolved to the one time t."""
    (out,) = prop.propagate(modes, [t])
    return out


@pytest.fixture(scope="module")
def small_nodes():
    return lin.geometric_nodes(n_nodes=1024, xi_max=200.0, h0=1e-4)


def test_import_leaves_scipy_out(tmp_path):
    # scipy.linalg.expm is imported on first use, and the grading ratio is
    # found by bisection, so none of the three imports loads scipy's solvers
    code = ("import sys, nsfk.cli, nsfk.linear_evolution, nsfk.nonlinear_solver; "
            "print(*sorted(m for m in sys.modules "
            "if m.startswith(('scipy.linalg', 'scipy.optimize'))))")
    env = dict(os.environ, PYTHONPATH=str(Path(nsfk.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []

    # nor do the four subcommands, three on the reference config and a small
    # nonlinear run; nor numpy's generators, nor hashlib, which would load
    # OpenSSL (the config is hashed by CPython's built-in SHA-256)
    reference = Path(__file__).resolve().parents[1] / "configs" / "reference.ini"
    small = tmp_path / "small.ini"
    small.write_text(reference.read_text().split("[nonlinear]")[0] + (
        "[nonlinear]\nlength = 100.0\nn = 512\ndt = 0.02\nt_final = 30.0\n"
        "sample_every = 50\nfit_t_min = 10.0\n"))
    code = textwrap.dedent("""
        import sys
        from nsfk.cli import main
        out, reference, small = sys.argv[1:]
        codes = [main([command, "--config", config, "--out", f"{out}/{command}",
                       "--quiet"])
                 for command, config in (("verify-thermo", reference),
                                         ("analyze-symbol", reference),
                                         ("linear-decay", reference),
                                         ("nonlinear-run", small))]
        print(*codes, *sorted(m for m in sys.modules if m in ("hashlib", "_hashlib")
                              or m.startswith(("scipy.linalg", "scipy.optimize",
                                               "numpy.random"))))
        """)
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path), str(reference),
                          str(small)], env=env, check=True, capture_output=True,
                         text=True).stdout
    assert out.split() == ["0"] * 4


class TestQuadrature:
    def test_node_layout(self, small_nodes):
        nodes, weights = small_nodes
        assert nodes.size == 2 * (1024 // 2) + 1
        assert np.all(np.diff(nodes) > 0)
        assert np.allclose(nodes, -nodes[::-1], atol=0.0)
        assert np.diff(nodes).min() == pytest.approx(1e-4, rel=1e-10)
        assert nodes[-1] == pytest.approx(200.0, rel=1e-9)
        assert np.all(weights > 0)

    def test_gaussian_moments_oracle(self, small_nodes):
        # independent oracle: int exp(-2 xi^2) = sqrt(pi/2),
        # int xi^2 exp(-2 xi^2) = sqrt(pi/2)/4, evaluated in closed form
        nodes, weights = small_nodes
        prof = lin.gaussian_profile(nodes, weights)
        exact_sq = (3.0 + 0.25) * np.sqrt(np.pi / 2.0)
        got = lin.weighted_norm(prof, ell=0)
        assert abs(got - np.sqrt(exact_sq)) <= 1e-6 * np.sqrt(exact_sq)

    def test_invalid_requests(self):
        with pytest.raises(ValueError):
            lin.geometric_nodes(n_nodes=2)
        with pytest.raises(ValueError):
            lin.geometric_nodes(n_nodes=64, xi_max=1e-4, h0=1e-4)

    @pytest.mark.parametrize("kwargs,message", [
        ({"h0": 0.0}, "need 0 < h0"),
        ({"h0": -1.0}, "need 0 < h0"),
        ({"xi_max": -1.0}, "need 0 < h0"),
        ({"n_nodes": 4}, "cannot grade"),
    ])
    def test_bad_grading_has_a_message(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            lin.geometric_nodes(**kwargs)

    @pytest.mark.parametrize("n_nodes,xi_max,h0", [
        (4096, 200.0, 1e-4), (512, 40.0, 1e-3), (20000, 1e3, 1e-6),
        (512, 200.0, 1e-4)])
    def test_grading_ratio_matches_brentq(self, n_nodes, xi_max, h0):
        from scipy.optimize import brentq
        n_half = n_nodes // 2

        def reach(log_r):  # oracle: the same reach, solved by brentq
            if n_half * log_r > 600.0:
                return 1e300
            return h0 * np.expm1(n_half * log_r) / (np.exp(log_r) - 1.0) - xi_max

        want = np.exp(brentq(reach, 1e-15, 0.7, xtol=1e-16, rtol=8.9e-16))
        got = lin._grading_ratio(n_half, xi_max, h0)
        assert abs(got - want) <= 2 * np.spacing(want)


class TestProfiles:
    def test_gaussian_hermitian(self, small_nodes):
        prof = lin.gaussian_profile(*small_nodes)
        assert hermitian_defect(prof) == 0.0

    def test_zero_mass_hermitian_and_vanishing_mean(self, small_nodes):
        prof = lin.zero_mass_gaussian_profile(*small_nodes)
        assert hermitian_defect(prof) <= 1e-16
        mid = prof.xi_nodes.size // 2
        assert prof.xi_nodes[mid] == 0.0
        assert np.abs(prof.modes[mid]).max() == 0.0

    def test_validation(self, small_nodes):
        nodes, weights = small_nodes
        with pytest.raises(ValueError):
            lin.SpectralProfile(nodes[::-1], weights, np.zeros((nodes.size, 3)))
        with pytest.raises(ValueError):
            lin.SpectralProfile(nodes, weights, np.zeros((4, 3)))


class TestPropagation:
    def test_time_zero_identity(self, ref_coeffs):
        mode = np.array([[1.0 + 2.0j, -0.5j, 0.25]])
        out = at(lin.ModePropagator(ref_coeffs, np.array([3.0])), mode, 0.0)
        assert np.all(out == mode)

    def test_zero_frequency_frozen(self, ref_coeffs):
        mode = np.array([[0.3, 1.0 - 1.0j, -2.0]])
        out = at(lin.ModePropagator(ref_coeffs, np.array([0.0])), mode, 17.0)
        assert np.abs(out - mode).max() <= 1e-14

    def test_negative_time_rejected(self, ref_coeffs):
        prop = lin.ModePropagator(ref_coeffs, np.array([1.0]))
        with pytest.raises(ValueError):
            prop.propagate(np.zeros((1, 3), dtype=complex), [1.0, -1.0])

    def test_semigroup_property(self, ref_coeffs, small_nodes):
        nodes, weights = small_nodes
        prof = lin.gaussian_profile(nodes, weights)
        prop = lin.ModePropagator(ref_coeffs, nodes)
        one = at(prop, prof.modes, 2.5)
        two = at(prop, at(prop, prof.modes, 1.0), 1.5)
        assert np.abs(one - two).max() <= 1e-10

    def test_hermitian_symmetry_preserved(self, ref_coeffs, small_nodes):
        nodes, weights = small_nodes
        prof = lin.gaussian_profile(nodes, weights)
        prop = lin.ModePropagator(ref_coeffs, nodes)
        evolved = lin.SpectralProfile(nodes, weights, at(prop, prof.modes, 4.0))
        assert hermitian_defect(evolved) <= 1e-12

    def test_modal_bound(self, ref_coeffs, rng):
        # |exp(-t M) v| <= C exp(-c0 xi^2 t)|v| with the certified uniform c0;
        # compared in log space so the exponential factor cannot underflow
        spect = dis.spectral_bound(ref_coeffs, dis.default_xi_grid(n_per_decade=501))
        c0 = 0.95 * spect.c0_uniform
        xi = np.array([0.05, 0.4, 1.3, 6.0, 40.0])
        prop = lin.ModePropagator(ref_coeffs, xi)
        for _ in range(5):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            v /= np.linalg.norm(v)
            times = (0.1, 1.0, 10.0)
            for t, out in zip(times, prop.propagate(np.broadcast_to(v, (xi.size, 3)),
                                                    times)):
                norms = np.linalg.norm(out, axis=1)
                mask = norms > 0
                log_ratio = np.log(norms[mask]) + c0 * xi[mask] ** 2 * t
                assert np.all(log_ratio <= np.log(10.0))

    def test_matrix_exponentials_against_scipy(self, ref_coeffs, monkeypatch):
        # threshold 0 flags every matrix, forcing the scaling-and-squaring path
        from scipy.linalg import expm
        gen = sym.evolution_symbol(ref_coeffs, np.array([0.7, 3.0]))
        for cond_threshold in (1e4, 0.0):
            monkeypatch.setattr(lin, "_COND_THRESHOLD", cond_threshold)
            ours = lin.matrix_exponentials(gen, 0.9)
            for k in range(2):
                assert np.abs(ours[k] - expm(-0.9 * gen[k])).max() <= 1e-12

    def test_expm_fallback_matches_eigen_path(self, ref_coeffs, small_nodes,
                                              monkeypatch):
        nodes, weights = small_nodes
        prof = lin.gaussian_profile(nodes, weights)
        eig = lin.ModePropagator(ref_coeffs, nodes)
        monkeypatch.setattr(lin, "_COND_THRESHOLD", 0.0)
        fallback = lin.ModePropagator(ref_coeffs, nodes)
        assert np.all(fallback.bad)
        assert np.abs(at(eig, prof.modes, 2.0)
                      - at(fallback, prof.modes, 2.0)).max() <= 1e-10


class TestMirroredFactors:
    """ModePropagator factors each distinct |xi| once and conjugates for
    xi < 0; checked against a propagator that factors every node."""

    TIMES = (0.3, 2.0, 50.0)

    @staticmethod
    def node_sets(nodes):
        return {"symmetric": nodes,
                "all positive": nodes[nodes > 0.0],
                # |xi| <= 1 with both signs, |xi| > 1 only with the minus sign
                "one sign beyond 1": nodes[nodes <= 1.0]}

    @staticmethod
    def random_modes(n):
        rng = np.random.default_rng(1)
        return rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))

    @pytest.mark.parametrize("which", ["symmetric", "all positive", "one sign beyond 1"])
    def test_matches_per_node_oracle(self, ref_coeffs, small_nodes, which):
        xi = self.node_sets(small_nodes[0])[which]
        modes = self.random_modes(xi.size)
        prop = lin.ModePropagator(ref_coeffs, xi)
        for t, got in zip(self.TIMES, prop.propagate(modes, self.TIMES), strict=True):
            want = per_node_propagate(ref_coeffs, xi, modes, t)
            assert np.abs(got - want).max() <= 1e-13

    def test_real_form_matches_per_node_oracle(self, symbol_coeffs, small_nodes):
        # V = Q V_R with unit columns has the condition numbers of the
        # complex generator's own eigenvectors; V_R is what is judged, and
        # up to |xi| = 200 neither flags a node; and it propagates as every
        # node factored on its own
        xi = small_nodes[0]
        modes = self.random_modes(xi.size)
        prop = lin.ModePropagator(symbol_coeffs, xi)
        cond = np.linalg.cond(np.linalg.eig(sym.evolution_symbol(symbol_coeffs, xi))[1],
                              "fro")
        np.testing.assert_allclose(
            np.linalg.cond(prop.vec_columns.transpose(2, 1, 0), "fro"), cond, rtol=1e-10)
        assert np.array_equal(prop.bad, cond > 1e4)
        if symbol_coeffs.mu == 0.0:
            # undamped modes keep their size, and the oracle's own phase
            # error grows like t |lambda| eps: 1e-9 at t = 50 and |xi| = 200
            return
        for t, got in zip(self.TIMES, prop.propagate(modes, self.TIMES), strict=True):
            want = per_node_propagate(symbol_coeffs, xi, modes, t)
            assert np.abs(got - want).max() <= 1e-13

    def mutant_error(self, ref_coeffs, xi):
        modes = self.random_modes(xi.size)
        (got,) = lin.ModePropagator(ref_coeffs, xi).propagate(modes, [2.0])
        return np.abs(got - per_node_propagate(ref_coeffs, xi, modes, 2.0)).max()

    def test_unconjugated_mirror_fails(self, ref_coeffs, small_nodes, monkeypatch):
        # a mutant that hands xi < 0 its mirror's factors unconjugated
        monkeypatch.setattr(lin, "_conjugated", lambda a, rows: a)
        assert self.mutant_error(ref_coeffs, small_nodes[0]) > 1e-3

    def test_unconjugated_mirror_exponentials_fail(self, ref_coeffs, small_nodes,
                                                   monkeypatch):
        # a mutant that gathers each node its |xi|'s exp(-lambda t) but
        # hands xi < 0 its mirror's unconjugated
        monkeypatch.setattr(
            lin.ModePropagator, "_exponentials",
            lambda self, t: np.exp(self.lam * -t).take(self._back, axis=1))
        assert self.mutant_error(ref_coeffs, small_nodes[0]) > 1e-3

    @pytest.mark.parametrize("generator", [
        # an unreduced R with the double root 1 (and 3): a 3 x 3 Jordan
        # structure, since no eigenvalue of it has two eigenvectors
        [[0.0, -0.75 ** 0.5, 0.0], [0.75 ** 0.5, 1.0, 1.5], [0.0, -1.5, 4.0]],
        # c = 0: the Jordan block [[0, -1], [1, 2]] beside the eigenvalue 3
        [[0.0, -1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 3.0]]])
    def test_defective_generator_is_flagged(self, ref_coeffs, monkeypatch, generator):
        # a defective real form R: the adjugate columns of its double root
        # are (nearly) parallel, the condition number from the inverse is
        # about 1e8 or more, so the node takes scaling and squaring
        from scipy.linalg import expm
        gen = np.array(generator)
        assert np.abs(lin.matrix_exponentials(gen, 0.5) - expm(-0.5 * gen)).max() <= 1e-13
        # injected as the real form R with Q = I and, since u = 0 makes
        # M = R, as the generator the flagged nodes are rebuilt from
        monkeypatch.setattr(lin, "real_form", lambda coeffs, xi: (
            np.broadcast_to(gen, xi.shape + (3, 3)), np.ones(xi.shape + (3,), complex)))
        monkeypatch.setattr(lin, "evolution_symbol", lambda coeffs, xi: np.array(
            np.broadcast_to(gen, xi.shape + (3, 3)), dtype=complex))
        xi = np.array([-1.0, 0.5, 1.0])
        prop = lin.ModePropagator(ref_coeffs, xi)
        assert np.all(prop.bad)
        modes = self.random_modes(xi.size)
        (got,) = prop.propagate(modes, [0.5])
        want = modes @ expm(-0.5 * gen).T
        assert np.abs(got - want).max() <= 1e-13


class TestUnderflowingExponentials:
    """``ModePropagator._exponentials`` skips exp where Re(lambda) t > 746."""

    # linear-decay's reference nodes and times
    NODES = lin.geometric_nodes(n_nodes=4096, xi_max=200.0, h0=1e-4)[0]
    TIMES = np.logspace(-1.0, 4.0, 41)

    @staticmethod
    def gathered(prop, t):
        """exp(-lambda t) taken everywhere, gathered and conjugated."""
        e = np.exp(prop.lam * -t).take(prop._back, axis=1)
        return np.conjugate(e, out=e, where=prop._neg)

    CLOSURES = pytest.mark.parametrize("kappa0,u", [(1.0, 0.0), (0.0, 0.0), (1.0, 0.7)],
                                       ids=["reference", "kappa0=0", "u=0.7"])

    @staticmethod
    def propagator(kappa0, u, nodes):
        coeffs = sym.equilibrium_coefficients(ideal_gas_eos(1.0, 5.0 / 3.0, kappa0, 1.0, 1.0),
                                              State(1.0, u, 1.0))
        return lin.ModePropagator(coeffs, nodes)

    def assert_exp_everywhere(self, prop, want):
        # within 2.3e-16 relative entry for entry: a real exp differs from
        # the real part of a complex one by an ulp, exp(conj z) is
        # conj(exp z) bit for bit, and u != 0 takes complex exps as the
        # oracle does; the cut-off is reached at the later times
        skipped = 0
        for t in self.TIMES:
            np.testing.assert_allclose(prop._exponentials(t), want(t),
                                       rtol=2.3e-16, atol=0.0)
            skipped += np.count_nonzero(prop.lam.real * t > lin._EXP_UNDERFLOW)
        assert skipped > 0

    @CLOSURES
    def test_equals_exp_taken_everywhere(self, kappa0, u):
        prop = self.propagator(kappa0, u, self.NODES)
        self.assert_exp_everywhere(prop, lambda t: self.gathered(prop, t))

    @CLOSURES
    def test_folded_nodes_take_no_gather(self, kappa0, u):
        # the nodes xi >= 0 are each their own |xi|; rows 1 and 2 are a
        # conjugate pair at each |xi| != 0 of the reference, two reals at
        # 806 of them at kappa0 = 0, and taken apart where u != 0
        prop = self.propagator(kappa0, u, self.NODES[self.NODES >= 0.0])
        assert prop._back is None
        assert np.count_nonzero(prop._pair) == (0 if u else {1.0: 2048, 0.0: 1242}[kappa0])
        self.assert_exp_everywhere(prop, lambda t: np.exp(prop.lam * -t))

    def test_nan_eigenvalue_gives_nan_norm(self, ref_coeffs, small_nodes):
        xi, weights = small_nodes
        prop = lin.ModePropagator(ref_coeffs, xi)
        prop.lam[0, -1] = complex(np.nan, 0.0)
        profile = lin.gaussian_profile(xi, weights)
        (modes,) = prop.propagate(profile.modes, [1e3])
        assert np.isnan(lin._norm(xi, weights, modes, 0.0))
        assert np.isnan(prop._exponentials(1e3)[0, -1])

    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_nan_from_the_factorization_gives_nan_norm(self, ref_coeffs, small_nodes,
                                                        monkeypatch, row):
        # the real root (row 0) or either member of a conjugate pair comes
        # out of the factorization nan at the largest |xi|
        factor = lin.real_form_eig

        def spoiled(r, vectors):
            lam, vecs = factor(r, vectors=vectors)
            lam[-1, row] = np.nan
            return lam, vecs

        monkeypatch.setattr(lin, "real_form_eig", spoiled)
        xi, weights = small_nodes
        (modes,) = lin.ModePropagator(ref_coeffs, xi).propagate(
            lin.gaussian_profile(xi, weights).modes, [1e3])
        assert np.isnan(lin._norm(xi, weights, modes, 0.0))


class TestConditioning:
    """The condition-number flag of the eigenvector stacks."""

    @staticmethod
    def counted(monkeypatch):
        calls = []
        for name in ("inv", "cond"):
            fn = getattr(np.linalg, name)

            def call(a, *args, _fn=fn, _name=name, **kwargs):
                calls.append(_name)
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, call)
        return calls

    def test_nonsingular_stack_is_inverted_once(self, ref_coeffs, small_nodes,
                                                monkeypatch):
        vecs = np.linalg.eig(sym.evolution_symbol(ref_coeffs, small_nodes[0]))[1]
        calls = self.counted(monkeypatch)
        got, inv, bad = lin._conditioned(vecs)
        assert calls == ["inv"]
        assert not np.any(bad)
        np.testing.assert_array_equal(got, vecs)
        np.testing.assert_array_equal(inv, np.linalg.inv(vecs))
        np.testing.assert_array_equal(
            np.linalg.norm(vecs, "fro", axis=(-2, -1))
            * np.linalg.norm(inv, "fro", axis=(-2, -1)),
            np.linalg.cond(vecs, "fro"))

    def test_singular_stack_takes_cond(self, monkeypatch):
        # inv refuses a stack holding an exactly singular matrix as a whole
        vecs = np.stack([np.eye(3), np.ones((3, 3)), 2.0 * np.eye(3)])
        calls = self.counted(monkeypatch)
        got, inv, bad = lin._conditioned(vecs)
        assert calls == ["inv", "cond", "inv"]
        assert bad.tolist() == [False, True, False]
        np.testing.assert_array_equal(got[1], np.eye(3))
        np.testing.assert_array_equal(inv, np.stack([np.eye(3), np.eye(3),
                                                     0.5 * np.eye(3)]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_eigenvectors_take_expm(self, ref_coeffs, monkeypatch, value):
        # a nan condition number is not <= the threshold, so it flags its
        # entry as an inf one does, and the entry takes scaling and squaring
        from scipy.linalg import expm
        vecs = np.stack([np.eye(3)] * 2)
        vecs[1, 2, 0] = value
        got, inv, bad = lin._conditioned(vecs)
        assert bad.tolist() == [False, True]
        np.testing.assert_array_equal(got, np.stack([np.eye(3)] * 2))
        np.testing.assert_array_equal(inv, np.stack([np.eye(3)] * 2))
        gen = sym.evolution_symbol(ref_coeffs, np.array([0.5, 1.0, 2.0, 4.0]))
        eig = np.linalg.eig

        def spoiled(a):
            # eigenvectors of the stack entries 1 and 2 spoiled by ``value``
            lam, vecs = eig(a)
            vecs[1:3, 0, 0] = value
            return lam, vecs

        monkeypatch.setattr(np.linalg, "eig", spoiled)
        assert lin._eigensystem(gen)[-1].tolist() == [False, True, True, False]
        stacked = lin.matrix_exponentials(gen, 0.5)
        want = np.array([expm(-0.5 * g) for g in gen])
        assert np.abs(stacked - want).max() <= 1e-12

    def test_reference_nodes_are_unflagged(self, ref_coeffs):
        prop = lin.ModePropagator(ref_coeffs, lin.geometric_nodes()[0])
        assert prop.xi_nodes.size == 4097 and not np.any(prop.bad)

    def test_large_frequencies_are_unflagged(self, ref_coeffs):
        # V_R is judged, not V = Q V_R, whose condition number grows with the
        # spread of Q's entries (about |xi|): at xi_cap = 1e5 the largest
        # nodes propagate as scaling and squaring does, while each
        # exp(-lambda t) is far from 0 and from 1
        from scipy.linalg import expm
        for cap in (1e5, 1e10, 1e20):
            assert not np.any(lin.ModePropagator(
                ref_coeffs, lin.geometric_nodes(4096, cap, 1e-4)[0]).bad)
        xi = lin.geometric_nodes(4096, 1e5, 1e-4)[0][-4:]
        modes = TestMirroredFactors.random_modes(xi.size)
        gen = sym.evolution_symbol(ref_coeffs, xi)
        times = (1e-10, 1e-9)
        for t, got in zip(times, lin.ModePropagator(ref_coeffs, xi).propagate(modes, times),
                          strict=True):
            want = np.einsum("kij,kj->ki", np.array([expm(-t * g) for g in gen]), modes)
            assert (np.abs(got - want).max(axis=1)
                    <= 1e-13 * np.abs(want).max(axis=1)).all()

    def test_zero_frequency_is_unflagged(self, symbol_coeffs):
        # R(0) = 0 is factored as lambda = 0 and V_R = I, exactly: V = Q with
        # unit columns, diag(1, i, 1), so xi = 0 takes no scaling and squaring
        prop = lin.ModePropagator(symbol_coeffs, np.array([-1.0, 0.0, 1.0]))
        assert not np.any(prop.bad)
        np.testing.assert_array_equal(prop.lam[:, 0], np.zeros(3))
        np.testing.assert_array_equal(prop.vec_columns[:, :, 1].T, np.diag([1.0, 1j, 1.0]))
        np.testing.assert_array_equal(prop.vecs_inv[1], np.diag([1.0, -1j, 1.0]))


class TestFoldedNorms:
    """evolve_and_fit folds the nodes onto xi >= 0; its norms against every
    node factored on its own, its sign included, on the unfolded nodes."""

    TIMES = np.logspace(-1.0, 4.0, 41)
    NODES, WEIGHTS = lin.geometric_nodes(4096, 200.0, 1e-4)

    @staticmethod
    def coeffs(kappa0=1.0, u=0.0):
        return sym.equilibrium_coefficients(ideal_gas_eos(1.0, 5.0 / 3.0, kappa0, 1.0, 1.0),
                                            State(1.0, u, 1.0))

    def assert_unfolded_norms(self, coeffs, profile, ell=0.0):
        fit = lin.evolve_and_fit(coeffs, profile, self.TIMES, ell)
        at = per_node_propagator(coeffs, profile.xi_nodes, profile.modes)
        want = [lin.weighted_norm(lin.SpectralProfile(profile.xi_nodes, profile.weights,
                                                      at(t)), ell) for t in self.TIMES]
        assert np.abs(fit.norms / want - 1.0).max() <= 1e-14
        return lin._folded(profile.xi_nodes, profile.weights, profile.modes)

    @pytest.mark.parametrize("case", ["reference", "kappa0=0", "u=0.7", "ell=1",
                                      "zero-mass-gaussian"])
    def test_hermitian_profiles_merge(self, case):
        closure = {"kappa0=0": {"kappa0": 0.0}, "u=0.7": {"u": 0.7}}.get(case, {})
        coeffs = self.coeffs(**closure)
        make = (lin.zero_mass_gaussian_profile if case == "zero-mass-gaussian"
                else lin.gaussian_profile)
        profile = make(self.NODES, self.WEIGHTS)
        xi, weights, modes = self.assert_unfolded_norms(coeffs, profile,
                                                        1.0 if case == "ell=1" else 0.0)
        # the 2048 nodes xi < 0 merge into their mirrors, the weights added
        # (the Simpson weights are even, so each doubles exactly)
        np.testing.assert_array_equal(xi, self.NODES[2048:])
        np.testing.assert_array_equal(weights[1:], 2.0 * self.WEIGHTS[2049:])
        np.testing.assert_array_equal(modes, profile.modes[2048:])

    def test_non_hermitian_csv_keeps_every_node(self, ref_coeffs, tmp_path):
        # nonzero random modes: no folded node equals its mirror, so the
        # folded set holds each |xi| != 0 twice
        xi = self.NODES[::8]
        rng = np.random.default_rng(7)
        parts = rng.uniform(0.5, 1.5, (xi.size, 6)) * np.exp(-np.abs(xi))[:, None]
        path = tmp_path / "profile.csv"
        np.savetxt(path, np.column_stack([xi, parts]), delimiter=",",
                   header="xi,re1,im1,re2,im2,re3,im3", comments="")
        profile = lin.csv_profile(path)
        assert hermitian_defect(profile) > 0.1
        folded, weights, _ = self.assert_unfolded_norms(ref_coeffs, profile)
        assert folded.size == xi.size
        np.testing.assert_array_equal(folded, np.abs(xi))
        np.testing.assert_array_equal(weights, profile.weights)

    def test_one_sided_nodes(self, ref_coeffs):
        # |xi| <= 1 with both signs, |xi| > 1 only with the minus sign
        keep = self.NODES <= 1.0
        profile = lin.gaussian_profile(self.NODES[keep], self.WEIGHTS[keep])
        folded = self.assert_unfolded_norms(ref_coeffs, profile)[0]
        assert folded.size == np.count_nonzero(keep) - np.count_nonzero(
            (self.NODES < 0.0) & (self.NODES >= -1.0))


class TestWeightedNorm:
    def test_zero_profile(self, small_nodes):
        nodes, weights = small_nodes
        prof = lin.SpectralProfile(nodes, weights,
                                   np.zeros((nodes.size, 3), dtype=complex))
        assert lin.weighted_norm(prof, 0) == 0.0

    def test_density_weight_exceeds_plain_l2(self, small_nodes):
        nodes, weights = small_nodes
        prof = lin.gaussian_profile(nodes, weights, amplitudes=(1.0, 0.0, 0.0))
        weighted = lin.weighted_norm(prof, 0) ** 2
        plain = float(np.sum(weights * np.abs(prof.modes[:, 0]) ** 2))
        assert weighted / plain > 1.0

    def test_weight_is_even_in_xi(self, small_nodes):
        # |xi|^(2 ell): a fractional ell weighs xi and -xi alike, and
        # ell = 1 is xi^2 bit for bit
        nodes, weights = small_nodes
        prof = lin.gaussian_profile(nodes, weights)
        base = lin.modal_energy(nodes, prof.modes)
        half = lin.modal_energy(nodes, prof.modes, 0.5)
        assert np.all(np.isfinite(half))
        assert np.all(half[(nodes != 0) & (base > 0)] > 0)
        assert np.array_equal(half, np.abs(nodes) * base)
        assert np.array_equal(half, lin.modal_energy(-nodes, prof.modes, 0.5))
        assert np.array_equal(lin.modal_energy(nodes, prof.modes, 1.0),
                              nodes ** 2.0 * base)


class TestDecayFits:
    def test_generic_data_rates(self, ref_coeffs, small_nodes):
        nodes, weights = small_nodes
        prof = lin.gaussian_profile(nodes, weights)
        times = np.logspace(-1, 4, 31)
        fit0 = lin.evolve_and_fit(ref_coeffs, prof, times, 0, (1e2, 1e4))
        fit1 = lin.evolve_and_fit(ref_coeffs, prof, times, 1, (1e2, 1e4))
        assert fit0.exponent == pytest.approx(-0.25, abs=0.05)
        assert fit1.exponent == pytest.approx(-0.75, abs=0.05)
        assert not fit0.flagged and not fit1.flagged

    def test_zero_mass_data_decays_faster(self, ref_coeffs, small_nodes):
        nodes, weights = small_nodes
        prof = lin.zero_mass_gaussian_profile(nodes, weights)
        times = np.logspace(-1, 4, 31)
        fit = lin.evolve_and_fit(ref_coeffs, prof, times, 0, (1e2, 1e4))
        assert fit.exponent <= -0.7

    def test_zero_share_without_zero_node_after_underflow(self, ref_coeffs):
        # nodes +-1 only: the final norm underflows to 0, and with no energy
        # at xi = 0 the share is 0, not 0/0
        prof = lin.SpectralProfile([-1.0, 1.0], [1.0, 1.0], np.ones((2, 3)))
        fit = lin.evolve_and_fit(ref_coeffs, prof, np.logspace(-1, 4, 41))
        assert fit.norms[-1] == 0.0
        assert fit.zero_share == 0.0

    def test_non_finite_fit_is_flagged(self, ref_coeffs, small_nodes):
        # xi^(2 ell) with ell < 0 is infinite at the xi = 0 node: the norm is
        # infinite and the fit residual nan, which must not read as reliable
        prof = lin.gaussian_profile(*small_nodes)
        with np.errstate(divide="ignore", invalid="ignore"):
            fit = lin.evolve_and_fit(ref_coeffs, prof, np.logspace(-1, 4, 11),
                                     -1, (1e2, 1e4))
        assert not np.isfinite(fit.residual)
        assert fit.flagged

    def test_nan_in_the_fit_window_raises(self):
        # a nan is an error, not a point dropped like y <= 0; outside the
        # window it is not read
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        y = [np.nan, 1.0, 0.5, 0.0, np.nan]
        fit = fit_power_law(x, y, (2.0, 4.0))
        assert fit.exponent == pytest.approx(-np.log(2.0) / np.log(1.5))
        for window in ((1.0, 4.0), (2.0, 5.0), None):
            with pytest.raises(ValueError, match="nan"):
                fit_power_law(x, y, window)

    def test_times_must_increase(self, ref_coeffs, small_nodes):
        prof = lin.gaussian_profile(*small_nodes)
        with pytest.raises(ValueError):
            lin.evolve_and_fit(ref_coeffs, prof, [1.0, 1.0, 2.0])

    def test_upsilon_monotone_per_mode(self, ref_coeffs, rng):
        # cross-check with the Lyapunov certificate: Y(t) decreases along
        # the exact transformed flow for every sampled mode
        k_fn = dis.compensating_matrix(ref_coeffs, 1.0 / 3.0)
        delta = 0.05
        for xi in (0.3, 1.0, 5.0):
            gen = (1j * xi * dis.atilde(ref_coeffs, xi)
                   + xi ** 2 * np.diag(ref_coeffs.btilde))
            lam, V = np.linalg.eig(gen)
            Vinv = np.linalg.inv(V)
            K = k_fn(xi)
            v0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            times = np.linspace(0.0, 5.0, 41)
            values = []
            for t in times:
                v = V @ (np.exp(-lam * t) * (Vinv @ v0))
                y = np.vdot(v, v).real - delta * xi * np.vdot(v, 1j * K @ v).real
                values.append(y)
            diffs = np.diff(values)
            assert np.all(diffs <= 1e-12)


class TestPointwise:
    def test_stronger_dissipation_larger_rate(self, ref_coeffs):
        # scaling mu, alpha by 10 speeds up every long-wave mode by ~10 and
        # raises the fitted c0; the uniform min over all xi instead moves to
        # the overdamped large-xi branch (~ beta/mu), so it is not compared
        eos10 = ideal_gas_eos(1.0, 5.0 / 3.0, 1.0, 10.0, 10.0)
        coeffs10 = sym.equilibrium_coefficients(eos10, State(1.0, 0.0, 1.0))
        grid = dis.default_xi_grid(n_per_decade=501)
        base = dis.spectral_bound(ref_coeffs, grid)
        strong = dis.spectral_bound(coeffs10, grid)
        assert strong.c0 > base.c0
        small = np.argmin(np.abs(np.abs(base.xi) - 0.01))
        assert strong.sigma[small] < base.sigma[small] < 0
