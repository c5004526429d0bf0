import copy
import dataclasses
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from nsfk import convex_extension as cx
from nsfk import nonlinear_solver as nls
from nsfk import symbols as sym
from nsfk.linear_evolution import matrix_exponentials
from nsfk.thermo import Coefficient, State, ideal_gas_eos
from oracles import (capillarity_matrix, conserved_quantities, d_ux_F0,
                     definitional_nonlinear_terms, deriv, extended, f1, grad, grad2,
                     korteweg_entries, mv, primitive_rhs, primitive_spectrum,
                     spectrum, state_of, total_flux)


@pytest.fixture(scope="module")
def small_grid():
    return nls.SpectralGrid(n=256, length=50.0)


def smooth_field(grid, amp=0.05):
    x = grid.x
    two_pi = 2 * np.pi / grid.length
    rho = 1.0 + amp * np.sin(two_pi * x)
    u = amp * np.cos(two_pi * x) + 0.5 * amp * np.sin(2 * two_pi * x)
    theta = 1.0 + amp * np.cos(two_pi * x)
    return nls.StateField(grid, rho, u, theta)


def unpack(stepper, uh):
    """The field on the grid whose ``stepper.pack`` is ``uh``."""
    rho, mom, theta = np.fft.irfft(uh, n=stepper.grid.n) + stepper.vbar[:, None]
    return nls.StateField(stepper.grid, rho, mom / rho, theta)


def field_spectrum(stepper, uh):
    """The spectrum ``rhs`` takes of the field whose ``stepper.pack`` is ``uh``."""
    fh = uh.copy()
    fh[:, 0] += stepper.grid.n * stepper.vbar
    return fh


def entries(tensors):
    """Every array and scalar of a ``symbols.FluxTensors``, its closure pass's
    entries included."""
    return (tensors.F0, tensors.flux, tensors.entropy, *tensors.closure)


def to_v(ubar):
    """T = dV/dU at ``ubar``, V = (rho, rho u, theta), and its inverse."""
    t = np.array([[1.0, 0.0, 0.0], [ubar.u, ubar.rho, 0.0], [0.0, 0.0, 1.0]])
    return t, np.linalg.inv(t)


def masked_rhs(eos, grid, fh, heat_on_grid=False):
    """Reference right side on all n//2 + 1 rfft bins, the 2/3 rule as a mask.

    The same arithmetic as ``nls.rhs``, but on full-width spectra that carry
    the removed modes as zeros, and with the flux and the Jacobian entries
    from the oracles instead of the closure pass; ``fh`` is the masked rfft
    of (rho, m, theta), m = rho u.  Like ``nls.rhs``, it adds the heat
    flux's spectrum alpha ik theta to the energy flux's where alpha is
    constant on the grid, and alpha theta_x to the energy flux on the grid
    otherwise; with ``heat_on_grid`` it adds it on the grid always, as the
    solver once did.  theta_t reads rho_t = -m_x, rho_xt = -m_xx and
    rho u u_t = u (r2 + u m_x), in the solver's order.
    """
    ik = grid.ik
    mask = np.arange(grid.n // 2 + 1) <= grid.n // 3
    rho_xh, mom_xh = ik * fh[0], ik * fh[1]
    rho, mom, theta, rho_x, mom_x, theta_x, rho_xx, mom_xx = np.fft.irfft(
        np.stack([fh[0], fh[1], fh[2], rho_xh, mom_xh, ik * fh[2], ik * rho_xh,
                  ik * mom_xh]), n=grid.n)
    u = mom / rho
    u_x = (mom_x - u * rho_x) / rho
    alpha = np.asarray(eos.alpha(rho, theta))
    per_mode = not heat_on_grid and np.all(alpha == alpha.flat[0])
    flux = total_flux(eos, rho, u, theta, rho_x, rho_xx, u_x, theta_x, mom,
                      heat=not per_mode)
    rh = np.fft.rfft(np.stack(flux[1:]))
    if per_mode:
        rh[1] += alpha.flat[0] * (ik * fh[2])
    rh *= ik * mask
    r2, r3 = np.fft.irfft(rh, n=grid.n)
    a31 = (eos.epsilon(rho, theta, rho_x) + 0.5 * u ** 2
           + rho * eos.epsilon_rho(rho, theta, rho_x))
    a33 = rho * eos.epsilon_theta(rho, theta, rho_x)
    b31 = 2.0 * rho * eos.grad_energy(rho, theta) * rho_x
    theta_t = (r3 + b31 * mom_xx + a31 * mom_x - u * (r2 + u * mom_x)) / a33
    return np.stack([-(ik * fh[1]), rh[0], np.fft.rfft(theta_t) * mask])


def physical_rates(eos, f):
    """(rho_t, u_t, theta_t) on the grid from the spectral right side, with
    u_t = (m_t - u rho_t) / rho."""
    rho_t, mom_t, theta_t = np.fft.irfft(nls.rhs(eos, f.grid, spectrum(f)), n=f.grid.n)
    return rho_t, (mom_t - f.u * rho_t) / f.rho, theta_t


class TestGrid:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            nls.SpectralGrid(n=300, length=10.0)

    def test_spectral_derivative_exact_for_modes(self, small_grid):
        x = small_grid.x
        k = 2 * np.pi * 3 / small_grid.length
        f = np.sin(k * x)
        assert np.abs(deriv(small_grid, f) - k * np.cos(k * x)).max() <= 1e-10
        assert np.abs(deriv(small_grid, f, 2) + k ** 2 * f).max() <= 1e-9

    def test_integral_of_derivative_vanishes(self, small_grid):
        f = np.exp(np.sin(2 * np.pi * small_grid.x / small_grid.length))
        assert abs(small_grid.integral(deriv(small_grid, f))) <= 1e-13

    @pytest.mark.parametrize("name", ["k", "ik"])
    def test_spectral_arrays_cached_read_only(self, name):
        grid = nls.SpectralGrid(n=64, length=10.0)
        arr = getattr(grid, name)
        assert getattr(grid, name) is arr
        with pytest.raises(ValueError):
            arr[1] = arr[0]


class TestRhs:
    def test_equilibrium_is_stationary(self, ref_eos, small_grid):
        f = nls.initial_field(small_grid, State(1.0, 0.0, 1.0),
                              nls.PerturbationSpec(amplitude=0.0))
        rates = physical_rates(ref_eos, f)
        assert max(np.abs(r).max() for r in rates) == 0.0

    def test_ideal_gas_takes_no_logarithm(self, ref_eos, small_grid):
        # the ideal gas states p, e, e_rho and e_theta in closed form: one
        # rhs never reads psi, whose logarithms cancel in e
        calls = Counter()

        def counted(name, fn):
            return lambda *a: calls.update([name]) or fn(*a)

        parts = ("f", "d_r", "d_t", "d_rr", "d_rt", "d_tt")
        psi = Coefficient(*(counted(p, getattr(ref_eos.psi, p)) for p in parts))
        eos = dataclasses.replace(ref_eos, psi=psi)
        fh = spectrum(smooth_field(small_grid, amp=0.1))
        assert np.array_equal(nls.rhs(eos, small_grid, fh), nls.rhs(ref_eos, small_grid, fh))
        calls.clear()
        nls.rhs(eos, small_grid, fh)
        assert calls == Counter(), calls

    @pytest.mark.parametrize("closure", ["ref_eos", "sqrt_kappa_eos", "sqrt_alpha_eos"])
    def test_rates_vanish_above_the_cutoff(self, request, closure, small_grid):
        eos = request.getfixturevalue(closure)
        # rhs keeps only the modes m <= n/3; padded with zeros they equal,
        # bit for bit, the full-width right side with the 2/3 rule as a mask
        # that adds the heat flux where rhs does.  Against the right side
        # that adds it on the grid always, they agree to roundoff (measured:
        # 1.9e-14 and 2.0e-14 of the row's largest mode in the theta_t row
        # of ref_eos and sqrt_kappa_eos, the other rows bit for bit)
        g = small_grid
        f = smooth_field(g, amp=0.1)
        rates = nls.rhs(eos, g, spectrum(f))
        assert rates.shape == (3, g.n // 3 + 1)
        assert np.all(np.any(rates != 0.0, axis=1))
        mask = np.arange(g.n // 2 + 1) <= g.n // 3
        fh = np.fft.rfft(np.stack([f.rho, f.rho * f.u, f.theta])) * mask
        full = masked_rhs(eos, g, fh)
        assert np.all(full[:, ~mask] == 0.0)
        padded = np.zeros_like(full)
        padded[:, mask] = rates
        assert np.array_equal(padded, full)
        on_grid = masked_rhs(eos, g, fh, heat_on_grid=True)
        for got, want in zip(padded, on_grid):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("closure", ["ref_eos", "sqrt_kappa_eos", "sqrt_alpha_eos"])
    def test_two_row_out_takes_the_last_two_rates(self, request, closure, small_grid):
        # an out of 2 rows takes (m_t, theta_t) alone, bit for bit rows 1
        # and 2 of the full result
        eos = request.getfixturevalue(closure)
        fh = spectrum(smooth_field(small_grid, amp=0.1))
        full = nls.rhs(eos, small_grid, fh)
        two = np.full((2, small_grid.modes), np.nan, dtype=complex)
        assert nls.rhs(eos, small_grid, fh, out=two) is two
        assert np.array_equal(two, full[1:])

    def test_result_is_not_aliased_to_the_workspace(self, ref_eos, small_grid):
        # rhs reuses the grid's transform buffers; a result must survive the
        # next call on the same grid
        a, b = smooth_field(small_grid, amp=0.1), smooth_field(small_grid, amp=0.03)
        rates_a = nls.rhs(ref_eos, small_grid, spectrum(a))
        nls.rhs(ref_eos, small_grid, spectrum(b))
        fresh = nls.SpectralGrid(n=small_grid.n, length=small_grid.length)
        assert np.array_equal(rates_a, nls.rhs(ref_eos, fresh, spectrum(a)))

    def test_mass_rate_integrates_to_zero(self, ref_eos, small_grid):
        f = smooth_field(small_grid)
        rho_t, _, _ = physical_rates(ref_eos, f)
        assert abs(small_grid.integral(rho_t)) <= 1e-13

    def test_euler_limit_against_finite_differences(self, small_grid):
        # kappa = mu = alpha = 0 reduces to the compressible Euler equations;
        # independent oracle: assemble the primitive-variable Euler rates with
        # fourth-order central differences
        eos = ideal_gas_eos(1.0, 5.0 / 3.0, 0.0, 0.0, 0.0)
        grid = nls.SpectralGrid(n=1024, length=50.0)
        f = smooth_field(grid, amp=0.02)
        rho, u, theta = f.rho, f.u, f.theta

        def fd(arr):
            dx = grid.dx
            return (-np.roll(arr, -2) + 8 * np.roll(arr, -1)
                    - 8 * np.roll(arr, 1) + np.roll(arr, 2)) / (12 * dx)

        # rho_t = -(rho u)_x ; u_t = -u u_x - p_x / rho ;
        # theta_t = -u theta_x - (theta p_theta / (rho e_theta)) u_x
        p = np.asarray(eos.p(rho, theta))
        p_t = np.asarray(eos.p_theta(rho, theta))
        e_t = np.asarray(eos.e_theta(rho, theta))
        rho_t_fd = -fd(rho * u)
        u_t_fd = -u * fd(u) - fd(p) / rho
        theta_t_fd = -u * fd(theta) - theta * p_t / (rho * e_t) * fd(u)

        rho_t, u_t, theta_t = physical_rates(eos, f)
        for got, want in ((rho_t, rho_t_fd), (u_t, u_t_fd), (theta_t, theta_t_fd)):
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() <= 1e-6 * scale

    @pytest.mark.parametrize("closure", ["ref_eos", "sqrt_kappa_eos",
                                         "rho_theta_kappa_eos"])
    def test_matches_tensor_form(self, request, closure, small_grid):
        # jac_f0(U, rho_x) U_t + d_ux_F0 (U_t)_x = dx[-F1 + G U_x + H U_xx + g~]
        eos = request.getfixturevalue(closure)
        g = small_grid
        f = smooth_field(g, amp=0.1)
        rates = np.stack(physical_rates(eos, f), axis=-1)
        rates_x = np.stack([deriv(g, r) for r in rates.T], axis=-1)
        ext = extended(f)
        lhs = (mv(cx.jac_f0(eos, state_of(ext)), rates)
               + mv(d_ux_F0(eos, ext), rates_x))
        g2, g3 = korteweg_entries(eos, ext.rho, ext.u, ext.theta, ext.rho_x,
                                  ext.u_x, ext.theta_x)
        flux = (-f1(eos, ext) + mv(cx.visc_matrix(eos, state_of(ext)), grad(ext))
                + mv(capillarity_matrix(eos, state_of(ext)), grad2(ext))
                + cx.vec3([0.0, g2, g3]))
        div = np.stack([deriv(g, flux[:, i], dealias=True) for i in range(3)], axis=-1)
        assert np.abs(lhs - div).max() <= 1e-12 * np.abs(div).max()

    @pytest.mark.parametrize("closure", ["ref_eos", "sqrt_kappa_eos",
                                         "rho_theta_kappa_eos"])
    def test_matches_the_primitive_variable_oracle(self, request, closure, small_grid):
        # the rates of (rho, m, theta) taken to the primitive rates agree
        # with the primitive-variable reference right side of the same field
        eos = request.getfixturevalue(closure)
        g = small_grid
        f = smooth_field(g, amp=0.1)
        rates = physical_rates(eos, f)
        want = np.fft.irfft(primitive_rhs(eos, g, primitive_spectrum(f)), n=g.n)
        for got, ref in zip(rates, want):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("closure", ["ref_eos", "sqrt_kappa_eos"])
    def test_linearisation_is_minus_evolution_symbol(self, request, closure,
                                                     small_grid):
        # the identity behind IntegratingFactorRK4's integrating factor:
        # rhs(Vbar + delta cos(k x) e_j) has Fourier coefficient
        # -T M(i k) T^-1 e_j, T = dV/dU at Ubar, V = (rho, rho u, theta)
        eos = request.getfixturevalue(closure)
        g = small_grid
        ubar = State(1.0, 0.3, 1.2)
        t, t_inv = to_v(ubar)
        coeffs = sym.equilibrium_coefficients(eos, ubar)
        delta = 1e-7
        for m in (1, 5, 40):
            M = t @ sym.evolution_symbol(coeffs, g.k[m]) @ t_inv
            for j in range(3):
                fields = np.outer([ubar.rho, ubar.rho * ubar.u, ubar.theta],
                                  np.ones(g.n))
                fields[j] += delta * np.cos(g.k[m] * g.x)
                rates = nls.rhs(eos, g, np.fft.rfft(fields)[:, :g.modes])
                column = rates[:, m] / (delta * g.n / 2)
                assert np.abs(column + M[:, j]).max() <= 1e-6 * np.abs(M).max()


class TestSteppers:
    def test_equilibrium_fixed_point(self, ref_eos, small_grid):
        ubar = State(1.0, 0.0, 1.0)
        out = nls.initial_field(small_grid, ubar, nls.PerturbationSpec(amplitude=0.0))
        stepper = nls.IntegratingFactorRK4(ref_eos, ubar, small_grid, 1e-3)
        uh = stepper.pack(out)
        for _ in range(5):
            uh = stepper.step(uh)
        out = unpack(stepper, uh)
        assert np.abs(out.rho - 1.0).max() <= 1e-14
        assert np.abs(out.u).max() <= 1e-14
        assert np.abs(out.theta - 1.0).max() <= 1e-14

    def test_integrating_factors_cover_the_retained_modes(self, ref_eos, small_grid):
        stepper = nls.IntegratingFactorRK4(ref_eos, State(1.0, 0.0, 1.0),
                                           small_grid, 1e-3)
        for name in ("generators", "e_half"):
            assert getattr(stepper, name).shape == (3, 3, small_grid.n // 3 + 1)

    def test_buffered_step_matches_the_allocating_formula(self, ref_eos):
        # the Lawson RK4 step on the half-step factor E alone, written with
        # fresh arrays and (3, 3, K) products: the buffered step sums in the
        # same order, so it gives the same spectrum, bit for bit
        ubar = State(1.0, 0.0, 1.0)
        grid = nls.SpectralGrid(n=128, length=50.0)
        stepper = nls.IntegratingFactorRK4(ref_eos, ubar, grid, 0.02)
        gen, e = (a.transpose(1, 0, 2) for a in (stepper.generators, stepper.e_half))

        def apply(m, v):
            return (m * v).sum(axis=1)

        def nonlinear(uh):
            fh = uh.copy()
            fh[:, 0] += grid.n * stepper.vbar
            return nls.rhs(ref_eos, grid, fh) + apply(gen, uh)

        def step(u0, dt=stepper.dt):
            n1 = nonlinear(u0)
            v, b = apply(e, u0), apply(e, n1)
            n2 = nonlinear(v + 0.5 * dt * b)
            n3 = nonlinear(v + 0.5 * dt * n2)
            n4 = nonlinear(apply(e, v + dt * n3))
            return (apply(e, v + dt / 6.0 * b + dt / 3.0 * (n2 + n3))
                    + dt / 6.0 * n4)

        want = got = stepper.pack(nls.initial_field(
            grid, ubar, nls.PerturbationSpec(amplitude=5e-2, width=4.0)))
        for _ in range(5):
            want, got = step(want), stepper.step(got.copy())
        assert np.array_equal(got, want)

    def test_step_matches_the_classic_lawson_form(self, ref_eos):
        # the textbook Lawson RK4 step with both factors from scipy,
        # e1 = expm(-dt M) and e2 = expm(-dt/2 M):
        # u1 = e1 u0 + dt/6 (e1 n1 + 2 e2 (n2 + n3) + n4), the generator
        # M taken to V = (rho, rho u, theta) by T = dV/dU at Ubar
        from scipy.linalg import expm

        ubar = State(1.0, 0.3, 1.0)
        grid = nls.SpectralGrid(n=128, length=50.0)
        dt = 0.02
        stepper = nls.IntegratingFactorRK4(ref_eos, ubar, grid, dt)
        t, t_inv = to_v(ubar)
        gen = t @ sym.evolution_symbol(sym.equilibrium_coefficients(ref_eos, ubar),
                                       grid.k[:grid.modes]) @ t_inv
        e1 = np.stack([expm(-dt * m) for m in gen])
        e2 = np.stack([expm(-0.5 * dt * m) for m in gen])

        def apply(m, v):
            return np.einsum("kij,jk->ik", m, v)

        def nonlinear(uh):
            fh = uh.copy()
            fh[:, 0] += grid.n * stepper.vbar
            return nls.rhs(ref_eos, grid, fh) + apply(gen, uh)

        def step(u0):
            n1 = nonlinear(u0)
            n2 = nonlinear(apply(e2, u0) + 0.5 * dt * apply(e2, n1))
            n3 = nonlinear(apply(e2, u0) + 0.5 * dt * n2)
            n4 = nonlinear(apply(e1, u0) + dt * apply(e2, n3))
            return apply(e1, u0) + dt / 6.0 * (apply(e1, n1) + 2.0 * apply(e2, n2 + n3)
                                               + n4)

        want = got = stepper.pack(nls.initial_field(
            grid, ubar, nls.PerturbationSpec(amplitude=5e-2, width=4.0)))
        for _ in range(50):
            want, got = step(want), stepper.step(got.copy())
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("rho,u", [(1.0, 0.0), (1.0, 0.5), (1.3, 0.7)])
    def test_the_mass_remainder_is_skipped(self, ref_eos, rho, u):
        # the mass rate -ik m is linear in V, so row 0 of the generators is
        # (0, ik, 0) and the nonlinear remainder's row 0 is 0: _nonlinear
        # writes 0 there and applies only rows 1 and 2.  At rhobar = 1 the
        # row is exact, and 50 steps match the formula that applies the full
        # generators and adds the whole rhs, bit for bit; at (1.3, 0.7) the
        # row carries roundoff (measured: 1.1e-15 in G[0, 0] here, up to
        # 4.6e-15 at n = 4096), and the steps agree to roundoff (5.1e-16)
        ubar = State(rho, u, 1.0)
        exact = rho == 1.0
        steppers = [nls.IntegratingFactorRK4(ref_eos, ubar,
                                             nls.SpectralGrid(n=128, length=50.0), 0.02)
                    for _ in range(2)]
        full = steppers[1]

        def unskipped(x, out):
            full._apply(full.generators, x, out)
            x[:, 0] += full._shift
            out += nls.rhs(full.eos, full.grid, x, out=full._tmp)
            return out

        full._nonlinear = unskipped
        ik = full.grid.ik[:full.grid.modes]
        row0, want = full.generators[:, 0], np.stack([0.0 * ik, ik, 0.0 * ik])
        if exact:
            assert np.array_equal(row0, want)
        else:
            assert 0.0 < np.abs(row0 - want).max() <= 1e-14 * np.abs(ik).max()
        f0 = nls.initial_field(full.grid, ubar, nls.PerturbationSpec(
            amplitude=5e-2, width=4.0, fields=("rho", "u", "theta")))
        got, want = (s.pack(f0) for s in steppers)
        out = np.full_like(got, np.nan)
        steppers[0]._nonlinear(got.copy(), out)
        assert np.all(out[0] == 0.0)
        for _ in range(50):
            steppers[0].step(got)
            full.step(want)
        if exact:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("closure", ["ref_eos", "sqrt_kappa_eos",
                                         "rho_theta_kappa_eos"])
    def test_matches_the_primitive_variable_oracle_stepper(self, request, closure):
        # Lawson RK4 on the spectrum of U - Ubar, U = (rho, u, theta), with
        # the primitive-variable reference right side and the generators M:
        # both steppers are fourth order, and after 200 steps their fields
        # agree to 1e-10 of the perturbation (measured: at most 1.8e-11, and
        # 1.0e-12 at half the step, so the two differ by their O(dt^4) errors)
        eos = request.getfixturevalue(closure)
        ubar = State(1.1, 0.3, 0.9)
        grid = nls.SpectralGrid(n=256, length=50.0)
        dt = 0.02
        f0 = nls.initial_field(grid, ubar, nls.PerturbationSpec(
            amplitude=5e-2, width=4.0, fields=("rho", "u", "theta")))
        stepper = nls.IntegratingFactorRK4(eos, ubar, grid, dt)
        uh = stepper.pack(f0)

        gen = sym.evolution_symbol(sym.equilibrium_coefficients(eos, ubar),
                                   grid.k[:grid.modes])
        e = matrix_exponentials(gen, 0.5 * dt)
        shift = grid.n * np.array([ubar.rho, ubar.u, ubar.theta])

        def apply(m, v):
            return np.einsum("kij,jk->ik", m, v)

        def nonlinear(w):
            fh = w.copy()
            fh[:, 0] += shift
            return primitive_rhs(eos, grid, fh) + apply(gen, w)

        def step(u0):
            n1 = nonlinear(u0)
            v = apply(e, u0)
            n2 = nonlinear(v + 0.5 * dt * apply(e, n1))
            n3 = nonlinear(v + 0.5 * dt * n2)
            n4 = nonlinear(apply(e, v + dt * n3))
            return apply(e, v + dt / 6.0 * apply(e, n1) + dt / 3.0 * (n2 + n3)) + dt / 6.0 * n4

        wh = primitive_spectrum(f0).copy()
        wh[:, 0] -= shift
        for _ in range(200):
            stepper.step(uh)
            wh = step(wh)
        got = unpack(stepper, uh)
        want = np.fft.irfft(wh, n=grid.n)
        for name, ref, c in zip(("rho", "u", "theta"), want,
                                (ubar.rho, ubar.u, ubar.theta)):
            assert np.abs(getattr(got, name) - c - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_mass_and_momentum_modes_zero_change_no_bit(self, ref_eos):
        # the mass and momentum rates are derivatives and the generators
        # vanish at k = 0, where e_half is the identity: the mode-0 sums of
        # rho and rho u stay as packed, bit for bit
        ubar = State(1.1, 0.3, 0.9)
        grid = nls.SpectralGrid(n=128, length=50.0)
        stepper = nls.IntegratingFactorRK4(ref_eos, ubar, grid, 0.02)
        uh = stepper.pack(nls.initial_field(grid, ubar, nls.PerturbationSpec(
            amplitude=5e-2, width=4.0, fields=("rho", "u", "theta"))))
        before = uh[:2, 0].copy()
        assert np.all(before != 0.0)
        for _ in range(100):
            stepper.step(uh)
        assert np.array_equal(uh[:2, 0], before)

    @pytest.mark.parametrize("stage", [2, 3, 4])
    def test_rejected_step_leaves_the_spectrum_unchanged(self, ref_eos, small_grid,
                                                         monkeypatch, stage):
        # a StepRejected raised by the rhs of any stage after the first
        # leaves the stepped spectrum as it was, bit for bit
        stepper = nls.IntegratingFactorRK4(ref_eos, State(1.0, 0.0, 1.0),
                                           small_grid, 0.01)
        uh = stepper.pack(smooth_field(small_grid, amp=0.03))
        stepper.step(uh)                     # the buffers hold a step's values
        before = uh.copy()
        calls = []
        rhs = nls.rhs

        def rejecting(*a, **kw):
            calls.append(1)
            if len(calls) == stage:
                raise nls.StepRejected("rejected at a stage input")
            return rhs(*a, **kw)

        monkeypatch.setattr(nls, "rhs", rejecting)
        with pytest.raises(nls.StepRejected):
            stepper.step(uh)
        assert len(calls) == stage
        assert np.array_equal(uh, before)

    def test_steppers_sharing_a_grid_match_separate_grids(self, ref_eos):
        # interleaved steps of two steppers on one grid (one rhs workspace)
        # give the same fields, bit for bit, as each stepper on its own grid
        ubar = State(1.0, 0.0, 1.0)
        spec = nls.PerturbationSpec(amplitude=5e-2, width=4.0)

        def interleave(grid_a, grid_b):
            steppers = [nls.IntegratingFactorRK4(ref_eos, ubar, grid, dt)
                        for dt, grid in ((0.01, grid_a), (0.005, grid_b))]
            states = [s.pack(nls.initial_field(s.grid, ubar, spec)) for s in steppers]
            for _ in range(5):
                states = [s.step(uh) for s, uh in zip(steppers, states)]
            return [unpack(s, uh) for s, uh in zip(steppers, states)]

        shared = nls.SpectralGrid(n=128, length=50.0)
        together = interleave(shared, shared)
        apart = interleave(nls.SpectralGrid(n=128, length=50.0),
                           nls.SpectralGrid(n=128, length=50.0))
        for f, g in zip(together, apart):
            for name in ("rho", "u", "theta"):
                assert np.array_equal(getattr(f, name), getattr(g, name))

    def test_invalid_inputs(self, ref_eos, small_grid):
        with pytest.raises(ValueError):
            nls.run(ref_eos, State(1.0, 0.0, 1.0), nls.PerturbationSpec(),
                    t_final=1.0, dt=0.0, length=50.0, n=128)
        with pytest.raises(ValueError, match="sample_every must be >= 1"):
            nls.run(ref_eos, State(1.0, 0.0, 1.0), nls.PerturbationSpec(),
                    t_final=1.0, dt=0.05, length=50.0, n=64, sample_every=0)
        for t_final in (1.03, np.inf):
            with pytest.raises(ValueError, match="must be a whole number of dt steps"):
                nls.run(ref_eos, State(1.0, 0.0, 1.0), nls.PerturbationSpec(),
                        t_final=t_final, dt=0.02, length=50.0, n=64)

    def test_nonpositive_dt_is_rejected(self, ref_eos, small_grid):
        # the stepper takes the same dt that run() does: dt > 0
        for dt in (0.0, -0.1):
            with pytest.raises(ValueError, match="dt must be positive"):
                nls.IntegratingFactorRK4(ref_eos, State(1.0, 0.0, 1.0), small_grid, dt)

    @pytest.mark.parametrize("stepper_type", [nls.IntegratingFactorRK4],
                             ids=["if-rk4"])
    def test_fourth_order_convergence(self, ref_eos, stepper_type):
        # self-convergence: halving dt shrinks the error 16x (within 20%).
        # The pair dt = 0.1, 0.05 keeps both errors above roundoff
        # (measured: 3.13e-10 and 1.85e-11, ratio 16.96, which moves by
        # less than 1e-3 with the reference step or a 5e-16 relative nudge
        # on each entry of e_half; at dt = 0.02, 0.01 the second error is
        # 3.5e-14, at the roundoff floor).  An integrating factor taken at
        # dt instead of dt/2 does not converge, and fails the gate
        ubar = State(1.0, 0.0, 1.0)
        grid = nls.SpectralGrid(n=128, length=50.0)
        f0 = nls.initial_field(grid, ubar,
                               nls.PerturbationSpec(amplitude=5e-2, width=4.0))
        t_final = 0.4

        def integrate(dt, factor_step=0.5):
            stepper = stepper_type(ref_eos, ubar, grid, dt)
            if factor_step != 0.5:
                gen = stepper.generators.transpose(2, 1, 0)
                stepper.e_half = np.ascontiguousarray(
                    matrix_exponentials(gen, factor_step * dt).transpose(2, 1, 0))
            uh = stepper.pack(f0)
            for _ in range(int(round(t_final / dt))):
                uh = stepper.step(uh)
            f = unpack(stepper, uh)
            return np.concatenate([f.rho, f.u, f.theta])

        ref = integrate(0.0004)

        def ratio(**kw):
            err1 = np.abs(integrate(0.1, **kw) - ref).max()
            err2 = np.abs(integrate(0.05, **kw) - ref).max()
            return err1 / err2

        def in_gate(r):
            return 16.0 * 0.8 <= r <= 16.0 * 1.25

        assert in_gate(ratio())
        assert not in_gate(ratio(factor_step=1.0))

    def test_four_transforms_per_rhs(self, ref_eos, small_grid, monkeypatch):
        # the step keeps the spectrum: its only transforms are the four
        # batched ones of each of its four rhs calls, the admissibility
        # check of its input included.  They carry 12 rows: 7 fields and
        # gradients to the grid (not theta_x: the heat flux of a constant
        # alpha is differentiated per mode), the momentum and energy fluxes
        # forward (the mass rate -ik m needs no transform), their 2 rates
        # back and theta_t forward; an rhs that takes a sample's pass
        # transforms 5
        ubar = State(1.0, 0.0, 1.0)
        stepper = nls.IntegratingFactorRK4(ref_eos, ubar, small_grid, 0.01)
        uh = stepper.pack(smooth_field(small_grid, amp=0.03))
        calls, rows = [], []
        for ns, name in ((np.fft, "rfft"), (np.fft, "irfft"), (nls, "rhs")):
            fn = getattr(ns, name)

            def counted(a, *args, _fn=fn, _name=name, **kw):
                calls.append(_name)
                if _name != "rhs":
                    rows.append(1 if np.ndim(a) == 1 else len(a))
                return _fn(a, *args, **kw)

            monkeypatch.setattr(ns, name, counted)
        stepper.step(uh)
        assert calls == ["rhs", "irfft", "rfft", "irfft", "rfft"] * 4
        assert rows == [7, 2, 2, 1] * 4

        fh = field_spectrum(stepper, uh)
        nls._sample(ref_eos, ubar, small_grid, fh)
        calls.clear()
        rows.clear()
        compared = []
        array_equal = np.array_equal
        monkeypatch.setattr(np, "array_equal",
                            lambda *a: compared.append(1) or array_equal(*a))
        nls.rhs(ref_eos, small_grid, fh)
        assert calls == ["rhs", "rfft", "irfft", "rfft"]
        assert rows == [2, 2, 1]
        assert len(compared) == 1

    @pytest.mark.parametrize("closure", ["sqrt_kappa_eos", "sqrt_alpha_eos"])
    def test_theta_x_is_transformed_where_the_grid_reads_it(self, request, closure,
                                                            small_grid, monkeypatch):
        # a closure whose kappa_theta is not 0.0 reads theta_x in g2, and
        # one whose alpha varies adds the heat flux alpha theta_x on the
        # grid: each own pass takes theta_x to the grid by one more irfft
        # of 1 row, 7 + 1 rows in all, once per rhs.  The sample's grid pass
        # holds theta_x, so the rhs that takes it transforms 5 rows
        eos = request.getfixturevalue(closure)
        ubar = State(1.0, 0.0, 1.0)
        stepper = nls.IntegratingFactorRK4(eos, ubar, small_grid, 0.01)
        uh = stepper.pack(smooth_field(small_grid, amp=0.03))
        calls, rows = [], []
        for ns, name in ((np.fft, "rfft"), (np.fft, "irfft"), (nls, "rhs")):
            fn = getattr(ns, name)

            def counted(a, *args, _fn=fn, _name=name, **kw):
                calls.append(_name)
                if _name != "rhs":
                    rows.append(1 if np.ndim(a) == 1 else len(a))
                return _fn(a, *args, **kw)

            monkeypatch.setattr(ns, name, counted)
        stepper.step(uh)
        assert calls == ["rhs", "irfft", "irfft", "rfft", "irfft", "rfft"] * 4
        assert rows == [7, 1, 2, 2, 1] * 4

        nls._sample(eos, ubar, small_grid, field_spectrum(stepper, uh))
        assert rows[-1] == 8
        calls.clear()
        rows.clear()
        nls.rhs(eos, small_grid, field_spectrum(stepper, uh))
        assert calls == ["rhs", "rfft", "irfft", "rfft"]
        assert rows == [2, 2, 1]

    def test_only_the_pass_of_the_stage_input_is_taken(self, ref_eos, small_grid,
                                                       monkeypatch):
        # a sample leaves its closure pass in the grid's workspace, and
        # stage 1 takes it only while it is the pass of the stage input:
        # after a sample of another spectrum, or after an rhs in between,
        # the step makes its own grid pass (8 irffts, not 7) and gives the
        # same spectrum, bit for bit
        ubar = State(1.0, 0.0, 1.0)
        stepper = nls.IntegratingFactorRK4(ref_eos, ubar, small_grid, 0.01)
        ua = stepper.pack(smooth_field(small_grid, amp=0.03))
        ub = stepper.pack(smooth_field(small_grid, amp=0.05))
        fa = field_spectrum(stepper, ua)
        calls = []
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft",
                            lambda *a, **kw: calls.append(1) or irfft(*a, **kw))

        def sample(uh):
            nls._sample(ref_eos, ubar, small_grid, field_spectrum(stepper, uh))

        def irffts_of_a_step(uh):
            calls.clear()
            assert np.array_equal(stepper.step(uh.copy()), want)
            return len(calls)

        want = stepper.step(ub.copy())
        sample(ua)                                 # another spectrum
        assert irffts_of_a_step(ub) == 8
        sample(ub)                                 # an rhs in between clears it
        nls.rhs(ref_eos, small_grid, fa)
        assert small_grid.workspace.tensors is None
        assert irffts_of_a_step(ub) == 8
        sample(ub)                                 # the pass of the stage input
        assert irffts_of_a_step(ub) == 7

    def test_a_pass_is_cleared_by_the_next_grid_pass(self, ref_eos, small_grid):
        # a sample's pass is taken by an rhs of its spectrum only: an rhs of
        # another field in between makes a grid pass of its own and clears
        # it, so that field's rates never read the sample's closure pass
        g = small_grid
        fa, fb = (spectrum(smooth_field(g, amp=a)) for a in (0.03, 0.05))
        want = nls.rhs(ref_eos, nls.SpectralGrid(n=g.n, length=g.length), fa)
        nls._sample(ref_eos, State(1.0, 0.0, 1.0), g, fb)
        assert g.workspace.tensors is not None
        assert np.array_equal(nls.rhs(ref_eos, g, fa), want)
        assert g.workspace.tensors is None
        assert np.array_equal(nls.rhs(ref_eos, g, fa), want)

    @pytest.mark.parametrize("closure", ["ref_eos", "sqrt_kappa_eos", "sqrt_alpha_eos"])
    def test_a_taken_pass_is_left_as_it_was(self, request, closure, small_grid):
        # the rhs that takes a sample's pass writes none of its arrays, nor
        # the grid pass beside it, and gives the rates of its own passes;
        # the workspace lets the pass go
        eos = request.getfixturevalue(closure)
        g = small_grid
        fh = spectrum(smooth_field(g, amp=0.1))
        nls._sample(eos, State(1.0, 0.1, 1.0), g, fh)
        ws = g.workspace
        taken = ws.tensors
        kept, grid_rows = copy.deepcopy(taken), ws.grad.copy()
        rates = nls.rhs(eos, g, fh)
        assert ws.tensors is None
        for x, y in zip(entries(taken), entries(kept), strict=True):
            assert np.array_equal(x, y)
        assert np.array_equal(ws.grad, grid_rows)
        assert np.array_equal(rates, nls.rhs(eos, nls.SpectralGrid(n=g.n, length=g.length),
                                             fh))

    def test_transforms_of_a_run_sampled_every_step(self, ref_eos, monkeypatch):
        # one rfft packs the initial field, each of the k + 1 samples makes
        # one irfft, and each of the k steps takes the pass of the sample
        # before it: 15 transforms instead of 16, and 4k + 1 fluxes, one per
        # state evaluated
        calls, fluxes = [], []
        for name in ("rfft", "irfft"):
            fn = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda *a, _fn=fn, **kw:
                                calls.append(1) or _fn(*a, **kw))
        flux = sym._total_flux
        monkeypatch.setattr(sym, "_total_flux",
                            lambda *a, **kw: fluxes.append(1) or flux(*a, **kw))
        k = 6
        led = nls.run(ref_eos, State(1.0, 0.0, 1.0),
                      nls.PerturbationSpec(amplitude=1e-2, width=4.0),
                      t_final=k * 0.05, dt=0.05, length=50.0, n=128, sample_every=1)
        assert led.aborted is None and led.t.size == k + 1
        assert len(calls) == 15 * k + k + 2
        assert len(fluxes) == 4 * k + 1

    @pytest.mark.parametrize("sample_every", [1, 2, 3])
    def test_one_comparison_per_sampled_step(self, ref_eos, monkeypatch,
                                             sample_every):
        # stage 1 of the step after a sample compares its input with the
        # sample's spectrum and takes the pass; the pass is then gone, so
        # stages 2-4, and the steps between samples, compare nothing
        compared = []
        array_equal = np.array_equal
        monkeypatch.setattr(np, "array_equal",
                            lambda *a: compared.append(array_equal(*a)) or compared[-1])
        k = 6
        led = nls.run(ref_eos, State(1.0, 0.0, 1.0),
                      nls.PerturbationSpec(amplitude=1e-2, width=4.0),
                      t_final=k * 0.05, dt=0.05, length=50.0, n=128,
                      sample_every=sample_every)
        assert led.aborted is None and led.t.size == k // sample_every + 1
        assert compared == [True] * (k // sample_every)

    def test_step_allocates_no_more_than_one_rhs(self, ref_eos):
        # tracemalloc counts the bytes numpy requests, whatever the allocator
        # and the environment do with them: rhs writes its closure pass,
        # flux and theta_t to the grid's workspace, and a step writes its
        # stages into the stepper's buffers, so beyond one rhs (the
        # closure's p and e and the transforms' own buffers) it may hold at
        # most two (3, n//3 + 1) spectra
        ubar = State(1.0, 0.0, 1.0)
        grid = nls.SpectralGrid(n=1024, length=100.0)
        f = nls.initial_field(grid, ubar, nls.PerturbationSpec(amplitude=1e-2, width=3.0))
        stepper = nls.IntegratingFactorRK4(ref_eos, ubar, grid, 0.02)
        uh, fh = stepper.pack(f), spectrum(f)

        def peak(call):
            call()                                   # warm-up
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        array = grid.n * np.dtype(float).itemsize
        spectra = 3 * grid.modes * np.dtype(complex).itemsize
        rhs_peak = peak(lambda: nls.rhs(ref_eos, grid, fh))
        assert rhs_peak <= 4 * array             # measured: 2.3 arrays
        assert peak(lambda: stepper.step(uh)) <= rhs_peak + 2 * spectra

    def test_rhs_temporaries_at_the_benchmark_size(self, ref_eos):
        # one warmed rhs at n = 4096, its result included, holds at most 2.5
        # arrays of n floats at once (measured: 2.1): the closure pass, the
        # flux and theta_t are written to the grid's workspace, so only the
        # closure's p and e, the transforms' own buffers and the result are
        # allocated
        ubar = State(1.0, 0.0, 1.0)
        grid = nls.SpectralGrid(n=4096, length=400.0)
        fh = spectrum(nls.initial_field(grid, ubar,
                                        nls.PerturbationSpec(amplitude=1e-2, width=3.0)))
        nls.rhs(ref_eos, grid, fh)               # warm-up: the grid's workspace
        tracemalloc.start()
        try:
            nls.rhs(ref_eos, grid, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * grid.n * np.dtype(float).itemsize


class TestRun:
    @pytest.mark.parametrize("t_final,sample_every", [(0.5, 5), (0.55, 3), (0.0, 4)])
    def test_sample_times_and_wrap_time_match_the_ledger(self, ref_eos, t_final,
                                                         sample_every):
        ubar = State(1.0, 0.0, 1.0)
        led = nls.run(ref_eos, ubar, nls.PerturbationSpec(amplitude=1e-3),
                      t_final=t_final, dt=0.05, length=50.0, n=64,
                      sample_every=sample_every)
        np.testing.assert_array_equal(
            nls.sample_times(t_final, 0.05, sample_every), led.t)
        assert nls.wrap_time(ref_eos, ubar, 50.0) == led.wrap_time

    @pytest.mark.parametrize("closure", ["ref_eos", "sqrt_kappa_eos",
                                         "rho_theta_kappa_eos", "sqrt_alpha_eos"])
    def test_taken_passes_change_no_bit(self, request, closure, monkeypatch):
        # sampled every step, every step takes the sample's pass; sampled at
        # the end only, every step after the first makes its own: the state
        # they end in, and its ledger row, are the same bit for bit.  A taken
        # pass carries the sample's flux, so each state's flux is written
        # once: k steps make 4k + 1 _total_flux calls either way
        eos = request.getfixturevalue(closure)
        calls = []
        flux = sym._total_flux
        monkeypatch.setattr(sym, "_total_flux",
                            lambda *a, **kw: calls.append(1) or flux(*a, **kw))
        rows, k = [], 10
        for sample_every in (1, 10):
            calls.clear()
            led = nls.run(eos, State(1.0, 0.1, 1.0),
                          nls.PerturbationSpec(amplitude=5e-2, width=4.0),
                          t_final=k * 0.02, dt=0.02, length=50.0, n=128,
                          sample_every=sample_every)
            assert led.aborted is None
            assert len(calls) == 4 * k + 1
            rows.append([getattr(led, c)[-1] for c in nls.LEDGER_COLUMNS])
        assert rows[0] == rows[1]

    def test_momentum_column_is_constant(self, ref_eos):
        # the ledger's momentum is the integral of the stepped momentum, whose
        # mode 0 no step changes: the column is constant bit for bit, and it
        # is the initial field's integral of rho u
        ubar = State(1.0, 0.1, 1.0)
        spec = nls.PerturbationSpec(amplitude=5e-2, width=4.0,
                                    fields=("rho", "u", "theta"))
        led = nls.run(ref_eos, ubar, spec, t_final=0.4, dt=0.02, length=50.0, n=128,
                      sample_every=1)
        assert led.aborted is None
        assert np.all(led.momentum == led.momentum[0])
        f = nls.initial_field(nls.SpectralGrid(n=128, length=50.0), ubar, spec)
        want = f.grid.integral(f.rho * f.u)
        assert abs(led.momentum[0] - want) <= 1e-14 * abs(want)

    def test_mass_column_is_constant(self, ref_eos):
        # the ledger's mass is the integral of the stepped density, whose
        # mode 0 no step changes: the column is constant bit for bit, and it
        # is the initial field's integral of rho (the grid sum of the closure
        # pass's rho moved by 1.4e-14 over this run)
        ubar = State(1.1, 0.2, 0.9)
        spec = nls.PerturbationSpec(amplitude=5e-2, width=4.0,
                                    fields=("rho", "u", "theta"))
        led = nls.run(ref_eos, ubar, spec, t_final=0.4, dt=0.02, length=50.0, n=128,
                      sample_every=1)
        assert led.aborted is None
        assert np.all(led.mass == led.mass[0])
        f = nls.initial_field(nls.SpectralGrid(n=128, length=50.0), ubar, spec)
        want = f.grid.integral(f.rho)
        assert abs(led.mass[0] - want) <= 1e-14 * abs(want)

    def test_ledger_fields_follow_the_columns(self):
        names = tuple(f.name for f in dataclasses.fields(nls.DiagnosticsLedger))
        assert names[:len(nls.LEDGER_COLUMNS)] == nls.LEDGER_COLUMNS

    def test_zero_amplitude_trivial(self, ref_eos):
        led = nls.run(ref_eos, State(1.0, 0.0, 1.0),
                      nls.PerturbationSpec(amplitude=0.0),
                      t_final=0.5, dt=0.05, length=50.0, n=128, sample_every=5)
        assert led.aborted is None
        assert np.all(led.norm_u == 0.0)
        assert np.all(led.norm_w == 0.0)
        assert np.all(np.isnan(led.ratio))

    def test_short_run_diagnostics(self, ref_eos):
        led = nls.run(ref_eos, State(1.0, 0.0, 1.0),
                      nls.PerturbationSpec(amplitude=1e-2, width=4.0),
                      t_final=4.0, dt=0.02, length=100.0, n=512, sample_every=20)
        assert led.aborted is None
        assert led.drift(led.mass) <= 1e-12
        assert led.drift(led.momentum) <= 1e-12
        assert led.drift(led.energy) <= 1e-10
        assert led.entropy_steps().min() >= -1e-12
        assert (led.max_n1 / led.nonlinear_scale).max() <= 1e-12
        ratios = led.ratio[np.isfinite(led.ratio)]
        assert np.all((ratios > 0.5) & (ratios < 2.0))
        assert np.all(np.diff(led.t) > 0)

    def test_quadratic_amplitude_response(self, ref_eos):
        # halving the amplitude roughly quarters the nonlinear terms
        def max_n(amp):
            led = nls.run(ref_eos, State(1.0, 0.0, 1.0),
                          nls.PerturbationSpec(amplitude=amp, width=4.0),
                          t_final=1.0, dt=0.02, length=100.0, n=512,
                          sample_every=10)
            return led.max_n.max()

        big, small = max_n(2e-2), max_n(1e-2)
        assert 3.0 <= big / small <= 5.0

    def test_domain_exit_aborts_with_partial_ledger(self, ref_eos):
        # a tall density bump leaves the admissible set inside the 3rd step:
        # the ledger keeps the samples taken before it, at t = 0 and after
        # each earlier step that is a sample step
        for sample_every, rows in ((1, 3), (2, 2), (3, 1)):
            led = nls.run(ref_eos, State(1.0, 0.0, 1.0),
                          nls.PerturbationSpec(amplitude=1.5, width=2.5),
                          t_final=20.0, dt=0.2, length=50.0, n=128,
                          sample_every=sample_every)
            assert led.aborted is not None
            assert "temperature" in led.aborted
            assert led.t.size == rows

    def test_blow_up_is_rejected_before_the_closure_reads_it(self, ref_eos):
        # a deep density well at a long step: the first step leaves the set
        # theta > 0 between two samples; the next step rejects it before its
        # closure takes a log of it, which would warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            led = nls.run(ref_eos, State(1.0, 0.0, 1.0),
                          nls.PerturbationSpec(amplitude=-0.9, width=2.0),
                          t_final=20.0, dt=0.25, length=50.0, n=128,
                          sample_every=50)
        assert led.aborted == "temperature fell below 0.0"
        assert led.t.size == 1

    @pytest.mark.parametrize("dt,aborted", [
        (0.2, "temperature fell below 0.0"),
        (1.0, "density fell below 0.0")], ids=["bump", "bump-long-step"])
    def test_blow_up_inside_a_step_is_rejected_at_a_stage_input(self, ref_eos, dt,
                                                                aborted):
        # a tall density bump leaves the domain inside a step, at one of its
        # RK stage inputs: the stage is rejected before its closure takes a
        # log of it, which would warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            led = nls.run(ref_eos, State(1.0, 0.0, 1.0),
                          nls.PerturbationSpec(amplitude=2.0, width=2.0),
                          t_final=20.0, dt=dt, length=50.0, n=128,
                          sample_every=50)
        assert led.aborted == aborted
        assert led.t.size == 1

    @pytest.mark.parametrize("name,message", [
        ("theta", "temperature fell below 0.0"),
        ("rho", "density fell below 0.0")])
    def test_a_field_outside_the_set_is_rejected_before_the_closure(
            self, ref_eos, small_grid, monkeypatch, name, message):
        # a band-limited field with rho <= 0 or theta <= 0 at one grid point:
        # rhs and step reject it in the grid pass, before the closure reads
        # it (no log of it, so no warning), and the step leaves its spectrum
        # as it was.  1 - c (1 + cos(2 pi (x - x0) / L)) / 2 with c slightly
        # above 1 is below 0 at x0 alone
        g = small_grid
        x0 = g.x[g.n // 2]
        dip = 1.0 - (1.0 + 5e-5) * 0.5 * (1.0 + np.cos(2 * np.pi * (g.x - x0) / g.length))
        assert np.count_nonzero(dip <= 0.0) == 1
        fields = {"rho": np.ones(g.n), "u": np.full(g.n, 0.1), "theta": np.ones(g.n)}
        fields[name] = dip
        f = nls.StateField(g, **fields)
        stepper = nls.IntegratingFactorRK4(ref_eos, State(1.0, 0.0, 1.0), g, 0.01)
        fh, uh = spectrum(f), stepper.pack(f)
        before = uh.copy()
        calls = []
        closure = sym._closure
        monkeypatch.setattr(sym, "_closure",
                            lambda *a, **kw: calls.append(1) or closure(*a, **kw))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for call in (lambda: nls.rhs(ref_eos, g, fh), lambda: stepper.step(uh)):
                with pytest.raises(nls.StepRejected) as exc:
                    call()
                assert str(exc.value) == message
        assert calls == []
        assert np.array_equal(uh, before)

    def test_invalid_initial_field_raises(self, ref_eos):
        with pytest.raises(nls.StepRejected):
            nls.run(ref_eos, State(1.0, 0.0, 1.0),
                    nls.PerturbationSpec(amplitude=-1.5, width=4.0),
                    t_final=1.0, dt=0.05, length=100.0, n=512)

    def test_resolution_self_consistency(self, ref_eos):
        # doubling N changes the final perturbation norm only at roundoff of
        # the spectral tail for smooth data
        norms = []
        for n in (512, 1024):
            led = nls.run(ref_eos, State(1.0, 0.0, 1.0),
                          nls.PerturbationSpec(amplitude=1e-2, width=4.0),
                          t_final=5.0, dt=0.01, length=100.0, n=n,
                          sample_every=100)
            norms.append(led.norm_u[-1])
        assert abs(norms[1] - norms[0]) <= 1e-6 * abs(norms[0])


class TestWDiagnostics:
    def test_w_first_component_matches_density(self, ref_eos, small_grid):
        f = smooth_field(small_grid, amp=0.03)
        diag = nls.w_diagnostics(ref_eos, State(1.0, 0.0, 1.0), small_grid, spectrum(f))
        assert np.abs(diag.w[0] - (f.rho - 1.0)).max() <= 1e-14

    def test_equilibrium_ratio_undefined(self, ref_eos, small_grid):
        f = nls.initial_field(small_grid, State(1.0, 0.0, 1.0),
                              nls.PerturbationSpec(amplitude=0.0))
        diag = nls.w_diagnostics(ref_eos, State(1.0, 0.0, 1.0), small_grid, spectrum(f))
        assert np.isnan(diag.ratio)
        assert diag.norm_w == 0.0

    @pytest.mark.parametrize("closure", ["ref_eos", "sqrt_kappa_eos"])
    def test_result_is_not_aliased_to_the_workspace(self, request, closure, small_grid):
        # the sample reads the field from the grid's transform buffers; what
        # it returns must survive the next rhs on the same grid
        eos = request.getfixturevalue(closure)
        a, b = smooth_field(small_grid, amp=0.1), smooth_field(small_grid, amp=0.03)
        diag = nls.w_diagnostics(eos, State(1.0, 0.1, 1.0), small_grid, spectrum(a))
        kept = copy.deepcopy(diag)
        nls.rhs(eos, small_grid, spectrum(b))
        for name in ("w", "norm_w", "norm_u", "ratio", "max_n1", "max_n",
                     "nonlinear_scale"):
            assert np.array_equal(getattr(diag, name), getattr(kept, name)), name
        for x, y in zip(entries(diag.tensors), entries(kept.tensors), strict=True):
            assert np.array_equal(x, y)


class TestSample:
    @pytest.mark.parametrize("closure", ["ref_eos", "sqrt_kappa_eos"])
    def test_matches_definitional_path(self, request, closure, small_grid):
        # the ten ledger values of one sample, rebuilt term by term from the
        # public symbol functions
        eos = request.getfixturevalue(closure)
        g = small_grid
        ubar = State(1.1, 0.2, 0.9)
        rng = np.random.default_rng(7)
        x = 2 * np.pi * g.x / g.length
        fields = [c + sum(0.03 * rng.standard_normal() * np.cos(m * x + rng.uniform(0, 6))
                          for m in range(1, 6))
                  for c in (ubar.rho, ubar.u, ubar.theta)]
        fh = spectrum(nls.StateField(g, *fields))
        got = nls._sample(eos, ubar, g, fh)

        # the rows the sample reads: max_n1 is roundoff, so both paths
        # must start from the same field and gradients
        rho, _, theta, rho_x, _, rho_xx, _, theta_x, u, u_x = nls._grid_pass(
            g, fh, theta_x=True).copy()
        ext = sym.ExtendedState(rho=rho, u=u, theta=theta, rho_x=rho_x, u_x=u_x,
                                theta_x=theta_x, rho_xx=rho_xx)
        eps = eos.epsilon(rho, theta, ext.rho_x)
        w = mv(cx.jac_f0_inv(eos, ubar),
               conserved_quantities(eos, ext) - cx.f0(eos, ubar))
        n_terms = sym.nonlinear_terms(eos, ubar, ext, sym.flux_and_tensors(eos, ext))
        norm_w = triple_norm(g, w[:, 0], w[:, 1], w[:, 2])
        norm_u = triple_norm(g, rho - ubar.rho, u - ubar.u, theta - ubar.theta)
        want = (g.integral(rho), g.integral(rho * u),
                g.integral(rho * (eps + 0.5 * u ** 2)),
                g.integral(rho * eos.s(rho, theta, ext.rho_x)),
                norm_u, norm_w, norm_w / norm_u,
                np.abs(n_terms[0]).max(), np.abs(n_terms).max(),
                max(np.abs(f1(eos, ext)).max(), 1.0))
        assert len(got) == len(want) == 10
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-13 * abs(b)
        # max_n against the matrix form, every matrix rebuilt from the
        # oracles (measured: 3.8e-16 relative here, at most 1.6e-14 over
        # other seeds of this field)
        oracle = np.abs(definitional_nonlinear_terms(eos, ubar, ext)).max()
        assert abs(got[8] - oracle) <= 1e-13 * oracle

    def test_one_transform_per_sample(self, ref_eos, small_grid, monkeypatch):
        # the sample reads the spectrum: the field and its gradients come
        # from rhs's grid pass, one batched irfft, and both triple norms
        # reuse them instead of differentiating again
        fh = spectrum(smooth_field(small_grid, amp=0.03))
        calls = []
        for name in ("rfft", "irfft"):
            fn = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name,
                                lambda *a, _fn=fn, _name=name, **kw:
                                calls.append(_name) or _fn(*a, **kw))
        nls._sample(ref_eos, State(1.0, 0.0, 1.0), small_grid, fh)
        assert calls == ["irfft"]

    @pytest.mark.parametrize("closure", ["ref_eos", "sqrt_kappa_eos"])
    @pytest.mark.parametrize("caller", ["rhs", "_sample", "_sample+rhs"])
    def test_one_closure_pass_per_call(self, request, caller, closure, small_grid,
                                       monkeypatch):
        # one rhs or one sample evaluates every partial of psi and kappa at
        # most once; a sample does it in the single flux_and_tensors pass
        # that w_variables and nonlinear_terms read, and so does a sample
        # with the rhs that takes its pass
        base = request.getfixturevalue(closure)
        calls = Counter()

        def counted(name, fn):
            return lambda *a: calls.update([name]) or fn(*a)

        parts = ("f", "d_r", "d_t", "d_rr", "d_rt", "d_tt")
        eos = dataclasses.replace(base, **{
            coef: Coefficient(*(counted(f"{coef}.{p}", getattr(getattr(base, coef), p))
                                for p in parts))
            for coef in ("psi", "kappa")})
        ubar = State(1.0, 0.1, 1.0)
        fh = spectrum(smooth_field(small_grid, amp=0.03))
        if caller == "rhs":
            evaluate = lambda: nls.rhs(eos, small_grid, fh)         # noqa: E731
        elif caller == "_sample":
            evaluate = lambda: nls._sample(eos, ubar, small_grid, fh)  # noqa: E731
        else:
            def evaluate():
                nls._sample(eos, ubar, small_grid, fh)
                return nls.rhs(eos, small_grid, fh)
        evaluate()        # a sample builds the cached equilibrium terms first
        stages = ("flux_and_tensors", "w_variables", "nonlinear_terms")
        for name in stages:
            monkeypatch.setattr(sym, name, counted(name, getattr(sym, name)))
        calls.clear()
        evaluate()
        assert all(calls[f"{coef}.{p}"] <= 1 for coef in ("psi", "kappa")
                   for p in parts), calls
        assert [calls[name] for name in stages] == ([0, 0, 0] if caller == "rhs"
                                                     else [1, 1, 1])


def array_valued(eos):
    """``eos`` with its constant kappa, mu and alpha returned as arrays of the
    state's shape.

    ``Coefficient.constant`` returns the scalar c and, for each partial, the
    exact scalar 0.0 whose terms ``symbols._closure`` skips; here the value
    and the partials are the arrays c + 0.0 * rho and 0.0 * rho, so the pass
    forms every term.  A coefficient that is not constant (a value that is
    not a Python float) already returns arrays and is kept.
    """
    def as_array(coef):
        def value(v):
            return lambda rho, theta: v + 0.0 * np.asarray(rho, dtype=float)

        if type(coef(1.0, 1.0)) is not float:
            return coef
        return Coefficient(value(coef(1.0, 1.0)), *[value(0.0)] * 5)

    return dataclasses.replace(eos, **{name: as_array(getattr(eos, name))
                                       for name in ("kappa", "mu", "alpha")})


class CountedArray(np.ndarray):
    """An array that counts the ufunc calls made on it and on what they return,
    in place ones included."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        CountedArray.calls += 1
        inputs = [a.view(np.ndarray) if isinstance(a, CountedArray) else a for a in inputs]
        if out is not None:
            kwargs["out"] = tuple(a.view(np.ndarray) if isinstance(a, CountedArray) else a
                                  for a in out)
        result = getattr(ufunc, method)(*inputs, **kwargs)
        return result.view(CountedArray) if isinstance(result, np.ndarray) else result


class TestExactZeroTerms:
    """``symbols._closure`` forms no term whose closure factor is a scalar 0.0."""

    @pytest.fixture(params=["ref_eos", "nsf_eos", "euler", "rho_theta_kappa_eos"])
    def closure(self, request):
        if request.param == "euler":
            return ideal_gas_eos(1.0, 5.0 / 3.0, 0.0, 0.0, 0.0)
        return request.getfixturevalue(request.param)

    def test_skipped_terms_change_no_bit(self, closure, small_grid):
        # the scalar constants (terms skipped) against the same constants as
        # arrays (every term formed): rhs, the closure pass of a sample and
        # 50 IF-RK4 steps agree exactly
        arrays = array_valued(closure)
        f = smooth_field(small_grid, amp=0.1)
        fh = spectrum(f)
        assert np.array_equal(nls.rhs(closure, small_grid, fh),
                              nls.rhs(arrays, small_grid, fh))
        ext = extended(f)
        for a, b in zip(entries(sym.flux_and_tensors(closure, ext)),
                        entries(sym.flux_and_tensors(arrays, ext)), strict=True):
            assert np.array_equal(*np.broadcast_arrays(a, b))

        ubar = State(1.0, 0.1, 1.0)
        grid = nls.SpectralGrid(n=128, length=50.0)
        f0 = nls.initial_field(grid, ubar, nls.PerturbationSpec(amplitude=5e-2, width=4.0))
        states = []
        for eos in (closure, arrays):
            stepper = nls.IntegratingFactorRK4(eos, ubar, grid, 0.02)
            uh = stepper.pack(f0)
            for _ in range(50):
                stepper.step(uh)
            states.append(uh)
        assert np.array_equal(*states)

    def test_reference_closure_array_operations(self, ref_eos, rng, monkeypatch):
        # the reference closure's constant kappa has four zero partials and
        # the value 1.0, a factor that is left out, so g2 is 0.0 and
        # b31 = 2 rho rho_x is k rho_x; its closed-form e_rho = 0.0 drops
        # the e_rho term of a31, and its closed-form p and e take three
        # products: the pass makes 14 ufunc calls on the state's arrays,
        # in place ones included.  The EquationOfState methods convert
        # their arguments with np.asarray, which would drop the count's
        # subclass, so asanyarray stands in for it here
        monkeypatch.setattr(np, "asarray", np.asanyarray)
        rho, u, theta, rho_x, u_x, theta_x = (rng.uniform(0.5, 1.5, 64).view(CountedArray)
                                              for _ in range(6))
        CountedArray.calls = 0
        c = sym._closure(ref_eos, rho, u, theta, rho_x, u_x, theta_x)
        assert isinstance(c.p, CountedArray)
        assert c.g2 == 0.0
        assert CountedArray.calls <= 14


def triple_norm(grid, v1, v2, v3):
    """The anisotropic ledger norm with its own spectral derivative of v1."""
    v1x = deriv(grid, v1)
    return float(np.sqrt(grid.integral(v1 ** 2 + v1x ** 2 + v2 ** 2 + v3 ** 2)))


class TestPerturbations:
    def test_wave_packet(self, small_grid):
        spec = nls.PerturbationSpec(shape="wave_packet", amplitude=0.01,
                                    width=5.0, wavenumber=2.0)
        prof = spec.profile(small_grid.x, small_grid.length)
        assert np.abs(prof).max() <= 0.01 + 1e-12
        assert prof.min() < 0  # oscillatory carrier

    def test_unknown_shape(self, small_grid):
        with pytest.raises(ValueError):
            nls.PerturbationSpec(shape="square").profile(small_grid.x, 50.0)

    def test_field_selection(self, small_grid):
        spec = nls.PerturbationSpec(amplitude=0.01, width=5.0,
                                    fields=("u", "theta"))
        f = nls.initial_field(small_grid, State(1.0, 0.0, 1.0), spec)
        assert np.all(f.rho == 1.0)
        assert f.u.max() > 0
        assert f.theta.max() > 1.0
