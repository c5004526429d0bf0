import dataclasses
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from nsfk import convex_extension as cx
from nsfk import nonlinear_solver as nls
from nsfk import symbols as sym
from nsfk.thermo import Coefficient, State, ideal_gas_eos
from oracles import (capillarity_matrix, conserved_quantities, d_ux_F0, f1, grad,
                     grad2, korteweg_entries, spectrum, state_of, total_flux)


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


def masked_rhs(eos, grid, fh):
    """Reference right side on all n//2 + 1 rfft bins, the 2/3 rule as a mask.

    The same arithmetic as ``nls.rhs``, but on full-width spectra that carry
    the removed modes as zeros, and with the flux and the Jacobian entries
    from the oracles instead of the closure pass; ``fh`` is the masked rfft
    of the field.
    """
    ik = grid.ik
    mask = np.arange(grid.n // 2 + 1) <= grid.n // 3
    rho_xh = ik * fh[0]
    rho, u, theta, rho_x, rho_xx, u_x, theta_x = np.fft.irfft(
        np.stack([fh[0], fh[1], fh[2], rho_xh, ik * rho_xh, ik * fh[1], ik * fh[2]]),
        n=grid.n)
    flux = total_flux(eos, rho, u, theta, rho_x, rho_xx, u_x, theta_x)
    rh = np.fft.rfft(np.stack(flux)) * (ik * mask)
    rho_t, rho_xt, r2, r3 = np.fft.irfft(np.stack([rh[0], ik * rh[0], rh[1], rh[2]]),
                                         n=grid.n)
    u_t = (r2 - u * rho_t) / rho
    a31 = (eos.epsilon(rho, theta, rho_x) + 0.5 * u ** 2
           + rho * eos.epsilon_rho(rho, theta, rho_x))
    a33 = rho * eos.epsilon_theta(rho, theta, rho_x)
    theta_t = (r3 - 2.0 * rho * eos.grad_energy(rho, theta) * rho_x * rho_xt
               - a31 * rho_t - rho * u * u_t) / a33
    return np.concatenate([rh[:1], np.fft.rfft(np.stack([u_t, theta_t])) * mask])


def physical_rates(eos, f):
    """(rho_t, u_t, theta_t) on the grid from the spectral right side."""
    return np.fft.irfft(nls.rhs(eos, f.grid, spectrum(f)), n=f.grid.n)


class TestGrid:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            nls.SpectralGrid(n=300, length=10.0)

    def test_spectral_derivative_exact_for_modes(self, small_grid):
        x = small_grid.x
        k = 2 * np.pi * 3 / small_grid.length
        f = np.sin(k * x)
        assert np.abs(small_grid.deriv(f) - k * np.cos(k * x)).max() <= 1e-10
        assert np.abs(small_grid.deriv(f, 2) + k ** 2 * f).max() <= 1e-9

    def test_integral_of_derivative_vanishes(self, small_grid):
        f = np.exp(np.sin(2 * np.pi * small_grid.x / small_grid.length))
        assert abs(small_grid.integral(small_grid.deriv(f))) <= 1e-13

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

    @pytest.mark.parametrize("closure", ["ref_eos", "sqrt_kappa_eos"])
    def test_rates_vanish_above_the_cutoff(self, request, closure, small_grid):
        eos = request.getfixturevalue(closure)
        # rhs keeps only the modes m <= n/3; padded with zeros they equal,
        # bit for bit, the full-width right side with the 2/3 rule as a mask
        g = small_grid
        f = smooth_field(g, amp=0.1)
        rates = nls.rhs(eos, g, spectrum(f))
        assert rates.shape == (3, g.n // 3 + 1)
        assert np.all(np.any(rates != 0.0, axis=1))
        mask = np.arange(g.n // 2 + 1) <= g.n // 3
        full = masked_rhs(eos, g, np.fft.rfft(np.stack([f.rho, f.u, f.theta])) * mask)
        assert np.all(full[:, ~mask] == 0.0)
        padded = np.zeros_like(full)
        padded[:, mask] = rates
        assert np.array_equal(padded, full)

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

    @pytest.mark.parametrize("closure", ["ref_eos", "sqrt_kappa_eos"])
    def test_matches_tensor_form(self, request, closure, small_grid):
        # jac_f0(U, rho_x) U_t + d_ux_F0 (U_t)_x = dx[-F1 + G U_x + H U_xx + g~]
        eos = request.getfixturevalue(closure)
        g = small_grid
        f = smooth_field(g, amp=0.1)
        rates = np.stack(physical_rates(eos, f), axis=-1)
        rates_x = np.stack([g.deriv(r) for r in rates.T], axis=-1)
        ext = f.extended()
        lhs = (cx.mv(cx.jac_f0(eos, state_of(ext)), rates)
               + cx.mv(d_ux_F0(eos, ext), rates_x))
        g2, g3 = korteweg_entries(eos, ext.rho, ext.u, ext.theta, ext.rho_x,
                                  ext.u_x, ext.theta_x)
        flux = (-f1(eos, ext) + cx.mv(cx.visc_matrix(eos, state_of(ext)), grad(ext))
                + cx.mv(capillarity_matrix(eos, state_of(ext)), grad2(ext))
                + cx.vec3([0.0, g2, g3]))
        div = np.stack([g.deriv(flux[:, i], dealias=True) for i in range(3)], axis=-1)
        assert np.abs(lhs - div).max() <= 1e-12 * np.abs(div).max()

    @pytest.mark.parametrize("closure", ["ref_eos", "sqrt_kappa_eos"])
    def test_linearisation_is_minus_evolution_symbol(self, request, closure,
                                                     small_grid):
        # the identity behind IntegratingFactorRK4's integrating factor:
        # rhs(Ubar + delta cos(k x) e_j) has Fourier coefficient -M(i k) e_j
        eos = request.getfixturevalue(closure)
        g = small_grid
        ubar = State(1.0, 0.3, 1.2)
        coeffs = sym.equilibrium_coefficients(eos, ubar)
        delta = 1e-7
        for m in (1, 5, 40):
            M = sym.evolution_symbol(coeffs, g.k[m])
            for j in range(3):
                fields = [np.full(g.n, v) for v in (ubar.rho, ubar.u, ubar.theta)]
                fields[j] = fields[j] + delta * np.cos(g.k[m] * g.x)
                rates = nls.rhs(eos, g, spectrum(nls.StateField(g, *fields)))
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
        out = stepper.unpack(uh)
        assert np.abs(out.rho - 1.0).max() <= 1e-14
        assert np.abs(out.u).max() <= 1e-14
        assert np.abs(out.theta - 1.0).max() <= 1e-14

    def test_integrating_factors_cover_the_retained_modes(self, ref_eos, small_grid):
        stepper = nls.IntegratingFactorRK4(ref_eos, State(1.0, 0.0, 1.0),
                                           small_grid, 1e-3)
        for name in ("generators", "e_full", "e_half"):
            assert getattr(stepper, name).shape == (3, 3, small_grid.n // 3 + 1)

    def test_buffered_step_matches_the_allocating_formula(self, ref_eos):
        # the Lawson RK4 step written with fresh arrays and (3, 3, K)
        # products: the buffered step sums in the same order, so it gives
        # the same spectrum, bit for bit
        ubar = State(1.0, 0.0, 1.0)
        grid = nls.SpectralGrid(n=128, length=50.0)
        stepper = nls.IntegratingFactorRK4(ref_eos, ubar, grid, 0.02)
        gen, e1, e2 = (a.transpose(1, 0, 2) for a in (stepper.generators,
                                                      stepper.e_full, stepper.e_half))

        def apply(e, v):
            return (e * v).sum(axis=1)

        def nonlinear(uh):
            fh = uh.copy()
            fh[:, 0] += grid.n * np.array([ubar.rho, ubar.u, ubar.theta])
            return nls.rhs(ref_eos, grid, fh) + apply(gen, uh)

        def step(u0, dt=stepper.dt):
            e1u0, v = apply(e1, u0), apply(e2, u0)
            n1 = nonlinear(u0)
            n2 = nonlinear(v + 0.5 * dt * apply(e2, n1))
            n3 = nonlinear(v + 0.5 * dt * n2)
            n4 = nonlinear(e1u0 + dt * apply(e2, n3))
            return e1u0 + (dt / 6.0) * (apply(e1, n1) + 2.0 * apply(e2, n2 + n3) + n4)

        want = got = stepper.pack(nls.initial_field(
            grid, ubar, nls.PerturbationSpec(amplitude=5e-2, width=4.0)))
        for _ in range(5):
            want, got = step(want), stepper.step(got.copy())
        assert np.array_equal(got, want)

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
            return [s.unpack(uh) for s, uh in zip(steppers, states)]

        shared = nls.SpectralGrid(n=128, length=50.0)
        together = interleave(shared, shared)
        apart = interleave(nls.SpectralGrid(n=128, length=50.0),
                           nls.SpectralGrid(n=128, length=50.0))
        for f, g in zip(together, apart):
            for name in ("rho", "u", "theta"):
                assert np.array_equal(getattr(f, name), getattr(g, name))

    def test_invalid_inputs(self, ref_eos, small_grid):
        with pytest.raises(ValueError):
            nls.IntegratingFactorRK4(ref_eos, State(1.0, 0.0, 1.0), small_grid, -0.1)
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

    @pytest.mark.parametrize("stepper_type", [nls.IntegratingFactorRK4],
                             ids=["if-rk4"])
    def test_zero_dt_is_identity(self, ref_eos, small_grid, stepper_type):
        f = smooth_field(small_grid, amp=0.02)
        stepper = stepper_type(ref_eos, State(1.0, 0.0, 1.0), small_grid, 0.0)
        uh = stepper.pack(f)
        f = stepper.unpack(uh)                  # the field the spectrum holds
        out = stepper.unpack(stepper.step(uh))
        assert np.all(out.rho == f.rho)
        assert np.all(out.u == f.u)
        assert np.all(out.theta == f.theta)

    @pytest.mark.parametrize("stepper_type", [nls.IntegratingFactorRK4],
                             ids=["if-rk4"])
    def test_fourth_order_convergence(self, ref_eos, stepper_type):
        # self-convergence: halving dt shrinks the error 16x (within 20%)
        ubar = State(1.0, 0.0, 1.0)
        grid = nls.SpectralGrid(n=128, length=50.0)
        f0 = nls.initial_field(grid, ubar,
                               nls.PerturbationSpec(amplitude=5e-2, width=4.0))
        t_final = 0.4

        def integrate(dt):
            stepper = stepper_type(ref_eos, ubar, grid, dt)
            uh = stepper.pack(f0)
            for _ in range(int(round(t_final / dt))):
                uh = stepper.step(uh)
            f = stepper.unpack(uh)
            return np.concatenate([f.rho, f.u, f.theta])

        ref = integrate(0.0004)
        err1 = np.abs(integrate(0.02) - ref).max()
        err2 = np.abs(integrate(0.01) - ref).max()
        ratio = err1 / err2
        assert 16.0 * 0.8 <= ratio <= 16.0 * 1.25

    def test_four_transforms_per_rhs(self, ref_eos, small_grid, monkeypatch):
        # the step keeps the spectrum: its only transforms are the four
        # batched ones of each of its four rhs calls, the admissibility
        # check of its input included
        stepper = nls.IntegratingFactorRK4(ref_eos, State(1.0, 0.0, 1.0),
                                           small_grid, 0.01)
        uh = stepper.pack(smooth_field(small_grid, amp=0.03))
        calls = []
        for ns, name in ((np.fft, "rfft"), (np.fft, "irfft"), (nls, "rhs")):
            fn = getattr(ns, name)
            monkeypatch.setattr(ns, name,
                                lambda *a, _fn=fn, _name=name, **kw:
                                calls.append(_name) or _fn(*a, **kw))
        stepper.step(uh)
        assert calls == ["rhs", "irfft", "rfft", "irfft", "rfft"] * 4

    def test_step_allocates_no_more_than_one_rhs(self, ref_eos):
        # tracemalloc counts the bytes numpy requests, whatever the allocator
        # and the environment do with them: a step writes its stages into
        # the stepper's buffers, so beyond one rhs (the closure's elementwise
        # temporaries) it may hold at most two (3, n//3 + 1) spectra
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
        assert rhs_peak <= 14 * array            # measured: 12.3 arrays
        assert peak(lambda: stepper.step(uh)) <= rhs_peak + 2 * spectra


class TestRun:
    @pytest.mark.parametrize("t_final,sample_every", [(0.5, 5), (0.55, 3), (0.0, 4)])
    def test_sample_times_and_wrap_time_match_the_ledger(self, ref_eos, t_final,
                                                         sample_every):
        ubar = State(1.0, 0.0, 1.0)
        led = nls.run(ref_eos, ubar, nls.PerturbationSpec(amplitude=1e-3),
                      t_final=t_final, dt=0.05, length=50.0, n=64,
                      sample_every=sample_every)
        np.testing.assert_array_equal(
            nls.sample_times(t_final, 0.05, sample_every), led.times)
        assert nls.wrap_time(ref_eos, ubar, 50.0) == led.wrap_time

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
        assert np.all(np.diff(led.times) > 0)

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
        # density-only bump: the temperature ripple that develops within a few
        # steps crosses a bound placed just below the initial constant value;
        # the 8th step leaves the domain, between two samples or at one
        for sample_every, rows in ((10, 1), (3, 3), (2, 4)):
            led = nls.run(ref_eos, State(1.0, 0.0, 1.0),
                          nls.PerturbationSpec(amplitude=1e-2, width=4.0),
                          t_final=5.0, dt=0.05, length=100.0, n=512,
                          sample_every=sample_every, theta_min=1.0 - 1e-4)
            assert led.aborted is not None
            assert "temperature" in led.aborted
            assert led.times.size == rows

    def test_blow_up_is_rejected_before_the_closure_reads_it(self, ref_eos):
        # a deep density well at a long step: the first step leaves theta > 0
        # between two samples; the next step rejects it before its closure
        # takes a log of it, which would warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            led = nls.run(ref_eos, State(1.0, 0.0, 1.0),
                          nls.PerturbationSpec(amplitude=-0.9, width=2.0),
                          t_final=20.0, dt=0.2, length=50.0, n=128,
                          sample_every=50, rho_min=0.0, theta_min=0.0)
        assert led.aborted == "temperature fell below 0.0"
        assert led.times.size == 1

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
                          sample_every=50, rho_min=0.0, theta_min=0.0)
        assert led.aborted == aborted
        assert led.times.size == 1

    def test_invalid_initial_field_raises(self, ref_eos):
        with pytest.raises(nls.StepRejected):
            nls.run(ref_eos, State(1.0, 0.0, 1.0),
                    nls.PerturbationSpec(amplitude=-0.5, width=4.0),
                    t_final=1.0, dt=0.05, length=100.0, n=512, rho_min=0.9)

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
        diag = nls.w_diagnostics(ref_eos, State(1.0, 0.0, 1.0), f)
        assert np.abs(diag.w[0] - (f.rho - 1.0)).max() <= 1e-14

    def test_equilibrium_ratio_undefined(self, ref_eos, small_grid):
        f = nls.initial_field(small_grid, State(1.0, 0.0, 1.0),
                              nls.PerturbationSpec(amplitude=0.0))
        diag = nls.w_diagnostics(ref_eos, State(1.0, 0.0, 1.0), f)
        assert diag.ratio is None
        assert diag.norm_w == 0.0


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
        f = nls.StateField(g, *fields)
        got = nls._sample(eos, ubar, f)

        ext = f.extended()
        rho, u, theta = f.rho, f.u, f.theta
        eps = eos.epsilon(rho, theta, ext.rho_x)
        w = cx.mv(cx.jac_f0_inv(eos, ubar),
                  conserved_quantities(eos, ext) - cx.f0(eos, ubar))
        n_terms = sym.nonlinear_terms(eos, ubar, ext, sym.flux_and_tensors(eos, ext))
        norm_w = triple_norm(g, w[:, 0], w[:, 1], w[:, 2])
        norm_u = triple_norm(g, rho - ubar.rho, u - ubar.u, theta - ubar.theta)
        want = (g.integral(rho), g.integral(rho * u),
                g.integral(rho * (eps + 0.5 * u ** 2)),
                g.integral(rho * eos.s(rho, theta, ext.rho_x)),
                norm_u, norm_w, norm_w / norm_u,
                np.abs(n_terms[:, 0]).max(), np.abs(n_terms).max(),
                max(np.abs(f1(eos, ext)).max(), 1.0))
        assert len(got) == len(want) == 10
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-13 * abs(b)

    def test_two_transforms_per_sample(self, ref_eos, small_grid, monkeypatch):
        # the gradients come from one batched rfft/irfft pair; both triple
        # norms reuse them instead of differentiating again
        calls = []
        for name in ("rfft", "irfft"):
            fn = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name,
                                lambda *a, _fn=fn, _name=name, **kw:
                                calls.append(_name) or _fn(*a, **kw))
        nls._sample(ref_eos, State(1.0, 0.0, 1.0), smooth_field(small_grid, amp=0.03))
        assert sorted(calls) == ["irfft", "rfft"]

    @pytest.mark.parametrize("closure", ["ref_eos", "sqrt_kappa_eos"])
    @pytest.mark.parametrize("caller", ["rhs", "_sample"])
    def test_one_closure_pass_per_call(self, request, caller, closure, small_grid,
                                       monkeypatch):
        # one rhs or one sample evaluates every partial of psi and kappa at
        # most once; a sample does it in the single flux_and_tensors pass
        # that w_variables and nonlinear_terms read
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
        f = smooth_field(small_grid, amp=0.03)
        if caller == "rhs":
            fh = spectrum(f)
            evaluate = lambda: nls.rhs(eos, small_grid, fh)         # noqa: E731
        else:
            evaluate = lambda: nls._sample(eos, ubar, f)            # noqa: E731
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
    """``eos`` with kappa, mu and alpha returned as arrays of the state's shape.

    Each of these coefficients is constant.  ``Coefficient.constant``
    returns the scalar c and, for each partial, the exact scalar 0.0 whose
    terms ``symbols._closure`` skips; here the value and the partials are
    the arrays c + 0.0 * rho and 0.0 * rho, so the pass forms every term.
    """
    def as_array(coef):
        def value(v):
            return lambda rho, theta: v + 0.0 * np.asarray(rho, dtype=float)

        return Coefficient(value(float(coef(1.0, 1.0))), *[value(0.0)] * 5)

    return dataclasses.replace(eos, **{name: as_array(getattr(eos, name))
                                       for name in ("kappa", "mu", "alpha")})


class CountedArray(np.ndarray):
    """An array that counts the ufunc calls made on it and on what they return."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        CountedArray.calls += 1
        inputs = [a.view(np.ndarray) if isinstance(a, CountedArray) else a for a in inputs]
        result = getattr(ufunc, method)(*inputs, **kwargs)
        return result.view(CountedArray) if isinstance(result, np.ndarray) else result


class TestExactZeroTerms:
    """``symbols._closure`` forms no term whose closure factor is a scalar 0.0."""

    @pytest.fixture(params=["ref_eos", "nsf_eos", "euler"])
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
        ext = f.extended()
        for a, b in zip(sym.flux_and_tensors(closure, ext),
                        sym.flux_and_tensors(arrays, ext)):
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

    def test_reference_closure_array_operations(self, ref_eos, rng):
        # the reference closure's constant kappa has four zero partials: the
        # pass makes 33 ufunc calls on the state's arrays, 53 with its terms
        rho, u, theta, rho_x, u_x, theta_x = (rng.uniform(0.5, 1.5, 64).view(CountedArray)
                                              for _ in range(6))
        CountedArray.calls = 0
        sym._closure(ref_eos, rho, u, theta, rho_x, u_x, theta_x)
        assert CountedArray.calls <= 35


def triple_norm(grid, v1, v2, v3):
    """The anisotropic ledger norm with its own spectral derivative of v1."""
    v1x = grid.deriv(v1)
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
