"""Pseudo-spectral method-of-lines integrator for the full capillary fluid system.

The three conservation laws

    rho_t + (rho u)_x = 0
    (rho u)_t + (rho u^2 + p)_x = (mu u_x + K)_x
    (rho(eps + u^2/2))_t + (rho u (eps + u^2/2) + p u)_x
        = (alpha theta_x + mu u u_x + u K + w)_x

with the capillary stress K and interstitial work flux w are integrated on a
large periodic domain with a localized perturbation of a constant state.  All
spatial derivatives are spectral; every flux is written in divergence form so
the discrete mass, momentum and total-energy integrals are conserved up to
time-integration error.  Products are dealiased with the 2/3 rule.

The time stepper advances only the retained rfft coefficients, bins
0..n//3, of V - Vbar, V = (rho, m, theta) with the momentum m = rho u, a
(3, n//3 + 1) spectrum: the 2/3 rule is a slice of each forward transform, and each
inverse transform pads the spectrum with zeros.  Density and momentum are
two of the conserved quantities, so their rates are the derivatives of the
mass flux -m and of the momentum flux: the mass rate -ik m needs no
transform at all.  Nor, with a conductivity alpha that is constant on the
grid, does the heat flux alpha theta_x, which is linear in theta: its
spectrum alpha ik theta is added to the energy flux's per mode, the second
rate term formed without a transform.  ``run`` transforms the initial
field once and keeps that spectrum from the first step to the last.
``rhs`` maps the spectrum of the field to the spectrum of the rates with
four batched transforms of 12 rows in all (7 fields and gradients back to
the grid, the momentum and energy fluxes forward, their 2 rates back,
theta_t forward), so a step costs 4 transform calls per right-hand-side
evaluation.  The first of them is the grid pass (``_grid_pass``): the
retained spectrum and its ik multiples but theta_x to the grid in one
batched irfft of 7 rows, the check that the field lies in the admissible
set rho > 0, theta > 0, where the closure's logarithms are defined, and
the velocity u = m / rho and its gradient.  theta_x goes to the grid only
where it is read on the grid: for a closure whose kappa_theta is not 0.0
or whose alpha varies, by one more irfft of 1 row, and in a sample.  The
transforms read and write one set of buffers held by the grid
(``SpectralGrid.workspace``), which also holds the last grid pass.  A
diagnostics sample reads the same grid pass of the spectrum the stepper
holds, its theta_x included (one batched irfft of 8 rows and no forward
transform), and leaves its closure pass, the flux included, in the
workspace beside that grid pass: the next step's first ``rhs`` is of the
same spectrum, takes both and transforms 5 rows.  A step that follows a
sample thus makes 15 transform calls, any other step 16.  The closure
pass, the flux and theta_t are formed in place in the same workspace, and
the stepper's stages in buffers it allocates once: with the reference
closure a step allocates only the closure's p and e.

The stepper is an integrating-factor RK4 (Lawson scheme; see
Cox & Matthews, J. Comput. Phys. 176 (2002) and Kassam & Trefethen, SIAM J.
Sci. Comput. 26 (2005) for the exponential-integrator family): the
constant-coefficient linearization is applied exactly per Fourier mode, which
removes the third-order dispersive stiffness (dt ~ dx^3 for explicit
stepping); the symbol M(i k) is taken to V by the constant similarity
T M T^-1, T = dV/dU at the equilibrium.  It keeps one integrating factor,
the half step's exp(-dt/2 T M(i k) T^-1), and applies the full step's as
two half steps, so a step makes 8 per-mode products: 4 with that 3x3
factor, and 4 with rows 1 and 2 of the generators.  The mass rate -ik m is
linear in V, so the nonlinear remainder's row 0 is identically zero, and
neither it nor the generators' row 0 is formed.

theta_t is recovered from the energy rate through the last row of the
(lower-triangular, always invertible) Jacobian of the conserved quantities,
which carries a density-gradient dependence through the non-standard
internal energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import symbols as sym
from .fitting import PowerLawFit, fit_power_law
from .linear_evolution import matrix_exponentials
from .symbols import ExtendedState, equilibrium_coefficients, evolution_symbol
from .thermo import EquationOfState, State

__all__ = [
    "LEDGER_COLUMNS",
    "SpectralGrid",
    "StateField",
    "PerturbationSpec",
    "DiagnosticsLedger",
    "WDiagnostics",
    "StepRejected",
    "rhs",
    "IntegratingFactorRK4",
    "initial_field",
    "run",
    "sample_times",
    "wrap_time",
    "w_diagnostics",
]


LEDGER_COLUMNS = ("t", "mass", "momentum", "energy", "entropy", "norm_u",
                  "norm_w", "ratio", "max_n1", "max_n", "nonlinear_scale")
"""The columns of the diagnostics ledger, in the order of ``ledger.csv``."""


class StepRejected(RuntimeError):
    """A time step produced a field outside the admissible set rho > 0, theta > 0."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _RhsWorkspace:
    """The transform buffers ``rhs`` and the grid pass fill in place on one grid.

    The inverse transforms' inputs ``grad_hat`` and ``rate_hat`` span all
    n//2 + 1 rfft bins, but only the bins m <= n//3 are ever written: their
    zero tails make each irfft read the dealiased spectrum without a padded
    copy.  ``tensors`` is the closure pass of the grid pass the workspace
    holds, when a sample made one (``w_diagnostics``), and None otherwise:
    every grid pass clears it, and so does every ``rhs``, which takes it at
    most once.  ``has_theta_x`` tells whether the grid row theta_x is that
    of the grid pass (see :meth:`theta_x`).  ``rows`` and ``closure`` are
    views of single rows, made once: ``rhs`` unpacks them on every call.
    """

    def __init__(self, n: int):
        bins = n // 2 + 1
        # rfft of (rho, m, theta, rho_x, m_x, rho_xx, m_xx, theta_x), and
        # those fields followed by (u, u_x)
        self.grad_hat = np.zeros((8, bins), dtype=complex)
        self.grad = np.empty((10, n))
        self.has_theta_x = False
        self.rows = tuple(self.grad)
        # rfft of the momentum and energy rates (r2, r3) and the rates
        self.rate_hat = np.zeros((2, bins), dtype=complex)
        self.rate = np.empty((2, n))
        # the three fluxes; row 0 then holds theta_t
        self.flux = np.empty((3, n))
        # the arrays of the closure pass (symbols._closure): its three
        # intermediates take the flux rows and h and w, which only the flux
        # reads, the rate rows, each free until then; energy (which a31 may
        # be), a31, a33 and b31, which theta_t reads, have rows of their own
        energy, a31, a33, b31 = np.empty((4, n))
        self.closure = (*self.flux, energy, *self.rate, a31, a33, b31)
        self.flux_hat = np.empty((2, bins), dtype=complex)
        self.tensors: Optional[sym.FluxTensors] = None

    def theta_x(self) -> np.ndarray:
        """The grid row theta_x of the grid pass, transformed on first use.

        The grid pass of ``rhs`` leaves theta_x in the spectrum: the heat
        flux of a conductivity constant on the grid is differentiated per
        mode, so only a closure whose kappa_theta is not 0.0, or whose
        alpha varies, reads the row, at the cost of one 1-row irfft.
        """
        if not self.has_theta_x:
            np.fft.irfft(self.grad_hat[7], n=self.grad.shape[1], out=self.grad[7])
            self.has_theta_x = True
        return self.grad[7]


@dataclass(frozen=True)
class SpectralGrid:
    """Equispaced periodic grid on [0, L) with rfft workspace.

    ``k`` and ``ik`` are computed on first use and cached read-only; the
    ``workspace`` of ``rhs`` and of the grid pass is created on first use
    and reused.
    """

    n: int
    length: float

    def __post_init__(self):
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError("grid size must be a power of two >= 2")
        if self.length <= 0:
            raise ValueError("domain length must be positive")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * self.dx

    @cached_property
    def k(self) -> np.ndarray:
        """rfft wavenumbers 2 pi m / L, m = 0..n/2."""
        return _read_only(2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.dx))

    @cached_property
    def ik(self) -> np.ndarray:
        """Spectral first derivative i k."""
        return _read_only(1j * self.k)

    @property
    def modes(self) -> int:
        """Number of rfft bins the 2/3 rule retains, m = 0..n//3."""
        return self.n // 3 + 1

    @cached_property
    def workspace(self) -> _RhsWorkspace:
        """Transform buffers that every ``rhs`` and grid pass on this grid reuses."""
        return _RhsWorkspace(self.n)

    def integral(self, f: np.ndarray) -> float:
        """Exact quadrature of a band-limited periodic function."""
        return float(f.sum() * self.dx)


@dataclass
class StateField:
    """Discrete (rho, u, theta) field on a periodic grid."""

    grid: SpectralGrid
    rho: np.ndarray
    u: np.ndarray
    theta: np.ndarray

    def validate(self) -> None:
        """Raise unless each row has shape (n,) and finite values, rho > 0 and
        theta > 0, naming the first condition that fails.

        A wrong shape raises ValueError, anything else StepRejected.
        """
        for name, arr in zip(("rho", "u", "theta"), (self.rho, self.u, self.theta)):
            if arr.shape != (self.grid.n,):
                raise ValueError(f"{name} has wrong shape {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise StepRejected(f"{name} contains non-finite values")
        if np.any(self.rho <= 0.0):
            raise StepRejected("density fell below 0.0")
        if np.any(self.theta <= 0.0):
            raise StepRejected("temperature fell below 0.0")


def _grid_pass(grid: SpectralGrid, fh: np.ndarray,
               theta_x: bool = False) -> np.ndarray:
    """The field of the retained spectrum ``fh`` and its gradients on the grid.

    ``fh`` is the retained (3, n//3 + 1) rfft of (rho, m, theta), m = rho u.
    It and its ik multiples, the spectra of (rho, m, theta, rho_x, m_x,
    rho_xx, m_xx, theta_x), are written to ``grid.workspace``, and all but
    theta_x are taken to the grid in one batched irfft of 7 rows; with
    ``theta_x`` the irfft takes all 8.  The result is the workspace's
    (10, n) block of those rows followed by (u, u_x), which the next grid
    pass or ``rhs`` on this grid overwrites; without ``theta_x`` its row 7
    is not that of ``fh`` until ``workspace.theta_x()`` transforms it.  The
    workspace's closure pass (``tensors``) is cleared.

    Every pass checks the field on the block, before u = m / rho and
    u_x = (m_x - u rho_x) / rho are formed: the sum of its first three rows
    finite, rho > 0 and theta > 0.  When that fails, ``StateField.validate``
    names the condition and raises ``StepRejected`` (a momentum that is not
    finite is named as u).
    """
    m, ws = grid.modes, grid.workspace
    ik = grid.ik[:m]
    ws.tensors = None
    spec = ws.grad_hat
    spec[:3, :m] = fh
    np.multiply(ik, fh[:2], out=spec[3:5, :m])
    np.multiply(ik, spec[3:5, :m], out=spec[5:7, :m])
    np.multiply(ik, fh[2], out=spec[7, :m])
    rows = 8 if theta_x else 7
    np.fft.irfft(spec[:rows], n=grid.n, out=ws.grad[:rows])
    ws.has_theta_x = theta_x
    rho, mom, theta, rho_x, mom_x, _, _, _, u, u_x = ws.rows
    # the sum is finite only if every value is (or it overflows, and then
    # validate finds nothing to reject); rows 0 and 2 are rho and theta
    if not (np.isfinite(ws.grad[:3].sum()) and ws.grad[:3:2].min() > 0.0):
        StateField(grid, rho, mom, theta).validate()
    np.divide(mom, rho, out=u)
    np.subtract(mom_x, np.multiply(u, rho_x, out=u_x), out=u_x)
    u_x /= rho
    return ws.grad


def _uniform(a) -> Optional[float]:
    """``a`` as one float when it is a scalar or an array of equal entries,
    and None when its entries differ."""
    if not isinstance(a, np.ndarray):
        return a
    first = a.flat[0]
    return float(first) if np.all(a == first) else None


def rhs(eos: EquationOfState, grid: SpectralGrid, fh: np.ndarray,
        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Spectrum of the rates (rho_t, m_t, theta_t), m = rho u.

    ``fh`` is the retained (3, n//3 + 1) rfft of (rho, m, theta); the result
    is the retained (3, n//3 + 1) rfft of the rates, written to ``out`` when
    it is given and to a new array otherwise.  An ``out`` of 2 rows takes
    only (m_t, theta_t), the same bit for bit, and the mass rate is not
    formed.  The conservation-law right sides are the spectral derivatives
    of the dealiased flux: ``symbols._total_flux``, which reads the momentum
    m from its grid row, plus the heat flux alpha theta_x.  Two rates are
    formed per mode, without a transform: the mass rate -ik m, exactly, and,
    where alpha is constant on the grid (a scalar, such as
    ``Coefficient.constant`` gives), the heat flux's spectrum alpha ik theta,
    which is added to the energy flux's before its rate.  The momentum rate
    is ik times the momentum flux.  theta_t is recovered from the energy
    rate r3 through the Jacobian of the conserved quantities:

        theta_t = (r3 - b31 rho_xt - a31 rho_t - u (r2 - u rho_t)) / a33,

    with the momentum rate r2, rho_t = -m_x and rho_xt = -m_xx, which are
    exact on the grid.  The closure is evaluated once, in one
    ``symbols._closure`` pass that both the flux and the Jacobian entries
    read, and which writes its arrays to the grid's workspace.  The four
    ``np.fft`` calls are batched: one irfft of 7 rows in ``_grid_pass``
    (rho, m, theta and their gradients but theta_x), one rfft of the
    momentum and energy fluxes, one irfft of their rates (r2, r3) and one
    rfft of theta_t, 12 rows in all.  theta_x is taken to the grid, by one
    more irfft of 1 row, only for a closure whose kappa_theta is not the
    scalar 0.0 or whose alpha varies on the grid: then the heat flux is
    added to the energy flux on the grid.

    The field is checked in the grid pass, right after the first transform
    and before the closure reads it; a field outside the admissible
    set rho > 0, theta > 0 raises ``StepRejected`` (see ``_grid_pass``).
    theta_t is formed in place on the spent rows, and a term whose closure
    entry is the scalar 0.0 (b31 at kappa = 0) is left out.  The
    transforms read and write ``grid.workspace``, so ``rhs`` is not
    re-entrant on one grid: two threads must not evaluate it on the same
    ``SpectralGrid`` at once.  At a constant field the result is
    identically zero.

    When the workspace holds a sample's closure pass (``tensors``, see
    ``w_diagnostics``) and its grid pass is of ``fh``, the call takes that
    grid pass, theta_x included, that closure pass and its flux in place of
    its own: it makes three transform calls of 5 rows instead of four of 12,
    and does not check the field again, which that pass did.  The rates are
    the same bit for bit: a sample's ``symbols.flux_and_tensors`` holds the
    entries and the flux this call forms, and leaves them as they are.  The
    workspace's ``tensors`` is cleared once the call has read it, so a pass
    is taken at most once and the next ``rhs`` compares no spectrum.
    """
    m, ws = grid.modes, grid.workspace
    ik = grid.ik[:m]
    t, ws.tensors = ws.tensors, None
    taken = t is not None and np.array_equal(ws.grad_hat[:3, :m], fh)
    if not taken:
        _grid_pass(grid, fh)
    rho, mom, theta, rho_x, mom_x, rho_xx, mom_xx, _, u, u_x = ws.rows
    if taken:
        c, flux = t.closure, t.flux
    else:
        c = sym._closure(eos, rho, u, theta, rho_x, u_x, ws.theta_x, out=ws.closure)
        flux = sym._total_flux(c, mom, u, rho_xx, u_x, out=ws.flux)
    alpha = _uniform(c.alpha)
    if alpha is None:
        # alpha varies on the grid: the heat flux joins the energy flux
        # there, in the workspace's rows, so a taken flux stays as it was
        if taken:
            ws.flux[1:] = flux[1:]
            flux = ws.flux
        flux[2] += c.alpha * ws.theta_x()
    a31, a33, b31 = c.a31, c.a33, c.b31
    del c, t        # its other arrays are spent: the transforms overwrite h and w
    # spectra of the momentum and energy right sides dx(flux); the mass
    # flux -m is not transformed, and a constant alpha's heat flux is
    # alpha ik theta, whose spectrum the grid pass holds
    flux_hat = np.fft.rfft(flux[1:], out=ws.flux_hat)
    rates = ws.rate_hat
    if alpha is not None and not sym._zero(alpha):
        heat = ws.grad_hat[7, :m]
        if not sym._unit(alpha):
            heat = np.multiply(alpha, heat, out=rates[1, :m])
        flux_hat[1, :m] += heat
    np.multiply(flux_hat[:, :m], ik, out=rates[:, :m])
    r2, r3 = np.fft.irfft(rates, n=grid.n, out=ws.rate)

    # with rho_t = -m_x and rho_xt = -m_xx, theta_t =
    # (r3 + b31 m_xx + a31 m_x - u (r2 + u m_x)) / a33, where
    # r2 + u m_x = rho u_t; the spent mass-flux row takes the terms
    theta_t = ws.flux[0]
    r2 += np.multiply(u, mom_x, out=theta_t)
    if not sym._zero(b31):
        r3 += np.multiply(b31, mom_xx, out=theta_t)
    r3 += np.multiply(a31, mom_x, out=theta_t)
    r2 *= u
    r3 -= r2
    np.divide(r3, a33, out=theta_t)
    if out is None:
        out = np.empty((3, m), dtype=complex)
    if len(out) == 3:
        np.negative(np.multiply(fh[1], ik, out=out[0]), out=out[0])
    out[-2] = rates[0, :m]
    out[-1] = np.fft.rfft(theta_t, out=flux_hat[0])[:m]
    return out


class IntegratingFactorRK4:
    """Lawson RK4: constant-coefficient linear part exact per Fourier mode.

    ``step`` advances the retained (3, n//3 + 1) spectrum of V - Vbar,
    V = (rho, m = rho u, theta) (``pack``), whose roundoff stays at the
    scale of the perturbation.  The per-mode linearization of ``rhs`` around
    the equilibrium state is the symbol -M(i k) of the perturbation system
    taken to these variables, -T M(i k) T^-1 with T = dV/dU at Ubar, so the
    integrating factor exp(-h T M T^-1) = T exp(-h M) T^-1 is assembled once
    from the symbol machinery: one constant similarity per mode.  The
    nonlinear remainder (full right side minus the linearization) is the
    only term advanced by quadrature, which removes the dispersive
    dt ~ dx^3 restriction of fully explicit stepping.  The only integrating
    factor kept is the half-step one, ``e_half`` = exp(-dt/2 T M T^-1): the
    full step's is its square, and ``step`` applies it as two half steps.
    ``generators`` (T M T^-1) and ``e_half`` are (3, 3, n//3 + 1), column
    index first: the modes the 2/3 rule removes are never stored.  A step
    makes 8 per-mode products, 4 with ``e_half`` and 4 with rows 1 and 2 of
    the generators (see ``_nonlinear``), and 4 ``rhs`` calls of 12
    transform rows each, 5 for the first when it takes a sample's pass.
    The stage inputs, the stage rates and the per-mode products are written
    into six (3, n//3 + 1) buffers allocated here, and ``rhs`` into the
    grid's workspace, so like ``rhs`` a stepper is not re-entrant.
    """

    def __init__(self, eos: EquationOfState, equilibrium: State,
                 grid: SpectralGrid, dt: float):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.eos = eos
        self.grid = grid
        self.dt = float(dt)
        rho, u, theta = (float(np.asarray(v)) for v in (
            equilibrium.rho, equilibrium.u, equilibrium.theta))
        self.vbar = np.array([rho, rho * u, theta])
        # the mode-0 sum of Vbar, which turns the spectrum of V - Vbar into
        # the field spectrum that rhs takes
        self._shift = grid.n * self.vbar
        coeffs = equilibrium_coefficients(eos, equilibrium)
        # T = dV/dU at Ubar takes the symbol to (rho, m, theta)
        t = np.array([[1.0, 0.0, 0.0], [u, rho, 0.0], [0.0, 0.0, 1.0]])
        gen = t @ evolution_symbol(coeffs, grid.k[:grid.modes]) @ np.linalg.inv(t)
        # kept as (3, 3, modes) with the column index first, the layout
        # _apply takes: [j, i, k] holds entry (i, j) of mode k
        self.generators, self.e_half = (
            np.ascontiguousarray(a.transpose(2, 1, 0))
            for a in (gen, matrix_exponentials(gen, 0.5 * self.dt)))
        # the stage rates, e_half u0, e_half n1, the stage input and the
        # scratch of _apply, which rhs also writes
        self._a, self._b, self._c, self._v, self._x, self._tmp = np.zeros(
            (6, 3, grid.modes), dtype=complex)

    def pack(self, f: StateField) -> np.ndarray:
        """Retained (3, n//3 + 1) rfft of V - Vbar = (rho - rhobar,
        rho u - rhobar ubar, theta - thetabar), the state ``step`` advances."""
        dv = np.stack([f.rho, f.rho * f.u, f.theta]) - self.vbar[:, None]
        return np.ascontiguousarray(np.fft.rfft(dv)[:, :self.grid.modes])

    def _apply(self, e: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Per-mode product e(k) v(k) of (3, r, m) matrices and a (3, m) spectrum.

        ``e`` is column-first (``e[j, i]`` is entry (i, j)), so each term
        e[:, j] v_j reads one contiguous block; the columns are summed in
        order, without a (3, r, m) temporary, into the (r, m) ``out``, which
        must not be ``v``.
        """
        tmp = self._tmp[:len(out)]
        np.multiply(e[0], v[0], out=out)
        for j in (1, 2):
            out += np.multiply(e[j], v[j], out=tmp)
        return out

    def _nonlinear(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Full right side minus the linear part (-T M T^-1 x) at the stage input x.

        x is the spectrum of V - Vbar, which this consumes: its mode 0 is
        shifted by the mode-0 sum of Vbar to give the field ``rhs`` takes,
        and ``rhs`` checks that field in its grid pass, or takes a sample's
        pass of it.  The mass rate -ik m is linear in V, and row 0 of the
        generators is (0, ik, 0), so the remainder's row 0 is identically
        zero: it is written as 0, only rows 1 and 2 of the generators are
        applied, and ``rhs`` fills a 2-row ``out`` with the momentum and
        temperature rates alone.  At rhobar = 1 that row is (0, ik, 0)
        exactly and the full formula also gives 0 there, bit for bit.
        ``out`` must not be ``x``.
        """
        self._apply(self.generators[:, 1:], x, out[1:])
        out[0] = 0.0
        x[:, 0] += self._shift
        out[1:] += rhs(self.eos, self.grid, x, out=self._tmp[:2])
        return out

    def step(self, uh: np.ndarray) -> np.ndarray:
        """Advance the spectrum ``uh`` of V - Vbar by dt in place and return it.

        With E = ``e_half``, v = E u0 and b = E n1, the Lawson RK4 step

            u1 = E^2 u0 + dt/6 (E^2 n1 + 2 E (n2 + n3) + n4)

        is formed as E (v + dt/6 b + dt/3 (n2 + n3)) + dt/6 n4, with the
        stage inputs v + dt/2 b, v + dt/2 n2 and E (v + dt n3).

        Every stage input, the field of ``uh`` included, is checked against
        the admissible set rho > 0, theta > 0 in the grid pass of its
        ``rhs``, after its transform to the grid and before the closure
        reads it.  When the grid's workspace holds a sample's pass of ``uh``
        (see ``_sample``), stage 1's ``rhs`` takes it in place of its own
        grid pass and closure pass; that pass checked the field.  The result
        is not checked here: the next step does it, or the grid pass of a
        sample.  ``uh`` is written only after the fourth stage, so a rejected
        step leaves it unchanged.
        """
        dt, e = self.dt, self.e_half
        a, b, c, v, x = self._a, self._b, self._c, self._v, self._x
        np.copyto(x, uh)
        n1 = self._nonlinear(x, a)
        self._apply(e, uh, v)                   # v = E u0
        self._apply(e, n1, b)                   # b = E n1; a is free

        np.multiply(b, 0.5 * dt, out=x)         # x = v + dt/2 b
        x += v
        n2 = self._nonlinear(x, a)
        np.multiply(n2, 0.5 * dt, out=x)        # x = v + dt/2 n2
        x += v
        n3 = self._nonlinear(x, c)
        np.multiply(n3, dt, out=x)              # x = E (v + dt n3)
        x += v
        n2 += n3                                # c is free
        n4 = self._nonlinear(self._apply(e, x, c), x)

        # u1 = E (v + dt/6 b + dt/3 (n2 + n3)) + dt/6 n4
        b *= dt / 6.0
        v += b
        n2 *= dt / 3.0
        v += n2
        n4 *= dt / 6.0
        self._apply(e, v, uh)
        uh += n4
        return uh


@dataclass(frozen=True)
class PerturbationSpec:
    """Localized initial perturbation added to the constant state."""

    shape: str = "gaussian"          # gaussian | wave_packet
    amplitude: float = 1e-2
    width: float = 10.0
    fields: tuple = ("rho",)
    wavenumber: float = 1.0          # carrier for wave_packet

    def __post_init__(self):
        if self.shape not in ("gaussian", "wave_packet"):
            raise ValueError(f"unknown perturbation shape {self.shape!r}")

    def profile(self, x: np.ndarray, length: float) -> np.ndarray:
        """The perturbation on ``x``, centred mid-domain at length / 2."""
        c = 0.5 * length
        bump = np.exp(-((x - c) / self.width) ** 2)
        if self.shape == "gaussian":
            return self.amplitude * bump
        return self.amplitude * bump * np.cos(self.wavenumber * (x - c))


def initial_field(grid: SpectralGrid, equilibrium: State,
                  spec: PerturbationSpec) -> StateField:
    x = grid.x
    rho = np.full(grid.n, float(np.asarray(equilibrium.rho)))
    u = np.full(grid.n, float(np.asarray(equilibrium.u)))
    theta = np.full(grid.n, float(np.asarray(equilibrium.theta)))
    prof = spec.profile(x, grid.length)
    if "rho" in spec.fields:
        rho = rho + prof
    if "u" in spec.fields:
        u = u + prof
    if "theta" in spec.fields:
        theta = theta + prof
    return StateField(grid, rho, u, theta)


def _triple_norm(grid: SpectralGrid, first: float, v2: np.ndarray,
                 v3: np.ndarray) -> float:
    """Discrete anisotropic norm: one extra derivative on the first component.

    sqrt( ||v1||^2 + ||v1_x||^2 + ||v2||^2 + ||v3||^2 ), the periodic
    realization of the weighted modal energy used on the linear side;
    ``first`` is the grid sum of v1^2 + v1_x^2.  Each sum of squares is a
    dot product, which forms no array of squares.
    """
    return float(np.sqrt(grid.dx * (first + np.dot(v2, v2) + np.dot(v3, v3))))


@dataclass
class WDiagnostics:
    w: np.ndarray            # (3, n) perturbation variables
    norm_w: float
    norm_u: float            # triple norm of U - Ubar
    ratio: float             # norm_w / norm_u, nan at equilibrium
    max_n1: float            # first component of the quadratic terms
    max_n: float             # largest component magnitude of the quadratic terms
    nonlinear_scale: float   # flux magnitude used to normalize max_n1
    tensors: sym.FluxTensors  # the closure pass all of the above read


def w_diagnostics(eos: EquationOfState, equilibrium: State, grid: SpectralGrid,
                  fh: np.ndarray) -> WDiagnostics:
    """Perturbation variables, norm equivalence ratio, and quadratic-term residuals.

    ``fh`` is the retained (3, n//3 + 1) rfft of the field (rho, m, theta),
    m = rho u, the spectrum ``rhs`` takes.  The field, its gradients and the
    velocity u and its gradient come from the grid pass that ``rhs`` makes
    first (``_grid_pass``, one batched irfft, which checks that rho > 0 and
    theta > 0), here of 8 rows, theta_x last, so that the next ``rhs`` of
    ``fh`` takes it whole; no other transform is taken: w_0 = rho - rhobar
    exactly, so both triple norms share the sum of (rho - rhobar)^2 +
    rho_x^2 over the grid, and each sum of squares is a dot product.  u_xx and theta_xx
    are not needed (see ``symbols.nonlinear_terms``).  The closure is
    evaluated once, in ``sym.flux_and_tensors``, which reads the momentum m
    from its grid row as ``rhs`` does: W, the quadratic terms and the
    normalizing scale max |F1| all read that pass.  The result carries it on
    for the ledger's integrals, and the grid's workspace keeps it beside the
    grid pass (``tensors``) for the next ``rhs`` of ``fh``.
    F1 = (m, u m + p, u (rho (epsilon + u^2/2) + p)) is not stacked: its
    rows are formed one at a time for their maxima, from the grid row m and
    the row F0[2] of that pass.  The result holds no view of the grid's
    workspace, so a later ``rhs`` on the grid leaves it as it is.
    """
    rho, mom, theta, rho_x, _, rho_xx, _, theta_x, u, u_x = _grid_pass(
        grid, fh, theta_x=True)
    ext = ExtendedState(rho=rho, u=u, theta=theta, rho_x=rho_x, u_x=u_x,
                        theta_x=theta_x, rho_xx=rho_xx)
    t = sym.flux_and_tensors(eos, ext, mom)
    # the quadratic terms before W, so that the rows they are formed from
    # are freed before W is allocated
    n_terms = sym.nonlinear_terms(eos, equilibrium, ext, t)
    n_abs = np.abs(n_terms, out=n_terms)
    max_n1, max_n = float(n_abs[0].max()), float(n_abs.max())
    del n_terms, n_abs
    w = sym.w_variables(eos, equilibrium, t)
    p = t.closure.p
    f1_max = max(float(np.abs(row).max()) for row in (
        mom, u * mom + p, u * (t.F0[2] + p)))
    rhobar, ubar, thetabar = (float(np.asarray(v)) for v in (
        equilibrium.rho, equilibrium.u, equilibrium.theta))
    d_rho = rho - rhobar
    first = np.dot(d_rho, d_rho) + np.dot(rho_x, rho_x)
    norm_w = _triple_norm(grid, first, w[1], w[2])
    norm_u = _triple_norm(grid, first, u - ubar, theta - thetabar)
    ratio = norm_w / norm_u if norm_u > 0 else np.nan
    grid.workspace.tensors = t
    return WDiagnostics(w=w, norm_w=norm_w, norm_u=norm_u, ratio=ratio,
                        max_n1=max_n1, max_n=max_n,
                        nonlinear_scale=max(f1_max, 1.0), tensors=t)


@dataclass
class DiagnosticsLedger:
    """Time series of conserved integrals, norms, and nonlinear residuals.

    The first fields are the columns ``LEDGER_COLUMNS``, in that order.
    """

    t: np.ndarray
    mass: np.ndarray
    momentum: np.ndarray
    energy: np.ndarray
    entropy: np.ndarray
    norm_u: np.ndarray       # triple norm of U - Ubar
    norm_w: np.ndarray
    ratio: np.ndarray        # norm_w / norm_u (nan when undefined)
    max_n1: np.ndarray
    max_n: np.ndarray        # largest quadratic-term component
    nonlinear_scale: np.ndarray
    wrap_time: float
    aborted: Optional[str] = None

    def drift(self, series: np.ndarray) -> float:
        """Max relative drift |Q(t) - Q(0)| / max(|Q(0)|, |mass(0)|): the mass
        floor keeps zero-momentum runs well defined."""
        q0 = series[0]
        return float(np.abs(series - q0).max() / max(abs(q0), abs(self.mass[0])))

    def entropy_steps(self) -> np.ndarray:
        return np.diff(self.entropy)

    def decay_fit(self, t_min: float = 20.0) -> PowerLawFit:
        """Slope of log norm_u vs log(1 + t) on [t_min, wrap_time]."""
        return fit_power_law(1.0 + self.t, self.norm_u,
                             (1.0 + t_min, 1.0 + self.wrap_time))


def _sample(eos, equilibrium, grid: SpectralGrid, fh: np.ndarray) -> tuple:
    """Ledger values of the field whose retained spectrum is ``fh``, in the
    order of ``LEDGER_COLUMNS[1:]``.

    The mass and the momentum are the integrals of the stepped density and
    momentum themselves, dx times their mode 0, which no step changes.  The
    energy and entropy integrals are those of the closure pass, and the rest
    comes from its ``w_diagnostics``, which leaves that pass in the grid's
    workspace for the next ``rhs`` of ``fh``.
    """
    diag = w_diagnostics(eos, equilibrium, grid, fh)
    t = diag.tensors
    return (
        float(grid.dx * fh[0, 0].real),
        float(grid.dx * fh[1, 0].real),
        grid.integral(t.F0[2]),
        grid.integral(t.entropy),
        diag.norm_u,
        diag.norm_w,
        diag.ratio,
        diag.max_n1,
        diag.max_n,
        diag.nonlinear_scale,
    )


def _whole_steps(t_final: float, dt: float) -> int:
    """The number of dt steps in t_final; ValueError unless it is whole."""
    steps = t_final / dt
    if not np.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
        raise ValueError(f"t_final = {t_final!r} must be a whole number of dt steps "
                         f"(dt = {dt!r}, t_final / dt = {steps!r})")
    return int(round(steps))


def sample_times(t_final: float, dt: float, sample_every: int) -> np.ndarray:
    """Times of the ledger rows of a ``run`` that is not aborted: t = 0,
    every ``sample_every``-th step and the last step.  Raises ValueError
    when t_final is not a whole number of dt steps (to 1e-9 relative)."""
    n_steps = _whole_steps(t_final, dt)
    steps = np.arange(0, n_steps + 1)
    return steps[(steps % sample_every == 0) | (steps == n_steps)] * dt


def wrap_time(eos: EquationOfState, equilibrium: State, length: float) -> float:
    """L / (2 c_sound): when periodic images reach the perturbation's centre."""
    coeffs = equilibrium_coefficients(eos, equilibrium)
    speed = abs(coeffs.u) + coeffs.sound_speed()
    return length / (2.0 * speed) if speed > 0 else np.inf


def run(eos: EquationOfState, equilibrium: State, perturbation: PerturbationSpec,
        t_final: float, dt: float, length: float = 400.0, n: int = 4096,
        sample_every: int = 50) -> DiagnosticsLedger:
    """Integrate a localized perturbation and record the diagnostics ledger.

    The decay-fit window is truncated at the wrap-around time
    L / (2 c_sound), past which the periodic images contaminate the
    whole-line decay.  Blow-up or domain exit terminates the run and returns
    the partial ledger with ``aborted`` set.  ``t_final`` must be a whole
    number of ``dt`` steps (see ``sample_times``).

    The stepper keeps the spectrum of V - Vbar, V = (rho, rho u, theta),
    from the first step to the last.  Each ledger row, t = 0 included, is
    sampled from a copy of that spectrum whose mode 0 is shifted by the
    mode-0 sum n Vbar of the equilibrium, the field spectrum that ``rhs``
    takes, through the same grid pass as ``rhs``.  The sample's grid pass
    and closure pass, its flux included, stay in the grid's workspace and
    are those of the next step's first ``rhs``, which takes them instead of
    evaluating the state again.  The admissible set is rho > 0, theta > 0,
    and every grid pass checks it: each step's result is checked before
    anything reads it, at a sample time in the sample's grid pass and
    otherwise inside the next step, before its first closure evaluation.
    The step checks each of its stage inputs the same way.
    """
    if dt <= 0:
        raise ValueError("run requires dt > 0")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    n_steps = _whole_steps(t_final, dt)
    grid = SpectralGrid(n=n, length=length)
    f = initial_field(grid, equilibrium, perturbation)
    f.validate()
    stepper = IntegratingFactorRK4(eos, equilibrium, grid, dt)
    uh = stepper.pack(f)

    def sample():
        fh = uh.copy()
        fh[:, 0] += stepper._shift
        return _sample(eos, equilibrium, grid, fh)

    records = [(0.0, *sample())]
    aborted = None
    for i in range(1, n_steps + 1):
        try:
            stepper.step(uh)
            if i % sample_every == 0 or i == n_steps:
                records.append((i * dt, *sample()))
        except StepRejected as exc:
            aborted = str(exc)
            break

    columns = dict(zip(LEDGER_COLUMNS, map(np.array, zip(*records))))
    return DiagnosticsLedger(**columns, wrap_time=wrap_time(eos, equilibrium, length),
                             aborted=aborted)
