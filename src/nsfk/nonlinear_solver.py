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

The time stepper advances only the retained rfft coefficients m = 0..n//3 of
U - Ubar = (rho, u, theta) - Ubar, a (3, n//3 + 1) spectrum: the 2/3 rule is
a slice of each forward transform, and each inverse transform pads the
spectrum with zeros.  ``run`` transforms the initial field once and keeps
that spectrum from the first step to the last; it goes back to the grid
only for a diagnostics sample.  ``rhs`` maps the spectrum of the field to
the spectrum of the rates with four batched transforms (seven fields and
gradients back to the grid, the three fluxes forward, the four
conservation-law rates back, the two primitive rates forward), so a step
costs 4 transform calls per right-hand-side evaluation, plus one inverse
transform per sample.  The transforms of ``rhs`` read and write one set of
buffers held by the grid (``SpectralGrid.workspace``), and the stepper's
stages live in buffers it allocates once: a step allocates only the
closure's elementwise temporaries.

The stepper is an integrating-factor RK4 (Lawson scheme; see
Cox & Matthews, J. Comput. Phys. 176 (2002) and Kassam & Trefethen, SIAM J.
Sci. Comput. 26 (2005) for the exponential-integrator family): the
constant-coefficient linearization is applied exactly per Fourier mode, which
removes the third-order dispersive stiffness (dt ~ dx^3 for explicit
stepping).

The primitive-variable time derivative is recovered from the conserved-
variable one through the (lower-triangular, always invertible) Jacobian of
the conserved quantities, which carries a density-gradient dependence through
the non-standard internal energy.
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


class StepRejected(RuntimeError):
    """A time step produced a field outside the admissible domain."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _RhsWorkspace:
    """The transform buffers ``rhs`` fills in place on one grid.

    The inverse transforms' inputs ``grad_hat`` and ``rate_hat`` span all
    n//2 + 1 rfft bins, but only the bins m <= n//3 are ever written: their
    zero tails make each irfft read the dealiased spectrum without a padded
    copy.
    """

    def __init__(self, n: int):
        bins = n // 2 + 1
        # rfft of (rho, u, theta, rho_x, rho_xx, u_x, theta_x) and the fields
        self.grad_hat = np.zeros((7, bins), dtype=complex)
        self.grad = np.empty((7, n))
        # rfft of (rho_t, rho_xt, r2, r3) and the rates
        self.rate_hat = np.zeros((4, bins), dtype=complex)
        self.rate = np.empty((4, n))
        # the three fluxes; rows 0 and 1 then hold (u_t, theta_t)
        self.flux = np.empty((3, n))
        # the entries a31, a33, b31 of D_U F0 and D_Ux F0
        self.jac = np.empty((3, n))
        self.flux_hat = np.empty((3, bins), dtype=complex)


@dataclass(frozen=True)
class SpectralGrid:
    """Equispaced periodic grid on [0, L) with rfft workspace.

    ``k`` and ``ik`` are computed on first use and cached read-only; the
    ``workspace`` of ``rhs`` is created on first use and reused.
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
        """Transform buffers that every ``rhs`` call on this grid reuses."""
        return _RhsWorkspace(self.n)

    def deriv(self, f: np.ndarray, order: int = 1, dealias: bool = False) -> np.ndarray:
        fh = np.fft.rfft(f)
        if dealias:
            fh[self.modes:] = 0.0
        return np.fft.irfft(self.ik ** order * fh, n=self.n)

    def integral(self, f: np.ndarray) -> float:
        """Exact quadrature of a band-limited periodic function."""
        return float(np.sum(f) * self.dx)


@dataclass
class StateField:
    """Discrete (rho, u, theta) field on a periodic grid."""

    grid: SpectralGrid
    rho: np.ndarray
    u: np.ndarray
    theta: np.ndarray

    def validate(self, rho_min: float = 0.0, theta_min: float = 0.0) -> None:
        """Raise unless each row has shape (n,) and finite values, rho > rho_min
        and theta > theta_min.

        An admissible field costs one ``isfinite`` per row and two minima;
        the checks below, which name the first condition that fails, run
        only when one does.  A wrong shape raises ValueError, anything else
        StepRejected.
        """
        rows = (self.rho, self.u, self.theta)
        if (all(a.shape == (self.grid.n,) and np.isfinite(a).all() for a in rows)
                and self.rho.min() > rho_min and self.theta.min() > theta_min):
            return
        for name, arr in zip(("rho", "u", "theta"), rows):
            if arr.shape != (self.grid.n,):
                raise ValueError(f"{name} has wrong shape {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise StepRejected(f"{name} contains non-finite values")
        if np.any(self.rho <= rho_min):
            raise StepRejected(f"density fell below {rho_min}")
        if np.any(self.theta <= theta_min):
            raise StepRejected(f"temperature fell below {theta_min}")

    def extended(self) -> ExtendedState:
        """Spectral gradients bundled for the pointwise symbol machinery."""
        g = self.grid
        fh = np.fft.rfft(np.stack([self.rho, self.u, self.theta]))
        rho_x, u_x, theta_x, rho_xx, u_xx, theta_xx = np.fft.irfft(
            np.concatenate([g.ik * fh, g.ik ** 2 * fh]), n=g.n)
        return ExtendedState(
            rho=self.rho, u=self.u, theta=self.theta,
            rho_x=rho_x, u_x=u_x, theta_x=theta_x,
            rho_xx=rho_xx, u_xx=u_xx, theta_xx=theta_xx,
        )


def rhs(eos: EquationOfState, grid: SpectralGrid, fh: np.ndarray,
        out: Optional[np.ndarray] = None,
        bounds: Optional[tuple[float, float]] = None) -> np.ndarray:
    """Spectrum of the primitive rates (rho_t, u_t, theta_t).

    ``fh`` is the retained (3, n//3 + 1) rfft of (rho, u, theta); the result
    is the retained (3, n//3 + 1) rfft of the rates, written to ``out`` when
    it is given and to a new array otherwise.  The conservation-law right
    sides are the spectral derivatives of the dealiased flux
    ``symbols._total_flux``; they are converted to primitive rates through
    the conserved-quantity Jacobian.  The closure is evaluated once, in one
    ``symbols._closure`` pass that both the flux and the Jacobian entries
    read, and the four ``np.fft`` calls are batched: one irfft of (rho, u,
    theta, rho_x, rho_xx, u_x, theta_x), one rfft of the three fluxes, one
    irfft of (rho_t, rho_xt, r2, r3) and one rfft of (u_t, theta_t).

    With ``bounds = (rho_min, theta_min)`` the field is checked by
    ``StateField.validate`` right after the first transform, before the
    closure takes a log of it; a field outside the admissible set raises
    ``StepRejected``.  A closure entry that is the scalar 0.0 (b31 at
    kappa = 0) is broadcast into the workspace.  The transforms read and
    write ``grid.workspace``, so ``rhs`` is not re-entrant on one grid: two
    threads must not evaluate it on the same ``SpectralGrid`` at once.  At a
    constant field the result is identically zero.
    """
    m, ws = grid.modes, grid.workspace
    ik = grid.ik[:m]
    spec = ws.grad_hat
    spec[:3, :m] = fh
    np.multiply(ik, fh[0], out=spec[3, :m])
    np.multiply(ik, spec[3, :m], out=spec[4, :m])
    np.multiply(ik, fh[1], out=spec[5, :m])
    np.multiply(ik, fh[2], out=spec[6, :m])
    rho, u, theta, rho_x, rho_xx, u_x, theta_x = np.fft.irfft(spec, n=grid.n,
                                                              out=ws.grad)
    if bounds is not None:
        StateField(grid, rho, u, theta).validate(*bounds)

    c = sym._closure(eos, rho, u, theta, rho_x, u_x, theta_x)
    sym._total_flux(c, rho, u, rho_xx, u_x, theta_x, out=ws.flux)
    a31, a33, b31 = ws.jac
    a31[:], a33[:], b31[:] = c.a31, c.a33, c.b31
    del c                          # its arrays are spent before the transforms
    # spectra of the conservation-law right sides dx(flux); the first is rho_t
    flux_hat = np.fft.rfft(ws.flux, out=ws.flux_hat)
    rates = ws.rate_hat
    np.multiply(flux_hat[0, :m], ik, out=rates[0, :m])
    np.multiply(ik, rates[0, :m], out=rates[1, :m])
    np.multiply(flux_hat[1:, :m], ik, out=rates[2:, :m])
    rho_t, rho_xt, r2, r3 = np.fft.irfft(rates, n=grid.n, out=ws.rate)

    u_t, theta_t = ws.flux[:2]                       # the fluxes are spent
    np.divide(r2 - u * rho_t, rho, out=u_t)
    np.divide(r3 - b31 * rho_xt - a31 * rho_t - rho * u * u_t, a33, out=theta_t)
    if out is None:
        out = np.empty((3, m), dtype=complex)
    out[0] = rates[0, :m]
    out[1:] = np.fft.rfft(ws.flux[:2], out=flux_hat[:2])[:, :m]
    return out


class IntegratingFactorRK4:
    """Lawson RK4: constant-coefficient linear part exact per Fourier mode.

    The per-mode linearization around the equilibrium state equals the
    symbol -M(i k) of the perturbation system, so the integrating factors
    exp(-h M(i k)) are assembled once from the symbol machinery.  The
    nonlinear remainder (full right side minus the linearization) is the
    only term advanced by quadrature, which removes the dispersive dt ~ dx^3
    restriction of fully explicit stepping.  ``step`` advances the retained
    (3, n//3 + 1) spectrum of U - Ubar (``pack``), whose roundoff stays at
    the scale of the perturbation; ``generators``, ``e_full`` and ``e_half``
    are (3, 3, n//3 + 1), column index first: the modes the 2/3 rule
    removes are never stored.  The stage inputs, the stage rates and the
    per-mode products are written into six (3, n//3 + 1) buffers
    allocated here, and ``rhs`` into the grid's workspace, so like ``rhs``
    a stepper is not re-entrant.
    """

    def __init__(self, eos: EquationOfState, equilibrium: State,
                 grid: SpectralGrid, dt: float,
                 rho_min: float = 0.0, theta_min: float = 0.0):
        if dt < 0:
            raise ValueError("dt must be nonnegative")
        self.eos = eos
        self.grid = grid
        self.dt = float(dt)
        self.rho_min = rho_min
        self.theta_min = theta_min
        self.ubar = np.array([float(np.asarray(equilibrium.rho)),
                              float(np.asarray(equilibrium.u)),
                              float(np.asarray(equilibrium.theta))])
        coeffs = equilibrium_coefficients(eos, equilibrium)
        gen = evolution_symbol(coeffs, grid.k[:grid.modes])   # (modes, 3, 3)
        # kept as (3, 3, modes) with the column index first, the layout
        # _apply takes: [j, i, k] holds entry (i, j) of mode k
        self.generators, self.e_full, self.e_half = (
            np.ascontiguousarray(a.transpose(2, 1, 0))
            for a in (gen, matrix_exponentials(gen, self.dt),
                      matrix_exponentials(gen, 0.5 * self.dt)))
        # the stage rates n1, n2 and n3 (n4 reuses n3), e_half u0 (then
        # e_full u0), the stage input and the scratch of _apply, which rhs
        # also writes
        self._n1, self._n2, self._n3, self._v, self._x, self._tmp = np.zeros(
            (6, 3, grid.modes), dtype=complex)

    def pack(self, f: StateField) -> np.ndarray:
        """Retained (3, n//3 + 1) rfft of U - Ubar, the state ``step`` advances."""
        du = np.stack([f.rho, f.u, f.theta]) - self.ubar[:, None]
        return np.ascontiguousarray(np.fft.rfft(du)[:, :self.grid.modes])

    def unpack(self, uh: np.ndarray) -> StateField:
        """The field on the grid whose ``pack`` is ``uh``."""
        rho, u, theta = np.fft.irfft(uh, n=self.grid.n) + self.ubar[:, None]
        return StateField(self.grid, rho, u, theta)

    def _apply(self, e: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Per-mode product e(k) v(k) of (3, 3, m) matrices and a (3, m) spectrum.

        ``e`` is column-first (``e[j, i]`` is entry (i, j)), so each term
        e[:, j] v_j reads one contiguous block; the columns are summed in
        order, without a (3, 3, m) temporary.  ``out`` must not be ``v``.
        """
        np.multiply(e[0], v[0], out=out)
        for j in (1, 2):
            out += np.multiply(e[j], v[j], out=self._tmp)
        return out

    def _nonlinear(self, out: np.ndarray) -> np.ndarray:
        """Full right side minus the linear part (-M x) at the stage input x.

        x is the spectrum of U - Ubar in ``self._x``, which this consumes:
        its mode 0 is shifted by the mode-0 sum of Ubar to give the field
        ``rhs`` takes, and ``rhs`` validates that field with this stepper's
        bounds.
        """
        x = self._x
        self._apply(self.generators, x, out)
        x[:, 0] += self.grid.n * self.ubar
        out += rhs(self.eos, self.grid, x, out=self._tmp,
                   bounds=(self.rho_min, self.theta_min))
        return out

    def step(self, uh: np.ndarray) -> np.ndarray:
        """Advance the spectrum ``uh`` of U - Ubar by dt in place and return it.

        Every stage input, the field of ``uh`` included, is validated
        (``StateField.validate`` with this stepper's bounds) inside its
        ``rhs``, after its transform to the grid and before the closure
        takes a log of it.  The result is not validated here: the next step
        does it, or the caller after ``unpack``.  A rejected step leaves
        ``uh`` unchanged.
        """
        if self.dt == 0.0:
            return uh
        dt, e1, e2 = self.dt, self.e_full, self.e_half
        n1, n2, n3, v, x = self._n1, self._n2, self._n3, self._v, self._x
        np.copyto(x, uh)
        self._nonlinear(n1)
        self._apply(e2, uh, v)                  # v = e2 u0

        self._apply(e2, n1, x)                  # x = v + dt/2 e2 n1
        x *= 0.5 * dt
        x += v
        self._nonlinear(n2)
        np.multiply(n2, 0.5 * dt, out=x)        # x = v + dt/2 n2
        x += v
        self._nonlinear(n3)
        e1u0 = self._apply(e1, uh, v)           # v is spent
        self._apply(e2, n3, x)                  # x = e1 u0 + dt e2 n3
        x *= dt
        x += e1u0
        n2 += n3                                # n3 is free for n4
        n4 = self._nonlinear(n3)

        # u1 = e1 u0 + dt/6 (e1 n1 + 2 e2 (n2 + n3) + n4)
        self._apply(e1, n1, x)
        e2n23 = self._apply(e2, n2, n1)         # n1 is spent
        e2n23 *= 2.0
        x += e2n23
        x += n4
        x *= dt / 6.0
        return np.add(e1u0, x, out=uh)


@dataclass(frozen=True)
class PerturbationSpec:
    """Localized initial perturbation added to the constant state."""

    shape: str = "gaussian"          # gaussian | wave_packet
    amplitude: float = 1e-2
    width: float = 10.0
    fields: tuple = ("rho",)
    center: Optional[float] = None   # default: mid-domain
    wavenumber: float = 1.0          # carrier for wave_packet

    def __post_init__(self):
        if self.shape not in ("gaussian", "wave_packet"):
            raise ValueError(f"unknown perturbation shape {self.shape!r}")

    def profile(self, x: np.ndarray, length: float) -> np.ndarray:
        c = 0.5 * length if self.center is None else self.center
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


def _triple_norm(grid: SpectralGrid, v1: np.ndarray, v1_x: np.ndarray,
                 v2: np.ndarray, v3: np.ndarray) -> float:
    """Discrete anisotropic norm: one extra derivative on the first component.

    sqrt( ||v1||^2 + ||v1_x||^2 + ||v2||^2 + ||v3||^2 ), the periodic
    realization of the weighted modal energy used on the linear side.
    """
    return float(np.sqrt(grid.integral(v1 ** 2 + v1_x ** 2 + v2 ** 2 + v3 ** 2)))


@dataclass
class WDiagnostics:
    w: np.ndarray            # (3, n) perturbation variables
    norm_w: float
    norm_u: float            # triple norm of U - Ubar
    ratio: Optional[float]   # norm_w / norm_u, None at equilibrium
    max_n1: float            # first component of the quadratic terms
    max_n: float             # largest component magnitude of the quadratic terms
    nonlinear_scale: float   # flux magnitude used to normalize max_n1
    tensors: sym.FluxTensors  # the closure pass all of the above read


def w_diagnostics(eos: EquationOfState, equilibrium: State,
                  f: StateField) -> WDiagnostics:
    """Perturbation variables, norm equivalence ratio, and quadratic-term residuals.

    The gradients come from ``f.extended()``, one rfft and one irfft, and
    no other transform is taken: w_0 = rho - rhobar exactly, so both triple
    norms read the derivative of their first component from ``ext.rho_x``.
    The closure is evaluated once, in ``sym.flux_and_tensors``: W, the
    quadratic terms and the normalizing scale max |F1| all read that pass,
    which the result carries on for the ledger's integrals.
    """
    ext = f.extended()
    t = sym.flux_and_tensors(eos, ext)
    w = sym.w_variables(eos, equilibrium, t)          # (n, 3)
    n_terms = sym.nonlinear_terms(eos, equilibrium, ext, t)
    g = f.grid
    norm_w = _triple_norm(g, w[:, 0], ext.rho_x, w[:, 1], w[:, 2])
    norm_u = _triple_norm(g, f.rho - float(np.asarray(equilibrium.rho)), ext.rho_x,
                          f.u - float(np.asarray(equilibrium.u)),
                          f.theta - float(np.asarray(equilibrium.theta)))
    ratio = norm_w / norm_u if norm_u > 0 else None
    return WDiagnostics(w=w.T, norm_w=norm_w, norm_u=norm_u, ratio=ratio,
                        max_n1=float(np.abs(n_terms[:, 0]).max()),
                        max_n=float(np.abs(n_terms).max()),
                        nonlinear_scale=max(float(np.abs(t.F1).max()), 1.0),
                        tensors=t)


@dataclass
class DiagnosticsLedger:
    """Time series of conserved integrals, norms, and nonlinear residuals."""

    times: np.ndarray
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

    def drift(self, series: np.ndarray, scale: Optional[float] = None) -> float:
        """Max relative drift |Q(t) - Q(0)| / scale (default |Q(0)|, with a
        mass-based floor so zero-momentum runs stay well defined)."""
        q0 = series[0]
        if scale is None:
            scale = max(abs(q0), abs(self.mass[0]))
        return float(np.abs(series - q0).max() / scale)

    def entropy_steps(self) -> np.ndarray:
        return np.diff(self.entropy)

    def decay_fit(self, t_min: float = 20.0,
                  t_max: Optional[float] = None) -> PowerLawFit:
        """Slope of log norm_u vs log(1 + t) on [t_min, min(t_max, wrap_time)]."""
        hi = self.wrap_time if t_max is None else min(t_max, self.wrap_time)
        return fit_power_law(1.0 + self.times, self.norm_u,
                             (1.0 + t_min, 1.0 + hi))

    def rows(self) -> list[dict]:
        out = []
        for i in range(self.times.size):
            out.append({
                "t": float(self.times[i]),
                "mass": float(self.mass[i]),
                "momentum": float(self.momentum[i]),
                "energy": float(self.energy[i]),
                "entropy": float(self.entropy[i]),
                "norm_u": float(self.norm_u[i]),
                "norm_w": float(self.norm_w[i]),
                "ratio": float(self.ratio[i]),
                "max_n1": float(self.max_n1[i]),
                "max_n": float(self.max_n[i]),
                "nonlinear_scale": float(self.nonlinear_scale[i]),
            })
        return out


def _sample(eos, equilibrium, f: StateField):
    """Ledger values of one field: the ``w_diagnostics`` of the field and the
    mass, momentum, energy and entropy integrals of its closure pass."""
    g = f.grid
    diag = w_diagnostics(eos, equilibrium, f)
    t = diag.tensors
    mass, momentum, energy = t.F0.T
    return (
        g.integral(mass),
        g.integral(momentum),
        g.integral(energy),
        g.integral(t.entropy),
        diag.norm_u,
        diag.norm_w,
        diag.ratio if diag.ratio is not None else np.nan,
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
        sample_every: int = 50,
        rho_min: float = 0.0, theta_min: float = 0.0) -> DiagnosticsLedger:
    """Integrate a localized perturbation and record the diagnostics ledger.

    The decay-fit window is truncated at the wrap-around time
    L / (2 c_sound), past which the periodic images contaminate the
    whole-line decay.  Blow-up or domain exit terminates the run and returns
    the partial ledger with ``aborted`` set.  ``t_final`` must be a whole
    number of ``dt`` steps (see ``sample_times``).

    The stepper keeps the spectrum of U - Ubar from the first step to the
    last; the field goes back to the grid only at the ledger's sample times.
    Every step's result is validated before anything reads it: at a sample
    time here, before the sample, and otherwise inside the next step, before
    its first closure evaluation.  The step validates each of its stage
    inputs the same way.
    """
    if dt <= 0:
        raise ValueError("run requires dt > 0")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    n_steps = _whole_steps(t_final, dt)
    grid = SpectralGrid(n=n, length=length)
    f = initial_field(grid, equilibrium, perturbation)
    f.validate(rho_min, theta_min)
    stepper = IntegratingFactorRK4(eos, equilibrium, grid, dt,
                                   rho_min=rho_min, theta_min=theta_min)
    records = [(0.0, *_sample(eos, equilibrium, f))]
    uh = stepper.pack(f)
    aborted = None
    for i in range(1, n_steps + 1):
        sampled = i % sample_every == 0 or i == n_steps
        try:
            stepper.step(uh)
            if sampled:
                f = stepper.unpack(uh)
                f.validate(rho_min, theta_min)
        except StepRejected as exc:
            aborted = str(exc)
            break
        if sampled:
            records.append((i * dt, *_sample(eos, equilibrium, f)))

    cols = list(zip(*records))
    return DiagnosticsLedger(
        times=np.array(cols[0]), mass=np.array(cols[1]),
        momentum=np.array(cols[2]), energy=np.array(cols[3]),
        entropy=np.array(cols[4]), norm_u=np.array(cols[5]),
        norm_w=np.array(cols[6]), ratio=np.array(cols[7]),
        max_n1=np.array(cols[8]), max_n=np.array(cols[9]),
        nonlinear_scale=np.array(cols[10]),
        wrap_time=wrap_time(eos, equilibrium, length), aborted=aborted)
