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
(rho, u, theta), a (3, n//3 + 1) spectrum: the 2/3 rule is a slice of each
forward transform, and each inverse transform pads the spectrum with zeros.
``rhs`` maps that spectrum to the spectrum of the rates with four batched
transforms (seven fields and gradients back to the grid, the three fluxes
forward, the four conservation-law rates back, the two primitive rates
forward), so an integrating-factor step costs 4.5 transform calls per
right-hand-side evaluation, packing and unpacking included.  The transforms
of ``rhs`` read and write one set of buffers held by the grid
(``SpectralGrid.workspace``): an evaluation allocates only the closure's
elementwise temporaries and its (3, n//3 + 1) result.

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


def _apply(e: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-mode product e(k) v(k) of (3, 3, m) matrices and a (3, m) spectrum."""
    return (e * v).sum(axis=1)


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
        for name, arr in (("rho", self.rho), ("u", self.u), ("theta", self.theta)):
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

    def spectrum(self) -> np.ndarray:
        """Retained (3, n//3 + 1) rfft of (rho, u, theta), the state ``rhs`` acts on."""
        fh = np.fft.rfft(np.stack([self.rho, self.u, self.theta]))
        return fh[:, :self.grid.modes]

    def copy(self) -> "StateField":
        return StateField(self.grid, self.rho.copy(), self.u.copy(), self.theta.copy())


def rhs(eos: EquationOfState, grid: SpectralGrid, fh: np.ndarray) -> np.ndarray:
    """Spectrum of the primitive rates (rho_t, u_t, theta_t).

    ``fh`` is the retained (3, n//3 + 1) rfft of (rho, u, theta) (see
    ``StateField.spectrum``); the result is the retained (3, n//3 + 1) rfft
    of the rates, a new array.  The conservation-law right sides are the
    spectral derivatives of the dealiased ``symbols.total_flux``; they are
    converted to primitive rates through the conserved-quantity Jacobian.
    The closure is evaluated once, and the four ``np.fft`` calls are batched:
    one irfft of (rho, u, theta, rho_x, rho_xx, u_x, theta_x), one rfft of
    the three fluxes, one irfft of (rho_t, rho_xt, r2, r3) and one rfft of
    (u_t, theta_t).  The transforms read and write ``grid.workspace``, so
    ``rhs`` is not re-entrant on one grid: two threads must not evaluate it
    on the same ``SpectralGrid`` at once.  At a constant field the result is
    identically zero.
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

    eps = eos.epsilon(rho, theta, rho_x)
    flux = sym._total_flux(eos, eps, rho, u, theta, rho_x, rho_xx, u_x, theta_x)
    # spectra of the conservation-law right sides dx(flux); the first is rho_t
    flux_hat = np.fft.rfft(np.stack(flux, out=ws.flux), out=ws.flux_hat)
    rates = ws.rate_hat
    np.multiply(flux_hat[0, :m], ik, out=rates[0, :m])
    np.multiply(ik, rates[0, :m], out=rates[1, :m])
    np.multiply(flux_hat[1:, :m], ik, out=rates[2:, :m])
    rho_t, rho_xt, r2, r3 = np.fft.irfft(rates, n=grid.n, out=ws.rate)

    u_t, theta_t = ws.flux[:2]                       # the fluxes are spent
    np.divide(r2 - u * rho_t, rho, out=u_t)
    a31 = eps + 0.5 * u ** 2 + rho * eos.epsilon_rho(rho, theta, rho_x)
    a33 = rho * eos.epsilon_theta(rho, theta, rho_x)
    np.divide(r3 - 2.0 * rho * eos.grad_energy(rho, theta) * rho_x * rho_xt
              - a31 * rho_t - rho * u * u_t, a33, out=theta_t)
    return np.concatenate([rates[:1, :m],
                           np.fft.rfft(ws.flux[:2], out=flux_hat[:2])[:, :m]])


class IntegratingFactorRK4:
    """Lawson RK4: constant-coefficient linear part exact per Fourier mode.

    The per-mode linearization around the equilibrium state equals the
    symbol -M(i k) of the perturbation system, so the integrating factors
    exp(-h M(i k)) are assembled once from the symbol machinery.  The
    nonlinear remainder (full right side minus the linearization) is the
    only term advanced by quadrature, which removes the dispersive dt ~ dx^3
    restriction of fully explicit stepping.  The stages are retained
    (3, n//3 + 1) spectra, and ``generators``, ``e_full`` and ``e_half`` are
    (3, 3, n//3 + 1): the modes the 2/3 rule removes are never stored.  The
    stages are fresh arrays; only ``rhs`` uses the grid's workspace.
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
        # kept as (3, 3, modes), the layout _apply takes
        self.generators, self.e_full, self.e_half = (
            np.ascontiguousarray(np.moveaxis(a, 0, -1))
            for a in (gen, matrix_exponentials(gen, self.dt),
                      matrix_exponentials(gen, 0.5 * self.dt)))

    # -- packing: the stages hold the spectrum of U - Ubar, whose roundoff
    # stays at the scale of the perturbation ------------------------------

    def _pack(self, f: StateField) -> np.ndarray:
        du = np.stack([f.rho, f.u, f.theta]) - self.ubar[:, None]
        return np.fft.rfft(du)[:, :self.grid.modes]

    def _unpack(self, uh: np.ndarray) -> StateField:
        rho, u, theta = np.fft.irfft(uh, n=self.grid.n) + self.ubar[:, None]
        return StateField(self.grid, rho, u, theta)

    def _nonlinear(self, uh: np.ndarray) -> np.ndarray:
        """Spectrum of the full right side minus the linear part (-M uh)."""
        fh = uh.copy()
        fh[:, 0] += self.grid.n * self.ubar          # the mode-0 sum of Ubar
        return rhs(self.eos, self.grid, fh) + _apply(self.generators, uh)

    def step(self, f: StateField) -> StateField:
        if self.dt == 0.0:
            return f.copy()
        dt = self.dt
        e1, e2 = self.e_full, self.e_half
        u0 = self._pack(f)
        e1u0 = _apply(e1, u0)
        v = _apply(e2, u0)

        n1 = self._nonlinear(u0)
        n2 = self._nonlinear(v + 0.5 * dt * _apply(e2, n1))
        n3 = self._nonlinear(v + 0.5 * dt * n2)
        n4 = self._nonlinear(e1u0 + dt * _apply(e2, n3))
        u1 = e1u0 + (dt / 6.0) * (_apply(e1, n1) + 2.0 * _apply(e2, n2 + n3) + n4)

        out = self._unpack(u1)
        out.validate(self.rho_min, self.theta_min)
        return out


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


def sample_times(t_final: float, dt: float, sample_every: int) -> np.ndarray:
    """Times of the ledger rows of a ``run`` that is not aborted: t = 0,
    every ``sample_every``-th step and the last step."""
    n_steps = int(round(t_final / dt))
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
    the partial ledger with ``aborted`` set.
    """
    if dt <= 0:
        raise ValueError("run requires dt > 0")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    grid = SpectralGrid(n=n, length=length)
    f = initial_field(grid, equilibrium, perturbation)
    f.validate(rho_min, theta_min)
    stepper = IntegratingFactorRK4(eos, equilibrium, grid, dt,
                                   rho_min=rho_min, theta_min=theta_min)
    n_steps = int(round(t_final / dt))
    records = [(0.0, *_sample(eos, equilibrium, f))]
    aborted = None
    for i in range(1, n_steps + 1):
        try:
            f = stepper.step(f)
        except StepRejected as exc:
            aborted = str(exc)
            break
        if i % sample_every == 0 or i == n_steps:
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
