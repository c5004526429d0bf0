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

The default time stepper is an integrating-factor RK4 (Lawson scheme; see
Cox & Matthews, J. Comput. Phys. 176 (2002) and Kassam & Trefethen, SIAM J.
Sci. Comput. 26 (2005) for the exponential-integrator family): the
constant-coefficient linearization is applied exactly per Fourier mode, which
removes the third-order dispersive stiffness (dt ~ dx^3 for explicit
stepping).  A classical explicit RK4 stepper is available for cross-checks.

The primitive-variable time derivative is recovered from the conserved-
variable one through the (lower-triangular, always invertible) Jacobian of
the conserved quantities, which carries a density-gradient dependence through
the non-standard internal energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    "ClassicalRK4",
    "make_stepper",
    "initial_field",
    "run",
    "w_diagnostics",
    "triple_norm",
]


class StepRejected(RuntimeError):
    """A time step produced a field outside the admissible domain."""


@dataclass(frozen=True)
class SpectralGrid:
    """Equispaced periodic grid on [0, L) with rfft workspace."""

    n: int
    length: float

    def __post_init__(self):
        if self.n & (self.n - 1):
            raise ValueError("grid size must be a power of two")
        if self.length <= 0:
            raise ValueError("domain length must be positive")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * self.dx

    @property
    def k(self) -> np.ndarray:
        """rfft wavenumbers 2 pi m / L, m = 0..n/2."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.dx)

    @property
    def dealias_mask(self) -> np.ndarray:
        # 2/3 rule: keep rfft bins m <= n/3
        m = np.arange(self.n // 2 + 1)
        return m <= self.n // 3

    def deriv(self, f: np.ndarray, order: int = 1, dealias: bool = False) -> np.ndarray:
        fh = np.fft.rfft(f)
        if dealias:
            fh = fh * self.dealias_mask
        return np.fft.irfft((1j * self.k) ** order * fh, n=self.n)

    def dealias(self, f: np.ndarray) -> np.ndarray:
        return np.fft.irfft(np.fft.rfft(f) * self.dealias_mask, n=self.n)

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
        return ExtendedState(
            rho=self.rho, u=self.u, theta=self.theta,
            rho_x=g.deriv(self.rho), u_x=g.deriv(self.u), theta_x=g.deriv(self.theta),
            rho_xx=g.deriv(self.rho, 2), u_xx=g.deriv(self.u, 2),
            theta_xx=g.deriv(self.theta, 2), rho_xxx=g.deriv(self.rho, 3),
        )

    def copy(self) -> "StateField":
        return StateField(self.grid, self.rho.copy(), self.u.copy(), self.theta.copy())


def rhs(eos: EquationOfState, field: StateField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time derivative (rho_t, u_t, theta_t) of the primitive fields.

    The conservation-law right sides are assembled as single divergence terms
    (one spectral derivative of the dealiased ``symbols.total_flux`` per
    equation), then
    converted to primitive rates through the conserved-quantity Jacobian.
    At a constant field the result is identically zero.
    """
    g = field.grid
    rho, u, theta = field.rho, field.u, field.theta

    rho_x = g.deriv(rho)
    rho_xx = g.deriv(rho, 2)
    u_x = g.deriv(u)
    theta_x = g.deriv(theta)

    flux1, flux2, flux3 = sym.total_flux(eos, rho, u, theta, rho_x, rho_xx,
                                         u_x, theta_x)
    eps = np.asarray(eos.epsilon(rho, theta, rho_x))
    eps_r = np.asarray(eos.epsilon_rho(rho, theta, rho_x))
    eps_t = np.asarray(eos.epsilon_theta(rho, theta, rho_x))
    m = np.asarray(eos.grad_energy(rho, theta))

    mask = g.dealias_mask
    f1h = np.fft.rfft(flux1) * mask
    ik = 1j * g.k
    r1 = np.fft.irfft(ik * f1h, n=g.n)
    rho_xt = np.fft.irfft(ik ** 2 * f1h, n=g.n)  # d/dx of rho_t, same spectrum
    r2 = np.fft.irfft(ik * (np.fft.rfft(flux2) * mask), n=g.n)
    r3 = np.fft.irfft(ik * (np.fft.rfft(flux3) * mask), n=g.n)

    rho_t = r1
    u_t = (r2 - u * rho_t) / rho
    a31 = eps + 0.5 * u ** 2 + rho * eps_r
    theta_t = (r3 - 2.0 * rho * m * rho_x * rho_xt
               - a31 * rho_t - rho * u * u_t) / (rho * eps_t)
    return rho_t, u_t, theta_t


class IntegratingFactorRK4:
    """Lawson RK4: constant-coefficient linear part exact per Fourier mode.

    The per-mode linearization around the equilibrium state equals the
    symbol -M(i k) of the perturbation system, so the integrating factors
    exp(-h M(i k)) are assembled once from the symbol machinery.  The
    nonlinear remainder (full right side minus the linearization) is the
    only term advanced by quadrature, which removes the dispersive dt ~ dx^3
    restriction of fully explicit stepping.
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
        gen = evolution_symbol(coeffs, grid.k)       # (K, 3, 3)
        self.generators = gen
        self.e_full = matrix_exponentials(gen, self.dt)
        self.e_half = matrix_exponentials(gen, 0.5 * self.dt)

    # -- packing ------------------------------------------------------------

    def _pack(self, f: StateField) -> np.ndarray:
        out = np.empty((self.grid.n // 2 + 1, 3), dtype=complex)
        out[:, 0] = np.fft.rfft(f.rho - self.ubar[0])
        out[:, 1] = np.fft.rfft(f.u - self.ubar[1])
        out[:, 2] = np.fft.rfft(f.theta - self.ubar[2])
        return out

    def _unpack(self, uh: np.ndarray) -> StateField:
        n = self.grid.n
        mask = self.grid.dealias_mask
        rho = np.fft.irfft(uh[:, 0] * mask, n=n) + self.ubar[0]
        u = np.fft.irfft(uh[:, 1] * mask, n=n) + self.ubar[1]
        theta = np.fft.irfft(uh[:, 2] * mask, n=n) + self.ubar[2]
        return StateField(self.grid, rho, u, theta)

    def _nonlinear(self, uh: np.ndarray) -> np.ndarray:
        """rfft of the full right side minus the linear part (-M uh)."""
        f = self._unpack(uh)
        rho_t, u_t, theta_t = rhs(self.eos, f)
        nh = np.empty_like(uh)
        nh[:, 0] = np.fft.rfft(rho_t)
        nh[:, 1] = np.fft.rfft(u_t)
        nh[:, 2] = np.fft.rfft(theta_t)
        nh += np.einsum("kij,kj->ki", self.generators, uh)
        return nh

    def step(self, f: StateField) -> StateField:
        if self.dt == 0.0:
            return f.copy()
        dt = self.dt
        e1, e2 = self.e_full, self.e_half
        u0 = self._pack(f)
        mv = lambda e, v: np.einsum("kij,kj->ki", e, v)

        n1 = self._nonlinear(u0)
        v = mv(e2, u0)
        n2 = self._nonlinear(v + 0.5 * dt * mv(e2, n1))
        n3 = self._nonlinear(v + 0.5 * dt * n2)
        n4 = self._nonlinear(mv(e1, u0) + dt * mv(e2, n3))
        u1 = mv(e1, u0) + (dt / 6.0) * (mv(e1, n1) + 2.0 * mv(e2, n2 + n3) + n4)

        out = self._unpack(u1)
        out.validate(self.rho_min, self.theta_min)
        return out


class ClassicalRK4:
    """Fully explicit fourth-order Runge-Kutta stepper.

    Subject to the dispersive stability restriction; ``stability_limit``
    estimates the largest admissible dt from the spectral radius of the
    linearized symbol at the highest retained wavenumber.
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
        self.equilibrium = equilibrium

    def stability_limit(self) -> float:
        coeffs = equilibrium_coefficients(self.eos, self.equilibrium)
        k_eff = self.grid.k[self.grid.dealias_mask]
        gen = evolution_symbol(coeffs, k_eff[-1:])
        radius = float(np.abs(np.linalg.eigvals(gen)).max())
        return 2.8 / radius if radius > 0 else np.inf

    def step(self, f: StateField) -> StateField:
        if self.dt == 0.0:
            return f.copy()
        dt = self.dt
        g = self.grid

        def add(fld, rates, scale):
            return StateField(g, fld.rho + scale * rates[0],
                              fld.u + scale * rates[1],
                              fld.theta + scale * rates[2])

        k1 = rhs(self.eos, f)
        k2 = rhs(self.eos, add(f, k1, 0.5 * dt))
        k3 = rhs(self.eos, add(f, k2, 0.5 * dt))
        k4 = rhs(self.eos, add(f, k3, dt))
        out = StateField(
            g,
            g.dealias(f.rho + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])),
            g.dealias(f.u + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])),
            g.dealias(f.theta + dt / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])),
        )
        out.validate(self.rho_min, self.theta_min)
        return out


def make_stepper(scheme: str, eos, equilibrium, grid, dt, **kw):
    if scheme == "if-rk4":
        return IntegratingFactorRK4(eos, equilibrium, grid, dt, **kw)
    if scheme == "rk4":
        return ClassicalRK4(eos, equilibrium, grid, dt, **kw)
    raise ValueError(f"unknown scheme {scheme!r} (expected 'if-rk4' or 'rk4')")


@dataclass(frozen=True)
class PerturbationSpec:
    """Localized initial perturbation added to the constant state."""

    shape: str = "gaussian"          # gaussian | wave_packet
    amplitude: float = 1e-2
    width: float = 10.0
    fields: tuple = ("rho",)
    center: Optional[float] = None   # default: mid-domain
    wavenumber: float = 1.0          # carrier for wave_packet

    def profile(self, x: np.ndarray, length: float) -> np.ndarray:
        c = 0.5 * length if self.center is None else self.center
        bump = np.exp(-((x - c) / self.width) ** 2)
        if self.shape == "gaussian":
            return self.amplitude * bump
        if self.shape == "wave_packet":
            return self.amplitude * bump * np.cos(self.wavenumber * (x - c))
        raise ValueError(f"unknown perturbation shape {self.shape!r}")


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


def triple_norm(grid: SpectralGrid, v1: np.ndarray, v2: np.ndarray,
                v3: np.ndarray) -> float:
    """Discrete anisotropic norm: one extra derivative on the first component.

    sqrt( ||v1||^2 + ||v1_x||^2 + ||v2||^2 + ||v3||^2 ), the periodic
    realization of the weighted modal energy used on the linear side.
    """
    v1x = grid.deriv(v1)
    return float(np.sqrt(grid.integral(v1 ** 2 + v1x ** 2 + v2 ** 2 + v3 ** 2)))


@dataclass
class WDiagnostics:
    w: np.ndarray            # (3, n) perturbation variables
    norm_w: float
    norm_u: float            # triple norm of U - Ubar
    ratio: Optional[float]   # norm_w / norm_u, None at equilibrium
    max_n1: float            # first component of the quadratic terms
    max_n: float             # largest component magnitude of the quadratic terms
    nonlinear_scale: float   # flux magnitude used to normalize max_n1


def w_diagnostics(eos: EquationOfState, equilibrium: State,
                  f: StateField) -> WDiagnostics:
    """Perturbation variables, norm equivalence ratio, and quadratic-term residuals."""
    ext = f.extended()
    w = sym.w_variables(eos, equilibrium, ext)        # (n, 3)
    n_terms = sym.nonlinear_terms(eos, equilibrium, ext)
    g = f.grid
    norm_w = triple_norm(g, w[:, 0], w[:, 1], w[:, 2])
    norm_u = triple_norm(g, f.rho - float(np.asarray(equilibrium.rho)),
                         f.u - float(np.asarray(equilibrium.u)),
                         f.theta - float(np.asarray(equilibrium.theta)))
    ratio = norm_w / norm_u if norm_u > 0 else None
    tensors = sym.flux_and_tensors(eos, ext)
    scale = max(float(np.abs(tensors.F1).max()), 1.0)
    return WDiagnostics(w=w.T, norm_w=norm_w, norm_u=norm_u, ratio=ratio,
                        max_n1=float(np.abs(n_terms[:, 0]).max()),
                        max_n=float(np.abs(n_terms).max()),
                        nonlinear_scale=scale)


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
            })
        return out


def _sample(eos, equilibrium, f: StateField):
    g = f.grid
    rho, u, theta = f.rho, f.u, f.theta
    rho_x = g.deriv(rho)
    eps = np.asarray(eos.epsilon(rho, theta, rho_x))
    s = np.asarray(eos.s(rho, theta, rho_x))
    diag = w_diagnostics(eos, equilibrium, f)
    return (
        g.integral(rho),
        g.integral(rho * u),
        g.integral(rho * (eps + 0.5 * u ** 2)),
        g.integral(rho * s),
        diag.norm_u,
        diag.norm_w,
        diag.ratio if diag.ratio is not None else np.nan,
        diag.max_n1,
        diag.max_n,
        diag.nonlinear_scale,
    )


def run(eos: EquationOfState, equilibrium: State, perturbation: PerturbationSpec,
        t_final: float, dt: float, length: float = 400.0, n: int = 4096,
        scheme: str = "if-rk4", sample_every: int = 50,
        rho_min: float = 0.0, theta_min: float = 0.0) -> DiagnosticsLedger:
    """Integrate a localized perturbation and record the diagnostics ledger.

    The decay-fit window is truncated at the wrap-around time
    L / (2 c_sound), past which the periodic images contaminate the
    whole-line decay.  Blow-up or domain exit terminates the run and returns
    the partial ledger with ``aborted`` set.
    """
    if dt <= 0:
        raise ValueError("run requires dt > 0")
    grid = SpectralGrid(n=n, length=length)
    f = initial_field(grid, equilibrium, perturbation)
    f.validate(rho_min, theta_min)
    stepper = make_stepper(scheme, eos, equilibrium, grid, dt,
                           rho_min=rho_min, theta_min=theta_min)
    coeffs = equilibrium_coefficients(eos, equilibrium)
    speed = abs(coeffs.u) + coeffs.sound_speed()
    wrap_time = length / (2.0 * speed) if speed > 0 else np.inf

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
        wrap_time=wrap_time, aborted=aborted)
