"""Conservation form and Fourier symbols of the capillary fluid system.

The full system in conservation form reads

    F0(U, U_x)_t + F1(U, U_x)_x = (G(U) U_x)_x + (H(U) U_xx)_x + g(U, U_x)_x,

where the conserved quantities F0 = (rho, rho u, rho(epsilon + u^2/2)) carry
the density gradient through the non-standard internal energy; the flux
-F1 + G U_x + H U_xx + g is written once, in ``total_flux``.  Around a
constant equilibrium Ubar the perturbation variables

    W = (D_U f0(Ubar))^{-1} (F0(U, U_x) - F0(Ubar, 0))

satisfy a partially symmetric system

    A0 W_t + A1 W_x - B W_xx - C W_xxx = dx[ N~ ],     N~ quadratic,

with constant matrices A0, A1, B symmetric (A0 > 0, B >= 0) and a
non-symmetric capillarity matrix C with single entry C[1,0] = k rho / theta.
Over a sampled field the closure is evaluated once, in ``flux_and_tensors``:
its result (F0, F1, G, H, g, the nonzero entries of D_U F0 and D_Ux F0, and
the entropy density) is what ``w_variables`` and ``nonlinear_terms`` take.
Splitting the constant-coefficient symbol into odd and even parts yields

    A(xi) = D1 - xi^2 D3 = A1 + xi^2 C,    B(xi) = -xi^2 D2 = xi^2 B,

with D1 = A1, D2 = -B, D3 = -C, and the per-mode evolution
What_t + M(i xi) What = 0 with M(i xi) = A0^{-1} (i xi A(xi) + xi^2 B).

All operations broadcast over array-valued extended states.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from . import convex_extension as cx
from .convex_extension import mat3, mv, vec3
from .thermo import EquationOfState, State

ArrayLike = Union[float, np.ndarray]

__all__ = [
    "ExtendedState",
    "EquilibriumCoefficients",
    "SymbolTriplet",
    "FluxTensors",
    "conserved_quantities",
    "total_flux",
    "flux_and_tensors",
    "d_ux_F0",
    "w_variables",
    "nonlinear_terms",
    "equilibrium_coefficients",
    "symbol_triplet",
    "evolution_symbol",
]


@dataclass(frozen=True)
class ExtendedState:
    """State plus the spatial gradients entering the conservation form.

    Fields may be scalars or broadcast-compatible arrays.
    """

    rho: ArrayLike
    u: ArrayLike
    theta: ArrayLike
    rho_x: ArrayLike = 0.0
    u_x: ArrayLike = 0.0
    theta_x: ArrayLike = 0.0
    rho_xx: ArrayLike = 0.0
    u_xx: ArrayLike = 0.0
    theta_xx: ArrayLike = 0.0

    @property
    def state(self) -> State:
        return State(rho=self.rho, u=self.u, theta=self.theta, rho_x=self.rho_x)

    @property
    def grad(self) -> np.ndarray:
        """U_x = (rho_x, u_x, theta_x) with trailing component axis."""
        return vec3([self.rho_x, self.u_x, self.theta_x])

    @property
    def grad2(self) -> np.ndarray:
        """U_xx = (rho_xx, u_xx, theta_xx)."""
        return vec3([self.rho_xx, self.u_xx, self.theta_xx])


def conserved_quantities(eos: EquationOfState, ext: ExtendedState) -> np.ndarray:
    """F0(U, U_x) = (rho, rho u, rho(epsilon + u^2/2)) = f0 + (0, 0, rho m rho_x^2)."""
    rho, u = np.asarray(ext.rho, dtype=float), np.asarray(ext.u, dtype=float)
    return _conserved(rho, u, eos.epsilon(ext.rho, ext.theta, ext.rho_x))


def _conserved(rho, u, eps) -> np.ndarray:
    """:func:`conserved_quantities` at a given internal energy eps."""
    return vec3([rho, rho * u, rho * (eps + 0.5 * u ** 2)])


class FluxTensors(NamedTuple):
    """The closure read off one extended state (see :func:`flux_and_tensors`).

    D_U F0 = [[1, 0, 0], [u, rho, 0], [a31, rho u, a33]] (``cx.jac_f0``) and
    D_Ux F0 has the single entry (3,1) = b31 = 2 rho m rho_x (``d_ux_F0``).
    """

    F0: np.ndarray
    F1: np.ndarray
    G: np.ndarray
    H: np.ndarray
    gtilde: np.ndarray
    a31: np.ndarray
    a33: np.ndarray
    b31: np.ndarray
    entropy: np.ndarray      # entropy density rho s


def _korteweg_entries(eos: EquationOfState, rho, u, theta, rho_x, u_x, theta_x):
    """Entries H[1,0] = h = k rho, H[2,0] = h u and g~ = (0, g2, g3).

    The capillary stress is K = h rho_xx + g2 and g3 = u g2 + w carries the
    interstitial work flux w = -k rho rho_x u_x.
    """
    k = eos.k(rho, theta)
    h = k * rho
    g2 = (0.5 * rho * rho_x ** 2 * eos.k_rho(rho, theta)
          + rho * rho_x * theta_x * eos.k_theta(rho, theta) - 0.5 * k * rho_x ** 2)
    g3 = u * g2 - h * rho_x * u_x
    return h, g2, g3


def total_flux(eos: EquationOfState, rho, u, theta, rho_x, rho_xx, u_x,
               theta_x) -> tuple:
    """Components of -F1 + G U_x + H U_xx + g~, whose x-derivative is F0_t.

    Builds no (..., 3, 3) tensor, so it serves the solver's hot path.
    """
    return _total_flux(eos, eos.epsilon(rho, theta, rho_x), rho, u, theta,
                       rho_x, rho_xx, u_x, theta_x)


def _total_flux(eos: EquationOfState, eps, rho, u, theta, rho_x, rho_xx, u_x,
                theta_x) -> tuple:
    """:func:`total_flux` at a given internal energy eps = epsilon(rho, theta, rho_x)."""
    h, g2, g3 = _korteweg_entries(eos, rho, u, theta, rho_x, u_x, theta_x)
    p = eos.p(rho, theta)
    stress = eos.mu(rho, theta) * u_x + h * rho_xx        # (G U_x + H U_xx)_2
    return (-rho * u,
            -(rho * u ** 2 + p) + stress + g2,
            (-(rho * u * (eps + 0.5 * u ** 2) + p * u)
             + eos.alpha(rho, theta) * theta_x + u * stress + g3))


def flux_and_tensors(eos: EquationOfState, ext: ExtendedState) -> FluxTensors:
    """Everything the W-system reads from the closure, in one pass.

    F1 = (rho u, rho u^2 + p, rho u (epsilon + u^2/2) + p u).  G(U) has
    nonzero entries only at (2,2) = mu, (3,2) = mu u and (3,3) = alpha, H(U)
    only at (2,1) = k rho and (3,1) = k rho u; the first component of g is
    identically zero and g = O(|U_x|^2).  The H and g entries are those of
    :func:`total_flux`.

    Each partial of psi is evaluated once: epsilon, its partials, p and s
    are formed here with the operations of the ``EquationOfState`` methods,
    so they agree with those bit for bit.
    """
    rho, u, theta, rho_x = (np.asarray(a, dtype=float)
                            for a in (ext.rho, ext.u, ext.theta, ext.rho_x))
    psi, kap = eos.psi, eos.kappa
    psi_r, psi_t, kap_t = psi.d_r(rho, theta), psi.d_t(rho, theta), kap.d_t(rho, theta)
    rx2 = rho_x ** 2
    m = kap(rho, theta) - theta * kap_t            # eos.grad_energy
    eps = psi(rho, theta) - theta * psi_t + m * rx2
    eps_rho = (psi_r - theta * psi.d_rt(rho, theta)
               + (kap.d_r(rho, theta) - theta * kap.d_rt(rho, theta)) * rx2)
    eps_theta = -theta * psi.d_tt(rho, theta) - theta * kap.d_tt(rho, theta) * rx2
    p = rho ** 2 * psi_r
    h, g2, g3 = _korteweg_entries(eos, rho, u, theta, ext.rho_x, ext.u_x, ext.theta_x)

    shape = np.broadcast(rho, u, theta).shape + (3, 3)
    mu = eos.mu(rho, theta)
    G = np.zeros(shape)
    G[..., 1, 1] = mu
    G[..., 2, 1] = mu * u
    G[..., 2, 2] = eos.alpha(rho, theta)
    H = np.zeros(shape)
    H[..., 1, 0] = h
    H[..., 2, 0] = h * u
    return FluxTensors(
        F0=_conserved(rho, u, eps),
        F1=vec3([rho * u, rho * u ** 2 + p, rho * u * (eps + 0.5 * u ** 2) + p * u]),
        G=G, H=H, gtilde=vec3([0.0, g2, g3]),
        a31=eps + 0.5 * u ** 2 + rho * eps_rho, a33=rho * eps_theta,
        b31=2.0 * rho * m * rho_x, entropy=rho * (-psi_t - kap_t * rx2))


def d_ux_F0(eos: EquationOfState, ext: ExtendedState) -> np.ndarray:
    """Jacobian of F0 in the gradient variables; single entry (3,1) = 2 rho m rho_x."""
    rho = np.asarray(ext.rho, dtype=float)
    rx = np.asarray(ext.rho_x, dtype=float)
    m = eos.grad_energy(ext.rho, ext.theta)
    z = np.zeros_like(rho * rx)
    return mat3([[z, z, z], [z, z, z], [2.0 * rho * m * rx, z, z]])


@dataclass(frozen=True)
class _EquilibriumTerms:
    """Constant matrices of :func:`w_variables` and :func:`nonlinear_terms`.

    jac0_inv = (D_U f0(Ubar))^{-1}; the three maps are Jf1bar, Gbar and Hbar
    each times jac0_inv; L is the symmetrizer and a0_diag the diagonal of A0.
    """

    jac0_inv: np.ndarray
    f0: np.ndarray
    f1: np.ndarray
    flux_map: np.ndarray
    visc_map: np.ndarray
    cap_map: np.ndarray
    L: np.ndarray
    a0_diag: np.ndarray


@functools.lru_cache(maxsize=8)
def _equilibrium_terms_at(eos: EquationOfState, rho: float, u: float,
                          theta: float) -> _EquilibriumTerms:
    ubar = State(rho, u, theta)
    jac0 = cx.jac_f0(eos, ubar)
    jac0_inv = cx.jac_f0_inv(eos, ubar)
    h_bar = flux_and_tensors(eos, ExtendedState(rho, u, theta)).H
    a0_bar, _, _ = cx.coefficient_matrices(eos, ubar)
    return _EquilibriumTerms(
        jac0_inv=jac0_inv, f0=cx.f0(eos, ubar), f1=cx.f1(eos, ubar),
        flux_map=cx.jac_f1(eos, ubar) @ jac0_inv,
        visc_map=cx.visc_matrix(eos, ubar) @ jac0_inv,
        cap_map=h_bar @ jac0_inv,
        # symmetrizing factor L = (D_U f0)^T (D_U Z) (D_U f0)^{-1}
        L=jac0.T @ cx.jac_z(eos, ubar) @ jac0_inv,
        a0_diag=np.stack([a0_bar[0, 0], a0_bar[1, 1], a0_bar[2, 2]]))


def _equilibrium_terms(eos: EquationOfState, ubar: State) -> _EquilibriumTerms:
    """Built once per (closure, equilibrium) pair and reused across calls."""
    return _equilibrium_terms_at(eos, float(np.asarray(ubar.rho)),
                                 float(np.asarray(ubar.u)),
                                 float(np.asarray(ubar.theta)))


def w_variables(eos: EquationOfState, ubar: State,
                tensors: FluxTensors) -> np.ndarray:
    """Perturbation variables W = (D_U f0(Ubar))^{-1} (F0(U,U_x) - F0(Ubar,0)).

    F0 is ``tensors.F0`` of :func:`flux_and_tensors`.  The first component
    is exactly rho - rhobar and the second is rho (u - ubar) / rhobar; all
    higher corrections sit in the third slot.
    """
    c = _equilibrium_terms(eos, ubar)
    return mv(c.jac0_inv, tensors.F0 - c.f0)


def nonlinear_terms(eos: EquationOfState, ubar: State, ext: ExtendedState,
                    tensors: FluxTensors) -> np.ndarray:
    """Quadratic right-hand side N of the perturbation system W_t = A W + dx N.

    In matrix form N = A0^{-1} L (r + r_visc + r_cap + g~), symmetrized by
    L = (D_U f0)^T D_V^2 E (D_U f0)^{-1} at the equilibrium, with

        r      = -(F1 - F1bar) + Jf1bar Jf0bar^{-1} (F0 - F0bar),
        r_visc = G U_x - Gbar Jf0bar^{-1} D_U F0 U_x,
        r_cap  = H U_xx - Hbar Jf0bar^{-1} D_U F0 U_xx
                 - Gbar Jf0bar^{-1} D_Ux F0 U_xx,

    the flux, viscosity and capillarity remainders (the remainders
    [G(U) (D_U F0)^{-1} - Gbar Jf0bar^{-1}] D_U F0 U_x and its H analogue
    with (D_U F0)^{-1} D_U F0 = I multiplied out).  The first component
    vanishes identically (continuity has no nonlinear remainder in these
    variables) and the whole term is O(|U - Ubar|^2 + |U_x|^2 + ...).

    It is evaluated entrywise: G U_x, H U_xx, D_U F0 U_x, D_U F0 U_xx and
    D_Ux F0 U_xx are formed from the few nonzero entries of their matrices,
    all read from ``tensors = flux_and_tensors(eos, ext)``; the closure is
    not evaluated again.  Only the constant equilibrium maps, built once per
    (closure, equilibrium) pair, are applied as 3x3 matrices.

    The capillarity remainder has no third-gradient part: the bracket
    -Hbar (D_U f0(Ubar))^{-1} [dx(D_U F0) U_x + D_Ux F0 U_xxx + dx(D_Ux F0) U_xx]
    is annihilated.  The prefactor's only nonzero column is the first, so
    only the bracket's first component matters; the first row of D_U F0 is
    the constant (1, 0, 0) and the first row of D_Ux F0 vanishes, hence that
    component is identically zero.
    """
    c = _equilibrium_terms(eos, ubar)
    t = tensors
    rho, u, rho_x, u_x, theta_x, rho_xx, u_xx, theta_xx = (
        np.asarray(a, dtype=float) for a in (
            ext.rho, ext.u, ext.rho_x, ext.u_x, ext.theta_x,
            ext.rho_xx, ext.u_xx, ext.theta_xx))
    rho_u = rho * u

    def jac_f0_times(v1, v2, v3):
        return vec3([v1, u * v1 + rho * v2, t.a31 * v1 + rho_u * v2 + t.a33 * v3])

    r = -(t.F1 - c.f1) + mv(c.flux_map, t.F0 - c.f0)

    G, H = t.G, t.H
    r_visc = (vec3([0.0, G[..., 1, 1] * u_x,
                    G[..., 2, 1] * u_x + G[..., 2, 2] * theta_x])
              - mv(c.visc_map, jac_f0_times(rho_x, u_x, theta_x)))

    i1 = -mv(c.visc_map, vec3([0.0, 0.0, t.b31 * rho_xx]))
    i2 = (vec3([0.0, H[..., 1, 0] * rho_xx, H[..., 2, 0] * rho_xx])
          - mv(c.cap_map, jac_f0_times(rho_xx, u_xx, theta_xx)))

    n_tilde = mv(c.L, r + r_visc + i1 + i2 + t.gtilde)
    # A0 is diagonal: divide componentwise
    return n_tilde / c.a0_diag


@dataclass(frozen=True)
class EquilibriumCoefficients:
    """Constant coefficient matrices and derived scalars at an equilibrium state.

    beta(xi) = p_rho + xi^2 k rho > 0 collects the dispersive stiffening of
    the pressure; cbar = p_theta sqrt(theta) / (sqrt(e_theta) rho) is the
    thermal coupling speed.
    """

    rho: float
    u: float
    theta: float
    p_rho: float
    p_theta: float
    e_theta: float
    mu: float
    alpha: float
    k: float
    A0: np.ndarray
    A1: np.ndarray
    B: np.ndarray
    C: np.ndarray

    @property
    def cbar(self) -> float:
        return self.p_theta * np.sqrt(self.theta) / (np.sqrt(self.e_theta) * self.rho)

    def beta(self, xi: ArrayLike) -> ArrayLike:
        return self.p_rho + np.asarray(xi, dtype=float) ** 2 * self.k * self.rho

    def sound_speed(self) -> float:
        """Long-wave characteristic speed sqrt(cbar^2 + p_rho) of the symbol."""
        return float(np.sqrt(self.cbar ** 2 + self.p_rho))


def equilibrium_coefficients(eos: EquationOfState, ubar: State) -> EquilibriumCoefficients:
    """Evaluate A0, A1, B, C and the scalar data at a constant state."""
    s = State(ubar.rho, ubar.u, ubar.theta)
    a0, a1, b = cx.coefficient_matrices(eos, s)
    rho = float(np.asarray(ubar.rho))
    u = float(np.asarray(ubar.u))
    theta = float(np.asarray(ubar.theta))
    k = float(np.asarray(eos.k(rho, theta)))
    c = np.zeros((3, 3))
    c[1, 0] = k * rho / theta
    return EquilibriumCoefficients(
        rho=rho, u=u, theta=theta,
        p_rho=float(np.asarray(eos.p_rho(rho, theta))),
        p_theta=float(np.asarray(eos.p_theta(rho, theta))),
        e_theta=float(np.asarray(eos.e_theta(rho, theta))),
        mu=float(np.asarray(eos.mu(rho, theta))),
        alpha=float(np.asarray(eos.alpha(rho, theta))),
        k=k, A0=np.asarray(a0), A1=np.asarray(a1), B=np.asarray(b), C=c,
    )


@dataclass(frozen=True)
class SymbolTriplet:
    """Odd/even split of the third-order constant-coefficient symbol.

    D1 = A1, D2 = -B, D3 = -C are the coefficients of the first, second and
    third derivative.  A(xi) = D1 - xi^2 D3 collects the odd (hyperbolic and
    dispersive) part, B(xi) = -xi^2 D2 >= 0 the even (dissipative) part.
    """

    A0: np.ndarray
    D1: np.ndarray
    D2: np.ndarray
    D3: np.ndarray

    def a0(self, xi: ArrayLike = 0.0) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        return np.broadcast_to(self.A0, xi.shape + (3, 3))

    def a(self, xi: ArrayLike) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        return (self.D1 - xi[..., None, None] ** 2 * self.D3)

    def b(self, xi: ArrayLike) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        return -xi[..., None, None] ** 2 * self.D2


def symbol_triplet(coeffs: EquilibriumCoefficients) -> SymbolTriplet:
    return SymbolTriplet(A0=coeffs.A0, D1=coeffs.A1, D2=-coeffs.B, D3=-coeffs.C)


def evolution_symbol(coeffs: EquilibriumCoefficients, xi: ArrayLike) -> np.ndarray:
    """Per-mode generator M(i xi) = A0^{-1} (i xi A(xi) + xi^2 B).

    The Fourier transform of the linear system is What_t + M(i xi) What = 0;
    M(0) = 0 and M(-xi) = conj(M(xi)).
    """
    xi = np.asarray(xi, dtype=float)
    trip = symbol_triplet(coeffs)
    a = trip.a(xi)
    b = trip.b(xi)
    a0_inv = np.linalg.inv(coeffs.A0)
    return a0_inv @ (1j * xi[..., None, None] * a + b)
