"""Conservation form and Fourier symbols of the capillary fluid system.

The full system in conservation form reads

    F0(U, U_x)_t + F1(U, U_x)_x = (G(U) U_x)_x + (H(U) U_xx)_x + g(U, U_x)_x,

where the conserved quantities F0 = (rho, rho u, rho(epsilon + u^2/2)) carry
the density gradient through the non-standard internal energy.  The closure
is written once, in ``_closure``: one pointwise pass that evaluates each
partial of psi and kappa once and returns the entries that the flux
-F1 + G U_x + H U_xx + g (``_total_flux``), D_U F0 and D_Ux F0 are made of.
Around a constant equilibrium Ubar the perturbation variables

    W = (D_U f0(Ubar))^{-1} (F0(U, U_x) - F0(Ubar, 0))

satisfy a partially symmetric system

    A0 W_t + A1 W_x - B W_xx - C W_xxx = dx[ N~ ],     N~ quadratic,

with constant matrices A0, A1, B symmetric (A0 > 0, B >= 0) and a
non-symmetric capillarity matrix C with single entry C[1,0] = k rho / theta.
Over a sampled field ``flux_and_tensors`` reads that pass: its result (F0,
F1, the nonzero entries of G, H, D_U F0 and D_Ux F0, g, and the entropy
density) is what ``w_variables`` and ``nonlinear_terms`` take.
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
    "flux_and_tensors",
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


class _Closure(NamedTuple):
    """Pointwise entries of the closure at one extended state (see :func:`_closure`)."""

    energy: ArrayLike    # epsilon + u^2/2, epsilon = e + m rho_x^2
    p: ArrayLike         # pressure rho^2 psi_rho
    mu: ArrayLike
    alpha: ArrayLike
    h: ArrayLike         # k rho, k = 2 rho kappa
    g2: ArrayLike        # g~ = (0, g2, g3)
    g3: ArrayLike
    a31: ArrayLike       # D_U F0[2, 0]
    a33: ArrayLike       # D_U F0[2, 2]
    b31: ArrayLike       # D_Ux F0[2, 0] = 2 rho m rho_x, m = kappa - theta kappa_theta
    s: ArrayLike         # specific entropy eta - kappa_theta rho_x^2, eta = -psi_theta


def _zero(a) -> bool:
    """Whether a closure factor is an exact scalar zero (see :func:`_closure`)."""
    return not isinstance(a, np.ndarray) and a == 0.0


def _mul(*factors):
    """The product of ``factors`` from left to right; the scalar 0.0 without
    any array work when one of them is an exact scalar zero."""
    for f in factors:
        if _zero(f):
            return 0.0
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


def _add(a, b):
    """a + b, with an exact scalar zero on either side not added."""
    return b if _zero(a) else a if _zero(b) else a + b


def _sub(a, b):
    """a - b, with an exact scalar zero on either side not subtracted."""
    return a if _zero(b) else -b if _zero(a) else a - b


def _closure(eos: EquationOfState, rho, u, theta, rho_x, u_x, theta_x) -> _Closure:
    """The closure at one extended state, each partial of psi and kappa evaluated once.

    The capillary stress is K = h rho_xx + g2, and g3 = u g2 + w carries the
    interstitial work flux w = -h rho_x u_x.  epsilon, its partials, p, s and
    the relabeled capillarity k = 2 rho kappa with its partials are formed
    with the operations of the ``EquationOfState`` methods, so each entry
    agrees with those bit for bit.  Each intermediate is deleted once spent:
    on a field every entry is an array, and the fewer of them are alive at
    once, the less the heap grows and is trimmed again on every ``rhs``.

    A term whose closure factor (kappa or one of its partials, mu or alpha)
    is an exact scalar zero is not formed: ``_mul`` returns the scalar 0.0
    for it, and ``_add`` and ``_sub`` leave it out of its sum.  Adding
    0.0 * x to a finite value gives that value back (up to the sign of a
    zero), and the terms that remain are summed and multiplied in the same
    order as with the zero terms in place, so the entries are the same bit
    for bit.  A constant kappa (``Coefficient.constant``) drops the terms of
    the four partials this pass reads; an entry whose every term drops out,
    such as b31 or h at kappa = 0, is the scalar 0.0.
    """
    psi, kap = eos.psi, eos.kappa
    rx2 = rho_x ** 2
    kap_v, kap_r, kap_t = kap(rho, theta), kap.d_r(rho, theta), kap.d_t(rho, theta)
    k = _mul(2.0, rho, kap_v)
    h = _mul(k, rho)
    k_rho = _add(_mul(2.0, kap_v), _mul(2.0, rho, kap_r))
    g2 = _sub(_add(_mul(0.5, rho, rx2, k_rho),
                   _mul(rho, rho_x, theta_x, _mul(2.0, rho, kap_t))),
              _mul(0.5, k, rx2))
    m = _sub(kap_v, _mul(theta, kap_t))
    del k, k_rho, kap_v
    psi_t = psi.d_t(rho, theta)
    energy = _add(psi(rho, theta) - theta * psi_t, _mul(m, rx2)) + 0.5 * u ** 2
    b31 = _mul(2.0, rho, m, rho_x)
    s = _sub(-psi_t, _mul(kap_t, rx2))
    del m, psi_t, kap_t
    psi_r = psi.d_r(rho, theta)
    p = rho ** 2 * psi_r
    a31 = energy + rho * _add(psi_r - theta * psi.d_rt(rho, theta),
                              _mul(_sub(kap_r, _mul(theta, kap.d_rt(rho, theta))), rx2))
    del psi_r, kap_r
    a33 = rho * _sub(-theta * psi.d_tt(rho, theta), _mul(theta, kap.d_tt(rho, theta), rx2))
    return _Closure(energy=energy, p=p, mu=eos.mu(rho, theta),
                    alpha=eos.alpha(rho, theta), h=h, g2=g2,
                    g3=_sub(_mul(u, g2), _mul(h, rho_x, u_x)),
                    a31=a31, a33=a33, b31=b31, s=s)


def _total_flux(c: _Closure, rho, u, rho_xx, u_x, theta_x, out: np.ndarray) -> np.ndarray:
    """Components of -F1 + G U_x + H U_xx + g~, whose x-derivative is F0_t.

    ``c`` is the closure pass at the same state; the three components are
    written in place to the rows of ``out``, which is returned.  A term of
    ``c`` that is an exact scalar zero is not added (see :func:`_closure`).
    Builds no (..., 3, 3) tensor, so it serves the solver's hot path.
    """
    stress = _add(_mul(c.mu, u_x), _mul(c.h, rho_xx))      # (G U_x + H U_xx)_2
    # views of the rows, 0-d where the state is a scalar
    mass, momentum, energy = (out[i, ...] for i in range(3))
    np.negative(rho, out=mass)
    mass *= u
    # -(rho u^2 + p) + stress + g2
    np.square(u, out=momentum)
    momentum *= rho
    momentum += c.p
    np.negative(momentum, out=momentum)
    for term in (stress, c.g2):
        if not _zero(term):
            momentum += term
    # -(rho u (epsilon + u^2/2) + p u) + alpha theta_x + u stress + g3
    np.multiply(rho, u, out=energy)
    energy *= c.energy
    energy += c.p * u
    np.negative(energy, out=energy)
    for term in (_mul(c.alpha, theta_x), _mul(u, stress), c.g3):
        if not _zero(term):
            energy += term
    return out


class FluxTensors(NamedTuple):
    """What the W-system reads from the closure (see :func:`flux_and_tensors`).

    G(U) has nonzero entries only at (2,2) = mu, (3,2) = mu u and
    (3,3) = alpha, H(U) only at (2,1) = h = k rho and (3,1) = h u.
    D_U F0 = [[1, 0, 0], [u, rho, 0], [a31, rho u, a33]] (``cx.jac_f0``) and
    D_Ux F0 has the single entry (3,1) = b31 = 2 rho m rho_x; all of these
    entries are those of :func:`_closure`.
    """

    F0: np.ndarray
    F1: np.ndarray
    mu: ArrayLike
    alpha: ArrayLike
    h: ArrayLike
    gtilde: np.ndarray
    a31: ArrayLike
    a33: ArrayLike
    b31: ArrayLike
    entropy: np.ndarray      # entropy density rho s


def flux_and_tensors(eos: EquationOfState, ext: ExtendedState) -> FluxTensors:
    """Everything the W-system reads from the closure, from one :func:`_closure` pass.

    F0 = (rho, rho u, rho(epsilon + u^2/2)) and
    F1 = (rho u, rho u^2 + p, rho u (epsilon + u^2/2) + p u); the first
    component of g is identically zero and g = O(|U_x|^2).
    """
    rho, u, theta, rho_x = (np.asarray(a, dtype=float)
                            for a in (ext.rho, ext.u, ext.theta, ext.rho_x))
    c = _closure(eos, rho, u, theta, rho_x, ext.u_x, ext.theta_x)
    return FluxTensors(
        F0=vec3([rho, rho * u, rho * c.energy]),
        F1=vec3([rho * u, rho * u ** 2 + c.p, rho * u * c.energy + c.p * u]),
        mu=c.mu, alpha=c.alpha, h=c.h, gtilde=vec3([0.0, c.g2, c.g3]),
        a31=c.a31, a33=c.a33, b31=c.b31, entropy=rho * c.s)


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
    h = flux_and_tensors(eos, ExtendedState(rho, u, theta)).h
    a0_bar, _, _ = cx.coefficient_matrices(eos, ubar)
    return _EquilibriumTerms(
        jac0_inv=jac0_inv, f0=cx.f0(eos, ubar), f1=cx.f1(eos, ubar),
        flux_map=cx.jac_f1(eos, ubar) @ jac0_inv,
        visc_map=cx.visc_matrix(eos, ubar) @ jac0_inv,
        cap_map=mat3([[0.0, 0.0, 0.0], [h, 0.0, 0.0], [h * u, 0.0, 0.0]]) @ jac0_inv,
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

    r_visc = (vec3([0.0, t.mu * u_x, t.mu * u * u_x + t.alpha * theta_x])
              - mv(c.visc_map, jac_f0_times(rho_x, u_x, theta_x)))

    i1 = -mv(c.visc_map, vec3([0.0, 0.0, t.b31 * rho_xx]))
    i2 = (vec3([0.0, t.h * rho_xx, t.h * u * rho_xx])
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
