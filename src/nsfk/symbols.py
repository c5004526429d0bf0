"""Conservation form and Fourier symbols of the capillary fluid system.

The full system in conservation form reads

    F0(U, U_x)_t + F1(U, U_x)_x = (G(U) U_x)_x + (H(U) U_xx)_x + g(U, U_x)_x,

where the conserved quantities F0 = (rho, rho u, rho(epsilon + u^2/2)) carry
the density gradient through the non-standard internal energy.  The closure
is written once, in ``_closure``: one pointwise pass that evaluates each
potential and each partial of kappa once and returns the entries that the
flux -F1 + G U_x + H U_xx + g (``_total_flux``), D_U F0 and D_Ux F0 are
made of.  The heat flux alpha theta_x is left out of ``_total_flux``: with
a constant conductivity it is linear in theta, and the solver adds it per
Fourier mode.
Around a constant equilibrium Ubar the perturbation variables

    W = (D_U f0(Ubar))^{-1} (F0(U, U_x) - F0(Ubar, 0))

satisfy a partially symmetric system

    A0 W_t + A1 W_x - B W_xx - C W_xxx = dx[ N~ ],     N~ quadratic,

with constant matrices A0, A1, B symmetric (A0 > 0, B >= 0) and a
non-symmetric capillarity matrix C with single entry C[1,0] = k rho / theta.
Over a sampled field ``flux_and_tensors`` reads that pass: its result (F0
and the solver's flux ``_total_flux`` as (3, ...) rows, the entropy density
and the pass itself, whose entries hold the nonzero entries of G, H, D_U F0,
D_Ux F0 and g) is what ``w_variables`` and ``nonlinear_terms`` take.
Splitting the constant-coefficient symbol into odd and even parts yields

    A(xi) = A1 + xi^2 C,    B(xi) = xi^2 B,

and the per-mode evolution What_t + M(i xi) What = 0 with
M(i xi) = A0^{-1} (i xi A(xi) + B(xi)).

All operations broadcast over array-valued extended states.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from . import convex_extension as cx
from .thermo import EquationOfState, State

ArrayLike = Union[float, np.ndarray]

__all__ = [
    "ExtendedState",
    "EquilibriumCoefficients",
    "FluxTensors",
    "flux_and_tensors",
    "w_variables",
    "nonlinear_terms",
    "equilibrium_coefficients",
    "evolution_symbol",
    "symbol_symmetrizer",
    "real_form",
    "real_form_eig",
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
    g2: ArrayLike        # g~ = (0, g2, u g2 - w)
    w: ArrayLike         # h rho_x u_x, minus the interstitial work flux
    a31: ArrayLike       # D_U F0[2, 0] = energy + rho epsilon_rho
    a33: ArrayLike       # D_U F0[2, 2] = rho epsilon_theta
    b31: ArrayLike       # D_Ux F0[2, 0] = 2 rho m rho_x, m = kappa - theta kappa_theta
    s: Optional[ArrayLike] = None   # entropy eta - kappa_theta rho_x^2, if asked for


_CLOSURE_ROWS = 9
"""The number of arrays in the ``out`` of :func:`_closure`: rho_x^2, k,
u^2/2 and the six array entries energy, h, w, a31, a33 and b31."""


def _zero(a) -> bool:
    """Whether a closure factor is an exact scalar zero (see :func:`_closure`)."""
    return not isinstance(a, np.ndarray) and a == 0.0


def _unit(a) -> bool:
    """Whether a closure factor is the exact scalar 1.0 (see :func:`_closure`)."""
    return not isinstance(a, np.ndarray) and a == 1.0


def _closure(eos: EquationOfState, rho, u, theta, rho_x, u_x, theta_x,
             entropy: bool = False,
             out: Optional[Sequence[np.ndarray]] = None) -> _Closure:
    """The closure at one extended state, each partial of psi and kappa read once.

    The capillary stress is K = h rho_xx + g2, and the interstitial work
    flux is -w, w = h rho_x u_x; g~ = (0, g2, u g2 - w).  With
    m = kappa - theta kappa_theta,

        energy = e + m rho_x^2 + u^2/2,
        a31    = energy + rho (e_rho + (kappa_rho - theta kappa_rho_theta) rho_x^2),
        a33    = rho (e_theta - theta kappa_thth rho_x^2).

    p, e, e_rho and e_theta come from one ``EquationOfState.potentials``
    call (the ideal gas states e, e_rho and e_theta in closed form, so it
    takes no logarithm here); k = 2 rho kappa and its partials are formed
    with the operations of the ``EquationOfState`` methods, so each entry
    agrees with those bit for bit.  The entropy s = eta - kappa_theta rho_x^2
    is formed only with ``entropy``, for :func:`flux_and_tensors`.  Each
    intermediate is deleted once spent: on a field every entry is an array,
    and the fewer of them are alive at once, the less the heap grows and is
    trimmed again on every ``rhs``.  ``out``, when given, is a sequence of
    ``_CLOSURE_ROWS`` arrays shaped like the state, to which rho_x^2, k,
    u^2/2 and the array entries energy, h, w, a31, a33 and b31 are written,
    in that order: ``rhs`` passes rows of the grid's workspace.  ``theta_x``
    is read only by the kappa_theta term of g2, so it may also be a
    function of no argument that returns it: ``rhs`` passes one, and
    transforms theta_x to the grid only for a closure whose kappa_theta is
    not the scalar 0.0.

    Each factor (kappa, its four partials read here, and e_rho) is tested
    once per pass; the rest is plain arithmetic.  A term whose factor is the
    exact scalar 0.0 is not formed, and a factor 1.0 is not multiplied.
    0.0 * x added to a finite value gives that value back (up to the sign of
    a zero), x * 1.0 is x, and the remaining terms are summed and multiplied
    in the order of the full expressions, so the entries are the same bit
    for bit.  A constant kappa (``Coefficient.constant``) drops the terms of
    its partials; an entry with no term left, such as b31, h or w at
    kappa = 0, is the scalar 0.0, and with e_rho = 0.0 as well a31 is energy
    itself.  When kappa_theta is 0.0, m is kappa and b31 = 2 rho m rho_x is
    k rho_x, bit for bit.

    g2 is the one entry that is not summed in full.  Its two kappa terms,
    rho rho_x^2 k_rho / 2 and -k rho_x^2 / 2, cancel identically when
    kappa_rho = kappa_theta = 0.0 (then k_rho = 2 kappa and k = 2 rho kappa),
    so g2 is the scalar 0.0.  Summed, they cancel bit for bit at
    kappa = 1.0 and to roundoff at other constants.
    """
    (o_rx2, o_k, o_u2, o_energy, o_h, o_w, o_a31, o_a33, o_b31) = (
        (None,) * _CLOSURE_ROWS if out is None else out)
    kap = eos.kappa
    rx2 = np.square(rho_x, out=o_rx2)
    kap_v, kap_r, kap_t = kap(rho, theta), kap.d_r(rho, theta), kap.d_t(rho, theta)
    has_v, has_r, has_t = not _zero(kap_v), not _zero(kap_r), not _zero(kap_t)
    # k = 2 rho kappa, h = k rho, k_rho = 2 kappa + 2 rho kappa_rho
    k = h = k_rho = 0.0
    if has_v:
        k = (np.multiply(2.0, rho, out=o_k) if _unit(kap_v)
             else np.multiply(2.0 * rho, kap_v, out=o_k))
        h = np.multiply(k, rho, out=o_h)
        k_rho = 2.0 * kap_v
    if has_r:
        k_rho = k_rho + 2.0 * rho * kap_r if has_v else 2.0 * rho * kap_r
    # g2 = rho rho_x^2 k_rho / 2 + rho rho_x theta_x k_theta - k rho_x^2 / 2;
    # with kappa_rho = kappa_theta = 0 the first and last terms cancel
    g2 = 0.0
    if has_r or has_t:
        g2 = 0.5 * rho * rx2 * k_rho if has_v or has_r else 0.0
        if has_t:
            if callable(theta_x):
                theta_x = theta_x()
            g2 = g2 + rho * rho_x * theta_x * (2.0 * rho * kap_t)
        if has_v:
            g2 = g2 - 0.5 * k * rx2
    if has_t:
        m = kap_v - theta * kap_t if has_v else -(theta * kap_t)
    else:
        m = kap_v
    del k_rho, kap_v
    has_m, unit_m = has_v or has_t, _unit(m)
    p, e, e_rho, e_theta, eta = eos.potentials(rho, theta, entropy)
    u2 = np.square(u, out=o_u2)
    u2 *= 0.5
    energy = np.add(e, rx2 if unit_m else m * rx2, out=o_energy) if has_m else e
    energy = np.add(energy, u2, out=o_energy)
    del e, u2
    b31 = 0.0
    if has_m:
        two_rho_m = k if not has_t else 2.0 * rho if unit_m else 2.0 * rho * m
        b31 = np.multiply(two_rho_m, rho_x, out=o_b31)
        del two_rho_m
    s = None
    if entropy:
        s = eta - kap_t * rx2 if has_t else eta
    del k, m, kap_t, eta
    kap_rt = kap.d_rt(rho, theta)
    has_rt = not _zero(kap_rt)
    if has_r or has_rt:
        if has_r:
            m_rho = kap_r - theta * kap_rt if has_rt else kap_r
        else:
            m_rho = -(theta * kap_rt)
        eps_rho = m_rho * rx2 if _zero(e_rho) else e_rho + m_rho * rx2
        a31 = np.add(energy, rho * eps_rho, out=o_a31)
        del m_rho, eps_rho
    else:
        a31 = energy if _zero(e_rho) else np.add(energy, rho * e_rho, out=o_a31)
    del e_rho, kap_r, kap_rt
    kap_tt = kap.d_tt(rho, theta)
    a33 = np.multiply(rho, e_theta - theta * kap_tt * rx2 if not _zero(kap_tt)
                      else e_theta, out=o_a33)
    del e_theta, kap_tt, rx2
    w = 0.0
    if has_v:
        w = np.multiply(np.multiply(h, rho_x, out=o_w), u_x, out=o_w)
    return _Closure(energy=energy, p=p, mu=eos.mu(rho, theta),
                    alpha=eos.alpha(rho, theta), h=h, g2=g2, w=w,
                    a31=a31, a33=a33, b31=b31, s=s)


def _total_flux(c, mom, u, rho_xx, u_x, out: np.ndarray) -> np.ndarray:
    """Components of -F1 + G U_x + H U_xx + g~ but the heat flux alpha theta_x.

    ``c`` is the :class:`_Closure` pass at the same state and ``mom`` the
    momentum rho u; the three components are written in place to the rows
    of ``out``, which is returned.  With the stress sigma = mu u_x + K,
    K = h rho_xx + g2,

        -F1 + G U_x + H U_xx + g~ - (0, 0, alpha theta_x)
            = (-mom, (sigma - p) - mom u, u (sigma - p) - mom energy - w),

    the momentum row holds sigma - p first, and the mass row takes the
    products of mom before -mom itself.  The x-derivative of this flux
    plus (0, 0, alpha theta_x) is F0_t: the solver differentiates the heat
    flux per Fourier mode where alpha is constant on the grid and adds it
    on the grid otherwise, and :func:`nonlinear_terms` adds it on the grid.
    Like the factors of :func:`_closure`, a term of ``c`` that is an exact
    scalar zero is not added, and a factor 1.0 is not multiplied.  Builds
    no (..., 3, 3) tensor, and with unit mu no temporary, so it serves the
    solver's hot path.
    """
    mu, h = c.mu, c.h
    # views of the rows, 0-d where the state is a scalar
    mass, momentum, energy = (out[i, ...] for i in range(3))
    # sigma - p
    if _zero(h):
        np.negative(c.p, out=momentum)
    else:
        np.multiply(h, rho_xx, out=momentum)
        momentum -= c.p
    if not _zero(mu):
        momentum += u_x if _unit(mu) else mu * u_x
    if not _zero(c.g2):
        momentum += c.g2
    np.multiply(u, momentum, out=energy)
    momentum -= np.multiply(mom, u, out=mass)
    energy -= np.multiply(mom, c.energy, out=mass)
    if not _zero(c.w):
        energy -= c.w
    np.negative(mom, out=mass)
    return out


class FluxTensors(NamedTuple):
    """What the W-system reads from the closure (see :func:`flux_and_tensors`).

    F0 and the flux of :func:`_total_flux`, TF = -F1 + G U_x + H U_xx + g~
    without the heat flux (0, 0, alpha theta_x), are (3, ...) rows;
    ``closure`` is the :class:`_Closure` pass they were
    formed from, its entropy s included, so the solver's ``rhs`` reads the
    pass and its flux as its own.  G(U) has nonzero entries only at
    (2,2) = mu, (3,2) = mu u and (3,3) = alpha, H(U) only at (2,1) = h = k rho
    and (3,1) = h u, and g~ = (0, g2, u g2 - w).
    D_U F0 = [[1, 0, 0], [u, rho, 0], [a31, rho u, a33]] (``cx.jac_f0``) and
    D_Ux F0 has the single entry (3,1) = b31 = 2 rho m rho_x.
    """

    F0: np.ndarray
    flux: np.ndarray         # TF - (0, 0, alpha theta_x)
    entropy: np.ndarray      # entropy density rho s
    closure: _Closure


def _rows(*entries) -> np.ndarray:
    """A new (len(entries), ...) array whose rows are the broadcast ``entries``."""
    out = np.empty((len(entries),) + np.broadcast(*entries).shape)
    for i, e in enumerate(entries):
        out[i] = e
    return out


def _map(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A constant (k, len(rows)) ``matrix`` applied to rows: one matrix product."""
    return (matrix @ rows.reshape(len(rows), -1)).reshape(
        (len(matrix),) + rows.shape[1:])


def _column(v: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A constant 3-vector shaped to broadcast against (3, ...) ``rows``."""
    return v.reshape((3,) + (1,) * (rows.ndim - 1))


def flux_and_tensors(eos: EquationOfState, ext: ExtendedState,
                     mom: Optional[np.ndarray] = None) -> FluxTensors:
    """Everything the W-system reads from the closure, from one :func:`_closure` pass.

    F0 = (rho, rho u, rho(epsilon + u^2/2)), and the flux of
    :func:`_total_flux`: TF = -F1 + G U_x + H U_xx + g~ without the heat
    flux (0, 0, alpha theta_x), with
    F1 = (rho u, rho u^2 + p, rho u (epsilon + u^2/2) + p u); the first
    component of g is identically zero and g = O(|U_x|^2).  F0 and the flux
    are (3, ...) rows; F1 is not formed.  ``mom`` is the momentum rho u of a
    field that steps it, such as the solver's grid row, which F0 and the
    flux read in place of the product rho u.  The entropy s is formed in
    this pass only: ``rhs`` does not read it.  Given the grid's momentum,
    the pass and the flux are the ones ``rhs`` evaluates at the same state,
    bit for bit.
    """
    rho, u, theta, rho_x, u_x, theta_x, rho_xx = (np.asarray(a, dtype=float) for a in (
        ext.rho, ext.u, ext.theta, ext.rho_x, ext.u_x, ext.theta_x, ext.rho_xx))
    mom = rho * u if mom is None else mom
    c = _closure(eos, rho, u, theta, rho_x, u_x, theta_x, entropy=True)
    flux = np.empty((3,) + np.broadcast(rho, mom, u, theta, rho_x, u_x, theta_x,
                                        rho_xx).shape)
    _total_flux(c, mom, u, rho_xx, u_x, out=flux)
    return FluxTensors(F0=_rows(rho, mom, rho * c.energy), flux=flux,
                       entropy=rho * c.s, closure=c)


@dataclass(frozen=True)
class _EquilibriumTerms:
    """Constant maps of :func:`w_variables` and :func:`nonlinear_terms`.

    jac0_inv = (D_U f0(Ubar))^{-1} and f0 = f0(Ubar) give W.  With
    P = A0^{-1} L, the symmetrizer L = (D_U f0)^T (D_U Z) (D_U f0)^{-1} over
    the diagonal A0, ``n_map`` is the (3, 10) block row

        [P,  -P Gbar jac0_inv,  -P (0, hbar, hbar ubar),  P Jf1bar jac0_inv]

    and ``n_const`` = P (f1bar - Jf1bar jac0_inv f0bar): N is ``n_map``
    applied to the rows (TF, D_U F0 U_x + D_Ux F0 U_xx, rho_xx, F0), plus
    ``n_const``.  (0, hbar, hbar ubar) is the first column of
    Hbar jac0_inv and its only nonzero one: Hbar's only nonzero column is
    the first, and the first row of jac0_inv is (1, 0, 0).
    """

    jac0_inv: np.ndarray
    f0: np.ndarray
    n_map: np.ndarray
    n_const: np.ndarray


@functools.lru_cache(maxsize=8)
def _equilibrium_terms_at(eos: EquationOfState, rho: float, u: float,
                          theta: float) -> _EquilibriumTerms:
    ubar = State(rho, u, theta)
    jac0 = cx.jac_f0(eos, ubar)
    jac0_inv = cx.jac_f0_inv(eos, ubar)
    h = float(np.asarray(_closure(eos, rho, u, theta, 0.0, 0.0, 0.0).h))
    a0_bar, _, _ = cx.coefficient_matrices(eos, ubar)
    f0, f1 = cx.f0(eos, ubar), cx.f1(eos, ubar)
    flux_map = cx.jac_f1(eos, ubar) @ jac0_inv
    P = (jac0.T @ cx.jac_z(eos, ubar) @ jac0_inv) / np.diagonal(a0_bar)[:, None]
    n_map = np.hstack([P, -P @ cx.visc_matrix(eos, ubar) @ jac0_inv,
                       -(P @ [0.0, h, h * u])[:, None], P @ flux_map])
    return _EquilibriumTerms(jac0_inv=jac0_inv, f0=f0, n_map=n_map,
                             n_const=P @ (f1 - flux_map @ f0))


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
    higher corrections sit in the third slot.  W is (3, ...) rows, one
    matrix product.
    """
    c = _equilibrium_terms(eos, ubar)
    f0 = tensors.F0
    return _map(c.jac0_inv, f0 - _column(c.f0, f0))


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

    The state-dependent parts are the solver's flux
    TF = -F1 + G U_x + H U_xx + g~ (the flux ``rhs`` differentiates), which
    ``tensors = flux_and_tensors(eos, ext)`` holds but for its heat flux
    (0, 0, alpha theta_x), added here on the grid, D_U F0 U_x + D_Ux F0 U_xx
    from the few nonzero entries of those matrices, rho_xx and F0; the
    closure is not evaluated again, nor the rest of the flux written again.
    They fill the rows of one (10, ...) array, and N is one (3, 10) matrix
    product with it plus a constant (``_EquilibriumTerms``, built once per
    (closure, equilibrium) pair):

        N = P TF - P Gbar Jf0bar^{-1} (D_U F0 U_x + D_Ux F0 U_xx)
            - P (0, hbar, hbar ubar) rho_xx + P Jf1bar Jf0bar^{-1} F0
            + P (f1bar - Jf1bar Jf0bar^{-1} f0bar),    P = A0^{-1} L.

    N is returned as (3, ...) rows.

    u_xx and theta_xx are not read.  Hbar Jf0bar^{-1} has zero second and
    third columns (Hbar's only nonzero column is the first, and the first
    row of Jf0bar^{-1} is (1, 0, 0)), and the first row of D_U F0 is
    (1, 0, 0), so Hbar Jf0bar^{-1} D_U F0 U_xx = (0, hbar, hbar ubar) rho_xx
    for every closure and every equilibrium.

    The capillarity remainder has no third-gradient part: the bracket
    -Hbar (D_U f0(Ubar))^{-1} [dx(D_U F0) U_x + D_Ux F0 U_xxx + dx(D_Ux F0) U_xx]
    is annihilated.  The prefactor's only nonzero column is the first, so
    only the bracket's first component matters; the first row of D_U F0 is
    the constant (1, 0, 0) and the first row of D_Ux F0 vanishes, hence that
    component is identically zero.
    """
    c, t = _equilibrium_terms(eos, ubar), tensors.closure
    rho, u, rho_x, u_x, theta_x, rho_xx = (
        np.asarray(a, dtype=float) for a in (
            ext.rho, ext.u, ext.rho_x, ext.u_x, ext.theta_x, ext.rho_xx))
    F0 = tensors.F0
    rows = np.empty((10,) + np.broadcast(F0[0], u_x, theta_x, rho_xx).shape)
    rows[:3] = tensors.flux
    if not _zero(t.alpha):
        heat = rows[2, ...]
        heat += theta_x if _unit(t.alpha) else t.alpha * theta_x
    # D_U F0 U_x + D_Ux F0 U_xx, its sums formed in place (the rows are
    # 0-d views where the state is a scalar)
    rows[3] = rho_x
    mom_x, energy_x = rows[4, ...], rows[5, ...]
    np.multiply(u, rho_x, out=mom_x)
    mom_x += rho * u_x
    np.multiply(t.a31, rho_x, out=energy_x)
    energy_x += rho * u * u_x
    energy_x += t.a33 * theta_x
    energy_x += t.b31 * rho_xx
    rows[6] = rho_xx
    rows[7:] = F0
    n_tilde = _map(c.n_map, rows)
    n_tilde += _column(c.n_const, n_tilde)
    return n_tilde


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

    @property
    def btilde(self) -> np.ndarray:
        """Diagonal (0, mu/rho, alpha/(e_theta rho)) of the symmetrized
        dissipative symbol Btilde = A0^{-1/2} B A0^{-1/2}."""
        return np.array([0.0, self.mu / self.rho,
                         self.alpha / (self.e_theta * self.rho)])

    def sound_speed(self) -> float:
        """Long-wave characteristic speed sqrt(cbar^2 + p_rho) of the symbol."""
        return float(np.sqrt(self.cbar ** 2 + self.p_rho))

    def a0(self, xi: ArrayLike = 0.0) -> np.ndarray:
        """A0 at every xi, shape xi.shape + (3, 3)."""
        xi = np.asarray(xi, dtype=float)
        return np.broadcast_to(self.A0, xi.shape + (3, 3))

    def a(self, xi: ArrayLike) -> np.ndarray:
        """Odd (hyperbolic and dispersive) part A(xi) = A1 + xi^2 C."""
        xi = np.asarray(xi, dtype=float)
        return self.A1 + xi[..., None, None] ** 2 * self.C

    def b(self, xi: ArrayLike) -> np.ndarray:
        """Even (dissipative) part B(xi) = xi^2 B >= 0."""
        xi = np.asarray(xi, dtype=float)
        return xi[..., None, None] ** 2 * self.B


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


def evolution_symbol(coeffs: EquilibriumCoefficients, xi: ArrayLike) -> np.ndarray:
    """Per-mode generator M(i xi) = A0^{-1} (i xi A(xi) + B(xi)).

    The Fourier transform of the linear system is What_t + M(i xi) What = 0;
    M(0) = 0 and M(-xi) = conj(M(xi)) entry for entry (A and B are even in
    xi, and only the factor i xi changes sign).
    """
    xi = np.asarray(xi, dtype=float)
    a0_inv = np.linalg.inv(coeffs.A0)
    return a0_inv @ (1j * xi[..., None, None] * coeffs.a(xi) + coeffs.b(xi))


def symbol_symmetrizer(coeffs: EquilibriumCoefficients, xi: ArrayLike) -> np.ndarray:
    """Diagonal symbol symmetrizer S(xi) = diag(beta(xi)/p_rho, 1, 1) > 0."""
    xi = np.asarray(xi, dtype=float)
    s = np.zeros(xi.shape + (3, 3))
    s[..., 0, 0] = coeffs.beta(xi) / coeffs.p_rho
    s[..., 1, 1] = 1.0
    s[..., 2, 2] = 1.0
    return s


def real_form(coeffs: EquilibriumCoefficients,
              xi: ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """(R, q): the real symbol R(xi) and the diagonal q of Q, with
    M(i xi) = Q (i xi u + R(xi)) Q^{-1} and Q = diag(q).

    The diagonal S(xi) of :func:`symbol_symmetrizer` and the diagonal A0
    take M to i xi Atilde(xi) + xi^2 Btilde under T = (S A0)^{1/2}, with
    Atilde = u I + [[0, sqrt(beta), 0], [sqrt(beta), 0, c], [0, c, 0]] real
    symmetric and Btilde = diag(btilde).
    The unitary D = diag(1, i, 1) then makes the rest real:

        R(xi) = [[0, -xi sqrt(beta), 0], [xi sqrt(beta), xi^2 b2, xi c],
                 [0, -xi c, xi^2 b3]],

    so Q = T^{-1} D = (S A0)^{-1/2} diag(1, i, 1).  The spectrum of M is
    i xi u plus that of R, and its eigenvectors are Q times those of R.
    R is tridiagonal, and its characteristic cubic has a real root in the
    bracket [0, b3 xi^2]; :func:`real_form_eig` factors it from there, on R
    divided by its largest |entry|, within 4e-15 of the spectral radius of
    50-digit eigenvalues on the corners of the closure lattice.
    """
    xi = np.asarray(xi, dtype=float)
    beta = coeffs.beta(xi)
    odd = xi * np.sqrt(beta)
    coupling = xi * coeffs.cbar
    _, b2, b3 = coeffs.btilde
    r = np.zeros(xi.shape + (3, 3))
    r[..., 0, 1] = -odd
    r[..., 1, 0] = odd
    r[..., 1, 1] = b2 * xi ** 2
    r[..., 1, 2] = coupling
    r[..., 2, 1] = -coupling
    r[..., 2, 2] = b3 * xi ** 2
    # the diagonals of S and A0
    s_a0 = (np.diagonal(symbol_symmetrizer(coeffs, xi), axis1=-2, axis2=-1)
            * np.diag(coeffs.A0))
    return r, 1.0 / np.sqrt(s_a0) * np.array([1.0, 1j, 1.0])


# the Newton iteration of real_form_eig stops once its step or its bracket
# is this many ulp of the root, or the cubic is this many roundoffs of its
# terms from zero; it takes 1-6 iterations on the grids of configs/
# reference.ini and its variants, and the cap is never reached there
_ROOT_ULPS = 4.0
_ROOT_MAX_ITER = 100
_EPS = np.finfo(float).eps


def real_form_eig(r: np.ndarray, vectors: bool = False):
    """Eigenvalues (..., 3), and with ``vectors`` unit eigenvectors
    (..., 3, 3) as columns, of a stack of real forms R of :func:`real_form`.

    R = [[0, -a, 0], [a, d2, c], [0, -c, d3]] is tridiagonal, with
    a = xi sqrt(beta), c = xi cbar, d2 = b2 xi^2 and d3 = b3 xi^2; only these
    four entries are read.  Its characteristic cubic

        p(x) = det(x I - R) = x (x - d2)(x - d3) + c^2 x + a^2 (x - d3)

    has p(0) = -a^2 d3 <= 0 <= p(d3) = d3 c^2, so a real root r lies in the
    bracket [0, d3].  Each R is first divided by its largest |entry|, so the
    cubic's coefficients are at most 3 and cannot overflow at any finite R
    (the analyze-symbol grid reaches |xi| = 1e150, 1.3e154 without
    capillarity); the eigenvalues are scaled back at the end.  r is found
    by Newton's method from 0, whose first step a^2 d3 / (a^2 + c^2 + d2 d3)
    lies in the bracket; a step that would leave the bracket is a
    bisection, and the iteration stops once its step or the bracket is
    ``_ROOT_ULPS`` ulp of r, or p(r) is within ``_ROOT_ULPS`` roundoffs of
    its terms.  The other two eigenvalues are the roots of the
    deflated quadratic x^2 + B x + C, with -B = d2 + (d3 - r) and
    C = a^2 d3 / r (C = a^2 + c^2 + d2 d3, the coefficient identity, where
    r = 0), taken without cancellation: the larger real root first, the
    smaller as C over it, or the complex pair -B/2 +- i sqrt(4C - B^2)/2.
    Two of the terms have a second form, from p(r) = 0, used where its
    rounding error is the smaller: d3 - r = c^2 r / (a^2 + r (r - d2)),
    which keeps -min Re lambda accurate where r is near d3 and the acoustic
    pair's real part is far below it, and
    B^2 - 4C = (d2 - d3)^2 - 4 (a^2 + c^2) + r (2 d2 + 2 d3 - 3 r), which
    keeps a nearly double pair apart where d2 is near d3.  Each eigenvector
    is the largest column of adj(x I - R), which for a simple eigenvalue x
    spans its eigenspace, scaled to unit length; at a defective eigenvalue
    two columns come out (nearly) parallel.  An all-zero R (xi = 0) has the
    eigenvalues 0 and the eigenvectors I, exactly.

    Against 50-digit arithmetic on the corners of the closure lattice the
    eigenvalues are within 4e-15 of the spectral radius, -min Re lambda
    within 1e-14 relative, and ||R V - V Lambda|| <= 1e-14 ||R||
    (``tests/test_symbols.py``).
    """
    r = np.asarray(r, dtype=float)
    shape = r.shape[:-2]
    r = r.reshape(-1, 3, 3)
    scale = np.abs(r).max(axis=(-2, -1))
    zero = scale == 0.0
    scale[zero] = 1.0
    a, c, d2, d3 = (r[:, i, j] / scale for i, j in ((1, 0), (1, 2), (1, 1), (2, 2)))
    a2 = a * a
    # p(x) = ((x - e2) x + e1) x - e0
    e2, e1, e0 = d2 + d3, d2 * d3 + c * c + a2, a2 * d3
    lo, hi = np.zeros_like(d3), d3.copy()
    x = np.divide(e0, e1, out=np.zeros_like(e0), where=e1 != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_ROOT_MAX_ITER):
            px = ((x - e2) * x + e1) * x - e0
            lo = np.where(px <= 0.0, x, lo)
            hi = np.where(px >= 0.0, x, hi)
            new = x - px / ((3.0 * x - 2.0 * e2) * x + e1)
            new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
            tol = _ROOT_ULPS * np.spacing(np.abs(new))
            # |p(x)| within the rounding error of its Horner sum (x >= 0):
            # near the root the iterates can trade places a few ulp apart
            noise = _ROOT_ULPS * _EPS * (((x + e2) * x + e1) * x + e0)
            done = (np.abs(new - x) <= tol) | (hi - lo <= tol) | (np.abs(px) <= noise)
            x = new
            if done.all():
                break
    # the other two are the roots of x^2 - s x + c2, s = -B and c2 = C
    c2 = np.divide(e0, x, out=e1.copy(), where=x != 0.0)
    # s = d2 + (d3 - r); where r is near d3, d3 - r is taken from p(r) = 0
    # as c^2 r / (a^2 + r (r - d2)) if that has the smaller rounding error
    den = a2 + x * (x - d2)
    ok = den > 0.0
    near = np.divide(c * c * x, den, out=np.zeros_like(x), where=ok)
    near_err = np.divide(near * (a2 + x * np.abs(x - d2)), den,
                         out=np.full_like(x, np.inf), where=ok)
    s = d2 + np.where(near_err < x, near, d3 - x)
    # s^2 - 4C, and the same from C = e1 - r s, which keeps (d2 - d3)^2
    # where the pair is nearly double
    plain = s * s - 4.0 * c2
    kept = (d2 - d3) ** 2 - 4.0 * (c * c + a2) + x * (2.0 * e2 - 3.0 * x)
    disc = np.where(s * s + 4.0 * np.abs(c2) <= (d2 - d3) ** 2 + 4.0 * (c * c + a2)
                    + x * (2.0 * e2 + 3.0 * x), plain, kept)
    root = np.sqrt(np.abs(disc))
    big = 0.5 * (s + np.copysign(root, s))
    small = np.divide(c2, big, out=np.zeros_like(big), where=big != 0.0)
    pair = disc < 0.0
    lam = np.empty(x.shape + (3,), dtype=complex)
    lam[..., 0] = x
    lam[..., 1] = np.where(pair, 0.5 * s + 0.5j * root, big)
    lam[..., 2] = np.where(pair, 0.5 * s - 0.5j * root, small)
    lam[zero] = 0.0
    out = (lam * scale[:, None]).reshape(shape + (3,))
    if not vectors:
        return out
    # the columns of adj(x I - R), with y = x - d2 and z = x - d3
    a, c, d2, d3, a2 = (v[:, None] for v in (a, c, d2, d3, a2))
    x = lam
    y, z = x - d2, x - d3
    ac, az, xc, xy = a * c, a * z, x * c, x * y
    columns = ((y * z + c * c, az, -ac), (-az, x * z, -xc), (-ac, xc, xy + a2))
    sizes = [sum(e.real ** 2 + e.imag ** 2 if np.iscomplexobj(e) else e * e for e in col)
             for col in columns]
    first, second = sizes[0] >= np.maximum(sizes[1], sizes[2]), sizes[1] >= sizes[2]
    norm = np.sqrt(np.maximum(np.maximum(sizes[0], sizes[1]), sizes[2]))
    norm[norm == 0.0] = 1.0
    vecs = np.stack([np.where(first, e0, np.where(second, e1, e2)) / norm
                     for e0, e1, e2 in zip(*columns)], axis=-2)
    vecs[zero] = np.eye(3)
    return out, vecs.reshape(shape + (3, 3))


def _by_magnitude(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct |xi| of a node set, ascending, and the index that maps
    them back to the nodes.

    Since M(-xi) = conj(M(xi)), the symbol and what is computed from it are
    formed only at the distinct |xi|: a node xi < 0 takes the conjugate of
    its mirror's eigenvalues and eigenvectors, and the mirror's own value of
    a quantity even in xi, such as the largest real part of the spectrum or
    anything formed from maps of xi^2 alone (the genuine-coupling margins).
    This holds for every node set, symmetric in sign or not.
    """
    return np.unique(np.abs(xi), return_inverse=True)
