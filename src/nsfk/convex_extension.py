"""Convex entropy extension of the 1-D Navier-Stokes-Fourier system.

The compressible heat-conducting system in conservation form,

    f0(U)_t + f1(U)_x = (G(U) U_x)_x,        U = (rho, u, theta),

admits the strictly convex entropy E = -rho eta with flux Theta = -rho u eta.
Regarded as a function of the conserved variables V = f0(U), the Hessian of E
symmetrizes the system: the congruences

    A0 = (D_U f0)^T D_V^2 E (D_U f0),   A1 = (D_U f0)^T D_V^2 E (D_U f1),
    B  = (D_U f0)^T D_V^2 E G,

are symmetric with A0 > 0 and B >= 0.  This module evaluates all the maps
involved (fluxes, Jacobians, the gradient map Z = (D_V E)^T, the entropy
Hessian) in closed form, plus a verification of the defining properties of
the entropy pair on a fixed lattice of states.

All functions broadcast over array-valued states; matrices are returned with
trailing shape (..., 3, 3).
"""

from __future__ import annotations

import numpy as np

from .reports import Check, CheckReport
from .thermo import Domain, EquationOfState, State

__all__ = [
    "f0",
    "f1",
    "visc_matrix",
    "jac_f0",
    "jac_f0_inv",
    "jac_f1",
    "z_map",
    "jac_z",
    "jac_entropy_flux",
    "hessian_entropy",
    "coefficient_matrices",
    "verify_entropy_pair",
    "mat3",
]


def mat3(entries) -> np.ndarray:
    """Assemble a (..., 3, 3) array from a nested list of broadcastable entries."""
    out = np.zeros(np.broadcast(*(e for row in entries for e in row)).shape + (3, 3))
    for i in range(3):
        for j in range(3):
            out[..., i, j] = entries[i][j]
    return out


def vec3(entries) -> np.ndarray:
    """Assemble a (..., 3) array from three broadcastable entries."""
    out = np.zeros(np.broadcast(*entries).shape + (3,))
    for i in range(3):
        out[..., i] = entries[i]
    return out


def f0(eos: EquationOfState, state: State) -> np.ndarray:
    """Conserved quantities (rho, rho u, rho(e + u^2/2)) of the standard system."""
    rho, u, theta = state.rho, state.u, state.theta
    e = eos.e(rho, theta)
    return vec3([rho, rho * np.asarray(u), rho * (e + 0.5 * np.asarray(u) ** 2)])


def f1(eos: EquationOfState, state: State) -> np.ndarray:
    """Convective flux (rho u, rho u^2 + p, rho u(e + u^2/2) + p u)."""
    rho, u, theta = np.asarray(state.rho), np.asarray(state.u), state.theta
    e = eos.e(rho, theta)
    p = eos.p(rho, theta)
    return vec3([rho * u, rho * u ** 2 + p, rho * u * (e + 0.5 * u ** 2) + p * u])


def visc_matrix(eos: EquationOfState, state: State) -> np.ndarray:
    """Viscosity/heat-conduction tensor G(U) of the second-order terms."""
    rho, u, theta = state.rho, np.asarray(state.u), state.theta
    mu = eos.mu(rho, theta)
    al = eos.alpha(rho, theta)
    z = np.zeros(np.broadcast(rho, theta).shape)
    return mat3([[z, z, z], [z, mu, z], [z, mu * u, al]])


def _jac_f0_entries(eos: EquationOfState, state: State):
    """(rho, u, a31, a33, zeros, ones) with jac_f0 = [[1,0,0],[u,rho,0],[a31,rho u,a33]]."""
    rho, u, theta = np.asarray(state.rho), np.asarray(state.u), state.theta
    a31 = (eos.epsilon(rho, theta, state.rho_x) + 0.5 * u ** 2
           + rho * eos.epsilon_rho(rho, theta, state.rho_x))
    a33 = rho * eos.epsilon_theta(rho, theta, state.rho_x)
    return rho, u, a31, a33, np.zeros_like(rho * 1.0), np.ones_like(rho * 1.0)


def jac_f0(eos: EquationOfState, state: State) -> np.ndarray:
    """Jacobian D_U F0(U, U_x) at the state's rho_x; D_U f0 when rho_x = 0.

    Lower triangular, det = rho^2 epsilon_theta > 0 (kappa_thth <= 0 keeps
    epsilon_theta positive at every density gradient).
    """
    rho, u, a31, a33, z, one = _jac_f0_entries(eos, state)
    return mat3([[one, z, z], [u, rho, z], [a31, rho * u, a33]])


def jac_f0_inv(eos: EquationOfState, state: State) -> np.ndarray:
    """Closed-form inverse of jac_f0 (lower triangular)."""
    rho, u, a31, a33, z, one = _jac_f0_entries(eos, state)
    return mat3([
        [one, z, z],
        [-u / rho, 1.0 / rho, z],
        [(u ** 2 - a31) / a33, -u / a33, 1.0 / a33],
    ])


def jac_f1(eos: EquationOfState, state: State) -> np.ndarray:
    """Jacobian of the convective flux f1 with respect to (rho, u, theta)."""
    rho, u, theta = np.asarray(state.rho), np.asarray(state.u), state.theta
    e = eos.e(rho, theta)
    e_r = eos.e_rho(rho, theta)
    e_t = eos.e_theta(rho, theta)
    p = eos.p(rho, theta)
    p_r = eos.p_rho(rho, theta)
    p_t = eos.p_theta(rho, theta)
    z = np.zeros_like(rho * 1.0)
    return mat3([
        [u, rho, z],
        [u ** 2 + p_r, 2.0 * rho * u, p_t],
        [u * (e + 0.5 * u ** 2) + rho * u * e_r + u * p_r,
         rho * (e + 0.5 * u ** 2) + rho * u ** 2 + p,
         rho * u * e_t + u * p_t],
    ])


def jac_entropy_flux(eos: EquationOfState, state: State) -> np.ndarray:
    """Gradient of Theta = -rho u eta with respect to (rho, u, theta):
    -(u (eta + rho eta_rho), rho eta, rho u eta_theta)."""
    rho, u, theta = np.asarray(state.rho), np.asarray(state.u), state.theta
    eta = eos.eta(rho, theta)
    return -vec3([u * (eta + rho * eos.eta_rho(rho, theta)), rho * eta,
                  rho * u * eos.eta_theta(rho, theta)])


def z_map(eos: EquationOfState, state: State) -> np.ndarray:
    """Gradient of the entropy in conserved variables, Z = (D_V E)^T.

    Z(U) = (-eta + (e - u^2/2 + p/rho)/theta,  u/theta,  -1/theta).
    """
    rho, u, theta = np.asarray(state.rho), np.asarray(state.u), np.asarray(state.theta)
    e = eos.e(rho, theta)
    p = eos.p(rho, theta)
    eta = eos.eta(rho, theta)
    return vec3([
        -eta + (e - 0.5 * u ** 2 + p / rho) / theta,
        u / theta,
        -1.0 / theta,
    ])


def jac_z(eos: EquationOfState, state: State) -> np.ndarray:
    """Jacobian of the Z map with respect to (rho, u, theta); upper triangular."""
    rho, u, theta = np.asarray(state.rho), np.asarray(state.u), np.asarray(state.theta)
    e = eos.e(rho, theta)
    e_r = eos.e_rho(rho, theta)
    p_r = eos.p_rho(rho, theta)
    z = np.zeros_like(rho * 1.0)
    one = np.ones_like(rho * 1.0)
    m = mat3([
        [p_r / rho, -u, -(e - 0.5 * u ** 2 + rho * e_r) / theta],
        [z, one, -u / theta],
        [z, z, one / theta],
    ])
    return m / theta[..., None, None]


def hessian_entropy(eos: EquationOfState, state: State) -> np.ndarray:
    """Hessian of the entropy in conserved variables, D_V^2 E = (D_U Z)(D_U f0)^{-1}.

    Symmetric positive definite at every admissible state.  The standard
    entropy has no gradient part, so the state's rho_x is ignored.
    """
    state = State(state.rho, state.u, state.theta)
    return jac_z(eos, state) @ jac_f0_inv(eos, state)


def coefficient_matrices(eos: EquationOfState, state: State):
    """Closed-form symmetric coefficient triplet (A0, A1, B) at a state.

    A0 = diag(p_rho/rho, rho, rho e_theta/theta)/theta is positive definite,
    A1 is symmetric, B = diag(0, mu, alpha/theta)/theta is positive
    semi-definite.
    """
    rho, u, theta = np.asarray(state.rho), np.asarray(state.u), np.asarray(state.theta)
    p_r = eos.p_rho(rho, theta)
    p_t = eos.p_theta(rho, theta)
    e_t = eos.e_theta(rho, theta)
    mu = eos.mu(rho, theta)
    al = eos.alpha(rho, theta)
    z = np.zeros_like(rho * 1.0)
    a0 = mat3([
        [p_r / rho, z, z],
        [z, rho, z],
        [z, z, rho * e_t / theta],
    ])
    a1 = mat3([
        [u * p_r / rho, p_r, z],
        [p_r, rho * u, p_t],
        [z, p_t, rho * u * e_t / theta],
    ])
    b = mat3([
        [z, z, z],
        [z, mu, z],
        [z, z, al / theta],
    ])
    th = theta[..., None, None]
    return a0 / th, a1 / th, b / th


def _transposed(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2)


# (rho, theta) nodes per axis of the entropy-pair lattice; with the three
# velocities that is 108 states
PAIR_NODES = 6
PAIR_VELOCITIES = (-1.0, 0.0, 1.0)


def verify_entropy_pair(eos: EquationOfState, domain: Domain,
                        sym_tol: float = 1e-12,
                        flux_tol: float = 1e-6) -> CheckReport:
    """Verification of the entropy-pair properties on a fixed lattice.

    The states are ``domain.grid(PAIR_NODES)``'s (rho, theta) nodes times
    u in ``PAIR_VELOCITIES``.  At each it checks that (a) the entropy
    Hessian is positive definite, (b) A0 and A1 are symmetric, (c) the
    closed forms of A0 and A1 equal their congruences
    (D_U f0)^T D_V^2 E (D_U f0) and (D_U f0)^T D_V^2 E (D_U f1), (d) B is
    positive semi-definite, and (e) the flux compatibility
    D_U Theta = Z^T D_U f1 holds, D_U Theta in closed form
    (``jac_entropy_flux``).  Every map is analytic, so each residual is
    roundoff.

    All states are checked in one batched pass: each map is evaluated once
    on the whole lattice, and the two eigenvalue checks are one batched
    ``eigvalsh`` each.  Every per-state value is the one a state-by-state
    evaluation gives, so the reported extremes are too.

    A ValueError names the first lattice state where the entropy Hessian or
    the triplet (A0, A1, B) is not finite: the domain reaches past the
    range of binary64 for this closure.
    """
    rho, theta = domain.grid(PAIR_NODES)
    u = np.asarray(PAIR_VELOCITIES)[:, None, None]
    # the standard entropy pair: D_U f0 is taken at rho_x = 0
    s = State(*np.broadcast_arrays(rho, u, theta))

    with np.errstate(all="ignore"):
        H = hessian_entropy(eos, s)
        a0, a1, b = coefficient_matrices(eos, s)
    for name, m in (("entropy Hessian", H), ("A0", a0), ("A1", a1), ("B", b)):
        bad = ~np.isfinite(m).all(axis=(-2, -1))
        if bad.any():
            i = np.unravel_index(np.argmax(bad), bad.shape)
            raise ValueError(f"the closure's {name} is not finite on the lattice "
                             f"at rho = {s.rho[i]:g}, theta = {s.theta[i]:g}")
    hess_min_eig = float(np.linalg.eigvalsh(0.5 * (H + _transposed(H))).min())
    sym_res = max(float(np.abs(m - _transposed(m)).max()) for m in (H, a0, a1))
    jf0, jf1 = jac_f0(eos, s), jac_f1(eos, s)
    jf0_t = _transposed(jf0)
    cong_res = max(float(np.abs(jf0_t @ H @ jf0 - a0).max()),
                   float(np.abs(jf0_t @ H @ jf1 - a1).max()))
    b_min_eig = float(np.linalg.eigvalsh(0.5 * (b + _transposed(b))).min())

    # flux condition: D_U Theta (closed form) vs Z^T D_U f1
    rhs = (z_map(eos, s)[..., None, :] @ jf1)[..., 0, :]
    flux_res = float(np.abs(jac_entropy_flux(eos, s) - rhs).max())

    checks = [
        Check(name="entropy Hessian positive definite", passed=hess_min_eig > 0,
              observed=hess_min_eig, tolerance=0.0),
        Check(name="Hessian/A0/A1 symmetry residual", passed=sym_res <= sym_tol,
              observed=sym_res, tolerance=sym_tol),
        Check(name="A0/A1 entropy congruence residual", passed=cong_res <= sym_tol,
              observed=cong_res, tolerance=sym_tol),
        Check(name="B positive semi-definite", passed=b_min_eig >= -sym_tol,
              observed=b_min_eig, tolerance=sym_tol),
        Check(name="flux compatibility D_U Theta = Z^T D_U f1",
              passed=flux_res <= flux_tol, observed=flux_res, tolerance=flux_tol),
    ]
    return CheckReport(title="entropy-pair certificate", checks=checks)
