"""Symbol-level dissipativity analysis of the linearized capillary fluid system.

The constant-coefficient perturbation system

    A0 W_t + A1 W_x - B W_xx - C W_xxx = 0

is not symmetrizable in the Friedrichs sense (simultaneous symmetry of the
derivative coefficients forces a vanishing diagonal entry), but it is symbol
symmetrizable: S(xi) = diag(beta(xi)/p_rho, 1, 1) makes S A(xi) and S B(xi)
symmetric with S A0 > 0.  After the change of variables
Vhat = S^{1/2} A0^{1/2} What the triplet becomes (I, Atilde(xi), Btilde) with

    Atilde(xi) = [[u, sqrt(beta), 0], [sqrt(beta), u, c], [0, c, u]],
    Btilde     = diag(0, mu/rho, alpha/(e_theta rho)),

whose eigenvalues u, u +/- sqrt(c^2 + beta(xi)) are real and simple for all
xi.  Genuine coupling (no kernel vector of the dissipative symbol is an
eigenvector of the odd-order pencil) then guarantees strict dissipativity,
certified constructively by the skew-symmetric compensating symbol

    K(xi) = (eps/sqrt(beta)) [[0, 1, 0], [-1, 0, c/sqrt(beta)],
                              [0, -c/sqrt(beta), 0]],

whose symmetrized product with Atilde is diagonal: [K A]^s + Btilde >= gamma I
uniformly in xi whenever eps lies in an explicit window.  The resulting modal
bound Re lambda <= -c0 xi^2 classifies the system as strictly dissipative of
regularity-gain type (p, q) = (1, 0).

The unitary D = diag(1, i, 1) makes the transformed generator real up to
its i xi u shift: i xi Atilde + xi^2 Btilde = D (i xi u + R(xi)) D^{-1}
(``symbols.real_form``).  The spectral bound takes its eigenvalues from R,
factored as the tridiagonal matrix it is (``symbols.real_form_eig``), and
the Lyapunov check, in which D^{-1} i K D is real symmetric too, takes
the exact maximum of its slack over all modes from a real symmetric
eigenvalue problem.  Every check here is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .fitting import fit_power_law
from .symbols import EquilibriumCoefficients, _by_magnitude, real_form, real_form_eig
# not called here, but perfbench/tracing.py wraps the name in this
# module's namespace too
from .symbols import evolution_symbol  # noqa: F401

__all__ = [
    "CompensatingCertificate",
    "DissipativityType",
    "GenuineCouplingReport",
    "FriedrichsReport",
    "LyapunovReport",
    "atilde",
    "atilde_eigenvalues",
    "genuine_coupling_scan",
    "check_friedrichs",
    "friedrichs_search",
    "compensating_window",
    "compensating_matrix",
    "verify_certificate",
    "spectral_bound",
    "lyapunov_check",
    "default_xi_grid",
    "mirrored_linspace",
]

# the relative rank threshold of the kernel and nullspace tests, and the
# least coupling margin and symmetrizer eigenvalue that count as positive
_RANK_RTOL = 1e-10
_MARGIN_TOL = 1e-10
_PD_TOL = 1e-10


def default_xi_grid(xi_min: float = 1e-3, xi_max: float = 1e3,
                    n_per_decade: int = 2001) -> np.ndarray:
    """Logarithmically spaced |xi| grid, mirrored in sign.

    ``n_per_decade`` is the total point count spread uniformly in log10 over
    the range (the historical name reflects the per-decade density of the
    default: roughly 2001 points over six decades).
    """
    pos = np.logspace(np.log10(xi_min), np.log10(xi_max), n_per_decade)
    return np.concatenate([-pos[::-1], pos])


def mirrored_linspace(xi_max: float, n: int) -> np.ndarray:
    """``np.linspace(-xi_max, xi_max, n)`` mirrored in sign exactly.

    The points past the middle keep linspace's bits, each point before it
    is the exact negative of its mirror, and for an odd ``n`` the middle
    point is +0.0.  linspace's own halves are not exact negatives (its
    4001 points on [-100, 100] hold 3336 distinct |xi|, this grid 2001),
    and a quantity even in xi is formed once per distinct |xi|.
    """
    xi = np.linspace(-xi_max, xi_max, n)
    if n % 2:
        xi[n // 2] = 0.0
    xi[:n // 2] = -xi[:(n - 1) // 2:-1]
    return xi


def atilde(coeffs: EquilibriumCoefficients, xi) -> np.ndarray:
    """Closed form Atilde(xi) = [[u, sqrt(beta), 0], [sqrt(beta), u, c], [0, c, u]]
    of the transformed triplet (I, Atilde(xi), Btilde), Btilde = diag(btilde)."""
    xi = np.asarray(xi, dtype=float)
    rb = np.sqrt(coeffs.beta(xi))
    a = np.zeros(xi.shape + (3, 3))
    a[..., 0, 0] = coeffs.u
    a[..., 1, 1] = coeffs.u
    a[..., 2, 2] = coeffs.u
    a[..., 0, 1] = rb
    a[..., 1, 0] = rb
    a[..., 1, 2] = coeffs.cbar
    a[..., 2, 1] = coeffs.cbar
    return a


def atilde_eigenvalues(coeffs: EquilibriumCoefficients, xi) -> np.ndarray:
    """Closed-form eigenvalues (u - r, u, u + r) with r = sqrt(c^2 + beta(xi)).

    Real and simple for every xi (constant multiplicity), since
    c^2 + beta > 0.
    """
    xi = np.asarray(xi, dtype=float)
    r = np.sqrt(coeffs.cbar ** 2 + coeffs.beta(xi))
    return np.stack([coeffs.u - r, coeffs.u + 0.0 * r, coeffs.u + r], axis=-1)


# ---------------------------------------------------------------------------
# genuine coupling
# ---------------------------------------------------------------------------


@dataclass
class GenuineCouplingReport:
    passed: bool
    min_margin: float
    worst_xi: float
    failures: list = field(default_factory=list)  # (xi, kernel vector) pairs
    n_xi: int = 0


def genuine_coupling_scan(a0_of_xi: Callable, a_of_xi: Callable, b_of_xi: Callable,
                          xi_grid: Sequence[float]) -> GenuineCouplingReport:
    """Check that no kernel vector of B(xi) solves (rho A0 + A(xi)) V = 0.

    The maps must depend on xi only through xi^2, as both triplets' do (the
    symbol's ``coeffs.a0``, ``coeffs.a`` and ``coeffs.b``; its symmetric
    form's I, :func:`atilde` and xi^2 Btilde): they are evaluated once on the
    distinct |xi| of the grid points xi != 0 (4001 of the 8002 points of
    the analyze-symbol grid) and broadcast to (N, 3, 3), and each grid
    point reads its |xi|'s margins, so ``worst_xi``, the failures and their
    order are those of a scan over every point; ``n_xi`` counts the grid
    points.  One batched eigendecomposition of the symmetric positive
    semi-definite B(xi) gives its kernel (relative threshold ``_RANK_RTOL``;
    every unit vector where B(xi) = 0); for each kernel vector V the pair
    {A0 V, A(xi) V} must have rank two.  The margin is the smaller singular
    value of the normalized pair [a, b] = [A0 V/|A0 V|, A(xi) V/|A(xi) V|]
    (1 if orthogonal, 0 at a rank drop, invariant under the xi^2 growth of
    A(xi)), taken in the closed form |a - s b|/sqrt(2), s = +1 if a.b >= 0
    else -1: equal to sqrt(1 - |a.b|) but accurate down to roundoff near a
    rank drop.  A zero A(xi) V has margin 0, a zero A0 V otherwise margin 1.
    It passes when no margin is <= ``_MARGIN_TOL`` on a grid with a xi != 0:
    a B(xi) nonsingular everywhere has no kernel, and min_margin = inf.
    """
    xi = np.asarray(xi_grid, dtype=float)
    xi = xi[xi != 0.0]
    magnitudes, back = _by_magnitude(xi)
    shape = magnitudes.shape + (3, 3)
    b = np.broadcast_to(np.asarray(b_of_xi(magnitudes), dtype=float), shape)
    # halved before the sum, which cannot overflow then; the same bits as
    # halving the sum wherever that is finite and normal
    b = 0.5 * b + 0.5 * np.swapaxes(b, -1, -2)
    evals, v = np.linalg.eigh(b)
    evals = np.abs(evals)
    lam_max = evals.max(axis=-1, keepdims=True)
    kernel = evals <= _RANK_RTOL * lam_max              # all three where B = 0
    v[lam_max[:, 0] == 0.0] = np.eye(3)
    a0v = np.broadcast_to(np.asarray(a0_of_xi(magnitudes), dtype=float), shape) @ v
    av = np.broadcast_to(np.asarray(a_of_xi(magnitudes), dtype=float), shape) @ v
    # each column divided by its largest |entry| first, so that its sum of
    # squares cannot overflow (A(xi) grows like xi^2)
    n0 = np.abs(a0v).max(axis=-2)
    na = np.abs(av).max(axis=-2)
    with np.errstate(divide="ignore", invalid="ignore"):
        a0v /= n0[:, None, :]
        av /= na[:, None, :]
        a0v /= np.linalg.norm(a0v, axis=-2)[:, None, :]
        av /= np.linalg.norm(av, axis=-2)[:, None, :]
        s = np.where(np.einsum("nij,nij->nj", a0v, av) >= 0.0, 1.0, -1.0)
        av *= s[:, None, :]
        a0v -= av                                       # a - s b, in place
        margin = np.linalg.norm(a0v, axis=-2) / np.sqrt(2.0)
    margin = np.where(na == 0.0, 0.0, np.where(n0 == 0.0, 1.0, margin))
    margin[~kernel] = np.inf
    margin = margin[back]                               # back to the grid
    min_margin = float(margin.min(initial=np.inf))
    worst_xi = (float(xi[np.argmin(margin) // 3]) if np.isfinite(min_margin)
                else np.nan)
    failures = [(float(xi[i]), v[back[i], :, j].copy())
                for i, j in zip(*np.nonzero(margin <= _MARGIN_TOL))]
    return GenuineCouplingReport(
        passed=bool(not failures and xi.size > 0),
        min_margin=min_margin, worst_xi=worst_xi, failures=failures, n_xi=xi.size)


# ---------------------------------------------------------------------------
# Friedrichs symmetrizability
# ---------------------------------------------------------------------------

_SYM_INDEX = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


def _sym_from_vector(s: np.ndarray) -> np.ndarray:
    m = np.zeros((3, 3))
    for val, (i, j) in zip(s, _SYM_INDEX):
        m[i, j] = val
        m[j, i] = val
    return m


def _symmetry_constraint_rows(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Linear constraints on vec(S) making every S @ M symmetric.

    S is parameterized by its six independent entries; each matrix M
    contributes three rows, one per off-diagonal pair of S @ M.
    """
    rows = []
    for m in matrices:
        for (i, j) in [(0, 1), (0, 2), (1, 2)]:
            row = np.zeros(6)
            for col, (a, b) in enumerate(_SYM_INDEX):
                basis = np.zeros((3, 3))
                basis[a, b] = 1.0
                basis[b, a] = 1.0
                sm = basis @ m
                row[col] = sm[i, j] - sm[j, i]
            rows.append(row)
    return np.array(rows)


@dataclass
class FriedrichsReport:
    feasible: bool
    nullspace_dim: int
    symmetrizer: Optional[np.ndarray]
    min_eig: float
    certificate: str
    inconclusive: bool = False  # neither a symmetrizer nor a proof of none


def friedrichs_search(a0: np.ndarray, d_matrices: Sequence[np.ndarray]) -> FriedrichsReport:
    """Search for a constant symmetric positive-definite S with S A0 and every
    S D_k symmetric; certify infeasibility otherwise.

    The simultaneous-symmetry conditions are homogeneous linear constraints
    on the six entries of S.  The search computes the constraint nullspace
    (SVD with relative threshold) and then either (a) reports trivial
    infeasibility when the nullspace is zero, (b) reports a forced zero
    diagonal entry, which rules out positive definiteness through the
    corresponding leading principal minor, or (c) tries +-P, P the
    projection of the identity onto the nullspace.  In the parameterization
    by the six entries, the coefficient of a unit basis element b in P is
    the trace of b.  A one-dimensional nullspace is thereby decided exactly:
    a positive-definite t b has the positive trace t tr(b), so t has the sign
    of tr(b) and P is a positive multiple of it.  A larger nullspace with
    neither of +-P positive definite is reported inconclusive (``feasible``
    False): the search neither found a symmetrizer nor proved that none
    exists.  S > 0 already implies S A0 > 0 because S A0 is similar to
    S^{1/2} A0 S^{1/2}.
    """
    constraints = _symmetry_constraint_rows([np.asarray(a0)] +
                                            [np.asarray(d) for d in d_matrices])
    _, sv, vt = np.linalg.svd(constraints)
    top = sv[0] if sv.size else 0.0
    rank = int(np.sum(sv > _RANK_RTOL * max(top, 1.0)))
    basis = vt[rank:]
    dim = basis.shape[0]

    if dim == 0:
        return FriedrichsReport(
            feasible=False, nullspace_dim=0, symmetrizer=None, min_eig=0.0,
            certificate=("only S = 0 satisfies the simultaneous symmetry "
                         "constraints; no positive-definite symmetrizer exists"))

    mats = [_sym_from_vector(b) for b in basis]

    # forced zero diagonal entry across the whole nullspace => never PD
    scale = max(float(np.abs(basis).max()), 1.0)
    for d in range(3):
        if all(abs(m[d, d]) <= _RANK_RTOL * scale for m in mats):
            return FriedrichsReport(
                feasible=False, nullspace_dim=dim, symmetrizer=None, min_eig=0.0,
                certificate=(f"symmetry constraints force S[{d},{d}] = 0 for "
                             "every admissible S; the leading principal minor "
                             "vanishes, so S cannot be positive definite"))

    # the projection of the identity onto the nullspace, and its negative
    target = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 1.0])
    proj = sum(c * m for c, m in zip(basis @ target, mats))
    nrm = np.linalg.norm(proj)
    s = proj / nrm if nrm > 0 else proj
    low, high = np.linalg.eigvalsh(s)[[0, -1]]
    best_eig = float(max(low, -high))     # the least eigenvalue of P or of -P
    if low < -high:
        s = -s

    if best_eig > _PD_TOL:
        s = s / s[0, 0]
        return FriedrichsReport(
            feasible=True, nullspace_dim=dim, symmetrizer=s,
            min_eig=float(np.linalg.eigvalsh(s).min()),
            certificate="positive-definite symmetrizer found in the constraint nullspace")
    if dim == 1:
        return FriedrichsReport(
            feasible=False, nullspace_dim=1, symmetrizer=None, min_eig=best_eig,
            certificate=("a positive-definite S in the one-dimensional constraint "
                         "nullspace would be the multiple of its basis element "
                         "with positive trace, which is not positive definite "
                         f"(normalized minimum eigenvalue {best_eig:.3e}); no "
                         "positive-definite symmetrizer exists"))
    return FriedrichsReport(
        feasible=False, nullspace_dim=dim, symmetrizer=None, min_eig=best_eig,
        inconclusive=True,
        certificate=("inconclusive: neither sign of the identity's projection "
                     "onto the constraint nullspace is positive definite "
                     f"(normalized minimum eigenvalue {best_eig:.3e})"))


def check_friedrichs(coeffs: EquilibriumCoefficients) -> FriedrichsReport:
    """Friedrichs symmetrizability of the triplet at an equilibrium state."""
    # the coefficients of W_x, W_xx and W_xxx in A0 W_t + A1 W_x - B W_xx - C W_xxx
    return friedrichs_search(coeffs.A0, [coeffs.A1, -coeffs.B, -coeffs.C])


# ---------------------------------------------------------------------------
# compensating matrix symbol
# ---------------------------------------------------------------------------


def compensating_window(coeffs: EquilibriumCoefficients) -> tuple[float, float, float]:
    """(gamma_bar, eps_lo, eps_hi): the admissible open window for eps.

    gamma_bar = (1/4) min{alpha/(e_theta rho), mu/rho, alpha p_rho/(e_theta rho c^2)}
    and the window is (gamma_bar, (1/2) min{mu/rho, alpha p_rho/(e_theta rho c^2)}).
    """
    c2 = coeffs.cbar ** 2
    _, visc, therm = coeffs.btilde
    if c2 > 0:
        therm_scaled = therm * coeffs.p_rho / c2
    else:
        therm_scaled = np.inf
    gamma_bar = 0.25 * min(therm, visc, therm_scaled)
    hi = 0.5 * min(visc, therm_scaled)
    return gamma_bar, gamma_bar, hi


def compensating_matrix(coeffs: EquilibriumCoefficients,
                        eps: Optional[float] = None) -> Callable[[np.ndarray], np.ndarray]:
    """Skew-symmetric compensating symbol K(xi) for the transformed triplet.

    K(xi) = (eps/sqrt(beta)) [[0, 1, 0], [-1, 0, c/sqrt(beta)],
                              [0, -c/sqrt(beta), 0]].

    ``eps`` must lie strictly inside the admissible window; the default is
    its midpoint.  Returns a callable mapping (arrays of) xi to (..., 3, 3).
    """
    gamma_bar, lo, hi = compensating_window(coeffs)
    if not (hi > lo):
        raise ValueError(
            f"empty compensating window (gamma_bar={gamma_bar:.6g}, hi={hi:.6g}); "
            "the coefficients admit no uniform certificate (vanishing dissipation?)")
    if eps is None:
        eps = 0.5 * (lo + hi)
    if not (lo < eps < hi):
        raise ValueError(f"eps={eps} outside the admissible window ({lo:.6g}, {hi:.6g})")
    c = coeffs.cbar

    def k_of_xi(xi):
        xi = np.asarray(xi, dtype=float)
        rb = np.sqrt(coeffs.beta(xi))
        k = np.zeros(xi.shape + (3, 3))
        k[..., 0, 1] = 1.0
        k[..., 1, 0] = -1.0
        k[..., 1, 2] = c / rb
        k[..., 2, 1] = -c / rb
        return (eps / rb)[..., None, None] * k

    k_of_xi.eps = float(eps)
    k_of_xi.gamma_bar = float(gamma_bar)
    return k_of_xi


def _skew_norm(k: np.ndarray) -> np.ndarray:
    """Spectral norms of a stack (..., 3, 3) of real skew-symmetric matrices.

    The eigenvalues of such a matrix are 0 and +-i|w|, w its axial vector,
    so its spectral norm |w| is its Frobenius norm over sqrt(2), exactly.
    """
    return np.linalg.norm(k, axis=(-2, -1)) / np.sqrt(2.0)


@dataclass
class CompensatingCertificate:
    """Grid-verified bounds for the compensating symbol."""

    eps: float
    gamma_bar: float
    sup_K: float
    sup_xiK: float
    min_eig: float  # min over grid of lambda_min([K A]^s + Btilde)
    off_diagonal_residual: float
    passed: bool
    n_xi: int


def verify_certificate(coeffs: EquilibriumCoefficients,
                       eps: Optional[float] = None,
                       xi_grid: Optional[np.ndarray] = None,
                       tol: float = 1e-10) -> CompensatingCertificate:
    """Verify skew-symmetry and the uniform lower bound of the compensating symbol.

    Over the grid, computes lambda_min([K(xi) Atilde(xi)]^s + Btilde), the
    suprema of the spectral norms |K| and |xi K|, and the off-diagonal
    residual of [K A]^s (the construction makes it exactly diagonal).  The
    certificate passes iff the minimum eigenvalue stays >= gamma_bar - tol.

    K and Atilde depend on xi only through xi^2, so every quantity here is
    even in xi and is formed once per distinct |xi| of the grid (2001 of
    the 4001 points of the default :func:`mirrored_linspace` grid); the
    extrema are those over every grid point, bit for bit, and ``n_xi``
    counts the grid points.  A grid not mirrored in sign has fewer |xi| in
    common, not a different result.
    """
    if xi_grid is None:
        xi_grid = mirrored_linspace(100.0, 4001)
    xi = np.asarray(xi_grid, dtype=float)
    magnitudes, _ = _by_magnitude(xi)
    k_fn = compensating_matrix(coeffs, eps)
    K = k_fn(magnitudes)
    KA = K @ atilde(coeffs, magnitudes)
    sym = 0.5 * (KA + np.swapaxes(KA, -1, -2))
    total = sym + np.diag(coeffs.btilde)
    eigs = np.linalg.eigvalsh(total)
    min_eig = float(eigs.min())

    off = sym.copy()
    for i in range(3):
        off[..., i, i] = 0.0
    off_res = float(np.abs(off).max())

    norms_K = _skew_norm(K)
    norms_xiK = magnitudes * norms_K
    passed = min_eig >= k_fn.gamma_bar - tol
    return CompensatingCertificate(
        eps=k_fn.eps, gamma_bar=k_fn.gamma_bar,
        sup_K=float(norms_K.max()), sup_xiK=float(norms_xiK.max()),
        min_eig=min_eig, off_diagonal_residual=off_res,
        passed=bool(passed), n_xi=xi.size)


# ---------------------------------------------------------------------------
# spectral bound and dissipativity type
# ---------------------------------------------------------------------------


@dataclass
class DissipativityType:
    """Fit of max Re lambda(-M(i xi)) against -c0 xi^{2p} / (1 + xi^2)^q."""

    p: float
    q: float
    c0: float
    residual: float
    strictly_dissipative: bool
    c0_uniform: float  # certified min over the grid of -sigma/xi^2
    classification: str
    xi: np.ndarray = field(repr=False, default=None)
    sigma: np.ndarray = field(repr=False, default=None)
    violations: list = field(default_factory=list)


def _classify(p: float, q: float, tol: float = 0.05) -> str:
    if abs(p - q) <= tol:
        return "standard"
    return "regularity-gain" if p > q else "regularity-loss"


SMALL_XI_WINDOW = (1e-3, 1e-1)
LARGE_XI_WINDOW = (1e1, 1e3)


def spectral_bound(coeffs: EquilibriumCoefficients,
                   xi_grid: Optional[np.ndarray] = None,
                   small_window: tuple[float, float] = SMALL_XI_WINDOW,
                   large_window: tuple[float, float] = LARGE_XI_WINDOW) -> DissipativityType:
    """Max real part of the eigenvalues of -M(i xi) and the (p, q) type fit.

    sigma(xi) < 0 for xi != 0 is strict dissipativity.  The exponents are
    obtained from two log-log asymptote fits: near xi = 0 the model gives
    slope 2p, for large xi slope 2(p - q).  The amplitude c0 is fitted over
    both windows and c0_uniform = min(-sigma/xi^2) certifies a uniform
    heat-kernel-type bound on the grid.

    The spectrum of M(i xi) is i xi u plus that of the real symbol R(xi) of
    :func:`~nsfk.symbols.real_form`, so sigma(xi) = -min Re eig R(xi).  R is
    tridiagonal, and :func:`~nsfk.symbols.real_form_eig` takes its
    eigenvalues from its characteristic cubic: the real root bracketed in
    [0, b3 xi^2] by safeguarded Newton, the other two from the deflated
    quadratic, all on R divided by its largest |entry| so that no grid the
    CLI accepts overflows.  Against 50-digit arithmetic sigma is within
    1e-14 relative on the corners of the closure lattice, where LAPACK's
    dgeev on R was up to 8.3e-10 off (5.8e-13 at mu0 = alpha0 = 1e-3 with
    the other reference values).  sigma is even in xi
    (M(-xi) = conj M(xi) has the conjugate spectrum), so the eigenvalues are
    taken once per distinct |xi| of the grid (4001 of the 8002 default
    points) and each point reads its |xi|'s sigma.
    """
    if xi_grid is None:
        xi_grid = default_xi_grid()
    xi = np.asarray(xi_grid, dtype=float)
    xi_nz = xi[xi != 0.0]
    magnitudes, back = _by_magnitude(xi_nz)
    eigs = real_form_eig(real_form(coeffs, magnitudes)[0])
    sigma = -eigs.real.min(axis=-1)[back]

    hit = sigma >= 0.0
    violations = list(zip(xi_nz[hit].tolist(), sigma[hit].tolist()))
    strict = not violations

    if strict:
        ax = np.abs(xi_nz)
        fit_small = fit_power_law(ax, -sigma, small_window)
        fit_large = fit_power_law(ax, -sigma, large_window)
        p = fit_small.exponent / 2.0
        q = p - fit_large.exponent / 2.0
        both = (ax >= small_window[0]) & (ax <= small_window[1])
        both |= (ax >= large_window[0]) & (ax <= large_window[1])
        model_log = 2.0 * p * np.log(ax[both]) - q * np.log1p(ax[both] ** 2)
        data_log = np.log(-sigma[both])
        c0 = float(np.exp(np.mean(data_log - model_log)))
        residual = float(np.sqrt(np.mean((data_log - model_log - np.log(c0)) ** 2)))
        c0_uniform = float((-sigma / xi_nz ** 2).min())
        classification = _classify(p, q)
    else:
        p = q = c0 = residual = float("nan")
        c0_uniform = 0.0
        classification = "not strictly dissipative"

    return DissipativityType(p=p, q=q, c0=c0, residual=residual,
                             strictly_dissipative=strict,
                             c0_uniform=c0_uniform, classification=classification,
                             xi=xi_nz, sigma=sigma, violations=violations)


# ---------------------------------------------------------------------------
# Lyapunov functional
# ---------------------------------------------------------------------------


@dataclass
class LyapunovReport:
    passed: bool
    c0: float
    delta: float
    # max over xi of lambda_max(H(xi)) / xi^2, the largest slack of
    # dY/dt + c0 xi^2 Y over unit modes per xi^2 (must be <= tol)
    worst_slack: float
    equivalence_ok: bool  # |delta xi K| <= 1/2 on the grid
    # sup |xi K| on the grid: Y is equivalent to |V|^2 for delta <= 0.5 / sup_xiK
    sup_xiK: float
    inconclusive: bool = False
    reason: str = ""
    violations: list = field(default_factory=list)  # (xi, slack / xi^2) pairs


# D^{-1} (i K) D for D = diag(1, i, 1), entry by entry: real symmetric, since
# K is real skew-symmetric with K[0, 2] = 0
_K_IN_REAL_FRAME = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 1.0], [0.0, -1.0, 0.0]])


def lyapunov_check(coeffs: EquilibriumCoefficients,
                   eps: Optional[float] = None,
                   delta: float = 0.05,
                   xi_grid: Optional[np.ndarray] = None,
                   tol: float = 1e-10) -> LyapunovReport:
    """Verify modal decay of Y = |V|^2 - delta xi <V, i K V> along the flow.

    Along V_t = -G V, G = i xi Atilde + xi^2 Btilde, the derivative of
    Y = V^H P V, P = I - delta xi i K, satisfies dY/dt + c0 xi^2 Y <= 0 with
    the explicit constant c0 = delta gamma_bar / (1 + delta sup|xi K|),
    provided delta is small enough for Y to be equivalent to |V|^2 (checked:
    |delta xi K| <= 1/2 on the grid) and the symmetrized-product bound
    holds.  The slack dY/dt + c0 xi^2 Y is V^H H V with the Hermitian
    H = -(G^H P + P G) + c0 xi^2 P, so its maximum over unit modes is
    lambda_max(H), exactly.  In the frame D = diag(1, i, 1) of
    :func:`~nsfk.symbols.real_form`, G = D (i xi u + R) D^{-1} and
    P = D P_R D^{-1} with R and P_R real, and the i xi u terms cancel:
    H is unitarily similar to the real symmetric
    H_R = -(R^T P_R + P_R R) + c0 xi^2 P_R, whose eigenvalues are taken in
    one batch.  The observed value is max over the grid of
    lambda_max / xi^2, which the xi^2 growth of both terms leaves scale-free.

    The grid defaults to the 200 points xi != 0 of linspace(-50, 50, 201).
    The report carries sup |xi K| over it.  With capillarity |xi K| is
    bounded uniformly in xi, so the largest admissible delta, 0.5 / sup |xi K|,
    is a property of the closure; without, |xi K| grows like |xi| and that
    bound shrinks as the grid widens.
    """
    xi = np.asarray(np.linspace(-50.0, 50.0, 201) if xi_grid is None else xi_grid,
                    dtype=float)
    xi = xi[xi != 0.0]
    k_fn = compensating_matrix(coeffs, eps)
    K = k_fn(xi)                      # (n, 3, 3)
    sup_xiK = float((np.abs(xi) * _skew_norm(K)).max())
    if delta == 0.0:
        return LyapunovReport(
            passed=False, c0=0.0, delta=0.0, worst_slack=0.0,
            equivalence_ok=True, sup_xiK=sup_xiK, inconclusive=True,
            reason="delta = 0 degenerates the functional to |V|^2; no damping certified")

    equivalence_ok = delta * sup_xiK <= 0.5
    if not equivalence_ok:
        # without a uniform bound on |xi K| (e.g. no capillarity) the
        # functional is not equivalent to |V|^2 on this grid at this delta
        return LyapunovReport(
            passed=False, c0=0.0, delta=delta, worst_slack=np.nan,
            equivalence_ok=False, sup_xiK=sup_xiK, inconclusive=True,
            reason=(f"sup |delta xi K| = {delta * sup_xiK:.3g} > 1/2: the "
                    "functional is not equivalent to |V|^2 on this grid"))
    c0 = delta * k_fn.gamma_bar / (1.0 + delta * sup_xiK)

    xi2 = xi[:, None, None] ** 2
    p = np.eye(3) - (delta * xi)[:, None, None] * (K * _K_IN_REAL_FRAME)
    rp = np.swapaxes(real_form(coeffs, xi)[0], -1, -2) @ p
    h = c0 * xi2 * p
    h -= rp
    h -= np.swapaxes(rp, -1, -2)
    slack = np.linalg.eigvalsh(h)[:, -1] / xi ** 2
    worst = float(slack.max())
    violations = [(float(xi[i]), float(slack[i]))
                  for i in np.flatnonzero(slack > tol)[:10]]
    return LyapunovReport(passed=bool(worst <= tol), c0=c0, delta=delta,
                          worst_slack=worst, equivalence_ok=True, sup_xiK=sup_xiK,
                          violations=violations)
