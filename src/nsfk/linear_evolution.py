"""Exact per-mode evolution of the linearized system and decay-rate fitting.

Each Fourier mode of the linear perturbation system evolves as
What(xi, t) = exp(-t M(i xi)) What(xi, 0).  Whole-line evolution is realized
as quadrature over a continuous xi grid graded toward the origin (where the
algebraic decay rate is decided) rather than as a periodic FFT, whose
spectral gap would destroy the t^{-1/4} tail.  The weighted modal energy

    ||W||_ell^2 = int |xi|^{2 ell} [ (1 + xi^2) |What_1|^2 + |What_2|^2
                                   + |What_3|^2 ] dxi

is the Fourier-side realization of the anisotropic norm that gives the
density one extra derivative.  For integrable initial data with
What(0) != 0 the norm decays like (1 + t)^{-(ell/2 + 1/4)}.

Matrix exponentials use a per-node eigendecomposition with a
scaling-and-squaring fallback (scipy.linalg.expm, imported on first use)
wherever the eigenvector matrix is ill-conditioned: its Frobenius condition
number, formed from its inverse, exceeds a threshold or is nan, or it is
singular (a defective generator); the mode propagator judges the real
form's eigenvectors V_R alone.  The mode propagator factors the real form
R of the symbol (M = Q (i xi u + R) Q^{-1}, ``symbols.real_form``) instead
of M, by ``symbols.real_form_eig``: R is tridiagonal, its eigenvalues come
from its characteristic cubic (a real root bracketed in [0, b3 xi^2], found
by safeguarded Newton on R divided by its largest |entry|, and a deflated
quadratic) and its eigenvectors from the adjugate of lambda I - R, with no
LAPACK call per matrix.  The eigenvalues are within 4e-15 of the spectral
radius of 50-digit ones on the corners of the closure lattice.  The stepper's
``matrix_exponentials`` still factors the complex generator with
``np.linalg.eig``.  Since M(-i xi) = conj M(i xi), a node set is factored,
and exp(-lambda t) taken, once per distinct |xi|, and the nodes xi < 0 take
the conjugates; V^{-1} What(0) is formed once for all evaluation times.
The decay fit evolves a node xi < 0 as |xi| with the mode conj What(xi),
whose weighted norm is the same at every t, so the Hermitian spectrum of a
real field is evolved on xi >= 0 only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .fitting import fit_power_law
from .symbols import (EquilibriumCoefficients, _by_magnitude, evolution_symbol,
                      real_form, real_form_eig)

__all__ = [
    "SpectralProfile",
    "DecayFit",
    "ModePropagator",
    "geometric_nodes",
    "gaussian_profile",
    "zero_mass_gaussian_profile",
    "csv_profile",
    "weighted_norm",
    "evolve_and_fit",
]

_RESIDUAL_TOL = 0.1      # a decay fit with a larger log-residual is flagged
# an eigenvector matrix with a larger Frobenius condition number (or nan)
# takes the scaling-and-squaring fallback
_COND_THRESHOLD = 1e4
# exp(-x) < 2^-1075, half the least subnormal, rounds to 0.0 in binary64 for
# every x > 745.14, so exp(-lambda t) is 0 wherever Re(lambda) t exceeds it
_EXP_UNDERFLOW = 746.0


def _grading_ratio(n_half: int, xi_max: float, h0: float) -> float:
    """Ratio r > 1 with h0 (r^n_half - 1)/(r - 1) = xi_max, bisecting log r."""
    def reach(log_r):
        # solved in log space; clip to dodge overflow far from the root
        if n_half * log_r > 600.0:
            return 1e300
        r = np.exp(log_r)
        return h0 * np.expm1(n_half * log_r) / (r - 1.0) - xi_max

    if reach(0.7) < 0:
        raise ValueError(f"{2 * n_half} nodes cannot grade from h0 = {h0:g} "
                         f"out to xi_max = {xi_max:g}")
    lo, hi = 1e-15, 0.7
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if reach(mid) < 0:
            lo = mid
        else:
            hi = mid
    return float(np.exp(hi))


def geometric_nodes(n_nodes: int = 4096, xi_max: float = 200.0,
                    h0: float = 1e-4) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric quadrature nodes graded geometrically toward xi = 0.

    Half the budget is spent on each sign; spacings grow geometrically from
    ``h0`` at the origin out to ``xi_max``.  Weights come from Simpson's rule
    applied in the (uniform) node index with the analytic Jacobian of the
    grading map, which keeps the quadrature fourth-order accurate on the
    graded grid.  Returns (nodes, weights) with 2*(n_nodes//2) + 1 entries.
    """
    n_half = n_nodes // 2
    if n_half < 2:
        raise ValueError("need at least 4 nodes")
    if not 0 < h0 < xi_max / n_half:
        raise ValueError(f"need 0 < h0 < xi_max / {n_half}; got h0 = {h0:g}, "
                         f"xi_max = {xi_max:g}")

    ratio = _grading_ratio(n_half, xi_max, h0)

    j = np.arange(0, n_half + 1, dtype=float)
    pos = h0 * (ratio ** j - 1.0) / (ratio - 1.0)
    nodes = np.concatenate([-pos[:0:-1], pos])
    s = np.arange(-n_half, n_half + 1, dtype=float)
    jac = h0 * ratio ** np.abs(s) * np.log(ratio) / (ratio - 1.0)

    simpson = np.ones(nodes.size)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    simpson /= 3.0
    weights = simpson * jac
    return nodes, weights


@dataclass
class SpectralProfile:
    """Quadrature nodes, weights, and per-node complex 3-vectors What(xi).

    A real-valued physical field corresponds to Hermitian symmetry
    What(-xi) = conj(What(xi)).
    """

    xi_nodes: np.ndarray
    weights: np.ndarray
    modes: np.ndarray  # (n_nodes, 3) complex

    def __post_init__(self):
        self.xi_nodes = np.asarray(self.xi_nodes, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        self.modes = np.asarray(self.modes, dtype=complex)
        if np.any(np.diff(self.xi_nodes) <= 0):
            raise ValueError("xi_nodes must be strictly increasing")
        if self.modes.shape != (self.xi_nodes.size, 3):
            raise ValueError("modes must have shape (n_nodes, 3)")


def gaussian_profile(nodes: Optional[np.ndarray] = None,
                     weights: Optional[np.ndarray] = None,
                     width: float = 1.0,
                     amplitudes=(1.0, 1.0, 1.0)) -> SpectralProfile:
    """Profile What(xi) = amplitudes * exp(-(width xi)^2); nonzero at xi = 0."""
    if nodes is None or weights is None:
        nodes, weights = geometric_nodes()
    shape = np.exp(-(width * nodes) ** 2)
    modes = shape[:, None] * np.asarray(amplitudes, dtype=complex)[None, :]
    return SpectralProfile(nodes, weights, modes)


def zero_mass_gaussian_profile(nodes: Optional[np.ndarray] = None,
                               weights: Optional[np.ndarray] = None,
                               width: float = 1.0,
                               amplitudes=(1.0, 1.0, 1.0)) -> SpectralProfile:
    """Hermitian profile i xi exp(-(width xi)^2): vanishing mean (What(0) = 0)."""
    if nodes is None or weights is None:
        nodes, weights = geometric_nodes()
    shape = 1j * nodes * np.exp(-(width * nodes) ** 2)
    modes = shape[:, None] * np.asarray(amplitudes, dtype=complex)[None, :]
    return SpectralProfile(nodes, weights, modes)


def csv_profile(path) -> SpectralProfile:
    """Profile from a CSV with columns xi, re1 .. im3 and at least two rows;
    weights np.gradient(xi)."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    if data.size < 2:
        raise ValueError("needs at least two rows")
    xi = np.asarray(data["xi"], dtype=float)
    modes = np.stack([data[f"re{i}"] + 1j * data[f"im{i}"] for i in (1, 2, 3)],
                     axis=1)
    return SpectralProfile(xi, np.gradient(xi), modes)


def _conditioned(vecs: np.ndarray):
    """(V, V^{-1}, bad) for a stack (..., 3, 3) of eigenvector matrices.

    ``bad`` flags a V whose Frobenius condition number ||V|| ||V^{-1}|| is
    not at most ``_COND_THRESHOLD``: a nan reads as ill-conditioned.  It is
    formed from the one inverse of the stack, as ``np.linalg.cond`` forms
    it, not from singular values, so a nearly singular V (the eigenvectors
    of a defective generator, such as a Jordan block) reads huge or inf.  A
    stack that ``np.linalg.inv`` rejects as exactly singular takes
    ``np.linalg.cond``, which reads inf there, and is inverted again once
    its flagged entries are replaced.  At a flagged entry V and V^{-1} are
    the identity and callers use :func:`_expm_stack` instead.
    """
    try:
        inv = np.linalg.inv(vecs)
    except np.linalg.LinAlgError:
        inv = None
        cond = np.linalg.cond(vecs, "fro")
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            cond = (np.linalg.norm(vecs, "fro", axis=(-2, -1))
                    * np.linalg.norm(inv, "fro", axis=(-2, -1)))
    bad = ~(cond <= _COND_THRESHOLD)
    flagged = bad[..., None, None]
    vecs = np.where(flagged, np.eye(3), vecs)
    inv = np.linalg.inv(vecs) if inv is None else np.where(flagged, np.eye(3), inv)
    return vecs, inv, bad


def _eigensystem(generators: np.ndarray):
    """(lam, V, V^{-1}, bad) with G = V diag(lam) V^{-1} for a stack
    (..., 3, 3); see :func:`_conditioned`."""
    lam, vecs = np.linalg.eig(generators)
    return (lam, *_conditioned(vecs))


def expm(a: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm, imported on first use: the fallback is rarely taken."""
    from scipy.linalg import expm as scipy_expm
    return scipy_expm(a)


def _expm_stack(generators: np.ndarray, t: float) -> np.ndarray:
    """exp(-t G_k) by scaling and squaring for a stack (m, 3, 3)."""
    return np.array([expm(-t * g) for g in generators])


class ModePropagator:
    """Eigendecompositions of M(i xi) over a node set, one per distinct |xi|.

    M(i xi) = Q (i xi u + R) Q^{-1} with the real R and diagonal Q of
    :func:`~nsfk.symbols.real_form`, so one real eigendecomposition
    R = V_R diag(lambda_R) V_R^{-1} gives lambda = i xi u + lambda_R,
    V = Q V_R, its columns scaled to unit length, and V^{-1} = V_R^{-1} Q^{-1}
    with its rows scaled to match.  R is tridiagonal and is
    factored as such by :func:`~nsfk.symbols.real_form_eig` (the bracketed
    real root of its cubic by safeguarded Newton, the deflated quadratic,
    adjugate columns as eigenvectors, all on R divided by its largest
    |entry|; xi = 0 gives lambda = 0 and V_R = I exactly), with the
    residual |R V_R - V_R Lambda| <= 1e-14 |R| on the corners of the closure
    lattice.  R is formed and factored only at the distinct |xi| of the nodes
    (2049 of the 4097 symmetric geometric nodes).  The eigenvalues stay
    there, so exp(-lambda t) is taken once per distinct |xi|, and not at
    all where Re(lambda) t > ``_EXP_UNDERFLOW`` = 746, past which it is 0.0
    in binary64; since M(-i xi) = conj M(i xi), a node xi < 0 takes the
    conjugate of its mirror's exponentials, V and V^{-1}; nodes that are
    each their own distinct |xi| gather nothing.  Any node set works,
    symmetric in sign or not.  Modes evolve as V exp(-lambda t) V^{-1} What(0);
    nodes whose V_R is ill-conditioned or singular (see :func:`_conditioned`;
    V itself reads ill-conditioned at large |xi| from Q alone) fall back to
    scaling-and-squaring per time, their generators M(i xi) formed
    by :func:`~nsfk.symbols.evolution_symbol`.  The eigendecomposition path
    satisfies the semigroup property to roundoff.
    """

    def __init__(self, coeffs: EquilibriumCoefficients, xi_nodes: np.ndarray):
        self.xi_nodes = np.asarray(xi_nodes, dtype=float)
        magnitudes, back = _by_magnitude(self.xi_nodes)
        r, q = real_form(coeffs, magnitudes)
        lam, vecs = real_form_eig(r, vectors=True)
        # judged on V_R: Q's entries lie about |xi| apart, so V = Q V_R reads
        # ill-conditioned at large |xi| however well-conditioned V_R is
        vecs, vecs_inv, bad = _conditioned(vecs)
        vecs = q[:, :, None] * vecs
        length = np.linalg.norm(vecs, axis=-2, keepdims=True)
        vecs /= length
        vecs_inv *= length.swapaxes(-2, -1) / q[:, None, :]
        # (3, magnitudes): row i holds eigenvalue i at each distinct |xi|
        self.lam = np.ascontiguousarray(lam.T + 1j * coeffs.u * magnitudes)
        # entries whose exp(-lambda t) is real, and the |xi| where rows 1
        # and 2 are a complex conjugate pair; where u != 0 only lambda(0) = 0
        # is real and no pair is conjugate
        self._real = self.lam.imag == 0.0
        self._pair = ~self._real[1] & (self.lam[2] == self.lam[1].conj())
        neg = self.xi_nodes < 0
        self._back, self._neg = back, neg
        if np.array_equal(magnitudes, self.xi_nodes):
            # each node is its own distinct |xi|: nothing to gather or conjugate
            self._back, back = None, slice(None)
        self.vecs_inv = _conjugated(vecs_inv[back], neg)
        # V column-first as (3, 3, nodes): [j, i, k] holds entry (i, j) of
        # node k, the layout of IntegratingFactorRK4._apply
        self.vec_columns = np.ascontiguousarray(
            _conjugated(vecs[back], neg).transpose(2, 1, 0))
        self.bad = bad[back]
        # formed also for no flagged node: perfbench's certify workload
        # requires an evolution_symbol call, and this is its only one
        self.bad_generators = _conjugated(
            evolution_symbol(coeffs, np.abs(self.xi_nodes[self.bad])), neg[self.bad])

    def propagate(self, modes: np.ndarray,
                  times: Sequence[float]) -> Iterator[np.ndarray]:
        """The modes evolved to each of ``times`` (each t >= 0), one at a time.

        V^{-1} What(0) is formed here, once; the returned iterator yields
        What(t) for each t in turn, at the cost of one exponential per
        distinct |xi| and eigenvalue, one scaling and three column products
        with V per time, so only one time's modes are held at once.  t = 0
        yields a copy of ``modes``.
        """
        times = np.asarray(times, dtype=float)
        if np.any(times < 0):
            raise ValueError("times must be nonnegative")
        coeff = np.einsum("kij,kj->ik", self.vecs_inv, modes)
        return (self._evolved(modes, coeff, t) for t in times)

    def _exponentials(self, t: float) -> np.ndarray:
        """exp(-lambda t) at the nodes, (3, nodes): taken at the distinct
        |xi|, gathered to the nodes and conjugated in place where xi < 0.

        Where u = 0, lambda is the spectrum of the real form: a real
        eigenvalue takes a real exp, and of a complex conjugate pair only
        the first takes a complex exp, the second its conjugate
        (exp(conj z) = conj(exp z)); elsewhere, with the advection phase,
        each entry takes a complex exp.  Where Re(lambda) t >
        ``_EXP_UNDERFLOW`` the entry is left 0.0 without taking exp:
        |exp(-lambda t)| = exp(-Re(lambda) t) is below half the least
        subnormal there, so exp gives 0.0 too, up to the sign of zero, which
        no product or norm downstream can see.  A nan eigenvalue still goes
        through exp and still gives nan.
        """
        a = self.lam * -t
        live = ~(a.real < -_EXP_UNDERFLOW)
        e = np.zeros_like(a)
        np.exp(a.real, out=e.real, where=live & self._real)
        live &= ~self._real
        live[2] &= ~self._pair
        np.exp(a, out=e, where=live)
        np.conjugate(e[1], out=e[2], where=self._pair)
        if self._back is None:
            return e
        e = e.take(self._back, axis=1)
        return np.conjugate(e, out=e, where=self._neg)

    def _evolved(self, modes: np.ndarray, coeff: np.ndarray, t: float) -> np.ndarray:
        if t == 0.0:
            return modes.copy()
        scaled = self._exponentials(t)
        scaled *= coeff
        v = self.vec_columns
        out = v[0] * scaled[0]
        tmp = np.empty_like(out)
        for j in (1, 2):
            out += np.multiply(v[j], scaled[j], out=tmp)
        if np.any(self.bad):
            out[:, self.bad] = np.einsum("kij,kj->ik",
                                         _expm_stack(self.bad_generators, t),
                                         modes[self.bad])
        return out.T


def _conjugated(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``a`` with its selected leading-axis entries conjugated in place."""
    a[rows] = a[rows].conj()
    return a


def matrix_exponentials(generators: np.ndarray, t: float) -> np.ndarray:
    """exp(-t G_k) for a stack (..., 3, 3) of generators.

    Eigendecomposition per matrix, with scaling-and-squaring for entries whose
    eigenvector matrix is ill-conditioned.
    """
    gen = np.asarray(generators)
    lam, vecs, vecs_inv, bad = _eigensystem(gen)
    out = np.einsum("...ij,...j,...jk->...ik", vecs, np.exp(-lam * t), vecs_inv)
    if np.any(bad):
        out[bad] = _expm_stack(gen[bad], t)
    return out


def modal_energy(xi: np.ndarray, modes: np.ndarray, ell: float = 0.0) -> np.ndarray:
    """Pointwise weighted energy |xi|^{2 ell} [(1+xi^2)|W1|^2 + |W2|^2 + |W3|^2]
    of modes (n_nodes, 3) at the nodes ``xi``; |xi| keeps a fractional ell
    real on the nodes xi < 0."""
    w = modes.T  # rows, contiguous for the evolved modes of ModePropagator
    w = w.real ** 2 + w.imag ** 2
    base = (1.0 + xi ** 2) * w[0] + w[1] + w[2]
    if ell != 0.0:
        base = np.abs(xi) ** (2.0 * ell) * base
    return base


def _norm(xi: np.ndarray, weights: np.ndarray, modes: np.ndarray,
          ell: float) -> float:
    return float(np.sqrt(np.sum(weights * modal_energy(xi, modes, ell))))


def weighted_norm(profile: SpectralProfile, ell: float = 0.0) -> float:
    """Quadrature of the weighted modal energy, square-rooted."""
    return _norm(profile.xi_nodes, profile.weights, profile.modes, ell)


def _folded(xi: np.ndarray, weights: np.ndarray, modes: np.ndarray):
    """(|xi|, weights, modes) with each node xi < 0 mapped to |xi| and the
    mode conj What(xi), and merged into its mirror, the weights added, where
    the mirror is a node with the same mode; ``xi`` increasing."""
    neg = xi < 0
    modes = np.where(neg[:, None], modes.conj(), modes)
    mirror = np.minimum(np.searchsorted(xi, -xi), xi.size - 1)
    merged = neg & (xi[mirror] == -xi) & np.all(modes[mirror] == modes, axis=1)
    weights = weights.copy()
    weights[mirror[merged]] += weights[merged]
    kept = ~merged
    return np.abs(xi[kept]), weights[kept], modes[kept]


@dataclass
class DecayFit:
    """log ||.|| vs log(1+t) slope over a late-time window."""

    exponent: float
    amplitude: float
    residual: float
    t_window: tuple[float, float]
    flagged: bool = False  # residual above threshold: fit unreliable
    # share of the final norm^2 on the never-decaying xi = 0 nodes (M(0) = 0)
    zero_share: float = float("nan")
    times: np.ndarray = field(repr=False, default=None)
    norms: np.ndarray = field(repr=False, default=None)


def evolve_and_fit(coeffs: EquilibriumCoefficients, initial: SpectralProfile,
                   times: Sequence[float], ell: float = 0.0,
                   fit_window: Optional[tuple[float, float]] = None) -> DecayFit:
    """Propagate every mode to each time, measure the order-ell norm, fit decay.

    The nodes are first folded onto xi >= 0: a node xi < 0 is evolved as
    |xi| with the mode conj What(xi).  This is exact, because
    exp(-t M(-i xi)) = conj exp(-t M(i xi)) and the weight
    (1 + xi^2) |xi|^{2 ell} is even, so the node's weighted norm is the
    same at every t.  Where the folded node equals its mirror node -xi,
    mode for mode (a Hermitian profile, such as the spectrum of a real field
    and both built-in profiles), the two merge and their weights add; other
    nodes are kept, so a profile that is not Hermitian evolves every node.
    The modes' eigen-coordinates V^{-1} What(0) are formed once, and the
    evolved modes are held for one time at a time; their norm is taken
    directly, as :func:`weighted_norm` takes it.  The share of xi = 0 is
    taken from the initial profile.

    ``times`` must be increasing; the default fit window [t_max/100, t_max]
    discards the transient where constants dominate.  The fitted exponent of
    log-norm against log(1 + t) approaches -(ell/2 + 1/4) for integrable data
    with nonvanishing mean mode.  A fit whose log-residual exceeds
    ``_RESIDUAL_TOL`` is flagged.
    """
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    xi, weights = initial.xi_nodes, initial.weights
    at_zero = xi == 0.0
    frozen = np.sum(weights[at_zero] * modal_energy(xi, initial.modes, ell)[at_zero])
    xi, weights, modes = _folded(xi, weights, initial.modes)
    prop = ModePropagator(coeffs, xi)
    norms = np.array([_norm(xi, weights, out, ell) for out in prop.propagate(modes, times)])
    if fit_window is None:
        fit_window = (times[-1] / 100.0, times[-1])
    fit = fit_power_law(1.0 + times, norms,
                        (1.0 + fit_window[0], 1.0 + fit_window[1]))
    return DecayFit(exponent=fit.exponent, amplitude=fit.amplitude,
                    residual=fit.residual, t_window=fit_window,
                    flagged=not fit.residual <= _RESIDUAL_TOL,  # nan flags too
                    # no energy at xi = 0 is a share of 0, also where the
                    # final norm underflows to 0
                    zero_share=float(frozen / norms[-1] ** 2) if frozen else 0.0,
                    times=times, norms=norms)
