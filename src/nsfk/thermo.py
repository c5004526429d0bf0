"""Non-equilibrium thermodynamic closures for heat-conducting capillary fluids.

A fluid is specified by four smooth coefficients of density and temperature:
the standard Helmholtz free energy ``psi``, the capillarity coefficient
``kappa``, the viscosity ``mu`` and the heat conductivity ``alpha``.  All
standard potentials derive from ``psi``::

    p   = rho^2 psi_rho          (pressure)
    e   = psi - theta psi_theta  (standard internal energy)
    eta = -psi_theta             (standard specific entropy)

A closure may state p, e, e_rho and e_theta in closed form instead: the
ideal gas of ``ideal_gas_eos`` has p = R rho theta, e = c_v theta, e_rho = 0
and e_theta = c_v, so the solver's closure pass reads no psi partial.
``verify_hypotheses`` checks p against rho^2 psi_rho, e against
psi - theta psi_theta and e_rho, e_theta against psi and eta.

The gradient-dependent (non-standard) potentials carry the capillary energy
of density variations::

    Psi     = psi + kappa rho_x^2
    s       = eta - kappa_theta rho_x^2
    epsilon = e + (kappa - theta kappa_theta) rho_x^2

Admissible closures satisfy the Weyl conditions (p > 0, p_rho > 0,
p_theta > 0, e_theta > 0) and thermal stability of the capillarity
coefficient (kappa > 0, kappa_thth <= 0).  All quantities are treated as
nondimensional.

Every function accepts scalars or numpy arrays (broadcasting) for the state
arguments; closures are pure and safe to evaluate concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Union

import numpy as np

from .reports import Check, CheckReport

ArrayLike = Union[float, np.ndarray]

__all__ = [
    "Coefficient",
    "EquationOfState",
    "Domain",
    "State",
    "ideal_gas_eos",
    "verify_hypotheses",
]


@dataclass(frozen=True)
class Coefficient:
    """Smooth scalar coefficient of (rho, theta) with analytic partials.

    Carries the value and the first and second partial derivatives as
    separate callables.  Analytic derivatives (rather than numerical ones)
    are required because the symbol matrices of the linearized system need
    p_rho, p_theta, e_theta and kappa_thth exactly at the equilibrium state.

    A callable may return any value that broadcasts against (rho, theta):
    a scalar, or an array shaped like one of the two.  An exact scalar 0.0
    means "no term" and an exact scalar 1.0 "no factor": the closure pass
    of the solver (``symbols._closure``) tests each such value once per
    pass and forms no array for the term it multiplies, or no product.
    """

    f: Callable[[ArrayLike, ArrayLike], ArrayLike]
    d_r: Callable[[ArrayLike, ArrayLike], ArrayLike]
    d_t: Callable[[ArrayLike, ArrayLike], ArrayLike]
    d_rr: Callable[[ArrayLike, ArrayLike], ArrayLike]
    d_rt: Callable[[ArrayLike, ArrayLike], ArrayLike]
    d_tt: Callable[[ArrayLike, ArrayLike], ArrayLike]

    def __call__(self, rho: ArrayLike, theta: ArrayLike) -> ArrayLike:
        return self.f(rho, theta)

    @classmethod
    def constant(cls, value: float) -> "Coefficient":
        """Constant coefficient: every call returns the float, whatever the shapes."""
        value = float(value)
        return cls(lambda rho, theta: value, *[lambda rho, theta: 0.0] * 5)


@dataclass(frozen=True)
class Domain:
    """Open admissible set rho > rho_min, theta > theta_min.

    The lower bounds keep the state away from vacuum and absolute zero; the
    upper bounds only delimit verification sweeps.
    """

    rho_min: float = 0.1
    theta_min: float = 0.1
    rho_max: float = 3.0
    theta_max: float = 3.0

    def __post_init__(self):
        if self.rho_min <= 0 or self.theta_min <= 0:
            raise ValueError("domain lower bounds must be positive")
        if self.rho_max <= self.rho_min or self.theta_max <= self.theta_min:
            raise ValueError("domain upper bounds must exceed lower bounds")

    def grid(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Uniform n x n sampling grid over the closed box (meshgrid arrays)."""
        r = np.linspace(self.rho_min, self.rho_max, n)
        t = np.linspace(self.theta_min, self.theta_max, n)
        return np.meshgrid(r, t, indexing="ij")


@dataclass(frozen=True)
class State:
    """Pointwise fluid state (rho, u, theta), optionally with density gradient.

    Fields may be scalars or broadcast-compatible numpy arrays.
    """

    rho: ArrayLike
    u: ArrayLike
    theta: ArrayLike
    rho_x: ArrayLike = 0.0


@dataclass(frozen=True)
class EquationOfState:
    """Full thermodynamic closure (psi, kappa, mu, alpha) with derived potentials.

    p, e, e_rho and e_theta are formed from psi here.  A subclass that
    states them in closed form overrides them and ``potentials``, the one
    call through which the solver reads them (see ``ideal_gas_eos``).

    The hash of the fields is taken once, at construction: a closure keys
    the per-equilibrium cache of ``symbols``, which every ledger sample
    looks up twice, and hashing its 24 callables each time took 3.2 us.
    Equality still compares the fields; a subclass keeps the cached hash by
    naming ``__hash__ = EquationOfState.__hash__``, since ``dataclass``
    would generate a field-by-field one for it.
    """

    psi: Coefficient
    kappa: Coefficient
    mu: Coefficient
    alpha: Coefficient

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(tuple(
            getattr(self, f.name) for f in fields(self))))

    def __hash__(self):
        return self._hash

    # -- standard potentials -------------------------------------------------

    def p(self, rho, theta):
        """Pressure p = rho^2 psi_rho."""
        rho = np.asarray(rho, dtype=float)
        return rho ** 2 * self.psi.d_r(rho, theta)

    def p_rho(self, rho, theta):
        rho = np.asarray(rho, dtype=float)
        return 2.0 * rho * self.psi.d_r(rho, theta) + rho ** 2 * self.psi.d_rr(rho, theta)

    def p_theta(self, rho, theta):
        rho = np.asarray(rho, dtype=float)
        return rho ** 2 * self.psi.d_rt(rho, theta)

    def e(self, rho, theta):
        """Standard internal energy e = psi - theta psi_theta."""
        theta = np.asarray(theta, dtype=float)
        return self.psi(rho, theta) - theta * self.psi.d_t(rho, theta)

    def e_rho(self, rho, theta):
        theta = np.asarray(theta, dtype=float)
        return self.psi.d_r(rho, theta) - theta * self.psi.d_rt(rho, theta)

    def e_theta(self, rho, theta):
        theta = np.asarray(theta, dtype=float)
        return -theta * self.psi.d_tt(rho, theta)

    def potentials(self, rho, theta, entropy: bool = False):
        """(p, e, e_rho, e_theta, eta) at one state, each partial of psi read once.

        Each value is that of the method of its name, bit for bit; eta is
        formed only when ``entropy`` is true and is None otherwise.  The
        solver's closure pass (``symbols._closure``) reads the standard
        potentials through this one call.
        """
        psi = self.psi
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        psi_t = psi.d_t(rho, theta)
        e = psi(rho, theta) - theta * psi_t
        eta = -psi_t if entropy else None
        del psi_t
        psi_r = psi.d_r(rho, theta)
        p = rho ** 2 * psi_r
        e_rho = psi_r - theta * psi.d_rt(rho, theta)
        del psi_r
        return p, e, e_rho, self.e_theta(rho, theta), eta

    def eta(self, rho, theta):
        """Standard specific entropy eta = -psi_theta."""
        return -self.psi.d_t(rho, theta)

    def eta_rho(self, rho, theta):
        return -self.psi.d_rt(rho, theta)

    def eta_theta(self, rho, theta):
        return -self.psi.d_tt(rho, theta)

    # -- gradient-energy coefficient m = kappa - theta kappa_theta -----------

    def grad_energy(self, rho, theta):
        """Coefficient of rho_x^2 in the non-standard internal energy."""
        theta = np.asarray(theta, dtype=float)
        return self.kappa(rho, theta) - theta * self.kappa.d_t(rho, theta)

    def grad_energy_rho(self, rho, theta):
        theta = np.asarray(theta, dtype=float)
        return self.kappa.d_r(rho, theta) - theta * self.kappa.d_rt(rho, theta)

    def grad_energy_theta(self, rho, theta):
        # d/dtheta of (kappa - theta kappa_theta) collapses to -theta kappa_thth
        theta = np.asarray(theta, dtype=float)
        return -theta * self.kappa.d_tt(rho, theta)

    # -- relabeled capillarity k = 2 rho kappa --------------------------------

    def k(self, rho, theta):
        rho = np.asarray(rho, dtype=float)
        return 2.0 * rho * self.kappa(rho, theta)

    def k_rho(self, rho, theta):
        rho = np.asarray(rho, dtype=float)
        return 2.0 * self.kappa(rho, theta) + 2.0 * rho * self.kappa.d_r(rho, theta)

    # -- non-standard (gradient-dependent) potentials --------------------------

    def epsilon(self, rho, theta, rho_x):
        """Internal energy epsilon = e + (kappa - theta kappa_theta) rho_x^2."""
        rho_x = np.asarray(rho_x, dtype=float)
        return self.e(rho, theta) + self.grad_energy(rho, theta) * rho_x ** 2

    def epsilon_rho(self, rho, theta, rho_x):
        rho_x = np.asarray(rho_x, dtype=float)
        return self.e_rho(rho, theta) + self.grad_energy_rho(rho, theta) * rho_x ** 2

    def epsilon_theta(self, rho, theta, rho_x):
        rho_x = np.asarray(rho_x, dtype=float)
        return self.e_theta(rho, theta) + self.grad_energy_theta(rho, theta) * rho_x ** 2

    def s(self, rho, theta, rho_x):
        """Specific entropy s = eta - kappa_theta rho_x^2."""
        rho_x = np.asarray(rho_x, dtype=float)
        return self.eta(rho, theta) - self.kappa.d_t(rho, theta) * rho_x ** 2


@dataclass(frozen=True)
class _IdealGas(EquationOfState):
    """Polytropic gas: p = R rho theta, e = c_v theta, e_rho = 0 and
    e_theta = c_v in closed form.

    e_rho and e_theta are the exact scalars 0.0 and c_v, which the solver's
    closure pass reads as "no term" and as a constant factor.
    """

    R: float
    cv: float

    __hash__ = EquationOfState.__hash__

    def p(self, rho, theta):
        """Pressure p = R rho theta."""
        return self.R * np.asarray(rho, dtype=float) * np.asarray(theta, dtype=float)

    def e(self, rho, theta):
        """Standard internal energy e = c_v theta."""
        return self.cv * np.asarray(theta, dtype=float)

    def e_rho(self, rho, theta):
        return 0.0

    def e_theta(self, rho, theta):
        return self.cv

    def potentials(self, rho, theta, entropy: bool = False):
        """(p, e, e_rho, e_theta, eta), each from its method: only eta reads psi."""
        return (self.p(rho, theta), self.e(rho, theta), self.e_rho(rho, theta),
                self.e_theta(rho, theta), self.eta(rho, theta) if entropy else None)


def ideal_gas_eos(R: float, gamma: float, kappa0: float,
                  mu0: float, alpha0: float) -> EquationOfState:
    """Polytropic ideal-gas closure with constant transport coefficients.

    psi(rho, theta) = R theta (log rho - log(theta)/(gamma-1)), giving
    p = R rho theta and e = c_v theta, c_v = R / (gamma - 1).  p, e,
    e_rho = 0 and e_theta = c_v are stated in closed form, so they take no
    logarithm and read no psi partial; ``verify_hypotheses`` checks them
    against psi.  kappa, mu, alpha are constants.  kappa0 = 0 selects the
    capillarity-free (classical Navier-Stokes-Fourier) sub-case;
    mu0 = alpha0 = 0 removes dissipation entirely (useful as a negative
    control), so only nonnegativity is enforced for those three.
    """
    if R <= 0:
        raise ValueError(f"gas constant must be positive, got R={R}")
    if gamma <= 1:
        raise ValueError(f"adiabatic index must exceed 1, got gamma={gamma}")
    for name, val in (("kappa0", kappa0), ("mu0", mu0), ("alpha0", alpha0)):
        if val < 0:
            raise ValueError(f"{name} must be nonnegative, got {val}")

    cv = R / (gamma - 1.0)

    def psi(rho, theta):
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        return R * theta * (np.log(rho) - np.log(theta) / (gamma - 1.0))

    def psi_r(rho, theta):
        rho = np.asarray(rho, dtype=float)
        return R * np.asarray(theta, dtype=float) / rho

    def psi_t(rho, theta):
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        return R * np.log(rho) - cv * (np.log(theta) + 1.0)

    def psi_rr(rho, theta):
        rho = np.asarray(rho, dtype=float)
        return -R * np.asarray(theta, dtype=float) / rho ** 2

    def psi_rt(rho, theta):
        return R / np.asarray(rho, dtype=float)

    def psi_tt(rho, theta):
        return -cv / np.asarray(theta, dtype=float)

    return _IdealGas(
        psi=Coefficient(psi, psi_r, psi_t, psi_rr, psi_rt, psi_tt),
        kappa=Coefficient.constant(kappa0),
        mu=Coefficient.constant(mu0),
        alpha=Coefficient.constant(alpha0),
        R=float(R),
        cv=cv,
    )


def _worst(values: np.ndarray, rho: np.ndarray, theta: np.ndarray,
           minimize: bool) -> tuple[float, tuple[float, float]]:
    """Extremal value of a condition sampled (or constant) on the grid and its state."""
    values = np.broadcast_to(np.asarray(values, dtype=float), np.shape(rho))
    idx = int(np.argmin(values)) if minimize else int(np.argmax(values))
    return float(values.flat[idx]), (float(rho.flat[idx]), float(theta.flat[idx]))


def verify_hypotheses(eos: EquationOfState, domain: Domain,
                      n_samples: int = 50,
                      identity_tol: float = 1e-10) -> CheckReport:
    """Sweep a uniform grid over the domain and test every closure hypothesis.

    Positivity conditions report the worst (smallest) sampled margin;
    compatibility relations between psi, p, e and eta report the largest
    absolute residual.  The first two, p = rho^2 psi_rho and
    e = psi - theta psi_theta, read 0 unless the closure states p or e in
    closed form; the relation for e_rho reads p as rho^2 psi_rho, so each
    closed form is checked by one row.  Violations are reported, not raised.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rho, theta = domain.grid(n_samples)
    checks = []

    def positivity(name, values, strict=True):
        worst, at = _worst(values, rho, theta, minimize=True)
        ok = worst > 0 if strict else worst >= 0
        checks.append(Check(name=name, passed=bool(ok), observed=worst,
                            tolerance=0.0,
                            detail=f"worst at (rho, theta) = {at}"))

    positivity("viscosity mu > 0", eos.mu(rho, theta))
    positivity("heat conductivity alpha > 0", eos.alpha(rho, theta))
    positivity("capillarity kappa > 0", eos.kappa(rho, theta))

    worst, at = _worst(eos.kappa.d_tt(rho, theta), rho, theta, minimize=False)
    checks.append(Check(name="thermal stability kappa_thth <= 0",
                        passed=bool(worst <= 0), observed=-worst, tolerance=0.0,
                        detail=f"max kappa_thth = {worst:.3e} at {at}"))

    positivity("Weyl p > 0", eos.p(rho, theta))
    positivity("Weyl p_rho > 0", eos.p_rho(rho, theta))
    positivity("Weyl p_theta > 0", eos.p_theta(rho, theta))
    positivity("Weyl e_theta > 0", eos.e_theta(rho, theta))

    # compatibility of the derived potentials (consequences of the First Law);
    # the first two compare a closed-form p and e with their definitions
    # through psi
    p_psi = rho ** 2 * eos.psi.d_r(rho, theta)
    res_p = eos.p(rho, theta) - p_psi
    res_f = eos.e(rho, theta) - (eos.psi(rho, theta) - theta * eos.psi.d_t(rho, theta))
    res_e = eos.e_rho(rho, theta) - (p_psi - theta * eos.p_theta(rho, theta)) / rho ** 2
    res_h = eos.eta_theta(rho, theta) - eos.e_theta(rho, theta) / theta
    res_r = eos.eta_rho(rho, theta) + eos.p_theta(rho, theta) / rho ** 2
    for name, res in (("relation p = rho^2 psi_rho", res_p),
                      ("relation e = psi - theta psi_theta", res_f),
                      ("relation e_rho = (p - theta p_theta)/rho^2", res_e),
                      ("relation eta_theta = e_theta/theta", res_h),
                      ("relation eta_rho = -p_theta/rho^2", res_r)):
        worst, at = _worst(np.abs(np.asarray(res)), rho, theta, minimize=False)
        checks.append(Check(name=name, passed=bool(worst <= identity_tol),
                            observed=worst, tolerance=identity_tol,
                            detail=f"max |residual| at {at}"))

    return CheckReport(title="thermodynamic hypotheses", checks=checks)
