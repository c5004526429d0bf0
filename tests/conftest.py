import numpy as np
import pytest

from nsfk.symbols import equilibrium_coefficients
from nsfk.thermo import Coefficient, Domain, EquationOfState, State, ideal_gas_eos

GAMMA = 5.0 / 3.0


@pytest.fixture(scope="session")
def ref_eos():
    """Reference closure: ideal gas R=1, gamma=5/3, unit kappa/mu/alpha."""
    return ideal_gas_eos(1.0, GAMMA, 1.0, 1.0, 1.0)


@pytest.fixture(scope="session")
def nsf_eos():
    """Capillarity-free sub-case (kappa0 = 0)."""
    return ideal_gas_eos(1.0, GAMMA, 0.0, 1.0, 1.0)


@pytest.fixture(scope="session")
def sqrt_kappa_eos(ref_eos):
    """Reference gas with kappa = sqrt(theta): kappa > 0, kappa_thth < 0.

    Unlike a constant kappa it makes k_theta and grad_energy_theta nonzero.
    """
    def zero(r, th):
        return 0.0 * np.asarray(r, dtype=float) * np.asarray(th, dtype=float)

    kappa = Coefficient(
        f=lambda r, th: np.sqrt(th) + zero(r, th),
        d_r=zero,
        d_t=lambda r, th: 0.5 / np.sqrt(th) + zero(r, th),
        d_rr=zero,
        d_rt=zero,
        d_tt=lambda r, th: -0.25 * np.asarray(th, dtype=float) ** -1.5 + zero(r, th),
    )
    return EquationOfState(psi=ref_eos.psi, kappa=kappa, mu=ref_eos.mu,
                           alpha=ref_eos.alpha)


@pytest.fixture(scope="session")
def rho_theta_kappa_eos(ref_eos):
    """Reference gas with kappa = kappa0 sqrt(rho theta): kappa > 0 and
    kappa_thth = -kappa0 rho^(1/2) theta^(-3/2) / 4 < 0.

    The only closure here whose kappa_rho and kappa_rho_theta are nonzero, so
    the terms they carry in g2 and a31 are checked against the potentials.
    """
    kappa0 = 0.8

    def term(c, a, b):
        """kappa0 c rho^a theta^b."""
        return lambda r, th: (kappa0 * c * np.asarray(r, dtype=float) ** a
                              * np.asarray(th, dtype=float) ** b)

    kappa = Coefficient(
        f=term(1.0, 0.5, 0.5),
        d_r=term(0.5, -0.5, 0.5),
        d_t=term(0.5, 0.5, -0.5),
        d_rr=term(-0.25, -1.5, 0.5),
        d_rt=term(0.25, -0.5, -0.5),
        d_tt=term(-0.25, 0.5, -1.5),
    )
    return EquationOfState(psi=ref_eos.psi, kappa=kappa, mu=ref_eos.mu,
                           alpha=ref_eos.alpha)


@pytest.fixture(scope="session")
def ref_equilibrium():
    return State(1.0, 0.0, 1.0)


@pytest.fixture(scope="session")
def ref_coeffs(ref_eos, ref_equilibrium):
    return equilibrium_coefficients(ref_eos, ref_equilibrium)


@pytest.fixture(scope="session")
def nsf_coeffs(nsf_eos, ref_equilibrium):
    return equilibrium_coefficients(nsf_eos, ref_equilibrium)


# closures whose symbols the real form is checked on: (ideal_gas_eos args, u)
SYMBOL_CLOSURES = {
    "reference": ((1.0, GAMMA, 1.0, 1.0, 1.0), 0.0),
    "kappa0=0": ((1.0, GAMMA, 0.0, 1.0, 1.0), 0.0),
    "mu0=alpha0=0": ((1.0, GAMMA, 1.0, 0.0, 0.0), 0.0),
    "gamma=1.4,u=0.7": ((1.0, 1.4, 1.0, 1.0, 1.0), 0.7),
}


@pytest.fixture(scope="session", params=list(SYMBOL_CLOSURES))
def symbol_coeffs(request):
    """Equilibrium coefficients of each of ``SYMBOL_CLOSURES`` at (1, u, 1)."""
    args, u = SYMBOL_CLOSURES[request.param]
    return equilibrium_coefficients(ideal_gas_eos(*args), State(1.0, u, 1.0))


@pytest.fixture(scope="session")
def domain():
    return Domain(rho_min=0.1, theta_min=0.1, rho_max=3.0, theta_max=3.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
