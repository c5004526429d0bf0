"""Definitional oracles shared by the tests.

Each quantity of the conservation form is written out from the
single-potential ``EquationOfState`` methods and the ``convex_extension``
builders, independently of the one closure pass ``symbols._closure`` that
the program evaluates.  The linear side keeps a per-node eigendecomposition
propagator, the spectral bound and the Lyapunov slack taken from the complex
symbol (the slack also as the random-mode sample it was once checked by)
and the sample-by-sample entropy-pair check, which the batched program
paths are tested against, and the helpers only the tests use.  The
CSV writer built on the ``csv`` module is kept to check the program's own
quoting byte for byte.
"""

import csv

import numpy as np

from nsfk import convex_extension as cx
from nsfk import dissipativity as dis
from nsfk.reports import fmt
from nsfk.symbols import ExtendedState, evolution_symbol, symbol_symmetrizer
from nsfk.thermo import State


def mv(matrix, vector):
    """Batched matrix-vector product; a constant (3, 3) matrix uses matmul."""
    if matrix.ndim == 2:
        return vector @ matrix.T
    return np.einsum("...ij,...j->...i", matrix, vector)


def csv_module_write_csv(path, columns):
    """``reports.write_csv`` through ``csv.writer(lineterminator="\\n")``:
    a float array column formatted over its ``tolist()``, anything else
    value by value with ``fmt``, and the module doing all the quoting."""
    def cells(column):
        if isinstance(column, np.ndarray) and column.dtype == float:
            return list(map("{:.17g}".format, column.tolist()))
        return list(map(fmt, column))

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(columns))
        writer.writerows(zip(*map(cells, columns.values()), strict=True))


def free_energy(eos, rho, theta, rho_x):
    """Non-standard Helmholtz free energy Psi = psi + kappa rho_x^2."""
    rho_x = np.asarray(rho_x, dtype=float)
    return eos.psi(rho, theta) + eos.kappa(rho, theta) * rho_x ** 2


def hermitian_defect(profile):
    """Max |What(-xi) - conj(What(xi))| over the nodes of a ``SpectralProfile``
    (0 for a real field); nan unless the node set is sign-symmetric."""
    if not np.allclose(profile.xi_nodes, -profile.xi_nodes[::-1]):
        return float("nan")
    return float(np.abs(profile.modes[::-1] - np.conj(profile.modes)).max())


def atilde_congruence(coeffs, xi):
    """Atilde(xi) via the congruence S^{1/2} A0^{-1/2} A(xi) A0^{-1/2} S^{-1/2}."""
    xi = np.asarray(xi, dtype=float)
    a = coeffs.a(xi)
    s = symbol_symmetrizer(coeffs, xi)
    a0 = coeffs.A0
    a0_isqrt = np.diag(1.0 / np.sqrt(np.diag(a0)))
    s_sqrt = np.sqrt(s)
    s_isqrt = np.zeros_like(s)
    for i in range(3):
        s_isqrt[..., i, i] = 1.0 / s_sqrt[..., i, i]
    return s_sqrt @ (a0_isqrt @ a @ a0_isqrt) @ s_isqrt


def complex_sigma(coeffs, xi):
    """max Re eig(-M(i xi)) at every xi, from the complex generator itself."""
    return np.linalg.eigvals(-evolution_symbol(coeffs, np.asarray(xi, dtype=float))
                             ).real.max(axis=-1)


def _lyapunov_terms(coeffs, eps, delta, xi):
    """(G, P) of the Lyapunov functional in the transformed frame:
    G = i xi Atilde + xi^2 Btilde and P = I - delta xi i K."""
    x = np.asarray(xi, dtype=float)[:, None, None]
    gen = 1j * x * dis.atilde(coeffs, xi) + x ** 2 * np.diag(coeffs.btilde)
    return gen, np.eye(3) - delta * x * 1j * dis.compensating_matrix(coeffs, eps)(xi)


def hermitian_lyapunov_slack(coeffs, eps, delta, xi, c0):
    """lambda_max(-(G^H P + P G) + c0 xi^2 P) at every xi, from the complex
    Hermitian matrix: the largest slack of dY/dt + c0 xi^2 Y over unit modes."""
    gen, p = _lyapunov_terms(coeffs, eps, delta, xi)
    gp = np.conj(np.swapaxes(gen, -1, -2)) @ p
    h = c0 * np.asarray(xi, dtype=float)[:, None, None] ** 2 * p - gp
    h -= np.conj(np.swapaxes(gp, -1, -2))
    return np.linalg.eigvalsh(h)[:, -1]


def sampled_lyapunov_slack(coeffs, eps, delta, xi, c0, n_modes=100, seed=0):
    """The largest slack of dY/dt + c0 xi^2 Y over ``n_modes`` random unit
    modes per xi, Y = V^H P V and dY/dt = -V^H (G^H P + P G) V: the sampled
    check the exact eigenvalue bound replaced."""
    gen, p = _lyapunov_terms(coeffs, eps, delta, xi)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n_modes, 3)) + 1j * rng.standard_normal((n_modes, 3))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    pv = np.einsum("xij,mj->xmi", p, v)
    y = np.einsum("mi,xmi->xm", np.conj(v), pv).real
    dy = -2.0 * np.einsum("xmi,xij,mj->xm", np.conj(pv), gen, v).real
    return float((dy + c0 * np.asarray(xi, dtype=float)[:, None] ** 2 * y).max())


def per_node_propagator(coeffs, xi, modes):
    """t -> exp(-t M(i xi)) What at every node, each node's generator
    factored on its own, its sign included: V exp(-lambda t) V^{-1} What."""
    lam, vecs = np.linalg.eig(evolution_symbol(coeffs, np.asarray(xi, dtype=float)))
    coeff = np.linalg.solve(vecs, modes[..., None])[..., 0]
    return lambda t: np.einsum("kij,kj->ki", vecs, np.exp(-lam * t) * coeff)


def per_node_propagate(coeffs, xi, modes, t):
    """exp(-t M(i xi)) What at every node; see :func:`per_node_propagator`."""
    return per_node_propagator(coeffs, xi, modes)(t)


def entropy_pair_observed(eos, domain, n_samples=100, fd_step=1e-5, seed=0,
                          flux_fn=None):
    """The five observed values of ``cx.verify_entropy_pair``, sample by
    sample: (Hessian min eigenvalue, symmetry residual, congruence residual,
    B min eigenvalue, flux residual)."""
    rng = np.random.default_rng(seed)
    states = domain.sample_states(n_samples, rng)
    flux = flux_fn if flux_fn is not None else (lambda s: cx.f1(eos, s))

    def central(fn, s):
        base = [float(s.rho), float(s.u), float(s.theta)]
        cols = []
        for j in range(3):
            hi, lo = list(base), list(base)
            hi[j] += fd_step
            lo[j] -= fd_step
            cols.append((fn(State(*hi)) - fn(State(*lo))) / (2.0 * fd_step))
        return np.stack(cols, axis=-1)

    hess_min, sym_res, cong_res, b_min, flux_res = np.inf, 0.0, 0.0, np.inf, 0.0
    for i in range(n_samples):
        s = State(float(states.rho[i]), float(states.u[i]), float(states.theta[i]))
        H = cx.hessian_entropy(eos, s)
        hess_min = min(hess_min, float(np.linalg.eigvalsh(0.5 * (H + H.T)).min()))
        a0, a1, b = cx.coefficient_matrices(eos, s)
        sym_res = max(sym_res, float(np.abs(H - H.T).max()),
                      float(np.abs(a0 - a0.T).max()), float(np.abs(a1 - a1.T).max()))
        jf0, jf1 = cx.jac_f0(eos, s), cx.jac_f1(eos, s)
        cong_res = max(cong_res, float(np.abs(jf0.T @ H @ jf0 - a0).max()),
                       float(np.abs(jf0.T @ H @ jf1 - a1).max()))
        b_min = min(b_min, float(np.linalg.eigvalsh(0.5 * (b + b.T)).min()))
        lhs = central(lambda st: float(cx.entropy_flux(eos, st)), s)
        jac = central(flux, s) if flux_fn is not None else jf1
        flux_res = max(flux_res, float(np.abs(lhs - cx.z_map(eos, s) @ jac).max()))
    return hess_min, sym_res, cong_res, b_min, flux_res


def state_of(ext):
    """The ``State`` (rho, u, theta, rho_x) of an extended state."""
    return State(rho=ext.rho, u=ext.u, theta=ext.theta, rho_x=ext.rho_x)


def grad(ext):
    """U_x = (rho_x, u_x, theta_x) with trailing component axis."""
    return cx.vec3([ext.rho_x, ext.u_x, ext.theta_x])


def grad2(ext):
    """U_xx = (rho_xx, u_xx, theta_xx)."""
    return cx.vec3([ext.rho_xx, ext.u_xx, ext.theta_xx])


def deriv(grid, f, order=1, dealias=False):
    """The order-th spectral derivative of ``f`` on ``grid``, through one rfft
    and one irfft of the whole spectrum; with ``dealias`` the 2/3 rule
    removes the modes m > n//3 first."""
    fh = np.fft.rfft(f)
    if dealias:
        fh[grid.modes:] = 0.0
    return np.fft.irfft(grid.ik ** order * fh, n=grid.n)


def spectrum(f):
    """Retained (3, n//3 + 1) rfft of (rho, rho u, theta), the field ``rhs`` takes."""
    fh = np.fft.rfft(np.stack([f.rho, f.rho * f.u, f.theta]))
    return fh[:, :f.grid.modes]


def primitive_spectrum(f):
    """Retained (3, n//3 + 1) rfft of (rho, u, theta), the field
    :func:`primitive_rhs` takes."""
    fh = np.fft.rfft(np.stack([f.rho, f.u, f.theta]))
    return fh[:, :f.grid.modes]


def primitive_rhs(eos, grid, fh):
    """Retained spectrum of the primitive rates (rho_t, u_t, theta_t).

    The reference right side in the primitive variables: ``fh`` is the
    retained rfft of (rho, u, theta), and the spectra are carried on all
    n//2 + 1 rfft bins with the 2/3 rule as a mask.  The conservation-law
    rates are the dealiased derivatives of :func:`total_flux`; u_t and
    theta_t follow from the Jacobian of the conserved quantities, its
    entries read from the ``EquationOfState`` methods, with
    u_t = (r2 - u rho_t) / rho and
    theta_t = (r3 - b31 rho_xt - a31 rho_t - u (r2 - u rho_t)) / a33.
    """
    ik = grid.ik
    mask = np.arange(grid.n // 2 + 1) <= grid.n // 3
    full = np.zeros((3, grid.n // 2 + 1), dtype=complex)
    full[:, :grid.modes] = fh
    rho_xh = ik * full[0]
    rho, u, theta, rho_x, rho_xx, u_x, theta_x = np.fft.irfft(
        np.stack([full[0], full[1], full[2], rho_xh, ik * rho_xh, ik * full[1],
                  ik * full[2]]), n=grid.n)
    flux = total_flux(eos, rho, u, theta, rho_x, rho_xx, u_x, theta_x)
    rh = np.fft.rfft(np.stack(flux)) * (ik * mask)
    rho_t, rho_xt, r2, r3 = np.fft.irfft(np.stack([rh[0], ik * rh[0], rh[1], rh[2]]),
                                         n=grid.n)
    u_t = (r2 - u * rho_t) / rho
    a31 = (eos.epsilon(rho, theta, rho_x) + 0.5 * u ** 2
           + rho * eos.epsilon_rho(rho, theta, rho_x))
    a33 = rho * eos.epsilon_theta(rho, theta, rho_x)
    theta_t = (r3 - 2.0 * rho * eos.grad_energy(rho, theta) * rho_x * rho_xt
               - a31 * rho_t - u * (r2 - u * rho_t)) / a33
    rates = np.concatenate([rh[:1], np.fft.rfft(np.stack([u_t, theta_t])) * mask])
    return rates[:, :grid.modes]


def extended(f):
    """The ``ExtendedState`` of a ``StateField``: its first and second spectral
    gradients from one rfft and one irfft of the whole (unmasked) spectrum."""
    g = f.grid
    fh = np.fft.rfft(np.stack([f.rho, f.u, f.theta]))
    rho_x, u_x, theta_x, rho_xx, u_xx, theta_xx = np.fft.irfft(
        np.concatenate([g.ik * fh, g.ik ** 2 * fh]), n=g.n)
    return ExtendedState(rho=f.rho, u=f.u, theta=f.theta,
                         rho_x=rho_x, u_x=u_x, theta_x=theta_x,
                         rho_xx=rho_xx, u_xx=u_xx, theta_xx=theta_xx)


def conserved_quantities(eos, ext):
    """F0(U, U_x) = (rho, rho u, rho(epsilon + u^2/2)) = f0 + (0, 0, rho m rho_x^2)."""
    rho, u = np.asarray(ext.rho, dtype=float), np.asarray(ext.u, dtype=float)
    eps = eos.epsilon(ext.rho, ext.theta, ext.rho_x)
    return cx.vec3([rho, rho * u, rho * (eps + 0.5 * u ** 2)])


def d_ux_F0(eos, ext):
    """Jacobian of F0 in the gradient variables; single entry (3,1) = 2 rho m rho_x."""
    rho = np.asarray(ext.rho, dtype=float)
    rx = np.asarray(ext.rho_x, dtype=float)
    m = eos.grad_energy(ext.rho, ext.theta)
    z = np.zeros_like(rho * rx)
    return cx.mat3([[z, z, z], [z, z, z], [2.0 * rho * m * rx, z, z]])


def f1(eos, ext):
    """F1 = f1 + (0, 0, rho u m rho_x^2) from the standard flux."""
    rho, u = np.asarray(ext.rho), np.asarray(ext.u)
    flux = rho * u * eos.grad_energy(rho, ext.theta) * np.asarray(ext.rho_x) ** 2
    return cx.f1(eos, state_of(ext)) + cx.vec3([0.0, 0.0, flux])


def capillarity_matrix(eos, state):
    """H(U): the first column k rho (0, 1, u), zeros elsewhere."""
    h = eos.k(state.rho, state.theta) * state.rho
    return cx.mat3([[0.0, 0.0, 0.0], [h, 0.0, 0.0], [h * state.u, 0.0, 0.0]])


def korteweg_entries(eos, rho, u, theta, rho_x, u_x, theta_x):
    """g~ = (0, g2, g3) of the capillary stress K = k rho rho_xx + g2.

    g3 = u g2 + w carries the interstitial work flux w = -k rho rho_x u_x.
    """
    k = eos.k(rho, theta)
    g2 = (0.5 * rho * rho_x ** 2 * eos.k_rho(rho, theta)
          + rho * rho_x * theta_x * eos.k_theta(rho, theta) - 0.5 * k * rho_x ** 2)
    return g2, u * g2 - k * rho * rho_x * u_x


def total_flux(eos, rho, u, theta, rho_x, rho_xx, u_x, theta_x):
    """Components of -F1 + G U_x + H U_xx + g~, whose x-derivative is F0_t.

    G is ``cx.visc_matrix`` and H is :func:`capillarity_matrix`; their
    nonzero entries are summed in the solver's order, with
    (G U_x + H U_xx)_3 = alpha theta_x + u (G U_x + H U_xx)_2, and the
    flux rows start from the mass row -rho u as the solver's do, so the
    result matches the solver's flux bit for bit.
    """
    state = State(rho, u, theta)
    G, H = cx.visc_matrix(eos, state), capillarity_matrix(eos, state)
    g2, g3 = korteweg_entries(eos, rho, u, theta, rho_x, u_x, theta_x)
    eps, p = eos.epsilon(rho, theta, rho_x), eos.p(rho, theta)
    stress = G[..., 1, 1] * u_x + H[..., 1, 0] * rho_xx       # (G U_x + H U_xx)_2
    mass = -rho * u
    return (mass,
            mass * u - p + stress + g2,
            (mass * (eps + 0.5 * u ** 2) - p * u
             + G[..., 2, 2] * theta_x + u * stress + g3))


def definitional_nonlinear_terms(eos, ubar, ext):
    """``symbols.nonlinear_terms`` in its matrix form, every matrix rebuilt
    from the oracles and ``convex_extension``."""
    jac0, jac0_inv = cx.jac_f0(eos, ubar), cx.jac_f0_inv(eos, ubar)
    g_bar, h_bar = cx.visc_matrix(eos, ubar), capillarity_matrix(eos, ubar)
    L = jac0.T @ cx.jac_z(eos, ubar) @ jac0_inv
    G, H = cx.visc_matrix(eos, state_of(ext)), capillarity_matrix(eos, state_of(ext))
    dF0, dF0_inv = cx.jac_f0(eos, state_of(ext)), cx.jac_f0_inv(eos, state_of(ext))
    r = -(f1(eos, ext) - cx.f1(eos, ubar)) + mv(
        cx.jac_f1(eos, ubar) @ jac0_inv, conserved_quantities(eos, ext) - cx.f0(eos, ubar))
    r_visc = mv((G @ dF0_inv - g_bar @ jac0_inv) @ dF0, grad(ext))
    i1 = -mv(g_bar @ jac0_inv, mv(d_ux_F0(eos, ext), grad2(ext)))
    i2 = mv((H @ dF0_inv - h_bar @ jac0_inv) @ dF0, grad2(ext))
    g2, g3 = korteweg_entries(eos, ext.rho, ext.u, ext.theta, ext.rho_x, ext.u_x,
                              ext.theta_x)
    a0 = cx.coefficient_matrices(eos, ubar)[0]
    return mv(L, r + r_visc + i1 + i2 + cx.vec3([0.0, g2, g3])) / np.diag(a0)
