"""Independent oracles used to pin expected values in the tests.

Everything here deliberately avoids the production code paths: closed
forms are re-derived from scratch, integrals use scipy quadrature, and
the kernel master equation is integrated as a brute-force ODE.  The one
exception is the exact-time lockstep hitting ensemble, a reference for
the interaction-picture engine: it reuses the production split step,
hitting density, hit sampling and random streams, but steps every
trajectory through every ``dt`` in position space, one at a time,
splitting its step at each of its hit times.  Another is
``step_batch_reference``, the row-wise complex CSL step kept as the
reference for the column-wise stepper: it reads the stepper's family,
gamma, dt and form, and its linear Euler step is the reference the exact
linear update is checked against.  The per-trajectory samplers
``sample_wiener_reference`` and ``hermitian_phase_noise_reference`` are
the one-generator-per-path code the block draw replaced, kept to pin its
streams and bits, and ``hit_center_reference`` is the per-hit draw the
batched one replaced.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad, solve_ivp

from collapsim.errors import GridLeakageError
from collapsim.hitting import (
    _gaussian_factor,
    hitting_density,
    sample_hit_center,
    step_count,
)
from collapsim.noise import trajectory_generator
from collapsim.schrodinger import split_step_batch


def free_gaussian_q_var(t: float, sigma0: float, mass: float, hbar: float = 1.0):
    """Position variance of a minimal Gaussian packet under free evolution:
    sigma0^2 * (1 + (hbar t / 2 m sigma0^2)^2)."""
    return sigma0**2 * (1.0 + (hbar * t / (2.0 * mass * sigma0**2)) ** 2)


def erf_beta_by_quadrature(q: float, alpha: float) -> float:
    """beta = 1 - mean of exp(-z^2) over (-y, y), y = (sqrt(alpha)/2) q,
    via adaptive quadrature (no erf)."""
    y = 0.5 * np.sqrt(alpha) * q
    integral, _ = quad(lambda z: np.exp(-(z**2)), -y, y, epsabs=1e-13, epsrel=1e-13)
    return 1.0 - integral / y


def damping_integral_by_quadrature(
    k: float, u: float, t: float, alpha: float, mass: float
) -> float:
    """int_0^t exp(-(alpha/4)(u - k tau/m)^2) dtau by adaptive quadrature."""
    val, _ = quad(
        lambda tau: np.exp(-0.25 * alpha * (u - k * tau / mass) ** 2),
        0.0,
        t,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return val


def master_kernel_by_ode(
    psi0_amps: np.ndarray,
    dx: float,
    mass: float,
    lam: float,
    alpha: float,
    t: float,
    rtol: float = 1e-10,
) -> np.ndarray:
    """Brute-force integration of the damped free-kernel equation
    d rho/dt = (i/2m)(d^2/dq'^2 - d^2/dq''^2) rho - lam (1 - G) rho
    on the периodic grid with spectral derivatives."""
    n = psi0_amps.shape[0]
    k = 2.0 * np.pi * np.fft.fftfreq(n, dx)
    x = dx * np.arange(n)
    u = x[:, None] - x[None, :]
    length = n * dx
    u -= length * np.round(u / length)
    damp = lam * (1.0 - np.exp(-0.25 * alpha * u**2))
    rho0 = np.outer(psi0_amps, psi0_amps.conj())

    def rhs(_t, y):
        rho = y.reshape(n, n)
        d2a = np.fft.ifft(-(k**2)[:, None] * np.fft.fft(rho, axis=0), axis=0)
        d2b = np.fft.ifft(-(k**2)[None, :] * np.fft.fft(rho, axis=1), axis=1)
        return ((0.5j / mass) * (d2a - d2b) - damp * rho).ravel()

    sol = solve_ivp(
        rhs, (0.0, t), rho0.ravel(), rtol=rtol, atol=1e-12, method="DOP853"
    )
    return sol.y[:, -1].reshape(n, n)


def lindblad_by_ode(
    rho0: np.ndarray,
    h: np.ndarray | None,
    ops: list[np.ndarray],
    gamma: float,
    t: float,
) -> np.ndarray:
    """RK integration of the ensemble generator, independent of the
    superoperator-exponential route."""
    dim = rho0.shape[0]

    def rhs(_t, y):
        rho = y.reshape(dim, dim)
        out = np.zeros_like(rho)
        if h is not None:
            out += -1j * (h @ rho - rho @ h)
        for a in ops:
            out += gamma * (a @ rho @ a.conj().T)
            asq = a.conj().T @ a
            out += -0.5 * gamma * (asq @ rho + rho @ asq)
        return out.ravel()

    sol = solve_ivp(
        rhs, (0.0, t), rho0.ravel(), rtol=1e-10, atol=1e-12, method="DOP853"
    )
    return sol.y[:, -1].reshape(dim, dim)


def double_integral_by_quadrature(kernel, t_span: float) -> float:
    """2D adaptive quadrature of a stationary kernel over [0, T]^2, via
    the lag representation 2*int_0^T (T - s) K(s) ds."""
    val, _ = quad(
        lambda s: (t_span - s) * kernel(s), 0.0, t_span, epsabs=1e-12, epsrel=1e-12
    )
    return 2.0 * val


def sphere_energy_by_quadrature(
    mass: float, radius: float, separation: float, g_newton: float
) -> float:
    """U(d) of two uniform spheres by 2D quadrature over one sphere of the
    other sphere's exact potential (axisymmetric reduction)."""
    from scipy.integrate import dblquad

    rho = mass / (4.0 / 3.0 * np.pi * radius**3)

    def potential(r):
        if r >= radius:
            return -g_newton * mass / r
        return -g_newton * mass * (3.0 * radius**2 - r**2) / (2.0 * radius**3)

    def integrand(ct, r):
        dist = np.sqrt(r**2 + separation**2 - 2.0 * r * separation * ct)
        return 2.0 * np.pi * r**2 * rho * potential(dist)

    val, _ = dblquad(integrand, 0.0, radius, -1.0, 1.0, epsabs=1e-12, epsrel=1e-9)
    return val


def qmsl_exact_time_lockstep(psi0, h, params, t_end, n_traj, master_seed, dt):
    """Hitting ensemble stepped in lockstep: each trajectory steps through
    every ``dt`` in position space, its step split at each of its hit
    times, where the hit is applied; after each step, a leakage check on
    the position-space amplitudes.

    Returns (final amplitudes, hit counts, hit log rows (trajectory, time,
    center, ||L_x psi||^2) in the order of trajectory, then time).
    """
    n_steps = step_count(t_end, dt)
    lam = params.lambda_rate
    rngs = [trajectory_generator(master_seed, i) for i in range(n_traj)]
    next_hit = np.array([r.exponential(1.0 / lam) if lam > 0 else np.inf for r in rngs])
    amps = np.tile(psi0.amplitudes, (n_traj, 1))
    events = []
    t = 0.0
    for _ in range(n_steps):
        t_stop = t + dt
        for j, r in enumerate(rngs):
            row, now = amps[j : j + 1], t
            while next_hit[j] <= t_stop:
                row = split_step_batch(row, psi0, h, next_hit[j] - now)
                now = next_hit[j]
                density = hitting_density(psi0, params.alpha, row)
                x, _ = sample_hit_center(psi0, density, [r.uniform()])
                row = row * _gaussian_factor(psi0, x, params.alpha)
                weight = np.sum(np.abs(row) ** 2) * psi0.dx
                row = row / np.sqrt(weight)
                events.append((j, now, x[0], weight))
                next_hit[j] += r.exponential(1.0 / lam)
            amps[j] = split_step_batch(row, psi0, h, t_stop - now)[0]
        t = t_stop
        edge = np.maximum(np.abs(amps[:, 0]), np.abs(amps[:, -1]))
        peak = np.abs(amps).max(axis=1)
        if np.any(edge > psi0.leak_tol * peak):
            worst = float((edge / peak).max())
            raise GridLeakageError(
                f"boundary amplitude reached {worst:.2e} of peak at "
                f"t={t:.4g}; enlarge the grid"
            )
    log = np.array(events, dtype=float).reshape(-1, 4)
    log = log[np.argsort(log[:, 0], kind="stable")]
    return amps, np.bincount(log[:, 0].astype(int), minlength=n_traj), log


def hit_center_reference(psi, density, u):
    """One inverse-CDF draw from a grid density linear within cells, the
    per-hit code the batched ``sample_hit_center`` replaced.  Returns
    (position, cell index)."""
    left, right = density, np.roll(density, -1)
    masses = 0.5 * (left + right) * psi.dx
    cdf = np.cumsum(masses)
    target = u * cdf[-1]
    j = min(int(np.searchsorted(cdf, target, side="right")), density.shape[0] - 1)
    residue = target - (cdf[j - 1] if j > 0 else 0.0)
    p0, p1 = left[j], right[j]
    slope = p1 - p0
    if masses[j] <= 0.0:
        s = 0.0
    elif abs(slope) < 1e-14 * max(p0, p1):
        s = residue / masses[j]
    else:
        disc = p0 * p0 + 2.0 * slope * residue / psi.dx
        s = (np.sqrt(max(disc, 0.0)) - p0) / slope
    x = psi.x0 + (j + float(np.clip(s, 0.0, 1.0 - 1e-12))) * psi.dx
    return (x - psi.length if x >= psi.x0 + psi.length else x), j


def step_batch_reference(stepper, psis, dbs, h_matrix=None):
    """The row-wise complex ``CslStepper.step_batch``, kept verbatim as the
    reference for the column-wise stepper.  Returns (states, dlog)."""
    table = stepper.family.basis_eigenvalues()  # (channels, d)
    a_sq_sum = np.sum(table**2, axis=0)
    gamma, dt = stepper.gamma, stepper.dt

    def ham_term(chi):
        if h_matrix is None:
            return 0.0
        return -1j * (chi @ h_matrix.T)

    def step_linear():
        noise = dbs @ table  # (n, d)
        drift = -0.5 * gamma * a_sq_sum
        return psis + (
            ham_term(psis) * dt + (noise + drift[None, :] * dt) * psis
        )

    def step_nonlinear():
        prob = np.abs(psis) ** 2
        prob = prob / prob.sum(axis=1, keepdims=True)
        r = prob @ table.T  # (n, channels) channel means
        noise = dbs @ table - np.sum(dbs * r, axis=1, keepdims=True)
        quad = (
            a_sq_sum[None, :]
            - 2.0 * (r @ table)
            + np.sum(r**2, axis=1, keepdims=True)
        )
        return psis + (
            ham_term(psis) * dt + (noise - 0.5 * gamma * quad * dt) * psis
        )

    new = step_linear() if stepper.form == "linear" else step_nonlinear()
    norm_sq = np.sum(np.abs(new) ** 2, axis=1)
    new = new / np.sqrt(norm_sq)[:, None]
    if stepper.form == "linear":
        return new, np.log(norm_sq)
    return new, np.zeros(psis.shape[0])


def sample_wiener_reference(master_seed, steps, channels, gamma, dt, traj_index=0):
    """Increments drawn straight from the trajectory's generator: the
    single-path sampler (and the white branch of the colored one) before
    they went through ``wiener_increment_block``."""
    rng = trajectory_generator(master_seed, traj_index)
    return rng.normal(0.0, np.sqrt(gamma * dt), size=(steps, channels))


def hermitian_phase_noise_reference(psi0, family, gamma, dt, steps, n_traj, master_seed):
    """``hermitian_phase_noise_ensemble`` as it was written with one
    generator per trajectory: (mean density, sector weights)."""
    psi0 = np.asarray(psi0, dtype=complex)
    n_sec = family.n_sectors
    table = np.zeros((n_sec, psi0.shape[0]))
    for sigma, idx in enumerate(family.sectors):
        table[sigma, np.atleast_1d(idx).ravel()] = 1.0
    density = np.zeros((psi0.shape[0],) * 2, dtype=complex)
    z_all = np.empty((n_traj, n_sec))
    for j in range(n_traj):
        rng = trajectory_generator(master_seed, j)
        theta = rng.normal(0.0, np.sqrt(gamma * dt), size=(steps, n_sec)).sum(axis=0)
        psi = psi0 * np.exp(-1j * (theta @ table))
        density += np.outer(psi, psi.conj())
        z_all[j] = family.sector_weights(psi)
    return density / n_traj, z_all
