"""Independent oracles and reference sides of the tests.

Most of what is here deliberately avoids the production code paths:
closed forms are re-derived from scratch, integrals use scipy
quadrature, and the kernel master equation is integrated as a
brute-force ODE.  The exceptions reuse production pieces on purpose:

- ``qmsl_exact_time_lockstep``, the exact-time lockstep hitting ensemble,
  a reference for the momentum-picture engine: it reuses the production
  kinetic phase, hit sampler (``hit_rows``) and random streams, but
  steps every trajectory through every ``dt`` in position space
  (``free_step_reference``), one at a time, splitting its step at each
  of its hit times.
- ``step_batch_reference``, the row-wise complex CSL step kept as the
  reference for the column-wise stepper: it reads the stepper's family,
  gamma, dt and form, and its linear Euler step is the reference the
  exact linear update is checked against.
- ``sample_wiener_reference`` and ``hermitian_phase_noise_reference``,
  the one-generator-per-path samplers the block draw replaced: the first
  pins the block draw's streams and bits, the second is the Hermitian
  phase-noise contrast model of acceptance criterion 10.
- ``colored_increment_block`` draws colored paths from the production
  Wiener streams, and ``run_commuting_nonwhite_ensemble`` updates each
  summed path by the production ``linear_exact_commuting``: the colored
  side of criterion 8, which no experiment runs.

``diagonal_family`` builds the commuting families the tests step from a
table of channel eigenvalues; no experiment builds one that way.

The rest are the reference sides of criteria and closed forms, which no
experiment computes: the hitting density ||L_x psi||^2 at the grid nodes
by FFT convolution (``hitting_density_reference``, the law the hit
sampler draws from), the superoperator-exponential ensemble generator
(``lindblad_evolve``, criteria 3 and 11), the ensemble moments of a
hitting run (criterion 4), the scattering master step (criterion 10),
the cooked two-sector density of the integrated noise, and the
smeared-profile quadratures behind the macroscopic closed forms.
``discrete_decay_log`` writes the cell model's decay exponent out on its
own, the formula the white two-sector rate of a cell family is held to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp

from collapsim.colored import CorrelationSpec, _toeplitz
from collapsim.cooking import linear_exact_commuting
from collapsim.errors import GridLeakageError
from collapsim.hitting import QmslEnsembleResult, hit_rows, step_count
from collapsim.noise import trajectory_generator, wiener_increment_block
from collapsim.operators import ProjectorFamily
from collapsim.schrodinger import _kinetic_phase
from collapsim.states import DEFAULT_LEAK_TOL, GridWavefunction


def diagonal_family(channel_values) -> ProjectorFamily:
    """The family whose basis index j has the channel eigenvalues
    ``channel_values[:, j]`` (shape (n_channels, dim)); indices with equal
    columns form one sector, in the order of their first index."""
    vals = np.atleast_2d(np.asarray(channel_values, dtype=float))
    order: dict[tuple, list[int]] = {}
    for j, col in enumerate(map(tuple, vals.T)):
        order.setdefault(col, []).append(j)
    sectors = tuple(np.array(v) for v in order.values())
    return ProjectorFamily(np.array(list(order), dtype=float), sectors)


def discrete_decay_log(n, m, lambda_eff: float, t: float) -> float:
    """Log of the off-diagonal damping factor between two cell
    configurations, -(lambda/2) sum_k (n_k - m_k)^2 t: in log space, so
    astronomically large occupations stay finite."""
    diff = np.asarray(n, dtype=float) - np.asarray(m, dtype=float)
    return -0.5 * lambda_eff * float(diff @ diff) * t


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


def correlation_kernel(spec: CorrelationSpec, lag) -> np.ndarray:
    """D at the given lags of a gaussian, exponential or custom kernel,
    from the formulas of ``CorrelationSpec``'s docstring; a custom kernel
    takes its nearest sample, and zero past the last."""
    s = np.abs(np.asarray(lag, dtype=float))
    if spec.kind == "gaussian":
        return np.exp(-(s**2) / (2 * spec.tau**2)) / (np.sqrt(2 * np.pi) * spec.tau)
    if spec.kind == "exponential":
        return np.exp(-s / spec.tau) / (2 * spec.tau)
    padded = np.append(spec.samples, 0.0)
    return padded[np.minimum(np.rint(s / spec.dt).astype(int), spec.samples.size)]


def double_integral_by_quadrature(spec: CorrelationSpec, t_span: float) -> float:
    """2D adaptive quadrature of a stationary kernel over [0, T]^2, via
    the lag representation 2*int_0^T (T - s) D(s) ds."""
    val, _ = quad(
        lambda s: (t_span - s) * correlation_kernel(spec, s), 0.0, t_span,
        epsabs=1e-12, epsrel=1e-12,
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


def free_step_reference(rows, psi0, lag):
    """Free flight of position-space rows by ``lag``, one for every row or
    one per row: ifft(fft(rows) kin(lag)), never through the picture."""
    return np.fft.ifft(np.fft.fft(rows, axis=1) * _kinetic_phase(psi0, lag), axis=1)


def qmsl_exact_time_lockstep(psi0, params, t_end, n_traj, master_seed, dt):
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
                row = free_step_reference(row, psi0, next_hit[j] - now)
                now = next_hit[j]
                draw = [r.uniform()], [r.standard_normal()]
                x, weight = hit_rows(psi0, params.alpha, row, *draw, np.empty((3, 1, psi0.n)))
                events.append((j, now, x[0], weight[0]))
                next_hit[j] += r.exponential(1.0 / lam)
            amps[j] = free_step_reference(row, psi0, t_stop - now)[0]
        t = t_stop
        edge = np.maximum(np.abs(amps[:, 0]), np.abs(amps[:, -1]))
        peak = np.abs(amps).max(axis=1)
        if np.any(edge > DEFAULT_LEAK_TOL * peak):
            worst = float((edge / peak).max())
            raise GridLeakageError(
                f"boundary amplitude reached {worst:.2e} of peak at "
                f"t={t:.4g}; enlarge the grid"
            )
    log = np.array(events, dtype=float).reshape(-1, 4)
    log = log[np.argsort(log[:, 0], kind="stable")]
    return amps, np.bincount(log[:, 0].astype(int), minlength=n_traj), log


def hitting_density_reference(psi, alpha, amplitudes):
    """P(x_j) = ||L_{x_j} psi||^2 at the grid nodes of ``psi``, one row per
    state of ``amplitudes``: the circular convolution of |psi|^2 with the
    squared localization kernel sqrt(alpha/pi) exp(-alpha u^2), by FFT."""
    prob = np.abs(amplitudes) ** 2 * psi.dx
    u = psi.dx * np.minimum(np.arange(psi.n), psi.n - np.arange(psi.n))  # ring distances
    kernel_hat = np.fft.rfft(np.sqrt(alpha / np.pi) * np.exp(-alpha * u**2))
    density = np.fft.irfft(np.fft.rfft(prob, axis=-1) * kernel_hat, n=psi.n, axis=-1)
    return np.maximum(density, 0.0)


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
    """Hermitian white-noise coupling: each sector amplitude picks up
    exp(-i theta_sigma) with independent Brownian phases of variance
    gamma*t, one generator per trajectory.  Returns (mean density, sector
    weights z per trajectory): z is exactly constant path by path while
    the ensemble off-diagonals damp at rate gamma, an ensemble-only
    ("apparent") collapse."""
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


def _superoperator(
    h_matrix: np.ndarray | None, ops: list[np.ndarray], gamma: float, dim: int
) -> np.ndarray:
    eye = np.eye(dim)

    def left(m):
        return np.kron(m, eye)

    def right(m):
        # row-major vec: vec(X B) = (I (x) B^T) vec(X)
        return np.kron(eye, m.T)

    gen = np.zeros((dim * dim, dim * dim), dtype=complex)
    if h_matrix is not None:
        gen += -1j * (left(h_matrix) - right(h_matrix))
    for a in ops:
        a_dag = a.conj().T
        gen += gamma * np.kron(a, a_dag.T)
        asq = a_dag @ a
        gen += -0.5 * gamma * (left(asq) + right(asq))
    return gen


def require_density(
    rho: np.ndarray, herm_tol: float = 1e-10, trace_tol: float = 1e-10, eig_tol: float = -1e-8
) -> np.ndarray:
    """``rho`` if it is a density matrix within the tolerances: Hermitian,
    of unit trace, and no eigenvalue below ``eig_tol``."""
    if np.max(np.abs(rho - rho.conj().T)) > herm_tol:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > trace_tol:
        raise ValueError("density matrix trace differs from one")
    if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0] < eig_tol:
        raise ValueError("density matrix has a negative eigenvalue")
    return rho


def lindblad_evolve(
    rho0: np.ndarray,
    h_matrix: np.ndarray | None,
    family: ProjectorFamily | list[np.ndarray],
    gamma: float,
    t: float,
) -> np.ndarray:
    """Evolve a finite density matrix under the ensemble generator.

    ``family`` may be a ProjectorFamily (channels become the coupling
    operators) or an explicit operator list.  Trace is conserved within
    1e-9 and positivity within -1e-8; the evolved matrix is validated.
    """
    from scipy.linalg import expm

    rho0 = require_density(np.asarray(rho0, dtype=complex), trace_tol=1e-8)
    dim = rho0.shape[0]
    ops = (
        [np.diag(row).astype(complex) for row in family.basis_eigenvalues()]
        if isinstance(family, ProjectorFamily)
        else [np.asarray(a, dtype=complex) for a in family]
    )
    gen = _superoperator(
        None if h_matrix is None else np.asarray(h_matrix, dtype=complex),
        ops,
        gamma,
        dim,
    )
    rho = (expm(gen * t) @ rho0.reshape(-1)).reshape(dim, dim)
    return require_density(rho, herm_tol=1e-9, trace_tol=1e-9)


def ensemble_moments(result: QmslEnsembleResult, psi: GridWavefunction) -> dict[str, float]:
    """Ensemble-level position/momentum moments Tr[rho q^k], Tr[rho p^k]
    of a hitting run from ``psi``.

    These are the master-equation moments: the ensemble average of the
    per-trajectory expectations, with variances taken across the pooled
    distribution.
    """
    amps = result.amplitudes
    x = psi.positions
    prob_x = np.abs(amps) ** 2 * psi.dx
    q_mean = float(np.mean(prob_x @ x))
    q_sq = float(np.mean(prob_x @ x**2))
    k = psi.wavenumbers
    phi = np.fft.fft(amps, axis=1)
    prob_k = np.abs(phi) ** 2
    prob_k = prob_k / prob_k.sum(axis=1, keepdims=True)
    p_mean = float(np.mean(prob_k @ k))
    p_sq = float(np.mean(prob_k @ k**2))
    return {
        "q_mean": q_mean,
        "p_mean": p_mean,
        "q_var": q_sq - q_mean**2,
        "p_var": p_sq - p_mean**2,
    }


def colored_increment_block(
    spec: CorrelationSpec,
    master_seed: int,
    traj_indices,
    steps: int,
    channels: int,
    gamma: float,
    dt: float,
) -> np.ndarray:
    """Discretized Gaussian paths with covariance gamma * D for a batch of
    trajectories, shape (steps, n, channels).

    Row j is built from the standard normals of stream ``traj_indices[j]``
    (``wiener_increment_block`` at unit variance); white kernels are the
    Wiener increments themselves.  Exponential kernels use the exact AR(1)
    recursion started from the stationary distribution; gaussian/custom
    kernels use one Cholesky factor of the Gram matrix for the whole batch.
    The block holds w(t_k) * dt so downstream integrals read uniformly.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if spec.kind == "white":
        return wiener_increment_block(master_seed, traj_indices, steps, channels, gamma, dt)
    w = wiener_increment_block(master_seed, traj_indices, steps, channels, 1.0, 1.0)
    if spec.kind == "exponential":
        rho = np.exp(-dt / spec.tau)
        stationary_sd = np.sqrt(gamma / (2 * spec.tau))
        innov_sd = stationary_sd * np.sqrt(1 - rho**2)
        w[0] *= stationary_sd
        for k in range(1, steps):
            w[k] = rho * w[k - 1] + innov_sd * w[k]
    else:
        lags = dt * np.arange(steps)
        gram = gamma * _toeplitz(correlation_kernel(spec, lags))
        gram[np.diag_indices(steps)] += 1e-12 * gram[0, 0]
        w = (np.linalg.cholesky(gram) @ w.reshape(steps, -1)).reshape(w.shape)
    w *= dt
    return w


def run_commuting_nonwhite_ensemble(
    psi0: np.ndarray,
    family: ProjectorFamily,
    spec: CorrelationSpec,
    gamma: float,
    t_end: float,
    steps: int,
    master_seed: int,
    n_traj: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Colored ensemble in the H-disregarded regime.

    The per-step exponential updates compose exactly, so each trajectory
    is one update with its total integrated noise x(T) (the sum of its
    rows of ``colored_increment_block``, trajectory j on stream j) and the
    kernel's full double integral f(T); the raw average of the squared
    norm is conserved up to the path-sampling discretization alone.

    Returns (final normalized states (n, d), cooked log-weights (n,)).
    """
    block = colored_increment_block(
        spec, master_seed, np.arange(n_traj), steps, family.channel_count, gamma,
        t_end / steps,
    )
    return linear_exact_commuting(
        psi0, family, block.sum(axis=0), gamma, spec.double_integral(t_end)
    )


def scattering_master_step(
    rho: np.ndarray, p_hat: np.ndarray, rate: float, dt: float
) -> np.ndarray:
    """One collision step of the scattering master equation.

    Off-diagonal kernel entries are multiplied by
    1 - rate*dt*(1 - p_hat(x - y)); p_hat is the Fourier-transformed
    momentum-transfer distribution sampled on the kernel's separation
    grid, with |p_hat| <= 1 and p_hat(0) = 1 (diagonal invariant).
    """
    p_hat = np.asarray(p_hat)
    if p_hat.shape != rho.shape:
        raise ValueError("p_hat must be sampled on the kernel grid")
    if np.max(np.abs(p_hat)) > 1.0 + 1e-12:
        raise ValueError("invalid transfer distribution: |p_hat| must be <= 1")
    diag = np.abs(np.diagonal(p_hat) - 1.0)
    if np.max(diag) > 1e-12:
        raise ValueError("invalid transfer distribution: p_hat(0) must be 1")
    return rho * (1.0 - rate * dt * (1.0 - p_hat))


def gaussian_transfer_profile(
    positions: np.ndarray, l_eff: float, length: float
) -> np.ndarray:
    """p_hat(x - y) = exp(-(x-y)^2 / 2 l_eff^2) on a periodic grid."""
    u = positions[:, None] - positions[None, :]
    u = u - length * np.round(u / length)
    return np.exp(-(u**2) / (2.0 * l_eff**2))


@dataclass(frozen=True)
class GaussianMixture1D:
    """Two-component Gaussian mixture over a scalar noise record."""

    weights: tuple[float, float]
    means: tuple[float, float]
    variance: float

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        norm = 1.0 / np.sqrt(2.0 * np.pi * self.variance)
        for w, mu in zip(self.weights, self.means):
            out = out + w * norm * np.exp(-((x - mu) ** 2) / (2.0 * self.variance))
        return out

    def cdf(self, x: np.ndarray) -> np.ndarray:
        from scipy.special import ndtr

        x = np.asarray(x, dtype=float)
        sd = np.sqrt(self.variance)
        out = np.zeros_like(x)
        for w, mu in zip(self.weights, self.means):
            out = out + w * ndtr((x - mu) / sd)
        return out


def two_level_analytic(
    weights: tuple[float, float],
    eigenvalues: tuple[float, float],
    gamma: float,
    f: float,
) -> GaussianMixture1D:
    """Cooked density of the integrated noise x(t) for a two-sector state.

    A mixture of Gaussians centered at 2*gamma*a*f and 2*gamma*b*f with
    variance gamma*f, weighted by the initial sector weights, where f is
    the noise kernel's double time integral f(t): t itself for white noise
    (x is then the Brownian record B(t)).
    """
    if abs(weights[0] + weights[1] - 1.0) > 1e-9:
        raise ValueError("sector weights must sum to one")
    if f < 0:
        raise ValueError("f(t) must be nonnegative")
    a, b = eigenvalues
    return GaussianMixture1D(
        (float(weights[0]), float(weights[1])),
        (2.0 * gamma * a * f, 2.0 * gamma * b * f),
        gamma * f,
    )


def smeared_slab_profile(x: np.ndarray, density: float, length: float, alpha: float):
    """Number-density profile of a uniform 1D slab smeared over the
    localization width: D0 * [Phi(x + L/2) - Phi(x - L/2)] with Phi the
    Gaussian CDF of width 1/sqrt(alpha)."""
    from scipy.special import erf

    s = np.sqrt(alpha / 2.0)
    return 0.5 * density * (erf(s * (x + length / 2)) - erf(s * (x - length / 2)))


def slab_reduction_rate_quadrature(
    gamma: float,
    density: float,
    length: float,
    displacement: float,
    alpha: float,
    n_points: int = 4001,
) -> float:
    """Gamma(Q', Q'') for a displaced uniform 1D slab, by quadrature.

    Evaluates gamma * int dx [F^2(x) - F(x) F(x - q)] with the smeared
    profile F; for displacements >> 1/sqrt(alpha) this reduces to
    gamma * D0 * n_out with n_out = D0 * q per unit cross-section.
    """
    pad = 10.0 / np.sqrt(alpha) + abs(displacement)
    x = np.linspace(-length / 2 - pad, length / 2 + pad + abs(displacement), n_points)
    f0 = smeared_slab_profile(x, density, length, alpha)
    f1 = smeared_slab_profile(x - displacement, density, length, alpha)
    integrand = f0 * f0 - f0 * f1
    return gamma * float(np.trapezoid(integrand, x))


def smeared_density_damping_1d(
    gamma_1d: float, alpha: float, separations: np.ndarray, half_width: float = 12.0
) -> np.ndarray:
    """Single-particle off-diagonal damping rate Gamma(u) on a 1D grid,
    built from first principles: the smeared-density coupling g(x - q)
    with g the width-1/sqrt(alpha) normalized Gaussian gives
    Gamma(u) = gamma [G(0) - G(u)], G(u) = int g(y) g(y - u) dy
    evaluated by quadrature.

    With lambda = gamma (alpha/4 pi)^(1/2) this reproduces the hitting
    master equation's rate lambda (1 - exp(-alpha u^2/4)) exactly.
    """
    separations = np.atleast_1d(np.asarray(separations, dtype=float))
    span = half_width / np.sqrt(alpha) + np.max(np.abs(separations))
    y = np.linspace(-span, span, 8001)
    g0 = np.sqrt(alpha / (2.0 * np.pi)) * np.exp(-0.5 * alpha * y**2)
    g_zero = float(np.trapezoid(g0 * g0, y))
    out = np.empty_like(separations)
    for i, u in enumerate(separations):
        gu = np.sqrt(alpha / (2.0 * np.pi)) * np.exp(-0.5 * alpha * (y - u) ** 2)
        out[i] = gamma_1d * (g_zero - float(np.trapezoid(g0 * gu, y)))
    return out


def momentum_diffusion_quadrature(
    alpha: float, density: float, edge: float, n_points: int = 4001
) -> float:
    """delta per unit transverse section from the profile derivative:
    int (dF/dy)^2 dy for a rectangular profile of edge length ``edge``,
    times the transverse-section factor left at unity.

    Approaches sqrt(alpha/pi) * D0^2 for edges >> 1/sqrt(alpha).
    """
    pad = 10.0 / np.sqrt(alpha)
    y = np.linspace(-edge / 2 - pad, edge / 2 + pad, n_points)
    f = smeared_slab_profile(y, density, edge, alpha)
    df = np.gradient(f, y)
    return float(np.trapezoid(df * df, y))
