"""The discrete localization ("hitting") process on grid wavefunctions.

A hitting multiplies the wavefunction by a normalized Gaussian of width
1/sqrt(alpha) centered at a random point x drawn from the density
P(x) = ||L_x psi||^2, and renormalizes.  Hit times are Poisson with the
configured rate; between hits the state follows the Schroedinger
evolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridLeakageError
from .noise import trajectory_generator
from .operators import HamiltonianSpec
from .params import CollapseParams
from .schrodinger import split_step_batch, split_step_evolve
from .states import GridWavefunction, normalize


@dataclass(frozen=True)
class HittingEvent:
    """One localization event along a trajectory.

    ``pre_norm_sq`` is ||L_x psi||^2 at the sampled center, the density
    mass that made this center win the draw.
    """

    time: float
    center: float
    pre_norm_sq: float


def _gaussian_factor(psi: GridWavefunction, x: float, alpha: float) -> np.ndarray:
    # minimum-image distance keeps the operator single-valued on the ring
    u = psi.wrap_displacement(psi.positions - x)
    return (alpha / np.pi) ** 0.25 * np.exp(-0.5 * alpha * u**2)


def localization_operator_apply(
    psi: GridWavefunction, x: float, alpha: float
) -> GridWavefunction:
    """Apply the (norm-reducing) localization operator L_x; no renormalization.

    The 1D normalization (alpha/pi)^(1/4) makes int dx L_x^2 = 1.
    """
    if not (psi.x0 <= x < psi.x0 + psi.length):
        raise ValueError(f"hit center {x} outside grid [{psi.x0}, {psi.x0 + psi.length})")
    return psi.with_amplitudes(_gaussian_factor(psi, x, alpha) * psi.amplitudes)


def hitting_density(psi: GridWavefunction, alpha: float) -> np.ndarray:
    """P(x_j) = ||L_{x_j} psi||^2 on the grid; integrates to 1.

    Computed as the circular convolution of |psi|^2 with the squared
    localization kernel sqrt(alpha/pi) exp(-alpha u^2).
    """
    if abs(psi.norm_sq() - 1.0) > 1e-8:
        raise ValueError("hitting density requires a normalized state")
    u = psi.wrap_displacement(psi.positions - psi.x0)
    kernel = np.sqrt(alpha / np.pi) * np.exp(-alpha * u**2)
    prob = np.abs(psi.amplitudes) ** 2 * psi.dx
    density = np.fft.irfft(np.fft.rfft(prob) * np.fft.rfft(kernel), n=psi.n)
    return np.maximum(density.real, 0.0)


def _inverse_cdf_linear(
    density: np.ndarray, dx: float, u: float
) -> tuple[int, float]:
    """Inverse-CDF draw from a periodic grid density interpolated linearly
    between nodes.  Returns (cell index j, in-cell fraction s in [0, 1))
    for the position x_j + s*dx."""
    left = density
    right = np.roll(density, -1)
    masses = 0.5 * (left + right) * dx
    cdf = np.cumsum(masses)
    target = u * cdf[-1]
    j = int(np.searchsorted(cdf, target, side="right"))
    j = min(j, density.shape[0] - 1)
    residue = target - (cdf[j - 1] if j > 0 else 0.0)
    p0, p1 = left[j], right[j]
    slope = p1 - p0
    if masses[j] <= 0.0:
        return j, 0.0
    if abs(slope) < 1e-14 * max(p0, p1):
        s = residue / masses[j]
    else:
        # solve (slope/2) s^2 + p0 s = residue/dx on [0, 1]
        disc = p0 * p0 + 2.0 * slope * residue / dx
        s = (np.sqrt(max(disc, 0.0)) - p0) / slope
    return j, float(np.clip(s, 0.0, 1.0 - 1e-12))


def sample_hit_center(
    psi: GridWavefunction, density: np.ndarray, u: float
) -> tuple[float, int]:
    """Inverse-CDF draw from a grid density, linear within cells.

    ``u`` is uniform on [0, 1).  Returns (position, cell index).
    """
    j, s = _inverse_cdf_linear(density, psi.dx, u)
    x = psi.x0 + (j + s) * psi.dx
    if x >= psi.x0 + psi.length:
        x -= psi.length
    return x, j


def run_qmsl_trajectory(
    psi0: GridWavefunction,
    h: HamiltonianSpec,
    params: CollapseParams,
    t_end: float,
    master_seed: int,
    dt: float,
    traj_index: int = 0,
) -> tuple[GridWavefunction, list[HittingEvent]]:
    """Single hitting trajectory up to ``t_end``.

    Hit times are sampled as exponential inter-arrivals with rate
    ``params.lambda_rate``; each hit is applied at its exact time by
    splitting the surrounding step.  The state is renormalized after
    every hit.
    """
    if abs(psi0.norm_sq() - 1.0) > 1e-8:
        raise ValueError("initial state must be normalized")
    rng = trajectory_generator(master_seed, traj_index)
    lam = params.lambda_rate
    psi = psi0
    events: list[HittingEvent] = []
    t = 0.0
    next_hit = rng.exponential(1.0 / lam) if lam > 0 else np.inf
    while t < t_end - 1e-15:
        t_stop = min(t + dt, t_end)
        while next_hit <= t_stop:
            psi = split_step_evolve(psi, h, next_hit - t)
            t = next_hit
            density = hitting_density(psi, params.alpha)
            x, _ = sample_hit_center(psi, density, rng.uniform())
            localized = localization_operator_apply(psi, x, params.alpha)
            pre_norm_sq = localized.norm_sq()
            psi = normalize(localized)
            events.append(HittingEvent(t, x, pre_norm_sq))
            next_hit = t + rng.exponential(1.0 / lam)
        psi = split_step_evolve(psi, h, t_stop - t)
        t = t_stop
    return psi, events


@dataclass
class QmslEnsembleResult:
    """Batched trajectory summaries on a shared grid."""

    amplitudes: np.ndarray        # (n_traj, N) final normalized amplitudes
    hit_counts: np.ndarray        # (n_traj,)
    mean_kernel: np.ndarray       # (N, N) average of |psi><psi|, grid kernel
    template: GridWavefunction


def step_count(t_end: float, dt: float) -> int:
    """Number of ``dt`` steps in ``t_end``; ValueError unless it is whole."""
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(t_end, 1.0):
        raise ValueError("t_end must be an integer number of steps")
    return n_steps


def run_qmsl_ensemble(
    psi0: GridWavefunction,
    h: HamiltonianSpec,
    params: CollapseParams,
    t_end: float,
    n_traj: int,
    master_seed: int,
    dt: float,
    chunk: int = 256,
    accumulate_kernel: bool = True,
) -> QmslEnsembleResult:
    """Vectorized hitting ensemble.

    Hits are applied at step boundaries: inter-arrival clocks are exact
    exponentials, a hit falling due inside a step is applied at its end,
    and several hits inside one ``dt`` are processed sequentially.  Each
    trajectory draws from its own (master_seed, index) stream, in the same
    order whatever the chunk size, so results do not depend on ``chunk``.

    For ``free`` and ``none`` Hamiltonians each row is held in the
    interaction picture: pulled back to t = 0 by the free propagator
    U(t) = ``split_step_batch(., t)``, which makes free flight a no-op.  On
    a step where hits fall due, only those rows are brought to t with one
    exact jump, hit, and pulled back; at the end the block is brought to
    ``t_end`` with one call.  Harmonic Hamiltonians take one Strang step
    per ``dt`` instead.

    Leakage is checked at every step as if the rows were in position
    space.  A row's two edge amplitudes at t are ``b @ [G_t[-j mod N],
    G_t[N-1-j]]``, with G_t the propagator kernel (U(t) applied to a unit
    vector), and are compared with ``leak_tol`` times the RMS amplitude,
    which is a lower bound on a row's peak and does not change in time
    (Parseval: every row keeps its norm).  Rows over that bound are brought
    to t and given the exact test edge > leak_tol * peak; a failure raises
    ``GridLeakageError``.
    """
    if abs(psi0.norm_sq() - 1.0) > 1e-8:
        raise ValueError("initial state must be normalized")
    n_steps = step_count(t_end, dt)
    n = psi0.n
    lam = params.lambda_rate
    tol = psi0.leak_tol
    free_flight = h.kind in ("free", "none")
    u_grid = psi0.wrap_displacement(psi0.positions - psi0.x0)
    kernel = np.sqrt(params.alpha / np.pi) * np.exp(-params.alpha * u_grid**2)
    kernel_hat = np.fft.rfft(kernel)
    unit = np.zeros((1, n), dtype=complex)
    unit[0, 0] = 1.0
    # (U(t) b)[j] = sum_l G_t[(j - l) mod N] b[l], read at j = 0 and j = N - 1
    edge_taps = np.stack([-np.arange(n) % n, n - 1 - np.arange(n)], axis=1)
    # a row keeps the norm of psi0 until its first hit and unit norm after
    rms = min(np.linalg.norm(psi0.amplitudes), 1.0 / np.sqrt(psi0.dx)) / np.sqrt(n)

    final = np.empty((n_traj, n), dtype=complex)
    hit_counts = np.zeros(n_traj, dtype=int)
    mean_kernel = np.zeros((n, n), dtype=complex) if accumulate_kernel else None

    for start in range(0, n_traj, chunk):
        idx = np.arange(start, min(start + chunk, n_traj))
        rngs = [trajectory_generator(master_seed, int(i)) for i in idx]
        next_hit = np.array(
            [r.exponential(1.0 / lam) if lam > 0 else np.inf for r in rngs]
        )
        b = np.tile(psi0.amplitudes, (len(idx), 1))
        t = lag = 0.0
        for _ in range(n_steps):
            t += dt
            if free_flight:
                lag = t
            else:
                b = split_step_batch(b, psi0, h, dt)
            g = split_step_batch(unit, psi0, h, lag)[0]
            over = np.nonzero(np.abs(b @ g[edge_taps]).max(axis=1) > tol * rms)[0]
            if over.size:
                amps = split_step_batch(b[over], psi0, h, lag)
                edge = np.maximum(np.abs(amps[:, 0]), np.abs(amps[:, -1]))
                peak = np.abs(amps).max(axis=1)
                if np.any(edge > tol * peak):
                    worst = float((edge / peak).max())
                    raise GridLeakageError(
                        f"boundary amplitude reached {worst:.2e} of peak at "
                        f"t={t:.4g}; enlarge the grid"
                    )
            due = np.nonzero(next_hit <= t)[0]
            if not due.size:
                continue
            rows = split_step_batch(b[due], psi0, h, lag)
            active = np.arange(due.size)
            while active.size:
                prob = np.abs(rows[active]) ** 2 * psi0.dx
                dens = np.fft.irfft(
                    np.fft.rfft(prob, axis=1) * kernel_hat[None, :], n=n, axis=1
                )
                dens = np.maximum(dens, 0.0)
                for k, density in zip(active, dens):
                    j_tr = due[k]
                    r = rngs[j_tr]
                    x, _ = sample_hit_center(psi0, density, r.uniform())
                    hit_amps = rows[k] * _gaussian_factor(psi0, x, params.alpha)
                    rows[k] = hit_amps / np.sqrt(np.sum(np.abs(hit_amps) ** 2) * psi0.dx)
                    hit_counts[idx[j_tr]] += 1
                    next_hit[j_tr] += r.exponential(1.0 / lam)
                active = active[next_hit[due[active]] <= t]
            b[due] = split_step_batch(rows, psi0, h, -lag)
        amps = split_step_batch(b, psi0, h, lag)
        final[idx] = amps
        if accumulate_kernel:
            mean_kernel += amps.conj().T @ amps
    if accumulate_kernel:
        mean_kernel = (mean_kernel / n_traj).T
    return QmslEnsembleResult(final, hit_counts, mean_kernel, psi0)


def ensemble_moments(result: QmslEnsembleResult) -> dict[str, float]:
    """Ensemble-level position/momentum moments Tr[rho q^k], Tr[rho p^k].

    These are the master-equation moments: the ensemble average of the
    per-trajectory expectations, with variances taken across the pooled
    distribution.
    """
    psi = result.template
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


def events_to_rows(events: list[HittingEvent]) -> list[tuple[float, float, float]]:
    """Event log rows (time, center, weight) for CSV export."""
    return [(e.time, e.center, e.pre_norm_sq) for e in events]
