"""The discrete localization ("hitting") process on grid wavefunctions.

A hitting multiplies the wavefunction by a normalized Gaussian of width
1/sqrt(alpha) centered at a random point x drawn from the density
P(x) = ||L_x psi||^2, and renormalizes.  Hit times are Poisson with the
configured rate, and each hit is applied at its exact time; between hits
the state follows the Schroedinger evolution.  One ensemble engine runs
every trajectory count, a single trajectory included, and logs each hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridLeakageError
from .noise import trajectory_generator
from .operators import HamiltonianSpec
from .params import CollapseParams
from .schrodinger import split_step_batch
from .states import GridWavefunction


def _gaussian_factor(psi: GridWavefunction, x, alpha: float) -> np.ndarray:
    """L_x on the grid: one row per center of ``x``, a scalar center gives
    one (N,) row."""
    # minimum-image distance keeps the operator single-valued on the ring
    u = psi.wrap_displacement(psi.positions - np.asarray(x)[..., None])
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


def hitting_density(
    psi: GridWavefunction, alpha: float, amplitudes: np.ndarray | None = None
) -> np.ndarray:
    """P(x_j) = ||L_{x_j} psi||^2 on the grid; integrates to 1.

    ``amplitudes`` (default: those of ``psi``) may hold one state per
    row on the grid of ``psi``; the density then has one row per state.
    Computed as the circular convolution of |psi|^2 with the squared
    localization kernel sqrt(alpha/pi) exp(-alpha u^2).
    """
    amps = psi.amplitudes if amplitudes is None else amplitudes
    prob = np.abs(amps) ** 2 * psi.dx
    if np.any(np.abs(prob.sum(axis=-1) - 1.0) > 1e-8):
        raise ValueError("hitting density requires normalized states")
    kernel_hat = _squared_kernel_hat(psi.n, psi.dx, alpha)
    density = np.fft.irfft(np.fft.rfft(prob, axis=-1) * kernel_hat, n=psi.n, axis=-1)
    return np.maximum(density, 0.0)


@lru_cache(maxsize=4)
def _squared_kernel_hat(n: int, dx: float, alpha: float) -> np.ndarray:
    # rfft of the kernel at the grid's ring distances from the origin
    u = dx * np.minimum(np.arange(n), n - np.arange(n))
    return np.fft.rfft(np.sqrt(alpha / np.pi) * np.exp(-alpha * u**2))


def sample_hit_center(
    psi: GridWavefunction, density: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF draws from periodic grid densities interpolated linearly
    between nodes: one center per row of ``density`` (m, N), from the
    uniform on [0, 1) at the same place in ``u`` (m,).  Returns (positions,
    cell indices)."""
    left = density
    right = np.roll(density, -1, axis=1)
    masses = 0.5 * (left + right) * psi.dx
    cdf = np.cumsum(masses, axis=1)
    target = np.asarray(u, dtype=float) * cdf[:, -1]
    # the count of cdf entries <= target is searchsorted(side="right")
    j = np.minimum((cdf <= target[:, None]).sum(axis=1), density.shape[1] - 1)
    rows = np.arange(j.size)
    residue = target - np.where(j > 0, cdf[rows, j - 1], 0.0)
    p0, p1, mass = left[rows, j], right[rows, j], masses[rows, j]
    slope = p1 - p0
    flat = np.abs(slope) < 1e-14 * np.maximum(p0, p1)
    curved = (mass > 0.0) & ~flat
    flat &= mass > 0.0
    s = np.zeros(j.size)  # the in-cell fraction: the center is x_j + s*dx
    s[flat] = residue[flat] / mass[flat]
    # solve (slope/2) s^2 + p0 s = residue/dx on [0, 1]
    disc = p0 * p0 + 2.0 * slope * residue / psi.dx
    s[curved] = (np.sqrt(np.maximum(disc[curved], 0.0)) - p0[curved]) / slope[curved]
    x = psi.x0 + (j + np.clip(s, 0.0, 1.0 - 1e-12)) * psi.dx
    return np.where(x >= psi.x0 + psi.length, x - psi.length, x), j


@dataclass
class QmslEnsembleResult:
    """Batched trajectory summaries on a shared grid."""

    amplitudes: np.ndarray        # (n_traj, N) final normalized amplitudes
    hit_counts: np.ndarray        # (n_traj,)
    mean_kernel: np.ndarray       # (N, N) average of |psi><psi|, grid kernel
    template: GridWavefunction
    # (hits, 4) rows (trajectory, time, center, ||L_x psi||^2), ordered by
    # trajectory, then time
    events: np.ndarray


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
    """Hitting ensemble, hits at their exact Poisson times.

    Inter-arrival times are exponential, and each hit is applied at its
    own time tau, however many fall due inside one ``dt``.  Each
    trajectory draws from its own (master_seed, index) stream, in the same
    order whatever the chunk size, so the results and the hit log do not
    depend on ``chunk``, and a one-trajectory run is trajectory 0 of any
    larger one.  The result logs every hit: trajectory, time, center and
    ||L_x psi||^2, the density mass that made the center win the draw.

    For ``free`` and ``none`` Hamiltonians each row is held in the
    interaction picture: pulled back to t = 0 by the free propagator
    U(t) = ``split_step_batch(., t)``, which makes free flight a no-op.
    The rows a hit falls due for in a step are brought from t = 0 to their
    own tau with one exact jump (one lag per row), hit, and pulled back;
    at the end the block is brought to ``t_end`` with one call.  Harmonic
    Hamiltonians take one Strang step per ``dt``, and a due row's step is
    split at each of its hit times.

    Leakage is checked after each step's hits as if the rows were in
    position space.  A row's two edge amplitudes at t are ``b @ [G_t[-j
    mod N], G_t[N-1-j]]``, with G_t the propagator kernel (U(t) applied
    to a unit vector, advanced by one ``dt`` a step), and are compared
    with ``leak_tol`` times the RMS amplitude, which is a lower bound on a
    row's peak and does not change in time (Parseval: every row keeps its
    norm).  Rows over that bound are brought to t and given the exact test
    edge > leak_tol * peak; a failure raises ``GridLeakageError``.
    """
    if abs(psi0.norm_sq() - 1.0) > 1e-8:
        raise ValueError("initial state must be normalized")
    n_steps = step_count(t_end, dt)
    n = psi0.n
    lam = params.lambda_rate
    tol = psi0.leak_tol
    free_flight = h.kind in ("free", "none")
    unit = np.zeros((1, n), dtype=complex)
    unit[0, 0] = 1.0
    # (U(t) b)[j] = sum_l G_t[(j - l) mod N] b[l], read at j = 0 and j = N - 1
    edge_taps = np.stack([-np.arange(n) % n, n - 1 - np.arange(n)], axis=1)
    # a row keeps the norm of psi0 until its first hit and unit norm after
    rms = min(np.linalg.norm(psi0.amplitudes), 1.0 / np.sqrt(psi0.dx)) / np.sqrt(n)

    final = np.empty((n_traj, n), dtype=complex)
    hit_counts = np.zeros(n_traj, dtype=int)
    mean_kernel = np.zeros((n, n), dtype=complex) if accumulate_kernel else None
    events = [np.empty((0, 4))]

    for start in range(0, n_traj, chunk):
        idx = np.arange(start, min(start + chunk, n_traj))
        rngs = [trajectory_generator(master_seed, int(i)) for i in idx]
        next_hit = np.array(
            [r.exponential(1.0 / lam) if lam > 0 else np.inf for r in rngs]
        )
        b = np.tile(psi0.amplitudes, (len(idx), 1))
        g, t, lag = unit, 0.0, 0.0
        for _ in range(n_steps):
            t_prev, t = t, t + dt
            due = np.nonzero(next_hit <= t)[0]
            rows = b[due]
            # the time each due row stands at: 0 in the interaction picture
            pic = np.full(due.size, 0.0 if free_flight else t_prev)
            if free_flight:
                g, lag = split_step_batch(g, psi0, h, dt), t
            else:
                b = split_step_batch(b, psi0, h, dt)
            active = np.arange(due.size)
            while active.size:
                hit = due[active]
                tau = next_hit[hit]
                amps = split_step_batch(rows[active], psi0, h, tau - pic[active])
                density = hitting_density(psi0, params.alpha, amps)
                u = np.array([rngs[k].uniform() for k in hit])
                x, _ = sample_hit_center(psi0, density, u)
                amps *= _gaussian_factor(psi0, x, params.alpha)
                weight = np.sum(np.abs(amps) ** 2, axis=1) * psi0.dx
                amps /= np.sqrt(weight)[:, None]
                events.append(np.stack([idx[hit], tau, x, weight], axis=1))
                hit_counts[idx[hit]] += 1
                next_hit[hit] += [rngs[k].exponential(1.0 / lam) for k in hit]
                if free_flight:
                    rows[active] = split_step_batch(amps, psi0, h, pic[active] - tau)
                else:
                    rows[active], pic[active] = amps, tau
                active = active[next_hit[hit] <= t]
            if due.size:
                b[due] = rows if free_flight else split_step_batch(rows, psi0, h, t - pic)
            over = np.nonzero(np.abs(b @ g[0, edge_taps]).max(axis=1) > tol * rms)[0]
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
        amps = split_step_batch(b, psi0, h, lag)
        final[idx] = amps
        if accumulate_kernel:
            mean_kernel += amps.conj().T @ amps
    if accumulate_kernel:
        mean_kernel = (mean_kernel / n_traj).T
    log = np.concatenate(events)
    log = log[np.argsort(log[:, 0], kind="stable")]
    return QmslEnsembleResult(final, hit_counts, mean_kernel, psi0, log)


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
