"""The discrete localization ("hitting") process on grid wavefunctions.

A hitting multiplies the wavefunction by a normalized Gaussian of width
1/sqrt(alpha) centered at a random point x drawn from the density
P(x) = ||L_x psi||^2, and renormalizes.  Hit times are Poisson with the
configured rate, and each hit is applied at its exact time; between hits
the particle moves freely (Ghirardi, Rimini & Weber's free particle).  One
ensemble engine runs every trajectory count, a single trajectory included,
and logs each hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridLeakageError
from .noise import TILE_BYTES, trajectory_generator
from .params import CollapseParams
from .schrodinger import _kinetic_phase, split_step_batch
from .states import DEFAULT_LEAK_TOL, GridWavefunction


def _gaussian_factor(psi: GridWavefunction, x, alpha: float) -> np.ndarray:
    """L_x on the grid: one row per center of ``x``, a scalar center gives
    one (N,) row."""
    # minimum-image distance keeps the operator single-valued on the ring
    u = psi.wrap_displacement(psi.positions - np.asarray(x)[..., None])
    return (alpha / np.pi) ** 0.25 * np.exp(-0.5 * alpha * u**2)


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
    template: GridWavefunction
    # (hits, 4) rows (trajectory, time, center, ||L_x psi||^2), ordered by
    # trajectory, then time
    events: np.ndarray


CHUNK = 256
"""Trajectories ``run_qmsl_ensemble`` advances at a time; a trajectory's
results do not depend on it."""


def step_count(t_end: float, dt: float) -> int:
    """Number of ``dt`` steps in ``t_end``; ValueError unless it is whole."""
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(t_end, 1.0):
        raise ValueError("t_end must be an integer number of steps")
    return n_steps


def run_qmsl_ensemble(
    psi0: GridWavefunction,
    params: CollapseParams,
    t_end: float,
    n_traj: int,
    master_seed: int,
    dt: float,
) -> QmslEnsembleResult:
    """Free-particle hitting ensemble, hits at their exact Poisson times.

    Inter-arrival times are exponential, and each hit is applied at its
    own time tau.  Each trajectory draws from its own (master_seed, index)
    stream in the same order whatever the chunk size, so the results and
    the hit log (trajectory, time, center and ||L_x psi||^2 of each hit)
    do not depend on ``CHUNK``, and a one-trajectory run is trajectory 0
    of any larger one.  The ensemble's grid kernel is
    ``states.ensemble_density`` of the final amplitudes.

    A chunk advances a window of W steps at a time.  A row is held as its
    momentum-picture spectrum chi = fft(U(-t) psi(t)), which free flight
    leaves alone.  Round i of a window takes each row whose i-th hit in it
    is due to its own tau, psi = ifft(chi kin(tau)), hits it and stores
    fft(psi) conj(kin(tau)).  A hit belongs to the first step whose
    accumulated time is >= tau.

    Leakage is checked at every step: chi's edge amplitudes at t are
    chi @ [kin(t), kin(t) exp(-2 pi i k/N)] / N, one (N, 2W) block of taps
    a window, W as large as one ``noise.TILE_BYTES`` tile allows.  Edges
    over ``DEFAULT_LEAK_TOL`` times the RMS amplitude (a lower bound on the
    peak, fixed in time) get the exact test against the peak; the first
    failing step raises ``GridLeakageError``, as a step-by-step check would.
    """
    if abs(psi0.norm_sq() - 1.0) > 1e-8:
        raise ValueError("initial state must be normalized")
    n_steps = step_count(t_end, dt)
    n = psi0.n
    lam = params.lambda_rate
    # a window's taps and each (rows, N) array of a hit round fit one tile
    tile_rows = max(1, TILE_BYTES // (16 * n))
    width = max(1, min(n_steps, tile_rows // 2))
    taps = np.empty((width, 2, n), dtype=complex)  # (step, edge, k)
    shift = np.exp(-2j * np.pi * np.arange(n) / n)  # x_{N-1} is x_0 - dx on the ring
    chi0 = np.fft.fft(psi0.amplitudes)
    # a row keeps the norm of psi0 until its first hit and unit norm after
    rms = min(np.linalg.norm(psi0.amplitudes), 1.0 / np.sqrt(psi0.dx)) / np.sqrt(n)

    def screen(spectra, first, stop):
        # leakage tests of spectra held on the steps [first, stop) of a window
        lo = int(np.min(first, initial=width))
        hi = max(lo, int(np.max(stop, initial=0)))
        edge = spectra @ taps[lo:hi].reshape(-1, n).T
        edge = np.abs(edge).reshape(len(spectra), hi - lo, 2).max(axis=2)
        steps = np.arange(lo, hi)
        over = edge > DEFAULT_LEAK_TOL * rms
        over &= (steps >= np.reshape(first, (-1, 1))) & (steps < np.reshape(stop, (-1, 1)))
        for s in lo + np.nonzero(over.any(axis=0))[0]:
            amps = split_step_batch(spectra[over[:, s - lo]], _kinetic_phase(psi0, times[s]))
            edge = np.maximum(np.abs(amps[:, 0]), np.abs(amps[:, -1]))
            peak = np.abs(amps).max(axis=1)
            leaks[s] |= np.any(edge > DEFAULT_LEAK_TOL * peak)
            worst[s] = max(worst[s], (edge / peak).max())

    final = np.empty((n_traj, n), dtype=complex)
    hit_counts = np.zeros(n_traj, dtype=int)
    events = [np.empty((0, 4))]

    for start in range(0, n_traj, CHUNK):
        idx = np.arange(start, min(start + CHUNK, n_traj))
        rngs = [trajectory_generator(master_seed, int(i)) for i in idx]
        next_hit = np.array([r.exponential(1.0 / lam) for r in rngs])
        chi, t = np.tile(chi0, (len(idx), 1)), 0.0
        for first_step in range(0, n_steps, width):
            w = min(width, n_steps - first_step)
            # accumulated one dt at a time, as a step-by-step loop's t
            times = np.add.accumulate(np.r_[t, np.full(w, dt)])[1:]
            t = times[-1]
            x0_taps = _kinetic_phase(psi0, times, taps[:w, 0])
            np.divide(x0_taps, n, out=x0_taps)
            np.multiply(x0_taps, shift, out=taps[:w, 1])
            leaks, worst = np.zeros(w, dtype=bool), np.zeros(w)
            since = np.zeros(len(idx), dtype=int)  # first step of each row's spectrum
            active = np.nonzero(next_hit <= t)[0]
            while active.size:
                for part in np.split(active, range(tile_rows, active.size, tile_rows)):
                    old = chi[part]
                    tau = next_hit[part]
                    kin = _kinetic_phase(psi0, tau)
                    amps = split_step_batch(old, kin)
                    # the spectrum the hit replaces, on the steps it was held
                    step = np.searchsorted(times, tau, "left")
                    screen(old, since[part], step)
                    since[part] = step
                    density = hitting_density(psi0, params.alpha, amps)
                    x, _ = sample_hit_center(psi0, density, [rngs[k].uniform() for k in part])
                    amps *= _gaussian_factor(psi0, x, params.alpha)
                    weight = np.sum(np.abs(amps) ** 2, axis=1) * psi0.dx
                    amps /= np.sqrt(weight)[:, None]
                    events.append(np.stack([idx[part], tau, x, weight], axis=1))
                    hit_counts[idx[part]] += 1
                    next_hit[part] += [rngs[k].exponential(1.0 / lam) for k in part]
                    # back to the picture
                    chi[part] = np.multiply(np.fft.fft(amps, axis=1), np.conj(kin, out=kin), out=kin)
                active = active[next_hit[active] <= t]
            screen(chi, since, w)
            if leaks.any():
                s = int(np.argmax(leaks))
                raise GridLeakageError(
                    f"boundary amplitude reached {worst[s]:.2e} of peak at "
                    f"t={times[s]:.4g}; enlarge the grid"
                )
        amps = final[idx[0] : idx[-1] + 1]  # to t_end a tile of rows at a time
        kin = _kinetic_phase(psi0, t)
        for r in range(0, len(idx), tile_rows):
            amps[r : r + tile_rows] = split_step_batch(chi[r : r + tile_rows], kin)
    log = np.concatenate(events)
    log = log[np.argsort(log[:, 0], kind="stable")]
    return QmslEnsembleResult(final, hit_counts, psi0, log)
