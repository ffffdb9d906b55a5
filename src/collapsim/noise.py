"""Seeded noise generation: white Wiener increments on a fixed step grid.

Randomness is counter-based: every trajectory derives its own stream from
a Philox generator keyed by (master seed, trajectory index), so ensembles
are reproducible bit-for-bit and order-independent under parallel
execution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def trajectory_generator(master_seed: int, traj_index: int = 0) -> np.random.Generator:
    """Independent per-trajectory stream keyed by (master seed, index)."""
    key = np.array([master_seed, traj_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class NoisePath:
    """One discretized noise realization.

    ``increments`` has shape (steps, channels) and integrates the driving
    process: for white noise these are Wiener increments dB with variance
    gamma*dt per channel; for colored noise they are w(t_k)*dt for the
    sampled process values.  Reconstruction from (seed, traj_index, dt,
    steps) is bit-identical.
    """

    seed: int
    traj_index: int
    dt: float
    gamma: float
    increments: np.ndarray
    kind: str = "white"

    def __post_init__(self) -> None:
        inc = np.atleast_2d(np.asarray(self.increments, dtype=float))
        object.__setattr__(self, "increments", inc)
        if not (self.dt > 0.0 and self.gamma > 0.0):
            raise ValueError("dt and gamma must be strictly positive")

    @property
    def steps(self) -> int:
        return self.increments.shape[0]

    @property
    def channels(self) -> int:
        return self.increments.shape[1]


def sample_wiener(
    master_seed: int,
    steps: int,
    channels: int,
    gamma: float,
    dt: float,
    traj_index: int = 0,
) -> NoisePath:
    """White Wiener increments, i.i.d. Gaussian(0, gamma*dt) per channel."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rng = trajectory_generator(master_seed, traj_index)
    inc = rng.normal(0.0, np.sqrt(gamma * dt), size=(steps, channels))
    return NoisePath(master_seed, traj_index, dt, gamma, inc, kind="white")


def wiener_increment_block(
    master_seed: int,
    traj_indices: np.ndarray,
    steps: int,
    channels: int,
    gamma: float,
    dt: float,
) -> np.ndarray:
    """Increments for a batch of trajectories, shape (steps, n, channels).

    Row j comes from the stream keyed by (master_seed, traj_indices[j]),
    identical to the single-path sampler.
    """
    scale = np.sqrt(gamma * dt)
    out = np.empty((steps, len(traj_indices), channels), dtype=float)
    for j, idx in enumerate(traj_indices):
        rng = trajectory_generator(master_seed, int(idx))
        out[:, j, :] = rng.normal(0.0, scale, size=(steps, channels))
    return out
