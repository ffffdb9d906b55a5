"""Seeded noise generation: white Wiener increments on a fixed step grid.

Randomness is counter-based: every trajectory derives its own stream from
a Philox generator keyed by (master seed, trajectory index), so ensembles
are reproducible bit-for-bit and order-independent under parallel
execution.  Each random-number purpose has its own stream namespace: the
purpose sits in the high word of the Philox counter, so streams of
different purposes never overlap (Salmon et al., SC'11).
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

import numpy as np
import numpy.random  # lazy in numpy; every run here draws from it, so load it at import


NOISE, RESAMPLE = 0, 1
"""Stream purposes: trajectory noise, and the draws of ``cooked_resample``."""

TILE_BYTES = 1 << 20
"""Size of the contiguous tile ``wiener_increment_block`` draws streams into."""


def trajectory_generator(
    master_seed: int, traj_index: int = 0, purpose: int = NOISE
) -> np.random.Generator:
    """Independent stream keyed by (master seed, index) in the namespace of
    ``purpose`` (the high word of the Philox counter)."""
    counter = np.array([0, 0, 0, purpose], dtype=np.uint64)
    key = np.array([master_seed, traj_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


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
    identical to the single-path sampler.  One Philox generator is reset
    to each stream in turn.
    """
    out = np.empty((steps, len(traj_indices), channels), dtype=float)
    return fill_block(out, _reset_streams(master_seed, traj_indices), np.sqrt(gamma * dt))


def _reset_streams(master_seed: int, traj_indices: np.ndarray):
    """One generator, reset to the start of each trajectory's noise stream
    in turn."""
    rng = trajectory_generator(master_seed)
    start = rng.bit_generator.state  # a fresh stream's state, re-keyed below
    key = start["state"]["key"]
    for idx in traj_indices:
        key[1] = idx
        rng.bit_generator.state = start
        yield rng


def fill_block(out: np.ndarray, rngs, scale: float) -> np.ndarray:
    """Fill the (steps, n, channels) block ``out`` with Gaussian(0, scale)
    increments, column j drawn next from the j-th generator of ``rngs``.

    Each column is drawn into a contiguous tile of about ``TILE_BYTES``,
    which is copied into the block.
    """
    steps, n, channels = out.shape
    width = int(np.clip(TILE_BYTES // max(steps * channels * 8, 1), 1, max(n, 1)))
    tile = np.empty((width, steps, channels))
    rngs = iter(rngs)
    for lo in range(0, n, width):
        hi = min(lo + width, n)
        for t in range(hi - lo):
            tile[t] = next(rngs).normal(0.0, scale, size=(steps, channels))
        out[:, lo:hi] = tile[: hi - lo].transpose(1, 0, 2)
    return out


def require_memory(nbytes: int, what: str) -> None:
    """Raise ValueError when ``nbytes`` exceed this machine's physical memory."""
    try:
        limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        limit = sys.maxsize
    if nbytes > limit:
        gib = nbytes / 2**30 if nbytes < 1e300 else np.inf
        raise ValueError(
            f"{what} need {gib:.3g} GiB, more than the {limit / 2**30:.3g} GiB "
            "of memory here"
        )
