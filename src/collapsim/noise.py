"""Seeded noise generation: white Wiener increments on a fixed step grid.

Randomness is counter-based: every trajectory derives its own stream from
a Philox generator keyed by (master seed, trajectory index), so ensembles
are reproducible bit-for-bit and order-independent under parallel
execution.  A window of steps drawn on its own has its number in the third
word of the Philox counter (window 0 is the whole stream) and a purpose
(noise, resampling) in the fourth, so no two such streams overlap
(Salmon et al., SC'11).
"""

from __future__ import annotations

import os
import sys

import numpy as np
import numpy.random  # lazy in numpy; every run here draws from it, so load it at import


NOISE, RESAMPLE = 0, 1
"""Stream purposes: trajectory noise, and the draws of the resamplers."""

TILE_BYTES = 1 << 20
"""Size of the contiguous tile ``wiener_increment_block`` draws streams into."""


def trajectory_generator(
    master_seed: int, traj_index: int = 0, purpose: int = NOISE, window: int = 0
) -> np.random.Generator:
    """Independent stream keyed by (master seed, index), with ``window`` and
    ``purpose`` in the third and fourth words of the Philox counter."""
    counter = np.array([0, 0, window, purpose], dtype=np.uint64)
    key = np.array([master_seed, traj_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def wiener_increment_block(
    master_seed: int,
    traj_indices: np.ndarray,
    steps: int,
    channels: int,
    gamma: float,
    dt: float,
    window: int = 0,
) -> np.ndarray:
    """Increments for a batch of trajectories, shape (steps, n, channels).

    Row j is the stream ``trajectory_generator(master_seed,
    traj_indices[j], NOISE, window)``.  One Philox generator is reset to
    each stream in turn and draws it into a contiguous tile of about
    ``TILE_BYTES``, which is copied into the block.
    """
    n = len(traj_indices)
    out = np.empty((steps, n, channels), dtype=float)
    width = int(np.clip(TILE_BYTES // max(steps * channels * 8, 1), 1, max(n, 1)))
    tile = np.empty((width, steps, channels))
    scale = np.sqrt(gamma * dt)
    rng = trajectory_generator(master_seed, 0, NOISE, window)
    bits, draw = rng.bit_generator, rng.standard_normal
    # a fresh stream's state, re-keyed below; lists set faster than arrays
    fresh = bits.state
    start = {**fresh, "buffer": fresh["buffer"].tolist(),
             "state": {k: v.tolist() for k, v in fresh["state"].items()}}
    key = start["state"]["key"]
    streams = iter(traj_indices)
    for lo in range(0, n, width):
        part = tile[: min(width, n - lo)]
        for row in part:
            key[1] = int(next(streams))
            bits.state = start
            draw(out=row)
        # normal(0.0, scale) returns 0.0 + scale * z: the same bits
        np.multiply(part, scale, out=part)
        part += 0.0
        out[:, lo : lo + len(part)] = part.transpose(1, 0, 2)
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
