"""Seeded noise generation: white Wiener increments on a fixed step grid.

Randomness is counter-based: every trajectory derives its own stream from
a Philox generator keyed by (master seed, trajectory index), so ensembles
are reproducible bit-for-bit and order-independent under parallel
execution.  Drawn in consecutive calls, a stream gives the normals of
one call, so a run reads it a window at a time (``LiveStreams``).  A
window drawn on its own has its number in the third word of the Philox
counter (window 0 is the whole stream) and a purpose (noise, resampling)
in the fourth, so no two such streams overlap (Salmon et al., SC'11).
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


def _rekeyed(master_seed: int, traj_indices, window: int = 0, rngs: list | None = None):
    """The ``standard_normal`` of each of ``rngs`` (or of one generator),
    reset as it is reached to stream (master_seed, traj_indices[j], NOISE, window)."""
    one = trajectory_generator(master_seed, 0, NOISE, window)
    # a fresh stream's state, re-keyed below; lists set faster than arrays
    fresh = one.bit_generator.state
    start = {**fresh, "buffer": fresh["buffer"].tolist(),
             "state": {k: v.tolist() for k, v in fresh["state"].items()}}
    key = start["state"]["key"]
    indices = np.asarray(traj_indices).tolist()  # ints, once: cheaper than per row
    for rng, index in zip(rngs or [one] * len(indices), indices):
        key[1] = index
        rng.bit_generator.state = start
        yield rng.standard_normal


class _Unkeyed(np.random.bit_generator.ISeedSequence):
    """Zero key words, for generators whose states are set before they draw:
    half the cost of a SeedSequence, and no urandom read."""

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return np.zeros(n_words, dtype)


class LiveStreams(list):
    """The ``standard_normal`` of each stream a run reads a window at a time:
    a pool of ``rows`` generators, set by ``start`` to each chunk's NOISE
    streams, and the (window, rows, channels) buffer they are read into."""

    def __init__(self, rows: int, window: int, channels: int) -> None:
        self.pool = [np.random.Generator(np.random.Philox(_Unkeyed())) for _ in range(rows)]
        self.buffer = np.empty((window, rows, channels))

    def start(self, master_seed: int, traj_indices: np.ndarray) -> None:
        """Start the first len(traj_indices) streams as those trajectories'."""
        self[:] = _rekeyed(master_seed, traj_indices, 0, self.pool)


def wiener_increment_block(
    master_seed: int,
    traj_indices: np.ndarray | LiveStreams,
    steps: int,
    channels: int,
    gamma: float,
    dt: float,
    window: int = 0,
) -> np.ndarray:
    """Increments for a batch of trajectories, shape (steps, n, channels).

    Row j is the stream ``trajectory_generator(master_seed,
    traj_indices[j], NOISE, window)``, drawn by one Philox generator reset
    to each stream in turn; given ``LiveStreams``, it is their row j read
    on for ``steps`` steps, in a view of their buffer.  Rows are drawn into
    a contiguous tile of about ``TILE_BYTES``, copied into the block.
    """
    n, live = len(traj_indices), isinstance(traj_indices, LiveStreams)
    out = traj_indices.buffer[:steps, :n] if live else np.empty((steps, n, channels))
    draws = iter(traj_indices) if live else _rekeyed(master_seed, traj_indices, window)
    width = int(np.clip(TILE_BYTES // max(steps * channels * 8, 1), 1, max(n, 1)))
    # tile rows an odd number of 64-byte lines apart: 4 KiB apart, the
    # transposed copy below takes twice as long
    flat = np.zeros((width, 8 * ((steps * channels + 7) // 8 | 1)))
    tile = flat[:, : steps * channels].reshape(width, steps, channels)
    scale = np.sqrt(gamma * dt)
    for lo in range(0, n, width):
        part, padded = tile[: min(width, n - lo)], flat[: min(width, n - lo)]
        for row in part:
            next(draws)(out=row)
        # normal(0.0, scale) returns 0.0 + scale * z: the same bits (the
        # padding too, so that the operands are contiguous)
        np.multiply(padded, scale, out=padded)
        padded += 0.0
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
