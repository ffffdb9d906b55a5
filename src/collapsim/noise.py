"""Seeded noise generation: white Wiener increments on a fixed step grid.

Randomness is counter-based: every trajectory derives its own stream from
a Philox generator keyed by (master seed, trajectory index), so ensembles
are reproducible bit-for-bit and order-independent under parallel
execution.  Drawn in consecutive calls, a stream gives the normals of
one call, so a run reads it a window at a time (``LiveStreams``).  A
resampled run couples its rows, so it draws each window whole from the
stream keyed by (master seed, window).  A stream's counter is [0, 0, 0,
purpose]: the purpose (noise, resampling, windows) keeps streams of one
key disjoint (Salmon et al., SC'11)."""

from __future__ import annotations

import os
import sys

import numpy as np
import numpy.random  # lazy in numpy: loaded here, it comes with a config that uses noise


NOISE, RESAMPLE, WINDOWS = 0, 1, 2
"""Stream purposes: trajectory noise, resampling draws, resampled windows."""

TILE_BYTES = 1 << 20
"""Size of the contiguous tile ``wiener_increment_block`` draws streams into."""


def trajectory_generator(master_seed: int, index: int = 0,
                         purpose: int = NOISE) -> np.random.Generator:
    """Independent stream keyed by (master seed, index), with ``purpose``
    in the fourth word of the Philox counter."""
    counter = np.array([0, 0, 0, purpose], dtype=np.uint64)
    key = np.array([master_seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def _rekeyed(master_seed: int, traj_indices, rngs: list | None = None):
    """The ``standard_normal`` of each of ``rngs`` (or of one generator),
    reset as it is reached to stream (master_seed, traj_indices[j], NOISE)."""
    one = trajectory_generator(master_seed)
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
    a pool of ``rows`` generators, whose freed ones ``refill`` starts on new
    trajectories' NOISE streams, and the (window, rows, channels) buffer they
    are read into."""

    def __init__(self, rows: int, window: int, channels: int) -> None:
        self.free = [np.random.Generator(np.random.Philox(_Unkeyed())) for _ in range(rows)]
        self.buffer = np.empty((window, rows, channels))

    def refill(self, master_seed: int, kept, traj_indices: np.ndarray) -> None:
        """Keep the streams at positions ``kept``, in order, free the other
        streams' generators, and re-key freed ones to start the streams of
        ``traj_indices`` after the kept ones."""
        gone = np.ones(len(self), dtype=bool)
        gone[kept] = False
        self.free += [self[j].__self__ for j in np.flatnonzero(gone).tolist()]
        rngs, self.free = self.free[: len(traj_indices)], self.free[len(traj_indices):]
        self[:] = [self[j] for j in np.asarray(kept, dtype=int).tolist()] + list(
            _rekeyed(master_seed, traj_indices, rngs))


class WindowStream:
    """The ``rows`` rows of window ``window`` of a resampled run: one
    stream, (master seed, window) under WINDOWS, drawn whole."""

    def __init__(self, rows: int, window: int) -> None:
        self.rows, self.window = rows, window

    def __len__(self) -> int:
        return self.rows


def wiener_increment_block(
    master_seed: int,
    traj_indices: np.ndarray | LiveStreams | WindowStream,
    steps: int,
    channels: int,
    gamma: float,
    dt: float,
) -> np.ndarray:
    """Increments for a batch of trajectories, shape (steps, n, channels).

    Row j is the stream ``trajectory_generator(master_seed, traj_indices[j])``,
    drawn by one Philox generator reset to each stream in turn; given
    ``LiveStreams``, it is their row j read on for ``steps`` steps, in a
    view of their buffer; either way rows go through a contiguous tile of
    about ``TILE_BYTES``.  Given a ``WindowStream``, the block is one draw of its stream.
    """
    scale = np.sqrt(gamma * dt)
    if isinstance(traj_indices, WindowStream):
        rng = trajectory_generator(master_seed, traj_indices.window, WINDOWS)
        return rng.normal(0.0, scale, (steps, len(traj_indices), channels))
    n, live = len(traj_indices), isinstance(traj_indices, LiveStreams)
    out = traj_indices.buffer[:steps, :n] if live else np.empty((steps, n, channels))
    draws = iter(traj_indices) if live else _rekeyed(master_seed, traj_indices)
    width = int(np.clip(TILE_BYTES // max(steps * channels * 8, 1), 1, max(n, 1)))
    # tile rows an odd number of 64-byte lines apart: 4 KiB apart, the
    # transposed copy below takes twice as long
    flat = np.zeros((width, 8 * ((steps * channels + 7) // 8 | 1)))
    tile = flat[:, : steps * channels].reshape(width, steps, channels)
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
