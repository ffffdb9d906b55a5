"""Cooked-probability bookkeeping: reweighting, resampling, the exact update.

The physical ("cooked") probability of a noise realization is its raw
probability times the final squared norm of the linearly evolved state;
trajectory weights are therefore tracked as log||psi||^2 and turned into
equal-weight ensembles by systematic (comb) resampling.  For commuting
couplings and no H the cooked law of the record is known in closed form,
so ``sample_cooked_commuting`` draws from it directly.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import DimensionMismatchError
from .noise import RESAMPLE, trajectory_generator
from .operators import ProjectorFamily

CULL_NATS = 40.0
"""Trajectories whose log-weight trails the maximum by more than this may
be dropped during resampling (their selection probability is < 4e-18);
they are never dropped silently elsewhere."""


def systematic_resample(
    log_weights: np.ndarray,
    master_seed: int,
    step: int,
    cull_nats: float = CULL_NATS,
) -> np.ndarray:
    """Low-variance comb resample: one uniform offset, equally spaced
    selection points.  Unbiased like the multinomial rule but with far
    smaller resampling noise; used by the sequential cooked runner.  The
    offset comes from stream ``step`` (the step resampled at) of ``RESAMPLE``.
    """
    logw = np.asarray(log_weights, dtype=float)
    top = np.max(logw)
    w = np.exp(logw - top)
    w[logw < top - cull_nats] = 0.0
    total = w.sum()
    if not total > 0:  # also NaN, when every weight is zero
        raise ValueError("all-zero weights")
    n = logw.size
    rng = trajectory_generator(master_seed, step, RESAMPLE)
    points = (rng.uniform() + np.arange(n)) / n
    return np.searchsorted(np.cumsum(w / total), points, side="right").clip(0, n - 1)


def linear_exact_commuting(
    psi0: np.ndarray,
    family: ProjectorFamily,
    x: np.ndarray,
    gamma: float,
    f: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact solution of the linear equation for commuting couplings, H
    disregarded: the one implementation of the sector-exponential update.

    Each sector amplitude is multiplied by exp(a_sigma . x - gamma
    |a_sigma|^2 f), where ``x`` is the integrated noise and ``f`` the
    kernel's double time integral (f(T) = T for white noise, where the raw
    average of the squared norm over Wiener paths is exactly one).

    ``x`` has shape (channels,) or (n, channels); ``psi0`` has shape (d,)
    or one state per row.  Returns (normalized states (..., d), real if
    ``psi0`` is, log||psi||^2 (...)).  The exponents are shifted by their
    per-row maximum before exponentiating, so the weight stays finite when
    every factor would underflow.  The column-wise maximum and the scaling
    by 1/||psi|| (as complex division by a real scales) keep the bits of a
    row maximum and that division in half the time on short rows.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (family.channel_count,):
        raise DimensionMismatchError("one noise value per channel required")
    table = family.basis_eigenvalues()  # (channels, d)
    log_gain = x @ table - gamma * f * np.sum(table**2, axis=0)
    shift = reduce(np.maximum, np.moveaxis(log_gain, -1, 0))[..., None]
    states = np.asarray(psi0) * np.exp(log_gain - shift)
    norm_sq = np.sum(np.abs(states) ** 2, axis=-1)
    return states * (1.0 / np.sqrt(norm_sq))[..., None], np.log(norm_sq) + 2.0 * shift[..., 0]


def sample_cooked_commuting(
    psi0: np.ndarray, family: ProjectorFamily, gamma: float, t: float, normals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Draws from the cooked law at time ``t`` of commuting couplings, H
    disregarded (Pearle, PRA 39, 2277, 1989): sector sigma with probability
    z_sigma of the state ``psi0`` (d,), then the record B_T ~ N(2 gamma
    a_sigma t, gamma t) in each channel.  Row i of ``normals`` (n, 1 +
    channels) is one draw: column 0 picks the sector whose interval between
    the thresholds Phi^-1(cumulative z) holds it, the other columns are the
    record's standard normals.  Returns (the normalized states (n, d)
    ``linear_exact_commuting`` takes ``psi0`` to, the records (n, channels)).
    """
    z = family.sector_weights(psi0)
    thresholds = [_normal_quantile(p) for p in (np.cumsum(z) / z.sum())[:-1].tolist()]
    sector = np.searchsorted(thresholds, normals[:, 0], side="right")
    records = 2.0 * gamma * t * family.eigenvalues[sector] + np.sqrt(gamma * t) * normals[:, 1:]
    return linear_exact_commuting(psi0, family, records, gamma, t)[0], records


def _normal_quantile(p: float) -> float:
    """Phi^-1(p), by bisection on ``math.erfc`` (loaded with numpy, so
    imported here at no cost) to 80 / 2^100; +-inf outside (0, 1)."""
    from math import erfc, inf

    if not 0.0 < p < 1.0:
        return inf if p >= 1.0 else -inf
    lo, hi = -40.0, 40.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if 0.5 * erfc(-mid / 2**0.5) < p else (lo, mid)
    return hi
