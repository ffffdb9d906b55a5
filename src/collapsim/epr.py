"""Parameter-(in)dependence experiments on a two-spin singlet.

Both spin measurements are along the same axis, modeled by reduction
couplings on the two-dimensional singlet subspace span{|+->, |-+>}:
the left coupling has sector eigenvalues (+1, -1), the right (-1, +1).
The right measurement, when switched on, completes before the left one
starts.

The nonlinear half runs ``diffusion.CHUNK`` seeds at a time.  A seed's
right-detector increments come from its stream under the ``RIGHT``
purpose, its left increments from its ``NOISE`` stream.  A chunk draws
the right block and takes the right pass, frees that block, and only
then draws the left block for the bare-singlet and detector-on left
passes, one batch of twice the chunk's rows through the same left
increments.  So a chunk holds one channel's block at a time, and a
seed's result does not depend on its chunk.

Nonlinear dynamics: conditional left-outcome probabilities given the
left-noise class (defined operationally: replay the same left-noise path
against the bare singlet and record its outcome) flip from 0 to 1/2 when
the right detector is switched on.  Linear dynamics: the cooked marginal
of the left noise record is insensitive to the right detector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffusion
from .cooking import linear_exact_commuting
from .diffusion import CslStepper, StepWorkspace
from .errors import StatisticalPreconditionError, require_memory
from .noise import RIGHT, wiener_increment_block
from .operators import ProjectorFamily

MIN_CONDITIONING_SAMPLES = 500

_LEFT, _RIGHT = ProjectorFamily.two_level(), ProjectorFamily.two_level(-1.0, 1.0)

_SINGLET = np.array([1.0, -1.0]) / np.sqrt(2.0)


def _evolve_batch(psis: np.ndarray, stepper: CslStepper, blocks: np.ndarray) -> np.ndarray:
    """Step a (n, d) batch along per-seed noise blocks (steps, m, 1), m
    dividing n: row i takes the increments of seed i % m."""
    ws = StepWorkspace(stepper, psis)
    rows = np.empty((psis.shape[0] // blocks.shape[1], *blocks.shape[1:]))  # (n / m, m, 1)
    for db in blocks:
        np.copyto(rows, db)
        stepper.step_batch(rows.reshape(-1, 1), ws)
    return ws.rows


@dataclass(frozen=True)
class NonlinearEprResult:
    p_minus_detector_off: float
    p_minus_detector_on: float
    class_frequency: float
    n_conditioning: int


def nonlinear_steppers(gamma: float, t_end: float, steps: int) -> list[CslStepper]:
    """The left and right nonlinear Ito steppers of ``steps`` steps to ``t_end``."""
    return [CslStepper(f, gamma, t_end / steps) for f in (_LEFT, _RIGHT)]


def require_epr_fits(n_seeds: int, steps: int) -> None:
    """Raise ValueError when the run would not fit: one chunk's one-channel
    noise block and step buffers (2m rows at once), and what grows with
    ``n_seeds``, each seed's outcomes and the linear half's (1, n, 2) block
    and weights."""
    m = min(diffusion.CHUNK, n_seeds)
    require_memory(8 * steps * m + 512 * m + 256 * n_seeds, "the epr noise chunk and seeds")


def epr_nonlinear_experiment(
    n_seeds: int,
    gamma: float,
    t_end: float,
    master_seed: int,
    steps: int,
) -> NonlinearEprResult:
    """Conditional probability of left outcome -1 given the left-noise
    class that yields +1 on the bare singlet.

    With the right detector off the conditional probability is 0 by
    construction of the class; with it on, the right measurement collapses
    the singlet first and forces the left outcome to the opposite value,
    making the conditional probability 1/2 (the right-outcome frequency),
    independent of the left-noise class.
    """
    stepper_l, stepper_r = nonlinear_steppers(gamma, t_end, steps)
    # whether each seed's left outcome is +1 on the bare singlet, and with the detector on
    plus = np.empty((2, n_seeds), dtype=bool)
    for lo in range(0, n_seeds, diffusion.CHUNK):
        seeds = np.arange(lo, min(lo + diffusion.CHUNK, n_seeds))
        plus[:, lo : lo + seeds.size] = _left_plus(master_seed, seeds, steps, stepper_l, stepper_r)
    in_class = plus[0]  # w~_L: left outcome +1 on the bare singlet
    n_class = int(in_class.sum())
    if n_class < MIN_CONDITIONING_SAMPLES:
        raise StatisticalPreconditionError(
            f"only {n_class} conditioning samples (< {MIN_CONDITIONING_SAMPLES})"
        )
    return NonlinearEprResult(
        # detector off: stage 1 leaves the singlet untouched, so the left
        # outcome in the class is +1 by construction
        p_minus_detector_off=0.0,
        p_minus_detector_on=float(np.mean(~plus[1][in_class])),
        class_frequency=n_class / n_seeds,
        n_conditioning=n_class,
    )


def _left_plus(
    master_seed: int, seeds: np.ndarray, steps: int, stepper_l: CslStepper, stepper_r: CslStepper
) -> np.ndarray:
    """Whether the left outcome of each of ``seeds`` is +1 on the bare
    singlet (row 0) and with the right detector on (row 1): the right
    block is freed before the left one is drawn."""
    gamma, dt = stepper_l.gamma, stepper_l.dt
    singlets = np.tile(_SINGLET, (seeds.size, 1))
    # detector on: the right measurement collapses the singlet first
    after_right = _evolve_batch(
        singlets, stepper_r, wiener_increment_block(master_seed, seeds, steps, 1, gamma, dt, RIGHT)
    )
    # the bare singlet replays the same left noise in one batch
    left = wiener_increment_block(master_seed, seeds, steps, 1, gamma, dt)
    both = _evolve_batch(np.concatenate((singlets, after_right)), stepper_l, left)
    return (np.argmax(_LEFT.sector_weights(both), axis=1) == 0).reshape(2, -1)


@dataclass(frozen=True)
class LinearEprResult:
    ks_distance: float
    ks_critical_5pct: float
    n_effective_on: float
    n_effective_off: float


def _weighted_ks(
    x1: np.ndarray, w1: np.ndarray, x2: np.ndarray, w2: np.ndarray
) -> tuple[float, float, float, float]:
    order1 = np.argsort(x1)
    order2 = np.argsort(x2)
    x1, w1 = x1[order1], w1[order1] / w1.sum()
    x2, w2 = x2[order2], w2[order2] / w2.sum()
    grid = np.concatenate([x1, x2])
    grid.sort()
    # each weighted CDF at the grid: its zero-prefixed cumsum at the count of x <= grid
    cdf1 = np.r_[0.0, np.cumsum(w1)][np.searchsorted(x1, grid, "right")]
    cdf2 = np.r_[0.0, np.cumsum(w2)][np.searchsorted(x2, grid, "right")]
    dist = float(np.max(np.abs(cdf1 - cdf2)))
    n1 = float(1.0 / np.sum(w1**2))
    n2 = float(1.0 / np.sum(w2**2))
    crit = 1.358 * np.sqrt((n1 + n2) / (n1 * n2))
    return dist, crit, n1, n2


def epr_linear_experiment(
    n_seeds: int,
    gamma: float,
    t_end: float,
    master_seed: int,
) -> LinearEprResult:
    """Compare the cooked marginal of the left Brownian record with the
    right detector on vs off (linear dynamics, exact commuting solution).

    Returns the weighted two-sample K-S distance and its 5% critical
    value; for gamma*t large the marginals coincide.
    """
    if n_seeds < MIN_CONDITIONING_SAMPLES:
        raise StatisticalPreconditionError("too few seeds for the marginal")
    # the Brownian records B_L, B_R at t_end: one step of length t_end
    block = wiener_increment_block(master_seed, np.arange(n_seeds), 1, 2, gamma, t_end)
    b_l, b_r = block[0, :, 0], block[0, :, 1]
    # detector on: weight = ||exp(F_L) exp(F_R) singlet||^2, the two exact
    # factors composing into a joint log-weight
    psi, lw_r = linear_exact_commuting(_SINGLET, _RIGHT, b_r[:, None], gamma, t_end)
    _, lw_l = linear_exact_commuting(psi, _LEFT, b_l[:, None], gamma, t_end)
    logw_on = lw_r + lw_l
    _, logw_off = linear_exact_commuting(_SINGLET, _LEFT, b_l[:, None], gamma, t_end)
    w_on = np.exp(logw_on - logw_on.max())
    w_off = np.exp(logw_off - logw_off.max())
    dist, crit, n_on, n_off = _weighted_ks(b_l, w_on, b_l, w_off)
    return LinearEprResult(dist, crit, n_on, n_off)
