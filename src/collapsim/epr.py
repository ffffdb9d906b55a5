"""Parameter-(in)dependence experiments on a two-spin singlet.

Both spin measurements are along the same axis, modeled by reduction
couplings on the two-dimensional singlet subspace span{|+->, |-+>}:
the left coupling has sector eigenvalues (+1, -1), the right (-1, +1).
The right measurement, when switched on, completes before the left one
starts.

Nonlinear dynamics: conditional left-outcome probabilities given the
left-noise class (defined operationally: replay the same left-noise path
against the bare singlet and record its outcome) flip from 0 to 1/2 when
the right detector is switched on.  Linear dynamics: the cooked marginal
of the left noise record is insensitive to the right detector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cooking import linear_exact_commuting
from .diffusion import CslStepper, StepWorkspace
from .errors import StatisticalPreconditionError
from .noise import wiener_increment_block
from .operators import ProjectorFamily

MIN_CONDITIONING_SAMPLES = 500

_LEFT = ProjectorFamily(np.array([[1.0], [-1.0]]), (np.array([0]), np.array([1])))
_RIGHT = ProjectorFamily(np.array([[-1.0], [1.0]]), (np.array([0]), np.array([1])))

_SINGLET = np.array([1.0, -1.0]) / np.sqrt(2.0)


def _evolve_batch(psis: np.ndarray, stepper: CslStepper, blocks: np.ndarray) -> np.ndarray:
    """Step a (n, d) batch along per-seed noise blocks (steps, n, 1)."""
    ws = StepWorkspace(stepper, psis)
    for k in range(blocks.shape[0]):
        psis = stepper.step_batch(psis, blocks[k], ws)
    return psis


@dataclass(frozen=True)
class NonlinearEprResult:
    p_minus_detector_off: float
    p_minus_detector_on: float
    class_frequency: float
    n_conditioning: int


def nonlinear_steppers(gamma: float, t_end: float, steps: int) -> list[CslStepper]:
    """The left and right nonlinear Ito steppers of ``steps`` steps to ``t_end``."""
    return [CslStepper(f, gamma, t_end / steps) for f in (_LEFT, _RIGHT)]


def epr_nonlinear_experiment(
    n_seeds: int,
    gamma: float,
    t_end: float,
    master_seed: int,
    steps: int = 400,
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
    block = wiener_increment_block(
        master_seed, np.arange(n_seeds), steps, 2, gamma, stepper_l.dt
    )
    db_left, db_right = block[..., :1], block[..., 1:]  # channel 0 left, 1 right
    singlets = np.tile(_SINGLET, (n_seeds, 1))
    # class membership: replay each left-noise path against the bare singlet
    bare = _LEFT.sector_weights(_evolve_batch(singlets, stepper_l, db_left))
    in_class = np.argmax(bare, axis=1) == 0  # w~_L: left outcome +1 on the bare singlet
    n_class = int(in_class.sum())
    if n_class < MIN_CONDITIONING_SAMPLES:
        raise StatisticalPreconditionError(
            f"only {n_class} conditioning samples (< {MIN_CONDITIONING_SAMPLES})"
        )
    # detector on: the right measurement collapses the singlet first
    after_right = _evolve_batch(singlets, stepper_r, db_right)
    on = _LEFT.sector_weights(_evolve_batch(after_right, stepper_l, db_left))
    return NonlinearEprResult(
        # detector off: stage 1 leaves the singlet untouched, so the left
        # outcome in the class is +1 by construction
        p_minus_detector_off=0.0,
        p_minus_detector_on=float(np.mean(np.argmax(on, axis=1)[in_class] != 0)),
        class_frequency=n_class / n_seeds,
        n_conditioning=n_class,
    )


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
    cdf1 = np.cumsum(w1)[np.clip(np.searchsorted(x1, grid, "right") - 1, 0, None)]
    cdf2 = np.cumsum(w2)[np.clip(np.searchsorted(x2, grid, "right") - 1, 0, None)]
    cdf1[np.searchsorted(x1, grid, "right") == 0] = 0.0
    cdf2[np.searchsorted(x2, grid, "right") == 0] = 0.0
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
