"""Parameter-(in)dependence experiments on a two-spin singlet.

Both spin measurements are along the same axis, modeled by reduction
couplings on the two-dimensional singlet subspace span{|+->, |-+>}:
the left coupling has sector eigenvalues (+1, -1), the right (-1, +1).
The right measurement, when switched on, completes before the left one
starts.

The couplings commute and there is no H, so the state after the right
measurement and each linear-half record are draws from the exact cooked
law (``cooking.sample_cooked_commuting``); the left pass replays one raw
noise path against two states, so it is stepped.  The nonlinear half
runs ``diffusion.CHUNK`` seeds at a time: a seed's right-detector draw
comes from its stream under the ``RIGHT`` purpose, its left increments
(one batch of twice the chunk's rows, the bare singlet and the detector
on) from its ``NOISE`` stream, so a seed's result does not depend on its
chunk.

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
from .cooking import sample_cooked_commuting
from .diffusion import CslStepper, StepWorkspace
from .errors import StatisticalPreconditionError, require_memory
from .noise import RIGHT, wiener_increment_block
from .operators import ProjectorFamily

MIN_CONDITIONING_SAMPLES = 500

_LEFT, _RIGHT = ProjectorFamily.two_level(), ProjectorFamily.two_level(-1.0, 1.0)
_BOTH = ProjectorFamily(np.hstack((_LEFT.eigenvalues, _RIGHT.eigenvalues)), _LEFT.sectors)
"""The detector-on couplings as one family of two channels, (L, R)."""

_SINGLET = np.array([1.0, -1.0]) / np.sqrt(2.0)


@dataclass(frozen=True)
class NonlinearEprResult:
    p_minus_detector_off: float
    p_minus_detector_on: float
    class_frequency: float
    n_conditioning: int


def left_stepper(gamma: float, t_end: float, steps: int) -> CslStepper:
    """The left detector's nonlinear Ito stepper of ``steps`` steps to ``t_end``."""
    return CslStepper(_LEFT, gamma, t_end / steps)


def require_epr_fits(n_seeds: int, steps: int) -> None:
    """Raise ValueError when the run would not fit: one chunk's left noise
    block (steps, m, 1) and, per seed of the chunk, its right draw and step
    buffers (2m rows at once), and what grows with ``n_seeds``, each seed's
    outcomes and the linear half's (1, n, 5) block, records and states."""
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
    stepper = left_stepper(gamma, t_end, steps)
    # whether each seed's left outcome is +1 on the bare singlet, and with the detector on
    plus = np.empty((2, n_seeds), dtype=bool)
    for lo in range(0, n_seeds, diffusion.CHUNK):
        seeds = np.arange(lo, min(lo + diffusion.CHUNK, n_seeds))
        plus[:, lo : lo + seeds.size] = _left_plus(master_seed, seeds, t_end, steps, stepper)
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
    master_seed: int, seeds: np.ndarray, t_end: float, steps: int, stepper: CslStepper
) -> np.ndarray:
    """Whether the left outcome of each of ``seeds`` is +1 on the bare
    singlet (row 0) and with the right detector on (row 1)."""
    # detector on: the right measurement collapses the singlet first
    right = wiener_increment_block(master_seed, seeds, 1, 2, 1.0, 1.0, RIGHT)[0]
    after_right, _ = sample_cooked_commuting(_SINGLET, _RIGHT, stepper.gamma, t_end, right)
    # the bare singlet replays the same left noise in one batch: row i of
    # each half takes the increments of seed i
    ws = StepWorkspace(stepper, np.concatenate((np.tile(_SINGLET, (seeds.size, 1)), after_right)))
    rows = np.empty((2, seeds.size, 1))
    for db in wiener_increment_block(master_seed, seeds, steps, 1, stepper.gamma, stepper.dt):
        np.copyto(rows, db)
        stepper.step_batch(rows.reshape(-1, 1), ws)
    return (np.argmax(_LEFT.sector_weights(ws.rows), axis=1) == 0).reshape(2, -1)


@dataclass(frozen=True)
class LinearEprResult:
    ks_distance: float
    ks_critical_5pct: float


def epr_linear_experiment(
    n_seeds: int,
    gamma: float,
    t_end: float,
    master_seed: int,
) -> LinearEprResult:
    """Compare the cooked marginal of the left Brownian record with the
    right detector on vs off (linear dynamics, exact commuting law).

    Each seed draws its records from the cooked law: (B_L, B_R) jointly
    with the detector on, B_L alone with it off.  Returns the two-sample
    K-S distance of the two B_L samples and its 5% critical value (n each);
    the marginals coincide.
    """
    if n_seeds < MIN_CONDITIONING_SAMPLES:
        raise StatisticalPreconditionError("too few seeds for the marginal")
    # per seed: a sector normal and two record normals with the detector
    # on, then a sector normal and one record normal with it off
    normals = wiener_increment_block(master_seed, np.arange(n_seeds), 1, 5, 1.0, 1.0)[0]
    _, on = sample_cooked_commuting(_SINGLET, _BOTH, gamma, t_end, normals[:, :3])
    _, off = sample_cooked_commuting(_SINGLET, _LEFT, gamma, t_end, normals[:, 3:])
    b_on, b_off = np.sort(on[:, 0]), np.sort(off[:, 0])
    grid = np.concatenate([b_on, b_off])
    # n times each empirical CDF at the grid: the count of records <= grid
    gap = np.searchsorted(b_on, grid, "right") - np.searchsorted(b_off, grid, "right")
    return LinearEprResult(float(np.max(np.abs(gap)) / n_seeds), 1.358 * (2.0 / n_seeds) ** 0.5)
