"""Average mass-density profiles and accessibility.

The mass in a cell is "accessible" (behaves classically) when the ratio
R = sqrt(variance)/mean is small; superpositions of macroscopically
different configurations have R ~ 1 until the reducing dynamics
suppresses one branch, after which the surviving branch's R collapses to
the (log-space astronomically small) tail weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError


@dataclass(frozen=True)
class MassProfile:
    """Per-cell mean mass and variance."""

    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=float)
        variances = np.asarray(self.variances, dtype=float)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        if means.shape != variances.shape:
            raise DimensionMismatchError("means and variances must align")
        if np.any(variances < -1e-12 * np.maximum(means**2, 1e-300)):
            raise ValueError("variances must be nonnegative (within roundoff)")


@dataclass(frozen=True)
class CellConfigurationState:
    """Superposition of occupation configurations over cells.

    ``occupations[s, i]`` counts particles in cell i for configuration s;
    ``amplitudes[s]`` are the complex superposition coefficients.
    """

    amplitudes: np.ndarray
    occupations: np.ndarray
    particle_mass: float

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        occ = np.atleast_2d(np.asarray(self.occupations, dtype=float))
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "occupations", occ)
        if amps.shape[0] != occ.shape[0]:
            raise DimensionMismatchError("one amplitude per configuration")
        if not self.particle_mass > 0:
            raise ValueError("particle mass must be positive")


@dataclass(frozen=True)
class IndependentParticleState:
    """Product of single-particle two-cell superpositions.

    ``placements[k] = (cell_a, cell_b, prob_a)``: particle k sits in
    cell_a with probability prob_a, else in cell_b (certainly in cell_a
    when the two are one cell).  Occupancies of
    distinct particles are independent, so per-cell mass cumulants add.
    """

    placements: tuple[tuple[int, int, float], ...]
    n_cells: int
    particle_mass: float

    def __post_init__(self) -> None:
        for a, b, p in self.placements:
            if not (0 <= a < self.n_cells and 0 <= b < self.n_cells):
                raise ValueError("cell index out of range")
            if not 0.0 <= p <= 1.0:
                raise ValueError("probability out of range")


def mass_profile(state) -> MassProfile:
    """Mean and variance of the cell mass operators in the given state."""
    if isinstance(state, CellConfigurationState):
        probs = np.abs(state.amplitudes) ** 2
        probs = probs / probs.sum()
        m = state.particle_mass
        mean = m * probs @ state.occupations
        second = m**2 * probs @ state.occupations**2
        return MassProfile(mean, np.maximum(second - mean**2, 0.0))
    if isinstance(state, IndependentParticleState):
        mean = np.zeros(state.n_cells)
        var = np.zeros(state.n_cells)
        m = state.particle_mass
        for cell_a, cell_b, p in state.placements:
            if cell_a == cell_b:
                p = 1.0
            mean[cell_a] += m * p
            mean[cell_b] += m * (1.0 - p)
            bern = m**2 * p * (1.0 - p)
            var[cell_a] += bern
            var[cell_b] += bern
        return MassProfile(mean, var)
    raise ValueError("missing mass assignment for state type")


ACCESSIBILITY_THRESHOLD = 1e-2


def accessibility_ratio(
    profile: MassProfile, threshold: float = ACCESSIBILITY_THRESHOLD
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell R_i = sqrt(V_i)/M_i and the accessibility predicate.

    Zero-mean cells get R = nan (undefined, never infinite) and count as
    not accessible.
    """
    means = profile.means
    ratios = np.full_like(means, np.nan, dtype=float)
    occupied = means > 0
    ratios[occupied] = np.sqrt(profile.variances[occupied]) / means[occupied]
    accessible = occupied & (ratios <= threshold)
    return ratios, accessible
