"""Discrete-cell reduction model: occupation-number couplings.

Space is split into cells; the coupling channels count particles per cell
(optionally per species), so superpositions of configurations differing
in their occupations decohere at a rate set by the squared occupation
differences.  Desk-scale dynamics reuses the finite-state steppers with
the configurations as sectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError
from .operators import ProjectorFamily


@dataclass(frozen=True)
class CellModel:
    """Cell-occupation coupling for a fixed set of configurations.

    Parameters
    ----------
    occupations : ndarray, shape (n_configurations, n_cells)
        Nonnegative integer particle counts; one row per superposed
        configuration, one channel per cell.  Multiple species stack
        extra cell blocks as additional columns.
    lambda_eff : float
        Effective per-channel rate gamma*(alpha/4 pi)^{3/2}.
    """

    occupations: np.ndarray
    lambda_eff: float
    family: ProjectorFamily = field(init=False)

    def __post_init__(self) -> None:
        occ = np.atleast_2d(np.asarray(self.occupations))
        if np.any(occ < 0) or np.any(occ != np.round(occ)):
            raise ValueError("occupations must be nonnegative integers")
        object.__setattr__(self, "occupations", occ.astype(float))
        if not self.lambda_eff > 0:
            raise ValueError("lambda_eff must be positive")
        object.__setattr__(
            self, "family", ProjectorFamily.from_configurations(self.occupations)
        )

    @property
    def n_configurations(self) -> int:
        return self.occupations.shape[0]


def discrete_decay_log(
    n: np.ndarray, m: np.ndarray, lambda_eff: float, t: float
) -> float:
    """Log of the off-diagonal damping factor between two configurations:
    -(lambda/2) sum_k (n_k - m_k)^2 t.  Safe for astronomically large
    occupations (pure log-space arithmetic)."""
    n = np.asarray(n, dtype=float)
    m = np.asarray(m, dtype=float)
    if n.shape != m.shape:
        raise DimensionMismatchError("occupation tuples differ in length")
    diff = n - m
    return -0.5 * lambda_eff * float(diff @ diff) * t
