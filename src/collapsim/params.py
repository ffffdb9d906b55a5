"""Collapse-model parameters and their canonical magnitudes."""

from __future__ import annotations

import math
from dataclasses import dataclass

# Canonical CGS magnitudes of the model constants.
CANONICAL_LAMBDA_MICRO = 1e-16  # microscopic hitting rate [1/s]
CANONICAL_ALPHA = 1e10          # inverse squared localization width [1/cm^2]
CANONICAL_GAMMA = 1e-30         # diffusion coupling [cm^3/s]
CANONICAL_DENSITY = 1e24        # number density of ordinary matter [1/cm^3]
MACRO_PARTICLE_COUNT = 1e23     # constituents of a reference macro-object


@dataclass(frozen=True)
class CollapseParams:
    """The two constants of the hitting model: the rate ``lambda_rate``
    and the inverse squared localization width ``alpha``.  CSL's coupling
    gamma belongs to the continuous model; its runs read it on its own."""

    lambda_rate: float
    alpha: float

    def __post_init__(self) -> None:
        for name in ("lambda_rate", "alpha"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")

    @property
    def localization_width(self) -> float:
        return 1.0 / math.sqrt(self.alpha)


def canonical_qmsl() -> CollapseParams:
    """Canonical microscopic hitting parameters."""
    return CollapseParams(CANONICAL_LAMBDA_MICRO, CANONICAL_ALPHA)
