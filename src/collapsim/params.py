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
    """The model constants (lambda, alpha, gamma).

    ``gamma_coupling`` carries units length^dimension / time; the
    single-particle consistency relation tying it to ``lambda_rate`` is

        lambda = gamma * (alpha / 4 pi)^(dimension/2).

    The ``consistent`` constructor builds parameters satisfying it exactly.
    """

    lambda_rate: float
    alpha: float
    gamma_coupling: float
    dimension: int = 3

    def __post_init__(self) -> None:
        for name in ("lambda_rate", "alpha", "gamma_coupling"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")

    @classmethod
    def consistent(
        cls, lambda_rate: float, alpha: float, dimension: int = 3
    ) -> "CollapseParams":
        gamma = lambda_rate * (4.0 * math.pi / alpha) ** (dimension / 2.0)
        return cls(lambda_rate, alpha, gamma, dimension)

    @property
    def localization_width(self) -> float:
        return 1.0 / math.sqrt(self.alpha)


def canonical_qmsl() -> CollapseParams:
    """Canonical microscopic hitting parameters with the matched coupling."""
    return CollapseParams.consistent(CANONICAL_LAMBDA_MICRO, CANONICAL_ALPHA)
