"""collapsim: simulation and analysis of dynamical wavefunction-collapse
models, from single hitting trajectories to closed-form macroscopic rates.

Besides ``__version__`` it re-exports only the error classes: importing it
loads no numpy, and each engine is imported from its own module.
"""

__version__ = "0.1.0"

from .errors import (
    CollapsimError,
    ConfigError,
    DimensionMismatchError,
    GridLeakageError,
    StabilityError,
    StatisticalPreconditionError,
)

__all__ = [
    "CollapsimError",
    "ConfigError",
    "DimensionMismatchError",
    "GridLeakageError",
    "StabilityError",
    "StatisticalPreconditionError",
]
