"""collapsim: simulation and analysis of dynamical wavefunction-collapse
models, from single hitting trajectories to closed-form macroscopic rates.
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
from .operators import ProjectorFamily
from .params import CollapseParams, canonical_qmsl
from .states import GridWavefunction, ensemble_density

__all__ = [
    "CollapseParams",
    "CollapsimError",
    "ConfigError",
    "DimensionMismatchError",
    "GridLeakageError",
    "GridWavefunction",
    "ProjectorFamily",
    "StabilityError",
    "StatisticalPreconditionError",
    "canonical_qmsl",
    "ensemble_density",
]
