"""collapsim: simulation and analysis of dynamical wavefunction-collapse
models, from single hitting trajectories to closed-form macroscopic rates.
"""

__version__ = "0.1.0"

from .errors import (
    CollapsimError,
    ConfigError,
    DegenerateStateError,
    DimensionMismatchError,
    GridLeakageError,
    IncompatibleHamiltonianError,
    StabilityError,
    StatisticalPreconditionError,
)
from .operators import HamiltonianSpec, ProjectorFamily
from .params import CollapseParams, canonical_qmsl
from .states import (
    DensityMatrix,
    FiniteState,
    GridWavefunction,
    density_from_ensemble,
    ensemble_density,
    normalize,
)

__all__ = [
    "CollapseParams",
    "CollapsimError",
    "ConfigError",
    "DegenerateStateError",
    "DensityMatrix",
    "DimensionMismatchError",
    "FiniteState",
    "GridLeakageError",
    "GridWavefunction",
    "HamiltonianSpec",
    "IncompatibleHamiltonianError",
    "ProjectorFamily",
    "StabilityError",
    "StatisticalPreconditionError",
    "canonical_qmsl",
    "density_from_ensemble",
    "ensemble_density",
    "normalize",
]
