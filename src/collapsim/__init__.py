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
from .operators import HamiltonianSpec, ProjectorFamily, expectation
from .params import CollapseParams, canonical_csl, canonical_qmsl
from .states import (
    DensityMatrix,
    FiniteState,
    GridWavefunction,
    density_from_ensemble,
    normalize,
)
from .units import UnitSystem, cgs_convert

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
    "UnitSystem",
    "canonical_csl",
    "canonical_qmsl",
    "cgs_convert",
    "density_from_ensemble",
    "expectation",
    "normalize",
]
