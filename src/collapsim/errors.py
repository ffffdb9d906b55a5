"""Exception types shared across the toolkit."""


class CollapsimError(Exception):
    """Base class for all toolkit errors."""


class GridLeakageError(CollapsimError):
    """Raised when wavefunction amplitude at the grid boundary exceeds the
    leakage threshold (the periodic box is too small for the state it is
    carrying)."""


class StabilityError(CollapsimError):
    """Raised when a stochastic stepper violates its step-size criterion, or
    when a run's result is not a finite number."""


class DimensionMismatchError(CollapsimError):
    """Raised on operator/state dimension mismatches."""


class StatisticalPreconditionError(CollapsimError):
    """Raised when an experiment cannot produce a statistically meaningful
    estimate (e.g. too few conditioning samples)."""


class ConfigError(CollapsimError):
    """Raised on malformed or incomplete experiment configuration."""
