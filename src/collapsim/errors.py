"""Exception types shared across the toolkit, and ``require_memory``, the
memory check a run makes before it allocates: every run loads this
module, so the check loads nothing more."""

import os
import sys


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


def require_memory(nbytes: int, what: str) -> None:
    """Raise ValueError when ``nbytes`` exceed this machine's physical memory."""
    try:
        limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        limit = sys.maxsize
    if nbytes > limit:
        gib = nbytes / 2**30 if nbytes < 1e300 else float("inf")
        raise ValueError(
            f"{what} need {gib:.3g} GiB, more than the {limit / 2**30:.3g} GiB "
            "of memory here"
        )
