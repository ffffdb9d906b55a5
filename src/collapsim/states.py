"""State carriers: grid wavefunctions, finite vectors, density matrices.

All carriers are immutable; operations return new instances.  Grid states
live on a periodic uniform 1D grid whose size must comfortably contain the
state (a leakage monitor raises instead of silently wrapping).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .errors import DegenerateStateError, DimensionMismatchError, GridLeakageError

DEFAULT_LEAK_TOL = 1e-5
"""Default boundary amplitude threshold, relative to the peak amplitude
(boundary probability density below 1e-10 of the peak).  Renormalization
after low-weight localization events amplifies the double-precision FFT
floor to ~1e-8..1e-6 relative amplitude, so thresholds much below this
false-trigger on roundoff rather than on real wrap-around."""


@dataclass(frozen=True)
class GridWavefunction:
    """Complex amplitudes on a uniform periodic 1D grid.

    Parameters
    ----------
    amplitudes : ndarray
        Complex array of length N; N must be a power of two, N >= 8.
    dx : float
        Grid spacing [length].
    x0 : float
        Left edge [length].
    mass : float
        Particle mass [mass].
    leak_tol : float
        Boundary amplitude threshold relative to the peak amplitude; the
        leakage monitor raises :class:`GridLeakageError` above it.
    """

    amplitudes: np.ndarray
    dx: float
    x0: float
    mass: float
    leak_tol: float = DEFAULT_LEAK_TOL

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        n = amps.shape[0]
        if amps.ndim != 1 or n < 8 or (n & (n - 1)) != 0:
            raise ValueError("grid size must be a power of two with N >= 8")
        if not (self.dx > 0.0 and self.mass > 0.0):
            raise ValueError("dx and mass must be strictly positive")

    @property
    def n(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def length(self) -> float:
        return self.n * self.dx

    @property
    def positions(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    @property
    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, self.dx)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.dx)

    def with_amplitudes(self, amplitudes: np.ndarray) -> "GridWavefunction":
        return replace(self, amplitudes=amplitudes)

    def check_leakage(self) -> None:
        """Raise if the boundary amplitude exceeds the configured threshold."""
        peak = float(np.max(np.abs(self.amplitudes)))
        if peak == 0.0:
            return
        edge = max(abs(self.amplitudes[0]), abs(self.amplitudes[-1]))
        if edge > self.leak_tol * peak:
            raise GridLeakageError(
                f"boundary amplitude {edge:.3e} exceeds {self.leak_tol:.1e} "
                f"of peak {peak:.3e}; enlarge the grid"
            )

    def wrap_displacement(self, u: np.ndarray | float) -> np.ndarray:
        """Minimum-image displacement on the periodic domain."""
        length = self.length
        return np.asarray(u) - length * np.round(np.asarray(u) / length)


@dataclass(frozen=True)
class FiniteState:
    """Complex vector in a small finite-dimensional Hilbert space."""

    amplitudes: np.ndarray
    labels: tuple | None = None

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1 or amps.shape[0] < 2:
            raise ValueError("finite state needs dimension >= 2")
        if self.labels is not None and len(self.labels) != amps.shape[0]:
            raise DimensionMismatchError("labels length must match dimension")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def with_amplitudes(self, amplitudes: np.ndarray) -> "FiniteState":
        return replace(self, amplitudes=amplitudes)


@dataclass(frozen=True)
class DensityMatrix:
    """Ensemble-level state: a finite matrix or a position-space kernel.

    ``representation`` is ``"finite"`` (trace = sum of diagonal) or
    ``"grid"`` (kernel rho(q', q''); trace = sum of diagonal * dx).
    """

    entries: np.ndarray
    representation: str = "finite"
    dx: float = 1.0

    def __post_init__(self) -> None:
        mat = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        if self.representation not in ("finite", "grid"):
            raise ValueError("representation must be 'finite' or 'grid'")
        if self.representation == "grid" and not self.dx > 0:
            raise ValueError("grid kernel requires dx > 0")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        tr = np.trace(self.entries)
        if self.representation == "grid":
            tr = tr * self.dx
        return float(tr.real)

    def purity(self) -> float:
        weight = self.dx**2 if self.representation == "grid" else 1.0
        return float(np.sum(np.abs(self.entries) ** 2) * weight)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.entries - self.entries.conj().T)))

    def min_eigenvalue(self) -> float:
        if self.representation != "finite":
            raise ValueError("eigenvalue check applies to finite matrices")
        sym = 0.5 * (self.entries + self.entries.conj().T)
        return float(np.linalg.eigvalsh(sym)[0])

    def validate(
        self,
        herm_tol: float = 1e-10,
        trace_tol: float = 1e-10,
        eig_tol: float = -1e-8,
    ) -> "DensityMatrix":
        if self.hermiticity_defect() > herm_tol:
            raise ValueError("density matrix is not Hermitian within tolerance")
        if abs(self.trace() - 1.0) > trace_tol:
            raise ValueError("density matrix trace differs from one")
        if self.representation == "finite" and self.min_eigenvalue() < eig_tol:
            raise ValueError("density matrix has a negative eigenvalue")
        return self


def normalize(state):
    """Return the unit-norm version of a state; direction is preserved.

    Raises
    ------
    DegenerateStateError
        If the state has zero norm.
    """
    nsq = state.norm_sq()
    if nsq <= 0.0 or not np.isfinite(nsq):
        raise DegenerateStateError("degenerate state")
    return state.with_amplitudes(state.amplitudes / np.sqrt(nsq))


def density_from_ensemble(
    members: Iterable[tuple[FiniteState, float]], weight_tol: float = 1e-9
) -> DensityMatrix:
    """Statistical operator of a weighted pure-state ensemble.

    Weights must be nonnegative and sum to one within ``weight_tol``.
    """
    members = list(members)
    if not members:
        raise ValueError("empty ensemble")
    weights = np.array([w for _, w in members], dtype=float)
    if np.any(weights < 0):
        raise ValueError("ensemble weights must be nonnegative")
    if abs(weights.sum() - 1.0) > weight_tol:
        raise ValueError("ensemble weights must sum to one")
    dim = members[0][0].dim
    rho = np.zeros((dim, dim), dtype=complex)
    for state, w in members:
        if state.dim != dim:
            raise DimensionMismatchError("ensemble members differ in dimension")
        psi = state.amplitudes / np.sqrt(state.norm_sq())
        rho += w * np.outer(psi, psi.conj())
    return DensityMatrix(rho, "finite")

