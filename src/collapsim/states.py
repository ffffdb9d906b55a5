"""Grid wavefunctions and the statistical operator of an ensemble.

A grid state is immutable; operations return new instances.  It lives on
a periodic uniform 1D grid whose size must comfortably contain the state
(a leakage monitor raises instead of silently wrapping).  Finite states,
ensembles and density matrices are plain arrays: an ensemble is an (n, d)
array of amplitude rows, and its statistical operator the (d, d) array
``ensemble_density`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_LEAK_TOL = 1e-5
"""Boundary amplitude threshold, relative to the peak amplitude
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
    """

    amplitudes: np.ndarray
    dx: float
    x0: float
    mass: float

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

    def wrap_displacement(self, u: np.ndarray | float) -> np.ndarray:
        """Minimum-image displacement on the periodic domain."""
        length = self.length
        return np.asarray(u) - length * np.round(np.asarray(u) / length)


def edges_and_peaks(rows: np.ndarray) -> tuple:
    """(max(|row_0|, |row_-1|), max_j |row_j|) of each row: the boundary
    and peak amplitudes that a grid's leakage test compares, edge >
    ``DEFAULT_LEAK_TOL`` * peak."""
    return np.maximum(np.abs(rows[..., 0]), np.abs(rows[..., -1])), np.abs(rows).max(axis=-1)


def ensemble_density(rows: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Statistical operator sum_k w_k |r_k><r_k| / sum_k w_k of the (n, d)
    rows, uniformly weighted when ``weights`` is None."""
    w = np.ones(len(rows)) if weights is None else np.asarray(weights, dtype=float)
    w = w / w.sum()
    return (rows * w[:, None]).T @ rows.conj()

