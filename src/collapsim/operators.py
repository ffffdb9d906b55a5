"""Preferred-basis operator families.

A :class:`ProjectorFamily` encodes a commuting self-adjoint set
A_i = sum_sigma a_{i sigma} P_sigma through its spectral data: one
eigenvalue vector per sector (one entry per noise channel) plus the
orthogonal projectors, given as index sets over a fixed basis in which
every A_i is diagonal (cell occupations, mass densities).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import DimensionMismatchError


@dataclass(frozen=True)
class ProjectorFamily:
    """Commuting self-adjoint operator set over a finite basis.

    Parameters
    ----------
    eigenvalues : ndarray, shape (n_sectors, n_channels)
        a_{i sigma}: row sigma holds the eigenvalue of every channel
        operator A_i on sector sigma.
    sectors : tuple of ndarray
        Index sets partitioning range(dim): each basis index lies in
        exactly one sector.  Stored as 1-D index arrays.
    """

    eigenvalues: np.ndarray
    sectors: tuple

    def __post_init__(self) -> None:
        eig = np.atleast_2d(np.asarray(self.eigenvalues, dtype=float))
        object.__setattr__(self, "eigenvalues", eig)
        sectors = tuple(np.atleast_1d(np.asarray(s)).ravel() for s in self.sectors)
        object.__setattr__(self, "sectors", sectors)
        if eig.shape[0] != len(sectors):
            raise DimensionMismatchError("one eigenvalue row per sector required")
        # distinct sectors must differ in at least one channel
        for s in range(eig.shape[0]):
            for t in range(s + 1, eig.shape[0]):
                if np.all(eig[s] == eig[t]):
                    raise ValueError(
                        f"sectors {s} and {t} share the same eigenvalue vector"
                    )
        all_idx = np.concatenate(sectors)
        dim = all_idx.size
        if np.any(np.sort(all_idx) != np.arange(dim)):
            raise ValueError("index sectors must partition the basis exactly once")
        object.__setattr__(self, "_dim", int(dim))

    # -- constructors -------------------------------------------------

    @classmethod
    def two_level(
        cls, a_plus: float = 1.0, a_minus: float = -1.0
    ) -> "ProjectorFamily":
        """Single-channel family on C^2 with eigenvalues (a_plus, a_minus)."""
        return cls(np.array([[a_plus], [a_minus]]), (np.array([0]), np.array([1])))

    @classmethod
    def from_configurations(cls, occupations: np.ndarray) -> "ProjectorFamily":
        """Cell-occupation family: sector sigma = configuration sigma,
        channel i = cell i, eigenvalue = occupation number.

        ``occupations`` has shape (n_configurations, n_cells).
        """
        occ = np.atleast_2d(np.asarray(occupations, dtype=float))
        sectors = tuple(np.array([s]) for s in range(occ.shape[0]))
        return cls(occ, sectors)

    # -- structure ----------------------------------------------------

    @property
    def dim(self) -> int:
        return self._dim  # type: ignore[attr-defined]

    @property
    def n_sectors(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def channel_count(self) -> int:
        return self.eigenvalues.shape[1]

    def basis_eigenvalues(self) -> np.ndarray:
        """Per-basis-index eigenvalue table, shape (n_channels, dim)."""
        table = np.empty((self.channel_count, self.dim), dtype=float)
        for sigma, idx in enumerate(self.sectors):
            table[:, idx] = self.eigenvalues[sigma][:, None]
        return table

    def sector_weights(self, amplitudes: np.ndarray) -> np.ndarray:
        """z_sigma = <psi|P_sigma|psi> for a normalized amplitude vector.

        For batched input of shape (..., dim) returns shape (..., n_sectors),
        floats for integer input too.  Each sector sums its |x_j|^2 (x * x
        for real x) left to right, over the basis axis moved first, so a
        column-major (n, dim) block's contiguous rows are read, not gathered.
        """
        amps = np.asarray(amplitudes)
        amps = amps.transpose(-1, *range(amps.ndim - 1))
        sq = np.square(np.abs(amps)) if amps.dtype.kind == "c" else amps * amps
        out = np.zeros((self.n_sectors,) + amps.shape[1:])
        for sigma, idx in enumerate(self.sectors):
            for j in idx:
                out[sigma] += sq[j]
        return out.transpose(*range(1, out.ndim), 0)
