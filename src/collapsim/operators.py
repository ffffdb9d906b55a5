"""Preferred-basis operator families, Hamiltonian specs, expectations.

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
from .states import FiniteState, GridWavefunction


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
    def diagonal(cls, channel_values: np.ndarray) -> "ProjectorFamily":
        """Family defined by per-basis-index channel eigenvalues.

        ``channel_values`` has shape (n_channels, dim); basis indices with
        identical eigenvalue columns are grouped into one sector.
        """
        vals = np.atleast_2d(np.asarray(channel_values, dtype=float))
        dim = vals.shape[1]
        columns = [tuple(vals[:, j]) for j in range(dim)]
        order: dict[tuple, list[int]] = {}
        for j, col in enumerate(columns):
            order.setdefault(col, []).append(j)
        eig = np.array(list(order.keys()), dtype=float)
        sectors = tuple(np.array(v) for v in order.values())
        return cls(eig, sectors)

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

    def channel_matrices(self) -> list[np.ndarray]:
        """Dense A_i matrices."""
        return [np.diag(row).astype(complex) for row in self.basis_eigenvalues()]

    def sector_weights(self, amplitudes: np.ndarray) -> np.ndarray:
        """z_sigma = <psi|P_sigma|psi> for a normalized amplitude vector.

        For batched input of shape (..., dim) returns shape (..., n_sectors).
        """
        amps = np.asarray(amplitudes)
        out = np.empty(amps.shape[:-1] + (self.n_sectors,), dtype=float)
        for sigma, idx in enumerate(self.sectors):
            out[..., sigma] = np.sum(np.abs(amps[..., idx]) ** 2, axis=-1)
        return out

    def scaled(self, channel_factors: np.ndarray) -> "ProjectorFamily":
        """New family with channel i eigenvalues multiplied by factor i."""
        factors = np.asarray(channel_factors, dtype=float)
        if factors.shape != (self.channel_count,):
            raise DimensionMismatchError("one factor per channel required")
        return ProjectorFamily(self.eigenvalues * factors[None, :], self.sectors)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Grid Hamiltonian selector: free | harmonic(frequency) | none."""

    kind: str
    frequency: float = 0.0
    center: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("free", "harmonic", "none"):
            raise ValueError(f"unknown Hamiltonian kind {self.kind!r}")
        if self.kind == "harmonic" and not self.frequency > 0:
            raise ValueError("harmonic Hamiltonian needs frequency > 0")

    @classmethod
    def free(cls) -> "HamiltonianSpec":
        return cls("free")

    @classmethod
    def none(cls) -> "HamiltonianSpec":
        return cls("none")

    @classmethod
    def harmonic(cls, frequency: float, center: float = 0.0) -> "HamiltonianSpec":
        return cls("harmonic", frequency=frequency, center=center)


def _grid_moment(psi: GridWavefunction, which: str, order: int) -> float:
    amps = psi.amplitudes
    if which == "q":
        values = psi.positions**order
        return float(np.sum(values * np.abs(amps) ** 2) * psi.dx)
    if which == "p":
        k = psi.wavenumbers
        phi = np.fft.fft(amps)
        weights = np.abs(phi) ** 2
        weights = weights / weights.sum()
        return float(np.sum(k**order * weights))
    raise ValueError(f"unknown moment {which!r}")


def expectation(state, operator) -> float | np.ndarray:
    """Expectation value in a normalized state.

    ``operator`` may be a :class:`ProjectorFamily` (returns the vector of
    channel expectations <A_i> = sum_sigma a_{i sigma} z_sigma, or a scalar
    for a single channel), a Hermitian matrix, or a position/momentum
    moment spec ``("q", k)`` / ``("p", k)`` for grid states.
    """
    if isinstance(state, (FiniteState, GridWavefunction)):
        nsq = state.norm_sq()
        if abs(nsq - 1.0) > 1e-8:
            raise ValueError("expectation requires a normalized state")
    if isinstance(operator, ProjectorFamily):
        if not isinstance(state, FiniteState):
            raise DimensionMismatchError("projector family acts on finite states")
        if operator.dim != state.dim:
            raise DimensionMismatchError("family and state dimensions differ")
        z = operator.sector_weights(state.amplitudes)
        vals = operator.eigenvalues.T @ z
        return float(vals[0]) if vals.shape == (1,) else vals
    if isinstance(operator, tuple) and len(operator) == 2:
        which, order = operator
        if not isinstance(state, GridWavefunction):
            raise DimensionMismatchError("moment operators act on grid states")
        return _grid_moment(state, which, int(order))
    mat = np.asarray(operator, dtype=complex)
    amps = state.amplitudes
    if mat.shape != (amps.shape[0], amps.shape[0]):
        raise DimensionMismatchError("operator and state dimensions differ")
    val = np.vdot(amps, mat @ amps)
    return float(val.real)
