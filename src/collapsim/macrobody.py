"""Macroscopic-body reduction rates, momentum diffusion, mass weighting.

Closed-form calculators are in CGS; the grid helpers are dimensionless
checks of the sharp-scanning and smeared-profile approximations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .operators import ProjectorFamily
from .params import CollapseParams
from .units import ELECTRON_MASS_G, NUCLEON_MASS_G


def macro_reduction_rate(gamma: float, density: float, n_out: float) -> float:
    """Sharp-scanning reduction rate Gamma = gamma * D0 * n_out.

    ``n_out`` is the number of particles of the displaced body not lying
    in the volume it occupied before the displacement.
    """
    if gamma < 0 or density < 0 or n_out < 0:
        raise ValueError("inputs must be nonnegative")
    return gamma * density * n_out


def smeared_slab_profile(x: np.ndarray, density: float, length: float, alpha: float):
    """Number-density profile of a uniform 1D slab smeared over the
    localization width: D0 * [Phi(x + L/2) - Phi(x - L/2)] with Phi the
    Gaussian CDF of width 1/sqrt(alpha)."""
    from scipy.special import erf

    s = np.sqrt(alpha / 2.0)
    return 0.5 * density * (erf(s * (x + length / 2)) - erf(s * (x - length / 2)))


def slab_reduction_rate_quadrature(
    gamma: float,
    density: float,
    length: float,
    displacement: float,
    alpha: float,
    n_points: int = 4001,
) -> float:
    """Gamma(Q', Q'') for a displaced uniform 1D slab, by quadrature.

    Evaluates gamma * int dx [F^2(x) - F(x) F(x - q)] with the smeared
    profile F; for displacements >> 1/sqrt(alpha) this reduces to
    gamma * D0 * n_out with n_out = D0 * q per unit cross-section.
    """
    pad = 10.0 / np.sqrt(alpha) + abs(displacement)
    x = np.linspace(-length / 2 - pad, length / 2 + pad + abs(displacement), n_points)
    f0 = smeared_slab_profile(x, density, length, alpha)
    f1 = smeared_slab_profile(x - displacement, density, length, alpha)
    integrand = f0 * f0 - f0 * f1
    return gamma * float(np.trapezoid(integrand, x))


def smeared_density_damping_1d(
    gamma_1d: float, alpha: float, separations: np.ndarray, half_width: float = 12.0
) -> np.ndarray:
    """Single-particle off-diagonal damping rate Gamma(u) on a 1D grid,
    built from first principles: the smeared-density coupling g(x - q)
    with g the width-1/sqrt(alpha) normalized Gaussian gives
    Gamma(u) = gamma [G(0) - G(u)], G(u) = int g(y) g(y - u) dy
    evaluated by quadrature.

    With lambda = gamma (alpha/4 pi)^(1/2) this reproduces the hitting
    master equation's rate lambda (1 - exp(-alpha u^2/4)) exactly.
    """
    separations = np.atleast_1d(np.asarray(separations, dtype=float))
    span = half_width / np.sqrt(alpha) + np.max(np.abs(separations))
    y = np.linspace(-span, span, 8001)
    g0 = np.sqrt(alpha / (2.0 * np.pi)) * np.exp(-0.5 * alpha * y**2)
    g_zero = float(np.trapezoid(g0 * g0, y))
    out = np.empty_like(separations)
    for i, u in enumerate(separations):
        gu = np.sqrt(alpha / (2.0 * np.pi)) * np.exp(-0.5 * alpha * (y - u) ** 2)
        out[i] = gamma_1d * (g_zero - float(np.trapezoid(g0 * gu, y)))
    return out


def momentum_diffusion(
    gamma: float, alpha: float, density: float, section: float, hbar: float
) -> float:
    """Momentum diffusion coefficient (1/2) gamma delta hbar^2 with
    delta = sqrt(alpha/pi) * D0^2 * S for a homogeneous parallelepiped of
    transverse section S."""
    if min(gamma, alpha, density, section) < 0:
        raise ValueError("inputs must be nonnegative")
    delta = np.sqrt(alpha / np.pi) * density**2 * section
    return 0.5 * gamma * delta * hbar**2


def momentum_diffusion_quadrature(
    alpha: float, density: float, edge: float, n_points: int = 4001
) -> float:
    """delta per unit transverse section from the profile derivative:
    int (dF/dy)^2 dy for a rectangular profile of edge length ``edge``,
    times the transverse-section factor left at unity.

    Approaches sqrt(alpha/pi) * D0^2 for edges >> 1/sqrt(alpha).
    """
    pad = 10.0 / np.sqrt(alpha)
    y = np.linspace(-edge / 2 - pad, edge / 2 + pad, n_points)
    f = smeared_slab_profile(y, density, edge, alpha)
    df = np.gradient(f, y)
    return float(np.trapezoid(df * df, y))


@dataclass(frozen=True)
class MassDensitySpec:
    """Species masses and the reference mass scaling the couplings."""

    species_masses: tuple[float, ...]
    reference_mass: float = NUCLEON_MASS_G

    def __post_init__(self) -> None:
        if any(m <= 0 for m in self.species_masses) or self.reference_mass <= 0:
            raise ValueError("masses must be strictly positive")

    def factors(self) -> np.ndarray:
        return np.array(self.species_masses) / self.reference_mass


def mass_weighted_family(
    family: ProjectorFamily,
    spec: MassDensitySpec,
    channel_species: np.ndarray,
) -> ProjectorFamily:
    """Rescale channel eigenvalues by m_k/m0 for the species owning each
    channel.  Light-species channels are suppressed by (m_k/m0)^2 in the
    resulting decay rates."""
    channel_species = np.asarray(channel_species, dtype=int)
    if channel_species.shape != (family.channel_count,):
        raise DimensionMismatchError("one species index per channel required")
    return family.scaled(spec.factors()[channel_species])


def electron_suppression_ratio(
    m_electron: float = ELECTRON_MASS_G, m0: float = NUCLEON_MASS_G
) -> float:
    """Decay-rate ratio of electron-channel vs nucleon-channel coupling."""
    return (m_electron / m0) ** 2


def condenser_decay_rate(
    n_electrons: float = 1e12,
    plate_area_cm2: float = 1.0,
    params: CollapseParams | None = None,
    m_electron: float = ELECTRON_MASS_G,
    m0: float = NUCLEON_MASS_G,
) -> float:
    """Decay rate of a charged/uncharged condenser superposition.

    Geometry: each plate discretized into localization-width cells of area
    1/alpha; the displaced electrons spread uniformly, n per cell, and the
    mass-weighted discrete rate is lambda * K * n^2 * (m_e/m0)^2 summed
    over both plates.
    """
    from .params import canonical_qmsl

    params = params or canonical_qmsl()
    cell_area = 1.0 / params.alpha  # (1/sqrt(alpha))^2
    k_cells = plate_area_cm2 / cell_area
    n_per_cell = n_electrons / k_cells
    # (lambda/2) * sum over 2K cells of n^2, mass-weighted
    rate = params.lambda_rate * k_cells * n_per_cell**2
    return rate * (m_electron / m0) ** 2
