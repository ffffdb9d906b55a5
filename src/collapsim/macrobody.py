"""Macroscopic-body reduction rates, momentum diffusion, and the
mass-weighted condenser rate; closed forms in CGS.
"""

from __future__ import annotations

import numpy as np

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
