"""Average mass-density profiles and accessibility.

The mass in a cell is "accessible" (behaves classically) when the ratio
R = sqrt(V)/M of its variance V and mean M is small (Ghirardi, Grassi &
Benatti, Found. Phys. 25, 5, 1995); superpositions of macroscopically
different configurations have R ~ 1 until the reducing dynamics
suppresses one branch, after which the surviving branch's R collapses to
the (log-space astronomically small) tail weight.  Each profile is the
pair (per-cell means, per-cell variances).
"""

from __future__ import annotations

import numpy as np


def configuration_profile(amplitudes, occupations, particle_mass: float) -> tuple:
    """Means and variances of the cell masses in a superposition of
    occupation configurations: ``occupations[s, i]`` particles in cell i
    in configuration s, whose amplitude is ``amplitudes[s]``."""
    probs = np.abs(amplitudes) ** 2
    probs = probs / probs.sum()
    m = particle_mass
    mean = m * probs @ occupations
    second = m**2 * probs @ occupations**2
    return mean, np.maximum(second - mean**2, 0.0)


def product_profile(n_particles: int, cells: tuple, n_cells: int, particle_mass: float) -> tuple:
    """Means and variances of the cell masses of ``n_particles`` independent
    particles, each in an equal superposition of the two ``cells`` (certainly
    in the first when the two are one cell).  Cumulants of independent
    particles add: a cell a particle is in with probability p has mean
    n·(m·p) and variance n·(m²·p·(1−p)), in closed form for any n."""
    p = 1.0 if cells[0] == cells[1] else 0.5
    means, variances = np.zeros(n_cells), np.zeros(n_cells)
    bern = particle_mass**2 * p * (1.0 - p)
    for cell, q in zip(cells, (p, 1.0 - p)):
        means[cell] += n_particles * (particle_mass * q)
        variances[cell] += n_particles * bern
    return means, variances


ACCESSIBILITY_THRESHOLD = 1e-2


def accessibility_ratio(means: np.ndarray, variances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell R_i = sqrt(V_i)/M_i and the accessibility predicate.

    Zero-mean cells get R = nan (undefined, never infinite) and count as
    not accessible.
    """
    ratios = np.full_like(means, np.nan, dtype=float)
    occupied = means > 0
    ratios[occupied] = np.sqrt(variances[occupied]) / means[occupied]
    accessible = occupied & (ratios <= ACCESSIBILITY_THRESHOLD)
    return ratios, accessible
