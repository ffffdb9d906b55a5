"""Closed-evolution (no-signaling) check for trajectory dynamics.

Two physically different pure-state ensembles with the same initial
density matrix must evolve into ensembles with the same density matrix;
otherwise the dynamics would permit faster-than-light signaling.  The
check evolves both ensembles with cooked trajectory dynamics and compares
the resulting matrices against the Monte Carlo resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import StatisticalPreconditionError
from .states import ensemble_density

Ensemble = Sequence[tuple[np.ndarray, float]]
"""(normalized amplitude vector, statistical weight) pairs."""

EvolveMany = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
"""Maps (initial amplitudes, trajectory index array) to (final normalized
amplitudes (n, d), cooked log-weights (n,)); log-weights are zero for
physical-process dynamics (nonlinear diffusion, hittings)."""

GISIN_SIGMAS = 3.0
"""The check passes when the final distance is within this many combined
Monte Carlo bands (the ``passed_within_3sigma`` of the gisin experiment)."""


@dataclass(frozen=True)
class GisinReport:
    distance: float
    band: float
    passed: bool


def _evolve_ensemble(
    ensemble: Ensemble, evolve_many: EvolveMany, n_traj: int, index_offset: int
) -> tuple[np.ndarray, np.ndarray]:
    members = list(ensemble)
    weights = np.array([w for _, w in members])
    counts = np.floor(weights * n_traj).astype(int)
    counts[-1] = n_traj - counts[:-1].sum()
    if counts.min() < 1:
        raise StatisticalPreconditionError(
            f"{n_traj} trajectories leave a mixture member without one"
        )
    dim = len(members[0][0])
    states = np.empty((n_traj, dim), dtype=complex)
    logw = np.zeros(n_traj)
    traj = 0
    for (amps, _), count in zip(members, counts):
        psi0 = np.asarray(amps, dtype=complex)
        psi0 = psi0 / np.linalg.norm(psi0)
        idx = np.arange(index_offset + traj, index_offset + traj + count)
        out, lw = evolve_many(psi0, idx)
        states[traj : traj + count] = out
        logw[traj : traj + count] = lw
        traj += count
    return states, logw


def _mc_band(states: np.ndarray, weights: np.ndarray, mean: np.ndarray) -> float:
    """One-sigma Frobenius resolution of ``mean``, the density of the rows
    ``states`` under ``weights``: sqrt(sum_ij sum_k w_k^2 |P_k,ij -
    mean_ij|^2) with w normalized, computed without materializing the
    per-trajectory projectors (rows are unit-norm, so sum_ij |P_k,ij|^2 = 1)."""
    w = weights / weights.sum()
    second = (states * (w**2)[:, None]).T @ states.conj()
    sum_w2 = float(np.sum(w**2))
    band_sq = (
        sum_w2
        - 2.0 * float(np.real(np.vdot(mean, second)))
        + sum_w2 * float(np.real(np.vdot(mean, mean)))
    )
    return float(np.sqrt(max(band_sq, 0.0)))


def gisin_check(
    ensemble_a: Ensemble,
    ensemble_b: Ensemble,
    evolve_many: EvolveMany,
    n_traj: int,
) -> GisinReport:
    """Equal-density ensembles must stay equal under the cooked dynamics.

    Raises if the initial density matrices differ or if ``n_traj`` leaves
    a mixture member without a trajectory; passes when the final
    Frobenius distance lies within ``GISIN_SIGMAS`` times the combined
    Monte Carlo band.  Trajectory indices are disjoint between the two
    ensembles so the comparison is between independent runs.
    """
    rho_a0, rho_b0 = (
        ensemble_density(
            np.array([a / np.linalg.norm(a) for a, _ in e]), np.array([w for _, w in e])
        )
        for e in (ensemble_a, ensemble_b)
    )
    if np.max(np.abs(rho_a0 - rho_b0)) > 1e-10:
        raise ValueError("ensembles are not initially equivalent")
    bands, rho = [], []
    for ensemble, offset in ((ensemble_a, 0), (ensemble_b, n_traj)):
        states, logw = _evolve_ensemble(ensemble, evolve_many, n_traj, offset)
        weights = np.exp(logw - logw.max())
        rho.append(ensemble_density(states, weights))
        bands.append(_mc_band(states, weights, rho[-1]))
    distance = float(np.linalg.norm(rho[0] - rho[1]))
    band = float(np.hypot(*bands))
    return GisinReport(distance, band, distance <= GISIN_SIGMAS * band)


def here_there_mixtures() -> tuple[list, list]:
    """The canonical pair of physically different 50/50 mixtures sharing
    one density matrix: {|Here>, |There>} vs {(|H>+|T>)/sqrt2,
    (|H>-|T>)/sqrt2}."""
    here = np.array([1.0, 0.0], dtype=complex)
    there = np.array([0.0, 1.0], dtype=complex)
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    minus = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)
    return [(here, 0.5), (there, 0.5)], [(plus, 0.5), (minus, 0.5)]
