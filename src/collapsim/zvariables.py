"""Reduced dynamics of the sector weights z_sigma = <phi|P_sigma|phi>.

The weights obey the closed stochastic system
dz_sigma = 2 z_sigma sum_tau z_tau (a_sigma - a_tau) . dB,
a driftless (martingale) diffusion on the probability simplex whose
vertices are the only absorbing states.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError

SIMPLEX_TOL = 1e-9


def z_dynamics_step(
    z: np.ndarray, eigenvalues: np.ndarray, db: np.ndarray
) -> np.ndarray:
    """One Euler-Maruyama step of the sector-weight system.

    ``z`` has shape (n_sectors,) or (n, n_sectors); ``eigenvalues`` is the
    (n_sectors, n_channels) table; ``db`` matches z's leading shape with
    n_channels trailing.  The simplex sum is preserved identically (the
    update is antisymmetric under sector exchange).
    """
    z = np.asarray(z, dtype=float)
    eig = np.atleast_2d(np.asarray(eigenvalues, dtype=float))
    batched = z.ndim == 2
    zb = z if batched else z[None, :]
    dbb = np.atleast_2d(np.asarray(db, dtype=float))
    if zb.shape[1] != eig.shape[0]:
        raise DimensionMismatchError("z length must equal the sector count")
    if dbb.shape[1] != eig.shape[1]:
        raise DimensionMismatchError("db length must equal the channel count")
    if np.any(zb < -SIMPLEX_TOL) or np.any(np.abs(zb.sum(axis=1) - 1.0) > 1e-6):
        raise ValueError("z must lie on the probability simplex")
    # (a_sigma - R) . dB with R = sum_tau z_tau a_tau
    proj = dbb @ eig.T                      # (n, n_sectors)
    mean = np.sum(zb * proj, axis=1, keepdims=True)
    new = zb + 2.0 * zb * (proj - mean)
    return new if batched else new[0]
