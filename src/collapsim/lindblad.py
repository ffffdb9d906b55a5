"""Ensemble-level generator: trace-preserving completely positive flow
d rho/dt = -i[H, rho] + gamma sum_i (A_i rho A_i - (1/2){A_i^2, rho})
for self-adjoint couplings, integrated exactly via the superoperator
exponential (finite dimensions only).
"""

from __future__ import annotations

import numpy as np

from .operators import ProjectorFamily
from .states import DensityMatrix


def _superoperator(
    h_matrix: np.ndarray | None, ops: list[np.ndarray], gamma: float, dim: int
) -> np.ndarray:
    eye = np.eye(dim)

    def left(m):
        return np.kron(m, eye)

    def right(m):
        # row-major vec: vec(X B) = (I (x) B^T) vec(X)
        return np.kron(eye, m.T)

    gen = np.zeros((dim * dim, dim * dim), dtype=complex)
    if h_matrix is not None:
        gen += -1j * (left(h_matrix) - right(h_matrix))
    for a in ops:
        a_dag = a.conj().T
        gen += gamma * np.kron(a, a_dag.T)
        asq = a_dag @ a
        gen += -0.5 * gamma * (left(asq) + right(asq))
    return gen


def lindblad_evolve(
    rho0: DensityMatrix,
    h_matrix: np.ndarray | None,
    family: ProjectorFamily | list[np.ndarray],
    gamma: float,
    t: float,
) -> DensityMatrix:
    """Evolve a finite density matrix under the ensemble generator.

    ``family`` may be a ProjectorFamily (channels become the coupling
    operators) or an explicit operator list.  Trace is conserved within
    1e-9 and positivity within -1e-8; the evolved matrix is validated.
    """
    from scipy.linalg import expm

    if rho0.representation != "finite":
        raise ValueError("ensemble generator requires a finite matrix")
    rho0.validate(herm_tol=1e-10, trace_tol=1e-8)
    dim = rho0.dim
    ops = (
        family.channel_matrices()
        if isinstance(family, ProjectorFamily)
        else [np.asarray(a, dtype=complex) for a in family]
    )
    gen = _superoperator(
        None if h_matrix is None else np.asarray(h_matrix, dtype=complex),
        ops,
        gamma,
        dim,
    )
    rho = (expm(gen * t) @ rho0.entries.reshape(-1)).reshape(dim, dim)
    return DensityMatrix(rho, "finite").validate(
        herm_tol=1e-9, trace_tol=1e-9, eig_tol=-1e-8
    )
