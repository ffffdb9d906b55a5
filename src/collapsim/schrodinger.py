"""Deterministic Schroedinger propagation on the grid (split-step FFT).

Natural units: hbar = 1.  Free and harmonic Hamiltonians only; matrix
Hamiltonians on grid states are rejected.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .operators import HamiltonianSpec, require_grid_compatible
from .states import GridWavefunction


def _kinetic_phase(psi: GridWavefunction, dt) -> np.ndarray:
    """exp(-i dt k^2 / 2m) on the grid's wavenumbers, (N,) for one lag and
    (m, N) for an (m,) array of them; read-only, shared."""
    lags = dt if np.ndim(dt) == 0 else tuple(dt)
    return _kinetic_phase_on(psi.n, psi.dx, psi.mass, lags)


# a hitting step asks for the one-dt phase of its edge kernel, and each of
# its hit rounds for one lag per row forwards and then the same lags
# backwards, so a few entries serve every call of a run; a backward phase
# conjugates the forward one (equal values; the zero imaginary part at
# k = 0 changes sign)
@lru_cache(maxsize=4)
def _kinetic_phase_on(n: int, dx: float, mass: float, dt) -> np.ndarray:
    lags = np.asarray(dt)
    if np.all(lags < 0):
        phase = np.conj(_kinetic_phase_on(n, dx, mass, type(dt)(-lags)))
    else:
        # k and -k share k^2: exponentiate the n // 2 + 1 values and spread
        # them, the same bits as over the whole grid in half the time
        k = 2.0 * np.pi * np.fft.fftfreq(n, dx)[: n // 2 + 1]
        half = np.exp(-0.5j * lags[..., None] * k**2 / mass)
        phase = np.take(half, np.minimum(np.arange(n), n - np.arange(n)), axis=-1)
    phase.flags.writeable = False
    return phase


def _potential_phase(psi: GridWavefunction, h: HamiltonianSpec, dt) -> np.ndarray:
    # half-step factor for Strang splitting, one row per lag of an array dt
    x = psi.wrap_displacement(psi.positions - h.center) + h.center
    v = 0.5 * psi.mass * h.frequency**2 * (x - h.center) ** 2
    return np.exp(-0.5j * np.asarray(dt)[..., None] * v)


def split_step_evolve(
    psi: GridWavefunction,
    h: HamiltonianSpec,
    dt: float,
    steps: int = 1,
    check_leakage: bool = True,
) -> GridWavefunction:
    """Evolve a grid wavefunction through ``steps`` Strang-split steps.

    Norm is preserved to machine precision (the propagator is a product of
    unitary diagonal factors).  Raises on matrix Hamiltonians and on grid
    leakage after the evolution.
    """
    require_grid_compatible(h)
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    if dt == 0 or steps == 0 or h.kind == "none":
        return psi
    amps = psi.amplitudes
    if h.kind == "free":
        phase = _kinetic_phase(psi, dt) ** steps
        amps = np.fft.ifft(np.fft.fft(amps) * phase)
        out = psi.with_amplitudes(amps)
    else:  # harmonic
        half_v = _potential_phase(psi, h, dt)
        kin = _kinetic_phase(psi, dt)
        for _ in range(steps):
            amps = half_v * amps
            amps = np.fft.ifft(np.fft.fft(amps) * kin)
            amps = half_v * amps
        out = psi.with_amplitudes(amps)
    if check_leakage:
        out.check_leakage()
    return out


def split_step_batch(
    amplitudes: np.ndarray,
    template: GridWavefunction,
    h: HamiltonianSpec,
    dt,
) -> np.ndarray:
    """One split step applied to a (n_traj, N) amplitude block: one ``dt``
    for every row, or an (n_traj,) array of them, one per row."""
    require_grid_compatible(h)
    if h.kind == "none" or not np.any(dt):
        return amplitudes
    kin = _kinetic_phase(template, dt)
    if h.kind == "free":
        return np.fft.ifft(np.fft.fft(amplitudes, axis=1) * kin, axis=1)
    half_v = _potential_phase(template, h, dt)
    amps = amplitudes * half_v
    amps = np.fft.ifft(np.fft.fft(amps, axis=1) * kin, axis=1)
    return amps * half_v


def gaussian_packet(
    n: int,
    dx: float,
    x0: float,
    mass: float,
    center: float,
    sigma: float,
    momentum: float = 0.0,
    leak_tol: float = 1e-5,
) -> GridWavefunction:
    """Normalized minimal Gaussian packet: position spread ``sigma``."""
    x = x0 + dx * np.arange(n)
    amps = np.exp(-((x - center) ** 2) / (4.0 * sigma**2) + 1j * momentum * x)
    amps = amps / np.sqrt(np.sum(np.abs(amps) ** 2) * dx)
    return GridWavefunction(amps, dx, x0, mass, leak_tol)


def two_packet_state(
    n: int,
    dx: float,
    x0: float,
    mass: float,
    centers: tuple[float, float],
    sigma: float,
    weights: tuple[float, float] = (0.5, 0.5),
    leak_tol: float = 1e-5,
) -> GridWavefunction:
    """Normalized superposition of two Gaussian packets."""
    x = x0 + dx * np.arange(n)
    amps = np.sqrt(weights[0]) * np.exp(-((x - centers[0]) ** 2) / (4 * sigma**2))
    amps = amps + np.sqrt(weights[1]) * np.exp(
        -((x - centers[1]) ** 2) / (4 * sigma**2)
    )
    amps = amps.astype(complex)
    amps = amps / np.sqrt(np.sum(np.abs(amps) ** 2) * dx)
    return GridWavefunction(amps, dx, x0, mass, leak_tol)
