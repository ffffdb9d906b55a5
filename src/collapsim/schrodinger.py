"""Deterministic Schroedinger propagation on the grid (split-step FFT).

Natural units: hbar = 1.  Free and harmonic Hamiltonians.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .operators import HamiltonianSpec
from .states import GridWavefunction


def _kinetic_phase(psi: GridWavefunction, dt, out: np.ndarray | None = None) -> np.ndarray:
    """exp(-i dt k^2 / 2m) on the grid's wavenumbers: (N,) for one lag,
    cached, read-only and shared; (m, N) for an (m,) array of them, written
    into ``out`` (a view of another array will do) or a fresh array."""
    if np.ndim(dt) != 0:
        return _phase.__wrapped__(psi.n, psi.dx, psi.mass, dt, out)
    phase = _phase(psi.n, psi.dx, psi.mass, dt)
    phase.flags.writeable = False
    return phase


# a hitting run asks for one dt (harmonic), its end time and each exact leakage
# test's time; per-row and per-step arrays are not kept (a hit round reuses its own)
@lru_cache(maxsize=4)
def _phase(n: int, dx: float, mass: float, dt, out: np.ndarray | None = None) -> np.ndarray:
    # k and -k share k^2: exponentiate the n // 2 + 1 values, each operation
    # in place so an array of lags makes no temporary, and mirror them: the
    # same bits as over the whole grid in half the time
    k = 2.0 * np.pi * np.fft.fftfreq(n, dx)[: n // 2 + 1]
    dt = np.asarray(dt)[..., None]
    if out is None:
        out = np.empty(dt.shape[:-1] + (n,), dtype=complex)
    half = out[..., : k.size]
    np.multiply(-0.5j, dt, out=half)
    np.multiply(half, k**2, out=half)
    np.divide(half, mass, out=half)
    np.exp(half, out=half)
    out[..., k.size :] = out[..., n - k.size : 0 : -1]  # index j > n / 2 holds k_{n - j}^2
    return out


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
) -> GridWavefunction:
    """Evolve a grid wavefunction through ``steps`` Strang-split steps.

    Norm is preserved to machine precision (the propagator is a product of
    unitary diagonal factors).  Raises GridLeakageError on grid leakage
    after the evolution.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    if dt == 0 or steps == 0 or h.kind == "none":
        return psi
    amps = psi.amplitudes[None]
    if h.kind == "free":
        amps = np.fft.ifft(np.fft.fft(amps) * _kinetic_phase(psi, dt) ** steps)
    else:  # harmonic
        for _ in range(steps):
            amps = split_step_batch(amps, psi, h, dt)
    out = psi.with_amplitudes(amps[0])
    out.require_contained()
    return out


def split_step_batch(
    amplitudes: np.ndarray,
    template: GridWavefunction,
    h: HamiltonianSpec,
    dt,
    kin: np.ndarray | None = None,
) -> np.ndarray:
    """One split step applied to a (n_traj, N) amplitude block: one ``dt``
    for every row, or an (n_traj,) array of them, one per row.  Given ``kin``
    = ``_kinetic_phase(template, dt)``, free rows are momentum-picture spectra
    fft(U(-t) psi(t)), and the result is ifft(rows kin): one FFT a row."""
    if kin is not None:
        return np.fft.ifft(amplitudes * kin, axis=1)
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
    g = [np.sqrt(w) * np.exp(-((x - c) ** 2) / (4 * sigma**2)) for w, c in zip(weights, centers)]
    amps = (g[0] + g[1]).astype(complex)
    amps = amps / np.sqrt(np.sum(np.abs(amps) ** 2) * dx)
    return GridWavefunction(amps, dx, x0, mass, leak_tol)
