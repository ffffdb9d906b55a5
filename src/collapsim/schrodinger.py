"""Deterministic free Schroedinger propagation on the grid (FFT).

Natural units: hbar = 1.  The free particle, the only Hamiltonian of the
hitting process here: its propagator is the kinetic phase exp(-i t k^2 / 2m),
one diagonal factor in momentum space.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

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


# a hitting run asks for its end time and each exact leakage test's time;
# per-row and per-step arrays are not kept (a hit round reuses its own)
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


def split_step_evolve(psi: GridWavefunction, dt: float) -> GridWavefunction:
    """Evolve a grid wavefunction freely over a time ``dt``.

    Norm is preserved to machine precision (the propagator is a unitary
    diagonal factor in momentum space).  Raises GridLeakageError on grid
    leakage after the evolution.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    if dt == 0:
        return psi
    amps = np.fft.ifft(np.fft.fft(psi.amplitudes) * _kinetic_phase(psi, dt))
    out = psi.with_amplitudes(amps)
    out.require_contained()
    return out


def split_step_batch(spectra: np.ndarray, kin: np.ndarray) -> np.ndarray:
    """Free flight of a (n_traj, N) block of momentum-picture spectra
    fft(U(-t) psi(t)) to the lags of ``kin`` = ``_kinetic_phase(template,
    lag)``, one for every row or one row per row: ifft(spectra kin), one
    FFT a row."""
    return np.fft.ifft(spectra * kin, axis=1)


def gaussian_packet(
    n: int,
    dx: float,
    x0: float,
    mass: float,
    center: float,
    sigma: float,
    momentum: float = 0.0,
) -> GridWavefunction:
    """Normalized minimal Gaussian packet: position spread ``sigma``."""
    x = x0 + dx * np.arange(n)
    amps = np.exp(-((x - center) ** 2) / (4.0 * sigma**2) + 1j * momentum * x)
    amps = amps / np.sqrt(np.sum(np.abs(amps) ** 2) * dx)
    return GridWavefunction(amps, dx, x0, mass)


def two_packet_state(
    n: int,
    dx: float,
    x0: float,
    mass: float,
    centers: tuple[float, float],
    sigma: float,
    weights: tuple[float, float] = (0.5, 0.5),
) -> GridWavefunction:
    """Normalized superposition of two Gaussian packets."""
    x = x0 + dx * np.arange(n)
    g = [np.sqrt(w) * np.exp(-((x - c) ** 2) / (4 * sigma**2)) for w, c in zip(weights, centers)]
    amps = (g[0] + g[1]).astype(complex)
    amps = amps / np.sqrt(np.sum(np.abs(amps) ** 2) * dx)
    return GridWavefunction(amps, dx, x0, mass)
