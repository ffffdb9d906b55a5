"""Deterministic free Schroedinger propagation on the grid (FFT).

Natural units: hbar = 1.  The free particle, the only Hamiltonian of the
hitting process here: its propagator is the kinetic phase exp(-i t k^2 / 2m),
one diagonal factor in momentum space.
"""

from __future__ import annotations

import numpy as np

from .states import GridWavefunction


def _kinetic_phase(psi: GridWavefunction, lag, out: np.ndarray | None = None) -> np.ndarray:
    """exp(-i lag k^2 / 2m) on the grid's wavenumbers: (N,) for one lag,
    (m, N) for an (m,) array of them, written into ``out`` (a view of
    another array will do) or a fresh array."""
    # k and -k share k^2: exponentiate the n // 2 + 1 values, each operation
    # in place so an array of lags makes no temporary, and mirror them: the
    # same bits as over the whole grid in half the time
    n = psi.n
    k = 2.0 * np.pi * np.fft.fftfreq(n, psi.dx)[: n // 2 + 1]
    lag = np.asarray(lag)[..., None]
    if out is None:
        out = np.empty(lag.shape[:-1] + (n,), dtype=complex)
    half = out[..., : k.size]
    np.multiply(-0.5j, lag, out=half)
    np.multiply(half, k**2, out=half)
    np.divide(half, psi.mass, out=half)
    np.exp(half, out=half)
    out[..., k.size :] = out[..., n - k.size : 0 : -1]  # index j > n / 2 holds k_{n - j}^2
    return out


def split_step_batch(spectra: np.ndarray, kin: np.ndarray, out=None) -> np.ndarray:
    """Free flight of a (n_traj, N) block of momentum-picture spectra
    fft(U(-t) psi(t)) to the lags of ``kin`` = ``_kinetic_phase(template,
    lag)``, one for every row or one row per row: ifft(spectra kin), one
    FFT a row, written into ``out`` (``spectra`` itself will do) or a
    fresh array."""
    out = np.multiply(spectra, kin, out=out)
    return np.fft.ifft(out, axis=1, out=out)


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
