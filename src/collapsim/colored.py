"""Reduction dynamics driven by general Gaussian (non-white) noises.

Stationary correlation kernels (white, gaussian, exponential, or custom:
samples D(k dt) given inline in the config) drive the same commuting
coupling families as the white theory.  In the exactly solvable regime
([H, A_i] = 0 or H disregarded) the off-diagonal damping of two sectors
follows from the kernel's time integrals alone: its exponent grows with
the double integral, its rate with the single one.  Both integrals of a
custom kernel are sums over its samples, O(K) for K samples at any T.
The white stationary rate (gamma/2) sum_i (a_i - b_i)^2 is also the
discrete cell model's: for a cell-occupation family the a_i are the
occupation numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import require_memory
from .operators import ProjectorFamily

_PSD_TOL = -1e-8


@dataclass(frozen=True)
class CorrelationSpec:
    """Stationary, symmetric, normalized noise correlation kernel D(t1-t2).

    Kinds
    -----
    white
        D = delta(t1 - t2).
    gaussian
        D(s) = exp(-s^2 / 2 tau^2) / (sqrt(2 pi) tau).
    exponential
        D(s) = exp(-|s| / tau) / (2 tau).
    custom
        Kernel sampled on a uniform grid: ``samples[k]`` is D(k * dt), and
        D vanishes past the last sample; positive semidefiniteness is
        verified at construction.
    """

    kind: str
    tau: float = 0.0
    samples: np.ndarray | None = None
    dt: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("white", "gaussian", "exponential", "custom"):
            raise ValueError(f"unknown correlation kind {self.kind!r}")
        if self.kind in ("gaussian", "exponential") and not self.tau > 0:
            raise ValueError("correlation time must be positive")
        if self.kind == "custom":
            if self.samples is None or not self.dt > 0:
                raise ValueError("custom kernels need samples and dt")
            samples = np.asarray(self.samples, dtype=float)
            object.__setattr__(self, "samples", samples)
            # the Toeplitz matrix, its index table and eigvalsh's copy
            require_memory(32 * samples.size**2, "the kernel's Toeplitz matrix")
            if np.linalg.eigvalsh(_toeplitz(samples)).min() < _PSD_TOL:
                raise ValueError("custom kernel is not positive semidefinite")

    @classmethod
    def white(cls) -> "CorrelationSpec":
        return cls("white")

    def double_integral(self, t_span: float) -> float:
        """f(T) = double integral of D over [0, T]^2; the variance growth
        of the integrated noise (per unit gamma).

        White: T.  Gaussian: T erf(T / sqrt(2) tau) - tau sqrt(2/pi)
        (1 - exp(-T^2/2 tau^2)).  Exponential: T - tau (1 - exp(-T/tau)).
        Custom: the sum of the S x S Toeplitz matrix of the samples, S =
        round(T/dt), in O(K): dt^2 [S D_0 + 2 sum_{k=1}^{min(S,K)-1} (S-k) D_k].
        Where S, dt^2 or the sum leaves the float range, the same sum is
        taken as S dt (dt D_0) + 2 sum (S dt - k dt) (dt D_k), with S dt =
        T past the largest float S: of the factors, dt D_k is O(1) for a
        normalized kernel, and the others are times.
        """
        t_span = float(t_span)
        if t_span < 0:
            raise ValueError("t_span must be nonnegative")
        if self.kind == "white":
            return t_span
        if self.kind == "gaussian":
            from scipy.special import erf

            value = t_span * float(erf(t_span / (np.sqrt(2) * self.tau))) + (
                self.tau * np.sqrt(2 / np.pi) * np.expm1(-(t_span**2) / (2 * self.tau**2))
            )
            return max(value, 0.0)
        if self.kind == "exponential":
            return max(t_span + self.tau * np.expm1(-t_span / self.tau), 0.0)
        steps = np.rint(t_span / self.dt)
        k = np.arange(1, int(min(steps, self.samples.size)))
        with np.errstate(over="ignore"):
            total = steps * self.samples[0] + 2.0 * (steps - k) @ self.samples[k]
        if np.isfinite(total) and self.dt**2 >= np.finfo(float).tiny:
            return float(total) * self.dt**2
        span = steps * self.dt if np.isfinite(steps) else t_span
        weights = self.samples * self.dt
        return float(span * weights[0] + 2.0 * ((span - k * self.dt) @ weights[k]))

    def single_integral(self, t_span: float) -> float:
        """int_0^T D(s) ds; approaches 1/2 for T >> tau (stationary limit)."""
        t_span = float(t_span)
        if self.kind == "white":
            return 0.5
        if self.kind == "gaussian":
            from scipy.special import erf

            return 0.5 * float(erf(t_span / (np.sqrt(2) * self.tau)))
        if self.kind == "exponential":
            return 0.5 * (1.0 - np.exp(-t_span / self.tau))
        steps = int(min(np.rint(t_span / self.dt), self.samples.size))
        return float(self.samples[:steps].sum() * self.dt)


def _toeplitz(first_row: np.ndarray) -> np.ndarray:
    n = first_row.shape[0]
    idx = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    return first_row[idx]


def colored_instantaneous_rate(
    family: ProjectorFamily,
    spec: CorrelationSpec,
    gamma: float,
    sector_a: int,
    sector_b: int,
    t_since_start: float | None = None,
) -> float:
    """d/dt of the damping exponent: gamma sum (a-b)^2 int_{t0}^t D(t-s) ds.

    ``t_since_start = None`` means t0 = -infinity (stationary limit), where
    every normalized kernel reproduces the white rate (gamma/2) sum (a-b)^2.
    """
    with np.errstate(over="ignore"):  # an infinite rate is the caller's to report
        diff = family.eigenvalues[sector_a] - family.eigenvalues[sector_b]
        quad = float(diff @ diff)
    if t_since_start is None:
        return 0.5 * gamma * quad
    return gamma * quad * spec.single_integral(t_since_start)
