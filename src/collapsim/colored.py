"""Reduction dynamics driven by general Gaussian (non-white) noises.

Stationary correlation kernels (white, gaussian, exponential, custom
sampled) drive the same commuting coupling families as the white theory.
In the exactly solvable regime ([H, A_i] = 0 or H disregarded) the
off-diagonal damping of two sectors follows from the kernel's time
integrals alone: its exponent grows with the double integral, its rate
with the single one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        Kernel sampled on the simulation step grid: ``samples[k]`` is
        D(k * dt); positive semidefiniteness is verified at construction.
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
            if np.linalg.eigvalsh(_toeplitz(samples)).min() < _PSD_TOL:
                raise ValueError("custom kernel is not positive semidefinite")

    @classmethod
    def white(cls) -> "CorrelationSpec":
        return cls("white")

    @classmethod
    def custom(cls, samples: np.ndarray, dt: float) -> "CorrelationSpec":
        return cls("custom", samples=samples, dt=dt)

    @classmethod
    def from_csv(cls, path: str) -> "CorrelationSpec":
        """Custom kernel from ``lag,value`` CSV rows, lags 0, dt, 2 dt, ..."""
        rows = np.loadtxt(path, delimiter=",", comments="#")
        if rows.ndim != 2 or rows.shape[1] != 2:
            raise ValueError(f"kernel file {path!r} must have lag,value columns")
        lags, values = rows[:, 0], rows[:, 1]
        gaps = np.diff(lags)
        if lags[0] != 0.0 or np.max(np.abs(gaps - gaps[0])) > 1e-9 * gaps[0]:
            raise ValueError("kernel lags must start at 0 with uniform spacing")
        return cls.custom(values, float(gaps[0]))

    def kernel(self, lag: np.ndarray) -> np.ndarray:
        """D at the given lags (white noise has no pointwise kernel)."""
        s = np.abs(np.asarray(lag, dtype=float))
        if self.kind == "gaussian":
            return np.exp(-(s**2) / (2 * self.tau**2)) / (
                np.sqrt(2 * np.pi) * self.tau
            )
        if self.kind == "exponential":
            return np.exp(-s / self.tau) / (2 * self.tau)
        if self.kind == "custom":
            idx = np.rint(s / self.dt).astype(int)
            out = np.zeros_like(s)
            valid = idx < self.samples.shape[0]
            out[valid] = self.samples[idx[valid]]
            return out
        raise ValueError("white kernel is distributional; use integrals")

    def double_integral(self, t_span: float) -> float:
        """f(T) = double integral of D over [0, T]^2; the variance growth
        of the integrated noise (per unit gamma).

        White: T.  Gaussian: T erf(T / sqrt(2) tau) - tau sqrt(2/pi)
        (1 - exp(-T^2/2 tau^2)).  Exponential: T - tau (1 - exp(-T/tau)).
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
        # custom: cumulative Gram sum on its own grid
        steps = int(round(t_span / self.dt))
        gram = _toeplitz(self.kernel(self.dt * np.arange(max(steps, 1))))
        return float(gram[:steps, :steps].sum()) * self.dt**2

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
        steps = int(round(t_span / self.dt))
        return float(self.kernel(self.dt * np.arange(steps)).sum() * self.dt)


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
