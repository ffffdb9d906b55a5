"""Reduction dynamics driven by general Gaussian (non-white) noises.

Stationary correlation kernels (white, gaussian, exponential, custom
sampled) drive the same commuting coupling families as the white theory;
the exactly solvable regime ([H, A_i] = 0 or H disregarded) admits a
closed exponential propagator with the kernel's double time integral in
the drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cooking import linear_exact_commuting
from .noise import wiener_increment_block
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
            gram = self.gram(samples.size)
            if np.linalg.eigvalsh(gram).min() < _PSD_TOL:
                raise ValueError("custom kernel is not positive semidefinite")

    @classmethod
    def white(cls) -> "CorrelationSpec":
        return cls("white")

    @classmethod
    def gaussian(cls, tau: float) -> "CorrelationSpec":
        return cls("gaussian", tau=tau)

    @classmethod
    def exponential(cls, tau: float) -> "CorrelationSpec":
        return cls("exponential", tau=tau)

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

    def gram(self, steps: int) -> np.ndarray:
        """Covariance matrix D(t_j - t_k) on the step grid (unit gamma)."""
        if self.kind == "custom":
            lags = self.dt * np.arange(steps)
        else:
            raise ValueError("gram() is for custom kernels; others are closed-form")
        return _toeplitz(self.kernel(lags))

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


def colored_increment_block(
    spec: CorrelationSpec,
    master_seed: int,
    traj_indices,
    steps: int,
    channels: int,
    gamma: float,
    dt: float,
) -> np.ndarray:
    """Discretized Gaussian paths with covariance gamma * D for a batch of
    trajectories, shape (steps, n, channels).

    Row j is built from the standard normals of stream ``traj_indices[j]``
    (``wiener_increment_block`` at unit variance); white kernels are the
    Wiener increments themselves.  Exponential kernels use the exact AR(1)
    recursion started from the stationary distribution; gaussian/custom
    kernels use one Cholesky factor of the Gram matrix for the whole batch.
    The block holds w(t_k) * dt so downstream integrals read uniformly.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if spec.kind == "white":
        return wiener_increment_block(master_seed, traj_indices, steps, channels, gamma, dt)
    w = wiener_increment_block(master_seed, traj_indices, steps, channels, 1.0, 1.0)
    if spec.kind == "exponential":
        rho = np.exp(-dt / spec.tau)
        stationary_sd = np.sqrt(gamma / (2 * spec.tau))
        innov_sd = stationary_sd * np.sqrt(1 - rho**2)
        w[0] *= stationary_sd
        for k in range(1, steps):
            w[k] = rho * w[k - 1] + innov_sd * w[k]
    else:
        lags = dt * np.arange(steps)
        gram = gamma * _toeplitz(spec.kernel(lags))
        gram[np.diag_indices(steps)] += 1e-12 * gram[0, 0]
        w = (np.linalg.cholesky(gram) @ w.reshape(steps, -1)).reshape(w.shape)
    w *= dt
    return w


def colored_damping_factor(
    family: ProjectorFamily,
    spec: CorrelationSpec,
    gamma: float,
    t0: float,
    t: float,
    sector_a: int,
    sector_b: int,
) -> float:
    """Off-diagonal damping of <alpha|rho(t)|beta> in the H-disregarded
    regime: exp[-(gamma/2) sum_i (a_i - b_i)^2 f(t - t0)] with f the
    kernel's double integral.  Diagonal sectors are exactly invariant.
    """
    if sector_a == sector_b:
        return 1.0
    diff = family.eigenvalues[sector_a] - family.eigenvalues[sector_b]
    f_val = spec.double_integral(t - t0)
    return float(np.exp(-0.5 * gamma * float(diff @ diff) * f_val))


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


def run_commuting_nonwhite_ensemble(
    psi0: np.ndarray,
    family: ProjectorFamily,
    spec: CorrelationSpec,
    gamma: float,
    t_end: float,
    steps: int,
    master_seed: int,
    n_traj: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Colored ensemble in the H-disregarded regime.

    The per-step exponential updates compose exactly, so each trajectory
    is one update with its total integrated noise x(T) (the sum of its
    rows of ``colored_increment_block``, trajectory j on stream j) and the
    kernel's full double integral f(T); the raw average of the squared
    norm is conserved up to the path-sampling discretization alone.

    Returns (final normalized states (n, d), cooked log-weights (n,)).
    """
    block = colored_increment_block(
        spec, master_seed, np.arange(n_traj), steps, family.channel_count, gamma,
        t_end / steps,
    )
    return linear_exact_commuting(
        psi0, family, block.sum(axis=0), gamma, spec.double_integral(t_end)
    )
