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

from .cooking import GaussianMixture1D, linear_exact_commuting
from .errors import DimensionMismatchError, NonCommutingError
from .noise import NoisePath, sample_wiener, trajectory_generator
from .operators import ProjectorFamily

DEFAULT_TEMPORAL_WIDTH = 9e20
"""Suggested inverse-squared correlation-time scale (s^-2): the squared
speed of light times the canonical inverse localization area.  A
documented default, not a model requirement."""

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


def sample_colored_path(
    spec: CorrelationSpec,
    steps: int,
    dt: float,
    gamma: float,
    master_seed: int,
    traj_index: int = 0,
    channels: int = 1,
) -> NoisePath:
    """Discretized Gaussian path with covariance gamma * D.

    White kernels fall back to Wiener increments.  Exponential kernels use
    the exact AR(1) recursion started from the stationary distribution;
    gaussian/custom kernels use a Cholesky factor of the Gram matrix.
    ``increments`` holds w(t_k) * dt so downstream integrals read uniformly.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if spec.kind == "white":
        return sample_wiener(master_seed, steps, channels, gamma, dt, traj_index)
    rng = trajectory_generator(master_seed, traj_index)
    if spec.kind == "exponential":
        rho = np.exp(-dt / spec.tau)
        stationary_sd = np.sqrt(gamma / (2 * spec.tau))
        w = np.empty((steps, channels))
        w[0] = rng.normal(0.0, stationary_sd, size=channels)
        innov_sd = stationary_sd * np.sqrt(1 - rho**2)
        for k in range(1, steps):
            w[k] = rho * w[k - 1] + rng.normal(0.0, innov_sd, size=channels)
    else:
        lags = dt * np.arange(steps)
        gram = gamma * _toeplitz(spec.kernel(lags))
        gram[np.diag_indices(steps)] += 1e-12 * gram[0, 0]
        chol = np.linalg.cholesky(gram)
        w = chol @ rng.normal(size=(steps, channels))
    return NoisePath(
        master_seed, traj_index, dt, gamma, w * dt, kind=f"colored:{spec.kind}"
    )


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
    diff = family.eigenvalues[sector_a] - family.eigenvalues[sector_b]
    quad = float(diff @ diff)
    if t_since_start is None:
        return 0.5 * gamma * quad
    return gamma * quad * spec.single_integral(t_since_start)


def colored_cooked_density(
    weights: tuple[float, float],
    eigenvalues: tuple[float, float],
    gamma: float,
    f_value: float,
):
    """Cooked density of the integrated noise x(t): Gaussian mixture with
    means 2 a gamma f(t), 2 b gamma f(t) and variance gamma f(t)."""
    if f_value < 0:
        raise ValueError("f(t) must be nonnegative")
    a, b = eigenvalues
    return GaussianMixture1D(
        (float(weights[0]), float(weights[1])),
        (2.0 * gamma * a * f_value, 2.0 * gamma * b * f_value),
        gamma * f_value,
    )


def commuting_nonwhite_step(
    psi: np.ndarray,
    family: ProjectorFamily,
    path_increment: np.ndarray,
    gamma: float,
    spec: CorrelationSpec,
    f_increment: float,
    h_matrix: np.ndarray | None = None,
    dt: float = 0.0,
) -> tuple[np.ndarray, float]:
    """Exact exponential update over one step of the solvable regime.

    Each sector amplitude is multiplied by
    exp(a_sigma . dx - gamma |a_sigma|^2 df), where dx is the integrated
    noise increment over the step and df the increment of the kernel's
    double integral.  Requires H = 0 or [H, A_i] = 0; a commuting matrix
    Hamiltonian is applied as its own exact unitary factor over ``dt``.

    Returns (normalized state, log||psi||^2 increment).
    """
    dx = np.atleast_1d(np.asarray(path_increment, dtype=float))
    if dx.shape[0] != family.channel_count:
        raise DimensionMismatchError("one increment per channel required")
    if h_matrix is not None:
        h = np.asarray(h_matrix, dtype=complex)
        for a in family.channel_matrices():
            if np.max(np.abs(h @ a - a @ h)) > 1e-10:
                raise NonCommutingError(
                    "colored dynamics with non-commuting Hamiltonian has no "
                    "closed solution; refusing to approximate silently"
                )
    out, log_norm_sq = linear_exact_commuting(psi, family, dx, gamma, f_increment)
    if h_matrix is not None and dt > 0:
        from scipy.linalg import expm

        out = expm(-1j * h * dt) @ out
    return out, log_norm_sq


def run_commuting_nonwhite(
    psi0: np.ndarray,
    family: ProjectorFamily,
    spec: CorrelationSpec,
    gamma: float,
    t_end: float,
    steps: int,
    master_seed: int,
    traj_index: int = 0,
) -> tuple[np.ndarray, float]:
    """Full H-disregarded colored trajectory; returns (state, log-weight).

    The per-step exponential updates compose exactly, so the run is one
    update with the total integrated noise x(T) and the kernel's full
    double integral f(T); the raw average of the squared norm is conserved
    up to the path-sampling discretization alone.
    """
    dt = t_end / steps
    path = sample_colored_path(spec, steps, dt, gamma, master_seed, traj_index)
    return linear_exact_commuting(
        psi0, family, path.increments.sum(axis=0), gamma, spec.double_integral(t_end)
    )


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
    """Vectorized colored ensemble (single channel, H disregarded).

    Returns (final normalized states (n, d), cooked log-weights (n,)).
    Trajectory j draws its path from the (master_seed, j) stream exactly
    like the single-path runner.
    """
    if family.channel_count != 1:
        raise DimensionMismatchError("ensemble runner supports one channel")
    dt = t_end / steps
    x_total = np.empty(n_traj)
    if spec.kind == "exponential":
        rho = np.exp(-dt / spec.tau)
        sd = np.sqrt(gamma / (2 * spec.tau))
        innov = sd * np.sqrt(1 - rho**2)
        draws = np.empty((n_traj, steps))
        for j in range(n_traj):
            draws[j] = trajectory_generator(master_seed, j).normal(size=steps)
        w = sd * draws[:, 0]
        x_sum = w.copy()
        for k in range(1, steps):
            w = rho * w + innov * draws[:, k]
            x_sum += w
        x_total = x_sum * dt
    else:
        for j in range(n_traj):
            path = sample_colored_path(spec, steps, dt, gamma, master_seed, j)
            x_total[j] = path.increments.sum()
    return linear_exact_commuting(
        psi0, family, x_total[:, None], gamma, spec.double_integral(t_end)
    )
