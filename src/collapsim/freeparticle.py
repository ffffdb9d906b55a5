"""Exact ensemble-level consequences of the hitting process for a free
particle: the damped-kernel solution, moment corrections, characteristic
times, off-diagonal lifetimes, rate amplification, and energy increase.

The master kernel and the moment corrections are in natural units
(hbar = 1); the characteristic times and the energy increase take hbar,
which the CGS report sets.
"""

from __future__ import annotations

import numpy as np

from .errors import GridLeakageError
from .params import CollapseParams
from .schrodinger import _kinetic_phase, split_step_batch
from .states import DEFAULT_LEAK_TOL, GridWavefunction, edges_and_peaks

_SQRT_PI = np.sqrt(np.pi)


def damping_time_integral(
    k: np.ndarray, u: np.ndarray, t: float, alpha: float, mass: float
) -> np.ndarray:
    """int_0^t exp(-(alpha/4) (u - k tau / m)^2) dtau, in closed form.

    The integrand is the localization kernel sampled along the free-motion
    characteristic; the antiderivative is an erf difference.
    """
    from scipy.special import erf

    k = np.asarray(k, dtype=float)
    u = np.asarray(u, dtype=float)
    root = 0.5 * np.sqrt(alpha)
    kt_over_m = k * t / mass
    small = np.abs(root * kt_over_m) < 1e-8
    k_safe = np.where(small, 1.0, k)
    upper = erf(root * u)
    lower = erf(root * (u - kt_over_m))
    moving = (mass * _SQRT_PI) / (k_safe * np.sqrt(alpha)) * (upper - lower)
    static = t * np.exp(-0.25 * alpha * u**2)
    return np.where(small, static, moving)


def damping_factor(
    k: np.ndarray, u: np.ndarray, t: float, params: CollapseParams, mass: float
) -> np.ndarray:
    """F(k, u, t) = exp(-lambda t + lambda * time integral).

    Satisfies F(k, 0, t) in (exp(-lambda t), 1] and F(k,u,t) = F(-k,-u,t).
    """
    lam = params.lambda_rate
    integral = damping_time_integral(k, u, t, params.alpha, mass)
    return np.exp(lam * (integral - t))


def _diagonal_indices(n: int) -> np.ndarray:
    rows = np.arange(n)[:, None]
    offsets = np.arange(n)[None, :]
    return (rows - offsets) % n


def evolve_free_master(
    initial: GridWavefunction,
    params: CollapseParams,
    t: float,
) -> np.ndarray:
    """Kernel rho(q', q'') of the hitting master equation for a free
    particle at time t, an (N, N) array on the grid of ``initial`` (its
    trace is sum(diag) * dx).

    Uses the exact representation: Fourier transform of the Schroedinger
    kernel along the center coordinate, multiplied by the damping factor
    F(k, q'-q'', t), and transformed back.  Each wrapped diagonal of the
    kernel is a uniform center-coordinate grid, so the k-integral is an
    FFT per diagonal and the time integral is closed-form.  The
    Schroedinger kernel is that of the freely evolved state, one kinetic
    phase in momentum space; GridLeakageError if that state reaches the
    grid's edge, at t = 0 too.
    """
    mass, dx, n = initial.mass, initial.dx, initial.n
    amps = initial.amplitudes
    if t > 0:  # at t = 0 an FFT round trip would move the identity's bits
        amps = split_step_batch(np.fft.fft(amps)[None], _kinetic_phase(initial, t))[0]
    edge, peak = edges_and_peaks(amps)
    if edge > DEFAULT_LEAK_TOL * peak:
        raise GridLeakageError(f"boundary amplitude {edge:.3e} exceeds {DEFAULT_LEAK_TOL:.1e} "
                               f"of peak {peak:.3e}; enlarge the grid")
    kernel_sch = np.outer(amps, np.conj(amps))

    cols = _diagonal_indices(n)
    diags = kernel_sch[np.arange(n)[:, None], cols]  # [c_index, offset]
    u = initial.wrap_displacement(dx * np.arange(n))  # minimum-image separation
    k = initial.wavenumbers
    f = damping_factor(k[:, None], u[None, :], t, params, mass)
    diags = np.fft.ifft(np.fft.fft(diags, axis=0) * f, axis=0)
    out = np.empty_like(kernel_sch)
    out[np.arange(n)[:, None], cols] = diags
    # enforce exact Hermitian symmetry against roundoff
    return 0.5 * (out + out.conj().T)


def free_particle_moments(
    params: CollapseParams,
    mass: float,
    t: float,
    sch_moments: dict[str, float],
) -> dict[str, float]:
    """Moments of the hitting master evolution from the Schroedinger ones.

    Means are untouched; spreads gain the alpha*lambda corrections
    t^3/(6 m^2), t^2/(4 m), t/2 (position, symmetrized correlation,
    momentum respectively).
    """
    al = params.alpha * params.lambda_rate
    return {
        "q_mean": sch_moments["q_mean"],
        "p_mean": sch_moments["p_mean"],
        "q_var": sch_moments["q_var"] + al * t**3 / (6.0 * mass**2),
        "qp_corr": sch_moments.get("qp_corr", 0.0) + al * t**2 / (4.0 * mass),
        "p_var": sch_moments["p_var"] + al * t / 2.0,
    }


def characteristic_times(
    params: CollapseParams,
    mass: float,
    dq_sch: float,
    dp_sch: float,
    hbar: float = 1.0,
) -> tuple[float, float]:
    """(T1, T2): times over which the spread corrections stay negligible.

    T1 = [6 m^2 dq^2 / (alpha lambda hbar^2)]^(1/3),
    T2 = 2 dp^2 / (alpha lambda hbar^2).
    """
    if not (dq_sch > 0 and dp_sch > 0):
        raise ValueError("spreads must be strictly positive")
    al = params.alpha * params.lambda_rate * hbar**2
    t1 = (6.0 * mass**2 * dq_sch**2 / al) ** (1.0 / 3.0)
    t2 = 2.0 * dp_sch**2 / al
    return t1, t2


def offdiag_damping_beta(q: float, alpha: float) -> float:
    """beta(q) = 1 - sqrt(pi) erf(y)/y with y = (sqrt(alpha)/2) q.

    The bound F < exp(-lambda beta t) controls far off-diagonal elements;
    it is informative only for separations q > 2 sqrt(pi/alpha), below
    which the expression goes negative and beta clamps to zero (the
    trivial bound F <= 1): no uniform damping is claimed there.
    """
    from scipy.special import erf

    if q <= 0:
        raise ValueError("separation q must be positive")
    y = 0.5 * np.sqrt(alpha) * q
    return float(max(1.0 - _SQRT_PI * erf(y) / y, 0.0))


def offdiag_lifetime(q: float, params: CollapseParams) -> float:
    """Lifetime tau = 1/(lambda beta) of the off-diagonal element at
    separation q; infinite below the bound's validity threshold, hence
    diverging as q -> 0."""
    beta = offdiag_damping_beta(q, params.alpha)
    if beta == 0.0:
        return np.inf
    return 1.0 / (params.lambda_rate * beta)


def com_amplified_rate(lambda_micro: float, n_particles: float) -> float:
    """Center-of-mass hitting rate of an N-constituent body: N * lambda."""
    if n_particles < 1:
        raise ValueError("particle count must be >= 1")
    return n_particles * lambda_micro


def energy_increase_rate(
    params: CollapseParams, mass: float, hbar: float = 1.0
) -> float:
    """Mean energy gain per unit time: lambda alpha hbar^2 / (4 m)."""
    if mass <= 0:
        raise ValueError("mass must be positive")
    return params.lambda_rate * params.alpha * hbar**2 / (4.0 * mass)
