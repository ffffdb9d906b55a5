"""Batch experiment implementations behind the CLI.

Each experiment declares its parameters once, in the table its
``@experiment`` decorator registers (type, default or required, bound),
and its engine modules once, as its runner's parameters after
``(p, run)``.  A runner is a generator in two phases.  Up to its first
``yield`` it builds everything the run needs from the config (steppers,
grids, kernels, step counts) and draws no noise; that ``yield`` hands
over the plan's notices.  Resumed, it runs deterministically from the
master seed and yields either a table (CSV) or a record (a dict, JSON).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from collections import namedtuple
from importlib import import_module
from typing import Callable, Iterator

import numpy as np

from .config import MANY, ExperimentConfig, Param, read_params
from .errors import ConfigError, require_memory
from .params import (
    CANONICAL_ALPHA,
    CANONICAL_DENSITY,
    CANONICAL_GAMMA,
    CANONICAL_LAMBDA_MICRO,
    MACRO_PARTICLE_COUNT,
    CollapseParams,
    canonical_qmsl,
)
from .units import ERG_PER_EV, HBAR_CGS, NUCLEON_MASS_G


@dataclass
class TableOutput:
    columns: list[tuple[str, str]]  # (name, unit)
    rows: list[tuple]


POSITIVE = "(0, inf)"
NONNEGATIVE = "[0, inf)"
COUNT = "[1, inf)"
SEED_RANGE = f"[0, {2**64})"

Settings = namedtuple("Settings", "seed trajectories")  # run-level inputs

TABLES: dict[str, tuple[dict[str, Param], int | None, Callable[..., Iterator], tuple]] = {}
"""Experiment name -> (parameter table, default trajectories, runner, engine modules)."""


def experiment(name: str, params: dict[str, Param], trajectories: int | None = None):
    """Register the decorated runner and its parameter table as ``name``.
    The runner's parameters after ``(p, run)`` name the engine modules it
    uses: ``parse_config_text`` loads them and ``plan`` passes them in."""

    def register(runner):
        modules = tuple(inspect.signature(runner).parameters)[2:]
        TABLES[name] = (params, trajectories, runner, modules)
        return runner

    return register


def plan(cfg: ExperimentConfig) -> tuple[list[str], Iterator]:
    """Build the configured run without drawing noise: the plan's notices,
    and the runner paused before its first random draw.

    A malformed config raises ConfigError, also where building a stepper,
    grid, kernel or closed form raises ValueError or ArithmeticError (an
    overflow or a division by zero), or where the run's arrays would not
    fit in memory; a step past the stability limit raises StabilityError.
    """
    table, default_trajectories, runner, modules = TABLES[cfg.experiment]
    p = read_params(cfg, table)
    seed = Param(int, bound=SEED_RANGE).read("seed", cfg.seed)
    engines = (import_module(f".{module}", __package__) for module in modules)
    steps = runner(p, Settings(seed, cfg.trajectories or default_trajectories), *engines)
    try:
        return next(steps) or [], steps
    except ValueError as exc:
        raise ConfigError(f"{cfg.experiment}: {exc}") from exc
    except ArithmeticError as exc:
        raise ConfigError(f"{cfg.experiment}: a closed form fails: {exc}") from exc


def run_experiment(cfg: ExperimentConfig) -> TableOutput | dict:
    """Plan the configured experiment, then run it."""
    return next(plan(cfg)[1])


# ---------------------------------------------------------------- qmsl

_GRID = {
    "n": Param(int),
    "dx": Param(float, bound=POSITIVE),
    "mass": Param(float, bound=POSITIVE),
    "sigma": Param(float, bound=POSITIVE),
    "alpha": Param(float, bound=POSITIVE),
    "lambda": Param(float, bound=POSITIVE),
}
"""Grid and model keys of the two hitting experiments."""


def _hitting_model(p: dict) -> tuple[CollapseParams, list[str]]:
    """The 1D collapse parameters, and a notice when the grid spacing
    under-resolves their localization width."""
    params = CollapseParams(p["lambda"], p["alpha"])
    width = params.localization_width
    notice = f"grid: localization width 1/sqrt(alpha) under-resolved ({width:.3g} < 2*dx)"
    return params, [notice] if width < 2 * p["dx"] else []


@experiment("qmsl-hitting", trajectories=1000, params={
    **_GRID,
    "centers": Param(float, length=2),
    "t_end": Param(float, bound=POSITIVE),
    "dt": Param(float, bound=POSITIVE),
    "record_events": Param(bool, False),
})
def run_qmsl_hitting(p: dict, run: Settings, hitting, schrodinger) -> Iterator:
    n, dx, centers = p["n"], p["dx"], tuple(p["centers"])
    n_traj = 1 if p["record_events"] else run.trajectories
    # the run, the grid's build included, peaks at 176-179 B per grid point
    # for one trajectory and at 24 B per point and trajectory for 256-512
    # (tracemalloc, N = 2^13 to 2^18)
    require_memory(180 * n + 24 * n * n_traj, "the grid and the final states")
    psi0 = schrodinger.two_packet_state(n, dx, -0.5 * n * dx, p["mass"], centers, p["sigma"])
    params, notices = _hitting_model(p)
    hitting.step_count(p["t_end"], p["dt"])
    yield notices
    res = hitting.run_qmsl_ensemble(psi0, params, p["t_end"], n_traj, run.seed, p["dt"])
    if p["record_events"]:
        columns = [("time", "internal"), ("center", "internal length"), ("weight", "1")]
        rows = res.events[:, 1:].tolist()
    else:
        right = psi0.positions > 0.5 * (centers[0] + centers[1])
        # one |psi|^2 dx buffer and one product: a product per tile of rows rounds differently
        mass = np.abs(res.amplitudes)
        right_mass = np.multiply(np.square(mass, out=mass), dx, out=mass) @ right
        columns = [
            ("trajectory", "index"),
            ("hits", "count"),
            ("right_mass", "probability"),
            ("outcome_right", "0/1"),
        ]
        rows = [
            (int(j), int(res.hit_counts[j]), float(right_mass[j]), int(right_mass[j] > 0.5))
            for j in range(run.trajectories)
        ]
    yield TableOutput(columns, rows)


@experiment("qmsl-master", params={
    **_GRID,
    "times": Param(float, bound=NONNEGATIVE, length=MANY),
})
def run_qmsl_master(p: dict, run: Settings, freeparticle, schrodinger) -> Iterator:
    n, dx, mass, sigma = p["n"], p["dx"], p["mass"], p["sigma"]
    params, notices = _hitting_model(p)
    p_var0 = 1.0 / (4.0 * sigma**2)  # of the minimal packet, constant in free flight
    formulas = [  # built with the plan, so an overflowing input is a config error
        freeparticle.free_particle_moments(params, mass, t, {
            "q_mean": 0.0,
            "p_mean": 0.0,
            "q_var": sigma**2 + p_var0 / mass**2 * t**2,
            "qp_corr": p_var0 / mass * t,
            "p_var": p_var0,
        })
        for t in p["times"]
    ]
    # the run peaks at 96 B per kernel entry for one time and at 128 B, with
    # the last time's kernel and p^2 kernel held, for more (tracemalloc, N =
    # 512 and 1024)
    require_memory(128 * n * n, "the master kernels")
    # after the closed forms: a width whose square underflows fails there,
    # as a config error, before the packet divides by it
    psi0 = schrodinger.gaussian_packet(n, dx, -0.5 * n * dx, mass, 0.0, sigma)
    yield notices
    rows = []
    x = psi0.positions
    k = psi0.wavenumbers
    for t, formula in zip(p["times"], formulas):
        rho = freeparticle.evolve_free_master(psi0, params, t)
        diag = np.maximum(np.diag(rho).real, 0.0)
        diag = diag / (diag.sum() * dx)
        q_var = float(dx * diag @ x**2 - (dx * diag @ x) ** 2)
        p2rho = np.fft.ifft((k**2)[:, None] * np.fft.fft(rho, axis=0), axis=0)
        p_var = float(np.trace(p2rho).real * dx)
        rows.append((t, q_var, formula["q_var"], p_var, formula["p_var"]))
    yield TableOutput(
        [
            ("t", "internal time"),
            ("q_var_kernel", "length^2"),
            ("q_var_formula", "length^2"),
            ("p_var_kernel", "momentum^2"),
            ("p_var_formula", "momentum^2"),
        ],
        rows,
    )


# ----------------------------------------------------------------- csl

_STEPPER = {
    "gamma": Param(float, bound=POSITIVE),
    "dt": Param(float, bound=POSITIVE),
    "steps": Param(int, bound=COUNT),
}
"""Keys of the runs driven by one two-level stepper."""

_CSL = {"weights": Param(float, bound=NONNEGATIVE, length=2), **_STEPPER}
"""Keys of the runs that start from a weighted two-level superposition."""


def _weighted_superposition(weights: list[float]) -> np.ndarray:
    """The two-level state whose outcome probabilities are ``weights``."""
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError(f"weights {weights} must sum to 1")
    return np.sqrt(np.array(weights, dtype=complex))


@experiment("csl-born", trajectories=10_000, params={
    **_CSL,
    "per_trajectory": Param(bool, False),
})
def run_csl_born(p: dict, run: Settings, diffusion, operators) -> Iterator:
    """Outcome frequencies with binomial errors or, with ``per_trajectory``,
    one row per trajectory: seed, outcome sector, collapse time, final
    cooked log-weight."""
    weights, dt, steps, n_traj = p["weights"], p["dt"], p["steps"], run.trajectories
    family = operators.ProjectorFamily.two_level()
    psi0 = _weighted_superposition(weights)
    stepper = diffusion.CslStepper(family, p["gamma"], dt, form="nonlinear")
    diffusion.require_ensemble_fits(stepper, steps, n_traj)
    yield
    res = diffusion.run_ensemble(psi0, stepper, steps, n_traj, run.seed, until_decided=True)
    if p["per_trajectory"]:
        columns = [
            ("master_seed", "u64"),
            ("trajectory", "index"),
            ("outcome_sector", "index or -1"),
            ("collapse_time", "internal time or -1"),
            ("final_log_weight", "nats"),
        ]
        rows = [
            (
                run.seed,
                int(j),
                int(res.outcomes[j]),
                float(res.collapse_steps[j] * dt) if res.collapse_steps[j] >= 0 else -1.0,
                float(res.log_weights[j]),
            )
            for j in range(n_traj)
        ]
    else:
        outcomes = np.argmax(family.sector_weights(res.final_states), axis=1)
        counts = np.array([(outcomes == 0).sum(), (outcomes == 1).sum()])
        columns = [
            ("sector", "index"),
            ("frequency", "probability"),
            ("binomial_stderr", "probability"),
            ("expected", "probability"),
        ]
        rows = [
            (sector, f, math.sqrt(w * (1 - w) / n_traj), w)
            for sector, (f, w) in enumerate(zip(counts / n_traj, weights))
        ]
    yield TableOutput(columns, rows)


@experiment("csl-equivalence", trajectories=10_000, params={
    **_CSL,
    "resample_every": Param(int, 100, COUNT),
})
def run_csl_equivalence(p: dict, run: Settings, diffusion, operators) -> Iterator:
    family = operators.ProjectorFamily.two_level()
    psi0 = _weighted_superposition(p["weights"])
    linear, nonlinear = (
        diffusion.CslStepper(family, p["gamma"], p["dt"], form=form)
        for form in ("linear", "nonlinear")
    )
    steps, n_traj, every = p["steps"], run.trajectories, p["resample_every"]
    diffusion.require_ensemble_fits((linear, nonlinear), steps, n_traj, every)
    yield
    # both forms step through the same noise windows
    lin, nonlin = diffusion.run_ensemble(
        psi0, (linear, nonlinear), steps, n_traj, run.seed, resample_every=every
    )
    z = family.sector_weights(lin.final_states)
    w = np.exp(lin.log_weights - lin.log_weights.max())
    w /= w.sum()
    f_lin = float(np.sum(w * (z[:, 0] > 0.5)))
    zn = family.sector_weights(nonlin.final_states)
    f_non = float(np.mean(zn[:, 0] > 0.5))
    yield {
        "linear_cooked_frequency": [f_lin, 1.0 - f_lin],
        "nonlinear_frequency": [f_non, 1.0 - f_non],
        "total_variation_distance": abs(f_lin - f_non),
        "trajectories": n_traj,
    }


@experiment("csl-discrete", trajectories=10_000, params={
    "lambda_eff": Param(float, bound=POSITIVE),
    "dt": _STEPPER["dt"],
    "steps": Param(int, bound="[2, inf)"),  # the rate fit needs two record points
    "occupations_a": Param(int, bound=NONNEGATIVE, length=MANY),
    "occupations_b": Param(int, bound=NONNEGATIVE, length=MANY),
})
def run_csl_discrete(p: dict, run: Settings, colored, diffusion, operators) -> Iterator:
    # one channel per cell, its eigenvalue the cell's occupation number
    occupations = np.stack([p["occupations_a"], p["occupations_b"]])
    family = operators.ProjectorFamily.from_configurations(occupations)
    lam, dt, steps, n_traj = p["lambda_eff"], p["dt"], p["steps"], run.trajectories
    stepper = diffusion.CslStepper(family, lam, dt, form="nonlinear")
    psi0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    diffusion.require_ensemble_fits(stepper, steps, n_traj)
    yield
    every = max(steps // 8, 1)
    z = diffusion.run_ensemble(psi0, stepper, steps, n_traj, run.seed, record_every=every).z_history
    offdiag = np.sqrt(np.maximum(z[..., 0] * z[..., 1], 0.0)).mean(axis=1)  # z: (n_rec, n_traj, 2)
    t_rec = np.arange(1, len(z) + 1) * every * dt
    slope = np.polyfit(t_rec, np.log(offdiag), 1)[0]
    # the white two-sector rate (lambda/2) sum_k (n_k - m_k)^2
    white = colored.CorrelationSpec.white()
    expected = colored.colored_instantaneous_rate(family, white, lam, 0, 1)
    yield {
        "fitted_rate": -float(slope),
        "formula_rate": expected,
        "relative_error": abs(-slope - expected) / expected,
        "trajectories": n_traj,
    }


# --------------------------------------------------------------- other


@experiment("colored-damping", params={
    "kind": Param(str),
    "tau": Param(float, None, POSITIVE),
    "gamma": Param(float, bound=POSITIVE),
    "times": Param(float, bound=NONNEGATIVE, length=MANY),
    "eigenvalues": Param(float, (1.0, -1.0), length=2),
    "kernel": Param(float, None, length=MANY),
})
def run_colored_damping(p: dict, run: Settings, colored, operators) -> Iterator:
    """``kind = custom`` reads ``kernel = lag, value, lag, value, ...``:
    at least two lags, from 0 with uniform positive spacing."""
    needs = "kernel" if p["kind"] == "custom" else "tau"
    if p[needs] is None:
        raise ConfigError(f"kind = {p['kind']} needs {needs}")
    if p["kind"] == "custom":
        if len(p["kernel"]) % 2 or len(p["kernel"]) < 4:
            raise ValueError("kernel takes lag, value pairs, at least two")
        lags, values = np.reshape(p["kernel"], (-1, 2)).T
        gaps = np.diff(lags)
        if lags[0] != 0.0 or not gaps[0] > 0 or np.max(np.abs(gaps - gaps[0])) > 1e-9 * gaps[0]:
            raise ValueError("kernel lags must start at 0 with uniform spacing")
        spec = colored.CorrelationSpec("custom", samples=values, dt=float(gaps[0]))
    else:
        spec = colored.CorrelationSpec(p["kind"], tau=p["tau"])
    gamma = p["gamma"]
    family = operators.ProjectorFamily.two_level(*p["eigenvalues"])
    white = colored.CorrelationSpec.white()
    yield
    rows = []
    rate_stationary = colored.colored_instantaneous_rate(family, spec, gamma, 0, 1, None)
    rate_white = colored.colored_instantaneous_rate(family, white, gamma, 0, 1, None)
    for t in p["times"]:
        rate_from_t0 = colored.colored_instantaneous_rate(family, spec, gamma, 0, 1, t)
        f_col = spec.double_integral(t)
        f_white = white.double_integral(t)
        rows.append((t, rate_from_t0, rate_stationary, rate_white, f_col, f_white))
    yield TableOutput(
        [
            ("t", "internal time"),
            ("rate_from_t0", "1/time"),
            ("rate_stationary", "1/time"),
            ("rate_white", "1/time"),
            ("double_integral", "time"),
            ("double_integral_white", "time"),
        ],
        rows,
    )


@experiment("epr", trajectories=4000, params={
    "gamma": _STEPPER["gamma"],
    "t_end": Param(float, bound=POSITIVE),
    "steps": Param(int, 400, COUNT),
})
def run_epr(p: dict, run: Settings, epr) -> Iterator:
    gamma, t_end, steps = p["gamma"], p["t_end"], p["steps"]
    epr.left_stepper(gamma, t_end, steps)  # the stepper the run builds
    epr.require_epr_fits(run.trajectories, steps)
    yield
    nonlinear = epr.epr_nonlinear_experiment(
        run.trajectories, gamma, t_end, run.seed, steps=steps
    )
    # the linear half keys its streams one seed on
    linear = epr.epr_linear_experiment(run.trajectories, gamma, t_end, (run.seed + 1) % 2**64)
    yield {
        "nonlinear": {
            "p_minus_given_class_detector_off": nonlinear.p_minus_detector_off,
            "p_minus_given_class_detector_on": nonlinear.p_minus_detector_on,
            "class_frequency": nonlinear.class_frequency,
            "conditioning_samples": nonlinear.n_conditioning,
        },
        "linear": {
            "ks_distance": linear.ks_distance,
            "ks_critical_5pct": linear.ks_critical_5pct,
            "marginals_indistinguishable": linear.ks_distance
            < linear.ks_critical_5pct,
        },
    }


@experiment("gisin", trajectories=2000, params=_STEPPER)
def run_gisin(p: dict, run: Settings, diffusion, nosignal, operators) -> Iterator:
    family = operators.ProjectorFamily.two_level()
    stepper = diffusion.CslStepper(family, p["gamma"], p["dt"], form="nonlinear")
    diffusion.require_ensemble_fits(stepper, p["steps"], run.trajectories)
    yield

    def evolve_many(psi0, indices):
        res = diffusion.run_ensemble(
            psi0, stepper, p["steps"], len(indices), run.seed,
            traj_offset=int(indices[0]),
        )
        return res.final_states, np.zeros(len(indices))

    report = nosignal.gisin_check(*nosignal.here_there_mixtures(), evolve_many, run.trajectories)
    yield {
        "frobenius_distance": report.distance,
        "monte_carlo_band_1sigma": report.band,
        "passed_within_3sigma": report.passed,
        "trajectories_per_ensemble": run.trajectories,
    }


@experiment("rates-report", params={
    "lambda": Param(float, CANONICAL_LAMBDA_MICRO, POSITIVE),
    "alpha": Param(float, CANONICAL_ALPHA, POSITIVE),
    "gamma": Param(float, CANONICAL_GAMMA, POSITIVE),
    "density": Param(float, CANONICAL_DENSITY, POSITIVE),
    "n_out": Param(float, 1e13, POSITIVE),
    "n_macro": Param(float, MACRO_PARTICLE_COUNT, POSITIVE),
    "mass": Param(float, 1e-23, POSITIVE),
    "separation": Param(float, 4e-5, POSITIVE),
})
def run_rates_report(p: dict, run: Settings, freeparticle, macrobody, rates, refdata) -> Iterator:
    lam, alpha, gamma, density = p["lambda"], p["alpha"], p["gamma"], p["density"]
    n_out, n_macro, mass, separation = p["n_out"], p["n_macro"], p["mass"], p["separation"]
    micro = CollapseParams(lam, alpha)
    lam_macro = freeparticle.com_amplified_rate(lam, n_macro)
    macro = CollapseParams(lam_macro, alpha)
    t1, t2 = freeparticle.characteristic_times(macro, 1.0, 1e-5, 1.0, hbar=HBAR_CGS)
    record = {  # built with the plan, so an overflowing input is a config error
        "inputs": {
            "lambda_micro_per_s": lam,
            "alpha_per_cm2": alpha,
            "gamma_cm3_per_s": gamma,
            "density_per_cm3": density,
            "n_out": n_out,
            "n_macro": n_macro,
            "mass_g": mass,
            "separation_cm": separation,
        },
        "offdiag_lifetime_s": freeparticle.offdiag_lifetime(separation, macro),
        "lambda_macro_per_s": lam_macro,
        "energy_increase_eV_per_s": freeparticle.energy_increase_rate(micro, mass, hbar=HBAR_CGS)
        / ERG_PER_EV,
        "t1_spread_time_s": t1,
        "t2_spread_time_s": t2,
        "macro_reduction_rate_per_s": macrobody.macro_reduction_rate(gamma, density, n_out),
        "momentum_diffusion_cgs_per_cm2": macrobody.momentum_diffusion(
            gamma, alpha, density, 1.0, HBAR_CGS
        ),
        "excitation_rate_atom_per_s": rates.excitation_rate_qmsl(micro, 1e8),
        "excitation_rate_nucleus_per_s": rates.excitation_rate_qmsl(micro, 1e12),
        "localization_decoherence_rate_per_cm2_s": rates.localization_decoherence_rate(micro),
        "localization_table_reference_per_cm2_s": refdata.LOCALIZATION_TABLE_DELTA_REFERENCE,
        "diosi_rate_per_s": rates.diosi_rate(1.0, 1.0, 1e-5),
        "condenser_decay_rate_per_s": macrobody.condenser_decay_rate(micro),
    }
    yield
    yield record


@experiment("decoherence-table", params={})
def run_decoherence_table(p: dict, run: Settings, rates, refdata) -> Iterator:
    yield
    rows = []
    for source in refdata.load_decoherence_sources():
        if source.reference_only:
            rows.append((source.name, "", "", source.tau_reference, "", "reference-only"))
            continue
        tau, delta = rates.decoherence_rates(source)
        rows.append(
            (
                source.name,
                source.flux,
                source.cross_section,
                tau,
                delta,
                source.provenance,
            )
        )
    loc_params = canonical_qmsl()
    rows.append(
        (
            "Spontaneous localization",
            "",
            "",
            1.0 / loc_params.lambda_rate,
            rates.localization_decoherence_rate(loc_params),
            "alpha*lambda/2 identity",
        )
    )
    yield TableOutput(
        [
            ("source", "name"),
            ("flux", "1/(cm^2 s)"),
            ("cross_section", "cm^2"),
            ("tau", "s"),
            ("delta", "1/(cm^2 s)"),
            ("provenance", "tag"),
        ],
        rows,
    )


@experiment("mass-profile", params={
    "scenario": Param(str),
    "n_particles": Param(int, 100, NONNEGATIVE),
    "n_cells": Param(int, 2, COUNT),
    "tail_weight": Param(float, 1e-8, "[0, 1]"),
})
def run_mass_profile(p: dict, run: Settings, massdensity) -> Iterator:
    scenario, n_particles, n_cells = p["scenario"], p["n_particles"], p["n_cells"]
    other = min(1, n_cells - 1)
    m0 = NUCLEON_MASS_G
    # the profile and its written table peak at 280 B per cell (tracemalloc
    # over cli.run, n_cells = 1e4 to 1e6)
    require_memory(280 * n_cells, "the profile's cells")
    # computed with the plan, so an overflowing count is a config error
    if scenario == "product":
        means, variances = massdensity.product_profile(n_particles, (0, other), n_cells, m0)
    elif scenario in ("superposed", "tails", "micro"):
        amps = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        if scenario == "tails":
            beta_sq = p["tail_weight"]
            amps = np.array([np.sqrt(1 - beta_sq), np.sqrt(beta_sq)], dtype=complex)
        occupations = np.zeros((2, n_cells))
        occupations[0, 0] = occupations[1, other] = 1 if scenario == "micro" else n_particles
        means, variances = massdensity.configuration_profile(amps, occupations, m0)
    else:
        raise ConfigError(f"unknown scenario {scenario!r}")
    yield
    ratios, accessible = massdensity.accessibility_ratio(means, variances)
    rows = [
        (
            i,
            means[i],
            variances[i],
            "" if np.isnan(ratios[i]) else ratios[i],
            int(bool(accessible[i])),
        )
        for i in range(n_cells)
    ]
    yield TableOutput(
        [
            ("cell", "index"),
            ("mean_mass", "g"),
            ("variance", "g^2"),
            ("ratio", "1"),
            ("accessible", "0/1"),
        ],
        rows,
    )


RUNNERS = dict.fromkeys(TABLES, run_experiment)
"""Experiment name -> function running it from a config."""
