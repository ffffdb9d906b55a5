"""Continuous stochastic localization steppers on finite states.

Four formulations: {linear, nonlinear} x {Ito, Stratonovich}, all driven
by the same white-noise convention <<dB_i dB_j>> = gamma delta_ij dt.
Ito steps are Euler-Maruyama; Stratonovich steps use the Heun
(midpoint predictor-corrector) scheme.  Linear forms track the cooked
weight log||psi||^2 in log space and keep the stored state normalized;
nonlinear forms renormalize every step to absorb discretization residue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StabilityError
from .noise import trajectory_generator, wiener_increment_block
from .operators import ProjectorFamily

STABILITY_LIMIT = 0.01
"""Maximum allowed gamma * max|a|^2 * dt for the explicit steppers."""

REDUCTION_COMPLETE_TOL = 1e-6
"""A trajectory counts as collapsed onto sector sigma when
z_sigma >= 1 - REDUCTION_COMPLETE_TOL (reduction is asymptotic)."""


@dataclass(frozen=True)
class CslStepper:
    """Configured stochastic stepper for one operator family.

    Parameters
    ----------
    family : ProjectorFamily
        Commuting self-adjoint coupling operators (index-set sectors).
    gamma : float
        Noise coupling; increments have variance gamma*dt per channel.
    dt : float
        Step size; must satisfy gamma * max|a|^2 * dt <= 0.01.
    form : {"linear", "nonlinear"}
    calculus : {"ito", "stratonovich"}
    """

    family: ProjectorFamily
    gamma: float
    dt: float
    form: str = "nonlinear"
    calculus: str = "ito"

    def __post_init__(self) -> None:
        if self.form not in ("linear", "nonlinear"):
            raise ValueError("form must be 'linear' or 'nonlinear'")
        if self.calculus not in ("ito", "stratonovich"):
            raise ValueError("calculus must be 'ito' or 'stratonovich'")
        if not (0 < self.gamma < np.inf and 0 < self.dt < np.inf):
            raise ConfigError(
                f"gamma = {self.gamma} and dt = {self.dt} must be finite and positive"
            )
        a_max = float(np.max(np.abs(self.family.eigenvalues)))
        # written so that a NaN product fails the test too
        if not self.gamma * a_max**2 * self.dt <= STABILITY_LIMIT:
            raise StabilityError(
                f"gamma*max|a|^2*dt = {self.gamma * a_max**2 * self.dt:.3g} "
                f"exceeds the stability criterion {STABILITY_LIMIT}"
            )
        object.__setattr__(self, "_table", self.family.basis_eigenvalues())
        object.__setattr__(
            self, "_a_sq_sum", np.sum(self._table**2, axis=0)  # type: ignore
        )

    # ---- single-state API --------------------------------------------

    def step(
        self,
        psi: np.ndarray,
        db: np.ndarray,
        h_matrix: np.ndarray | None = None,
    ) -> tuple[np.ndarray, float]:
        """Advance one step.  Returns (normalized state, d log||psi||^2).

        The weight increment is zero by construction for nonlinear forms.
        """
        batch_psi = psi[None, :]
        batch_db = np.atleast_2d(db)
        out, dlog = self.step_batch(batch_psi, batch_db, h_matrix)
        return out[0], float(dlog[0])

    # ---- batched API --------------------------------------------------

    def step_batch(
        self,
        psis: np.ndarray,
        dbs: np.ndarray,
        h_matrix: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance a (n, d) block of normalized states by one step."""
        if self.form == "linear":
            new = self._step_linear(psis, dbs, h_matrix)
        else:
            new = self._step_nonlinear(psis, dbs, h_matrix)
        norm_sq = np.sum(np.abs(new) ** 2, axis=1)
        new = new / np.sqrt(norm_sq)[:, None]
        if self.form == "linear":
            return new, np.log(norm_sq)
        return new, np.zeros(psis.shape[0])

    def _ham_term(self, psis: np.ndarray, h_matrix: np.ndarray | None) -> np.ndarray:
        if h_matrix is None:
            return 0.0
        return -1j * (psis @ h_matrix.T)

    def _step_linear(self, psis, dbs, h_matrix):
        table = self._table  # (channels, d)
        noise = dbs @ table  # (n, d)
        if self.calculus == "ito":
            drift = -0.5 * self.gamma * self._a_sq_sum
            return psis + (
                self._ham_term(psis, h_matrix) * self.dt
                + (noise + drift[None, :] * self.dt) * psis
            )
        # Stratonovich drift for self-adjoint couplings: -gamma A^2 dt
        def rhs(chi):
            return (
                self._ham_term(chi, h_matrix) * self.dt
                + (noise - self.gamma * self._a_sq_sum[None, :] * self.dt) * chi
            )

        k1 = rhs(psis)
        k2 = rhs(psis + k1)
        return psis + 0.5 * (k1 + k2)

    def _step_nonlinear(self, psis, dbs, h_matrix):
        table = self._table

        def centered(chi):
            prob = np.abs(chi) ** 2
            prob = prob / prob.sum(axis=1, keepdims=True)
            r = prob @ table.T  # (n, channels) channel means
            noise = dbs @ table - np.sum(dbs * r, axis=1, keepdims=True)
            # sum_i (a_i - R_i)^2 per basis index
            quad = (
                self._a_sq_sum[None, :]
                - 2.0 * (r @ table)
                + np.sum(r**2, axis=1, keepdims=True)
            )
            return prob, r, noise, quad

        if self.calculus == "ito":
            _, _, noise, quad = centered(psis)
            return psis + (
                self._ham_term(psis, h_matrix) * self.dt
                + (noise - 0.5 * self.gamma * quad * self.dt) * psis
            )

        def rhs(chi):
            prob, r, noise, quad = centered(chi)
            # Stratonovich form adds gamma (<A^2> - <A>^2) counterterm
            q_sq = prob @ (table**2).T
            spread = np.sum(q_sq - r**2, axis=1, keepdims=True)
            return (
                self._ham_term(chi, h_matrix) * self.dt
                + (noise - self.gamma * quad * self.dt) * chi
                + self.gamma * spread * self.dt * chi
            )

        k1 = rhs(psis)
        k2 = rhs(psis + k1)
        return psis + 0.5 * (k1 + k2)


@dataclass
class EnsembleResult:
    """Trajectory ensemble summary.

    ``outcomes[k]`` is the sector a trajectory collapsed onto (z >= 1-1e-6)
    or -1 if still undecided; ``collapse_steps`` likewise (-1 = never).
    ``mean_density`` averages |phi><phi| with cooked weights (linear form)
    or uniformly (nonlinear form), i.e. the physical-ensemble density.
    """

    final_states: np.ndarray
    log_weights: np.ndarray
    outcomes: np.ndarray
    collapse_steps: np.ndarray
    mean_density: np.ndarray
    z_history: np.ndarray | None = None
    history_steps: np.ndarray | None = None


def run_ensemble(
    psi0: np.ndarray,
    stepper: CslStepper,
    steps: int,
    n_traj: int,
    master_seed: int,
    h_matrix: np.ndarray | None = None,
    chunk: int = 4096,
    record_every: int | None = None,
    resample_every: int | None = None,
    traj_offset: int = 0,
) -> EnsembleResult:
    """Vectorized trajectory ensemble with per-trajectory noise streams.

    For the linear form the returned density is the raw average of the
    unnormalized projectors (equivalently the cooked-weighted average of
    the normalized ones); for the nonlinear form it is the plain average.

    ``resample_every`` (linear form only) applies the cooked reweighting
    sequentially: every that many steps the ensemble is multinomially
    resampled by the accumulated weights, which keeps the paths in the
    cooked-typical region; the reweighting prescription commutes with
    being applied at intermediate times.  Each slot keeps its own noise
    stream (slot i draws from stream ``traj_offset + i``, as trajectory i
    does without resampling), so the run stays deterministic and
    order-independent.  It records no z history, so ``record_every`` is
    rejected there.
    """
    if resample_every is not None:
        if stepper.form != "linear":
            raise ValueError("sequential resampling applies to the linear form")
        if record_every is not None:
            raise ValueError("the resampled runner records no z history")
        return _run_linear_resampled(
            psi0, stepper, steps, n_traj, master_seed, h_matrix, resample_every,
            traj_offset,
        )
    psi0 = np.asarray(psi0, dtype=complex)
    dim = psi0.shape[0]
    channels = stepper.family.channel_count
    final = np.empty((n_traj, dim), dtype=complex)
    logw = np.zeros(n_traj)
    outcomes = np.full(n_traj, -1, dtype=int)
    collapse_steps = np.full(n_traj, -1, dtype=int)
    density = np.zeros((dim, dim), dtype=complex)
    n_rec = 0 if record_every is None else steps // record_every
    z_hist = (
        np.zeros((n_rec, n_traj, stepper.family.n_sectors))
        if record_every
        else None
    )
    rec_steps = (
        np.arange(1, n_rec + 1) * record_every if record_every else None
    )

    for start in range(0, n_traj, chunk):
        idx = np.arange(start, min(start + chunk, n_traj))
        m = len(idx)
        block = wiener_increment_block(
            master_seed, idx + traj_offset, steps, channels, stepper.gamma, stepper.dt
        )
        psis = np.tile(psi0, (m, 1))
        lw = np.zeros(m)
        done = np.full(m, -1, dtype=int)
        for k in range(steps):
            psis, dlog = stepper.step_batch(psis, block[k], h_matrix)
            lw += dlog
            if record_every and (k + 1) % record_every == 0:
                z_hist[(k + 1) // record_every - 1, idx] = (
                    stepper.family.sector_weights(psis)
                )
            if (k + 1) % 16 == 0 or k == steps - 1:
                z = stepper.family.sector_weights(psis)
                newly = (done < 0) & (z.max(axis=1) >= 1.0 - REDUCTION_COMPLETE_TOL)
                done[newly] = k + 1
        final[idx] = psis
        logw[idx] = lw
        z = stepper.family.sector_weights(psis)
        top = np.argmax(z, axis=1)
        decided = z.max(axis=1) >= 1.0 - REDUCTION_COMPLETE_TOL
        outcomes[idx[decided]] = top[decided]
        collapse_steps[idx] = done
        if stepper.form == "linear":
            w = np.exp(lw)
            density += (psis * w[:, None]).T @ psis.conj()
        else:
            density += psis.T @ psis.conj()
    if stepper.form == "linear":
        density /= np.exp(logw).sum()
    else:
        density /= n_traj
    return EnsembleResult(
        final, logw, outcomes, collapse_steps, density, z_hist, rec_steps
    )


def _run_linear_resampled(
    psi0: np.ndarray,
    stepper: CslStepper,
    steps: int,
    n_traj: int,
    master_seed: int,
    h_matrix: np.ndarray | None,
    resample_every: int,
    traj_offset: int,
) -> EnsembleResult:
    from .cooking import systematic_resample

    psi0 = np.asarray(psi0, dtype=complex)
    channels = stepper.family.channel_count
    psis = np.tile(psi0, (n_traj, 1))
    logw = np.zeros(n_traj)
    scale = np.sqrt(stepper.gamma * stepper.dt)
    # persistent per-slot streams: resampled descendants keep consuming
    # their slot's stream, so the run is reproducible and chunk-free
    rngs = [trajectory_generator(master_seed, traj_offset + i) for i in range(n_traj)]
    k = 0
    while k < steps:
        take = min(resample_every - (k % resample_every), steps - k)
        block = np.empty((take, n_traj, channels))
        for j, rng in enumerate(rngs):
            block[:, j, :] = rng.normal(0.0, scale, size=(take, channels))
        for s in range(take):
            psis, dlog = stepper.step_batch(psis, block[s], h_matrix)
            logw += dlog
        k += take
        if k % resample_every == 0 and k < steps:
            picked = systematic_resample(logw, (master_seed * 2654435761 + k) % 2**63)
            psis = psis[picked]
            logw[:] = 0.0
    z = stepper.family.sector_weights(psis)
    top = np.argmax(z, axis=1)
    decided = z.max(axis=1) >= 1.0 - REDUCTION_COMPLETE_TOL
    outcomes = np.where(decided, top, -1)
    w = np.exp(logw - logw.max())
    w = w / w.sum()
    density = (psis * w[:, None]).T @ psis.conj()
    return EnsembleResult(
        psis, logw, outcomes, np.full(n_traj, -1), density, None, None
    )


# ---- the linear-but-Hermitian contrast model -------------------------


def hermitian_phase_noise_ensemble(
    psi0: np.ndarray,
    family: ProjectorFamily,
    gamma: float,
    dt: float,
    steps: int,
    n_traj: int,
    master_seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian white-noise coupling: random sector phases, no reduction.

    Each sector amplitude picks up exp(-i theta_sigma) with independent
    Brownian phases of variance gamma*t.  Returns (mean density, sector
    weights z per trajectory): z is exactly constant path-by-path while
    the ensemble off-diagonals damp at rate gamma, the ensemble-only
    ("apparent") collapse this model demonstrates.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    n_sec = family.n_sectors
    table = np.zeros((n_sec, psi0.shape[0]))
    for sigma, idx in enumerate(family.sectors):
        table[sigma, np.atleast_1d(idx).ravel()] = 1.0
    density = np.zeros((psi0.shape[0],) * 2, dtype=complex)
    z_all = np.empty((n_traj, n_sec))
    for j in range(n_traj):
        rng = trajectory_generator(master_seed, j)
        theta = rng.normal(0.0, np.sqrt(gamma * dt), size=(steps, n_sec)).sum(axis=0)
        phase = np.exp(-1j * (theta @ table))
        psi = psi0 * phase
        density += np.outer(psi, psi.conj())
        z_all[j] = family.sector_weights(psi)
    return density / n_traj, z_all
