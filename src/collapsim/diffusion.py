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
from .noise import fill_block, require_memory, trajectory_generator, wiener_increment_block
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
        table = self.family.basis_eigenvalues()  # (channels, d)
        # plain floats: rows of the table, its columns, and its squares
        object.__setattr__(self, "_rows", table.tolist())
        object.__setattr__(self, "_cols", table.T.tolist())
        object.__setattr__(self, "_rows_sq", (table**2).tolist())
        object.__setattr__(self, "_a_sq_sum", np.sum(table**2, axis=0).tolist())

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
        """Advance a (n, d) block of normalized states by one step.

        The step works on the d basis columns and the channel columns of
        ``dbs``, one 1-D array each: sums over basis indices and channels
        are column additions in the order numpy reduces a row.  Real rows
        stay real when there is no Hamiltonian.  The result is a
        column-major (n, d) array.
        """
        chi = [psis[:, j] for j in range(psis.shape[1])]
        db = [dbs[:, i] for i in range(dbs.shape[1])]
        if self.form == "linear":
            new = self._step_linear(chi, db, h_matrix)
        else:
            new = self._step_nonlinear(chi, db, h_matrix)
        norm_sq = _row_sum([_abs2(col) for col in new])
        inv = 1.0 / np.sqrt(norm_sq)  # complex / real divides this way too
        out = np.empty((len(new), len(norm_sq)), dtype=new[0].dtype).T
        for j, col in enumerate(new):
            np.multiply(col, inv, out=out[:, j])
        if self.form == "linear":
            return out, np.log(norm_sq)
        return out, np.zeros(len(norm_sq))

    def _with_ham(self, chi: list, h_matrix: np.ndarray | None, terms: list) -> list:
        """-i H psi dt + terms, column by column; the terms alone without a
        Hamiltonian."""
        if h_matrix is None:
            return terms
        ham = -1j * (np.stack(chi, axis=1) @ h_matrix.T) * self.dt
        return [ham[:, j] + t for j, t in enumerate(terms)]

    def _euler(self, chi: list, h_matrix: np.ndarray | None, factors: list) -> list:
        """psi + (-i H psi dt + factor psi), column by column."""
        terms = [f * x for f, x in zip(factors, chi)]
        return [x + t for x, t in zip(chi, self._with_ham(chi, h_matrix, terms))]

    @staticmethod
    def _heun(chi: list, rhs) -> list:
        """psi + (k1 + k2)/2 with k1 = rhs(psi), k2 = rhs(psi + k1)."""
        k1 = rhs(chi)
        k2 = rhs([x + k for x, k in zip(chi, k1)])
        return [x + 0.5 * (a + b) for x, a, b in zip(chi, k1, k2)]

    def _step_linear(self, chi, db, h_matrix):
        gamma, dt = self.gamma, self.dt
        noise = [_combine(db, col) for col in self._cols]
        if self.calculus == "ito":
            factors = [z + (-0.5 * gamma * a * dt) for z, a in zip(noise, self._a_sq_sum)]
            return self._euler(chi, h_matrix, factors)
        # Stratonovich drift for self-adjoint couplings: -gamma A^2 dt
        factors = [z - gamma * a * dt for z, a in zip(noise, self._a_sq_sum)]
        return self._heun(
            chi, lambda x: self._with_ham(x, h_matrix, [f * c for f, c in zip(factors, x)])
        )

    def _centered(self, chi, db):
        """Probabilities and channel means r_i = <A_i> of each row, the
        centered noise sum_i (a_i - r_i) dB_i and the quadratic term
        sum_i (a_i - r_i)^2, the last two per basis column."""
        sq = [_abs2(x) for x in chi]
        total = _row_sum(sq)
        prob = [s / total for s in sq]
        r = [_combine(prob, row) for row in self._rows]
        db_r = _row_sum([b * m for b, m in zip(db, r)])
        r_sq = _row_sum([m * m for m in r])
        noise = [_combine(db, col) - db_r for col in self._cols]
        quad = [
            a - 2.0 * _combine(r, col) + r_sq
            for a, col in zip(self._a_sq_sum, self._cols)
        ]
        return prob, r, noise, quad

    def _step_nonlinear(self, chi, db, h_matrix):
        gamma, dt = self.gamma, self.dt
        if self.calculus == "ito":
            _, _, noise, quad = self._centered(chi, db)
            factors = [z - 0.5 * gamma * q * dt for z, q in zip(noise, quad)]
            return self._euler(chi, h_matrix, factors)

        def rhs(x):
            prob, r, noise, quad = self._centered(x, db)
            # Stratonovich form adds gamma (<A^2> - <A>^2) counterterm
            spread = _row_sum(
                [_combine(prob, row) - m * m for row, m in zip(self._rows_sq, r)]
            )
            gain = gamma * spread * dt
            terms = [(z - gamma * q * dt) * c for z, q, c in zip(noise, quad, x)]
            terms = self._with_ham(x, h_matrix, terms)
            return [t + gain * c for t, c in zip(terms, x)]

        return self._heun(chi, rhs)


def _abs2(col: np.ndarray) -> np.ndarray:
    """|x|^2 as numpy computes np.abs(x)**2 (x*x for real x)."""
    return col * col if col.dtype.kind == "f" else np.abs(col) ** 2


def _row_sum(cols: list) -> np.ndarray:
    """Sum of the columns in the order numpy reduces a row of them: left
    to right below eight, pairwise from eight on."""
    if len(cols) >= 8:
        return np.stack(cols, axis=1).sum(axis=1)
    total = cols[0]
    for col in cols[1:]:
        total = total + col
    return total


def _combine(cols: list, coeffs: list) -> np.ndarray:
    """sum_j coeffs[j] * cols[j], left to right (a row times a column of
    the eigenvalue table); coefficients 0 and +-1 cost no product."""
    total = None
    for col, a in zip(cols, coeffs):
        if a == 0.0:
            continue
        term = col if a in (1.0, -1.0) else a * col
        if total is None:
            total = -term if a == -1.0 else term
        else:
            total = total - term if a == -1.0 else total + term
    return np.zeros_like(cols[0]) if total is None else total


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


CHUNK = 4096
"""Trajectories per noise block in ``run_ensemble``."""


def require_ensemble_fits(
    stepper: CslStepper, steps: int, n_traj: int, chunk: int = CHUNK
) -> None:
    """Raise ValueError when the noise block of one chunk and the final
    states of ``run_ensemble`` would not fit in this machine's memory."""
    family = stepper.family
    nbytes = 8 * steps * min(chunk, n_traj) * family.channel_count
    require_memory(nbytes + 16 * n_traj * family.dim, "the noise block and the states")


def _initial_rows(psi0: np.ndarray, h_matrix: np.ndarray | None) -> np.ndarray:
    """psi0 as float64 when it is real and there is no Hamiltonian (every
    step then multiplies amplitudes by real factors), else complex."""
    psi0 = np.asarray(psi0)
    if h_matrix is None and not np.any(np.imag(psi0)):
        return np.real(psi0).astype(float)
    return psi0.astype(complex)


def _check_finite(z: np.ndarray, logw: np.ndarray, step: int) -> None:
    """Raise StabilityError when an amplitude (seen through the sector
    weights of its normalized row) or a log-weight is NaN or infinite."""
    if not (np.isfinite(z).all() and np.isfinite(logw).all()):
        raise StabilityError(f"amplitudes or log-weights not finite at step {step}")


def run_ensemble(
    psi0: np.ndarray,
    stepper: CslStepper,
    steps: int,
    n_traj: int,
    master_seed: int,
    h_matrix: np.ndarray | None = None,
    chunk: int | None = None,
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
    order-independent.  It records no z history and holds every slot at
    once, so ``record_every`` and ``chunk`` are rejected there; otherwise
    ``chunk`` (default ``CHUNK``) trajectories are stepped at a time.

    Every 16 steps (after every window when resampling) a NaN or infinite
    amplitude or log-weight raises StabilityError.
    """
    if resample_every is not None:
        if stepper.form != "linear":
            raise ValueError("sequential resampling applies to the linear form")
        if record_every is not None:
            raise ValueError("the resampled runner records no z history")
        if chunk is not None:
            raise ValueError(
                "the resampled runner steps every slot at once and takes no chunk"
            )
        return _run_linear_resampled(
            psi0, stepper, steps, n_traj, master_seed, h_matrix, resample_every,
            traj_offset,
        )
    psi0 = _initial_rows(psi0, h_matrix)
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

    chunk = CHUNK if chunk is None else chunk
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
                _check_finite(z, lw, k + 1)
                newly = (done < 0) & (z.max(axis=1) >= 1.0 - REDUCTION_COMPLETE_TOL)
                done[newly] = k + 1
        final[idx] = psis
        rows = final[start : start + m]  # complex, row-major: the layout sets BLAS's sums
        logw[idx] = lw
        z = stepper.family.sector_weights(rows)
        top = np.argmax(z, axis=1)
        decided = z.max(axis=1) >= 1.0 - REDUCTION_COMPLETE_TOL
        outcomes[idx[decided]] = top[decided]
        collapse_steps[idx] = done
        if stepper.form == "linear":
            w = np.exp(lw)
            density += (rows * w[:, None]).T @ rows.conj()
        else:
            density += rows.T @ rows.conj()
        del block  # so that the next chunk's block is not drawn beside it
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

    psi0 = _initial_rows(psi0, h_matrix)
    channels = stepper.family.channel_count
    psis = np.tile(psi0, (n_traj, 1))
    logw = np.zeros(n_traj)
    scale = np.sqrt(stepper.gamma * stepper.dt)
    # persistent per-slot streams: resampled descendants keep consuming
    # their slot's stream, so the run is reproducible and chunk-free
    rngs = [trajectory_generator(master_seed, traj_offset + i) for i in range(n_traj)]
    block = np.empty((min(resample_every, steps), n_traj, channels))  # one window
    k = 0
    while k < steps:
        take = min(resample_every - (k % resample_every), steps - k)
        fill_block(block[:take], rngs, scale)
        for s in range(take):
            psis, dlog = stepper.step_batch(psis, block[s], h_matrix)
            logw += dlog
        k += take
        _check_finite(stepper.family.sector_weights(psis), logw, k)
        if k % resample_every == 0 and k < steps:
            picked = systematic_resample(logw, (master_seed * 2654435761 + k) % 2**63)
            psis = psis[picked]
            logw[:] = 0.0
    psis = np.ascontiguousarray(psis, dtype=complex)  # the layout sets BLAS's sums
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
