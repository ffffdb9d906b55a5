"""Continuous stochastic localization ensembles on finite states.

Two forms, linear and nonlinear, both Ito equations driven by the
white-noise convention <<dB_i dB_j>> = gamma delta_ij dt.  The nonlinear
form, with or without a Hamiltonian, takes Euler-Maruyama steps and
renormalizes every step to absorb discretization residue.  The linear
form has no Hamiltonian and commuting couplings, so it takes the exact
update by summed increments (``cooking.linear_exact_commuting``), which
keeps the stored state normalized and the cooked weight log||psi||^2 in
log space.  The engines return final states and log-weights; the
ensemble's density is ``states.ensemble_density`` of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
from numpy.lib.mixins import NDArrayOperatorsMixin

from .cooking import linear_exact_commuting, systematic_resample
from .errors import ConfigError, StabilityError
from .noise import require_memory, wiener_increment_block
from .operators import ProjectorFamily
from .states import ensemble_density

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
        Only a nonlinear stepper steps (``step_batch``); ``run_ensemble``
        updates a linear one exactly.
    """

    family: ProjectorFamily
    gamma: float
    dt: float
    form: str = "nonlinear"

    def __post_init__(self) -> None:
        if self.form not in ("linear", "nonlinear"):
            raise ValueError("form must be 'linear' or 'nonlinear'")
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
        # plain floats: rows of the table, its columns, and its column sums of squares
        object.__setattr__(self, "_rows", table.tolist())
        object.__setattr__(self, "_cols", table.T.tolist())
        object.__setattr__(self, "_a_sq_sum", np.sum(table**2, axis=0).tolist())

    def step_batch(self, psis: np.ndarray, dbs: np.ndarray, ws: StepWorkspace) -> np.ndarray:
        """Advance a (n, d) block of normalized states by one nonlinear step
        through the workspace ``ws`` made for this stepper, its Hamiltonian
        and n rows.  Returns the column-major (n, d) states: a slab of the
        workspace, overwritten two steps later.

        The step works on the d basis columns and the channel columns of
        ``dbs``, one 1-D array each: sums over basis indices and channels
        are column additions in the order numpy reduces a row.  Real rows
        stay real when there is no Hamiltonian.  The step allocates nothing.
        """
        if ws.stepper is not self:
            raise ValueError("the workspace was made for another stepper")
        side = 1 if psis is ws.slabs[1] else 0
        if psis is not ws.slabs[side]:
            if psis.shape != ws.slabs[0].shape:
                raise ValueError(f"the workspace steps {ws.slabs[0].shape} rows, not {psis.shape}")
            np.copyto(ws.slabs[0], psis)
        np.copyto(ws.db.T, dbs)
        for fn, args in ws.programs[side]:
            fn(*args)
        return ws.slabs[1 - side]

    def _factors(self, chi: list, db: list) -> list:
        """Per basis column, the factor f of the step psi -> psi + f psi:
        the centered noise sum_i (a_i - r_i) dB_i less gamma sum_i (a_i -
        r_i)^2 dt / 2, with r_i = <A_i> of each row."""
        gamma, dt = self.gamma, self.dt
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
        return [z - 0.5 * gamma * q * dt for z, q in zip(noise, quad)]

    def _step(self, chi: list, db: list, h_matrix: np.ndarray | None) -> list:
        """psi + (-i H psi dt + f psi), column by column, with (H psi)_j
        summed left to right, so each row's bits do not depend on how many
        rows step with it; psi + f psi without a Hamiltonian."""
        terms = [f * x for f, x in zip(self._factors(chi, db), chi)]
        if h_matrix is not None:
            ham = [-1j * _combine(chi, row) * self.dt for row in h_matrix.tolist()]
            terms = [h + t for h, t in zip(ham, terms)]
        return [x + t for x, t in zip(chi, terms)]


class StepWorkspace:
    """Buffers and the recorded step with which ``CslStepper.step_batch``
    advances as many rows as ``psis`` has under ``h_matrix`` without
    allocating (real rows if they are real and there is no Hamiltonian).
    Its caller holds it for one run; no stepper keeps it.  A linear
    stepper has no workspace: it is updated exactly, not stepped.

    The step's code runs once, on ``_Col`` columns, recorded as a fixed
    list of numpy calls that write through ``out``: the same operations
    in the same order as on arrays, so the same bits.  A step reads one
    of two (d, n) slabs and writes the other, so the list is linked both
    ways round, and the input rows are never overwritten mid-step.
    """

    def __init__(self, stepper: CslStepper, psis: np.ndarray, h_matrix=None) -> None:
        if stepper.form == "linear":
            raise ValueError("the linear form takes the exact update, not an Euler step")
        d, n = stepper.family.dim, psis.shape[0]
        dtype = float if h_matrix is None and psis.dtype.kind == "f" else complex
        self.stepper, self.n, self.calls, self.sums = stepper, n, [], {}
        self.slabs = tuple(np.empty((d, n), dtype).T for _ in range(2))
        self.db = np.empty((stepper.family.channel_count, n))
        src, dst = (slab.T for slab in self.slabs)  # row j of a (d, n) slab is column j
        chi = [_Col(self, dtype, pair) for pair in zip(src, dst)]
        db = [_Col(self, float, (row, row)) for row in self.db]
        new = stepper._step(chi, db, h_matrix)
        norm_sq = _row_sum([_abs2(col) for col in new])
        inv = 1.0 / np.sqrt(norm_sq)  # complex / real divides this way too
        for col, x, y in zip(new, src, dst):
            np.multiply(col, inv, out=_Col(self, dtype, (y, x)))
        self.programs = self._link()

    def _link(self) -> list:
        """The recorded calls on arrays, reading slab 0, then slab 1.  A
        scratch column gets a buffer when it is written, and gives it up
        at its last reader, whose own result may then reuse it in place.
        The reuse keeps the step in cache: with one buffer per scratch
        column, the nonlinear Ito step on 4096 two-level rows took 108-133
        against 80-108 us on one Xeon core."""
        last = {id(c): k for k, (_, args) in enumerate(self.calls) for c in args}
        free = {}
        for k, (_, (*ins, out)) in enumerate(self.calls):
            for c in ins:
                if isinstance(c, _Col) and c.scratch and last[id(c)] == k:
                    free.setdefault(c.dtype, []).append(c.arrays[0])
                    last[id(c)] = None  # a column read twice is freed once
            if isinstance(out, _Col) and out.arrays is None:
                pool = free.setdefault(out.dtype, [])
                out.arrays = (pool.pop() if pool else np.empty(self.n, out.dtype),) * 2
        return [
            [(fn, tuple(x.arrays[side] if isinstance(x, _Col) else x for x in args))
             for fn, args in self.calls]
            for side in (0, 1)
        ]


class _Col(NDArrayOperatorsMixin):
    """A column of n values while a step is recorded: a ufunc called on
    it, through an operator too, is appended to its workspace's calls and
    returns the column for the result.  ``arrays`` are its arrays when the
    step reads slab 0 and slab 1; a scratch column's are set by linking."""

    def __init__(self, ws: StepWorkspace, dtype, arrays: tuple | None = None) -> None:
        self.ws, self.dtype, self.arrays, self.scratch = ws, np.dtype(dtype), arrays, arrays is None

    def __array_ufunc__(self, ufunc, method, *inputs, out=None):
        if method != "__call__":
            return NotImplemented
        if out is None:
            kinds = [getattr(x, "dtype", type(x)) for x in inputs]  # numpy scalars too
            out = (_Col(self.ws, ufunc.resolve_dtypes((*kinds, None))[-1]),)
        self.ws.calls.append((ufunc, (*inputs, out[0])))
        return out[0]


def _abs2(col):
    """|x|^2 as numpy computes np.abs(x)**2 (x*x for real x)."""
    return col * col if col.dtype.kind == "f" else np.square(np.abs(col))


def _row_sum(cols: list):
    """Sum of the columns in the order numpy reduces a row of them: left
    to right below eight, pairwise from eight on."""
    if len(cols) >= 8:
        ws, key = cols[0].ws, (len(cols), cols[0].dtype)
        # one (n, width) buffer per width and dtype: each sum ends before the next
        rows = ws.sums.setdefault(key, np.empty((ws.n, len(cols)), cols[0].dtype))
        total = _Col(ws, rows.dtype)
        # copies, as np.stack makes, then numpy's pairwise sum of each row
        ws.calls += [(np.positive, (col, rows[:, j])) for j, col in enumerate(cols)]
        ws.calls.append((np.add.reduce, (rows, 1, None, total)))
        return total
    total = cols[0]
    for col in cols[1:]:
        total = total + col
    return total


def _combine(cols: list, coeffs: list):
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
    if total is None:  # a column of zeros that no step writes
        zero = np.zeros(cols[0].ws.n, cols[0].dtype)
        total = _Col(cols[0].ws, zero.dtype, (zero, zero))
    return total


@dataclass
class EnsembleResult:
    """Trajectory ensemble summary.

    ``outcomes[k]`` is the sector a trajectory collapsed onto (z >= 1-1e-6)
    or -1 if still undecided; ``collapse_steps`` likewise (-1 = never).
    The physical-ensemble density is ``states.ensemble_density`` of the
    final states, weighted by exp(log_weights) for the linear form.
    """

    final_states: np.ndarray
    log_weights: np.ndarray
    outcomes: np.ndarray
    collapse_steps: np.ndarray
    z_history: np.ndarray | None = None
    history_steps: np.ndarray | None = None


CHUNK = 4096
"""Trajectories per noise block in ``run_ensemble`` when it does not
resample; a trajectory's bits do not depend on it, but for a lone linear row
with many channels, whose ``x @ table`` may take another BLAS kernel."""


def _shared_noise(stepper) -> tuple:
    """The steppers of one ``run_ensemble`` call as a tuple; they step
    through the same increments, so gamma, dt and channels must agree."""
    steppers = stepper if isinstance(stepper, tuple) else (stepper,)
    keys = {(s.gamma, s.dt, s.family.channel_count) for s in steppers}
    if len(keys) != 1:
        raise ValueError("steppers sharing a noise need one gamma, dt and channel count")
    return steppers


def require_ensemble_fits(
    stepper, steps: int, n_traj: int, resample_every: int | None = None
) -> None:
    """Raise ValueError when the noise window of ``run_ensemble`` (one
    chunk, or every trajectory when resampling) and the final states of
    each of its ensembles would not fit in this machine's memory."""
    steppers = _shared_noise(stepper)
    window = steps if resample_every is None else min(resample_every, steps)
    chunk = min(CHUNK, n_traj) if resample_every is None else n_traj
    nbytes = 8 * window * chunk * steppers[0].family.channel_count
    nbytes += 16 * n_traj * sum(s.family.dim for s in steppers)
    require_memory(nbytes, "the noise window and the states")


def _initial_rows(psi0: np.ndarray, h_matrix: np.ndarray | None) -> np.ndarray:
    """psi0 as float64 when it is real and there is no Hamiltonian (every
    step then multiplies amplitudes by real factors), else complex."""
    psi0 = np.asarray(psi0)
    if h_matrix is None and not np.any(np.imag(psi0)):
        return np.real(psi0).astype(float)
    return psi0.astype(complex)


def _sector_rows(family: ProjectorFamily, cols: np.ndarray) -> np.ndarray:
    """``family.sector_weights``, as (n_sectors, n), of the rows whose basis
    columns are the rows of ``cols`` (a slab's contiguous rows, so no
    gather): the same squares, summed left to right as it sums them."""
    return np.array([sum(_abs2(cols[j]) for j in idx) for idx in family.sectors])


def _check_finite(z: np.ndarray, logw: np.ndarray, step: int) -> None:
    """Raise StabilityError when an amplitude (seen through the sector
    weights of its normalized row) or a log-weight is NaN or infinite."""
    if not (np.isfinite(z).all() and np.isfinite(logw).all()):
        raise StabilityError(f"amplitudes or log-weights not finite at step {step}")


class _Ensemble:
    """One stepper's trajectories in ``run_ensemble``: the chunk in flight
    (states, log-weights, collapse steps) and the result it fills."""

    def __init__(self, stepper: CslStepper, psi0: np.ndarray, steps: int,
                 n_traj: int, record_every: int | None, h_matrix) -> None:
        self.stepper, self.psi0, self.every = stepper, psi0, record_every
        self.h_matrix, self.ws = h_matrix, None
        n_rec, dim = (steps // record_every if record_every else 0), psi0.shape[0]
        self.res = EnsembleResult(
            np.empty((n_traj, dim), dtype=complex),
            np.zeros(n_traj),
            np.full(n_traj, -1, dtype=int),
            np.full(n_traj, -1, dtype=int),
            np.zeros((n_rec, n_traj, stepper.family.n_sectors)) if record_every else None,
            np.arange(1, n_rec + 1) * record_every if record_every else None,
        )

    def start(self, m: int) -> None:
        self.psis, self.lw = np.tile(self.psi0, (m, 1)), np.zeros(m)
        self.done = np.full(m, -1, dtype=int)
        if self.stepper.form != "linear" and (self.ws is None or self.ws.n != m):
            self.ws = StepWorkspace(self.stepper, self.psis, self.h_matrix)

    def advance(self, block: np.ndarray, k0: int, idx: np.ndarray) -> None:
        """Take the chunk through ``block``, whose first row is step k0 + 1,
        a segment at a time: one exact update by the summed increments for
        the linear form, nonlinear steps one by one.  Segments end
        at record steps, where z is recorded, and every 16 steps and at the
        block's end, where finiteness is checked and collapses marked."""
        stepper, fam, every, lw = self.stepper, self.stepper.family, self.every, self.lw
        ends = [s for s in range(1, len(block) + 1) if (k0 + s) % 16 == 0
                or s == len(block) or (every and (k0 + s) % every == 0)]
        for s0, s in zip([0] + ends, ends):
            if stepper.form == "linear":
                # summed in step order, as numpy sums a batch (pairwise for one row)
                x, f = reduce(np.add, block[s0:s]), (s - s0) * stepper.dt
                self.psis, dlog = linear_exact_commuting(self.psis, fam, x, stepper.gamma, f)
                lw += dlog
            else:
                for db in block[s0:s]:
                    self.psis = stepper.step_batch(self.psis, db, self.ws)
            k, z = k0 + s, _sector_rows(fam, self.psis.T)
            if every and k % every == 0:
                self.res.z_history[k // every - 1, idx] = z.T
            if k % 16 == 0 or s == len(block):
                _check_finite(z, lw, k)
                newly = (self.done < 0) & (np.max(z, axis=0) >= 1.0 - REDUCTION_COMPLETE_TOL)
                self.done[newly] = k

    def resample(self, master_seed: int, k: int) -> None:
        """Cooked reweighting at step k: descendants take their ancestor's
        state and collapse step, and every log-weight restarts at zero."""
        picked = systematic_resample(self.lw, master_seed, k)
        self.psis, self.done = self.psis[picked], self.done[picked]
        self.lw[:] = 0.0

    def finish(self, idx: np.ndarray) -> None:
        res = self.res
        res.final_states[idx] = self.psis
        res.log_weights[idx] = self.lw
        z = self.stepper.family.sector_weights(res.final_states[idx[0] : idx[-1] + 1])
        decided = z.max(axis=1) >= 1.0 - REDUCTION_COMPLETE_TOL
        res.outcomes[idx[decided]] = np.argmax(z, axis=1)[decided]
        res.collapse_steps[idx] = self.done


def run_ensemble(
    psi0: np.ndarray,
    stepper: CslStepper | tuple[CslStepper, ...],
    steps: int,
    n_traj: int,
    master_seed: int,
    h_matrix: np.ndarray | None = None,
    record_every: int | None = None,
    resample_every: int | None = None,
    traj_offset: int = 0,
) -> EnsembleResult | tuple[EnsembleResult, ...]:
    """Vectorized trajectory ensemble with per-trajectory noise streams.

    ``stepper`` is one CslStepper, or a tuple of them that step one
    ensemble each through the same increments (results in its order).
    A linear ensemble is not Euler-stepped: the couplings commute, so
    between two check or record points each row takes the exact update
    ``linear_exact_commuting`` by its summed increments, free of
    step-size error; it takes no ``h_matrix``.  A nonlinear ensemble is
    stepped by ``CslStepper.step_batch``.

    The noise is drawn one window at a time, ``resample_every`` steps or
    the whole run: window w of trajectory i is the stream (traj_offset +
    i, w) of ``wiener_increment_block``, so one window is the whole stream.

    ``resample_every`` applies the cooked reweighting sequentially to the
    linear-form ensembles: after every window but the last, each is
    resampled by its accumulated weights (``systematic_resample``), which
    keeps the paths in the cooked-typical region; the reweighting
    prescription commutes with being applied at intermediate times.
    Descendants go on with their slot's next window; nonlinear ensembles
    are not resampled.  Resampling steps every trajectory at once and
    records no z history, so ``record_every`` is rejected with it;
    otherwise ``CHUNK`` trajectories are stepped at a time.

    Every 16 steps and at the end of each window a NaN or infinite
    amplitude or log-weight raises StabilityError.
    """
    steppers = _shared_noise(stepper)
    if n_traj < 1:
        raise ValueError(f"an ensemble needs at least one trajectory, not {n_traj}")
    if h_matrix is not None and any(s.form == "linear" for s in steppers):
        raise ValueError("the linear form's exact update takes no Hamiltonian")
    if resample_every is None:
        chunk, window = CHUNK, steps
    else:
        if all(s.form != "linear" for s in steppers):
            raise ValueError("sequential resampling applies to the linear form")
        if record_every is not None:
            raise ValueError("the resampled runner records no z history")
        chunk, window = n_traj, resample_every
    psi0 = _initial_rows(psi0, h_matrix)
    runs = [_Ensemble(s, psi0, steps, n_traj, record_every, h_matrix) for s in steppers]
    noise = steppers[0].family.channel_count, steppers[0].gamma, steppers[0].dt
    for start in range(0, n_traj, chunk):
        idx = np.arange(start, min(start + chunk, n_traj))
        for run in runs:
            run.start(len(idx))
        for k0 in range(0, steps, window):
            take = min(window, steps - k0)
            block = wiener_increment_block(
                master_seed, idx + traj_offset, take, *noise, window=k0 // window
            )
            for run in runs:
                run.advance(block, k0, idx)
                if k0 + take < steps and run.stepper.form == "linear":
                    run.resample(master_seed, k0 + take)
            del block  # so that the next block is not drawn beside it
        for run in runs:
            run.finish(idx)
    results = tuple(run.res for run in runs)
    return results if isinstance(stepper, tuple) else results[0]


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
        table[sigma, idx] = 1.0
    block = wiener_increment_block(master_seed, np.arange(n_traj), steps, n_sec, gamma, dt)
    theta = block.sum(axis=0)  # (n_traj, n_sec), summed step by step
    del block
    psis = psi0 * np.exp(-1j * (theta @ table))
    return ensemble_density(psis), family.sector_weights(psis)
