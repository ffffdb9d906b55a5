"""Continuous stochastic localization ensembles on finite states.

Two forms, linear and nonlinear, both Ito equations driven by the
white-noise convention <<dB_i dB_j>> = gamma delta_ij dt.  The nonlinear
form, with or without a Hamiltonian, takes Euler-Maruyama steps and
renormalizes every step to absorb discretization residue.  The linear
form has no Hamiltonian and commuting couplings, so it takes the exact
update by summed increments (``cooking.linear_exact_commuting``) only
where its state or weight is read; the stored state stays normalized and
the cooked weight log||psi||^2 in log space.  The engines return final
states and log-weights; their density is ``states.ensemble_density``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
from numpy.lib.mixins import NDArrayOperatorsMixin

from .cooking import linear_exact_commuting, systematic_resample
from .errors import ConfigError, StabilityError, require_memory
from .noise import WINDOWS, LiveStreams, wiener_increment_block
from .operators import ProjectorFamily

STABILITY_LIMIT = 0.01
"""Maximum allowed gamma * max|a|^2 * dt for the explicit steppers."""

REDUCTION_COMPLETE_TOL = 1e-6
"""A trajectory counts as collapsed onto sector sigma when
z_sigma >= 1 - REDUCTION_COMPLETE_TOL (reduction is asymptotic)."""

RETIRE_TOL = 1e-12
"""``run_ensemble(until_decided=True)`` stops stepping a row once its
minority weight, the sum of its sector weights but the largest, is at most
this.  Each 1 - z_sigma is a nonnegative martingale, so the row's final
argmax could then still change with probability at most 2 * RETIRE_TOL."""

CHECK_EVERY = 16
"""A row's steps between its check points in ``run_ensemble``.  Windows of
noise are whole check intervals, so all live rows share one residue."""


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
    hamiltonian : (d, d) array, optional
        The Hamiltonian H of the nonlinear form's -i H psi dt term; the
        linear form's exact update takes none.
    """

    family: ProjectorFamily
    gamma: float
    dt: float
    form: str = "nonlinear"
    hamiltonian: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.form not in ("linear", "nonlinear"):
            raise ValueError("form must be 'linear' or 'nonlinear'")
        if self.form == "linear" and self.hamiltonian is not None:
            raise ValueError("the linear form's exact update takes no Hamiltonian")
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
        # plain floats: rows of the table (tuples, as keys) and its columns
        object.__setattr__(self, "_rows", [tuple(row) for row in table.tolist()])
        object.__setattr__(self, "_cols", table.T.tolist())

    def step_batch(self, dbs: np.ndarray, ws: StepWorkspace) -> np.ndarray:
        """Advance the normalized states ``ws.rows`` of the workspace ``ws``
        made for this stepper by one Euler-Maruyama step of the nonlinear
        form, centered (``_factors``), with increments ``dbs`` (one row per
        state), in place.  Returns ``ws.rows``: column-major (n, d) states,
        overwritten by the next step.

        The step works on the d basis columns and the channel columns of
        ``dbs``, one 1-D array each: sums over basis indices and channels
        are column additions, left to right.  Real rows stay real when there
        is no Hamiltonian.  The step allocates nothing."""
        if ws.stepper is not self:
            raise ValueError("the workspace was made for another stepper")
        np.copyto(ws.db_rows, dbs)
        for fn, args in ws.program:
            fn(*args)
        return ws.rows

    def _factors(self, chi: list, db: list) -> list:
        """Per basis column j, the factor f_j of the step psi -> psi + f psi:
        the Ito step's sum_i u_ij dB_i - gamma sum_i u_ij^2 dt / 2 as one
        sum_i u_ij (dB_i - h u_ij), u_ij = a_ij - r_i with r_i = <A_i> of
        each row, h = gamma dt / 2.  Channels with one row of eigenvalues
        share r_i, and columns with one eigenvalue in a channel its term."""
        h = 0.5 * self.gamma * self.dt
        sq = [_abs2(x) for x in chi]
        total = reduce(np.add, sq)
        means = {row: _combine(sq, row) / total for row in dict.fromkeys(self._rows)}
        terms = {}
        for i, row in enumerate(self._rows):
            for a in dict.fromkeys(row):
                u = a - means[row]
                terms[i, a] = u * (db[i] - h * u)
        return [reduce(np.add, [terms[i, a] for i, a in enumerate(col)]) for col in self._cols]

    def _step(self, chi: list, db: list) -> list:
        """psi + (-i H psi dt + f psi), column by column, with (H psi)_j
        summed left to right, so each row's bits do not depend on how many
        rows step with it; psi + f psi without a Hamiltonian."""
        terms = [f * x for f, x in zip(self._factors(chi, db), chi)]
        if self.hamiltonian is not None:
            ham = [-1j * _combine(chi, row) * self.dt for row in self.hamiltonian.tolist()]
            terms = [h + t for h, t in zip(ham, terms)]
        return [x + t for x, t in zip(chi, terms)]


class StepWorkspace:
    """The state slab, buffers and recorded step with which
    ``CslStepper.step_batch`` advances as many rows as ``psis`` has, loaded
    from ``psis``, without allocating (real rows if they are real and the
    stepper has no Hamiltonian).  Its caller holds it for one run; no
    stepper keeps it.  A linear stepper has no workspace: it is updated
    exactly, not stepped.

    The step's code runs once, on ``_Col`` columns, recorded as a fixed
    list of numpy calls that write through ``out``: the same operations
    in the same order as on arrays, so the same bits.  The step reads
    every state column before it writes any (the normalized columns need
    the norm, which reads every new column), so it writes its result back
    into the one (d, n) slab it read.  ``load`` narrows the step to the
    first rows of every array without recording it again.
    """

    def __init__(self, stepper: CslStepper, psis: np.ndarray) -> None:
        if stepper.form == "linear":
            raise ValueError("the linear form takes the exact update, not an Euler step")
        d, n = stepper.family.dim, psis.shape[0]
        dtype = float if stepper.hamiltonian is None and psis.dtype.kind == "f" else complex
        self.stepper, self.n, self.calls = stepper, n, []
        self.slab = np.empty((d, n), dtype)  # row j is state column j
        self.db = np.empty((stepper.family.channel_count, n))
        new = stepper._step([_Col(self, dtype, x) for x in self.slab],
                            [_Col(self, float, row) for row in self.db])
        norm_sq = reduce(np.add, [_abs2(col) for col in new])
        inv = 1.0 / np.sqrt(norm_sq)  # complex / real divides this way too
        for col, x in zip(new, self.slab):
            np.multiply(col, inv, out=_Col(self, dtype, x))
        self.args, self.plan = self._link()
        self.load(psis)

    def load(self, rows: np.ndarray) -> np.ndarray:
        """Copy ``rows`` to the front of the slab and step only those from
        now on: the linked calls with every column cut to their count, so
        nothing is recorded again.  Returns them, as ``step_batch`` returns
        states."""
        m = len(rows)
        self.rows, self.db_rows = self.slab[:, :m].T, self.db[:, :m].T
        cut = [x[:m] if isinstance(x, np.ndarray) else x for x in self.args]
        self.program = [(fn, tuple(map(cut.__getitem__, slots))) for fn, slots in self.plan]
        np.copyto(self.rows, rows)
        return self.rows

    def _link(self) -> tuple:
        """The recorded calls on arrays, as their distinct arguments and,
        per call, the function and the positions of its arguments among
        them.  A scratch column gets a buffer when it is written, and gives
        it up at its last reader, whose own result may then reuse it in
        place.  The reuse keeps the step in cache: with one buffer per
        scratch column, the 24-call step on 4096 two-level real rows took
        57-62 against 46-53 us on one Xeon core."""
        last = {id(c): k for k, (_, args) in enumerate(self.calls) for c in args}
        free = {}
        for k, (_, (*ins, out)) in enumerate(self.calls):
            for c in ins:
                if isinstance(c, _Col) and c.scratch and last[id(c)] == k:
                    free.setdefault(c.dtype, []).append(c.array)
                    last[id(c)] = None  # a column read twice is freed once
            if isinstance(out, _Col) and out.array is None:
                pool = free.setdefault(out.dtype, [])
                out.array = pool.pop() if pool else np.empty(self.n, out.dtype)
        program = [(fn, [x.array if isinstance(x, _Col) else x for x in args])
                   for fn, args in self.calls]
        args = list({id(x): x for _, xs in program for x in xs}.values())
        slot = {id(x): j for j, x in enumerate(args)}
        return args, [(fn, [slot[id(x)] for x in xs]) for fn, xs in program]


class _Col(NDArrayOperatorsMixin):
    """A column of n values while a step is recorded: a ufunc called on
    it, through an operator too, is appended to its workspace's calls and
    returns the column for the result.  ``array`` holds its values: a row
    of the state slab or of the increments, or, for a scratch column, a
    buffer that linking assigns."""

    def __init__(self, ws: StepWorkspace, dtype, array: np.ndarray | None = None) -> None:
        self.ws, self.dtype, self.array, self.scratch = ws, np.dtype(dtype), array, array is None

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
        total = _Col(cols[0].ws, cols[0].dtype, np.zeros(cols[0].ws.n, cols[0].dtype))
    return total


@dataclass
class EnsembleResult:
    """Trajectory ensemble summary.

    ``outcomes[k]`` is the sector trajectory k left the run collapsed onto
    (z >= 1-1e-6) or -1 if undecided; ``collapse_steps`` likewise (-1 =
    never), counted from the trajectory's own start, at a nonlinear row's
    check points or a linear row's update points (see ``run_ensemble``).  The
    ensemble's density is ``states.ensemble_density`` of the final states,
    weighted by exp(log_weights) for the linear form.  A row that
    ``run_ensemble(until_decided=True)`` retired holds its state at
    retirement, whose argmax the full run would change with probability at
    most 2 * RETIRE_TOL.
    """

    final_states: np.ndarray
    log_weights: np.ndarray
    outcomes: np.ndarray
    collapse_steps: np.ndarray
    z_history: np.ndarray | None = None


CHUNK = 4096
"""Slots in ``run_ensemble``'s pool of live noise streams when it does not
resample (a slot whose row retired or took its last step takes the next
trajectory at the next window boundary), and ``epr``'s seeds per chunk.
A trajectory's bits do not depend on it, but for a lone linear row with
many channels, whose ``x @ table`` may take another BLAS kernel."""

WINDOW_BYTES = 1 << 23
"""Size of the buffer into which ``run_ensemble``, when it does not resample,
reads its pool's noise, whole ``CHECK_EVERY`` intervals at a time (256 steps
of 4096 one-channel rows), so no check point moves.  A
row that retires mid-window leaves the rest of its window's normals unread."""


def _pool_shape(n_traj: int, channels: int, steps: int, resample_every: int | None) -> tuple:
    """``run_ensemble``'s (slots, window): a ``CHUNK`` of slots reading
    whole ``CHECK_EVERY`` intervals of noise into ``WINDOW_BYTES``, or, when
    it resamples, every trajectory, a resample interval at a time."""
    if resample_every is not None:
        return n_traj, min(resample_every, steps)
    slots = min(CHUNK, n_traj)
    window = WINDOW_BYTES // (8 * slots * channels) // CHECK_EVERY * CHECK_EVERY
    return slots, min(steps, max(CHECK_EVERY, window))


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
    """Raise ValueError when ``steps`` reach 2^63 (collapse steps are int64)
    or when ``run_ensemble``'s final states and noise window (the pool's and
    its live streams, or every trajectory's when resampling) would not fit."""
    steppers = _shared_noise(stepper)
    if not steps < 2**63:
        raise ValueError(f"steps = {steps} must be below 2^63")
    channels, plain = steppers[0].family.channel_count, resample_every is None
    rows, window = _pool_shape(n_traj, channels, steps, resample_every)
    nbytes = (8 * (window + 1) * channels + 1024 * plain) * rows  # +1: linear sums; 1 KB a stream
    nbytes += 16 * n_traj * sum(s.family.dim for s in steppers)
    require_memory(nbytes, "the noise window and the states")


class _Ensemble:
    """One stepper's trajectories in ``run_ensemble``: the rows in the pool's
    slots (states, log-weights, collapse steps, trajectory indices, the pool
    step each joined at and its column in the window's block) and the
    result each fills as it leaves."""

    def __init__(self, stepper: CslStepper, psi0: np.ndarray, steps: int,
                 n_traj: int, record_every: int | None, until_decided: bool) -> None:
        # float64 rows when psi0 is real and there is no Hamiltonian (every
        # step then multiplies amplitudes by real factors), else complex
        real = stepper.hamiltonian is None and not np.any(np.imag(psi0))
        psi0 = np.real(psi0).astype(float) if real else psi0.astype(complex)
        self.stepper, self.psi0, self.steps, self.every = stepper, psi0, steps, record_every
        self.ws, self.until_decided = None, until_decided
        self.psis, self.lw, self.sums, self.last = np.tile(psi0, (0, 1)), np.zeros(0), 0.0, 0
        self.done = self.traj = self.join = self.cols = np.zeros(0, dtype=int)
        n_rec, dim = (steps // record_every if record_every else 0), psi0.shape[0]
        self.res = EnsembleResult(
            np.empty((n_traj, dim), dtype=complex),
            np.zeros(n_traj),
            np.full(n_traj, -1, dtype=int),
            np.full(n_traj, -1, dtype=int),
            np.zeros((n_rec, n_traj, stepper.family.n_sectors)) if record_every else None,
        )

    def refill(self, traj: np.ndarray, k: int) -> None:
        """Start trajectories ``traj`` from psi0 at pool step k in the slots
        after the live rows (the first call fills every slot)."""
        if not len(traj):
            return
        m = len(traj)
        self.psis = np.concatenate([self.psis, np.tile(self.psi0, (m, 1))])
        if self.stepper.form != "linear":
            self.ws = self.ws or StepWorkspace(self.stepper, self.psis)
            self.psis = self.ws.load(self.psis)
        self.lw, self.done, self.traj, self.join = (np.concatenate(pair) for pair in (
            (self.lw, np.zeros(m)), (self.done, np.full(m, -1)), (self.traj, traj),
            (self.join, np.full(m, k))))

    def advance(self, block: np.ndarray, k0: int) -> None:
        """Take the rows through ``block``, whose first row is pool step
        k0 + 1, a segment at a time: nonlinear steps one by one, linear
        increments added in step order to sums that ``update`` reads at
        record and last steps.  A row that joined at pool step j is at its
        own step k0 - j + s after s rows of the block.  Segments end at its
        record steps, where z is recorded, and check points (every
        ``CHECK_EVERY`` of its steps, its last step and the block's end),
        where finiteness (of unread sums too) is checked, collapses marked
        and, until decided, settled rows retired.  A row leaves at its last
        step or on retiring."""
        stepper, every, size = self.stepper, self.every, len(block)
        assert stepper.form != "linear" or self.join[0] == self.join[-1], "linear rows differ in age"
        # rows join only at window boundaries, and a window is cut short only
        # where all its rows end, so ages differ by whole windows: one residue
        # mod CHECK_EVERY, and only the oldest rows (first, as joins never decrease
        # along the rows) can take their last step inside a whole window
        ends = {size}
        for a in {k0 - int(self.join[0]), k0 - int(self.join[-1])}:
            check = range(CHECK_EVERY - a % CHECK_EVERY, size + 1, CHECK_EVERY)
            ends.update(check, [min(self.steps - a, size)])
            if every:
                ends.update(range(every - a % every, size + 1, every))
        ends, self.cols = sorted(ends), np.arange(len(self.traj))  # columns follow the rows
        for s0, s in zip([0] + ends, ends):
            if not len(self.traj):  # every row left
                return
            k = k0 + s - self.join
            # between the rows' common check points only those at their last step
            out = k == self.steps
            at = s == size or k[0] % CHECK_EVERY == 0 or out
            if stepper.form == "linear":
                self.sums, self.now = reduce(np.add, block[s0:s], self.sums), k0 + s
                if not (out[0] or every and k[0] % every == 0):  # not an update point
                    if np.any(at) and not np.isfinite(self.sums.sum(1) + self.lw).all():
                        raise StabilityError(f"noise sums or log-weights not finite at step {k[0]}")
                    continue
                z = self.update()
            else:
                cols = None if len(self.cols) == block.shape[1] else self.cols
                for db in block[s0:s]:
                    db = db if cols is None else db.take(cols, axis=0)
                    stepper.step_batch(db, self.ws)  # self.psis, in place
                z = stepper.family.sector_weights(self.psis).T
            if every:
                rec = k % every == 0
                self.res.z_history[k[rec] // every - 1, self.traj[rec]] = z.T[rec]
            # NaN or infinite amplitudes (seen through z) or log-weights
            if not (np.isfinite(z).all() and np.isfinite(self.lw).all()):
                bad = ~(np.isfinite(z).all(axis=0) & np.isfinite(self.lw)) & at
                if bad.any():
                    raise StabilityError(f"amplitudes or log-weights not finite at step {k[bad][0]}")
            decided = at & (self.done < 0) & (np.max(z, axis=0) >= 1.0 - REDUCTION_COMPLETE_TOL)
            self.done[decided] = k[decided]
            if self.until_decided:
                # a weight above 1/2 is the row's largest, so this is the minority
                # weight of every row that has one, and near 1 for the others
                out |= at & (np.where(z > 0.5, 0.0, z).sum(axis=0) <= RETIRE_TOL)
            if out.any():
                self.leave(out, z)

    def update(self) -> np.ndarray:
        """The linear rows' exact update by their sums from pool step ``last``,
        their join or last update, to ``now``; it marks their collapses and
        returns their sector weights, (d, rows)."""
        st, f = self.stepper, (self.now - self.last) * self.stepper.dt
        self.psis, dlog = linear_exact_commuting(self.psis, st.family, self.sums, st.gamma, f)
        self.lw, self.sums, self.last = self.lw + dlog, 0.0, self.now
        z = st.family.sector_weights(self.psis).T
        decided = (self.done < 0) & (z.max(axis=0) >= 1.0 - REDUCTION_COMPLETE_TOL)
        self.done[decided] = self.now - self.join[0]
        return z

    def leave(self, out: np.ndarray, z: np.ndarray) -> None:
        """Store the results of the rows that the mask ``out`` picks (their
        collapse steps are already marked), their outcomes from their sector
        weights z, (n_sectors, rows), and step only the others."""
        res, traj, kept, z = self.res, self.traj[out], ~out, z.compress(out, axis=1)
        res.final_states[traj] = self.psis.compress(out, axis=0)
        res.log_weights[traj] = self.lw[out]
        res.collapse_steps[traj] = self.done[out]
        res.outcomes[traj] = np.where(z.max(axis=0) >= 1.0 - REDUCTION_COMPLETE_TOL,
                                      z.argmax(axis=0), -1)
        self.psis = self.psis.compress(kept, axis=0)
        if self.ws is not None:
            self.psis = self.ws.load(self.psis)
        self.lw, self.done, self.traj, self.join, self.cols = (
            x[kept] for x in (self.lw, self.done, self.traj, self.join, self.cols))

    def resample(self, master_seed: int, k: int) -> None:
        """Cooked reweighting at step k, after ``update``: descendants take
        their ancestor's state and collapse step; log-weights restart at 0."""
        self.update()
        picked = systematic_resample(self.lw, master_seed, k)
        self.psis, self.done = self.psis[picked], self.done[picked]
        self.lw[:] = 0.0


def run_ensemble(
    psi0: np.ndarray,
    stepper: CslStepper | tuple[CslStepper, ...],
    steps: int,
    n_traj: int,
    master_seed: int,
    record_every: int | None = None,
    resample_every: int | None = None,
    traj_offset: int = 0,
    until_decided: bool = False,
) -> EnsembleResult | tuple[EnsembleResult, ...]:
    """Vectorized trajectory ensemble with per-trajectory noise streams.

    ``stepper`` is one CslStepper, or a tuple of them that step one
    ensemble each through the same increments (results in its order).
    A linear ensemble is not Euler-stepped: the couplings commute, so each
    row sums its increments in step order and takes the exact update
    ``linear_exact_commuting`` by them only at its update points (record
    steps, resample points and its last step), free of step-size error; it
    has no Hamiltonian.  Nonlinear ones step by ``CslStepper.step_batch``
    under their stepper's Hamiltonian, through one ``StepWorkspace`` each.

    Trajectory i steps through stream traj_offset + i.  Without
    resampling, a pool of ``CHUNK`` slots steps, each row reading its
    stream on from a live generator, a window (``_pool_shape``) at a time;
    at each window boundary the slots of rows that retired or took their
    last step take the next trajectories in index order, from psi0, on
    freed generators re-keyed to their streams (without retirement, one
    pool-full after another).  A row's steps, checks and collapse step
    count from its own start, so its bits do not depend on the pool.
    Resampled rows are coupled, so window w of them all is one draw of
    the stream (master seed, w) under WINDOWS; it takes no ``traj_offset``.

    ``resample_every`` applies the cooked reweighting sequentially to the
    linear-form ensembles: after every window but the last, each is
    resampled by its accumulated weights (``systematic_resample``), which
    keeps the paths in the cooked-typical region; the reweighting
    prescription commutes with being applied at intermediate times.
    Descendants step on in their slot's row of the next window; nonlinear
    ensembles are not resampled.  Resampling steps every trajectory at
    once and records no z history, so ``record_every`` is rejected with it.

    Every ``CHECK_EVERY`` of a row's steps, at its last step and at the end of each
    window (its check points) a NaN or infinite amplitude, log-weight or
    linear increment sum raises StabilityError, naming the row's own step.

    ``until_decided`` stops stepping a row, and frees its slot and live
    stream before the next window is drawn, at the first check point where
    its minority weight is at most ``RETIRE_TOL``.  Its ``final_states`` row
    is then its state at that step, whose argmax the full run would change
    with probability at most 2 * RETIRE_TOL; its collapse step is already
    marked, and the rows that never retire end on the bits of the full run.
    It takes one nonlinear stepper and no Hamiltonian (which can rotate a
    collapsed state back out of its sector), z history or resampling.
    """
    steppers = _shared_noise(stepper)
    if n_traj < 1:
        raise ValueError(f"an ensemble needs at least one trajectory, not {n_traj}")
    if until_decided and (len(steppers) > 1 or steppers[0].form == "linear" or any(
            x is not None for x in (steppers[0].hamiltonian, record_every, resample_every))):
        raise ValueError("until_decided takes one nonlinear stepper and no Hamiltonian, "
                         "record_every or resample_every")
    if resample_every is not None:
        if all(s.form != "linear" for s in steppers):
            raise ValueError("sequential resampling applies to the linear form")
        if record_every is not None or traj_offset:
            raise ValueError("the resampled runner records no z history and takes no traj_offset")
    noise = steppers[0].family.channel_count, steppers[0].gamma, steppers[0].dt
    slots, window = _pool_shape(n_traj, noise[0], steps, resample_every)
    streams = LiveStreams(slots, window, noise[0]) if resample_every is None else None
    psi0 = np.asarray(psi0)
    runs = [_Ensemble(s, psi0, steps, n_traj, record_every, until_decided) for s in steppers]
    k0 = waiting = 0  # the pool's step and the first trajectory without a slot
    while True:
        # the rows keep their streams, in order; freed slots take the next trajectories
        new = np.arange(waiting, min(waiting + slots - len(runs[0].traj), n_traj))
        waiting += len(new)
        if streams is not None:
            streams.refill(master_seed, runs[0].cols, new + traj_offset)
        for run in runs:
            run.refill(new, k0)
        if not len(runs[0].traj):
            break
        # one window, cut short where the rows that joined last take their last step
        take = min(window, steps - k0 + int(runs[0].join.max()))
        if streams is None:  # coupled rows: window w is one draw of the stream (seed, w)
            block = wiener_increment_block(master_seed, [k0 // window], take, slots * noise[0],
                                           *noise[1:], WINDOWS).reshape(take, slots, noise[0])
        else:
            block = wiener_increment_block(master_seed, streams, take, *noise)
        for run in runs:
            run.advance(block, k0)
            if streams is None and k0 + take < steps and run.stepper.form == "linear":
                run.resample(master_seed, k0 + take)
        del block  # so that the next resampled block is not drawn beside it
        k0 += take
    results = tuple(run.res for run in runs)
    return results if isinstance(stepper, tuple) else results[0]
