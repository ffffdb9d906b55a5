"""Continuous-localization steppers, cooking, reduction, ensemble level."""

import tracemalloc
from functools import cache, reduce

import numpy as np
import pytest

from collapsim import StabilityError
from collapsim.colored import CorrelationSpec, colored_instantaneous_rate
from collapsim.cooking import linear_exact_commuting, systematic_resample
from collapsim.diffusion import CslStepper, StepWorkspace, require_ensemble_fits, run_ensemble
from collapsim.macrobody import condenser_decay_rate, macro_reduction_rate, momentum_diffusion
from collapsim.noise import (
    NOISE,
    RESAMPLE,
    WINDOWS,
    LiveStreams,
    WindowStream,
    trajectory_generator,
    wiener_increment_block,
)
from collapsim.operators import ProjectorFamily
from collapsim.params import canonical_qmsl
from collapsim.states import ensemble_density
from collapsim.units import ELECTRON_MASS_G, HBAR_CGS, NUCLEON_MASS_G

from oracles import (
    diagonal_family,
    discrete_decay_log,
    hermitian_phase_noise_reference,
    lindblad_by_ode,
    lindblad_evolve,
    momentum_diffusion_quadrature,
    sample_wiener_reference,
    slab_reduction_rate_quadrature,
    smeared_density_damping_1d,
    step_batch_reference,
    two_level_analytic,
)

TWO = ProjectorFamily.two_level()
WHITE = CorrelationSpec.white()


# ---------------------------------------------------------------- steppers


def test_stability_criterion_enforced():
    with pytest.raises(StabilityError):
        CslStepper(TWO, gamma=1.0, dt=0.5)
    CslStepper(TWO, gamma=1.0, dt=0.005)  # fine


# Families whose table entries (0, +-1, 0.5, +-2) make every product with
# them exact, so the column-wise step can differ from the row-wise
# reference only through the order of its sums.
EXACT_FAMILIES = {
    "two-level": TWO,
    "diagonal-3-sectors-2-channels": diagonal_family(
        np.array([[1.0, -1.0, 0.0, 0.0], [0.5, 0.5, -2.0, -2.0]])
    ),
    "cells": ProjectorFamily.from_configurations([[2, 0, 1], [1, 2, 0], [0, 1, 2]]),
    # nine channels: sums over channels take numpy's pairwise order
    "cells-9": ProjectorFamily.from_configurations(
        [[2, 0, 1, 0, 1, 2, 0, 1, 1], [0, 1, 2, 1, 0, 0, 2, 1, 0]]
    ),
    # nine basis states: so do the sums over basis columns
    "diagonal-9-states": diagonal_family(
        np.array([[1.0, -1.0, 0.5, 0.0, 2.0, -2.0, 1.0, 0.5, -0.5],
                  [0.5, 1.0, -1.0, 2.0, 0.0, 1.0, -2.0, 0.5, 1.0]])
    ),
    # a channel that is zero on every state and a state that is zero in
    # every channel: their eigenvalue-table sums have no term
    "diagonal-zero-channel-zero-state": diagonal_family(
        np.array([[0.0, 0.0, 0.0], [1.0, -1.0, 0.0]])
    ),
    # cell 0 empty in both configurations, and nine channels
    "cells-9-empty-cell": ProjectorFamily.from_configurations(
        [[0, 2, 1, 0, 1, 2, 0, 1, 1], [0, 1, 2, 1, 0, 0, 2, 1, 0]]
    ),
}


def _steps_against_reference(family, complex_psi, hamiltonian, seed):
    """Three steps of the stepper and of the reference from the same rows
    and increments: per step (states, reference states).  The stepper
    takes each step through a fresh workspace and all three through one
    reused workspace, which must give the same arrays."""
    rng = np.random.default_rng(seed)
    a_max = float(np.max(np.abs(family.eigenvalues)))
    stepper = CslStepper(family, 0.9, 0.008 / a_max**2)
    n, d = 64, family.dim
    psis = rng.normal(size=(n, d)) + (1j * rng.normal(size=(n, d)) if complex_psi else 0.0)
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    h = None
    if hamiltonian:
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = m + m.conj().T
    a, b, c = psis, psis.astype(complex), psis
    ws = StepWorkspace(stepper, psis, h)
    steps = []
    for _ in range(3):
        dbs = rng.normal(0.0, np.sqrt(stepper.gamma * stepper.dt), (n, family.channel_count))
        a = stepper.step_batch(a, dbs, StepWorkspace(stepper, a, h))
        b, _ = step_batch_reference(stepper, b, dbs, h)
        c = stepper.step_batch(c, dbs, ws)
        assert np.array_equal(c, a) and c.dtype == a.dtype
        steps.append((a, b))
    return steps


@pytest.mark.parametrize("hamiltonian", [False, True], ids=["no-h", "h"])
@pytest.mark.parametrize("complex_psi", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("family", sorted(EXACT_FAMILIES))
def test_step_batch_equals_row_wise_reference(family, complex_psi, hamiltonian):
    # The reference's H psi is one BLAS product, which may fuse or reorder
    # its multiply-adds; the stepper's sums run left to right.
    steps = _steps_against_reference(EXACT_FAMILIES[family], complex_psi, hamiltonian, seed=17)
    for states, ref_states in steps:
        if hamiltonian:
            assert np.max(np.abs(states - ref_states)) <= 1e-15
        else:
            assert np.array_equal(states, ref_states)
    if not (complex_psi or hamiltonian):
        assert steps[-1][0].dtype == float  # real rows stay real


@pytest.mark.parametrize("hamiltonian", [False, True], ids=["no-h", "h"])
@pytest.mark.parametrize("complex_psi", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("family", sorted(EXACT_FAMILIES))
def test_single_row_steps_as_in_a_batch(family, complex_psi, hamiltonian):
    # A row stepped alone, as in the last chunk of an ensemble, reaches the
    # same bits as in a batch of 64: no step couples rows, and with one row
    # nothing may drop or broadcast the row axis.
    family = EXACT_FAMILIES[family]
    rng = np.random.default_rng(23)
    a_max = float(np.max(np.abs(family.eigenvalues)))
    stepper = CslStepper(family, 0.9, 0.008 / a_max**2)
    n, d = 64, family.dim
    psis = rng.normal(size=(n, d)) + (1j * rng.normal(size=(n, d)) if complex_psi else 0.0)
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    h = None
    if hamiltonian:
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = m + m.conj().T
    rows = {k: psis[k:k + 1] for k in (0, n - 1)}
    spaces = {k: StepWorkspace(stepper, row, h) for k, row in rows.items()}
    batch, ws = psis, StepWorkspace(stepper, psis, h)
    for _ in range(3):
        dbs = rng.normal(0.0, np.sqrt(stepper.gamma * stepper.dt), (n, family.channel_count))
        batch = stepper.step_batch(batch, dbs, ws)
        for k in rows:
            rows[k] = stepper.step_batch(rows[k], dbs[k:k + 1], spaces[k])
            assert rows[k].shape == (1, d) and rows[k].dtype == batch.dtype
            assert np.array_equal(rows[k][0], batch[k])


# Families whose step increment is one Gaussian per channel, so a
# Gauss-Hermite rule (a product rule for two and three channels) gives the
# moments of a step's change to rounding.
GAUSS_HERMITE_FAMILIES = {
    "two-level": TWO,
    "two-level-zero-eigenvalue": ProjectorFamily.two_level(a_plus=0.0, a_minus=1.5),
    "three-sectors": diagonal_family(np.array([[1.0, 0.0, -1.0]])),
    "two-states-in-a-sector": diagonal_family(np.array([[1.0, 1.0, -1.0]])),
    "diagonal-3-sectors-2-channels": EXACT_FAMILIES["diagonal-3-sectors-2-channels"],
    "cells-3-channels": ProjectorFamily.from_configurations(
        np.array([[2, 0, 1], [1, 2, 0], [0, 1, 2]])
    ),
}


@pytest.mark.parametrize("hamiltonian", [False, True], ids=["no-h", "h"])
@pytest.mark.parametrize("complex_psi", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("family", sorted(GAUSS_HERMITE_FAMILIES))
def test_step_drift_and_diffusion_by_gauss_hermite(family, complex_psi, hamiltonian):
    # One step from psi0 per node of a 60-node rule (30 x 30 for two
    # channels, 30 x 30 x 30 for three), increments sqrt(gamma dt) x.  For the Ito equation,
    # E[dz_0]/dt is the Hamiltonian's drift v of z_0 (zero without H) and
    # E[dz_0^2]/dt is 4 gamma z_0^2 sum_i (a_i0 - r_i)^2, r_i = <A_i>.
    # Euler steps reach both at weak order 1: the error halves with dt.
    family = GAUSS_HERMITE_FAMILIES[family]
    d, channels, gamma = family.dim, family.channel_count, 1.0
    psi0 = np.sqrt({2: [0.3, 0.7], 3: [0.3, 0.45, 0.25], 4: [0.3, 0.25, 0.2, 0.25]}[d])
    if complex_psi:
        psi0 = psi0 * np.exp(1j * np.array([0.4, -1.1, 2.0, 0.7])[:d])
    h, v = None, 0.0
    sector = family.sectors[0]
    if hamiltonian:
        m = np.array([[0.0, 0.5 + 0.3j, 0.0, 0.2], [0.0, 0.2, 0.4 - 0.1j, 0.0],
                      [0.1j, 0.0, -0.3, 0.3j], [0.1, 0.0, 0.25, 0.1]])[:d, :d]
        h = m + m.conj().T
        v = 2.0 * np.sum(np.imag(np.conj(psi0[sector]) * (h @ psi0)[sector]))
    z = family.sector_weights(psi0)
    r = z @ family.eigenvalues  # the table is (n_sectors, channels)
    limit = 4.0 * gamma * z[0] ** 2 * np.sum((family.eigenvalues[0] - r) ** 2)
    x, w = np.polynomial.hermite_e.hermegauss(60 if channels == 1 else 30)
    grid = np.meshgrid(*[x] * channels, indexing="ij")
    nodes = np.stack([g.ravel() for g in grid], axis=1)
    weights = np.prod(np.meshgrid(*[w / w.sum()] * channels, indexing="ij"), axis=0).ravel()
    psis = np.tile(psi0, (len(nodes), 1))
    errors = []
    for k in range(3):
        dt = 0.008 / np.max(family.eigenvalues**2) / 2**k
        stepper = CslStepper(family, gamma, dt)
        out = stepper.step_batch(psis, np.sqrt(gamma * dt) * nodes,
                                 StepWorkspace(stepper, psis, h))
        dz = family.sector_weights(out)[:, 0] - z[0]
        errors.append((weights @ dz / dt - v, weights @ dz**2 / dt - limit))
    errors = np.array(errors)
    assert np.all(np.abs(errors[1:] / errors[:-1] - 0.5) < 0.03), errors


def test_step_batch_within_rounding_of_reference_for_inexact_products():
    # With entries such as 0.3 or an occupation of 3, a product rounds.
    # The reference's matrix products (BLAS) fuse each multiply-add and
    # round once, the column sums round each product: a few ulps apart.
    family = ProjectorFamily.from_configurations([[3, 0, 1], [1, 3, 0], [0, 1, 3]])
    for states, ref_states in _steps_against_reference(family, True, False, seed=5):
        assert np.max(np.abs(states - ref_states)) <= 2e-15


def test_workspace_steps_allocate_nothing():
    # after warm-up, stepping through a workspace makes no array: the
    # step's columns and both state slabs were allocated with it
    n = 4096
    stepper = CslStepper(TWO, gamma=1.0, dt=0.0025)
    block = wiener_increment_block(5, np.arange(n), 60, 1, 1.0, 0.0025)
    psis = np.tile(np.sqrt([0.3, 0.7]), (n, 1))
    ws = StepWorkspace(stepper, psis)
    for db in block[:10]:
        psis = stepper.step_batch(psis, db, ws)
    tracemalloc.start()
    try:
        for db in block[10:]:
            psis = stepper.step_batch(psis, db, ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * 8  # two float64 columns


def test_workspace_rejects_rows_it_was_not_made_for():
    stepper = CslStepper(TWO, gamma=1.0, dt=0.0025)
    psis = np.tile(np.sqrt([0.3, 0.7]), (8, 1))
    ws = StepWorkspace(stepper, psis)
    with pytest.raises(ValueError, match="rows"):
        stepper.step_batch(psis[:4], np.zeros((4, 1)), ws)
    with pytest.raises(ValueError, match="stepper"):
        CslStepper(TWO, gamma=1.0, dt=0.002).step_batch(psis, np.zeros((8, 1)), ws)


def test_the_linear_form_is_never_euler_stepped():
    # it takes the exact commuting update, which has no Hamiltonian term
    linear = CslStepper(TWO, gamma=1.0, dt=0.0025, form="linear")
    with pytest.raises(ValueError, match="exact update"):
        StepWorkspace(linear, np.tile(np.sqrt([0.3, 0.7]), (8, 1)))
    with pytest.raises(ValueError, match="Hamiltonian"):
        run_ensemble(np.sqrt([0.3, 0.7]), linear, 10, 4, 1, h_matrix=np.eye(2))


def _linear_run(family, complex_psi, n_traj=64, **kwargs):
    """psi0, a linear stepper and its 40-step run from psi0 (seed 19)."""
    psi0 = np.sqrt(np.arange(1.0, family.dim + 1))
    psi0 = psi0 / np.linalg.norm(psi0) * (np.exp(1j * np.arange(family.dim)) if complex_psi else 1)
    stepper = CslStepper(family, 0.9, 0.008 / np.max(np.abs(family.eigenvalues)) ** 2, "linear")
    return psi0, stepper, run_ensemble(psi0, stepper, 40, n_traj, 19, **kwargs)


@pytest.mark.parametrize(
    "every", [None, 16, 1], ids=["one-update", "segment-per-16", "segment-per-step"]
)
@pytest.mark.parametrize("complex_psi", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("fam", list(EXACT_FAMILIES.values()), ids=list(EXACT_FAMILIES))
def test_linear_segments_compose_to_one_exact_update(fam, complex_psi, every):
    # a linear row is updated at its record steps and last step; updates by
    # each segment's increments end where one by their sum does
    psi0, stepper, res = _linear_run(fam, complex_psi, record_every=every)
    block = wiener_increment_block(19, np.arange(64), 40, fam.channel_count, 0.9, stepper.dt)
    exact, logw = linear_exact_commuting(psi0, fam, block.sum(axis=0), 0.9, 40 * stepper.dt)
    assert np.max(np.abs(res.final_states - exact)) <= 1e-12
    assert np.allclose(res.log_weights, logw, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("every", [None, 10], ids=["no-record", "record"])
@pytest.mark.parametrize("complex_psi", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("fam", list(EXACT_FAMILIES.values()), ids=list(EXACT_FAMILIES))
def test_linear_row_runs_alone_as_in_a_batch(fam, complex_psi, every):
    # increments are summed in step order for one row as for 64, so one
    # channel ends bit for bit; with more, x @ table may take another BLAS
    # kernel for a (1, channels) operand and round differently (cells-9)
    many = _linear_run(fam, complex_psi, record_every=every)[2]
    one = _linear_run(fam, complex_psi, 1, record_every=every, traj_offset=63)[2]
    if fam.channel_count == 1:
        assert np.array_equal(one.final_states[0], many.final_states[63])
        assert one.log_weights[0] == many.log_weights[63]
    assert np.max(np.abs(one.final_states[0] - many.final_states[63])) <= 1e-15
    assert np.isclose(one.log_weights[0], many.log_weights[63], rtol=1e-15, atol=1e-15)
    assert (one.outcomes[0], one.collapse_steps[0]) == (many.outcomes[63], many.collapse_steps[63])


def _density(res):
    """The ensemble's density, with cooked weights (all one for a
    nonlinear run) scaled by the largest, so that none underflows."""
    return ensemble_density(res.final_states, np.exp(res.log_weights - res.log_weights.max()))


def test_linear_density_survives_weights_below_exp_underflow():
    # log w drifts by -2 gamma a^2 dt = -0.02 per step with spread
    # 0.2 sqrt(steps): every log-weight ends far below -745, where
    # exp(log w) is 0.0
    family = ProjectorFamily.two_level(a_plus=10.0, a_minus=-10.0)
    stepper = CslStepper(family, gamma=1.0, dt=1e-4, form="linear")
    res = run_ensemble(np.sqrt([0.5, 0.5]), stepper, 50_000, 8, master_seed=1)
    assert res.log_weights.max() < -745.0
    assert np.isfinite(_density(res)).all()
    assert np.trace(_density(res)).real == pytest.approx(1.0, abs=1e-12)


def test_run_ensemble_rejects_an_empty_ensemble():
    with pytest.raises(ValueError, match="at least one trajectory"):
        run_ensemble(np.sqrt([0.5, 0.5]), CslStepper(TWO, 1.0, 0.005), 10, 0, master_seed=1)


@pytest.mark.parametrize("form", ["linear", "nonlinear"])
def test_run_ensemble_equals_reference_steps(monkeypatch, form):
    # a real psi0 runs on float64 rows; the nonlinear result matches
    # complex rows stepped by the reference with the same increments, the
    # linear one (not stepped) the exact update by the summed increments
    import collapsim.diffusion as diffusion

    monkeypatch.setattr(diffusion, "CHUNK", 32)
    psi0 = np.sqrt(np.array([0.3, 0.7]))
    stepper = CslStepper(TWO, gamma=1.0, dt=0.005, form=form)
    res = run_ensemble(psi0, stepper, 40, 50, master_seed=3, record_every=20)
    block = wiener_increment_block(3, np.arange(50), 40, 1, 1.0, 0.005)
    assert res.final_states.dtype == complex
    if form == "linear":
        psis, logw = linear_exact_commuting(psi0, TWO, block.sum(axis=0), 1.0, 40 * 0.005)
        assert np.max(np.abs(res.final_states - psis)) <= 1e-12
        assert np.max(np.abs(res.log_weights - logw)) <= 1e-10
        assert np.max(np.abs(res.z_history[-1] - TWO.sector_weights(psis))) <= 1e-12
        return
    psis = np.tile(psi0.astype(complex), (50, 1))
    for k in range(40):
        psis, _ = step_batch_reference(stepper, psis, block[k])
    assert np.array_equal(res.final_states, psis)
    assert np.array_equal(res.log_weights, np.zeros(50))
    assert np.array_equal(res.z_history[-1], TWO.sector_weights(psis))


@pytest.mark.parametrize("chunk", [16, 64])
def test_linear_run_is_the_exact_update_by_summed_increments(monkeypatch, chunk):
    # three sectors, two channels; the run takes an exact update at every
    # record step (10) and its last step, and each row of every chunk ends
    # where one exact update by its whole increment sum takes it
    import collapsim.diffusion as diffusion

    fam = EXACT_FAMILIES["diagonal-3-sectors-2-channels"]
    psi0 = np.sqrt(np.array([0.1, 0.2, 0.3, 0.4]))
    gamma, dt, steps, n = 0.9, 0.002, 90, 100
    stepper = CslStepper(fam, gamma, dt, form="linear")
    whole = run_ensemble(psi0, stepper, steps, n, 12, record_every=10)
    monkeypatch.setattr(diffusion, "CHUNK", chunk)
    res = run_ensemble(psi0, stepper, steps, n, 12, record_every=10)
    block = wiener_increment_block(12, np.arange(n), steps, 2, gamma, dt)
    exact, logw = linear_exact_commuting(psi0, fam, block.sum(axis=0), gamma, steps * dt)
    assert np.max(np.abs(res.final_states - exact)) <= 1e-12
    assert np.max(np.abs(res.log_weights - logw)) <= 1e-10
    at_40, _ = linear_exact_commuting(psi0, fam, block[:40].sum(axis=0), gamma, 40 * dt)
    assert np.max(np.abs(res.z_history[3] - fam.sector_weights(at_40))) <= 1e-12
    # the segments do not depend on the chunk, so neither do the bits
    for field in ("final_states", "log_weights", "z_history"):
        assert np.array_equal(getattr(res, field), getattr(whole, field)), field
    assert np.array_equal(_density(res), _density(whole))


def test_linear_rows_are_updated_only_where_they_are_read(monkeypatch):
    # csl-equivalence's bench config (750 steps resampled every 100) takes
    # one exact update per window, at its 7 resample points and its last
    # step; a plain run takes one at each of its 9 record steps (of 90),
    # and reads the sector weights once at each, none after its last step
    import collapsim.diffusion as diffusion

    spans, weighed = [], []

    def counted(psis, family, x, gamma, f):
        spans.append(f)
        return linear_exact_commuting(psis, family, x, gamma, f)

    def weights(family, amplitudes, _weights=ProjectorFamily.sector_weights):
        weighed.append(len(amplitudes))
        return _weights(family, amplitudes)

    monkeypatch.setattr(diffusion, "linear_exact_commuting", counted)
    monkeypatch.setattr(ProjectorFamily, "sector_weights", weights)
    steppers = tuple(CslStepper(TWO, 1.0, 0.002, form=f) for f in ("linear", "nonlinear"))
    run_ensemble(np.sqrt([0.3, 0.7]), steppers, 750, 64, 20, resample_every=100)
    assert spans == [100 * 0.002] * 7 + [50 * 0.002]
    spans.clear()
    fam = EXACT_FAMILIES["diagonal-3-sectors-2-channels"]
    stepper = CslStepper(fam, 0.9, 0.002, form="linear")
    weighed.clear()
    run_ensemble(np.sqrt([0.1, 0.2, 0.3, 0.4]), stepper, 90, 100, 12, record_every=10)
    assert spans == [10 * 0.002] * 9
    assert weighed == [100] * 9


def test_plain_linear_run_in_16_step_windows_is_one_exact_update(monkeypatch):
    # the rows' increment sums run on across window boundaries in step
    # order, so a run read in 16-step windows ends on the bits of one exact
    # update by the step-order sum of all its increments
    import collapsim.diffusion as diffusion

    fam = EXACT_FAMILIES["diagonal-3-sectors-2-channels"]
    psi0 = np.sqrt(np.array([0.1, 0.2, 0.3, 0.4]))
    gamma, dt, steps, n = 0.9, 0.002, 90, 48
    monkeypatch.setattr(diffusion, "WINDOW_BYTES", 16 * n * 2 * 8)
    assert diffusion._plain_window(n, 2, steps) == 16
    res = run_ensemble(psi0, CslStepper(fam, gamma, dt, form="linear"), steps, n, 12)
    block = wiener_increment_block(12, np.arange(n), steps, 2, gamma, dt)
    exact, logw = linear_exact_commuting(psi0, fam, reduce(np.add, block), gamma, steps * dt)
    assert np.array_equal(res.final_states, exact)
    assert np.array_equal(res.log_weights, logw)


def test_hamiltonian_ensemble_does_not_depend_on_the_chunk(monkeypatch):
    # criterion 3's ensemble (d = 3, H != 0) on 64 trajectories: a row's
    # H psi is summed in the row alone, so a chunk of one row steps it to
    # the bits of a chunk of 64
    import collapsim.diffusion as diffusion

    psi0 = np.array([0.6, 0.64, 0.48], dtype=complex)
    psi0 /= np.linalg.norm(psi0)
    h = np.array([[0.0, 0.4, 0.0], [0.4, 0.0, 0.4], [0.0, 0.4, 0.0]], dtype=complex)
    stepper = CslStepper(diagonal_family(np.array([[1.0, 0.0, -1.0]])), 0.5, 0.005)
    finals = []
    for chunk in (1, 64):
        monkeypatch.setattr(diffusion, "CHUNK", chunk)
        finals.append(run_ensemble(psi0, stepper, 100, 64, 301, h_matrix=h).final_states)
    assert np.array_equal(*finals)


def test_run_ensemble_z_sums_a_sector_as_sector_weights_does():
    # z is family.sector_weights of the workspace's slab rows; over a sector
    # of nine basis states it sums left to right on a slab's columns as on
    # the stored final states (np.sum's pairwise sum would differ in the last bit)
    fam = diagonal_family(np.array([[1.0] * 9 + [-1.0, 0.5, -1.0]]))
    res = run_ensemble(np.full(12, 12**-0.5), CslStepper(fam, 1.0, 0.002), 32, 64, 5,
                       record_every=32)
    assert np.array_equal(res.z_history[-1], fam.sector_weights(res.final_states))


def _left_to_right(row, idx) -> float:
    sq, total = np.abs(row) ** 2, 0.0
    for j in idx:
        total += sq[j]
    return total


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("seed", range(4))
def test_sector_weights_sum_each_sector_left_to_right(seed, kind):
    # random partitions of the basis into sectors of 1-23 states: z of each
    # row, of a single vector and of integer rows (as floats) is the sum of
    # its sector's squares in index-set order, bit for bit, and run_ensemble
    # records those bits and marks outcomes by them
    rng = np.random.default_rng(seed)
    for _ in range(25):
        sizes = rng.integers(1, 24, size=rng.integers(2, 6))
        sectors = np.split(rng.permutation(sizes.sum()), np.cumsum(sizes)[:-1])
        fam = ProjectorFamily(rng.permutation(len(sizes))[:, None] - 2.0, sectors)
        rows = rng.normal(size=(5, fam.dim))
        if kind == "complex":
            rows = rows + 1j * rng.normal(size=rows.shape)
        expected = np.array([[_left_to_right(r, idx) for idx in fam.sectors] for r in rows])
        assert np.array_equal(fam.sector_weights(rows), expected)
        assert np.array_equal(fam.sector_weights(rows[0]), expected[0])
        ints = rng.integers(-9, 10, size=(3, fam.dim))
        z = fam.sector_weights(ints)
        assert z.dtype == float and np.array_equal(z, fam.sector_weights(ints.astype(float)))
    psi0 = rows[0] / np.linalg.norm(rows[0])
    stepper = CslStepper(fam, 0.5, 0.0005)
    res = run_ensemble(psi0, stepper, 16, 6, seed, record_every=16)
    z = fam.sector_weights(res.final_states)
    assert np.array_equal(res.z_history[-1], z)
    assert np.array_equal(res.outcomes, np.where(z.max(axis=1) >= 1.0 - 1e-6, z.argmax(axis=1), -1))


def _nan_block(*args, **kwargs):
    # every block (every window) gets a NaN increment in its sixth row
    block = wiener_increment_block(*args, **kwargs)
    block[5 % len(block), 1, 0] = np.nan
    return block


@pytest.mark.parametrize("form", ["linear", "nonlinear"])
def test_run_ensemble_nan_increment_raises_stability_error(monkeypatch, form):
    import collapsim.diffusion as diffusion

    monkeypatch.setattr(diffusion, "wiener_increment_block", _nan_block)
    stepper = CslStepper(TWO, gamma=1.0, dt=0.005, form=form)
    with pytest.raises(StabilityError, match="not finite at step 16"):
        run_ensemble(np.sqrt([0.3, 0.7]), stepper, 40, 4, master_seed=1)


@pytest.mark.parametrize("first", ["linear", "nonlinear"])
def test_resampled_runner_nan_increment_raises_stability_error(monkeypatch, first):
    # the NaN comes in through the first window's draw, and the ensemble
    # that steps through the window first meets it
    import collapsim.diffusion as diffusion

    windows = []

    def nan_window(master_seed, rows, *args):
        assert isinstance(rows, WindowStream)
        windows.append(rows.window)
        return _nan_block(master_seed, rows, *args)

    monkeypatch.setattr(diffusion, "wiener_increment_block", nan_window)
    forms = [first, "nonlinear" if first == "linear" else "linear"]
    steppers = tuple(CslStepper(TWO, gamma=1.0, dt=0.005, form=f) for f in forms)
    with pytest.raises(StabilityError, match="not finite at step 10"):
        run_ensemble(np.sqrt([0.3, 0.7]), steppers, 30, 4, 1, resample_every=10)
    assert windows == [0]


@pytest.mark.parametrize(
    "kwargs", [{"resample_every": 40}, {"record_every": 10}], ids=["resampled-40", "record-10"]
)
def test_linear_nan_increment_is_named_at_the_next_check_point(monkeypatch, kwargs):
    # a linear row reads its increment sums only at its update points (the
    # resample point 40, or the record step 10), but its check point 16
    # sees the NaN of step 6 in its sums or log-weight
    import collapsim.diffusion as diffusion

    monkeypatch.setattr(diffusion, "wiener_increment_block", _nan_block)
    stepper = CslStepper(TWO, gamma=1.0, dt=0.005, form="linear")
    with pytest.raises(StabilityError, match="not finite at step 16"):
        run_ensemble(np.sqrt([0.3, 0.7]), stepper, 80, 4, 1, **kwargs)


def test_resampled_runner_rejects_traj_offset():
    # its rows share each window's stream, so an offset would be ignored
    stepper = CslStepper(TWO, gamma=1.0, dt=0.005, form="linear")
    with pytest.raises(ValueError, match="takes no traj_offset"):
        run_ensemble(np.sqrt([0.3, 0.7]), stepper, 40, 4, 9, resample_every=40, traj_offset=3)


def _window_draw(seed, w, take, n, channels, gamma, dt):
    """Window w of a resampled run: one draw of the stream (seed, w) under WINDOWS."""
    rng = trajectory_generator(seed, w, WINDOWS)
    return rng.normal(0.0, np.sqrt(gamma * dt), (take, n, channels))


@pytest.mark.parametrize("every", [40, 41, 1000])
def test_shared_runner_in_one_window_steps_both_forms_through_window_stream_0(
    monkeypatch, every
):
    # nothing is resampled, so each form's result is the plain run's
    # through WINDOWS stream 0 in place of the trajectories' own streams
    import collapsim.diffusion as diffusion

    psi0 = np.sqrt(np.array([0.3, 0.7]))
    steppers = tuple(
        CslStepper(TWO, gamma=1.0, dt=0.005, form=f) for f in ("linear", "nonlinear")
    )
    shared = run_ensemble(psi0, steppers, 40, 50, master_seed=9, resample_every=every)
    assert isinstance(shared, tuple) and len(shared) == 2
    monkeypatch.setattr(diffusion, "wiener_increment_block", lambda seed, rows, take, *noise:
                        _window_draw(seed, 0, take, len(rows), *noise))
    for stepper, res in zip(steppers, shared):
        plain = run_ensemble(psi0, stepper, 40, 50, master_seed=9)
        for field in ("final_states", "log_weights", "outcomes", "collapse_steps"):
            assert np.array_equal(getattr(res, field), getattr(plain, field)), field
        assert np.array_equal(_density(res), _density(plain))


def test_shared_runner_steps_both_forms_through_window_keyed_streams():
    # reference: window w of every slot drawn from WINDOWS stream w, the
    # nonlinear form stepped through it by the row-wise step, the linear
    # one updated exactly by the window's increment sum in step order and
    # resampled at each inner window boundary, all to the same bits
    psi0 = np.sqrt(np.array([0.3, 0.7], dtype=complex))
    steppers = tuple(
        CslStepper(TWO, gamma=1.0, dt=0.005, form=f) for f in ("linear", "nonlinear")
    )
    n, steps, every, seed = 64, 50, 20, 17
    lin, non = run_ensemble(psi0, steppers, steps, n, seed, resample_every=every)
    psis = [np.tile(psi0, (n, 1)) for _ in steppers]
    for w, k0 in enumerate(range(0, steps, every)):
        take = min(every, steps - k0)
        block = _window_draw(seed, w, take, n, 1, 1.0, 0.005)
        x = reduce(np.add, block)
        psis[0], logw = linear_exact_commuting(psis[0], TWO, x, 1.0, take * 0.005)
        for k in range(take):
            psis[1], _ = step_batch_reference(steppers[1], psis[1], block[k])
        if k0 + take < steps:
            psis[0] = psis[0][systematic_resample(logw, seed, k0 + take)]
    assert np.array_equal(lin.final_states, psis[0])
    assert np.array_equal(lin.log_weights, logw)
    assert np.array_equal(non.final_states, psis[1])


LINEAR_COOKED_SD = 0.0126
"""sd of the cooked linear frequency of csl-equivalence at its bench config
(1e4 trajectories, 750 steps of 0.002, resampled every 100), over seeds
100-239 with the exact linear update; its mean offset from the exact
value there was -0.0003 +- 0.0011."""

NONLINEAR_SD = np.sqrt(0.3 * 0.7 / 10_000)
"""Binomial sd of the nonlinear frequency at that config.  Over seeds
100-139 its Euler offset from the exact value was -0.0014 +- 0.0008 at
dt = 0.002 and -0.0015 at dt = 0.004, with sd 0.0047 per run."""


@cache
def _cooked_at_seed_20():
    """The exact cooked P(z_0(T) > 1/2) at the bench config of
    csl-equivalence, and its linear and nonlinear frequencies at seed 20,
    both forms stepped through the same noise windows."""
    # cooked, the two-level record B(T) is the mixture over sectors of
    # N(2 gamma a T, gamma T) weighted by p (Girsanov), and z_0(T) > 1/2
    # exactly when B(T) > c = ln(p_1 / p_0) / 4
    from scipy.special import ndtr

    p, gamma, dt, steps = np.array([0.3, 0.7]), 1.0, 0.002, 750
    t, c = steps * dt, np.log(p[1] / p[0]) / 4.0
    exact = sum(w * ndtr((2.0 * gamma * t * a - c) / np.sqrt(gamma * t))
                for w, a in zip(p, (1.0, -1.0)))
    steppers = tuple(CslStepper(TWO, gamma, dt, form=f) for f in ("linear", "nonlinear"))
    lin, non = run_ensemble(np.sqrt(p), steppers, steps, 10_000, 20, resample_every=100)
    w = np.exp(lin.log_weights - lin.log_weights.max())
    f_lin = np.sum(w * (TWO.sector_weights(lin.final_states)[:, 0] > 0.5)) / w.sum()
    f_non = np.mean(TWO.sector_weights(non.final_states)[:, 0] > 0.5)
    return exact, f_lin, f_non


def test_cooked_linear_frequency_matches_the_exact_law():
    exact, f_lin, _ = _cooked_at_seed_20()
    assert exact == pytest.approx(0.29963, abs=5e-6)
    assert abs(f_lin - exact) <= 4.0 * LINEAR_COOKED_SD


def test_cooked_nonlinear_frequency_matches_the_exact_law():
    # Ito Euler: its weak bias (about -0.0015) is well inside the bound
    exact, _, f_non = _cooked_at_seed_20()
    assert abs(f_non - exact) <= 4.0 * NONLINEAR_SD


def test_wiener_block_windows_are_disjoint_counter_keyed_streams(monkeypatch):
    # window w of a resampled run is the stream keyed by (seed, w) with
    # counter [0, 0, 0, WINDOWS]: disjoint from the NOISE and RESAMPLE
    # streams of that key; the run's window blocks, two channels over 30
    # rows, are its (take, n, channels) draws bit for bit
    import collapsim.diffusion as diffusion

    seed, gamma, dt = 2**64 - 1, 0.7, 0.002
    for w in (0, 1, 2**40):
        philox = trajectory_generator(seed, w, WINDOWS).bit_generator.state["state"]
        assert philox["counter"].tolist() == [0, 0, 0, 2]
        assert philox["key"].tolist() == [seed, w]
        draws = [trajectory_generator(seed, w, p).standard_normal(64)
                 for p in (WINDOWS, NOISE, RESAMPLE)]
        assert not np.isin(draws[0], np.concatenate(draws[1:])).any()
    blocks = []

    def recording_block(master_seed, rows, *args):
        blocks.append((rows.window, wiener_increment_block(master_seed, rows, *args)))
        return blocks[-1][1]

    monkeypatch.setattr(diffusion, "wiener_increment_block", recording_block)
    stepper = CslStepper(EXACT_FAMILIES["diagonal-3-sectors-2-channels"], gamma, dt, "linear")
    run_ensemble(np.full(4, 0.5), stepper, 70, 30, seed, resample_every=30)
    assert [(w, block.shape) for w, block in blocks] == [
        (0, (30, 30, 2)), (1, (30, 30, 2)), (2, (10, 30, 2))
    ]
    for w, block in blocks:
        assert np.array_equal(block, _window_draw(seed, w, len(block), 30, 2, gamma, dt))


@pytest.mark.parametrize("rows", [1, 37])
@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("window", [16, 48])
def test_live_streams_read_in_windows_are_the_whole_streams(monkeypatch, window, channels, rows):
    # the windows, the last one short, concatenate bit for bit to the block
    # of the whole streams of trajectories 1000 on; the pool has rows to
    # spare, as in a run's last chunk, and tiles of five rows leave the
    # last tile ragged; a second refill of every slot rewinds the streams
    import collapsim.noise as noise

    monkeypatch.setattr(noise, "TILE_BYTES", 5 * window * channels * 8)
    steps, indices = 2 * window + 7, np.arange(rows) + 1000
    whole = wiener_increment_block(8, indices, steps, channels, 0.6, 0.01)
    streams = LiveStreams(rows + 3, window, channels)
    for _ in range(2):
        streams.refill(8, [], indices)
        parts = [
            wiener_increment_block(8, streams, min(window, steps - k0), channels, 0.6, 0.01)
            .copy() for k0 in range(0, steps, window)
        ]
        assert [len(part) for part in parts] == [window, window, 7]
        assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize("form", ["linear", "nonlinear"])
def test_plain_run_reads_its_noise_a_window_at_a_time(monkeypatch, form):
    # chunks of 32 rows and a buffer of 16 steps: 50 trajectories over 200
    # steps read every chunk's noise 16 steps at a time into one buffer, and
    # end on the bits of the run that reads each chunk's 200 steps at once
    import collapsim.diffusion as diffusion

    psi0 = np.sqrt(np.array([0.3, 0.7]))
    stepper = CslStepper(TWO, gamma=1.0, dt=0.005, form=form)
    monkeypatch.setattr(diffusion, "CHUNK", 32)
    args = (psi0, stepper, 200, 50, 5)
    whole = run_ensemble(*args, record_every=40, traj_offset=3)
    blocks = []

    def recording_block(*args, **kwargs):
        block = wiener_increment_block(*args, **kwargs)
        blocks.append(block)
        return block

    monkeypatch.setattr(diffusion, "WINDOW_BYTES", 16 * 32 * 8)
    monkeypatch.setattr(diffusion, "wiener_increment_block", recording_block)
    res = run_ensemble(*args, record_every=40, traj_offset=3)
    assert all(block.base is blocks[0].base for block in blocks)
    assert blocks[0].base.shape == (16, 32, 1)
    assert [block.shape[1] for block in blocks] == [32] * 13 + [18] * 13
    assert sum(len(block) for block in blocks[:13]) == sum(len(block) for block in blocks[13:]) == 200
    for field in ("final_states", "log_weights", "outcomes", "collapse_steps", "z_history"):
        assert np.array_equal(getattr(res, field), getattr(whole, field)), field


def test_plain_run_memory_does_not_grow_with_steps():
    # the plain runner holds one window, however long the run; collapse
    # steps are int64, so a run of 2^63 steps or more is refused
    stepper = CslStepper(TWO, gamma=1.0, dt=0.005)
    require_ensemble_fits(stepper, 2**63 - 1, 10_000)
    with pytest.raises(ValueError, match="below 2\\^63"):
        require_ensemble_fits(stepper, 2**63, 10_000)
    with pytest.raises(ValueError, match="memory"):
        require_ensemble_fits(stepper, 10**12, 10_000, resample_every=10**12)


# Families run to their decision: (family, dt, psi0, steps), at which some
# rows retire mid-run and some never do.
UNTIL_DECIDED = {
    "two-level": (TWO, 0.005, np.sqrt([0.3, 0.7]), 800),
    "diagonal-3-sectors-2-channels": (
        EXACT_FAMILIES["diagonal-3-sectors-2-channels"], 0.0025,
        np.sqrt([0.3, 0.25, 0.2, 0.25]), 1200,
    ),
}


def _until_decided_runs(family, seed, n=96):
    """The full run and the run until decided of ``UNTIL_DECIDED[family]``."""
    fam, dt, psi0, steps = UNTIL_DECIDED[family]
    stepper = CslStepper(fam, 1.0, dt)
    return (run_ensemble(psi0, stepper, steps, n, seed),
            run_ensemble(psi0, stepper, steps, n, seed, until_decided=True))


def _minority(fam, states):
    z = np.sort(fam.sector_weights(states), axis=1)
    return z[:, :-1].sum(axis=1)


@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize("family", sorted(UNTIL_DECIDED))
def test_until_decided_keeps_outcomes_and_collapse_steps(monkeypatch, family, seed):
    # windows of 64 steps, so retired rows' streams are dropped between them
    import collapsim.diffusion as diffusion

    monkeypatch.setattr(diffusion, "WINDOW_BYTES", 64 * 96 * 16)
    fam = UNTIL_DECIDED[family][0]
    full, until = _until_decided_runs(family, seed)
    assert np.array_equal(until.outcomes, full.outcomes)
    assert np.array_equal(until.collapse_steps, full.collapse_steps)
    # a retired row ends on its state at retirement, on the full run's argmax
    retired = np.any(until.final_states != full.final_states, axis=1)
    assert 0 < retired.sum() < len(retired)
    assert np.all(_minority(fam, until.final_states[retired]) <= diffusion.RETIRE_TOL)
    assert np.array_equal(np.argmax(fam.sector_weights(until.final_states), axis=1),
                          np.argmax(fam.sector_weights(full.final_states), axis=1))


@pytest.mark.parametrize("family", sorted(UNTIL_DECIDED))
def test_until_decided_rows_that_never_retire_step_as_in_the_full_run(monkeypatch, family):
    # the rows still stepping are cut to the front of the workspace's
    # slabs and read their own columns of the window: the same bits
    import collapsim.diffusion as diffusion

    monkeypatch.setattr(diffusion, "WINDOW_BYTES", 64 * 96 * 16)
    fam = UNTIL_DECIDED[family][0]
    full, until = _until_decided_runs(family, 6)
    kept = _minority(fam, until.final_states) > diffusion.RETIRE_TOL
    assert 0 < kept.sum() < len(kept)
    assert np.array_equal(until.final_states[kept], full.final_states[kept])


def _recording_refills(monkeypatch) -> list:
    """Patch ``LiveStreams.refill`` to append (live rows kept, trajectories
    started) to the list returned, at every window boundary."""
    refill, calls = LiveStreams.refill, []

    def recording_refill(self, master_seed, kept, traj_indices):
        calls.append((len(kept), len(traj_indices)))
        refill(self, master_seed, kept, traj_indices)

    monkeypatch.setattr(LiveStreams, "refill", recording_refill)
    return calls


def test_until_decided_does_not_depend_on_the_chunk(monkeypatch):
    # pools of 24 and 40 slots on 96 rows, each read in windows of 32 steps,
    # take the next trajectories into retired rows' slots at window
    # boundaries; a trajectory that starts in a later window and never
    # retires ends at its own step 810 (a multiple of neither 16 nor the
    # window), mid-window; while trajectories wait for a slot every window
    # draws a full pool, and every result is that of the pools holding all
    # 96 rows (in windows of 32 steps and in one window), bit for bit
    import collapsim.diffusion as diffusion

    fam, dt, psi0, _ = UNTIL_DECIDED["two-level"]
    stepper, n, steps = CslStepper(fam, 1.0, dt), 96, 810
    refills, draws = _recording_refills(monkeypatch), []

    def recording_block(master_seed, rows, *args):
        draws.append((len(rows), sum(started for _, started in refills)))
        return wiener_increment_block(master_seed, rows, *args)

    monkeypatch.setattr(diffusion, "wiener_increment_block", recording_block)
    results = {}
    for chunk, window_bytes in [(24, 32 * 24 * 8), (40, 32 * 40 * 8), (n, 32 * n * 8),
                                (diffusion.CHUNK, diffusion.WINDOW_BYTES)]:
        monkeypatch.setattr(diffusion, "CHUNK", chunk)
        monkeypatch.setattr(diffusion, "WINDOW_BYTES", window_bytes)
        refills.clear()
        draws.clear()
        res = results[chunk] = run_ensemble(psi0, stepper, steps, n, 8, until_decided=True,
                                            traj_offset=5)
        # the windows drawn while trajectories wait, then those after the last start
        waiting = [rows for rows, begun in draws if begun < n]
        rest = [rows for rows, begun in draws if begun == n]
        assert waiting == [chunk] * len(waiting) and len(waiting) + len(rest) == len(draws)
        assert rest == sorted(rest, reverse=True)
        if chunk < n:
            assert len(waiting) > 1 and any(kept and started for kept, started in refills[1:])
            late = np.arange(n) >= chunk
            assert np.any(late & (_minority(fam, res.final_states) > diffusion.RETIRE_TOL))
        elif chunk == n:  # the later windows draw only the rows still stepping
            assert rest[0] == n and rest[-1] < n
    for res in results.values():
        for field in ("final_states", "log_weights", "outcomes", "collapse_steps"):
            assert np.array_equal(getattr(res, field), getattr(results[n], field)), field


def test_nan_increment_in_a_refilled_row_names_its_own_step(monkeypatch):
    # a pool of 24 slots in windows of 32 steps: the first refill beside
    # live rows comes at a window boundary k0 >= 32, and a NaN 6 steps into
    # that window in the last column, a trajectory that starts there, fails
    # that row's check at its own step 16, not at the pool's step k0 + 16
    import collapsim.diffusion as diffusion

    fam, dt, psi0, steps = UNTIL_DECIDED["two-level"]
    refills, takes = _recording_refills(monkeypatch), []

    def nan_block(master_seed, rows, take, *noise):
        block = wiener_increment_block(master_seed, rows, take, *noise)
        if all(refills[-1]) and not any(map(all, refills[:-1])):
            block[5, -1, 0] = np.nan
            assert sum(takes) >= 32
        takes.append(take)
        return block

    monkeypatch.setattr(diffusion, "CHUNK", 24)
    monkeypatch.setattr(diffusion, "WINDOW_BYTES", 32 * 24 * 8)
    monkeypatch.setattr(diffusion, "wiener_increment_block", nan_block)
    with pytest.raises(StabilityError, match="not finite at step 16$"):
        run_ensemble(psi0, CslStepper(fam, 1.0, dt), steps, 96, 8, until_decided=True)
    assert any(map(all, refills))


@pytest.mark.parametrize("kwargs", [
    {"h_matrix": np.array([[0.0, 0.3], [0.3, 0.0]])},
    {"record_every": 10},
    {"resample_every": 10},
], ids=["h_matrix", "record_every", "resample_every"])
def test_until_decided_rejects_a_hamiltonian_a_z_history_and_resampling(kwargs):
    stepper = CslStepper(TWO, gamma=1.0, dt=0.005)
    with pytest.raises(ValueError, match="until_decided"):
        run_ensemble(np.sqrt([0.3, 0.7]), stepper, 20, 4, 1, until_decided=True, **kwargs)


def test_shared_runner_rejects_steppers_with_different_noise():
    psi0 = np.sqrt(np.array([0.3, 0.7]))
    pair = (CslStepper(TWO, 1.0, 0.005, form="linear"), CslStepper(TWO, 1.0, 0.004))
    with pytest.raises(ValueError, match="one gamma, dt"):
        run_ensemble(psi0, pair, 10, 4, 1, resample_every=5)


def test_csl_equivalence_draws_each_increment_once(monkeypatch, tmp_path):
    # both forms read the same window draws: n x steps increments in all
    import json

    import collapsim.diffusion as diffusion
    from collapsim.cli import main

    drawn = []

    def counting_block(master_seed, rows, *args):
        block = wiener_increment_block(master_seed, rows, *args)
        drawn.append((rows.window, block.shape))
        return block

    monkeypatch.setattr(diffusion, "wiener_increment_block", counting_block)
    config = tmp_path / "eq.cfg"
    config.write_text(
        "experiment = csl-equivalence\nseed = 3\ntrajectories = 300\noutput = eq\n"
        "format = json\n[params]\nweights = 0.3, 0.7\ngamma = 1.0\ndt = 0.002\n"
        "steps = 250\nresample_every = 100\n"
    )
    assert main(["--config", str(config), "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "eq.json").read_text())["data"]["trajectories"] == 300
    # one draw a window: windows of 100, 100 and 50 steps
    assert drawn == [(0, (100, 300, 1)), (1, (100, 300, 1)), (2, (50, 300, 1))]


def test_resampled_runner_rejects_record_every():
    psi0 = np.sqrt(np.array([0.3, 0.7], dtype=complex))
    stepper = CslStepper(TWO, gamma=1.0, dt=0.005, form="linear")
    with pytest.raises(ValueError, match="z history"):
        run_ensemble(psi0, stepper, 10, 4, 1, record_every=5, resample_every=5)


def test_linear_eigenstate_fixed_ray_and_zero_eigenvalue_weight():
    fam = ProjectorFamily.two_level(a_plus=0.0, a_minus=1.5)
    psi = np.array([1.0, 0.0], dtype=complex)  # eigenvalue-0 sector
    path = wiener_increment_block(3, [0], 200, 1, 1.0, 0.004)[:, 0]
    out, logw = linear_exact_commuting(psi, fam, path.sum(axis=0), 1.0, 200 * 0.004)
    assert np.allclose(out, psi)
    assert logw == pytest.approx(0.0, abs=1e-12)  # weight constant


def test_nonlinear_eigenstate_is_stationary():
    stepper = CslStepper(TWO, gamma=1.0, dt=0.004, form="nonlinear")
    psi = np.array([0.0, 1.0], dtype=complex)
    path = wiener_increment_block(4, [0], 200, 1, 1.0, 0.004)[:, 0]
    out = psi[None, :]
    ws = StepWorkspace(stepper, out)
    for k in range(len(path)):
        out = stepper.step_batch(out, path[k : k + 1], ws)
    assert abs(abs(np.vdot(psi, out[0])) - 1.0) < 1e-12


def test_linear_raw_average_square_norm_is_martingale():
    # gamma*t modest so the raw-average estimator has workable variance
    psi0 = np.array([np.sqrt(0.4), np.sqrt(0.6)], dtype=complex)
    stepper = CslStepper(TWO, gamma=1.0, dt=0.005, form="linear")
    res = run_ensemble(psi0, stepper, steps=50, n_traj=100_000, master_seed=8)
    mean_norm = float(np.exp(res.log_weights).mean())
    assert abs(mean_norm - 1.0) < 0.01


def test_nonlinear_z_martingale_and_born():
    psi0 = np.array([np.sqrt(0.3), np.sqrt(0.7)], dtype=complex)
    stepper = CslStepper(TWO, gamma=1.0, dt=0.005, form="nonlinear")
    res = run_ensemble(
        psi0, stepper, steps=1000, n_traj=10_000, master_seed=12, record_every=100
    )
    z0 = res.z_history[..., 0]  # (n_rec, n_traj)
    means = z0.mean(axis=1)
    sigma = z0.std(axis=1) / np.sqrt(z0.shape[1])
    assert np.all(np.abs(means - 0.3) <= 3.0 * sigma)
    # z^2 ensemble average nondecreasing
    second = (z0**2).mean(axis=1)
    assert np.all(np.diff(second) > -3.0 * sigma[1:] * 2)
    # long-time outcomes hit the vertices with the Born frequencies
    decided = res.outcomes >= 0
    assert decided.mean() > 0.99
    freq = (res.outcomes == 0).mean()
    assert abs(freq - 0.3) <= 3.0 * np.sqrt(0.3 * 0.7 / 10_000)


# ----------------------------------------------------------------- cooking


def test_systematic_resample_uniform_weights():
    # equal weights: the comb picks every trajectory exactly once
    idx = systematic_resample(np.zeros(1000), master_seed=5, step=0)
    assert np.array_equal(idx, np.arange(1000))


def test_systematic_resample_draws_from_the_resample_stream_of_its_step():
    # the comb offset is the first uniform of Philox key (seed, step) in the
    # RESAMPLE namespace: disjoint from every noise stream and window
    logw = np.log(np.linspace(0.1, 1.0, 500))
    seed, step = 20, 300
    w = np.exp(logw - logw.max())
    cdf = np.cumsum(w / w.sum())

    def comb(generator):
        points = (generator.uniform() + np.arange(500)) / 500
        return np.searchsorted(cdf, points, side="right").clip(0, 499)

    picked = systematic_resample(logw, seed, step)
    assert np.array_equal(picked, comb(trajectory_generator(seed, step, RESAMPLE)))
    assert not np.array_equal(picked, comb(trajectory_generator(seed, step)))
    assert not np.array_equal(picked, systematic_resample(logw, seed, step + 100))


def test_systematic_resample_degenerate_weights():
    idx = systematic_resample(np.log(np.array([2.0, 1e-300])), master_seed=5, step=0)
    assert np.all(idx == 0)
    for logw in ([-np.inf, -np.inf], [np.nan, 0.0]):  # NaN weights, -inf - -inf too
        with pytest.raises(ValueError, match="all-zero"), np.errstate(invalid="ignore"):
            systematic_resample(np.array(logw), master_seed=5, step=0)


def test_two_level_analytic_shapes():
    dens = two_level_analytic((1.0, 0.0), (2.0, -1.0), gamma=0.5, f=3.0)
    xs = np.linspace(-20, 20, 4001)
    pdf = dens.pdf(xs)
    # single Gaussian at 2*gamma*a*t = 2*0.5*2*3 = 6
    assert xs[np.argmax(pdf)] == pytest.approx(6.0, abs=0.02)
    from scipy.integrate import quad

    total = sum(
        quad(lambda x: float(dens.pdf(np.array([x]))[0]), lo, hi, limit=200)[0]
        for lo, hi in ((-60.0, 0.0), (0.0, 60.0))
    )
    assert total == pytest.approx(1.0, abs=1e-10)


def test_two_level_analytic_monte_carlo_ks():
    # cooked histogram of B(t) from linear paths vs the closed-form density
    gamma, t, n = 1.0, 2.0, 100_000
    w0 = (0.35, 0.65)
    eig = (1.0, -1.0)
    rng = trajectory_generator(2718)
    b = rng.normal(0.0, np.sqrt(gamma * t), size=n)  # raw Brownian endpoints
    psi0 = np.sqrt(np.array(w0, dtype=complex))
    _, logw = linear_exact_commuting(psi0, TWO, b[:, None], gamma, t)
    dens = two_level_analytic(w0, eig, gamma, t)
    order = np.argsort(b)
    b_sorted = b[order]
    w = np.exp(logw[order] - logw.max())
    w /= w.sum()
    empirical = np.cumsum(w)
    ks = float(np.max(np.abs(empirical - dens.cdf(b_sorted))))
    n_eff = 1.0 / np.sum(w**2)  # cooked effective sample size
    assert ks < 1.358 / np.sqrt(n_eff)  # 5% critical value, one-sample


def test_linear_exact_commuting_is_exact_solution():
    # d psi = [a dB - gamma a^2 dt] psi per sector (Ito) integrates to
    # exp(a B - gamma a^2 t); verify via fine Euler (the reference's
    # linear step) on a shared path
    gamma, dt, steps = 0.8, 0.0002, 500
    stepper = CslStepper(TWO, gamma, dt, form="linear")
    path = wiener_increment_block(31, [0], steps, 1, gamma, dt)[:, 0]
    out = np.array([[np.sqrt(0.5), np.sqrt(0.5)]], dtype=complex)
    for k in range(steps):
        out, _ = step_batch_reference(stepper, out, path[k : k + 1])
    exact, _ = linear_exact_commuting(
        np.array([np.sqrt(0.5), np.sqrt(0.5)], dtype=complex),
        TWO,
        np.array([float(path.sum())]),
        gamma,
        dt * steps,
    )
    assert np.max(np.abs(out[0] - exact)) < 1e-3


def test_linear_exact_commuting_rows_match_single_calls():
    # two channels, three sectors (basis indices 1 and 3 share a sector)
    fam = diagonal_family(
        np.array([[1.0, -1.0, 0.5, -1.0], [0.0, 2.0, 1.0, 2.0]])
    )
    assert (fam.channel_count, fam.n_sectors) == (2, 3)
    psi0 = np.sqrt(np.array([0.1, 0.2, 0.3, 0.4], dtype=complex))
    gamma, f = 0.7, 2.0
    x = trajectory_generator(41).normal(0.0, 1.5, size=(6, 2))
    states, logw = linear_exact_commuting(psi0, fam, x, gamma, f)
    assert states.shape == (6, 4) and logw.shape == (6,)
    for j in range(6):
        psi, lw = linear_exact_commuting(psi0, fam, x[j], gamma, f)
        assert np.max(np.abs(psi - states[j])) < 1e-14
        assert lw == pytest.approx(logw[j], abs=1e-12)
        # closed form: sum over sectors of z_sigma exp(2 a.x - 2 gamma |a|^2 f)
        expected = sum(
            float(np.sum(np.abs(psi0[idx]) ** 2))
            * np.exp(2.0 * (a @ x[j]) - 2.0 * gamma * (a @ a) * f)
            for a, idx in zip(fam.eigenvalues, fam.sectors)
        )
        assert lw == pytest.approx(np.log(expected), abs=1e-12)
    # one state per row: two updates compose into one with summed x and f
    x2 = trajectory_generator(42).normal(0.0, 1.5, size=(6, 2))
    twice, logw2 = linear_exact_commuting(states, fam, x2, gamma, 0.5)
    once, logw_once = linear_exact_commuting(psi0, fam, x + x2, gamma, f + 0.5)
    assert np.max(np.abs(twice - once)) < 1e-12
    assert np.max(np.abs(logw + logw2 - logw_once)) < 1e-10


# --------------------------------------------- sector weights z = |P psi|^2


def test_nonlinear_step_keeps_vertices_and_the_simplex():
    # three sectors, two channels: a vertex (an eigenstate) stays one, and
    # the sector weights of every step sum to 1
    fam = diagonal_family(np.array([[1.0, -1.0, 0.5], [0.0, 2.0, -0.3]]))
    stepper = CslStepper(fam, 1.0, 0.002, form="nonlinear")
    psis = np.sqrt(np.array([[1.0, 0.0, 0.0], [0.2, 0.5, 0.3]]))
    ws = StepWorkspace(stepper, psis)
    for db in wiener_increment_block(5, np.arange(2), 200, 2, 1.0, 0.002):
        psis = stepper.step_batch(psis, db, ws)
        z = fam.sector_weights(psis)
        assert np.max(np.abs(z.sum(axis=1) - 1.0)) < 1e-12
        assert np.array_equal(z[0], [1.0, 0.0, 0.0])


def test_nonlinear_step_projects_to_the_driftless_z_diffusion():
    # shared noise, resynced each step: the sector weights of one nonlinear
    # step follow the z system dz_sigma = 2 z_sigma (a_sigma - <A>) . dB,
    # a martingale on the simplex
    gamma, dt, a = 1.0, 2e-7, np.array([1.0, -1.0])
    stepper = CslStepper(TWO, gamma, dt, form="nonlinear")
    rng = trajectory_generator(77)
    psi = np.sqrt(np.array([[0.3, 0.7]], dtype=complex))  # a one-row batch
    ws = StepWorkspace(stepper, psi)
    for _ in range(300):
        db = rng.normal(0.0, np.sqrt(gamma * dt), size=1)
        z_now = np.abs(psi[0]) ** 2
        z_pred = z_now + 2.0 * z_now * (a - z_now @ a) * db[0]
        psi = stepper.step_batch(psi, db[None, :], ws)
        assert np.max(np.abs(z_pred - np.abs(psi[0]) ** 2)) < 1e-6


def test_z_vertex_absorption_multi_sector():
    # empirical uniqueness check (<= 5 sectors): every path ends at a
    # vertex; the slowest pair gap sets the required horizon
    eig = np.array([1.0, 0.4, -0.2, -0.8, 1.6])
    stepper = CslStepper(
        diagonal_family(eig[None, :]), 1.0, 0.003, form="nonlinear"
    )
    psi0 = np.ones(5, dtype=complex) / np.sqrt(5)
    res = run_ensemble(psi0, stepper, 14000, 400, 2024)
    z = np.abs(res.final_states) ** 2
    assert float(np.mean(z.max(axis=1) > 0.999)) > 0.97
    # each sector wins with roughly its initial weight
    winners = np.bincount(np.argmax(z, axis=1), minlength=5) / 400
    assert np.all(np.abs(winners - 0.2) < 3.0 * np.sqrt(0.2 * 0.8 / 400))


# ---------------------------------------------------------------- lindblad


def test_lindblad_identity_coupling_is_decoherence_free():
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    h = np.array([[0.0, 0.2], [0.2, 0.0]], dtype=complex)
    rho_free = lindblad_evolve(rho0, h, [np.eye(2, dtype=complex)], 2.0, 1.3)
    from scipy.linalg import expm

    u = expm(-1j * h * 1.3)
    expected = u @ rho0 @ u.conj().T
    assert np.max(np.abs(rho_free - expected)) < 1e-10


def test_lindblad_offdiag_rate_formula():
    fam = diagonal_family(np.array([[1.0, -1.0, 0.5], [0.0, 2.0, 1.0]]))
    gamma, t = 0.7, 0.9
    rho0 = np.full((3, 3), 1.0 / 3.0, dtype=complex)
    rho_t = lindblad_evolve(rho0, None, fam, gamma, t)
    for a in range(3):
        for b in range(3):
            if a == b:
                continue
            rate = colored_instantaneous_rate(fam, WHITE, gamma, a, b)
            expected = rho0[a, b] * np.exp(-rate * t)
            assert rho_t[a, b] == pytest.approx(expected, rel=1e-9)


def test_lindblad_matches_rk_oracle_and_conserves():
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho0_m = raw @ raw.conj().T
    rho0_m /= np.trace(rho0_m).real
    h = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.1]], dtype=complex)
    fam = diagonal_family(np.array([[1.0, 0.0, -1.0]]))
    rho_t = lindblad_evolve(rho0_m, h, fam, 0.8, 1.1)
    oracle = lindblad_by_ode(rho0_m, h, [np.diag(fam.basis_eigenvalues()[0])], 0.8, 1.1)
    assert np.max(np.abs(rho_t - oracle)) < 1e-8
    assert np.trace(rho_t).real == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.eigvalsh(rho_t)[0] > -1e-8


def test_lindblad_purity_decay():
    psi0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    rho0 = np.outer(psi0, psi0.conj())
    fam = TWO
    purities = []
    for t in (0.0, 0.3, 0.8, 1.5):
        rho_t = lindblad_evolve(rho0, None, fam, 0.7, t) if t else rho0
        purities.append(np.sum(np.abs(rho_t) ** 2))
    assert all(b < a for a, b in zip(purities, purities[1:]))


# ---------------------------------------------------- decoherence contrast


def test_single_path_samplers_keep_their_streams_and_bits():
    # a row of the block draw is the single-path sampler's output
    for args in [(99, 1000, 2, 0.5, 0.02, 7), (2**64 - 1, 3, 1, 1.0, 0.01, 2**63)]:
        reference = sample_wiener_reference(*args)
        seed, steps, channels, gamma, dt, index = args
        white = wiener_increment_block(seed, [index], steps, channels, gamma, dt)[:, 0]
        assert np.array_equal(white, reference)


def test_hermitian_phase_noise_dephases_without_reduction():
    # the contrast model of criterion 10
    psi0 = np.array([np.sqrt(0.3), np.sqrt(0.7)], dtype=complex)
    gamma, dt, steps = 0.8, 0.01, 250
    rho, z_all = hermitian_phase_noise_reference(psi0, TWO, gamma, dt, steps, 4000, 55)
    # path-wise sector weights exactly constant
    assert np.max(np.abs(z_all - np.array([0.3, 0.7]))) < 1e-12
    # ensemble off-diagonal damps at rate gamma
    expected = np.sqrt(0.21) * np.exp(-gamma * dt * steps)
    assert abs(rho[0, 1]) == pytest.approx(expected, rel=0.1)
    # diagonal untouched
    assert rho[0, 0].real == pytest.approx(0.3, abs=1e-12)


# ------------------------------------------------------------------- cells


def test_discrete_decay_identity_and_scaling():
    # a cell family's white two-sector rate is (lambda/2) sum_k (n_k - m_k)^2
    n, m = np.array([3, 1, 0]), np.array([0, 1, 3])
    family = ProjectorFamily.from_configurations(np.stack([n, m]))
    rate = colored_instantaneous_rate(family, WHITE, 0.5, 0, 1)
    assert rate == pytest.approx(0.5 * 0.5 * 18)
    assert -rate * 2.0 == discrete_decay_log(n, m, 0.5, 2.0)
    assert colored_instantaneous_rate(family, WHITE, 0.5, 1, 0) == rate
    # equal configurations do not decay, and are one sector, not two
    assert discrete_decay_log(n, n, 0.5, 2.0) == 0.0
    with pytest.raises(ValueError):
        ProjectorFamily.from_configurations(np.stack([n, n]))


def test_discrete_decay_log_space_macro():
    # four cells each losing 1e9 particles: exponent -2e16, far below any
    # representable double, handled purely in log space
    n = np.full(4, 1e9)
    m = np.zeros(4)
    family = ProjectorFamily.from_configurations(np.stack([n, m]))
    log_factor = -colored_instantaneous_rate(family, WHITE, 1.0, 0, 1) * 1e-2
    assert log_factor == pytest.approx(-0.5 * 4e18 * 1e-2)
    assert log_factor == discrete_decay_log(n, m, 1.0, 1e-2)
    assert np.exp(log_factor) == 0.0  # the factor itself underflows


# ------------------------------------------------------------- macro rates


def test_macro_reduction_rate_canonical():
    assert macro_reduction_rate(1e-30, 1e24, 1e13) == pytest.approx(1e7)
    assert macro_reduction_rate(1e-30, 1e24, 0.0) == 0.0


def test_slab_rate_quadrature_reduces_to_sharp_scanning():
    gamma, d0, length, alpha = 2.0, 3.0, 300.0, 25.0
    width = 1.0 / np.sqrt(alpha)
    for q in (25.0, 50.0):  # displacements >> localization width
        quad_rate = slab_reduction_rate_quadrature(
            gamma, d0, length, q, alpha, n_points=20001
        )
        sharp = gamma * d0 * (d0 * q)  # n_out = D0 * q per unit section
        assert quad_rate == pytest.approx(sharp, rel=0.01)
        # the finite-width offset is exactly 2 width/sqrt(pi)
        refined = gamma * d0**2 * (q - 2.0 * width / np.sqrt(np.pi))
        assert quad_rate == pytest.approx(refined, rel=1e-4)


def test_momentum_diffusion_canonical_and_quadrature():
    value = momentum_diffusion(1e-30, 1e10, 1e24, 1.0, HBAR_CGS)
    assert abs(np.log10(value) - np.log10(1e-32)) < 1.0
    assert momentum_diffusion(1e-30, 1e10, 1e24, 0.0, HBAR_CGS) == 0.0
    # numeric (dF/dy)^2 integral vs sqrt(alpha/pi) D0^2 for a wide profile
    alpha, d0, edge = 30.0, 2.0, 25.0
    numeric = momentum_diffusion_quadrature(alpha, d0, edge, n_points=20001)
    closed = np.sqrt(alpha / np.pi) * d0**2
    assert numeric == pytest.approx(closed, rel=0.01)


def test_condenser_scenario_order():
    params = canonical_qmsl()
    rate = condenser_decay_rate(params)
    assert abs(np.log10(rate) - np.log10(1e-8)) < 1.0
    # electrons suppress the nucleon-mass rate, lambda n^2 / K of 1e12
    # nucleons on K = alpha cells of a 1 cm^2 plate, by (m_e/m0)^2 ~ 2.97e-7
    unweighted = params.lambda_rate * 1e24 / params.alpha
    assert rate / unweighted == pytest.approx((ELECTRON_MASS_G / NUCLEON_MASS_G) ** 2, rel=1e-12)
    assert rate / unweighted == pytest.approx(2.97e-7, rel=0.01)


def test_single_particle_smeared_density_equals_hitting_kernel():
    # lambda = gamma (alpha/4 pi)^(1/2): the smeared-density damping built
    # by quadrature matches the hitting master equation on a shared grid
    alpha, gamma_1d = 1.3, 0.9
    lam = gamma_1d * (alpha / (4.0 * np.pi)) ** 0.5
    u = np.linspace(-6.0, 6.0, 49)
    from_density = smeared_density_damping_1d(gamma_1d, alpha, u)
    from_hitting = lam * (1.0 - np.exp(-0.25 * alpha * u**2))
    t = 0.8
    kernel_a = np.exp(-from_density * t)
    kernel_b = np.exp(-from_hitting * t)
    assert np.max(np.abs(kernel_a - kernel_b)) < 1e-8


def test_systematic_resample_reproduces_analytic_peaks():
    # resampled outcome frequencies land on the analytic mixture peaks
    gamma, t, n = 1.0, 2.0, 40_000
    w0 = (0.35, 0.65)
    rng = trajectory_generator(515)
    b = rng.normal(0.0, np.sqrt(gamma * t), size=n)
    psi0 = np.sqrt(np.array(w0, dtype=complex))
    _, logw = linear_exact_commuting(psi0, TWO, b[:, None], gamma, t)
    idx = systematic_resample(logw, master_seed=516, step=0)
    picked = b[idx]
    freq_upper = float(np.mean(picked > 0.0))  # basin of the +1 peak
    w = np.exp(logw - logw.max())
    n_eff = (w.sum()) ** 2 / np.sum(w**2)
    assert abs(freq_upper - w0[0]) < 3.0 * np.sqrt(w0[0] * w0[1] / n_eff)
