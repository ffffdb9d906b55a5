"""Property tests for the pure-math invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsim.cells import discrete_decay_log
from collapsim.colored import CorrelationSpec
from collapsim.diffusion import CslStepper, StepWorkspace

from oracles import diagonal_family


@given(st.integers(2, 6), st.integers(1, 3), st.randoms(use_true_random=False))
def test_projector_family_completeness(dim, channels, rnd):
    values = np.array(
        [[rnd.choice([-1.0, 0.0, 1.0, 2.0]) for _ in range(dim)] for _ in range(channels)]
    )
    try:
        fam = diagonal_family(values)
    except ValueError:
        return  # a degenerate draw (single sector) is rejected by contract
    covered = np.concatenate([np.atleast_1d(s).ravel() for s in fam.sectors])
    assert sorted(covered.tolist()) == list(range(dim))
    # sector weights of any state sum to one
    vec = np.arange(1, dim + 1).astype(complex)
    vec /= np.linalg.norm(vec)
    z = fam.sector_weights(vec)
    assert abs(z.sum() - 1.0) < 1e-12


@given(
    st.lists(st.integers(0, 50), min_size=1, max_size=6),
    st.lists(st.integers(0, 50), min_size=1, max_size=6),
    st.floats(1e-6, 10.0),
    st.floats(0.0, 100.0),
)
def test_discrete_decay_factor_in_unit_interval(n, m, lam, t):
    size = min(len(n), len(m))
    n_arr, m_arr = np.array(n[:size]), np.array(m[:size])
    # the factor is exp of the log: at most 1, and 1 between equal configurations
    log_factor = discrete_decay_log(n_arr, m_arr, lam, t)
    assert log_factor <= 0.0
    if np.array_equal(n_arr, m_arr):
        assert log_factor == 0.0


@given(
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
    st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=5),
    st.floats(-0.05, 0.05),
)
@settings(max_examples=60)
def test_nonlinear_step_stays_on_the_simplex(z_raw, a_raw, db):
    size = min(len(z_raw), len(a_raw))
    if size < 2 or len(set(a_raw[:size])) < size:
        return
    z = np.array(z_raw[:size])
    psi = np.sqrt(z / z.sum())[None, :]
    family = diagonal_family(np.array(a_raw[:size])[None, :])
    stepper = CslStepper(family, 1.0, 0.005 / max(1.0, np.max(family.eigenvalues**2)))
    out = stepper.step_batch(psi, np.array([[db]]), StepWorkspace(stepper, psi))
    weights = family.sector_weights(out)
    assert abs(weights.sum() - 1.0) < 1e-12 and weights.min() >= 0.0


@given(st.floats(0.01, 5.0), st.floats(0.0, 20.0))
def test_colored_double_integral_monotone_nonnegative(tau, t_span):
    for spec in (CorrelationSpec(kind, tau=tau) for kind in ("gaussian", "exponential")):
        f = spec.double_integral(t_span)
        assert 0.0 <= f <= t_span + 1e-12  # colored noise never beats white
        assert spec.double_integral(t_span + 1.0) >= f
