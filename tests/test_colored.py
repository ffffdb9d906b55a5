"""General Gaussian (non-white) noise dynamics."""

import numpy as np
import pytest

from collapsim.colored import CorrelationSpec, _toeplitz, colored_instantaneous_rate
from collapsim.cooking import linear_exact_commuting
from collapsim.noise import wiener_increment_block
from collapsim.operators import ProjectorFamily

from oracles import (
    colored_increment_block,
    diagonal_family,
    double_integral_by_quadrature,
    run_commuting_nonwhite_ensemble,
    two_level_analytic,
)

TWO = ProjectorFamily.two_level()


# ------------------------------------------------------------------ specs


def test_white_spec_falls_back_to_wiener():
    a = colored_increment_block(CorrelationSpec.white(), 42, [0], 500, 1, 1.3, 0.01)
    b = wiener_increment_block(42, [0], 500, 1, 1.3, 0.01)
    assert np.array_equal(a, b)


def test_exponential_autocorrelation():
    tau, dt, gamma = 0.5, 0.05, 2.0
    spec = CorrelationSpec("exponential", tau=tau)
    w = colored_increment_block(spec, 9, [0], 100_000, 1, gamma, dt)[:, 0, 0] / dt
    assert np.var(w) == pytest.approx(gamma / (2 * tau), rel=0.02)
    for lag in (1, 2, 5):
        corr = np.mean(w[:-lag] * w[lag:]) / np.var(w)
        assert corr == pytest.approx(np.exp(-lag * dt / tau), abs=0.02)


def test_gaussian_kernel_small_tau_approaches_white_variance():
    # integrated variance over [0, T] approaches gamma*T as tau -> 0
    gamma, t_span = 1.5, 2.0
    for tau, tol in ((0.2, 0.12), (0.05, 0.03)):
        spec = CorrelationSpec("gaussian", tau=tau)
        var = gamma * spec.double_integral(t_span)
        assert var == pytest.approx(gamma * t_span, rel=tol)
    # and sampled paths reproduce the integrated variance
    spec = CorrelationSpec("gaussian", tau=0.2)
    block = colored_increment_block(spec, 77, np.arange(400), 200, 1, gamma, 0.01)
    xs = block.sum(axis=0)
    assert np.var(xs) == pytest.approx(gamma * spec.double_integral(2.0), rel=0.25)


@pytest.mark.parametrize(
    "spec",
    [
        CorrelationSpec.white(),
        CorrelationSpec("exponential", tau=0.3),
        CorrelationSpec("gaussian", tau=0.2),
    ],
    ids=["white", "exponential", "gaussian"],
)
def test_one_row_block_is_its_row_of_a_larger_block(spec):
    block = colored_increment_block(spec, 31, np.array([4, 0, 9]), 120, 2, 1.3, 0.01)
    for j, index in enumerate((4, 0, 9)):
        row = colored_increment_block(spec, 31, [index], 120, 2, 1.3, 0.01)[:, 0]
        if spec.kind == "gaussian":  # one Cholesky product for the batch
            assert np.allclose(row, block[:, j], rtol=0, atol=1e-12)
        else:
            assert np.array_equal(row, block[:, j])


def test_custom_kernel_psd_validation():
    dt = 0.1
    good = np.exp(-np.arange(20) * dt / 0.4) / (2 * 0.4)
    CorrelationSpec("custom", samples=good, dt=dt)
    bad = np.array([1.0, 0.9, 0.0])  # lag-1 too strong for zero lag-2
    with pytest.raises(ValueError, match="positive semidefinite"):
        CorrelationSpec("custom", samples=bad, dt=dt)


def test_custom_double_integral_is_the_gram_sum():
    # the O(K) sum against the sum of the S x S Toeplitz matrix, S = 0..200,
    # for a kernel of K = 40 samples (zero past the last)
    dt = 0.05
    samples = np.exp(-np.arange(40) * dt / 0.5)
    spec = CorrelationSpec("custom", samples=samples, dt=dt)
    gram = _toeplitz(np.append(samples, np.zeros(160)))
    for steps in range(201):
        expected = gram[:steps, :steps].sum() * dt**2
        assert spec.double_integral(steps * dt) == pytest.approx(expected, rel=1e-12, abs=0)


def test_double_integral_closed_forms_vs_quadrature():
    for spec in (CorrelationSpec(kind, tau=0.7) for kind in ("gaussian", "exponential")):
        for t_span in (0.3, 1.1, 4.0):
            closed = spec.double_integral(t_span)
            oracle = double_integral_by_quadrature(spec, t_span)
            assert closed == pytest.approx(oracle, rel=1e-8)


# ---------------------------------------------------------------- damping


def test_stationary_gaussian_rate_equals_white():
    for tau in (0.01, 0.3, 2.0):
        spec = CorrelationSpec("gaussian", tau=tau)
        rate = colored_instantaneous_rate(TWO, spec, 1.7, 0, 1, None)
        white = colored_instantaneous_rate(TWO, CorrelationSpec.white(), 1.7, 0, 1, None)
        assert rate == pytest.approx(white, rel=1e-12)


def test_exponential_rate_rampup_factor():
    tau, gamma = 0.8, 1.1
    spec = CorrelationSpec("exponential", tau=tau)
    quad = float(
        (TWO.eigenvalues[0] - TWO.eigenvalues[1])
        @ (TWO.eigenvalues[0] - TWO.eigenvalues[1])
    )
    for t in (0.2, 0.9, 3.0):
        rate = colored_instantaneous_rate(TWO, spec, gamma, 0, 1, t)
        expected = 0.5 * gamma * quad * (1.0 - np.exp(-t / tau))
        assert rate == pytest.approx(expected, rel=1e-12)


def test_damping_factor_diagonal_invariant():
    # a sector's diagonal entry damps at rate zero, an off-diagonal one does not
    spec = CorrelationSpec("gaussian", tau=0.4)
    assert colored_instantaneous_rate(TWO, spec, 1.0, 0, 0, 5.0) == 0.0
    assert colored_instantaneous_rate(TWO, spec, 1.0, 0, 1, 5.0) > 0.0


def test_damping_exponent_nonpositive_for_psd_kernels():
    # the exponent is -(gamma/2) sum (a - b)^2 f(t), so f(t) >= 0
    samples = np.exp(-np.arange(40) * 0.05 / 0.4) / 0.8
    custom = CorrelationSpec("custom", samples=samples, dt=0.05)
    for spec in (
        CorrelationSpec("gaussian", tau=0.3),
        CorrelationSpec("exponential", tau=1.2),
        CorrelationSpec.white(),
        custom,
    ):
        for t in (0.1, 1.0, 10.0):
            assert spec.double_integral(t) >= 0.0


# ------------------------------------------------------------ cooked density


def test_two_level_analytic_checks_its_arguments():
    with pytest.raises(ValueError, match="sum to one"):
        two_level_analytic((0.3, 0.6), (1.0, -1.0), 1.0, 2.0)
    with pytest.raises(ValueError, match="nonnegative"):
        two_level_analytic((0.3, 0.7), (1.0, -1.0), 1.0, -0.1)


def test_colored_cooked_density_separation_grows():
    gamma = 1.0
    spec = CorrelationSpec("exponential", tau=0.5)
    ratios = []
    for t in (1.0, 4.0, 16.0):
        f = spec.double_integral(t)
        dens = two_level_analytic((0.5, 0.5), (1.0, -1.0), gamma, f)
        separation = dens.means[0] - dens.means[1]
        ratios.append(separation / np.sqrt(dens.variance))
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[2] > 15.0  # reduction condition: diverging separation


# ------------------------------------------------------- trajectory steps


def test_eigenstate_fixed_ray():
    psi = np.array([0.0, 1.0], dtype=complex)
    out, _ = linear_exact_commuting(psi, TWO, np.array([0.31]), 1.0, 0.05)
    assert np.allclose(np.abs(out), np.abs(psi))


def test_ensemble_is_the_exact_update_of_each_summed_path():
    # two channels: the ensemble takes any commuting family
    fam = diagonal_family(np.array([[1.0, -1.0, 0.5], [0.0, 2.0, 1.0]]))
    spec = CorrelationSpec("exponential", tau=0.3)
    psi0 = np.sqrt(np.array([0.2, 0.35, 0.45], dtype=complex))
    states, logws = run_commuting_nonwhite_ensemble(psi0, fam, spec, 1.0, 2.0, 80, 314, 5)
    f = spec.double_integral(2.0)
    for j in range(5):
        x = colored_increment_block(spec, 314, [j], 80, 2, 1.0, 2.0 / 80)[:, 0]
        psi, logw = linear_exact_commuting(psi0, fam, x.sum(axis=0), 1.0, f)
        assert np.max(np.abs(psi - states[j])) < 1e-12
        assert logw == pytest.approx(logws[j], abs=1e-12)


def test_colored_born_frequencies():
    # exponential kernel, large t: outcome frequencies match initial weights
    gamma, tau, t_end, steps = 1.0, 0.3, 6.0, 480
    spec = CorrelationSpec("exponential", tau=tau)
    w0 = 0.35
    psi0 = np.sqrt(np.array([w0, 1 - w0], dtype=complex))
    states, logws = run_commuting_nonwhite_ensemble(
        psi0, TWO, spec, gamma, t_end, steps, 314, 20_000
    )
    z0s = np.abs(states[:, 0]) ** 2
    w = np.exp(logws - logws.max())
    w /= w.sum()
    freq = float(np.sum(w * (z0s > 0.5)))
    n_eff = 1.0 / np.sum(w**2)
    assert abs(freq - w0) < 3.0 * np.sqrt(w0 * (1 - w0) / n_eff)


def test_colored_raw_norm_average_conserved():
    # commuting regime martingale at modest gamma*f(t)
    gamma, tau, t_end, steps = 1.0, 0.3, 0.5, 100
    spec = CorrelationSpec("exponential", tau=tau)
    psi0 = np.sqrt(np.array([0.5, 0.5], dtype=complex))
    _, logws = run_commuting_nonwhite_ensemble(
        psi0, TWO, spec, gamma, t_end, steps, 161, 20_000
    )
    assert abs(np.exp(logws).mean() - 1.0) < 0.01


def test_colored_ks_against_analytic_density():
    # histogram of x(t) under cooked weights vs the mixture density
    gamma, tau, t_end, steps = 1.0, 0.4, 4.0, 640
    spec = CorrelationSpec("exponential", tau=tau)
    w0 = (0.5, 0.5)
    psi0 = np.sqrt(np.array(w0, dtype=complex))
    n = 4000
    _, logws = run_commuting_nonwhite_ensemble(psi0, TWO, spec, gamma, t_end, steps, 271, n)
    # the integrated noise each trajectory was updated with: the same streams
    block = colored_increment_block(spec, 271, np.arange(n), steps, 1, gamma, t_end / steps)
    xs = block.sum(axis=0)[:, 0]
    f = spec.double_integral(t_end)
    dens = two_level_analytic(w0, (1.0, -1.0), gamma, f)
    order = np.argsort(xs)
    w = np.exp(logws[order] - logws.max())
    w /= w.sum()
    ks = float(np.max(np.abs(np.cumsum(w) - dens.cdf(xs[order]))))
    n_eff = 1.0 / np.sum(w**2)
    assert ks < 1.358 / np.sqrt(n_eff)
