"""Hitting process and its exact ensemble-level consequences."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from collapsim.errors import GridLeakageError
from collapsim.freeparticle import (
    characteristic_times,
    com_amplified_rate,
    damping_factor,
    damping_time_integral,
    energy_increase_rate,
    evolve_free_master,
    free_particle_moments,
    offdiag_damping_beta,
    offdiag_lifetime,
)
from collapsim.hitting import _gaussian_factor, band_cuts, hit_rows, run_qmsl_ensemble, tail_bounds
from collapsim.noise import TILE_BYTES, trajectory_generator
from collapsim.params import CollapseParams
from collapsim.schrodinger import _kinetic_phase, gaussian_packet, two_packet_state
from collapsim.states import DEFAULT_LEAK_TOL, GridWavefunction, ensemble_density
from collapsim.units import ERG_PER_EV, HBAR_CGS

from oracles import (
    damping_integral_by_quadrature,
    ensemble_moments,
    erf_beta_by_quadrature,
    free_gaussian_q_var,
    free_step_reference,
    hitting_density_reference,
    master_kernel_by_ode,
    qmsl_exact_time_lockstep,
)

DESK = CollapseParams(4.0, 1.0, 1.0, dimension=1)
MACRO = CollapseParams(1e7, 1e10, 1.0)


def _two_packets(sigma=0.45, sep=6.0, n=256, dx=0.125, mass=20.0):
    return two_packet_state(n, dx, -n * dx / 2, mass, (-sep / 2, sep / 2), sigma)


def _normalized(psi):
    return replace(psi, amplitudes=psi.amplitudes / np.sqrt(psi.norm_sq()))


def _factor(psi, x, alpha):
    """L_x on the grid, in a fresh workspace."""
    return _gaussian_factor(psi, x, alpha, np.empty((2,) + np.shape(x) + (psi.n,)))


# ------------------------------------------------- localization operator


def test_hit_suppresses_far_packet():
    # widths 1/sqrt(gamma_w) << 1/sqrt(alpha), separation >> 1/sqrt(alpha)
    alpha = 1.0
    a = 3.0
    psi = _two_packets(sigma=0.3, sep=2 * a)
    hit = replace(psi, amplitudes=_factor(psi, a, alpha) * psi.amplitudes)
    x = psi.positions
    near = np.abs(hit.amplitudes[np.argmin(np.abs(x - a))])
    far = np.abs(hit.amplitudes[np.argmin(np.abs(x + a))])
    expected_suppression = np.exp(-2.0 * alpha * a**2)
    assert far / near == pytest.approx(expected_suppression, rel=0.3)
    # surviving packet width essentially unchanged: 1/w^2 = 1/sig^2 + ... tiny
    post = _normalized(hit)
    prob = np.abs(post.amplitudes) ** 2 * psi.dx
    mean = prob @ x
    var = prob @ x**2 - mean**2
    sigma_post = 1.0 / np.sqrt(1.0 / 0.3**2 + 2.0 * alpha)
    assert np.sqrt(var) == pytest.approx(sigma_post, rel=0.05)


def test_hit_on_localized_packet_is_gentle():
    alpha = 1.0
    psi = gaussian_packet(64, 0.25, -8.0, 10.0, 0.0, 0.3)
    hit = _normalized(replace(psi, amplitudes=_factor(psi, 0.2, alpha) * psi.amplitudes))
    fidelity = abs(np.vdot(psi.amplitudes, hit.amplitudes) * psi.dx) ** 2
    assert fidelity >= 0.99


def test_hit_far_from_packets_changes_nothing_but_is_unlikely():
    alpha = 1.0
    a = 2.5
    psi = two_packet_state(1024, 12.0 / 1024, -6.0, 20.0, (-a, a), 0.03)
    hit = replace(psi, amplitudes=_factor(psi, 0.0, alpha) * psi.amplitudes)
    weight = hit.norm_sq()  # sampling mass of this center
    # quadrature oracle: P(0) = int sqrt(a/pi) exp(-a q^2)|psi|^2 dq
    x = psi.positions
    oracle = float(
        np.sum(np.sqrt(alpha / np.pi) * np.exp(-alpha * x**2) * np.abs(psi.amplitudes) ** 2)
        * psi.dx
    )
    assert weight == pytest.approx(oracle, rel=1e-10)
    # tiny, of the order exp(-alpha a^2) broadened by the packet width
    assert weight < 3.0 * np.exp(-alpha * a**2)
    post = _normalized(hit)
    fidelity = abs(np.vdot(psi.amplitudes, post.amplitudes) * psi.dx) ** 2
    assert fidelity > 0.98
    # no reduction occurred: both packets keep their half masses
    mass_right = float((np.abs(post.amplitudes) ** 2 * psi.dx) @ (x > 0))
    assert mass_right == pytest.approx(0.5, abs=1e-3)


# ------------------------------------------------------- hitting density


def test_hitting_density_normalized_and_split():
    psi = _two_packets()
    dens = hitting_density_reference(psi, 1.0, psi.amplitudes)
    assert abs(float(dens.sum() * psi.dx) - 1.0) < 1e-8
    x = psi.positions
    left = float(dens[x < 0].sum() * psi.dx)
    assert left == pytest.approx(0.5, abs=0.01)


def test_hitting_density_pointlike_packet_convolution():
    # near-point packet: density ~ Gaussian of combined width
    alpha, sigma = 1.0, 0.25
    psi = gaussian_packet(128, 0.125, -8.0, 10.0, 0.7, sigma)
    dens = hitting_density_reference(psi, alpha, psi.amplitudes)
    x = psi.positions
    mean = float(dens @ x * psi.dx)
    var = float(dens @ x**2 * psi.dx) - mean**2
    # closed-form convolution oracle: var = sigma^2 + 1/(2 alpha)
    assert mean == pytest.approx(0.7, abs=1e-3)
    assert var == pytest.approx(sigma**2 + 0.5 / alpha, rel=1e-3)


def _uniform_on_ring(n=64, dx=0.25, x0=-8.0):
    psi = two_packet_state(n, dx, x0, 1.0, (-3, 3), 0.45)
    return _normalized(replace(psi, amplitudes=np.ones(n, dtype=complex)))


def test_hitting_density_uniform_on_ring():
    psi = _uniform_on_ring()
    dens = hitting_density_reference(psi, 1.0, psi.amplitudes)
    assert np.max(np.abs(dens - dens[0])) < 1e-10


def test_hitting_density_requires_normalized():
    psi = _two_packets()
    with pytest.raises(ValueError, match="normalized"):
        hit_rows(psi, 1.0, 2.0 * psi.amplitudes[None], [0.5], [0.0], np.empty((3, 1, psi.n)))


def _hits(psi, alpha, n, seed, batch=2000):
    # n hits of psi by hit_rows, a batch of rows at a time, with the uniforms
    # and normals of one generator: (centers, weights, summed post-hit |psi|^2)
    rng = trajectory_generator(seed)
    u, z = rng.uniform(size=n), rng.standard_normal(size=n)
    x, weight, post = np.empty(n), np.empty(n), np.zeros(psi.n)
    for s in range(0, n, batch):
        amps = np.tile(psi.amplitudes, (min(batch, n - s), 1))
        x[s : s + batch], weight[s : s + batch] = hit_rows(
            psi, alpha, amps, u[s : s + batch], z[s : s + batch], np.empty((3,) + amps.shape)
        )
        post += np.sum(np.abs(amps) ** 2, axis=0)
    return x, weight, post


def _ring_gaussian_sq(psi, alpha, x):
    # g^2(x - x_j) = sqrt(alpha/pi) exp(-alpha d^2), d the ring distance from
    # each x to each node: one row per x
    d = np.remainder(np.reshape(x, (-1, 1)) - psi.positions + psi.length / 2, psi.length)
    return np.sqrt(alpha / np.pi) * np.exp(-alpha * (d - psi.length / 2) ** 2)


@pytest.mark.parametrize("state", ["two-packets", "sigma-2dx-at-the-edge"])
def test_hit_centers_follow_the_quadrature_law(state):
    # 40 000 centers against the CDF of ||L_x psi||^2 = sum_j |psi_j|^2 dx
    # g^2(x - x_j), by the trapezoid rule on a grid 32 times finer than psi's,
    # between the nodes too; K-S at the 1e-5 level (critical distance 0.012)
    if state == "two-packets":
        psi, alpha = _two_packets(), 1.7
    else:  # sigma = 2 dx, centered on x0: half its mass wraps to the far end
        psi, alpha = gaussian_packet(256, 0.125, -16.0, 20.0, 0.0, 0.25), 8.0
        psi = replace(psi, amplitudes=np.roll(psi.amplitudes, psi.n // 2))
    x, _, _ = _hits(psi, alpha, 40_000, 17)
    fine = psi.x0 + np.linspace(0.0, psi.length, 32 * psi.n + 1)
    dens = _ring_gaussian_sq(psi, alpha, fine) @ (np.abs(psi.amplitudes) ** 2 * psi.dx)
    cdf = np.r_[0.0, np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(fine))]
    result = kstest(x, lambda v: np.interp(v, fine, cdf / cdf[-1]))
    assert result.pvalue > 1e-5, result


def test_hit_centers_stay_on_the_ring():
    # a first-node draw with z < 0 and a last-node draw with z > 0 wrap
    # round; -1e-300 puts the offset a rounding below L, which is x0
    psi, alpha = _uniform_on_ring(), 2.0
    below_one = np.nextafter(1.0, 0.0)
    u = np.array([0.0, 0.0, below_one, below_one, 0.5])
    z = np.array([-1e-300, -3.0, 1e-300, 3.0, 0.0])
    x, _ = hit_rows(psi, alpha, np.tile(psi.amplitudes, (5, 1)), u, z, np.empty((3, 5, psi.n)))
    top, s = psi.x0 + psi.length, 3.0 / np.sqrt(2.0 * alpha)
    assert np.all((psi.x0 <= x) & (x < top))
    expected = [psi.x0, top - s, top - psi.dx, psi.x0 + s - psi.dx, psi.x0 + psi.n // 2 * psi.dx]
    assert x == pytest.approx(expected, abs=1e-12)


def test_hit_weight_is_the_norm_of_the_localized_row():
    # the logged weight is ||L_x psi||^2 = sum_j |psi_j|^2 g_j^2 dx, and the
    # row becomes L_x psi / ||L_x psi||
    psi, alpha, m = _two_packets(), 1.3, 64
    rng = trajectory_generator(8)
    amps = np.tile(psi.amplitudes, (m, 1))
    u, z = rng.uniform(size=m), rng.standard_normal(size=m)
    x, weight = hit_rows(psi, alpha, amps, u, z, np.empty((3,) + amps.shape))
    norm_sq = _ring_gaussian_sq(psi, alpha, x) @ (np.abs(psi.amplitudes) ** 2 * psi.dx)
    assert np.max(np.abs(weight / norm_sq - 1.0)) <= 1e-12
    hit = _factor(psi, x, alpha) * psi.amplitudes / np.sqrt(norm_sq)[:, None]
    assert np.max(np.abs(amps - hit)) <= 1e-12 * np.max(np.abs(hit))


def test_hit_sampling_preserves_density_in_expectation():
    # diagonal preservation: E[post-hit density] = density (Eq. consequence)
    psi = _two_packets()
    nrep = 20000
    _, _, post = _hits(psi, 1.0, nrep, 123)
    orig = np.abs(psi.amplitudes) ** 2
    assert np.max(np.abs(post / nrep - orig)) < 4.0 / np.sqrt(nrep)


@pytest.mark.parametrize("state", ["packet", "two-packets"])
def test_post_hit_states_weighted_by_the_hit_density_give_the_localized_density(state):
    # sum_j dx P(x_j) |phi_j><phi_j|, phi_j = L_{x_j} psi / ||L_{x_j} psi||, is
    # sum_j dx L_{x_j} rho L_{x_j} exactly when P(x_j) = ||L_{x_j} psi||^2:
    # the hit factor and the hit density must be the same L_x
    if state == "packet":
        psi = gaussian_packet(128, 0.25, -16.0, 20.0, 1.3, 0.7, momentum=0.8)
    else:
        psi = two_packet_state(128, 0.25, -16.0, 20.0, (-3.0, 3.0), 0.45, (0.3, 0.7))
    alpha = 1.7
    hit = _factor(psi, psi.positions, alpha) * psi.amplitudes  # row j: L_{x_j} psi
    post = hit / np.sqrt(np.sum(np.abs(hit) ** 2, axis=1) * psi.dx)[:, None]
    density = hitting_density_reference(psi, alpha, psi.amplitudes)
    mixture = (post.T * density * psi.dx) @ post.conj()
    localized = hit.T @ hit.conj() * psi.dx
    assert np.max(np.abs(mixture - localized)) <= 1e-13 * np.max(np.abs(localized))


def test_batched_hit_sampling_matches_rows_drawn_one_by_one():
    # each row of a batch is hit as it would be alone, bit for bit: its
    # center, weight and post-hit state
    psi = _two_packets()
    amps = np.stack([psi.amplitudes, np.roll(psi.amplitudes, 40), psi.amplitudes[::-1]])
    amps = np.repeat(amps, 4, axis=0)
    rng = trajectory_generator(6)
    u = np.append(rng.uniform(size=amps.shape[0] - 2), [0.0, 0.9999])
    z = rng.standard_normal(size=amps.shape[0])
    rows = amps.copy()
    x, weight = hit_rows(psi, 1.3, rows, u, z, np.empty((3,) + rows.shape))
    for k in range(amps.shape[0]):
        one = amps[k : k + 1].copy()
        got = hit_rows(psi, 1.3, one, u[k : k + 1], z[k : k + 1], np.empty((3, 1, psi.n)))
        assert got == ([x[k]], [weight[k]])
        assert np.array_equal(one[0], rows[k])
    assert np.all((psi.x0 <= x) & (x < psi.x0 + psi.length))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


def test_factor_wraps_in_place_with_the_bits_of_wrap_displacement():
    # centers on the first node, on x0 + L/2 and on the last node put ties
    # u = +L/2 and -L/2 on the grid (np.round rounds half to even); the
    # factor, built in place, is the one of wrap_displacement's distance
    psi, alpha = _two_packets(), 1.3
    x = np.array([psi.x0, psi.x0 + psi.length / 2, psi.positions[-1], 0.3, -7.77])
    d = psi.positions - x[:, None]
    assert np.any(d == psi.length / 2) and np.any(d == -psi.length / 2)
    e = psi.wrap_displacement(d)
    e = e * e * (-0.5 * alpha)
    expected = np.exp(np.maximum(e, -300.0)) * (e > -300.0) * (alpha / np.pi) ** 0.25
    work = np.full((2,) + d.shape, np.nan)
    g = _gaussian_factor(psi, x, alpha, work)
    assert np.array_equal(_bits(work[0]), _bits(expected)) and np.shares_memory(g, work[0])
    assert np.array_equal(_bits(_factor(psi, x, alpha)), _bits(expected))
    for k, c in enumerate(x):  # a scalar center gives one row
        assert np.array_equal(_bits(_factor(psi, c, alpha)), _bits(expected[k]))


def test_hit_rows_in_a_reused_workspace_match_fresh_buffers():
    # rounds of 1, 7 and 32 rows through one workspace pre-filled with NaN,
    # then smaller rounds over the larger ones' stale rows: centers, weights,
    # post-hit rows and tail bounds equal those of fresh buffers bit for bit
    psi, alpha = _two_packets(), 1.3
    rng = trajectory_generator(11)
    work = np.full((3, 32, psi.n), np.nan)
    for m in (1, 7, 32, 7, 1):
        rows = np.stack([np.roll(psi.amplitudes, s) for s in rng.integers(-40, 40, size=m)])
        u, z = rng.uniform(size=m), rng.standard_normal(size=m)
        fresh, reused = rows.copy(), rows.copy()
        expected = hit_rows(psi, alpha, fresh, u, z, np.empty((3, m, psi.n)))
        got = hit_rows(psi, alpha, reused, u, z, work)
        for a, b in zip(got + (reused,), expected + (fresh,)):
            assert np.array_equal(_bits(a), _bits(b))
        spectra = np.fft.fft(fresh, axis=1)
        expected = tail_bounds(spectra, 1.0, np.empty(spectra.shape))
        assert np.array_equal(tail_bounds(spectra, 1.0, work[0]), expected)


# ---------------------------------------------------------- trajectories


def test_trajectory_zero_rate_is_pure_schrodinger():
    psi = _two_packets()
    lam0 = CollapseParams(1e-300, 1.0, 1.0, dimension=1)
    res = run_qmsl_ensemble(psi, lam0, 1.0, 1, 42, 0.05)
    assert res.events.shape == (0, 4)

    ref = free_step_reference(psi.amplitudes[None], psi, 1.0)
    assert np.max(np.abs(res.amplitudes - ref)) < 1e-10


def test_trajectory_hit_count_poisson():
    psi = _two_packets()
    res = run_qmsl_ensemble(psi, DESK, 2.0, 800, 7, 0.02)
    lam_t = DESK.lambda_rate * 2.0
    mean = res.hit_counts.mean()
    sigma = np.sqrt(lam_t / 800)
    assert abs(mean - lam_t) < 3.0 * sigma
    assert res.hit_counts.var() == pytest.approx(lam_t, rel=0.2)


def test_trajectory_two_packet_reduction_binomial():
    # ~10 hits per trajectory heat the ensemble; dx resolves the grown
    # momentum spread (Nyquist ~ 10 sigma_p) so no aliasing floor forms
    psi = _two_packets()
    res = run_qmsl_ensemble(psi, DESK, 2.5, 4000, 99, 0.02)
    x = psi.positions
    right = (np.abs(res.amplitudes) ** 2 * psi.dx) @ (x > 0)
    decided = (right < 0.05) | (right > 0.95)
    assert decided.mean() > 0.99
    freq = float((right > 0.5).mean())
    assert abs(freq - 0.5) < 3.0 * np.sqrt(0.25 / 4000)


def test_trajectory_events_monotone_times():
    psi = _two_packets()
    dt = 0.02
    res = run_qmsl_ensemble(psi, DESK, 2.0, 8, 5, dt)
    traj, times, weights = res.events[:, 0], res.events[:, 1], res.events[:, 3]
    assert np.array_equal(np.bincount(traj.astype(int), minlength=8), res.hit_counts)
    for j in range(8):
        assert np.all(np.diff(times[traj == j]) > 0)
    assert np.all((0 < times) & (times <= 2.0)) and np.all(weights > 0)
    # exact Poisson times, not step boundaries
    off_grid = np.abs(times / dt - np.round(times / dt)) > 1e-6
    assert off_grid.mean() > 0.9


def test_one_trajectory_log_is_trajectory_zero_of_a_larger_run():
    psi = _two_packets()
    args = (psi, DESK, 1.0)
    one = run_qmsl_ensemble(*args, 1, 9, 0.02)
    many = run_qmsl_ensemble(*args, 64, 9, 0.02)
    assert one.events.shape[0] > 0
    assert np.array_equal(one.events, many.events[many.events[:, 0] == 0])
    assert np.array_equal(one.amplitudes[0], many.amplitudes[0])


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize(
    "params",
    [DESK, CollapseParams(1e-12, 1.0, 1.0, dimension=1)],
    ids=["free", "free-no-hits"],
)
def test_ensemble_matches_lockstep_oracle(seed, params):
    args = (_two_packets(), params, 1.0, 24, seed, 0.02)
    hit_counts = _matches_lockstep(run_qmsl_ensemble(*args), args)
    if params is DESK:
        assert hit_counts.sum() > 0
    else:
        assert hit_counts.sum() == 0


def _matches_lockstep(res, args):
    # the engine's run against the step-by-step oracle's; returns hit counts
    amps, hit_counts, log = qmsl_exact_time_lockstep(*args)
    assert np.array_equal(res.hit_counts, hit_counts)
    assert np.array_equal(res.events[:, :2], log[:, :2])
    assert np.max(np.abs(res.events[:, 2:] - log[:, 2:]), initial=0.0) < 1e-9
    assert np.max(np.abs(res.amplitudes - amps)) < 1e-12
    return hit_counts


def test_ensemble_does_not_depend_on_chunk(monkeypatch):
    # CHUNK = 1 hits one row a round, CHUNK = 64 up to 64 rows together
    import collapsim.hitting as hitting

    psi = _two_packets()
    args = (psi, DESK, 1.0, 100, 5, 0.02)
    runs = {}
    for chunk in (64, 1, 16):
        monkeypatch.setattr(hitting, "CHUNK", chunk)
        runs[chunk] = run_qmsl_ensemble(*args)
    whole = runs.pop(64)
    for small in runs.values():
        assert np.array_equal(small.hit_counts, whole.hit_counts)
        assert np.array_equal(small.events, whole.events)
        assert np.array_equal(small.amplitudes, whole.amplitudes)
        rho = ensemble_density(small.amplitudes)
        assert np.array_equal(rho, ensemble_density(whole.amplitudes))


def _leak_report(exc) -> tuple[float, str]:
    # "boundary amplitude reached <worst> of peak at t=<t>; enlarge the grid"
    worst, t = re.search(r"reached (\S+) of peak at t=([^;]+);", str(exc.value)).groups()
    return float(worst), t


def test_ensemble_leakage_raises_when_the_oracle_does():
    psi = gaussian_packet(256, 0.125, -16.0, 1.0, 10.0, 0.8, momentum=4.0)
    args = (psi, DESK, 3.0, 16, 8, 0.02)
    with pytest.raises(GridLeakageError) as engine:
        run_qmsl_ensemble(*args)
    with pytest.raises(GridLeakageError) as oracle:
        qmsl_exact_time_lockstep(*args)
    worst, t = _leak_report(engine)
    assert t == _leak_report(oracle)[1] == "0.12"
    assert worst == pytest.approx(_leak_report(oracle)[0], rel=1e-6)
    assert worst > DEFAULT_LEAK_TOL


def test_leak_first_seen_in_a_row_hit_mid_window_matches_the_oracle():
    # a light packet runs at the right edge beside a narrow one at rest
    # that holds the peak; a hit picking the runner removes that peak, so
    # a hit row leaks first (t = 1.98) inside the first window of steps,
    # and its leaking state is in most rows replaced by a later hit there
    n, dx, x0, mass = 256, 0.125, -16.0, 10.0
    rest = gaussian_packet(n, dx, x0, mass, -8.0, 0.3).amplitudes
    runner = gaussian_packet(n, dx, x0, mass, 6.0, 0.8, momentum=20.0).amplitudes
    psi = _normalized(GridWavefunction(np.sqrt(0.8) * rest + np.sqrt(0.2) * runner, dx, x0, mass))
    args = (psi, CollapseParams(4.0, 0.1, 1.0, dimension=1), 3.0, 16, 2, 0.02)
    with pytest.raises(GridLeakageError) as engine:
        run_qmsl_ensemble(*args)
    with pytest.raises(GridLeakageError) as oracle:
        qmsl_exact_time_lockstep(*args)
    worst, t = _leak_report(engine)
    assert t == _leak_report(oracle)[1] == "1.98"
    assert worst == pytest.approx(_leak_report(oracle)[0], rel=1e-6)
    # without hits the same state leaks only later
    no_hits = (psi, CollapseParams(1e-12, 0.1, 1.0, dimension=1), 3.0, 1, 2, 0.02)
    with pytest.raises(GridLeakageError) as unhit:
        run_qmsl_ensemble(*no_hits)
    assert float(_leak_report(unhit)[1]) > 2.0


def test_leak_before_a_hit_matches_the_oracle():
    # the far packet leaks from the first step, and every row is hit within
    # the run's one window of steps, which removes that packet; a hit must
    # not replace a spectrum before it is screened on the steps it was held
    psi = two_packet_state(256, 0.125, -16.0, 20.0, (-4.0, 15.0), 0.45, (0.999, 0.001))
    args = (psi, CollapseParams(50.0, 1.0, 1.0, dimension=1))
    with pytest.raises(GridLeakageError) as engine:
        run_qmsl_ensemble(*args, 0.2, 4, 3, 0.02)
    with pytest.raises(GridLeakageError) as oracle:
        qmsl_exact_time_lockstep(*args, 0.2, 4, 3, 0.02)
    worst, t = _leak_report(engine)
    assert t == _leak_report(oracle)[1] == "0.02"
    assert worst == pytest.approx(_leak_report(oracle)[0], rel=1e-6)


@given(
    st.sampled_from([16, 64, 256, 2048]),
    st.sampled_from([0.0, 1e-16, 1e-9, 1e-3, None, "spike"]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_band_edge_plus_tail_bound_covers_the_full_edge(n, tail, seed):
    # random spectra, band-limited with a small random tail (none at 0.0),
    # fully random (None), or one mode just past a cut-off ("spike"),
    # against a window of edge taps built as the engine builds them: at
    # every step, |full edge| <= |band edge| + T
    rng = np.random.default_rng(seed)
    chi = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    j = np.abs(np.fft.fftfreq(n, 1.0 / n))
    if tail == "spike":
        chi *= j == rng.choice(band_cuts(n)) + 1
    elif tail is not None:
        chi *= np.where(j <= rng.integers(0, n // 8 + 1), 1.0, tail * rng.uniform(size=n))
    grid = GridWavefunction(np.ones(n), 0.05, 0.0, rng.uniform(0.5, 20.0))
    kin = _kinetic_phase(grid, np.cumsum(rng.uniform(0.0, 0.1, size=16))) / n
    taps = np.stack([kin, kin * np.exp(-2j * np.pi * np.arange(n) / n)], axis=1).reshape(-1, n)
    norm = np.linalg.norm(np.fft.ifft(chi, axis=1), axis=1).max()
    bounds = tail_bounds(chi, norm, np.empty(chi.shape))
    full = np.abs(np.matmul(chi, taps.T))
    for c, k in enumerate(band_cuts(n)):
        band = np.matmul(chi[:, : k + 1], taps[:, : k + 1].T)
        band += np.matmul(chi[:, n - k :], taps[:, n - k :].T)
        assert np.all(full <= np.abs(band) + bounds[:, c, None])


def _product_widths(monkeypatch) -> list:
    # the inner width of every np.matmul call
    widths = []

    def counted(a, b, *args, _matmul=np.matmul, **kwargs):
        widths.append(np.shape(a)[-1])
        return _matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    return widths


def test_screen_of_packets_at_rest_takes_no_full_width_product(monkeypatch):
    # the bench's state: two packets at rest on a 2048-point grid, hit at
    # the bench's rate; every (row, step) is certified on the band
    psi = two_packet_state(2048, 0.05, -51.2, 20.0, (-3.0, 3.0), 0.45)
    args = (psi, DESK, 0.25, 16, 20, 0.005)
    widths = _product_widths(monkeypatch)
    res = run_qmsl_ensemble(*args)
    monkeypatch.undo()
    assert widths and max(widths) <= 3 * psi.n // 16 + 1
    assert _matches_lockstep(res, args).sum() > 0


@pytest.mark.parametrize(
    "psi",
    [
        gaussian_packet(256, 0.125, -16.0, 20.0, 0.0, 0.25),
        gaussian_packet(256, 0.125, -16.0, 20.0, 0.0, 0.45, momentum=8.0),
    ],
    ids=["sigma-2dx", "kicked"],
)
def test_screen_of_a_broad_spectrum_takes_the_full_width_product(monkeypatch, psi):
    # a narrow or moving packet's spectrum reaches past |j| = 3N/16, so no
    # tail bound fits and the rows take the full-width product
    args = (psi, DESK, 0.4, 16, 4, 0.02)
    widths = _product_widths(monkeypatch)
    res = run_qmsl_ensemble(*args)
    monkeypatch.undo()
    assert psi.n in widths
    assert _matches_lockstep(res, args).sum() > 0


def test_free_flight_takes_two_fft_rows_per_hit(monkeypatch):
    # a held spectrum goes to its hit time by one inverse FFT and comes back
    # by one FFT; no round trip, no propagated edge kernel
    psi = _two_packets()
    rows = []
    for name in ("fft", "ifft"):
        def counted(a, *args, _transform=getattr(np.fft, name), **kwargs):
            rows.append(np.size(a) // psi.n)
            return _transform(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    res = run_qmsl_ensemble(psi, DESK, 1.0, 24, 3, 0.02)
    assert res.hit_counts.sum() > 0
    # plus one a row to t_end and one for the spectrum of psi0
    assert sum(rows) <= 2 * res.hit_counts.sum() + 24 + 1


def test_long_run_memory_does_not_grow_with_steps():
    # 5000 steps on a 2048-point grid: the edge taps of all steps would be
    # 328 MB; a window's taps fill one tile
    psi = two_packet_state(2048, 0.05, -51.2, 20.0, (-3.0, 3.0), 0.45)
    params = CollapseParams(1e-12, 1.0, 1.0, dimension=1)
    tracemalloc.start()
    try:
        res = run_qmsl_ensemble(psi, params, 5.0, 2, 3, 0.001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.hit_counts.sum() == 0
    assert peak < 2 * TILE_BYTES


def test_hit_rounds_allocate_no_rows_beyond_one_workspace():
    # the bench's shape: 256 rows of 2048 points hit about 4 times each over
    # 200 steps; the spectra live in the output rows and each hit round works
    # in one workspace of at most a tile's rows, so the peak is the output
    # plus a few tiles, however many rounds the run takes
    psi = two_packet_state(2048, 0.05, -51.2, 20.0, (-3.0, 3.0), 0.45)
    tracemalloc.start()
    try:
        res = run_qmsl_ensemble(psi, DESK, 1.0, 256, 20, 0.005)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.hit_counts.sum() > 500
    assert peak < res.amplitudes.nbytes + 8 * TILE_BYTES


# ------------------------------------------------------- master equation


def test_master_zero_rate_matches_schrodinger():
    psi = gaussian_packet(64, 0.25, -8.0, 5.0, 0.0, 0.9)
    lam0 = CollapseParams(1e-300, 4.0, 1.0, dimension=1)
    rho = evolve_free_master(psi, lam0, 0.8)

    ref = free_step_reference(psi.amplitudes[None], psi, 0.8)[0]
    ref_kernel = np.outer(ref, ref.conj())
    assert np.max(np.abs(rho - ref_kernel)) < 1e-8


def test_master_kernel_vs_ode_oracle():
    params = CollapseParams(2.0, 4.0, 1.0, dimension=1)
    psi = gaussian_packet(64, 0.25, -8.0, 5.0, 0.0, 0.9)
    t = 0.5
    rho = evolve_free_master(psi, params, t)
    oracle = master_kernel_by_ode(psi.amplitudes, psi.dx, 5.0, 2.0, 4.0, t)
    err = np.linalg.norm(rho - oracle) / np.linalg.norm(oracle)
    assert err < 1e-6


def test_master_short_time_diagonal_matches_schrodinger():
    # t << T1 regime: diagonal elements track the Schroedinger diagonal
    params = CollapseParams(0.5, 1.0, 1.0, dimension=1)
    psi = gaussian_packet(64, 0.25, -8.0, 20.0, 0.0, 0.8)
    t = 0.1
    rho = evolve_free_master(psi, params, t)

    ref = free_step_reference(psi.amplitudes[None], psi, t)[0]
    diag = np.diag(rho).real
    ref_diag = np.abs(ref) ** 2
    assert np.max(np.abs(diag - ref_diag)) < 2e-3 * ref_diag.max()


def test_master_offdiag_decay_bounded_by_beta():
    params = CollapseParams(4.0, 1.0, 1.0, dimension=1)
    psi = _two_packets()
    t = 1.0
    rho_t = evolve_free_master(psi, params, t)
    rho_0 = np.outer(psi.amplitudes, psi.amplitudes.conj())
    x = psi.positions
    i = np.argmin(np.abs(x + 3.0))
    j = np.argmin(np.abs(x - 3.0))
    damping = abs(rho_t[i, j]) / abs(rho_0[i, j])
    beta = offdiag_damping_beta(6.0, 1.0)
    # bound from the erf inequality, with slack for Schroedinger motion
    assert damping < np.exp(-params.lambda_rate * beta * t) * 1.5


def test_master_trace_and_purity():
    params = CollapseParams(4.0, 1.0, 1.0, dimension=1)
    psi = _two_packets()
    rho1 = evolve_free_master(psi, params, 0.5)
    rho2 = evolve_free_master(psi, params, 1.0)
    assert np.trace(rho1).real * psi.dx == pytest.approx(1.0, abs=1e-9)
    purities = [1.0] + [np.sum(np.abs(rho) ** 2) * psi.dx**2 for rho in (rho1, rho2)]
    assert purities[0] > purities[1] > purities[2]


def test_master_mean_preservation():
    params = CollapseParams(4.0, 1.0, 1.0, dimension=1)
    psi = gaussian_packet(64, 0.25, -8.0, 5.0, 0.6, 0.7, momentum=0.9)
    t = 0.6
    rho = evolve_free_master(psi, params, t)
    x = psi.positions
    diag = np.diag(rho).real * psi.dx
    q_mean = float(diag @ x)
    # Ehrenfest oracle: <q>(t) = <q>0 + <p>0 t / m
    assert q_mean == pytest.approx(0.6 + 0.9 * t / 5.0, abs=5e-3)


def test_damping_time_integral_closed_form_vs_quadrature():
    for k, u in [(1.3, 0.7), (0.0, 1.1), (-2.0, -0.5), (1e-13, 2.0), (4.0, 0.0)]:
        closed = float(damping_time_integral(np.array(k), np.array(u), 0.9, 3.0, 5.0))
        oracle = damping_integral_by_quadrature(k, u, 0.9, 3.0, 5.0)
        assert closed == pytest.approx(oracle, abs=1e-10)


def test_damping_factor_bounds_and_symmetry():
    params = CollapseParams(2.0, 3.0, 1.0, dimension=1)
    t = 0.7
    k = np.linspace(-4, 4, 31)
    f0 = damping_factor(k, np.zeros_like(k), t, params, 5.0)
    assert np.all(f0 > np.exp(-params.lambda_rate * t))
    assert np.all(f0 <= 1.0 + 1e-15)
    f = damping_factor(np.array(1.7), np.array(0.9), t, params, 5.0)
    f_swap = damping_factor(np.array(-1.7), np.array(-0.9), t, params, 5.0)
    assert float(f) == pytest.approx(float(f_swap), rel=1e-14)


# --------------------------------------------------------------- moments


def test_moments_t_zero_identity():
    sch = {"q_mean": 0.1, "p_mean": -0.2, "q_var": 0.5, "qp_corr": 0.0, "p_var": 2.0}
    out = free_particle_moments(DESK, 3.0, 0.0, sch)
    assert out == sch


def test_moments_t1_defines_q_spread_doubling():
    # at T1 the added position-variance term equals the initial variance
    lam, alpha, m, dq0 = 1e7, 1e10, 1.0, 1e-5
    params = CollapseParams(lam, alpha, 1.0)
    t1, _ = characteristic_times(params, m, dq0, 1.0, hbar=HBAR_CGS)
    added = alpha * lam * HBAR_CGS**2 * t1**3 / (6.0 * m**2)
    assert added == pytest.approx(dq0**2, rel=1e-10)
    year = 3.156e7
    assert 10.0 < t1 / year < 1000.0  # the order-100-years scale


def test_moments_monte_carlo_match():
    # trajectory ensemble vs closed-form corrections, desk scale
    params = CollapseParams(3.0, 1.0, 1.0, dimension=1)
    mass, sigma = 8.0, 0.8
    psi = gaussian_packet(256, 0.125, -16.0, mass, 0.0, sigma)
    t = 1.6
    res = run_qmsl_ensemble(psi, params, t, 4000, 31, 0.02)
    mc = ensemble_moments(res, psi)
    sch = {
        "q_mean": 0.0,
        "p_mean": 0.0,
        "q_var": free_gaussian_q_var(t, sigma, mass),
        "qp_corr": (1.0 / (4 * sigma**2)) * t / mass,
        "p_var": 1.0 / (4 * sigma**2),
    }
    formula = free_particle_moments(params, mass, t, sch)
    assert mc["q_var"] == pytest.approx(formula["q_var"], rel=0.05)
    assert mc["p_var"] == pytest.approx(formula["p_var"], rel=0.05)
    assert abs(mc["q_mean"]) < 0.05 * np.sqrt(formula["q_var"])
    assert abs(mc["p_mean"]) < 0.05 * np.sqrt(formula["p_var"])


# ---------------------------------------------- characteristic times etc


def test_characteristic_times_scaling():
    t1a, t2a = characteristic_times(DESK, 1.0, 1.0, 1.0)
    t1b, t2b = characteristic_times(DESK, 4.0, 1.0, 1.0)
    assert t1b / t1a == pytest.approx(4.0 ** (2.0 / 3.0), rel=1e-12)
    assert t2b == pytest.approx(t2a, rel=1e-12)
    # monotone vanishing limit as alpha*lambda grows
    strong = CollapseParams(DESK.lambda_rate * 1e6, DESK.alpha, 1.0, dimension=1)
    t1s, t2s = characteristic_times(strong, 1.0, 1.0, 1.0)
    assert t1s < t1a and t2s < t2a


def test_offdiag_lifetime_canonical_order():
    tau = offdiag_lifetime(4e-5, MACRO)
    assert tau == pytest.approx(1e-6, rel=0.2)


def test_offdiag_beta_small_separation_limit():
    # q -> 0: beta -> 0 (the bound becomes vacuous), lifetime -> infinity
    assert offdiag_damping_beta(1e-8, 1e10) == 0.0
    assert offdiag_lifetime(1e-8, MACRO) == np.inf
    # monotone in q above the validity threshold 2 sqrt(pi/alpha)
    qs = np.linspace(4e-5, 4e-4, 20)
    betas = [offdiag_damping_beta(q, 1e10) for q in qs]
    assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))
    with pytest.raises(ValueError):
        offdiag_lifetime(-1.0, MACRO)


def test_offdiag_beta_vs_quadrature_oracle():
    # within the bound's validity domain q > 2 sqrt(pi/alpha) ~ 3.5e-5
    for q in (4e-5, 1e-4, 2e-4):
        closed = offdiag_damping_beta(q, 1e10)
        oracle = erf_beta_by_quadrature(q, 1e10)
        assert closed == pytest.approx(oracle, abs=1e-10)


# ---------------------------------------------------------- amplification


def test_amplified_rate_canonical():
    assert com_amplified_rate(1e-16, 1e23) == pytest.approx(1e7, rel=1e-9)
    assert com_amplified_rate(3.3, 1) == 3.3


# ------------------------------------------------------- energy increase


def test_energy_increase_canonical_order():
    micro = CollapseParams(1e-16, 1e10, 1.0)
    rate_ev = energy_increase_rate(micro, 1e-23, hbar=HBAR_CGS) / ERG_PER_EV
    assert abs(np.log10(rate_ev) - np.log10(1e-25)) < 1.0
    assert energy_increase_rate(CollapseParams(1e-300, 1e10, 1.0), 1.0) < 1e-290


def test_energy_increase_monte_carlo():
    params = CollapseParams(3.0, 1.0, 1.0, dimension=1)
    mass, sigma = 8.0, 0.8
    psi = gaussian_packet(256, 0.125, -16.0, mass, 0.0, sigma)
    t = 1.6
    res = run_qmsl_ensemble(psi, params, t, 4000, 17, 0.02)
    mc = ensemble_moments(res, psi)
    e0 = (1.0 / (4 * sigma**2)) / (2 * mass)
    e_t = mc["p_var"] / (2 * mass) + mc["p_mean"] ** 2 / (2 * mass)
    measured_rate = (e_t - e0) / t
    assert measured_rate == pytest.approx(energy_increase_rate(params, mass), rel=0.05)

