"""Derived physics: mass density, tails, no-signaling, EPR, rates."""

import numpy as np
import pytest

from collapsim.diffusion import CslStepper, run_ensemble
from collapsim.epr import epr_linear_experiment, epr_nonlinear_experiment
from collapsim.errors import StatisticalPreconditionError
from collapsim.massdensity import (
    CellConfigurationState,
    IndependentParticleState,
    accessibility_ratio,
    mass_profile,
)
from collapsim.nosignal import gisin_check, here_there_mixtures
from collapsim.operators import ProjectorFamily
from collapsim.params import CollapseParams, canonical_qmsl
from collapsim.rates import (
    DecoherenceSource,
    decoherence_rates,
    diosi_rate,
    excitation_rate_qmsl,
    localization_decoherence_rate,
    sphere_interaction_energy,
)
from collapsim.refdata import LOCALIZATION_TABLE_DELTA_REFERENCE, load_decoherence_sources
from collapsim.units import G_NEWTON_CGS, NUCLEON_MASS_G

from oracles import (
    discrete_decay_log,
    gaussian_transfer_profile,
    scattering_master_step,
    sphere_energy_by_quadrature,
)

M0 = NUCLEON_MASS_G


# ------------------------------------------------------------ mass density


def test_mass_profile_number_eigenstate_zero_variance():
    # N/2 particles definitely in each of two regions
    occ = np.array([[50.0, 50.0]])
    state = CellConfigurationState(np.array([1.0 + 0j]), occ, M0)
    profile = mass_profile(state)
    assert np.allclose(profile.means, 50 * M0)
    assert np.allclose(profile.variances, 0.0)
    ratios, accessible = accessibility_ratio(profile)
    assert np.all(accessible)


def test_mass_profile_macroscopic_superposition():
    n = 100
    occ = np.array([[float(n), 0.0], [0.0, float(n)]])
    state = CellConfigurationState(
        np.array([1.0, 1.0], dtype=complex) / np.sqrt(2), occ, M0
    )
    profile = mass_profile(state)
    assert profile.means[0] == pytest.approx(0.5 * n * M0)
    assert profile.variances[0] == pytest.approx(0.25 * n**2 * M0**2)
    ratios, accessible = accessibility_ratio(profile)
    assert ratios[0] == pytest.approx(1.0)
    assert not accessible.any()


def test_mass_profile_micro_superposition():
    occ = np.array([[1.0, 0.0], [0.0, 1.0]])
    state = CellConfigurationState(
        np.array([1.0, 1.0], dtype=complex) / np.sqrt(2), occ, M0
    )
    profile = mass_profile(state)
    assert np.allclose(profile.means, 0.5 * M0)
    ratios, accessible = accessibility_ratio(profile)
    assert np.all(ratios == pytest.approx(1.0))
    assert not accessible.any()


def test_mass_profile_product_state_sqrt_n_ratio():
    n = 40_000
    placements = tuple((0, 1, 0.5) for _ in range(n))
    state = IndependentParticleState(placements, 2, M0)
    profile = mass_profile(state)
    ratios, accessible = accessibility_ratio(profile)
    assert profile.means[0] == pytest.approx(0.5 * n * M0)
    assert ratios[0] == pytest.approx(1.0 / np.sqrt(n), rel=1e-12)
    assert np.all(accessible)


def test_mass_profile_tails_ratio():
    beta_sq = 1e-6
    occ = np.array([[1000.0, 0.0], [0.0, 1000.0]])
    amps = np.array([np.sqrt(1 - beta_sq), np.sqrt(beta_sq)], dtype=complex)
    profile = mass_profile(CellConfigurationState(amps, occ, M0))
    ratios, _ = accessibility_ratio(profile)
    # surviving region: R ~ |beta|; empty region R ~ 1/|beta| (undefined scale)
    assert ratios[0] == pytest.approx(np.sqrt(beta_sq), rel=1e-3)
    assert ratios[1] > 100.0


def test_accessibility_zero_mean_undefined():
    profile = mass_profile(
        CellConfigurationState(np.array([1.0 + 0j]), np.array([[0.0, 3.0]]), M0)
    )
    ratios, accessible = accessibility_ratio(profile)
    assert np.isnan(ratios[0]) and not accessible[0]
    assert accessible[1]


def test_tail_magnitude_matches_trajectories_desk_scale():
    # <<alpha_B beta_B>> from cooked trajectories vs exp(-lam t sum n^2)
    occ = np.array([[4.0, 2.0, 0.0, 0.0], [0.0, 0.0, 4.0, 2.0]])
    lam = 0.01
    fam = ProjectorFamily.from_configurations(occ)
    stepper = CslStepper(fam, lam, 0.004, form="nonlinear")
    psi0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    steps = 500
    res = run_ensemble(psi0, stepper, steps, 10_000, 808)
    z = np.abs(res.final_states) ** 2
    measured = np.mean(np.sqrt(z[:, 0] * z[:, 1]))
    # off-diagonal rate: (lam/2) sum (n - m)^2 over cells
    expected = 0.5 * np.exp(discrete_decay_log(occ[0], occ[1], lam, steps * 0.004))
    assert measured == pytest.approx(expected, rel=0.10)


# ------------------------------------------------------------- no-signaling


def _nonlinear_evolver(gamma, dt, steps, master_seed):
    family = ProjectorFamily.two_level()
    stepper = CslStepper(family, gamma, dt, form="nonlinear")

    def evolve_many(psi0, indices):
        res = run_ensemble(
            psi0, stepper, steps, len(indices), master_seed,
            traj_offset=int(indices[0]),
        )
        return res.final_states, np.zeros(len(indices))

    return evolve_many


def test_gisin_equal_ensembles_stay_equal():
    ens_a, ens_b = here_there_mixtures()
    report = gisin_check(ens_a, ens_b, _nonlinear_evolver(1.0, 0.005, 600, 5), 2000)
    assert report.passed
    assert report.distance <= 3.0 * report.band


def test_gisin_identical_ensembles_tight():
    ens_a, _ = here_there_mixtures()
    report = gisin_check(ens_a, ens_a, _nonlinear_evolver(1.0, 0.005, 400, 6), 1000)
    assert report.passed


def test_gisin_rejects_inequivalent_input():
    up = np.array([1.0, 0.0], dtype=complex)
    down = np.array([0.0, 1.0], dtype=complex)
    with pytest.raises(ValueError, match="not initially equivalent"):
        gisin_check(
            [(up, 1.0)], [(down, 1.0)], _nonlinear_evolver(1.0, 0.01, 10, 7), 100
        )


def test_gisin_rejects_too_few_trajectories_for_the_mixture():
    # one trajectory per ensemble would leave the first 50/50 member without
    # any, so the evolved ensemble would not be the mixture
    ens_a, ens_b = here_there_mixtures()
    with pytest.raises(StatisticalPreconditionError, match="without one"):
        gisin_check(ens_a, ens_b, _nonlinear_evolver(1.0, 0.01, 10, 8), 1)


# --------------------------------------------------------------------- epr


def test_epr_nonlinear_gap():
    res = epr_nonlinear_experiment(3000, gamma=1.0, t_end=2.0, master_seed=11, steps=200)
    assert res.p_minus_detector_off == 0.0
    sigma = np.sqrt(0.25 / res.n_conditioning)
    assert abs(res.p_minus_detector_on - 0.5) < 3.0 * sigma
    assert abs(res.class_frequency - 0.5) < 3.0 * np.sqrt(0.25 / 3000)


def test_epr_nonlinear_insufficient_samples():
    with pytest.raises(StatisticalPreconditionError):
        epr_nonlinear_experiment(600, gamma=1.0, t_end=2.0, master_seed=11, steps=200)


@pytest.mark.parametrize("n", [1200, 600], ids=["result", "too-few-samples"])
def test_epr_nonlinear_does_not_depend_on_the_chunk(monkeypatch, n):
    # chunks that divide n, that leave an uneven last chunk, and that hold
    # every seed: each seed draws its own stream and steps in its own rows
    import collapsim.diffusion as diffusion

    def run():
        try:
            return epr_nonlinear_experiment(n, gamma=1.0, t_end=1.0, master_seed=11, steps=100)
        except StatisticalPreconditionError as err:
            return str(err)

    results = []
    for chunk in (n // 4, 5 * n // 12, n, diffusion.CHUNK):
        monkeypatch.setattr(diffusion, "CHUNK", chunk)
        results.append(run())
    assert isinstance(results[0], str) == (n == 600)
    assert all(res == results[0] for res in results[1:])


def test_epr_linear_marginals_agree():
    res = epr_linear_experiment(4000, gamma=1.0, t_end=10.0, master_seed=13)
    assert res.ks_distance < res.ks_critical_5pct


def test_epr_linear_gamma_zero_identical():
    # both marginals are the same raw Wiener law when the coupling vanishes
    res = epr_linear_experiment(2000, gamma=1e-12, t_end=1.0, master_seed=17)
    assert res.ks_distance < res.ks_critical_5pct


def test_epr_linear_finite_when_every_sector_factor_underflows():
    # at gamma*t = 400 each factor exp(+-B - gamma t) underflows to zero
    res = epr_linear_experiment(600, gamma=1.0, t_end=400.0, master_seed=5)
    values = (res.ks_distance, res.n_effective_on, res.n_effective_off)
    assert np.all(np.isfinite(values))


# ------------------------------------------------------------------- rates


def test_decoherence_rates_formula():
    source = DecoherenceSource("toy", flux=1e11, cross_section=1e-11, l_eff=1e-9)
    tau, delta = decoherence_rates(source)
    assert tau == pytest.approx(1.0)
    assert delta == pytest.approx(1.0 / 1e-18)
    zero = DecoherenceSource("off", flux=0.0, cross_section=1e-11, l_eff=1e-9)
    tau0, delta0 = decoherence_rates(zero)
    assert tau0 == np.inf and delta0 == 0.0


def test_lab_vacuum_tau_reproduced_from_inputs():
    sources = {s.name: s for s in load_decoherence_sources()}
    lab = sources["300K air in lab vacuum"]
    tau, _ = decoherence_rates(lab)
    assert tau == pytest.approx(lab.tau_reference, rel=0.01)


def test_localization_delta_identity_and_table_order():
    params = canonical_qmsl()
    delta = localization_decoherence_rate(params)
    assert delta == pytest.approx(0.5 * params.alpha * params.lambda_rate, rel=1e-12)
    assert abs(np.log10(delta) - np.log10(LOCALIZATION_TABLE_DELTA_REFERENCE)) < 1.0


def test_quantum_gravity_row_reference_only():
    sources = {s.name: s for s in load_decoherence_sources()}
    assert sources["Quantum gravity"].reference_only


def test_scattering_master_step_properties():
    n = 64
    dx = 0.25
    x = dx * np.arange(n)
    length = n * dx
    p_hat = gaussian_transfer_profile(x, l_eff=1.0, length=length)
    rho0 = np.full((n, n), 1.0 / (n * dx), dtype=complex)
    rho = rho0
    rate, dt, steps = 2.0, 0.005, 400
    for _ in range(steps):
        rho = scattering_master_step(rho, p_hat, rate, dt)
    t = dt * steps
    # diagonal exactly invariant
    assert np.allclose(np.diag(rho), np.diag(rho0))
    damping = np.abs(rho) / np.abs(rho0)
    u = x[:, None] - x[None, :]
    u -= length * np.round(u / length)
    # near diagonal: Gaussian damping with the configured transfer length
    near = (np.abs(u) > 0.05) & (np.abs(u) < 0.3)
    fitted = np.log(damping[near]) / (-rate * t * u[near] ** 2 / 2.0)
    l_fit = 1.0 / np.sqrt(np.mean(fitted))
    assert l_fit == pytest.approx(1.0, rel=0.02)
    # far off-diagonal: flat exp(-rate t)
    far = np.abs(u) > 5.0
    assert np.allclose(damping[far], np.exp(-rate * t), rtol=0.02)


def test_scattering_master_step_validates_profile():
    rho = np.eye(4, dtype=complex) / 4.0
    bad = np.full((4, 4), 1.2)
    with pytest.raises(ValueError, match="invalid transfer"):
        scattering_master_step(rho, bad, 1.0, 0.01)
    p_identity = np.ones((4, 4))
    out = scattering_master_step(rho, p_identity, 1.0, 0.01)
    assert np.allclose(out, rho)  # no decoherence


def test_excitation_rate_qmsl_orders():
    params = canonical_qmsl()
    atom = excitation_rate_qmsl(params, 1e8)
    nucleus = excitation_rate_qmsl(params, 1e12)
    assert abs(np.log10(atom) - np.log10(1e-23)) < 1.0
    assert abs(np.log10(nucleus) - np.log10(1e-31)) < 1.0
    # alpha -> 0 limit
    small = CollapseParams(1e-16, 1e-30, 1.0)
    assert excitation_rate_qmsl(small, 1e8) < 1e-60


def test_diosi_rate_canonical_and_limits():
    gamma_rate = diosi_rate(1.0, 1.0, 1e-5)
    assert abs(np.log10(gamma_rate) - 9.0) < 1.0
    assert diosi_rate(1.0, 1.0, 0.0) == 0.0


def test_sphere_energy_closed_form_vs_quadrature():
    for sep in (0.0, 0.3, 1.2, 2.5):
        closed = sphere_interaction_energy(2.0, 1.0, sep)
        oracle = sphere_energy_by_quadrature(2.0, 1.0, sep, G_NEWTON_CGS)
        assert closed == pytest.approx(oracle, rel=1e-6)


def test_accessibility_becomes_classical_under_reduction():
    # nonlinear dynamics drives R_i of a superposed profile below threshold
    # within the predicted reduction timescale (factor-2 on the fitted rate)
    occ = np.array([[8.0, 0.0], [0.0, 8.0]])
    lam = 0.02
    fam = ProjectorFamily.from_configurations(occ)
    stepper = CslStepper(fam, lam, 0.004, form="nonlinear")
    psi0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    res = run_ensemble(psi0, stepper, 1200, 400, 121, record_every=40)
    z = res.z_history  # (n_rec, n_traj, 2)
    # R in the surviving cell = sqrt(z_other/z_surviving)
    z_max = z.max(axis=2)
    ratio = np.sqrt((1.0 - z_max) / z_max)
    threshold = 1e-2
    crossed = ratio <= threshold
    first = np.argmax(crossed, axis=0).astype(float)
    first[~crossed.any(axis=0)] = np.nan
    median_time = np.nanmedian(first) * 40 * 0.004
    # conditional log(z_loser/z_winner) drifts at -2 gamma sum (n-m)^2,
    # four times the off-diagonal ensemble rate
    drift = 2.0 * lam * float((occ[0] - occ[1]) @ (occ[0] - occ[1]))
    predicted = np.log(1.0 / threshold**2) / drift
    assert 0.5 < median_time / predicted < 2.0


def test_epr_gap_stable_across_master_seeds():
    # sign and magnitude of (nonlinear gap) - (linear gap ~ 0) hold for
    # five independent master seeds
    gaps = []
    for seed in (41, 42, 43, 44, 45):
        nl = epr_nonlinear_experiment(2500, 1.0, 2.0, seed, steps=250)
        gap_nl = nl.p_minus_detector_on - nl.p_minus_detector_off
        lin = epr_linear_experiment(2000, 1.0, 10.0, seed + 100)
        assert lin.ks_distance < lin.ks_critical_5pct
        gaps.append(gap_nl)
    gaps = np.array(gaps)
    assert np.all(gaps > 0.4) and np.all(gaps < 0.6)


def test_decoherence_rates_missing_inputs_raise():
    sources = {s.name: s for s in load_decoherence_sources()}
    with pytest.raises(ValueError, match="missing inputs"):
        decoherence_rates(sources["Quantum gravity"])


def test_mass_profile_missing_assignment():
    with pytest.raises(ValueError, match="missing mass assignment"):
        mass_profile("not a state")
