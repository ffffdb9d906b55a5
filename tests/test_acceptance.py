"""Acceptance criteria, one test per criterion.

Trajectory-level criteria run at rescaled desk-scale parameters and are
compared against the same-scale formulas; the closed-form criteria
reproduce the published magnitudes, asserted to within one order of
magnitude (|log10 ratio| <= 1), which is the precision the sources quote.
Every test prints one PASS/FAIL line (run with `pytest -s` to see them).
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

from collapsim import epr
from collapsim.colored import CorrelationSpec, colored_instantaneous_rate
from collapsim.cooking import sample_cooked_commuting
from collapsim.diffusion import CslStepper, run_ensemble
from collapsim.epr import epr_linear_experiment, epr_nonlinear_experiment
from collapsim.freeparticle import (
    com_amplified_rate,
    energy_increase_rate,
    evolve_free_master,
    free_particle_moments,
    offdiag_lifetime,
)
from collapsim.hitting import run_qmsl_ensemble
from collapsim.macrobody import macro_reduction_rate, momentum_diffusion
from collapsim.nosignal import gisin_check, here_there_mixtures
from collapsim.operators import ProjectorFamily
from collapsim.params import CollapseParams, canonical_qmsl
from collapsim.rates import diosi_rate, excitation_rate_qmsl, localization_decoherence_rate
from collapsim.refdata import LOCALIZATION_TABLE_DELTA_REFERENCE
from collapsim.schrodinger import gaussian_packet, two_packet_state
from collapsim.states import ensemble_density
from collapsim.units import ERG_PER_EV, HBAR_CGS

from oracles import (
    diagonal_family,
    discrete_decay_log,
    double_integral_by_quadrature,
    ensemble_moments,
    free_gaussian_q_var,
    gaussian_transfer_profile,
    hermitian_phase_noise_reference,
    lindblad_evolve,
    master_kernel_by_ode,
    run_commuting_nonwhite_ensemble,
    scattering_master_step,
    two_level_analytic,
)

TWO = ProjectorFamily.two_level()


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    else:
        print(f"ACCEPTANCE {number:2d} {name}: PASS")


def order_of_magnitude_match(value: float, reference: float) -> bool:
    return abs(np.log10(value) - np.log10(reference)) <= 1.0


def test_criterion_01_born_statistics():
    with criterion(1, "Born statistics"):
        start = time.monotonic()
        psi0 = np.sqrt(np.array([0.3, 0.7], dtype=complex))
        stepper = CslStepper(TWO, gamma=1.0, dt=0.005, form="nonlinear")
        res = run_ensemble(psi0, stepper, steps=2000, n_traj=10_000, master_seed=1001)
        elapsed = time.monotonic() - start
        z = TWO.sector_weights(res.final_states)
        freq = float(np.mean(z[:, 0] > 0.5))
        assert (res.outcomes >= 0).mean() > 0.99  # reduction completed
        assert abs(freq - 0.3) <= 0.0137  # 3 sigma binomial at 1e4
        assert abs((1.0 - freq) - 0.7) <= 0.0137
        assert elapsed < 60.0


def test_criterion_02_formulation_equivalence():
    with criterion(2, "Formulation equivalence (linear+cooking vs nonlinear)"):
        # both forms step through the same noise windows, as csl-equivalence
        # runs them.  f_lin - f_non spreads with sd ~0.013 at 1e4
        # trajectories (2.0 naive binomial units over 40 seeds, resampling
        # variance of the linear side), so 0.02 would be a 1.5-sigma bound
        # there; at 4e4 it is 3 sigma.
        psi0 = np.sqrt(np.array([0.3, 0.7], dtype=complex))
        gamma, dt, steps, n = 1.0, 0.002, 750, 40_000
        lin, non = run_ensemble(
            psi0,
            tuple(CslStepper(TWO, gamma, dt, form=f) for f in ("linear", "nonlinear")),
            steps, n, master_seed=20, resample_every=100,
        )
        z = TWO.sector_weights(lin.final_states)
        w = np.exp(lin.log_weights - lin.log_weights.max())
        w /= w.sum()
        f_lin = float(np.sum(w * (z[:, 0] > 0.5)))
        f_non = float(np.mean(TWO.sector_weights(non.final_states)[:, 0] > 0.5))
        tv = abs(f_lin - f_non)
        assert tv < 0.02


def test_criterion_03_trajectory_master_consistency():
    with criterion(3, "Trajectory/master consistency"):
        # finite-dimensional: d = 3, H != 0, 1e4 cooked trajectories
        psi0 = np.array([0.6, 0.64, 0.48], dtype=complex)
        psi0 /= np.linalg.norm(psi0)
        h = np.array(
            [[0.0, 0.4, 0.0], [0.4, 0.0, 0.4], [0.0, 0.4, 0.0]], dtype=complex
        )
        fam = diagonal_family(np.array([[1.0, 0.0, -1.0]]))
        gamma, dt, steps = 0.5, 0.005, 400
        res = run_ensemble(
            psi0, CslStepper(fam, gamma, dt, form="nonlinear", hamiltonian=h),
            steps, 10_000, 301,
        )
        rho_ref = lindblad_evolve(np.outer(psi0, psi0.conj()), h, fam, gamma, dt * steps)
        err = np.linalg.norm(ensemble_density(res.final_states) - rho_ref)
        assert err < 0.05
        # grid: 1e4 hitting trajectories vs the damped-kernel equation on
        # a 64-point grid
        params = CollapseParams(2.0, 1.0)
        psi = gaussian_packet(64, 0.25, -8.0, 20.0, 0.0, 0.45)
        qres = run_qmsl_ensemble(psi, params, 1.0, 10_000, 302, 0.02)
        rho_kernel = evolve_free_master(psi, params, 1.0)
        err = np.linalg.norm(ensemble_density(qres.amplitudes) - rho_kernel)
        rel = err / np.linalg.norm(rho_kernel)
        assert rel < 0.05


def test_criterion_04_free_particle_spreads():
    with criterion(4, "Free-particle spreads"):
        params = CollapseParams(3.0, 1.0)
        mass, sigma, t = 8.0, 0.8, 1.6
        psi = gaussian_packet(256, 0.125, -16.0, mass, 0.0, sigma)
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
        # deterministic route: damped-kernel solution vs direct integration
        params2 = CollapseParams(2.0, 4.0)
        psi2 = gaussian_packet(64, 0.25, -8.0, 5.0, 0.0, 0.9)
        rho = evolve_free_master(psi2, params2, 0.5)
        oracle = master_kernel_by_ode(psi2.amplitudes, 0.25, 5.0, 2.0, 4.0, 0.5)
        assert np.linalg.norm(rho - oracle) / np.linalg.norm(oracle) < 1e-6


def test_criterion_05_closed_form_reproduction():
    with criterion(5, "Closed-form magnitudes"):
        micro = canonical_qmsl()
        macro = CollapseParams(1e7, 1e10)
        assert order_of_magnitude_match(offdiag_lifetime(4e-5, macro), 1e-6)
        assert com_amplified_rate(1e-16, 1e23) == pytest.approx(1e7, rel=1e-9)
        energy_ev = energy_increase_rate(micro, 1e-23, hbar=HBAR_CGS) / ERG_PER_EV
        assert order_of_magnitude_match(energy_ev, 1e-25)
        assert order_of_magnitude_match(macro_reduction_rate(1e-30, 1e24, 1e13), 1e7)
        assert order_of_magnitude_match(
            momentum_diffusion(1e-30, 1e10, 1e24, 1.0, HBAR_CGS), 1e-32
        )
        assert order_of_magnitude_match(excitation_rate_qmsl(micro, 1e8), 1e-23)
        assert order_of_magnitude_match(excitation_rate_qmsl(micro, 1e12), 1e-31)
        delta_loc = localization_decoherence_rate(micro)
        assert delta_loc == pytest.approx(0.5 * 1e10 * 1e-16, rel=1e-12)
        assert order_of_magnitude_match(delta_loc, LOCALIZATION_TABLE_DELTA_REFERENCE)
        assert order_of_magnitude_match(diosi_rate(1.0, 1.0, 1e-5), 1e9)


def test_criterion_06_discrete_cells():
    with criterion(6, "Discrete cell-model decay rate"):
        occ = np.array([[6.0, 0.0, 2.0], [0.0, 5.0, 2.0]])  # desk scale n <= 10
        lam = 0.02
        fam = ProjectorFamily.from_configurations(occ)
        stepper = CslStepper(fam, lam, 0.004, form="nonlinear")
        psi0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        res = run_ensemble(psi0, stepper, 250, 10_000, 601, record_every=50)
        offdiag = np.sqrt(
            np.maximum(res.z_history[..., 0] * res.z_history[..., 1], 0.0)
        ).mean(axis=1)
        t_rec = np.arange(1, len(offdiag) + 1) * 50 * 0.004
        fitted = -np.polyfit(t_rec, np.log(offdiag), 1)[0]
        expected = -discrete_decay_log(occ[0], occ[1], lam, 1.0)
        assert fitted == pytest.approx(expected, rel=0.05)


def test_criterion_07_colored_noise():
    with criterion(7, "Colored-noise damping"):
        # gaussian kernel, stationary: rate equals the white rate within 1%
        for tau in (0.05, 0.5, 2.0):
            rate = colored_instantaneous_rate(
                TWO, CorrelationSpec("gaussian", tau=tau), 1.3, 0, 1, None
            )
            white = colored_instantaneous_rate(
                TWO, CorrelationSpec.white(), 1.3, 0, 1, None
            )
            assert rate == pytest.approx(white, rel=0.01)
        # exponential kernel: time-dependent factor 1 - exp(-(t-t0)/tau)
        tau, gamma = 0.8, 1.1
        quad_sum = 4.0  # (a - b)^2 for eigenvalues +1/-1
        for t in (0.2, 0.9, 3.0):
            rate = colored_instantaneous_rate(
                TWO, CorrelationSpec("exponential", tau=tau), gamma, 0, 1, t
            )
            expected = 0.5 * gamma * quad_sum * (1.0 - np.exp(-t / tau))
            assert rate == pytest.approx(expected, rel=0.02)
        # double integral closed forms vs 2D quadrature to 1e-8
        for spec in (CorrelationSpec(kind, tau=0.7) for kind in ("gaussian", "exponential")):
            for t_span in (0.4, 1.7):
                assert spec.double_integral(t_span) == pytest.approx(
                    double_integral_by_quadrature(spec, t_span), rel=1e-8
                )


def _csl_evolver(gamma, dt, steps, master_seed):
    stepper = CslStepper(TWO, gamma, dt, form="nonlinear")

    def evolve_many(psi0, indices):
        res = run_ensemble(
            psi0, stepper, steps, len(indices), master_seed,
            traj_offset=int(indices[0]),
        )
        return res.final_states, np.zeros(len(indices))

    return evolve_many


def _qmsl_evolver(params, t_end, dt, master_seed):
    def evolve_many(psi0_amps, indices):
        template = two_packet_state(128, 0.25, -16.0, 20.0, (-3.0, 3.0), 0.45)
        # gisin_check works with unit-norm vectors; the grid carries dx
        psi0 = replace(template, amplitudes=psi0_amps / np.sqrt(template.dx))
        res = run_qmsl_ensemble(
            psi0, params, t_end, len(indices),
            master_seed + 7919 * int(indices[0]), dt,
        )
        return res.amplitudes * np.sqrt(psi0.dx), np.zeros(len(indices))

    return evolve_many


def _colored_evolver(spec, gamma, t_end, steps, master_seed):
    def evolve_many(psi0, indices):
        states, logw = run_commuting_nonwhite_ensemble(
            psi0, TWO, spec, gamma, t_end, steps,
            master_seed + 104729 * int(indices[0]), len(indices),
        )
        return states, logw

    return evolve_many


def _orthogonal_packet_mixtures():
    """Two physically different grid ensembles with the same density
    matrix: left/right packets vs their exactly orthogonalized +/-
    combinations."""
    template = two_packet_state(128, 0.25, -16.0, 20.0, (-3.0, 3.0), 0.45)
    left = gaussian_packet(128, 0.25, -16.0, 20.0, -3.0, 0.45).amplitudes
    right = gaussian_packet(128, 0.25, -16.0, 20.0, 3.0, 0.45).amplitudes
    dx = template.dx
    overlap = np.vdot(left, right) * dx
    right = right - overlap * left
    right /= np.sqrt(np.sum(np.abs(right) ** 2) * dx)
    plus = (left + right) / np.sqrt(2.0)
    minus = (left - right) / np.sqrt(2.0)
    scale = np.sqrt(dx)  # unit-norm vectors for the density comparison
    ens_a = [(left * scale, 0.5), (right * scale, 0.5)]
    ens_b = [(plus * scale, 0.5), (minus * scale, 0.5)]
    return ens_a, ens_b


def test_criterion_08_no_signaling():
    with criterion(8, "No-signaling (closed statistical-operator evolution)"):
        # white diffusion dynamics
        ens_a, ens_b = here_there_mixtures()
        report = gisin_check(ens_a, ens_b, _csl_evolver(1.0, 0.005, 600, 801), 2000)
        assert report.passed
        # hitting dynamics on the grid
        params = CollapseParams(4.0, 1.0)
        ga, gb = _orthogonal_packet_mixtures()
        qreport = gisin_check(ga, gb, _qmsl_evolver(params, 1.5, 0.02, 802), 600)
        assert qreport.passed
        # colored commuting dynamics (cooked linear weights)
        spec = CorrelationSpec("exponential", tau=0.3)
        creport = gisin_check(
            ens_a, ens_b, _colored_evolver(spec, 1.0, 2.0, 200, 803), 4000
        )
        assert creport.passed


def test_criterion_09_epr_parameter_dependence(monkeypatch):
    with criterion(9, "EPR parameter (in)dependence"):
        nonlinear = epr_nonlinear_experiment(
            8000, gamma=1.0, t_end=2.0, master_seed=901, steps=300
        )
        gap = nonlinear.p_minus_detector_on - nonlinear.p_minus_detector_off
        assert gap == pytest.approx(0.5, abs=0.03)
        assert nonlinear.p_minus_detector_off == 0.0
        b_left = []  # the linear half's B_L samples, detector on and off

        def recorded(*args):
            states, records = sample_cooked_commuting(*args)
            b_left.append(records[:, 0])
            return states, records

        monkeypatch.setattr(epr, "sample_cooked_commuting", recorded)
        gamma, t = 1.0, 10.0
        linear = epr_linear_experiment(4000, gamma=gamma, t_end=t, master_seed=902)
        assert linear.ks_distance < linear.ks_critical_5pct
        # both samples against the singlet's cooked mixture, not only each
        # other: one-sample K-S at its 1e-5 critical value
        law = two_level_analytic((0.5, 0.5), (1.0, -1.0), gamma, t)
        assert len(b_left) == 2
        for sample in b_left:
            assert kstest(sample, law.cdf).statistic < 2.47 / np.sqrt(sample.size)


def test_criterion_10_decoherence_vs_collapse():
    with criterion(10, "Decoherence-without-reduction contrast"):
        # scattering master equation: fitted transfer length within 2%
        n, dx = 64, 0.25
        x = dx * np.arange(n)
        length = n * dx
        p_hat = gaussian_transfer_profile(x, l_eff=1.0, length=length)
        rho = np.full((n, n), 1.0 / (n * dx), dtype=complex)
        rate, dt, steps = 2.0, 0.005, 400
        out = rho
        for _ in range(steps):
            out = scattering_master_step(out, p_hat, rate, dt)
        damping = np.abs(out) / np.abs(rho)
        u = x[:, None] - x[None, :]
        u -= length * np.round(u / length)
        near = (np.abs(u) > 0.05) & (np.abs(u) < 0.3)
        t_tot = rate * dt * steps
        l_fit = 1.0 / np.sqrt(np.mean(np.log(damping[near]) / (-t_tot * u[near] ** 2 / 2)))
        assert l_fit == pytest.approx(1.0, rel=0.02)
        far = np.abs(u) > 5.0
        assert np.allclose(damping[far], np.exp(-rate * dt * steps), rtol=0.02)
        # Hermitian-noise model: ensemble diagonalization with path-wise
        # constant sector weights
        psi0 = np.sqrt(np.array([0.3, 0.7], dtype=complex))
        gamma = 0.8
        rho_h, z_all = hermitian_phase_noise_reference(
            psi0, TWO, gamma, 0.01, 250, 4000, 1055
        )
        assert np.max(np.abs(z_all - np.array([0.3, 0.7]))) < 1e-12
        expected_offdiag = np.sqrt(0.21) * np.exp(-gamma * 2.5)
        assert abs(rho_h[0, 1]) == pytest.approx(expected_offdiag, rel=0.1)


def test_criterion_11_martingale_suite():
    with criterion(11, "Martingale and monotonicity suite"):
        psi0 = np.sqrt(np.array([0.3, 0.7], dtype=complex))
        stepper = CslStepper(TWO, gamma=1.0, dt=0.005, form="nonlinear")
        res = run_ensemble(
            psi0, stepper, 1000, 10_000, 1101, record_every=100
        )
        z0 = res.z_history[..., 0]
        sigma = z0.std(axis=1) / np.sqrt(z0.shape[1])
        assert np.all(np.abs(z0.mean(axis=1) - 0.3) <= 3.0 * sigma)
        second = (z0**2).mean(axis=1)
        assert np.all(np.diff(second) > -3.0 * 2.0 * sigma[1:])
        # trace conservation along the ensemble generator
        fam = diagonal_family(np.array([[1.0, 0.0, -1.0]]))
        rho0 = np.full((3, 3), 1.0 / 3.0, dtype=complex)
        h = np.diag([0.1, 0.0, -0.1]).astype(complex)
        traces = [
            np.trace(lindblad_evolve(rho0, h, fam, 0.7, t)).real for t in (0.5, 1.0, 2.0)
        ]
        assert np.max(np.abs(np.array(traces) - 1.0)) < 1e-9
        # purity decay along the hitting master evolution
        params = CollapseParams(4.0, 1.0)
        psi = two_packet_state(128, 0.25, -16.0, 20.0, (-3.0, 3.0), 0.45)
        purities = [
            np.sum(np.abs(evolve_free_master(psi, params, t)) ** 2) * psi.dx**2
            for t in (0.3, 0.8, 1.5)
        ]
        assert 1.0 > purities[0] > purities[1] > purities[2]
