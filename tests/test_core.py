"""Core state/operator/noise layer."""

import ast
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from collapsim.errors import GridLeakageError
from collapsim.freeparticle import evolve_free_master
from collapsim.noise import WINDOWS, trajectory_generator, wiener_increment_block
from collapsim.operators import ProjectorFamily
from collapsim.params import CollapseParams
from collapsim.schrodinger import _kinetic_phase, gaussian_packet, split_step_batch
from collapsim.states import GridWavefunction, ensemble_density

from oracles import (
    free_gaussian_q_var,
    free_step_reference,
    kinetic_phase_reference,
    require_density,
)


# --------------------------------------------------------------- params


def test_collapse_params_consistency():
    # lambda = gamma (alpha / 4 pi)^(d/2), in three dimensions and in one
    p = CollapseParams.consistent(1e-16, 1e10)
    assert p.gamma_coupling == pytest.approx(1e-16 * (4 * np.pi / 1e10) ** 1.5, rel=1e-12)
    q = CollapseParams.consistent(2.0, 1.0, dimension=1)
    assert q.gamma_coupling == pytest.approx(2.0 * (4 * np.pi) ** 0.5, rel=1e-12)


def test_collapse_params_positive():
    with pytest.raises(ValueError):
        CollapseParams(0.0, 1.0, 1.0)


# --------------------------------------------------------------- states


def test_grid_validation():
    with pytest.raises(ValueError):
        GridWavefunction(np.ones(12, dtype=complex), 0.1, 0.0, 1.0)  # not 2^k
    with pytest.raises(ValueError):
        GridWavefunction(np.ones(4, dtype=complex), 0.1, 0.0, 1.0)  # too small


def test_density_pure_state_projector():
    rho = ensemble_density(np.array([[0.6, 0.8j]]))
    sq = rho @ rho
    assert np.max(np.abs(sq - rho)) < 1e-10


def test_density_equal_mixture_is_half_identity():
    rho = ensemble_density(np.eye(2, dtype=complex), np.array([0.5, 0.5]))
    assert np.allclose(rho, 0.5 * np.eye(2))


def test_density_inequivalent_mixtures_same_operator():
    # {|H>, |T>} at 50/50 vs {(|H>+|T>)/sqrt2, (|H>-|T>)/sqrt2} at 50/50
    rho1 = ensemble_density(np.eye(2, dtype=complex))
    rho2 = ensemble_density(np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2))
    assert np.max(np.abs(rho1 - rho2)) < 1e-12


def test_density_matrix_validate():
    # the reference master equation's guard on its input and output
    require_density(np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="Hermitian"):
        require_density(np.array([[0.5, 0.2], [0.1, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="trace"):
        require_density(np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        require_density(np.array([[0.5, 0.9], [0.9, 0.5]], dtype=complex))


# ------------------------------------------------------------ operators


def test_projector_family_partition_checks():
    with pytest.raises(ValueError):
        # overlapping sectors
        ProjectorFamily(np.array([[1.0], [-1.0]]), (np.array([0, 1]), np.array([1])))
    with pytest.raises(ValueError):
        # degenerate eigenvalue vectors
        ProjectorFamily(np.array([[1.0], [1.0]]), (np.array([0]), np.array([1])))


# ---------------------------------------------------------------- noise


def test_wiener_variance_law_of_large_numbers():
    path = wiener_increment_block(2024, [0], 10**6, 1, 1.0, 0.01)[:, 0]
    var = float(np.var(path))
    assert abs(var - 0.01) / 0.01 < 0.005


def test_wiener_determinism():
    a = wiener_increment_block(99, [7], 1000, 2, 0.5, 0.02)[:, 0]
    b = wiener_increment_block(99, [7], 1000, 2, 0.5, 0.02)[:, 0]
    assert np.array_equal(a, b)
    c = wiener_increment_block(99, [8], 1000, 2, 0.5, 0.02)[:, 0]
    assert not np.array_equal(a, c)


def test_wiener_channel_independence():
    path = wiener_increment_block(5, [0], 200_000, 2, 1.0, 0.01)[:, 0]
    x, y = path[:, 0], path[:, 1]
    cross = np.mean(x * y)
    # 3 sigma of zero for the empirical cross-covariance
    sigma = np.std(x * y) / np.sqrt(len(x))
    assert abs(cross) < 3.0 * sigma


def test_trajectory_streams_order_independent():
    g1 = trajectory_generator(1, 5)
    g2 = trajectory_generator(1, 5)
    assert np.array_equal(g1.normal(size=10), g2.normal(size=10))


def test_noise_purpose_is_the_stream_namespace():
    # purpose 0 is the stream keyed by (seed, index) alone
    plain = np.random.Generator(np.random.Philox(key=[7, 49164]))
    assert np.array_equal(trajectory_generator(7, 49164).normal(size=8), plain.normal(size=8))
    # another purpose starts its counter at purpose * 2^192: a disjoint stream
    other = trajectory_generator(7, 49164, purpose=1)
    assert other.bit_generator.state["state"]["counter"].tolist() == [0, 0, 0, 1]
    assert not np.array_equal(
        other.normal(size=8), trajectory_generator(7, 49164).normal(size=8)
    )


def test_trajectory_generator_is_the_philox_stream_without_entropy(monkeypatch):
    import secrets

    import numpy.random.bit_generator as bit_generator

    def philox(seed, index, purpose):
        counter = np.array([0, 0, 0, purpose], dtype=np.uint64)
        key = np.array([seed, index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(counter=counter, key=key))

    cases = [(s, i, p) for s in (0, 2**64 - 1) for i in (0, 2**63 + 5) for p in range(4)]
    expected = [philox(*case) for case in cases]

    def entropy(*_args):
        raise AssertionError("entropy read")

    # SeedSequence() draws its entropy through the name numpy bound at import
    monkeypatch.setattr(secrets, "randbits", entropy)
    monkeypatch.setattr(bit_generator, "randbits", entropy)
    with pytest.raises(AssertionError, match="entropy read"):
        philox(0, 0, 0)
    for case, plain in zip(cases, expected):
        rng = trajectory_generator(*case)
        assert np.array_equal(rng.standard_normal(9), plain.standard_normal(9))
        assert np.array_equal(rng.random(3), plain.random(3))
        assert str(rng.bit_generator.state) == str(plain.bit_generator.state)
    # a seed outside uint64 is rejected, as numpy rejects the key array
    for seed in (-1, 2**64):
        with pytest.raises(OverflowError):
            trajectory_generator(seed, 0)


@pytest.mark.parametrize("channels", [1, 3])
def test_wiener_block_rows_are_the_trajectory_streams(monkeypatch, channels):
    import collapsim.noise as noise

    steps = 50
    # tiles of three streams: the seven rows take three tiles, the last ragged
    monkeypatch.setattr(noise, "TILE_BYTES", 3 * steps * channels * 8)
    indices = np.array([9, 2, 40_000, 2**63 + 5, 0, 2, 17])
    block = noise.wiener_increment_block(2**64 - 1, indices, steps, channels, 0.7, 0.01)
    assert block.shape == (steps, len(indices), channels)
    for j, index in enumerate(indices):
        rng = trajectory_generator(2**64 - 1, int(index))
        assert np.array_equal(block[:, j], rng.normal(0.0, np.sqrt(0.007), (steps, channels)))


def test_wiener_block_right_purpose_rows_are_their_own_streams(monkeypatch):
    import collapsim.noise as noise

    steps = 40
    monkeypatch.setattr(noise, "TILE_BYTES", 2 * steps * 8)  # two tiles, the last ragged
    indices = np.array([3, 0, 4095])
    right = noise.wiener_increment_block(20, indices, steps, 1, 1.0, 0.005, noise.RIGHT)
    plain = noise.wiener_increment_block(20, indices, steps, 1, 1.0, 0.005)
    for j, index in enumerate(indices.tolist()):
        rng = trajectory_generator(20, index, noise.RIGHT)
        assert np.array_equal(right[:, j, 0], rng.normal(0.0, np.sqrt(0.005), steps))
        assert not np.any(right[:, j] == plain[:, j])


def test_one_row_block_is_its_stream_drawn_in_place():
    # a lone row is contiguous in the block, so it is drawn straight into
    # the block, with no tile beside it (a resampled window is such a row)
    seed, w, steps, width, gamma, dt = 2**64 - 1, 7, 100, 3000, 0.7, 0.002
    tracemalloc.start()
    try:
        block = wiener_increment_block(seed, [w], steps, width, gamma, dt, WINDOWS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rng = trajectory_generator(seed, w, WINDOWS)
    assert np.array_equal(block, rng.normal(0.0, np.sqrt(gamma * dt), (steps, 1, width)))
    assert peak <= 1.05 * block.nbytes


STREAM_BUILDERS = {"default_rng", "SeedSequence", "Generator", "BitGenerator", "RandomState",
                   "Philox", "PCG64", "PCG64DXSM", "MT19937", "SFC64"}


def _stream_builds(path: Path) -> list[str]:
    """Where the module at ``path`` imports numpy.random or names an
    attribute of it, and where it calls a generator or seed constructor."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None)
            names = [f"{module}.{a.name}" if module else a.name for a in node.names]
        elif isinstance(node, ast.Attribute):
            names = [ast.unparse(node)]
        elif isinstance(node, ast.Call):
            names = [getattr(node.func, "attr", getattr(node.func, "id", ""))]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {name}" for name in names
                  if name.startswith(("numpy.random", "np.random")) or name in STREAM_BUILDERS]
    return found


def test_streams_are_built_only_in_noise():
    # stream keying lives in one module: no other module of collapsim
    # reaches numpy.random or builds a generator, bit generator or seed
    src = Path(__import__("collapsim").__file__).parent
    assert _stream_builds(src / "noise.py")  # the scan sees noise's own builds
    outside = [hit for path in sorted(src.glob("*.py")) if path.name != "noise.py"
               for hit in _stream_builds(path)]
    assert outside == []


# ----------------------------------------------------------- schrodinger


def test_split_step_free_gaussian_spreading():
    mass, sigma = 2.0, 0.7
    psi = gaussian_packet(n=256, dx=0.125, x0=-16.0, mass=mass, center=0.0, sigma=sigma)
    t = 1.5
    out = replace(psi, amplitudes=free_step_reference(psi.amplitudes[None], psi, t)[0])
    x = out.positions
    prob = np.abs(out.amplitudes) ** 2 * out.dx
    q_var = float(prob @ x**2 - (prob @ x) ** 2)
    assert q_var == pytest.approx(free_gaussian_q_var(t, sigma, mass), rel=1e-6)
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-10)


def test_split_step_dt_zero_identity():
    # the kinetic phase of lag 0 is exactly 1, so a spectrum's free flight
    # by 0 is its inverse FFT
    psi = gaussian_packet(64, 0.25, -8.0, 1.0, 0.0, 0.8)
    assert np.array_equal(_kinetic_phase(psi, 0.0), np.ones(psi.n))
    spectrum = np.fft.fft(psi.amplitudes)[None]
    assert np.array_equal(split_step_batch(spectrum, _kinetic_phase(psi, 0.0)), np.fft.ifft(spectrum))
    assert np.max(np.abs(np.fft.ifft(spectrum)[0] - psi.amplitudes)) < 1e-15


def test_split_step_norm_conservation_long_run():
    # 1000 free steps, one FFT round trip each, against one step over 1000 dt
    psi = gaussian_packet(256, 0.0625, -8.0, 1.5, 0.0, 0.53)
    rows = psi.amplitudes[None]
    for _ in range(1000):
        rows = free_step_reference(rows, psi, 0.001)
    assert abs(replace(psi, amplitudes=rows[0]).norm_sq() - 1.0) < 1e-10
    once = split_step_batch(np.fft.fft(psi.amplitudes)[None], _kinetic_phase(psi, 1000 * 0.001))
    assert np.max(np.abs(rows - once)) < 1e-10


def test_kinetic_phase_is_bit_identical_to_the_phase_over_the_whole_grid():
    psi = gaussian_packet(256, 0.1, -12.8, 3.0, 0.0, 1.0)
    for t in (0.05, -0.05, 0.05, 1.3, -1.3):
        phase = _kinetic_phase(psi, t)
        fresh = np.exp(-0.5j * t * psi.wavenumbers**2 / psi.mass)
        assert np.array_equal(phase, fresh)
        # a backward phase is the forward one conjugated: the same bits but
        # for the sign of the zero imaginary part at k = 0
        bits = 2 if t < 0 else 0
        assert np.array_equal(phase.view(np.uint64)[bits:], fresh.view(np.uint64)[bits:])


@pytest.mark.parametrize("n, dx, mass", [(64, 0.25, 5.0), (256, 0.1, 3.0), (2048, 0.05, 20.0)])
def test_kinetic_phase_is_the_complex_chain_bit_for_bit(n, dx, mass):
    psi = gaussian_packet(n, dx, -0.5 * n * dx, mass, 0.0, 1.0)
    rng = np.random.default_rng(n)
    window = np.add.accumulate(np.r_[0.3, np.full(16, 0.005)])[1:]  # a window's step times
    lags = [0.0, 0.005, -0.005, 1.3, window, np.r_[0.0, -0.0, rng.uniform(-3.0, 3.0, 7)]]
    for lag in lags:
        ref = kinetic_phase_reference(psi, lag).view(np.uint64)
        phase = _kinetic_phase(psi, lag)
        assert np.array_equal(phase.view(np.uint64), ref)
        # k = 0: exactly 1, with the +0 imaginary part of the complex chain
        assert np.all(phase[..., 0] == 1.0) and not np.any(np.signbit(phase[..., 0].imag))
        # a narrow out takes the first wavenumbers, into a view of a wider array
        for w in (3 * n // 16 + 1, n // 2 + 1):
            rows = np.full(np.shape(lag) + (2, n), np.nan, dtype=complex)
            out = rows[..., 0, :w]
            assert _kinetic_phase(psi, lag, out) is out
            assert np.array_equal(out.view(np.uint64), ref[..., : 2 * w])
            assert np.all(np.isnan(rows[..., 0, w:])) and np.all(np.isnan(rows[..., 1, :]))


def test_backward_split_step_equals_the_freshly_computed_phase():
    psi = gaussian_packet(256, 0.1, -12.8, 3.0, 0.0, 1.0)
    rng = trajectory_generator(8)
    amps = psi.amplitudes * np.exp(1j * rng.uniform(0.0, 6.0, size=(5, 1)))
    # one lag for the block, or one per row (the hitting engine's)
    for t in (-0.05, -1.3, np.array([-0.05, -1.3, -0.2, -0.7, -2.0])):
        fresh = np.exp(-0.5j * np.asarray(t)[..., None] * psi.wavenumbers**2 / psi.mass)
        direct = np.fft.ifft(np.fft.fft(amps, axis=1) * fresh, axis=1)
        # the rows held as momentum-picture spectra, as the engine holds them
        spectra = np.fft.fft(amps, axis=1)
        out = split_step_batch(spectra, _kinetic_phase(psi, t))
        assert np.array_equal(out.view(np.uint64), direct.view(np.uint64))
        # in place, as the hitting engine steps its workspace and output rows
        assert split_step_batch(spectra, _kinetic_phase(psi, t), out=spectra) is spectra
        assert np.array_equal(spectra.view(np.uint64), direct.view(np.uint64))
        # and in position space, as the lockstep oracle steps them
        out = free_step_reference(amps, psi, t)
        assert np.array_equal(out.view(np.uint64), direct.view(np.uint64))


def test_leakage_monitor_raises():
    # a packet jammed against the boundary trips the monitor, at t = 0 too
    psi = gaussian_packet(64, 0.25, -8.0, 1.0, -7.8, 0.5)
    with pytest.raises(GridLeakageError, match="boundary amplitude"):
        evolve_free_master(psi, CollapseParams(4.0, 1.0, 1.0, dimension=1), 0.0)
