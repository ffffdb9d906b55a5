"""Config grammar, experiment dispatch, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import tempfile
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collapsim
from collapsim.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_STATISTICAL, main
from collapsim.config import OUTPUT_BYTES, parse_config_text
from collapsim.errors import ConfigError
from collapsim.experiments import plan, run_experiment

BORN_CFG = """
experiment = csl-born
seed = 20
trajectories = 1500
output = born
format = csv

[params]
weights = 0.3, 0.7
gamma = 1.0
dt = 0.005
steps = 600
"""


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- parsing


def test_parse_round_trip():
    cfg = parse_config_text(BORN_CFG)
    assert cfg.experiment == "csl-born"
    assert cfg.seed == 20
    assert cfg.params["weights"] == [0.3, 0.7]
    assert cfg.params["steps"] == 600
    assert cfg.config_hash() == parse_config_text(BORN_CFG).config_hash()


def test_parse_rejects_unknown_experiment():
    with pytest.raises(ConfigError, match="unknown experiment"):
        parse_config_text("experiment = warp-drive\n")


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown top-level"):
        parse_config_text("experiment = csl-born\nbanana = 3\n")
    cfg = parse_config_text(BORN_CFG + "\nextra = 1\n".replace("extra", "steps2"))
    with pytest.raises(ConfigError, match="unknown params"):
        plan(cfg)


def test_parse_rejects_malformed_lines():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text("experiment csl-born\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("experiment = csl-born\nexperiment = csl-born\n")


def test_missing_seed_generates_defaulting_notice(tmp_path, capsys):
    cfg = parse_config_text("experiment = rates-report\n")
    assert any("seed defaulted" in m for m in cfg.defaults_applied)
    path = _write(tmp_path, "experiment = rates-report\n")
    assert main(["--config", path, "--validate"]) == 0
    assert "seed defaulted" in capsys.readouterr().out


def test_validate_flags_stability(tmp_path, capsys):
    path = _write(
        tmp_path,
        "experiment = csl-born\n[params]\nweights = 0.5, 0.5\n"
        "gamma = 1.0\ndt = 0.5\nsteps = 10\n",
    )
    assert main(["--config", path, "--validate"]) == EXIT_NUMERICAL
    assert "stability" in capsys.readouterr().err


# -------------------------------------------------------------- execution


def test_cli_malformed_config_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "experiment = csl-born\nnon sense\n")
    assert main(["--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))  # no partial outputs


@pytest.mark.parametrize(
    "flags",
    [["--seed", "x"], ["--format", "xml"], ["--seed"], ["--bogus"], []],
    ids=["seed-x", "format-xml", "seed-without-value", "unknown-flag", "no-config"],
)
def test_cli_bad_flag_exit_2(tmp_path, capsys, flags):
    # a flag the parser rejects is a config error: main returns, it does not exit
    path = _write(tmp_path, HITTING_CFG)
    argv = flags if not flags else ["--config", path, "--out", str(tmp_path), *flags]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("hits.*"))
    with pytest.raises(SystemExit) as help_exit:
        main(["--help"])
    assert help_exit.value.code == 0


def test_cli_master_initial_state_at_the_grid_edge_exit_3(tmp_path, capsys):
    # a packet of width 1.5 on the [-3.2, 3.2) ring wraps already at t = 0
    text = BASES["master"].replace("sigma = 0.5", "sigma = 1.5")
    path = _write(tmp_path, text.replace("times = 0.0, 1.0", "times = 0.0"))
    assert main(["--config", path, "--out", str(tmp_path)]) == EXIT_NUMERICAL
    assert "numerical-stability abort: boundary amplitude" in capsys.readouterr().err
    assert not list(tmp_path.glob("master.*"))


def test_cli_missing_file_exit_2(tmp_path):
    assert main(["--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG


def test_cli_stability_abort_exit_3(tmp_path):
    path = _write(
        tmp_path,
        "experiment = csl-born\ntrajectories = 10\n"
        "[params]\nweights = 0.5, 0.5\ngamma = 1.0\ndt = 0.5\nsteps = 5\n",
    )
    assert main(["--config", path, "--out", str(tmp_path)]) == EXIT_NUMERICAL


@pytest.mark.parametrize(
    "line, bad",
    [("dt = 0.005", "dt = nan"), ("gamma = 1.0", "gamma = -1")],
    ids=["dt-nan", "gamma-negative"],
)
def test_cli_nonfinite_or_nonpositive_step_parameter_exit_2(tmp_path, line, bad):
    path = _write(tmp_path, BORN_CFG.replace(line, bad))
    assert main(["--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert not list(tmp_path.glob("*.csv"))


def test_cli_statistical_precondition_exit_4(tmp_path):
    path = _write(
        tmp_path,
        "experiment = epr\ntrajectories = 600\n[params]\ngamma = 1.0\nt_end = 2.0\n",
    )
    assert main(["--config", path, "--out", str(tmp_path)]) == EXIT_STATISTICAL


def test_cli_born_runs_and_is_deterministic(tmp_path):
    path = _write(tmp_path, BORN_CFG)
    assert main(["--config", path, "--out", str(tmp_path / "a")]) == 0
    assert main(["--config", path, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "born.csv").read_text().splitlines()
    b = (tmp_path / "b" / "born.csv").read_text().splitlines()
    # byte-identical excluding the timestamp header line
    assert a[0] == b[0]
    assert a[2:] == b[2:]
    header = a[2]
    assert "[probability]" in header  # units annotation present


def test_cli_seed_override_changes_output(tmp_path):
    path = _write(tmp_path, BORN_CFG)
    main(["--config", path, "--out", str(tmp_path / "a")])
    main(["--config", path, "--out", str(tmp_path / "b"), "--seed", "77"])
    a = (tmp_path / "a" / "born.csv").read_text().splitlines()
    b = (tmp_path / "b" / "born.csv").read_text().splitlines()
    assert a[3] != b[3]


def test_cli_validate_dry_run(tmp_path, capsys):
    path = _write(tmp_path, BORN_CFG)
    assert main(["--config", path, "--validate"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert not list(tmp_path.glob("*.csv"))


def test_cli_json_format(tmp_path):
    path = _write(tmp_path, BORN_CFG)
    assert main(["--config", path, "--out", str(tmp_path), "--format", "json"]) == 0
    doc = json.loads((tmp_path / "born.json").read_text())
    assert doc["provenance"]["seed"] == 20
    assert doc["data"]["rows"]


def test_cli_output_name_is_the_text_as_written(tmp_path):
    for name in ("true", "1e3"):
        path = _write(tmp_path, BORN_CFG.replace("output = born", f"output = {name}"))
        assert main(["--config", path, "--out", str(tmp_path / "out")]) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["1e3.csv", "true.csv"]


def test_rates_report_contains_reference_orders(tmp_path):
    path = _write(tmp_path, "experiment = rates-report\noutput = rates\nformat = json\n")
    assert main(["--config", path, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "rates.json").read_text())
    data = doc["data"]
    import numpy as np

    def order_close(value, ref):
        return abs(np.log10(value) - np.log10(ref)) < 1.0

    assert order_close(data["offdiag_lifetime_s"], 1e-6)
    assert order_close(data["lambda_macro_per_s"], 1e7)
    assert order_close(data["energy_increase_eV_per_s"], 1e-25)
    assert order_close(data["macro_reduction_rate_per_s"], 1e7)
    assert order_close(data["momentum_diffusion_cgs_per_cm2"], 1e-32)
    assert order_close(data["excitation_rate_atom_per_s"], 1e-23)
    assert order_close(data["excitation_rate_nucleus_per_s"], 1e-31)
    assert order_close(data["localization_decoherence_rate_per_cm2_s"], 1e-6)
    assert order_close(data["diosi_rate_per_s"], 1e9)
    assert order_close(data["condenser_decay_rate_per_s"], 1e-8)


def test_decoherence_table_runs(tmp_path):
    path = _write(
        tmp_path, "experiment = decoherence-table\noutput = table\nformat = csv\n"
    )
    assert main(["--config", path, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "table.csv").read_text()
    assert "Spontaneous localization" in text
    assert "reference-only" in text


def test_mass_profile_product_in_one_cell_is_the_superposed_profile():
    # a particle in (0, 0, 0.5) is certainly in cell 0: its mass has no variance
    text = "experiment = mass-profile\n[params]\nn_particles = 4\nn_cells = 1\n"
    product, superposed = (
        run_experiment(parse_config_text(text + f"scenario = {scenario}\n")).rows
        for scenario in ("product", "superposed")
    )
    assert product[0][1] == pytest.approx(superposed[0][1], rel=1e-12)
    assert product[0][2:] == superposed[0][2:] == (0.0, 0.0, 1)  # variance, ratio, accessible


def test_mass_profile_experiment(tmp_path):
    path = _write(
        tmp_path,
        "experiment = mass-profile\noutput = prof\n[params]\nscenario = superposed\n"
        "n_particles = 100\n",
    )
    assert main(["--config", path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "prof.csv").read_text().splitlines()
    assert len(lines) >= 5  # header rows + two cells


def test_qmsl_hitting_event_log(tmp_path):
    cfg = (
        "experiment = qmsl-hitting\nseed = 4\ntrajectories = 4\noutput = events\n"
        "[params]\nn = 128\ndx = 0.25\nmass = 20.0\ncenters = -3.0, 3.0\n"
        "sigma = 0.45\nalpha = 1.0\nlambda = 4.0\nt_end = 1.0\ndt = 0.02\n"
        "record_events = true\n"
    )
    path = _write(tmp_path, cfg)
    assert main(["--config", path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "events.csv").read_text().splitlines()
    assert "center [internal length]" in lines[2]


def test_colored_damping_experiment(tmp_path):
    cfg = (
        "experiment = colored-damping\noutput = damp\n[params]\nkind = exponential\n"
        "tau = 0.5\ngamma = 1.0\ntimes = 0.5, 1.0, 2.0\n"
    )
    path = _write(tmp_path, cfg)
    assert main(["--config", path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "damp.csv").read_text().splitlines()
    assert len(lines) == 6  # 2 header comments + column row + 3 times


def test_csl_discrete_runs_with_empty_cells(tmp_path):
    # configuration a is empty, and cell 0 is empty in both
    cfg = BASES["discrete"].replace("3, 0", "0, 0").replace("0, 3", "0, 2")
    path = _write(tmp_path, cfg)
    assert main(["--config", path, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "cells.json").read_text())
    assert doc["data"]["fitted_rate"] > 0.0


def test_csl_born_per_trajectory_export(tmp_path):
    cfg = BORN_CFG.replace("[params]", "[params]\nper_trajectory = true")
    path = _write(tmp_path, cfg)
    assert main(["--config", path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "born.csv").read_text().splitlines()
    assert "outcome_sector" in lines[2] and "final_log_weight" in lines[2]
    assert len(lines) == 3 + 1500  # one row per trajectory


def test_colored_damping_custom_kernel_at_long_times(tmp_path):
    # T = 1e5 at a lag spacing of 0.05: S = 2e6 steps of a 40-sample kernel
    pairs = [(k / 20, math.exp(-k / 10)) for k in range(40)]
    kernel = ", ".join(f"{lag!r}, {value!r}" for lag, value in pairs)
    cfg = (
        "experiment = colored-damping\noutput = damp\n[params]\nkind = custom\n"
        f"kernel = {kernel}\ngamma = 1.0\ntimes = 0.5, 100000\n"
    )
    path = _write(tmp_path, cfg)
    assert main(["--config", path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "damp.csv").read_text().splitlines()[3:]
    for line, steps in zip(lines, (10, 2_000_000), strict=True):
        closed = sum(
            (steps if k == 0 else 2 * (steps - k)) * value
            for k, (_, value) in enumerate(pairs[:steps])
        )
        double_integral = float(line.split(",")[4])
        assert double_integral == pytest.approx(closed * 0.05**2, rel=1e-12)


def test_colored_damping_custom_kernel_at_a_tiny_lag_spacing(tmp_path):
    # T/dt reaches 1e310 and dt^2 = 1e-600: past the float range both, where
    # f(T) = dt^2 [S D_0 + 2 (S - 1) D_1] = dt T (D_0 + 2 D_1) to rounding
    cfg = COLORED_CFG.replace(
        "kind = exponential\ntau = 0.5", "kind = custom\nkernel = 0, 1.0, 1e-300, 0.5"
    ).replace("times = 0.5, 1.0, 2.0", "times = 0.5, 1e10")
    path = _write(tmp_path, cfg)
    assert main(["--config", path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "damp.csv").read_text().splitlines()[3:]
    for line, t in zip(lines, (0.5, 1e10), strict=True):
        double_integral = float(line.split(",")[4])
        assert double_integral == pytest.approx(1e-300 * t * (1.0 + 2 * 0.5), rel=1e-12)


def test_colored_damping_oversized_kernel_exit_2(tmp_path, capsys, monkeypatch):
    # the PSD check's K x K Toeplitz matrix against a machine of one 4 KiB page
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    path = _write(tmp_path, SMALL["colored-damping-custom"])
    assert main(["--config", path, "--validate"]) == EXIT_CONFIG
    assert "the kernel's Toeplitz matrix need" in capsys.readouterr().err


def test_epr_experiment_json_serializes(tmp_path):
    cfg = (
        "experiment = epr\nseed = 31\ntrajectories = 1500\noutput = epr\n"
        "format = json\n[params]\ngamma = 1.0\nt_end = 2.0\nsteps = 250\n"
    )
    path = _write(tmp_path, cfg)
    assert main(["--config", path, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "epr.json").read_text())
    assert doc["data"]["nonlinear"]["p_minus_given_class_detector_off"] == 0.0
    assert isinstance(doc["data"]["linear"]["marginals_indistinguishable"], bool)


def test_epr_depends_on_gamma_and_t_end_through_their_product(tmp_path):
    # CSL time rescaling: (gamma, t_end) -> (2 gamma, t_end / 2) and
    # (gamma / 2, 2 t_end) at a fixed step count leave gamma dt, gamma t_end
    # and sqrt(gamma dt) bit for bit (factors of 2), so the records match
    records = []
    for gamma, t_end in ((1.0, 2.0), (2.0, 1.0), (0.5, 4.0)):
        cfg = (
            "experiment = epr\nseed = 12\ntrajectories = 2000\noutput = epr\nformat = json\n"
            f"[params]\ngamma = {gamma}\nt_end = {t_end}\nsteps = 200\n"
        )
        out = tmp_path / str(gamma)
        assert main(["--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
        records.append(json.loads((out / "epr.json").read_text())["data"])
    assert records[1] == records[0] and records[2] == records[0]


def test_cli_epr_stability_abort_exit_3(tmp_path, capsys):
    # gamma dt = 0.02 for the stepped left pass
    path = _write(tmp_path, BASES["epr"].replace("t_end = 2.0", "t_end = 2.0\nsteps = 100"))
    assert main(["--config", path, "--validate"]) == EXIT_NUMERICAL
    assert main(["--config", path, "--out", str(tmp_path)]) == EXIT_NUMERICAL
    assert "stability" in capsys.readouterr().err
    assert not list(tmp_path.glob("epr*"))


# ------------------------------------------------------ malformed configs

HITTING_CFG = (
    "experiment = qmsl-hitting\nseed = 4\ntrajectories = 4\noutput = hits\n"
    "[params]\nn = 128\ndx = 0.25\nmass = 20.0\ncenters = -3.0, 3.0\n"
    "sigma = 0.45\nalpha = 1.0\nlambda = 4.0\nt_end = 0.2\ndt = 0.02\n"
)
COLORED_CFG = (
    "experiment = colored-damping\noutput = damp\n[params]\nkind = exponential\n"
    "tau = 0.5\ngamma = 1.0\ntimes = 0.5, 1.0, 2.0\n"
)
BASES = {
    "born": BORN_CFG,
    "equivalence": BORN_CFG.replace("csl-born", "csl-equivalence"),
    "hitting": HITTING_CFG,
    "colored": COLORED_CFG,
    "mass": "experiment = mass-profile\noutput = prof\n[params]\nscenario = superposed\n",
    "discrete": (
        "experiment = csl-discrete\ntrajectories = 50\noutput = cells\n[params]\n"
        "lambda_eff = 0.01\ndt = 0.01\nsteps = 40\n"
        "occupations_a = 3, 0\noccupations_b = 0, 3\n"
    ),
    "epr": "experiment = epr\ntrajectories = 600\n[params]\ngamma = 1.0\nt_end = 2.0\n",
    "master": (
        "experiment = qmsl-master\noutput = master\n[params]\nn = 64\ndx = 0.1\n"
        "mass = 1.0\nsigma = 0.5\nalpha = 1.0\nlambda = 1.0\ntimes = 0.0, 1.0\n"
    ),
    "rates": (  # every key at its default
        "experiment = rates-report\noutput = rates\n[params]\nlambda = 1e-16\n"
        "alpha = 1e10\ngamma = 1e-30\ndensity = 1e24\nn_out = 1e13\nn_macro = 1e23\n"
        "mass = 1e-23\nseparation = 4e-5\n"
    ),
}


@pytest.mark.parametrize(
    "base, line, bad",
    [
        ("born", "steps = 600", "steps = abc"),
        ("born", "steps = 600", "steps = -3"),
        ("born", "weights = 0.3, 0.7", "weights = 0.3"),
        ("born", "trajectories = 1500", "trajectories = -5"),
        ("born", "seed = 20", "seed = -1"),
        ("born", "seed = 20", "seed = 100000000000000000000000"),
        ("born", "dt = 0.005", "dt = nan"),
        ("colored", "tau = 0.5", "tau = 0"),
        ("colored", "kind = exponential", "kind = pink"),
        ("colored", "kind = exponential", "kind = custom"),
        ("colored", "kind = exponential", "kind = custom\nkernel = 0, 1.0, 0.1"),
        ("colored", "kind = exponential", "kind = custom\nkernel = 0, 1.0, 0.1, 0.5, 0.3, 0.2"),
        ("colored", "kind = exponential", "kind = custom\nkernel = 0, 1.0, 0.1, inf"),
        ("colored", "kind = exponential", "kind = custom\nkernel = 0, 1.0, 0.1, 0.9, 0.2, 0"),
        ("hitting", "n = 128", "n = 100"),
        ("hitting", "dt = 0.02", "dt = 0.03"),
        ("mass", "scenario = superposed", "scenario = superposed\nn_cells = 0"),
        ("discrete", "occupations_b = 0, 3", "occupations_b = 0, 3, 1"),
        ("discrete", "occupations_a = 3, 0", "occupations_a = 1.5, 0"),
        ("discrete", "steps = 40", "steps = 1"),
        ("epr", "t_end = 2.0", "t_end = 2.0\nsteps = 0"),
        ("epr", "t_end = 2.0", "t_end = 2.0\nsteps = 1e15"),
        ("born", "steps = 600", "steps = 1e300"),
        ("master", "mass = 1.0", "mass = 1e300"),
        ("equivalence", "steps = 600", "steps = 1e12\nresample_every = 1e12"),
        ("master", "mass = 1.0", "mass = 1e-300"),
        ("master", "sigma = 0.5", "sigma = 1e-300"),
        ("rates", "density = 1e24", "density = 1e308"),
        ("born", "output = born", "output ="),
        ("born", "output = born", "output = a, b"),
        ("born", "output = born", "output = /tmp/born"),
        ("born", "output = born", "output = sub/born"),
        ("born", "output = born", "output = ."),
        ("born", "output = born", "output = .."),
        ("born", "output = born", "output = born\0"),
        ("born", "output = born", "output = " + "b" * 250),
    ],
    ids=[
        "steps-text", "steps-negative", "weights-scalar", "trajectories-negative",
        "seed-negative", "seed-past-u64", "dt-nan", "tau-zero", "kind-unknown",
        "kernel-missing", "kernel-odd-count", "kernel-lags-not-uniform", "kernel-inf",
        "kernel-not-psd", "grid-not-power-of-two", "t_end-not-whole-steps",
        "no-cells", "occupation-lengths-differ", "occupation-not-integer",
        "discrete-one-record-point", "epr-no-steps",
        "epr-steps-past-memory", "steps-past-memory", "mass-overflows",
        "equivalence-window-past-memory", "mass-divides-by-zero", "sigma-divides-by-zero",
        "density-overflows", "output-empty", "output-list", "output-absolute",
        "output-in-a-directory", "output-dot", "output-dot-dot", "output-nul",
        "output-too-long",
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")  # the exit code comes alone
def test_cli_malformed_value_exit_2_when_run_and_validated(
    tmp_path, capsys, base, line, bad
):
    text = BASES[base]
    assert line in text
    path = _write(tmp_path, text.replace(line, bad))
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out.exists()
    assert main(["--config", path, "--validate"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_cli_longest_output_name_is_written(tmp_path):
    # the temporary file's name, "<output>.json" + 8 characters + ".tmp", is 255 bytes
    name = "\u00e9" * (OUTPUT_BYTES // 2) + "b" * (OUTPUT_BYTES % 2)
    text = SMALL["decoherence-table"].replace("output = table", f"output = {name}\nformat = json")
    assert main(["--config", _write(tmp_path, text), "--out", str(tmp_path)]) == 0
    assert (tmp_path / f"{name}.json").is_file()
    text = text.replace(f"output = {name}", f"output = {name}b")
    assert main(["--config", _write(tmp_path, text), "--validate"]) == EXIT_CONFIG


@pytest.mark.parametrize("where", ["under-a-file", "name-too-long"])
def test_cli_write_failure_exit_2(tmp_path, capsys, where):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out" if where == "under-a-file" else tmp_path / ("d" * 300)
    path = _write(tmp_path, SMALL["decoherence-table"])
    assert main(["--config", path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out / 'table.csv'}: [Errno")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "file"]
    assert main(["--config", path, "--out", str(out), "--validate"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: cannot write {out}: ")
    # nor a path too long to look up
    assert main(["--config", path, "--out", "d/" * 3000, "--validate"]) == EXIT_CONFIG


@pytest.mark.parametrize("experiment", ["csl-born", "csl-equivalence"])
@pytest.mark.parametrize(
    "weights",
    ["0, 0", "0.3, 0.9", "-0.2, 1.2", "0.2, 0.3, 0.5"],
    ids=["sum-zero", "sum-above-one", "negative", "three"],
)
def test_cli_invalid_weights_exit_2(tmp_path, capsys, experiment, weights):
    text = BORN_CFG.replace("csl-born", experiment).replace("0.3, 0.7", weights)
    path = _write(tmp_path, text)
    assert main(["--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "weights" in capsys.readouterr().err
    assert not list(tmp_path.glob("born.*"))


def test_cli_seed_override_checked(tmp_path, capsys):
    path = _write(tmp_path, BORN_CFG)
    assert main(["--config", path, "--out", str(tmp_path), "--seed", "-1"]) == EXIT_CONFIG
    assert "seed" in capsys.readouterr().err
    assert main(["--config", path, "--validate", "--seed", str(2**64)]) == EXIT_CONFIG


def test_cli_epr_runs_at_the_largest_seed(tmp_path):
    # the linear half keys its streams with seed + 1, which wraps to 0
    cfg = (
        f"experiment = epr\nseed = {2**64 - 1}\ntrajectories = 1500\noutput = epr\n"
        "format = json\n[params]\ngamma = 1.0\nt_end = 2.0\nsteps = 250\n"
    )
    path = _write(tmp_path, cfg)
    assert main(["--config", path, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "epr.json").read_text())
    assert doc["data"]["nonlinear"]["p_minus_given_class_detector_off"] == 0.0


def test_cli_gisin_too_few_trajectories_exit_4(tmp_path, capsys):
    path = _write(
        tmp_path,
        "experiment = gisin\ntrajectories = 1\n[params]\ngamma = 1.0\n"
        "dt = 0.01\nsteps = 10\n",
    )
    assert main(["--config", path, "--out", str(tmp_path)]) == EXIT_STATISTICAL
    assert "statistical precondition" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


def test_cli_hitting_grid_leakage_exit_3(tmp_path, capsys):
    # packets 1.0 from the edge of the [-16, 16) ring leak at the first step
    near_edge = HITTING_CFG.replace("centers = -3.0, 3.0", "centers = -15.0, 15.0")
    path = _write(tmp_path, near_edge)
    assert main(["--config", path, "--out", str(tmp_path)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical-stability abort: boundary amplitude" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("hits.*"))


@pytest.mark.parametrize(
    "text, result",
    [
        (
            "experiment = rates-report\noutput = r\n[params]\nalpha = 7\n",
            "offdiag_lifetime_s",
        ),
        (
            COLORED_CFG.replace("output = damp", "output = r") + "eigenvalues = 7, 1e300\n",
            "rate_from_t0",
        ),
    ],
    ids=["rates-report-infinite-lifetime", "colored-damping-infinite-rate"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")  # the exit code comes alone
def test_cli_nonfinite_result_exit_3(tmp_path, capsys, text, result):
    path = _write(tmp_path, text)
    assert main(["--config", path, "--out", str(tmp_path)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert f"numerical-stability abort: result {result}" in err
    assert "not a finite number" in err
    assert not list(tmp_path.glob("r.*"))


def test_cli_validate_prints_under_resolution_notice(tmp_path, capsys):
    # 1/sqrt(alpha) = 0.1 is below 2*dx = 0.5
    path = _write(tmp_path, HITTING_CFG.replace("alpha = 1.0", "alpha = 100.0"))
    assert main(["--config", path, "--validate"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert any("under-resolved" in line for line in out)
    assert out[-1] == "ok"
    assert not list(tmp_path.glob("*.csv"))


# ---------------------------------------------------------- exit contract

SMALL = {
    "csl-born": BORN_CFG.replace("trajectories = 1500", "trajectories = 20").replace(
        "steps = 600", "steps = 30"
    ),
    # long enough that every trajectory settles and retires
    "csl-born-settled": BORN_CFG.replace("trajectories = 1500", "trajectories = 20").replace(
        "steps = 600", "steps = 1000\nper_trajectory = true"
    ),
    "csl-equivalence": BORN_CFG.replace("csl-born", "csl-equivalence")
    .replace("trajectories = 1500", "trajectories = 20")
    .replace("steps = 600", "steps = 30\nresample_every = 10"),
    "qmsl-hitting": HITTING_CFG.replace("n = 128", "n = 64"),
    "qmsl-hitting-events": HITTING_CFG.replace("n = 128", "n = 64")
    + "record_events = true\n",
    "colored-damping": COLORED_CFG,
    # exp(-|s|/tau)/(2 tau) at tau = 0.5 every 0.05 to 0.95: positive semidefinite
    "colored-damping-custom": COLORED_CFG.replace(
        "kind = exponential\ntau = 0.5",
        "kind = custom\nkernel = "
        + ", ".join(f"{k / 20!r}, {math.exp(-k / 10)!r}" for k in range(20)),
    ),
    "colored-damping-gaussian": COLORED_CFG.replace("kind = exponential", "kind = gaussian"),
    # a table written as JSON
    "colored-damping-json": COLORED_CFG.replace("output = damp", "output = damp\nformat = json"),
    "csl-discrete": BASES["discrete"],
    # nine cells, the first empty in both configurations: the stepper sums
    # nine channels, and one channel is zero on every state
    "csl-discrete-nine-cells": BASES["discrete"]
    .replace("lambda_eff = 0.01", "lambda_eff = 0.2")
    .replace("occupations_a = 3, 0", "occupations_a = 0, 2, 1, 0, 1, 2, 0, 1, 1")
    .replace("occupations_b = 0, 3", "occupations_b = 0, 1, 2, 1, 0, 0, 2, 1, 0"),
    "gisin": "experiment = gisin\ntrajectories = 40\n[params]\ngamma = 1.0\n"
    "dt = 0.01\nsteps = 20\n",
    "mass-profile": BASES["mass"] + "n_particles = 100\nn_cells = 2\ntail_weight = 1e-8\n",
    "mass-profile-tails": BASES["mass"].replace("superposed", "tails")
    + "n_particles = 100\nn_cells = 2\ntail_weight = 1e-8\n",
    "mass-profile-micro": BASES["mass"].replace("superposed", "micro") + "n_cells = 2\n",
    # cell 2 holds no particle: its ratio is blank
    "mass-profile-product": BASES["mass"].replace("superposed", "product")
    + "n_particles = 4\nn_cells = 3\n",
    # enough seeds that the unfuzzed config clears the 500 conditioning
    # samples; a fuzzed one may not (exit 4)
    "epr": "experiment = epr\nseed = 5\ntrajectories = 1200\n[params]\n"
    "gamma = 1.0\nt_end = 0.4\nsteps = 40\n",
    # a wider grid and a shorter time than BASES["master"], where the packet
    # reaches the grid's edge (exit 3)
    "qmsl-master": BASES["master"].replace("dx = 0.1", "dx = 0.2").replace(
        "times = 0.0, 1.0", "times = 0.0, 0.5"
    ),
    "rates-report": BASES["rates"],
    # no [params] keys: every drawn key is an unknown name
    "decoherence-table": "experiment = decoherence-table\noutput = table\n[params]\n",
}

# Magnitudes stay where a valid run is small: a step of 1e-300 is a valid
# config, but one that takes longer than a test should.
FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0]),
    st.floats(0.01, 4.0),
    st.floats(-4.0, -0.01),
)
SCALARS = st.one_of(
    st.integers(-3, 40), FLOATS, st.text(alphabet="abcxyz", min_size=1, max_size=4)
)
VALUES = st.one_of(
    SCALARS, st.lists(st.one_of(st.integers(-3, 40), FLOATS), min_size=2, max_size=3)
)


def _render(value) -> str:
    if isinstance(value, list):
        return ", ".join(repr(v) for v in value)
    return value if isinstance(value, str) else repr(value)


@pytest.mark.parametrize("experiment", sorted(SMALL))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_cli_exit_code_contract_on_arbitrary_params(experiment, data):
    head, _, body = SMALL[experiment].partition("[params]\n")
    params = dict(line.split(" = ", 1) for line in body.splitlines())
    unknown = st.from_regex(r"[a-z]{1,8}", fullmatch=True)
    keys = st.sampled_from(sorted(params)) if params else unknown
    replaced = data.draw(st.dictionaries(keys, VALUES, min_size=1, max_size=3))
    codes = (0, 2, 3, 4) if params else (2,)
    params.update({key: _render(value) for key, value in replaced.items()})
    text = head + "[params]\n" + "".join(f"{k} = {v}\n" for k, v in params.items())
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "exp.cfg"
        path.write_text(text, encoding="utf-8")
        assert main(["--config", str(path), "--out", out]) in codes


# values of the top-level keys, valid and not
TOP_VALUES = st.one_of(
    st.tuples(st.just("seed"), st.one_of(st.integers(-2, 2**64 + 2), FLOATS, st.just("x"))),
    st.tuples(
        st.just("trajectories"),
        st.one_of(st.integers(-2, 50), st.just(10**30), FLOATS, st.just("x")),
    ),
    st.tuples(st.just("format"), st.sampled_from(["csv", "json", "JSON", "xml", ""])),
    st.tuples(st.just("output"), st.text(alphabet="abcxyz019_-", min_size=1, max_size=8)),
)


def _grammar_lines(keys: list[str]):
    """Lines that exercise the grammar: section lines, a key without '=',
    duplicate and unknown keys, and comments."""
    unknown = st.from_regex(r"[a-z]{1,8}", fullmatch=True)
    return st.one_of(
        st.sampled_from(["[params]", "[]", "[ ]", "[params.x]", "[other]", "[params"]),
        st.sampled_from(keys),
        st.builds("{} = 1".format, st.sampled_from(keys)),
        st.builds("{} = 1".format, unknown),
        st.sampled_from(["# a comment", "= 1", "  ", "seed = 1 # trailing"]),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_exit_code_contract_on_arbitrary_grammar(data):
    lines = SMALL[data.draw(st.sampled_from(sorted(SMALL)))].strip().splitlines()
    keys = [line.partition(" = ")[0] for line in lines if " = " in line]
    for key, value in data.draw(st.lists(TOP_VALUES, max_size=3)):
        line = f"{key} = {_render(value)}"
        at = [i for i, old in enumerate(lines) if old.startswith(f"{key} = ")]
        if at:
            lines[at[0]] = line
        else:
            lines.insert(0, line)
    for _ in range(data.draw(st.integers(0, 3))):
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(_grammar_lines(keys)))
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "exp.cfg"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["--config", str(path), "--out", out]) in (0, 2, 3, 4)


# flag values, valid and not; --out relative to a fresh working directory
# that holds a file named "file" ("" is that directory)
FLAGS = st.one_of(
    st.tuples(
        st.just("--seed"),
        st.one_of(st.integers(-2, 2**64 + 2).map(str), st.sampled_from(["x", "1e3", ""])),
    ),
    st.tuples(st.just("--format"), st.sampled_from(["csv", "json", "JSON", "xml", ""])),
    st.tuples(
        st.just("--out"),
        st.sampled_from(["", ".", "new", "new/deeper", "file", "file/out", "d" * 300]),
    ),
)
# odd output names: empty, the longest that fits and one byte more, a NUL,
# a path, non-ASCII
LONGEST = "\u00e9" * (OUTPUT_BYTES // 2) + "b" * (OUTPUT_BYTES % 2)
OUTPUT_NAMES = st.one_of(
    st.sampled_from(["", LONGEST, LONGEST + "b", "a\0b", "/abs", "\u03c8-\u00e9tat"]),
    st.text(alphabet="abz09_-.\u00e9\u03c8", min_size=1, max_size=8),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_exit_code_contract_on_arbitrary_flags_and_output_names(data):
    lines = SMALL[data.draw(st.sampled_from(sorted(SMALL)))].strip().splitlines()
    if data.draw(st.booleans()):
        lines = [line for line in lines if not line.startswith("output = ")]
        lines.insert(0, f"output = {data.draw(OUTPUT_NAMES)}")
    flags = [arg for flag in data.draw(st.lists(FLAGS, max_size=3)) for arg in flag]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as base:
        os.chdir(base)
        try:
            Path("file").write_text("")
            Path("exp.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
            code = main(["--config", "exp.cfg", *flags])
            assert code in (0, 2, 3, 4)
            if code == EXIT_CONFIG:
                assert main(["--config", "exp.cfg", "--validate", *flags]) == EXIT_CONFIG
        finally:
            os.chdir(cwd)


# ------------------------------------------------------------ import budget

PINNED = ("csl-born", "qmsl-hitting", "csl-equivalence", "epr")  # the benchmark's workloads

MODULES_BY_STAGE = """
import json, sys, tempfile
from pathlib import Path

def loaded():
    return sorted(
        m for m in sys.modules
        if m.split(".")[0] in ("collapsim", "scipy", "concurrent") or m == "numpy.random"
    )

import collapsim.cli
stages = [loaded()]
with tempfile.TemporaryDirectory() as out:
    path = Path(out) / "run.cfg"
    path.write_text(sys.argv[1], encoding="utf-8")
    cfg = collapsim.config.load_config(path)
    stages.append(loaded())
    collapsim.cli.run(cfg, out)
    stages.append(loaded())
print(json.dumps(stages))
"""


@cache
def _modules_by_stage(name: str) -> tuple[set[str], set[str], set[str]]:
    """The collapsim, scipy and concurrent modules and numpy.random that a
    fresh interpreter loads in ``import collapsim.cli``, then in
    ``load_config`` of ``SMALL[name]``, then in ``cli.run`` of it."""
    # a fresh interpreter: this test session has every module loaded already
    src = str(Path(collapsim.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", MODULES_BY_STAGE, SMALL[name]],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    imported, configured, ran = (set(stage) for stage in json.loads(proc.stdout))
    return imported, configured - imported, ran - configured


CLI_MODULES = {"collapsim"} | {
    f"collapsim.{m}" for m in ("cli", "config", "errors", "experiments", "params", "units")
}

ENGINES = {
    "csl-born": ("cooking", "diffusion", "noise", "operators"),
    "csl-equivalence": ("cooking", "diffusion", "noise", "operators"),
    "epr": ("cooking", "diffusion", "epr", "noise", "operators"),
    "qmsl-hitting": ("hitting", "noise", "schrodinger", "states"),
}
"""The modules each pinned experiment's config loads beyond the CLI's."""


def test_pinned_experiments_never_import_scipy():
    for name in PINNED:
        imported, configured, ran = _modules_by_stage(name)
        assert imported == CLI_MODULES
        # exactly: csl-born, csl-equivalence and epr never load hitting,
        # schrodinger or states, qmsl-hitting never diffusion, cooking or
        # epr, and none loads scipy or concurrent.futures
        assert configured == {f"collapsim.{m}" for m in ENGINES[name]} | {"numpy.random"}
        assert not ran, (name, ran)
    assert "scipy.special" in _modules_by_stage("colored-damping-gaussian")[2]
    # colored-damping draws no noise: neither noise nor numpy.random loads
    _, configured, ran = _modules_by_stage("colored-damping")
    assert configured == {"collapsim.colored", "collapsim.operators"} and not ran


@pytest.mark.parametrize("name", sorted(SMALL))
def test_a_run_loads_no_module_its_config_did_not(name):
    # each @experiment names every engine module its runner imports
    ran = _modules_by_stage(name)[2]
    assert not {m for m in ran if m.split(".")[0] == "collapsim"}, ran
    # noise loads numpy.random with the config; scipy, loaded on use, loads it too
    assert "numpy.random" not in ran or "scipy" in ran
