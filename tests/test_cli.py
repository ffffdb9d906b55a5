"""Config grammar, experiment dispatch, exit codes, determinism."""

import json
import pytest

from collapsim.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_STATISTICAL, main
from collapsim.config import parse_config_text
from collapsim.errors import ConfigError
from collapsim.experiments import validate_config

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
        cfg.reject_unknown("weights", "gamma", "dt", "steps")


def test_parse_rejects_malformed_lines():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text("experiment csl-born\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("experiment = csl-born\nexperiment = csl-born\n")


def test_missing_seed_generates_defaulting_notice():
    cfg = parse_config_text("experiment = rates-report\n")
    assert any("seed defaulted" in m for m in cfg.defaults_applied)
    diag = validate_config(cfg)
    assert any("seed defaulted" in m for m in diag.messages)


def test_validate_flags_stability():
    cfg = parse_config_text(
        "experiment = csl-born\n[params]\nweights = 0.5, 0.5\n"
        "gamma = 1.0\ndt = 0.5\nsteps = 10\n"
    )
    diag = validate_config(cfg)
    assert any("stability" in m for m in diag.messages)


# -------------------------------------------------------------- execution


def test_cli_malformed_config_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "experiment = csl-born\nnon sense\n")
    assert main(["--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))  # no partial outputs


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
    assert main(["--config", path, "--out", str(tmp_path / "b"), "--threads", "3"]) == 0
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


def test_csl_born_per_trajectory_export(tmp_path):
    cfg = BORN_CFG.replace("[params]", "[params]\nper_trajectory = true")
    path = _write(tmp_path, cfg)
    assert main(["--config", path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "born.csv").read_text().splitlines()
    assert "outcome_sector" in lines[2] and "final_log_weight" in lines[2]
    assert len(lines) == 3 + 1500  # one row per trajectory


def test_colored_damping_custom_kernel_file(tmp_path):
    import numpy as np

    lags = 0.05 * np.arange(40)
    values = np.exp(-lags / 0.5) / (2 * 0.5)
    kernel_path = tmp_path / "kernel.csv"
    kernel_path.write_text(
        "\n".join(f"{l},{v}" for l, v in zip(lags, values)) + "\n"
    )
    cfg = (
        "experiment = colored-damping\noutput = damp\n[params]\nkind = custom\n"
        f"kernel_file = {kernel_path}\ngamma = 1.0\ntimes = 0.5, 1.0\n"
    )
    path = _write(tmp_path, cfg)
    assert main(["--config", path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "damp.csv").read_text().splitlines()
    assert len(lines) == 5


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
