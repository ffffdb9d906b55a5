"""The four pinned CLI workloads: config text, trajectory-step counts,
the traced functions each path must call, and the output checkers.

Every checker tolerance is about 5 sigma, so a correct program fails a
check with probability below about 1e-5 on a random seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 20

Z = 5.0
"""Checker width in standard errors (two-sided tail ~6e-7 per check)."""

# Kolmogorov-Smirnov coefficient c(a) = sqrt(-ln(a/2)/2): 1.358 at a = 0.05,
# 2.470 at a = 1e-5.  The program reports its critical value at 5 %; the
# checker scales it to the 1e-5 level so it keeps the same false-alarm rate
# as the other checks.
KS_SCALE_1E5 = math.sqrt(-math.log(0.5e-5) / 2.0) / 1.358


class CheckError(Exception):
    """The program's output failed a correctness check."""


@dataclass(frozen=True)
class Workload:
    name: str
    config: str            # config text; {seed} is filled in per run
    traj_steps: int        # trajectory-steps per repetition, fixed by the config
    must_call: tuple[str, ...]   # traced functions this path has to reach
    check: Callable[[str], dict]  # output text -> facts; raises CheckError


def digest(text: str) -> str:
    """sha256 of an output file with its timestamp line left out."""
    kept = "".join(
        line for line in text.splitlines(keepends=True) if "timestamp" not in line
    )
    return hashlib.sha256(kept.encode()).hexdigest()


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _csv_rows(text: str) -> list[list[str]]:
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(body[1:]))))


def _within(value: float, expected: float, stderr: float, what: str) -> None:
    _require(
        abs(value - expected) <= Z * stderr,
        f"{what} = {value!r}, expected {expected} +- {Z} x {stderr:.3g}",
    )


# ---------------------------------------------------------------- born

BORN_WEIGHTS = (0.3, 0.7)
BORN_TRAJ = 10_000


def check_born(text: str) -> dict:
    rows = _csv_rows(text)
    _require(len(rows) == 2, f"expected 2 sector rows, got {len(rows)}")
    for sector, (row, w) in enumerate(zip(rows, BORN_WEIGHTS)):
        _require(int(row[0]) == sector, f"row {sector} names sector {row[0]}")
        stderr = math.sqrt(w * (1.0 - w) / BORN_TRAJ)
        _within(float(row[1]), w, stderr, f"sector {sector} frequency")
    return {}


# ------------------------------------------------------------- hitting

HIT_TRAJ = 256
"""One chunk of run_qmsl_ensemble (256): the same (256, 2048) FFT batch as
512 trajectories, in half the time, so a run holds twice the repetitions."""
HIT_STEPS = 200
HIT_LAMBDA = 4.0
HIT_T_END = 1.0
ROUNDING = 1e-12
"""right_mass is a float sum of |psi|^2 dx; a fully localized state can
read 1 + 2e-16."""


def check_hitting(text: str) -> dict:
    rows = _csv_rows(text)
    _require(len(rows) == HIT_TRAJ, f"expected {HIT_TRAJ} rows, got {len(rows)}")
    hits = 0
    right = 0
    for j, row in enumerate(rows):
        _require(int(row[0]) == j, f"row {j} names trajectory {row[0]}")
        mass = float(row[2])
        _require(-ROUNDING <= mass <= 1.0 + ROUNDING, f"trajectory {j}: right_mass {mass!r}")
        _require(int(row[3]) == int(mass > 0.5), f"trajectory {j}: outcome mismatch")
        hits += int(row[1])
        right += int(row[3])
    mean_hits = HIT_LAMBDA * HIT_T_END * HIT_TRAJ
    _within(hits, mean_hits, math.sqrt(mean_hits), "total hits")
    _within(right / HIT_TRAJ, 0.5, 0.5 / math.sqrt(HIT_TRAJ), "right-outcome fraction")
    return {"hits": hits}


# -------------------------------------------------------------- cooked

COOKED_TRAJ = 10_000
COOKED_SPREAD = 2.5
"""Spread of f_lin - f_non in units of the naive combined binomial stderr
sqrt(2 p (1-p) / n).  Over 90 seeds at this config it measured sd 2.06 and
mean -0.62: the resampled linear estimator has a smaller effective sample
size than n.  2.5 leaves room for that offset and for the sd's own error."""


def check_cooked(text: str) -> dict:
    data = json.loads(text)["data"]
    f_lin = data["linear_cooked_frequency"][0]
    f_non = data["nonlinear_frequency"][0]
    tvd = data["total_variation_distance"]
    _require(data["trajectories"] == COOKED_TRAJ, "wrong trajectory count")
    _require(abs(tvd - abs(f_lin - f_non)) <= 1e-12, "tvd disagrees with frequencies")
    w = BORN_WEIGHTS[0]
    combined = COOKED_SPREAD * math.sqrt(2.0 * w * (1.0 - w) / COOKED_TRAJ)
    _within(tvd, 0.0, combined, "total variation distance")
    return {}


# ----------------------------------------------------------------- epr


def check_epr(text: str) -> dict:
    data = json.loads(text)["data"]
    nonlinear, linear = data["nonlinear"], data["linear"]
    _require(
        nonlinear["p_minus_given_class_detector_off"] == 0.0,
        "detector-off conditional probability is not 0",
    )
    n_cond = nonlinear["conditioning_samples"]
    _require(n_cond >= 500, f"only {n_cond} conditioning samples")
    _within(
        nonlinear["p_minus_given_class_detector_on"], 0.5, 0.5 / math.sqrt(n_cond),
        "detector-on conditional probability",
    )
    limit = linear["ks_critical_5pct"] * KS_SCALE_1E5
    _require(
        linear["ks_distance"] < limit,
        f"ks_distance {linear['ks_distance']!r} >= 1e-5-level critical {limit:.4g}",
    )
    return {}


# ------------------------------------------------------------ registry

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "born",
            f"""experiment = csl-born
seed = {{seed}}
trajectories = {BORN_TRAJ}
output = born
format = csv

[params]
weights = 0.3, 0.7
gamma = 1.0
dt = 0.005
steps = 2000
""",
            BORN_TRAJ * 2000,
            ("noise.wiener_increment_block", "diffusion.step_batch", "diffusion.run_ensemble"),
            check_born,
        ),
        Workload(
            "hitting",
            f"""experiment = qmsl-hitting
seed = {{seed}}
trajectories = {HIT_TRAJ}
output = hitting
format = csv

[params]
n = 2048
dx = 0.05
mass = 20
centers = -3, 3
sigma = 0.45
alpha = 1
lambda = {HIT_LAMBDA}
t_end = {HIT_T_END}
dt = 0.005
""",
            HIT_TRAJ * HIT_STEPS,
            ("schrodinger.split_step_batch", "hitting.run_qmsl_ensemble"),
            check_hitting,
        ),
        Workload(
            "cooked",
            f"""experiment = csl-equivalence
seed = {{seed}}
trajectories = {COOKED_TRAJ}
output = cooked
format = json

[params]
weights = 0.3, 0.7
gamma = 1.0
dt = 0.002
steps = 750
resample_every = 100
""",
            2 * COOKED_TRAJ * 750,
            (
                "noise.wiener_increment_block", "diffusion.step_batch",
                "diffusion.run_ensemble", "cooking.systematic_resample",
            ),
            check_cooked,
        ),
        Workload(
            "epr",
            """experiment = epr
seed = {seed}
trajectories = 8000
output = epr
format = json

[params]
gamma = 1.0
t_end = 2.0
steps = 400
""",
            3 * 8000 * 400,
            (
                "diffusion.step_batch", "cooking.linear_exact_commuting",
                "epr.epr_nonlinear_experiment", "epr.epr_linear_experiment",
            ),
            check_epr,
        ),
    )
}
