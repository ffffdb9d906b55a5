"""collapsim benchmark: pinned CLI workloads, end to end and layer by layer.

    python3 bench/run.py --workload born|hitting|cooked|epr|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Closed loop, one client: each repetition
is a fresh process that imports collapsim from ``src``, loads a config
generated from the seed and calls ``collapsim.cli.run`` with one thread.
Repetitions run one after another for ``--seconds`` (at least two, so
repetitions of one seed are compared byte for byte), each output is
checked, and the last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` traced and
untraced repetitions alternate and the metrics are the per-layer ones.
Times are declared normalized: each repetition's ``cli.run`` time is
divided by the median time of the reference kernel slices timed just
before and just after it (see ``reference.py``); the raw times are
printed and stored beside them.
Everything a run leaves behind goes under ``.bench_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import reference
from workloads import DEFAULT_SEED, WORKLOADS, CheckError, Workload, digest
from worker import EXIT_TRACE_BROKEN

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".bench_runs"

SETUP_SAMPLES = 10
"""setup_s samples per run: each repetition gives one, and set-up-only
processes after the repetitions make up the rest."""
MIN_REPS = 2
REP_KEYS = ("traced", "exit", "wall_s", "ref_s", "slices", "maxrss_mb", "setup_s", "digest", "error")
REF_SLICES = 5
"""Reference kernel slices between two repetitions (0.5 s); each
repetition is normalized by the slices on both sides of it."""
SETUP_REF_SLICES = 2
"""Reference kernel slices after each set-up-only process."""
NPROC = len(os.sched_getaffinity(0))
CPU = max(os.sched_getaffinity(0))
"""The CPU the whole run is pinned to."""
RUN_LIMIT_S = 170.0
"""A single-workload run stops starting repetitions that could end after this."""

# one BLAS thread: the single-threaded baseline, with never more than two
# cores busy at once
WORKER_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    ),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    sha = "not a git checkout"
    if (ROOT / ".git").exists():
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30,
        ).stdout.strip()
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": NPROC,
        "pinned_cpu": CPU,
        "cpu_model": cpu,
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "blas_threads": 1,
        "collapsim_threads": 1,
    }


def worker(args: list[str], timeout: float) -> tuple[int, dict | None, str]:
    """Run one worker process to completion; (exit code, report, stderr)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return -1, None, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, report, proc.stderr.strip()


def repetition(w: Workload, cfg: Path, out: Path, traced: bool, timeout: float) -> dict:
    args = ["--config", str(cfg), "--out", str(out)] + (["--trace"] if traced else [])
    code, report, err = worker(args, timeout)
    if code == EXIT_TRACE_BROKEN:
        raise BenchError(err)
    rep = {"traced": traced, "exit": code}
    if report is None:
        rep["error"] = (err.splitlines() or [f"exit {code}"])[-1]
        return rep
    rep.update(report)
    text = Path(report["output"]).read_text(encoding="utf-8")
    rep["output_bytes"] = len(text.encode())
    rep["digest"] = digest(text)
    try:
        rep["facts"] = w.check(text)
    except (CheckError, KeyError, ValueError, IndexError, TypeError) as exc:
        rep["error"] = f"check failed: {exc}"
    return rep


def tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples above it, if above median."""
    n = len(values)
    if n < 20:
        return None
    k = n - 10
    return {"percentile": round(100.0 * k / n, 1), "value": sorted(values)[k - 1]}


def norm_s(seconds: float, rep: dict) -> float:
    """Seconds a repetition or set-up process measured, at the reference
    kernel's speed."""
    return seconds * reference.NOMINAL_S / rep["ref_s"]


def layer_metrics(w: Workload, rep: dict) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced repetition.  A layer the workload's
    path does not call reads 0."""
    layers, counters = rep["layers"], rep["counters"]

    def get(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    step_calls = get("diffusion.step_batch", "calls")
    hits = rep["facts"].get("hits", 0)
    return {
        "noise.wiener_increment_block.calls": (get("noise.wiener_increment_block", "calls"), "count"),
        "noise.wiener_increment_block.busy_s": (get("noise.wiener_increment_block", "busy_s"), "s"),
        "noise.block_mb_computed": (counters.get("noise.block_bytes", 0) / 1e6, "MB"),
        "diffusion.step_batch.calls": (step_calls, "count"),
        "diffusion.step_batch.busy_s": (get("diffusion.step_batch", "busy_s"), "s"),
        "diffusion.step_batch.us_per_call": (
            1e6 * get("diffusion.step_batch", "busy_s") / step_calls if step_calls else 0.0,
            "us",
        ),
        "diffusion.run_ensemble.self_s": (get("diffusion.run_ensemble", "self_s"), "s"),
        "schrodinger.split_step_batch.calls": (get("schrodinger.split_step_batch", "calls"), "count"),
        "schrodinger.split_step_batch.busy_s": (get("schrodinger.split_step_batch", "busy_s"), "s"),
        "hitting.run_qmsl_ensemble.self_s": (get("hitting.run_qmsl_ensemble", "self_s"), "s"),
        "hitting.hits": (hits, "count"),
        "hitting.traj_steps_per_hit": (w.traj_steps / hits if hits else 0.0, "count"),
        "cooking.systematic_resample.calls": (get("cooking.systematic_resample", "calls"), "count"),
        "cooking.systematic_resample.busy_s": (get("cooking.systematic_resample", "busy_s"), "s"),
        "cooking.ess_frac_min": (counters.get("cooking.ess_frac_min", 0.0), "ratio"),
        "cooking.culled": (counters.get("cooking.culled", 0), "count"),
        "cooking.linear_exact_commuting.calls": (get("cooking.linear_exact_commuting", "calls"), "count"),
        "cooking.linear_exact_commuting.busy_s": (get("cooking.linear_exact_commuting", "busy_s"), "s"),
        "epr.epr_nonlinear_experiment.self_s": (get("epr.epr_nonlinear_experiment", "self_s"), "s"),
        "epr.epr_linear_experiment.self_s": (get("epr.epr_linear_experiment", "self_s"), "s"),
        "experiments.runner.self_s": (get("experiments.runner", "self_s"), "s"),
        "cli.render_write_s": (get("cli.run", "busy_s") - get("experiments.runner", "busy_s"), "s"),
        "cli.output_bytes": (rep["output_bytes"], "B"),
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    began = time.monotonic()
    run_dir = RUNS / f"{w.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg = run_dir / f"{w.name}.cfg"
    cfg.write_text(w.config.format(seed=seed), encoding="utf-8")

    def set_up() -> dict:
        code, report, err = worker(["--config", str(cfg), "--setup-only"], 60.0)
        if report is None:
            raise BenchError(f"cannot set up collapsim from {ROOT / 'src'} (exit {code}):\n{err}")
        return report

    # warm-up: compiles bytecode, fills the page cache, and proves that the
    # checkout holds an importable collapsim
    set_up()

    reps: list[dict] = []
    # in this process, so the kernel leaves the workers' allocator alone
    slices = reference.slices(REF_SLICES)
    start = time.monotonic()
    last = 0.0
    while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
        left = RUN_LIMIT_S - (time.monotonic() - began)
        if reps and left < 1.5 * last:
            break
        t = time.monotonic()
        traced = trace and len(reps) % 2 == 1
        reps.append(repetition(w, cfg, run_dir / f"rep{len(reps)}", traced, left))
        after = reference.slices(REF_SLICES)
        reps[-1]["slices"] = slices + after
        reps[-1]["ref_s"] = statistics.median(sum(x.values()) for x in slices + after)
        slices = after
        last = time.monotonic() - t

    digests = Counter(r["digest"] for r in reps if "digest" in r)
    common = digests.most_common(1)[0][0] if digests else None
    for r in reps:
        if "digest" in r and r["digest"] != common:
            if r["traced"]:
                raise BenchError(
                    f"traced output digest {r['digest']} differs from untraced {common}"
                )
            r.setdefault("error", "output differs from other repetitions of this seed")
    failed = sum("error" in r for r in reps)

    plain = [r for r in reps if not r["traced"] and "wall_s" in r]
    if not plain:
        raise BenchError(f"no repetition of {w.name} ran: {reps[0].get('error')}")
    walls = [r["wall_s"] for r in plain]
    norms = [norm_s(r["wall_s"], r) for r in plain]
    wall = statistics.median(walls)
    norm = statistics.median(norms)
    setup = [r for r in reps if "setup_s" in r]
    while len(setup) < SETUP_SAMPLES and time.monotonic() - began < RUN_LIMIT_S:
        setup.append(set_up())
        after = reference.slices(SETUP_REF_SLICES)
        setup[-1]["slices"] = slices + after
        setup[-1]["ref_s"] = statistics.median(sum(x.values()) for x in slices + after)
        slices = after
    metrics = {
        "wall_norm_s": (norm, "s"),
        "traj_steps_per_norm_s": (w.traj_steps / norm, "1/s"),
        "peak_rss_mb": (statistics.median(r["maxrss_mb"] for r in plain), "MB"),
        "setup_s": (statistics.median(norm_s(r["setup_s"], r) for r in setup), "s"),
    }
    if trace:
        traced = [r for r in reps if r["traced"] and "error" not in r]
        if not traced:
            raise BenchError(f"no traced repetition of {w.name} succeeded")
        for r in traced:
            missing = [n for n in w.must_call if n not in r["layers"]]
            if missing:
                raise BenchError(f"{w.name} no longer calls traced {missing}")
        per_rep = [layer_metrics(w, r) for r in traced]
        metrics = {
            name: (statistics.median(m[name][0] for m in per_rep), unit)
            for name, (_, unit) in per_rep[0].items()
        }
        metrics["setup.import_s"] = (statistics.median(r["import_s"] for r in setup), "s")
        metrics["config.load_config_s"] = (
            statistics.median(r["load_config_s"] for r in setup), "s"
        )
        metrics["trace.overhead_frac"] = (
            statistics.median(norm_s(r["wall_s"], r) for r in traced) / norm - 1.0, "ratio"
        )
    result = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "attempted": len(reps),
        "failed": failed,
        "failed_frac": failed / len(reps),
        "wall_s": wall,
        "traj_steps_per_s": w.traj_steps / wall,
        "wall_s_samples": walls,
        "wall_s_tail": tail(walls),
        "wall_norm_s_samples": norms,
        "wall_norm_s_tail": tail(norms),
        "setup_s_raw": statistics.median(r["setup_s"] for r in setup),
        "setup_s_samples": [r["setup_s"] for r in setup],
        "digests": sorted(digests),
        "errors": [r["error"] for r in reps if "error" in r],
        "repetitions": [
            {k: r[k] for k in REP_KEYS if k in r} for r in reps
        ],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def report(result: dict, prefix: str) -> None:
    for name, m in result["metrics"].items():
        print(f"{prefix}{name} = {m['value']:.6g} {m['unit']}")
    print(f"{prefix}wall_s = {result['wall_s']:.6g} s (raw, not normalized)")
    print(f"{prefix}traj_steps_per_s = {result['traj_steps_per_s']:.6g} 1/s (raw)")
    print(f"{prefix}setup_s_raw = {result['setup_s_raw']:.6g} s")
    print(f"{prefix}failed_frac = {result['failed']}/{result['attempted']} = {result['failed_frac']:.3g} ratio")
    print(f"{prefix}wall_s samples = {len(result['wall_s_samples'])}, tail = {result['wall_s_tail']}")
    print(f"{prefix}wall_norm_s tail = {result['wall_norm_s_tail']}")
    print(f"{prefix}output digest = {', '.join(result['digests'])}")
    for error in result["errors"]:
        print(f"{prefix}error: {error}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None, help="default: the pinned seed")
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed is not None and not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2^63)")
    if not (ROOT / "src" / "collapsim" / "__init__.py").is_file():
        print(f"no collapsim source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # One CPU for this process, the kernel slices and every worker: the
    # CPUs of a shared host run at different speeds that change every few
    # seconds, and the kernel can only stand in for the CPU it ran on.
    os.sched_setaffinity(0, {CPU})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        seed = DEFAULT_SEED if args.seed is None else args.seed
        for name in names:
            results.append(run_workload(WORKLOADS[name], seed, args.seconds, bool(args.trace)))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for r in results:
        report(r, f"{r['workload']} ")
        key = "" if len(results) == 1 else f"{r['workload']}."
        metrics.update({key + k: v for k, v in r["metrics"].items()})
    if len(results) > 1:
        summary = RUNS / f"all-trace{args.trace}.json"
        summary.write_text(json.dumps(results, indent=2) + "\n")
        print(f"summary written to {summary.relative_to(ROOT)}")
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
