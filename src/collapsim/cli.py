"""Batch experiment runner.

Usage:
    collapsim --config experiment.cfg [--seed U64] [--out DIR]
              [--format csv|json] [--validate]

Exit codes: 0 success, 2 config error, 3 numerical-stability abort,
4 statistical precondition failure.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, load_config
from .errors import (
    ConfigError,
    GridLeakageError,
    StabilityError,
    StatisticalPreconditionError,
)
from .experiments import RUNNERS, TableOutput, plan

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_STATISTICAL = 4


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _format_cell(value) -> str:
    # str of a Python float is its shortest round-trip repr
    return str(value.item() if hasattr(value, "item") else value)


def _require_finite(value, where: str) -> None:
    """Raise ``StabilityError`` naming the first NaN or infinite number in
    a result (a table, or a JSON record of dicts, lists and arrays)."""
    if isinstance(value, TableOutput):
        for row in value.rows:
            for (name, _), cell in zip(value.columns, row):
                _require_finite(cell, name)
    elif isinstance(value, dict):
        for key, item in value.items():
            _require_finite(item, key)
    elif isinstance(value, (list, tuple, np.ndarray)):
        for item in value:
            _require_finite(item, where)
    elif isinstance(value, (int, float, complex, np.number)) and not np.isfinite(value):
        raise StabilityError(f"result {where} is {value}, not a finite number")


def _render_csv(output: TableOutput, cfg: ExperimentConfig) -> str:
    lines = [
        f"# collapsim {__version__} config={cfg.config_hash()} seed={cfg.seed}",
        f"# timestamp: {datetime.now(timezone.utc).isoformat()}",
        ",".join(f"{name} [{unit}]" for name, unit in output.columns),
    ]
    for row in output.rows:
        lines.append(",".join(_format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_default(value):
    if hasattr(value, "item"):
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def _render_json(output, cfg: ExperimentConfig) -> str:
    if isinstance(output, TableOutput):
        data = {
            "columns": [{"name": n, "unit": u} for n, u in output.columns],
            "rows": [list(r) for r in output.rows],
        }
    else:
        data = output
    doc = {
        "provenance": {
            "tool": f"collapsim {__version__}",
            "config_hash": cfg.config_hash(),
            "seed": cfg.seed,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
        "data": data,
    }
    return (
        json.dumps(doc, indent=2, sort_keys=True, default=_json_default, allow_nan=False)
        + "\n"
    )


def run(cfg: ExperimentConfig, out_dir: str | None, *_ignored) -> Path:
    """Execute one experiment and write its artifact file.

    Returns the output path.  Deterministic given (config, seed); the
    output begins with a provenance header and is written atomically.  A
    NaN or infinite result raises ``StabilityError`` and writes nothing.
    Further positional arguments are accepted and ignored: they were the
    thread count of earlier versions, which ``bench/worker.py`` still
    passes as ``run(cfg, out, 1)``.
    """
    output = RUNNERS[cfg.experiment](cfg)
    _require_finite(output, cfg.experiment)
    if isinstance(output, TableOutput) and cfg.fmt == "csv":
        suffix, text = ".csv", _render_csv(output, cfg)
    else:
        suffix, text = ".json", _render_json(output, cfg)
    path = (Path(out_dir) if out_dir else Path(".")) / (cfg.output + suffix)
    _atomic_write(path, text)
    return path


def main(argv: list[str] | None = None) -> int:
    import argparse  # here: a run through ``run`` needs no parser
    parser = argparse.ArgumentParser(
        prog="collapsim", description="collapse-model experiment runner"
    )
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument(
        "--validate", action="store_true", help="build the run's plan, run nothing"
    )
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.format is not None:
            cfg.fmt = args.format
        if args.validate:
            for notice in cfg.defaults_applied + plan(cfg)[0]:
                print(notice)
            print("ok")
            return EXIT_OK
        path = run(cfg, args.out)
        print(path)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StabilityError, GridLeakageError) as exc:
        print(f"numerical-stability abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except StatisticalPreconditionError as exc:
        print(f"statistical precondition failure: {exc}", file=sys.stderr)
        return EXIT_STATISTICAL


if __name__ == "__main__":
    sys.exit(main())
