"""Golden outputs: every experiment's small config (``SMALL`` in
``test_cli.py``) against the table ``golden.json`` committed beside this file.

An output is its result file without the timestamp line.  On the numpy
version and the supported CPU dispatch targets the table was written with,
it must match byte for byte; float64 exp and log take other SIMD paths on
other CPUs, so a matching numpy version alone does not suffice.  Elsewhere
string cells must match exactly and numbers to 1e-9 relative, above an
absolute floor of 1e-300 that only absorbs subnormal noise (no output holds
a cancellation residue near zero).  A change that moves an output on
purpose rewrites the table, and says why, with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import tempfile
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from collapsim.cli import run
from collapsim.config import load_config
from test_cli import SMALL

TABLE = Path(__file__).with_name("golden.json")
REL, FLOOR = 1e-9, 1e-300


def _numerics() -> dict:
    """numpy's version and the dispatch targets this CPU runs."""
    from numpy._core import _multiarray_umath as umath

    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return {"numpy": np.__version__, "cpu_dispatch": sorted(targets)}


@cache
def _output(experiment: str) -> str:
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "exp.cfg"
        path.write_text(SMALL[experiment], encoding="utf-8")
        text = run(load_config(str(path)), out).read_text(encoding="utf-8")
    return "".join(line for line in text.splitlines(True) if "timestamp" not in line)


@cache
def _table() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def test_table_holds_every_small_config():
    assert sorted(_table()["outputs"]) == sorted(SMALL)


@pytest.mark.parametrize("experiment", sorted(SMALL))
def test_output_matches_golden_bytes(experiment):
    here, writer = _numerics(), _table()["writer"]
    if here != writer:
        pytest.skip(f"byte-for-byte needs {writer}, this run has {here}")
    assert _output(experiment) == _table()["outputs"][experiment]


def _close(a, b) -> bool:
    """Numbers within REL relative above FLOOR; anything else equal."""
    numbers = (int, float)
    if isinstance(a, bool) or isinstance(b, bool) or not (
        isinstance(a, numbers) and isinstance(b, numbers)
    ):
        return a == b
    return a == b or abs(a - b) <= REL * max(abs(a), abs(b)) + FLOOR


def _cells(text: str) -> list:
    """A CSV output's cells, numbers as floats; comment lines whole."""

    def cell(s):
        try:
            return float(s)
        except ValueError:
            return s

    return [[line] if line.startswith("#") else [cell(s) for s in line.split(",")]
            for line in text.splitlines()]


def _leaves(value, path=""):
    """(path, leaf) pairs of a parsed JSON document, in key order."""
    if isinstance(value, dict):
        return [leaf for k in sorted(value) for leaf in _leaves(value[k], f"{path}/{k}")]
    if isinstance(value, list):
        return [leaf for i, v in enumerate(value) for leaf in _leaves(v, f"{path}/{i}")]
    return [(path, value)]


@pytest.mark.parametrize("experiment", sorted(SMALL))
def test_output_matches_golden_values(experiment):
    got, want = _output(experiment), _table()["outputs"][experiment]
    if want.startswith("{"):
        leaves, ref = _leaves(json.loads(got)), _leaves(json.loads(want))
        assert [path for path, _ in leaves] == [path for path, _ in ref]
        pairs = [(a, b) for (_, a), (_, b) in zip(leaves, ref)]
    else:
        rows, ref = _cells(got), _cells(want)
        assert [len(row) for row in rows] == [len(row) for row in ref]
        pairs = [(a, b) for row, ref_row in zip(rows, ref) for a, b in zip(row, ref_row)]
    for a, b in pairs:
        assert _close(a, b), (a, b)


if __name__ == "__main__":
    outputs = {name: _output(name) for name in sorted(SMALL)}
    table = {"writer": _numerics(), "outputs": outputs}
    TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {TABLE}")
