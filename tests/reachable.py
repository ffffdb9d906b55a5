"""Functions, methods and lines of collapsim that no experiment reaches.

    PYTHONPATH=src python tests/reachable.py

Imports collapsim and runs every ``SMALL`` config of ``tests/test_cli.py``
through ``collapsim.cli.main``, all under ``sys.settrace``, then prints,
one per line, each function or method defined in ``src/collapsim`` whose
code never ran.  Closures and dataclass-generated methods are not
listed.  Exits 1 when the list is not empty, so code that no experiment
runs is either wired to one or deleted; 0 otherwise.

On stderr it also reports the function-body lines that never ran (those
of closures and comprehensions too, not the def or decorator line), per
function, and their count; the count is a report, not a gate.  For this
report it also runs ``rejected_runs``, malformed configs and bad flags
built from ``BASES`` and ``SMALL``, whatever they exit with; the function
list counts the ``SMALL`` configs only.  The last line on stderr is the
function count.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import inspect
import io
import pkgutil
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def rejected_runs(bases: dict, small: dict) -> list:
    """Malformed configs and bad flags, as (config text, flags), each an
    edit of a config of ``tests/test_cli.py``; "{out}" in a flag is the
    output directory, which holds a file "file" and a directory
    "taken.csv".  The configs that pass are small: a run exits fast."""
    born, hitting, colored = bases["born"], bases["hitting"], bases["colored"]
    table = small["decoherence-table"]
    custom = "kind = custom\nkernel = 0, 1.0, 0.1"
    edits = [
        # the grammar, the top-level keys and the parameter table
        (born, "[params]", "[]"), (born, "[params]", "[params]\nnon sense"),
        (born, "[params]", "[params]\n= 3"), (born, "gamma = 1.0", "gamma = 1.0\ngamma = 2"),
        (born, "seed = 20", "colour = red"), (born, "experiment = csl-born", ""),
        (born, "csl-born", "csl-unborn"), (born, "[params]", "[extra]"),
        (born, "format = csv", "format = xml"), (born, "output = born", "output = a/b"),
        (born, "output = born", "output = " + "b" * 250), (born, "seed = 20", "seed = -1"),
        (born, "trajectories = 1500", "trajectories = 0"),
        (born, "gamma = 1.0", "gamma = 1.0\nbeta = 2"), (born, "gamma = 1.0\n", ""),
        (born, "steps = 600", "steps = abc"), (born, "steps = 600", "steps = 2.5"),
        (born, "steps = 600", "steps = 1e300"), (born, "weights = 0.3, 0.7", "weights = 0.3"),
        (born, "weights = 0.3, 0.7", "weights = 0.3, 0.9"), (born, "dt = 0.005", "dt = nan"),
        (born, "dt = 0.005", "dt = 0.5"),  # unstable
        (bases["equivalence"], "steps = 600", "steps = 1e12\nresample_every = 1e12"),
        (colored, "tau = 0.5", "tau = 0"), (colored, "kind = exponential", "kind = pink"),
        (colored, "kind = exponential", "kind = custom"),
        (colored, "kind = exponential", custom),
        (colored, "kind = exponential", custom + ", 0.5, 0.3, 0.2"),
        (colored, "kind = exponential", custom + ", inf"),
        (colored, "kind = exponential", custom + ", 0.9, 0.2, 0"),
        (colored, "times = 0.5", "eigenvalues = 7, 1e300\ntimes = 0.5"),  # an infinite rate
        (colored, "kind = exponential", "kind = custom\nkernel = 0, 1.0, 0, 0.5"),  # lag spacing 0
        (colored, "kind = exponential",  # dt^2 underflows: the overflow-safe sum
         "kind = custom\nkernel = 0, 1.0, 1e-200, 0.5"),
        (colored, "kind = exponential", "kind = white"),
        (hitting, "n = 128", "n = 100"), (hitting, "dt = 0.02", "dt = 0.03"),
        (hitting, "centers = -3.0, 3.0", "centers = -15.0, 15.0"),  # leaks at the edge
        (hitting, "n = 128\ndx = 0.25", "n = 512\ndx = 0.1"),  # fine enough for the band screen
        (bases["mass"], "superposed", "bogus"),
        (bases["mass"], "scenario = superposed", "scenario = superposed\nn_cells = 0"),
        (bases["mass"], "scenario = superposed", "scenario = product\nn_cells = 1"),
        (bases["mass"], "scenario = superposed", "scenario = superposed\nn_cells = 1e12"),
        (bases["mass"], "scenario = superposed", "scenario = product\nn_particles = 1" + "0" * 400),
        (bases["master"], "n = 64", "n = 1048576"), (hitting, "n = 128", "n = 17179869184"),
        (bases["rates"], "experiment = rates-report", "experiment = rates-report\ntrajectories = 5"),
        (bases["discrete"], "occupations_b = 0, 3", "occupations_b = 0, 3, 1"),
        (bases["discrete"], "occupations_b = 0, 3", "occupations_b = 3, 0"),
        (bases["discrete"], "steps = 40", "steps = 1e19"),
        (bases["epr"], "t_end = 2.0", "t_end = 2.0\nsteps = 1e15"),
        (bases["epr"], "", ""),  # as written: too few conditioning samples
        (bases["epr"], "t_end = 2.0", "t_end = 1e-320\nsteps = 100000"),  # dt underflows to 0
        (bases["master"].replace("sigma = 0.5", "sigma = 1.5"), "times = 0.0, 1.0",
         "times = 0.0"),  # the packet wraps the ring at t = 0
        (bases["master"], "mass = 1.0", "mass = 1e-300"),
        (bases["rates"], "alpha = 1e10", "alpha = 7"), (bases["rates"], "alpha = 1e10", "alpha = 1e300"),
        (bases["rates"], "density = 1e24", "density = 1e308"),
        (bases["rates"], "n_macro = 1e23", "n_macro = 0.5"),
        (small["gisin"], "trajectories = 40", "trajectories = 1"),
        (table, "output = table", "output = taken"),  # taken.csv is a directory
    ]
    flags = [["--seed", "x"], ["--seed", "-1"], ["--format", "xml"], ["--bogus"],
             ["--seed", "7", "--format", "json"], ["--config", "{out}/missing.cfg"],
             ["--validate", "--out", "{out}/new/deeper"], ["--validate", "--out", "{out}/file/out"],
             ["--out", "{out}/file/out"], ["--validate", "--out", "d" * 300],
             ["--validate", "--out", "d/" * 3000]]
    return [(text.replace(old, new), []) for text, old, new in edits] + [
        (table, flag) for flag in flags]


def reached() -> tuple[set, set]:
    """Code objects entered, and (file, line) pairs of collapsim's source
    run, while collapsim is imported and every ``SMALL`` config runs; the
    lines also while ``rejected_runs`` run."""
    package = str(Path(importlib.util.find_spec("collapsim").origin).parent)
    seen, lines = set(), set()

    def line(frame, event, _arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, _event, _arg):
        seen.add(frame.f_code)
        return line if str(Path(frame.f_code.co_filename).parent) == package else None

    sys.settrace(call)
    try:
        from collapsim.cli import main
        from test_cli import BASES, SMALL

        with tempfile.TemporaryDirectory() as out:
            for name, text in sorted(SMALL.items()):
                path = Path(out) / f"{name}.cfg"
                path.write_text(text, encoding="utf-8")
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(["--config", str(path), "--out", out])
                if code != 0:
                    print(f"warning: {name} exited {code}", file=sys.stderr)
            gate = set(seen)
            (Path(out) / "file").write_text("")
            (Path(out) / "taken.csv").mkdir()
            path = Path(out) / "rejected.cfg"
            for text, flags in rejected_runs(BASES, SMALL):
                path.write_text(text, encoding="utf-8")
                argv = ["--config", str(path), "--out", out, *(f.format(out=out) for f in flags)]
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    main(argv)
    finally:
        sys.settrace(None)
    return gate, lines


def _functions(obj) -> list:
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    if isinstance(obj, property):
        return [f for f in (obj.fget, obj.fset, obj.fdel) if f is not None]
    return [obj] if inspect.isfunction(obj) else []


def defined() -> dict:
    """code object -> 'module.qualname' for every function and method
    in the package's source files."""
    import collapsim

    package = Path(collapsim.__file__).resolve().parent
    out = {}
    for info in pkgutil.iter_modules(collapsim.__path__):
        module = importlib.import_module(f"collapsim.{info.name}")
        for obj in vars(module).values():
            members = [obj]
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                members = list(vars(obj).values())
            for member in members:
                for fn in _functions(member):
                    if Path(fn.__code__.co_filename).resolve().parent == package:
                        module_name = fn.__module__.removeprefix("collapsim.")
                        out[fn.__code__] = f"{module_name}.{fn.__qualname__}"
    return out


def code_lines(code) -> set:
    """(file, line) pairs of the lines of ``code`` and of the code nested
    in it (closures, comprehensions)."""
    lines = {(code.co_filename, n) for _, _, n in code.co_lines() if n is not None}
    for const in code.co_consts:
        if inspect.iscode(const):
            lines |= code_lines(const)
    return lines


def _spans(numbers: list) -> str:
    """'3, 7-9' for [3, 7, 8, 9]."""
    runs = []
    for n in numbers:
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    seen, ran = reached()
    names = defined()
    unreached = sorted(name for code, name in names.items() if code not in seen)
    for name in unreached:
        print(name)
    total = unrun = 0
    for code, name in sorted(names.items(), key=lambda item: item[1]):
        body = code_lines(code) - {(code.co_filename, code.co_firstlineno)}  # not the def line
        missed = sorted(n for _, n in body - ran)
        total, unrun = total + len(body), unrun + len(missed)
        if missed:
            print(f"{name}: lines {_spans(missed)}", file=sys.stderr)
    print(f"{unrun} of {total} function-body lines unrun", file=sys.stderr)
    print(f"{len(unreached)} of {len(names)} functions and methods unreached", file=sys.stderr)
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
