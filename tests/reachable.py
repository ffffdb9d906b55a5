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
function, and their count; the count is a report, not a gate.  The last
line on stderr is the function count.
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
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def reached() -> tuple[set, set]:
    """Code objects entered, and (file, line) pairs of collapsim's source
    run, while collapsim is imported and every ``SMALL`` config runs."""
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
        from test_cli import SMALL

        with tempfile.TemporaryDirectory() as out:
            for name, text in sorted(SMALL.items()):
                path = Path(out) / f"{name}.cfg"
                path.write_text(text, encoding="utf-8")
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(["--config", str(path), "--out", out])
                if code != 0:
                    print(f"warning: {name} exited {code}", file=sys.stderr)
    finally:
        sys.settrace(None)
    return seen, lines


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
