"""Functions and methods of collapsim that no experiment reaches.

    PYTHONPATH=src python tests/reachable.py

Imports collapsim and runs every ``SMALL`` config of ``tests/test_cli.py``
through ``collapsim.cli.main``, all under ``sys.setprofile``, then prints,
one per line, each function or method defined in ``src/collapsim`` whose
code never ran.  Closures and dataclass-generated methods are not
listed.  Exits 1 when the list is not empty, so code that no experiment
runs is either wired to one or deleted; 0 otherwise.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import pkgutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def reached() -> set:
    """Code objects entered while collapsim is imported and every
    ``SMALL`` config runs."""
    seen = set()

    def profile(frame, event, _arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
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
        sys.setprofile(None)
    return seen


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
                        out[fn.__code__] = f"{info.name}.{fn.__qualname__}"
    return out


def main() -> int:
    seen = reached()
    names = defined()
    unreached = sorted(name for code, name in names.items() if code not in seen)
    for name in unreached:
        print(name)
    print(f"{len(unreached)} of {len(names)} functions and methods unreached", file=sys.stderr)
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
