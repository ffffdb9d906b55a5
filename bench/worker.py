"""One workload repetition in a fresh process.

    python3 bench/worker.py --config FILE --out DIR [--trace] [--setup-only]

Imports collapsim from the checkout's ``src``, loads the config and calls
``collapsim.cli.run`` with one thread.  Prints one JSON line with the
set-up and run timings, peak RSS and, when traced, the span totals.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

EXIT_NOT_CHECKOUT = 8
EXIT_TRACE_BROKEN = 9

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import collapsim.cli
    import_s = time.perf_counter() - start
    if not Path(collapsim.__file__).resolve().is_relative_to(SRC):
        print(f"collapsim imported from {collapsim.__file__}, not {SRC}", file=sys.stderr)
        return EXIT_NOT_CHECKOUT
    start = time.perf_counter()
    cfg = collapsim.config.load_config(args.config)
    load_config_s = time.perf_counter() - start
    report = {
        "import_s": import_s,
        "load_config_s": load_config_s,
        "setup_s": import_s + load_config_s,
    }
    if args.setup_only:
        print(json.dumps(report))
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        try:
            spans.install(tracer)
        except spans.TraceError as exc:
            print(f"trace broken: {exc}", file=sys.stderr)
            return EXIT_TRACE_BROKEN
    start = time.perf_counter()
    if tracer:
        with tracer.span("cli.run"):
            path = collapsim.cli.run(cfg, args.out, 1)
    else:
        path = collapsim.cli.run(cfg, args.out, 1)
    report["wall_s"] = time.perf_counter() - start
    report["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["output"] = str(Path(path).resolve())
    if tracer:
        report["layers"] = tracer.totals()
        report["counters"] = tracer.counters
        spans_path = Path(args.out) / "spans.json"
        spans_path.write_text(json.dumps(tracer.spans))
        report["spans"] = str(spans_path.resolve())
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
