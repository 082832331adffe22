"""One fresh-interpreter sample for run.py.

Usage (run from run.py, never imported):

    python3 child.py setup SRC -- <u3plus argv>
        Time ``import u3plus`` plus building what the command builds before
        its checks: the oracle-verified rewriting system and, for ``anick``
        and ``minimal``, the ``AnickComplex`` / ``MinimalResolution``.
        Prints the seconds on stdout.

    python3 child.py trace SRC SPANS METRICS -- <u3plus argv>
        Run ``u3plus.cli.main`` with span tracing, write the spans to SPANS
        (gzip'd TSV) and the derived per-layer metrics to METRICS (JSON).
        Exits with the command's status.
"""

import json
import os
import sys
import time


def setup(argv: list[str]) -> float:
    start = time.perf_counter()
    from u3plus import cli
    from u3plus.anick import AnickComplex
    from u3plus.kostant import Window, big_rewrite_system, small_groebner_basis
    from u3plus.minimal import MinimalResolution

    args = cli.build_parser().parse_args(argv)
    win = Window(args.p, args.j, args.m)
    if args.command == "minimal":
        MinimalResolution(win, args.max_deg)
    elif args.command == "anick":
        AnickComplex(small_groebner_basis(win))
    elif args.command == "gb" and args.big:
        big_rewrite_system(win.field, args.bound or win.p**win.m - 1,
                           truncated=True)
    else:
        small_groebner_basis(win)
    return time.perf_counter() - start


def trace(spans_path: str, metrics_path: str, argv: list[str]) -> int:
    from spans import Tracer
    from u3plus import cli

    tracer = Tracer()
    tracer.install()
    status = cli.main(argv)
    tracer.write(spans_path)
    metrics = tracer.metrics()
    report = argv[argv.index("--json") + 1]
    metrics["cli.json_bytes"] = os.path.getsize(report)
    with open(metrics_path, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh)
    return status


def main() -> int:
    sep = sys.argv.index("--")
    mode, src, *rest = sys.argv[1:sep]
    argv = sys.argv[sep + 1:]
    sys.path.insert(0, src)
    if mode == "setup":
        print(repr(setup(argv)))
        return 0
    if mode == "trace":
        spans_path, metrics_path = rest
        return trace(spans_path, metrics_path, argv)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
