"""Fast self-test of the benchmark (seconds, not minutes).

    python3 perfbench/selftest.py

Runs the shrunken version of every workload (the ``small`` entry in
workloads.json) through the same code as run.py, untraced and traced, and
checks that:

* every command run passes the exit-status and report-digest gate, and the
  traced report equals the untraced one;
* every end-to-end and per-layer metric of BENCHMARK.json is emitted, with
  its declared unit, and no end-to-end metric is 0;
* count metrics repeat exactly across two traced runs;
* the traced layers are reached (each workload's own layer counts > 0);
* a wrong expected digest is counted as a failure;
* run.py exits non-zero, printing no result, where the u3plus sources are
  missing.

Exits 0 when every check passes.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

# per-layer counts each shrunken workload must drive above zero
REACHED = {
    "minimal-p3m1-d24": ("anick.act_calls", "anick.matrix_calls",
                         "minimal.d2_prime_calls"),
    "anick-p3m2-d20": ("anick.act_calls", "anick.matrix_calls",
                       "anick.rank_calls"),
    "verify-p2m4": ("kostant.evaluate_poly_calls",
                    "rewriting.irreducible_words"),
    "gb-big-p3m2": ("rewriting.pairs_checked",
                    "rewriting.normal_form_calls"),
}
COUNT_UNITS = ("count", "bytes", "ratio")


def main() -> int:
    failures: list[str] = []

    def check(ok: bool, message: str) -> None:
        print(("ok    " if ok else "FAIL  ") + message)
        if not ok:
            failures.append(message)

    workloads, bench = run.load_definitions()
    check(set(workloads) == {w["name"] for w in bench["workloads"]},
          "workloads.json and BENCHMARK.json name the same workloads")
    for name, full in workloads.items():
        spec = full["small"]
        label = f"{name} small {' '.join(spec['argv'])}"
        first = run.measure(f"{name}-small", spec, 0, trace=True)
        second = run.measure(f"{name}-small", spec, 0, trace=True)
        check(first["failed"] == 0 and second["failed"] == 0,
              f"{label}: status and digest gate, traced and untraced")
        for trace, declared in ((False, bench["end_to_end"]),
                                (True, bench["per_layer"])):
            line = run.result_line(first, bench, trace)
            check(all(line["metrics"][m["name"]]["unit"] == m["unit"]
                      for m in declared)
                  and len(line["metrics"]) == len(declared),
                  f"{label}: {len(declared)} "
                  f"{'per-layer' if trace else 'end-to-end'} metrics "
                  f"with units")
        check(all(v > 0 for v in first["end_to_end"].values()),
              f"{label}: no end-to-end metric is 0")
        counts = [m["name"] for m in bench["per_layer"]
                  if m["unit"] in COUNT_UNITS]
        unequal = [k for k in counts
                   if first["per_layer"][k] != second["per_layer"][k]]
        check(not unequal, f"{label}: count metrics repeat exactly "
                           f"{unequal or ''}")
        check(all(first["per_layer"][k] > 0 for k in REACHED[name]),
              f"{label}: reaches {', '.join(REACHED[name])}")

    name, full = next(iter(workloads.items()))
    wrong = dict(full["small"], sha256="0" * 64)
    record = run.measure(f"{name}-small", wrong, 0, trace=False)
    check(record["failed"] == len(record["samples"]),
          "a wrong report digest counts as failed")

    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", name,
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "run.py fails, printing no result, without the sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures
          else "all checks pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
