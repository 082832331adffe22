"""The u3plus benchmark.

Runs the real ``u3plus`` command on fixed configurations (the workloads in
``workloads.json``) and reports end-to-end metrics, or, with ``--trace 1``,
per-layer metrics from a separate traced run.  Run it from anywhere; it
finds the package at ``src/`` next to this directory's parent.

    python3 perfbench/run.py --workload minimal-p3m1-d24 --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Load shape: closed loop, one client.  Every sample is a fresh interpreter,
started only after the previous one has exited, with BLAS threads pinned
to 1.  A run first takes SETUP_SAMPLES set-up samples, then repeats the
command while the next repetition still fits in ``--seconds`` (at least
once), and reports medians.  Every command run must exit with the recorded
status and write a ``--json`` report with the recorded sha256; any other
outcome counts as failed.  The workloads are fixed configurations: the seed
only orders the workloads of ``--workload all`` and is recorded.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the metrics
are the ``end_to_end`` metrics of BENCHMARK.json, with ``--trace 1`` its
``per_layer`` metrics.  The full record of a run, with provenance (seed,
git commit, source digest, Python and numpy versions, nproc), is written to
``.perfbench-out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 11
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources or definitions)."""


def load_definitions() -> tuple[dict, dict]:
    """(workloads, BENCHMARK.json); raises BenchmarkError when the program
    or the benchmark definition is missing."""
    if not (SRC / "u3plus" / "cli.py").is_file():
        raise BenchmarkError(f"no u3plus sources under {SRC}")
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
        with open(HERE / "workloads.json", encoding="utf-8") as fh:
            workloads = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read the benchmark definition: {exc}")
    return workloads, bench


def child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return env


def spawn(cmd: list[str], capture: bool = False):
    """Run one child to completion: (exit code, wall s, rusage, stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
    out = proc.stdout.read() if capture else b""
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if capture:
        proc.stdout.close()
    return proc.returncode, wall, usage, out


def sha256_of(path: Path):
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def checked_run(cmd: list[str], report: Path, spec: dict) -> dict:
    """One command run; ok when status and report digest match spec."""
    if report.exists():
        report.unlink()
    status, wall, usage, _ = spawn(cmd)
    digest = sha256_of(report)
    if report.exists():
        report.unlink()
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "status": status,
        "sha256": digest,
        "ok": status == spec["status"] and digest == spec["sha256"],
    }


def command_sample(spec: dict, workdir: Path) -> dict:
    report = workdir / "report.json"
    cmd = [sys.executable, "-m", "u3plus.cli", *spec["argv"],
           "--json", str(report)]
    return checked_run(cmd, report, spec)


def setup_sample(spec: dict):
    """Seconds to import u3plus and build the command's objects, or None
    when the child fails."""
    cmd = [sys.executable, str(HERE / "child.py"), "setup", str(SRC), "--",
           *spec["argv"]]
    status, _, _, out = spawn(cmd, capture=True)
    if status != 0:
        return None
    return float(out.decode().strip().splitlines()[-1])


def traced_sample(spec: dict, workdir: Path, spans_path: Path) -> dict:
    report = workdir / "report.json"
    metrics_path = workdir / "trace-metrics.json"
    cmd = [sys.executable, str(HERE / "child.py"), "trace", str(SRC),
           str(spans_path), str(metrics_path), "--", *spec["argv"],
           "--json", str(report)]
    sample = checked_run(cmd, report, spec)
    try:
        with open(metrics_path, encoding="utf-8") as fh:
            sample["metrics"] = json.load(fh)
    except (OSError, ValueError):
        sample["metrics"] = None
        sample["ok"] = False
    return sample


def measure(name: str, spec: dict, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload."""
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        start = time.perf_counter()
        setups = [setup_sample(spec) for _ in range(SETUP_SAMPLES)]
        samples = []
        while True:
            samples.append(command_sample(spec, workdir))
            elapsed = time.perf_counter() - start
            typical = statistics.median(s["wall_s"] for s in samples)
            if elapsed + typical > seconds:
                break
        traced = None
        if trace:
            traced = traced_sample(spec, workdir,
                                   OUT / f"{name}-spans.tsv.gz")
            # tracing must not change a certificate
            if any(s["sha256"] != traced["sha256"] for s in samples):
                traced["ok"] = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = samples + ([traced] if traced else [])
    attempted = len(runs) + len(setups)
    failed = (sum(1 for s in runs if not s["ok"])
              + sum(1 for s in setups if s is None))
    good_setups = [s for s in setups if s is not None]
    if not good_setups:
        raise BenchmarkError(f"{name}: every set-up sample failed")
    end_to_end = {
        key: statistics.median(s[key] for s in samples)
        for key in ("wall_s", "cpu_s", "peak_rss_mb")
    }
    end_to_end["setup_s"] = statistics.median(good_setups)
    per_layer = None
    if traced is not None and traced["metrics"] is not None:
        per_layer = dict(traced["metrics"])
        per_layer["trace.overhead_s"] = traced["wall_s"] - end_to_end["wall_s"]
    return {
        "workload": name,
        "argv": spec["argv"],
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "samples": samples,
        "setup_samples": setups,
        "traced": None if traced is None else
        {k: v for k, v in traced.items() if k != "metrics"},
    }


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "u3plus").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "seed": seed,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
    }


def select(values: dict, declared: list[dict]) -> dict:
    """The declared metrics with their units; every one must be present."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchmarkError(f"metrics not produced: {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def result_line(record: dict, bench: dict, trace: bool) -> dict:
    if trace:
        if record["per_layer"] is None:
            values = {m["name"]: 0 for m in bench["per_layer"]}
        else:
            values = record["per_layer"]
        metrics = select(values, bench["per_layer"])
    else:
        metrics = select(record["end_to_end"], bench["end_to_end"])
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics}


def save(record: dict, stem: str) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)


def run_one(name: str, spec: dict, bench: dict, args) -> dict:
    record = measure(name, spec, args.seconds, bool(args.trace))
    record["provenance"] = provenance(args.seed)
    save(record, f"{name}-seed{args.seed}-trace{args.trace}")
    line = result_line(record, bench, bool(args.trace))
    for key, metric in line["metrics"].items():
        print(f"{name}  {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"{name}  failed_share = {record['failed_share']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} runs)")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from workloads.json, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of one workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workloads, bench = load_definitions()
        if args.workload == "all":
            names = sorted(workloads)
            random.Random(args.seed).shuffle(names)
        elif args.workload in workloads:
            names = [args.workload]
        else:
            raise BenchmarkError(f"unknown workload {args.workload!r}; "
                                 f"choose from {', '.join(workloads)} or all")
        lines = {name: run_one(name, workloads[name], bench, args)
                 for name in names}
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(lines) == 1:
        (summary,) = lines.values()
    else:
        summary = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{name}.{key}": metric
                        for name, l in lines.items()
                        for key, metric in l["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
