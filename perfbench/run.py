"""Benchmark for tgt: set-up, trial throughput, decode latency and bundle I/O.

One workload, in this process:
    python3 perfbench/run.py --workload grid-small --seed 1 --seconds 10 --trace 0
Every workload, each in its own process:
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
Medians and verdicts between two sets of results (files written with --out):
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The line before it is the full record:
host, sample counts, exact counts and the outcome of every check.  Run from
the repository root; the library is imported from ./src.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

# One client in one process, and one BLAS thread: more threads make the
# small products slower and the timings noisier.  Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
SCRATCH = ROOT / ".perfbench"
WORKLOAD_NAMES = ("grid-small", "large-n", "bundle-cli")


def import_library() -> None:
    src = ROOT / "src"
    if not (src / "tgt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tgt sources under {src}")
    sys.path.insert(0, str(src))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads() -> int | None:
    """Ask the loaded OpenBLAS for its thread count; None if it cannot be found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_record(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "seed": seed,
    }


def check_metric_names(metrics: dict, trace: int) -> None:
    spec = json.loads(SPEC.read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    produced = {name: m["unit"] for name, m in metrics.items()}
    if listed != produced:
        sys.exit(f"perfbench: metrics do not match {SPEC.name}: "
                 f"missing {sorted(set(listed) - set(produced))}, "
                 f"unlisted {sorted(set(produced) - set(listed))}, "
                 f"units {sorted(k for k in listed.keys() & produced.keys() if listed[k] != produced[k])}")


def run_one(args) -> int:
    import_library()
    import workloads

    SCRATCH.mkdir(exist_ok=True)
    work = SCRATCH / f"work-{os.getpid()}"
    work.mkdir()
    try:
        record, tracer = workloads.measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check_metric_names(record["metrics"], args.trace)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **record, "host": host_record(args.seed)}
    if tracer is not None:
        spans_path = SCRATCH / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        record["spans_file"] = str(spans_path)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({"perfbench": record}))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints a table, then every result."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, result in results.items():
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<44} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record as one JSON line to this file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two result files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare, spec=json.loads(SPEC.read_text()))
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
