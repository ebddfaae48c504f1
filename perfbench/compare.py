"""Compare two sets of benchmark results, per workload and metric.

Each input is a file of JSON lines: records written by `run.py --out`, or
captured standard output of run.py (the `{"perfbench": ...}` lines).  For
every workload and end-to-end metric it prints the parent's and the
change's medians, their ratio, and a verdict against the bound in
BENCHMARK.json:

  better        the change wins at least 9 in 10 same-seed pairs (every
                parent run, when no seeds match) and the medians differ by
                more than the parent's quartile distance;
  unresolved    otherwise, when either side's quartile distance, as a share
                of the parent's median, exceeds the bound;
  worse         otherwise, when the change's median is worse by more than
                the bound;
  within bound  otherwise.

Per-layer metrics from traced runs are listed with their ratio only: they
have no bound.  Exact counts of runs with the same workload and seed must
repeat within each file (the exit code is 1 when they do not); counts that
differ between the two files are listed as changed.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path: str) -> list[dict]:
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            doc = json.loads(line)
            record = doc.get("perfbench", doc)
            if "workload" in record and "metrics" in record:
                records.append(record)
    return records


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: dict, change: dict, bound: float, better: str) -> str:
    """parent and change map seed -> value (one value per run)."""
    sign = 1 if better == "higher" else -1
    a, b = list(parent.values()), list(change.values())
    ma, mb = statistics.median(a), statistics.median(b)
    seeds = parent.keys() & change.keys()
    if seeds:
        wins = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
        mostly = wins >= 0.9 * len(seeds)
    else:
        mostly = all(sign * (y - x) > 0 for x in a for y in b)
    if mostly and sign * (mb - ma) > _spread(a):
        return "better"
    if ma == 0:
        return "unresolved"
    if max(_spread(a), _spread(b)) / abs(ma) > bound:
        return "unresolved"
    if sign * (ma - mb) / abs(ma) > bound:
        return "worse"
    return "within bound"


def _by_workload(records: list[dict], trace: int) -> dict:
    out = defaultdict(list)
    for r in records:
        if r.get("trace", 0) == trace:
            out[r["workload"]].append(r)
    return out


def _values(records: list[dict], metric: str) -> dict:
    """seed -> value; a seed run twice keeps its median."""
    per_seed = defaultdict(list)
    for r in records:
        if metric in r["metrics"]:
            per_seed[r["seed"]].append(r["metrics"][metric]["value"])
    return {s: statistics.median(v) for s, v in per_seed.items()}


def _first_counts(records: list[dict]) -> dict:
    first = {}
    for r in records:
        first.setdefault((r["workload"], r["seed"]), r["counts"])
    return first


def count_mismatches(records: list[dict], reference: list[dict] | None = None) -> list[str]:
    """Exact counts that differ between runs of one workload and seed.

    Each record is checked against the first record of its workload and
    seed in `reference`, or in `records` itself when no reference is given.
    """
    first = _first_counts(reference if reference is not None else records)
    problems = []
    for r in records:
        base = first.get((r["workload"], r["seed"]))
        if base is None or base is r["counts"]:
            continue
        for name in sorted(base.keys() | r["counts"].keys()):
            if base.get(name) != r["counts"].get(name):
                problems.append(f"{r['workload']} seed {r['seed']}: {name} "
                                f"{base.get(name)!r} != {r['counts'].get(name)!r}")
    return problems


def _table(parent: list[dict], change: list[dict], metrics: list[dict], trace: int) -> None:
    changes = _by_workload(change, trace)
    for name, a_runs in sorted(_by_workload(parent, trace).items()):
        b_runs = changes.get(name, [])
        print(f"\n{name}  (parent {len(a_runs)} runs, change {len(b_runs)} runs)")
        for m in metrics:
            a, b = _values(a_runs, m["name"]), _values(b_runs, m["name"])
            if not a or not b:
                continue
            ma, mb = statistics.median(a.values()), statistics.median(b.values())
            ratio = f"{mb / ma:.4f}" if ma else "n/a"
            tag = verdict(a, b, m["bound"], m["better"]) if trace == 0 else ""
            print(f"  {m['name']:<44} {ma:>14.6g} {mb:>14.6g}  x{ratio:<8} {m['unit']:<12} {tag}")


def main(parent_path: str, change_path: str, spec: dict) -> int:
    parent, change = load(parent_path), load(change_path)
    print(f"parent: {parent_path}\nchange: {change_path}")
    print(f"  {'metric':<44} {'parent p50':>14} {'change p50':>14}  {'ratio':<9} {'unit':<12} verdict")
    _table(parent, change, spec["end_to_end"], trace=0)
    if any(r.get("trace") == 1 for r in parent) and any(r.get("trace") == 1 for r in change):
        print("\nper layer (traced runs; no bound)")
        _table(parent, change, spec["per_layer"], trace=1)
    status = 0
    for label, records in (("parent", parent), ("change", change)):
        problems = count_mismatches(records)
        print(f"\nexact counts on rerun, {label}: " + ("repeat" if not problems else "DIFFER"))
        for p in problems:
            print("  " + p)
        status |= bool(problems)
    moved = count_mismatches(change, reference=parent)
    shared = _first_counts(parent).keys() & _first_counts(change).keys()
    print("\nexact counts, parent vs change: "
          + ("no run shares a workload and seed" if not shared
             else "same" if not moved else "changed"))
    for p in moved:
        print("  " + p)
    return int(status)
