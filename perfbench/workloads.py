"""Workloads, the closed loop that drives them, and the metrics they yield.

Schemes come from fixed construction seeds, so set-up work and every
scheme-level count are the same on every run.  The workload seed draws only
the inputs: defective sets and flip positions.

A run has a preparation phase and a timed phase.  Preparation builds every
scheme SETUP_REPS times (set-up time is their median), decodes a fixed
prefix of the inputs on the first and last build to take exact counts and
check that they repeat, saves the bundles repeatedly, checks the
bundles read back, and cross-checks the brute-force oracle.  The timed
phase is a closed loop with one client in this process.  A traced run
alternates untraced and traced slices of equal length, so that both halves
see the same drift in host speed; the rate difference between the halves
is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import shutil
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

import spans
from tgt import bitmat, cli, codec, constructions, oracle, semantics
from tgt.bitmat import BitVector, DefectiveSet
from tgt.semantics import SchemeParams

CONSTRUCTION_SEED = 20250810  # the acceptance suite's SEED
VALIDATION_SETS = 200  # the CLI's default, so bundles match `tgt gen`
SETUP_REPS = 3
SAVE_REPS = 7  # saves repeat at least this many times
SAVE_SECONDS = 2.0  # and until their timed total reaches this
SPEC_POOL = 4096  # distinct inputs per run; the loop cycles through them
ORACLE_CHECKS = 8
TRACE_SLICES = 5  # a traced run alternates this many untraced and traced slices
REASONS = ("negative", "overflow", "size", "or-mismatch", "accepted")

# The acceptance suite's grid and its error-tolerant p values.
GRID = ((16, 3, 2), (32, 4, 2), (32, 4, 3), (64, 5, 2), (64, 5, 4))
P_TOLERANT = {
    (16, 3, 2): 0.72, (32, 4, 2): 0.71, (32, 4, 3): 0.53,
    (64, 5, 2): 0.61, (64, 5, 4): 0.31,
}


@dataclass(frozen=True)
class Point:
    n: int
    d: int
    u: int
    e: int
    p: float
    seed: int


@dataclass(frozen=True)
class Workload:
    points: tuple[Point, ...]
    via_cli: bool  # each operation is one in-process `tgt decode` call
    count_ops: int  # inputs decoded by each exact-count pass
    alternate_flips: bool = False  # odd-numbered inputs get adversarial flips
    oracle_n: int | None = None  # cross-check the oracle on the scheme with this n
    load_bundle_check: bool = True  # False where a second dense T would not fit


WORKLOADS = {
    "grid-small": Workload(
        tuple(Point(n, d, u, 1, P_TOLERANT[(n, d, u)], CONSTRUCTION_SEED + 1)
              for n, d, u in GRID),
        via_cli=False, count_ops=20, alternate_flips=True, oracle_n=16,
    ),
    "large-n": Workload(
        (Point(1024, 4, 2, 1, 0.6, CONSTRUCTION_SEED),),
        via_cli=False, count_ops=8, load_bundle_check=False,
    ),
    "bundle-cli": Workload(
        (Point(256, 4, 2, 1, 0.6, CONSTRUCTION_SEED),),
        via_cli=True, count_ops=16,
    ),
}


# --- building schemes --------------------------------------------------------


@dataclass
class Built:
    point: Point
    scheme: codec.Scheme
    cert: dict
    validation: dict


def build(point: Point) -> Built:
    """Construct and certify M and G, then build the scheme (as `tgt gen`)."""
    params = SchemeParams(n=point.n, d=point.d, u=point.u, e=point.e, p=point.p)
    seq_m, seq_g, seq_v = np.random.SeedSequence(point.seed).spawn(3)
    m, cert = constructions.construct_disjunct(point.n, point.d, np.random.default_rng(seq_m))
    g = constructions.construct_good(params, np.random.default_rng(seq_g))
    validation = constructions.validate_good(
        g, params, np.random.default_rng(seq_v), VALIDATION_SETS, 2 * point.e
    )
    return Built(point, codec.build_scheme(g, m, params), cert.to_json(), validation)


def held_bytes(scheme) -> int:
    """Bytes of the arrays the scheme object holds, computed from their sizes."""
    names = getattr(type(scheme), "__slots__", ()) or vars(scheme)
    total = 0
    for name in names:
        value = getattr(scheme, name, None)
        if isinstance(value, bitmat.BitMatrix):
            value = value.to_array()
        if isinstance(value, np.ndarray):
            total += value.nbytes
    return total


def scheme_counts(builts: list[Built]) -> dict:
    schemes = [b.scheme for b in builts]
    return {
        "certified": all(b.cert["verified"] and b.validation["passed"] for b in builts),
        "k": [s.k for s in schemes],
        "h": [s.h for s in schemes],
        "t": [s.tests for s in schemes],
        "tests": sum(s.tests for s in schemes),
        "items": sum(s.params.n for s in schemes),
        "verify_disjunct.pairs": sum(b.cert["trials"] for b in builts),
        "verify_disjunct.method": [b.cert["method"] for b in builts],
        "scheme_bytes": sum(held_bytes(s) for s in schemes),
        # Multiply-adds of one dense encode: two (k x n)(n x h) products plus G x.
        "encode.macs": sum(s.k * s.params.n * s.h * 2 + s.h * s.params.n for s in schemes),
    }


# --- inputs and one decode ---------------------------------------------------


@dataclass(frozen=True)
class Spec:
    scheme: int
    truth: DefectiveSet
    x: BitVector
    adversarial: bool
    flip_seed: int


def make_specs(workload: Workload, seed: int, count: int) -> list[Spec]:
    """Input i uses scheme i mod #schemes and draws |D| uniformly in [u, d]."""
    specs = []
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        index = i % len(workload.points)
        point = workload.points[index]
        size = int(rng.integers(point.u, point.d + 1))
        truth = DefectiveSet(rng.choice(point.n, size=size, replace=False).tolist())
        specs.append(Spec(
            index, truth, truth.to_vector(point.n),
            workload.alternate_flips and i % 2 == 1, int(rng.integers(2**63)),
        ))
    return specs


def observe(scheme, spec: Spec) -> BitVector:
    """Encode the input and flip e outcome bits."""
    e = scheme.params.e
    flat = codec.flatten_outcomes(codec.encode(scheme, spec.x))
    if spec.adversarial:
        return semantics.flip_positions(flat, codec.adversarial_flip_positions(scheme, spec.x, e))
    return semantics.inject_errors(flat, e, np.random.default_rng(spec.flip_seed))[0]


def decode(scheme, y: BitVector):
    report = codec.decode_blocks(scheme, codec.split_outcome(y, scheme.h, scheme.k))
    return report, report.multiset.at_least(scheme.params.e + 1)


@dataclass
class CountPass:
    counts: dict
    decoded: list  # (input, outcome vector, accepted blocks) per decoded input
    attempted: int
    failed: int


def count_pass(workload: Workload, schemes: list, specs: list[Spec]) -> CountPass:
    """Decode the first count_ops inputs and tally the per-block reasons."""
    reasons = Counter({r: 0 for r in REASONS})
    decoded_inputs = []
    failed = 0
    for spec in specs[: workload.count_ops]:
        scheme = schemes[spec.scheme]
        try:
            y = observe(scheme, spec)
            report, decoded = decode(scheme, y)
        except Exception:
            failed += 1
            continue
        failed += decoded != spec.truth
        reasons.update(tr.reason for tr in report.traces)
        decoded_inputs.append((spec, y, sum(tr.accepted for tr in report.traces)))
    counts = {f"decode_blocks.reason.{r}": reasons[r] for r in REASONS}
    counts["decode_blocks.blocks_positive"] = sum(reasons[r] for r in REASONS if r != "negative")
    counts["decode_blocks.blocks_accepted"] = reasons["accepted"]
    return CountPass(counts, decoded_inputs, workload.count_ops, failed)


def oracle_check(workload: Workload, schemes: list, specs: list[Spec]) -> dict:
    """Truth must be among the oracle's candidates; a singleton must be the decoder's set."""
    index = next(i for i, p in enumerate(workload.points) if p.n == workload.oracle_n)
    scheme = schemes[index]
    params = scheme.params
    picked = [s for s in specs if s.scheme == index][:ORACLE_CHECKS]
    agree = candidates = 0
    for spec in picked:
        try:
            y = observe(scheme, spec)
            _, decoded = decode(scheme, y)
            found = oracle.brute_force_decode(scheme.t, y, params.d, params.u, budget=params.e)
        except Exception:
            continue
        candidates += len(found)
        agree += spec.truth in found and (not found.is_singleton() or found.candidates[0] == decoded)
    return {"checked": len(picked), "agree": agree, "candidates": candidates}


def bundles_read_back(workload: Workload, builts: list[Built], dirs: list[Path]) -> bool:
    for b, directory in zip(builts, dirs):
        if workload.load_bundle_check:
            loaded, manifest = codec.load_bundle(directory)
            g, m = loaded.g, loaded.m
            if manifest["t"] != b.scheme.tests:
                return False
        else:
            g = bitmat.load_matrix((directory / "G.mat").read_bytes())[0]
            m = bitmat.load_matrix((directory / "M.mat").read_bytes())[0]
        if g != b.scheme.g or m != b.scheme.m:
            return False
    return True


# --- the closed loop ---------------------------------------------------------


def trial_op(schemes: list, specs: list[Spec]):
    """encode -> flip -> decode -> check; the latency is outcome to decoded set."""
    def op(i: int) -> tuple[bool, int]:
        spec = specs[i % len(specs)]
        scheme = schemes[spec.scheme]
        y = observe(scheme, spec)
        t0 = time.perf_counter_ns()
        _, decoded = decode(scheme, y)
        t1 = time.perf_counter_ns()
        return decoded == spec.truth, t1 - t0
    return op


def cli_op(bundle: Path, files: list):
    """One `tgt decode` call on a noisy outcome file; its JSON is checked."""
    def op(i: int) -> tuple[bool, int]:
        path, truth, accepted = files[i % len(files)]
        out = io.StringIO()
        t0 = time.perf_counter_ns()
        with contextlib.redirect_stdout(out):
            code = cli.main(["decode", "--bundle", str(bundle), "--y", str(path)])
        t1 = time.perf_counter_ns()
        payload = json.loads(out.getvalue())
        ok = code == 0 and payload["defectives"] == truth and payload["accepted_blocks"] == accepted
        return ok, t1 - t0
    return op


@dataclass
class Loop:
    attempted: int
    failed: int
    latencies_ns: list
    elapsed_ns: int
    first_error: str | None

    @property
    def rate(self) -> float:
        return self.attempted / (self.elapsed_ns / 1e9)

    def __add__(self, other: "Loop") -> "Loop":
        return Loop(
            self.attempted + other.attempted, self.failed + other.failed,
            self.latencies_ns + other.latencies_ns, self.elapsed_ns + other.elapsed_ns,
            self.first_error or other.first_error,
        )


def closed_loop(seconds: float, op, tracer: spans.Tracer | None = None, first: int = 0) -> Loop:
    """Run op(first), op(first + 1), ... until `seconds` have passed."""
    latencies = []
    failed = 0
    first_error = None
    i = first
    gc.collect()
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    while time.perf_counter_ns() < deadline:
        try:
            if tracer is None:
                ok, ns = op(i)
            else:
                tracer.trial = i
                with tracer.span("trial"):
                    ok, ns = op(i)
            latencies.append(ns)
        except Exception as exc:
            ok = False
            first_error = first_error or repr(exc)
        failed += not ok
        i += 1
    return Loop(i - first, failed, latencies, time.perf_counter_ns() - start, first_error)


# --- one run -----------------------------------------------------------------


@dataclass
class Prepared:
    setup_ns: list
    save_ns: list
    counts: dict
    reproducible: bool
    bundle_bytes: int
    read_back: bool
    oracle: dict | None
    count_attempted: int
    count_failed: int
    op: object


def _label(tracer, label) -> None:
    if tracer is not None:
        tracer.trial = label


def prepare(workload: Workload, seed: int, work: Path, tracer) -> Prepared:
    specs = make_specs(workload, seed, SPEC_POOL)
    setup_ns, static, dynamic = [], None, None
    reproducible = True
    count_attempted = count_failed = 0
    for rep in range(SETUP_REPS):
        builts = None  # free the previous build first; large-n holds ~0.5 GB
        _label(tracer, f"setup-{rep}")
        t0 = time.perf_counter_ns()
        builts = [build(point) for point in workload.points]
        setup_ns.append(time.perf_counter_ns() - t0)
        counts = scheme_counts(builts)
        reproducible &= static is None or counts == static
        static = counts
        if rep in (0, SETUP_REPS - 1):
            _label(tracer, f"count-{rep}")
            passed = count_pass(workload, [b.scheme for b in builts], specs)
            reproducible &= dynamic is None or passed.counts == dynamic
            dynamic = passed.counts
            count_attempted += passed.attempted
            count_failed += passed.failed
    schemes = [b.scheme for b in builts]

    # Each save writes a fresh directory, as `tgt gen` does; the previous
    # one is deleted untimed.
    save_ns = []
    while len(save_ns) < SAVE_REPS or sum(save_ns) < SAVE_SECONDS * 1e9:
        rep = len(save_ns)
        _label(tracer, f"save-{rep}")
        dirs = [work / f"save-{rep}" / f"bundle-{i}" for i in range(len(builts))]
        t0 = time.perf_counter_ns()
        for b, directory in zip(builts, dirs):
            codec.save_bundle(directory, b.scheme, b.point.seed, 3.0, 2.0, b.cert, b.validation)
        save_ns.append(time.perf_counter_ns() - t0)
        if rep:
            shutil.rmtree(work / f"save-{rep - 1}")
    bundle_bytes = sum(f.stat().st_size for directory in dirs for f in directory.iterdir())
    _label(tracer, "checks")
    try:
        read_back = bundles_read_back(workload, builts, dirs)
    except Exception:
        read_back = False
    found = oracle_check(workload, schemes, specs) if workload.oracle_n else None

    if workload.via_cli:
        files = []
        for i, (spec, y, accepted) in enumerate(passed.decoded):
            path = work / f"y{i}.vec"
            path.write_bytes(bitmat.serialize_vector(y))
            files.append((path, spec.truth.to_one_based(), accepted))
        op = cli_op(dirs[0], files)
    else:
        op = trial_op(schemes, specs)
    # Write back what this run wrote now, so that the kernel does not do it
    # during the timed loop.
    for path in work.rglob("*"):
        if path.is_file():
            with open(path, "rb") as fh:
                os.fsync(fh.fileno())
    return Prepared(
        setup_ns, save_ns, {**static, **dynamic}, reproducible, bundle_bytes, read_back,
        found, count_attempted, count_failed, op,
    )


def _ms_percentile(latencies_ns: list, q: float) -> float:
    return float(np.percentile(np.asarray(latencies_ns, dtype=np.float64), q)) / 1e6


def end_to_end(prep: Prepared, loop: Loop, attempted: int, failed: int) -> dict:
    c = prep.counts
    return {
        "setup_s": (median(prep.setup_ns) / 1e9, "s"),
        "trials_per_s": (loop.rate, "1/s"),
        "decode_ms_p50": (_ms_percentile(loop.latencies_ns, 50), "ms"),
        "decode_ms_p95": (_ms_percentile(loop.latencies_ns, 95), "ms"),
        "bundle_save_s": (median(prep.save_ns) / 1e9, "s"),
        "exact_rate": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "tests_per_item": (c["tests"] / c["items"], "tests/item"),
        "bundle_mb": (prep.bundle_bytes / 2**20, "MiB"),
    }


def per_layer(tracer: spans.Tracer, prep: Prepared, plain: Loop, traced: Loop) -> dict:
    """Per-layer metrics; a layer the workload never calls reads 0."""
    self_ns = tracer.self_ns()

    def per_rep_s(name: str, phase: str) -> float:
        sums = defaultdict(int)
        for s in tracer.spans:
            if s.name == name and str(s.trial).startswith(phase):
                sums[s.trial] += s.duration
        return median(sums.values()) / 1e9 if sums else 0.0

    def per_call(name: str, kind: str | None = None, own: bool = False) -> float:
        values = [self_ns[i] if own else s.duration for i, s in enumerate(tracer.spans)
                  if s.name == name and (kind is None or s.attrs.get("kind") == kind)]
        return median(values) / 1e9 if values else 0.0

    c = prep.counts
    positive = c["decode_blocks.blocks_positive"]
    found = prep.oracle or {"checked": 0, "agree": 0, "candidates": 0}
    return {
        "constructions.construct_disjunct.s": (per_rep_s("constructions.construct_disjunct", "setup-"), "s"),
        "constructions.verify_disjunct.s": (per_rep_s("constructions.verify_disjunct", "setup-"), "s"),
        "constructions.verify_disjunct.calls": (
            sum(s.name == "constructions.verify_disjunct" and s.trial == "setup-0"
                for s in tracer.spans), "count"),
        "constructions.verify_disjunct.pairs": (c["verify_disjunct.pairs"], "count"),
        "constructions.construct_good.s": (per_rep_s("constructions.construct_good", "setup-"), "s"),
        "constructions.validate_good.s": (per_rep_s("constructions.validate_good", "setup-"), "s"),
        "codec.build_scheme.s": (per_rep_s("codec.build_scheme", "setup-"), "s"),
        "codec.scheme_mb": (c["scheme_bytes"] / 2**20, "MiB-computed"),
        "codec.encode.ms_p50": (per_call("codec.encode") * 1e3, "ms"),
        "codec.encode.macs": (c["encode.macs"], "MAC-computed"),
        "codec.flatten_outcomes.ms_p50": (per_call("codec.flatten_outcomes") * 1e3, "ms"),
        "codec.split_outcome.ms_p50": (per_call("codec.split_outcome") * 1e3, "ms"),
        "codec.decode_blocks.ms_p50": (per_call("codec.decode_blocks") * 1e3, "ms"),
        "codec.decode_blocks.blocks_positive": (positive, "count"),
        "codec.decode_blocks.blocks_accepted": (c["decode_blocks.blocks_accepted"], "count"),
        "codec.decode_blocks.accept_ratio": (
            c["decode_blocks.blocks_accepted"] / positive if positive else 0.0, "ratio"),
        **{f"codec.decode_blocks.reason.{r}": (c[f"decode_blocks.reason.{r}"], "count")
           for r in REASONS},
        "semantics.inject_errors.ms_p50": (per_call("semantics.inject_errors") * 1e3, "ms"),
        "codec.adversarial_flip_positions.ms_p50": (
            per_call("codec.adversarial_flip_positions") * 1e3, "ms"),
        "codec.save_bundle.s": (per_rep_s("codec.save_bundle", "save-"), "s"),
        "bitmat.serialize_matrix.s": (per_rep_s("bitmat.serialize_matrix", "save-"), "s"),
        "bitmat.serialize_matrix.bytes": (
            sum(s.attrs["bytes"] for s in tracer.spans
                if s.name == "bitmat.serialize_matrix" and s.trial == "save-0"), "B"),
        "codec.load_bundle.s": (per_call("codec.load_bundle"), "s"),
        "bitmat.load_matrix.G.s": (per_call("bitmat.load_matrix", "good"), "s"),
        "bitmat.load_matrix.M.s": (per_call("bitmat.load_matrix", "disjunct"), "s"),
        "bitmat.load_matrix.T.s": (per_call("bitmat.load_matrix", "final"), "s"),
        "cli.decode.ms_p50": (per_call("cli.main") * 1e3, "ms"),
        "cli.decode.self_ms_p50": (per_call("cli.main", own=True) * 1e3, "ms"),
        "oracle.brute_force_decode.ms_p50": (per_call("oracle.brute_force_decode") * 1e3, "ms"),
        "oracle.brute_force_decode.candidates": (found["candidates"], "count"),
        "oracle.agree": (found["agree"], "count"),
        "oracle.checked": (found["checked"], "count"),
        "trace.overhead_pct": ((plain.rate - traced.rate) / plain.rate * 100, "%"),
    }


def layer_table(tracer: spans.Tracer) -> dict:
    """Calls, total and self milliseconds per span name."""
    table = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
    for span, own in zip(tracer.spans, tracer.self_ns()):
        row = table[span.name]
        row["calls"] += 1
        row["total_ms"] += span.duration / 1e6
        row["self_ms"] += own / 1e6
    return dict(sorted(table.items()))


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path):
    """Run one workload; returns (record, tracer or None)."""
    workload = WORKLOADS[name]
    tracer = spans.Tracer() if trace else None
    with spans.installed(tracer) if trace else contextlib.nullcontext():
        prep = prepare(workload, seed, work, tracer)
    if trace:
        part = seconds / (2 * TRACE_SLICES)
        plain = loop = Loop(0, 0, [], 0, None)
        for _ in range(TRACE_SLICES):
            plain += closed_loop(part, prep.op, first=plain.attempted + loop.attempted)
            with spans.installed(tracer):
                loop += closed_loop(part, prep.op, tracer, first=plain.attempted + loop.attempted)
    else:
        loop = closed_loop(seconds, prep.op)
    if not loop.latencies_ns:
        raise RuntimeError(f"no operation completed: {loop.first_error}")

    checks = {
        "certified": prep.counts["certified"],
        "counts_repeat": prep.reproducible,
        "bundles_read_back": prep.read_back,
    }
    if prep.oracle is not None:
        checks["oracle_agrees"] = prep.oracle["agree"] == prep.oracle["checked"]
    attempted = loop.attempted + prep.count_attempted
    failed = loop.failed + prep.count_failed
    if trace:
        metrics = per_layer(tracer, prep, plain, loop)
    else:
        metrics = end_to_end(prep, loop, attempted, failed)
    record = {
        "correct": failed == 0 and all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "checks": checks,
        "samples": {
            "decode_ms": len(loop.latencies_ns), "setup_reps": SETUP_REPS, "save_reps": len(prep.save_ns),
            "loop_ops": loop.attempted, "count_ops": prep.count_attempted,
        },
        "counts": prep.counts,
        "first_error": loop.first_error,
    }
    if trace:
        record["layers"] = layer_table(tracer)
        record["samples"]["untraced_ops"] = plain.attempted
    return record, tracer
