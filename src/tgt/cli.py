"""Command-line front end: generation, verification, and experiment harness.

Subcommands: gen, verify, encode, decode, simulate, bench.  Exit codes:
0 success, 2 usage or malformed input, 3 construction failure,
4 verification failure, 5 work budget exceeded.

Reproducibility contract: everything a subcommand writes is a pure
function of its arguments and seed.  Timings are therefore confined to
the JSONL mirrors and stdout summaries; bundle files and CSV outputs are
byte-identical across repeated runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bitmat import DefectiveSet, deserialize_vector, load_matrix, serialize_vector
from .codec import (
    Scheme,
    adversarial_flip_positions,
    decode_blocks,
    encode,
    load_bundle,
    save_bundle,
)
from .constructions import (
    construct_disjunct,
    construct_good,
    validate_good,
    verify_disjunct,
    verify_threshold_disjunct,
)
from .errors import (
    BudgetError,
    ConstructionError,
    ParameterError,
    ParseError,
    TgtError,
    VerificationError,
)
from .oracle import cross_check
from .semantics import SchemeParams, flip_positions, inject_errors

_CSV_COLUMNS = [
    "trial", "size", "defectives", "flips", "decoded", "exact",
    "accepted_blocks", "false_accept_blocks", "h", "k", "t",
]


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    d: int
    u: int
    e: int = 0
    p: float = 0.0
    trials: int = 100
    seed: int = 0
    c: float = 3.0
    c_g: float = 2.0


def generate_scheme(config: ExperimentConfig, max_attempts: int = 50,
                    validation_sets: int = 200) -> tuple[Scheme, dict, dict]:
    """Construct and certify both matrices; deterministic in the seed."""
    params = SchemeParams(n=config.n, d=config.d, u=config.u, e=config.e, p=config.p)
    seed_m, seed_g, seed_v = np.random.SeedSequence(config.seed).spawn(3)
    m, cert = construct_disjunct(
        params.n, params.d, np.random.default_rng(seed_m), max_attempts=max_attempts, c=config.c
    )
    g = construct_good(
        params, np.random.default_rng(seed_g), max_attempts=max_attempts,
        validation_sets=validation_sets, c_g=config.c_g,
    )
    validation = validate_good(
        g, params, np.random.default_rng(seed_v), validation_sets, 2 * params.e
    )
    return Scheme(params, g, m), cert.to_json(), validation


def _sample_defectives(rng: np.random.Generator, n: int, size: int) -> DefectiveSet:
    return DefectiveSet(rng.choice(n, size=size, replace=False).tolist())


def _join(indices_one_based: list[int]) -> str:
    return "|".join(str(i) for i in indices_one_based)


def run_trials(scheme: Scheme, trials: int, seed: int, run_e: int,
               adversarial: bool = False, min_defectives: int | None = None) -> tuple[list[dict], dict]:
    """Simulate decode trials; returns (records, summary).

    Each trial draws its defective set size uniformly in
    [min_defectives, d] and the set uniformly at that size, flips exactly
    run_e outcome bits (uniformly, or adversarially against the weakest
    defective), decodes, and cross-checks.
    """
    params = scheme.params
    low = params.u if min_defectives is None else min_defectives
    if not (0 <= low <= params.d):
        raise ParameterError(f"min defectives must be in [0, d], got {low}")
    records = []
    exact_hits = 0
    evaluated = 0
    sub_expected_empty = 0
    sub_trials = 0
    decode_ns_total = 0
    false_accepts_total = 0
    for trial in range(1, trials + 1):
        rng = np.random.default_rng(seed ^ trial)
        size = int(rng.integers(low, params.d + 1))
        truth = _sample_defectives(rng, params.n, size)
        x = truth.to_vector(params.n)
        t0 = time.perf_counter_ns()
        flat = encode(scheme, x)
        t1 = time.perf_counter_ns()
        if run_e and adversarial:
            flips = adversarial_flip_positions(scheme, x, run_e)
            observed = flip_positions(flat, flips)
        else:
            observed, flips = inject_errors(flat, run_e, rng)
        t2 = time.perf_counter_ns()
        report = decode_blocks(scheme, observed)
        decoded = report.multiset.at_least(run_e + 1)
        t3 = time.perf_counter_ns()
        check = cross_check(decoded, truth)
        accepted = sum(1 for tr in report.traces if tr.accepted)
        false_accepts = sum(
            1 for tr in report.traces
            if tr.accepted and any(j not in truth for j in tr.items)
        )
        false_accepts_total += false_accepts
        if size >= params.u:
            evaluated += 1
            exact_hits += int(check.exact)
        else:
            sub_trials += 1
            sub_expected_empty += int(len(decoded) == 0)
        decode_ns_total += t3 - t2
        records.append({
            "trial": trial,
            "size": size,
            "defectives": _join(truth.to_one_based()),
            "flips": _join([i + 1 for i in flips]),
            "decoded": _join(decoded.to_one_based()),
            "exact": int(check.exact),
            "accepted_blocks": accepted,
            "false_accept_blocks": false_accepts,
            "h": scheme.h,
            "k": scheme.k,
            "t": scheme.tests,
            "encode_ns": t1 - t0,
            "decode_ns": t3 - t2,
        })
    summary = {
        "trials": trials,
        "evaluated": evaluated,
        "exact_rate": (exact_hits / evaluated) if evaluated else None,
        "mean_decode_ns": decode_ns_total // max(trials, 1),
        "block_false_accepts": false_accepts_total,
        "subthreshold_trials": sub_trials,
        "subthreshold_empty": sub_expected_empty,
    }
    return records, summary


def _write_records(records: list[dict], summary: dict, out_prefix: str) -> None:
    csv_path = Path(out_prefix + ".csv")
    jsonl_path = Path(out_prefix + ".jsonl")
    with csv_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(records)
    with jsonl_path.open("w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        fh.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")


# --- subcommands -----------------------------------------------------------


def cmd_gen(args) -> int:
    config = _config_from(args)
    scheme, cert, validation = generate_scheme(
        config, max_attempts=args.max_attempts, validation_sets=args.validation_sets
    )
    save_bundle(args.out, scheme, config.seed, config.c, config.c_g, cert, validation)
    print(json.dumps({
        "bundle": str(args.out), "h": scheme.h, "k": scheme.k, "t": scheme.tests,
        "m_verified": cert["verified"], "g_validated": validation["passed"],
    }, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    try:
        matrix, kind, _ = load_matrix(Path(args.path).read_bytes())
    except OSError as exc:
        raise ParseError(f"cannot read {args.path}: {exc}") from exc
    if args.check == "disjunct":
        if args.d is None:
            raise ParameterError("--d is required for the disjunct check")
        cert = verify_disjunct(
            matrix, args.d, mode=args.mode, trials=args.trials,
            rng=np.random.default_rng(args.seed),
        )
        payload = {"path": args.path, "kind": kind, "check": "disjunct", **cert.to_json()}
        verified = cert.verified
    else:
        if args.d is None or args.u is None:
            raise ParameterError("--d and --u are required for the threshold check")
        report = verify_threshold_disjunct(matrix, args.d, args.u, args.e)
        payload = {
            "path": args.path, "kind": kind, "check": "threshold",
            "d": report.d, "u": report.u, "e": report.e,
            "verified": report.passed, "min_count": report.min_count,
            "triples_checked": report.triples_checked,
        }
        if report.witness is not None:
            s, z, j = report.witness
            payload["witness"] = {
                "critical": [i + 1 for i in s],
                "zero": [i + 1 for i in z],
                "column": j + 1,
            }
        verified = report.passed
    out = Path(args.out) if args.out else Path(args.path + ".cert.json")
    out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(json.dumps(payload, sort_keys=True))
    if not verified:
        raise VerificationError(f"{args.path} failed the {args.check} check")
    return 0


def _load_scheme(args) -> tuple[Scheme, dict]:
    return load_bundle(args.bundle)


def _parse_defectives(text: str, n: int) -> DefectiveSet:
    """Comma-separated 1-based item indices, each in 1..n."""
    try:
        items = [int(s) for s in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"--defectives needs comma-separated integers, got {text!r}") from exc
    outside = [i for i in items if not 1 <= i <= n]
    if outside:
        raise ParameterError(f"item indices must be in 1..{n}, got {outside}")
    return DefectiveSet.from_one_based(items)


def cmd_encode(args) -> int:
    scheme, _ = _load_scheme(args)
    if args.x:
        x = deserialize_vector(Path(args.x).read_bytes())
    elif args.defectives:
        x = _parse_defectives(args.defectives, scheme.params.n).to_vector(scheme.params.n)
    else:
        raise ParameterError("need --x or --defectives")
    flat = encode(scheme, x)
    Path(args.out).write_bytes(serialize_vector(flat))
    print(json.dumps({"out": args.out, "tests": len(flat), "positives": flat.weight()},
                     sort_keys=True))
    return 0


def cmd_decode(args) -> int:
    scheme, manifest = _load_scheme(args)
    y = deserialize_vector(Path(args.y).read_bytes())
    run_e = manifest["e"] if args.e is None else args.e
    report = decode_blocks(scheme, y)
    decoded = report.multiset.at_least(run_e + 1)
    payload = {
        "defectives": decoded.to_one_based(),
        "e": run_e,
        "status": report.status,
        "candidate_counts": {str(j + 1): c for j, c in report.multiset.counts.items()},
        "accepted_blocks": sum(1 for tr in report.traces if tr.accepted),
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_simulate(args) -> int:
    if args.trials < 1:
        raise ParameterError(f"need at least one trial, got {args.trials}")
    if args.bundle:
        scheme, manifest = load_bundle(args.bundle)
        certified_e = manifest["e"]
    else:
        config = _config_from(args)
        scheme, _, _ = generate_scheme(
            config, max_attempts=args.max_attempts, validation_sets=args.validation_sets
        )
        certified_e = config.e
    run_e = args.e if args.e is not None else certified_e
    records, summary = run_trials(
        scheme, args.trials, args.seed, run_e,
        adversarial=args.adversarial, min_defectives=args.min_defectives,
    )
    summary["e"] = run_e
    summary["uncertified"] = run_e > certified_e
    if summary["uncertified"]:
        print(f"warning: running {run_e} flips against a bundle certified for "
              f"{certified_e}; results are uncertified", file=sys.stderr)
    if args.out:
        _write_records(records, summary, args.out)
    print(json.dumps({"summary": summary}, sort_keys=True))
    return 0


def cmd_bench(args) -> int:
    grid = []
    for n in _int_list(args.n):
        for d in _int_list(args.d):
            for u in _int_list(args.u):
                for e in _int_list(args.e):
                    grid.append((n, d, u, e))
    if not grid:
        raise ParameterError("empty benchmark grid")
    rows = []
    for n, d, u, e in grid:
        config = ExperimentConfig(n=n, d=d, u=u, e=e, p=args.p, trials=args.trials,
                                  seed=args.seed, c=args.c, c_g=args.c_g)
        t0 = time.perf_counter_ns()
        scheme, _, _ = generate_scheme(config, validation_sets=args.validation_sets)
        gen_ns = time.perf_counter_ns() - t0
        records, summary = run_trials(scheme, args.trials, args.seed, e)
        encode_ns = sum(r["encode_ns"] for r in records) // len(records)

        rows.append({
            "n": n, "d": d, "u": u, "e": e,
            "h": scheme.h, "k": scheme.k, "t": scheme.tests,
            "gen_ns": gen_ns, "encode_ns_mean": encode_ns,
            "decode_ns_mean": summary["mean_decode_ns"],
            "exact_rate": summary["exact_rate"],
        })
    print("note: recovery rates and timings are measured on this machine; "
          "asymptotic test-count formulas are not evaluated by this benchmark")
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    if args.out:
        with Path(args.out).open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    return 0


# --- argument plumbing -----------------------------------------------------


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()] if text else []


def _config_from(args) -> ExperimentConfig:
    for name in ("n", "d", "u"):
        if getattr(args, name, None) is None:
            raise ParameterError(f"--{name} is required")
    return ExperimentConfig(
        n=args.n, d=args.d, u=args.u, e=args.e or 0, p=args.p,
        trials=getattr(args, "trials", 100), seed=args.seed,
        c=args.c, c_g=args.c_g,
    )


def _add_scheme_flags(sub, trials_default: int | None = None):
    sub.add_argument("--n", type=int)
    sub.add_argument("--d", type=int)
    sub.add_argument("--u", type=int)
    sub.add_argument("--e", type=int, default=None)
    sub.add_argument("--p", type=float, default=0.0)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--c", type=float, default=3.0)
    sub.add_argument("--c-g", dest="c_g", type=float, default=2.0)
    sub.add_argument("--max-attempts", type=int, default=50)
    sub.add_argument("--validation-sets", type=int, default=200)
    if trials_default is not None:
        sub.add_argument("--trials", type=int, default=trials_default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tgt",
        description="Threshold group testing: matrix generation, simulation, decoding",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="construct and certify a scheme bundle")
    _add_scheme_flags(gen)
    gen.add_argument("--out", required=True, help="bundle directory")
    gen.set_defaults(func=cmd_gen)

    verify = subs.add_parser("verify", help="check a matrix file against a property")
    verify.add_argument("path")
    verify.add_argument("--check", choices=["disjunct", "threshold"], default="disjunct")
    verify.add_argument("--d", type=int)
    verify.add_argument("--u", type=int)
    verify.add_argument("--e", type=int, default=0)
    verify.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    verify.add_argument("--trials", type=int, default=20000)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out")
    verify.set_defaults(func=cmd_verify)

    enc = subs.add_parser("encode", help="apply a bundle's tests to an item vector")
    enc.add_argument("--bundle", required=True)
    enc.add_argument("--x", help="item vector file (TGTVEC)")
    enc.add_argument("--defectives", help="comma-separated 1-based item indices")
    enc.add_argument("--out", required=True)
    enc.set_defaults(func=cmd_encode)

    dec = subs.add_parser("decode", help="decode an outcome vector")
    dec.add_argument("--bundle", required=True)
    dec.add_argument("--y", required=True, help="outcome vector file (TGTVEC)")
    dec.add_argument("--e", type=int, default=None)
    dec.add_argument("--out")
    dec.set_defaults(func=cmd_decode)

    sim = subs.add_parser("simulate", help="randomized encode/flip/decode trials")
    _add_scheme_flags(sim, trials_default=100)
    sim.add_argument("--bundle", help="existing bundle directory (else generated inline)")
    sim.add_argument("--adversarial", action="store_true",
                     help="place flips against the weakest defective")
    sim.add_argument("--min-defectives", type=int, default=None,
                     help="sample defective sets as small as this (default u)")
    sim.add_argument("--out", help="output prefix for CSV and JSONL records")
    sim.set_defaults(func=cmd_simulate)

    bench = subs.add_parser("bench", help="measure tests/decoding over a parameter grid")
    bench.add_argument("--n", required=True, help="comma-separated item counts")
    bench.add_argument("--d", required=True, help="comma-separated defective bounds")
    bench.add_argument("--u", required=True, help="comma-separated thresholds")
    bench.add_argument("--e", default="0", help="comma-separated error budgets")
    bench.add_argument("--p", type=float, default=0.0)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--c", type=float, default=3.0)
    bench.add_argument("--c-g", dest="c_g", type=float, default=2.0)
    bench.add_argument("--trials", type=int, default=50)
    bench.add_argument("--validation-sets", type=int, default=200)
    bench.add_argument("--out")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 4
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 5
    except TgtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
