"""Command-line front end: generation, verification, and experiment harness.

Subcommands: gen, verify, encode, decode, export-t, simulate, bench; gen,
simulate and bench build their schemes with the library's `codec.generate_scheme`.
Exit codes: 0 success, 2 usage or malformed input, 3 construction
failure, 4 verification failure (also a bundle whose stored certificate
or validation did not pass), 5 work budget exceeded.

Reproducibility contract: everything a subcommand writes is a pure
function of its arguments and seed.  Timings are therefore confined to
the JSONL mirrors and stdout summaries; bundle files and CSV outputs are
byte-identical across repeated runs.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

from .bitmat import (
    DefectiveSet,
    deserialize_vector,
    load_matrix,
    serialize_matrix,
    serialize_vector,
)
from .codec import (
    MATRIX_HEADER_KEYS,
    Scheme,
    adversarial_flip_positions,
    decode_blocks,
    encode,
    generate_scheme,
    load_bundle,
    read_file,
    save_bundle,
)
from .constructions import (
    DEFAULT_ATTEMPTS,
    DEFAULT_C_G,
    DEFAULT_SAMPLED_TRIALS,
    DEFAULT_VALIDATION_SETS,
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
from .semantics import SchemeParams, flip_positions, inject_errors

_CSV_COLUMNS = [
    "trial", "size", "defectives", "flips", "decoded", "exact",
    "accepted_blocks", "false_accept_blocks", "h", "k", "t",
]


def _resolve_e(requested: int | None, certified_e: int) -> int:
    """The flip budget to decode with: `--e` if given, else the certified e.
    Warns on stderr when it exceeds the e the scheme was certified for."""
    if requested is not None and requested < 0:
        raise ParameterError(f"--e must be nonnegative, got {requested}")
    run_e = certified_e if requested is None else requested
    if run_e > certified_e:
        print(f"warning: running {run_e} flips against a bundle certified for "
              f"{certified_e}; results are uncertified", file=sys.stderr)
    return run_e


def _join(indices_one_based: list[int]) -> str:
    return "|".join(str(i) for i in indices_one_based)


def run_trials(scheme: Scheme, trials: int, seed: int, run_e: int,
               adversarial: bool = False, min_defectives: int | None = None) -> tuple[list[dict], dict]:
    """Simulate decode trials; returns (records, summary).

    Each trial draws its defective set size uniformly in
    [min_defectives, d] and the set uniformly at that size, flips exactly
    run_e outcome bits (uniformly, or adversarially against the weakest
    defective), decodes, and compares the decoded set with the truth.
    """
    params = scheme.params
    low = params.u if min_defectives is None else min_defectives
    if not (0 <= low <= params.d):
        raise ParameterError(f"min defectives must be in [0, d], got {low}")
    records = []
    for trial in range(1, trials + 1):
        rng = np.random.default_rng(seed ^ trial)
        size = int(rng.integers(low, params.d + 1))
        truth = DefectiveSet(rng.choice(params.n, size=size, replace=False).tolist())
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
        records.append({
            "trial": trial,
            "size": size,
            "defectives": _join(truth.to_one_based()),
            "flips": _join([i + 1 for i in flips]),
            "decoded": _join(decoded.to_one_based()),
            "exact": int(decoded == truth),
            "accepted_blocks": len(report.accepted),
            "false_accept_blocks": sum(
                any(j not in truth for j in items) for items in report.accepted.values()
            ),
            "h": scheme.h,
            "k": scheme.k,
            "t": scheme.tests,
            "encode_ns": t1 - t0,
            "decode_ns": t3 - t2,
        })
    exact = [r["exact"] for r in records if r["size"] >= params.u]
    empty = [r["decoded"] == "" for r in records if r["size"] < params.u]
    summary = {
        "trials": trials,
        "evaluated": len(exact),
        "exact_rate": sum(exact) / len(exact) if exact else None,
        "mean_decode_ns": sum(r["decode_ns"] for r in records) // max(trials, 1),
        "block_false_accepts": sum(r["false_accept_blocks"] for r in records),
        "subthreshold_trials": len(empty),
        "subthreshold_empty": sum(empty),
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


def _check_out(out: str, makes_dirs: bool) -> None:
    """Fail before any work when nothing can be written at `out`: its parent
    must be a directory or, where the writer makes the missing directories
    (a bundle), the nearest existing part of the path."""
    path = Path(out).absolute()
    parent = path.parent
    if makes_dirs:
        parent = next(p for p in (path, *path.parents) if p.exists())
    if not parent.is_dir():
        raise ParameterError(f"cannot write under --out {out}: {parent} is not a directory")


# --- subcommands -----------------------------------------------------------


def cmd_gen(args) -> int:
    scheme, cert, validation = generate_scheme(_params_from(args), args.seed, args.c_g,
                                               args.max_attempts, args.validation_sets)
    save_bundle(args.out, scheme, args.seed, None, args.c_g, cert.to_json(), validation)
    print(json.dumps({
        "bundle": str(args.out), "h": scheme.h, "k": scheme.k, "t": scheme.tests,
    }, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    matrix, kind, _ = load_matrix(read_file(args.path))
    if args.check == "disjunct":
        if args.d is None:
            raise ParameterError("--d is required for the disjunct check")
        report = verify_disjunct(
            matrix, args.d, mode=args.mode, trials=args.trials,
            rng=np.random.default_rng(args.seed),
        )
    else:
        if args.d is None or args.u is None:
            raise ParameterError("--d and --u are required for the threshold check")
        report = verify_threshold_disjunct(matrix, args.d, args.u, args.e)
    payload = {"path": args.path, "kind": kind, "check": args.check, **report.to_json()}
    if args.check == "threshold":  # a disjunct certificate records its d itself
        payload.update(d=args.d, u=args.u, e=args.e)
    out = Path(args.out) if args.out else Path(args.path + ".cert.json")
    out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(json.dumps(payload, sort_keys=True))
    if not payload["verified"]:
        raise VerificationError(f"{args.path} failed the {args.check} check")
    return 0


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
    scheme, _ = load_bundle(args.bundle)
    if args.x:
        x = deserialize_vector(read_file(args.x))
    elif args.items:
        x = _parse_defectives(args.items, scheme.params.n).to_vector(scheme.params.n)
    else:
        raise ParameterError("need --x or --defectives")
    flat = encode(scheme, x)
    Path(args.out).write_bytes(serialize_vector(flat))
    print(json.dumps({"out": args.out, "tests": len(flat), "positives": flat.weight()},
                     sort_keys=True))
    return 0


def cmd_decode(args) -> int:
    scheme, _ = load_bundle(args.bundle)
    y = deserialize_vector(read_file(args.y))
    run_e = _resolve_e(args.e, scheme.params.e)
    report = decode_blocks(scheme, y)
    decoded = report.multiset.at_least(run_e + 1)
    payload = {
        "defectives": decoded.to_one_based(),
        "e": run_e,
        "status": report.status,
        "candidate_counts": {str(j + 1): c for j, c in report.multiset.counts.items()},
        "accepted_blocks": len(report.accepted),
    }
    if args.out:
        Path(args.out).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_export_t(args) -> int:
    """Write the bundle's dense test matrix T, with G.mat's header values."""
    scheme, manifest = load_bundle(args.bundle)
    header = {key: manifest[key] for key in MATRIX_HEADER_KEYS}
    Path(args.out).write_bytes(serialize_matrix(scheme.t, "final", header))
    print(json.dumps({"out": args.out, "rows": scheme.tests, "cols": scheme.params.n},
                     sort_keys=True))
    return 0


def cmd_simulate(args) -> int:
    if args.trials < 1:
        raise ParameterError(f"need at least one trial, got {args.trials}")
    if args.bundle:
        scheme, _ = load_bundle(args.bundle)
    else:
        scheme, _, _ = generate_scheme(_params_from(args), args.seed, args.c_g,
                                       args.max_attempts, args.validation_sets)
    certified_e = scheme.params.e
    run_e = _resolve_e(args.e, certified_e)
    records, summary = run_trials(
        scheme, args.trials, args.seed, run_e,
        adversarial=args.adversarial, min_defectives=args.min_defectives,
    )
    summary["e"] = run_e
    summary["uncertified"] = run_e > certified_e
    if args.out:
        _write_records(records, summary, args.out)
    print(json.dumps({"summary": summary}, sort_keys=True))
    return 0


def cmd_bench(args) -> int:
    if args.trials < 1:
        raise ParameterError(f"need at least one trial, got {args.trials}")
    grid = list(itertools.product(*map(_int_list, (args.n, args.d, args.u, args.e))))
    if not grid:
        raise ParameterError("empty benchmark grid")
    rows = []
    for n, d, u, e in grid:
        params = SchemeParams(n=n, d=d, u=u, e=e, p=args.p)
        t0 = time.perf_counter_ns()
        scheme, _, _ = generate_scheme(params, args.seed, args.c_g,
                                       validation_sets=args.validation_sets)
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
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ParseError(f"need comma-separated integers, got {text!r}") from exc


def _seed(text: str) -> int:
    """A --seed value: numpy seeds are nonnegative integers."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return seed


def _params_from(args) -> SchemeParams:
    for name in ("n", "d", "u"):
        if getattr(args, name, None) is None:
            raise ParameterError(f"--{name} is required")
    return SchemeParams(n=args.n, d=args.d, u=args.u, e=args.e or 0, p=args.p)


def _add_construction_flags(sub):
    """The flags of generate_scheme that gen, simulate and bench all take."""
    sub.add_argument("--p", type=float, default=0.0)
    sub.add_argument("--seed", type=_seed, default=0)
    sub.add_argument("--c-g", dest="c_g", type=float, default=DEFAULT_C_G)
    sub.add_argument("--validation-sets", type=int, default=DEFAULT_VALIDATION_SETS)


def _add_scheme_flags(sub):
    sub.add_argument("--n", type=int)
    sub.add_argument("--d", type=int)
    sub.add_argument("--u", type=int)
    sub.add_argument("--e", type=int, default=None)
    _add_construction_flags(sub)
    sub.add_argument("--max-attempts", type=int, default=DEFAULT_ATTEMPTS)


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
    verify.add_argument("--trials", type=int, default=DEFAULT_SAMPLED_TRIALS)
    verify.add_argument("--seed", type=_seed, default=0)
    verify.add_argument("--out")
    verify.set_defaults(func=cmd_verify)

    enc = subs.add_parser("encode", help="apply a bundle's tests to an item vector")
    enc.add_argument("--bundle", required=True)
    enc.add_argument("--x", help="item vector file (TGTVEC)")
    enc.add_argument("--defectives", dest="items", help="comma-separated 1-based item indices")
    enc.add_argument("--out", required=True)
    enc.set_defaults(func=cmd_encode)

    dec = subs.add_parser("decode", help="decode an outcome vector")
    dec.add_argument("--bundle", required=True)
    dec.add_argument("--y", required=True, help="outcome vector file (TGTVEC)")
    dec.add_argument("--e", type=int, default=None)
    dec.add_argument("--out")
    dec.set_defaults(func=cmd_decode)

    export_t = subs.add_parser("export-t", help="write a bundle's test matrix T as T.mat")
    export_t.add_argument("--bundle", required=True)
    export_t.add_argument("--out", required=True, help="matrix file to write")
    export_t.set_defaults(func=cmd_export_t)

    sim = subs.add_parser("simulate", help="randomized encode/flip/decode trials")
    _add_scheme_flags(sim)
    sim.add_argument("--trials", type=int, default=100)
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
    _add_construction_flags(bench)
    bench.add_argument("--trials", type=int, default=50)
    bench.add_argument("--out")
    bench.set_defaults(func=cmd_bench)
    for sub in subs.choices.values():  # a retired flag such as --c must not match --c-g
        sub.allow_abbrev = False
    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if getattr(args, "out", None):
            _check_out(args.out, makes_dirs=args.func is cmd_gen)
        return args.func(args)
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 4
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 5
    except (TgtError, OSError) as exc:  # OSError: an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
