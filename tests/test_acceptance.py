"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Grid points share module-scoped fixtures so the
recovery criteria reuse the same certified schemes.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from tgt import (
    BitMatrix,
    BitVector,
    DefectiveSet,
    adversarial_flip_positions,
    apply_threshold,
    brute_force_decode,
    construct_disjunct,
    decode_blocks,
    encode,
    flip_positions,
    generate_scheme,
    inject_errors,
    is_good_for,
    verify_disjunct,
    verify_threshold_disjunct,
)
from tgt.cli import main
from tgt.semantics import SchemeParams

SEED = 20250810
GRID = [(16, 3, 2), (32, 4, 2), (32, 4, 3), (64, 5, 2), (64, 5, 4)]

# p sizes the locator matrix (h grows as 1/(1-p)^2).  Values are chosen so
# the expected per-defective qualifying-row count is ~20 for the
# error-free grid and ~30 for the error-tolerant grid, making the
# per-trial goodness failure probability negligible against 500 trials.
P_ERROR_FREE = {
    (16, 3, 2): 0.65,
    (32, 4, 2): 0.65,
    (32, 4, 3): 0.45,
    (64, 5, 2): 0.55,
    (64, 5, 4): 0.30,
}
P_TOLERANT = {
    (16, 3, 2): 0.72,
    (32, 4, 2): 0.71,
    (32, 4, 3): 0.53,
    (64, 5, 2): 0.61,
    (64, 5, 4): 0.31,
}
TRIALS_PER_POINT = 500


def _sample(rng, n, low, high):
    size = int(rng.integers(low, high + 1))
    return DefectiveSet(rng.choice(n, size=size, replace=False).tolist())


@pytest.fixture(scope="module")
def error_free_runs():
    t0 = time.perf_counter()
    stats = {"trials": 0, "exact": 0, "schemes": [], "multiset_ok": True}
    for point in GRID:
        n, d, u = point
        scheme, cert, _ = generate_scheme(SchemeParams(n, d, u, 0, P_ERROR_FREE[point]), SEED)
        assert cert.verified
        stats["schemes"].append(scheme)
        for trial in range(TRIALS_PER_POINT):
            rng = np.random.default_rng(SEED ^ (hash(point) & 0xFFFF) ^ (trial + 1))
            truth = _sample(rng, n, u, d)
            report = decode_blocks(scheme, encode(scheme, truth.to_vector(n)))
            stats["trials"] += 1
            stats["exact"] += int(report.multiset.at_least(1) == truth)
            if sum(report.multiset.counts.values()) > u * scheme.h:
                stats["multiset_ok"] = False
    stats["elapsed"] = time.perf_counter() - t0
    return stats


@pytest.fixture(scope="module")
def tolerant_runs():
    t0 = time.perf_counter()
    stats = {
        "trials": 0, "exact": 0, "schemes": [],
        "multiset_ok": True, "clean_counts_ok": True,
    }
    for point in GRID:
        n, d, u = point
        for e in (1, 2):
            scheme, cert, _ = generate_scheme(SchemeParams(n, d, u, e, P_TOLERANT[point]), SEED + e)
            assert cert.verified
            stats["schemes"].append(scheme)
            for trial in range(TRIALS_PER_POINT):
                rng = np.random.default_rng(SEED ^ (hash((point, e)) & 0xFFFF) ^ (trial + 1))
                truth = _sample(rng, n, u, d)
                x = truth.to_vector(n)
                clean = encode(scheme, x)

                clean_report = decode_blocks(scheme, clean)
                for j in truth:
                    if clean_report.multiset.counts.get(j, 0) <= 2 * e:
                        stats["clean_counts_ok"] = False
                if sum(clean_report.multiset.counts.values()) > u * scheme.h:
                    stats["multiset_ok"] = False

                if trial % 2 == 1:
                    noisy = flip_positions(clean, adversarial_flip_positions(scheme, x, e))
                else:
                    noisy, flips = inject_errors(clean, e, rng)
                    assert len(flips) == e
                report = decode_blocks(scheme, noisy)
                decoded = report.multiset.at_least(e + 1)
                if sum(report.multiset.counts.values()) > u * scheme.h:
                    stats["multiset_ok"] = False
                stats["trials"] += 1
                stats["exact"] += int(decoded == truth)
    stats["elapsed"] = time.perf_counter() - t0
    return stats


@pytest.fixture(scope="module")
def cli_bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    args = ["gen", "--n", "16", "--d", "3", "--u", "2", "--e", "1",
            "--p", "0.65", "--seed", "7"]
    paths = []
    for name in ("one", "two"):
        out = root / name
        assert main(args + ["--out", str(out)]) == 0
        paths.append(out)
    return root, paths


def test_criterion_1_rule_table_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    blocks = 0
    while blocks < 10_000:
        n = int(rng.integers(8, 65))
        u = int(rng.integers(2, min(7, n // 2 + 1)))
        k = int(rng.integers(6, 40))
        m = BitMatrix.random(rng, k, n, float(rng.uniform(0.1, 0.9)))
        mbar = BitMatrix(1 - m.to_array())
        for _ in range(100):
            x = DefectiveSet(rng.choice(n, size=u, replace=False).tolist()).to_vector(n)
            # Lemma (a): NOT ybar is the OR outcome of M on a weight-u block.
            yprime = 1 - apply_threshold(mbar, x, u).to_array()
            assert BitVector(yprime) == apply_threshold(m, x, 1)
            blocks += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: NOT ybar is the OR outcome on {blocks} weight-u blocks "
          f"({elapsed:.1f}s)")


def test_criterion_2_error_free_exact_recovery(error_free_runs):
    stats = error_free_runs
    assert stats["exact"] == stats["trials"] == len(GRID) * TRIALS_PER_POINT
    assert stats["elapsed"] < 300.0
    print(f"\nACCEPTANCE 2 PASS: {stats['exact']}/{stats['trials']} exact "
          f"error-free recoveries across {len(GRID)} grid points "
          f"({stats['elapsed']:.1f}s)")


def test_criterion_3_error_tolerant_recovery(tolerant_runs):
    stats = tolerant_runs
    expected = len(GRID) * 2 * TRIALS_PER_POINT
    assert stats["exact"] == stats["trials"] == expected
    assert stats["elapsed"] < 600.0
    print(f"\nACCEPTANCE 3 PASS: {stats['exact']}/{stats['trials']} exact "
          f"recoveries with e in {{1,2}} flips, uniform and adversarial "
          f"({stats['elapsed']:.1f}s)")


def test_criterion_4_dimension_identity(error_free_runs, tolerant_runs, cli_bundle):
    for scheme in error_free_runs["schemes"] + tolerant_runs["schemes"]:
        assert scheme.t.rows == (scheme.k + 1) * scheme.h
    _, paths = cli_bundle
    from tgt import load_bundle

    for path in paths:
        scheme, manifest = load_bundle(path)
        assert manifest["t"] == scheme.t.rows == (scheme.k + 1) * scheme.h
    checked = len(error_free_runs["schemes"]) + len(tolerant_runs["schemes"]) + len(paths)
    print(f"\nACCEPTANCE 4 PASS: rows(T) == (k+1)h for all {checked} bundles")


def test_criterion_5_multiset_bounds(error_free_runs, tolerant_runs):
    assert error_free_runs["multiset_ok"]
    assert tolerant_runs["multiset_ok"]
    assert tolerant_runs["clean_counts_ok"]
    total = error_free_runs["trials"] + 2 * tolerant_runs["trials"]
    print(f"\nACCEPTANCE 5 PASS: |R*| <= u*h in {total} decodes and clean "
          f"defective counts exceed 2e in every certified trial")


def test_criterion_6_oracle_agreement():
    t0 = time.perf_counter()
    instances = [
        # (n, d, u, e, p, trials)
        (12, 3, 2, 0, 0.60, 10),
        (16, 3, 2, 1, 0.72, 8),
        (14, 4, 3, 0, 0.50, 8),
        (20, 4, 2, 1, 0.60, 6),
    ]
    contained = 0
    singletons = 0
    trials_total = 0
    for n, d, u, e, p, trials in instances:
        assert n <= 20 and d <= 4
        scheme, _, _ = generate_scheme(SchemeParams(n, d, u, e, p), SEED + n)
        for trial in range(trials):
            rng = np.random.default_rng(SEED ^ (n * 1000) ^ trial)
            truth = _sample(rng, n, u, d)
            noisy, _ = inject_errors(encode(scheme, truth.to_vector(n)), e, rng)
            consistent = brute_force_decode(scheme.t, noisy, d, u, budget=e)
            trials_total += 1
            assert truth in consistent
            contained += 1
            if consistent.is_singleton():
                singletons += 1
                decoded = decode_blocks(scheme, noisy).multiset.at_least(e + 1)
                assert decoded == consistent.candidates[0]
    elapsed = time.perf_counter() - t0
    assert contained == trials_total
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 6 PASS: oracle contained the truth in "
          f"{contained}/{trials_total} trials ({singletons} singletons, all "
          f"matched by the decoder) ({elapsed:.1f}s)")


def test_criterion_7_definition_level_verification():
    for n in range(2, 13):
        assert verify_disjunct(BitMatrix.identity(n), n - 1).verified

    # (64, 2) is the Kautz-Singleton code (11, 2, 4); the rest are identities.
    for n, d in ((8, 1), (12, 2), (16, 3), (64, 2)):
        m, cert = construct_disjunct(n, d)
        assert cert.method == ("kautz-singleton" if n == 64 else "identity") and cert.verified
        assert verify_disjunct(m, d + 1, mode="exhaustive").verified

    # threshold-disjunct verification implies fixed-D goodness (all small n)
    def weight_u(n, u):
        rows = []
        for subset in combinations(range(n), u):
            row = np.zeros(n, dtype=np.uint8)
            row[list(subset)] = 1
            rows.append(row)
        return np.array(rows)

    connection_instances = [
        (8, 4, 2, 0, 1), (10, 4, 2, 0, 1), (12, 4, 2, 1, 2),
        (9, 3, 3, 0, 1), (12, 5, 2, 0, 1),
    ]
    for n, d, u, e, copies in connection_instances:
        assert n <= 12
        g = BitMatrix(np.vstack([weight_u(n, u)] * copies))
        report = verify_threshold_disjunct(g, max(u, d - u), u, e)
        assert report.passed
        for size in range(u, d + 1):
            for items in combinations(range(n), size):
                assert is_good_for(g, DefectiveSet(items), u, e).is_good
    print(f"\nACCEPTANCE 7 PASS: identity matrices (n<=12), constructed "
          f"solver matrices (n<=64), and {len(connection_instances)} "
          f"threshold-to-goodness connection instances all verified")


def test_criterion_8_determinism(cli_bundle, tmp_path):
    root, (one, two) = cli_bundle
    files_one = {p.name: p.read_bytes() for p in sorted(one.iterdir())}
    files_two = {p.name: p.read_bytes() for p in sorted(two.iterdir())}
    assert files_one == files_two

    sim_args = ["simulate", "--bundle", str(one), "--trials", "30", "--seed", "13"]
    assert main(sim_args + ["--out", str(tmp_path / "s1")]) == 0
    assert main(sim_args + ["--out", str(tmp_path / "s2")]) == 0
    csv_one = (tmp_path / "s1.csv").read_bytes()
    csv_two = (tmp_path / "s2.csv").read_bytes()
    assert csv_one == csv_two and csv_one
    print("\nACCEPTANCE 8 PASS: same-seed bundles and simulation CSVs are "
          "byte-identical")
