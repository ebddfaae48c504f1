import tracemalloc
from itertools import combinations
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgt import oracle
from tgt import (
    BitMatrix,
    BitVector,
    DefectiveSet,
    Scheme,
    apply_threshold,
    brute_force_decode,
    decode_blocks,
    encode,
    generate_scheme,
    inject_errors,
)
from tgt.errors import BudgetError, DimensionError, ParameterError
from tgt.semantics import SchemeParams


class TestBruteForceDecode:
    def test_self_consistency(self):
        rng = np.random.default_rng(0)
        t = BitMatrix.random(rng, 30, 10, 0.4)
        truth = DefectiveSet([1, 4, 7])
        y = apply_threshold(t, truth.to_vector(10), 2)
        consistent = brute_force_decode(t, y, 3, 2, budget=0)
        assert truth in consistent

    def test_identity_with_or_semantics(self):
        t = BitMatrix.identity(8)
        y = BitVector([0, 1, 0, 0, 1, 0, 0, 0])
        consistent = brute_force_decode(t, y, 2, 1, budget=0)
        assert consistent.is_singleton()
        assert consistent.candidates[0] == DefectiveSet([1, 4])

    def test_certified_scheme_gives_singleton(self, scheme16):
        scheme, _ = scheme16
        rng = np.random.default_rng(1)
        for _ in range(5):
            truth = DefectiveSet(rng.choice(16, size=3, replace=False).tolist())
            y = encode(scheme, truth.to_vector(16))
            consistent = brute_force_decode(scheme.t, y, 3, 2, budget=0)
            assert consistent.is_singleton()
            assert consistent.candidates[0] == truth

    def test_budget_keeps_truth_under_errors(self, scheme16_e1):
        scheme, _ = scheme16_e1
        rng = np.random.default_rng(2)
        for _ in range(5):
            truth = DefectiveSet(rng.choice(16, size=2, replace=False).tolist())
            noisy, _ = inject_errors(encode(scheme, truth.to_vector(16)), 1, rng)
            consistent = brute_force_decode(scheme.t, noisy, 3, 2, budget=1)
            assert truth in consistent
            for candidate in consistent.candidates:
                simulated = apply_threshold(scheme.t, candidate.to_vector(16), 2)
                dist = int((simulated.to_array() != noisy.to_array()).sum())
                assert dist <= 1
            if consistent.is_singleton():
                decoded = decode_blocks(scheme, noisy).multiset.at_least(2)
                assert decoded == consistent.candidates[0]

    def test_candidate_order_by_size_then_lex(self):
        t = BitMatrix.ones(1, 4)
        y = BitVector.zeros(1)
        # with u=2 a single all-ones pool is negative for all sets of size < 2
        consistent = brute_force_decode(t, y, 1, 2, budget=0)
        assert [c.indices for c in consistent.candidates] == [(), (0,), (1,), (2,), (3,)]

    def test_enumeration_limit(self):
        # 2,369,936 candidates of size <= 5 among 50 items, past DEFAULT_ENUM_LIMIT.
        t = BitMatrix.ones(1, 50)
        with pytest.raises(BudgetError):
            brute_force_decode(t, BitVector.zeros(1), 5, 2)

    def test_parameter_validation(self):
        t = BitMatrix.identity(4)
        with pytest.raises(ParameterError):
            brute_force_decode(t, BitVector.zeros(4), 2, 0)
        with pytest.raises(ParameterError):
            brute_force_decode(t, BitVector.zeros(4), 2, 1, budget=-1)

    def test_wrong_outcome_length(self):
        with pytest.raises(DimensionError):
            brute_force_decode(BitMatrix.identity(4), BitVector.zeros(3), 2, 1)

    def test_more_defectives_than_items(self):
        with pytest.raises(ParameterError):
            brute_force_decode(BitMatrix.identity(4), BitVector.zeros(4), 5, 1)


def reference_decode(t: BitMatrix, y: BitVector, d: int, u: int, budget: int) -> list:
    """One candidate at a time, by size and then lexicographically."""
    ta, ya = t.to_array().astype(np.int64), y.to_array()
    kept = []
    for size in range(d + 1):
        for subset in combinations(range(t.cols), size):
            outcome = ta[:, list(subset)].sum(axis=1) >= u
            if (outcome != ya).sum() <= budget:
                kept.append(subset)
    return kept


# Batch sizes in bytes: the default, one candidate per batch, and a few per batch.
CHUNKS = [oracle._CHUNK_BYTES, 1, 256]


class TestBatchedWalk:
    """The batched candidate walk against a one-candidate loop."""

    @pytest.mark.parametrize("chunk", CHUNKS)
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 24), n=st.integers(1, 9), d=st.integers(0, 4),
        u=st.integers(1, 3), mismatches=st.integers(0, 3), density=st.floats(0.1, 0.9),
        flips=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_one_candidate_loop(self, chunk, rows, n, d, u, mismatches, density, flips,
                                        seed):
        d = min(d, n)
        rng = np.random.default_rng(seed)
        t = BitMatrix.random(rng, rows, n, density)
        size = int(rng.integers(0, d + 1))
        truth = DefectiveSet(rng.choice(n, size=size, replace=False).tolist())
        y, _ = inject_errors(apply_threshold(t, truth.to_vector(n), u), min(flips, rows), rng)
        with patch.object(oracle, "_CHUNK_BYTES", chunk):
            found = brute_force_decode(t, y, d, u, budget=mismatches)
        assert [c.indices for c in found.candidates] == reference_decode(t, y, d, u, mismatches)

    def test_memory_is_bounded(self):
        """The n=16 G of the benchmark's grid-small workload beside a 416-row M
        gives 88,821 tests; a fixed 1024-candidate batch held 243 MiB of counts there."""
        params = SchemeParams(n=16, d=3, u=2, e=1, p=0.72)
        g = generate_scheme(params, 20250811)[0].g
        scheme = Scheme(params, g, BitMatrix.random(np.random.default_rng(0), 416, 16, 0.2))
        t = scheme.t
        truth = DefectiveSet([2, 9])
        noisy, _ = inject_errors(encode(scheme, truth.to_vector(16)), 1, np.random.default_rng(3))
        tracemalloc.start()
        try:
            found = brute_force_decode(t, noisy, params.d, params.u, budget=params.e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.rows == 88_821
        assert truth in found
        assert peak < 64 * 2**20
