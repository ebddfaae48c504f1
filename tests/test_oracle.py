import numpy as np
import pytest

from tgt import (
    BitMatrix,
    BitVector,
    DefectiveSet,
    apply_threshold,
    brute_force_decode,
    cross_check,
    decode_blocks,
    encode,
    inject_errors,
)
from tgt.errors import BudgetError, ParameterError


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
                assert dist <= consistent.mismatch_budget
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
        t = BitMatrix.ones(1, 40)
        with pytest.raises(BudgetError):
            brute_force_decode(t, BitVector.zeros(1), 5, 2, enum_limit=1000)

    def test_parameter_validation(self):
        t = BitMatrix.identity(4)
        with pytest.raises(ParameterError):
            brute_force_decode(t, BitVector.zeros(4), 2, 0)
        with pytest.raises(ParameterError):
            brute_force_decode(t, BitVector.zeros(4), 2, 1, budget=-1)


class TestCrossCheck:
    def test_exact(self):
        report = cross_check(DefectiveSet([1, 2]), DefectiveSet([1, 2]))
        assert report.exact and not report.false_positives and not report.false_negatives

    def test_missing_items(self):
        report = cross_check(DefectiveSet([1]), DefectiveSet([1, 2, 5]))
        assert not report.exact
        assert report.false_negatives == (2, 5)
        assert report.false_positives == ()

    def test_disjoint(self):
        report = cross_check(DefectiveSet([0, 3]), DefectiveSet([1, 2]))
        assert report.false_positives == (0, 3)
        assert report.false_negatives == (1, 2)
