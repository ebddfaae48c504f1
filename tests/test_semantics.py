import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tgt import (
    BitMatrix,
    BitVector,
    apply_threshold,
    inject_errors,
    or_test,
    threshold_test,
)
from tgt.errors import DimensionError, ParameterError
from tgt.semantics import SchemeParams


def naive_threshold(m: BitMatrix, x: BitVector, u: int) -> list[int]:
    """Set-intersection reference, no numpy."""
    xs = set(x.support().tolist())
    out = []
    for i in range(m.rows):
        row = set(np.flatnonzero(m.to_array()[i]).tolist())
        out.append(1 if len(row & xs) >= u else 0)
    return out


class TestSchemeParams:
    def test_derived_values(self):
        p = SchemeParams(n=32, d=5, u=2)
        assert p.d0 == 3
        p2 = SchemeParams(n=32, d=4, u=3)
        assert p2.d0 == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=10, d=10, u=2),   # d < n violated
            dict(n=10, d=3, u=4),    # u <= d violated
            dict(n=10, d=3, u=1),    # u >= 2 violated
            dict(n=10, d=3, u=2, e=-1),
            dict(n=10, d=3, u=2, p=1.0),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ParameterError):
            SchemeParams(**kwargs)


class TestOperators:
    def test_threshold_examples(self):
        row = BitVector([1, 1, 1, 0])
        x = BitVector([1, 1, 0, 0])
        assert threshold_test(row, x, 2) == 1
        assert threshold_test(row, x, 3) == 0
        assert threshold_test(row, BitVector.zeros(4), 1) == 0

    def test_or_examples(self):
        assert or_test(BitVector([1, 0, 1]), BitVector([0, 0, 1])) == 1
        assert or_test(BitVector([1, 0, 0]), BitVector([0, 1, 1])) == 0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            threshold_test(BitVector([1]), BitVector([1, 0]), 1)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    def test_or_equals_threshold_one(self, seed, _u):
        rng = np.random.default_rng(seed)
        row = BitVector((rng.random(12) < 0.4).astype(np.uint8))
        x = BitVector((rng.random(12) < 0.3).astype(np.uint8))
        assert or_test(row, x) == threshold_test(row, x, 1)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_threshold_monotone_in_u(self, seed, u):
        rng = np.random.default_rng(seed)
        row = BitVector((rng.random(10) < 0.5).astype(np.uint8))
        x = BitVector((rng.random(10) < 0.5).astype(np.uint8))
        if threshold_test(row, x, u + 1) == 1:
            assert threshold_test(row, x, u) == 1

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_monotone_in_defectives(self, seed, u):
        rng = np.random.default_rng(seed)
        row = BitVector((rng.random(10) < 0.5).astype(np.uint8))
        xa = (rng.random(10) < 0.3).astype(np.uint8)
        grown = xa.copy()
        grown[int(rng.integers(10))] = 1
        if threshold_test(row, BitVector(xa), u) == 1:
            assert threshold_test(row, BitVector(grown), u) == 1


class TestApplyThreshold:
    def test_identity_rows(self):
        out = apply_threshold(BitMatrix.identity(4), BitVector([1, 1, 0, 0]), 2)
        assert out == BitVector.zeros(4)

    def test_all_ones_row(self):
        m = BitMatrix.from_rows([[1, 1, 1, 1], [0, 0, 0, 1]])
        out = apply_threshold(m, BitVector([1, 1, 0, 0]), 2)
        assert out == BitVector([1, 0])

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(5)
        m = BitMatrix.random(rng, 6, 8, 0.5)
        x = BitVector((rng.random(8) < 0.5).astype(np.uint8))
        for u in (1, 2, 3):
            assert apply_threshold(m, x, u).to_array().tolist() == naive_threshold(m, x, u)

    def test_thousand_random_triples(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            rows = int(rng.integers(1, 8))
            cols = int(rng.integers(1, 10))
            u = int(rng.integers(1, 5))
            m = BitMatrix.random(rng, rows, cols, float(rng.random()))
            x = BitVector((rng.random(cols) < rng.random()).astype(np.uint8))
            assert apply_threshold(m, x, u).to_array().tolist() == naive_threshold(m, x, u)

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            apply_threshold(BitMatrix.identity(3), BitVector([1, 0]), 1)


class TestInjectErrors:
    def test_zero_flips(self):
        y = BitVector([1, 0, 1, 1])
        out, flips = inject_errors(y, 0, np.random.default_rng(0))
        assert out == y and flips == ()

    def test_full_flip_is_complement(self):
        y = BitVector([1, 0, 1, 1, 0])
        out, flips = inject_errors(y, 5, np.random.default_rng(0))
        assert out == BitVector([0, 1, 0, 0, 1])
        assert flips == (0, 1, 2, 3, 4)

    def test_exact_hamming_distance(self):
        rng = np.random.default_rng(1)
        y = BitVector((rng.random(10) < 0.5).astype(np.uint8))
        out, flips = inject_errors(y, 2, rng)
        assert len(flips) == 2
        assert int((out.to_array() != y.to_array()).sum()) == 2

    def test_too_many_flips(self):
        with pytest.raises(ParameterError):
            inject_errors(BitVector([1, 0]), 3, np.random.default_rng(0))

    def test_up_to_mode(self):
        rng = np.random.default_rng(2)
        y = BitVector.ones(20)
        seen = set()
        for _ in range(50):
            out, flips = inject_errors(y, 3, rng, up_to=True)
            assert 0 <= len(flips) <= 3
            assert int((out.to_array() != y.to_array()).sum()) == len(flips)
            seen.add(len(flips))
        assert seen == {0, 1, 2, 3}
