import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tgt import (
    BitMatrix,
    BitVector,
    apply_threshold,
    flip_positions,
    inject_errors,
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
    """One test at threshold u is apply_threshold on a one-row matrix."""

    def test_threshold_examples(self):
        row = BitMatrix([[1, 1, 1, 0]])
        x = BitVector([1, 1, 0, 0])
        assert apply_threshold(row, x, 2)[0] == 1
        assert apply_threshold(row, x, 3)[0] == 0
        assert apply_threshold(row, BitVector.zeros(4), 1)[0] == 0

    def test_or_examples(self):
        assert apply_threshold(BitMatrix([[1, 0, 1]]), BitVector([0, 0, 1]), 1)[0] == 1
        assert apply_threshold(BitMatrix([[1, 0, 0]]), BitVector([0, 1, 1]), 1)[0] == 0

    def test_threshold_below_one_rejected(self):
        with pytest.raises(ParameterError):
            apply_threshold(BitMatrix([[1, 1]]), BitVector([1, 1]), 0)

    @given(st.integers(0, 2**32 - 1))
    def test_or_equals_threshold_one(self, seed):
        rng = np.random.default_rng(seed)
        row = (rng.random(12) < 0.4).astype(np.uint8)
        x = (rng.random(12) < 0.3).astype(np.uint8)
        assert apply_threshold(BitMatrix([row]), BitVector(x), 1)[0] == int((row & x).any())


class TestApplyThreshold:
    def test_identity_rows(self):
        out = apply_threshold(BitMatrix.identity(4), BitVector([1, 1, 0, 0]), 2)
        assert out == BitVector.zeros(4)

    def test_all_ones_row(self):
        m = BitMatrix([[1, 1, 1, 1], [0, 0, 0, 1]])
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

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_threshold_monotone_in_u(self, seed, u):
        rng = np.random.default_rng(seed)
        row = BitMatrix((rng.random((1, 10)) < 0.5).astype(np.uint8))
        x = BitVector((rng.random(10) < 0.5).astype(np.uint8))
        if apply_threshold(row, x, u + 1)[0] == 1:
            assert apply_threshold(row, x, u)[0] == 1

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_monotone_in_defectives(self, seed, u):
        rng = np.random.default_rng(seed)
        row = BitMatrix((rng.random((1, 10)) < 0.5).astype(np.uint8))
        xa = (rng.random(10) < 0.3).astype(np.uint8)
        grown = xa.copy()
        grown[int(rng.integers(10))] = 1
        if apply_threshold(row, BitVector(xa), u)[0] == 1:
            assert apply_threshold(row, BitVector(grown), u)[0] == 1


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

    def test_negative_error_count(self):
        with pytest.raises(ParameterError):
            inject_errors(BitVector([1, 0]), -1, np.random.default_rng(0))

    def test_always_exactly_e_flips(self):
        rng = np.random.default_rng(2)
        y = BitVector.ones(20)
        for _ in range(50):
            out, flips = inject_errors(y, 3, rng)
            assert len(set(flips)) == 3 and list(flips) == sorted(flips)
            assert int((out.to_array() != y.to_array()).sum()) == 3

    def test_draws_one_choice_without_replacement(self):
        # The flips are one rng.choice(len, e, replace=False) draw, sorted;
        # e = 0 draws nothing, so the stream is left where it was.
        y = BitVector.zeros(30)
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        _, flips = inject_errors(y, 4, rng)
        assert flips == tuple(sorted(int(i) for i in ref.choice(30, size=4, replace=False)))
        inject_errors(y, 0, rng)
        assert rng.random() == ref.random()

    def test_flip_positions(self):
        y = BitVector([1, 0, 1, 0])
        assert flip_positions(y, [1, 1, 3]) == BitVector([1, 1, 1, 1])
        assert flip_positions(y, []) == y
        with pytest.raises(ParameterError):
            flip_positions(y, [4])
        with pytest.raises(ParameterError):
            flip_positions(y, [-1])
