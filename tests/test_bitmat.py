import base64

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tgt import (
    BitMatrix,
    BitVector,
    DefectiveSet,
    complement,
    deserialize_matrix,
    deserialize_vector,
    load_matrix,
    restrict_row,
    serialize_matrix,
    serialize_vector,
    stack,
)
from tgt.errors import DimensionError, ParseError

bit_matrices = st.integers(1, 8).flatmap(
    lambda r: st.integers(1, 8).flatmap(
        lambda c: arrays(np.uint8, (r, c), elements=st.integers(0, 1))
    )
)
bit_vectors = st.integers(1, 32).flatmap(
    lambda n: arrays(np.uint8, n, elements=st.integers(0, 1))
)


class TestBitTypes:
    def test_matrix_rejects_empty_and_nonbinary(self):
        with pytest.raises(DimensionError):
            BitMatrix(np.zeros((0, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            BitMatrix([[0, 2]])

    def test_immutability(self):
        m = BitMatrix.identity(3)
        with pytest.raises(ValueError):
            m.to_array()[0, 0] = 0
        with pytest.raises(AttributeError):
            m._a = None

    def test_vector_support_strictly_increasing(self):
        v = BitVector([0, 1, 1, 0, 1])
        assert v.support().tolist() == [1, 2, 4]
        assert v.weight() == 3

    def test_defective_set_roundtrip(self):
        d = DefectiveSet([4, 1, 1, 9])
        assert d.indices == (1, 4, 9)
        assert d.to_one_based() == [2, 5, 10]
        assert DefectiveSet.from_one_based([2, 5, 10]) == d
        assert DefectiveSet.from_vector(d.to_vector(12)) == d


class TestComplement:
    def test_single_row(self):
        m = BitMatrix.from_rows([[1, 0, 1]])
        assert complement(m).to_array().tolist() == [[0, 1, 0]]

    def test_all_zeros(self):
        assert complement(BitMatrix.zeros(3, 5)) == BitMatrix.ones(3, 5)

    def test_entrywise_oracle(self):
        rng = np.random.default_rng(0)
        m = BitMatrix.random(rng, 5, 8, 0.5)
        c = complement(m)
        for i in range(5):
            for j in range(8):
                assert c.to_array()[i, j] == 1 - m.to_array()[i, j]

    @given(bit_matrices)
    def test_involution(self, a):
        m = BitMatrix(a)
        assert complement(complement(m)) == m


class TestRestrictRow:
    def test_and(self):
        x = BitVector([1, 1, 0, 1])
        g = BitVector([1, 0, 1, 1])
        assert restrict_row(x, g) == BitVector([1, 0, 0, 1])

    def test_identity_and_zero(self):
        x = BitVector([1, 0, 1])
        assert restrict_row(x, BitVector.ones(3)) == x
        assert restrict_row(x, BitVector.zeros(3)) == BitVector.zeros(3)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            restrict_row(BitVector([1]), BitVector([1, 0]))

    @given(bit_vectors, st.randoms())
    def test_weight_bound(self, xa, rnd):
        ga = np.array([rnd.randint(0, 1) for _ in xa], dtype=np.uint8)
        x, g = BitVector(xa), BitVector(ga)
        out = restrict_row(x, g)
        assert out.weight() <= min(x.weight(), g.weight())
        assert set(out.support()) == set(x.support()) & set(g.support())


class TestStack:
    def test_shapes(self):
        top = BitMatrix.zeros(2, 3)
        bottom = BitMatrix.ones(3, 3)
        assert stack(top, bottom).shape == (5, 3)

    def test_with_complement(self):
        m = BitMatrix.random(np.random.default_rng(1), 4, 6, 0.4)
        assert stack(m, complement(m)).rows == 8

    def test_row_order_preserved(self):
        m = BitMatrix.random(np.random.default_rng(2), 3, 4, 0.5)
        s = stack(m, BitMatrix.ones(2, 4))
        for i in range(3):
            assert s.row(i) == m.row(i)

    def test_column_mismatch(self):
        with pytest.raises(DimensionError):
            stack(BitMatrix.zeros(1, 2), BitMatrix.zeros(1, 3))


class TestSerialization:
    def test_packed_layout_lsb_first(self):
        # flat bits (1,0,1,0,1,1) -> byte 0b00110101 = 0x35, then zero pad
        m = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
        assert m.packed() == bytes([0x35]) + bytes(7)

    @given(bit_matrices)
    def test_roundtrip(self, a):
        m = BitMatrix(a)
        assert deserialize_matrix(serialize_matrix(m)) == m

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_vector_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        v = BitVector((rng.random(rng.integers(1, 200)) < 0.5).astype(np.uint8))
        assert deserialize_vector(serialize_vector(v)) == v

    def test_roundtrip_megabit(self):
        rng = np.random.default_rng(3)
        m = BitMatrix.random(rng, 1000, 1000, 0.3)
        assert deserialize_matrix(serialize_matrix(m)) == m

    def test_byte_identical_reserialization(self):
        m = BitMatrix.random(np.random.default_rng(4), 3, 5, 0.5)
        data = serialize_matrix(m, "good", {"d": 2, "seed": 9})
        m2, kind, params = load_matrix(data)
        assert serialize_matrix(m2, kind, params) == data
        with pytest.raises(ValueError):
            serialize_matrix(m, "augmented")
        with pytest.raises(ParseError):
            load_matrix(data.replace(b"kind=good", b"kind=augmented"))

    def test_empty_payload(self):
        with pytest.raises(ParseError):
            deserialize_matrix(b"")
        with pytest.raises(ParseError):
            deserialize_matrix(b"TGTMAT v1 rows=1 cols=1 kind=final params={}\n\n")

    def test_corrupt_header(self):
        good = serialize_matrix(BitMatrix.identity(2))
        with pytest.raises(ParseError):
            deserialize_matrix(good.replace(b"TGTMAT", b"BADMAT"))
        with pytest.raises(ParseError):
            deserialize_matrix(good.replace(b"rows=2", b"rows=x"))
        with pytest.raises(ParseError):
            deserialize_matrix(good.replace(b"kind=final", b"kind=banana"))
        with pytest.raises(ParseError):
            deserialize_matrix(good.replace(b"params={}", b"params={"))

    def test_truncated_payload(self):
        data = serialize_matrix(BitMatrix.ones(4, 40))
        header, body, _ = data.split(b"\n")
        payload = base64.b64decode(body)
        short = base64.b64encode(payload[:-8])
        with pytest.raises(ParseError):
            deserialize_matrix(header + b"\n" + short + b"\n")

    def test_nonzero_padding(self):
        data = serialize_matrix(BitMatrix.identity(3))  # 9 bits in 8 bytes
        header, body, _ = data.split(b"\n")
        payload = bytearray(base64.b64decode(body))
        payload[-1] |= 0x80
        bad = base64.b64encode(bytes(payload))
        with pytest.raises(ParseError):
            deserialize_matrix(header + b"\n" + bad + b"\n")

    def test_vector_header_errors(self):
        with pytest.raises(ParseError):
            deserialize_vector(b"TGTVEC v2 len=3\nAA==\n")
        with pytest.raises(ParseError):
            deserialize_vector(b"TGTVEC v1 len=0\n\n")
