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
    deserialize_vector,
    load_matrix,
    serialize_matrix,
    serialize_vector,
)
from tgt.bitmat import pack_words
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

    @pytest.mark.parametrize("data", [
        np.array([0, 256]),  # 0 after a cast to uint8
        np.array([0.5, 1.7]),  # 0 and 1 after a cast
        np.array([0, -1]),
        [0, 2],
        np.array([0, 2], dtype=np.uint8),
        np.array([np.nan, 1.0]),
    ])
    def test_values_are_checked_before_the_cast(self, data):
        with pytest.raises(ValueError):
            BitVector(data)

    @pytest.mark.parametrize("data", [[True, False], np.array([1, 0], dtype=np.int64), [1.0, 0.0]])
    def test_exact_zeros_and_ones_of_any_dtype_are_accepted(self, data):
        v = BitVector(data)
        assert v == BitVector(np.array([1, 0], dtype=np.uint8)) and v.to_array().dtype == np.uint8

    def test_bits_are_a_private_copy(self):
        for a in (np.array([1, 0, 1], dtype=np.uint8), np.array([True, False, True])):
            v = BitVector(a)
            a[0] = 0
            assert v[0] == 1

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
        assert DefectiveSet(d.to_vector(12).support()) == d

    def test_defective_set_is_a_sorted_set(self):
        d = DefectiveSet([9, 1, 4, 1])
        assert d.indices == (1, 4, 9) and 4 in d and 5 not in d
        with pytest.raises(ValueError):
            DefectiveSet([-1, 2])

    def test_support_out_of_range(self):
        assert DefectiveSet().to_vector(3) == BitVector.zeros(3)
        with pytest.raises(ValueError):
            DefectiveSet([4]).to_vector(4)
        with pytest.raises(ValueError):
            DefectiveSet([2, 5]).to_vector(5)


class TestAdopt:
    """_adopt takes over a fresh bool array without the copy __init__ makes."""

    @pytest.mark.parametrize("cls, data, error", [
        (BitVector, np.array([0, 1], dtype=np.uint8), TypeError),
        (BitVector, np.array([0, 1]), TypeError),
        (BitMatrix, np.array([[0.0, 1.0]]), TypeError),
        (BitVector, np.zeros((2, 2), dtype=bool), DimensionError),
        (BitMatrix, np.zeros(3, dtype=bool), DimensionError),
        (BitVector, np.zeros(0, dtype=bool), DimensionError),
        (BitMatrix, np.zeros((0, 3), dtype=bool), DimensionError),
    ])
    def test_rejects_non_bool_wrong_rank_and_empty(self, cls, data, error):
        with pytest.raises(error):
            cls._adopt(data)

    @given(bit_matrices)
    def test_equals_and_hashes_like_a_checked_copy(self, a):
        for cls, data in ((BitMatrix, a), (BitVector, a.ravel())):
            adopted, copied = cls._adopt(data.astype(bool)), cls(data)
            assert adopted == copied and hash(adopted) == hash(copied)
            assert repr(adopted) == repr(copied)
            assert adopted.to_array().dtype == np.uint8
            assert adopted.to_array().flags.writeable is False

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_density(self, seed):
        # One probability for every entry, as construct_good draws its candidates.
        h, n, density = 7, 33, 0.3 + 0.2 * seed
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        m = BitMatrix.random(ours, h, n, density)
        assert m == BitMatrix(theirs.random((h, n)) < density)
        assert m.to_array().flags.writeable is False
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_adopted_bits_cannot_be_written(self):
        for bits in (BitVector.zeros(4), BitMatrix.ones(2, 3),
                     BitVector._adopt(np.array([True, False]))):
            with pytest.raises(ValueError):
                bits.to_array().flat[0] = 1


class TestSerialization:
    @given(st.integers(1, 8), st.integers(1, 200), st.booleans(), st.integers(0, 2**32 - 1))
    def test_pack_words_is_padded_packbits(self, rows, width, transposed, seed):
        a = np.random.default_rng(seed).random((rows, width)) < 0.5
        if transposed:  # the same bits as the transpose of a contiguous array
            a = np.ascontiguousarray(a.T).T
        expected = np.packbits(a, axis=-1, bitorder="little")
        pad = -expected.shape[1] % 8
        expected = np.concatenate([expected, np.zeros((rows, pad), np.uint8)], axis=1)
        words = pack_words(a)
        assert words.dtype == np.uint64 and words.shape == (rows, expected.shape[1] // 8)
        assert words.tobytes() == expected.tobytes()
        assert pack_words(a[0]).tobytes() == expected[0].tobytes()

    def test_packed_layout_lsb_first(self):
        # flat bits (1,0,1,0,1,1) -> byte 0b00110101 = 0x35, then zero pad
        m = BitMatrix([[1, 0, 1], [0, 1, 1]])
        assert m.packed() == bytes([0x35]) + bytes(7)

    @given(bit_matrices)
    def test_roundtrip(self, a):
        m = BitMatrix(a)
        assert load_matrix(serialize_matrix(m))[0] == m

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_vector_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        v = BitVector((rng.random(rng.integers(1, 200)) < 0.5).astype(np.uint8))
        assert deserialize_vector(serialize_vector(v)) == v

    def test_roundtrip_megabit(self):
        rng = np.random.default_rng(3)
        m = BitMatrix.random(rng, 1000, 1000, 0.3)
        assert load_matrix(serialize_matrix(m))[0] == m

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
            load_matrix(b"")
        with pytest.raises(ParseError):
            load_matrix(b"TGTMAT v1 rows=1 cols=1 kind=final params={}\n\n")

    def test_corrupt_header(self):
        good = serialize_matrix(BitMatrix.identity(2))
        with pytest.raises(ParseError):
            load_matrix(good.replace(b"TGTMAT", b"BADMAT"))
        with pytest.raises(ParseError):
            load_matrix(good.replace(b"rows=2", b"rows=x"))
        with pytest.raises(ParseError):
            load_matrix(good.replace(b"kind=final", b"kind=banana"))
        with pytest.raises(ParseError):
            load_matrix(good.replace(b"params={}", b"params={"))

    def test_truncated_payload(self):
        data = serialize_matrix(BitMatrix.ones(4, 40))
        header, body, _ = data.split(b"\n")
        payload = base64.b64decode(body)
        short = base64.b64encode(payload[:-8])
        with pytest.raises(ParseError):
            load_matrix(header + b"\n" + short + b"\n")

    def test_nonzero_padding(self):
        data = serialize_matrix(BitMatrix.identity(3))  # 9 bits in 8 bytes
        header, body, _ = data.split(b"\n")
        payload = bytearray(base64.b64decode(body))
        payload[-1] |= 0x80
        bad = base64.b64encode(bytes(payload))
        with pytest.raises(ParseError):
            load_matrix(header + b"\n" + bad + b"\n")

    def test_non_ascii_file(self):
        good = serialize_matrix(BitMatrix.identity(2))
        with pytest.raises(ParseError):
            load_matrix(b"\xff" + good)
        with pytest.raises(ParseError):
            deserialize_vector(b"\xff" + serialize_vector(BitVector.ones(3)))

    def test_invalid_base64_payload(self):
        header = serialize_matrix(BitMatrix.identity(2)).split(b"\n", 1)[0]
        with pytest.raises(ParseError):
            load_matrix(header + b"\n!!!!\n")

    def test_params_must_be_an_object(self):
        good = serialize_matrix(BitMatrix.identity(2))
        with pytest.raises(ParseError):
            load_matrix(good.replace(b"params={}", b"params=[]"))

    def test_content_after_payload_line(self):
        matrix = serialize_matrix(BitMatrix.identity(3))
        vector = serialize_vector(BitVector.ones(3))
        with pytest.raises(ParseError):
            load_matrix(matrix + b"garbage\nmore")
        with pytest.raises(ParseError):
            deserialize_vector(vector + b"junk\n")
        # Whitespace after the payload line is still accepted.
        assert load_matrix(matrix + b"\n \n")[0] == BitMatrix.identity(3)
        assert deserialize_vector(vector + b"\n\t") == BitVector.ones(3)

    def test_vector_header_errors(self):
        with pytest.raises(ParseError):
            deserialize_vector(b"TGTVEC v2 len=3\nAA==\n")
        with pytest.raises(ParseError):
            deserialize_vector(b"TGTVEC v1 len=0\n\n")


class TestValueSemantics:
    @given(bit_matrices)
    def test_equal_bits_give_equal_objects_and_hashes(self, a):
        for cls, data in ((BitMatrix, a), (BitVector, a.ravel())):
            one, other = cls(data), cls(data.copy())
            assert one == other and hash(one) == hash(other)

    @given(bit_matrices)
    def test_different_bits_differ(self, a):
        flipped = a.copy()
        flipped[0, 0] ^= 1
        assert BitMatrix(a) != BitMatrix(flipped)

    @given(bit_vectors)
    def test_one_row_matrix_never_equals_vector(self, a):
        assert BitMatrix(a[None]) != BitVector(a)
        assert BitVector(a) != BitMatrix(a[None])

    @given(bit_matrices)
    def test_packed_is_little_bit_order_padded_to_words(self, a):
        expected = np.packbits(a.ravel(), bitorder="little").tobytes()
        expected += bytes(-len(expected) % 8)
        assert BitMatrix(a).packed() == expected
        assert BitVector(a.ravel()).packed() == expected

    def test_shapes_of_zeros_and_ones(self):
        assert BitVector.zeros(5).to_array().shape == (5,)
        assert BitMatrix.ones(2, 3).to_array().tolist() == [[1, 1, 1], [1, 1, 1]]
        with pytest.raises(DimensionError):
            BitVector.zeros(2, 3)

    def test_value_types_are_immutable(self):
        with pytest.raises(AttributeError):
            BitVector.ones(3)._a = None
        with pytest.raises(AttributeError):
            DefectiveSet([1, 2]).indices = ()
        assert DefectiveSet([2, 1]) == DefectiveSet((1, 2))
        assert hash(DefectiveSet([2, 1])) == hash(DefectiveSet((1, 2)))
