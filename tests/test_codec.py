import numpy as np
import pytest

from tgt import (
    BitMatrix,
    BitVector,
    DefectiveSet,
    Scheme,
    adversarial_flip_positions,
    apply_threshold,
    build_scheme,
    construct_disjunct,
    cover_decode,
    decode_blocks,
    encode,
    flip_positions,
    inject_errors,
    load_bundle,
    load_matrix,
    recover_yprime,
    save_bundle,
    serialize_matrix,
)
from tgt.codec import flatten_outcomes, split_outcome
from tgt.errors import CoverOverflowError, DimensionError, ParameterError, ParseError
from tgt.oracle import brute_force_decode
from tgt.semantics import SchemeParams


def worked_scheme():
    """Tiny hand-checkable instance: n=4, u=2, one all-ones locator row."""
    params = SchemeParams(n=4, d=2, u=2)
    m = BitMatrix.from_rows([[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1]])
    g = BitMatrix.ones(1, 4)
    return build_scheme(g, m, params)


def blocks(scheme, y):
    """The (h, 2k+1) view of a flat outcome: [y_i, y-block, ybar-block] rows."""
    return y.to_array().reshape(scheme.h, 2 * scheme.k + 1)


class TestBuildScheme:
    def test_row_count(self):
        params = SchemeParams(n=8, d=2, u=2)
        g = BitMatrix.random(np.random.default_rng(0), 2, 8, 0.5)
        m = BitMatrix.random(np.random.default_rng(1), 3, 8, 0.5)
        scheme = build_scheme(g, m, params)
        assert scheme.t.rows == 14 == (2 * scheme.k + 1) * scheme.h

    def test_holds_only_g_and_m(self):
        scheme = worked_scheme()
        assert Scheme.__slots__ == ("params", "g", "m")
        assert scheme.t == scheme.t and scheme.t is not scheme.t

    def test_all_ones_locator_row_copies_m(self):
        scheme = worked_scheme()
        block = scheme.t.to_array()[1:4]
        assert np.array_equal(block, scheme.m.to_array())

    def test_blocks_are_entrywise_and(self):
        rng = np.random.default_rng(2)
        params = SchemeParams(n=8, d=2, u=2)
        g = BitMatrix.random(rng, 4, 8, 0.5)
        m = BitMatrix.random(rng, 5, 8, 0.5)
        scheme = build_scheme(g, m, params)
        t = scheme.t.to_array()
        stride = 2 * scheme.k + 1
        for i in range(scheme.h):
            base = i * stride
            assert np.array_equal(t[base], g.to_array()[i])
            for r in range(scheme.k):
                assert np.array_equal(
                    t[base + 1 + r], m.to_array()[r] & g.to_array()[i]
                )
                assert np.array_equal(
                    t[base + 1 + scheme.k + r],
                    (1 - m.to_array()[r]) & g.to_array()[i],
                )

    def test_column_mismatch(self):
        params = SchemeParams(n=8, d=2, u=2)
        with pytest.raises(DimensionError):
            build_scheme(BitMatrix.ones(2, 8), BitMatrix.ones(2, 7), params)


class TestEncode:
    def test_zero_vector(self):
        scheme = worked_scheme()
        assert encode(scheme, BitVector.zeros(4)).weight() == 0

    def test_worked_instance(self):
        scheme = worked_scheme()
        y = encode(scheme, DefectiveSet([0, 1]).to_vector(4))
        # [y_1, y-block, ybar-block]
        assert y == BitVector([1, 1, 0, 0, 0, 0, 1])

    def test_subthreshold_block_is_all_negative(self, scheme16):
        scheme, _ = scheme16
        x = DefectiveSet([3]).to_vector(16)  # one defective < u anywhere
        for block in blocks(scheme, encode(scheme, x)):
            assert block[0] == 0
            assert block[1 : scheme.k + 1].sum() == 0

    def test_matches_full_matrix_application(self, scheme16):
        scheme, _ = scheme16
        rng = np.random.default_rng(3)
        xs = [BitVector.ones(16)]  # any vector encodes, not only |x| <= d
        for _ in range(5):
            size = int(rng.integers(0, 4))
            xs.append(DefectiveSet(rng.choice(16, size=size, replace=False).tolist()).to_vector(16))
        for x in xs:
            assert encode(scheme, x) == apply_threshold(scheme.t, x, scheme.params.u)

    def test_split_inverts_flatten(self, scheme16):
        scheme, _ = scheme16
        y = encode(scheme, DefectiveSet([1, 8, 13]).to_vector(16))
        assert split_outcome(flatten_outcomes(y), scheme.h, scheme.k) == y
        with pytest.raises(DimensionError):
            split_outcome(y, scheme.h + 1, scheme.k)


class TestRecoverYprime:
    def test_rule_table(self):
        y, ybar = np.array([1, 0, 0, 1], np.uint8), np.array([1, 1, 0, 0], np.uint8)
        # (y, ybar): (1,1)->1, (0,1)->0, (0,0)->1, (1,0)->1
        assert recover_yprime(y, ybar).tolist() == [1, 0, 1, 1]

    def test_all_ones_block(self):
        assert recover_yprime(np.ones(5, np.uint8), np.zeros(5, np.uint8)).tolist() == [1] * 5

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            recover_yprime(np.ones(5, np.uint8), np.zeros(4, np.uint8))

    def test_worked_instance_equals_or_outcome(self):
        scheme = worked_scheme()
        x = DefectiveSet([0, 1]).to_vector(4)
        [block] = blocks(scheme, encode(scheme, x))
        yprime = BitVector(recover_yprime(block[1:4], block[4:7]))
        assert yprime == BitVector([1, 1, 0])
        assert yprime == apply_threshold(scheme.m, x, 1)

    def test_sound_whenever_block_weight_is_u(self, scheme16):
        scheme, _ = scheme16
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(20):
            size = int(rng.integers(2, 4))
            x = DefectiveSet(rng.choice(16, size=size, replace=False).tolist()).to_vector(16)
            k = scheme.k
            for i, block in enumerate(blocks(scheme, encode(scheme, x))):
                xi = x.to_array() & scheme.g.to_array()[i]
                if int(xi.sum()) == scheme.params.u:
                    expected = apply_threshold(scheme.m, BitVector(xi), 1)
                    assert BitVector(recover_yprime(block[1 : k + 1], block[k + 1 :])) == expected
                    checked += 1
        assert checked > 50


class TestCoverDecode:
    def test_all_negative(self):
        m = BitMatrix.identity(5)
        assert cover_decode(m, BitVector.zeros(5)) == DefectiveSet()

    def test_identity_returns_support(self):
        m = BitMatrix.identity(5)
        y = BitVector([1, 0, 1, 0, 0])
        assert cover_decode(m, y) == DefectiveSet([0, 2])

    def test_exact_recovery_on_disjunct_matrix(self):
        m, cert = construct_disjunct(16, 2, np.random.default_rng(5))
        assert cert.verified and cert.d == 3
        rng = np.random.default_rng(6)
        for _ in range(20):
            truth = DefectiveSet(rng.choice(16, size=3, replace=False).tolist())
            y = apply_threshold(m, truth.to_vector(16), 1)
            assert cover_decode(m, y) == truth

    def test_overflow(self):
        m = BitMatrix.ones(2, 6)
        with pytest.raises(CoverOverflowError):
            cover_decode(m, BitVector.ones(2), cap=3)

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            cover_decode(BitMatrix.identity(3), BitVector.zeros(4))


class TestFindDefectives:
    def test_all_negative_outcome(self, scheme16):
        scheme, _ = scheme16
        report = decode_blocks(scheme, encode(scheme, BitVector.zeros(16)))
        assert report.defectives == DefectiveSet()
        assert report.status == "no-positive-tests"

    def test_exact_recovery_with_oracle_crosscheck(self):
        params = SchemeParams(n=8, d=3, u=2, e=0, p=0.6)
        rng = np.random.default_rng(7)
        m, _ = construct_disjunct(8, 3, rng)
        from tgt import construct_good

        g = construct_good(params, rng)
        scheme = build_scheme(g, m, params)
        rng2 = np.random.default_rng(8)
        for _ in range(20):
            truth = DefectiveSet(rng2.choice(8, size=3, replace=False).tolist())
            y = encode(scheme, truth.to_vector(8))
            assert decode_blocks(scheme, y).defectives == truth
            consistent = brute_force_decode(scheme.t, y, 3, 2, budget=0)
            assert truth in consistent

    def test_overweight_blocks_rejected(self, scheme16):
        scheme, _ = scheme16
        rng = np.random.default_rng(9)
        found = 0
        for _ in range(20):
            truth = DefectiveSet(rng.choice(16, size=3, replace=False).tolist())
            x = truth.to_vector(16)
            inter = scheme.g.to_array() @ x.to_array().astype(np.int64)
            report = decode_blocks(scheme, encode(scheme, x))
            for i in np.flatnonzero(inter == 3):
                trace = report.traces[i]
                assert not trace.accepted and trace.reason == "size"
                found += 1
        assert found > 0

    def test_sanitization_soundness(self, scheme16):
        scheme, _ = scheme16
        rng = np.random.default_rng(10)
        for _ in range(30):
            size = int(rng.integers(2, 4))
            truth = DefectiveSet(rng.choice(16, size=size, replace=False).tolist())
            report = decode_blocks(scheme, encode(scheme, truth.to_vector(16)))
            for trace in report.traces:
                if trace.accepted:
                    assert len(trace.items) == scheme.params.u
                    assert set(trace.items) <= set(truth.indices)

    def test_block_count_mismatch(self, scheme16):
        scheme, _ = scheme16
        y = encode(scheme, BitVector.zeros(16))
        one_block_short = BitVector(y.to_array()[: -(2 * scheme.k + 1)])
        with pytest.raises(DimensionError):
            decode_blocks(scheme, one_block_short)


class TestMultisetAndTolerantDecoding:
    def test_empty_when_no_positives(self, scheme16):
        scheme, _ = scheme16
        ms = decode_blocks(scheme, encode(scheme, BitVector.zeros(16))).multiset
        assert ms.counts == {} and ms.total() == 0

    def test_counts_match_trace_recount(self, scheme16):
        scheme, _ = scheme16
        truth = DefectiveSet([2, 6, 11])
        report = decode_blocks(scheme, encode(scheme, truth.to_vector(16)))
        recount = {}
        for trace in report.traces:
            if trace.accepted:
                for j in trace.items:
                    recount[j] = recount.get(j, 0) + 1
        assert report.multiset.counts == recount
        assert report.multiset.total() <= scheme.params.u * scheme.h

    def test_set_collapse_equals_plain_decode(self, scheme16):
        scheme, _ = scheme16
        truth = DefectiveSet([0, 9])
        report = decode_blocks(scheme, encode(scheme, truth.to_vector(16)))
        assert report.multiset.support() == report.defectives

    def test_zero_budget_equals_plain_decode(self, scheme16):
        scheme, _ = scheme16
        rng = np.random.default_rng(11)
        for _ in range(10):
            size = int(rng.integers(2, 4))
            truth = DefectiveSet(rng.choice(16, size=size, replace=False).tolist())
            report = decode_blocks(scheme, encode(scheme, truth.to_vector(16)))
            assert report.multiset.at_least(1) == report.defectives

    def test_vote_threshold_below_one_rejected(self, scheme16):
        scheme, _ = scheme16
        report = decode_blocks(scheme, encode(scheme, DefectiveSet([0, 9]).to_vector(16)))
        with pytest.raises(ParameterError):
            report.multiset.at_least(0)

    def test_single_flip_recovery(self, scheme16_e1):
        scheme, _ = scheme16_e1
        rng = np.random.default_rng(12)
        for _ in range(100):
            size = int(rng.integers(2, 4))
            truth = DefectiveSet(rng.choice(16, size=size, replace=False).tolist())
            noisy, flips = inject_errors(encode(scheme, truth.to_vector(16)), 1, rng)
            assert len(flips) == 1
            assert decode_blocks(scheme, noisy).multiset.at_least(2) == truth

    def test_adversarial_flip_recovery(self, scheme16_e1):
        scheme, _ = scheme16_e1
        rng = np.random.default_rng(13)
        for _ in range(50):
            size = int(rng.integers(2, 4))
            truth = DefectiveSet(rng.choice(16, size=size, replace=False).tolist())
            x = truth.to_vector(16)
            flips = adversarial_flip_positions(scheme, x, 1)
            assert len(flips) == 1
            noisy = flip_positions(encode(scheme, x), flips)
            assert decode_blocks(scheme, noisy).multiset.at_least(2) == truth

    def test_adversarial_positions_hit_locator_bits(self, scheme16_e1):
        scheme, _ = scheme16_e1
        x = DefectiveSet([1, 5]).to_vector(16)
        stride = 2 * scheme.k + 1
        for pos in adversarial_flip_positions(scheme, x, 1):
            assert pos % stride == 0


class TestBundles:
    def test_roundtrip(self, tmp_path, scheme16):
        scheme, cert = scheme16
        save_bundle(tmp_path / "b", scheme, 7, 3.0, 2.0, cert.to_json(), {"passed": True})
        loaded, manifest = load_bundle(tmp_path / "b")
        assert loaded.g == scheme.g and loaded.m == scheme.m and loaded.t == scheme.t
        assert manifest["t"] == scheme.tests == (2 * scheme.k + 1) * scheme.h
        assert manifest["m_certificate"]["verified"]

    def test_tampered_final_matrix_detected(self, tmp_path, scheme16):
        scheme, cert = scheme16
        save_bundle(tmp_path / "b", scheme, 7, 3.0, 2.0, cert.to_json(), {"passed": True})
        t, kind, params = load_matrix((tmp_path / "b" / "T.mat").read_bytes())
        flipped = t.to_array().copy()
        flipped[0, 0] ^= 1
        (tmp_path / "b" / "T.mat").write_bytes(
            serialize_matrix(BitMatrix(flipped), kind, params)
        )
        with pytest.raises(ParseError):
            load_bundle(tmp_path / "b")

    @pytest.mark.parametrize("n", [4, 5, 7, 8, 9, 13, 16, 31, 33, 100])
    def test_final_matrix_file_equals_dense_serialization(self, tmp_path, n):
        # T.mat is packed from G and M without building T; it must be the
        # file the dense T would serialize to, for any n % 8.
        rng = np.random.default_rng(n)
        g = BitMatrix.random(rng, 3, n, 0.5)
        m = BitMatrix.random(rng, 4, n, 0.5)
        scheme = build_scheme(g, m, SchemeParams(n=n, d=2, u=2))
        save_bundle(tmp_path, scheme, 1, 3.0, 2.0, {}, {})
        _, _, header = load_matrix((tmp_path / "G.mat").read_bytes())
        expected = serialize_matrix(scheme.t, "final", header)
        assert (tmp_path / "T.mat").read_bytes() == expected
        assert load_bundle(tmp_path)[0].t == scheme.t

    def test_bad_manifest(self, tmp_path):
        (tmp_path / "scheme.json").write_text("{not json")
        with pytest.raises(ParseError):
            load_bundle(tmp_path)
