import json
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgt import (
    BitMatrix,
    BitVector,
    DecodeReport,
    DefectiveSet,
    Scheme,
    adversarial_flip_positions,
    apply_threshold,
    build_scheme,
    construct_disjunct,
    cover_decode,
    decode_blocks,
    deserialize_vector,
    encode,
    flip_positions,
    generate_scheme,
    inject_errors,
    load_bundle,
    load_matrix,
    save_bundle,
    serialize_matrix,
    serialize_vector,
)
from tgt import codec
from tgt.cli import main, run_trials
from tgt.codec import BlockTrace, flatten_outcomes, split_outcome
from tgt.errors import DimensionError, ParameterError, ParseError
from tgt.oracle import brute_force_decode
from tgt.semantics import SchemeParams


def worked_scheme():
    """Tiny hand-checkable instance: n=4, u=2, one all-ones locator row."""
    params = SchemeParams(n=4, d=2, u=2)
    m = BitMatrix([[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1]])
    g = BitMatrix.ones(1, 4)
    return build_scheme(g, m, params)


def blocks(scheme, y):
    """The (h, k+1) view of a flat outcome: [y_i, ybar-block] rows."""
    return y.to_array().reshape(scheme.h, scheme.k + 1)


class TestBuildScheme:
    def test_row_count(self):
        params = SchemeParams(n=8, d=2, u=2)
        g = BitMatrix.random(np.random.default_rng(0), 2, 8, 0.5)
        m = BitMatrix.random(np.random.default_rng(1), 3, 8, 0.5)
        scheme = build_scheme(g, m, params)
        assert scheme.t.rows == 8 == (scheme.k + 1) * scheme.h

    def test_holds_only_g_and_m(self):
        scheme = worked_scheme()
        assert Scheme.__slots__ == ("params", "g", "m")
        assert scheme.t == scheme.t and scheme.t is not scheme.t

    def test_report_holds_only_decisions(self):
        assert [f.name for f in fields(DecodeReport)] == ["reasons", "accepted", "multiset"]

    def test_all_ones_locator_row_copies_m(self):
        """Its block pools complement(M), whose complement is M again."""
        scheme = worked_scheme()
        block = scheme.t.to_array()[1:4]
        assert np.array_equal(1 - block, scheme.m.to_array())

    def test_blocks_are_entrywise_and(self):
        rng = np.random.default_rng(2)
        params = SchemeParams(n=8, d=2, u=2)
        g = BitMatrix.random(rng, 4, 8, 0.5)
        m = BitMatrix.random(rng, 5, 8, 0.5)
        scheme = build_scheme(g, m, params)
        t = scheme.t.to_array()
        stride = scheme.k + 1
        assert t.shape[0] == stride * scheme.h
        for i in range(scheme.h):
            base = i * stride
            assert np.array_equal(t[base], g.to_array()[i])
            for r in range(scheme.k):
                assert np.array_equal(
                    t[base + 1 + r], (1 - m.to_array()[r]) & g.to_array()[i]
                )

    def test_column_mismatch(self):
        params = SchemeParams(n=8, d=2, u=2)
        with pytest.raises(DimensionError):
            build_scheme(BitMatrix.ones(2, 8), BitMatrix.ones(2, 7), params)

    def test_params_n_mismatch(self):
        params = SchemeParams(n=9, d=2, u=2)
        with pytest.raises(DimensionError):
            Scheme(params, BitMatrix.ones(2, 8), BitMatrix.ones(2, 8))


class TestBlockPattern:
    """Block i of T is [1; complement(M)] masked by the locator row G_i."""

    def test_single_row_complement(self):
        m = BitMatrix([[1, 0, 1]])
        scheme = Scheme(SchemeParams(n=3, d=2, u=2), BitMatrix.ones(1, 3), m)
        assert scheme.t.to_array().tolist() == [[1, 1, 1], [0, 1, 0]]

    def test_all_zero_m_gives_all_ones_bar_block(self):
        scheme = Scheme(SchemeParams(n=5, d=2, u=2), BitMatrix.ones(1, 5), BitMatrix.zeros(3, 5))
        assert BitMatrix(scheme.t.to_array()[1:]) == BitMatrix.ones(3, 5)

    def test_complementing_m_swaps_the_halves(self):
        """With complement(M) in place of M, each block pools M masked by G_i:
        the y half of the paper's block, which T leaves out."""
        rng = np.random.default_rng(11)
        params = SchemeParams(n=10, d=3, u=2)
        g = BitMatrix.random(rng, 3, 10, 0.6)
        m = BitMatrix.random(rng, 4, 10, 0.5)
        scheme = Scheme(params, g, m)
        flipped = Scheme(params, g, BitMatrix(1 - m.to_array()))
        for _ in range(20):
            x = BitVector((rng.random(10) < 0.3).astype(np.uint8))
            a, b = blocks(scheme, encode(scheme, x)), blocks(flipped, encode(flipped, x))
            assert np.array_equal(a[:, 0], b[:, 0])
            for i, row in enumerate(g.to_array()):
                y_half = apply_threshold(BitMatrix(m.to_array() & row), x, params.u)
                assert np.array_equal(b[i, 1:], y_half.to_array())

    def test_zero_locator_row_blanks_its_block(self):
        g = BitMatrix([[1, 1, 1, 1], [0, 0, 0, 0]])
        scheme = Scheme(SchemeParams(n=4, d=2, u=2), g, worked_scheme().m)
        y = blocks(scheme, encode(scheme, BitVector.ones(4)))
        assert y[0].any() and not y[1].any()

    def test_block_sees_only_locator_support(self):
        # Block i of encode(x) is the all-ones-locator block of x AND G_i.
        rng = np.random.default_rng(12)
        params = SchemeParams(n=12, d=3, u=2)
        g = BitMatrix.random(rng, 4, 12, 0.5)
        scheme = Scheme(params, g, BitMatrix.random(rng, 5, 12, 0.5))
        single = Scheme(params, BitMatrix.ones(1, 12), scheme.m)
        for _ in range(20):
            x = (rng.random(12) < 0.4).astype(np.uint8)
            y = blocks(scheme, encode(scheme, BitVector(x)))
            for i in range(scheme.h):
                restricted = BitVector(x & g.to_array()[i])
                assert np.array_equal(y[i], encode(single, restricted).to_array())


class TestEncode:
    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            encode(worked_scheme(), BitVector.zeros(5))

    def test_zero_vector(self):
        scheme = worked_scheme()
        assert encode(scheme, BitVector.zeros(4)).weight() == 0

    def test_worked_instance(self):
        scheme = worked_scheme()
        y = encode(scheme, DefectiveSet([0, 1]).to_vector(4))
        # [y_1, ybar-block]
        assert y == BitVector([1, 0, 0, 1])

    def test_subthreshold_block_is_all_negative(self, scheme16):
        scheme, _ = scheme16
        x = DefectiveSet([3]).to_vector(16)  # one defective < u anywhere
        for block in blocks(scheme, encode(scheme, x)):
            assert block[0] == 0
            assert block[1:].sum() == 0

    def test_matches_full_matrix_application(self, scheme16):
        scheme, _ = scheme16
        rng = np.random.default_rng(3)
        xs = [BitVector.ones(16)]  # any vector encodes, not only |x| <= d
        for _ in range(5):
            size = int(rng.integers(0, 4))
            xs.append(DefectiveSet(rng.choice(16, size=size, replace=False).tolist()).to_vector(16))
        for x in xs:
            assert encode(scheme, x) == apply_threshold(scheme.t, x, scheme.params.u)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 12), h=st.integers(1, 6), k=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_t_on_random_schemes(self, n, h, k, seed):
        """Duplicate and all-zero locator rows, every weight of x from 0 to n."""
        rng = np.random.default_rng(seed)
        g = BitMatrix.random(rng, h, n, 0.5).to_array()
        g = np.vstack([g, g[:1], np.zeros((1, n), dtype=np.uint8)])[rng.permutation(h + 2)]
        d = int(rng.integers(2, n))
        params = SchemeParams(n=n, d=d, u=int(rng.integers(2, d + 1)))
        scheme = build_scheme(BitMatrix(g), BitMatrix.random(rng, k, n, 0.5), params)
        t = scheme.t
        for weight in range(n + 1):
            x = DefectiveSet(rng.choice(n, size=weight, replace=False).tolist()).to_vector(n)
            assert encode(scheme, x) == apply_threshold(t, x, params.u)

    def test_support_wider_than_eight_bytes(self):
        """x all ones at n=80, so each locator row's key spans ten bytes.  Row 1
        first differs from row 0 at item 75 and row 2 at item 70; only row 0
        stays below u=3."""
        rng = np.random.default_rng(11)
        g = np.zeros((3, 80), dtype=np.uint8)
        g[:, [0, 5]] = 1
        g[1, 75] = g[2, 70] = 1
        g = np.vstack([g, g[1:2], BitMatrix.random(rng, 8, 80, 0.05).to_array(),
                       np.ones((1, 80), dtype=np.uint8)])
        scheme = build_scheme(BitMatrix(g), BitMatrix.random(rng, 5, 80, 0.3),
                              SchemeParams(n=80, d=4, u=3))
        x = BitVector.ones(80)
        y = encode(scheme, x)
        assert y == apply_threshold(scheme.t, x, 3)
        assert blocks(scheme, y)[:3, 0].tolist() == [0, 1, 1]

    def test_split_inverts_flatten(self, scheme16):
        scheme, _ = scheme16
        y = encode(scheme, DefectiveSet([1, 8, 13]).to_vector(16))
        assert split_outcome(flatten_outcomes(y), scheme.h, scheme.k) == y
        with pytest.raises(DimensionError):
            split_outcome(y, scheme.h + 1, scheme.k)


def lemma_case(n, d, top_u, seed, constructed):
    """A single-block scheme (one all-ones locator row) at n, d and a random u
    from 2 to top_u, with M from construct_disjunct or a random M: from 1 to
    12 rows of one random density."""
    rng = np.random.default_rng(seed)
    u = int(rng.integers(2, top_u + 1))
    if constructed:
        m = construct_disjunct(n, d)[0]
    else:
        m = BitMatrix.random(rng, int(rng.integers(1, 13)), n, float(rng.uniform(0.1, 0.9)))
    return Scheme(SchemeParams(n=n, d=d, u=u), BitMatrix.ones(1, n), m), rng


lemma_cases = st.tuples(st.integers(5, 24), st.integers(0, 2**32 - 1), st.booleans())


class TestDesignLemmas:
    """The two facts the (k+1)-row block rests on."""

    @settings(max_examples=200, deadline=None)
    @given(case=lemma_cases, d=st.integers(2, 4))
    def test_complement_block_gives_the_or_outcome(self, case, d):
        """(a) On a weight-u x, 1 - apply_threshold(1 - M, x, u) equals
        apply_threshold(M, x, 1), and the decoder decides the block as the
        cover rule decides that OR outcome."""
        n, seed, constructed = case
        d = min(d, n - 2)
        scheme, rng = lemma_case(n, d, d, seed, constructed)
        params, m = scheme.params, scheme.m
        truth = DefectiveSet(rng.choice(n, size=params.u, replace=False).tolist())
        x = truth.to_vector(n)
        ybar = apply_threshold(BitMatrix(1 - m.to_array()), x, params.u).to_array()
        or_outcome = apply_threshold(m, x, 1)
        assert BitVector(1 - ybar) == or_outcome
        y = encode(scheme, x)
        assert np.array_equal(y.to_array(), np.r_[1, ybar])
        items = cover_decode(m, or_outcome)
        expected = ("accepted" if items == truth
                    else "overflow" if len(items) > params.d + 1 else "size")
        report = decode_blocks(scheme, y)
        assert report.reasons == (expected,)
        assert report.multiset.at_least(1) == (truth if expected == "accepted" else DefectiveSet())

    @settings(max_examples=200, deadline=None)
    @given(case=lemma_cases, d=st.integers(3, 6))
    def test_clean_heavier_block_keeps_no_non_defective(self, case, d):
        """(b) On a clean block of weight w, u < w <= d, with a (d+1)-disjunct
        M, the cover rule keeps no non-defective: the block never overflows
        and votes for defectives only."""
        n, seed, constructed = case
        d = min(d, n - 2)
        scheme, rng = lemma_case(n, d, d - 1, seed, constructed)
        params, ma = scheme.params, scheme.m.to_array()
        if not constructed:  # the identity rows make M disjunct to every order below n
            ma = np.vstack([ma, np.eye(n, dtype=np.uint8)])[rng.permutation(len(ma) + n)]
            scheme = Scheme(params, scheme.g, BitMatrix(ma))
        w = int(rng.integers(params.u + 1, d + 1))
        truth = DefectiveSet(rng.choice(n, size=w, replace=False).tolist())
        y = encode(scheme, truth.to_vector(n))
        kept = np.flatnonzero(codec._survivors(ma, y.to_array()[1:]))
        assert set(kept.tolist()) <= set(truth.indices)
        report = decode_blocks(scheme, y)
        assert report.reasons[0] != "overflow"
        assert set(report.multiset.counts) <= set(truth.indices)


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

    def test_all_positive_keeps_every_column(self):
        assert cover_decode(BitMatrix.ones(2, 6), BitVector.ones(2)) == DefectiveSet(range(6))

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            cover_decode(BitMatrix.identity(3), BitVector.zeros(4))


class TestFindDefectives:
    def test_all_negative_outcome(self, scheme16):
        scheme, _ = scheme16
        report = decode_blocks(scheme, encode(scheme, BitVector.zeros(16)))
        assert report.multiset.at_least(1) == DefectiveSet()
        assert report.status == "no-positive-tests"

    def test_exact_recovery_with_oracle_crosscheck(self):
        scheme, _, _ = generate_scheme(SchemeParams(n=8, d=3, u=2, e=0, p=0.6), 7)
        rng2 = np.random.default_rng(8)
        for _ in range(20):
            truth = DefectiveSet(rng2.choice(8, size=3, replace=False).tolist())
            y = encode(scheme, truth.to_vector(8))
            assert decode_blocks(scheme, y).multiset.at_least(1) == truth
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
        one_block_short = BitVector(y.to_array()[: -(scheme.k + 1)])
        with pytest.raises(DimensionError):
            decode_blocks(scheme, one_block_short)


def reference_decode(scheme, y):
    """decode_blocks written block by block: cover_decode of the recovered
    outcome NOT ybar on each positive block, then the size and
    OR-consistency rule."""
    k, u, ma = scheme.k, scheme.params.u, scheme.m.to_array()
    traces, counts = [], {}
    for i, row in enumerate(y.to_array().reshape(scheme.h, k + 1)):
        if not row[0]:
            traces.append(BlockTrace(i, False, False, "negative"))
            continue
        yprime = 1 - row[1:]
        items = cover_decode(scheme.m, BitVector(yprime)).indices
        if len(items) > scheme.params.d + 1:
            traces.append(BlockTrace(i, True, False, "overflow"))
        elif len(items) != u:
            traces.append(BlockTrace(i, True, False, "size"))
        elif not np.array_equal(ma[:, list(items)].max(axis=1), yprime):
            traces.append(BlockTrace(i, True, False, "or-mismatch"))
        else:
            traces.append(BlockTrace(i, True, True, "accepted", items))
            for j in items:
                counts[j] = counts.get(j, 0) + 1
    return tuple(traces), sorted(counts.items())


@pytest.fixture(scope="module")
def scheme32():
    """A (32, 2, 2) scheme at e=1 whose M is the Kautz-Singleton code (7, 2, 4)."""
    scheme, cert, _ = generate_scheme(SchemeParams(n=32, d=2, u=2, e=1, p=0.71), 32)
    assert cert.code == (7, 2, 4)
    return scheme, cert


def decode_matches_reference(scheme, y):
    """Assert that decode_blocks(scheme, y) equals reference_decode, item
    order included; return the report and the reference traces."""
    report = decode_blocks(scheme, y)
    traces, counts = reference_decode(scheme, y)
    assert report.traces == traces
    assert list(report.multiset.counts.items()) == counts
    assert report.reasons == tuple(trace.reason for trace in traces)
    assert list(report.accepted.items()) == [(t.block, t.items) for t in traces if t.accepted]
    return report, traces


random_schemes = st.tuples(
    st.integers(6, 24),  # n
    st.integers(2, 4),  # d
    st.one_of(st.integers(1, 63), st.just(64), st.integers(65, 130)),  # k
    st.floats(0.05, 0.6),  # density of M
    st.booleans(),  # zero M's first 64 rows
    st.one_of(st.integers(1, 8), st.integers(9, 80)),  # h: tall G repeats outcomes
    st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0]),  # noise rate
    st.sampled_from(["flip", "set"]),  # noise flips bits or sets them to 1
    st.integers(0, 2**32 - 1),  # seed
)


class TestDecodeReference:
    @pytest.mark.parametrize("which", ["scheme16", "scheme32"])
    def test_matches_block_by_block_reference(self, request, which):
        scheme, _ = request.getfixturevalue(which)
        n, d = scheme.params.n, scheme.params.d
        rng = np.random.default_rng(14)
        seen = set()
        for rate in (0, 0.001, 0.01, 0.05):
            for _ in range(60):
                size = int(rng.integers(0, d + 2))
                x = DefectiveSet(rng.choice(n, size=size, replace=False).tolist()).to_vector(n)
                y = encode(scheme, x).to_array()
                y = BitVector(y ^ (rng.random(y.size) < rate))
                report, traces = decode_matches_reference(scheme, y)
                if report.accepted:
                    assert report.status == "ok"
                elif any(trace.positive for trace in traces):
                    assert report.status == "all-blocks-rejected"
                else:
                    assert report.status == "no-positive-tests"
                voted = (j for t in traces if t.accepted for j in t.items)
                assert report.multiset.at_least(1) == DefectiveSet(voted)
                seen.update(trace.reason for trace in traces)
        # The survivors of an identity M are exactly the positive rows of the
        # recovered outcome, so their OR always reproduces it: no or-mismatch.
        mismatch = set() if scheme.m == BitMatrix.identity(n) else {"or-mismatch"}
        assert seen == {"negative", "overflow", "size", "accepted", *mismatch}

    @pytest.mark.parametrize("fill", [0, 1])
    def test_screen_passes_every_column(self, scheme16, fill):
        """64 constant rows on top of M: a column survives them in every
        block whose all-ones rows read positive, so the screen passes
        every column and the finishing pass alone cuts each block down."""
        scheme, _ = scheme16
        top = np.full((64, 16), fill, dtype=np.uint8)
        m = BitMatrix(np.vstack([top, scheme.m.to_array()]))
        scheme = build_scheme(scheme.g, m, scheme.params)
        truth = DefectiveSet([2, 6, 11])
        y = encode(scheme, truth.to_vector(16))
        report, _ = decode_matches_reference(scheme, y)
        assert report.multiset.at_least(1) == truth
        rng = np.random.default_rng(18)
        for _ in range(30):
            x = DefectiveSet(rng.choice(16, size=int(rng.integers(0, 5)), replace=False).tolist())
            y = encode(scheme, x.to_vector(16)).to_array()
            decode_matches_reference(scheme, BitVector(y ^ (rng.random(y.size) < 0.02)))

    def test_repeated_locator_rows(self, scheme16, monkeypatch):
        """64 locator rows drawn from 4: copies of a row share one recovered
        outcome, the cover rule runs once per distinct outcome (M is the
        16 x 16 identity, so the 64-row screen is the whole rule and runs
        alone), and a flip in one copy's ybar-block splits that copy off from
        the others."""
        scheme, _ = scheme16
        k = scheme.k
        rows_seen = []
        survivors = codec._survivors
        monkeypatch.setattr(codec, "_survivors",
                            lambda ma, yp: rows_seen.append(len(yp)) or survivors(ma, yp))
        rng = np.random.default_rng(19)
        split = 0
        for _ in range(40):
            base = BitMatrix.random(rng, 4, 16, 0.6).to_array()
            tall = build_scheme(BitMatrix(base[rng.integers(0, 4, size=64)]), scheme.m, scheme.params)
            x = DefectiveSet(rng.choice(16, size=int(rng.integers(2, 5)), replace=False).tolist())
            y = encode(tall, x.to_vector(16)).to_array().copy()
            view = y.reshape(64, k + 1)  # writes through to y
            positive = np.flatnonzero(view[:, 0])
            yprime = 1 - view[positive, 1:]
            clean = len(np.unique(yprime, axis=0))
            flips = rng.permutation(positive[~yprime.all(axis=1)])[: rng.integers(1, 4)]
            for i in flips:  # turn a 0 of the block's recovered outcome into a 1
                view[i, 1 + rng.choice(np.flatnonzero(view[i, 1:] == 1))] = 0
            yprime = 1 - view[positive, 1:]
            distinct = len(np.unique(yprime, axis=0))
            split += distinct == clean + len(flips) > clean
            rows_seen.clear()
            decode_blocks(tall, BitVector(y))
            assert rows_seen == [distinct] and distinct <= 4 + len(flips)
            decode_matches_reference(tall, BitVector(y))
        assert split >= 20

    def test_all_distinct_outcomes(self, scheme16):
        """Random outcomes on 64 blocks of a 200-row M: no two positive blocks agree."""
        scheme, _ = scheme16
        rng = np.random.default_rng(20)
        tall = build_scheme(BitMatrix.random(rng, 64, 16, 0.6), BitMatrix.random(rng, 200, 16, 0.3),
                            scheme.params)
        for rate in (0.3, 0.5, 0.9):
            y = (rng.random(tall.tests) < rate).astype(np.uint8)
            view = y.reshape(64, tall.k + 1)
            positive = np.flatnonzero(view[:, 0])
            assert len(np.unique(view[positive, 1:], axis=0)) == len(positive) > 1
            decode_matches_reference(tall, BitVector(y))

    @settings(max_examples=150, deadline=None)
    @given(case=random_schemes)
    def test_random_schemes_match_reference(self, case):
        n, d, k, density, zero_head, h, rate, noise, seed = case
        rng = np.random.default_rng(seed)
        u = int(rng.integers(2, d + 1))
        ma = BitMatrix.random(rng, k, n, density).to_array().copy()
        if zero_head:
            ma[:64] = 0
        g = BitMatrix.random(rng, h, n, 0.6)
        scheme = build_scheme(g, BitMatrix(ma), SchemeParams(n=n, d=d, u=u))
        x = DefectiveSet(rng.choice(n, size=int(rng.integers(0, d + 2)), replace=False).tolist())
        y = encode(scheme, x.to_vector(n)).to_array()
        hits = rng.random(y.size) < rate
        y = y ^ hits if noise == "flip" else y | hits
        decode_matches_reference(scheme, BitVector(y))


class TestDistinctRows:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 200), st.integers(1, 30), st.integers(0, 60),
           st.sampled_from([0.01, 0.1, 0.5]), st.integers(0, 2**32 - 1))
    def test_exact_on_repeated_rows(self, cols, kinds, rows, density, seed):
        """Rows drawn from `kinds` random rows, sparse ones included, on
        both sides of the 64-bit key: one uint64 word, else one void."""
        rng = np.random.default_rng(seed)
        base = (rng.random((kinds, cols)) < density).astype(np.uint8)
        a = base[rng.integers(0, kinds, size=rows)]
        distinct, inverse = codec._distinct_rows(a)
        assert np.array_equal(distinct[inverse], a)
        assert len(distinct) == len(np.unique(a, axis=0))


class TestOutputsAreFrozen:
    """The outputs that adopt their bits instead of copying them are read-only."""

    def test_encode_flip_and_load_outputs(self, scheme16):
        scheme, _ = scheme16
        y = encode(scheme, DefectiveSet([1, 8, 13]).to_vector(16))
        outputs = [y, flip_positions(y, [0, 5]), inject_errors(y, 2, np.random.default_rng(0))[0],
                   load_matrix(serialize_matrix(scheme.m))[0],
                   deserialize_vector(serialize_vector(y))]
        for bits in outputs:
            assert bits.to_array().flags.writeable is False
            with pytest.raises(ValueError):
                bits.to_array().flat[0] ^= 1
        assert outputs[-1] == y and outputs[-2] == scheme.m


class TestNoTracesBuilt:
    """The decode paths read the report's stored decisions, never BlockTrace."""

    def test_decode_paths(self, scheme16, tmp_path, monkeypatch, capsys):
        scheme, cert = scheme16
        save_bundle(tmp_path / "b", scheme, 7, 3.0, 2.0, cert.to_json(), {"passed": True})
        truth = DefectiveSet([2, 6, 11])
        y = encode(scheme, truth.to_vector(16))
        (tmp_path / "y.vec").write_bytes(serialize_vector(y))

        def refuse(*args):
            raise AssertionError("a BlockTrace was built")

        monkeypatch.setattr(codec, "BlockTrace", refuse)
        report = decode_blocks(scheme, y)
        assert report.multiset.at_least(1) == truth
        with pytest.raises(AssertionError):
            report.traces
        records, summary = run_trials(scheme, 5, 3, 0)
        assert summary["exact_rate"] == 1 and all(r["accepted_blocks"] for r in records)
        argv = ["decode", "--bundle", str(tmp_path / "b"), "--y", str(tmp_path / "y.vec")]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["accepted_blocks"] == len(report.accepted) > 0


class TestMultisetAndTolerantDecoding:
    def test_empty_when_no_positives(self, scheme16):
        scheme, _ = scheme16
        ms = decode_blocks(scheme, encode(scheme, BitVector.zeros(16))).multiset
        assert ms.counts == {} and sum(ms.counts.values()) == 0

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
        assert sum(report.multiset.counts.values()) <= scheme.params.u * scheme.h

    def test_set_collapse_equals_plain_decode(self, scheme16):
        # Collapsing the multiset to a set gives the union of the accepted blocks' items.
        scheme, _ = scheme16
        truth = DefectiveSet([0, 9])
        report = decode_blocks(scheme, encode(scheme, truth.to_vector(16)))
        union = DefectiveSet(j for items in report.accepted.values() for j in items)
        assert report.multiset.at_least(1) == union == truth

    def test_zero_budget_equals_plain_decode(self, scheme16):
        # At e=0 the decoded set at_least(e + 1) is the error-free answer at_least(1).
        scheme, _ = scheme16
        assert scheme.params.e == 0
        rng = np.random.default_rng(11)
        for _ in range(10):
            size = int(rng.integers(2, 4))
            truth = DefectiveSet(rng.choice(16, size=size, replace=False).tolist())
            report = decode_blocks(scheme, encode(scheme, truth.to_vector(16)))
            assert report.multiset.at_least(scheme.params.e + 1) == truth
            assert report.multiset.at_least(1) == DefectiveSet(report.multiset.counts)

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
        """Each of e=3 flips clears the locator bit of a block that read positive."""
        scheme, _ = scheme16_e1
        x = DefectiveSet([1, 5]).to_vector(16)
        stride = scheme.k + 1
        clean = encode(scheme, x).to_array()
        positions = adversarial_flip_positions(scheme, x, 3)
        assert len(positions) == 3 and any(positions)
        for pos in positions:
            assert pos % stride == 0 and clean[pos] == 1

    def test_no_adversarial_flips_at_zero_budget(self, scheme16_e1):
        scheme, _ = scheme16_e1
        assert adversarial_flip_positions(scheme, DefectiveSet([1, 5]).to_vector(16), 0) == ()

    @pytest.mark.parametrize("e", [-1, -5])
    def test_negative_adversarial_budget(self, scheme16_e1, e):
        scheme, _ = scheme16_e1
        with pytest.raises(ParameterError, match="nonnegative"):
            adversarial_flip_positions(scheme, DefectiveSet([1, 5]).to_vector(16), e)


class TestBundles:
    def test_roundtrip(self, tmp_path, scheme16):
        scheme, cert = scheme16
        save_bundle(tmp_path / "b", scheme, 7, 3.0, 2.0, cert.to_json(), {"passed": True})
        loaded, manifest = load_bundle(tmp_path / "b")
        assert loaded.g == scheme.g and loaded.m == scheme.m and loaded.t == scheme.t
        assert manifest["t"] == scheme.tests == (scheme.k + 1) * scheme.h
        assert manifest["m_certificate"]["verified"]

    @pytest.mark.parametrize("name, kind", [("G.mat", "good"), ("M.mat", "disjunct")])
    def test_tampered_matrix_detected(self, tmp_path, scheme16, name, kind):
        scheme, cert = scheme16
        save_bundle(tmp_path / "b", scheme, 7, 3.0, 2.0, cert.to_json(), {"passed": True})
        matrix, _, params = load_matrix((tmp_path / "b" / name).read_bytes())
        flipped = matrix.to_array().copy()
        flipped[0, 0] ^= 1
        (tmp_path / "b" / name).write_bytes(serialize_matrix(BitMatrix(flipped), kind, params))
        with pytest.raises(ParseError, match="SHA-256"):
            load_bundle(tmp_path / "b")

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_bundle_round_trip(self, data):
        """load_bundle gives back what save_bundle got, and saving that again
        writes the same bytes: G's validation may nest, and p, c, c_g are
        floats.  load_bundle accepts only a passed validation and the M and
        certificate that construct_disjunct builds."""
        n = data.draw(st.integers(4, 12))
        d = data.draw(st.integers(2, n - 2))
        params = SchemeParams(n=n, d=d, u=data.draw(st.integers(2, d)),
                              e=data.draw(st.integers(0, 3)),
                              p=data.draw(st.floats(0, 1, exclude_max=True)))
        bits = st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=5)
        m, cert = construct_disjunct(n, d)
        scheme = Scheme(params, BitMatrix(data.draw(bits)), m)
        scale = st.floats(1e-3, 1e3)
        leaves = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text()
        nested = st.dictionaries(st.text(), st.recursive(
            leaves, lambda kids: st.lists(kids) | st.dictionaries(st.text(), kids), max_leaves=8))
        args = (data.draw(st.integers(0, 2**32)), data.draw(scale), data.draw(scale),
                cert.to_json(), {**data.draw(nested), "passed": True})
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first", Path(tmp) / "second"
            save_bundle(first, scheme, *args)
            loaded, manifest = load_bundle(first)
            assert loaded.params == params and loaded.g == scheme.g and loaded.m == scheme.m
            stored = tuple(manifest[key]
                           for key in ("seed", "c", "c_g", "m_certificate", "g_validation"))
            assert stored == args
            assert (manifest["h"], manifest["k"], manifest["t"]) == (
                scheme.h, scheme.k, scheme.tests)
            save_bundle(second, loaded, *stored)
            for name in ("G.mat", "M.mat", "scheme.json"):
                assert (second / name).read_bytes() == (first / name).read_bytes()

    def test_bad_manifest(self, tmp_path):
        (tmp_path / "scheme.json").write_text("{not json")
        with pytest.raises(ParseError):
            load_bundle(tmp_path)


class TestKautzSingletonSchemes:
    """Acceptance criteria 2, 3, 5 and 6, bounds unchanged, on schemes whose M
    is a true Kautz-Singleton code (the acceptance grid's M are identities)."""

    @pytest.mark.parametrize("n, d, code", [(256, 4, (17, 2, 6)), (64, 2, (11, 2, 4))])
    def test_exact_recovery(self, n, d, code):
        """Clean decodes give the truth with every count above 2e; one flip,
        uniform or adversarial in turn, still decodes exactly."""
        u, e = 2, 1
        scheme, cert, _ = generate_scheme(SchemeParams(n=n, d=d, u=u, e=e, p=0.6), 20250810)
        assert cert.code == code and scheme.k == code[0] * code[2]
        rng = np.random.default_rng(n)
        for trial in range(500):
            size = int(rng.integers(u, d + 1))
            truth = DefectiveSet(rng.choice(n, size=size, replace=False).tolist())
            x = truth.to_vector(n)
            clean = encode(scheme, x)
            counts = decode_blocks(scheme, clean).multiset
            assert counts.at_least(1) == truth
            assert all(counts.counts[j] > 2 * e for j in truth)
            if trial % 2:
                noisy = flip_positions(clean, adversarial_flip_positions(scheme, x, e))
            else:
                noisy, _ = inject_errors(clean, e, rng)
            assert decode_blocks(scheme, noisy).multiset.at_least(e + 1) == truth

    def test_oracle_agreement(self):
        n, d, u, e = 32, 2, 2, 1
        scheme, cert, _ = generate_scheme(SchemeParams(n=n, d=d, u=u, e=e, p=0.6), 20250810)
        assert cert.code == (7, 2, 4)
        t, rng, singletons = scheme.t, np.random.default_rng(32), 0
        for _ in range(8):
            truth = DefectiveSet(rng.choice(n, size=int(rng.integers(u, d + 1)),
                                            replace=False).tolist())
            noisy, _ = inject_errors(encode(scheme, truth.to_vector(n)), e, rng)
            found = brute_force_decode(t, noisy, d, u, budget=e)
            assert truth in found
            if found.is_singleton():
                singletons += 1
                assert decode_blocks(scheme, noisy).multiset.at_least(e + 1) == found.candidates[0]
        assert singletons
