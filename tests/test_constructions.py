import bisect
import hashlib
import math
import tracemalloc
from itertools import combinations
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tgt import constructions
from tgt import (
    BitMatrix,
    DefectiveSet,
    construct_disjunct,
    construct_good,
    generate_scheme,
    is_good_for,
    validate_good,
    verify_disjunct,
    verify_threshold_disjunct,
)
from tgt.constructions import DisjunctCertificate, check_disjunct_slow, good_row_count
from tgt.errors import BudgetError, ConstructionError, ParameterError
from tgt.semantics import SchemeParams


def weight_u_matrix(n: int, u: int) -> BitMatrix:
    """All weight-u incidence rows of [n]."""
    rows = []
    for subset in combinations(range(n), u):
        row = np.zeros(n, dtype=np.uint8)
        row[list(subset)] = 1
        rows.append(row)
    return BitMatrix(np.array(rows))


class TestVerifyDisjunct:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_identity_is_maximally_disjunct(self, n):
        cert = verify_disjunct(BitMatrix.identity(n), n - 1)
        assert cert.verified and cert.method == "exhaustive"

    def test_passes_all_lower_orders(self):
        m = BitMatrix.identity(8)
        for d in range(1, 8):
            assert verify_disjunct(m, d).verified

    def test_single_all_ones_row_violates(self):
        cert = verify_disjunct(BitMatrix.ones(1, 4), 1)
        assert not cert.verified
        s1, j = cert.witness
        assert len(s1) == 1 and j not in s1

    def test_matches_slow_checker(self):
        for seed in range(8):
            m = BitMatrix.random(np.random.default_rng(seed), 40, 16, 1 / 3)
            fast = verify_disjunct(m, 2).verified
            assert fast == check_disjunct_slow(m, 2)

    def test_unknown_mode(self):
        with pytest.raises(ParameterError):
            verify_disjunct(BitMatrix.identity(4), 1, mode="bogus")

    def test_sampled_mode_finds_gross_violations(self):
        cert = verify_disjunct(
            BitMatrix.ones(3, 6), 1, mode="sampled", trials=500,
            rng=np.random.default_rng(0),
        )
        assert not cert.verified and cert.witness is not None

    def test_sampled_mode_passes_identity(self):
        cert = verify_disjunct(
            BitMatrix.identity(10), 3, mode="sampled", trials=200,
            rng=np.random.default_rng(0),
        )
        assert cert.verified and cert.trials == 200

    def test_budget_error(self, monkeypatch):
        monkeypatch.setenv("TGT_BUDGET", "1000")
        m = BitMatrix.random(np.random.default_rng(0), 5, 40, 0.2)
        with pytest.raises(BudgetError):
            verify_disjunct(m, 12)

    def test_negative_budget(self, monkeypatch):
        m = BitMatrix.identity(6)
        monkeypatch.setenv("TGT_BUDGET", "-1")
        with pytest.raises(ParameterError):
            verify_disjunct(m, 2)
        monkeypatch.setenv("TGT_BUDGET", "0")
        with pytest.raises(BudgetError):  # 0 is a budget that allows no exhaustive work
            verify_disjunct(m, 2)

    def test_order_out_of_range(self):
        with pytest.raises(ParameterError):
            verify_disjunct(BitMatrix.identity(4), 4)


def reference_exhaustive(m: BitMatrix, d: int) -> constructions.DisjunctCertificate:
    """The per-subset walk verify_disjunct's exhaustive mode replaced."""
    n = m.cols
    a = m.to_array()
    checked = 0
    for s1 in combinations(range(n), d):
        zero_rows = ~a[:, s1].any(axis=1)
        isolated = a[zero_rows].any(axis=0) if zero_rows.any() else np.zeros(n, bool)
        isolated[list(s1)] = True
        checked += n - d
        if not isolated.all():
            j = int(np.flatnonzero(~isolated)[0])
            return constructions.DisjunctCertificate(d, False, "exhaustive", checked, (s1, j))
    return constructions.DisjunctCertificate(d, True, "exhaustive", checked)


def reference_draw(n: int, d: int, gen: np.random.Generator) -> list[int]:
    """d + 1 distinct items, one `integers` call per draw: the i-th rank
    indexes the items not picked before it, in ascending order."""
    picked = []
    for rank in gen.integers(0, n - np.arange(d + 1)):
        picked.append([i for i in range(n) if i not in picked][rank])
    return picked


def sorted_shift_draws(gen: np.random.Generator, n: int, count: int, size: int) -> np.ndarray:
    """The shift _distinct_draws replaced: rank i is shifted past the earlier
    picks of its draw, sorted afresh by np.sort for every rank."""
    picks = gen.integers(0, n - np.arange(size), size=(count, size))
    for i in range(1, size):
        for earlier in np.sort(picks[:, :i], axis=1).T:
            picks[:, i] += picks[:, i] >= earlier
    return picks


def reference_sampled(m: BitMatrix, d: int, trials: int, gen: np.random.Generator):
    """The per-draw loop verify_disjunct's sampled mode replaced."""
    a = m.to_array()
    for t in range(trials):
        draw = reference_draw(m.cols, d, gen)
        j = draw[0]
        s1 = tuple(sorted(draw[1:]))
        zero_rows = ~a[:, s1].any(axis=1)
        if not a[zero_rows, j].any():
            return constructions.DisjunctCertificate(d, False, "sampled", t + 1, (s1, j))
    return constructions.DisjunctCertificate(d, True, "sampled", trials)


def sampled_pairs(n: int, d: int, trials: int, seed: int) -> np.ndarray:
    """The (j, S1) rows sampled mode checks on the identity, read off the
    kernel's arguments (j from its packed column, S1 ascending from its
    union, which on the identity holds exactly S1's bits), none failing."""
    drawn = []

    def bits(packed):
        return np.unpackbits(packed.view(np.uint8), axis=1, bitorder="little")[:, :n]

    def record(unions, cand, s1=None):
        members = bits(unions)
        assert s1 is None and (members.sum(axis=1) == d).all()  # d distinct columns
        s1 = np.nonzero(members)[1].reshape(-1, d)
        drawn.append(np.column_stack([bits(cand[:, 0]).argmax(axis=1), s1]))
        return np.empty(0, np.intp), np.empty(0, np.intp)  # no pair fails

    with patch.object(constructions, "_uncovered", record):
        cert = verify_disjunct(BitMatrix.identity(n), d, mode="sampled", trials=trials,
                               rng=np.random.default_rng(seed))
    assert cert.verified and cert.trials == trials
    return np.concatenate(drawn)


# Chunk sizes in bytes: the default, one subset or draw per chunk, and a few per chunk.
CHUNKS = [constructions._CHUNK_BYTES, 1, 4096]

small_matrices = st.tuples(
    st.integers(3, 21),  # n
    st.integers(1, 5),  # d
    st.integers(1, 40),  # k
    st.floats(0.05, 0.6),  # density
    st.integers(0, 2**32 - 1),  # seed
).filter(lambda c: c[1] < c[0])


def random_matrix(case) -> tuple[BitMatrix, int]:
    n, d, k, density, seed = case
    return BitMatrix.random(np.random.default_rng(seed), k, n, density), d


# Two to four words per column.  Columns blank on rows 0-63 leave word 0
# without an answer, so the later words decide; an all-zero column is
# covered by every S1 that leaves it out.
wide_matrices = st.tuples(
    st.integers(3, 21),  # n
    st.integers(1, 5),  # d
    st.integers(65, 200),  # k
    st.floats(0.05, 0.6),  # density
    st.integers(0, 2**32 - 1),  # seed
    st.sets(st.integers(0, 20), max_size=6),  # columns blank on rows 0-63
    st.one_of(st.none(), st.integers(0, 20)),  # the all-zero column, if any
).filter(lambda c: c[1] < c[0])


def wide_matrix(case) -> tuple[BitMatrix, int]:
    n, d, k, density, seed, blank, zero = case
    a = BitMatrix.random(np.random.default_rng(seed), k, n, density).to_array().copy()
    a[:64, [j for j in blank if j < n]] = False
    if zero is not None:
        a[:, zero % n] = False
    return BitMatrix(a), d


class TestVerifyDisjunctReference:
    """The batched bitset kernel against the loops it replaced, bit for bit."""

    @pytest.mark.parametrize("chunk", CHUNKS)
    @settings(max_examples=60, deadline=None)
    @given(case=small_matrices)
    def test_exhaustive_matches_loop(self, chunk, case):
        m, d = random_matrix(case)
        with patch.object(constructions, "_CHUNK_BYTES", chunk):
            assert verify_disjunct(m, d) == reference_exhaustive(m, d)

    @pytest.mark.parametrize("chunk", CHUNKS)
    @settings(max_examples=60, deadline=None)
    @given(case=small_matrices, trials=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_sampled_matches_loop(self, chunk, case, trials, seed):
        m, d = random_matrix(case)
        gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        with patch.object(constructions, "_CHUNK_BYTES", chunk):
            cert = verify_disjunct(m, d, mode="sampled", trials=trials, rng=gen)
        assert cert == reference_sampled(m, d, trials, ref_gen)

    @pytest.mark.parametrize("chunk", CHUNKS)
    @settings(max_examples=40, deadline=None)
    @given(case=wide_matrices)
    def test_exhaustive_matches_loop_past_word_0(self, chunk, case):
        m, d = wide_matrix(case)
        with patch.object(constructions, "_CHUNK_BYTES", chunk):
            assert verify_disjunct(m, d) == reference_exhaustive(m, d)

    @pytest.mark.parametrize("chunk", CHUNKS)
    @settings(max_examples=40, deadline=None)
    @given(case=wide_matrices, trials=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_sampled_matches_loop_past_word_0(self, chunk, case, trials, seed):
        m, d = wide_matrix(case)
        gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        with patch.object(constructions, "_CHUNK_BYTES", chunk):
            cert = verify_disjunct(m, d, mode="sampled", trials=trials, rng=gen)
        assert cert == reference_sampled(m, d, trials, ref_gen)

    @pytest.mark.parametrize("n", [2, 3, 16, 33, 1024])
    @pytest.mark.parametrize("b", [1, 2, 7, 197, 1000])
    def test_batched_draws_match_sequential_draws(self, n, b):
        """Sampled mode draws the ranks of b (j, S1) pairs, and validate_good
        those of b sets of u..d items, in one `integers` call; their results
        do not depend on the batch size while the stream equals b per-draw
        calls, generator state included.  At n=1024, d=5 a default batch is
        about 1,400 draws; at h=312, d=4 about 197 sets."""
        for size in sorted({1, 2, 3, 4, 5, n} & set(range(1, n + 1))):
            bounds = n - np.arange(size)
            gen, ref_gen = np.random.default_rng(5), np.random.default_rng(5)
            batched = gen.integers(0, bounds, size=(b, size))
            sequential = np.stack([ref_gen.integers(0, bounds) for _ in range(b)])
            assert (batched == sequential).all()
            assert gen.bit_generator.state == ref_gen.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40), count=st.integers(1, 60),
           seed=st.integers(0, 2**32 - 1))
    def test_distinct_draws_match_sorted_shift(self, data, n, count, seed):
        """The min/max insertion gives the per-rank-sort shift's draws bit for
        bit, from the same generator position, size 1 and size n included."""
        size = data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)), label="size")
        gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = constructions._distinct_draws(gen, n, count, size)
        assert draws.shape == (count, size)
        assert (draws == sorted_shift_draws(ref_gen, n, count, size)).all()
        assert gen.bit_generator.state == ref_gen.bit_generator.state
        assert draws.min() >= 0 and draws.max() < n
        assert all(len(set(row)) == size for row in draws.tolist())

    @pytest.mark.parametrize("n,d", [(2, 1), (3, 2), (7, 2), (16, 4), (33, 32), (1024, 5)])
    def test_drawn_pairs_are_distinct_and_in_range(self, n, d):
        """Every drawn (j, S1), n = d + 1 included, is d + 1 distinct columns."""
        pairs = sampled_pairs(n, d, 300, seed=n)
        assert pairs.shape == (300, d + 1) and pairs.min() >= 0 and pairs.max() < n
        assert all(len(set(row)) == d + 1 for row in pairs.tolist())

    def test_drawn_pairs_are_uniform(self):
        """All 7 * C(6, 2) = 105 (j, S1) pairs at n=7, d=2 over 105,000 draws:
        the chi-square statistic stays below its 0.9999 quantile at 104
        degrees of freedom, 166.36."""
        pairs = sampled_pairs(7, 2, 105_000, seed=2)
        keys = pairs[:, 0] * 49 + np.sort(pairs[:, 1:], axis=1) @ [7, 1]
        counts = np.unique(keys, return_counts=True)[1]
        assert len(counts) == 105
        assert ((counts - 1000) ** 2 / 1000).sum() < 166.36

    def test_failure_past_first_chunk(self):
        # Fails at subset 492 and at draw 640; 4096 bytes hold 13 per chunk here.
        m = BitMatrix.random(np.random.default_rng(36), 60, 16, 1 / 6)
        for mode, failing in (("exhaustive", 492 * 12), ("sampled", 640)):
            with patch.object(constructions, "_CHUNK_BYTES", 4096):
                cert = verify_disjunct(m, 4, mode=mode, rng=np.random.default_rng(1))
            ref = verify_disjunct(m, 4, mode=mode, rng=np.random.default_rng(1))
            assert not ref.verified and ref.trials == failing and cert == ref

    @pytest.mark.parametrize("n,mode", [(32, "exhaustive"), (1024, "sampled")])
    def test_memory_is_bounded(self, n, mode):
        """Each mode sizes its batch from the temporaries it holds, so a whole
        order-5 check, all C(32, 5) subsets or the 20,000 draws at n=1024,
        peaks under twice _CHUNK_BYTES (in one batch: about 95 and 13 MiB)."""
        m = BitMatrix.random(np.random.default_rng(n), random_rows(n, 4), n, 1 / 6)
        tracemalloc.start()
        try:
            cert = verify_disjunct(m, 5, mode=mode, rng=np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.verified
        assert peak < 2 * constructions._CHUNK_BYTES

    @pytest.mark.parametrize("trials", [0, -5])
    def test_sampled_needs_a_draw(self, trials):
        with pytest.raises(ParameterError):
            verify_disjunct(BitMatrix.ones(3, 6), 1, mode="sampled", trials=trials)


def random_rows(n: int, d: int, c: float = 3.0) -> int:
    """ceil(c (d+2)^2 ln n): rows of a Bernoulli(1/(d+2)) candidate for an
    order-(d+1) check, the sizes the certifier pins below were recorded at."""
    return math.ceil(c * (d + 2) ** 2 * math.log(n))


def certified_walk(n: int, d: int, seed: int, c: float, mode: str):
    """Draw Bernoulli(1/(d+2)) candidates of random_rows(n, d, c) rows from one
    generator and certify each as (d+1)-disjunct in `mode` until one verifies,
    each sampled check from a stream of its own seeded from that generator, as
    construct_good's checks are; returns (that candidate, every certificate,
    the generator)."""
    rng = np.random.default_rng(seed)
    certs = []
    while not certs or not certs[-1].verified:
        m = BitMatrix.random(rng, random_rows(n, d, c), n, 1 / (d + 2))
        check = np.random.default_rng(rng.integers(2**63)) if mode == "sampled" else None
        certs.append(verify_disjunct(m, d + 1, mode=mode, rng=check))
    return m, certs, rng


# Every attempt's (trials, witness), the accepted candidate's packed digest and
# the generator's next draw; the exhaustive walk was recorded with the
# per-subset loop, the sampled one with its own stream per check.
CONSTRUCT_PINS = {
    "exhaustive": (
        (16, 2, 2, 1.4),
        [(2249, ((1, 8, 13), 12)), (1209, ((0, 10, 13), 14)), (6474, ((7, 11, 15), 12)),
         (3068, ((2, 6, 13), 12)), (2600, ((2, 3, 7), 6)), (1599, ((1, 3, 8), 5)),
         (468, ((0, 3, 12), 7)), (520, ((0, 4, 5), 1)), (5265, ((5, 7, 8), 0)),
         (1989, ((1, 6, 8), 14)), (4251, ((3, 10, 12), 5)), (7280, None)],
        "a2b815904ea61b6faf45d0cb10aff0c125875a541083b87aa821ac11da0284f8",
        4496522283001210926,
    ),
    "sampled": (
        (400, 2, 10, 0.9),
        [(7880, ((82, 159, 169), 11)), (15622, ((93, 118, 194), 230)), (20000, None)],
        "264b7d5eb840360660409b39c1e202906f41786b6a65f258c2dc819c0640897d",
        3142033597389333951,
    ),
}


def ks_reference(n: int, d: int):
    """construct_disjunct's choice and matrix in plain Python: every prime q
    and kappa >= 2 with q^kappa >= n and m = (d+1)(kappa-1)+1 <= q, fewest rows
    m*q, the identity on ties and then the smaller kappa; column j is the
    polynomial with j's base-q digits as coefficients, lowest first, and row
    a*q + s holds the columns that take the value s at the point a."""
    order, best = d + 1, (n, 0, None)  # (rows, kappa, (q, kappa, m))
    for kappa in range(2, n.bit_length() + 1):
        m = order * (kappa - 1) + 1
        for q in range(m, n + 1):
            if q ** kappa >= n and all(q % p for p in range(2, q)):
                best = min(best, (m * q, kappa, (q, kappa, m)))
                break
    if best[2] is None:
        return [[int(i == j) for j in range(n)] for i in range(n)], None
    q, kappa, m = best[2]
    rows = [[0] * n for _ in range(m * q)]
    for j in range(n):
        coefficients = [j // q ** i % q for i in range(kappa)]
        for a in range(m):
            rows[a * q + sum(c * a ** i for i, c in enumerate(coefficients)) % q][j] = 1
    return rows, best[2]


class TestConstructDisjunct:
    @pytest.mark.parametrize("method", sorted(CONSTRUCT_PINS))
    def test_pinned_attempts(self, method):
        """The certifiers' walk over random candidates, pinned attempt by attempt."""
        (n, d, seed, c), attempts, digest, next_draw = CONSTRUCT_PINS[method]
        m, certs, rng = certified_walk(n, d, seed, c, method)
        assert [(x.trials, x.witness) for x in certs] == attempts
        assert all(x.method == method and x.d == d + 1 for x in certs)
        assert hashlib.sha256(m.packed()).hexdigest() == digest
        assert int(rng.integers(2**63)) == next_draw

    def test_small_two_disjunct(self):
        m, cert = construct_disjunct(8, 1, np.random.default_rng(0))
        assert cert == DisjunctCertificate(2, True, "identity", 0)
        assert m == BitMatrix.identity(8)
        assert check_disjunct_slow(m, 2)

    def test_three_disjunct(self):
        m, cert = construct_disjunct(16, 2, np.random.default_rng(1))
        assert cert.verified and cert.d == 3
        assert m.cols == 16

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            construct_disjunct(4, 3, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            construct_disjunct(8, 0, np.random.default_rng(0))

    def test_deterministic_in_seed(self):
        m1, _ = construct_disjunct(12, 2, np.random.default_rng(5))
        m2, _ = construct_disjunct(12, 2, np.random.default_rng(5))
        assert m1 == m2

    # (9, 1), (20, 2) and (55, 3) tie: a code has exactly n rows, and the identity wins.
    @pytest.mark.parametrize("n,d", [(8, 1), (9, 1), (12, 2), (20, 2), (30, 2), (32, 2), (55, 3),
                                     (64, 2), (100, 3), (256, 4), (343, 2), (1024, 4)])
    def test_matches_plain_reference(self, n, d):
        m, cert = construct_disjunct(n, d)
        rows, code = ks_reference(n, d)
        assert m == BitMatrix(rows) and cert.code == code and cert.trials == 0
        assert cert.method == ("identity" if code is None else "kautz-singleton")
        assert m == construct_disjunct(n, d, np.random.default_rng(n))[0]  # draws nothing

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(3, 4096), d=st.integers(1, 8))
    @example(n=20, d=2)  # the code (5, 2, 4) has n rows: a tie the identity wins
    def test_fewest_rows(self, n, d):
        """No prime q <= n and kappa >= 2 with q^kappa >= n and m <= q gives
        fewer rows than the chosen code, nor the same rows at a smaller kappa."""
        if d + 1 >= n:
            return
        primes = [p for p in range(2, n + 1) if all(p % i for i in range(2, math.isqrt(p) + 1))]
        m, cert = construct_disjunct(n, d)
        chosen = (m.rows, 1)  # the identity: n rows
        if cert.code is not None:
            q, kappa, points = cert.code
            assert q in primes and q ** kappa >= n and points == (d + 1) * (kappa - 1) + 1 <= q
            chosen = (points * q, kappa)
            assert chosen[0] < n
        assert m.rows == chosen[0] and m.cols == n
        for q in primes:
            kappa = 2
            while q ** (kappa - 1) < n:  # a larger kappa only grows m
                rows = ((d + 1) * (kappa - 1) + 1) * q
                if q ** kappa >= n and rows <= q * q:
                    assert (rows, kappa) >= chosen
                kappa += 1

    @pytest.mark.parametrize("n", [32, 49, 64])
    def test_kautz_singleton_proofs(self, n):
        """A true KS M at d=2, proven 3-disjunct by both verifiers."""
        m, cert = construct_disjunct(n, 2)
        assert cert.method == "kautz-singleton" and m.rows < n
        assert verify_disjunct(m, 3, mode="exhaustive").verified
        assert check_disjunct_slow(m, 3)

    def test_dense_size_checked_first(self, monkeypatch):
        monkeypatch.setattr(constructions.os, "sysconf", lambda name: 1)
        with pytest.raises(BudgetError, match="1024 x 1024 identity"):
            construct_disjunct(1024, 500)
        with pytest.raises(BudgetError, match="121 x 1024 Kautz-Singleton"):
            construct_disjunct(1024, 4)


class TestVerifyThresholdDisjunct:
    def test_complete_weight_u_passes_for_d_equal_u(self):
        g = weight_u_matrix(7, 2)
        report = verify_threshold_disjunct(g, 2, 2, 0)
        assert report.passed
        assert report.min_count == 1

    def test_boundary_budget_fails(self):
        g = weight_u_matrix(7, 2)
        report = verify_threshold_disjunct(g, 2, 2, 1)  # min count is exactly 1
        assert not report.passed
        assert report.witness is not None

    def test_all_zeros_fails_with_witness(self):
        report = verify_threshold_disjunct(BitMatrix.zeros(5, 6), 2, 2, 0)
        assert not report.passed and report.min_count == 0
        s, z, j = report.witness
        assert j in s and not (set(s) & set(z))

    def test_budget_error(self, monkeypatch):
        monkeypatch.setenv("TGT_BUDGET", "100")
        with pytest.raises(BudgetError):
            verify_threshold_disjunct(BitMatrix.zeros(4, 20), 5, 2, 0)

    def test_negative_error_budget(self):
        # No count is <= -1, so a negative e would certify any matrix.
        with pytest.raises(ParameterError):
            verify_threshold_disjunct(BitMatrix.zeros(5, 6), 2, 2, -1)

    def test_threshold_above_d(self):
        with pytest.raises(ParameterError):
            verify_threshold_disjunct(BitMatrix.ones(5, 6), 2, 3, 0)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        n = data.draw(st.integers(3, 7), label="n")
        d = data.draw(st.integers(1, min(4, n - 1)), label="d")
        u = data.draw(st.integers(1, d), label="u")
        e = data.draw(st.integers(0, 3), label="e")
        rows = data.draw(st.integers(1, 8), label="rows")
        fill = data.draw(st.sampled_from(["random", "zeros", "ones"]), label="fill")
        if fill == "random":
            bits = data.draw(st.lists(st.booleans(), min_size=rows * n, max_size=rows * n))
            g = BitMatrix(np.array(bits, dtype=np.uint8).reshape(rows, n))
        else:
            g = getattr(BitMatrix, fill)(rows, n)
        report = verify_threshold_disjunct(g, d, u, e)
        expected = threshold_disjunct_reference(g, d, u, e)
        assert (report.passed, report.min_count, report.witness, report.triples_checked) == expected


def threshold_disjunct_reference(g: BitMatrix, d: int, u: int, e: int):
    """(passed, min_count, witness, triples) straight from the definition.

    Walks every (S, Z, j) triple in order (|S| from u to d, S lexicographic,
    |Z| from 0 to min(|S|, n - |S|), Z lexicographic in [n] minus S, j in S)
    and counts the rows meeting S in exactly u items, missing Z and holding
    j; the first triple at the lowest count is the witness.
    """
    n = g.cols
    rows = [set(np.flatnonzero(r).tolist()) for r in g.to_array()]
    lowest, witness, triples = None, None, 0
    for s_size in range(u, d + 1):
        for s in combinations(range(n), s_size):
            rest = [i for i in range(n) if i not in s]
            for z_size in range(min(s_size, n - s_size) + 1):
                for z in combinations(rest, z_size):
                    for j in s:
                        triples += 1
                        count = sum(
                            len(r & set(s)) == u and not r & set(z) and j in r for r in rows
                        )
                        if lowest is None or count < lowest:
                            lowest, witness = count, (s, z, j)
    passed = lowest > e
    return passed, lowest, None if passed else witness, triples


class TestIsGoodFor:
    def test_worked_example(self):
        g = BitMatrix([[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0]])
        dset = DefectiveSet([0, 1, 2])
        report = is_good_for(g, dset, 2, 1)
        assert report.is_good
        assert report.per_item_counts == {0: 2, 1: 2, 2: 2}

    def test_budget_two_not_good(self):
        g = BitMatrix([[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0]])
        assert not is_good_for(g, DefectiveSet([0, 1, 2]), 2, 2).is_good

    def test_fewer_defectives_than_threshold(self):
        g = BitMatrix.ones(4, 6)
        report = is_good_for(g, DefectiveSet([3]), 2, 0)
        assert not report.is_good
        assert report.per_item_counts == {3: 0}

    def test_negative_error_budget(self):
        with pytest.raises(ParameterError):
            is_good_for(BitMatrix.ones(4, 6), DefectiveSet([0, 1]), 2, -1)

    def test_index_out_of_range(self):
        with pytest.raises(ParameterError):
            is_good_for(BitMatrix.ones(4, 6), DefectiveSet([1, 6]), 2, 0)

    def test_empty_set_is_vacuously_good(self):
        report = is_good_for(BitMatrix.ones(4, 6), DefectiveSet([]), 2, 0)
        assert report.is_good and report.per_item_counts == {}


def reference_set(n: int, size: int, rng: np.random.Generator) -> list[int]:
    """One sampled set, ascending, from one `integers` call: each rank is
    shifted past the items picked before it, walked in ascending order."""
    items = []
    for rank in rng.integers(0, n - np.arange(size)).tolist():
        for earlier in items:
            rank += rank >= earlier
        bisect.insort(items, rank)
    return items


def validate_good_reference(g: BitMatrix, params: SchemeParams, rng, sets: int, budget: int):
    """validate_good's failing set (1-based), or None, one sampled set at a
    time, with goodness from the definition: every item of D lies in more
    than `budget` of the rows that meet D in exactly u items."""
    rows = g.to_array().tolist()
    for size in range(params.u, params.d + 1):
        for _ in range(sets):
            items = reference_set(params.n, size, rng)
            qualifying = [row for row in rows if sum(row[j] for j in items) == params.u]
            if any(sum(row[j] for row in qualifying) <= budget for j in items):
                return {"cardinality": size, "items": [j + 1 for j in items]}
    return None


class TestConstructGood:
    def test_pinned_draw(self):
        """One density, u/d = 0.4, over h = 363 rows; each attempt's check
        draws from a stream of its own."""
        params = SchemeParams(n=64, d=5, u=2, e=1, p=0.61)
        rng = np.random.default_rng(0)
        g = construct_good(params, rng)
        assert g.rows == good_row_count(params) == 363
        digest = "3f57a61d39e4c29f0ccab42bb30eeb138ed8c87d8fb4465b85479469d67b2a86"
        assert hashlib.sha256(g.packed()).hexdigest() == digest
        assert int(rng.integers(2**63)) == 6043943233368713285

    def test_error_free_example(self):
        # p=0 needs a larger row constant to make sampled validation pass
        params = SchemeParams(n=32, d=4, u=2, e=0, p=0.0)
        rng = np.random.default_rng(3)
        g = construct_good(params, rng, c_g=8.0)
        assert g.cols == 32 and g.rows == good_row_count(params, 8.0)
        check = validate_good(g, params, np.random.default_rng(99), 200, 0)
        assert check["passed"]

    def test_budget_two_counts(self):
        params = SchemeParams(n=32, d=4, u=2, e=1, p=0.65)
        rng = np.random.default_rng(4)
        g = construct_good(params, rng)
        fresh = np.random.default_rng(777)
        for size in range(2, 5):
            for _ in range(100):
                dset = DefectiveSet(fresh.choice(32, size=size, replace=False).tolist())
                report = is_good_for(g, dset, 2, 2 * params.e)
                assert report.is_good
                assert all(c >= 3 for c in report.per_item_counts.values())

    def test_invalid_params_rejected(self):
        with pytest.raises(ParameterError):
            SchemeParams(n=32, d=2, u=4)

    @pytest.mark.parametrize("sets", [0, -3])
    def test_validation_needs_a_set(self, sets):
        params = SchemeParams(n=16, d=3, u=2, e=0, p=0.5)
        g = BitMatrix.ones(4, 16)
        with pytest.raises(ParameterError):
            validate_good(g, params, np.random.default_rng(0), sets, 0)

    def test_validation_needs_every_item(self):
        params = SchemeParams(n=16, d=3, u=2, e=0, p=0.5)
        with pytest.raises(ParameterError):
            validate_good(BitMatrix.ones(4, 15), params, np.random.default_rng(0), 5, 0)

    def test_failure_stops_at_first_failing_set(self):
        # All-ones rows are good for every 2-set and for no 3-set.
        params = SchemeParams(n=16, d=3, u=2, e=0, p=0.5)
        reference = np.random.default_rng(6)
        result = validate_good(BitMatrix.ones(4, 16), params, np.random.default_rng(6), 5, 0)
        for _ in range(5):
            reference_set(16, 2, reference)
        first_triple = [j + 1 for j in reference_set(16, 3, reference)]
        assert result == {
            "passed": False, "sets_per_cardinality": 5, "budget": 0,
            "failure": {"cardinality": 3, "items": first_triple},
        }

    @pytest.mark.parametrize("chunk", CHUNKS)
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_validate_matches_reference(self, chunk, data):
        n = data.draw(st.integers(4, 9), label="n")
        d = data.draw(st.integers(2, n - 1), label="d")
        u = data.draw(st.integers(2, d), label="u")
        budget = data.draw(st.integers(0, 2), label="budget")
        sets = data.draw(st.integers(1, 6), label="sets")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        if data.draw(st.booleans(), label="weight-u rows"):
            g = weight_u_matrix(n, u)  # good at budget 0; at budget 1 fails only sets of size u
        else:
            rows = data.draw(st.integers(1, 12), label="rows")
            bits = data.draw(st.lists(st.booleans(), min_size=rows * n, max_size=rows * n))
            g = BitMatrix(np.array(bits, dtype=np.uint8).reshape(rows, n))
        params = SchemeParams(n=n, d=d, u=u)
        reference = np.random.default_rng(seed)
        with patch.object(constructions, "_CHUNK_BYTES", chunk):
            result = validate_good(g, params, np.random.default_rng(seed), sets, budget)
        failure = validate_good_reference(g, params, reference, sets, budget)
        assert (result["passed"], result["failure"]) == (failure is None, failure)

    def test_validated_sets_are_uniform(self):
        """All C(7, 3) = 35 sets at n=7, u=d=3 over 35,000 validated sets:
        the chi-square statistic stays below its 0.9999 quantile at 34
        degrees of freedom, 73.48."""
        drawn = []
        inner = constructions._distinct_draws

        def recording(*args):
            drawn.append(inner(*args))
            return drawn[-1]

        params = SchemeParams(n=7, d=3, u=3)
        with patch.object(constructions, "_distinct_draws", recording):
            result = validate_good(weight_u_matrix(7, 3), params, np.random.default_rng(3),
                                   35_000, 0)
        assert result["passed"]
        keys = np.sort(np.concatenate(drawn), axis=1) @ [49, 7, 1]
        counts = np.unique(keys, return_counts=True)[1]
        assert len(counts) == 35 and counts.sum() == 35_000
        assert ((counts - 1000) ** 2 / 1000).sum() < 73.48

    def test_validation_memory_is_bounded(self):
        """Sets are counted in batches of about _CHUNK_BYTES, so peak memory
        does not grow with the number of sets (all 3000 at once: ~0.8 MB)."""
        g = weight_u_matrix(12, 2)  # 66 rows, good at budget 0
        params = SchemeParams(n=12, d=4, u=2)
        with patch.object(constructions, "_CHUNK_BYTES", 1 << 14):
            tracemalloc.start()
            try:
                assert validate_good(g, params, np.random.default_rng(0), 3000, 0)["passed"]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 4 << 14

    def test_locator_validated_at_twice_e(self):
        """At p=0.3 and seed 0 the first candidate passes its sample at budget
        e but not at 2e, the budget the decoder's e-flip guarantee needs."""
        params = SchemeParams(n=16, d=3, u=2, e=1, p=0.3)
        with pytest.raises(ConstructionError, match="in 1 attempts"):
            construct_good(params, np.random.default_rng(0), max_attempts=1)
        inner = constructions.validate_good
        with patch.object(constructions, "validate_good",
                          lambda g, p, rng, sets, budget: inner(g, p, rng, sets, budget // 2)):
            construct_good(params, np.random.default_rng(0), max_attempts=1)

    def test_results_do_not_depend_on_batch_size(self):
        """Results alone, with no generator state, at 4 KiB batches and at the
        default: validate_good's dicts (passing, and failing past 200 sets in
        batches of 8), sampled certificates (failing at draw 640, and passing)
        and construct_good's G, found on the fourth attempt."""
        params = SchemeParams(n=16, d=3, u=2, e=1, p=0.3)
        with pytest.raises(ConstructionError, match="in 3 attempts"):
            construct_good(params, np.random.default_rng(2), max_attempts=3)
        g = BitMatrix.random(np.random.default_rng(0), 34, 16, 2 / 3)
        m = BitMatrix.random(np.random.default_rng(36), 60, 16, 1 / 6)

        def results():
            return ([validate_good(g, params, np.random.default_rng(1), 200, budget)
                     for budget in (1, 2)],
                    [verify_disjunct(x, 4, mode="sampled", rng=np.random.default_rng(1))
                     for x in (m, BitMatrix.identity(16))],
                    construct_good(params, np.random.default_rng(2)))
        default = results()
        assert [r["passed"] for r in default[0]] == [True, False]
        assert default[0][1]["failure"]["cardinality"] == 3
        assert [c.trials for c in default[1]] == [640, constructions.DEFAULT_SAMPLED_TRIALS]
        with patch.object(constructions, "_CHUNK_BYTES", 1 << 12):
            assert results() == default

    def test_one_density_ships_only_good_locators(self):
        """At n=16, d=3, u=2, e=1, p=0.5 every seed 0-39 builds a scheme whose
        G is good at budget 2e for all 680 sets of size u..d."""
        params = SchemeParams(n=16, d=3, u=2, e=1, p=0.5)
        sets = [DefectiveSet(s) for size in (2, 3) for s in combinations(range(16), size)]
        assert len(sets) == 680
        for seed in range(40):
            g = generate_scheme(params, seed)[0].g
            assert all(is_good_for(g, dset, 2, 2).is_good for dset in sets), seed

    @pytest.mark.parametrize("attempts", [0, -2])
    def test_needs_an_attempt(self, attempts):
        params = SchemeParams(n=16, d=3, u=2, e=0, p=0.5)
        with pytest.raises(ParameterError):
            construct_good(params, np.random.default_rng(0), max_attempts=attempts)

    def test_fresh_sets_after_construction(self):
        # resampled validation, distinct generator from the construction one
        params = SchemeParams(n=24, d=3, u=2, e=0, p=0.6)
        g = construct_good(params, np.random.default_rng(8))
        fresh = np.random.default_rng(1234)
        for size in range(2, 4):
            for _ in range(100):
                dset = DefectiveSet(fresh.choice(24, size=size, replace=False).tolist())
                assert is_good_for(g, dset, 2, 0).is_good


class TestThresholdDisjunctImpliesGood:
    """Any matrix passing the threshold check at (max(u, d-u), u; e) is
    good for every defective set with u <= |D| <= d at the same budget."""

    @pytest.mark.parametrize("n,d,u", [(8, 4, 2), (10, 4, 2), (12, 3, 3), (9, 3, 2)])
    def test_connection(self, n, d, u):
        d0 = max(u, d - u)
        g = weight_u_matrix(n, u)
        report = verify_threshold_disjunct(g, d0, u, 0)
        assert report.passed
        for size in range(u, d + 1):
            for items in combinations(range(n), size):
                assert is_good_for(g, DefectiveSet(items), u, 0).is_good

    def test_connection_with_budget(self):
        # duplicating rows doubles every count, lifting the budget to 1
        n, d, u = 8, 4, 2
        base = weight_u_matrix(n, u).to_array()
        g = BitMatrix(np.vstack([base, base]))
        report = verify_threshold_disjunct(g, max(u, d - u), u, 1)
        assert report.passed
        for size in range(u, d + 1):
            for items in combinations(range(n), size):
                assert is_good_for(g, DefectiveSet(items), u, 1).is_good


def test_good_row_count_formula():
    assert good_row_count(SchemeParams(n=32, d=4, u=2), 2.0) == math.ceil(
        2 * 4 * math.log(16)
    )
