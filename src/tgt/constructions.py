"""Builders and verifiers for the combinatorial objects the decoders need.

Three properties matter here:

* d-disjunct: for every column j and every d other columns, some row
  contains j and none of the others.  Guarantees exact OR-decoding of up
  to d defectives via the cover decoder.
* threshold (d, u; e)-disjunct: for every critical set S (u <= |S| <= d),
  disjoint zero set Z (|Z| <= |S|) and distinguished j in S, strictly more
  than e rows hit S in exactly u columns, miss Z entirely, and contain j.
* goodness for a fixed defective set D at budget e: some rows each contain
  exactly u defectives, together they cover D, and every defective lies in
  more than e of them.

The solver matrix is disjunct by construction: the Kautz-Singleton code
(Reed-Solomon over a prime field, concatenated with the identity) with the
fewest rows, the identity being its one-point (kappa = 1) case, so it draws
nothing and needs no search.  Goodness is a property of the defective set,
so each locator candidate is drawn at density u/d and validated on defective
sets sampled from a stream of its own; construction is deterministic given a
seeded generator and fails hard after max_attempts rather than degrade.
The universal properties are exponential to check; the verifiers below
serve `tgt verify` and cross-check the constructions.

Disjunctness is checked on packed column bitsets (uint64 words of rows):
one kernel tests a batch of (S1, j) pairs on word 0 (rows 0-63) and ANDs
later words only for the few pairs it leaves open.  Batches of
lexicographic subsets (exhaustive: each (d-1)-prefix once, its last
columns expanded in numpy) or of (j, S1) draws (sampled), sized from the
temporaries each mode holds, replace one Python step per subset or draw;
certificates and witnesses equal the step-by-step walk.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from .bitmat import BitMatrix, DefectiveSet, pack_words
from .errors import BudgetError, ConstructionError, ParameterError
from .semantics import SchemeParams

DEFAULT_BUDGET = 20_000_000
DEFAULT_SAMPLED_TRIALS = 20_000
DEFAULT_C_G = 2.0  # scale of the locator row count
DEFAULT_ATTEMPTS = 50  # candidates construct_good draws before it fails
DEFAULT_VALIDATION_SETS = 200  # sampled defective sets per cardinality
_CHUNK_BYTES = 1 << 20  # temporaries per batched disjunctness check


def work_budget() -> int:
    """The TGT_BUDGET environment cap, else the default: the library's one work cap."""
    env = os.environ.get("TGT_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        budget = int(env)
    except ValueError as exc:
        raise ParameterError(f"TGT_BUDGET must be an integer, got {env!r}") from exc
    if budget < 0:
        raise ParameterError(f"TGT_BUDGET must be nonnegative, got {budget}")
    return budget


def _check_at_least(name: str, value: int, low: int) -> None:
    if value < low:
        raise ParameterError(f"{name} must be at least {low}, got {value}")


def check_memory(nbytes: float, what: str) -> None:
    """BudgetError unless `what`, nbytes large, fits in physical memory (a
    NaN size never does); called before anything is allocated."""
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if not nbytes <= memory:
        raise BudgetError(f"{what} does not fit in the {memory} bytes of physical memory")


def good_row_count(params: SchemeParams, c_g: float = DEFAULT_C_G) -> int:
    """Rows for a random locator-matrix candidate.

    Grows with d0^2 log(n/d0) and with the 1/(1-p)^2 margin; positive, as
    d0 < n.  BudgetError, before anything is allocated, when a candidate's
    (rows, n) float64 draw would not fit in physical memory.
    """
    if not (math.isfinite(c_g) and c_g > 0):
        raise ParameterError(f"c_g must be finite and > 0, got {c_g}")
    d0 = params.d0
    h = c_g * d0 * d0 * math.log(params.n / d0) / (1.0 - params.p) ** 2
    check_memory(8 * math.ceil(h) * params.n if math.isfinite(h) else math.inf,
                 f"a {h:.4g} x {params.n} float64 candidate draw")
    return math.ceil(h)


@dataclass(frozen=True)
class DisjunctCertificate:
    d: int
    verified: bool
    method: str  # "exhaustive" | "sampled" | "kautz-singleton" | "identity"
    trials: int
    witness: tuple[tuple[int, ...], int] | None = None  # (S1, isolated column)
    code: tuple[int, int, int] | None = None  # a Kautz-Singleton code's (q, kappa, m)

    def to_json(self) -> dict:
        out = {
            "d": self.d,
            "verified": self.verified,
            "method": self.method,
            "trials": self.trials,
        }
        if self.code is not None:
            out.update(zip(("q", "kappa", "m"), self.code))
        if self.witness is not None:
            s1, j = self.witness
            out["witness"] = {"s1": [i + 1 for i in s1], "column": j + 1}
        return out


@dataclass(frozen=True)
class GoodnessReport:
    per_item_counts: dict[int, int]  # item -> rows meeting D in exactly u items that contain it
    is_good: bool


@dataclass(frozen=True)
class ThresholdDisjunctReport:
    passed: bool
    min_count: int
    witness: tuple[tuple[int, ...], tuple[int, ...], int] | None  # (S, Z, column)
    triples_checked: int

    def to_json(self) -> dict:
        out = {"verified": self.passed, "min_count": self.min_count,
               "triples_checked": self.triples_checked}
        if self.witness is not None:
            s, z, j = self.witness
            out["witness"] = {"critical": [i + 1 for i in s], "zero": [i + 1 for i in z],
                              "column": j + 1}
        return out


def _uncovered(
    unions: np.ndarray, cand: np.ndarray, s1: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The (subset, candidate) pairs whose candidate has no row outside the
    subset's S1 union, as two index arrays in row-major order.

    `unions` holds a batch of S1 unions as (B, words), and `cand` the packed
    candidates: all columns, (cols, words), or one per subset, (B, 1, words).
    The columns in `s1`, (B, d), are left out.  Word 0 (rows 0-63) settles
    nearly every pair; each later word is ANDed only for the pairs still open.
    """
    outside = ~unions
    covered = (outside[:, None, 0] & cand[..., 0]) == 0
    if s1 is not None:
        covered.reshape(-1)[np.arange(0, covered.size, covered.shape[1])[:, None] + s1] = False
    b, c = np.divmod(np.flatnonzero(covered), covered.shape[1])
    cand = np.broadcast_to(cand, covered.shape + cand.shape[-1:])
    for q in range(1, unions.shape[1]):
        if not len(b):
            break
        keep = (outside[b, q] & cand[b, c, q]) == 0
        b, c = b[keep], c[keep]
    return b, c


def _distinct_draws(gen: np.random.Generator, n: int, count: int, size: int) -> np.ndarray:
    """`count` draws of `size` distinct items out of n, as (count, size), from
    one `gen.integers` call: rank i indexes the n - i items not drawn before
    it, ascending, so it is shifted past each earlier pick in ascending order."""
    picks = gen.integers(0, n - np.arange(size), size=(count, size)).T.copy()
    drawn = []  # each draw's earlier picks, ascending: one array per place
    for pick in picks:
        for low in drawn:
            pick += pick >= low
        for k, low in enumerate(drawn):  # insert the shifted pick by min/max, no sort
            drawn[k], pick = np.minimum(low, pick), np.maximum(low, pick)
        drawn.append(pick)
    return picks.T


def _first_failure(gen: np.random.Generator, n: int, size: int, total: int, batch: int, failing):
    """Draw `total` sets of `size` distinct items out of n, `batch` at a time, until
    `failing(draws)` (ascending indices of a batch's failing rows) names one; returns
    its (index, items list), or None.  `gen` ends past the last batch drawn."""
    for start in range(0, total, batch):
        draws = _distinct_draws(gen, n, min(batch, total - start), size)
        if len(failed := failing(draws)):
            return start + int(failed[0]), draws[failed[0]].tolist()
    return None


def verify_disjunct(
    m: BitMatrix,
    d: int,
    mode: str = "exhaustive",
    trials: int = DEFAULT_SAMPLED_TRIALS,
    rng: np.random.Generator | None = None,
) -> DisjunctCertificate:
    """Check d-disjunctness by enumeration or uniform sampling.

    Exhaustive mode walks every d-subset S1 once, in lexicographic order,
    and checks that every column outside S1 is isolated by some row that
    misses S1 entirely; `trials` counts the (S1, j) pairs checked up to
    and including the first failing subset, whose lowest non-isolated
    column is the witness.  Sampled mode draws `trials` uniform (S1, j) pairs,
    d + 1 distinct columns each (j, then S1) from one `rng.integers` draw
    of ranks, and stops at the first violation, leaving `rng` past the batch
    that held it; it can only ever certify "no violation found in `trials` draws".
    """
    n = m.cols
    if d < 1 or d >= n:
        raise ParameterError(f"need 1 <= d < cols, got d={d}, cols={n}")
    if mode not in ("exhaustive", "sampled"):
        raise ParameterError(f"unknown mode {mode!r}")
    if mode == "sampled" and trials < 1:
        raise ParameterError(f"sampled mode needs at least one draw, got trials={trials}")
    if mode == "exhaustive":
        cost = math.comb(n, d) * n
        cap = work_budget()
        if cost > cap:
            raise BudgetError(
                f"exhaustive check needs ~{cost} steps, budget is {cap}; "
                "switch to sampled mode"
            )
    # Column bitsets, (n, words), packed from a contiguous copy: 1.5x faster than the strided .T.
    cols = pack_words(np.ascontiguousarray(m.to_array().T))
    # Subsets or draws per kernel call, near _CHUNK_BYTES: each holds d + 1
    # indices or ranks and d + 2 (words,) gathers and unions; a subset also
    # holds its row of the (B, n) word-0 AND and of the covered mask.
    held = 8 * (d + 1 + (d + 2) * cols.shape[1]) + (9 * n if mode == "exhaustive" else 0)
    batch = max(1, _CHUNK_BYTES // held)

    if mode == "exhaustive":
        # S1 in lexicographic order: each prefix of d - 1 columns from
        # itertools, then every last column past it, expanded by np.repeat.
        prefixes = combinations(range(n - 1), d - 1)
        unread, start, pending = math.comb(n - 1, d - 1), 0, np.empty((0, d - 1), np.intp)
        while unread or len(pending):
            if unread and len(pending) < batch:
                more = min(batch, unread)
                flat = np.fromiter(chain.from_iterable(islice(prefixes, more)), np.intp)
                pending = np.concatenate([pending, flat.reshape(more, d - 1)])
                unread -= more
            firsts = pending[:, -1:].max(axis=1, initial=-1) + 1  # lowest last columns
            ends = np.cumsum(n - firsts)  # subsets up to and including each prefix
            p = max(1, int(np.searchsorted(ends, batch, side="right")))
            pre, pending, counts = pending[:p], pending[p:], n - firsts[:p]
            last = np.arange(ends[p - 1]) + np.repeat(firsts[:p] - ends[:p] + counts, counts)
            s1 = np.column_stack([np.repeat(pre, counts, axis=0), last])
            unions = np.repeat(np.bitwise_or.reduce(cols[pre.T], axis=0), counts, axis=0)
            failed, j = _uncovered(unions | cols[last], cols, s1)
            if len(failed):  # the first failing subset and its lowest covered column
                b = int(failed[0])
                witness = (tuple(int(i) for i in s1[b]), int(j[0]))
                return DisjunctCertificate(d, False, mode, (start + b + 1) * (n - d), witness)
            start += len(s1)
        return DisjunctCertificate(d, True, mode, math.comb(n, d) * (n - d))

    def failing(picks):  # each row: j, then S1
        return _uncovered(np.bitwise_or.reduce(cols[picks[:, 1:].T], axis=0),
                          cols[picks[:, 0]][:, None, :])[0]
    gen = rng if rng is not None else np.random.default_rng(0)
    found = _first_failure(gen, n, d + 1, trials, batch, failing)
    if found is None:
        return DisjunctCertificate(d, True, mode, trials)
    t, (j, *s1) = found
    return DisjunctCertificate(d, False, mode, t + 1, (tuple(sorted(s1)), j))


def check_disjunct_slow(m: BitMatrix, d: int) -> bool:
    """Independent plain-loop reimplementation of the disjunct property.

    Kept deliberately dumb (sets and Python loops) so it shares no code
    with verify_disjunct; used to cross-check it in tests.
    """
    n = m.cols
    supports = [set(np.flatnonzero(m.to_array()[:, j]).tolist()) for j in range(n)]
    for s1 in combinations(range(n), d):
        union = set()
        for jj in s1:
            union |= supports[jj]
        for j in range(n):
            if j in s1:
                continue
            if not (supports[j] - union):
                return False
    return True


def _ks_code(n: int, order: int) -> tuple[int, int, int]:
    """(q, kappa, m) of the order-disjunct Kautz-Singleton code on n columns with
    the fewest rows m*q, the smaller kappa on ties.  Columns are the polynomials of
    degree < kappa over GF(q), q^kappa >= n; two agree on at most kappa - 1 of the
    m = order (kappa - 1) + 1 <= q points.  kappa = 1 is the identity (n, 1, 1):
    one point and column j the constant j, so that q = n need not be prime."""
    best, fewest, kappa = (n, 1, 1), n, 2
    while (m := order * (kappa - 1) + 1) ** 2 < fewest:  # q >= m: no later kappa can win
        q = max(m, round(n ** (1 / kappa)))  # at most the least q with q^kappa >= n
        while q ** kappa < n or any(q % p == 0 for p in range(2, math.isqrt(q) + 1)):
            q += 1  # m >= 3, so q runs over primes
        if m * q < fewest:
            best, fewest = (q, kappa, m), m * q
        kappa += 1
    return best


def construct_disjunct(n: int, d: int, rng: np.random.Generator | None = None,
                       ) -> tuple[BitMatrix, DisjunctCertificate]:
    """The (d+1)-disjunct Kautz-Singleton code of `_ks_code`, proven by construction;
    draws nothing, so `rng` is ignored.  Column j is the polynomial whose coefficients,
    lowest first, are the base-q digits of j; row a*q + s holds the columns whose
    polynomial takes the value s at the point a, for a < m and s < q.  The kappa = 1
    code, the identity, is certified as "identity" and carries no (q, kappa, m)."""
    if d < 1:
        raise ParameterError(f"need d >= 1, got {d}")
    if d + 1 >= n:
        raise ParameterError(f"need d+1 < n, got d={d}, n={n}")
    q, kappa, m = code = _ks_code(n, d + 1)
    check_memory(m * q * n, f"a {m * q} x {n} solver matrix")
    rest, digits = np.arange(n), []
    for _ in range(kappa):
        rest, digit = np.divmod(rest, q)
        digits.append(digit)
    points, symbols = np.arange(m)[:, None], np.zeros((m, n), np.int64)
    for digit in reversed(digits):  # Horner's rule at every point, mod q
        symbols = (symbols * points + digit) % q
    a = np.zeros((m, q, n), dtype=bool)
    a[points, symbols, np.arange(n)] = True
    cert = (DisjunctCertificate(d + 1, True, "identity", 0) if kappa == 1 else
            DisjunctCertificate(d + 1, True, "kautz-singleton", 0, code=code))
    return BitMatrix._adopt(a.reshape(m * q, n)), cert


def verify_threshold_disjunct(g: BitMatrix, d: int, u: int, e: int) -> ThresholdDisjunctReport:
    """Exhaustively check the threshold-disjunct property at desk scale.

    A row that misses Z misses every subset of Z, so a count only falls as Z
    grows and the minimum over |Z| <= |S| is reached at |Z| = min(|S|, n - |S|):
    only those (S, Z, j) triples are counted, one array product per S, and the
    witness is the first lowest among them.  Their number is charged against
    the work budget up front.
    """
    n = g.cols
    if not (1 <= u <= d < n):
        raise ParameterError(f"need 1 <= u <= d < n, got u={u}, d={d}, n={n}")
    _check_at_least("error budget e", e, 0)
    total = sum(math.comb(n, s) * math.comb(n - s, min(s, n - s)) * s for s in range(u, d + 1))
    cap = work_budget()
    if total > cap:
        raise BudgetError(f"threshold check needs ~{total} triples, budget is {cap}")

    a = g.to_array().astype(np.float32)  # counts exact below 2^24 rows
    lowest, witness = g.rows + 1, None  # no count exceeds the row count
    for s_size in range(u, d + 1):
        # The largest zero sets: positions into [n] minus S, lexicographic, and their 0/1 rows.
        pick = np.array(list(combinations(range(n - s_size), min(s_size, n - s_size))), np.intp)
        mask = np.eye(n - s_size, dtype=np.float32)[pick].sum(axis=1)
        for s in combinations(range(n), s_size):
            qualifying = a[a[:, s].sum(axis=1) == u]  # rows meeting S in exactly u items
            rest = np.delete(np.arange(n), s)
            # counts[Z, j]: qualifying rows that miss Z and contain j.
            counts = ((mask @ qualifying[:, rest].T) == 0) @ qualifying[:, s]
            if counts.min() < lowest:
                zi, ji = divmod(int(counts.argmin()), s_size)
                lowest, witness = int(counts.min()), (s, tuple(rest[pick[zi]].tolist()), s[ji])
    passed = lowest > e
    return ThresholdDisjunctReport(passed, lowest, None if passed else witness, total)


def is_good_for(g: BitMatrix, dset: DefectiveSet, u: int, e: int) -> GoodnessReport:
    """Fixed-D goodness check.

    Qualifying rows are those meeting D in exactly u items.  The matrix is
    good for D when every item of D lies in strictly more than e of them,
    so that the qualifying rows also cover D.
    """
    _check_at_least("error budget e", e, 0)
    items = np.asarray(dset.indices, dtype=np.int64)
    if items.size and items.max() >= g.cols:
        raise ParameterError("defective index out of range")
    sub = g.to_array()[:, items]
    counts = sub[sub.sum(axis=1) == u].sum(axis=0)
    per_item = {int(j): int(c) for j, c in zip(items, counts)}
    return GoodnessReport(per_item, bool((counts > e).all()))


def validate_good(
    g: BitMatrix,
    params: SchemeParams,
    rng: np.random.Generator,
    sets_per_cardinality: int,
    budget_e: int,
) -> dict:
    """Sample defective sets of every cardinality in [u, d] and run the
    fixed-D check at the given budget, one count per batch of sets.  Returns
    a summary dict; "failure" holds the first failing (cardinality, items)."""
    _check_at_least("sets per cardinality", sets_per_cardinality, 1)
    if g.cols < params.n:
        raise ParameterError(f"G has {g.cols} columns, fewer than n={params.n}")
    items = np.ascontiguousarray(g.to_array().T)  # (n, h): each item's rows, contiguous
    # Sets per batch: the (B, size, h) gather, its masked copy and the (B, h) row sums.
    batch = max(1, _CHUNK_BYTES // (g.rows * (2 * params.d + 9)))

    def failing(sets):
        sub = items[sets]
        qualifying = sub.sum(axis=1, keepdims=True) == params.u
        return np.flatnonzero(((sub & qualifying).sum(axis=2) <= budget_e).any(axis=1))
    for size in range(params.u, params.d + 1):
        found = _first_failure(rng, params.n, size, sets_per_cardinality, batch, failing)
        if found is not None:
            break
    return {
        "passed": found is None,
        "sets_per_cardinality": sets_per_cardinality,
        "budget": budget_e,
        "failure": None if found is None else {
            "cardinality": size, "items": DefectiveSet(found[1]).to_one_based(),
        },
    }


def construct_good(
    params: SchemeParams,
    rng: np.random.Generator,
    max_attempts: int = DEFAULT_ATTEMPTS,
    validation_sets: int = DEFAULT_VALIDATION_SETS,
    c_g: float = DEFAULT_C_G,
) -> BitMatrix:
    """Build a locator matrix validated at budget 2e on sampled sets.

    Every entry of a candidate is 1 with probability u/d, so a row meets a
    defective set of any size in [u, d] in exactly u items with constant
    probability.  Each attempt draws its h x n candidate from `rng`, then
    the seed of a stream of its own that validates it with `validation_sets`
    sampled defective sets per cardinality at budget 2e: every attempt takes
    the same amount from `rng`, however far its check drew.  The last
    failure is reported if all attempts are exhausted.
    """
    _check_at_least("max_attempts", max_attempts, 1)
    h = good_row_count(params, c_g)
    last_failure = None
    for _ in range(max_attempts):
        g = BitMatrix.random(rng, h, params.n, params.u / params.d)
        check = np.random.default_rng(rng.integers(2**63))
        result = validate_good(g, params, check, validation_sets, 2 * params.e)
        if result["passed"]:
            return g
        last_failure = result["failure"]
    raise ConstructionError(
        f"no good matrix found in {max_attempts} attempts "
        f"(n={params.n}, d={params.d}, u={params.u}, e={params.e}, "
        f"p={params.p}, h={h}); last failure: {last_failure}",
    )

