"""Encoder and decoder for the two-matrix threshold testing scheme.

A scheme couples a locator matrix G (h x n) with a solver matrix M
(k x n, (d+1)-disjunct).  The full test matrix T interleaves,
for each row i of G, one block of k+1 pools:

    [ G_i ;  complement(M) masked by G_i ]

so T has (k+1) h rows.  (The paper's block also pools M masked by G_i and
decodes through y' = y OR NOT ybar, which is NOT ybar on every block of
weight u; that half is left out.)  T holds nothing beyond G and M, so a
scheme stores only those two and derives T when it is needed.  Outcomes are
one flat vector in the row order of T.  Under threshold-u semantics the block
for row i observes the restriction of the item vector x to supp(G_i), so
`encode` computes each distinct block once (at most min(h, 2^|supp(x)|) of
them) and copies it to the rows that share it.  When that restriction has
weight exactly u, a row of complement(M) reaches u exactly when the row of M
holds no defective, so NOT ybar is the boolean-OR outcome of M, which the
cover decoder inverts exactly.  At weight w, u < w <= d, each non-defective
lies in a row of M that holds no defective, which ybar reads positive, so
the cover rule keeps no non-defective; the size and OR-consistency checks
screen the rest.  Per-item occurrence counts outvote up to e erroneous
outcomes (an error corrupts at most one block, so a frequency threshold of
e+1 separates true items from fabricated ones).  The distinct ybar rows of
the positive blocks are decoded together by the cover rule, written once in
`_survivors` (first on M's first rows, then in full on the columns that
pass), and each decision goes to every block with those rows.  Both dedupes
go through `_distinct_rows`.  `generate_scheme` builds and certifies a
scheme from one seed, for the library and `tgt gen` alike.

A bundle is the files of `_bundle_files`: G.mat, M.mat and the
scheme.json manifest, each a function of G, M, the parameters, seed, c,
c_g and the two certificates; the manifest also records the SHA-256 of
G.mat and M.mat.  Saving writes them and loading accepts exactly them,
byte for byte, only with both certificates passed, and only with the M
and certificate that `construct_disjunct` builds.  T is not stored:
`Scheme.t` builds it, and `tgt export-t` writes it as a matrix file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .bitmat import (BitMatrix, BitVector, DefectiveSet, load_matrix, pack_rows, pack_words,
                     serialize_matrix)
from .constructions import (DEFAULT_ATTEMPTS, DEFAULT_C_G, DEFAULT_VALIDATION_SETS,
                            DisjunctCertificate, check_memory, construct_disjunct,
                            construct_good, validate_good)
from .errors import DimensionError, ParameterError, ParseError, VerificationError
from .semantics import SchemeParams


@dataclass(frozen=True, slots=True, eq=False)
class Scheme:
    """Immutable (params, G, M).  The test matrix T is derived from G and M."""

    params: SchemeParams
    g: BitMatrix
    m: BitMatrix

    def __post_init__(self):
        if self.g.cols != self.m.cols:
            raise DimensionError(f"column mismatch: G has {self.g.cols}, M has {self.m.cols}")
        if self.g.cols != self.params.n:
            raise DimensionError(f"params.n={self.params.n} but G and M have {self.g.cols} columns")

    @property
    def h(self) -> int:
        return self.g.rows

    @property
    def k(self) -> int:
        return self.m.rows

    @property
    def tests(self) -> int:
        return (self.k + 1) * self.h

    @property
    def t(self) -> BitMatrix:
        """The dense (k+1)h x n test matrix, built anew on every access.
        Building it, BitMatrix's 0/1 check included, peaks at 3 bytes per
        entry; BudgetError, before anything is allocated, when that exceeds
        physical memory."""
        check_memory(3 * self.tests * self.params.n, f"a dense {self.tests} x {self.params.n} T")
        blocks = self.g.to_array()[:, None, :] & _block_pattern(self.m.to_array())[None]
        return BitMatrix(blocks.reshape(self.tests, self.params.n))


def _block_pattern(ma: np.ndarray) -> np.ndarray:
    """Rows [1; complement(M)] of a 0/1 array M; block i of T is them masked by G_i."""
    return np.vstack([np.ones((1, ma.shape[1]), dtype=ma.dtype), 1 - ma])


def build_scheme(g: BitMatrix, m: BitMatrix, params: SchemeParams) -> Scheme:
    return Scheme(params, g, m)


def generate_scheme(params: SchemeParams, seed: int, c_g: float = DEFAULT_C_G,
                    max_attempts: int = DEFAULT_ATTEMPTS,
                    validation_sets: int = DEFAULT_VALIDATION_SETS,
                    ) -> tuple[Scheme, DisjunctCertificate, dict]:
    """Build M, disjunct by construction, and certify G, drawing G and a held-out
    validation of G at budget 2e from the last two children of SeedSequence(seed).spawn(3)
    (M draws nothing); VerificationError if G fails the held-out sets."""
    _, seed_g, seed_v = np.random.SeedSequence(seed).spawn(3)
    m, cert = construct_disjunct(params.n, params.d)
    g = construct_good(params, np.random.default_rng(seed_g), max_attempts=max_attempts,
                       validation_sets=validation_sets, c_g=c_g)
    validation = validate_good(g, params, np.random.default_rng(seed_v), validation_sets,
                               2 * params.e)
    if not validation["passed"]:
        raise VerificationError(f"G is not good at budget {2 * params.e} for held-out "
                                f"defective set {validation['failure']['items']}")
    return Scheme(params, g, m), cert, validation


def encode(scheme: Scheme, x: BitVector) -> BitVector:
    """Apply every test of T to x at threshold u, in the row order of T:
    [y_i, ybar-block] per locator row i.  Only S = supp(x) can add
    to a count, and block i depends only on G_i over S, so each distinct
    block, at most min(h, 2^|S|) of them, counts G_i & pattern_r over S once
    (float32, exact) and is copied to the rows that share it.
    """
    if len(x) != scheme.params.n:
        raise DimensionError(f"item vector has length {len(x)}, scheme needs {scheme.params.n}")
    support = x.support()
    if support.size < scheme.params.u:  # no test reaches the threshold
        return BitVector.zeros(scheme.tests)
    distinct, inverse = _distinct_rows(scheme.g.to_array()[:, support])
    pattern = _block_pattern(scheme.m.to_array()[:, support].astype(np.float32))
    outcomes = distinct.astype(np.float32) @ pattern.T >= scheme.params.u
    return BitVector._adopt(outcomes[inverse].reshape(-1))


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 0/1 array with columns, and each row's index among them, by one
    key per packed row: its `pack_words` word up to 64 bits (encode's |supp(x)| <= d columns),
    else a void (copied contiguous for the view); np.unique(axis=0) is 10x slower."""
    if a.shape[1] <= 64:
        keys = pack_words(a).ravel()
    else:
        packed = pack_rows(a)
        keys = np.ascontiguousarray(packed).view(f"V{packed.shape[1]}").ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return a[first], inverse


# flatten_outcomes and split_outcome are pass-throughs now that outcomes
# are one flat vector; the benchmark in perfbench/ still calls them by name.


def flatten_outcomes(y: BitVector) -> BitVector:
    """Return y unchanged: outcomes are already one flat vector."""
    return y


def split_outcome(y: BitVector, h: int, k: int) -> BitVector:
    """Check that y has (k+1)h bits and return it unchanged."""
    if len(y) != (k + 1) * h:
        raise DimensionError(f"outcome has {len(y)} bits, expected {(k + 1) * h}")
    return y


def _survivors(ma: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """The cover rule: column j survives iff no M-row containing j is
    negative.  `negative` marks the negative rows of one OR outcome (k,) or
    a stack (P, k), as a decoded block's ybar rows do; the result is a
    boolean (n,) or (P, n).  float32 counts stay exact up to 2**24 rows."""
    return negative.astype(np.float32) @ ma.astype(np.float32) == 0


def cover_decode(m: BitMatrix, yprime: BitVector) -> DefectiveSet:
    """Classic OR-semantics decoder: keep the columns whose every pool is
    positive.  Exact for |supp(x)| up to the disjunctness order of m."""
    if m.rows != len(yprime):
        raise DimensionError(f"matrix has {m.rows} rows, outcome has {len(yprime)}")
    return DefectiveSet(np.flatnonzero(_survivors(m.to_array(), 1 - yprime.to_array())).tolist())


@dataclass(frozen=True)
class BlockTrace:
    block: int
    positive: bool
    accepted: bool
    reason: str  # "negative" | "accepted" | "overflow" | "size" | "or-mismatch"
    items: tuple[int, ...] | None = None


@dataclass(frozen=True)
class CandidateMultiset:
    """Occurrence counts of candidate defectives across accepted blocks."""

    counts: dict[int, int]

    def at_least(self, threshold: int) -> DefectiveSet:
        """Items in at least `threshold` >= 1 accepted blocks.  With G good at
        budget 2e and at most e flipped outcomes, e+1 keeps exactly the
        true defectives."""
        if threshold < 1:
            raise ParameterError(f"vote threshold must be at least 1, got {threshold}")
        return DefectiveSet(j for j, c in self.counts.items() if c >= threshold)


@dataclass(frozen=True)
class DecodeReport:
    """What the decoder decided: one reason per block, the u items of each
    accepted block (in block order) and their occurrence counts.  Traces
    and status are views derived from these; the decoded set is
    `multiset.at_least(e + 1)`."""

    reasons: tuple[str, ...]
    accepted: dict[int, tuple[int, ...]]
    multiset: CandidateMultiset

    @property
    def status(self) -> str:
        if self.accepted:
            return "ok"
        negative = all(reason == "negative" for reason in self.reasons)
        return "no-positive-tests" if negative else "all-blocks-rejected"

    @property
    def traces(self) -> tuple[BlockTrace, ...]:
        """One BlockTrace per block, built anew on every access."""
        return tuple(BlockTrace(i, r != "negative", r == "accepted", r, self.accepted.get(i))
                     for i, r in enumerate(self.reasons))


# Rows of M in decode_blocks' screen.  A Kautz-Singleton M holds each column
# once in every block of q rows (one block per evaluation point), so the screen
# tests each column at about 64/q points, and a column outside D passes a point
# with probability about |D|/q; an identity M screens only its first 64 columns.
_SCREEN_ROWS = 64
_REASONS = np.array(["negative", "overflow", "size", "or-mismatch", "accepted"], dtype=object)
_NEGATIVE, _OVERFLOW, _SIZE, _MISMATCH, _ACCEPTED = range(len(_REASONS))  # codes into _REASONS


def decode_blocks(scheme: Scheme, y: BitVector) -> DecodeReport:
    """Decode a (k+1)h-bit outcome, deciding all positive blocks at once.

    For each positive locator row, the recovered OR outcome is NOT ybar:
    cover-decode it (a column survives iff no positive ybar row contains
    it), and accept the candidate set only if it has exactly u items whose
    pooled columns reproduce the recovered outcome.  This runs once per
    distinct ybar block, which depends only on D ∩ supp(G_i): support D and
    e flips give at most sum_{s=u..|D|} C(|D|, s) + e (random outcomes are
    all distinct).  The cover decode screens every column on M's first
    64 rows, which is the full rule when M has no more, else applies the
    rule to the columns that pass for some outcome.  A block's reason is
    the first that applies of negative, overflow (sizes > d+1), size,
    or-mismatch and accepted.  The report keeps those reasons, each
    accepted block's items and their occurrence counts, whose
    `at_least(e + 1)` is the set that tolerates e flipped outcomes.
    """
    h, k = scheme.h, scheme.k
    split_outcome(y, h, k)
    u = scheme.params.u
    ma = scheme.m.to_array()
    view = y.to_array().reshape(h, k + 1)
    positive = np.flatnonzero(view[:, 0])
    # (U, k) distinct ybar rows; block b of `positive` is row inverse[b]
    distinct, inverse = _distinct_rows(view[positive, 1:])
    head = _survivors(ma[:_SCREEN_ROWS], distinct[:, :_SCREEN_ROWS])  # (U, n)
    cols = np.flatnonzero(head.any(axis=0))  # the rest are dead in every block
    sub = ma[:, cols]
    alive = head[:, cols] if k <= _SCREEN_ROWS else _survivors(sub, distinct)  # (U, |cols|)
    sizes = alive.sum(axis=1)
    sized = sizes == u
    picks = np.nonzero(alive[sized])[1].reshape(-1, u)
    consistent = (sub[:, picks].max(axis=2).T != distinct[sized]).all(axis=1)  # OR == NOT ybar

    decided = np.where(sizes > scheme.params.d + 1, _OVERFLOW, _SIZE)
    decided[sized] = np.where(consistent, _ACCEPTED, _MISMATCH)
    codes = np.full(h, _NEGATIVE)
    codes[positive] = decided[inverse]
    taken = (decided == _ACCEPTED)[inverse]
    rank = np.cumsum(sized) - 1  # row of each sized distinct outcome in picks
    accepted, items = positive[taken], cols[picks[rank[inverse[taken]]]]
    votes = np.bincount(items.ravel(), minlength=scheme.params.n)
    voted = np.flatnonzero(votes)
    multiset = CandidateMultiset(dict(zip(voted.tolist(), votes[voted].tolist())))
    items_of = dict(zip(accepted.tolist(), map(tuple, items.tolist())))
    return DecodeReport(tuple(_REASONS[codes].tolist()), items_of, multiset)


def adversarial_flip_positions(scheme: Scheme, x: BitVector, e: int) -> tuple[int, ...]:
    """Pick e flip positions that hurt the decoder most: kill the locator
    bits of qualifying blocks for the defective with the fewest of them,
    then of the other qualifying blocks, then of the first blocks."""
    if e < 0:
        raise ParameterError(f"error count must be nonnegative, got {e}")
    support = x.support()
    g = scheme.g.to_array()[:, support]
    qualifying = g.sum(axis=1) == scheme.params.u
    target = []
    if qualifying.any():
        weakest = np.argmin(g[qualifying].sum(axis=0))
        target = np.flatnonzero(qualifying & (g[:, weakest] == 1)).tolist()
    blocks = dict.fromkeys([*target, *np.flatnonzero(qualifying).tolist(), *range(scheme.h)])
    stride = scheme.k + 1
    return tuple(sorted(i * stride for i in list(blocks)[:e]))


# --- scheme bundles --------------------------------------------------------


_FORMAT = "tgt-scheme-v3"
# The manifest values that every matrix file of a bundle carries in its header.
MATRIX_HEADER_KEYS = ("d", "u", "e", "seed", "c", "c_g")


def _bundle_files(scheme: Scheme, seed, c, c_g, m_certificate, g_validation) -> list:
    """Every file of a bundle as (name, bytes), in write order.

    G.mat and M.mat carry the parameters in their headers, and scheme.json,
    which records their SHA-256, comes last, so a bundle whose writing
    stopped early lacks its manifest.
    """
    values = {**asdict(scheme.params), "seed": seed, "c": c, "c_g": c_g}
    header = {key: values[key] for key in MATRIX_HEADER_KEYS}
    files = [("G.mat", serialize_matrix(scheme.g, "good", header)),
             ("M.mat", serialize_matrix(scheme.m, "disjunct", header))]
    manifest = {"format": _FORMAT, **values, "h": scheme.h, "k": scheme.k, "t": scheme.tests,
                "m_certificate": m_certificate, "g_validation": g_validation,
                "sha256": {name: hashlib.sha256(data).hexdigest() for name, data in files}}
    text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    return [*files, ("scheme.json", text.encode())]


def read_file(path: str | Path) -> bytes:
    """The bytes of a file; a missing or unreadable file is a ParseError."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _manifest_params(manifest, directory: Path) -> SchemeParams:
    if not isinstance(manifest, dict):
        raise ParseError(f"scheme manifest in {directory} is not a JSON object")
    names = [f.name for f in fields(SchemeParams)]
    if manifest.get("format") in ("tgt-scheme-v1", "tgt-scheme-v2"):
        flags = " ".join(f"--{key.replace('_', '-')} {manifest.get(key)}"
                         for key in (*names, "seed", "c_g"))
        raise ParseError(f"{directory} is a {manifest['format']} bundle, whose T had 2k+1 rows "
                         f"per block; rebuild it with `tgt gen {flags} --out <new directory>`")
    if manifest.get("format") != _FORMAT:
        raise ParseError(f"unknown scheme format {manifest.get('format')!r}")
    try:
        values = {name: manifest[name] for name in names}
    except KeyError as exc:
        raise ParseError(f"scheme manifest in {directory} has no {exc} entry") from exc
    for key, value in values.items():
        kinds, noun = ((int, float), "a number") if key == "p" else (int, "an integer")
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ParseError(f"scheme manifest in {directory}: {key}={value!r} is not {noun}")
    return SchemeParams(**values)


def save_bundle(directory: str | Path, scheme: Scheme, seed: int, c: float, c_g: float,
                m_certificate: dict, g_validation: dict) -> None:
    """Write the files of `_bundle_files`: G.mat, M.mat, scheme.json.

    Output is byte-reproducible: params serialize with sorted keys and
    nothing time- or host-dependent is recorded.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, data in _bundle_files(scheme, seed, c, c_g, m_certificate, g_validation):
        (directory / name).write_bytes(data)


def load_bundle(directory: str | Path) -> tuple[Scheme, dict]:
    """Rebuild a scheme from a bundle directory.

    The bundle is valid only when G.mat and M.mat have the SHA-256 digests
    that scheme.json records and each file is, byte for byte and up to its
    end, the file save_bundle writes for the stored G, M and the manifest's
    parameters, seed, c, c_g and certificates; ParseError if not.  It is
    then refused with VerificationError unless M's certificate is verified,
    G's validation passed, and M and the certificate are the ones
    construct_disjunct builds for n and d.
    """
    directory = Path(directory)
    data = {name: read_file(directory / name) for name in ("scheme.json", "G.mat", "M.mat")}
    try:
        manifest = json.loads(data["scheme.json"])
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ParseError(f"cannot read scheme manifest in {directory}: {exc}") from exc
    params = _manifest_params(manifest, directory)
    g, m = (load_matrix(data[name])[0] for name in ("G.mat", "M.mat"))
    digests = manifest.get("sha256")
    for name in ("G.mat", "M.mat"):  # a flipped payload bit still parses
        digest = hashlib.sha256(data[name]).hexdigest()
        if not isinstance(digests, dict) or digests.get(name) != digest:
            raise ParseError(f"{directory / name} does not match its SHA-256 in scheme.json")
    scheme = Scheme(params, g, m)
    stored = (manifest.get(key) for key in ("seed", "c", "c_g", "m_certificate", "g_validation"))
    try:
        files = _bundle_files(scheme, *stored)
    except RecursionError as exc:  # values too deep to write back
        raise ParseError(f"cannot check the bundle in {directory}: {exc}") from exc
    for name, expected in files:
        if data[name] != expected:
            raise ParseError(f"{directory / name} does not match the file save_bundle "
                             "writes for this G, M and manifest")
    for key, flag in (("m_certificate", "verified"), ("g_validation", "passed")):
        if not (isinstance(manifest[key], dict) and manifest[key].get(flag) is True):
            raise VerificationError(f"{directory / 'scheme.json'}: {key}.{flag} is not true")
    built, cert = construct_disjunct(params.n, params.d)
    if m != built or manifest["m_certificate"] != cert.to_json():
        raise VerificationError(f"{directory / 'M.mat'} is not the {cert.method} matrix and "
                                "certificate that construct_disjunct builds for "
                                f"n={params.n}, d={params.d}")
    return scheme, manifest
