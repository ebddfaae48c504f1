"""Encoder and decoder for the two-matrix threshold testing scheme.

A scheme couples a locator matrix G (h x n) with a solver matrix M
(k x n, certified (d+1)-disjunct).  The full test matrix T interleaves,
for each row i of G, one block of 2k+1 pools:

    [ G_i ;  M masked by G_i ;  complement(M) masked by G_i ]

so T has (2k+1) h rows.  T holds nothing beyond G and M, so a scheme
stores only those two and derives T when it is needed.  Outcomes are one
flat vector in the row order of T.  Under threshold-u semantics the
block for row i observes the restriction of the item vector to
supp(G_i).  When that restriction has weight exactly u, the three
recovery rules turn the pair of threshold outcome blocks into the
boolean-OR outcome of M, which the cover decoder inverts exactly.  Blocks whose restriction has a different
weight are screened out by the size and OR-consistency checks; the
decoder also keeps per-item occurrence counts so that up to e
erroneous outcomes can be outvoted (an error corrupts at most one block,
so a frequency threshold of e+1 separates true items from fabricated
ones).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bitmat import (
    BitMatrix,
    BitVector,
    DefectiveSet,
    load_matrix,
    pack_rows,
    packed_stream,
    serialize_matrix,
    serialize_packed,
)
from .errors import CoverOverflowError, DimensionError, ParameterError, ParseError
from .semantics import SchemeParams


class Scheme:
    """Immutable (params, G, M).  The test matrix T is derived from G and M."""

    __slots__ = ("params", "g", "m")

    def __init__(self, params: SchemeParams, g: BitMatrix, m: BitMatrix):
        if g.cols != m.cols:
            raise DimensionError(f"column mismatch: G has {g.cols}, M has {m.cols}")
        if g.cols != params.n:
            raise DimensionError(f"params.n={params.n} but matrices have {g.cols} columns")
        for name, value in (("params", params), ("g", g), ("m", m)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Scheme is immutable")

    @property
    def h(self) -> int:
        return self.g.rows

    @property
    def k(self) -> int:
        return self.m.rows

    @property
    def tests(self) -> int:
        return (2 * self.k + 1) * self.h

    @property
    def t(self) -> BitMatrix:
        """The dense (2k+1)h x n test matrix, built anew on every access."""
        blocks = self.g.to_array()[:, None, :] & _block_pattern(self.m)[None]
        return BitMatrix(blocks.reshape(self.tests, self.params.n))


def _block_pattern(m: BitMatrix) -> np.ndarray:
    """Rows [1; M; complement(M)]; block i of T is this pattern masked by G_i."""
    ma = m.to_array()
    return np.vstack([np.ones((1, ma.shape[1]), dtype=np.uint8), ma, 1 - ma])


def build_scheme(g: BitMatrix, m: BitMatrix, params: SchemeParams) -> Scheme:
    return Scheme(params, g, m)


def encode(scheme: Scheme, x: BitVector) -> BitVector:
    """Apply every test of T to x at threshold u.

    Bits are ordered [y_i, y-block, ybar-block] per locator row i, as the
    rows of T.  Only the columns in supp(x) can add to a count, so the
    counts are products over those columns; float32 keeps them exact.
    """
    if len(x) != scheme.params.n:
        raise DimensionError(f"item vector has length {len(x)}, scheme needs {scheme.params.n}")
    u, k = scheme.params.u, scheme.k
    support = x.support()
    g = scheme.g.to_array()[:, support].astype(np.float32)
    m = scheme.m.to_array()[:, support].astype(np.float32)
    g_counts = g.sum(axis=1)
    counts_m = g @ m.T  # (h, k): |G_i & M_r & x|
    y = np.empty((scheme.h, 2 * k + 1), dtype=np.uint8)
    y[:, 0] = g_counts >= u
    y[:, 1 : k + 1] = counts_m >= u
    y[:, k + 1 :] = g_counts[:, None] - counts_m >= u
    return BitVector(y.reshape(-1))


# flatten_outcomes and split_outcome are pass-throughs now that outcomes
# are one flat vector; the benchmark in perfbench/ still calls them by name.


def flatten_outcomes(y: BitVector) -> BitVector:
    """Return y unchanged: outcomes are already one flat vector."""
    return y


def split_outcome(y: BitVector, h: int, k: int) -> BitVector:
    """Check that y has (2k+1)h bits and return it unchanged."""
    if len(y) != (2 * k + 1) * h:
        raise DimensionError(f"outcome has {len(y)} bits, expected {(2 * k + 1) * h}")
    return y


def recover_yprime(y_block: np.ndarray, y_bar_block: np.ndarray) -> np.ndarray:
    """Recover the boolean-OR outcome of M from a block's two halves.

    Per position: a positive threshold outcome stays positive; a negative
    one is negative only when the complement half is positive, because
    with exactly u defectives in the block both halves can only be
    negative when the defectives straddle the pool and its complement.
    Equivalently y' = y OR NOT ybar.  The identity y' = M (OR) x holds
    precisely when the block's restricted item vector has weight u.
    Works elementwise on 0/1 arrays of any equal shape.
    """
    if y_block.shape != y_bar_block.shape:
        raise DimensionError("block halves have different shapes")
    return y_block | (1 - y_bar_block)


def cover_decode(m: BitMatrix, yprime: BitVector, cap: int | None = None) -> DefectiveSet:
    """Classic OR-semantics decoder: keep the columns whose every pool is
    positive.  Exact for |supp(x)| up to the disjunctness order of m.
    Raises CoverOverflowError when more than `cap` columns survive."""
    if m.rows != len(yprime):
        raise DimensionError(f"matrix has {m.rows} rows, outcome has {len(yprime)}")
    negative = (1 - yprime.to_array()).astype(np.int64)
    hits = negative @ m.to_array()
    candidates = np.flatnonzero(hits == 0)
    if cap is not None and candidates.size > cap:
        raise CoverOverflowError(int(candidates.size), cap)
    return DefectiveSet(candidates.tolist())


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

    def total(self) -> int:
        return sum(self.counts.values())

    def support(self) -> DefectiveSet:
        return DefectiveSet(self.counts.keys())

    def at_least(self, threshold: int) -> DefectiveSet:
        """Items in at least `threshold` >= 1 accepted blocks.  With G good at
        budget 2e and at most e flipped outcomes, e+1 keeps exactly the
        true defectives."""
        if threshold < 1:
            raise ParameterError(f"vote threshold must be at least 1, got {threshold}")
        return DefectiveSet(j for j, c in self.counts.items() if c >= threshold)


@dataclass(frozen=True)
class DecodeReport:
    defectives: DefectiveSet
    multiset: CandidateMultiset
    traces: tuple[BlockTrace, ...]
    status: str  # "ok" | "no-positive-tests" | "all-blocks-rejected"


def decode_blocks(scheme: Scheme, y: BitVector) -> DecodeReport:
    """Decode a (2k+1)h-bit outcome block by block, keeping an audit trace.

    For each positive locator row: recover the OR outcome, cover-decode
    it (capped at d+1 candidates), and accept the candidate set only if
    it has exactly u items whose pooled columns reproduce the recovered
    outcome.  Accepted sets accumulate into both a plain union
    (`defectives`) and a multiset of occurrence counts, whose
    `at_least(e + 1)` is the set that tolerates e flipped outcomes.
    """
    h, k = scheme.h, scheme.k
    if len(y) != (2 * k + 1) * h:
        raise DimensionError(f"outcome has {len(y)} bits, scheme has {(2 * k + 1) * h} tests")
    u = scheme.params.u
    cap = scheme.params.d + 1
    ma = scheme.m.to_array()
    view = y.to_array().reshape(h, 2 * k + 1)
    positive = np.flatnonzero(view[:, 0])
    yprime = recover_yprime(view[positive, 1 : k + 1], view[positive, k + 1 :])
    # hits[r, j] = number of M-rows containing j whose recovered outcome is 0;
    # column j survives the cover decode of positive block r iff hits[r, j] == 0.
    hits = (1 - yprime).astype(np.float32) @ ma.astype(np.float32)

    traces = [BlockTrace(i, False, False, "negative") for i in range(h)]
    counts: Counter[int] = Counter()
    for r, i in enumerate(positive.tolist()):
        candidates = np.flatnonzero(hits[r] == 0)
        if candidates.size > cap:
            traces[i] = BlockTrace(i, True, False, "overflow")
        elif candidates.size != u:
            traces[i] = BlockTrace(i, True, False, "size")
        elif not np.array_equal(ma[:, candidates].max(axis=1), yprime[r]):
            traces[i] = BlockTrace(i, True, False, "or-mismatch")
        else:
            items = tuple(candidates.tolist())
            counts.update(items)
            traces[i] = BlockTrace(i, True, True, "accepted", items)

    if counts:
        status = "ok"
    elif not positive.size:
        status = "no-positive-tests"
    else:
        status = "all-blocks-rejected"
    multiset = CandidateMultiset(dict(sorted(counts.items())))
    return DecodeReport(multiset.support(), multiset, tuple(traces), status)


def adversarial_flip_positions(scheme: Scheme, x: BitVector, e: int) -> tuple[int, ...]:
    """Pick e flip positions that hurt the decoder most: kill the locator
    bits of qualifying blocks for the defective with the fewest of them."""
    if e == 0:
        return ()
    stride = 2 * scheme.k + 1
    ga = scheme.g.to_array()
    xa = x.to_array().astype(np.int64)
    qualifying = ga @ xa == scheme.params.u
    support = np.flatnonzero(xa)
    if support.size == 0 or not qualifying.any():
        return tuple(i * stride for i in range(min(e, scheme.h)))
    per_item = ga[qualifying][:, support].sum(axis=0)
    target = int(support[np.argmin(per_item)])
    blocks = np.flatnonzero(qualifying & (ga[:, target] == 1)).tolist()
    for i in np.flatnonzero(qualifying).tolist():
        if len(blocks) >= e:
            break
        if i not in blocks:
            blocks.append(i)
    for i in range(scheme.h):
        if len(blocks) >= e:
            break
        if i not in blocks:
            blocks.append(i)
    return tuple(sorted(i * stride for i in blocks[:e]))


# --- scheme bundles --------------------------------------------------------


def _header_params(params: SchemeParams, seed: int, c: float, c_g: float) -> dict:
    return {"d": params.d, "u": params.u, "e": params.e, "seed": seed, "c": c, "c_g": c_g}


def _t_file(scheme: Scheme, header: dict) -> bytes:
    """T.mat bytes, made from the packed rows of G and [1; M; complement(M)]
    without building T: packed T row (i, r) is packed G_i AND packed pattern r."""
    g = pack_rows(scheme.g.to_array())
    pattern = pack_rows(_block_pattern(scheme.m))
    # AND whole words at a time: numpy is slow on many short byte rows.
    word = np.dtype(f"u{math.gcd(g.shape[1], 8)}")
    rows = (g.view(word)[:, None, :] & pattern.view(word)[None]).view(np.uint8)
    payload = packed_stream(rows.reshape(-1, g.shape[1]), scheme.params.n)
    return serialize_packed(scheme.tests, scheme.params.n, payload, "final", header)


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def save_bundle(
    directory: str | Path,
    scheme: Scheme,
    seed: int,
    c: float,
    c_g: float,
    m_certificate: dict,
    g_validation: dict,
) -> None:
    """Write G.mat / M.mat / T.mat plus a scheme.json manifest.

    Output is byte-reproducible: params serialize with sorted keys and
    nothing time- or host-dependent is recorded.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    header = _header_params(scheme.params, seed, c, c_g)
    (directory / "G.mat").write_bytes(serialize_matrix(scheme.g, "good", header))
    (directory / "M.mat").write_bytes(serialize_matrix(scheme.m, "disjunct", header))
    (directory / "T.mat").write_bytes(_t_file(scheme, header))
    manifest = {
        "format": "tgt-scheme-v1",
        "n": scheme.params.n,
        "d": scheme.params.d,
        "u": scheme.params.u,
        "e": scheme.params.e,
        "p": scheme.params.p,
        "c": c,
        "c_g": c_g,
        "seed": seed,
        "h": scheme.h,
        "k": scheme.k,
        "t": scheme.tests,
        "m_certificate": m_certificate,
        "g_validation": g_validation,
    }
    (directory / "scheme.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )


def load_bundle(directory: str | Path) -> tuple[Scheme, dict]:
    """Rebuild a scheme from a bundle directory.

    T.mat must equal, byte for byte, the file save_bundle would write for
    the stored G and M under G.mat's header parameters.
    """
    directory = Path(directory)
    try:
        manifest = json.loads(_read(directory / "scheme.json"))
    except ValueError as exc:
        raise ParseError(f"cannot read scheme manifest in {directory}: {exc}") from exc
    if manifest.get("format") != "tgt-scheme-v1":
        raise ParseError(f"unknown scheme format {manifest.get('format')!r}")
    try:
        params = SchemeParams(
            n=manifest["n"], d=manifest["d"], u=manifest["u"],
            e=manifest["e"], p=manifest["p"],
        )
    except KeyError as exc:
        raise ParseError(f"scheme manifest in {directory} has no {exc} entry") from exc
    g, kind_g, header = load_matrix(_read(directory / "G.mat"))
    m, kind_m, _ = load_matrix(_read(directory / "M.mat"))
    if kind_g != "good" or kind_m != "disjunct":
        raise ParseError(f"unexpected matrix kinds {kind_g!r}/{kind_m!r} in bundle")
    scheme = Scheme(params, g, m)
    if _read(directory / "T.mat") != _t_file(scheme, header):
        raise ParseError("stored final matrix does not match G and M")
    return scheme, manifest
