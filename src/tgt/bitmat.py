"""Bit-packed binary matrices and vectors.

All simulation state is binary: pooling matrices, item vectors, outcome
vectors.  The types here are immutable after construction, so they can be
shared freely between threads and hashed / compared by value.

Index convention: everything in memory is 0-based.  Conversion to the
1-based item and test numbering used in files, reports, and CLI output
happens only at serialization boundaries (see ``DefectiveSet.to_one_based``
and the writers in this module).
"""

from __future__ import annotations

import base64
import json

import numpy as np

from .errors import DimensionError, ParseError

MATRIX_KINDS = ("disjunct", "good", "final")

_MAGIC_MAT = "TGTMAT"
_MAGIC_VEC = "TGTVEC"
_VERSION = "v1"


def _as_bit_array(data, ndim: int) -> np.ndarray:
    a = np.asarray(data, dtype=np.uint8)
    if a.ndim != ndim:
        raise DimensionError(f"expected {ndim}-d data, got {a.ndim}-d")
    if a.size == 0:
        raise DimensionError("empty shapes are not allowed")
    if not np.all((a == 0) | (a == 1)):
        raise ValueError("entries must be 0 or 1")
    a = a.copy()
    a.flags.writeable = False
    return a


def pack_rows(a: np.ndarray) -> np.ndarray:
    """Pack 0/1 entries along the last axis in file bit order (LSB first)."""
    return np.packbits(a, axis=-1, bitorder="little")


def packed_stream(rows: np.ndarray, cols: int) -> np.ndarray:
    """Join rows made by `pack_rows` into the flat uint8 file payload.

    Bit i of the row-major stream lives in byte i//8 at position i%8,
    which is the same layout for any word size with little-endian byte
    order.  The payload is zero-padded to a whole number of 64-bit words.
    When cols is not a multiple of 8, the zero bits that end each packed
    row are squeezed out by unpacking and packing again.
    """
    if cols % 8 and rows.ndim > 1:
        bits = np.unpackbits(rows, axis=-1, count=cols, bitorder="little")
        rows = np.packbits(bits, bitorder="little")
    flat = rows.reshape(-1)
    if flat.size % 8:
        flat = np.concatenate([flat, np.zeros(-flat.size % 8, dtype=np.uint8)])
    return flat


def _unpack_bits(payload: bytes, nbits: int) -> np.ndarray:
    words = (nbits + 63) // 64
    if len(payload) != words * 8:
        raise ParseError(
            f"payload holds {len(payload)} bytes, expected {words * 8} for {nbits} bits"
        )
    raw = np.frombuffer(payload, dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little")
    if bits[nbits:].any():
        raise ParseError("nonzero padding bits in payload")
    return bits[:nbits]


class BitVector:
    """Immutable binary vector of length >= 1."""

    __slots__ = ("_a",)

    def __init__(self, data):
        object.__setattr__(self, "_a", _as_bit_array(data, 1))

    def __setattr__(self, name, value):
        raise AttributeError("BitVector is immutable")

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls(np.zeros(n, dtype=np.uint8))

    @classmethod
    def ones(cls, n: int) -> "BitVector":
        return cls(np.ones(n, dtype=np.uint8))

    @classmethod
    def from_support(cls, indices, n: int) -> "BitVector":
        a = np.zeros(n, dtype=np.uint8)
        idx = np.asarray(list(indices), dtype=np.int64)
        if idx.size:
            if idx.min() < 0 or idx.max() >= n:
                raise ValueError("support index out of range")
            a[idx] = 1
        return cls(a)

    def __len__(self) -> int:
        return self._a.size

    def __getitem__(self, i: int) -> int:
        return int(self._a[i])

    def to_array(self) -> np.ndarray:
        return self._a

    def weight(self) -> int:
        return int(self._a.sum())

    def support(self) -> np.ndarray:
        """Strictly increasing 0-based indices of the set bits."""
        return np.flatnonzero(self._a)

    def packed(self) -> bytes:
        return packed_stream(pack_rows(self._a), len(self)).tobytes()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVector)
            and self._a.shape == other._a.shape
            and bool(np.array_equal(self._a, other._a))
        )

    def __hash__(self) -> int:
        return hash((len(self), self.packed()))

    def __repr__(self) -> str:
        body = "".join(str(b) for b in self._a[:64])
        tail = "..." if len(self) > 64 else ""
        return f"BitVector({body}{tail}, len={len(self)})"


class BitMatrix:
    """Immutable binary matrix with at least one row and one column."""

    __slots__ = ("_a",)

    def __init__(self, data):
        object.__setattr__(self, "_a", _as_bit_array(data, 2))

    def __setattr__(self, name, value):
        raise AttributeError("BitMatrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(np.zeros((rows, cols), dtype=np.uint8))

    @classmethod
    def ones(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(np.ones((rows, cols), dtype=np.uint8))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(np.eye(n, dtype=np.uint8))

    @classmethod
    def from_rows(cls, rows) -> "BitMatrix":
        return cls(np.asarray(rows, dtype=np.uint8))

    @classmethod
    def random(cls, rng: np.random.Generator, rows: int, cols: int, density: float) -> "BitMatrix":
        return cls((rng.random((rows, cols)) < density).astype(np.uint8))

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    def row(self, i: int) -> BitVector:
        return BitVector(self._a[i])

    def col(self, j: int) -> BitVector:
        return BitVector(self._a[:, j])

    def to_array(self) -> np.ndarray:
        return self._a

    def packed(self) -> bytes:
        return packed_stream(pack_rows(self._a), self.cols).tobytes()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self._a.shape == other._a.shape
            and bool(np.array_equal(self._a, other._a))
        )

    def __hash__(self) -> int:
        return hash((self.shape, self.packed()))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


class DefectiveSet:
    """A set of item indices (0-based in memory, 1-based in output)."""

    __slots__ = ("_indices",)

    def __init__(self, indices=()):
        idx = tuple(sorted(set(int(i) for i in indices)))
        if idx and idx[0] < 0:
            raise ValueError("item indices must be nonnegative")
        object.__setattr__(self, "_indices", idx)

    def __setattr__(self, name, value):
        raise AttributeError("DefectiveSet is immutable")

    @property
    def indices(self) -> tuple[int, ...]:
        return self._indices

    @classmethod
    def from_vector(cls, x: BitVector) -> "DefectiveSet":
        return cls(x.support().tolist())

    @classmethod
    def from_one_based(cls, indices) -> "DefectiveSet":
        return cls(int(i) - 1 for i in indices)

    def to_vector(self, n: int) -> BitVector:
        return BitVector.from_support(self._indices, n)

    def to_one_based(self) -> list[int]:
        return [i + 1 for i in self._indices]

    def __len__(self) -> int:
        return len(self._indices)

    def __iter__(self):
        return iter(self._indices)

    def __contains__(self, item) -> bool:
        return int(item) in self._indices

    def __eq__(self, other) -> bool:
        return isinstance(other, DefectiveSet) and self._indices == other._indices

    def __hash__(self) -> int:
        return hash(self._indices)

    def __or__(self, other: "DefectiveSet") -> "DefectiveSet":
        return DefectiveSet(self._indices + other._indices)

    def __repr__(self) -> str:
        return f"DefectiveSet({list(self._indices)})"


def complement(m: BitMatrix) -> BitMatrix:
    """Flip every bit.  An involution: complement(complement(m)) == m."""
    return BitMatrix(1 - m.to_array())


def restrict_row(x: BitVector, g_row: BitVector) -> BitVector:
    """Entrywise AND: keeps the bits of x selected by g_row."""
    if len(x) != len(g_row):
        raise DimensionError(f"length mismatch: {len(x)} vs {len(g_row)}")
    return BitVector(x.to_array() & g_row.to_array())


def stack(top: BitMatrix, bottom: BitMatrix) -> BitMatrix:
    """Vertically stack two matrices with equal column counts."""
    if top.cols != bottom.cols:
        raise DimensionError(f"column mismatch: {top.cols} vs {bottom.cols}")
    return BitMatrix(np.vstack([top.to_array(), bottom.to_array()]))


# --- file format -----------------------------------------------------------
#
# Matrix files:  TGTMAT v1 rows=<r> cols=<c> kind=<k> params=<json>\n<base64>\n
# Vector files:  TGTVEC v1 len=<n>\n<base64>\n
#
# The payload is the packed bit stream described in packed_stream.


def _dump_params(params: dict | None) -> str:
    return json.dumps(params or {}, sort_keys=True, separators=(",", ":"))


def _file(header: str, payload: bytes | np.ndarray) -> bytes:
    return b"".join([header.encode("ascii"), b"\n", base64.b64encode(payload), b"\n"])


def serialize_packed(
    rows: int, cols: int, payload: bytes | np.ndarray, kind: str = "final",
    params: dict | None = None,
) -> bytes:
    """Matrix file for a payload already laid out by `packed_stream`."""
    if kind not in MATRIX_KINDS:
        raise ValueError(f"kind must be one of {MATRIX_KINDS}, got {kind!r}")
    return _file(
        f"{_MAGIC_MAT} {_VERSION} rows={rows} cols={cols} "
        f"kind={kind} params={_dump_params(params)}",
        payload,
    )


def serialize_matrix(m: BitMatrix, kind: str = "final", params: dict | None = None) -> bytes:
    return serialize_packed(m.rows, m.cols, m.packed(), kind, params)


def _parse_field(token: str, name: str) -> str:
    prefix = name + "="
    if not token.startswith(prefix):
        raise ParseError(f"expected {name}=..., got {token!r}")
    return token[len(prefix):]


def _parse_int_field(token: str, name: str) -> int:
    value = _parse_field(token, name)
    try:
        n = int(value)
    except ValueError as exc:
        raise ParseError(f"bad integer in {name}={value!r}") from exc
    if n < 1:
        raise ParseError(f"{name} must be >= 1, got {n}")
    return n


def _decode_payload(lines: list[str], nbits: int) -> np.ndarray:
    if len(lines) < 2 or not lines[1].strip():
        raise ParseError("missing payload")
    try:
        payload = base64.b64decode(lines[1].strip(), validate=True)
    except Exception as exc:
        raise ParseError("payload is not valid base64") from exc
    return _unpack_bits(payload, nbits)


def load_matrix(data: bytes) -> tuple[BitMatrix, str, dict]:
    """Parse a matrix file; returns (matrix, kind, params)."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError("matrix file is not ASCII") from exc
    lines = text.split("\n")
    fields = lines[0].split(" ", 5)
    if len(fields) != 6 or fields[0] != _MAGIC_MAT or fields[1] != _VERSION:
        raise ParseError(f"bad matrix header: {lines[0]!r}")
    rows = _parse_int_field(fields[2], "rows")
    cols = _parse_int_field(fields[3], "cols")
    kind = _parse_field(fields[4], "kind")
    if kind not in MATRIX_KINDS:
        raise ParseError(f"unknown matrix kind {kind!r}")
    try:
        params = json.loads(_parse_field(fields[5], "params"))
    except json.JSONDecodeError as exc:
        raise ParseError("params field is not valid JSON") from exc
    if not isinstance(params, dict):
        raise ParseError("params field must be a JSON object")
    bits = _decode_payload(lines, rows * cols)
    return BitMatrix(bits.reshape(rows, cols)), kind, params


def deserialize_matrix(data: bytes) -> BitMatrix:
    return load_matrix(data)[0]


def serialize_vector(v: BitVector) -> bytes:
    return _file(f"{_MAGIC_VEC} {_VERSION} len={len(v)}", v.packed())


def deserialize_vector(data: bytes) -> BitVector:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError("vector file is not ASCII") from exc
    lines = text.split("\n")
    fields = lines[0].split(" ")
    if len(fields) != 3 or fields[0] != _MAGIC_VEC or fields[1] != _VERSION:
        raise ParseError(f"bad vector header: {lines[0]!r}")
    n = _parse_int_field(fields[2], "len")
    return BitVector(_decode_payload(lines, n))
