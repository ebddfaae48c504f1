"""Bit-packed binary matrices and vectors.

All simulation state is binary: pooling matrices, item vectors, outcome
vectors.  The types here are immutable after construction, so they can be
shared freely between threads and hashed / compared by value.  This
module alone decides how bits are stored: `BitVector` and `BitMatrix`
share one immutable 0/1-array base, `pack_rows` is the one packer, `pack_words`
its one padding to whole 64-bit words of `payload_bytes`, and one reader
parses the headers of matrix and vector files.

Index convention: everything in memory is 0-based.  Item and test indices
are 1-based in reports and CLI output: ``DefectiveSet.to_one_based`` converts,
and the ``to_json`` of ``DisjunctCertificate`` and ``ThresholdDisjunctReport``,
``cli.run_trials`` and ``cli.cmd_decode`` add 1 by hand.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParseError

MATRIX_KINDS = ("disjunct", "good", "final")

_MAGIC_MAT = "TGTMAT"
_MAGIC_VEC = "TGTVEC"
_VERSION = "v1"


def pack_rows(a: np.ndarray) -> np.ndarray:
    """Pack 0/1 entries along the last axis in file bit order (LSB first)."""
    return np.packbits(a, axis=-1, bitorder="little")


def payload_bytes(nbits: int) -> int:
    """Bytes that hold nbits in whole 64-bit words, as the file payload does."""
    return -(-nbits // 64) * 8


def pack_words(a: np.ndarray) -> np.ndarray:
    """`pack_rows(a)` zero-padded to whole 64-bit words, as (..., words) uint64."""
    packed = pack_rows(a)
    words = np.zeros(packed.shape[:-1] + (payload_bytes(a.shape[-1]),), np.uint8)
    words[..., : packed.shape[-1]] = packed
    return words.view(np.uint64)


class _Bits:
    """Immutable nonempty 0/1 array with `_ndim` dimensions, compared and
    hashed by shape and bits."""

    __slots__ = ("_a",)
    _ndim: int

    def __init__(self, data):
        a = np.asarray(data)
        if a.ndim != self._ndim:
            raise DimensionError(f"expected {self._ndim}-d data, got {a.ndim}-d")
        if a.size == 0:
            raise DimensionError("empty shapes are not allowed")
        # Checked as given, since a cast first would make 256 a 0 and 1.7 a 1.
        if (a.max() > 1 if a.dtype == np.uint8  # one pass; bool needs no check
                else a.dtype != bool and np.any((a != 0) & (a != 1))):
            raise ValueError("entries must be 0 or 1")
        a = np.array(a, dtype=np.uint8)  # a private copy
        a.flags.writeable = False
        object.__setattr__(self, "_a", a)

    @classmethod
    def _adopt(cls, a: np.ndarray):
        """Take over a fresh nonempty bool array (0/1 by dtype) without __init__'s
        copy or check; it is frozen and stored as its uint8 view, so keep no other use."""
        if a.dtype != bool:
            raise TypeError(f"expected bool data, got {a.dtype}")
        if a.ndim != cls._ndim or a.size == 0:
            raise DimensionError(f"expected nonempty {cls._ndim}-d data, got shape {a.shape}")
        a.flags.writeable = False
        bits = object.__new__(cls)
        object.__setattr__(bits, "_a", a.view(np.uint8))
        return bits

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zeros(cls, *shape: int):
        return cls._adopt(np.zeros(shape, dtype=bool))

    @classmethod
    def ones(cls, *shape: int):
        return cls._adopt(np.ones(shape, dtype=bool))

    def to_array(self) -> np.ndarray:
        return self._a

    def packed(self) -> bytes:
        """The file payload: bit i of the row-major bit stream in byte i//8
        at position i%8, zero-padded to whole 64-bit words."""
        return pack_words(self._a.reshape(-1)).tobytes()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, _Bits)
            and self._a.shape == other._a.shape
            and bool(np.array_equal(self._a, other._a))
        )

    def __hash__(self) -> int:
        return hash((self._a.shape, self.packed()))


class BitVector(_Bits):
    """Immutable binary vector of length >= 1."""

    __slots__ = ()
    _ndim = 1

    def __len__(self) -> int:
        return self._a.size

    def __getitem__(self, i: int) -> int:
        return int(self._a[i])

    def weight(self) -> int:
        return int(self._a.sum())

    def support(self) -> np.ndarray:
        """Strictly increasing 0-based indices of the set bits."""
        return np.flatnonzero(self._a)

    def __repr__(self) -> str:
        body = "".join(str(b) for b in self._a[:64])
        tail = "..." if len(self) > 64 else ""
        return f"BitVector({body}{tail}, len={len(self)})"


class BitMatrix(_Bits):
    """Immutable binary matrix with at least one row and one column."""

    __slots__ = ()
    _ndim = 2

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(np.eye(n, dtype=np.uint8))

    @classmethod
    def random(cls, rng: np.random.Generator, rows: int, cols: int, density: float) -> "BitMatrix":
        """1 where a (rows, cols) uniform draw is below `density`, entry by entry."""
        return cls._adopt(rng.random((rows, cols)) < density)

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True, slots=True)
class DefectiveSet:
    """A set of item indices (0-based in memory, 1-based in output)."""

    indices: tuple[int, ...] = ()

    def __post_init__(self):
        idx = tuple(sorted(set(int(i) for i in self.indices)))
        if idx and idx[0] < 0:
            raise ValueError("item indices must be nonnegative")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def from_one_based(cls, indices) -> "DefectiveSet":
        return cls(int(i) - 1 for i in indices)

    def to_vector(self, n: int) -> BitVector:
        if self.indices and self.indices[-1] >= n:
            raise ValueError("support index out of range")
        a = np.zeros(n, dtype=np.uint8)
        a[list(self.indices)] = 1
        return BitVector(a)

    def to_one_based(self) -> list[int]:
        return [i + 1 for i in self.indices]

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, item) -> bool:
        return int(item) in self.indices

    def __repr__(self) -> str:
        return f"DefectiveSet({list(self.indices)})"


# --- file format -----------------------------------------------------------
#
# Matrix files:  TGTMAT v1 rows=<r> cols=<c> kind=<k> params=<json>\n<base64>\n
# Vector files:  TGTVEC v1 len=<n>\n<base64>\n
#
# The payload is the packed bit stream described in `_Bits.packed`.


def _dump_params(params: dict | None) -> str:
    return json.dumps(params or {}, sort_keys=True, separators=(",", ":"))


def _file(header: str, payload: bytes | np.ndarray) -> bytes:
    return b"".join([header.encode("ascii"), b"\n", base64.b64encode(payload), b"\n"])


def serialize_matrix(m: BitMatrix, kind: str = "final", params: dict | None = None) -> bytes:
    if kind not in MATRIX_KINDS:
        raise ValueError(f"kind must be one of {MATRIX_KINDS}, got {kind!r}")
    header = (f"{_MAGIC_MAT} {_VERSION} rows={m.rows} cols={m.cols} "
              f"kind={kind} params={_dump_params(params)}")
    return _file(header, m.packed())


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


def _split_file(data: bytes, magic: str, fields: int) -> tuple[list[str], str]:
    """Check a matrix or vector file's magic, version and that only whitespace follows
    its payload line; returns the other `fields - 2` header fields and the payload."""
    noun = "matrix" if magic == _MAGIC_MAT else "vector"
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{noun} file is not ASCII") from exc
    lines = text.split("\n", 2)
    head = lines[0].split(" ", fields - 1)
    if len(head) != fields or head[0] != magic or head[1] != _VERSION:
        raise ParseError(f"bad {noun} header: {lines[0]!r}")
    if len(lines) > 2 and lines[2].strip():
        raise ParseError(f"{noun} file has content after its payload line")
    return head[2:], lines[1].strip() if len(lines) > 1 else ""


def _unpack_bits(payload: str, nbits: int) -> np.ndarray:
    """The first nbits of a base64 payload line; the rest must be zero padding."""
    if not payload:
        raise ParseError("missing payload")
    try:
        raw = np.frombuffer(base64.b64decode(payload, validate=True), dtype=np.uint8)
    except Exception as exc:
        raise ParseError("payload is not valid base64") from exc
    size = payload_bytes(nbits)
    if raw.size != size:
        raise ParseError(
            f"payload holds {raw.size} bytes, expected {size} for {nbits} bits"
        )
    bits = np.unpackbits(raw, bitorder="little")
    if bits[nbits:].any():
        raise ParseError("nonzero padding bits in payload")
    return bits[:nbits]


def load_matrix(data: bytes) -> tuple[BitMatrix, str, dict]:
    """Parse a matrix file; returns (matrix, kind, params)."""
    fields, payload = _split_file(data, _MAGIC_MAT, 6)
    rows = _parse_int_field(fields[0], "rows")
    cols = _parse_int_field(fields[1], "cols")
    kind = _parse_field(fields[2], "kind")
    if kind not in MATRIX_KINDS:
        raise ParseError(f"unknown matrix kind {kind!r}")
    try:
        params = json.loads(_parse_field(fields[3], "params"))
    except (ValueError, RecursionError) as exc:  # also overlong integers, deep nesting
        raise ParseError("params field is not valid JSON") from exc
    if not isinstance(params, dict):
        raise ParseError("params field must be a JSON object")
    bits = _unpack_bits(payload, rows * cols)
    return BitMatrix._adopt(bits.view(bool).reshape(rows, cols)), kind, params


def serialize_vector(v: BitVector) -> bytes:
    return _file(f"{_MAGIC_VEC} {_VERSION} len={len(v)}", v.packed())


def deserialize_vector(data: bytes) -> BitVector:
    fields, payload = _split_file(data, _MAGIC_VEC, 3)
    n = _parse_int_field(fields[0], "len")
    return BitVector._adopt(_unpack_bits(payload, n).view(bool))
