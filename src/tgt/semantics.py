"""Test semantics: the threshold and boolean-OR pool operators.

A pool (one matrix row) is positive under the threshold operator when it
contains at least ``u`` defective items, and positive under the OR operator
when it contains at least one.  These two functions are the ground truth
the whole simulation is built on; everything else is bookkeeping around
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitmat import BitMatrix, BitVector
from .errors import DimensionError, ParameterError


@dataclass(frozen=True)
class SchemeParams:
    """Parameters of one testing scheme.

    n: number of items, d: maximum number of defectives, u: positivity
    threshold, e: tolerated erroneous outcomes, p: construction margin
    in [0, 1) that inflates the locator matrix row count.
    """

    n: int
    d: int
    u: int
    e: int = 0
    p: float = 0.0

    def __post_init__(self):
        if not (2 <= self.u <= self.d < self.n):
            raise ParameterError(
                f"need 2 <= u <= d < n, got u={self.u}, d={self.d}, n={self.n}"
            )
        if self.e < 0:
            raise ParameterError(f"error budget must be nonnegative, got {self.e}")
        if not (0.0 <= self.p < 1.0):
            raise ParameterError(f"p must be in [0, 1), got {self.p}")

    @property
    def d0(self) -> int:
        return max(self.u, self.d - self.u)


def threshold_test(row: BitVector, x: BitVector, u: int) -> int:
    """1 iff the pool `row` contains at least u items of x."""
    if len(row) != len(x):
        raise DimensionError(f"length mismatch: {len(row)} vs {len(x)}")
    if u < 1:
        raise ParameterError(f"threshold must be >= 1, got {u}")
    return int(int(row.to_array() @ x.to_array().astype(np.int64)) >= u)


def or_test(row: BitVector, x: BitVector) -> int:
    """1 iff the pool `row` contains any item of x (threshold 1)."""
    return threshold_test(row, x, 1)


def apply_threshold(m: BitMatrix, x: BitVector, u: int) -> BitVector:
    """Outcome vector of all rows of m against x at threshold u."""
    if m.cols != len(x):
        raise DimensionError(f"matrix has {m.cols} columns, vector has {len(x)}")
    if u < 1:
        raise ParameterError(f"threshold must be >= 1, got {u}")
    counts = m.to_array() @ x.to_array().astype(np.int64)
    return BitVector((counts >= u).astype(np.uint8))


def inject_errors(
    y: BitVector,
    e: int,
    rng: np.random.Generator,
    up_to: bool = False,
) -> tuple[BitVector, tuple[int, ...]]:
    """Flip outcome bits, returning the corrupted vector and flip positions.

    Flips exactly e distinct positions chosen uniformly without
    replacement; with up_to=True the flip count is itself uniform in
    [0, e].  Exact-e is the default because it is the worst case within
    the budget.
    """
    if e < 0:
        raise ParameterError(f"error count must be nonnegative, got {e}")
    if e > len(y):
        raise ParameterError(f"cannot flip {e} positions in a length-{len(y)} vector")
    count = int(rng.integers(0, e + 1)) if up_to else e
    positions = np.sort(rng.choice(len(y), size=count, replace=False)) if count else np.array([], dtype=np.int64)
    flipped = y.to_array().copy()
    flipped[positions] ^= 1
    return BitVector(flipped), tuple(int(i) for i in positions)


def flip_positions(y: BitVector, positions) -> BitVector:
    """Flip an explicit list of positions (adversarial error placement)."""
    pos = np.asarray(sorted(set(int(i) for i in positions)), dtype=np.int64)
    if pos.size and (pos[0] < 0 or pos[-1] >= len(y)):
        raise ParameterError("flip position out of range")
    flipped = y.to_array().copy()
    flipped[pos] ^= 1
    return BitVector(flipped)
