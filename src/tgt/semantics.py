"""Test semantics: the threshold pool operator and outcome errors.

A pool (one matrix row) is positive at threshold ``u`` when it contains
at least ``u`` defective items; the boolean-OR operator is threshold 1.
`apply_threshold` applies it to every row of a matrix.  No pipeline path
calls it: `codec.encode` counts T's pools from G and M, and the tests
check that against `apply_threshold` on the dense T.
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


def apply_threshold(m: BitMatrix, x: BitVector, u: int) -> BitVector:
    """Outcome vector of all rows of m against x at threshold u."""
    if m.cols != len(x):
        raise DimensionError(f"matrix has {m.cols} columns, vector has {len(x)}")
    if u < 1:
        raise ParameterError(f"threshold must be >= 1, got {u}")
    counts = m.to_array() @ x.to_array().astype(np.int64)
    return BitVector((counts >= u).astype(np.uint8))


def inject_errors(
    y: BitVector, e: int, rng: np.random.Generator
) -> tuple[BitVector, tuple[int, ...]]:
    """Flip exactly e distinct positions chosen uniformly without
    replacement (the worst case within the budget), returning the
    corrupted vector and the flip positions."""
    if e < 0:
        raise ParameterError(f"error count must be nonnegative, got {e}")
    if e > len(y):
        raise ParameterError(f"cannot flip {e} positions in a length-{len(y)} vector")
    drawn = rng.choice(len(y), size=e, replace=False) if e else []
    positions = tuple(sorted(int(i) for i in drawn))
    return flip_positions(y, positions), positions


def flip_positions(y: BitVector, positions) -> BitVector:
    """Flip an explicit list of positions (adversarial error placement)."""
    pos = np.asarray(sorted(set(int(i) for i in positions)), dtype=np.int64)
    if pos.size and (pos[0] < 0 or pos[-1] >= len(y)):
        raise ParameterError("flip position out of range")
    flipped = y.to_array().astype(bool)
    flipped[pos] ^= True
    return BitVector._adopt(flipped)
