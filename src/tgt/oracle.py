"""Brute-force ground truth for the decoders.

The oracle enumerates every candidate defective set up to size d,
simulates its outcome directly from the test matrix, and keeps the
candidates within a Hamming budget of the observed outcome.  It shares no
logic with the block decoder on purpose: its only job is to be obviously
correct at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from .bitmat import BitMatrix, BitVector, DefectiveSet
from .errors import BudgetError, DimensionError, ParameterError

DEFAULT_ENUM_LIMIT = 2_000_000
_CHUNK_BYTES = 1 << 24  # float32 outcome counts per batch of candidates


@dataclass(frozen=True)
class ConsistencySet:
    """Candidate sets whose simulated outcome is within the budget."""

    candidates: tuple[DefectiveSet, ...]

    def __len__(self) -> int:
        return len(self.candidates)

    def __contains__(self, dset: DefectiveSet) -> bool:
        return dset in self.candidates

    def is_singleton(self) -> bool:
        return len(self.candidates) == 1


def brute_force_decode(
    t: BitMatrix,
    y: BitVector,
    d: int,
    u: int,
    budget: int = 0,
) -> ConsistencySet:
    """Enumerate all sets of up to d items consistent with the outcome.

    Candidates are visited by cardinality, then lexicographically by
    sorted index tuple, so candidate order (and count) is exact and
    reproducible.  More than `DEFAULT_ENUM_LIMIT` candidates is a BudgetError,
    raised before anything is allocated.  Each batch of candidates holds about
    `_CHUNK_BYTES` of counts.
    """
    if t.rows != len(y):
        raise DimensionError(f"matrix has {t.rows} rows, outcome has {len(y)}")
    if u < 1:
        raise ParameterError(f"threshold must be >= 1, got {u}")
    if budget < 0:
        raise ParameterError(f"mismatch budget must be nonnegative, got {budget}")
    n = t.cols
    if d < 0 or d > n:
        raise ParameterError(f"need 0 <= d <= n, got d={d}, n={n}")
    total = sum(math.comb(n, s) for s in range(d + 1))
    if total > DEFAULT_ENUM_LIMIT:
        raise BudgetError(f"enumeration needs {total} candidates, limit is {DEFAULT_ENUM_LIMIT}")

    tf = t.to_array().astype(np.float32)
    ya = y.to_array()
    walk = chain.from_iterable(combinations(range(n), size) for size in range(d + 1))
    batch = max(1, _CHUNK_BYTES // (tf.itemsize * t.rows))
    kept: list[DefectiveSet] = []
    while subsets := list(islice(walk, batch)):
        x = np.zeros((n, len(subsets)), dtype=np.float32)
        for col, subset in enumerate(subsets):
            x[list(subset), col] = 1.0
        dist = ((tf @ x >= u) != ya[:, None]).sum(axis=0)
        kept.extend(DefectiveSet(subsets[col]) for col in np.flatnonzero(dist <= budget))
    return ConsistencySet(tuple(kept))
