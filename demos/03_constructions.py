# Constructing and verifying the two matrices a scheme needs.

import numpy as np

from tgt import (
    BitMatrix,
    DefectiveSet,
    construct_disjunct,
    construct_good,
    is_good_for,
    verify_disjunct,
    verify_threshold_disjunct,
)
from tgt.semantics import SchemeParams

rng = np.random.default_rng(42)

# The solver matrix M must be (d+1)-disjunct: every column escapes the
# union of any d+1 others in some row.  M is a Kautz-Singleton code: column
# j is the polynomial of degree < kappa over GF(q) whose coefficients are
# j's base-q digits, and each of m evaluation points gives q rows, one per
# value.  Two columns agree on at most kappa-1 points, so with
# m = (d+1)(kappa-1)+1 every column keeps a row of its own against any d+1
# others: disjunct by construction, with no draw and no search.  The
# identity is the kappa = 1 code (one point, column j the constant j), and
# M is the identity where no longer code has fewer rows.

m, cert = construct_disjunct(n=64, d=2)
q, kappa, points = cert.code
print(f"M: {m.shape[0]}x{m.shape[1]}, Kautz-Singleton code (q={q}, kappa={kappa}, "
      f"m={points}), {cert.d}-disjunct by construction")
proof = verify_disjunct(m, cert.d, mode="exhaustive")
print(f"exhaustive check of all {proof.trials} (S1, j) pairs: verified = {proof.verified}")

# Identity matrices are maximally disjunct; a repeated row is not.

print("identity 8x8 is 7-disjunct:", verify_disjunct(BitMatrix.identity(8), 7).verified)
bad = verify_disjunct(BitMatrix.ones(2, 5), 1)
print("all-ones rows fail, witness:", bad.witness)

# The locator matrix G provides, for every defective set D, rows whose
# pools contain exactly u defectives, covering D, each defective more than
# e times.  The universal property is exponential, so G is validated
# against sampled defective sets of every cardinality.

params = SchemeParams(n=32, d=4, u=2, e=1, p=0.65)
g = construct_good(params, rng)
print(f"\nG: {g.shape[0]} rows for n={params.n} (p={params.p} margin)")

dset = DefectiveSet(rng.choice(32, size=4, replace=False).tolist())
report = is_good_for(g, dset, u=2, e=2 * params.e)
counts = {j + 1: c for j, c in report.per_item_counts.items()}
print(f"goodness for {dset.to_one_based()} at budget {2 * params.e}: {report.is_good}, "
      f"rows meeting it in exactly 2 items, per item: {counts}")

# At desk scale the stronger threshold-disjunct property can be checked by
# enumeration (a count only falls as the zero set grows, so only the largest
# zero sets are counted), and it implies fixed-D goodness for every D.

tiny = np.zeros((15, 6), dtype=np.uint8)
for row, pair in enumerate([(i, j) for i in range(6) for j in range(i + 1, 6)]):
    tiny[row, list(pair)] = 1
tiny_report = verify_threshold_disjunct(BitMatrix(tiny), d=2, u=2, e=0)
print(f"\ncomplete weight-2 matrix on 6 items: threshold-disjunct pass = "
      f"{tiny_report.passed}, min count = {tiny_report.min_count}")
