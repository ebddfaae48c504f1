# End-to-end: build a scheme, run the tests, decode exactly.

import numpy as np

from tgt import (
    BitVector,
    DefectiveSet,
    apply_threshold,
    decode_blocks,
    encode,
    generate_scheme,
)
from tgt.semantics import SchemeParams

rng = np.random.default_rng(7)
params = SchemeParams(n=32, d=4, u=2, e=0, p=0.65)

# One call builds both matrices from one seed: the solver matrix M,
# (d+1)-disjunct by construction, and the locator matrix G, validated on
# sampled defective sets and then on a held-out batch.

scheme, cert, validation = generate_scheme(params, seed=7)
print(f"scheme: h={scheme.h} locator rows, k={scheme.k} solver rows, "
      f"t={scheme.tests} tests = (k+1)h")
print(f"M {cert.d}-disjunct by construction ({cert.method}); G passed "
      f"{validation['sets_per_cardinality']} held-out sets per cardinality")

# Hide some defectives and observe the outcomes: one flat vector with a
# block [y_i, ybar-block] of k+1 bits per locator row i.  The ybar-block
# pools the complement of M masked by the locator row.

truth = DefectiveSet(rng.choice(32, size=4, replace=False).tolist())
x = truth.to_vector(params.n)
y = encode(scheme, x)
blocks = y.to_array().reshape(scheme.h, scheme.k + 1)
print(f"defectives (1-based): {truth.to_one_based()}")
print(f"{int(blocks[:, 0].sum())} of {scheme.h} blocks are positive")

# The outcome vector is exactly T applied at threshold u.  T itself is
# never stored: scheme.t derives it from G and M on demand.

assert y == apply_threshold(scheme.t, x, params.u)

# Inside a positive block whose pool holds exactly u defectives, a
# complement row reaches u exactly when the solver row holds no defective,
# so NOT ybar is the OR outcome of the solver matrix.

weights = scheme.g.to_array() @ x.to_array().astype(int)
i = int(np.flatnonzero(weights == params.u)[0])
xi = BitVector(x.to_array() & scheme.g.to_array()[i])
print(f"\nblock {i}: restricted weight {xi.weight()} == u")
yprime = BitVector(1 - blocks[i, 1:])
assert yprime == apply_threshold(scheme.m, xi, 1)
print("recovered OR outcome matches the solver matrix applied to the restriction")

# The decoder screens every block and counts the items of the accepted
# ones; with no flipped outcomes (e = 0), one vote is enough.

report = decode_blocks(scheme, y)
decoded = report.multiset.at_least(1)
print(f"\naccepted {len(report.accepted)} blocks; decoded: {decoded.to_one_based()}")
assert decoded == truth
print("exact recovery:", decoded == truth)
