# End-to-end: build a scheme, run the tests, decode exactly.

import numpy as np

from tgt import (
    BitVector,
    DefectiveSet,
    apply_threshold,
    build_scheme,
    construct_disjunct,
    construct_good,
    decode_blocks,
    encode,
    recover_yprime,
)
from tgt.semantics import SchemeParams

rng = np.random.default_rng(7)
params = SchemeParams(n=32, d=4, u=2, e=0, p=0.65)

m, cert = construct_disjunct(params.n, params.d, rng)
g = construct_good(params, rng)
scheme = build_scheme(g, m, params)
print(f"scheme: h={scheme.h} locator rows, k={scheme.k} solver rows, "
      f"t={scheme.tests} tests = (2k+1)h")

# Hide some defectives and observe the outcomes: one flat vector with a
# block [y_i, y-block, ybar-block] of 2k+1 bits per locator row i.

truth = DefectiveSet(rng.choice(32, size=4, replace=False).tolist())
x = truth.to_vector(params.n)
y = encode(scheme, x)
blocks = y.to_array().reshape(scheme.h, 2 * scheme.k + 1)
print(f"defectives (1-based): {truth.to_one_based()}")
print(f"{int(blocks[:, 0].sum())} of {scheme.h} blocks are positive")

# The outcome vector is exactly T applied at threshold u.  T itself is
# never stored: scheme.t derives it from G and M on demand.

assert y == apply_threshold(scheme.t, x, params.u)

# Inside a positive block whose pool holds exactly u defectives, the two
# outcome halves recover the OR outcomes of the solver matrix.

weights = scheme.g.to_array() @ x.to_array().astype(int)
i = int(np.flatnonzero(weights == params.u)[0])
xi = BitVector(x.to_array() & scheme.g.to_array()[i])
print(f"\nblock {i}: restricted weight {xi.weight()} == u")
k = scheme.k
yprime = BitVector(recover_yprime(blocks[i, 1 : k + 1], blocks[i, k + 1 :]))
assert yprime == apply_threshold(scheme.m, xi, 1)
print("recovered OR outcome matches the solver matrix applied to the restriction")

# The decoder screens every block and unions the surviving candidate sets.

report = decode_blocks(scheme, y)
accepted = [t for t in report.traces if t.accepted]
print(f"\naccepted {len(accepted)} blocks; decoded: "
      f"{report.defectives.to_one_based()}")
assert report.defectives == truth
print("exact recovery:", report.defectives == truth)
