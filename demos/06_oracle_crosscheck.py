# Cross-validating the decoder against exhaustive enumeration.

import numpy as np

from tgt import (
    DefectiveSet,
    brute_force_decode,
    build_scheme,
    construct_disjunct,
    construct_good,
    cross_check,
    decode_blocks,
    encode,
    inject_errors,
)
from tgt.semantics import SchemeParams

# The oracle tries every candidate set of up to d items, simulates its
# outcome from the full test matrix, and keeps the ones within the
# mismatch budget of what was observed.  It is deliberately independent
# of the block decoder.

rng = np.random.default_rng(5)
params = SchemeParams(n=12, d=3, u=2, e=1, p=0.7)
m, _ = construct_disjunct(params.n, params.d, rng)
g = construct_good(params, rng)
scheme = build_scheme(g, m, params)
print(f"scheme: t={scheme.tests} tests on n={params.n} items")

truth = DefectiveSet([2, 5, 9])
clean = encode(scheme, truth.to_vector(params.n))
noisy, flips = inject_errors(clean, 1, rng)
print(f"hidden set {truth.to_one_based()}, one flip at {flips}")

consistent = brute_force_decode(scheme.t, noisy, params.d, params.u, budget=1)
print(f"consistency set size at budget 1: {len(consistent)}")
print("truth contained:", truth in consistent)

decoded = decode_blocks(scheme, noisy).multiset.at_least(2)
report = cross_check(decoded, truth)
print(f"decoder output {decoded.to_one_based()}: exact={report.exact}")

if consistent.is_singleton():
    print("singleton consistency set; decoder agrees:",
          decoded == consistent.candidates[0])
