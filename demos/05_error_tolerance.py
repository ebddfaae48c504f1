# Surviving flipped outcomes: multiset voting with a frequency threshold.

import numpy as np

from tgt import (
    DefectiveSet,
    adversarial_flip_positions,
    decode_blocks,
    encode,
    flip_positions,
    generate_scheme,
    inject_errors,
)
from tgt.semantics import SchemeParams

# Tolerating e flipped outcomes needs the locator matrix validated at
# budget 2e: every defective must sit in more than 2e exactly-u blocks.
# An error corrupts at most one block, so after e flips a defective still
# appears in at least e+1 accepted blocks while a fabricated item cannot
# appear in more than e.

e = 2
rng = np.random.default_rng(3)
params = SchemeParams(n=32, d=4, u=2, e=e, p=0.71)
scheme, _, _ = generate_scheme(params, seed=3)
print(f"scheme certified for e={e}: h={scheme.h}, k={scheme.k}, t={scheme.tests}")

truth = DefectiveSet(rng.choice(32, size=4, replace=False).tolist())
x = truth.to_vector(params.n)
clean = encode(scheme, x)

clean_counts = decode_blocks(scheme, clean).multiset.counts
print("clean occurrence counts:",
      {j + 1: clean_counts[j] for j in truth.indices})

# Uniform random flips.  Items seen in at least e+1 accepted blocks are
# the decoded set.

noisy, flips = inject_errors(clean, e, rng)
decoded = decode_blocks(scheme, noisy).multiset.at_least(e + 1)
print(f"\nuniform flips at {flips}: decoded {decoded.to_one_based()}, "
      f"exact={decoded == truth}")

# Adversarial flips: kill the locator bits of the blocks voting for the
# least-covered defective.

adv = adversarial_flip_positions(scheme, x, e)
noisy = flip_positions(clean, adv)
votes = decode_blocks(scheme, noisy).multiset
dropped = {j + 1: votes.counts.get(j, 0) for j in truth.indices}
decoded = votes.at_least(e + 1)
print(f"adversarial flips at {adv}: counts now {dropped}, "
      f"decoded {decoded.to_one_based()}, exact={decoded == truth}")

# The e+1 vote threshold is the guarantee: a corrupted block can fabricate
# at most u candidates and there are at most e corrupted blocks, so no
# fabricated item can reach e+1 votes (often the consistency checks reject
# corrupted blocks outright and even the un-voted union stays clean).

loose = votes.at_least(1)
print(f"without voting (count >= 1): {len(loose)} candidates; "
      f"with voting (count >= {e + 1}): {len(decoded)}")
