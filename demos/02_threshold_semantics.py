# Threshold test semantics and the error model.

import numpy as np

from tgt import BitMatrix, BitVector, apply_threshold, inject_errors

# A pool is positive at threshold u when it contains at least u defectives.
# u = 1 recovers the classical OR semantics.  One pool is a one-row matrix.

pool = BitMatrix([[1, 1, 1, 0, 0, 0]])
x = BitVector([1, 1, 0, 0, 0, 1])  # defectives 0, 1, 5; pool sees two of them

for u in (1, 2, 3):
    print(f"threshold u={u}:", apply_threshold(pool, x, u)[0])

# Applying a whole matrix gives the outcome vector, one bit per pool.

rng = np.random.default_rng(1)
m = BitMatrix.random(rng, 8, 6, 0.5)
y = apply_threshold(m, x, 2)
print("\noutcomes at u=2:", y.to_array())

# Outcome errors are uniform bit flips, exactly e of them by default, with
# the flip positions returned for auditing.

noisy, flips = inject_errors(y, 2, rng)
print("flipped positions:", flips)
print("hamming distance:", int((noisy.to_array() != y.to_array()).sum()))

# Monotonicity: adding defectives never turns a positive pool negative.

grown = BitVector([1, 1, 1, 0, 0, 1])
assert (apply_threshold(m, grown, 2).to_array() >= y.to_array()).all()
print("monotone in the defective set: ok")
