# Bit-packed matrices and the on-disk format.

import numpy as np

from tgt import BitMatrix, BitVector, load_matrix, serialize_matrix

# Everything binary in this library is a BitMatrix or BitVector: immutable,
# hashable, and backed by a read-only numpy 0/1 array.

m = BitMatrix([[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 1]])
a = m.to_array()
print("matrix:")
print(a)
print("row 1:", a[1], "| column 2:", a[:, 2])

# Row operations are plain numpy on to_array().  The complement flips
# every bit; a matrix on top of its complement is how the solver half of a
# testing scheme is laid out.

print("\ncomplement:")
print(1 - a)
print("stacked shape:", BitMatrix(np.vstack([a, 1 - a])).shape)

# Restriction is entrywise AND: the items of x that fall inside a pool.

x = BitVector([1, 1, 0, 1])
pool = BitVector([1, 0, 1, 1])
print("\nx restricted to pool:", BitVector(x.to_array() & pool.to_array()).to_array())

# Serialization is a one-line ASCII header plus base64 of the packed bits
# (64-bit words, little-endian, LSB first, zero padding).  Round trips are
# exact and re-serialization is byte-identical.

data = serialize_matrix(m, kind="disjunct", params={"d": 2})
print("\nserialized:")
print(data.decode().splitlines()[0])
assert load_matrix(data) == (m, "disjunct", {"d": 2})

rng = np.random.default_rng(0)
big = BitMatrix.random(rng, 1000, 1000, 0.3)
assert load_matrix(serialize_matrix(big))[0] == big
print("10^6-bit round trip: exact")
