"""Operator Schmidt decomposition by greedy rank-one deflation.

Any operator F on a tensor product C^{h1} (x) C^{h2} -> C^{k1} (x) C^{k2}
splits as a finite sum of elementary tensors A_k (x) B_k.  The minimal
number of terms (the Schmidt rank) equals the matrix rank of the
"reshuffled" matrix of F.  The deflation algorithm peels off one
elementary tensor per step, chosen by the largest pairing coefficient,
and each step lowers the reshuffled rank by exactly one.
"""

import numpy as np

from frameforge.schmidt import (
    BipartiteShape,
    deflate,
    inverse_factors,
    pairing,
    reshuffle_rank,
    schmidt_decompose_deflation,
    spans_equal,
)
from frameforge.verify import random_fsr_operator, suite_rng

rng = suite_rng(2025, 0)
shape = BipartiteShape(2, 3, 2, 3)

# Build a rank-3 operator and watch deflation recover exactly 3 terms.
_, f, canon = random_fsr_operator(rng, shape, 3)
print("reshuffled rank (SVD oracle):", canon.rank_bound)

dec = schmidt_decompose_deflation(f, shape)
print("deflation produced", len(dec.terms), "elementary tensors")
err = np.linalg.norm(f - dec.materialize()) / np.linalg.norm(f)
print(f"relative reconstruction error: {err:.2e}")

# Rank drops by one per peeled term.
residual = f.copy()
norm_f = np.linalg.norm(f)
for step, (a, b) in enumerate(dec.terms, start=1):
    residual = residual - np.kron(a, b)
    r = reshuffle_rank(residual, shape, tol=1e-7, scale=norm_f)[0]
    print(f"after step {step}: reshuffled rank = {r}")

# The factor spans are canonical: deflation and the SVD route agree.
print("A-factor spans agree:", spans_equal(dec.terms, canon.terms, 1))
print("B-factor spans agree:", spans_equal(dec.terms, canon.terms, 2))

# For an invertible finite-Schmidt-rank operator, the inverse admits
# factor decompositions that resolve the identity on each tensor leg.
shape2 = BipartiteShape(2, 2, 2, 2)
while True:
    fsr2, f2, _ = random_fsr_operator(rng, shape2, 2)
    if np.linalg.cond(f2) < 1e6:
        break
inv = np.linalg.inv(f2)


def paired(u, v):
    return v / np.conj(np.vdot(v, u))


u1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
v1 = paired(u1, rng.standard_normal(2) + 1j * rng.standard_normal(2))
u2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
v2 = paired(u2, rng.standard_normal(2) + 1j * rng.standard_normal(2))

left = inverse_factors(fsr2, inv, "left", u1, u2, v1, v2)
s1 = sum(l1 @ a for (l1, _), (a, _) in zip(left, fsr2.terms))
print(f"sum_k L_1k A_k = I up to {np.linalg.norm(s1 - np.eye(2)):.2e}")

# One deflation step by hand: unit u1, u2, v1, v2 at the largest entry of F,
# with v1 scaled so that the pairing <F(u1 (x) u2), v1 (x) v2> is 1.
i, j = np.unravel_index(np.argmax(np.abs(f)), f.shape)
i1, i2 = divmod(int(i), shape.k2)
j1, j2 = divmod(int(j), shape.h2)
u1, u2, v1, v2 = np.eye(shape.h1)[j1], np.eye(shape.h2)[j2], np.eye(shape.k1)[i1], np.eye(shape.k2)[i2]
v1 = v1 / np.conj(pairing(f, u1, u2, v1, v2, shape))
rank = reshuffle_rank(deflate(f, u1, u2, v1, v2, shape), shape, tol=1e-7, scale=norm_f)[0]
print(f"one hand-made deflation step: reshuffled rank {canon.rank_bound} -> {rank}")
