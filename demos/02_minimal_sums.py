"""Tensor products and minimal sums of vector sequences.

A rank-r minimal sum combines d groups of r sequences each:

    f_{n_1,...,n_d} = sum_k  f_{1,k,n_1} (x) ... (x) f_{d,k,n_d}

with each group linearly independent (that is what "minimal" means).
Rank one recovers the plain tensor product, whose frame bounds multiply.
For higher rank, if the minimal sum is a frame then every concatenated
group must already be a frame for its factor space.
"""

import numpy as np

from frameforge import classify, concatenate, tensor_sequences
from frameforge.sequences import VectorSequence
from frameforge.verify import branch3_minimal_sum, random_frame_minimal_sum, suite_rng

rng = suite_rng(2024, 0)

# Rank one: frame bounds of a tensor product are products of the bounds.
mercedes = VectorSequence(
    np.array([[0, 1], [-np.sqrt(3) / 2, -0.5], [np.sqrt(3) / 2, -0.5]], dtype=complex)
)
onb = VectorSequence(np.eye(2, dtype=complex))
prod = tensor_sequences([mercedes, onb])
rep = classify(prod)
print(f"tensor product bounds: A = {rep.lower_bound:.6f}, B = {rep.bessel_bound:.6f}")
print("expected:              A = 1.500000, B = 1.500000  (1.5 * 1.0)")

# Rank two: draw a random frame minimal sum; the draw returns the report of
# verify_main_theorem, which checks the main implication on it.
ms, report = random_frame_minimal_sum(rng, dims=[3, 2], lengths=[4, 3], r=2)
print("\nrank-2 minimal sum on C^3 (x) C^2:")
print("  full system is a frame:     ", report["full"]["is_frame"])
print("  all concatenated groups are: ", report["all_groups_frames"])
for j, grp in enumerate(report["per_group"]):
    print(f"  group {j}: A = {grp['A']:.4f}, B = {grp['B']:.4f}")
cat = concatenate(list(ms.groups[0]))
assert classify(cat).is_frame

# Rank two refines further: either one of the two pure tensor terms is a
# frame on its own, or all components away from some dropped factor are.
# The draw returns the report of two_term_disjunction_check.
_, verdict = branch3_minimal_sum(rng)
print("\ntwo-term disjunction on a constructed instance:")
print(f"  branch = {verdict['branch']}, dropped factor index = {verdict['dropped_index']}")
full = verdict["full"]
print(f"  (full system bounds: A = {full['A']:.4f}, B = {full['B']:.4f})")
