"""Classify finite vector sequences as Bessel / frame / Riesz.

A finite sequence (f_n) in C^d is a frame when the frame operator
S = sum_n <., f_n> f_n is invertible; its extreme eigenvalues are the
optimal frame bounds A and B.  This walk-through classifies a few
hand-picked sequences and checks the bounds against first principles.
"""

import tempfile
from pathlib import Path

import numpy as np

from frameforge import VectorSequence, analysis_operator, classify, concatenate
from frameforge.io import load_json, save_json, sequence_from_dict, sequence_to_dict

# An orthonormal basis is the prototypical Riesz basis: A = B = 1.
onb = VectorSequence(np.eye(2, dtype=complex))
print("orthonormal basis:", classify(onb).to_dict())

# The "Mercedes-Benz" triple: three unit vectors at 120 degrees.
# It is a tight frame with A = B = 3/2, but not Riesz (3 vectors in C^2).
mercedes = VectorSequence(
    np.array([[0, 1], [-np.sqrt(3) / 2, -0.5], [np.sqrt(3) / 2, -0.5]], dtype=complex)
)
print("mercedes triple:  ", classify(mercedes).to_dict())

# Concatenating two frames adds the frame operators, so bounds add too.
both = concatenate([onb, onb])
print("two copies of onb:", classify(both).to_dict())

# A single vector cannot span C^2, so the lower bound degenerates.
line = VectorSequence(np.array([[1.0, 0.0]]))
print("one vector:       ", classify(line).to_dict())

# Sanity check: B is the largest value of sum_n |<f, f_n>|^2 over unit f.
rng = np.random.default_rng(0)
rep = classify(mercedes)
a = analysis_operator(mercedes)
samples = [
    float(np.sum(np.abs(a @ (f / np.linalg.norm(f))) ** 2))
    for f in rng.standard_normal((500, 2)) + 1j * rng.standard_normal((500, 2))
]
print(f"sampled max coefficient energy {max(samples):.6f} <= B = {rep.bessel_bound:.6f}")

# A sequence file holds the vectors exactly: the frame read back classifies as the one in memory.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "mercedes.json"
    save_json(path, sequence_to_dict(mercedes))
    loaded = sequence_from_dict(load_json(path))
print("mercedes from file:", classify(loaded).to_dict())
print("same classification as in memory:", classify(loaded) == rep)
