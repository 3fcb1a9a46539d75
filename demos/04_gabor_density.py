"""Discrete Gabor systems on Z_N: density, oversampling, perturbation.

A Gabor system over the lattice aZ_N x bZ_N (a, b divisors of N) has
N^2/(ab) atoms.  Exhaustive sweeps illustrate the discrete density law:
no frame above critical density (ab > N), and Riesz exactly at critical
density.  The full lattice is always tight.  Oversampling a lattice by
(u, v) scales the frame bounds at least (lower) / at most (upper) by uv.
Finally, a commuting time-frequency shift perturbation can destroy the
frame property entirely.
"""

import numpy as np

from frameforge import gabor
from frameforge.gabor import ZNLattice, ZNWindow, density_sweep, sample_window
from frameforge.sequences import frame_operator

n = 12
w = sample_window("gaussian", n)

print(f"density sweep on Z_{n} with a sampled Gaussian window:")
print(f"{'a':>3} {'b':>3} {'count':>6} {'A':>10} {'B':>10}  frame riesz")
table = density_sweep(w)  # one column per field, one entry per lattice
for a, b, count, A, B, frame, riesz in zip(*(table[k] for k in ("a", "b", "count", "A", "B", "is_frame", "is_riesz"))):
    print(f"{a:>3} {b:>3} {count:>6} {A:>10.4f} {B:>10.4f}  {frame!s:>5} {riesz!s:>5}")
assert not any(frame and a * b > n for a, b, frame in zip(table["a"], table["b"], table["is_frame"]))

# Full lattice: the frame operator is N ||g||^2 times the identity.
s = frame_operator(gabor.gabor_system(w, ZNLattice(n, 1, 1)))
print(f"\nfull-lattice tightness defect: {np.linalg.norm(s - n * np.eye(n)):.2e}")

# Oversampling a=4, b=6 by u=2, v=3 lands on the full lattice.
[rep] = gabor.oversample_checks([(w, ZNLattice(n, 4, 6), 2, 3)])
print(
    f"oversampling (4,6) -> (2,2): A' = {rep['fine']['A']:.4f} >= "
    f"{2 * 3 * rep['coarse']['A']:.4f} = uv*A"
)

# Perturbation h = (I + c M_beta T_alpha) g with alpha*b = beta*a = 0 mod N:
# the shift commutes with every lattice operator, and for c on the right
# circle the factor I + cP is singular, so the perturbed system is never
# a frame no matter the window.
rng = np.random.default_rng(1)
g = rng.standard_normal(8) + 1j * rng.standard_normal(8)
wr = ZNWindow(g / np.linalg.norm(g))
out = gabor.perturb_window(wr, ZNLattice(8, 2, 2), alpha=4, beta=4, c_phase=0.0)
print(
    f"\nperturbed random window on Z_8: lambda_min/lambda_max = "
    f"{out['spectral_ratio']:.2e}  (frame: {out['is_frame']})"
)
