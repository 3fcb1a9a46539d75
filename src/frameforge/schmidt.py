"""Finite-Schmidt-rank operators on bipartite tensor spaces.

An operator F : C^{h1} (x) C^{h2} -> C^{k1} (x) C^{k2} is stored as a dense
(k1*k2) x (h1*h2) matrix under the package flattening convention.  Its
Schmidt rank is the minimal r with F = sum_k A_k (x) B_k.  Two independent
routes compute decompositions:

* ``reshuffle_rank`` permutes indices so that ordinary matrix rank equals
  Schmidt rank and reads a canonical decomposition off the SVD (the oracle);
* ``schmidt_decompose_deflation`` greedily extracts one elementary term per
  step via the quadratic map D, dropping the rank by exactly one each time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    BadNormalization,
    DimensionMismatch,
    LengthMismatch,
    NotAnInverse,
    PairingNotOne,
)
from .linalg import DEFAULT_RTOL, as_coperator, as_cvector

# Largest accepted |pairing - 1| in ``deflate`` and ``inverse_factors``, and
# ||product - I|| / max(1, ||F||) of an inverse given to ``inverse_factors``.
PAIRING_TOL = 1e-9
INVERSE_TOL = 1e-8


@dataclass(frozen=True)
class BipartiteShape:
    """Domain C^{h1} (x) C^{h2}, codomain C^{k1} (x) C^{k2}."""

    h1: int
    h2: int
    k1: int
    k2: int

    def __post_init__(self):
        if min(self.h1, self.h2, self.k1, self.k2) < 1:
            raise ValueError("all factor dimensions must be positive")

    @property
    def domain_dim(self) -> int:
        return self.h1 * self.h2

    @property
    def codomain_dim(self) -> int:
        return self.k1 * self.k2


@dataclass(frozen=True)
class FSROperator:
    """Sum of elementary tensor factor pairs (A_k, B_k) on a bipartite space."""

    shape: BipartiteShape
    terms: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        terms = []
        for a, b in self.terms:
            a, b = as_coperator(a), as_coperator(b)
            if a.shape != (self.shape.k1, self.shape.h1) or b.shape != (self.shape.k2, self.shape.h2):
                raise DimensionMismatch("term factor shapes do not match the bipartite shape")
            terms.append((a, b))
        object.__setattr__(self, "terms", tuple(terms))

    @property
    def rank_bound(self) -> int:
        return len(self.terms)

    def materialize(self) -> np.ndarray:
        """sum_k A_k (x) B_k as one contraction over k of the stacked factors."""
        s = self.shape
        if not self.terms:
            return np.zeros((s.codomain_dim, s.domain_dim), dtype=complex)
        a = np.stack([a for a, _ in self.terms])  # (r, k1, h1)
        b = np.stack([b for _, b in self.terms])  # (r, k2, h2)
        return (
            np.tensordot(a, b, axes=(0, 0))  # (k1, h1, k2, h2)
            .transpose(0, 2, 1, 3)
            .reshape(s.codomain_dim, s.domain_dim)
        )


def _check_operator(f, shape: BipartiteShape) -> np.ndarray:
    f = as_coperator(f)
    if f.shape != (shape.codomain_dim, shape.domain_dim):
        raise DimensionMismatch(
            f"operator shape {f.shape} does not match bipartite shape "
            f"{(shape.codomain_dim, shape.domain_dim)}"
        )
    return f


def _check_vectors(u1, u2, v1, v2, shape: BipartiteShape) -> tuple[np.ndarray, ...]:
    """u1, u2, v1, v2 as vectors, which must have lengths h1, h2, k1, k2."""
    vectors = tuple(map(as_cvector, (u1, u2, v1, v2)))
    lengths, want = tuple(len(x) for x in vectors), (shape.h1, shape.h2, shape.k1, shape.k2)
    if lengths != want:
        raise DimensionMismatch(f"vector lengths (u1, u2, v1, v2) = {lengths} do not match (h1, h2, k1, k2) = {want}")
    return vectors


def contract_V1(v1, h, shape: BipartiteShape) -> np.ndarray:
    """Contraction of the first factor: y1 (x) y2 -> <y1, v1> y2."""
    v1, h = as_cvector(v1), as_cvector(h)
    if h.shape[0] != shape.codomain_dim or v1.shape[0] != shape.k1:
        raise DimensionMismatch("contract_V1: vector dims do not match the shape")
    return v1.conj() @ h.reshape(shape.k1, shape.k2)


def contract_V2(v2, h, shape: BipartiteShape) -> np.ndarray:
    """Contraction of the second factor: y1 (x) y2 -> <y2, v2> y1."""
    v2, h = as_cvector(v2), as_cvector(h)
    if h.shape[0] != shape.codomain_dim or v2.shape[0] != shape.k2:
        raise DimensionMismatch("contract_V2: vector dims do not match the shape")
    return h.reshape(shape.k1, shape.k2) @ v2.conj()


def P_uv(f, g, u1, u2, v1, v2, shape: BipartiteShape) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear factor extraction (F, G) -> (A, B).

    A acts on the first factor: A x1 = contract_V2(v2, F(x1 (x) u2)).
    B acts on the second:       B x2 = contract_V1(v1, G(u1 (x) x2)).
    On the view F4[i1, i2, j1, j2]: A = sum conj(v2[i2]) F4[:, i2, :, j2] u2[j2].
    """
    f, g = _check_operator(f, shape), _check_operator(g, shape)
    u1, u2, v1, v2 = _check_vectors(u1, u2, v1, v2, shape)
    b = np.einsum("i,ijcd,c->jd", v1.conj(), g.reshape(shape.k1, shape.k2, shape.h1, shape.h2), u1)
    return _first_factor(f, u2, v2, shape), b


def _first_factor(f, u2, v2, shape: BipartiteShape) -> np.ndarray:
    """The A of ``P_uv``: sum conj(v2[i2]) F4[:, i2, :, j2] u2[j2]."""
    return np.einsum("j,ijcd,d->ic", v2.conj(), f.reshape(shape.k1, shape.k2, shape.h1, shape.h2), u2)


def D_uv(f, u1, u2, v1, v2, shape: BipartiteShape) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic map D(F) = P(F, F); fixes rank-one operators up to <F(u), v>."""
    return P_uv(f, f, u1, u2, v1, v2, shape)


def pairing(f, u1, u2, v1, v2, shape: BipartiteShape) -> complex:
    """<F(u1 (x) u2), v1 (x) v2>, read as <A u1, v1> with A the first factor of ``P_uv``."""
    f = _check_operator(f, shape)
    u1, u2, v1, v2 = _check_vectors(u1, u2, v1, v2, shape)
    return linalg.inner(_first_factor(f, u2, v2, shape) @ u1, v1)


def deflate(f, u1, u2, v1, v2, shape: BipartiteShape) -> np.ndarray:
    """Subtract D_{u,v}(F) from F; drops the Schmidt rank by exactly one.

    Requires the pairing <F(u1 (x) u2), v1 (x) v2>, read off D_{u,v}(F) = (A, B)
    as <A u1, v1>, to equal 1 up to ``PAIRING_TOL``.
    """
    f = _check_operator(f, shape)
    a, b = D_uv(f, u1, u2, v1, v2, shape)
    p = linalg.inner(a @ u1, v1)
    if abs(p - 1.0) > PAIRING_TOL:
        raise PairingNotOne(f"pairing is {p}, expected 1")
    return f - linalg.tensor_op(a, b)


def schmidt_decompose_deflation(f, shape: BipartiteShape, tol: float = DEFAULT_RTOL) -> FSROperator:
    """Greedy deflation: one elementary term per step until the residual dies.

    Each step picks the elementary pair (u, v) = (e_{j1} (x) e_{j2},
    e_{i1} (x) e_{i2}) at the largest-modulus residual entry (full-pivot
    style), rescales v1 so the pairing is exactly 1, extracts the D term and
    subtracts it.  Stops when ||residual|| <= tol * ||F||.

    With unit vectors, D_uv(residual) reduces to two slices of the residual
    R viewed as R4[i1, i2, j1, j2]: A = R4[:, i2, :, j2] and
    B = R4[i1, :, j1, :] / R[i, j], read here without forming D_uv.

    The loop runs on 2**-e * F, e = ``linalg.max_exponent(F)``, and scales
    each A back by 2**e: exact scaling, but no norm overflows or underflows.
    """
    f = _check_operator(f, shape)
    e = linalg.max_exponent(f)
    residual = linalg.times_power_of_two(f, -e)
    norm0 = np.linalg.norm(residual)
    terms: list[tuple[np.ndarray, np.ndarray]] = []
    if norm0 == 0.0:
        return FSROperator(shape, ())
    r4 = residual.reshape(shape.k1, shape.k2, shape.h1, shape.h2)  # a view of residual
    max_steps = min(shape.k1 * shape.h1, shape.k2 * shape.h2)
    for _ in range(max_steps):
        if np.linalg.norm(residual) <= tol * norm0:
            break
        i, j = np.unravel_index(np.argmax(np.abs(residual)), residual.shape)
        i1, i2 = divmod(int(i), shape.k2)
        j1, j2 = divmod(int(j), shape.h2)
        a = r4[:, i2, :, j2].copy()
        b = r4[i1, :, j1, :] / residual[i, j]
        residual -= linalg.tensor_op(a, b)
        terms.append((linalg.times_power_of_two(a, e), b))
    return FSROperator(shape, tuple(terms))


def reshuffle(f, shape: BipartiteShape) -> np.ndarray:
    """Index permutation R[(i1,j1),(i2,j2)] = F[(i1,i2),(j1,j2)].

    The ordinary rank of R is the Schmidt rank of F.
    """
    f = _check_operator(f, shape)
    return (
        f.reshape(shape.k1, shape.k2, shape.h1, shape.h2)
        .transpose(0, 2, 1, 3)
        .reshape(shape.k1 * shape.h1, shape.k2 * shape.h2)
    )


def reshuffle_rank(
    f, shape: BipartiteShape, tol: float = DEFAULT_RTOL, scale: float = 0.0
) -> tuple[int, FSROperator]:
    """Schmidt rank and a canonical decomposition via SVD of the reshuffle.

    Singular values below tol * max(sigma_max, scale) count as zero; pass the
    original operator's magnitude as ``scale`` when ranking residuals of a
    deflation, so float noise left over from subtraction ranks as zero.
    """
    r = reshuffle(f, shape)
    u, s, vh = np.linalg.svd(r)
    rank = linalg.singular_value_rank(s, tol, scale)
    terms = []
    for k in range(rank):
        root = np.sqrt(s[k])
        a = root * u[:, k].reshape(shape.k1, shape.h1)
        b = root * vh[k, :].reshape(shape.k2, shape.h2)
        terms.append((a, b))
    return rank, FSROperator(shape, tuple(terms))


def spans_equal(terms_a, terms_b, side: int) -> bool:
    """Whether the factor spans of two decompositions coincide on one side.

    ``side`` is 1 (first factors) or 2 (second factors).  Both term lists
    must have the same length; equality is decided by comparing the rank of
    the stacked flattening against the per-list ranks.
    """
    terms_a, terms_b = list(terms_a), list(terms_b)
    if len(terms_a) != len(terms_b):
        raise LengthMismatch(f"term counts {len(terms_a)} and {len(terms_b)} differ")
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    idx = side - 1
    fa = np.array([as_coperator(t[idx]).ravel() for t in terms_a])
    fb = np.array([as_coperator(t[idx]).ravel() for t in terms_b])
    ra, rb = linalg.matrix_rank(fa), linalg.matrix_rank(fb)
    if ra != rb:
        return False
    return linalg.matrix_rank(np.vstack([fa, fb])) == ra


def inverse_factors(fsr: FSROperator, inv, side: str, u1, u2, v1, v2) -> list[tuple[np.ndarray, np.ndarray]]:
    """Factor-wise inverse identities from a left or right inverse of F.

    For ``side="left"`` with L @ F = I, returns pairs (L_{1,k}, L_{2,k}) with

        sum_k L_{1,k} A_k = I_{h1}   and   sum_k L_{2,k} B_k = I_{h2},

    where L_{1,k} = V^{v2} L U^{B_k(u2)} needs <u2, v2> = 1 and
    L_{2,k} = V_{v1} L U_{A_k(u1)} needs <u1, v1> = 1; together they are
    D_{(A_k u1, B_k u2), (v1, v2)}(L).  The right case
    mirrors sum_k A_k R_{1,k} = I via adjoints: R* is a left inverse of
    F* = sum_k A_k* (x) B_k*, so R_{.,k} is the adjoint of
    D_{(A_k* v1, B_k* v2), (u1, u2)}(R*).
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    shape = fsr.shape
    if shape.k1 != shape.h1 or shape.k2 != shape.h2:
        raise DimensionMismatch("inverse factors need a square bipartite shape")
    inv = as_coperator(inv)
    f = fsr.materialize()
    u1, u2, v1, v2 = _check_vectors(u1, u2, v1, v2, shape)
    product = inv @ f if side == "left" else f @ inv
    if np.linalg.norm(product - np.eye(shape.domain_dim)) > INVERSE_TOL * max(1.0, np.linalg.norm(f)):
        raise NotAnInverse(f"given matrix is not a {side} inverse of F")
    if abs(linalg.inner(u1, v1) - 1.0) > PAIRING_TOL or abs(linalg.inner(u2, v2) - 1.0) > PAIRING_TOL:
        raise BadNormalization("need <u1, v1> = 1 and <u2, v2> = 1")
    if side == "left":
        return [D_uv(inv, a_k @ u1, b_k @ u2, v1, v2, shape) for a_k, b_k in fsr.terms]
    inv_adj = inv.conj().T
    pairs = [D_uv(inv_adj, a_k.conj().T @ v1, b_k.conj().T @ v2, u1, u2, shape) for a_k, b_k in fsr.terms]
    return [(r1.conj().T, r2.conj().T) for r1, r2 in pairs]
