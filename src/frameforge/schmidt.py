"""Finite-Schmidt-rank operators on bipartite tensor spaces.

An operator F : C^{h1} (x) C^{h2} -> C^{k1} (x) C^{k2} is stored as a dense (k1*k2) x (h1*h2) matrix under the
package flattening convention.  Its Schmidt rank is the minimal r with F = sum_k A_k (x) B_k; an ``FSROperator``
holds such a sum as the factor stacks A (r, k1, h1) and B (r, k2, h2), and r = 0 is the zero operator.  Two
independent routes compute decompositions, and both refuse a NaN, infinite or negative ``tol``:

* ``reshuffle_rank`` permutes indices so that ordinary matrix rank equals
  Schmidt rank and reads a canonical decomposition off the SVD (the oracle);
* ``schmidt_decompose_deflation`` greedily extracts one elementary term per
  step via the quadratic map D, dropping the rank by exactly one each time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ConditionViolated, DimensionMismatch
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

    @property
    def max_rank(self) -> int:
        """The largest Schmidt rank of an operator of this shape."""
        return min(self.k1 * self.h1, self.k2 * self.h2)

    def view4(self, f) -> np.ndarray:
        """The (k1*k2) x (h1*h2) operator F as its view F4[i1, i2, j1, j2]; any other shape raises."""
        f = as_coperator(f)
        if f.shape != (self.codomain_dim, self.domain_dim):
            raise DimensionMismatch(
                f"operator shape {f.shape} does not match bipartite shape {(self.codomain_dim, self.domain_dim)}"
            )
        return f.reshape(self.k1, self.k2, self.h1, self.h2)


def _swap_middle(x4: np.ndarray) -> np.ndarray:
    """x4[a, b, c, d] as the matrix M[(a, c), (b, d)]."""
    a, b, c, d = x4.shape
    return x4.transpose(0, 2, 1, 3).reshape(a * c, b * d)


@dataclass(frozen=True, eq=False)
class FSROperator:
    """sum_k A_k (x) B_k held as read-only copies of the stacks a = (A_k), (r, k1, h1), and b = (B_k), (r, k2, h2)."""

    shape: BipartiteShape
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        try:
            a, b = np.array(self.a, dtype=complex), np.array(self.b, dtype=complex)
        except ValueError:  # a ragged list of factors has no stack shape
            a = b = None
        s = self.shape
        if a is None or a.shape != (*a.shape[:1], s.k1, s.h1) or b.shape != (*a.shape[:1], s.k2, s.h2):
            raise DimensionMismatch("term factor shapes do not match the bipartite shape")
        a.flags.writeable = b.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def rank_bound(self) -> int:
        return len(self.a)

    def materialize(self) -> np.ndarray:
        """sum_k A_k (x) B_k, zero when r = 0, as one BLAS contraction over k of the stacks.  ``linalg.kron_sum``'s
        sum in term order rounds otherwise, which moves three ``worst_*`` fields of every ``verify all`` report, and
        at r = 128 on 16x16 factors takes over ten times as long (about 30 ms against 2 ms, 2 vCPUs)."""
        return _swap_middle(np.tensordot(self.a, self.b, axes=(0, 0)))  # (k1, h1, k2, h2) -> (k1 k2, h1 h2)


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
    f4, g4 = shape.view4(f), shape.view4(g)
    u1, u2, v1, v2 = _check_vectors(u1, u2, v1, v2, shape)
    a = np.einsum("j,ijcd,d->ic", v2.conj(), f4, u2)
    return a, np.einsum("i,ijcd,c->jd", v1.conj(), g4, u1)


def D_uv(f, u1, u2, v1, v2, shape: BipartiteShape) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic map D(F) = P(F, F); fixes rank-one operators up to <F(u), v>."""
    return P_uv(f, f, u1, u2, v1, v2, shape)


def pairing(f, u1, u2, v1, v2, shape: BipartiteShape) -> complex:
    """<F(u1 (x) u2), v1 (x) v2>, read as <A u1, v1> with (A, B) = ``D_uv(F)``, as ``deflate`` reads it."""
    return linalg.inner(D_uv(f, u1, u2, v1, v2, shape)[0] @ as_cvector(u1), v1)


def deflate(f, u1, u2, v1, v2, shape: BipartiteShape) -> np.ndarray:
    """Subtract D_{u,v}(F) from F; drops the Schmidt rank by exactly one.

    Requires the pairing <F(u1 (x) u2), v1 (x) v2>, read off D_{u,v}(F) = (A, B)
    as <A u1, v1>, to equal 1 up to ``PAIRING_TOL``; a NaN pairing fails the test.
    """
    a, b = D_uv(f, u1, u2, v1, v2, shape)
    p = linalg.inner(a @ u1, v1)
    if not abs(p - 1.0) <= PAIRING_TOL:
        raise ConditionViolated(f"pairing is {p}, expected 1")
    return f - linalg.tensor_op(a, b)


def _check_tol_value(value: float) -> None:
    """Refuse a NaN, infinite or negative tolerance, which no stop test or rank rule reads as meant."""
    if not 0.0 <= value < np.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {value}")


def schmidt_decompose_deflation(f, shape: BipartiteShape, tol: float = DEFAULT_RTOL) -> FSROperator:
    """Greedy deflation: one elementary term per step until the residual dies.

    Each step picks the elementary pair (u, v) = (e_{j1} (x) e_{j2},
    e_{i1} (x) e_{i2}) at the largest-modulus residual entry (full-pivot
    style), rescales v1 so the pairing is exactly 1, extracts the D term and
    subtracts it.  Stops when ||residual|| <= min(tol, 1) * ||F||; a tol >= 1
    stops at once, as the residual starts at F, and the clamp keeps the product finite.

    With unit vectors, D_uv(residual) reduces to two slices of the residual
    R viewed as R4[i1, i2, j1, j2]: A = R4[:, i2, :, j2] and
    B = R4[i1, :, j1, :] / R[i, j], read here without forming D_uv.

    The loop runs on 2**-e * F, e = ``linalg.max_exponent(F)``, so no norm over- or underflows; each A is
    scaled back by 2**e, exactly, and one that leaves the float range raises ``OutOfFloatRange``.
    """
    _check_tol_value(tol)
    f4 = shape.view4(f)
    e = linalg.max_exponent(f4)
    r4 = linalg.times_power_of_two(f4, -e)
    residual = r4.reshape(shape.codomain_dim, shape.domain_dim)  # a view of r4
    stop = min(tol, 1.0) * np.linalg.norm(residual)
    a = np.empty((shape.max_rank, shape.k1, shape.h1), dtype=complex)
    b = np.empty((shape.max_rank, shape.k2, shape.h2), dtype=complex)
    r = 0  # the zero operator stops at the first test, with no terms
    while r < shape.max_rank and np.linalg.norm(residual) > stop:
        i1, i2, j1, j2 = np.unravel_index(np.argmax(np.abs(r4)), r4.shape)
        a[r] = r4[:, i2, :, j2]
        b[r] = r4[i1, :, j1, :] / r4[i1, i2, j1, j2]
        residual -= linalg.tensor_op(a[r], b[r])
        r += 1
    return FSROperator(shape, linalg.within_float_range(lambda: linalg.times_power_of_two(a[:r], e),
                                                        "a deflation factor"), b[:r])


def reshuffle(f, shape: BipartiteShape) -> np.ndarray:
    """Index permutation R[(i1,j1),(i2,j2)] = F[(i1,i2),(j1,j2)].

    The ordinary rank of R is the Schmidt rank of F.
    """
    return _swap_middle(shape.view4(f))


def reshuffle_rank(
    f, shape: BipartiteShape, tol: float = DEFAULT_RTOL, scale: float = 0.0
) -> FSROperator:
    """A canonical decomposition via SVD of the reshuffle; its ``rank_bound`` is the Schmidt rank.

    Singular values below tol * max(sigma_max, scale) count as zero; pass the
    original operator's magnitude as ``scale`` when ranking residuals of a
    deflation, so float noise left over from subtraction ranks as zero.  The
    SVD is of 2**-2h R, h = ceil(``linalg.max_exponent(F)`` / 2), and ``scale``
    and the factors are scaled alike: exact, but sigma_max cannot overflow.
    """
    _check_tol_value(tol)
    r = reshuffle(f, shape)
    h = -(-linalg.max_exponent(r) // 2)
    u, s, vh = np.linalg.svd(linalg.times_power_of_two(r, -2 * h))
    with np.errstate(over="ignore"):  # a scale beyond the float range ranks everything as zero
        rank = linalg.singular_value_rank(s, tol, np.ldexp(scale, -2 * h))
    root = np.sqrt(s[:rank])
    a = linalg.times_power_of_two((u[:, :rank] * root).T.reshape(rank, shape.k1, shape.h1), h)
    b = linalg.times_power_of_two((root[:, None] * vh[:rank]).reshape(rank, shape.k2, shape.h2), h)
    return FSROperator(shape, a, b)


def spans_equal(x: FSROperator, y: FSROperator, side: int) -> bool:
    """Whether the factor spans of two decompositions coincide on one side.

    ``side`` is 1 (first factors) or 2 (second factors).  Both stacks must
    have one shape (term count and factor shape); equality is decided by comparing
    the rank of the two stacks together against each one's rank (r = 0 spans {0}).
    """
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    xs, ys = (x.a, y.a) if side == 1 else (x.b, y.b)
    if xs.shape != ys.shape:
        raise DimensionMismatch(f"side-{side} factor stacks have shapes {xs.shape} and {ys.shape}, not one shape")
    flat = np.concatenate((xs, ys)).reshape(2 * len(xs), xs.shape[1] * xs.shape[2])  # x's factors, then y's
    ra, rb = linalg.matrix_rank(flat[: len(xs)]), linalg.matrix_rank(flat[len(xs) :])
    if ra != rb:
        return False
    return linalg.matrix_rank(flat) == ra


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
    shape.view4(inv)  # an inverse of the wrong shape raises here, not in the product
    f = fsr.materialize()
    u1, u2, v1, v2 = _check_vectors(u1, u2, v1, v2, shape)
    product = inv @ f if side == "left" else f @ inv
    if not np.linalg.norm(product - np.eye(shape.domain_dim)) <= INVERSE_TOL * max(1.0, np.linalg.norm(f)):
        raise ConditionViolated(f"given matrix is not a {side} inverse of F")
    if not (abs(linalg.inner(u1, v1) - 1.0) <= PAIRING_TOL and abs(linalg.inner(u2, v2) - 1.0) <= PAIRING_TOL):
        raise ConditionViolated("need <u1, v1> = 1 and <u2, v2> = 1")
    if side == "left":
        return [D_uv(inv, a_k @ u1, b_k @ u2, v1, v2, shape) for a_k, b_k in zip(fsr.a, fsr.b)]
    inv_adj = inv.conj().T
    pairs = [D_uv(inv_adj, a_k.conj().T @ v1, b_k.conj().T @ v2, u1, u2, shape) for a_k, b_k in zip(fsr.a, fsr.b)]
    return [(r1.conj().T, r2.conj().T) for r1, r2 in pairs]
