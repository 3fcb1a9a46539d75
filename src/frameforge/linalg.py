"""Complex dense linear algebra with tensor (Kronecker) structure.

Vectors and operators are plain numpy arrays of dtype complex128.  The
flattening convention is fixed once for the whole package: the first tensor
factor is the most significant index, so the multi-index (i_1, ..., i_m) on
factor dimensions (d_1, ..., d_m) maps to the flat index

    i_1 * d_2 * ... * d_m + i_2 * d_3 * ... * d_m + ... + i_m.

This is exactly numpy's row-major (C order) convention, so the Kronecker
product realizes the tensor product of both vectors and operators.  An operator
C^{h1} (x) C^{h2} -> C^{k1} (x) C^{k2} is thus a (k1*k2) x (h1*h2) matrix, whose
4-index form F4[i1, i2, j1, j2] is ``schmidt.BipartiteShape.view4``.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import DimensionMismatch, NonFiniteData, OutOfFloatRange

# Relative tolerance for all rank / invertibility decisions, as a multiple of
# the largest singular value.
DEFAULT_RTOL = 1e-9


def as_cvector(x) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got array of shape {x.shape}")
    return x


def as_coperator(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got array of shape {a.shape}")
    return a


def inner(x, y) -> complex:
    """Pairing <x, y>, linear in x and conjugate-linear in y."""
    x, y = as_cvector(x), as_cvector(y)
    if x.shape != y.shape:
        raise DimensionMismatch(f"vector dims {x.shape[0]} and {y.shape[0]} differ")
    return complex(np.vdot(y, x))  # np.vdot conjugates its first argument


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices, bit-identical: the same products in one broadcast."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def tensor_vec(x, y) -> np.ndarray:
    """Tensor product of vectors under the package flattening convention."""
    return _kron(as_cvector(x)[None], as_cvector(y)[None])[0]


def tensor_op(a, b) -> np.ndarray:
    """Kronecker product; satisfies (A(x)B)(x(x)y) = Ax (x) By."""
    return _kron(as_coperator(a), as_coperator(b))


def kron_sum(terms) -> np.ndarray:
    """sum_k X_{1,k} (x) ... (x) X_{d,k} as a new array, for a nonempty iterable of terms, each a tuple of d
    matrices.  For row matrices V_{j,k} of shape (N_j, m_j), row (n_1, ..., n_d) of the result
    (package flattening) is sum_k V_{1,k}[n_1] (x) ... (x) V_{d,k}[n_d].  The terms add in order onto 0, in
    place, so one product at a time is alive beside the result."""
    out = 0
    for term in terms:
        out += functools.reduce(_kron, term)
    return out


def op_norm_extremes(a) -> tuple[float, float]:
    """Largest and smallest singular values of a nonempty matrix, taken of 2**-e a as ``matrix_rank`` does and
    scaled back: a NaN or inf raises ``NonFiniteData``, a norm past the float max ``OutOfFloatRange``."""
    a = as_coperator(a)
    if a.size == 0:
        raise DimensionMismatch("empty matrix has no singular values")
    e = max_exponent(a)
    s = np.linalg.svd(times_power_of_two(a, -e), compute_uv=False)
    try:
        return math.ldexp(float(s[0]), e), math.ldexp(float(s[-1]), e)
    except OverflowError:
        raise OutOfFloatRange("the operator norm leaves the float range") from None


def op_norm(a) -> float:
    return op_norm_extremes(a)[0]


def singular_value_rank(s, tol: float = DEFAULT_RTOL, scale: float = 0.0) -> int:
    """Count of the descending singular values ``s`` above tol * max(s[0], scale).

    With a magnitude ``scale`` >= 0 the threshold never falls below
    tol * scale.  An empty or all-zero ``s`` has rank 0, and so does a NaN
    ``s[0]``.
    """
    return int(np.count_nonzero(s > tol * max(s[0], scale))) if s.size else 0


def matrix_rank(a) -> int:
    """Rank by singular values above DEFAULT_RTOL * sigma_max, taken of 2**-e a, e = ``max_exponent(a)``:
    exact scaling, so sigma_max cannot overflow; a NaN or inf raises ``NonFiniteData``, and an empty a ranks 0."""
    a = as_coperator(a)
    return singular_value_rank(np.linalg.svd(times_power_of_two(a, -max_exponent(a)), compute_uv=False))


def hermitian_extremes(stacks) -> list[tuple[float, float]]:
    """Least and greatest eigenvalue over each nonempty (k, p, p) Hermitian stack, in order: one
    ``eigvalsh`` per block size p, which gives each matrix the spectrum a call on it alone gives."""
    by_size: dict[int, list[int]] = {}
    for i, s in enumerate(stacks):
        by_size.setdefault(s.shape[-1], []).append(i)
    out: list = [None] * len(stacks)
    for idx in by_size.values():
        group = [stacks[i] for i in idx]
        eig = np.linalg.eigvalsh(group[0] if len(group) == 1 else np.concatenate(group))
        lo, hi = eig.min(axis=1), eig.max(axis=1)
        if len(eig) > len(idx):  # some stack holds several matrices: reduce over each stack
            starts = list(itertools.accumulate(map(len, group[:-1]), initial=0))
            lo, hi = np.minimum.reduceat(lo, starts), np.maximum.reduceat(hi, starts)
        for i, bounds in zip(idx, zip(lo.tolist(), hi.tolist())):
            out[i] = bounds
    return out


def within_float_range(compute, what: str, *inputs):
    """``compute()``, run with numpy's overflow and invalid-value warnings off, if its result is finite.
    Else a NaN or inf entry of ``inputs`` raises ``NonFiniteData``, and if none, ``OutOfFloatRange``."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = compute()
    if np.count_nonzero(np.isfinite(out)) == np.size(out):  # faster than .all() on small results
        return out
    if not all(np.isfinite(x).all() for x in inputs):
        raise NonFiniteData(f"the input of {what} has non-finite entries (NaN or inf)")
    raise OutOfFloatRange(f"{what} leaves the float range")


def max_exponents(stack) -> np.ndarray:
    """The e with the largest real or imaginary part of 2**-e * stack[i] in [0.5, 1) for each i, 0 for a zero
    or empty item, as an int array over the leading axis.  An item with a NaN or inf raises ``NonFiniteData``."""
    parts = np.abs(np.ascontiguousarray(stack, dtype=complex).view(float))
    largest = parts.reshape(len(parts), -1).max(axis=1, initial=0.0)
    if not all(map(math.isfinite, largest.tolist())):  # on a few items, cheaper than one numpy reduction
        raise NonFiniteData("a NaN or inf entry has no power-of-two scale")
    return np.frexp(largest)[1]


def max_exponent(a) -> int:
    """``max_exponents`` of ``a`` alone, as an int; a NaN or inf raises ``NonFiniteData``."""
    return int(max_exponents(np.asarray(a)[None])[0])


def times_power_of_two(a, e) -> np.ndarray:
    """A new complex array 2**e * a, exact while no part leaves the normal range; ``e`` is an
    int, or ints that broadcast against ``a``, and may lie beyond the float exponent range."""
    return np.ldexp(np.ascontiguousarray(a, dtype=complex).view(float), e).view(complex)
