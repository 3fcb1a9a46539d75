"""Complex dense linear algebra with tensor (Kronecker) structure.

Vectors and operators are plain numpy arrays of dtype complex128.  The
flattening convention is fixed once for the whole package: the first tensor
factor is the most significant index, so the multi-index (i_1, ..., i_m) on
factor dimensions (d_1, ..., d_m) maps to the flat index

    i_1 * d_2 * ... * d_m + i_2 * d_3 * ... * d_m + ... + i_m.

This is exactly numpy's row-major (C order) convention, so the Kronecker
product realizes the tensor product of both vectors and operators.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionMismatch

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
    """``np.kron`` of two vectors or two matrices, bit-identical: the same products in one broadcast."""
    if a.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(-1)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def tensor_vec(x, y) -> np.ndarray:
    """Tensor product of vectors under the package flattening convention."""
    return _kron(as_cvector(x), as_cvector(y))


def tensor_op(a, b) -> np.ndarray:
    """Kronecker product; satisfies (A(x)B)(x(x)y) = Ax (x) By."""
    return _kron(as_coperator(a), as_coperator(b))


def kron_all(arrays) -> np.ndarray:
    """Kronecker product of a nonempty list of vectors or of matrices, left to right.

    For row matrices V_j of shape (N_j, m_j), row (n_1, ..., n_d) of the
    result (flattened in the package convention) is the tensor product
    V_1[n_1] (x) ... (x) V_d[n_d]; for vectors it is their tensor product.
    A single array is returned as it is, not copied.
    """
    return functools.reduce(_kron, arrays)


def op_norm_extremes(a) -> tuple[float, float]:
    """Largest and smallest singular values of a nonempty matrix."""
    a = as_coperator(a)
    if a.size == 0:
        raise DimensionMismatch("empty matrix has no singular values")
    s = np.linalg.svd(a, compute_uv=False)
    return float(s[0]), float(s[-1])


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
    """Rank by singular values above DEFAULT_RTOL * sigma_max."""
    return singular_value_rank(np.linalg.svd(as_coperator(a), compute_uv=False))


def max_exponent(a) -> int:
    """The e with the largest real or imaginary part of 2**-e * a in [0.5, 1); 0 for a zero ``a``."""
    return int(np.frexp(np.abs(np.ascontiguousarray(a, dtype=complex).view(float)).max())[1])


def times_power_of_two(a, e: int) -> np.ndarray:
    """A new complex array 2**e * a, exact while no part leaves the normal
    range; ``e`` may lie beyond the float exponent range, where 2.0**e overflows."""
    return np.ldexp(np.ascontiguousarray(a, dtype=complex).view(float), e).view(complex)
