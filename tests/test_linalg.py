import functools

import numpy as np
import pytest

from frameforge import linalg
from frameforge.errors import DimensionMismatch
from frameforge.linalg import (
    inner,
    op_norm_extremes,
    tensor_op,
    tensor_vec,
)


def crandom(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestInner:
    def test_norm_squared(self):
        x = np.array([1.0, 1j])
        assert inner(x, x) == pytest.approx(2.0)

    def test_orthogonal_basis(self):
        assert inner([1, 0], [0, 1]) == 0

    def test_conjugation_convention(self):
        # <(1+i, 0), (i, 0)> = (1+i) * conj(i) = 1 - i
        assert inner([1 + 1j, 0], [1j, 0]) == pytest.approx(1 - 1j)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            inner([1, 0], [1, 0, 0])


class TestTensorVec:
    def test_basis_tensor(self):
        e1, e2 = np.eye(2)
        np.testing.assert_allclose(tensor_vec(e1, e2), [0, 1, 0, 0])

    def test_direct_formula(self):
        np.testing.assert_allclose(tensor_vec([1, 1], [1, -1]), [1, -1, 1, -1])
        # first factor most significant: index (i, j) -> i * 3 + j
        x, y = np.arange(2) + 1.0, np.arange(3) + 10.0
        t = tensor_vec(x, y)
        for i in range(2):
            for j in range(3):
                assert t[i * 3 + j] == x[i] * y[j]

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(3)
        x, y = crandom(rng, 3), crandom(rng, 4)
        assert np.linalg.norm(tensor_vec(x, y)) == pytest.approx(
            np.linalg.norm(x) * np.linalg.norm(y), abs=1e-12
        )


class TestTensorOp:
    def test_identity(self):
        np.testing.assert_allclose(tensor_op(np.eye(2), np.eye(2)), np.eye(4))

    def test_defining_property(self):
        rng = np.random.default_rng(5)
        a, b = crandom(rng, 2, 2), crandom(rng, 2, 2)
        x, y = crandom(rng, 2), crandom(rng, 2)
        np.testing.assert_allclose(
            tensor_op(a, b) @ tensor_vec(x, y), tensor_vec(a @ x, b @ y), atol=1e-12
        )

    def test_hilbert_schmidt_formula(self):
        # reshape((A(x)B) h), read as a matrix mapping first index to columns,
        # equals B @ mat(h) @ A^T
        rng = np.random.default_rng(6)
        a, b = crandom(rng, 2, 2), crandom(rng, 2, 2)
        h = tensor_vec(crandom(rng, 2), crandom(rng, 2))
        lhs = (tensor_op(a, b) @ h).reshape(2, 2).T
        rhs = b @ h.reshape(2, 2).T @ a.T
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(7)
        a, b, c = (crandom(rng, 2, 2) for _ in range(3))
        np.testing.assert_allclose(
            tensor_op(tensor_op(a, b), c), tensor_op(a, tensor_op(b, c)), atol=1e-12
        )

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a, b = crandom(rng, 3, 2), crandom(rng, 2, 4)
            na, _ = op_norm_extremes(a)
            nb, _ = op_norm_extremes(b)
            nab, _ = op_norm_extremes(tensor_op(a, b))
            assert nab == pytest.approx(na * nb, abs=1e-10)

    def test_adjoint_distributes(self):
        rng = np.random.default_rng(9)
        a, b = crandom(rng, 3, 2), crandom(rng, 2, 4)
        np.testing.assert_allclose(
            tensor_op(a, b).conj().T, tensor_op(a.conj().T, b.conj().T), atol=1e-12
        )


# (shape of a, shape of b): vectors, and matrices of mixed shapes with 1 x n and n x 1 factors
KRON_SHAPES = [
    ((3,), (2,)), ((1,), (4,)), ((5,), (1,)),
    ((3, 3), (2, 3)), ((1, 4), (3, 1)), ((4, 1), (1, 3)), ((1, 1), (2, 2)), ((2, 5), (1, 4)), ((3, 1), (3, 1)),
]


class TestKron:
    @pytest.mark.parametrize("sa, sb", KRON_SHAPES)
    def test_equals_np_kron(self, sa, sb):
        rng = np.random.default_rng(12)
        a, b = crandom(rng, *sa), crandom(rng, *sb)
        want = np.kron(a, b)
        assert np.array_equal(linalg._kron(a, b), want)
        assert np.array_equal(linalg.kron_all([a, b]), want)
        public = tensor_vec if a.ndim == 1 else tensor_op
        assert np.array_equal(public(a, b), want)

    @pytest.mark.parametrize("dims, lens", [
        ((2, 3, 2), (3, 4, 2)), ((1, 4), (5, 1)), ((3,), (4,)), ((2, 2, 2, 2), (1, 2, 3, 1)),
    ])
    def test_chain_of_row_matrices_equals_np_kron(self, dims, lens):
        rng = np.random.default_rng(13)
        rows = [crandom(rng, n, m) for m, n in zip(dims, lens)]
        assert np.array_equal(linalg.kron_all(rows), functools.reduce(np.kron, rows))

    def test_chain_of_vectors_equals_np_kron(self):
        rng = np.random.default_rng(14)
        vecs = [crandom(rng, n) for n in (2, 1, 3, 2)]
        assert np.array_equal(linalg.kron_all(vecs), functools.reduce(np.kron, vecs))


class TestOpNormExtremes:
    def test_identity(self):
        assert op_norm_extremes(np.eye(3)) == (1.0, 1.0)

    def test_diagonal(self):
        assert op_norm_extremes(np.diag([3.0, 1.0])) == (3.0, 1.0)

    def test_against_eigen_oracle(self):
        rng = np.random.default_rng(11)
        a = crandom(rng, 4, 3)
        eigs = np.linalg.eigvalsh(a.conj().T @ a)
        smax, smin = op_norm_extremes(a)
        assert smax == pytest.approx(np.sqrt(eigs[-1]), abs=1e-9)
        assert smin == pytest.approx(np.sqrt(eigs[0]), abs=1e-9)


class TestMatrixRank:
    def test_zero(self):
        assert linalg.matrix_rank(np.zeros((3, 3))) == 0

    def test_rank_one(self):
        assert linalg.matrix_rank(np.outer([1, 2], [3, 4])) == 1

    def test_empty(self):
        assert linalg.matrix_rank(np.zeros((0, 3))) == linalg.matrix_rank(np.zeros((3, 0))) == 0


class TestPowerOfTwoScaling:
    @pytest.mark.parametrize("x, e", [(1.0, 1), (0.75j, 0), (-3e-3, -8), (1e308, 1024), (5e-324, -1073)])
    def test_max_exponent(self, x, e):
        a = np.array([[x, x / 4]], dtype=complex)
        assert linalg.max_exponent(a) == e
        assert 0.5 <= np.abs(linalg.times_power_of_two(a, -e).view(float)).max() < 1

    def test_zero_has_exponent_zero(self):
        assert linalg.max_exponent(np.zeros((2, 3))) == 0

    def test_scaling_is_exact_beyond_the_float_exponent_range(self):
        a = np.array([5e-324, 1e-310j, 0.0])
        assert np.array_equal(linalg.times_power_of_two(a, 1073), a * 2.0**1000 * 2.0**73)
        rng = np.random.default_rng(3)
        b = crandom(rng, 3, 4).T  # not contiguous
        assert np.array_equal(linalg.times_power_of_two(linalg.times_power_of_two(b, -40), 40), b)


def matrix_rank_rule(s, tol):
    """matrix_rank's own count before the rule was shared: oracle."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def reshuffle_rank_rule(s, tol, scale):
    """reshuffle_rank's own count before the rule was shared: oracle."""
    if s.size == 0 or s[0] <= tol * scale:
        return 0
    return int(np.count_nonzero(s > tol * max(s[0], scale)))


@pytest.mark.parametrize("s", [
    [], [0.0], [0.0, 0.0], [1.0], [1.0, 1e-9, 1e-13], [3.0, 2.0, 1e-30, 0.0],
    [1e-300, 1e-310], [np.nan, 1.0], [np.inf, 1.0], [1e-13, 1e-14],
])
@pytest.mark.parametrize("tol", [1e-12, 1e-7, 1.0, 2.0])
@pytest.mark.parametrize("scale", [0.0, 1e-12, 1.0, 1e3])
def test_singular_value_rank_keeps_both_rules(s, tol, scale):
    s = np.array(s, dtype=float)
    assert linalg.singular_value_rank(s, tol) == matrix_rank_rule(s, tol)
    assert linalg.singular_value_rank(s, tol, scale) == reshuffle_rank_rule(s, tol, scale)
