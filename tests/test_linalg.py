import functools
import warnings

import numpy as np
import pytest

from frameforge import linalg
from frameforge.errors import DimensionMismatch, NonFiniteData, OutOfFloatRange
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
        with pytest.raises(DimensionMismatch, match="vector dims 2 and 3 differ"):
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
        public = tensor_vec if a.ndim == 1 else tensor_op
        assert np.array_equal(public(a, b), want)
        a, b, want = np.atleast_2d(a, b, want)  # a vector enters _kron and kron_sum as a one-row matrix
        assert np.array_equal(linalg._kron(a, b), want)
        assert np.array_equal(linalg.kron_sum([(a, b)]), want)

    @pytest.mark.parametrize("dims, lens", [
        ((2, 3, 2), (3, 4, 2)), ((1, 4), (5, 1)), ((3,), (4,)), ((2, 2, 2, 2), (1, 2, 3, 1)),
    ])
    def test_chain_of_row_matrices_equals_np_kron(self, dims, lens):
        rng = np.random.default_rng(13)
        rows = [crandom(rng, n, m) for m, n in zip(dims, lens)]
        assert np.array_equal(linalg.kron_sum([rows]), functools.reduce(np.kron, rows))

    def test_chain_of_vectors_equals_np_kron(self):
        rng = np.random.default_rng(14)
        vecs = [crandom(rng, n) for n in (2, 1, 3, 2)]
        rows = [v[None] for v in vecs]  # vectors enter kron_sum as one-row matrices
        assert np.array_equal(linalg.kron_sum([rows])[0], functools.reduce(np.kron, vecs))


def kron_sum_by_loop(terms):
    """Reference: zeros of the result's shape plus one ``np.kron`` chain per term, in order."""
    prods = [functools.reduce(np.kron, term) for term in terms]
    out = np.zeros(prods[0].shape, dtype=complex)
    for prod in prods:
        out += prod
    return out


def random_terms(rng, d, r, vectors):
    """r terms of d factors: vectors of lengths 1-4, as the one-row matrices that kron_sum takes, or matrices of
    1-4 rows and 1-3 columns."""
    shapes = [(1, int(rng.integers(1, 5))) if vectors else (int(rng.integers(1, 5)), int(rng.integers(1, 4)))
              for _ in range(d)]
    return [tuple(crandom(rng, *shape) for shape in shapes) for _ in range(r)]


@pytest.mark.parametrize("vectors", [True, False], ids=["vectors", "matrices"])
@pytest.mark.parametrize("d", [1, 2, 3])
class TestKronSum:
    @pytest.mark.parametrize("r", [2, 3])
    def test_equals_np_kron_loop(self, d, r, vectors):
        rng = np.random.default_rng(10 * d + r)
        for _ in range(5):
            terms = random_terms(rng, d, r, vectors)
            assert np.array_equal(linalg.kron_sum(terms), kron_sum_by_loop(terms))

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_result_shares_no_memory_with_an_input(self, d, r, vectors):
        terms = random_terms(np.random.default_rng(20 * d + r), d, r, vectors)
        out = linalg.kron_sum(iter(terms))
        assert not any(np.shares_memory(out, x) for term in terms for x in term)


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

    def test_equals_the_unscaled_svd_in_the_normal_range(self):
        rng = np.random.default_rng(12)
        for scale in (1e-100, 1e-3, 1.0, 7.0, 1e100):
            for shape in ((1, 1), (3, 5), (6, 2), (8, 8)):
                a = scale * crandom(rng, *shape)
                s = np.linalg.svd(a, compute_uv=False)
                assert op_norm_extremes(a) == (float(s[0]), float(s[-1]))

    @pytest.mark.parametrize("x", [1e308, 5e-324])
    def test_finite_norms_at_any_magnitude(self, x):
        # both singular values of [[x, x], [x, -x]] are sqrt(2) x, finite at the float max and at a subnormal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hi, lo = op_norm_extremes(x * np.array([[1, 1], [1, -1]]))
        assert (hi, lo) == pytest.approx((np.sqrt(2) * x,) * 2, rel=1e-15 if x > 1 else 0.5)

    def test_norm_past_the_float_max_is_out_of_float_range(self):
        # the norm 3e308 of 1.5e308 * ones((2, 2)) came back as (inf, 0.0)
        with pytest.raises(OutOfFloatRange, match="operator norm"):
            op_norm_extremes(1.5e308 * np.ones((2, 2)))

    @pytest.mark.parametrize("x", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_raises_non_finite_data(self, x):
        with pytest.raises(NonFiniteData, match="NaN or inf"):
            op_norm_extremes(np.array([[x, 0], [0, 1]]))

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
    def test_empty_matrix_has_no_singular_values(self, shape):
        with pytest.raises(DimensionMismatch, match="^empty matrix has no singular values$"):
            op_norm_extremes(np.zeros(shape))


@pytest.mark.parametrize("x", [np.eye(2), np.ones((1, 3)), 1.0])
def test_as_cvector_refuses_what_is_not_a_vector(x):
    with pytest.raises(DimensionMismatch, match=r"^expected a vector, got array of shape \("):
        linalg.as_cvector(x)


class TestMatrixRank:
    def test_zero(self):
        assert linalg.matrix_rank(np.zeros((3, 3))) == 0

    def test_rank_one(self):
        assert linalg.matrix_rank(np.outer([1, 2], [3, 4])) == 1

    def test_empty(self):
        assert linalg.matrix_rank(np.zeros((0, 3))) == linalg.matrix_rank(np.zeros((3, 0))) == 0
        assert linalg.matrix_rank(np.zeros((0, 0))) == 0

    @pytest.mark.parametrize("x", [1e308, 5e-324])
    def test_ranks_at_any_magnitude(self, x):
        # the SVD of the unscaled [[x, x], [x, -x]] overflows at 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert linalg.matrix_rank(x * np.array([[1, 1], [1, -1]])) == 2
            assert linalg.matrix_rank(x * np.array([[1, 1], [1, 1]])) == 1

    @pytest.mark.parametrize("x", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_raises_non_finite_data(self, x):
        with pytest.raises(NonFiniteData, match="NaN or inf"):
            linalg.matrix_rank(np.array([[x, 0], [0, 1]]))


class TestPowerOfTwoScaling:
    @pytest.mark.parametrize("x, e", [(1.0, 1), (0.75j, 0), (-3e-3, -8), (1e308, 1024), (5e-324, -1073)])
    def test_max_exponent(self, x, e):
        a = np.array([[x, x / 4]], dtype=complex)
        assert linalg.max_exponent(a) == e
        assert 0.5 <= np.abs(linalg.times_power_of_two(a, -e).view(float)).max() < 1

    def test_zero_has_exponent_zero(self):
        assert linalg.max_exponent(np.zeros((2, 3))) == 0

    def test_empty_item_has_exponent_zero(self):
        assert linalg.max_exponent(np.zeros((0, 3))) == 0
        assert linalg.max_exponents(np.zeros((2, 0, 3))).tolist() == [0, 0]

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf, complex(1, np.nan), complex(0, -np.inf)])
    def test_non_finite_has_no_exponent(self, x):
        a = np.array([[1e300, x], [0, 5e-324]], dtype=complex)
        with pytest.raises(NonFiniteData, match="NaN or inf"):
            linalg.max_exponent(a)
        with pytest.raises(NonFiniteData, match="NaN or inf"):
            linalg.max_exponents(np.stack([np.ones((2, 2)), a, np.zeros((2, 2))]))

    def test_a_stack_scales_each_item_by_its_own_exponent(self):
        rng = np.random.default_rng(4)
        stack = crandom(rng, 5, 3, 2) * np.array([1.0, 1e300, 1e-300, 0.0, -7.0])[:, None, None]
        e = linalg.max_exponents(stack)
        assert e.tolist() == [linalg.max_exponent(x) for x in stack]
        scaled = linalg.times_power_of_two(stack, -e[:, None, None])
        assert all(np.array_equal(s, linalg.times_power_of_two(x, -k)) for s, x, k in zip(scaled, stack, e.tolist()))

    def test_scaling_is_exact_beyond_the_float_exponent_range(self):
        a = np.array([5e-324, 1e-310j, 0.0])
        assert np.array_equal(linalg.times_power_of_two(a, 1073), a * 2.0**1000 * 2.0**73)
        rng = np.random.default_rng(3)
        b = crandom(rng, 3, 4).T  # not contiguous
        assert np.array_equal(linalg.times_power_of_two(linalg.times_power_of_two(b, -40), 40), b)


class TestWithinFloatRange:
    def test_finite_result_passes_through_unchanged(self):
        a = np.array([1e308, -1e-320, 3j])
        assert linalg.within_float_range(lambda: a, "a result", np.array([np.nan])) is a

    @pytest.mark.parametrize("compute", [
        lambda: np.array([1e200]) * np.array([1e200]),  # overflow
        lambda: np.array([np.inf]) * 0.0,  # invalid
        lambda: np.array([1e308 + 1e308j]) @ np.array([1e308 - 1e308j]),  # overflow in a product
    ], ids=["overflow", "invalid", "matmul"])
    def test_non_finite_result_of_finite_inputs_leaves_the_float_range(self, compute):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfFloatRange, match="^the test result leaves the float range$"):
                linalg.within_float_range(compute, "the test result", np.ones(2), np.array(1e308))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_input_raises_non_finite_data(self, bad):
        inputs = (np.ones(2), np.array([[0, bad]], dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = r"^the input of the test result has non-finite entries \(NaN or inf\)$"
            with pytest.raises(NonFiniteData, match=message):
                linalg.within_float_range(lambda: inputs[1] * 2, "the test result", *inputs)


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


class TestHermitianExtremes:
    def test_matches_one_call_per_stack(self, monkeypatch):
        rng = np.random.default_rng(3)
        stacks = []
        for k, p in [(3, 2), (1, 1), (4, 2), (2, 5), (1, 2), (6, 1)]:
            x = crandom(rng, k, p, p)
            stacks.append(x @ x.conj().swapaxes(-1, -2))
        want = [(float(np.linalg.eigvalsh(s).min()), float(np.linalg.eigvalsh(s).max())) for s in stacks]
        sizes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: sizes.append(m.shape) or eigvalsh(m))
        assert linalg.hermitian_extremes(stacks) == want
        assert sizes == [(8, 2, 2), (7, 1, 1), (2, 5, 5)]  # one call per block size, first-seen order

    def test_empty_input(self):
        assert linalg.hermitian_extremes([]) == []
