import re
import sys
import warnings

import numpy as np
import pytest

from frameforge import schmidt, verify
from frameforge.errors import ConditionViolated, DimensionMismatch, DrawFailed, NonFiniteData
from frameforge.linalg import (
    DEFAULT_RTOL,
    inner,
    max_exponent,
    op_norm,
    singular_value_rank,
    tensor_vec,
    times_power_of_two,
)
from frameforge.schmidt import (
    BipartiteShape,
    FSROperator,
    D_uv,
    P_uv,
    contract_V1,
    contract_V2,
    deflate,
    inverse_factors,
    reshuffle_rank,
    schmidt_decompose_deflation,
    spans_equal,
)
from frameforge.verify import random_fsr_operator, suite_rng


def crandom(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


E2 = np.eye(2, dtype=complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SHAPE22 = BipartiteShape(2, 2, 2, 2)


def fsr_of_pairs(shape, terms):
    """The decomposition of (A_k, B_k) pairs as the two factor stacks; no pairs give the r = 0 stacks."""
    terms = list(terms)
    a = np.reshape([a for a, _ in terms], (-1, shape.k1, shape.h1))
    return FSROperator(shape, a, np.reshape([b for _, b in terms], (-1, shape.k2, shape.h2)))


def term_pairs(fsr):
    """The (A_k, B_k) pairs of a decomposition, in term order."""
    return list(zip(fsr.a, fsr.b))


def embed_U1(u1, h2: int) -> np.ndarray:
    """Embedding x2 -> u1 (x) x2 as a (h1*h2) x h2 matrix; operator norm ||u1||."""
    return np.kron(np.asarray(u1, dtype=complex).reshape(-1, 1), np.eye(h2))


def embed_U2(u2, h1: int) -> np.ndarray:
    """Embedding x1 -> x1 (x) u2 as a (h1*h2) x h1 matrix; operator norm ||u2||."""
    return np.kron(np.eye(h1), np.asarray(u2, dtype=complex).reshape(-1, 1))


def P_uv_by_embeddings(f, g, u1, u2, v1, v2, shape):
    """F and G composed with the embeddings, then contracted by einsum:
    oracle for P_uv on the 4-index view."""
    fa = f @ embed_U2(u2, shape.h1)
    a = np.einsum("j,ijc->ic", v2.conj(), fa.reshape(shape.k1, shape.k2, shape.h1))
    gb = g @ embed_U1(u1, shape.h2)
    b = np.einsum("i,ijc->jc", v1.conj(), gb.reshape(shape.k1, shape.k2, shape.h2))
    return a, b


def pairing_on_flat_operator(f, u1, u2, v1, v2):
    """<F(u1 (x) u2), v1 (x) v2> from the flat operator: oracle for pairing."""
    return inner(f @ tensor_vec(u1, u2), tensor_vec(v1, v2))


def deflate_pairing_first(f, u1, u2, v1, v2, shape):
    """The pairing checked on the flat operator before D_uv is formed:
    oracle for deflate, which reads the pairing off D_uv's first factor."""
    p = pairing_on_flat_operator(f, u1, u2, v1, v2)
    if abs(p - 1.0) > schmidt.PAIRING_TOL:
        raise ConditionViolated(f"pairing is {p}, expected 1")
    a, b = D_uv(f, u1, u2, v1, v2, shape)
    return f - np.kron(a, b)


def random_pairing_cases(seed, count):
    """(shape, F, u1, u2, v1, v2) with factor dims 1-4, every third shape
    with a 1-dimensional factor, and F scaled by 10**e, |e| <= 100."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        dims = [int(x) for x in rng.integers(1, 5, size=4)]
        if t % 3 == 0:
            dims[t % 4] = 1
        shape = BipartiteShape(*dims)
        f = 10.0 ** int(rng.integers(-100, 101)) * crandom(rng, shape.codomain_dim, shape.domain_dim)
        yield shape, f, crandom(rng, shape.h1), crandom(rng, shape.h2), crandom(rng, shape.k1), crandom(rng, shape.k2)


def assert_close_to_oracle(got, want, rel=1e-13):
    """Largest entrywise difference at most ``rel`` times the oracle's largest entry."""
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= rel * np.abs(want).max(initial=0.0)


class TestEmbeddings:
    def test_U1_on_basis(self):
        u = embed_U1(E2[0], 2)
        np.testing.assert_allclose(u @ E2[1], tensor_vec(E2[0], E2[1]))

    def test_U1_norm(self):
        rng = np.random.default_rng(0)
        u1 = crandom(rng, 3)
        assert op_norm(embed_U1(u1, 4)) == pytest.approx(np.linalg.norm(u1), abs=1e-10)

    def test_U1_zero(self):
        np.testing.assert_allclose(embed_U1(np.zeros(2), 3), 0)

    def test_U2_on_basis(self):
        u = embed_U2(E2[1], 2)
        np.testing.assert_allclose(u @ E2[0], tensor_vec(E2[0], E2[1]))

    def test_U2_norm(self):
        rng = np.random.default_rng(1)
        u2 = crandom(rng, 4)
        assert op_norm(embed_U2(u2, 3)) == pytest.approx(np.linalg.norm(u2), abs=1e-10)

    def test_U2_matches_tensor(self):
        rng = np.random.default_rng(2)
        u2, x1 = crandom(rng, 3), crandom(rng, 2)
        np.testing.assert_allclose(embed_U2(u2, 2) @ x1, tensor_vec(x1, u2), atol=1e-12)


class TestContractions:
    def test_V1_extracts_second_factor(self):
        h = tensor_vec(E2[0], E2[1])
        np.testing.assert_allclose(contract_V1(E2[0], h, SHAPE22), E2[1])

    def test_V1_orthogonal_kills(self):
        h = tensor_vec(E2[0], E2[1])
        np.testing.assert_allclose(contract_V1(E2[1], h, SHAPE22), 0)

    def test_V1_induced_norm(self):
        rng = np.random.default_rng(3)
        shape = BipartiteShape(2, 2, 3, 4)
        v1 = crandom(rng, 3)
        m = np.array(
            [contract_V1(v1, col, shape) for col in np.eye(12, dtype=complex)]
        ).T
        assert op_norm(m) == pytest.approx(np.linalg.norm(v1), abs=1e-10)

    def test_V2_extracts_first_factor(self):
        h = tensor_vec(E2[0], E2[1])
        np.testing.assert_allclose(contract_V2(E2[1], h, SHAPE22), E2[0])

    def test_V2_induced_norm(self):
        rng = np.random.default_rng(4)
        shape = BipartiteShape(2, 2, 3, 4)
        v2 = crandom(rng, 4)
        m = np.array(
            [contract_V2(v2, col, shape) for col in np.eye(12, dtype=complex)]
        ).T
        assert op_norm(m) == pytest.approx(np.linalg.norm(v2), abs=1e-10)

    def test_V2_linear_in_h(self):
        rng = np.random.default_rng(5)
        v2, h1, h2 = crandom(rng, 2), crandom(rng, 4), crandom(rng, 4)
        lhs = contract_V2(v2, 2 * h1 + 3j * h2, SHAPE22)
        rhs = 2 * contract_V2(v2, h1, SHAPE22) + 3j * contract_V2(v2, h2, SHAPE22)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("contract, v_len", [(contract_V1, 2), (contract_V2, 4)])
    def test_wrong_lengths_raise(self, contract, v_len):
        shape = BipartiteShape(2, 2, 2, 4)  # h has length k1 * k2 = 8; v1 has length k1 = 2, v2 length k2 = 4
        for v, h in ((np.ones(v_len + 1), np.ones(8)), (np.ones(v_len), np.ones(7))):
            with pytest.raises(DimensionMismatch, match=f"^{contract.__name__}: vector dims do not match the shape$"):
                contract(v, h, shape)


class TestPandD:
    def test_rank_one_expansion(self):
        # F = G = A0 (x) B0 gives (<B0 u2, v2> A0, <A0 u1, v1> B0)
        rng = np.random.default_rng(6)
        a0, b0 = crandom(rng, 2, 2), crandom(rng, 2, 2)
        f = np.kron(a0, b0)
        u1, u2, v1, v2 = (crandom(rng, 2) for _ in range(4))
        a, b = P_uv(f, f, u1, u2, v1, v2, SHAPE22)
        np.testing.assert_allclose(a, inner(b0 @ u2, v2) * a0, atol=1e-12)
        np.testing.assert_allclose(b, inner(a0 @ u1, v1) * b0, atol=1e-12)

    def test_norm_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            f, g = crandom(rng, 4, 4), crandom(rng, 4, 4)
            u1, u2, v1, v2 = (crandom(rng, 2) for _ in range(4))
            a, b = P_uv(f, g, u1, u2, v1, v2, SHAPE22)
            cap = (
                np.linalg.norm(u1)
                * np.linalg.norm(u2)
                * np.linalg.norm(v1)
                * np.linalg.norm(v2)
                * op_norm(f)
                * op_norm(g)
            )
            assert op_norm(np.kron(a, b)) <= cap + 1e-9

    def test_orthogonal_v2_gives_zero_A(self):
        rng = np.random.default_rng(8)
        a0, b0 = crandom(rng, 2, 2), crandom(rng, 2, 2)
        u2 = crandom(rng, 2)
        w = b0 @ u2
        v2 = np.array([-np.conj(w[1]), np.conj(w[0])])  # orthogonal to B0 u2
        a, _ = P_uv(np.kron(a0, b0), np.kron(a0, b0), crandom(rng, 2), u2, crandom(rng, 2), v2, SHAPE22)
        np.testing.assert_allclose(a, 0, atol=1e-12)

    def test_D_rank_one_fixed_point(self):
        rng = np.random.default_rng(9)
        a0, b0 = crandom(rng, 2, 2), crandom(rng, 2, 2)
        f = np.kron(a0, b0)
        u1, u2, v1, v2 = (crandom(rng, 2) for _ in range(4))
        p = schmidt.pairing(f, u1, u2, v1, v2, SHAPE22)
        v1 = v1 / np.conj(p)  # normalize so <F(u), v> = 1
        a, b = D_uv(f, u1, u2, v1, v2, SHAPE22)
        np.testing.assert_allclose(np.kron(a, b), f, atol=1e-10)

    def test_D_continuity(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            f, g = crandom(rng, 4, 4), crandom(rng, 4, 4)
            u1, u2, v1, v2 = (crandom(rng, 2) for _ in range(4))
            da = np.kron(*D_uv(f, u1, u2, v1, v2, SHAPE22))
            db = np.kron(*D_uv(g, u1, u2, v1, v2, SHAPE22))
            cap = (
                np.linalg.norm(u1)
                * np.linalg.norm(u2)
                * np.linalg.norm(v1)
                * np.linalg.norm(v2)
            )
            assert op_norm(da - db) <= cap * (op_norm(f) + op_norm(g)) * op_norm(f - g) + 1e-9

    def test_standard_basis_gives_residual_slices(self):
        # with u = (e_j1, e_j2) and v = (e_i1, e_i2): A = F4[:, i2, :, j2], B = G4[i1, :, j1, :]
        rng = np.random.default_rng(16)
        shape = BipartiteShape(2, 3, 4, 2)
        f, g = crandom(rng, 8, 6), crandom(rng, 8, 6)
        f4, g4 = f.reshape(4, 2, 2, 3), g.reshape(4, 2, 2, 3)
        for i1, i2, j1, j2 in np.ndindex(4, 2, 2, 3):
            u1, u2 = np.eye(2)[j1], np.eye(3)[j2]
            v1, v2 = np.eye(4)[i1], np.eye(2)[i2]
            a, b = P_uv(f, g, u1, u2, v1, v2, shape)
            assert np.array_equal(a, f4[:, i2, :, j2]) and np.array_equal(b, g4[i1, :, j1, :])

    def test_matches_embedding_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            shape = BipartiteShape(*rng.integers(1, 5, size=4))
            f = crandom(rng, shape.codomain_dim, shape.domain_dim)
            g = crandom(rng, shape.codomain_dim, shape.domain_dim)
            u1, u2 = crandom(rng, shape.h1), crandom(rng, shape.h2)
            v1, v2 = crandom(rng, shape.k1), crandom(rng, shape.k2)
            a, b = P_uv(f, g, u1, u2, v1, v2, shape)
            a0, b0 = P_uv_by_embeddings(f, g, u1, u2, v1, v2, shape)
            assert_close_to_oracle(a, a0)
            assert_close_to_oracle(b, b0)

    def test_D_of_zero(self):
        rng = np.random.default_rng(11)
        a, b = D_uv(np.zeros((4, 4)), *(crandom(rng, 2) for _ in range(4)), SHAPE22)
        np.testing.assert_allclose(np.kron(a, b), 0, atol=1e-12)


class TestPairing:
    def test_matches_flat_operator_oracle(self):
        for shape, f, u1, u2, v1, v2 in random_pairing_cases(19, 1000):
            cap = op_norm(f) * np.prod([np.linalg.norm(x) for x in (u1, u2, v1, v2)])
            got = schmidt.pairing(f, u1, u2, v1, v2, shape)
            assert abs(got - pairing_on_flat_operator(f, u1, u2, v1, v2)) <= 1e-13 * cap

    def test_is_read_off_the_first_factor_of_D_uv(self):
        for shape, f, u1, u2, v1, v2 in random_pairing_cases(21, 300):
            a, _ = D_uv(f, u1, u2, v1, v2, shape)
            assert schmidt.pairing(f, u1, u2, v1, v2, shape) == inner(a @ u1, v1)


class TestDeflate:
    # pairings on both sides of PAIRING_TOL, then one far from 1
    TARGETS = [1.0, 1 + 3e-10j, 1 - 8e-10, 1 + 2e-9, 1 - 5e-9j, 0.5 + 0.5j]

    def test_matches_pairing_first_oracle(self):
        for shape, f, u1, u2, v1, v2 in random_pairing_cases(20, 200):
            p0 = pairing_on_flat_operator(f, u1, u2, v1, v2)
            for target in self.TARGETS:
                w1 = v1 * np.conj(target / p0)  # the pairing is conjugate-linear in v1
                try:
                    want = deflate_pairing_first(f, u1, u2, w1, v2, shape)
                except ConditionViolated:
                    with pytest.raises(ConditionViolated, match="pairing is .*, expected 1"):
                        deflate(f, u1, u2, w1, v2, shape)
                    continue
                assert np.array_equal(deflate(f, u1, u2, w1, v2, shape), want)

    def test_rank_one_to_zero(self):
        rng = np.random.default_rng(12)
        f = np.kron(crandom(rng, 2, 2), crandom(rng, 2, 2))
        u1, u2, v1, v2 = (crandom(rng, 2) for _ in range(4))
        p = schmidt.pairing(f, u1, u2, v1, v2, SHAPE22)
        v1 = v1 / np.conj(p)
        np.testing.assert_allclose(deflate(f, u1, u2, v1, v2, SHAPE22), 0, atol=1e-10)

    def test_rank_two_drops_to_one(self):
        f = np.kron(E2, E2) + np.kron(X, X)
        # F(e1 (x) e1) = e1 (x) e1 + e2 (x) e2, so pairing with e1 (x) e1 is 1
        res = deflate(f, E2[0], E2[0], E2[0], E2[0], SHAPE22)
        assert reshuffle_rank(res, SHAPE22).rank_bound == 1

    def test_pairing_not_one(self):
        f = 0.5 * np.kron(E2, E2)
        with pytest.raises(ConditionViolated, match="pairing is .*, expected 1"):
            deflate(f, E2[0], E2[0], E2[0], E2[0], SHAPE22)

    def test_nan_pairing_fails(self):
        with pytest.raises(ConditionViolated, match="pairing is .*, expected 1"):
            deflate(np.eye(4), E2[0], E2[0], [np.nan, 0], E2[0], SHAPE22)


class TestVectorLengths:
    """A vector whose length does not match the shape raises ``DimensionMismatch``."""

    SHAPE = BipartiteShape(2, 3, 4, 5)  # u1, u2, v1, v2 have lengths 2, 3, 4, 5

    def cases(self):
        rng = np.random.default_rng(23)
        f = crandom(rng, self.SHAPE.codomain_dim, self.SHAPE.domain_dim)
        lengths = (2, 3, 4, 5)
        for wrong in range(4):
            yield f, [crandom(rng, n + (i == wrong)) for i, n in enumerate(lengths)]

    def test_P_uv(self):
        for f, vectors in self.cases():
            with pytest.raises(DimensionMismatch, match="vector lengths"):
                P_uv(f, f, *vectors, self.SHAPE)

    def test_D_uv(self):
        for f, vectors in self.cases():
            with pytest.raises(DimensionMismatch, match="vector lengths"):
                D_uv(f, *vectors, self.SHAPE)

    def test_pairing(self):
        for f, vectors in self.cases():
            with pytest.raises(DimensionMismatch, match="vector lengths"):
                schmidt.pairing(f, *vectors, self.SHAPE)

    def test_deflate(self):
        for f, vectors in self.cases():
            with pytest.raises(DimensionMismatch, match="vector lengths"):
                deflate(f, *vectors, self.SHAPE)

    def test_inverse_factors(self):
        fsr = FSROperator(SHAPE22, [E2], [E2])
        with pytest.raises(DimensionMismatch, match="vector lengths"):
            inverse_factors(fsr, np.eye(4), "left", np.ones(3), E2[0], E2[0], E2[0])


class TestDecomposition:
    def test_rank_one(self):
        rng = np.random.default_rng(13)
        f = np.kron(crandom(rng, 2, 2), crandom(rng, 3, 3))
        shape = BipartiteShape(2, 3, 2, 3)
        dec = schmidt_decompose_deflation(f, shape)
        assert dec.rank_bound == 1
        assert np.linalg.norm(f - dec.materialize()) <= 1e-9 * np.linalg.norm(f)

    def test_rank_two(self):
        rng = np.random.default_rng(14)
        shape = BipartiteShape(2, 3, 2, 3)
        f = random_fsr_operator(suite_rng(14, 0), shape, 2)[1]
        assert reshuffle_rank(f, shape).rank_bound == 2
        dec = schmidt_decompose_deflation(f, shape)
        assert dec.rank_bound == 2

    def test_zero_operator(self):
        dec = schmidt_decompose_deflation(np.zeros((6, 6)), BipartiteShape(2, 3, 2, 3))
        assert dec.rank_bound == 0

    def test_term_count_matches_oracle_on_batch(self):
        rng = suite_rng(99, 0)
        shape = BipartiteShape(2, 3, 2, 3)
        for t in range(100):
            r = 1 + t % 4
            f = random_fsr_operator(rng, shape, r)[1]
            dec = schmidt_decompose_deflation(f, shape)
            assert dec.rank_bound == reshuffle_rank(f, shape).rank_bound == r
            assert np.linalg.norm(f - dec.materialize()) <= 1e-8 * np.linalg.norm(f)


def reshuffle_rank_unscaled(f, shape, tol, scale):
    """Rank and factor pairs from an SVD of the reshuffle itself, unscaled: oracle
    for ``reshuffle_rank`` wherever sigma_max stays inside the float range."""
    u, s, vh = np.linalg.svd(schmidt.reshuffle(f, shape))
    rank = singular_value_rank(s, tol, scale)
    roots = np.sqrt(s[:rank])
    return rank, [
        (roots[k] * u[:, k].reshape(shape.k1, shape.h1), roots[k] * vh[k, :].reshape(shape.k2, shape.h2))
        for k in range(rank)
    ]


class TestReshuffleRank:
    def test_matches_unscaled_svd_bit_for_bit(self):
        # entries near 1e-5..1e5, scale 0 or the operator's own norm (times 1 or 10)
        rng = np.random.default_rng(5)
        for _ in range(300):
            shape = BipartiteShape(*rng.integers(1, 5, size=4))
            r = int(rng.integers(0, min(shape.k1 * shape.h1, shape.k2 * shape.h2) + 1))
            f = random_fsr_operator(rng, shape, r)[1] * 10.0 ** rng.uniform(-5, 5)
            scale = float(np.linalg.norm(f)) * rng.choice([0.0, 1.0, 10.0])
            dec = reshuffle_rank(f, shape, 1e-9, scale)
            want_rank, want_terms = reshuffle_rank_unscaled(f, shape, 1e-9, scale)
            assert dec.rank_bound == want_rank
            for (a, b), (want_a, want_b) in zip(term_pairs(dec), want_terms, strict=True):
                assert a.tobytes() == want_a.tobytes() and b.tobytes() == want_b.tobytes()

    @pytest.mark.parametrize("peak", [9.97e307, 1e-300])
    def test_planted_rank_three_at_extreme_magnitude(self, peak):
        # sigma_max of the unscaled reshuffle overflowed, and 9.97e307 ranked 0
        shape = BipartiteShape(4, 4, 4, 4)
        f = random_fsr_operator(suite_rng(0, 99), shape, 3)[1]
        f *= peak / np.abs(f.view(float)).max()
        dec = reshuffle_rank(f, shape)
        assert dec.rank_bound == 3
        e = max_exponent(f)
        f_s, rec_s = (times_power_of_two(x, -e) for x in (f, dec.materialize()))
        assert np.linalg.norm(f_s - rec_s) <= 1e-12 * np.linalg.norm(f_s)

    def test_scale_beyond_the_float_range_ranks_zero(self):
        # scale * 2**-2h overflows for a tiny operator and a huge scale; the unscaled rule also ranks 0
        f = random_fsr_operator(suite_rng(0, 98), SHAPE22, 2)[1] * 1e-300
        dec = reshuffle_rank(f, SHAPE22, 1e-9, 1e300)
        assert dec.rank_bound == 0 and term_pairs(dec) == []
        assert reshuffle_rank_unscaled(f, SHAPE22, 1e-9, 1e300)[0] == 0

    def test_elementary_tensor(self):
        rng = np.random.default_rng(15)
        f = np.kron(crandom(rng, 2, 2), crandom(rng, 2, 2))
        assert reshuffle_rank(f, SHAPE22).rank_bound == 1

    def test_identity_is_rank_one(self):
        dec = reshuffle_rank(np.eye(4), SHAPE22)
        assert dec.rank_bound == 1
        np.testing.assert_allclose(dec.materialize(), np.eye(4), atol=1e-12)

    def test_swap_is_rank_four(self):
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[j * 2 + i, i * 2 + j] = 1.0
        # brute-force oracle: the reshuffled 4x4 matrix is a permutation
        assert reshuffle_rank(swap, SHAPE22).rank_bound == 4

    def test_canonical_terms_reconstruct(self):
        rng = suite_rng(16, 0)
        shape = BipartiteShape(3, 2, 2, 3)
        f = random_fsr_operator(rng, shape, 3)[1]
        dec = reshuffle_rank(f, shape)
        assert dec.rank_bound == 3
        assert np.linalg.norm(f - dec.materialize()) <= 1e-9 * np.linalg.norm(f)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
@pytest.mark.parametrize("decompose", [schmidt_decompose_deflation, reshuffle_rank])
def test_non_finite_operator_raises_non_finite_data(decompose, bad):
    # the scaling rule refuses it before any division or SVD
    f = np.eye(4, dtype=complex)
    f[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteData, match="NaN or inf"):
            decompose(f, SHAPE22)


class TestSpansEqual:
    def test_two_decompositions_agree(self):
        rng = suite_rng(17, 0)
        shape = BipartiteShape(2, 3, 2, 3)
        f = random_fsr_operator(rng, shape, 2)[1]
        dec = schmidt_decompose_deflation(f, shape)
        canon = reshuffle_rank(f, shape)
        assert spans_equal(dec, canon, 1)
        assert spans_equal(dec, canon, 2)

    def test_unrelated_terms_differ(self):
        rng = np.random.default_rng(18)
        t1 = [(crandom(rng, 2, 2), crandom(rng, 2, 2)) for _ in range(2)]
        t2 = [(crandom(rng, 2, 2), crandom(rng, 2, 2)) for _ in range(2)]
        assert not spans_equal(fsr_of_pairs(SHAPE22, t1), fsr_of_pairs(SHAPE22, t2), 1)

    def test_permutation_and_scaling_invariance(self):
        rng = np.random.default_rng(19)
        t = [(crandom(rng, 2, 2), crandom(rng, 2, 2)) for _ in range(2)]
        scrambled = [(3j * t[1][0], t[1][1]), (-2 * t[0][0], t[0][1])]
        t, scrambled = fsr_of_pairs(SHAPE22, t), fsr_of_pairs(SHAPE22, scrambled)
        assert spans_equal(t, scrambled, 1)
        assert spans_equal(t, scrambled, 2)

    @pytest.mark.parametrize("shape", [BipartiteShape(2, 2, 2, 2), BipartiteShape(1, 3, 2, 1)])
    def test_zero_operator_decompositions_agree(self, shape):
        f = np.zeros((shape.codomain_dim, shape.domain_dim))
        dec = schmidt_decompose_deflation(f, shape)
        canon = reshuffle_rank(f, shape)
        assert dec.rank_bound == canon.rank_bound == 0
        for side in (1, 2):
            assert spans_equal(dec, canon, side)
            assert spans_equal(fsr_of_pairs(shape, []), fsr_of_pairs(shape, []), side)

    def test_unequal_ranks_differ(self):
        # the A factors of y are parallel, so they span one dimension against x's two
        rng = np.random.default_rng(26)
        a, b = crandom(rng, 2, 2, 2), crandom(rng, 2, 2, 2)
        x, y = FSROperator(SHAPE22, a, b), FSROperator(SHAPE22, [a[0], 2j * a[0]], b)
        assert not spans_equal(x, y, 1) and not spans_equal(y, x, 1)
        assert spans_equal(x, y, 2)

    @pytest.mark.parametrize("side", [0, 3, "1"])
    def test_unknown_side(self, side):
        t = fsr_of_pairs(SHAPE22, [(E2, E2)])
        with pytest.raises(ValueError, match="^side must be 1 or 2$"):
            spans_equal(t, t, side)

    def test_equal_spans_near_the_float_max(self):
        t = fsr_of_pairs(SHAPE22, [(1e308 * np.eye(2), np.eye(2))])
        assert spans_equal(t, t, 1) and spans_equal(t, t, 2)

    def test_non_finite_factor_raises_non_finite_data(self):
        t = fsr_of_pairs(SHAPE22, [(np.eye(2), np.eye(2))])
        with pytest.raises(NonFiniteData, match="NaN or inf"):
            spans_equal(fsr_of_pairs(SHAPE22, [(np.full((2, 2), np.nan), np.eye(2))]), t, 1)

    def test_length_mismatch(self):
        rng = np.random.default_rng(20)
        t = [(crandom(rng, 2, 2), crandom(rng, 2, 2))]
        match = r"^side-1 factor stacks have shapes \(1, 2, 2\) and \(2, 2, 2\), not one shape$"
        with pytest.raises(DimensionMismatch, match=match):
            spans_equal(fsr_of_pairs(SHAPE22, t), fsr_of_pairs(SHAPE22, t * 2), 1)

    def test_factor_shapes_differ_between_the_lists(self):
        match = r"^side-1 factor stacks have shapes \(1, 2, 2\) and \(1, 3, 3\), not one shape$"
        x = fsr_of_pairs(SHAPE22, [(np.eye(2), np.eye(2))])
        y = fsr_of_pairs(BipartiteShape(3, 3, 3, 3), [(np.eye(3), np.eye(3))])
        with pytest.raises(DimensionMismatch, match=match):
            spans_equal(x, y, 1)

    @pytest.mark.parametrize("side", [1, 2])
    def test_factor_shapes_differ_within_one_list(self, side):
        # (2, 2) and (4, 1) flatten to one length, but they are not factors of one space: no stack holds both
        mixed, plain = [np.eye(2), np.ones((4, 1))], [np.eye(2), np.eye(2)]
        with pytest.raises(DimensionMismatch, match="^term factor shapes do not match the bipartite shape$"):
            FSROperator(SHAPE22, *((mixed, plain) if side == 1 else (plain, mixed)))


class TestInverseFactors:
    def normalized_vectors(self, rng):
        u1, v1 = crandom(rng, 2), crandom(rng, 2)
        v1 = v1 / np.conj(inner(u1, v1))
        u2, v2 = crandom(rng, 2), crandom(rng, 2)
        v2 = v2 / np.conj(inner(u2, v2))
        return u1, u2, v1, v2

    def test_identity_operator(self):
        fsr = FSROperator(SHAPE22, [E2], [E2])
        pairs = inverse_factors(fsr, np.eye(4), "left", E2[0], E2[0], E2[0], E2[0])
        np.testing.assert_allclose(pairs[0][0], E2, atol=1e-12)
        np.testing.assert_allclose(pairs[0][1], E2, atol=1e-12)

    def test_left_identities_on_random_rank_two(self):
        rng = suite_rng(21, 0)
        for _ in range(10):
            fsr, f, _ = random_fsr_operator(rng, SHAPE22, 2)
            if np.linalg.cond(f) > 1e6:
                continue
            pairs = inverse_factors(fsr, np.linalg.inv(f), "left", *self.normalized_vectors(rng))
            s1 = sum(l1 @ a for (l1, _), a in zip(pairs, fsr.a))
            s2 = sum(l2 @ b for (_, l2), b in zip(pairs, fsr.b))
            np.testing.assert_allclose(s1, E2, atol=1e-8)
            np.testing.assert_allclose(s2, E2, atol=1e-8)

    def test_right_identities(self):
        rng = suite_rng(22, 0)
        fsr, f, _ = random_fsr_operator(rng, SHAPE22, 2)
        pairs = inverse_factors(fsr, np.linalg.inv(f), "right", *self.normalized_vectors(rng))
        s1 = sum(a @ r1 for (r1, _), a in zip(pairs, fsr.a))
        s2 = sum(b @ r2 for (_, r2), b in zip(pairs, fsr.b))
        np.testing.assert_allclose(s1, E2, atol=1e-8)
        np.testing.assert_allclose(s2, E2, atol=1e-8)

    def test_not_an_inverse(self):
        fsr = FSROperator(SHAPE22, [E2, X], [E2, X])
        with pytest.raises(ConditionViolated, match="not a left inverse of F"):
            inverse_factors(fsr, np.zeros((4, 4)), "left", E2[0], E2[0], E2[0], E2[0])

    def test_bad_normalization(self):
        fsr = FSROperator(SHAPE22, [E2], [E2])
        with pytest.raises(ConditionViolated, match="need <u1, v1> = 1 and <u2, v2> = 1"):
            inverse_factors(fsr, np.eye(4), "left", E2[0], E2[0], 2 * E2[0], E2[0])

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_nan_inverse_fails(self, side):
        inv = np.eye(4, dtype=complex)
        inv[1, 2] = np.nan
        with pytest.raises(ConditionViolated, match=f"not a {side} inverse of F"):
            inverse_factors(FSROperator(SHAPE22, [E2], [E2]), inv, side, E2[0], E2[0], E2[0], E2[0])

    @pytest.mark.parametrize("position", range(4))
    def test_nan_normalization_fails(self, position):
        vectors = [E2[0]] * 4
        vectors[position] = np.array([np.nan, 0])
        with pytest.raises(ConditionViolated, match="need <u1, v1> = 1 and <u2, v2> = 1"):
            inverse_factors(FSROperator(SHAPE22, [E2], [E2]), np.eye(4), "left", *vectors)

    def test_not_a_right_inverse(self):
        fsr = FSROperator(SHAPE22, [E2, X], [E2, X])
        with pytest.raises(ConditionViolated, match="not a right inverse of F"):
            inverse_factors(fsr, np.zeros((4, 4)), "right", E2[0], E2[0], E2[0], E2[0])

    def test_unknown_side(self):
        fsr = FSROperator(SHAPE22, [E2], [E2])
        with pytest.raises(ValueError, match="side"):
            inverse_factors(fsr, np.eye(4), "up", E2[0], E2[0], E2[0], E2[0])

    def test_non_square_shape(self):
        # C^2 (x) C^3 -> C^2 (x) C^2 has no inverse of either side
        fsr = FSROperator(BipartiteShape(2, 3, 2, 2), [E2], [np.ones((2, 3))])
        with pytest.raises(DimensionMismatch, match="^inverse factors need a square bipartite shape$"):
            inverse_factors(fsr, np.eye(4, 6), "left", E2[0], np.ones(3), E2[0], E2[0])


def inverse_factors_by_embeddings(fsr, inv, side, u1, u2, v1, v2):
    """Each L_{1,k}, L_{2,k} as L composed with an embedding, then contracted
    by einsum; the right case through adjoints: oracle for inverse_factors."""
    s = fsr.shape
    if side == "right":
        adj = FSROperator(s, fsr.a.conj().transpose(0, 2, 1), fsr.b.conj().transpose(0, 2, 1))
        left = inverse_factors_by_embeddings(adj, inv.conj().T, "left", v1, v2, u1, u2)
        return [(l1.conj().T, l2.conj().T) for l1, l2 in left]
    out = []
    for a_k, b_k in zip(fsr.a, fsr.b):
        m1 = inv @ embed_U2(b_k @ u2, s.h1)
        l1 = np.einsum("j,ijc->ic", v2.conj(), m1.reshape(s.h1, s.h2, s.h1))
        m2 = inv @ embed_U1(a_k @ u1, s.h2)
        l2 = np.einsum("i,ijc->jc", v1.conj(), m2.reshape(s.h1, s.h2, s.h2))
        out.append((l1, l2))
    return out


@pytest.mark.parametrize("shape", [SHAPE22, BipartiteShape(2, 3, 2, 3)])
def test_inverse_factors_match_embedding_oracle(shape):
    rng = suite_rng(24, 0)
    for _ in range(8):
        fsr = random_fsr_operator(rng, shape, 2)[0]
        inv = np.linalg.inv(fsr.materialize())
        u1, v1 = crandom(rng, shape.h1), crandom(rng, shape.h1)
        v1 = v1 / np.conj(inner(u1, v1))
        u2, v2 = crandom(rng, shape.h2), crandom(rng, shape.h2)
        v2 = v2 / np.conj(inner(u2, v2))
        for side in ("left", "right"):
            got = inverse_factors(fsr, inv, side, u1, u2, v1, v2)
            want = inverse_factors_by_embeddings(fsr, inv, side, u1, u2, v1, v2)
            # the 4-index contraction sums in another order than the embeddings
            for (l1, l2), (w1, w2) in zip(got, want, strict=True):
                assert_close_to_oracle(l1, w1)
                assert_close_to_oracle(l2, w2)


class TestRankOfLimits:
    def test_limit_rank_bounded(self):
        # F_N = F + (1/N) G with rank <= r by construction; the limit F has
        # reshuffle rank <= r
        rng = suite_rng(23, 0)
        shape = BipartiteShape(2, 3, 2, 3)
        r = 2
        f_terms, f, _ = random_fsr_operator(rng, shape, r)
        for n in (10, 100, 1000):
            g_a = [a + (1.0 / n) * crandom(rng, 2, 2) for a in f_terms.a]
            fn = FSROperator(shape, g_a, f_terms.b).materialize()
            assert reshuffle_rank(fn, shape).rank_bound <= r
        assert reshuffle_rank(f, shape).rank_bound <= r


def deflation_by_D_uv(f, shape, tol=1e-9):
    """The unit-vector D_uv deflation loop: oracle for the slice-based route."""
    norm0 = np.linalg.norm(f)
    terms = []
    if norm0 == 0.0:
        return terms
    residual = np.array(f, dtype=complex)
    for _ in range(min(shape.k1 * shape.h1, shape.k2 * shape.h2)):
        if np.linalg.norm(residual) <= tol * norm0:
            break
        i, j = np.unravel_index(np.argmax(np.abs(residual)), residual.shape)
        i1, i2 = divmod(int(i), shape.k2)
        j1, j2 = divmod(int(j), shape.h2)
        u1 = np.eye(shape.h1, dtype=complex)[j1]
        u2 = np.eye(shape.h2, dtype=complex)[j2]
        v1 = np.eye(shape.k1, dtype=complex)[i1] * np.conj(1.0 / residual[i, j])
        v2 = np.eye(shape.k2, dtype=complex)[i2]
        a, b = D_uv(residual, u1, u2, v1, v2, shape)
        residual = residual - np.kron(a, b)
        terms.append((a, b))
    return terms


def deflation_unscaled(f, shape, tol=DEFAULT_RTOL):
    """The slice-based deflation loop on F itself, without the power-of-two
    scaling: oracle for schmidt_decompose_deflation on ordinary magnitudes."""
    norm0 = np.linalg.norm(f)
    terms = []
    if norm0 == 0.0:
        return terms
    residual = np.array(f, dtype=complex)
    r4 = residual.reshape(shape.k1, shape.k2, shape.h1, shape.h2)
    for _ in range(min(shape.k1 * shape.h1, shape.k2 * shape.h2)):
        if np.linalg.norm(residual) <= tol * norm0:
            break
        i, j = np.unravel_index(np.argmax(np.abs(residual)), residual.shape)
        i1, i2 = divmod(int(i), shape.k2)
        j1, j2 = divmod(int(j), shape.h2)
        a = r4[:, i2, :, j2].copy()
        b = r4[i1, :, j1, :] / residual[i, j]
        residual -= np.kron(a, b)
        terms.append((a, b))
    return terms


def assert_terms_equal(got, want):
    assert len(got) == len(want)
    for (a, b), (a0, b0) in zip(got, want):
        assert np.array_equal(a, a0) and np.array_equal(b, b0)


def materialize_by_kron_loop(fsr):
    """One np.kron per term, summed in term order: oracle for FSROperator.materialize."""
    out = np.zeros((fsr.shape.codomain_dim, fsr.shape.domain_dim), dtype=complex)
    for a, b in zip(fsr.a, fsr.b):
        out += np.kron(a, b)
    return out


def random_terms_cases(seed, count=20):
    """Seeded (shape, terms) with factor dims 1..4, every third shape with a
    dimension-1 factor, and r from 1 up to the full Schmidt rank (every fourth
    case at full rank)."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        dims = [int(x) for x in rng.integers(1, 5, size=4)]
        if t % 3 == 0:
            dims[t % 4] = 1
        shape = BipartiteShape(*dims)
        full = min(shape.k1 * shape.h1, shape.k2 * shape.h2)
        r = full if t % 4 == 0 else int(rng.integers(1, full + 1))
        terms = tuple(
            (crandom(rng, shape.k1, shape.h1), crandom(rng, shape.k2, shape.h2)) for _ in range(r)
        )
        yield shape, terms


class TestStructuredRoutesMatchOracles:
    @pytest.mark.parametrize("seed", range(3))
    def test_deflation_matches_D_uv_loop(self, seed):
        for shape, terms in random_terms_cases(seed):
            f = materialize_by_kron_loop(fsr_of_pairs(shape, terms))
            scale = np.abs(f).max()
            got = term_pairs(schmidt_decompose_deflation(f, shape))
            want = deflation_by_D_uv(f, shape)
            assert len(got) == len(want) == len(terms)
            for (a, b), (a0, b0) in zip(got, want):
                assert np.abs(np.kron(a, b) - np.kron(a0, b0)).max() <= 1e-12 * scale

    @pytest.mark.parametrize("r", [8, 32, 128])
    def test_scaled_deflation_is_exact_on_planted_ranks(self, r):
        rng = np.random.default_rng(r)
        shape = BipartiteShape(16, 16, 16, 16)
        a, b = crandom(rng, r, 16, 16), crandom(rng, r, 16, 16)
        f = np.einsum("kac,kbd->abcd", a, b).reshape(256, 256)
        assert_terms_equal(term_pairs(schmidt_decompose_deflation(f, shape)), deflation_unscaled(f, shape))

    @pytest.mark.parametrize("magnitude", [1e-3, 1.0, 1e5])
    def test_scaled_deflation_is_exact_on_small_shapes(self, magnitude):
        for shape, terms in random_terms_cases(7):
            f = magnitude * materialize_by_kron_loop(fsr_of_pairs(shape, terms))
            assert_terms_equal(term_pairs(schmidt_decompose_deflation(f, shape)), deflation_unscaled(f, shape))

    @pytest.mark.parametrize("entries", [[1e308, 1e308], [5e-324, 0.0], [-1e-310, 3e-320j]])
    def test_extreme_magnitudes_deflate_to_rank_one(self, entries):
        # the unscaled loop ranks these 0: its norms overflow to inf or underflow to 0
        f = np.array([entries], dtype=complex)
        shape = BipartiteShape(1, 2, 1, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            assert deflation_unscaled(f, shape) == []
        dec = schmidt_decompose_deflation(f, shape)
        assert dec.rank_bound == 1
        assert np.array_equal(dec.materialize(), f)

    @pytest.mark.parametrize("seed", range(3))
    def test_materialize_matches_kron_loop(self, seed):
        for shape, terms in random_terms_cases(seed):
            fsr = fsr_of_pairs(shape, terms)
            want = materialize_by_kron_loop(fsr)
            got = fsr.materialize()
            assert got.shape == want.shape and got.dtype == complex
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_materialize_without_terms_is_zero(self):
        shape = BipartiteShape(2, 3, 1, 4)
        got = fsr_of_pairs(shape, ()).materialize()
        assert got.dtype == complex
        assert np.array_equal(got, materialize_by_kron_loop(fsr_of_pairs(shape, ())))
        assert got.shape == (4, 6) and not got.any()


def rank_law_by_replay(f, shape, r):
    """Residuals after each of r steps, each step replayed as the first term
    of a fresh deflation of the running residual: oracle for the rank-law
    suite's walk over one deflation."""
    residual = f.copy()
    out = []
    for _ in range(r):
        a, b = term_pairs(schmidt_decompose_deflation(residual, shape))[0]
        residual = residual - np.kron(a, b)
        out.append(residual)
    return out


def test_rank_law_walk_matches_replay():
    rng = suite_rng(25, 0)
    ranks = set()
    for t in range(40):
        shape = BipartiteShape(*(int(x) for x in rng.integers(1, 5, size=4)))
        r = 1 + t % min(shape.k1 * shape.h1, shape.k2 * shape.h2, 4)
        f = random_fsr_operator(rng, shape, r)[1]
        residual = f
        walked = []
        for a, b in term_pairs(schmidt_decompose_deflation(f, shape))[:r]:
            residual = residual - np.kron(a, b)
            walked.append(residual)
        replayed = rank_law_by_replay(f, shape, r)
        assert len(walked) == len(replayed) == r
        assert all(np.array_equal(w, p) for w, p in zip(walked, replayed))
        ranks.add(r)
    assert ranks == {1, 2, 3, 4}


@pytest.mark.parametrize("dims, r", [
    ((2, 3, 2, 3), 0), ((2, 3, 2, 3), 2), ((2, 3, 2, 3), 4), ((1, 2, 3, 1), 2), ((3, 2, 2, 2), 4), ((1, 1, 1, 1), 1),
])
def test_fsr_draw_returns_what_its_rank_check_read(dims, r):
    # r = 0 and r = min(k1*h1, k2*h2) are the extreme ranks of each shape
    shape = BipartiteShape(*dims)
    fsr, f, canon = random_fsr_operator(suite_rng(0, 30 + r), shape, r)
    assert fsr.shape == canon.shape == shape and fsr.rank_bound == canon.rank_bound == r
    assert f.tobytes() == fsr.materialize().tobytes()
    want = reshuffle_rank(f, shape)
    assert want.rank_bound == r
    assert len(term_pairs(canon)) == len(term_pairs(want))
    for (a, b), (a0, b0) in zip(term_pairs(canon), term_pairs(want)):
        assert a.tobytes() == a0.tobytes() and b.tobytes() == b0.tobytes()


@pytest.mark.parametrize("suite", [verify.suite_span_uniqueness, verify.suite_rank_one_fixed_point])
def test_fsr_suites_reuse_the_draws_matrix_and_decomposition(suite, monkeypatch):
    # the suites read f and canon off the draw: every reshuffle and materialisation is one attempt's check
    callers = {"reshuffle_rank": [], "materialize": []}

    def counted(name, original):
        def call(*args, **kwargs):
            callers[name].append(sys._getframe(1).f_code.co_name)
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(schmidt, "reshuffle_rank", counted("reshuffle_rank", schmidt.reshuffle_rank))
    monkeypatch.setattr(FSROperator, "materialize", counted("materialize", FSROperator.materialize))
    assert suite(suite_rng(7, 0), 10)["passed"]
    assert len(callers["reshuffle_rank"]) == len(callers["materialize"]) >= 10
    assert set(callers["reshuffle_rank"]) == set(callers["materialize"]) == {"random_fsr_operator"}


def times(factor, fn):
    """``fn`` with each array it returns multiplied by ``factor``."""
    return lambda *args: tuple(factor * x for x in fn(*args))


@pytest.mark.parametrize("name", ["P_uv", "D_uv"])
def test_prop22_fails_when_an_inequality_breaks(monkeypatch, name):
    # D_uv reads P_uv, so a scaled P breaks both the P bound and D continuity; a scaled D only the latter
    monkeypatch.setattr(schmidt, name, times(1e6, getattr(schmidt, name)))
    report = verify.suite_prop22_identities(suite_rng(7, 0), 5)
    assert (report["passed"], report["inequalities_ok"]) == (False, False)


def test_deflation_rank_law_fails_when_a_residual_ranks_wrong(monkeypatch):
    rank = schmidt.reshuffle_rank  # the draw's own rank check passes no scale and stays exact

    def residual_ranks_zero(f, shape, tol=DEFAULT_RTOL, scale=0.0):
        return rank(np.zeros_like(f) if scale else f, shape, tol, scale)

    monkeypatch.setattr(schmidt, "reshuffle_rank", residual_ranks_zero)
    report = verify.suite_deflation_rank_law(suite_rng(7, 0), 4)
    assert report["passed"] is False and report["worst_reconstruction"] <= 1e-8  # only the rank walk failed


def test_span_uniqueness_fails_when_the_deflation_drops_a_term(monkeypatch):
    deflation = schmidt.schmidt_decompose_deflation

    def one_term_short(f, shape, tol=DEFAULT_RTOL):
        dec = deflation(f, shape, tol)
        return FSROperator(shape, dec.a[1:], dec.b[1:])

    monkeypatch.setattr(schmidt, "schmidt_decompose_deflation", one_term_short)
    assert verify.suite_span_uniqueness(suite_rng(7, 0), 3) == {"passed": False, "trials": 3}


LAYOUT_SHAPE = BipartiteShape(2, 3, 2, 3)  # square, so inverse_factors takes it too
LAYOUT_VECTORS = (E2[0], np.eye(3)[0], E2[0], np.eye(3)[0])  # u1, u2, v1, v2
VIEW_CALLERS = {  # each reads its operator argument through BipartiteShape.view4
    "P_uv": lambda f: P_uv(f, f, *LAYOUT_VECTORS, LAYOUT_SHAPE),
    "D_uv": lambda f: D_uv(f, *LAYOUT_VECTORS, LAYOUT_SHAPE),
    "deflate": lambda f: deflate(f, *LAYOUT_VECTORS, LAYOUT_SHAPE),
    "schmidt_decompose_deflation": lambda f: schmidt_decompose_deflation(f, LAYOUT_SHAPE),
    "reshuffle": lambda f: schmidt.reshuffle(f, LAYOUT_SHAPE),
    "reshuffle_rank": lambda f: reshuffle_rank(f, LAYOUT_SHAPE),
    "inverse_factors": lambda f: inverse_factors(
        FSROperator(LAYOUT_SHAPE, [E2], [np.eye(3)]), f, "left", *LAYOUT_VECTORS),
}


def seeded_shapes(seed, count=12):
    """Seeded bipartite shapes with factor dims 1..4, the first of them 1 x 1 x 1 x 1."""
    rng = np.random.default_rng(seed)
    yield BipartiteShape(1, 1, 1, 1)
    for _ in range(count - 1):
        yield BipartiteShape(*(int(x) for x in rng.integers(1, 5, size=4)))


def materialize_by_tensordot_chain(s, terms):
    """The (A_k, B_k) pairs stacked, then contracted, with the permutation written out, and zeros for no
    pairs, as ``materialize`` did when a decomposition was a tuple of pairs: oracle for FSROperator.materialize."""
    if not terms:
        return np.zeros((s.codomain_dim, s.domain_dim), dtype=complex)
    a = np.stack([a for a, _ in terms])
    b = np.stack([b for _, b in terms])
    return np.tensordot(a, b, axes=(0, 0)).transpose(0, 2, 1, 3).reshape(s.codomain_dim, s.domain_dim)


def reshuffle_by_reshape_chain(f, s):
    """R[(i1, j1), (i2, j2)] with the reshapes written out: oracle for reshuffle."""
    f = np.asarray(f, dtype=complex)
    return f.reshape(s.k1, s.k2, s.h1, s.h2).transpose(0, 2, 1, 3).reshape(s.k1 * s.h1, s.k2 * s.h2)


class TestLayout:
    @pytest.mark.parametrize("caller", VIEW_CALLERS)
    @pytest.mark.parametrize("bad, message", [
        (np.ones((5, 6)), r"operator shape \(5, 6\) does not match bipartite shape \(6, 6\)"),
        (np.ones(36), r"expected a matrix, got array of shape \(36,\)"),
    ], ids=["row_short", "vector"])
    def test_every_view_caller_refuses_a_misshapen_operator(self, caller, bad, message):
        with pytest.raises(DimensionMismatch, match=f"^{message}$"):
            VIEW_CALLERS[caller](bad)

    def test_view4_is_a_view_of_the_operator(self):
        f = crandom(np.random.default_rng(40), 6, 6)
        f4 = LAYOUT_SHAPE.view4(f)
        assert f4.shape == (2, 3, 2, 3) and np.shares_memory(f4, f)
        assert f4[1, 2, 0, 1] == f[1 * 3 + 2, 0 * 3 + 1]

    @pytest.mark.parametrize("r", [0, 1, 3])
    def test_materialize_equals_the_tensordot_chain(self, r):
        rng = np.random.default_rng(41 + r)
        for shape in seeded_shapes(r):
            terms = tuple((crandom(rng, shape.k1, shape.h1), crandom(rng, shape.k2, shape.h2)) for _ in range(r))
            got, want = fsr_of_pairs(shape, terms).materialize(), materialize_by_tensordot_chain(shape, terms)
            assert got.dtype == want.dtype == complex and np.array_equal(got, want)

    def test_reshuffle_equals_the_reshape_chain(self):
        rng = np.random.default_rng(44)
        for shape in seeded_shapes(44):
            f = crandom(rng, shape.codomain_dim, shape.domain_dim)
            for g in (f, np.asfortranarray(f), f.real):
                got, want = schmidt.reshuffle(g, shape), reshuffle_by_reshape_chain(g, shape)
                assert got.dtype == complex and np.array_equal(got, want)

    @pytest.mark.parametrize("dims", [(0, 1, 1, 1), (1, 1, 1, -1)])
    def test_shape_needs_positive_dimensions(self, dims):
        with pytest.raises(ValueError, match="^all factor dimensions must be positive$"):
            BipartiteShape(*dims)

    def test_max_rank_is_the_smaller_flattened_dimension(self):
        for shape in seeded_shapes(45, count=40):
            assert shape.max_rank == min(shape.k1 * shape.h1, shape.k2 * shape.h2)

    def test_fsr_draw_stops_at_max_rank(self):
        # dims 1..3 keep the full-rank draws small
        rng = np.random.default_rng(46)
        for _ in range(8):
            shape = BipartiteShape(*(int(x) for x in rng.integers(1, 4, size=4)))
            draws = suite_rng(0, 46)
            fsr, _, canon = random_fsr_operator(draws, shape, shape.max_rank)
            assert fsr.rank_bound == canon.rank_bound == shape.max_rank
            state = draws.bit_generator.state
            with pytest.raises(DrawFailed, match=f"has Schmidt rank {shape.max_rank + 1}, outside"):
                random_fsr_operator(draws, shape, shape.max_rank + 1)
            assert draws.bit_generator.state == state


class TestTolerance:
    """Both routes refuse a tol that is NaN, infinite or negative, before any arithmetic reads it."""

    @pytest.mark.parametrize("decompose", [schmidt_decompose_deflation, reshuffle_rank])
    @pytest.mark.parametrize("f, tol", [
        # deflation divided by a zero pivot at nan and -1; the SVD route ranked eye(4) 0 at nan and 4 at -1
        (np.eye(4), np.nan), (np.eye(4), -1.0), (np.eye(4), -np.inf),
        # inf * 0 warned in both routes on the zero operator
        (np.zeros((4, 4)), np.inf), (np.zeros((4, 4)), np.nan),
    ], ids=["eye_nan", "eye_negative", "eye_minus_inf", "zero_inf", "zero_nan"])
    def test_refused_with_its_value(self, decompose, f, tol):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^tol must be a finite number >= 0, got {re.escape(str(tol))}$"):
                decompose(f, SHAPE22, tol)

    @pytest.mark.parametrize("decompose", [schmidt_decompose_deflation, reshuffle_rank])
    def test_zero_is_accepted(self, decompose):
        assert decompose(np.eye(4), SHAPE22, 0.0).rank_bound == 1
        assert decompose(np.zeros((4, 4)), SHAPE22, 0.0).rank_bound == 0

    @pytest.mark.parametrize("decompose", [schmidt_decompose_deflation, reshuffle_rank])
    @pytest.mark.parametrize("tol", [1e308, 2.0])
    def test_large_tol_ranks_zero_without_warning(self, decompose, tol):
        # a tol >= 1 stops at the first test; the deflation's threshold must not overflow on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert decompose(np.ones((4, 4)), SHAPE22, tol).rank_bound == 0


class TestStacks:
    """A decomposition is the two factor stacks; each route fills them as it filled its (A_k, B_k) pairs."""

    def test_takes_stacks_and_lists_of_equal_shape_matrices(self):
        rng = np.random.default_rng(50)
        shape = BipartiteShape(2, 3, 4, 1)  # A_k is 4 x 2, B_k is 1 x 3
        a, b = crandom(rng, 2, 4, 2), crandom(rng, 2, 1, 3)
        for fsr in (FSROperator(shape, a, b), FSROperator(shape, list(a), list(b))):
            assert fsr.rank_bound == 2 and np.array_equal(fsr.a, a) and np.array_equal(fsr.b, b)
        real = FSROperator(shape, a.real, b.real.tolist())
        assert real.a.dtype == real.b.dtype == complex and np.array_equal(real.b, b.real)
        empty = FSROperator(shape, np.zeros((0, 4, 2)), np.zeros((0, 1, 3)))
        assert empty.rank_bound == 0 and empty.a.dtype == empty.b.dtype == complex

    @pytest.mark.parametrize("a, b", [
        ([E2, np.eye(3)], [E2, E2]),
        ([E2, E2], [np.eye(3), E2]),
        (E2, E2),
        (np.ones((1, 1, 2, 2)), np.ones((1, 1, 2, 2))),
        (1.0, 1.0),
        ([E2, E2], [E2]),
        (np.ones((0, 2, 2)), np.ones((1, 2, 2))),
        ([np.eye(2, 3)], [E2]),
        ([E2], [np.eye(3, 2)]),
        ([], []),
    ], ids=["ragged_a", "ragged_b", "2d_stacks", "4d_stacks", "scalars", "mismatched_r", "r0_against_r1",
            "wrong_a_shape", "wrong_b_shape", "bare_empty_list"])
    def test_refuses_stacks_that_do_not_fit(self, a, b):
        with pytest.raises(DimensionMismatch, match="^term factor shapes do not match the bipartite shape$"):
            FSROperator(SHAPE22, a, b)

    @pytest.mark.parametrize("magnitude", [1e-300, 1.0, 1e300])
    def test_deflation_stacks_are_the_pairs_of_the_pair_loop(self, magnitude):
        cases = [(shape, magnitude * materialize_by_kron_loop(fsr_of_pairs(shape, terms)))
                 for shape, terms in random_terms_cases(8)]
        cases += [(shape, np.zeros((shape.codomain_dim, shape.domain_dim))) for shape in seeded_shapes(8, count=4)]
        for shape, f in cases:
            dec = schmidt_decompose_deflation(f, shape)
            want = deflation_as_pairs(f, shape)
            assert dec.a.shape == (len(want), shape.k1, shape.h1) and dec.b.shape == (len(want), shape.k2, shape.h2)
            for (a, b), (a0, b0) in zip(term_pairs(dec), want, strict=True):
                assert a.tobytes() == a0.tobytes() and b.tobytes() == b0.tobytes()

    @pytest.mark.parametrize("magnitude", [1e-300, 1.0, 1e300])
    def test_reshuffle_stacks_are_the_pairs_of_the_svd(self, magnitude):
        for shape, terms in random_terms_cases(9):
            f = magnitude * materialize_by_kron_loop(fsr_of_pairs(shape, terms))
            for scale in (0.0, np.abs(f).max()):
                dec = reshuffle_rank(f, shape, DEFAULT_RTOL, scale)
                rank, want = reshuffle_rank_as_pairs(f, shape, DEFAULT_RTOL, scale)
                assert dec.rank_bound == rank == len(terms)
                for (a, b), (a0, b0) in zip(term_pairs(dec), want, strict=True):
                    assert a.tobytes() == a0.tobytes() and b.tobytes() == b0.tobytes()

    @pytest.mark.parametrize("dims, r", [((2, 3, 2, 3), 0), ((2, 3, 2, 3), 3), ((1, 2, 3, 1), 2), ((3, 2, 2, 2), 4)])
    def test_fsr_draw_is_the_pairwise_draw(self, dims, r):
        shape = BipartiteShape(*dims)
        rng, pairwise = suite_rng(0, 60 + r), suite_rng(0, 60 + r)
        fsr, f, _ = random_fsr_operator(rng, shape, r)
        while True:  # A_k, then B_k, for each k, until the oracle rank is r
            terms = [(crandom(pairwise, shape.k1, shape.h1), crandom(pairwise, shape.k2, shape.h2)) for _ in range(r)]
            if reshuffle_rank(fsr_of_pairs(shape, terms).materialize(), shape).rank_bound == r:
                break
        assert rng.bit_generator.state == pairwise.bit_generator.state
        for (a, b), (a0, b0) in zip(term_pairs(fsr), terms, strict=True):
            assert a.tobytes() == a0.tobytes() and b.tobytes() == b0.tobytes()
        assert f.tobytes() == materialize_by_tensordot_chain(shape, terms).tobytes()


def deflation_as_pairs(f, shape, tol=DEFAULT_RTOL):
    """The scaled deflation loop as it was written when a decomposition was a tuple of (A_k, B_k) pairs:
    oracle for the stacks of schmidt_decompose_deflation."""
    f4 = shape.view4(f)
    e = max_exponent(f4)
    r4 = times_power_of_two(f4, -e)
    residual = r4.reshape(shape.codomain_dim, shape.domain_dim)
    norm0 = np.linalg.norm(residual)
    terms = []
    for _ in range(shape.max_rank):
        if np.linalg.norm(residual) <= tol * norm0:
            break
        i1, i2, j1, j2 = np.unravel_index(np.argmax(np.abs(r4)), r4.shape)
        a = r4[:, i2, :, j2].copy()
        b = r4[i1, :, j1, :] / r4[i1, i2, j1, j2]
        residual -= np.kron(a, b)
        terms.append((times_power_of_two(a, e), b))
    return terms


def reshuffle_rank_as_pairs(f, shape, tol, scale):
    """Rank and (A_k, B_k) pairs of the scaled reshuffle SVD, one pair per singular value above the rule:
    oracle for the stacks of reshuffle_rank at any magnitude."""
    r = schmidt.reshuffle(f, shape)
    h = -(-max_exponent(r) // 2)
    u, s, vh = np.linalg.svd(times_power_of_two(r, -2 * h))
    rank = singular_value_rank(s, tol, np.ldexp(scale, -2 * h))
    roots = np.sqrt(s[:rank])
    return rank, [
        (times_power_of_two(roots[k] * u[:, k].reshape(shape.k1, shape.h1), h),
         times_power_of_two(roots[k] * vh[k, :].reshape(shape.k2, shape.h2), h))
        for k in range(rank)
    ]
