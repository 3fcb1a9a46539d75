import itertools

import numpy as np
import pytest

from frameforge.errors import DependentGroup, DimensionMismatch, OutOfFloatRange, WrongRank
from frameforge.sequences import (
    VectorSequence,
    analysis_operator,
    build_minimal_sum,
    classify,
    concatenate,
    frame_operator,
    materialize,
    tensor_sequences,
    two_term_disjunction_check,
    verify_main_theorem,
)
from frameforge.verify import branch1_minimal_sum, branch3_minimal_sum, random_frame_minimal_sum


def crandom(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def onb(dim):
    return VectorSequence(np.eye(dim, dtype=complex))


MERCEDES = VectorSequence(
    np.array([[0.0, 1.0], [-np.sqrt(3) / 2, -0.5], [np.sqrt(3) / 2, -0.5]], dtype=complex)
)


class TestOperators:
    def test_analysis_of_onb_is_identity(self):
        np.testing.assert_allclose(analysis_operator(onb(2)), np.eye(2))

    def test_analysis_rows(self):
        seq = VectorSequence(np.array([[1, 0], [1, 0]], dtype=complex))
        np.testing.assert_allclose(analysis_operator(seq), [[1, 0], [1, 0]])

    def test_analysis_conjugates(self):
        seq = VectorSequence(np.array([[1j, 0]]))
        np.testing.assert_allclose(analysis_operator(seq), [[-1j, 0]])

    def test_analysis_computes_coefficients(self):
        rng = np.random.default_rng(0)
        seq = VectorSequence(crandom(rng, 4, 3))
        f = crandom(rng, 3)
        coeffs = analysis_operator(seq) @ f
        expected = [np.vdot(v, f) for v in seq.vectors]  # <f, f_n>
        np.testing.assert_allclose(coeffs, expected, atol=1e-12)

    def test_synthesis_maps_basis_to_vectors(self):
        rng = np.random.default_rng(1)
        seq = VectorSequence(crandom(rng, 4, 3))
        syn = analysis_operator(seq).conj().T
        for n in range(4):
            np.testing.assert_allclose(syn @ np.eye(4)[n], seq[n], atol=1e-12)

    def test_synthesis_times_analysis_is_frame_operator(self):
        rng = np.random.default_rng(2)
        seq = VectorSequence(crandom(rng, 5, 3))
        np.testing.assert_allclose(
            analysis_operator(seq).conj().T @ analysis_operator(seq), frame_operator(seq), atol=1e-12
        )

    @pytest.mark.parametrize("vectors", [[[1e308, 0]], [[1e308 + 1e308j, 1e200], [1, 1e-300]]])
    def test_frame_operator_outside_float_range_raises(self, vectors):
        # S overflows to inf or NaN; numpy's overflow warning would be an error here
        with pytest.raises(OutOfFloatRange, match="float range"):
            frame_operator(VectorSequence(np.array(vectors, dtype=complex)))

    def test_frame_operator_of_onb(self):
        np.testing.assert_allclose(frame_operator(onb(3)), np.eye(3))

    def test_frame_operator_of_two_onbs(self):
        both = concatenate([onb(2), onb(2)])
        np.testing.assert_allclose(frame_operator(both), 2 * np.eye(2))

    def test_mercedes_is_tight(self):
        np.testing.assert_allclose(frame_operator(MERCEDES), 1.5 * np.eye(2), atol=1e-12)


class TestClassify:
    def test_onb(self):
        rep = classify(onb(3))
        assert (rep.lower_bound, rep.bessel_bound) == pytest.approx((1.0, 1.0))
        assert rep.is_frame and rep.is_riesz

    def test_two_onbs(self):
        rep = classify(concatenate([onb(2), onb(2)]))
        assert (rep.lower_bound, rep.bessel_bound) == pytest.approx((2.0, 2.0))
        assert rep.is_frame and not rep.is_riesz

    def test_mercedes(self):
        rep = classify(MERCEDES)
        assert (rep.lower_bound, rep.bessel_bound) == pytest.approx((1.5, 1.5))
        assert rep.is_frame and not rep.is_riesz

    def test_non_frame(self):
        rep = classify(VectorSequence(np.array([[1.0, 0.0]])))
        assert not rep.is_frame

    def test_bessel_bound_by_sampling(self):
        # B equals the max of sum |<f, f_n>|^2 over random unit vectors
        rng = np.random.default_rng(4)
        seq = VectorSequence(crandom(rng, 5, 3))
        rep = classify(seq)
        a = analysis_operator(seq)
        best = 0.0
        best_f = None
        for _ in range(1000):
            f = crandom(rng, 3)
            f /= np.linalg.norm(f)
            val = float(np.sum(np.abs(a @ f) ** 2))
            if val > best:
                best, best_f = val, f
        assert best <= rep.bessel_bound + 1e-9
        # refine the best sample by power iteration on S (independent maximizer)
        s = frame_operator(seq)
        f = best_f
        for _ in range(200):
            f = s @ f
            f /= np.linalg.norm(f)
        best = float(np.sum(np.abs(a @ f) ** 2))
        assert best == pytest.approx(rep.bessel_bound, rel=1e-6)

    @pytest.mark.parametrize("k", [-520, -3, 5, 500])
    def test_power_of_two_sequence_scales_bounds_exactly(self, k):
        # the spectrum is taken on 2**-e f_n, so 2**k f_n gives the same scaled
        # spectrum; at k = -520 the unscaled frame operator has subnormal entries
        rng = np.random.default_rng(6)
        for count, dim in [(5, 3), (3, 3), (2, 4)]:
            seq = VectorSequence(crandom(rng, count, dim))
            rep = classify(VectorSequence(np.ldexp(seq.vectors.view(float), k).view(complex)))
            ref = classify(seq)
            assert (rep.is_frame, rep.is_riesz) == (ref.is_frame, ref.is_riesz)
            assert rep.lower_bound == np.ldexp(ref.lower_bound, 2 * k)
            assert rep.bessel_bound == np.ldexp(ref.bessel_bound, 2 * k)

    @pytest.mark.parametrize("vectors", [
        [[1e308, 0]],
        [[1e308 + 1e308j, 1e200], [1, 1e-300]],
        [[5e-324, 0], [0, 5e-324]],
    ])
    def test_bounds_outside_float_range_raise(self, vectors):
        # the frame operator of these finite vectors overflowed to inf or NaN,
        # or underflowed to 0 for a frame
        with pytest.raises(OutOfFloatRange, match="float range"):
            classify(VectorSequence(np.array(vectors, dtype=complex)))

    def test_left_inverse_lower_bound_is_valid(self):
        # 1 / ||L||^2 <= A with equality for the Moore-Penrose left inverse
        from frameforge.linalg import op_norm

        rng = np.random.default_rng(5)
        seq = VectorSequence(crandom(rng, 6, 3))
        rep = classify(seq)
        l = np.linalg.pinv(analysis_operator(seq))
        inverse_bound = 1.0 / op_norm(l) ** 2
        assert inverse_bound <= rep.lower_bound + 1e-9
        assert inverse_bound == pytest.approx(rep.lower_bound, rel=1e-9)


class TestTensorSequences:
    def test_onb_tensor_onb(self):
        prod = tensor_sequences([onb(2), onb(2)])
        rep = classify(prod)
        assert (rep.lower_bound, rep.bessel_bound) == pytest.approx((1.0, 1.0))
        assert rep.is_riesz

    def test_bounds_multiply(self):
        seq1 = VectorSequence(np.array([[1, 0], [1, 0], [0, 1]], dtype=complex))
        rep1 = classify(seq1)
        assert (rep1.lower_bound, rep1.bessel_bound) == pytest.approx((1.0, 2.0))
        prod = tensor_sequences([seq1, onb(2)])
        rep = classify(prod)
        # oracle: eigenvalue extremes of S1 (x) S2
        eigs = np.linalg.eigvalsh(np.kron(frame_operator(seq1), frame_operator(onb(2))))
        assert rep.lower_bound == pytest.approx(eigs[0], abs=1e-12)
        assert rep.bessel_bound == pytest.approx(eigs[-1], abs=1e-12)

    def test_non_frame_factor_kills_product(self):
        bad = VectorSequence(np.array([[1.0, 0.0]]))
        rep = classify(tensor_sequences([bad, onb(2)]))
        assert not rep.is_frame
        assert rep.lower_bound == pytest.approx(0.0, abs=1e-12)


class TestMinimalSum:
    def groups(self):
        e1 = VectorSequence(np.array([[1, 0], [0, 1]], dtype=complex))
        e2 = VectorSequence(np.array([[0, 1], [1, 0]], dtype=complex))
        return [[e1, e2], [e2, e1]]

    def test_accepts_independent_groups(self):
        ms = build_minimal_sum(self.groups())
        assert ms.d == 2 and ms.r == 2

    def test_rejects_dependent_group(self):
        e1 = VectorSequence(np.array([[1, 0], [0, 1]], dtype=complex))
        twice = VectorSequence(2 * e1.vectors)
        with pytest.raises(DependentGroup) as err:
            build_minimal_sum([[e1, twice], self.groups()[1]])
        assert err.value.group_index == 0

    def test_materialize_matches_defining_formula(self):
        ms = build_minimal_sum(self.groups())
        mat = materialize(ms)
        for n1 in range(2):
            for n2 in range(2):
                expected = sum(
                    np.kron(ms.groups[0][k][n1], ms.groups[1][k][n2]) for k in range(2)
                )
                np.testing.assert_allclose(mat[n1 * 2 + n2], expected, atol=1e-12)

    def test_rank_one_reduces_to_tensor_product(self):
        rng = np.random.default_rng(6)
        s1 = VectorSequence(crandom(rng, 3, 2))
        s2 = VectorSequence(crandom(rng, 4, 2))
        ms = build_minimal_sum([[s1], [s2]])
        np.testing.assert_allclose(
            materialize(ms).vectors, tensor_sequences([s1, s2]).vectors, atol=1e-12
        )

    def test_shape_law(self):
        rng = np.random.default_rng(7)
        groups = [
            [VectorSequence(crandom(rng, 4, 3)) for _ in range(2)],
            [VectorSequence(crandom(rng, 5, 2)) for _ in range(2)],
        ]
        mat = materialize(build_minimal_sum(groups))
        assert len(mat) == 4 * 5
        assert mat.space_dim == 3 * 2


def tensor_by_rows(seqs):
    """Reference: one np.kron per multi-index, in lexicographic order."""
    out = []
    for combo in itertools.product(*(s.vectors for s in seqs)):
        v = combo[0]
        for w in combo[1:]:
            v = np.kron(v, w)
        out.append(v)
    return np.array(out)


def materialize_by_rows(ms):
    """Reference: the defining sum built row by row, term by term."""
    out = []
    for multi in itertools.product(*(range(n) for n in ms.lengths)):
        acc = np.zeros(int(np.prod(ms.dims)), dtype=complex)
        for k in range(ms.r):
            v = ms.groups[0][k][multi[0]]
            for j in range(1, ms.d):
                v = np.kron(v, ms.groups[j][k][multi[j]])
            acc += v
        out.append(acc)
    return np.array(out)


def random_shapes(rng, d, r, draws=8):
    """Seeded (lengths, dims) with m_j * N_j >= r, so groups can be independent.

    The first draw has a factor of length 1, the second a factor of
    dimension 1.
    """
    for i in range(draws):
        lengths = rng.integers(1, 5, size=d)
        dims = rng.integers(1, 4, size=d)
        if i == 0:
            lengths[0], dims[0] = 1, max(dims[0], r)
        if i == 1:
            dims[-1], lengths[-1] = 1, max(lengths[-1], r)
        lengths = np.where(lengths * dims < r, r, lengths)
        yield [int(n) for n in lengths], [int(m) for m in dims]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2, 3])
class TestKroneckerMatchesRowLoop:
    def test_materialize(self, d, r):
        rng = np.random.default_rng(100 * d + r)
        for lengths, dims in random_shapes(rng, d, r):
            groups = [
                [VectorSequence(crandom(rng, n, m)) for _ in range(r)]
                for n, m in zip(lengths, dims)
            ]
            ms = build_minimal_sum(groups)
            mat = materialize(ms)
            assert mat.vectors.shape == (int(np.prod(lengths)), int(np.prod(dims)))
            assert np.array_equal(mat.vectors, materialize_by_rows(ms))

    def test_tensor_sequences(self, d, r):
        rng = np.random.default_rng(1000 + 100 * d + r)
        for lengths, dims in random_shapes(rng, d, r):
            seqs = [VectorSequence(crandom(rng, n, m)) for n, m in zip(lengths, dims)]
            assert np.array_equal(tensor_sequences(seqs).vectors, tensor_by_rows(seqs))


class TestConcatenate:
    def test_two_onbs_tight(self):
        rep = classify(concatenate([onb(2), onb(2)]))
        assert rep.bessel_bound == pytest.approx(2.0)

    def test_frame_operator_additivity(self):
        rng = np.random.default_rng(8)
        parts = [VectorSequence(crandom(rng, 3, 2)) for _ in range(3)]
        total = frame_operator(concatenate(parts))
        np.testing.assert_allclose(total, sum(frame_operator(p) for p in parts), atol=1e-12)

    def test_lower_bound_monotone(self):
        rng = np.random.default_rng(9)
        frame = onb(2)
        extra = VectorSequence(crandom(rng, 2, 2))
        assert classify(concatenate([frame, extra])).is_frame

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            concatenate([onb(2), onb(3)])


class TestVerifyMainTheorem:
    def test_random_frame_instance(self):
        rng = np.random.default_rng(42)
        ms, _ = random_frame_minimal_sum(rng, [3, 3], [4, 4], 2)
        report = verify_main_theorem(ms)
        assert report["full"]["is_frame"]
        assert report["all_groups_frames"]
        assert len(report["per_group"]) == 2

    def test_rank_one_bounds_multiply(self):
        rng = np.random.default_rng(43)
        ms, _ = random_frame_minimal_sum(rng, [2, 3], [3, 4], 1)
        report = verify_main_theorem(ms)
        assert report["rank_one_check"]["bounds_multiply"]
        assert report["rank_one_check"]["all_components_frames"]

    def test_non_frame_gives_no_claim(self):
        line1 = VectorSequence(np.array([[1.0, 0.0], [2.0, 0.0]], dtype=complex))
        line2 = VectorSequence(np.array([[0.0, 1.0], [0.0, 3.0]], dtype=complex))
        ms = build_minimal_sum([[line1], [line2]])
        report = verify_main_theorem(ms)
        assert report["claim"] == "no claim"


class TestTwoTermDisjunction:
    def test_branch_one(self):
        rng = np.random.default_rng(10)
        ms, _ = branch1_minimal_sum(rng)
        report = two_term_disjunction_check(ms)
        assert report["branch"] == 1

    def test_branch_three(self):
        rng = np.random.default_rng(11)
        ms, _ = branch3_minimal_sum(rng)
        report = two_term_disjunction_check(ms)
        assert report["branch"] == 3
        assert report["dropped_index"] == 1
        # cross components must classify as frames
        for k in (0, 1):
            assert classify(ms.groups[0][k]).is_frame

    def test_wrong_rank(self):
        rng = np.random.default_rng(12)
        ms, _ = random_frame_minimal_sum(rng, [2, 2], [3, 3], 3)
        with pytest.raises(WrongRank):
            two_term_disjunction_check(ms)


def disjunction_by_drop_loop(ms):
    """Branch and dropped index with every other group re-classified for each
    candidate index: oracle for two_term_disjunction_check."""
    if not classify(materialize(ms)).is_frame:
        return None, None
    for k in (0, 1):
        if classify(tensor_sequences([g[k] for g in ms.groups])).is_frame:
            return k + 1, None
    for i in range(ms.d):
        if all(classify(ms.groups[j][k]).is_frame for j in range(ms.d) if j != i for k in (0, 1)):
            return 3, i
    return 0, None


def reverifies(ms, report):
    """The disjunction suite's old re-verification of a reported branch."""
    if report["branch"] == 3:
        i = report["dropped_index"]
        return all(classify(ms.groups[j][k]).is_frame for j in range(ms.d) if j != i for k in (0, 1))
    k = report["branch"] - 1
    return classify(tensor_sequences([g[k] for g in ms.groups])).is_frame


def disjunction_draws(seed):
    rng = np.random.default_rng(seed)
    for _ in range(6):
        yield branch1_minimal_sum(rng)[0]
        ms, _ = branch3_minimal_sum(rng)
        yield ms
        yield build_minimal_sum(ms.groups[::-1])  # drops index 0 instead of 1
        for d in (2, 3):
            dims = [int(m) for m in rng.integers(2, 4, size=d)]
            yield random_frame_minimal_sum(rng, dims, [m + int(rng.integers(0, 2)) for m in dims], 2)[0]


@pytest.mark.parametrize("seed", range(3))
def test_disjunction_matches_drop_loop(seed):
    branches = set()
    for ms in disjunction_draws(seed):
        report = two_term_disjunction_check(ms)
        assert (report["branch"], report.get("dropped_index")) == disjunction_by_drop_loop(ms)
        assert report["branch"] in (1, 2, 3) and reverifies(ms, report)
        branches.add((report["branch"], report.get("dropped_index")))
    assert {(1, None), (3, 0), (3, 1)} <= branches


class TestBesselSubadditivity:
    def test_triangle_bound_on_random_instances(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            d, r = int(rng.integers(2, 4)), int(rng.integers(1, 4))
            dims = [int(rng.integers(2, 4)) for _ in range(d)]
            lens = [m + 1 for m in dims]
            groups = [
                [VectorSequence(crandom(rng, n, m)) for _ in range(r)]
                for m, n in zip(dims, lens)
            ]
            try:
                ms = build_minimal_sum(groups)
            except DependentGroup:
                continue
            b_full = classify(materialize(ms)).bessel_bound
            cap = sum(
                np.sqrt(np.prod([classify(ms.groups[j][k]).bessel_bound for j in range(d)]))
                for k in range(r)
            ) ** 2
            assert b_full <= cap + 1e-9 * max(1.0, cap)
