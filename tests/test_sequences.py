import contextlib
import itertools
import re
import warnings

import numpy as np
import pytest

from frameforge import linalg, schmidt, sequences
from frameforge.errors import ConditionViolated, DependentGroup, DimensionMismatch, NonFiniteData, OutOfFloatRange
from frameforge.sequences import (
    FrameReport,
    MinimalSumSequence,
    VectorSequence,
    analysis_operator,
    build_minimal_sum,
    classify,
    classify_all,
    concatenate,
    frame_operator,
    materialize,
    scaled_bounds,
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

# A NaN or inf in each part of an entry, for the routes that must refuse it as data.
NON_FINITE = [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(1, -np.inf)]


@contextlib.contextmanager
def raises_without_warning(kind, match):
    """``pytest.raises(kind, match=match)`` in which any warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(kind, match=match):
            yield


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
            np.testing.assert_allclose(syn @ np.eye(4)[n], seq.vectors[n], atol=1e-12)

    def test_synthesis_times_analysis_is_frame_operator(self):
        rng = np.random.default_rng(2)
        seq = VectorSequence(crandom(rng, 5, 3))
        np.testing.assert_allclose(
            analysis_operator(seq).conj().T @ analysis_operator(seq), frame_operator(seq), atol=1e-12
        )

    @pytest.mark.parametrize("vectors", [[[1e308, 0]], [[1e308 + 1e308j, 1e200], [1, 1e-300]]])
    def test_frame_operator_outside_float_range_raises(self, vectors):
        # S overflows to inf or NaN; numpy's overflow warning would be an error here
        with raises_without_warning(OutOfFloatRange, "^the frame operator of a sequence leaves the float range$"):
            frame_operator(VectorSequence(np.array(vectors, dtype=complex)))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_frame_operator_of_non_finite_vectors_raises_non_finite_data(self, bad):
        with raises_without_warning(NonFiniteData, "frame operator of a sequence has non-finite entries"):
            frame_operator(VectorSequence(np.array([[1e300, 0], [bad, 1]], dtype=complex)))

    def test_frame_operator_of_onb(self):
        np.testing.assert_allclose(frame_operator(onb(3)), np.eye(3))

    def test_frame_operator_of_two_onbs(self):
        both = concatenate([onb(2), onb(2)])
        np.testing.assert_allclose(frame_operator(both), 2 * np.eye(2))

    def test_mercedes_is_tight(self):
        np.testing.assert_allclose(frame_operator(MERCEDES), 1.5 * np.eye(2), atol=1e-12)


class TestEmptyInputs:
    @pytest.mark.parametrize("shape", [(0, 2), (2, 0), (0, 0)])
    def test_sequence_needs_a_vector_in_a_positive_dimension(self, shape):
        with pytest.raises(DimensionMismatch, match="at least one vector in a positive-dimensional space"):
            VectorSequence(np.zeros(shape, dtype=complex))

    @pytest.mark.parametrize("shape", [(2,), (2, 2, 2), (1, 3, 1)])
    def test_array_that_is_not_2d_names_its_shape(self, shape):
        with pytest.raises(DimensionMismatch, match=rf"2-d array; got an array of shape {re.escape(str(shape))}"):
            VectorSequence(np.ones(shape, dtype=complex))

    def test_tensor_product_needs_a_factor(self):
        with pytest.raises(DimensionMismatch, match="need at least one factor sequence"):
            tensor_sequences([])

    def test_concatenation_needs_a_sequence(self):
        with pytest.raises(DimensionMismatch, match="need at least one sequence"):
            concatenate([])

    @pytest.mark.parametrize("groups", [[], [[]]])
    def test_minimal_sum_needs_a_nonempty_group(self, groups):
        with pytest.raises(DimensionMismatch, match="need at least one nonempty group"):
            build_minimal_sum(groups)


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

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_entries_raise_non_finite_data(self, bad):
        # the scaling rule refuses them before any product or solve
        seq = VectorSequence(np.array([[1, 0], [0, bad]], dtype=complex))
        for call in (classify, lambda s: classify_all([MERCEDES, s])):
            with raises_without_warning(NonFiniteData, "NaN or inf"):
                call(seq)

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


def single_classify_oracle(seq):
    """The single-sequence route: eigvalsh of frame_operator on 2**-e f_n."""
    e = linalg.max_exponent(seq.vectors)
    eig = np.linalg.eigvalsh(frame_operator(VectorSequence(linalg.times_power_of_two(seq.vectors, -e))))
    return FrameReport(*scaled_bounds(float(eig.min()), float(eig.max()), len(seq), seq.space_dim, 1, e))


def mixed_sequences(seed, n=40):
    """Seeded sequences over a few repeated (count, dim) shapes, some scaled to +-1e+-150 or +-1e+-300."""
    rng = np.random.default_rng(seed)
    shapes = [(1, 1), (2, 3), (3, 2), (4, 4), (6, 3), (5, 1)]
    scales = [1.0, 1j, 1e150, -1e-150, 1e300, -1e300, 1e-300, -1e-300]
    return [
        VectorSequence(scales[rng.integers(len(scales))] * crandom(rng, *shapes[rng.integers(len(shapes))]))
        for _ in range(n)
    ]


def classify_or_raise(seq):
    try:
        return classify(seq)
    except OutOfFloatRange:
        return None


class TestClassifyAll:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_one_sequence_calls_bit_for_bit(self, seed):
        seqs = mixed_sequences(seed)
        single = [classify_or_raise(s) for s in seqs]
        kept = [s for s, rep in zip(seqs, single) if rep is not None]
        assert len(kept) > 10 and any(np.abs(s.vectors).max() > 1e140 for s in kept)
        got = classify_all(kept)
        assert [rep.to_dict() for rep in got] == [rep.to_dict() for rep in single if rep is not None]
        assert [rep.to_dict() for rep in got] == [single_classify_oracle(s).to_dict() for s in kept]
        # B of 1e+-300 vectors leaves the float range: the batch names the first one
        first = single.index(None)
        with pytest.raises(OutOfFloatRange, match=f"of sequence {first} "):
            classify_all(seqs)

    def test_empty_input(self):
        assert classify_all([]) == []

    def test_error_names_first_failing_sequence_in_input_order(self):
        ok = MERCEDES
        overflow = VectorSequence(np.array([[1e308, 0]], dtype=complex))  # B overflows
        # B overflows too, in a (count, dim) shape batched with ok's rather than with overflow's
        wide = VectorSequence(np.array([[1e300, 1e300], [0, 1], [1, 0]], dtype=complex))
        nan = VectorSequence(np.array([[np.nan, 1], [0, 1]], dtype=complex))
        assert classify_all([ok, ok]) == [classify(ok)] * 2
        with pytest.raises(OutOfFloatRange, match="frame bounds of sequence 1 "):
            classify_all([ok, overflow, wide])
        with pytest.raises(OutOfFloatRange, match="frame bounds of sequence 0 "):
            classify_all([wide, ok, overflow])
        with pytest.raises(OutOfFloatRange, match="frame bounds of sequence 2 "):
            classify_all([ok, ok, wide, overflow])
        with pytest.raises(OutOfFloatRange, match="frame bounds of sequence 2 "):
            classify_all([ok, ok, overflow, wide])
        # a NaN is data, not a result: it raises NonFiniteData wherever it stands
        for seqs in ([ok, overflow, nan], [nan, ok, overflow], [ok, ok, nan, overflow]):
            with pytest.raises(NonFiniteData, match="NaN or inf"):
                classify_all(seqs)


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

    @pytest.mark.parametrize("sign", [1, -1])
    def test_product_outside_float_range_raises(self, sign):
        big = VectorSequence(np.array([[sign * 1e200, 0]], dtype=complex))
        with raises_without_warning(OutOfFloatRange, "^a tensor product of sequences leaves the float range$"):
            tensor_sequences([onb(2), big, big])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_factor_raises_non_finite_data(self, bad):
        with raises_without_warning(NonFiniteData, "tensor product of sequences has non-finite entries"):
            tensor_sequences([onb(2), VectorSequence(np.array([[bad, 0]], dtype=complex))])

    @pytest.mark.parametrize("count", [1, 2])
    def test_product_is_a_new_array(self, count):
        seqs = [VectorSequence(crandom(np.random.default_rng(count), 3, 2)) for _ in range(count)]
        prod = tensor_sequences(seqs)
        assert not any(np.shares_memory(prod.vectors, s.vectors) for s in seqs)


class TestMinimalSum:
    def groups(self):
        e1 = VectorSequence(np.array([[1, 0], [0, 1]], dtype=complex))
        e2 = VectorSequence(np.array([[0, 1], [1, 0]], dtype=complex))
        return [[e1, e2], [e2, e1]]

    def test_accepts_independent_groups(self):
        ms = build_minimal_sum(self.groups())
        assert ms.d == 2 and ms.r == 2

    def test_constructor_stores_the_groups_as_tuples(self):
        groups = self.groups()
        ms = MinimalSumSequence(groups)
        assert type(ms.groups) is tuple and all(type(g) is tuple for g in ms.groups)
        assert all(seq is given for g, h in zip(ms.groups, groups) for seq, given in zip(g, h, strict=True))

    def invalid_groups(self):
        """(groups, error, message) for each way a list of groups fails to make a minimal sum."""
        e1, e2 = self.groups()[0]
        return [
            ([], DimensionMismatch, "need at least one nonempty group"),
            ([[e1, e2], []], DimensionMismatch, "need at least one nonempty group"),
            ([[e1, e2], [e1]], DimensionMismatch, "group 1 has 1 sequences, expected 2"),
            ([[e1, e2], [e1, VectorSequence(np.eye(3, 2))]], DimensionMismatch,
             "sequences of group 1 must share length and dimension"),
            ([[e1, e2], [e2, VectorSequence(2 * e2.vectors)]], DependentGroup,
             "component sequences of group 1 are linearly dependent"),
        ]

    @pytest.mark.parametrize("build", [MinimalSumSequence, build_minimal_sum])
    @pytest.mark.parametrize("case", range(5))
    def test_invalid_groups_raise_in_the_constructor(self, build, case):
        # the constructor took any groups; only build_minimal_sum checked them
        groups, error, message = self.invalid_groups()[case]
        with pytest.raises(error) as err:
            build(groups)
        assert type(err.value) is error and str(err.value) == message
        if error is DependentGroup:
            assert err.value.group_index == 1

    def test_rejects_dependent_group(self):
        e1 = VectorSequence(np.array([[1, 0], [0, 1]], dtype=complex))
        twice = VectorSequence(2 * e1.vectors)
        with pytest.raises(DependentGroup, match="group 0 are linearly dependent") as err:
            build_minimal_sum([[e1, twice], self.groups()[1]])
        assert err.value.group_index == 0

    def test_independent_group_near_the_float_max_is_accepted(self):
        big = VectorSequence(1e308 * np.array([[1, 1], [1, -1]], dtype=complex))
        ms = build_minimal_sum([[big, VectorSequence(1e308 * np.eye(2))]])
        assert ms.d == 1 and ms.r == 2

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_component_raises_non_finite_data(self, bad):
        with pytest.raises(NonFiniteData, match="NaN or inf"):
            build_minimal_sum([[VectorSequence(np.array([[bad, 0]], dtype=complex))]])

    @pytest.mark.parametrize("sign", [1, -1])
    def test_materialize_outside_float_range_raises(self, sign):
        def row(*x):
            return VectorSequence(np.array([x], dtype=complex))

        big = sign * 1e200
        products = build_minimal_sum([[row(big, 0), row(0, big)], [row(big, 0), row(0, big)]])  # each term overflows
        huge = sign * 1e308
        sums = build_minimal_sum([[row(huge, 0), row(huge, huge)], [row(1, 0), row(1, 1)]])  # only their sum overflows
        for ms in (products, sums):
            with raises_without_warning(OutOfFloatRange, "^a minimal sum leaves the float range$"):
                materialize(ms)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_materialize_of_non_finite_components_raises_non_finite_data(self, bad):
        e1, e2 = self.groups()[0]
        with raises_without_warning(NonFiniteData, "NaN or inf"):
            MinimalSumSequence(((e1, e2), (e2, VectorSequence(np.array([[1, bad], [0, 1]], dtype=complex)))))
        ms = MinimalSumSequence(((e1, e2), (e2, VectorSequence(np.array([[1, 0], [0, 1]], dtype=complex)))))
        ms.groups[1][1].vectors[0, 1] = bad  # past the constructor's check: materialize's own guard must see it
        with raises_without_warning(NonFiniteData, "minimal sum has non-finite entries"):
            materialize(ms)

    def test_materialize_matches_defining_formula(self):
        ms = build_minimal_sum(self.groups())
        mat = materialize(ms)
        for n1 in range(2):
            for n2 in range(2):
                expected = sum(
                    np.kron(ms.groups[0][k].vectors[n1], ms.groups[1][k].vectors[n2]) for k in range(2)
                )
                np.testing.assert_allclose(mat.vectors[n1 * 2 + n2], expected, atol=1e-12)

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
    for multi in itertools.product(*(range(len(g[0])) for g in ms.groups)):
        acc = np.zeros(int(np.prod([g[0].space_dim for g in ms.groups])), dtype=complex)
        for k in range(ms.r):
            v = ms.groups[0][k].vectors[multi[0]]
            for j in range(1, ms.d):
                v = np.kron(v, ms.groups[j][k].vectors[multi[j]])
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


@pytest.mark.parametrize("seed", range(12))
def test_minimal_sum_is_a_schmidt_rank_r_operator(seed):
    """A d = 2 minimal sum's family matrix is the FSR operator sum_k V_{1,k} (x) V_{2,k} on
    BipartiteShape(m_1, m_2, N_1, N_2), of Schmidt rank r exactly when both groups are independent."""
    rng = np.random.default_rng(seed)
    for _ in range(10):
        dims = [int(m) for m in rng.integers(2, 5, size=2)]
        lengths = [m + int(rng.integers(0, 3)) for m in dims]
        r = int(rng.integers(1, 4))
        vs = [[crandom(rng, n, m) for _ in range(r)] for n, m in zip(lengths, dims)]
        if r > 1 and rng.random() < 0.5:  # plant a dependent group: its last term mixes the others
            j = int(rng.integers(2))
            vs[j][-1] = sum(c * v for c, v in zip(crandom(rng, r - 1), vs[j][:-1]))
        shape = schmidt.BipartiteShape(dims[0], dims[1], lengths[0], lengths[1])
        fsr = schmidt.FSROperator(shape, vs[0], vs[1])
        rank = schmidt.reshuffle_rank(fsr.materialize(), shape).rank_bound
        groups = [[VectorSequence(v) for v in g] for g in vs]
        try:
            ms = build_minimal_sum(groups)
        except DependentGroup:
            assert rank < r
            continue
        assert rank == r
        f, want = materialize(ms).vectors, fsr.materialize()
        assert np.linalg.norm(f - want) <= 1e-13 * np.linalg.norm(want)


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
        with pytest.raises(DimensionMismatch, match="all sequences must share the ambient dimension"):
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

    def test_rank_one_solves_each_group_once(self, monkeypatch):
        # a one-sequence group is its own component: one solve for the full family, then one per group
        rng = np.random.default_rng(45)
        ms, _ = random_frame_minimal_sum(rng, [2, 3, 2], [3, 4, 2], 1)
        real, sizes = sequences.classify_all, []
        monkeypatch.setattr(sequences, "classify_all", lambda seqs: sizes.append(len(seqs)) or real(seqs))
        report = verify_main_theorem(ms)
        assert sizes == [1, 3]
        assert report["per_component"] == [[rep] for rep in report["per_group"]]

    def test_component_reports_are_their_own_classify(self):
        # group j scaled by 2**e_j with sum_j e_j = 0 keeps the family but gives every group and
        # component its own exponent; one classify_all call must still give each the bits of its own call
        rng = np.random.default_rng(44)
        for t in range(24):
            d, r = 2 + t % 2, 1 + t % 3
            dims = [int(m) for m in rng.integers(2, 4, size=d)]
            ms, _ = random_frame_minimal_sum(rng, dims, [m + int(rng.integers(0, 3)) for m in dims], r)
            exps = [int(e) for e in rng.integers(-60, 61, size=d - 1)]
            exps.append(-sum(exps))
            ms = build_minimal_sum([[VectorSequence(2.0**e * s.vectors) for s in g] for e, g in zip(exps, ms.groups)])
            report = verify_main_theorem(ms)
            assert report["full"]["is_frame"]
            assert report["per_component"] == [[classify(s).to_dict() for s in g] for g in ms.groups]
            concatenated = [concatenate(list(g)) for g in ms.groups]
            assert report["per_group"] == [rep.to_dict() for rep in classify_all(concatenated)]
            assert report["per_group"] == [classify(c).to_dict() for c in concatenated]

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

    def test_not_a_frame_has_no_branch(self):
        # two rank-2 groups of one vector each materialise to one vector in C^4, which is no frame
        e1, e2 = VectorSequence(np.eye(2)[:1]), VectorSequence(np.eye(2)[1:])
        report = two_term_disjunction_check(build_minimal_sum([[e1, e2], [e1, e2]]))
        assert not report["full"]["is_frame"]
        assert report["branch"] is None and "dropped_index" not in report

    def test_a_component_out_of_float_range_raises(self):
        # every term (1e160 f_k) (x) (1e-160 g_k) is in range, and the first pure family is a frame, but a
        # component of group 0 has B ~ 1e320; the check classifies every group and component, so it raises
        rng = np.random.default_rng(14)
        groups = [[VectorSequence(scale * crandom(rng, 3, 2)) for _ in range(2)] for scale in (1e160, 1e-160)]
        ms = build_minimal_sum(groups)
        assert classify(materialize(ms)).is_frame
        assert classify(tensor_sequences([g[0] for g in ms.groups])).is_frame
        for check in (verify_main_theorem, two_term_disjunction_check):
            with pytest.raises(OutOfFloatRange, match=r"of sequence 0 with largest part ~2\*\*\d+ leave"):
                check(ms)

    def test_wrong_rank(self):
        rng = np.random.default_rng(12)
        ms, _ = random_frame_minimal_sum(rng, [2, 2], [3, 3], 3)
        with pytest.raises(ConditionViolated, match="disjunction check needs r = 2, got r = 3"):
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
