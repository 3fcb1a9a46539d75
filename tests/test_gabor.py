import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frameforge import gabor, io, linalg, sequences, verify
from frameforge.errors import (
    ConditionViolated,
    DependentGroup,
    DimensionMismatch,
    NonFiniteData,
    OutOfFloatRange,
)
from frameforge.gabor import (
    RankRWindowSpec,
    ZNLattice,
    ZNWindow,
    build_rank_r_window,
    density_sweep,
    gabor_frame_report,
    gabor_frame_reports,
    gabor_system,
    modulate,
    oversample_checks,
    perturb_window,
    sample_window,
    translate,
    verify_rank_r_frame_implication,
)
from frameforge.sequences import FrameReport, classify, classify_all, frame_operator, scaled_bounds, tensor_sequences
from sweep_table import sweep_rows


def crandom(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def delta(n):
    g = np.zeros(n, dtype=complex)
    g[0] = 1.0
    return ZNWindow(g)


class TestTranslateModulate:
    def test_delta_shift(self):
        np.testing.assert_allclose(translate(delta(4), 1).g, [0, 1, 0, 0])

    def test_translate_by_N_is_identity(self):
        rng = np.random.default_rng(0)
        w = ZNWindow(crandom(rng, 6))
        np.testing.assert_allclose(translate(w, 6).g, w.g)

    def test_translate_unitary(self):
        rng = np.random.default_rng(1)
        w = ZNWindow(crandom(rng, 8))
        assert np.linalg.norm(translate(w, 3).g) == pytest.approx(np.linalg.norm(w.g), abs=1e-12)

    def test_modulate_zero_is_identity(self):
        rng = np.random.default_rng(2)
        w = ZNWindow(crandom(rng, 5))
        np.testing.assert_allclose(modulate(w, 0).g, w.g)

    def test_modulate_delta_fixed(self):
        np.testing.assert_allclose(modulate(delta(4), 3).g, delta(4).g)

    def test_modulation_additive(self):
        rng = np.random.default_rng(3)
        w = ZNWindow(crandom(rng, 6))
        np.testing.assert_allclose(
            modulate(modulate(w, 2), 3).g, modulate(w, 5).g, atol=1e-12
        )

    def test_commutation_phase(self):
        # M_b T_a = exp(2 pi i a b / N) T_a M_b
        rng = np.random.default_rng(4)
        n, a, b = 8, 3, 5
        w = ZNWindow(crandom(rng, n))
        lhs = modulate(translate(w, a), b).g
        rhs = np.exp(2j * np.pi * a * b / n) * translate(modulate(w, b), a).g
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_shift_beyond_float_range_raises_without_warning(self):
        # the phase ramp times parts near the float maximum overflows
        w = ZNWindow(np.full(8, 1.7e308 * (1 + 1j)))
        spec = RankRWindowSpec((w,), ((0, 2),), ((1, 3),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for shift in (lambda: modulate(w, 1), lambda: spec.modulated_translates(0)):
                with pytest.raises(OutOfFloatRange, match="float range"):
                    shift()
            assert np.array_equal(translate(w, 3).g, w.g)

    def test_perturbed_window_beyond_float_range_raises_the_same_kind(self):
        # g + M_4 T_4 g doubles the even entries of a real window near the float maximum
        w = ZNWindow(np.full(8, 1.7e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfFloatRange, match="perturbed window .* leaves the float range"):
                perturb_window(w, ZNLattice(8, 2, 2), 4, 4)

    @pytest.mark.parametrize("n", [5, 8])
    def test_shifts_reduce_mod_n_exactly(self, n):
        # negative shifts and Python ints beyond int64 give the atom of the
        # shift reduced mod N, bit for bit
        w = ZNWindow(crandom(np.random.default_rng(n), n))
        shifts = [-n - 1, 2 * n + 3, np.int64(-3 * n + 2), *(10**20 + k for k in range(3))]
        for s in shifts:
            assert np.array_equal(translate(w, s).g, translate(w, s % n).g)
            assert np.array_equal(modulate(w, s).g, modulate(w, s % n).g)
            for t in shifts:
                assert np.array_equal(gabor.gabor_atom(w, s, t), gabor.gabor_atom(w, s % n, t % n))
        small = np.array([-n - 1, 2 * n + 3, -3 * n + 2])
        assert np.array_equal(
            gabor.gabor_atom(w, small[:, None], small), gabor.gabor_atom(w, small[:, None] % n, small % n)
        )


class TestGaborSystem:
    def test_delta_full_translation_gives_basis(self):
        sys = gabor_system(delta(4), ZNLattice(4, 1, 4))
        rep = classify(sys)
        assert (rep.lower_bound, rep.bessel_bound) == pytest.approx((1.0, 1.0))
        assert rep.is_riesz

    def test_full_lattice_tight(self):
        rng = np.random.default_rng(5)
        g = crandom(rng, 4)
        w = ZNWindow(g / np.linalg.norm(g))
        s = frame_operator(gabor_system(w, ZNLattice(4, 1, 1)))
        np.testing.assert_allclose(s, 4 * np.eye(4), atol=1e-10)

    def test_count(self):
        assert len(gabor_system(delta(4), ZNLattice(4, 2, 2))) == 4

    def test_non_divisor_rejected(self):
        with pytest.raises(ConditionViolated, match="a=3 and b=1 must divide N=4"):
            ZNLattice(4, 3, 1)

    @pytest.mark.parametrize("nab", [(0, 1, 1), (4, 0, 1), (4, 1, -2)])
    def test_non_positive_steps_rejected(self, nab):
        with pytest.raises(ConditionViolated, match="^N, a, b must be positive$"):
            ZNLattice(*nab)

    def test_tensor_gabor_equals_gabor_of_tensor(self):
        rng = np.random.default_rng(6)
        w1, w2 = ZNWindow(crandom(rng, 4)), ZNWindow(crandom(rng, 6))
        lat1, lat2 = ZNLattice(4, 2, 2), ZNLattice(6, 3, 2)
        sys1, sys2 = gabor_system(w1, lat1), gabor_system(w2, lat2)
        prod = tensor_sequences([sys1, sys2])
        # direct product-group construction
        direct = []
        for m1 in range(2):
            for n1 in range(2):
                for m2 in range(2):
                    for n2 in range(3):
                        a1 = gabor.gabor_atom(w1, m1 * 2, n1 * 2)
                        a2 = gabor.gabor_atom(w2, m2 * 3, n2 * 2)
                        direct.append(np.kron(a1, a2))
        np.testing.assert_allclose(prod.vectors, np.array(direct), atol=1e-12)


def oracle_windows(n):
    """The four sampled windows and one seeded random complex window."""
    rng = np.random.default_rng(100 + n)
    return [sample_window(gen, n) for gen in gabor.WINDOW_GENERATORS] + [ZNWindow(crandom(rng, n))]


def divisor_lattices(n):
    return [ZNLattice(n, a, b) for a in gabor.divisors(n) for b in gabor.divisors(n)]


def atom_by_roll(w, a, b):
    """M_b T_a g as a cyclic roll times a phase ramp, for 0 <= a, b < N:
    oracle for gabor_atom."""
    return np.exp(2j * np.pi * b * np.arange(w.N) / w.N) * np.roll(w.g, a % w.N)


class TestVectorisedSystem:
    @pytest.mark.parametrize("n", [12, 30, 36])
    def test_equals_stacked_atoms(self, n):
        for w in oracle_windows(n):
            for lat in divisor_lattices(n):
                atoms = [
                    atom_by_roll(w, m * lat.a, k * lat.b)
                    for m in range(n // lat.a)
                    for k in range(n // lat.b)
                ]
                assert np.array_equal(gabor_system(w, lat).vectors, np.array(atoms))
            every = np.array([[atom_by_roll(w, a, b) for b in range(n)] for a in range(n)])
            assert np.array_equal(gabor.gabor_atom(w, np.arange(n)[:, None], np.arange(n)), every)


def walnut_blocks_report(w, lat):
    """All N/b Walnut blocks S_r = (N/b) G_r G_r^*, G_r[s, m] = g[r + (N/b) s - m a],
    solved as dense b x b eigenproblems: oracle for gabor_frame_report."""
    N, a, b = lat.N, lat.a, lat.b
    q = N // b
    idx = np.arange(q)[:, None, None] + q * np.arange(b)[:, None] - a * np.arange(N // a)
    g = w.g[idx % N]
    blocks = q * (g @ g.conj().transpose(0, 2, 1))
    eig = np.linalg.eigvalsh(blocks)
    count = (N // a) * (N // b)
    return FrameReport(*scaled_bounds(float(eig.min()), float(eig.max()), count, N, 1, 0, "of the oracle"))


def assert_same_report(rep, ref, rtol):
    assert (rep.is_frame, rep.is_riesz) == (ref.is_frame, ref.is_riesz)
    assert abs(rep.lower_bound - ref.lower_bound) <= rtol * ref.bessel_bound
    assert abs(rep.bessel_bound - ref.bessel_bound) <= rtol * ref.bessel_bound


@st.composite
def windows_and_lattices(draw):
    n = draw(st.integers(1, 64))
    a, b = draw(st.sampled_from(gabor.divisors(n))), draw(st.sampled_from(gabor.divisors(n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = crandom(rng, n) * draw(st.sampled_from([1.0, 1e-3, 1e3]))
    support = draw(st.integers(1, n))  # short windows make sparse blocks
    return ZNWindow(np.where(np.arange(n) < support, g, 0)), ZNLattice(n, a, b)


class TestGaborFrameReport:
    @pytest.mark.parametrize("n", [12, 30, 36])
    def test_matches_dense_oracle(self, n):
        for w in oracle_windows(n):
            for lat in divisor_lattices(n):
                ref = classify(gabor_system(w, lat))
                rep = gabor_frame_report(w, lat)
                assert (rep.is_frame, rep.is_riesz) == (ref.is_frame, ref.is_riesz)
                assert abs(rep.lower_bound - ref.lower_bound) <= 1e-12 * ref.bessel_bound
                assert abs(rep.bessel_bound - ref.bessel_bound) <= 1e-12 * ref.bessel_bound

    @pytest.mark.parametrize("n", [12, 30, 36, 60, 64, 120])
    def test_matches_walnut_blocks(self, n):
        for w in oracle_windows(n):
            for lat in divisor_lattices(n):
                assert_same_report(gabor_frame_report(w, lat), walnut_blocks_report(w, lat), 1e-13)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(case=windows_and_lattices())
    def test_matches_walnut_blocks_on_random_windows(self, case):
        w, lat = case
        assert_same_report(gabor_frame_report(w, lat), walnut_blocks_report(w, lat), 1e-13)

    @pytest.mark.parametrize("k", [-300, -3, -1, 1, 5, 300])
    def test_power_of_two_window_scales_bounds_exactly(self, k):
        # the blocks are built from 2**-e g, so 2**k g gives the same scaled spectrum
        for w in oracle_windows(12):
            wk = ZNWindow(np.ldexp(w.g.view(float), k).view(complex))
            for lat in divisor_lattices(12):
                rep, ref = gabor_frame_report(wk, lat), gabor_frame_report(w, lat)
                assert (rep.is_frame, rep.is_riesz) == (ref.is_frame, ref.is_riesz)
                assert rep.lower_bound == np.ldexp(ref.lower_bound, 2 * k)
                assert rep.bessel_bound == np.ldexp(ref.bessel_bound, 2 * k)

    @pytest.mark.parametrize("value", [1e308, 1e200, 1e-200, 5e-324])
    def test_bounds_outside_float_range_raise(self, value):
        # B = (N/b) |value|**2 overflows or underflows to 0 on every lattice
        g = np.zeros(12, dtype=complex)
        g[0] = value
        for lat in divisor_lattices(12):
            with pytest.raises(OutOfFloatRange, match=rf"frame bounds on \(a, b\)=\({lat.a}, {lat.b}\) .* float range"):
                gabor_frame_report(ZNWindow(g), lat)

    @pytest.mark.parametrize("n", [12, 30, 36, 120])
    def test_undercomplete_lower_bound_is_exactly_zero(self, n):
        for w in oracle_windows(n):
            for lat in divisor_lattices(n):
                if lat.a * lat.b > n:
                    rep = gabor_frame_report(w, lat)
                    assert (rep.lower_bound, rep.is_frame, rep.is_riesz) == (0.0, False, False)

    @pytest.mark.parametrize("n", [840, 1024])
    def test_gram_side_matches_walnut_blocks_at_large_n(self, n):
        for w in (sample_window("gaussian", n), ZNWindow(crandom(np.random.default_rng(n), n))):
            for a, b in ((n, n), (n // 2, n), (n, n // 2), (n // 2, n // 2)):
                lat = ZNLattice(n, a, b)
                assert_same_report(gabor_frame_report(w, lat), walnut_blocks_report(w, lat), 1e-13)

    def test_a_equals_b_equals_n_solves_one_by_one_blocks(self, monkeypatch):
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def spy(m):
            shapes.append(m.shape[-2:])
            return eigvalsh(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        for n in (1, 12, 120, 1024):
            gabor_frame_report(sample_window("sech", n), ZNLattice(n, n, n))
        assert shapes == [(1, 1)] * 4

    @pytest.mark.parametrize("value", [1e308, 5e-324])
    def test_undercomplete_bounds_outside_float_range_raise(self, value):
        for n in (120, 1024):
            g = np.zeros(n, dtype=complex)
            g[0] = value
            for lat in divisor_lattices(n):
                if lat.a * lat.b > n:
                    with pytest.raises(OutOfFloatRange, match=rf"frame bounds on \(a, b\)=\({lat.a}, {lat.b}\) .* float range"):
                        gabor_frame_report(ZNWindow(g), lat)

    @pytest.mark.parametrize("value", [1e150, 1e-150])
    def test_extreme_but_representable_delta(self, value):
        # a delta window: S = (N/b) |value|**2 on the multiples of a, 0 elsewhere
        g = np.zeros(12, dtype=complex)
        g[0] = value
        for lat in divisor_lattices(12):
            rep = gabor_frame_report(ZNWindow(g), lat)
            assert rep.bessel_bound == pytest.approx(12 // lat.b * value**2, rel=1e-15)
            assert rep.is_frame == (lat.a == 1)
            assert rep.lower_bound == (rep.bessel_bound if lat.a == 1 else 0.0)

    def test_zero_window_is_not_a_frame(self):
        for lat in divisor_lattices(12):
            rep = gabor_frame_report(ZNWindow(np.zeros(12)), lat)
            assert (rep.lower_bound, rep.bessel_bound, rep.is_frame) == (0.0, 0.0, False)

    @pytest.mark.parametrize("ratio, is_frame", [(2 * sequences.FRAME_TOL, True), (sequences.FRAME_TOL / 2, False)])
    def test_frame_threshold_is_frame_tol(self, ratio, is_frame):
        # planted spectrum with A / B = ratio
        b = 4.0
        rep = FrameReport(*scaled_bounds(ratio * b, b, 4, 4, 1, 0, "of a planted spectrum"))
        assert (rep.lower_bound, rep.bessel_bound) == (ratio * b, b)
        assert (rep.is_frame, rep.is_riesz) == (is_frame, is_frame)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch, match="window length 8 does not match lattice N=12"):
            gabor_frame_report(sample_window("gaussian", 8), ZNLattice(12, 2, 2))

    def test_one_constructor_builds_every_report(self, monkeypatch):
        # a patch of the one rule, sequences.scaled_bounds, reaches classify and the sweep alike
        calls = []
        real = sequences.scaled_bounds
        monkeypatch.setattr(sequences, "scaled_bounds", lambda *args: calls.append(args) or real(*args))
        w = sample_window("gaussian", 12)
        classify(gabor_system(w, ZNLattice(12, 2, 3)))
        rows = sweep_rows(density_sweep(w))
        assert len(calls) == 1 + len(rows) == 37


class TestBatchedReports:
    @pytest.mark.parametrize("n", [12, 120, 840])
    def test_sweep_rows_equal_single_lattice_stats(self, n):
        for w in oracle_windows(n):
            for row, lat in zip(sweep_rows(density_sweep(w)), divisor_lattices(n), strict=True):
                assert (row["N"], row["a"], row["b"], row["count"]) == (n, lat.a, lat.b, (n // lat.a) * (n // lat.b))
                rep = gabor_frame_report(w, lat).to_dict()
                assert {k: row[k] for k in rep} == rep

    def test_multi_window_call_equals_one_window_calls(self, monkeypatch):
        # windows of three N interleaved in one call, each window object repeated once per lattice
        pairs = [
            (w, lat) for n in (8, 12, 30) for w in oracle_windows(n) + short_windows(n) for lat in divisor_lattices(n)
        ]
        pairs = [pairs[i] for i in np.random.default_rng(0).permutation(len(pairs))]
        calls = {"ifft": [], "times_power_of_two": []}
        for owner, name in ((np.fft, "ifft"), (linalg, "times_power_of_two")):
            monkeypatch.setattr(owner, name, shape_logging(getattr(owner, name), calls[name]))
        got = gabor_frame_reports(pairs)
        monkeypatch.undo()
        assert [rep.to_dict() for rep in got] == [gabor_frame_report(w, lat).to_dict() for w, lat in pairs]
        # the 8 windows of an N are scaled together, once, and share one FFT per divisor L < N
        assert sorted(calls["times_power_of_two"]) == [(8, n) for n in (8, 12, 30)]
        want = [(8, n // L, 2 * L) for n in (8, 12, 30) for L in gabor.divisors(n)[:-1]]
        assert sorted(calls["ifft"]) == sorted(want)

    def test_windows_asking_for_different_lattices_of_one_l(self, monkeypatch):
        # on Z_12, (1, 3), (2, 3), (4, 3) and (4, 6), solved on its adjoint (2, 3), all have L = 4
        w0, w1, w2 = oracle_windows(12)[:3]
        asks = [(w0, [(1, 3), (2, 3)]), (w1, [(2, 3), (4, 3)]), (w2, [(1, 3), (4, 6)])]
        pairs = [(w, ZNLattice(12, a, b)) for w, lattices in asks for a, b in lattices]
        calls = {"ifft": [], "_walnut_blocks": []}
        for owner, name in ((np.fft, "ifft"), (gabor, "_walnut_blocks")):
            monkeypatch.setattr(owner, name, shape_logging(getattr(owner, name), calls[name]))
        got = gabor_frame_reports(pairs)
        monkeypatch.undo()
        assert [rep.to_dict() for rep in got] == [gabor_frame_report(w, lat).to_dict() for w, lat in pairs]
        # (2, 3) for all three windows, (1, 3) for w0 and w2, (4, 3) for w1: one Z_4 stack per window set
        assert sorted(calls["ifft"]) == [(1, 3, 8), (2, 3, 8), (3, 3, 8)]
        assert sorted(calls["_walnut_blocks"]) == [(1, 3, 8), (2, 3, 8), (3, 3, 8)]

    def test_twin_windows_of_equal_entries_are_solved_apart(self, monkeypatch):
        # two window objects with one set of entries, interleaved with Z_8 windows: each keeps its own lattices
        w = oracle_windows(12)[4]
        twins, others = (w, ZNWindow(w.g)), oracle_windows(8)[:2]
        pairs = [(twins[0], ZNLattice(12, 2, 3)), (others[0], ZNLattice(8, 2, 2)), (twins[1], ZNLattice(12, 4, 6)),
                 (others[1], ZNLattice(8, 4, 4)), (twins[1], ZNLattice(12, 1, 1)), (twins[0], ZNLattice(12, 4, 6))]
        calls = []
        monkeypatch.setattr(linalg, "times_power_of_two", shape_logging(linalg.times_power_of_two, calls))
        got = gabor_frame_reports(pairs)
        monkeypatch.undo()
        assert [rep.to_dict() for rep in got] == [gabor_frame_report(w, lat).to_dict() for w, lat in pairs]
        assert sorted(calls) == [(2, 8), (2, 12)]  # the twins are two windows, scaled together

    def test_mixed_call_error_names_first_failing_lattice_in_input_order(self):
        # B = (N/b) 1e308 overflows exactly when b < N; the N = 8 windows are scaled and solved first
        big8, big12 = (ZNWindow(np.where(np.arange(n) == 0, 1e154, 0)) for n in (8, 12))
        small8, small12 = sample_window("sech", 8), sample_window("gaussian", 12)
        pairs = [(big8, ZNLattice(8, 8, 8)), (small12, ZNLattice(12, 2, 2)), (small8, ZNLattice(8, 2, 4)),
                 (big12, ZNLattice(12, 4, 3)), (big8, ZNLattice(8, 1, 2)), (big12, ZNLattice(12, 1, 6))]
        with pytest.raises(OutOfFloatRange, match=r"\(a, b\)=\(4, 3\)"):
            gabor_frame_reports(pairs)
        with pytest.raises(OutOfFloatRange, match=r"\(a, b\)=\(1, 2\)"):
            gabor_frame_reports(pairs[:3] + pairs[4:] + pairs[3:4])
        assert len(gabor_frame_reports(pairs[:3])) == 3

    def test_one_eigvalsh_per_block_size(self, monkeypatch):
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def spy(m):
            sizes.append(m.shape[-1])
            return eigvalsh(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        density_sweep(sample_window("gaussian", 120))
        # g = gcd(a/c, b), c = gcd(a, N/b), over the lattices solved on themselves
        want = {
            np.gcd(lat.a // np.gcd(lat.a, 120 // lat.b), lat.b)
            for lat in divisor_lattices(120)
            if lat.a * lat.b <= 120
        }
        assert len(sizes) == len(want) == 6
        assert set(sizes) == want

    def test_undercomplete_lattices_are_never_built(self, monkeypatch):
        built = []
        build = gabor._walnut_blocks

        def spy(zaks, conj, N, a, b):
            built.append((a, b))
            return build(zaks, conj, N, a, b)

        monkeypatch.setattr(gabor, "_walnut_blocks", spy)
        density_sweep(sample_window("sech", 120))
        assert sorted(built) == [(lat.a, lat.b) for lat in divisor_lattices(120) if lat.a * lat.b <= 120]

    @pytest.mark.parametrize("n", [12, 30, 36, 120])
    def test_adjoint_lattice_identity(self, n):
        # the b x b blocks of (a, b), which the route never solves, against its adjoint's report
        for w in oracle_windows(n):
            for lat in divisor_lattices(n):
                if lat.a * lat.b > n:
                    adj = gabor_frame_report(w, ZNLattice(n, n // lat.b, n // lat.a)).bessel_bound
                    ab_b = lat.a * lat.b * walnut_blocks_report(w, lat).bessel_bound
                    assert abs(ab_b - n * adj) <= 1e-14 * n * adj

    def test_error_names_first_failing_lattice_in_input_order(self):
        # B = (N/b) 1e308 overflows exactly when b < N
        g = np.zeros(12, dtype=complex)
        g[0] = 1e154
        w = ZNWindow(g)
        ok, first, second = ZNLattice(12, 12, 12), ZNLattice(12, 1, 6), ZNLattice(12, 4, 3)
        assert gabor_frame_reports([(w, ok), (w, ok)]) == [gabor_frame_report(w, ok)] * 2
        with pytest.raises(OutOfFloatRange, match=r"\(a, b\)=\(1, 6\)"):
            gabor_frame_reports([(w, ok), (w, first), (w, second)])
        with pytest.raises(OutOfFloatRange, match=r"\(a, b\)=\(4, 3\)"):
            gabor_frame_reports([(w, second), (w, ok), (w, first)])
        assert gabor_frame_reports([]) == []


def scaled_entries(w):
    """2**-e w, e = max_exponent(w.g): the entries the Walnut blocks are built from."""
    return linalg.times_power_of_two(w.g, -linalg.max_exponent(w.g))


def walnut_blocks(w, a, b):
    """``gabor._walnut_blocks`` on (a, b), ab <= N, with its one Z_L built from ``scaled_entries(w)``."""
    L = math.lcm(a, w.N // b)
    z = gabor._zaks(scaled_entries(w)[None], L)
    return gabor._walnut_blocks(z, z.conj(), w.N, a, b)[0]


def walnut_first_row_blocks(w, a, b):
    """Each orbit representative's G_r gathered whole, its first g x g block row
    split by an FFT over Z_{b/g}, g = gcd(a/c, b): oracle for _walnut_blocks."""
    N = w.N
    q = N // b
    c = math.gcd(a, q)
    # r + q s - m a lies in (-N, N), and numpy reads a negative index i as i + N
    idx = np.arange(c)[:, None, None] + np.arange(0, N, q)[:, None] - np.arange(0, N, a)
    x, g = scaled_entries(w)[idx], math.gcd(a // c, b)
    blocks = x[:, :g] @ x.conj().transpose(0, 2, 1)
    if g < b:
        blocks = np.fft.fft(blocks.reshape(c, g, b // g, g), axis=2).swapaxes(1, 2)
    return blocks.reshape(-1, g, g)


def short_windows(n):
    """Seeded random complex windows supported on their first 1, 3 and 7 entries."""
    rng = np.random.default_rng(200 + n)
    return [ZNWindow(np.where(np.arange(n) < support, crandom(rng, n), 0)) for support in (1, 3, 7)]


def shape_logging(fn, log):
    """``fn`` that first appends the shape of its first argument to ``log``."""

    def spy(x, *args, **kwargs):
        log.append(x.shape)
        return fn(x, *args, **kwargs)

    return spy


class TestZakBlocks:
    @pytest.mark.parametrize("n", [1, 2, 6, 12, 30, 36, 60, 64, 120, 840, 1024])
    def test_matches_gather_and_fft_oracle(self, n):
        for w in oracle_windows(n) + short_windows(n):
            for lat in divisor_lattices(n):
                if lat.a * lat.b <= n:
                    got, want = walnut_blocks(w, lat.a, lat.b), walnut_first_row_blocks(w, lat.a, lat.b)
                    assert got.shape == want.shape
                    got, want = (np.sort(np.linalg.eigvalsh(x), axis=None) for x in (got, want))
                    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_one_ifft_per_divisor_below_n(self, monkeypatch):
        calls = {"fft": [], "ifft": []}
        for name, log in calls.items():
            monkeypatch.setattr(np.fft, name, shape_logging(getattr(np.fft, name), log))
        density_sweep(sample_window("gaussian", 120))
        # one (1, N/L, 2L) transform per L = lcm(a, N/b) < N, and every divisor L is lcm(1, L)
        assert sorted(calls["ifft"]) == sorted((1, 120 // L, 2 * L) for L in gabor.divisors(120)[:-1])
        assert len(calls["ifft"]) == 15 and calls["fft"] == []

    def test_a_one_b_n_reads_n_window_entries(self):
        # the whole gather of G_0 at (1, N) peaked at 42 MB for N = 1024
        w = sample_window("gaussian", 1024)
        tracemalloc.start()
        try:
            gabor_frame_report(w, ZNLattice(1024, 1, 1024))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_view_past_the_zak_array_raises(self, monkeypatch):
        # on (4, 3) of Z_12, c = q = 4 and Phi ends on the last entry of Z_4
        w = sample_window("gaussian", 12)
        assert walnut_blocks(w, 4, 3).shape == (12, 1, 1)
        zaks = gabor._zaks
        monkeypatch.setattr(gabor, "_zaks", lambda scaled, L: zaks(scaled, L).reshape(len(scaled), -1)[:, :-1])
        with pytest.raises(ValueError):
            walnut_blocks(w, 4, 3)

    @pytest.mark.parametrize("n", [12, 30, 120, 840])
    def test_one_conjugate_per_zak_gives_the_same_bits(self, n):
        # every window of one L in one stack, as a sweep over several windows builds them
        g = np.array([w.g for w in oracle_windows(n) + short_windows(n)])
        scaled = linalg.times_power_of_two(g, -linalg.max_exponents(g)[:, None])
        solved = [(lat.a, lat.b) for lat in divisor_lattices(n) if lat.a * lat.b <= n]
        for L in {math.lcm(a, n // b) for a, b in solved}:
            z = gabor._zaks(scaled, L)
            zc = z.conj()
            for a, b in solved:
                if math.lcm(a, n // b) == L:
                    assert np.array_equal(gabor._walnut_blocks(z, zc, n, a, b), blocks_conj_per_lattice(z, n, a, b))


def blocks_conj_per_lattice(z, N, a, b):
    """Phi Phi^* with Phi^* taken as ``phi.conj()`` of each lattice's own view: oracle for the
    shared conjugate of ``gabor._walnut_blocks``."""
    q = N // b
    c = math.gcd(a, q)
    p, Q, L = a // c, q // c, a * q // c
    sz = z.itemsize
    phi = np.ndarray((len(z), c, N // L, p, Q), complex, z, a * sz, (z.strides[0], sz, 2 * L * sz, q * sz, a * sz))
    return (phi @ phi.conj().swapaxes(-1, -2)).reshape(len(z), -1, p, p)


class TestColumnSweep:
    def test_n120_sweep_builds_no_per_lattice_objects(self, monkeypatch):
        counts = dict.fromkeys(["FrameReport", "ZNLattice", "rule", "blocks", "ifft", "eigvalsh"], 0)

        def counting(name, fn):
            def spy(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return spy

        monkeypatch.setattr(FrameReport, "__init__", counting("FrameReport", FrameReport.__init__))
        monkeypatch.setattr(ZNLattice, "__post_init__", counting("ZNLattice", ZNLattice.__post_init__))
        monkeypatch.setattr(sequences, "scaled_bounds", counting("rule", sequences.scaled_bounds))
        monkeypatch.setattr(gabor, "_walnut_blocks", counting("blocks", gabor._walnut_blocks))
        monkeypatch.setattr(np.fft, "ifft", counting("ifft", np.fft.ifft))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        table = density_sweep(sample_window("gaussian", 120))
        assert len(table["A"]) == 256
        assert counts == {"FrameReport": 0, "ZNLattice": 0, "rule": 256, "blocks": 136, "ifft": 15, "eigvalsh": 6}

    def test_table_holds_every_column_in_divisor_order(self):
        table = density_sweep(sample_window("sech", 12))
        assert list(table) == [*io.SWEEP_FIELDS, "density_ok"]
        assert all(len(column) == 36 for column in table.values())
        assert list(zip(table["a"], table["b"])) == [(lat.a, lat.b) for lat in divisor_lattices(12)]


class TestGaborStats:
    def test_density_law_on_z6_sweep(self):
        w = sample_window("gaussian", 6)
        for row in sweep_rows(density_sweep(w)):
            if row["is_frame"]:
                assert row["a"] * row["b"] <= 6
            assert row["is_riesz"] == (row["is_frame"] and row["a"] * row["b"] == 6)

    def test_undersampled_never_frame(self):
        # ab > N means fewer than N vectors, so no frame
        w = sample_window("twoexp", 8)
        stats = next(row for row in sweep_rows(density_sweep(w)) if (row["a"], row["b"]) == (4, 4))
        assert stats["count"] == 4 < 8
        assert not stats["is_frame"]

    def test_critical_density_riesz(self):
        rng = np.random.default_rng(7)
        w = ZNWindow(crandom(rng, 4))
        stats = next(row for row in sweep_rows(density_sweep(w)) if (row["a"], row["b"]) == (2, 2))
        if stats["is_frame"]:
            assert stats["is_riesz"]


class TestOversampleCheck:
    def test_trivial_refinement(self):
        w = sample_window("sech", 8)
        [rep] = oversample_checks([(w, ZNLattice(8, 4, 2), 1, 1)])
        assert rep["coarse"] == rep["fine"]

    def test_bounds_scale(self):
        rng = np.random.default_rng(8)
        w = ZNWindow(crandom(rng, 8))
        [rep] = oversample_checks([(w, ZNLattice(8, 4, 2), 2, 1)])
        assert rep["lower_ok"] and rep["upper_ok"]
        assert rep["fine"]["A"] >= 2 * rep["coarse"]["A"] - 1e-9

    def test_tight_stays_tight(self):
        rng = np.random.default_rng(9)
        g = crandom(rng, 8)
        w = ZNWindow(g / np.linalg.norm(g))
        # a=b=2 refined to full lattice: tight bound scales by uv
        [rep] = oversample_checks([(w, ZNLattice(8, 2, 2), 2, 2)])
        fine = rep["fine"]
        coarse = rep["coarse"]
        if coarse["A"] == pytest.approx(coarse["B"], rel=1e-9):
            assert fine["A"] == pytest.approx(4 * coarse["A"], rel=1e-8)

    def test_bad_refinement(self):
        w = sample_window("gaussian", 8)
        with pytest.raises(ConditionViolated, match=r"need u \| a and v \| b, got u=3, v=1"):
            oversample_checks([(w, ZNLattice(8, 4, 2), 3, 1)])

    def test_batch_equals_one_case_calls(self):
        rng = np.random.default_rng(10)
        cases = [
            (ZNWindow(crandom(rng, n)), lat, u, v)
            for n in (8, 12)
            for lat in divisor_lattices(n)
            for u in gabor.divisors(lat.a)
            for v in gabor.divisors(lat.b)
        ]
        assert oversample_checks(cases) == [oversample_checks([case])[0] for case in cases]
        assert oversample_checks([]) == []

    def test_batch_names_the_first_bad_refinement(self):
        w = sample_window("gaussian", 8)
        good, bad = (w, ZNLattice(8, 4, 2), 2, 1), (w, ZNLattice(8, 2, 4), 1, 3)
        with pytest.raises(ConditionViolated, match=r"got u=1, v=3 for \(a, b\)=\(2, 4\)"):
            oversample_checks([good, bad, (w, ZNLattice(8, 4, 2), 3, 1)])

    @pytest.mark.parametrize("seed", [0, 7, 1008, 9001])
    def test_oversampling_suite_makes_at_most_four_eigvalsh_calls(self, monkeypatch, seed):
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", shape_logging(np.linalg.eigvalsh, calls))
        result = verify.suite_oversampling(verify.suite_rng(seed, 9), 50)
        assert result["passed"] and result["trials"] == 372
        assert 1 <= len(calls) <= 4


class TestRankRWindow:
    def spec_d2_r2(self, n=4):
        return RankRWindowSpec(
            windows=(delta(n), delta(n)),
            alphas=((0, 1), (0, 2)),
            betas=((0, 1), (0, 2)),
        )

    def test_rank_one_plain_tensor(self):
        spec = RankRWindowSpec(
            windows=(delta(4), delta(4)), alphas=((0,), (0,)), betas=((0,), (0,))
        )
        w = build_rank_r_window(spec)
        np.testing.assert_allclose(w.g, np.kron(delta(4).g, delta(4).g))

    def test_d2_r2_shape(self):
        w = build_rank_r_window(self.spec_d2_r2())
        assert w.N == 16

    @pytest.mark.parametrize("windows, alphas, betas, message", [
        ((), (), (), "need at least one factor"),
        ((delta(4),), ((0,), (0,)), ((0,),), "shift tables must have one row per factor"),
        ((delta(4), delta(4)), ((0,), (0, 2)), ((0,), (0, 2)), "all factors must carry the same number of terms"),
    ], ids=["no_factor", "rows_short", "term_counts_differ"])
    def test_misshapen_spec_rejected(self, windows, alphas, betas, message):
        with pytest.raises(DimensionMismatch, match=f"^{message}$"):
            RankRWindowSpec(windows, alphas, betas)

    def test_zero_window_rejected(self):
        spec = RankRWindowSpec(
            windows=(ZNWindow(np.zeros(4)), delta(4)),
            alphas=((0, 1), (0, 1)),
            betas=((0, 0), (0, 0)),
        )
        with pytest.raises(DependentGroup, match="component sequences of group 0 are linearly dependent") as err:
            build_rank_r_window(spec)
        assert err.value.group_index == 0

    def test_dependent_spec_is_one_kind_in_both_routes(self):
        rng = np.random.default_rng(9)
        cases = [
            # T_2 of the flat window is the window itself, so factor 0's translates are dependent
            (RankRWindowSpec(windows=(ZNWindow(np.ones(4)),), alphas=((0, 2),), betas=((0, 0),)),
             [ZNLattice(4, 2, 2)], 0),
            # (2, 2) and (8, 2) are one shift pair on Z_6: factor 1 holds the same translate twice
            (RankRWindowSpec(windows=(ZNWindow(crandom(rng, 6)), ZNWindow(crandom(rng, 6))),
                             alphas=((0, 2), (2, 8)), betas=((0, 2), (2, 2))),
             [ZNLattice(6, 2, 2)] * 2, 1),
        ]
        for spec, lats, j in cases:
            for build in (lambda: build_rank_r_window(spec), lambda: verify_rank_r_frame_implication(spec, lats)):
                with pytest.raises(DependentGroup, match=f"group {j} are linearly dependent") as err:
                    build()
                assert err.value.group_index == j

    def test_per_factor_reports_match_one_report_per_factor(self):
        # one gabor_frame_reports call solves the factors; each report equals its own call, exactly
        rng = np.random.default_rng(12)
        w6, w4 = ZNWindow(1e5 * crandom(rng, 6)), ZNWindow(1e-3 * crandom(rng, 4))
        cases = [
            (RankRWindowSpec((w6, w4), ((0, 2), (0, 2)), ((0, 3), (0, 2))), [ZNLattice(6, 2, 1), ZNLattice(4, 2, 2)]),
            (RankRWindowSpec((w6, w6), ((0, 2), (0, 4)), ((0, 2), (2, 0))), [ZNLattice(6, 2, 2)] * 2),
            (RankRWindowSpec((w4, w6, w4), ((0,), (0,), (2,)), ((0,), (0,), (0,))),
             [ZNLattice(4, 1, 2), ZNLattice(6, 3, 2), ZNLattice(4, 2, 2)]),
        ]
        for spec, lats in cases:
            report = verify_rank_r_frame_implication(spec, lats)
            assert report["full"]["is_frame"]
            want = [{**gabor_frame_report(w, lat).to_dict(), "ab_over_N": lat.density_ratio,
                     "density_ok": lat.a * lat.b <= lat.N} for w, lat in zip(spec.windows, lats)]
            assert report["per_factor"] == want
            assert report["all_factors_frames"] is all(f["is_frame"] and f["density_ok"] for f in want)

    def test_frame_implication_on_z6(self):
        rng = np.random.default_rng(10)
        w1 = ZNWindow(crandom(rng, 6))
        w2 = ZNWindow(crandom(rng, 6))
        spec = RankRWindowSpec(
            windows=(w1, w2),
            alphas=((0, 2), (0, 2)),
            betas=((0, 2), (0, 2)),
        )
        lats = [ZNLattice(6, 2, 2), ZNLattice(6, 2, 2)]
        report = verify_rank_r_frame_implication(spec, lats)
        assert report["full"]["is_frame"]
        assert report["all_factors_frames"]

    def test_rank_one_reduces_to_tensor_theorem(self):
        rng = np.random.default_rng(11)
        w1 = ZNWindow(crandom(rng, 4))
        w2 = ZNWindow(crandom(rng, 4))
        spec = RankRWindowSpec(windows=(w1, w2), alphas=((0,), (0,)), betas=((0,), (0,)))
        lats = [ZNLattice(4, 2, 2), ZNLattice(4, 2, 2)]
        report = verify_rank_r_frame_implication(spec, lats)
        f1 = classify(gabor_system(w1, lats[0])).is_frame
        f2 = classify(gabor_system(w2, lats[1])).is_frame
        assert report["full"]["is_frame"] == (f1 and f2)

    def test_not_a_frame_reports_no_factors(self):
        # a = b = N keeps one atom per factor: one vector in C^16 is no frame, so the implication has no premise
        spec = RankRWindowSpec(windows=(delta(4), delta(4)), alphas=((0,), (0,)), betas=((0,), (0,)))
        report = verify_rank_r_frame_implication(spec, [ZNLattice(4, 4, 4)] * 2)
        assert not report["full"]["is_frame"]
        assert "per_factor" not in report and "all_factors_frames" not in report

    def test_non_multiple_shift_rejected(self):
        spec = RankRWindowSpec(
            windows=(delta(4), delta(4)), alphas=((1,), (0,)), betas=((0,), (0,))
        )
        lats = [ZNLattice(4, 2, 2), ZNLattice(4, 2, 2)]
        with pytest.raises(ConditionViolated, match=r"factor 0 term 0: shifts \(1, 0\) are not multiples"):
            verify_rank_r_frame_implication(spec, lats)

    @pytest.mark.parametrize("count", [1, 3])
    def test_wrong_lattice_count(self, count):
        spec = RankRWindowSpec(
            windows=(delta(4), delta(4)), alphas=((0,), (0,)), betas=((0,), (0,))
        )
        with pytest.raises(DimensionMismatch, match="need one lattice per factor"):
            verify_rank_r_frame_implication(spec, [ZNLattice(4, 2, 2)] * count)


def rank_r_window_by_terms(spec):
    """Reference: each of the r terms built by a chain of vector krons."""
    factor_terms = [np.array([w.g for w in spec.modulated_translates(j)]) for j in range(spec.d)]
    total = np.zeros(int(np.prod([w.N for w in spec.windows])), dtype=complex)
    for k in range(spec.r):
        v = factor_terms[0][k]
        for j in range(1, spec.d):
            v = np.kron(v, factor_terms[j][k])
        total += v
    return total


def test_rank_r_components_match_the_zak_factor_reports():
    # With aligned shifts every atom of G(M_beta T_alpha g_j, a_j, b_j) is a unimodular multiple of an atom
    # of G(g_j, a_j, b_j), so the main theorem's dense per_component[j][k] has the bounds of per_factor[j]
    rng = np.random.default_rng(31)
    frames = 0
    for _ in range(40):
        r = int(rng.integers(1, 4))
        windows, lats, alphas, betas = [], [], [], []
        for n in rng.choice([4, 6, 8], size=2):
            pairs = [(a, b) for a in gabor.divisors(n) for b in gabor.divisors(n) if a * b <= n]
            lat = ZNLattice(int(n), *pairs[rng.integers(len(pairs))])
            points = rng.choice((n // lat.a) * (n // lat.b), size=r, replace=False)  # r distinct lattice points (m, l)
            alphas.append(tuple(int(lat.a * (p // (n // lat.b))) for p in points))
            betas.append(tuple(int(lat.b * (p % (n // lat.b))) for p in points))
            windows.append(ZNWindow(2.0 ** int(rng.integers(-20, 21)) * crandom(rng, int(n))))
            lats.append(lat)
        report = verify_rank_r_frame_implication(RankRWindowSpec(tuple(windows), tuple(alphas), tuple(betas)), lats)
        if not report["full"]["is_frame"]:
            continue
        frames += 1
        for comps, factor in zip(report["per_component"], report["per_factor"], strict=True):
            assert len(comps) == r
            for comp in comps:
                assert abs(comp["A"] - factor["A"]) <= 1e-13 * factor["B"]
                assert abs(comp["B"] - factor["B"]) <= 1e-13 * factor["B"]
                assert (comp["is_frame"], comp["is_riesz"]) == (factor["is_frame"], factor["is_riesz"])
    assert frames >= 30


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_rank_r_window_matches_term_loop(d, r):
    rng = np.random.default_rng(200 + 10 * d + r)
    for _ in range(4):
        ns = [int(n) for n in rng.integers(max(r, 2), 6, size=d)]
        shifts = [rng.choice(n * n, size=r, replace=False) for n in ns]
        spec = RankRWindowSpec(
            windows=tuple(ZNWindow(crandom(rng, n)) for n in ns),
            alphas=tuple(tuple(int(p // n) for p in sh) for n, sh in zip(ns, shifts)),
            betas=tuple(tuple(int(p % n) for p in sh) for n, sh in zip(ns, shifts)),
        )
        assert np.array_equal(build_rank_r_window(spec).g, rank_r_window_by_terms(spec))


def dependent_factor_by_svd(spec, tol=1e-9):
    """First factor whose r modulated translates have numerical rank < r, by
    the singular values of the stacked r x N matrix: oracle for the rank check
    of build_rank_r_window.  None when every factor is independent."""
    for j in range(spec.d):
        rows = np.array([w.g for w in spec.modulated_translates(j)])
        s = np.linalg.svd(rows, compute_uv=False)
        if s[0] == 0.0 or np.count_nonzero(s > tol * s[0]) < spec.r:
            return j
    return None


def test_dependent_modulates_match_svd_oracle():
    rng = np.random.default_rng(300)
    flat = ZNWindow(np.ones(4))
    near_flat = [ZNWindow(np.ones(4) + eps * delta(4).g) for eps in (1e-6, 1e-12)]
    rand = ZNWindow(crandom(rng, 4))
    cases = [
        ((rand, rand), ((0, 1), (0, 2)), ((0, 1), (1, 0))),  # independent
        ((ZNWindow(np.zeros(4)), rand), ((0, 1), (0, 1)), ((0, 0), (0, 0))),  # zero window
        ((rand, delta(4)), ((0, 1), (0, 0)), ((0, 0), (1, 3))),  # M_b delta = delta
        ((flat, rand), ((0, 1), (0, 1)), ((0, 0), (0, 0))),  # T_a 1 = 1
        ((rand, near_flat[0]), ((0, 1), (0, 1)), ((0, 0), (0, 0))),  # above the threshold
        ((rand, near_flat[1]), ((0, 1), (0, 1)), ((0, 0), (0, 0))),  # below it
        ((rand,), ((5, -3, 10**20),), ((2, 7, 1),)),
    ]
    seen = []
    for windows, alphas, betas in cases:
        spec = RankRWindowSpec(windows=windows, alphas=alphas, betas=betas)
        j = dependent_factor_by_svd(spec)
        seen.append(j)
        if j is None:
            build_rank_r_window(spec)
        else:
            with pytest.raises(DependentGroup, match=f"group {j} are linearly dependent") as err:
                build_rank_r_window(spec)
            assert err.value.group_index == j
    assert seen == [None, 0, 1, 0, None, 1, None]


class TestWindowEntries:
    def test_caller_writes_do_not_reach_the_window(self):
        # the window kept the caller's array, so a write into it reached the window
        g = np.ones(12, dtype=complex)
        w, lat = ZNWindow(g), ZNLattice(12, 2, 3)
        before = gabor_frame_report(w, lat)
        g[:] = 2.0
        assert gabor_frame_report(w, lat) == before
        assert gabor_frame_report(ZNWindow(g), lat).bessel_bound == 4 * before.bessel_bound == 288.0

    def test_entries_are_read_only(self):
        w = ZNWindow(np.ones(12, dtype=complex))
        with pytest.raises(ValueError):
            w.g[:] = 0

    @pytest.mark.parametrize("label", [{"x": 1}, [1], 7, True])
    def test_label_that_is_not_a_string_or_none_raises(self, label):
        # any label was kept, and io wrote a window file that its own loader refused
        with pytest.raises(ValueError, match="^window field 'generator' must be a string or null, got "):
            ZNWindow(np.ones(4, dtype=complex), label)

    def test_a_sweep_leaves_nothing_on_the_window(self):
        # the window kept its scale and every Z_L of a sweep: 64 arrays, 15.5 MB at N = 7560
        w = sample_window("gaussian", 120)
        density_sweep(w)
        assert vars(w).keys() == {"g", "generator"}


class TestPerturbWindow:
    def test_known_non_frame_instance(self):
        rng = np.random.default_rng(12)
        g = crandom(rng, 8)
        w = ZNWindow(g / np.linalg.norm(g))
        rep = perturb_window(w, ZNLattice(8, 2, 2), 4, 4, 0.0)
        assert rep["spectral_ratio"] < 1e-8
        assert not rep["is_frame"]

    def test_zero_shift_rejected(self):
        w = sample_window("gaussian", 8)
        with pytest.raises(ConditionViolated, match=r"\(alpha, beta\) must be nonzero mod N"):
            perturb_window(w, ZNLattice(8, 2, 2), 0, 0, 0.0)

    def test_condition_violation(self):
        w = sample_window("gaussian", 8)
        with pytest.raises(ConditionViolated, match="need alpha\\*b = 0 and beta\\*a = 0 mod N"):
            perturb_window(w, ZNLattice(8, 2, 2), 1, 0, 0.0)

    @pytest.mark.parametrize("c_phase", [1e17, 1e300, -1.0, 3.0])
    def test_integer_phase_is_c_one(self, c_phase):
        # 2 pi c_phase lost the phase: 1e17 reported a frame with spectral ratio 0.11
        w, lat = sample_window("gaussian", 8), ZNLattice(8, 2, 2)
        want = perturb_window(w, lat, 4, 4, 0.0)
        assert not want["is_frame"]
        assert perturb_window(w, lat, 4, 4, c_phase) == {**want, "c_phase": c_phase}

    @pytest.mark.parametrize("c_phase", [0.0, 0.25, 0.7, 1 - 2**-53])
    def test_phase_in_unit_interval_is_used_as_given(self, c_phase):
        w, lat = sample_window("sech", 8), ZNLattice(8, 2, 2)
        h = w.g + np.exp(2j * np.pi * c_phase) * gabor.gabor_atom(w, 4, 4)
        want = gabor_frame_report(ZNWindow(h), lat).to_dict()
        got = perturb_window(w, lat, 4, 4, c_phase)
        assert {k: got[k] for k in want} == want


class TestDensitySweep:
    def test_row_count(self):
        w = sample_window("rational", 12)
        rows = sweep_rows(density_sweep(w))
        assert len(rows) == 6 * 6  # divisors of 12: 1,2,3,4,6,12

    def test_delta_riesz_row(self):
        rows = sweep_rows(density_sweep(delta(4)))
        row = next(r for r in rows if (r["a"], r["b"]) == (1, 4))
        assert row["is_riesz"]

    def test_no_frame_above_critical_density(self):
        for gen in ("gaussian", "twoexp", "sech"):
            w = sample_window(gen, 6)
            for row in sweep_rows(density_sweep(w)):
                assert not (row["is_frame"] and row["a"] * row["b"] > 6)

    def test_desk_scale_cap(self):
        with pytest.raises(ValueError):
            density_sweep(ZNWindow(np.ones(8193)))


class TestDensitySuite:
    def test_dense_route_checks_every_undercomplete_lattice(self, monkeypatch):
        counts = []

        def counting_classify_all(seqs):
            counts.extend((len(seq), seq.space_dim) for seq in seqs)
            return classify_all(seqs)

        monkeypatch.setattr(verify, "classify_all", counting_classify_all)
        assert verify.suite_gabor_density(verify.suite_rng(0, 8), 1)["passed"]
        want = [
            ((n // lat.a) * (n // lat.b), n)
            for n in (4, 6, 8, 12)
            for _ in range(3)
            for lat in divisor_lattices(n)
            if lat.a * lat.b > n
        ]
        assert counts == want

    def test_a_dense_frame_fails_the_suite(self, monkeypatch):
        frame = sequences.FrameReport(1.0, 1.0, True, False)
        monkeypatch.setattr(verify, "classify_all", lambda seqs: [frame] * len(seqs))
        assert not verify.suite_gabor_density(verify.suite_rng(0, 8), 1)["passed"]


class TestSampleWindow:
    @pytest.mark.parametrize("gen", gabor.WINDOW_GENERATORS)
    def test_unit_norm(self, gen):
        w = sample_window(gen, 16)
        assert np.linalg.norm(w.g) == pytest.approx(1.0)
        assert w.generator == gen

    def test_peak_at_zero(self):
        w = sample_window("gaussian", 16)
        assert np.argmax(np.abs(w.g)) == 0

    def test_empty_window_rejected(self):
        with pytest.raises(DimensionMismatch, match="^window must be nonempty$"):
            ZNWindow([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_window_rejected(self, bad):
        g = np.ones(8, dtype=complex)
        g[3] = bad
        with pytest.raises(NonFiniteData, match="window has non-finite entries"):
            ZNWindow(g)

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            sample_window("hann", 8)
