import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frameforge import gabor, sequences, verify
from frameforge.errors import (
    ConditionViolated,
    DependentModulates,
    DimensionMismatch,
    NonDivisorLattice,
    NonFiniteData,
    OutOfFloatRange,
    ZeroShift,
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
    oversample_check,
    perturb_window,
    sample_window,
    translate,
    verify_rank_r_frame_implication,
)
from frameforge.sequences import classify, frame_operator, tensor_sequences


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
                with pytest.raises(NonFiniteData, match="float range"):
                    shift()
            assert np.array_equal(translate(w, 3).g, w.g)

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
        with pytest.raises(NonDivisorLattice):
            ZNLattice(4, 3, 1)

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
    return sequences._report_from_bounds(float(eig.min()), float(eig.max()), lat.count, N)


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
            with pytest.raises(OutOfFloatRange):
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
                    with pytest.raises(OutOfFloatRange):
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
        rep = sequences._report_from_bounds(ratio * b, b, 4, 4)
        assert (rep.lower_bound, rep.bessel_bound) == (ratio * b, b)
        assert (rep.is_frame, rep.is_riesz) == (is_frame, is_frame)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            gabor_frame_report(sample_window("gaussian", 8), ZNLattice(12, 2, 2))


class TestBatchedReports:
    @pytest.mark.parametrize("n", [12, 120, 840])
    def test_sweep_rows_equal_single_lattice_stats(self, n):
        for w in oracle_windows(n):
            for row, lat in zip(density_sweep(w), divisor_lattices(n), strict=True):
                assert (row["N"], row["a"], row["b"], row["count"]) == (n, lat.a, lat.b, lat.count)
                rep = gabor_frame_report(w, lat).to_dict()
                assert {k: row[k] for k in rep} == rep

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
        walnut_blocks = gabor._walnut_blocks

        def spy(w, a, b):
            built.append((a, b))
            return walnut_blocks(w, a, b)

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
        assert gabor_frame_reports(w, [ok, ok]) == [gabor_frame_report(w, ok)] * 2
        with pytest.raises(OutOfFloatRange, match=r"\(a, b\)=\(1, 6\)"):
            gabor_frame_reports(w, [ok, first, second])
        with pytest.raises(OutOfFloatRange, match=r"\(a, b\)=\(4, 3\)"):
            gabor_frame_reports(w, [second, ok, first])
        assert gabor_frame_reports(w, []) == []


def walnut_first_row_blocks(w, a, b):
    """Each orbit representative's G_r gathered whole, its first g x g block row
    split by an FFT over Z_{b/g}, g = gcd(a/c, b): oracle for _walnut_blocks."""
    N = w.N
    q = N // b
    c = math.gcd(a, q)
    # r + q s - m a lies in (-N, N), and numpy reads a negative index i as i + N
    idx = np.arange(c)[:, None, None] + np.arange(0, N, q)[:, None] - np.arange(0, N, a)
    x, g = w.scaled[idx], math.gcd(a // c, b)
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
                    got, want = gabor._walnut_blocks(w, lat.a, lat.b), walnut_first_row_blocks(w, lat.a, lat.b)
                    assert got.shape == want.shape
                    got, want = (np.sort(np.linalg.eigvalsh(x), axis=None) for x in (got, want))
                    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_one_ifft_per_divisor_below_n(self, monkeypatch):
        calls = {"fft": [], "ifft": []}
        for name, log in calls.items():
            monkeypatch.setattr(np.fft, name, shape_logging(getattr(np.fft, name), log))
        density_sweep(sample_window("gaussian", 120))
        # one (N/L, 2L) transform per L = lcm(a, N/b) < N, and every divisor L is lcm(1, L)
        assert sorted(calls["ifft"]) == sorted((120 // L, 2 * L) for L in gabor.divisors(120)[:-1])
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

    def test_view_past_the_zak_array_raises(self):
        # on (4, 3) of Z_12, c = q = 4 and Phi ends on the last entry of Z_4
        w = sample_window("gaussian", 12)
        assert gabor._walnut_blocks(w, 4, 3).shape == (12, 1, 1)
        w._zak[4] = w.zak(4).ravel()[:-1]
        with pytest.raises(ValueError):
            gabor._walnut_blocks(w, 4, 3)


class TestGaborStats:
    def test_density_law_on_z6_sweep(self):
        w = sample_window("gaussian", 6)
        for row in density_sweep(w):
            if row["is_frame"]:
                assert row["a"] * row["b"] <= 6
            assert row["is_riesz"] == (row["is_frame"] and row["a"] * row["b"] == 6)

    def test_undersampled_never_frame(self):
        # ab > N means fewer than N vectors, so no frame
        w = sample_window("twoexp", 8)
        stats = next(row for row in density_sweep(w) if (row["a"], row["b"]) == (4, 4))
        assert stats["count"] == 4 < 8
        assert not stats["is_frame"]

    def test_critical_density_riesz(self):
        rng = np.random.default_rng(7)
        w = ZNWindow(crandom(rng, 4))
        stats = next(row for row in density_sweep(w) if (row["a"], row["b"]) == (2, 2))
        if stats["is_frame"]:
            assert stats["is_riesz"]


class TestOversampleCheck:
    def test_trivial_refinement(self):
        w = sample_window("sech", 8)
        rep = oversample_check(w, ZNLattice(8, 4, 2), 1, 1)
        assert rep["coarse"] == rep["fine"]

    def test_bounds_scale(self):
        rng = np.random.default_rng(8)
        w = ZNWindow(crandom(rng, 8))
        rep = oversample_check(w, ZNLattice(8, 4, 2), 2, 1)
        assert rep["lower_ok"] and rep["upper_ok"]
        assert rep["fine"]["A"] >= 2 * rep["coarse"]["A"] - 1e-9

    def test_tight_stays_tight(self):
        rng = np.random.default_rng(9)
        g = crandom(rng, 8)
        w = ZNWindow(g / np.linalg.norm(g))
        # a=b=2 refined to full lattice: tight bound scales by uv
        rep = oversample_check(w, ZNLattice(8, 2, 2), 2, 2)
        fine = rep["fine"]
        coarse = rep["coarse"]
        if coarse["A"] == pytest.approx(coarse["B"], rel=1e-9):
            assert fine["A"] == pytest.approx(4 * coarse["A"], rel=1e-8)

    def test_bad_refinement(self):
        w = sample_window("gaussian", 8)
        with pytest.raises(gabor.BadRefinement):
            oversample_check(w, ZNLattice(8, 4, 2), 3, 1)


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

    def test_zero_window_rejected(self):
        spec = RankRWindowSpec(
            windows=(ZNWindow(np.zeros(4)), delta(4)),
            alphas=((0, 1), (0, 1)),
            betas=((0, 0), (0, 0)),
        )
        with pytest.raises(DependentModulates):
            build_rank_r_window(spec)

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
        if report["full"]["is_frame"]:
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

    def test_non_multiple_shift_rejected(self):
        spec = RankRWindowSpec(
            windows=(delta(4), delta(4)), alphas=((1,), (0,)), betas=((0,), (0,))
        )
        lats = [ZNLattice(4, 2, 2), ZNLattice(4, 2, 2)]
        with pytest.raises(ConditionViolated):
            verify_rank_r_frame_implication(spec, lats)

    @pytest.mark.parametrize("count", [1, 3])
    def test_wrong_lattice_count(self, count):
        spec = RankRWindowSpec(
            windows=(delta(4), delta(4)), alphas=((0,), (0,)), betas=((0,), (0,))
        )
        with pytest.raises(DimensionMismatch):
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
            with pytest.raises(DependentModulates, match=f"factor {j} "):
                build_rank_r_window(spec)
    assert seen == [None, 0, 1, 0, None, 1, None]


class TestWindowEntries:
    def test_caller_writes_do_not_reach_the_window(self):
        # the window kept the caller's array, so its cached scale and Zak transforms went stale
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
        with pytest.raises(ZeroShift):
            perturb_window(w, ZNLattice(8, 2, 2), 0, 0, 0.0)

    def test_condition_violation(self):
        w = sample_window("gaussian", 8)
        with pytest.raises(ConditionViolated):
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
        rows = density_sweep(w)
        assert len(rows) == 6 * 6  # divisors of 12: 1,2,3,4,6,12

    def test_delta_riesz_row(self):
        rows = density_sweep(delta(4))
        row = next(r for r in rows if (r["a"], r["b"]) == (1, 4))
        assert row["is_riesz"]

    def test_no_frame_above_critical_density(self):
        for gen in ("gaussian", "twoexp", "sech"):
            w = sample_window(gen, 6)
            for row in density_sweep(w):
                assert not (row["is_frame"] and row["a"] * row["b"] > 6)

    def test_desk_scale_cap(self):
        with pytest.raises(ValueError):
            density_sweep(ZNWindow(np.ones(8193)))


class TestDensitySuite:
    def test_dense_route_checks_every_undercomplete_lattice(self, monkeypatch):
        counts = []

        def counting_classify(seq):
            counts.append((len(seq), seq.space_dim))
            return classify(seq)

        monkeypatch.setattr(verify, "classify", counting_classify)
        assert verify.suite_gabor_density(verify.suite_rng(0, 8), 1)["passed"]
        want = [
            (lat.count, n)
            for n in (4, 6, 8, 12)
            for _ in range(3)
            for lat in divisor_lattices(n)
            if lat.a * lat.b > n
        ]
        assert counts == want

    def test_a_dense_frame_fails_the_suite(self, monkeypatch):
        monkeypatch.setattr(verify, "classify", lambda seq: sequences.FrameReport(1.0, 1.0, True, False))
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_window_rejected(self, bad):
        g = np.ones(8, dtype=complex)
        g[3] = bad
        with pytest.raises(NonFiniteData, match="non-finite"):
            ZNWindow(g)

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            sample_window("hann", 8)
