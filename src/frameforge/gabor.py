"""Discrete Gabor systems on the cyclic group Z_N and products of them.

Discretization dictionary: L^2(R) becomes C^N over Z_N, translation is the
cyclic shift T_a, modulation the phase ramp M_b with frequency step 2*pi/N,
and the rectangular lattice uses divisor steps a | N, b | N so the system
has (N/a)*(N/b) atoms.  The density threshold "a*b <= 1" becomes a*b <= N
and critical density a*b = N.  All assertions here concern these discrete
analogs, never the continuous statements.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg, sequences
from .errors import ConditionViolated, DimensionMismatch, NonFiniteData
from .linalg import as_cvector
from .sequences import FrameReport, VectorSequence

_PROFILES = {  # the continuous profile u(t) of each window generator, in the order of WINDOW_GENERATORS
    "gaussian": lambda t: np.exp(-np.abs(t) ** 2),
    "twoexp": lambda t: np.exp(-np.abs(t)),
    "sech": lambda t: 1.0 / np.cosh(np.pi * t),
    "rational": lambda t: 1.0 / (1.0 + 4.0 * np.pi**2 * t**2),
}
WINDOW_GENERATORS = tuple(_PROFILES)

# A sampled window covers WINDOW_SPAN units of its continuous profile; the
# refined-bound inequalities of ``oversample_checks`` have absolute slack OVERSAMPLE_TOL.
WINDOW_SPAN = 8
OVERSAMPLE_TOL = 1e-9

# Largest N a density sweep accepts, in the library and on the command line.
MAX_SWEEP_N = 8192
# The columns of a density sweep's table: the fields of its CSV, then density_ok.
SWEEP_COLUMNS = ("N", "a", "b", "count", "A", "B", "is_frame", "is_riesz", "ab_over_N", "density_ok")
# How an OutOfFloatRange message names the frame bounds of the lattice (a, b).
_WHAT = "on (a, b)=({}, {}) of a window"


@dataclass(frozen=True)
class ZNLattice:
    """Rectangular time-frequency lattice on Z_N with divisor steps."""

    N: int
    a: int
    b: int

    def __post_init__(self):
        if self.N < 1 or self.a < 1 or self.b < 1:
            raise ConditionViolated("N, a, b must be positive")
        if self.N % self.a or self.N % self.b:
            raise ConditionViolated(f"a={self.a} and b={self.b} must divide N={self.N}")

    @property
    def density_ratio(self) -> float:
        return self.a * self.b / self.N


@dataclass(frozen=True, eq=False)
class ZNWindow:
    """Window vector on Z_N with an optional generator label, a string or None.

    ``g`` is a read-only copy of the given entries, so the finiteness check
    of ``__post_init__`` holds for as long as the window lives.
    """

    g: np.ndarray
    generator: str | None = None

    def __post_init__(self):
        if not isinstance(gen := self.generator, str | None):
            raise ValueError(f"window field 'generator' must be a string or null, got {type(gen).__name__} {gen!r:.40}")
        g = as_cvector(self.g).copy()
        g.flags.writeable = False
        if g.shape[0] < 1:
            raise DimensionMismatch("window must be nonempty")
        if not np.isfinite(g).all():
            raise NonFiniteData("window has non-finite entries (NaN or inf)")
        object.__setattr__(self, "g", g)

    @property
    def N(self) -> int:
        return self.g.shape[0]


def sample_window(generator: str, N: int) -> ZNWindow:
    """Sample a window from the classical window class on Z_N.

    The continuous profile u of ``generator``, one of WINDOW_GENERATORS, is
    evaluated at (t - N/2) / s for t = 0..N-1 with s = N / WINDOW_SPAN, then
    cyclically centered at 0 and normalized to unit norm.
    """
    if generator not in _PROFILES:
        raise ValueError(f"unknown window generator {generator!r}")
    s = N / WINDOW_SPAN
    g = np.roll(_PROFILES[generator]((np.arange(N) - N / 2) / s).astype(complex), -(N // 2))
    return ZNWindow(g / np.linalg.norm(g), generator)


def translate(w: ZNWindow, a: int) -> ZNWindow:
    """Cyclic shift: result[t] = g[(t - a) mod N]; unitary."""
    return ZNWindow(gabor_atom(w, a, 0), w.generator)


def modulate(w: ZNWindow, b: int) -> ZNWindow:
    """Phase ramp: result[t] = exp(2*pi*i*b*t/N) * g[t]; unitary."""
    return ZNWindow(gabor_atom(w, 0, b), w.generator)


def gabor_atom(w: ZNWindow, a_shift, b_mod) -> np.ndarray:
    """Atoms M_b T_a g = exp(2*pi*i*b*t/N) * g[(t - a) mod N], t on the last axis.

    Integer or integer-array shifts broadcast; both are reduced mod N as
    integers first, so negative shifts and Python ints of any size are exact.
    An atom that leaves the float range raises ``OutOfFloatRange``.
    """
    t = np.arange(w.N)
    a = np.asarray(a_shift % w.N)[..., None]
    b = np.asarray(b_mod % w.N)[..., None]
    return linalg.within_float_range(lambda: np.exp(2j * np.pi * b * t / w.N) * w.g[(t - a) % w.N],
                                     "a time-frequency shift of the window")


def _check_length(w: ZNWindow, lat: ZNLattice) -> None:
    if w.N != lat.N:
        raise DimensionMismatch(f"window length {w.N} does not match lattice N={lat.N}")


def gabor_system(w: ZNWindow, lat: ZNLattice) -> VectorSequence:
    """Family {M_{n b} T_{m a} g} ordered lexicographically in (m, n).

    Atom (m, n) is ``gabor_atom(w, m * a, n * b)``, built for all atoms in
    one broadcast.
    """
    _check_length(w, lat)
    m = lat.a * np.arange(lat.N // lat.a)[:, None]
    n = lat.b * np.arange(lat.N // lat.b)[None, :]
    return VectorSequence(gabor_atom(w, m, n).reshape(-1, lat.N))


def gabor_frame_report(w: ZNWindow, lat: ZNLattice) -> FrameReport:
    """Same result as ``classify(gabor_system(w, lat))`` without the atoms.

    Walnut's representation of the frame operator on aZ_N x bZ_N, for the
    window entries w[t]: S[j, l] = q sum_m w[j - m a] conj(w[l - m a]) when
    j = l mod q = N/b, and 0 otherwise.  With j = r + q s, S splits into q
    Hermitian b x b blocks S_r = q G_r G_r^*, where G_r[s, m] = w[r + q s - m a],
    and the spectrum of S is the union of the blocks' spectra.  S commutes
    with T_a: shifting m by one maps block r + a mod q onto a cyclic
    permutation of block r, so the c = gcd(a, q) blocks r < c carry every
    eigenvalue of S.

    Zak transform.  For ab <= N let p = a/c, Q = q/c, L = lcm(a, q) = aQ,
    d = N/L = b/p and Z_L(x, k) = sum_{v in Z_d} w[x - L v] e^(-2 pi i v k/d).
    With s = i + p u and m = mu + Q v, u, v in Z_d, r + q s - m a is
    x + L (u - v), x = r + q i - a mu, so a DFT over Z_d splits block r into
    d Hermitian p x p blocks Phi Phi^*, Phi[i, mu] = Z_L(r + q i - a mu, k).
    As 0 <= r + q i < L and 0 <= a mu <= L - a, x lies in (-L, L): one Z_L
    over [-L, L), 2N entries from one length-d FFT per window and L, serves
    every lattice with that L.

    Adjoint lattice.  When ab > N, the N^2/(ab) < N atoms cannot span C^N,
    so A = 0 exactly and the system is neither a frame nor a Riesz basis.
    The adjoint lattice (N/b, N/a) has blocks G'_r[s, m] = G_r[-m, -s]
    (the finite form of Ron-Shen and Janssen duality), so G'_r G'_r^* and
    G_r^* G_r share one spectrum, and the nonzero spectrum of S is that of
    the adjoint's frame operator times N/(ab).  B is read off the adjoint,
    whose blocks are Q x Q (c' = c, p' = Q, L' = L).

    The eigen cost per representative drops from b^3 to b p^2.  The blocks
    are built from 2**-e w, e = ``linalg.max_exponent(w.g)``, so the window's
    own scale cannot over- or underflow them.  ``sequences.scaled_bounds``
    decides on their spectrum, that of 2**-2e S / q, and scales A and B back
    by q 2**2e.  Bounds beyond the float range raise ``OutOfFloatRange``.
    """
    return gabor_frame_reports([(w, lat)])[0]


def _zaks(scaled: np.ndarray, L: int) -> np.ndarray:
    """Z_L[j, k, x + L] of each row ``scaled[j]`` = 2**-e_j w_j, k in Z_{N/L}, x in [-L, L); see gabor_frame_report."""
    N = scaled.shape[1]
    ext = np.concatenate((scaled[:, -L:], scaled), axis=1)  # ext[j, x + L t + L] = scaled[j, x + L t]
    z = np.ndarray((len(ext), N // L, 2 * L), complex, ext, 0, (ext.strides[0], L * ext.itemsize, ext.itemsize))
    return np.fft.ifft(z, axis=1, norm="forward") if L < N else z  # d = 1: the identity


def _walnut_blocks(z: np.ndarray, zc: np.ndarray, N: int, a: int, b: int) -> np.ndarray:
    """The (k, c d, p, p) stacks Phi Phi^* whose spectra make up that of 2**-2e_j S_j / q on
    (a, b), ab <= N, read off the Zak transforms ``z[j]``; Phi^* is the same view of ``zc = z.conj()``."""
    q = N // b
    c = math.gcd(a, q)
    p, Q, L = a // c, q // c, a * q // c
    sz = z.itemsize
    # Phi[j, r, k, i, Q-1-mu] = Z_L(r + q i - a mu, k): x + L starts at a for r = i = 0, mu = Q-1
    shape, strides = (len(z), c, N // L, p, Q), (z.strides[0], sz, 2 * L * sz, q * sz, a * sz)
    phi, phic = np.ndarray(shape, complex, z, a * sz, strides), np.ndarray(shape, complex, zc, a * sz, strides)
    return (phi @ phic.swapaxes(-1, -2)).reshape(len(z), -1, p, p)


def _solve(systems: list[tuple[ZNWindow, int, int]]) -> list[tuple[float, float, bool, bool]]:
    """(A, B, is_frame, is_riesz) of each system (window, a, b), in order, from the (lo, hi) of 2**-2e S / q
    on (a, b) when ab <= N, else on its adjoint (N/b, N/a) with lo = 0.  Windows key the tables by identity and
    are scaled together per N.  One Z_L stack (one batched FFT) and its conjugate serve each (N, L, window set),
    the windows of a solved lattice in first appearance: one per L in a sweep, or when all ask for the same
    lattices.  Each solved lattice is built once for all its windows and one ``linalg.hermitian_extremes`` call
    solves every stack; ``sequences.scaled_bounds`` runs per system in input order, so errors name the first one."""
    solved = [(w, a, b) if a * b <= (N := w.N) else (w, N // b, N // a) for w, a, b in systems]
    by_n, exps, scaled, windows = {}, {}, {}, {}  # by_n: N -> its windows, in first appearance -> their solved (a, b)
    for w, a, b in dict.fromkeys(solved):
        by_n.setdefault(w.N, {}).setdefault(w, {})[a, b] = None
    for N, asks in by_n.items():
        e = linalg.max_exponents(g := np.array([w.g for w in asks]))
        exps.update(zip(asks, e.tolist()))
        scaled.update(zip(asks, linalg.times_power_of_two(g, -e[:, None])))
        for w, lattices in asks.items():
            for a, b in lattices:
                windows.setdefault((N, a, b), []).append(w)  # solved (N, a, b) -> the windows it is solved for
    by_zak: dict[tuple, list] = {}  # (N, L, window set) -> the solved (a, b) that need exactly those windows
    for (N, a, b), ws in windows.items():
        by_zak.setdefault((N, math.lcm(a, N // b), tuple(ws)), []).append((a, b))
    stacks = {}
    for (N, L, ws), lattices in by_zak.items():
        z = _zaks(np.array([scaled[w] for w in ws]), L)
        zc = z.conj()
        for a, b in lattices:
            stacks.update(zip([(w, a, b) for w in ws], _walnut_blocks(z, zc, N, a, b)))
    bounds = dict(zip(stacks, linalg.hermitian_extremes(list(stacks.values()))))
    return [sequences.scaled_bounds(lo if a * b <= N else 0.0, hi, (N // a) * (N // b), N, N // b, exps[w], _WHAT, a, b)
            for (w, a, b), s in zip(systems, solved) for N, (lo, hi) in [(w.N, bounds[s])]]


def gabor_frame_reports(systems: list[tuple[ZNWindow, ZNLattice]]) -> list[FrameReport]:
    """``gabor_frame_report`` of each (window, lattice) pair, in order, solved together, each
    lattice at most once per window.  An error names the first failing lattice in input order."""
    for w, lat in systems:
        _check_length(w, lat)
    return [FrameReport(*r) for r in _solve([(w, lat.a, lat.b) for w, lat in systems])]


def oversample_checks(cases: list[tuple[ZNWindow, ZNLattice, int, int]]) -> list[dict]:
    """Frame-bound scaling under lattice refinement (a, b) -> (a/u, b/v) of each (w, lat, u, v), in order.

    The refined system must admit u*v*A as a lower and u*v*B as an upper frame bound, so the optimal refined
    bounds satisfy A' >= u*v*A and B' <= u*v*B.  Every coarse and refined lattice is solved in one
    ``gabor_frame_reports`` call."""
    for w, lat, u, v in cases:
        if u < 1 or v < 1 or lat.a % u or lat.b % v:
            raise ConditionViolated(f"need u | a and v | b, got u={u}, v={v} for (a, b)=({lat.a}, {lat.b})")
    systems = [(w, x) for w, lat, u, v in cases for x in (lat, ZNLattice(lat.N, lat.a // u, lat.b // v))]
    reports = gabor_frame_reports(systems)
    return [
        {
            "coarse": coarse.to_dict(),
            "fine": fine.to_dict(),
            "u": u,
            "v": v,
            "lower_ok": fine.lower_bound >= u * v * coarse.lower_bound - OVERSAMPLE_TOL,
            "upper_ok": fine.bessel_bound <= u * v * coarse.bessel_bound + OVERSAMPLE_TOL,
        }
        for (w, lat, u, v), coarse, fine in zip(cases, reports[::2], reports[1::2])
    ]


@dataclass(frozen=True, eq=False)
class RankRWindowSpec:
    """Rank-r window on a product group: sum over k of tensor products of
    modulated translates M_{beta[j][k]} T_{alpha[j][k]} g_j.  Its independence, which
    repeated shift pairs break, is the minimal-sum rank test of both rank-r routes (``DependentGroup``)."""

    windows: tuple[ZNWindow, ...]  # base window g_j per factor
    alphas: tuple[tuple[int, ...], ...]  # alphas[j][k]
    betas: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        d = len(self.windows)
        if d < 1:
            raise DimensionMismatch("need at least one factor")
        if len(self.alphas) != d or len(self.betas) != d:
            raise DimensionMismatch("shift tables must have one row per factor")
        r = len(self.alphas[0])
        for j in range(d):
            if len(self.alphas[j]) != r or len(self.betas[j]) != r:
                raise DimensionMismatch("all factors must carry the same number of terms")

    @property
    def d(self) -> int:
        return len(self.windows)

    @property
    def r(self) -> int:
        return len(self.alphas[0])

    def modulated_translates(self, j: int) -> list[ZNWindow]:
        """The r windows M_{beta[j][k]} T_{alpha[j][k]} g_j of factor j."""
        w = self.windows[j]
        return [ZNWindow(gabor_atom(w, a, b), w.generator) for a, b in zip(self.alphas[j], self.betas[j])]


def build_rank_r_window(spec: RankRWindowSpec) -> ZNWindow:
    """Materialize the rank-r window on the product group as the minimal sum
    whose group j holds the r modulated translates of factor j as one-vector
    sequences; building the sum raises ``DependentGroup`` on the first factor
    whose modulated translates are dependent."""
    groups = [[VectorSequence(w.g[None]) for w in spec.modulated_translates(j)] for j in range(spec.d)]
    return ZNWindow(sequences.materialize(sequences.build_minimal_sum(groups)).vectors[0], "rank_r")


def verify_rank_r_frame_implication(spec: RankRWindowSpec, lattices: list[ZNLattice]) -> dict:
    """Frame implication for rank-r windows with lattice-aligned shifts.

    Requires alpha[j][k] = 0 mod a_j and beta[j][k] = 0 mod b_j.  Extends ``sequences.verify_main_theorem``'s
    report on the minimal sum of the 1-d systems G(M_beta T_alpha g_j, a_j, b_j): if it is a frame, each
    G(g_j, a_j, b_j) must be a frame and a_j * b_j <= N_j (``per_factor``).
    """
    if len(lattices) != spec.d:
        raise DimensionMismatch("need one lattice per factor")
    for j, lat in enumerate(lattices):
        for k in range(spec.r):
            if spec.alphas[j][k] % lat.a or spec.betas[j][k] % lat.b:
                raise ConditionViolated(
                    f"factor {j} term {k}: shifts ({spec.alphas[j][k]}, {spec.betas[j][k]}) "
                    f"are not multiples of (a, b)=({lat.a}, {lat.b})"
                )
    groups = [[gabor_system(w, lat) for w in spec.modulated_translates(j)] for j, lat in enumerate(lattices)]
    report = sequences.verify_main_theorem(sequences.build_minimal_sum(groups))
    if not report["full"]["is_frame"]:
        return report
    reports = gabor_frame_reports(list(zip(spec.windows, lattices)))
    density = [lat.a * lat.b <= lat.N for lat in lattices]
    report["per_factor"] = [{**rep.to_dict(), "ab_over_N": lat.density_ratio, "density_ok": ok}
                            for rep, lat, ok in zip(reports, lattices, density)]
    report["all_factors_frames"] = all(rep.is_frame for rep in reports) and all(density)
    return report


def perturb_window(w: ZNWindow, lat: ZNLattice, alpha: int, beta: int, c_phase: float = 0.0) -> dict:
    """Classify the perturbed window g + c M_beta T_alpha g.

    Conditions from the continuous statement, discretized: (alpha, beta)
    nonzero, alpha*b = 0 mod N and beta*a = 0 mod N, |c| = 1 with
    c = exp(2*pi*i*c_phase).  ``c_phase`` is reduced mod 1 first, exactly,
    so a large one keeps its phase; NaN and inf raise ``NonFiniteData``.
    The expected outcome (non-frame) is reported, not asserted; callers
    assert only on oracle-pre-verified instances.
    """
    if not math.isfinite(c_phase):
        raise NonFiniteData(f"c_phase must be finite, got {c_phase}")
    if alpha % lat.N == 0 and beta % lat.N == 0:
        raise ConditionViolated("(alpha, beta) must be nonzero mod N")
    conditions_ok = (alpha * lat.b) % lat.N == 0 and (beta * lat.a) % lat.N == 0
    if not conditions_ok:
        raise ConditionViolated(
            f"need alpha*b = 0 and beta*a = 0 mod N; got alpha*b={alpha * lat.b}, "
            f"beta*a={beta * lat.a} mod {lat.N}"
        )
    h = linalg.within_float_range(lambda: w.g + np.exp(2j * np.pi * (c_phase % 1)) * gabor_atom(w, alpha, beta),
                                  "the perturbed window g + c M_beta T_alpha g")
    rep = gabor_frame_report(ZNWindow(h), lat)
    lam_min, lam_max = rep.lower_bound, rep.bessel_bound
    return {
        **rep.to_dict(),
        "alpha": alpha,
        "beta": beta,
        "c_phase": c_phase,
        "lambda_min": lam_min,
        "lambda_max": lam_max,
        "spectral_ratio": lam_min / lam_max if lam_max > 0 else 0.0,
    }


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def density_sweep(w: ZNWindow) -> dict[str, list]:
    """Classification over every divisor lattice (a, b) of Z_N, as a table: each of the
    SWEEP_COLUMNS mapped to its values, one per pair in lexicographic divisor order.  The
    lattices are solved as in ``gabor_frame_reports``, with no ``ZNLattice`` or
    ``FrameReport`` per pair."""
    N = w.N
    if N > MAX_SWEEP_N:
        raise ValueError(f"N={N} exceeds the supported sweep size {MAX_SWEEP_N}")
    pairs = list(itertools.product(divisors(N), repeat=2))
    rows = []
    for (a, b), (A, B, frame, riesz) in zip(pairs, _solve([(w, a, b) for a, b in pairs])):
        ab, count = a * b, (N // a) * (N // b)
        density_ok = (not frame or ab <= N) and riesz == (frame and ab == N)
        rows.append((N, a, b, count, A, B, frame, riesz, ab / N, density_ok))
    return dict(zip(SWEEP_COLUMNS, map(list, zip(*rows))))
