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
from functools import cached_property

import numpy as np

from . import linalg, sequences
from .errors import (
    BadRefinement,
    ConditionViolated,
    DependentGroup,
    DependentModulates,
    DimensionMismatch,
    NonDivisorLattice,
    NonFiniteData,
    OutOfFloatRange,
    ZeroShift,
)
from .linalg import as_cvector
from .sequences import FrameReport, VectorSequence, _scaled_back, classify, report_from_spectrum

WINDOW_GENERATORS = ("gaussian", "twoexp", "sech", "rational")

# A sampled window covers WINDOW_SPAN units of its continuous profile; the
# refined-bound inequalities of ``oversample_check`` have absolute slack OVERSAMPLE_TOL.
WINDOW_SPAN = 8
OVERSAMPLE_TOL = 1e-9

# Largest N a density sweep accepts, in the library and on the command line.
MAX_SWEEP_N = 1024


@dataclass(frozen=True)
class ZNLattice:
    """Rectangular time-frequency lattice on Z_N with divisor steps."""

    N: int
    a: int
    b: int

    def __post_init__(self):
        if self.N < 1 or self.a < 1 or self.b < 1:
            raise NonDivisorLattice("N, a, b must be positive")
        if self.N % self.a or self.N % self.b:
            raise NonDivisorLattice(f"a={self.a} and b={self.b} must divide N={self.N}")

    @property
    def count(self) -> int:
        return (self.N // self.a) * (self.N // self.b)

    @property
    def density_ratio(self) -> float:
        return self.a * self.b / self.N


@dataclass(frozen=True)
class ZNWindow:
    """Window vector on Z_N with an optional generator label."""

    g: np.ndarray
    generator: str | None = None

    def __post_init__(self):
        g = as_cvector(self.g)
        if g.shape[0] < 1:
            raise DimensionMismatch("window must be nonempty")
        if not np.isfinite(g).all():
            raise NonFiniteData("window has non-finite entries (NaN or inf)")
        object.__setattr__(self, "g", g)

    @property
    def N(self) -> int:
        return self.g.shape[0]

    @cached_property
    def exponent(self) -> int:
        """``linalg.max_exponent(g)``, computed once per window."""
        return linalg.max_exponent(self.g)

    @cached_property
    def scaled(self) -> np.ndarray:
        """2**-exponent * g: its largest real or imaginary part lies in [0.5, 1), or it is zero."""
        return linalg.times_power_of_two(self.g, -self.exponent)


def sample_window(generator: str, N: int) -> ZNWindow:
    """Sample a window from the classical window class on Z_N.

    The continuous profile u is evaluated at (t - N/2) / s for t = 0..N-1
    with s = N / WINDOW_SPAN, then cyclically centered at 0 and normalized to
    unit norm.
    """
    s = N / WINDOW_SPAN
    t = (np.arange(N) - N / 2) / s
    if generator == "gaussian":
        vals = np.exp(-np.abs(t) ** 2)
    elif generator == "twoexp":
        vals = np.exp(-np.abs(t))
    elif generator == "rational":
        vals = 1.0 / (1.0 + 4.0 * np.pi**2 * t**2)
    elif generator == "sech":
        vals = 1.0 / np.cosh(np.pi * t)
    else:
        raise ValueError(f"unknown window generator {generator!r}")
    g = np.roll(vals.astype(complex), -(N // 2))
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
    An atom that leaves the float range raises ``NonFiniteData``.
    """
    t = np.arange(w.N)
    a = np.asarray(a_shift % w.N)[..., None]
    b = np.asarray(b_mod % w.N)[..., None]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        atoms = np.exp(2j * np.pi * b * t / w.N) * w.g[(t - a) % w.N]
    if not np.isfinite(atoms).all():
        raise NonFiniteData("a time-frequency shift of the window has non-finite entries: it leaves the float range")
    return atoms


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
    with T_a, which gives two more symmetries:

    - Orbits.  Shifting m by one maps block r + a mod q onto a cyclic
      permutation of block r, so the c = gcd(a, q) blocks r = 0..c-1 carry
      every eigenvalue of S.
    - In-block DFT.  Shifting m by q/c maps S_r onto itself with s moved by
      a/c mod b, so S_r commutes with the cyclic shift by g = gcd(a/c, b) on
      Z_b.  With s = g u + i, S_r is block circulant over u in Z_p, p = b/g,
      and its g x g blocks B_u form its first block row q G_r[:g] G_r^*.
      Its spectrum is that of the p Hermitian matrices
      sum_u B_u exp(-2 pi i u k / p), k in Z_p: one FFT over u, skipped
      when p = 1, where it is the identity.

    The eigen cost per representative drops from b^3 to b g^2.  The blocks
    are built from ``w.scaled`` = 2**-e w, e = ``w.exponent``, so the
    window's own scale cannot over- or underflow them.  The frame decision
    is made on their spectrum, that of 2**-2e S / q, and A and B are scaled
    back by q 2**2e.  Bounds beyond the float range raise ``OutOfFloatRange``.
    """
    _check_length(w, lat)
    N, a, b = lat.N, lat.a, lat.b
    q = N // b
    c = math.gcd(a, q)
    g = math.gcd(a // c, b)
    # r + q s - m a lies in (-N, N), and numpy reads a negative index i as i + N
    idx = np.arange(c)[:, None, None] + np.arange(0, N, q)[:, None] - np.arange(0, N, a)
    rows = w.scaled[idx]
    blocks = rows[:, :g] @ rows.conj().transpose(0, 2, 1)
    if g < b:
        blocks = np.fft.fft(blocks.reshape(c, g, b // g, g), axis=2).swapaxes(1, 2)
    rep = report_from_spectrum(np.linalg.eigvalsh(blocks), lat.count, N)
    return _scaled_back(rep, q, w.exponent, f"on (a, b)=({a}, {b}) of a window")


def gabor_stats(w: ZNWindow, lat: ZNLattice) -> dict:
    """Classification plus the discrete density bookkeeping for one lattice."""
    rep = gabor_frame_report(w, lat)
    ab = lat.a * lat.b
    stats = rep.to_dict()
    stats.update(
        {
            "N": lat.N,
            "a": lat.a,
            "b": lat.b,
            "count": lat.count,
            "ab_over_N": ab / lat.N,
            "density_ok": (not rep.is_frame or ab <= lat.N)
            and (rep.is_riesz == (rep.is_frame and ab == lat.N)),
        }
    )
    return stats


def oversample_check(w: ZNWindow, lat: ZNLattice, u: int, v: int) -> dict:
    """Frame-bound scaling under lattice refinement (a, b) -> (a/u, b/v).

    The refined system must admit u*v*A as a lower and u*v*B as an upper
    frame bound, so the optimal refined bounds satisfy A' >= u*v*A and
    B' <= u*v*B.
    """
    if u < 1 or v < 1 or lat.a % u or lat.b % v:
        raise BadRefinement(f"need u | a and v | b, got u={u}, v={v} for (a, b)=({lat.a}, {lat.b})")
    coarse = gabor_frame_report(w, lat)
    fine = gabor_frame_report(w, ZNLattice(lat.N, lat.a // u, lat.b // v))
    uv = u * v
    return {
        "coarse": coarse.to_dict(),
        "fine": fine.to_dict(),
        "u": u,
        "v": v,
        "lower_ok": fine.lower_bound >= uv * coarse.lower_bound - OVERSAMPLE_TOL,
        "upper_ok": fine.bessel_bound <= uv * coarse.bessel_bound + OVERSAMPLE_TOL,
    }


@dataclass(frozen=True)
class RankRWindowSpec:
    """Rank-r window on a product group: sum over k of tensor products of
    modulated translates M_{beta[j][k]} T_{alpha[j][k]} g_j."""

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
            n = self.windows[j].N
            pairs = {(a % n, b % n) for a, b in zip(self.alphas[j], self.betas[j])}
            if len(pairs) != r:
                raise DimensionMismatch(f"factor {j} has repeated (alpha, beta) pairs")

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
    sequences; building the sum checks their independence per factor."""
    groups = [[VectorSequence(w.g[None]) for w in spec.modulated_translates(j)] for j in range(spec.d)]
    try:
        ms = sequences.build_minimal_sum(groups)
    except DependentGroup as exc:
        raise DependentModulates(f"modulated translates of factor {exc.group_index} are dependent") from exc
    return ZNWindow(sequences.materialize(ms).vectors[0], "rank_r")


def verify_rank_r_frame_implication(spec: RankRWindowSpec, lattices: list[ZNLattice]) -> dict:
    """Frame implication for rank-r windows with lattice-aligned shifts.

    Requires alpha[j][k] = 0 mod a_j and beta[j][k] = 0 mod b_j.  If the
    d-dimensional system is a frame, each 1-d system G(g_j, a_j, b_j) must be
    a frame and a_j * b_j <= N_j.
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
    # group (j, k): the 1-d Gabor system of the k-th modulated translate of g_j
    groups = [[gabor_system(w, lat) for w in spec.modulated_translates(j)] for j, lat in enumerate(lattices)]
    full = classify(sequences.materialize(sequences.build_minimal_sum(groups)))
    report: dict = {"full": full.to_dict(), "d": spec.d, "r": spec.r}
    if not full.is_frame:
        report["claim"] = "no claim"
        return report
    per_factor = []
    ok = True
    for j, lat in enumerate(lattices):
        rep = gabor_frame_report(spec.windows[j], lat)
        density_ok = lat.a * lat.b <= lat.N
        per_factor.append({**rep.to_dict(), "ab_over_N": lat.density_ratio, "density_ok": density_ok})
        ok = ok and rep.is_frame and density_ok
    report["per_factor"] = per_factor
    report["all_factors_frames"] = ok
    return report


def perturb_window(w: ZNWindow, lat: ZNLattice, alpha: int, beta: int, c_phase: float = 0.0) -> dict:
    """Classify the perturbed window g + c M_beta T_alpha g.

    Conditions from the continuous statement, discretized: (alpha, beta)
    nonzero, alpha*b = 0 mod N and beta*a = 0 mod N, |c| = 1 with
    c = exp(2*pi*i*c_phase).  The expected outcome (non-frame) is reported,
    not asserted; callers assert only on oracle-pre-verified instances.
    """
    if alpha % lat.N == 0 and beta % lat.N == 0:
        raise ZeroShift("(alpha, beta) must be nonzero mod N")
    conditions_ok = (alpha * lat.b) % lat.N == 0 and (beta * lat.a) % lat.N == 0
    if not conditions_ok:
        raise ConditionViolated(
            f"need alpha*b = 0 and beta*a = 0 mod N; got alpha*b={alpha * lat.b}, "
            f"beta*a={beta * lat.a} mod {lat.N}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        h = w.g + np.exp(2j * np.pi * c_phase) * gabor_atom(w, alpha, beta)
    if not np.isfinite(h).all():
        raise OutOfFloatRange("the perturbed window g + c M_beta T_alpha g leaves the float range")
    rep = gabor_frame_report(ZNWindow(h), lat)
    lam_max = rep.bessel_bound
    lam_min = rep.lower_bound
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


def density_sweep(w: ZNWindow) -> list[dict]:
    """Classification over every divisor lattice (a, b) of Z_N.

    One row per pair, in lexicographic divisor order; rows carry the fields
    of the sweep CSV: N, a, b, count, A, B, is_frame, is_riesz, ab_over_N.
    """
    if w.N > MAX_SWEEP_N:
        raise ValueError(f"N={w.N} exceeds the supported sweep size {MAX_SWEEP_N}")
    rows = []
    for a, b in itertools.product(divisors(w.N), repeat=2):
        rows.append(gabor_stats(w, ZNLattice(w.N, a, b)))
    return rows
