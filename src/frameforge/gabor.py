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
from dataclasses import dataclass

import numpy as np

from . import sequences
from .errors import (
    BadRefinement,
    ConditionViolated,
    DependentGroup,
    DependentModulates,
    DimensionMismatch,
    NonDivisorLattice,
    NonFiniteData,
    ZeroShift,
)
from .linalg import DEFAULT_RTOL, as_cvector
from .sequences import FRAME_TOL, FrameReport, VectorSequence, classify, report_from_spectrum

WINDOW_GENERATORS = ("gaussian", "twoexp", "sech", "rational")

# Largest N a density sweep accepts, in the library and on the command line.
MAX_SWEEP_N = 256


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


def sample_window(generator: str, N: int, scale: float | None = None) -> ZNWindow:
    """Sample a window from the classical window class on Z_N.

    The continuous profile u is evaluated at (t - N/2) / s for t = 0..N-1
    with s = N/8 by default, then cyclically centered at 0 and normalized to
    unit norm.
    """
    s = N / 8 if scale is None else scale
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
    """
    t = np.arange(w.N)
    a = np.asarray(a_shift % w.N)[..., None]
    b = np.asarray(b_mod % w.N)[..., None]
    return np.exp(2j * np.pi * b * t / w.N) * w.g[(t - a) % w.N]


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


def gabor_frame_report(w: ZNWindow, lat: ZNLattice, tol: float = FRAME_TOL) -> FrameReport:
    """Same result as ``classify(gabor_system(w, lat), tol)`` without the atoms.

    Walnut's representation of the frame operator on aZ_N x bZ_N:
    S[j, l] = (N/b) sum_m g[j - m a] conj(g[l - m a]) when j = l mod N/b,
    and 0 otherwise.  With j = r + (N/b) s, S splits into N/b Hermitian
    b x b blocks S_r = (N/b) G_r G_r^*, where G_r[s, m] = g[r + (N/b) s - m a],
    and the spectrum of S is the union of the blocks' spectra.
    """
    _check_length(w, lat)
    N, a, b = lat.N, lat.a, lat.b
    q = N // b
    idx = np.arange(q)[:, None, None] + q * np.arange(b)[:, None] - a * np.arange(N // a)
    g = w.g[idx % N]
    blocks = q * (g @ g.conj().transpose(0, 2, 1))
    return report_from_spectrum(np.linalg.eigvalsh(blocks), lat.count, N, tol)


def gabor_stats(w: ZNWindow, lat: ZNLattice, tol: float = FRAME_TOL) -> dict:
    """Classification plus the discrete density bookkeeping for one lattice."""
    rep = gabor_frame_report(w, lat, tol)
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


def oversample_check(w: ZNWindow, lat: ZNLattice, u: int, v: int, tol: float = 1e-9) -> dict:
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
        "lower_ok": fine.lower_bound >= uv * coarse.lower_bound - tol,
        "upper_ok": fine.bessel_bound <= uv * coarse.bessel_bound + tol,
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


def build_rank_r_window(spec: RankRWindowSpec, tol: float = DEFAULT_RTOL) -> ZNWindow:
    """Materialize the rank-r window on the product group as the minimal sum
    whose group j holds the r modulated translates of factor j as one-vector
    sequences; building the sum checks their independence per factor."""
    groups = [[VectorSequence(w.g[None]) for w in spec.modulated_translates(j)] for j in range(spec.d)]
    try:
        ms = sequences.build_minimal_sum(groups, tol)
    except DependentGroup as exc:
        raise DependentModulates(f"modulated translates of factor {exc.group_index} are dependent") from exc
    return ZNWindow(sequences.materialize(ms).vectors[0], "rank_r")


def rank_r_minimal_sum(spec: RankRWindowSpec, lattices: list[ZNLattice]) -> sequences.MinimalSumSequence:
    """Minimal-sum view of the product-group Gabor system of a rank-r window.

    Group (j, k) is the 1-d Gabor system of the k-th modulated translate of
    g_j over lattice j; materializing reproduces the d-dimensional system.
    """
    if len(lattices) != spec.d:
        raise DimensionMismatch("need one lattice per factor")
    groups = [[gabor_system(w, lat) for w in spec.modulated_translates(j)] for j, lat in enumerate(lattices)]
    return sequences.build_minimal_sum(groups)


def verify_rank_r_frame_implication(
    spec: RankRWindowSpec, lattices: list[ZNLattice], tol: float = FRAME_TOL
) -> dict:
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
    ms = rank_r_minimal_sum(spec, lattices)
    full = classify(sequences.materialize(ms), tol)
    report: dict = {"full": full.to_dict(), "d": spec.d, "r": spec.r}
    if not full.is_frame:
        report["claim"] = "no claim"
        return report
    per_factor = []
    ok = True
    for j, lat in enumerate(lattices):
        rep = gabor_frame_report(spec.windows[j], lat, tol)
        density_ok = lat.a * lat.b <= lat.N
        per_factor.append({**rep.to_dict(), "ab_over_N": lat.density_ratio, "density_ok": density_ok})
        ok = ok and rep.is_frame and density_ok
    report["per_factor"] = per_factor
    report["all_factors_frames"] = ok
    return report


def perturb_window(
    w: ZNWindow,
    lat: ZNLattice,
    alpha: int,
    beta: int,
    c_phase: float = 0.0,
    tol: float = FRAME_TOL,
) -> dict:
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
    c = np.exp(2j * np.pi * c_phase)
    h = ZNWindow(w.g + c * gabor_atom(w, alpha, beta))
    rep = gabor_frame_report(h, lat, tol)
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


def density_sweep(w: ZNWindow, tol: float = FRAME_TOL) -> list[dict]:
    """Classification over every divisor lattice (a, b) of Z_N.

    One row per pair, in lexicographic divisor order; rows carry the fields
    of the sweep CSV: N, a, b, count, A, B, is_frame, is_riesz, ab_over_N.
    """
    if w.N > MAX_SWEEP_N:
        raise ValueError(f"N={w.N} exceeds the supported sweep size {MAX_SWEEP_N}")
    rows = []
    for a, b in itertools.product(divisors(w.N), repeat=2):
        rows.append(gabor_stats(w, ZNLattice(w.N, a, b), tol))
    return rows
