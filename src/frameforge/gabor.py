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
from dataclasses import dataclass, field
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
from .sequences import FrameReport, VectorSequence, _report_from_bounds, _scaled_back, classify

WINDOW_GENERATORS = ("gaussian", "twoexp", "sech", "rational")

# A sampled window covers WINDOW_SPAN units of its continuous profile; the
# refined-bound inequalities of ``oversample_check`` have absolute slack OVERSAMPLE_TOL.
WINDOW_SPAN = 8
OVERSAMPLE_TOL = 1e-9

# Largest N a density sweep accepts, in the library and on the command line.
MAX_SWEEP_N = 8192


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
    """Window vector on Z_N with an optional generator label.

    ``g`` is a read-only copy of the given entries, so the values cached
    from it below cannot go stale.
    """

    g: np.ndarray
    generator: str | None = None
    _zak: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
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

    @cached_property
    def exponent(self) -> int:
        """``linalg.max_exponent(g)``, computed once per window."""
        return linalg.max_exponent(self.g)

    @cached_property
    def scaled(self) -> np.ndarray:
        """2**-exponent * g: its largest real or imaginary part lies in [0.5, 1), or it is zero."""
        return linalg.times_power_of_two(self.g, -self.exponent)

    def zak(self, L: int) -> np.ndarray:
        """Read-only Z_L[k, x + L] of ``scaled``, k in Z_{N/L}, x in [-L, L), once per L; see gabor_frame_report."""
        if L not in self._zak:
            ext = np.concatenate((self.scaled[self.N - L :], self.scaled))  # ext[x + L t + L] = scaled[x + L t]
            z = np.ndarray((self.N // L, 2 * L), complex, ext, 0, (L * ext.itemsize, ext.itemsize))  # [t, x + L]
            z = np.fft.ifft(z, axis=0, norm="forward") if L < self.N else z  # d = 1: the identity
            z.flags.writeable = False
            self._zak[L] = z
        return self._zak[L]


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
    ``gabor_frame_reports`` solves a batch of lattices, each adjoint at
    most once, with one ``eigvalsh`` per block size p.

    The eigen cost per representative drops from b^3 to b p^2.  The blocks
    are built from ``w.scaled`` = 2**-e w, e = ``w.exponent``, so the
    window's own scale cannot over- or underflow them.  The frame decision
    is made on their spectrum, that of 2**-2e S / q, and A and B are scaled
    back by q 2**2e.  Bounds beyond the float range raise ``OutOfFloatRange``.
    """
    return gabor_frame_reports(w, [lat])[0]


def _walnut_blocks(w: ZNWindow, a: int, b: int) -> np.ndarray:
    """The (c d, p, p) stack Phi Phi^* whose spectra make up that of
    2**-2e S / q on (a, b), ab <= N, read off ``w.zak(L)``."""
    q = w.N // b
    c = math.gcd(a, q)
    p, Q, L = a // c, q // c, a * q // c
    z = w.zak(L)
    # Phi[r, k, i, Q-1-mu] = Z_L(r + q i - a mu, k): x + L starts at a for r = i = 0, mu = Q-1
    phi = np.ndarray((c, w.N // L, p, Q), complex, z, a * z.itemsize, [s * z.itemsize for s in (1, 2 * L, q, a)])
    return (phi @ phi.conj().swapaxes(-1, -2)).reshape(-1, p, p)


def gabor_frame_reports(w: ZNWindow, lattices: list[ZNLattice]) -> list[FrameReport]:
    """``gabor_frame_report`` of each lattice, in order, solved together.

    Each lattice is solved on itself when ab <= N, else on its adjoint
    (N/b, N/a); each solved lattice is built once, and the stacks of one
    block size go to one ``eigvalsh``.  An error names the first failing
    lattice in input order.
    """
    for lat in lattices:
        _check_length(w, lat)
    N = w.N
    solved = [(lat.a, lat.b) if lat.a * lat.b <= N else (N // lat.b, N // lat.a) for lat in lattices]
    by_size: dict[int, list] = {}
    for key in dict.fromkeys(solved):
        blocks = _walnut_blocks(w, *key)
        by_size.setdefault(blocks.shape[-1], []).append((key, blocks))
    bounds = {}
    for group in by_size.values():
        keys, stacks = zip(*group)
        eig = np.linalg.eigvalsh(np.concatenate(stacks))
        starts = list(itertools.accumulate(map(len, stacks[:-1]), initial=0))
        lo = np.minimum.reduceat(eig.min(axis=1), starts).tolist()
        hi = np.maximum.reduceat(eig.max(axis=1), starts).tolist()
        bounds.update(zip(keys, zip(lo, hi)))
    reports = []
    for lat, key in zip(lattices, solved):
        lo, hi = bounds[key]
        rep = _report_from_bounds(lo if lat.a * lat.b <= N else 0.0, hi, lat.count, N)
        reports.append(_scaled_back(rep, N // lat.b, w.exponent, f"on (a, b)=({lat.a}, {lat.b}) of a window"))
    return reports


def _density_stats(lat: ZNLattice, rep: FrameReport) -> dict:
    """``rep`` plus the discrete density bookkeeping for ``lat``."""
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
    coarse, fine = gabor_frame_reports(w, [lat, ZNLattice(lat.N, lat.a // u, lat.b // v)])
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
    c = exp(2*pi*i*c_phase).  ``c_phase`` is reduced mod 1 first, exactly,
    so a large one keeps its phase; NaN and inf raise ``NonFiniteData``.
    The expected outcome (non-frame) is reported, not asserted; callers
    assert only on oracle-pre-verified instances.
    """
    if not math.isfinite(c_phase):
        raise NonFiniteData(f"c_phase must be finite, got {c_phase}")
    if alpha % lat.N == 0 and beta % lat.N == 0:
        raise ZeroShift("(alpha, beta) must be nonzero mod N")
    conditions_ok = (alpha * lat.b) % lat.N == 0 and (beta * lat.a) % lat.N == 0
    if not conditions_ok:
        raise ConditionViolated(
            f"need alpha*b = 0 and beta*a = 0 mod N; got alpha*b={alpha * lat.b}, "
            f"beta*a={beta * lat.a} mod {lat.N}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        h = w.g + np.exp(2j * np.pi * (c_phase % 1)) * gabor_atom(w, alpha, beta)
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
    lattices = [ZNLattice(w.N, a, b) for a, b in itertools.product(divisors(w.N), repeat=2)]
    return [_density_stats(lat, rep) for lat, rep in zip(lattices, gabor_frame_reports(w, lattices))]
