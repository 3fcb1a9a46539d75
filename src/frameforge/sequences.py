"""Vector sequences: analysis and frame operators, Bessel/frame/Riesz
classification, tensor products of sequences, and minimal sums.

A :class:`VectorSequence` is a finite indexed family {f_n} in C^m.  Its
analysis operator maps f to the coefficient vector (<f, f_n>)_n with respect
to the standard basis; the synthesis (preframe) operator is its adjoint and
the frame operator is S = F* F.

A :class:`MinimalSumSequence` holds d groups of r component sequences and
realizes the family

    f_{n_1,...,n_d} = sum_{k=1}^{r} f_{1,k,n_1} (x) ... (x) f_{d,k,n_d},

where for each group j the r component sequences are linearly independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DependentGroup, DimensionMismatch, EmptySequence, OutOfFloatRange, WrongRank

# Frame decision threshold: lower bound counts as positive when A > FRAME_TOL * B.
FRAME_TOL = 1e-10


@dataclass(frozen=True)
class VectorSequence:
    """Finite family of vectors in one space, stored as rows of a matrix."""

    vectors: np.ndarray  # shape (count, space_dim), complex

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[0] == 0 or v.shape[1] == 0:
            raise EmptySequence("a sequence needs at least one vector in a positive-dimensional space")
        object.__setattr__(self, "vectors", v)

    @property
    def space_dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def __getitem__(self, n) -> np.ndarray:
        return self.vectors[n]


@dataclass(frozen=True)
class FrameReport:
    lower_bound: float  # optimal A = lambda_min of the frame operator
    bessel_bound: float  # optimal B = lambda_max of the frame operator
    is_frame: bool
    is_riesz: bool

    def to_dict(self) -> dict:
        return {
            "A": self.lower_bound,
            "B": self.bessel_bound,
            "is_frame": self.is_frame,
            "is_riesz": self.is_riesz,
        }


def analysis_operator(seq: VectorSequence) -> np.ndarray:
    """Matrix with row n = conj(f_n), so that (A f)[n] = <f, f_n>."""
    return seq.vectors.conj()


def frame_operator(seq: VectorSequence) -> np.ndarray:
    """S = F* F, Hermitian positive semidefinite; with the vectors as rows V,
    F = conj(V) and F* is the view V^T.  A non-finite S raises ``OutOfFloatRange``."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = seq.vectors.T @ analysis_operator(seq)
    if not np.isfinite(s).all():
        raise OutOfFloatRange("the frame operator of a sequence leaves the float range")
    return s


def classify(seq: VectorSequence) -> FrameReport:
    """Optimal frame bounds and Bessel/frame/Riesz classification.

    B is the squared operator norm of the analysis operator and A is the
    smallest eigenvalue of the frame operator.  The sequence is a frame when
    A > FRAME_TOL * B and a Riesz basis when additionally the analysis operator is
    square (count = space_dim), hence invertible.
    The spectrum is taken on 2**-e f_n, e = ``linalg.max_exponent``, so the
    vectors' own scale cannot over- or underflow it; A and B are scaled back.
    """
    e = linalg.max_exponent(seq.vectors)
    eig = np.linalg.eigvalsh(frame_operator(VectorSequence(linalg.times_power_of_two(seq.vectors, -e))))
    rep = _report_from_bounds(float(eig.min()), float(eig.max()), len(seq), seq.space_dim)
    return _scaled_back(rep, 1, e, "of a sequence")


def _report_from_bounds(lo: float, hi: float, count: int, space_dim: int) -> FrameReport:
    """Frame bounds and classification of a frame operator with least
    eigenvalue ``lo`` and greatest ``hi``, for a family of ``count`` vectors:
    a frame is a Riesz basis when ``count`` equals ``space_dim``."""
    a_bound = max(lo, 0.0)
    is_frame = a_bound > FRAME_TOL * hi
    return FrameReport(a_bound, hi, is_frame, is_frame and count == space_dim)


def _scaled_back(rep: FrameReport, factor: int, e: int, what: str) -> FrameReport:
    """The report on S from ``rep``, a report on 2**-2e S / factor.  A B that
    overflows, or a nonzero B that underflows to 0, raises ``OutOfFloatRange``."""
    try:
        upper = math.ldexp(factor * rep.bessel_bound, 2 * e)
    except OverflowError:
        upper = math.inf
    if math.isinf(upper) or (upper == 0.0 and rep.bessel_bound != 0.0):
        raise OutOfFloatRange(f"the frame bounds {what} with largest part ~2**{e} leave the float range")
    return FrameReport(math.ldexp(factor * rep.lower_bound, 2 * e), upper, rep.is_frame, rep.is_riesz)


def tensor_sequences(seqs: list[VectorSequence]) -> VectorSequence:
    """Multi-indexed family {f_{1,n_1} (x) ... (x) f_{d,n_d}}.

    Vectors are ordered lexicographically in the multi-index, matching the
    package flattening convention.
    """
    if not seqs:
        raise EmptySequence("need at least one factor sequence")
    return VectorSequence(linalg.kron_all([s.vectors for s in seqs]))


def concatenate(seqs: list[VectorSequence]) -> VectorSequence:
    """Concatenation in group order; the frame operators add up."""
    if not seqs:
        raise EmptySequence("need at least one sequence")
    dim = seqs[0].space_dim
    for s in seqs:
        if s.space_dim != dim:
            raise DimensionMismatch("all sequences must share the ambient dimension")
    return VectorSequence(np.vstack([s.vectors for s in seqs]))


@dataclass(frozen=True)
class MinimalSumSequence:
    """d groups x r terms of component sequences; groups validated independent."""

    groups: tuple[tuple[VectorSequence, ...], ...]  # groups[j][k]

    @property
    def d(self) -> int:
        return len(self.groups)

    @property
    def r(self) -> int:
        return len(self.groups[0])

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(len(g[0]) for g in self.groups)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(g[0].space_dim for g in self.groups)


def build_minimal_sum(groups) -> MinimalSumSequence:
    """Validate group shapes and per-group linear independence.

    Group j must hold r sequences of equal length N_j in dimension m_j, and
    the r sequences, flattened to vectors of length m_j * N_j, must have
    rank r by ``linalg.matrix_rank``.
    """
    groups = tuple(tuple(g) for g in groups)
    if not groups or any(not g for g in groups):
        raise EmptySequence("need at least one nonempty group")
    r = len(groups[0])
    for j, group in enumerate(groups):
        if len(group) != r:
            raise DimensionMismatch(f"group {j} has {len(group)} sequences, expected {r}")
        n, m = len(group[0]), group[0].space_dim
        for seq in group:
            if len(seq) != n or seq.space_dim != m:
                raise DimensionMismatch(f"sequences of group {j} must share length and dimension")
        flat = np.array([seq.vectors.ravel() for seq in group])
        if linalg.matrix_rank(flat) < r:
            raise DependentGroup(j)
    return MinimalSumSequence(groups)


def materialize(ms: MinimalSumSequence) -> VectorSequence:
    """Expand the minimal sum into the full family on the product space.

    Length is prod(N_j), dimension prod(m_j), lexicographic order over the
    multi-index (n_1, ..., n_d).
    """
    out = np.zeros((int(np.prod(ms.lengths)), int(np.prod(ms.dims))), dtype=complex)
    for k in range(ms.r):
        out += linalg.kron_all([g[k].vectors for g in ms.groups])
    return VectorSequence(out)


def verify_main_theorem(ms: MinimalSumSequence) -> dict:
    """Check the frame implication for a minimal sum of tensor products.

    Classifies the materialized family.  If it is a frame, every group's
    concatenation over k must be a frame; per-group spectral extremes are
    reported.  For r = 1 the product bounds must equal the products of the
    component bounds (both directions of the rank-one equivalence).
    """
    full = classify(materialize(ms))
    report: dict = {"full": full.to_dict(), "r": ms.r, "d": ms.d}
    if not full.is_frame:
        report["claim"] = "no claim"
        return report
    report["claim"] = "every concatenated group must be a frame"
    per_group = [classify(concatenate(list(g))) for g in ms.groups]
    report["per_group"] = [rep.to_dict() for rep in per_group]
    report["all_groups_frames"] = all(rep.is_frame for rep in per_group)
    if ms.r == 1:
        # a one-sequence group concatenates to itself: per_group holds the component reports
        prod_a = float(np.prod([c.lower_bound for c in per_group]))
        prod_b = float(np.prod([c.bessel_bound for c in per_group]))
        report["rank_one_check"] = {
            "component_product_A": prod_a,
            "component_product_B": prod_b,
            "bounds_multiply": bool(
                abs(prod_a - full.lower_bound) <= 1e-9 * max(1.0, full.bessel_bound)
                and abs(prod_b - full.bessel_bound) <= 1e-9 * max(1.0, full.bessel_bound)
            ),
            "all_components_frames": report["all_groups_frames"],
        }
    return report


def two_term_disjunction_check(ms: MinimalSumSequence) -> dict:
    """For r = 2 frame sums, verify the three-branch disjunction.

    Either the first pure tensor family is a frame (branch 1), or the second
    is (branch 2), or some factor index i can be dropped from both groups so
    that every remaining component sequence is a frame (branch 3).
    """
    if ms.r != 2:
        raise WrongRank(f"disjunction check needs r = 2, got r = {ms.r}")
    full = classify(materialize(ms))
    report: dict = {"full": full.to_dict()}
    if not full.is_frame:
        report["branch"] = None
        report["claim"] = "no claim"
        return report
    for k in (0, 1):
        if classify(tensor_sequences([g[k] for g in ms.groups])).is_frame:
            report["branch"] = k + 1
            return report
    # index i can be dropped iff every other group has only frame components
    bad = [j for j, g in enumerate(ms.groups) if not all(classify(s).is_frame for s in g)]
    if len(bad) <= 1:
        report["branch"] = 3
        report["dropped_index"] = bad[0] if bad else 0
    else:
        report["branch"] = 0  # disjunction failed; callers treat this as an error
    return report
