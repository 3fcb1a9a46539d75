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
The type checks this when it is built; ``build_minimal_sum`` is the same
call, kept by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ConditionViolated, DependentGroup, DimensionMismatch, OutOfFloatRange

# Frame decision threshold: lower bound counts as positive when A > FRAME_TOL * B.
FRAME_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class VectorSequence:
    """Finite family of vectors in one space, the rows of ``vectors``: a read-only copy, so checks made on it hold."""

    vectors: np.ndarray  # shape (count, space_dim), complex

    def __post_init__(self):
        v = np.array(self.vectors, dtype=complex)
        if v.ndim != 2 or v.size == 0:
            raise DimensionMismatch("a sequence needs at least one vector in a positive-dimensional space, "
                                    f"as the rows of a 2-d array; got an array of shape {v.shape}")
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)

    @property
    def space_dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return self.vectors.shape[0]


def scaled_bounds(lo: float, hi: float, count: int, space_dim: int, factor: int, e: int, what: str = "", *where):
    """(A, B, is_frame, is_riesz) of S, for ``count`` vectors in C^``space_dim``, from the least and greatest
    eigenvalues ``lo``, ``hi`` of 2**-2e S / factor: a frame when A > FRAME_TOL * B, a Riesz basis when also
    count = space_dim.  A B that overflows, or a nonzero B that underflows to 0, raises ``OutOfFloatRange``;
    only then is ``what.format(*where)``, the name of the bounds in its message, formatted."""
    a_bound = max(lo, 0.0)
    is_frame = a_bound > FRAME_TOL * hi
    try:
        upper = math.ldexp(factor * hi, 2 * e)
    except OverflowError:
        upper = math.inf
    if math.isinf(upper) or (upper == 0.0 and hi != 0.0):
        raise OutOfFloatRange(f"the frame bounds {what.format(*where)} with largest part ~2**{e} leave the float range")
    return math.ldexp(factor * a_bound, 2 * e), upper, is_frame, is_frame and count == space_dim


@dataclass(frozen=True)
class FrameReport:
    lower_bound: float  # optimal A = lambda_min of the frame operator
    bessel_bound: float  # optimal B = lambda_max of the frame operator
    is_frame: bool
    is_riesz: bool

    def to_dict(self) -> dict:
        return {"A": self.lower_bound, "B": self.bessel_bound, "is_frame": self.is_frame, "is_riesz": self.is_riesz}


def analysis_operator(seq: VectorSequence) -> np.ndarray:
    """Matrix with row n = conj(f_n), so that (A f)[n] = <f, f_n>."""
    return seq.vectors.conj()


def frame_operator(seq: VectorSequence) -> np.ndarray:
    """S = F* F, Hermitian positive semidefinite; with the vectors as rows V, F = conj(V) and F* is the
    view V^T.  S is unscaled: a NaN or inf raises ``NonFiniteData``, an overflow ``OutOfFloatRange``."""
    v = seq.vectors
    return linalg.within_float_range(lambda: v.T @ analysis_operator(seq), "the frame operator of a sequence", v)


def classify(seq: VectorSequence) -> FrameReport:
    """Optimal frame bounds and Bessel/frame/Riesz classification.

    B is the squared operator norm of the analysis operator and A is the
    smallest eigenvalue of the frame operator.  The sequence is a frame when
    A > FRAME_TOL * B and a Riesz basis when additionally the analysis operator is
    square (count = space_dim), hence invertible.  ``classify_all`` of one sequence.
    """
    return classify_all([seq])[0]


def classify_all(seqs: list[VectorSequence]) -> list[FrameReport]:
    """``classify`` of each sequence, in order, solved together.

    Each spectrum is taken on 2**-e f_n, e = ``linalg.max_exponent`` of the sequence's own vectors,
    so no entry of S exceeds 2 count; A and B are scaled back.  The sequences of one (count, dim)
    shape share one batched S = V^T conj(V), and ``linalg.hermitian_extremes`` solves every S.  NaN
    or inf raise ``NonFiniteData`` before any solve, and bounds beyond the float range raise
    ``OutOfFloatRange`` naming the first failing sequence in input order."""
    by_shape: dict[tuple, list[int]] = {}
    for i, seq in enumerate(seqs):
        by_shape.setdefault(seq.vectors.shape, []).append(i)
    exps, ops = [0] * len(seqs), [None] * len(seqs)
    for idx in by_shape.values():
        v = np.array([seqs[i].vectors for i in idx])
        e = linalg.max_exponents(v)
        v = linalg.times_power_of_two(v, -e[:, None, None])
        for i, ei, op in zip(idx, e.tolist(), (v.swapaxes(-1, -2) @ v.conj())[:, None]):
            exps[i], ops[i] = ei, op
    return [
        FrameReport(*scaled_bounds(lo, hi, len(seq), seq.space_dim, 1, e, "of sequence {}", i))
        for i, (seq, e, (lo, hi)) in enumerate(zip(seqs, exps, linalg.hermitian_extremes(ops)))
    ]


def tensor_sequences(seqs: list[VectorSequence]) -> VectorSequence:
    """Multi-indexed family {f_{1,n_1} (x) ... (x) f_{d,n_d}}.

    Vectors are ordered lexicographically in the multi-index, matching the
    package flattening convention.  An overflow raises ``OutOfFloatRange``."""
    if not seqs:
        raise DimensionMismatch("need at least one factor sequence")
    vs = [s.vectors for s in seqs]
    product = linalg.within_float_range(lambda: linalg.kron_sum([vs]), "a tensor product of sequences", *vs)
    return VectorSequence(product)


def concatenate(seqs: list[VectorSequence]) -> VectorSequence:
    """Concatenation in group order; the frame operators add up."""
    if not seqs:
        raise DimensionMismatch("need at least one sequence")
    if len({s.space_dim for s in seqs}) > 1:
        raise DimensionMismatch("all sequences must share the ambient dimension")
    return VectorSequence(np.vstack([s.vectors for s in seqs]))


@dataclass(frozen=True, eq=False)
class MinimalSumSequence:
    """d groups x r terms of component sequences, ``groups[j][k]``, stored as tuples.

    Building one checks that the sum is minimal: at least one group and no
    empty one, r sequences of one shape (N_j vectors in C^m_j) in every group
    j, and rank r of the r sequences flattened to vectors of length m_j * N_j,
    by ``linalg.matrix_rank``.  Shapes that do not fit raise
    ``DimensionMismatch``, the first dependent group ``DependentGroup(j)``.
    """

    groups: tuple[tuple[VectorSequence, ...], ...]  # groups[j][k]

    def __post_init__(self):
        groups = tuple(tuple(g) for g in self.groups)
        if not groups or any(not g for g in groups):
            raise DimensionMismatch("need at least one nonempty group")
        r = len(groups[0])
        for j, group in enumerate(groups):
            if len(group) != r:
                raise DimensionMismatch(f"group {j} has {len(group)} sequences, expected {r}")
            if len({seq.vectors.shape for seq in group}) > 1:
                raise DimensionMismatch(f"sequences of group {j} must share length and dimension")
            if linalg.matrix_rank(np.array([seq.vectors.ravel() for seq in group])) < r:
                raise DependentGroup(j)
        object.__setattr__(self, "groups", groups)

    @property
    def d(self) -> int:
        return len(self.groups)

    @property
    def r(self) -> int:
        return len(self.groups[0])


def build_minimal_sum(groups) -> MinimalSumSequence:
    """``MinimalSumSequence(groups)``, which checks the groups; kept by name for its callers."""
    return MinimalSumSequence(groups)


def materialize(ms: MinimalSumSequence) -> VectorSequence:
    """Expand the minimal sum into the full family on the product space.

    Length is prod(N_j), dimension prod(m_j), lexicographic order over the
    multi-index (n_1, ..., n_d).  The checked components are finite; an overflow raises ``OutOfFloatRange``."""
    vs = [[s.vectors for s in g] for g in ms.groups]
    return VectorSequence(linalg.within_float_range(lambda: linalg.kron_sum(zip(*vs)), "a minimal sum"))


def verify_main_theorem(ms: MinimalSumSequence) -> dict:
    """Check the frame implication for a minimal sum of tensor products.

    Classifies the materialized family.  If it is a frame, every group's
    concatenation over k must be a frame; one ``classify_all`` reports each
    concatenation, ``per_group[j]``, and component, ``per_component[j][k]``.
    For r = 1 the product bounds must equal the products of the component
    bounds (both directions of the rank-one equivalence).
    """
    full = classify(materialize(ms))
    report: dict = {"full": full.to_dict(), "r": ms.r, "d": ms.d}
    if not full.is_frame:
        report["claim"] = "no claim"
        return report
    report["claim"] = "every concatenated group must be a frame"
    groups = [concatenate(list(g)) for g in ms.groups] if ms.r > 1 else []  # at r = 1 a group is its component
    reps = classify_all(groups + [s for g in ms.groups for s in g])
    per_group, comps = reps[:ms.d], iter(reps[len(groups):])
    report["per_group"] = [rep.to_dict() for rep in per_group]
    report["per_component"] = [[next(comps).to_dict() for _ in g] for g in ms.groups]
    report["all_groups_frames"] = all(rep.is_frame for rep in per_group)
    if ms.r == 1:
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
    """For r = 2 frame sums, ``verify_main_theorem``'s report and the branch
    of the three-branch disjunction that holds.

    Either the first pure tensor family is a frame (branch 1), or the second
    is (branch 2), or some factor index i (``dropped_index``) can be dropped from
    both groups so that every remaining ``per_component`` is a frame (branch 3).
    """
    if ms.r != 2:
        raise ConditionViolated(f"disjunction check needs r = 2, got r = {ms.r}")
    report = verify_main_theorem(ms)
    if not report["full"]["is_frame"]:
        report["branch"] = None
        return report
    for k, pure in enumerate(classify_all([tensor_sequences(list(term)) for term in zip(*ms.groups)])):
        if pure.is_frame:
            report["branch"] = k + 1
            return report
    # index i can be dropped iff every other group has only frame components
    bad = [j for j, comps in enumerate(report["per_component"]) if not all(c["is_frame"] for c in comps)]
    if len(bad) <= 1:
        report["branch"] = 3
        report["dropped_index"] = bad[0] if bad else 0
    else:
        report["branch"] = 0  # disjunction failed; callers treat this as an error
    return report
