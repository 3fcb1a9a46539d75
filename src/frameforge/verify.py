"""Seeded verification suites over random instances.

Every suite draws from its own deterministic stream, keyed by the global seed
and the suite's position in ``SUITES``, so two runs with the same seed give
identical reports.  New suites go at the end, or every later stream shifts.
"""

from __future__ import annotations

import math

import numpy as np

from . import gabor, schmidt, sequences
from .errors import ConditionViolated, DependentGroup, DimensionMismatch, DrawFailed
from .linalg import inner, op_norm, tensor_op
from .schmidt import BipartiteShape, FSROperator
from .sequences import VectorSequence, build_minimal_sum, classify_all

# Largest prod(lengths) * prod(dims), the entries of its materialization (64 MB), a frame draw accepts.
MAX_MINIMAL_SUM_ENTRIES = 1 << 22


def suite_rng(seed: int, key: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


def _cnormal(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_fsr_operator(rng, shape: BipartiteShape, r: int) -> tuple[FSROperator, np.ndarray, FSROperator]:
    """``(fsr, f, canon)``: random FSR terms of oracle Schmidt rank exactly r, ``f = fsr.materialize()`` and the
    ``schmidt.reshuffle_rank(f, shape)`` decomposition whose rank accepted the draw; raises ``DrawFailed``
    before drawing unless 0 <= r <= ``shape.max_rank``."""
    if not 0 <= r <= shape.max_rank:
        raise DrawFailed(f"no operator of {shape} has Schmidt rank {r}, outside 0..min(k1*h1, k2*h2)")
    while True:
        a, b = np.empty((r, shape.k1, shape.h1), dtype=complex), np.empty((r, shape.k2, shape.h2), dtype=complex)
        for k in range(r):  # A_k, then B_k: each term's draws stay together in the stream
            a[k], b[k] = _cnormal(rng, shape.k1, shape.h1), _cnormal(rng, shape.k2, shape.h2)
        fsr = FSROperator(shape, a, b)
        canon = schmidt.reshuffle_rank(f := fsr.materialize(), shape)
        if canon.rank_bound == r:
            return fsr, f, canon


def random_vector_sequence(rng, dim: int, count: int) -> VectorSequence:
    return VectorSequence(_cnormal(rng, count, dim))


def _frame_sum(groups, check):
    """The minimal sum of ``groups`` and ``check``'s report on it, or None
    when a group is dependent or the report says the sum is not a frame."""
    try:
        ms = build_minimal_sum(groups)
    except DependentGroup:
        return None
    report = check(ms)
    return (ms, report) if report["full"]["is_frame"] else None


def random_frame_minimal_sum(rng, dims, lengths, r: int):
    """Random minimal sum whose materialization is a frame (retry until so),
    with its ``verify_main_theorem`` report: ``(ms, report)``.

    Raises ``DimensionMismatch`` unless there is one length per dim and all
    are >= 1, ``ConditionViolated`` when r < 1, ``ValueError`` above
    ``MAX_MINIMAL_SUM_ENTRIES``, and ``DrawFailed`` before drawing when no
    draw can succeed: when prod(lengths) < prod(dims), or when r > m * n for
    some factor, since r sequences of n vectors in C^m are then always dependent.
    """
    if len(dims) != len(lengths):
        raise DimensionMismatch(f"need one length per dim, got dims {list(dims)}, lengths {list(lengths)}")
    if any(n < 1 for n in (*dims, *lengths)):
        raise DimensionMismatch(f"dims and lengths must be >= 1, got dims {list(dims)}, lengths {list(lengths)}")
    if r < 1:
        raise ConditionViolated(f"a minimal sum needs rank >= 1, got {r}")
    if (entries := math.prod(lengths) * math.prod(dims)) > MAX_MINIMAL_SUM_ENTRIES:
        raise ValueError(f"dims {list(dims)} and lengths {list(lengths)} would allocate {entries} entries, "
                         f"more than MAX_MINIMAL_SUM_ENTRIES = {MAX_MINIMAL_SUM_ENTRIES}")
    case = (
        f"dims {list(dims)}, lengths {list(lengths)} and rank {r}; a frame needs prod(lengths) >= "
        "prod(dims), and independent groups need rank <= length * dim in every factor"
    )
    if np.prod(lengths) < np.prod(dims) or any(r > m * n for m, n in zip(dims, lengths)):
        raise DrawFailed(f"no frame minimal sum exists with {case}")
    for _ in range(50):
        groups = [
            [random_vector_sequence(rng, m, n) for _ in range(r)]
            for m, n in zip(dims, lengths)
        ]
        if drawn := _frame_sum(groups, sequences.verify_main_theorem):
            return drawn
    raise DrawFailed(f"no frame minimal sum found in 50 draws with {case}")


def branch3_minimal_sum(rng):
    """r=2 frame instance on C^3 (x) C^2, 4 vectors per factor, forcing the
    cross-component branch, with its ``two_term_disjunction_check`` report.

    Both second-factor component sequences live on a single line of C^2, so
    neither pure tensor family is a frame, yet the sum is; dropping the
    second factor leaves two first-factor frames.
    """
    while True:
        first = [random_vector_sequence(rng, 3, 4) for _ in range(2)]
        second = [VectorSequence(np.outer(_cnormal(rng, 4), e)) for e in np.eye(2, dtype=complex)]
        if drawn := _frame_sum([first, second], sequences.two_term_disjunction_check):
            return drawn


def branch1_minimal_sum(rng):
    """r=2 frame instance on C^2 (x) C^2, 3 vectors per factor, where the
    first pure tensor family is a frame and the second term is scaled by
    1e-2, with its ``two_term_disjunction_check`` report."""
    while True:
        groups = [
            [random_vector_sequence(rng, 2, 3), VectorSequence(1e-2 * _cnormal(rng, 3, 2))]
            for _ in range(2)
        ]
        drawn = _frame_sum(groups, sequences.two_term_disjunction_check)
        if drawn and drawn[1]["branch"] == 1:
            return drawn


def suite_prop22_identities(rng, trials: int) -> dict:
    """Contraction norm identities, the P norm bound, and D continuity."""
    worst_norm = 0.0
    bound_ok = True
    for _ in range(trials):
        shape = BipartiteShape(*rng.integers(2, 4, size=4))
        v1, v2 = _cnormal(rng, shape.k1), _cnormal(rng, shape.k2)
        u1, u2 = _cnormal(rng, shape.h1), _cnormal(rng, shape.h2)
        basis = np.eye(shape.codomain_dim, dtype=complex)
        m1 = np.array([schmidt.contract_V1(v1, e, shape) for e in basis]).T
        m2 = np.array([schmidt.contract_V2(v2, e, shape) for e in basis]).T
        worst_norm = max(
            worst_norm,
            abs(op_norm(m1) - np.linalg.norm(v1)),
            abs(op_norm(m2) - np.linalg.norm(v2)),
        )
        f = _cnormal(rng, shape.codomain_dim, shape.domain_dim)
        g = _cnormal(rng, shape.codomain_dim, shape.domain_dim)
        a, b = schmidt.P_uv(f, g, u1, u2, v1, v2, shape)
        cap = (
            np.linalg.norm(u1) * np.linalg.norm(u2) * np.linalg.norm(v1) * np.linalg.norm(v2)
        )
        norm_f, norm_g = op_norm(f), op_norm(g)
        if op_norm(tensor_op(a, b)) > cap * norm_f * norm_g + 1e-9:
            bound_ok = False
        da = tensor_op(*schmidt.D_uv(f, u1, u2, v1, v2, shape))
        db = tensor_op(*schmidt.D_uv(g, u1, u2, v1, v2, shape))
        lip = cap * (norm_f + norm_g) * op_norm(f - g)
        if op_norm(da - db) > lip + 1e-9:
            bound_ok = False
    return {
        "passed": bool(worst_norm <= 1e-10 and bound_ok),
        "trials": trials,
        "worst_norm_identity_error": worst_norm,
        "inequalities_ok": bound_ok,
    }


def suite_rank_one_fixed_point(rng, trials: int) -> dict:
    """D(F) = <F(u), v> F holds exactly when the oracle rank is one."""
    ok = True
    worst = 0.0
    for t in range(trials):
        shape = BipartiteShape(2, 3, 2, 3)
        r = 1 if t % 2 == 0 else 2
        _, f, _ = random_fsr_operator(rng, shape, r)
        u1, u2 = _cnormal(rng, shape.h1), _cnormal(rng, shape.h2)
        v1, v2 = _cnormal(rng, shape.k1), _cnormal(rng, shape.k2)
        a, b = schmidt.D_uv(f, u1, u2, v1, v2, shape)
        p = inner(a @ u1, v1)  # the pairing <F(u1 (x) u2), v1 (x) v2>
        d = tensor_op(a, b)
        resid = np.linalg.norm(d - p * f) / np.linalg.norm(f)
        if r == 1:
            worst = max(worst, resid)
            ok = ok and resid <= 1e-9
        else:
            ok = ok and resid > 1e-6
    return {"passed": bool(ok), "trials": trials, "worst_rank_one_residual": worst}


def suite_deflation_rank_law(rng, trials: int) -> dict:
    """Stepwise rank drop, term count vs oracle, and reconstruction error."""
    ok = True
    worst_recon = 0.0
    for t in range(trials):
        dims = tuple(rng.integers(2, 4, size=4))
        shape = BipartiteShape(*dims)
        r = 1 + t % min(shape.max_rank, 4)
        _, f, _ = random_fsr_operator(rng, shape, r)
        norm_f = np.linalg.norm(f)
        dec = schmidt.schmidt_decompose_deflation(f, shape)
        # walk the deflation's terms to watch the rank drop by one per step
        residual = f
        for k, (a, b) in enumerate(zip(dec.a[:r], dec.b)):
            residual = residual - tensor_op(a, b)
            if schmidt.reshuffle_rank(residual, shape, tol=1e-7, scale=norm_f).rank_bound != r - 1 - k:
                ok = False
                break
        recon = np.linalg.norm(f - dec.materialize()) / norm_f
        worst_recon = max(worst_recon, recon)
        ok = ok and dec.rank_bound == r and recon <= 1e-8
    return {"passed": bool(ok), "trials": trials, "worst_reconstruction": worst_recon}


def suite_inverse_factors(rng, trials: int) -> dict:
    """Left and right factor identities on invertible rank-2 operators."""
    ok = True
    worst = 0.0
    shape = BipartiteShape(2, 2, 2, 2)
    for _ in range(trials):
        while True:
            fsr, f, _ = random_fsr_operator(rng, shape, 2)
            if np.linalg.cond(f) < 1e6:
                break
        inv = np.linalg.inv(f)
        u1, v1 = _cnormal(rng, 2), _cnormal(rng, 2)
        v1 = v1 / np.conj(inner(u1, v1))
        u2, v2 = _cnormal(rng, 2), _cnormal(rng, 2)
        v2 = v2 / np.conj(inner(u2, v2))
        for side in ("left", "right"):
            pairs = schmidt.inverse_factors(fsr, inv, side, u1, u2, v1, v2)
            if side == "left":
                s1 = sum(l1 @ a for (l1, _), a in zip(pairs, fsr.a))
                s2 = sum(l2 @ b for (_, l2), b in zip(pairs, fsr.b))
            else:
                s1 = sum(a @ r1 for (r1, _), a in zip(pairs, fsr.a))
                s2 = sum(b @ r2 for (_, r2), b in zip(pairs, fsr.b))
            resid = max(
                np.linalg.norm(s1 - np.eye(2)), np.linalg.norm(s2 - np.eye(2))
            )
            worst = max(worst, resid)
            ok = ok and resid <= 1e-8
    return {"passed": bool(ok), "trials": trials, "worst_identity_residual": worst}


def suite_span_uniqueness(rng, trials: int) -> dict:
    """Deflation terms and reshuffle-SVD terms span the same factor spaces."""
    ok = True
    for t in range(trials):
        shape = BipartiteShape(2, 3, 2, 3)
        r = 1 + t % 3
        _, f, canon = random_fsr_operator(rng, shape, r)
        dec = schmidt.schmidt_decompose_deflation(f, shape)
        if dec.rank_bound != canon.rank_bound:
            ok = False
            continue
        ok = ok and schmidt.spans_equal(dec, canon, 1)
        ok = ok and schmidt.spans_equal(dec, canon, 2)
    return {"passed": bool(ok), "trials": trials}


def suite_tensor_bounds_multiply(rng, trials: int) -> dict:
    """Optimal bounds of tensor products are products of component bounds."""
    ok = True
    worst = 0.0
    draws = []
    for _ in range(trials):
        d = int(rng.integers(2, 4))
        seqs = [
            random_vector_sequence(rng, int(rng.integers(2, 4)), int(rng.integers(2, 5)))
            for _ in range(d)
        ]
        draws.append([sequences.tensor_sequences(seqs), *seqs])
    reports = iter(classify_all([s for draw in draws for s in draw]))
    for draw in draws:
        prod_rep, *comp = (next(reports) for _ in draw)
        a_exp = float(np.prod([c.lower_bound for c in comp]))
        b_exp = float(np.prod([c.bessel_bound for c in comp]))
        scale = max(1.0, b_exp)
        err = max(
            abs(prod_rep.lower_bound - a_exp) / scale,
            abs(prod_rep.bessel_bound - b_exp) / scale,
        )
        worst = max(worst, err)
        ok = ok and err <= 1e-9
    return {"passed": bool(ok), "trials": trials, "worst_bound_error": worst}


def suite_minimal_sum_frames(rng, trials: int) -> dict:
    """Frame minimal sums: concatenated groups are frames; the Bessel bound is
    subadditive, B <= (sum_k sqrt(prod_j B_{j,k}))^2, with every bound read off
    the draw's ``verify_main_theorem`` report; for r = 1 the bounds multiply."""
    ok = True
    worst_ratio = 1.0
    for t in range(trials):
        d = 2 + t % 2
        r = 1 + t % 3
        dims = [int(rng.integers(2, 5)) for _ in range(d)]
        lengths = [m + int(rng.integers(0, 3)) for m in dims]
        _, report = random_frame_minimal_sum(rng, dims, lengths, r)
        for rep in report["per_group"]:
            ratio = rep["A"] / rep["B"]
            worst_ratio = min(worst_ratio, ratio)
            ok = ok and ratio > 1e-8
        ok = ok and (r > 1 or report["rank_one_check"]["bounds_multiply"])
        cap = sum(np.sqrt(np.prod([c["B"] for c in term])) for term in zip(*report["per_component"])) ** 2
        ok = ok and report["full"]["B"] <= cap + 1e-9 * max(1.0, cap)
    return {"passed": bool(ok), "trials": trials, "worst_group_ratio": worst_ratio}


def suite_two_term_disjunction(rng, trials: int) -> dict:
    """Constructed r=2 frame instances satisfy one branch of the disjunction,
    and the cross-component branch 3 occurs."""
    ok = True
    branch3 = 0
    for t in range(trials):
        _, report = branch3_minimal_sum(rng) if t % 2 == 0 else branch1_minimal_sum(rng)
        branch = report["branch"]
        ok = ok and branch in (1, 2, 3)
        branch3 += branch == 3
    return {"passed": bool(ok and branch3 >= min(5, trials // 2)), "trials": trials, "branch3_count": branch3}


def suite_gabor_density(rng, trials: int) -> dict:
    """Exhaustive divisor sweeps obey the discrete density law; the full
    lattice is tight with bound N * ||g||^2.  The sweep decides ab > N
    lattices from their adjoint lattices, where A = 0 by construction, so on
    those the dense classification of the atoms must also find no frame."""
    ok = True
    worst_tight = 0.0
    dense = []
    for n in (4, 6, 8, 12):
        for gen in ("gaussian", "twoexp", "sech"):
            w = gabor.sample_window(gen, n)
            sweep = gabor.density_sweep(w)
            ok = ok and all(sweep["density_ok"])
            dense += [gabor.gabor_system(w, gabor.ZNLattice(n, a, b))
                      for a, b in zip(sweep["a"], sweep["b"]) if a * b > n]  # fewer than n atoms
            s = sequences.frame_operator(gabor.gabor_system(w, gabor.ZNLattice(n, 1, 1)))
            tight_err = np.linalg.norm(s - n * np.linalg.norm(w.g) ** 2 * np.eye(n))
            worst_tight = max(worst_tight, tight_err)
            ok = ok and tight_err <= 1e-10
    ok = ok and not any(rep.is_frame for rep in classify_all(dense))
    return {"passed": bool(ok), "trials": trials, "worst_tightness_error": worst_tight}


def suite_oversampling(rng, trials: int) -> dict:
    """Refined lattices scale valid frame bounds by the refinement factors."""
    cases = []
    for n in (8, 12):
        for a in gabor.divisors(n):
            for b in gabor.divisors(n):
                for u in gabor.divisors(a):
                    for v in gabor.divisors(b):
                        if u == v == 1:
                            continue
                        cases.append((gabor.ZNWindow(_cnormal(rng, n)), gabor.ZNLattice(n, a, b), u, v))
    ok = all(rep["lower_ok"] and rep["upper_ok"] for rep in gabor.oversample_checks(cases))
    return {"passed": bool(ok), "trials": len(cases)}


# (N, a, b, alpha, beta, c_phase) with alpha*b = beta*a = 0 mod N and the
# perturbing unitary squaring to the identity, so 1 + c * P is singular.
PERTURB_INSTANCES = [
    (8, 2, 2, 4, 4, 0.0),
    (8, 2, 2, 4, 0, 0.0),
    (8, 2, 2, 0, 4, 0.0),
    (8, 4, 2, 4, 4, 0.0),
    (8, 2, 4, 4, 4, 0.0),
    (12, 2, 2, 6, 6, 0.0),
    (12, 2, 2, 6, 0, 0.0),
    (12, 2, 1, 0, 6, 0.0),
    (12, 6, 2, 6, 6, 0.0),
    (16, 2, 2, 8, 8, 0.0),
    (16, 4, 4, 8, 8, 0.0),
    (6, 2, 2, 3, 3, 0.25),
]


def suite_perturbation(rng, trials: int) -> dict:
    """g + c M_beta T_alpha g loses the lower frame bound on the instance set."""
    ok = True
    worst_ratio = 0.0
    for n, a, b, alpha, beta, c_phase in PERTURB_INSTANCES:
        g = _cnormal(rng, n)
        w = gabor.ZNWindow(g / np.linalg.norm(g))
        rep = gabor.perturb_window(w, gabor.ZNLattice(n, a, b), alpha, beta, c_phase)
        worst_ratio = max(worst_ratio, rep["spectral_ratio"])
        ok = ok and rep["spectral_ratio"] < 1e-8
    return {"passed": bool(ok), "trials": len(PERTURB_INSTANCES), "worst_spectral_ratio": worst_ratio}


SUITES = [
    ("prop22_identities", suite_prop22_identities),
    ("rank_one_fixed_point", suite_rank_one_fixed_point),
    ("deflation_rank_law", suite_deflation_rank_law),
    ("inverse_factors", suite_inverse_factors),
    ("span_uniqueness", suite_span_uniqueness),
    ("tensor_bounds_multiply", suite_tensor_bounds_multiply),
    ("minimal_sum_frames", suite_minimal_sum_frames),
    ("two_term_disjunction", suite_two_term_disjunction),
    ("gabor_density", suite_gabor_density),
    ("oversampling", suite_oversampling),
    ("perturbation", suite_perturbation),
]


def run_all(seed: int, trials: int) -> dict:
    """Run every suite on its own seed-derived stream; report is deterministic."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    results = {}
    for key, (name, fn) in enumerate(SUITES):
        rng = suite_rng(seed, key)
        results[name] = fn(rng, trials)
    return {
        "seed": seed,
        "trials": trials,
        "suites": results,
        "all_passed": all(r["passed"] for r in results.values()),
    }
