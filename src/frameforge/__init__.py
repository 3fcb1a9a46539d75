"""Finite-dimensional workbench for frames, minimal sums of tensor products
of sequences, operator Schmidt decompositions, and discrete Gabor systems."""

from .linalg import (
    DEFAULT_RTOL,
    inner,
    op_norm,
    op_norm_extremes,
    tensor_op,
    tensor_vec,
)
from .sequences import (
    FRAME_TOL,
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
    tensor_sequences,
    two_term_disjunction_check,
    verify_main_theorem,
)
from .schmidt import (
    BipartiteShape,
    FSROperator,
    D_uv,
    P_uv,
    contract_V1,
    contract_V2,
    deflate,
    inverse_factors,
    reshuffle_rank,
    schmidt_decompose_deflation,
    spans_equal,
)
from .gabor import (
    RankRWindowSpec,
    ZNLattice,
    ZNWindow,
    build_rank_r_window,
    density_sweep,
    gabor_system,
    modulate,
    perturb_window,
    sample_window,
    translate,
    verify_rank_r_frame_implication,
)

__version__ = "0.1.0"
