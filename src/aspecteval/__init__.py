"""Multi-aspect evaluation of ranked retrieval results.

The package turns per-aspect graded judgments into a single effectiveness
score in three steps: embed label tuples in a metric space, order them by
distance from the best tuple, and feed order-preserving integer weights into
a classic ranking measure (nDCG or average precision).  Per-aspect
arithmetic- and harmonic-mean baselines, meta-evaluation analyses, and a
CLI round out the toolkit.
"""

__version__ = "0.1.0"

from .analysis import (
    CorrelationReport,
    DPReport,
    PairTest,
    QualityBandReport,
    ZeroAspectReport,
    discriminative_powers,
    kendall_tau,
    measure_correlation,
    quality_bands,
    select_best_runs,
    zero_aspect_at_k,
)
from .errors import (
    AspectCountMismatch,
    ConfigError,
    DegenerateInput,
    DimensionMismatch,
    DuplicateDoc,
    EvalError,
    MatrixMismatch,
    MissingBestTuple,
    MixedRunTag,
    ParseError,
    PolicyViolation,
    SchemaError,
    UnknownLabel,
    WeightError,
)
from .ingest import (
    RunFile,
    discretize_quantile,
    discretize_threshold,
    join_aspect_qrels,
    parse_qrels,
    parse_run,
    parse_signals,
    serialize_run,
)
from .measures import (
    MeasureConfig,
    RankedList,
    ScoreMatrix,
    aspect_scores,
    average_precision,
    cam_score,
    dcg,
    mm_score,
    ndcg,
    score_runs,
    order_score,
)
from .order import (
    DistanceOrder,
    Metric,
    WeightAssignment,
    assign_weights,
    build_order,
    check_extends_partial_order,
    format_order_dump,
)
from .schema import (
    Aspect,
    AspectSchema,
    CouplingRule,
    GroundTruth,
    LabelTuple,
    TupleSpace,
    build_tuple_space,
    parse_schema,
    validate_schema,
)

__all__ = [
    "__version__",
    # schema
    "Aspect", "AspectSchema", "CouplingRule", "GroundTruth", "LabelTuple",
    "TupleSpace", "build_tuple_space", "parse_schema", "validate_schema",
    # order
    "DistanceOrder", "Metric", "WeightAssignment", "assign_weights",
    "build_order", "check_extends_partial_order", "format_order_dump",
    # measures
    "MeasureConfig", "RankedList", "ScoreMatrix", "aspect_scores",
    "average_precision", "cam_score", "dcg", "mm_score", "ndcg", "score_runs",
    "order_score",
    # ingest
    "RunFile", "discretize_quantile", "discretize_threshold", "join_aspect_qrels",
    "parse_qrels", "parse_run", "parse_signals", "serialize_run",
    # analysis
    "CorrelationReport", "DPReport", "PairTest", "QualityBandReport",
    "ZeroAspectReport", "discriminative_powers", "kendall_tau",
    "measure_correlation", "quality_bands", "select_best_runs",
    "zero_aspect_at_k",
    # errors
    "AspectCountMismatch", "ConfigError", "DegenerateInput",
    "DimensionMismatch", "DuplicateDoc", "EvalError", "MatrixMismatch",
    "MissingBestTuple", "MixedRunTag", "ParseError", "PolicyViolation",
    "SchemaError", "UnknownLabel", "WeightError",
]
