"""Exact vertex sparsifiers of weighted graphs.

Given a graph with a distinguished terminal set, this package finds the
metric extension operator of minimum distortion by an exact rational
cutting-plane solve, collapses it into cut/metric/flow sparsifiers on the
terminals, grades the results under all three semantics, and verifies
combinatorial certificates that lower-bound what any sparsifier could
achieve. Everything is computed over :class:`fractions.Fraction`; every
reported equality and bound is exact, never a tolerance.
"""

from .core import (
    UNBOUNDED,
    DemandSet,
    Metric,
    Sparsifier,
    Unbounded,
    WeightedGraph,
    all_pairs,
    alpha_cost,
    canonicalize,
    cut_metric,
    is_unbounded,
    pair,
    zero_metric,
)
from .extension import (
    ExtensionResult,
    ZeroExtension,
    best_zero_extension,
    min_cut_by_enumeration,
    min_cut_via_flow,
    min_cut_via_lp,
    min_extension,
)
from .operators import (
    ExtensionOperator,
    MembershipViolation,
    DistortionViolation,
    NoFiniteDistortionError,
    OperatorSolveReport,
    find_optimal_operator,
    membership_oracle,
    operator_from_json,
    operator_to_json,
    operator_to_sparsifier,
    zero_extension_operator,
)
from .quality import (
    FlowProbeError,
    QualityReport,
    cut_quality,
    evaluate_operator_distortion,
    flow_quality_probe,
    max_concurrent_flow,
    metric_lower_check,
    metric_quality,
    metric_quality_upper,
    report_from_json,
    report_to_json,
    sparsifier_from_json,
    sparsifier_to_json,
)
from .certificates import (
    CutCertificate,
    MetricCertificate,
    certificate_from_json,
    certificate_to_json,
    certify_cut,
    certify_metric,
    harvest_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "UNBOUNDED",
    "DemandSet",
    "Metric",
    "Sparsifier",
    "Unbounded",
    "WeightedGraph",
    "all_pairs",
    "alpha_cost",
    "canonicalize",
    "cut_metric",
    "is_unbounded",
    "pair",
    "zero_metric",
    "ExtensionResult",
    "ZeroExtension",
    "best_zero_extension",
    "min_cut_by_enumeration",
    "min_cut_via_flow",
    "min_cut_via_lp",
    "min_extension",
    "ExtensionOperator",
    "MembershipViolation",
    "DistortionViolation",
    "NoFiniteDistortionError",
    "OperatorSolveReport",
    "find_optimal_operator",
    "membership_oracle",
    "operator_from_json",
    "operator_to_json",
    "operator_to_sparsifier",
    "zero_extension_operator",
    "FlowProbeError",
    "QualityReport",
    "cut_quality",
    "evaluate_operator_distortion",
    "flow_quality_probe",
    "max_concurrent_flow",
    "metric_lower_check",
    "metric_quality",
    "metric_quality_upper",
    "report_from_json",
    "report_to_json",
    "sparsifier_from_json",
    "sparsifier_to_json",
    "CutCertificate",
    "MetricCertificate",
    "certificate_from_json",
    "certificate_to_json",
    "certify_cut",
    "certify_metric",
    "harvest_certificate",
    "__version__",
]
