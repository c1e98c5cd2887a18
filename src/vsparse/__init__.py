"""Exact vertex sparsifiers of weighted graphs.

Given a graph with a distinguished terminal set, this package finds the
metric extension operator of minimum distortion by an exact rational
cutting-plane solve, collapses it into cut/metric/flow sparsifiers on the
terminals, grades the results under all three semantics, and verifies
combinatorial certificates that lower-bound what any sparsifier could
achieve. Everything is computed over :class:`fractions.Fraction`; every
reported equality and bound is exact, never a tolerance.

Importing the package loads none of its modules. Each public name in
``__all__`` is looked up in its home module on every access (PEP 562), which
imports that module the first time, so ``vsparse.X is vsparse.<home>.X``
always holds, also while a caller patches the home module. Every CLI call
starts a fresh interpreter, and this lets each subcommand load only the
modules it runs.
"""

import importlib

_EXPORTS = {
    "core": (
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
    ),
    "extension": (
        "ExtensionResult",
        "ZeroExtension",
        "best_zero_extension",
        "min_cut_via_lp",
        "min_extension",
    ),
    "mincut": ("min_cut_by_enumeration", "min_cut_via_flow"),
    "operators": (
        "ExtensionOperator",
        "MembershipViolation",
        "OperatorSolveReport",
        "find_optimal_operator",
        "membership_oracle",
        "operator_from_json",
        "operator_to_json",
        "operator_to_sparsifier",
        "zero_extension_operator",
    ),
    "quality": (
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
    ),
    "certificates": (
        "CutCertificate",
        "MetricCertificate",
        "certificate_from_json",
        "certificate_to_json",
        "certify_cut",
        "certify_metric",
        "harvest_certificate",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str) -> object:
    # only the public names: any other name, such as a submodule's in
    # ``from vsparse import lp``, must fail here for the import to load it
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
