"""Combinatorial certificates lower-bounding achievable sparsifier quality.

A cut certificate is a pair of distributions over terminal subsets whose
cut marginals nest within a scale c; it certifies that no cut sparsifier
of the instance beats the certified Q. A metric certificate is a finite
family of terminal metrics whose summed minimum extensions exceed the
extension of the summed metric; it certifies the same for metric
sparsifiers. Verification is purely combinatorial plus minimum extensions:
terminal min cuts from the max-flow of :mod:`vsparse.mincut`, and the
``min_extension`` LP, imported only for a metric that is not a scaled cut.
It is independent of the operator solver, which is what makes the
harvested certificates a genuine cross-check on it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING, Iterable, Sequence

from . import jsonio
from .core import (
    ZERO,
    FractionLike,
    Metric,
    Value,
    WeightedGraph,
    as_fraction,
    integer_row,
)
from .mincut import min_cut_via_flow

if TYPE_CHECKING:
    from .operators import OperatorSolveReport

Distribution = tuple[tuple[int, Fraction], ...]


def _normalize_distribution(entries: Iterable[tuple[int, FractionLike]], k: int,
                            name: str) -> Distribution:
    merged: dict[int, Fraction] = {}
    for mask, prob in entries:
        if not 0 <= mask < (1 << k):
            raise ValueError(f"{name}: subset mask {mask} outside 0..{(1 << k) - 1}")
        p = as_fraction(prob)
        if p < 0:
            raise ValueError(f"{name}: negative probability {p} on mask {mask}")
        merged[mask] = merged.get(mask, ZERO) + p
    if not merged:
        raise ValueError(f"{name}: empty distribution")
    total = sum(merged.values(), ZERO)
    if total != 1:
        raise ValueError(f"{name}: probabilities sum to {total}, not 1")
    return tuple(sorted(merged.items()))


class CutCertificate(Value):
    """Distributions mu1, mu2 over terminal subsets, as (bitmask, probability).

    Bit p of a mask selects terminal-local index p. Duplicate masks merge;
    each distribution must sum to exactly 1 with nonnegative entries.
    """

    graph: WeightedGraph
    mu1: Distribution
    mu2: Distribution
    __slots__ = _fields = ("graph", "mu1", "mu2")

    def __init__(self, graph: WeightedGraph,
                 mu1: Iterable[tuple[int, FractionLike]],
                 mu2: Iterable[tuple[int, FractionLike]]):
        super().__init__(graph, _normalize_distribution(mu1, graph.k, "mu1"),
                         _normalize_distribution(mu2, graph.k, "mu2"))


class MetricCertificate(Value):
    """A nonempty family of terminal metrics on the instance's terminals."""

    graph: WeightedGraph
    metrics: tuple[Metric, ...]
    __slots__ = _fields = ("graph", "metrics")

    def __init__(self, graph: WeightedGraph, metrics: Iterable[Metric]):
        family = tuple(metrics)
        if not family:
            raise ValueError("a metric certificate needs at least one metric")
        for d in family:
            if d.size != graph.k:
                raise ValueError(
                    f"certificate metric has {d.size} points, instance has {graph.k} terminals")
        super().__init__(graph, family)


def _expected_min_cut(g: WeightedGraph, mu: Distribution, nums: Sequence[int],
                      cuts: dict[int, int]) -> int:
    """E_{S ~ mu}[minext(delta_S)] on numerators: the probabilities as
    ``nums`` over their common denominator, each min cut over the common
    denominator of g's weights. Empty and full subsets extend for free.

    A side and its complement have the same terminal min cut, so ``cuts``
    caches each bipartition's once, keyed by the mask of its side holding
    terminal 0, and the same cache serves both distributions.
    """
    full = (1 << g.k) - 1
    scale = g.integers[1]
    total = 0
    for (mask, _), prob in zip(mu, nums):
        if not prob or mask == 0 or mask == full:
            continue
        key = mask if mask & 1 else full ^ mask
        if key not in cuts:
            cut = min_cut_via_flow(g, [p for p in range(g.k) if key >> p & 1])
            cuts[key] = cut.numerator * (scale // cut.denominator)
        total += prob * cuts[key]
    return total


def certify_cut(cert: CutCertificate) -> Fraction | None:
    """The quality bound a cut certificate proves, or None when it proves nothing.

    For every ordered terminal pair, mu1's probability of separating it must
    fit under c times mu2's; the smallest feasible c then scales the ratio
    of expected cut sizes into the certified Q. A pair separated by mu1 but
    never by mu2 admits no scale, and zero expectations certify nothing;
    both come back as None.
    """
    g = cert.graph
    nums1 = integer_row([prob for _, prob in cert.mu1])[0]
    nums2 = integer_row([prob for _, prob in cert.mu2])[0]
    top, bottom = 0, 1  # the largest m1 / m2 so far, on the numerators
    for p in range(g.k):
        for q in range(g.k):
            if p == q:
                continue
            m1 = sum([v for (mask, _), v in zip(cert.mu1, nums1)
                      if mask >> p & 1 and not mask >> q & 1])
            m2 = sum([v for (mask, _), v in zip(cert.mu2, nums2)
                      if mask >> p & 1 and not mask >> q & 1])
            if m2 == 0:
                if m1 > 0:
                    return None
                continue  # 0/0 pairs impose nothing
            if m1 * bottom > top * m2:
                top, bottom = m1, m2
    cuts: dict[int, int] = {}
    e1 = _expected_min_cut(g, cert.mu1, nums1, cuts)
    e2 = _expected_min_cut(g, cert.mu2, nums2, cuts)
    if e1 <= 0 or e2 <= 0:
        return None
    # e1 > 0 forces a separated pair under mu1, so top > 0 here. c_min is
    # top / bottom times the ratio of the two distributions' denominators,
    # which cancels against the same ratio in e1 / e2.
    return Fraction(e1 * bottom, top * e2)


def certify_metric(cert: MetricCertificate) -> Fraction | None:
    """The quality bound a metric family proves, or None when degenerate.

    Sum of the family's minimum extensions over the minimum extension of
    the family's sum; subadditivity makes this at least 1 whenever the
    denominator is positive, and any valid sparsifier's quality must reach
    it. A zero denominator certifies nothing. A member or sum that is a
    scaled cut metric takes its minimum extension from max-flow, not an LP.
    The sum is taken on the members' integer views.
    """
    g = cert.graph
    common = lcm(*[d.integers[1] for d in cert.metrics])
    total = [[0] * g.k for _ in range(g.k)]
    numerator = ZERO
    for d in cert.metrics:
        numerator += _min_extension_value(g, d)
        nums, scale = d.integers
        total = [[a + b * (common // scale) for a, b in zip(ra, rb)] for ra, rb in zip(total, nums)]
    denominator = _min_extension_value(g, Metric.from_integers(total, common))
    if denominator == 0:
        return None
    return numerator / denominator


def _cut_scale(d: Metric) -> tuple[Fraction, list[int]] | None:
    """``(c, side)`` when ``d`` is ``c > 0`` times the cut metric of
    ``side``, a nonempty proper subset of its points; else None."""
    nums, scale = d.integers
    first = nums[0]
    side = [j for j, v in enumerate(first) if not v]
    c = next((v for v in first if v), None)
    if c is None:
        return None
    inside = set(side)
    for i, row in enumerate(nums):
        for j, v in enumerate(row):
            if v != (c if (i in inside) != (j in inside) else 0):
                return None
    return Fraction(c, scale), side


def _min_extension_value(g: WeightedGraph, d: Metric) -> Fraction:
    """``min_extension(g, d).value``, in closed form on a scaled cut metric
    ``c * delta_S``: c times the terminal min cut of S, since the min-cut LP
    is integral."""
    cut = _cut_scale(d)
    if cut is None:
        from .extension import min_extension

        return min_extension(g, d).value
    c, side = cut
    return c * min_cut_via_flow(g, side)


def harvest_certificate(report: OperatorSolveReport) -> MetricCertificate:
    """Package a solve's binding worst metrics as a metric certificate.

    The binding constraints are where the optimal operator is tight, which
    makes them natural certificate material; no optimality of the harvested
    bound is claimed, only its soundness, which :func:`certify_metric`
    re-establishes from scratch.
    """
    if not report.converged:
        raise ValueError("only a converged solve can be harvested")
    if not report.worst_metrics:
        raise ValueError("the solve stored no binding worst metrics")
    return MetricCertificate(report.graph, [d for d, _ in report.worst_metrics])


# ---------------------------------------------------------------------------
# wire format


def _distribution_to_json(mu: Distribution) -> list:
    return [[mask, jsonio.format_fraction(prob)] for mask, prob in mu]


def _distribution_from_json(data: object, path: str) -> list[list]:
    return [values for _, values in jsonio._rows(data, path, "[mask, probability]")]


def certificate_to_json(cert: CutCertificate | MetricCertificate) -> dict:
    if isinstance(cert, CutCertificate):
        return {
            "type": "cut",
            "graph": jsonio.graph_to_json(cert.graph),
            "mu1": _distribution_to_json(cert.mu1),
            "mu2": _distribution_to_json(cert.mu2),
        }
    return {
        "type": "metric",
        "graph": jsonio.graph_to_json(cert.graph),
        "metrics": [jsonio.metric_to_json(d) for d in cert.metrics],
    }


def certificate_from_json(data: object,
                          path: str = "certificate") -> CutCertificate | MetricCertificate:
    obj = jsonio._expect_object(data, path, ("type", "graph"))
    kind = obj["type"]
    graph = jsonio.graph_from_json(obj["graph"], f"{path}.graph")
    if kind == "cut":
        jsonio._expect_object(obj, path, ("mu1", "mu2"))
        return jsonio._build(path, CutCertificate, graph,
                             _distribution_from_json(obj["mu1"], f"{path}.mu1"),
                             _distribution_from_json(obj["mu2"], f"{path}.mu2"))
    if kind == "metric":
        jsonio._expect_object(obj, path, ("metrics",))
        metrics = [jsonio.metric_from_json(d, f"{path}.metrics[{a}]")
                   for a, d in enumerate(jsonio._expect_list(obj["metrics"], f"{path}.metrics"))]
        return jsonio._build(path, MetricCertificate, graph, metrics)
    raise jsonio.JsonFormatError(f"{path}.type",
                                 f"unknown certificate type {jsonio._quote(kind)}")
