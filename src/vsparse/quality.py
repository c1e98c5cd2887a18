"""Exact quality evaluation of sparsifiers and operators.

Three semantics share one report shape: cut quality enumerates every
terminal bipartition and compares the sparsifier's cut to the terminal min
cut; metric quality bounds the sparsifier's value against the minimum
extension through a single LP; flow quality compares maximum
concurrent-flow fractions through the dual LPs, exactly at the
sparsifier's own demands or on a given set. The metric and flow LPs are one
program in two normalizations (:func:`extension.terminal_pair_lp`): over
edge lengths with shortest-path rows on a graph of more than
``RAY_POINTS`` vertices, read off the extreme rays of the vertex metric
cone on a smaller one. All values are exact rationals; a ratio against
zero is reported as unbounded rather than clamped.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import TYPE_CHECKING

from . import jsonio, lp
from .core import (
    CUT,
    FLOW,
    METRIC,
    UNBOUNDED,
    ZERO,
    DemandSet,
    Sparsifier,
    Unbounded,
    Value,
    WeightedGraph,
    bipartitions,
    canonicalize,
    cut_metric,
    is_unbounded,
    pair,
)
from .extension import min_extension, terminal_pair_lp
from .mincut import min_cut_via_flow
from .sampling import random_metric

if TYPE_CHECKING:
    from .operators import ExtensionOperator

EXACT, SAMPLED = "exact", "sampled"


class FlowProbeError(AssertionError):
    """The flow sandwich failed; for pipeline-produced sparsifiers this is a
    solver bug, never a data condition."""


class QualityReport(Value):
    """Outcome of one quality evaluation.

    ``q_value`` is the worst upper ratio (or unbounded when a zero
    denominator meets a positive numerator, 0 when nothing binds); None on
    lower-check fragments that measure no upper ratio. ``lower_ok`` records
    whether the lower bound held everywhere checked; None when the
    evaluation does not check it. ``witness`` achieves q_value: a
    terminal-subset bitmask for cuts, a terminal metric for metric semantics
    (the violating metric instead when the lower check fails), the demand
    set graded for flows. ``completeness`` is "exact" for exhaustive or
    proved evaluations and "sampled" where random or given sets were probed. :meth:`~core.Record.replace` copies a
    report with some fields changed.
    """

    __slots__ = _fields = ("semantics", "q_value", "lower_ok", "witness", "completeness")

    def __init__(self, semantics: str, q_value: Fraction | Unbounded | None,
                 lower_ok: bool | None, witness: object, completeness: str):
        object.__setattr__(self, "semantics", semantics)
        object.__setattr__(self, "q_value", q_value)
        object.__setattr__(self, "lower_ok", lower_ok)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "completeness", completeness)


def _check_k(g: WeightedGraph, beta: Sparsifier) -> None:
    if beta.k != g.k:
        raise ValueError(f"sparsifier has {beta.k} terminals, graph has {g.k}")


def cut_quality(g: WeightedGraph, beta: Sparsifier) -> QualityReport:
    """Worst ratio of sparsifier cut to terminal min cut, over all bipartitions.

    Enumerates the 2^(k-1) - 1 bipartitions of :func:`core.bipartitions`,
    ties to the smallest mask, for at most ``core.CUT_CAP`` terminals. Min cuts
    come from the max-flow route, which keeps that many within reach; the LP
    route is cross-checked elsewhere. Bipartitions where both values are
    zero bind nothing and are skipped; a zero min cut against a positive
    sparsifier cut makes the quality unbounded. When no bipartition binds,
    as with a single terminal, the quality is 0 with no witness, the value
    the metric LP and the operator solve give there too.
    """
    _check_k(g, beta)
    best: Fraction | Unbounded = ZERO
    best_mask: int | None = None
    lower_ok = True
    for mask, side in bipartitions(g.k):
        h_val = beta.cut_value(side)
        g_val = min_cut_via_flow(g, side)
        lower_ok = lower_ok and h_val >= g_val
        if is_unbounded(best) or g_val == 0 == h_val:
            continue
        ratio = h_val / g_val if g_val else UNBOUNDED
        if best_mask is None or is_unbounded(ratio) or ratio > best:
            best, best_mask = ratio, mask
    return QualityReport(CUT, best, lower_ok, best_mask, EXACT)


def metric_quality_upper(g: WeightedGraph, beta: Sparsifier) -> QualityReport:
    """Supremum of beta(d_Y) / minext(d_Y), as one LP.

    Maximizes beta(d) over the vertex metrics d with alpha(d) <= 1; their
    restrictions are exactly the terminal metrics of minimum extension at
    most 1, so the optimum is the worst ratio and the witness, the optimal
    metric's restriction, attains it with minimum extension 1. A graph on
    more than ``RAY_POINTS`` vertices runs over edge lengths with
    shortest-path rows, and a smaller one is read off the extreme rays of
    its metric cone (:func:`extension.terminal_pair_lp`). An unbounded
    program yields an unbounded report whose witness is a terminal metric
    with zero-cost extension but positive beta: past ``RAY_POINTS``
    vertices, the cut metric of a component, taken at the first pair of
    terminal vertices (sorted) with positive beta and no path between them.
    The lower bound is not examined here.
    """
    _check_k(g, beta)
    result = terminal_pair_lp(g, "max", beta.beta)
    if result.status == lp.UNBOUNDED:
        return QualityReport(METRIC, UNBOUNDED, None, result.witness, EXACT)
    lp.check(result.status == lp.OPTIMAL, "a budgeted metric LP is feasible")
    return QualityReport(METRIC, result.value, None, result.witness, EXACT)


def metric_lower_check(g: WeightedGraph, beta: Sparsifier, samples: int = 100,
                       seed: int = 0) -> QualityReport:
    """Search for minext(d_Y) > beta(d_Y), the lower-bound violation.

    Checks every cut metric exactly (enough to refute cut semantics, by min
    cut LP integrality; at most ``core.CUT_CAP`` terminals) and then ``samples``
    seeded random terminal metrics.
    It guards only sparsifiers supplied from outside: a collapse of a
    member operator never violates, and ``sparsify`` proves that from
    membership instead. A pass is marked "sampled" because general metrics
    are only probed. The report fragment carries no upper ratio.
    """
    _check_k(g, beta)
    for _, side in bipartitions(g.k):
        if beta.cut_value(side) < min_cut_via_flow(g, side):
            return QualityReport(METRIC, None, False, cut_metric(side, g.k), SAMPLED)
    rng = random.Random(seed)
    for _ in range(samples):
        d_y = random_metric(rng, g.k)
        if beta.cost(d_y) < min_extension(g, d_y).value:
            return QualityReport(METRIC, None, False, d_y, SAMPLED)
    return QualityReport(METRIC, None, True, None, SAMPLED)


def metric_quality(g: WeightedGraph, beta: Sparsifier, samples: int = 100,
                   seed: int = 0) -> QualityReport:
    """The full metric report: exact upper ratio, sampled lower check.

    The witness is the upper LP's worst metric unless the lower check finds
    a violation, which is the more important fact and takes the witness
    slot. Completeness is "sampled" because the lower side always is. The
    lower check runs first: it refuses more than ``core.CUT_CAP`` terminals.
    """
    lower = metric_lower_check(g, beta, samples=samples, seed=seed)
    upper = metric_quality_upper(g, beta)
    witness = upper.witness if lower.lower_ok else lower.witness
    return QualityReport(METRIC, upper.q_value, lower.lower_ok, witness, SAMPLED)


def max_concurrent_flow(g: WeightedGraph | Sparsifier, demands: DemandSet) -> Fraction:
    """The largest fraction lambda of all demands routable at once.

    Computed from the dual: minimize alpha(d) over vertex metrics with the
    demand-weighted terminal distances summing to at least 1: over edge
    lengths with shortest-path rows past ``RAY_POINTS`` vertices, read off
    the metric cone's extreme rays on fewer (:func:`extension.terminal_pair_lp`).
    It is 0 when a positive demand joins terminals with no path between
    them. Demand endpoints are terminal-local, so one demand set applies to
    a graph and to its sparsifier unchanged. Demands must include a positive
    entry, otherwise lambda is meaningless.
    """
    if isinstance(g, Sparsifier):
        g = g.as_graph()
    if not demands.has_positive():
        raise ValueError("concurrent flow needs at least one positive demand")
    if demands.max_endpoint() >= g.k:
        raise ValueError(
            f"demand endpoint {demands.max_endpoint()} outside terminals 0..{g.k - 1}")
    coeffs: dict[tuple[int, int], Fraction] = {}
    for s, t, dem in demands.demands:
        if dem:
            key = pair(s, t)
            coeffs[key] = coeffs.get(key, ZERO) + dem
    result = terminal_pair_lp(g, "min", coeffs)
    # feasible by scaling, bounded below by 0
    lp.check(result.status == lp.OPTIMAL, "a concurrent-flow LP is always attained")
    return result.value


def flow_quality_probe(g: WeightedGraph, beta: Sparsifier, demands: DemandSet,
                       q_cap: Fraction | Unbounded | None = None) -> QualityReport:
    """Check the flow sandwich on one demand set D and report its ratio.

    lambda_G(D) <= lambda_H(D) <= Q * lambda_G(D), where Q is the exact
    metric quality upper bound. The upper one holds for every beta, so its
    failure raises :class:`FlowProbeError`; ``lower_ok`` records the lower
    one. q_value is lambda_H / lambda_G: unbounded when lambda_G = 0 <
    lambda_H, and 0 when both flows are 0. The witness is D. A caller that
    already holds ``metric_quality_upper(g, beta).q_value`` passes it as
    ``q_cap``; otherwise it is computed here.
    """
    _check_k(g, beta)
    if q_cap is None:
        q_cap = metric_quality_upper(g, beta).q_value
    lam_g = max_concurrent_flow(g, demands)
    lam_h = max_concurrent_flow(beta, demands)
    if not is_unbounded(q_cap) and lam_h > q_cap * lam_g:
        raise FlowProbeError(
            f"flow ratio exceeds metric quality {q_cap}: "
            f"{lam_h} > {q_cap} * {lam_g} on {demands.demands}")
    ratio = lam_h / lam_g if lam_g else (UNBOUNDED if lam_h else ZERO)
    return QualityReport(FLOW, ratio, lam_h >= lam_g, demands, SAMPLED)


def flow_quality(g: WeightedGraph, beta: Sparsifier,
                 q_cap: Fraction | Unbounded) -> QualityReport:
    """The worst lambda_H(D) / lambda_G(D) over all demand sets D, exactly.

    By LP duality it is the metric upper quality Q = ``q_cap``, reached at
    D = beta (its entries, sorted): lambda_H(beta) = 1 and lambda_G(beta)
    = 1/Q (Leighton & Moitra 2010; Charikar, Leighton, Li & Moitra 2010).
    An unbounded Q has lambda_G(beta) = 0 and gives an unbounded report.
    The probe's report on D must pass its lower check and equal Q, as for a
    collapsed operator, else :class:`FlowProbeError`. With no entry there is
    no demand to route and the report is 0, as Q is.
    """
    _check_k(g, beta)
    demands = DemandSet([(p, q, w) for (p, q), w in sorted(beta.beta.items())])
    if not demands.demands:
        return QualityReport(FLOW, ZERO, True, None, EXACT)
    report = flow_quality_probe(g, beta, demands, q_cap=q_cap)
    if not report.lower_ok or report.q_value != q_cap:
        raise FlowProbeError(f"flow ratio at D = beta is {report.q_value} (lower bound "
                             f"held: {report.lower_ok}), metric upper quality is {q_cap}")
    return report.replace(completeness=EXACT)


def evaluate_operator_distortion(phi: ExtensionOperator,
                                 g: WeightedGraph) -> Fraction | Unbounded:
    """Exact supremum of alpha(phi(d_Y)) / minext(d_Y), from phi and g alone.

    That is the metric upper quality of phi's collapse, whose beta(d_Y) is
    alpha(phi(d_Y)), the program of the solver's distortion probe. The caller
    vouches for membership (the oracle is public). It reproduces a
    solver-produced Q exactly; unbounded means no finite distortion bound
    holds for phi.
    """
    from .operators import operator_to_sparsifier  # operators imports this module
    g_c, _ = canonicalize(g)
    return metric_quality_upper(g_c, operator_to_sparsifier(phi, g_c)).q_value


# ---------------------------------------------------------------------------
# wire formats


def sparsifier_to_json(beta: Sparsifier) -> dict:
    return {
        "k": beta.k,
        "beta": [[p, q, jsonio.format_fraction(w)] for (p, q), w in sorted(beta.beta.items())],
    }


def sparsifier_from_json(data: object, path: str = "sparsifier") -> Sparsifier:
    obj = jsonio._expect_object(data, path, ("k", "beta"))
    k = jsonio._expect_int(obj["k"], f"{path}.k")
    beta: dict[tuple[int, int], Fraction] = {}
    for epath, (p, q, w) in jsonio._rows(obj["beta"], f"{path}.beta", "[p, q, value]"):
        if p == q:
            raise jsonio.JsonFormatError(epath, "pair endpoints must differ")
        key = pair(p, q)
        if key in beta:
            raise jsonio.JsonFormatError(epath, f"duplicate pair ({p}, {q})")
        beta[key] = w
    return jsonio._build(path, Sparsifier, k, beta)


def _witness_to_json(semantics: str, witness: object) -> object:
    if witness is None:
        return None
    if semantics == CUT:
        return witness
    if semantics == METRIC:
        return jsonio.metric_to_json(witness)
    return jsonio.demands_to_json(witness)["demands"]


def _witness_from_json(semantics: str, data: object, path: str) -> object:
    if data is None:
        return None
    if semantics == CUT:
        return jsonio._expect_int(data, path)
    if semantics == METRIC:
        return jsonio.metric_from_json(data, path)
    return jsonio._demand_rows(data, path)


def report_to_json(report: QualityReport) -> dict:
    if report.q_value is None:
        q: object = None
    elif is_unbounded(report.q_value):
        q = "unbounded"
    else:
        q = jsonio.format_fraction(report.q_value)
    return {
        "semantics": report.semantics,
        "q_value": q,
        "lower_ok": report.lower_ok,
        "witness": _witness_to_json(report.semantics, report.witness),
        "completeness": report.completeness,
    }


def report_from_json(data: object, path: str = "report") -> QualityReport:
    obj = jsonio._expect_object(
        data, path, ("semantics", "q_value", "lower_ok", "witness", "completeness"))
    semantics = obj["semantics"]
    if semantics not in (CUT, METRIC, FLOW):
        raise jsonio.JsonFormatError(f"{path}.semantics",
                                     f"unknown semantics {jsonio._quote(semantics)}")
    raw_q = obj["q_value"]
    if raw_q is None:
        q: Fraction | Unbounded | None = None
    elif raw_q == "unbounded":
        q = UNBOUNDED
    else:
        q = jsonio.parse_fraction(raw_q, f"{path}.q_value")
    lower_ok = obj["lower_ok"]
    if lower_ok is not None and not isinstance(lower_ok, bool):
        raise jsonio.JsonFormatError(f"{path}.lower_ok", "expected true, false or null")
    completeness = obj["completeness"]
    if completeness not in (EXACT, SAMPLED):
        raise jsonio.JsonFormatError(f"{path}.completeness",
                                     f"unknown completeness {jsonio._quote(completeness)}")
    witness = _witness_from_json(semantics, obj["witness"], f"{path}.witness")
    return QualityReport(semantics, q, lower_ok, witness, completeness)
