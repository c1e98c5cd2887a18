"""Metric extension operators and the exact optimal-distortion solve.

An extension operator is a nonnegative tensor phi taking a terminal metric
d_Y to a vertex metric phi(d_Y) that extends it; its distortion Q is the
worst ratio of the weighted cost of phi(d_Y) to the minimum extension cost
of d_Y. The optimal operator is found by a master LP over (phi, Q) whose one
separation oracle cuts by two lazy families, the first as the public
:func:`membership_oracle` separates it:

* membership cuts force every triangle row of the image cone, maximizing
  each row over the slice sum d <= 1 of the terminal metric cone. The scan
  runs on the operator as integer numerators over one positive
  denominator, for the master straight from its integer point. On at most
  six terminals it takes the image of each extreme ray of the terminal
  metric cone once (on six, the 31 cut metrics and 265 non-cut rays) and
  settles every row that no ray image violates; on more it settles the
  rows with no positive coefficient. Only the rows left become
  ``Fraction`` objectives;
* distortion cuts, tried only on a member iterate, bound the image cost
  against Q at the witness, extending at cost 1, of the metric upper
  quality of its collapse beta, as beta(d_Y) = alpha(phi(d_Y)).

Both cut families are one linear form, sum_x c_x * phi(d_Y)(x) <= c_Q * Q
on a witness d_Y, written by a single builder on integer numerators.

Everything runs in exact rational arithmetic, so the converged master value
is the true optimum, not an approximation. Operators index vertices in the
canonical order (terminals first); :func:`find_optimal_operator`
relabels its input accordingly and reports the relabeling.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import add, gt
from typing import Mapping, Sequence

from . import jsonio, lp, quality
from .core import (
    ONE,
    ZERO,
    FractionLike,
    Metric,
    Pair,
    Record,
    Sparsifier,
    Value,
    WeightedGraph,
    all_pairs,
    as_fraction,
    bipartitions,
    canonicalize,
    cut_metric,
    integer_row,
    is_unbounded,
    pair,
)
from .extension import (
    RAY_POINTS,
    MetricConeLp,
    _on_rays,
    _pair_index,
    _triangle_rows,
)
from .mincut import min_cut_via_flow


class ExtensionOperator(Value):
    """A nonnegative tensor phi_{ipjq}, keyed by (X-pair, Y-pair).

    X-pairs are canonical unordered vertex pairs with terminals at indices
    0..k-1; Y-pairs are terminal-local. Rows of terminal pairs are the
    identity (the image must reproduce d_Y on terminals exactly); the
    constructor injects them and rejects anything contradictory. Zero
    entries are dropped. Operators are equal when their tensors and their
    recorded ``distortion`` are; the hash reads the tensor alone.
    """

    n: int
    k: int
    coeffs: dict[tuple[Pair, Pair], Fraction]
    distortion: Fraction | None
    __slots__ = _fields = ("n", "k", "coeffs", "distortion")

    def __init__(self, n: int, k: int,
                 coeffs: Mapping[tuple[Pair, Pair], FractionLike],
                 distortion: FractionLike | None = None):
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k = {k}, n = {n}")
        norm: dict[tuple[Pair, Pair], Fraction] = {}
        for (xp, yp), value in coeffs.items():
            xp, yp = pair(*xp), pair(*yp)
            if (xp, yp) in norm:  # one entry keyed in two orientations
                raise ValueError(f"duplicate coefficient for {(xp, yp)}")
            if xp[0] < 0 or xp[1] >= n:
                raise ValueError(f"X-pair {xp} outside 0..{n - 1}")
            if yp[0] < 0 or yp[1] >= k:
                raise ValueError(f"Y-pair {yp} outside 0..{k - 1}")
            v = as_fraction(value)
            if v < 0:
                raise ValueError(f"coefficient of {(xp, yp)} is negative: {v}")
            if xp[1] < k and v != (ONE if xp == yp else ZERO):
                raise ValueError(
                    f"terminal row {xp} must be the identity, got {v} at {yp}")
            norm[(xp, yp)] = v
        for tp in all_pairs(k):
            norm[(tp, tp)] = ONE
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "coeffs", {key: v for key, v in norm.items() if v})
        object.__setattr__(self, "distortion", None if distortion is None else as_fraction(distortion))

    def __hash__(self) -> int:
        return hash((self.n, self.k, tuple(sorted(self.coeffs.items()))))


def operator_to_sparsifier(phi: ExtensionOperator, g: WeightedGraph) -> Sparsifier:
    """Collapse an operator against edge weights: beta_pq = sum alpha_ij phi_{ipjq}.

    ``g`` must be the canonical graph the operator was built for.
    """
    _require_canonical(phi, g)
    beta: dict[Pair, Fraction] = {}
    for (xp, yp), c in phi.coeffs.items():
        w = g.weights.get(xp, ZERO)
        if w and c:
            beta[yp] = beta.get(yp, ZERO) + w * c
    return Sparsifier(phi.k, beta)


def zero_extension_operator(n: int, k: int, assignment: Sequence[int]) -> ExtensionOperator:
    """The operator of a vertex collapse f: phi(d)(i, j) = d(f(i), f(j)).

    ``assignment[v]`` is a terminal-local index; terminals must map to
    themselves. Always a member of the operator cone, which makes these the
    classic comparison family for solver dominance checks.
    """
    if len(assignment) != n:
        raise ValueError(f"assignment has {len(assignment)} entries, expected {n}")
    for v, p in enumerate(assignment):
        if not 0 <= p < k:
            raise ValueError(f"assignment[{v}] = {p} outside 0..{k - 1}")
        if v < k and p != v:
            raise ValueError(f"terminal {v} must map to itself, got {p}")
    coeffs: dict[tuple[Pair, Pair], Fraction] = {}
    for i, j in all_pairs(n):
        if j < k:
            continue  # identity rows are injected by the constructor
        fi, fj = assignment[i], assignment[j]
        if fi != fj:
            coeffs[((i, j), pair(fi, fj))] = ONE
    return ExtensionOperator(n, k, coeffs)


def _require_canonical(phi: ExtensionOperator, g: WeightedGraph) -> None:
    if not g.is_canonical():
        raise ValueError("operator arithmetic expects the canonical graph (terminals first); "
                         "use core.canonicalize")
    if g.n != phi.n or g.k != phi.k:
        raise ValueError(f"operator is {phi.n}/{phi.k} but graph is {g.n}/{g.k}")


# ---------------------------------------------------------------------------
# membership separation


class MembershipViolation(Value):
    """A triangle row of the vertex metric cone the candidate image fails.

    ``where`` = (i, j, l) names the row d(i,j) <= d(i,l) + d(l,j). On the
    witness terminal metric (normalized to total pair mass 1) the image
    violates the row by ``excess`` > 0.
    """

    __slots__ = _fields = ("where", "witness", "excess")

    def __init__(self, where: tuple[int, int, int], witness: Metric, excess: Fraction):
        object.__setattr__(self, "where", where)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "excess", excess)


def _membership_scan(n: int, k: int, table: Sequence[Sequence[int]],
                     scale: int) -> list[MembershipViolation]:
    """The triangle rows of the image cone that some terminal metric violates.

    ``table`` holds the operator as integer numerators over the positive
    denominator ``scale``: row a, column b is the coefficient of the a-th
    X-pair of ``all_pairs(n)`` and the b-th Y-pair of ``all_pairs(k)``,
    terminal rows included. On at most ``RAY_POINTS`` terminals the image
    phi(r) of each extreme ray r of ``cone_rays(k)`` is taken on every X-pair
    once, by :func:`extension._on_rays`; a row that no ray image violates is
    at most 0 on every ray, so on the whole cone, and holds without a probe.
    On more terminals a row with no positive coefficient is at most 0 on
    every nonnegative metric and holds. Only the rows left are maximized
    over the slice sum d <= 1 of the terminal metric cone, with the
    functional in ``Fraction``s; a positive optimum is a violation.
    """
    if k < 2:
        return []  # a single terminal admits only the zero metric
    ypairs = all_pairs(k)
    norm_row = ({yp: ONE for yp in ypairs}, lp.LE, ONE)
    rows = _triangle_rows(n, k)
    if k <= RAY_POINTS:
        images = [_on_rays(k, t) for t in table]
        rows = [row for row in rows
                if any(map(gt, images[row[1]], map(add, images[row[2]], images[row[3]])))]
    found: list[MembershipViolation] = []
    for where, ij, il, lj in rows:
        row = [a - b - c for a, b, c in zip(table[ij], table[il], table[lj])]
        if max(row) <= 0:
            continue  # nonnegative metrics cannot push this row positive
        objective = {yp: Fraction(v, scale) for yp, v in zip(ypairs, row) if v}
        result = MetricConeLp(k).optimize("max", objective, [norm_row])
        lp.check(result.status == lp.OPTIMAL, "a normalized membership probe is bounded")
        if result.value > 0:
            found.append(MembershipViolation(where, result.witness, result.value))
    return found


def _operator_table(phi: ExtensionOperator) -> tuple[list[list[int]], int]:
    """``phi.coeffs`` as the integer table :func:`_membership_scan` reads."""
    nums, scale = integer_row(list(phi.coeffs.values()))
    ycol, xrow = _pair_index(phi.k), _pair_index(phi.n)
    table = [[0] * len(ycol) for _ in xrow]
    for (xp, yp), v in zip(phi.coeffs, nums):
        table[xrow[xp]][ycol[yp]] = v
    return table, scale


def membership_oracle(phi: ExtensionOperator) -> MembershipViolation | None:
    """Is phi(D_Y) inside the metric cone on the vertices?

    Separates on every triangle inequality of the image, each maximized over
    the slice sum d <= 1 of the terminal metric cone; the image of a
    nonnegative tensor is nonnegative, so no other row of the cone can
    fail. Returns None for members, otherwise the first violated row of the
    full scan with its witness metric, which then has sum d = 1.
    """
    hits = _membership_scan(phi.n, phi.k, *_operator_table(phi))
    return hits[0] if hits else None


# ---------------------------------------------------------------------------
# the optimal-operator master program


class OperatorSolveReport(Record):
    """Everything the cutting-plane solve produced.

    ``worst_metrics`` lists the recorded terminal metrics whose distortion
    constraints are binding at the final solution, paired with their exact
    minimum extension values; they certify the optimum. ``graph`` is the
    canonical relabeling actually solved and ``order[new] = old`` maps its
    vertices back to the input. ``metric_upper``, the last round's grading
    of a member iterate, grades the collapse ``sparsifier`` at ``q``; None
    unless converged.
    """

    __slots__ = _fields = ("operator", "q", "converged", "iterations", "membership_cuts",
                           "distortion_cuts", "worst_metrics", "graph", "order", "sparsifier",
                           "metric_upper")

    def __init__(self, operator: ExtensionOperator, q: Fraction, converged: bool,
                 iterations: int, membership_cuts: int, distortion_cuts: int,
                 worst_metrics: list[tuple[Metric, Fraction]], graph: WeightedGraph,
                 order: tuple[int, ...], sparsifier: Sparsifier,
                 metric_upper: quality.QualityReport | None):
        self.operator, self.q, self.converged, self.iterations = operator, q, converged, iterations
        self.membership_cuts, self.distortion_cuts = membership_cuts, distortion_cuts
        self.worst_metrics, self.graph, self.order = worst_metrics, graph, order
        self.sparsifier, self.metric_upper = sparsifier, metric_upper


def find_optimal_operator(g: WeightedGraph, max_iters: int = 10_000) -> OperatorSolveReport:
    """Minimize distortion over all extension operators of g, exactly.

    The master LP minimizes Q over (phi, Q) >= 0. It starts from the
    distortion constraints of all cut metrics (their minimum extensions are
    terminal min cuts, found by max-flow and binding surprisingly often). Each
    round then cuts by every violated membership row, or, when the iterate is
    a member, by the witness of its collapse's metric upper quality if that
    exceeds Q.
    With exact arithmetic every witness is a vertex of a fixed polytope, so
    the loop terminates; ``max_iters`` caps the rounds anyway and a capped
    run returns ``converged=False`` carrying the best master iterate.
    """
    g_c, order = canonicalize(g)
    n, k = g_c.n, g_c.k
    ypairs = all_pairs(k)
    entries = [(xp, yp) for xp in all_pairs(n) if xp[1] >= k for yp in ypairs]
    position = {entry: 1 + e for e, entry in enumerate(entries)}

    def operator_at(x: Sequence[Fraction]) -> ExtensionOperator:
        return ExtensionOperator(n, k, {entry: x[e] for entry, e in position.items() if x[e]},
                                 distortion=x[0])

    def image_cut(c_x: Mapping[Pair, FractionLike], d_y: Metric,
                  c_q: Fraction) -> lp.Constraint:
        # sum_xp c_x[xp] * phi(d_y)(xp) <= c_q * Q, terminal rows folded into
        # the rhs, written as integers over one denominator; the X-pairs of
        # c_x differ, so each column is written once
        cs, c_scale = integer_row(list(c_x.values()))
        d, d_scale = d_y.integers
        q_den = c_q.denominator
        scale = c_scale * d_scale
        coeffs = {0: -c_q.numerator * scale} if c_q else {}
        rhs = 0
        for xp, c in zip(c_x, cs):
            if xp[1] < k:
                rhs -= c * d[xp[0]][xp[1]]
                continue
            for yp in ypairs:
                dv = d[yp[0]][yp[1]]
                if dv:
                    coeffs[position[(xp, yp)]] = c * dv * q_den
        return lp.Constraint.from_integers(coeffs, lp.LE, rhs * q_den, scale * q_den)

    def distortion_cut(d_y: Metric, c_star: Fraction) -> lp.Constraint:
        cut = image_cut(g_c.weights, d_y, c_star)
        # A zero-cost witness zeroes every positive-weight terminal pair, so
        # the cut keeps a satisfiable zero right-hand side
        lp.check(c_star != 0 or cut.rhs_num == 0, "a zero-cost witness left a positive terminal term")
        return cut

    master = lp.LinearProgram(1 + len(entries), "min", {0: ONE})
    probed: quality.QualityReport | None = None  # the last member iterate's metric upper report
    membership_cuts = 0

    # a cut metric's min cut equals its min_extension: the min-cut LP is integral
    candidates = [(cut_metric(side, k), min_cut_via_flow(g_c, side)) for _, side in bipartitions(k)]
    for delta, c_s in candidates:
        master.add(distortion_cut(delta, c_s))
    seeded = len(candidates)

    # per X-pair of all_pairs(n): where its row starts in the master point,
    # or None and the 0/1 identity row of a terminal pair
    starts = itertools.count(1, len(ypairs))
    xrows = [(None, [int(yp == xp) for yp in ypairs]) if xp[1] < k else (next(starts), None)
             for xp in all_pairs(n)]

    def separate(out: lp.LpOutcome) -> list[lp.Constraint]:
        nonlocal membership_cuts, probed
        # the iterate as the integer table of _membership_scan, over the
        # point's own denominator
        nums, scale = out.point
        table = [[scale * u for u in unit] if start is None else nums[start:start + len(ypairs)]
                 for start, unit in xrows]
        hits = _membership_scan(n, k, table, scale)
        if hits:
            membership_cuts += len(hits)
            cuts = []
            for hit in hits:
                i, j, l = hit.where  # row ij - il - lj of the image on the witness
                cuts.append(image_cut({(i, j): 1, pair(i, l): -1, pair(l, j): -1},
                                      hit.witness, ZERO))
            return cuts
        # a member: phi's distortion is the metric upper quality of its
        # collapse, beta(d) = alpha(phi(d)), whose witness d has minext(d) = 1
        # (d / minext(d) would raise beta)
        probed = quality.metric_quality_upper(g_c, operator_to_sparsifier(operator_at(out.x), g_c))
        lp.check(not is_unbounded(probed.q_value), "the seeded cut rows bound the distortion probe")
        if probed.q_value <= out.x[0]:
            return []
        candidates.append((probed.witness, ONE))
        return [distortion_cut(probed.witness, ONE)]

    result = lp.cutting_plane(master, separate, max_rounds=max_iters)
    # Sending each non-terminal to a terminal of its component, or to the
    # first terminal in a component without one, is a 0-extension, a member,
    # that meets every row: where minext(d) = 0, d is 0 on the terminals of
    # each component, and so is the image's cost. The master is never
    # infeasible.
    lp.check(result.outcome.status == lp.OPTIMAL, "a 0-extension is feasible for the master")
    phi = operator_at(result.outcome.x)
    q = phi.distortion
    beta = operator_to_sparsifier(phi, g_c)  # beta(d) = alpha(phi(d))
    worst = [(d, c) for d, c in candidates if beta.cost(d) == q * c]
    return OperatorSolveReport(
        operator=phi,
        q=q,
        converged=result.converged,
        iterations=result.rounds,
        membership_cuts=membership_cuts,
        distortion_cuts=len(candidates) - seeded,
        worst_metrics=worst,
        graph=g_c,
        order=order,
        sparsifier=beta,
        metric_upper=probed if result.converged else None,
    )


# ---------------------------------------------------------------------------
# wire format


def operator_to_json(phi: ExtensionOperator) -> dict:
    """Spec wire form; requires a recorded distortion."""
    if phi.distortion is None:
        raise ValueError("operator has no recorded distortion; evaluate it first")
    rows = [
        [xp[0], xp[1], yp[0], yp[1], jsonio.format_fraction(c)]
        for (xp, yp), c in sorted(phi.coeffs.items())
    ]
    return {
        "n": phi.n,
        "k": phi.k,
        "Q": jsonio.format_fraction(phi.distortion),
        "coeffs": rows,
    }


def operator_from_json(data: object, path: str = "operator") -> ExtensionOperator:
    obj = jsonio._expect_object(data, path, ("n", "k", "Q", "coeffs"))
    n = jsonio._expect_int(obj["n"], f"{path}.n")
    k = jsonio._expect_int(obj["k"], f"{path}.k")
    q = jsonio.parse_fraction(obj["Q"], f"{path}.Q")
    coeffs: dict[tuple[Pair, Pair], Fraction] = {}
    for epath, (i, j, p, qq, c) in jsonio._rows(obj["coeffs"], f"{path}.coeffs",
                                                "[i, j, p, q, value]"):
        if i == j or p == qq:
            raise jsonio.JsonFormatError(epath, "pair endpoints must differ")
        key = (pair(i, j), pair(p, qq))
        if key in coeffs:
            raise jsonio.JsonFormatError(epath, f"duplicate coefficient for {key}")
        coeffs[key] = c
    return jsonio._build(path, ExtensionOperator, n, k, coeffs, q)
