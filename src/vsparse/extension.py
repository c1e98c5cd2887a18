"""Minimum metric extensions and their combinatorial cross-checks.

``min_extension`` computes, by exact LP, the cheapest semimetric on all
vertices that agrees with a prescribed semimetric on the terminals; the
weighted cost counts each unordered pair once. Two independent oracles keep it
honest: an augmenting-path max-flow (for cut metrics the minimum extension
is exactly a terminal min cut) and exhaustive 0-extension enumeration
(an upper bound for arbitrary metrics).

Triangle separation and max-flow compare integer numerators over one common
positive denominator, which decides exactly as the Fractions would. In a
metric-cone LP the pins are scaled once, each round's point or ray comes from
the LP outcome as integers, and each violated triangle row goes back to it as
integers (:meth:`lp.Constraint.from_integers`); ``Fraction``s are built only
for the objective, the extra rows and the result, so every value in and out
stays a ``Fraction``.

On at most five unpinned points the metric cone has a short list of extreme
rays (:func:`cone_rays`), so a cone LP with one extra row is read off them:
its optimal vertex, the apex, an improving ray or infeasibility. The LP
decides pinned cones, cones on more points and rows the rays cannot read.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import lp
from .core import (
    ONE,
    ZERO,
    FractionLike,
    Metric,
    Pair,
    WeightedGraph,
    all_pairs,
    alpha_cost,
    as_fraction,
    cut_metric,
    integer_row,
    pair,
    zero_metric,
)


# ---------------------------------------------------------------------------
# extreme rays of the metric cone on at most five points

RAY_POINTS = 5  # cone_rays is known up to this many points


@functools.cache
def cone_rays(m: int) -> tuple[tuple[int, ...], ...]:
    """The extreme rays of the metric cone on 2 <= m <= 5 points, as integer
    distance vectors over ``all_pairs(m)``.

    For m <= 4 the metric cone is the cut cone, whose extreme rays are the
    2^(m-1) - 1 nonzero cut metrics. On five points the 10 path metrics of
    K_{2,3} (distance 1 across the two sides, 2 within a side) join the 15
    cuts (Deza & Laurent, *Geometry of Cuts and Metrics*, 1997). Every
    metric on m points is a nonnegative combination of these rays.
    """
    if not 2 <= m <= RAY_POINTS:
        raise ValueError(f"extreme rays are listed for 2..{RAY_POINTS} points, not {m}")
    pairs = all_pairs(m)
    rays = []
    for mask in range(1, 1 << (m - 1)):  # sides avoiding point m-1: no complements
        rays.append(tuple(int((mask >> p & 1) != (mask >> q & 1)) for p, q in pairs))
    if m == 5:
        for two in itertools.combinations(range(m), 2):
            rays.append(tuple(1 if (p in two) != (q in two) else 2 for p, q in pairs))
    return tuple(rays)


@functools.cache
def _pair_index(m: int) -> dict[Pair, int]:
    return {pq: j for j, pq in enumerate(all_pairs(m))}


def _pair_numerators(m: int, values: Mapping[Pair, FractionLike]) -> tuple[list[int], int]:
    """A pair-keyed mapping as integer numerators over ``all_pairs(m)`` and
    their positive common denominator."""
    index = _pair_index(m)
    nums, scale = integer_row([as_fraction(c) for c in values.values()])
    dense = [0] * len(index)
    for pq, v in zip(values, nums):
        dense[index[pq]] = v
    return dense, scale


def _on_rays(m: int, nums: Sequence[int]) -> list[int]:
    """A linear functional, given as integer numerators over ``all_pairs(m)``
    and one positive denominator, on every ray of ``cone_rays(m)``, times
    that denominator: the signs, and every ratio of two values, are exact.

    A linear functional is at most 0 on the whole cone exactly when every
    entry is.
    """
    nonzero = [(j, c) for j, c in enumerate(nums) if c]
    return [sum([c * ray[j] for j, c in nonzero]) for ray in cone_rays(m)]


def _ray_optimum(m: int, sense: str, objective: Mapping[Pair, FractionLike],
                 row: tuple[Mapping[Pair, FractionLike], str, FractionLike]
                 ) -> MetricLpResult | None:
    """A one-row LP over the unpinned metric cone on m <= 5 points, read off
    the extreme rays, or None when the LP has to decide.

    With nonnegative row coefficients a and right-hand side b > 0, the
    vertices of the feasible set are the points b * r / (a.r) of the rays
    with a.r > 0, plus the apex 0 for a "<=" row; rays with a.r = 0 (every
    ray for ">=") are recession directions. In this order: a ">=" row with
    a = 0 (a.r = 0 on every ray) is infeasible; the first recession ray that
    improves the objective is returned as the unbounded ``ray_table``;
    otherwise the optimum is the vertex of the best c.r / a.r, ties to the
    first ray in ``cone_rays(m)`` order, or for a "<=" row the apex
    ``zero_metric(m)`` when no ray beats 0. Every answer is a vertex or an
    extreme ray of the program. A negative coefficient or b <= 0 is left to
    the LP.
    """
    coeffs, rel, rhs = row
    if sense not in ("min", "max") or rel not in (lp.LE, lp.GE):
        raise lp.LpError(f"cannot {sense!r} over a {rel!r} row")
    rhs = as_fraction(rhs)
    a_nums, a_scale = _pair_numerators(m, coeffs)
    if rhs <= 0 or min(a_nums) < 0:
        return None
    if rel == lp.GE and not any(a_nums):
        return MetricLpResult(lp.INFEASIBLE, None, None, None, 0)
    c_nums, c_scale = _pair_numerators(m, objective)
    sign = 1 if sense == "max" else -1
    best = None  # (ray index, sign * c.r, a.r) of the best vertex so far
    for r, (cr, ar) in enumerate(zip(_on_rays(m, c_nums), _on_rays(m, a_nums))):
        cr *= sign
        if cr > 0 and (ar == 0 or rel == lp.GE):
            return MetricLpResult(lp.UNBOUNDED, None, None, _ray_metric(m, r, ONE), 0)
        if ar and (best is None or cr * best[2] > best[1] * ar):
            best = (r, cr, ar)
    if rel == lp.LE and (best is None or best[1] <= 0):
        return MetricLpResult(lp.OPTIMAL, ZERO, zero_metric(m), None, 0)
    r, cr, ar = best
    # the optimal vertex is step * ray with step = rhs * a_scale / ar
    step_num, step_den = rhs.numerator * a_scale, rhs.denominator * ar
    value = Fraction(step_num * sign * cr, step_den * c_scale)
    witness = (_normalized_ray(m, r) if step_num * sum(cone_rays(m)[r]) == step_den
               else _ray_metric(m, r, Fraction(step_num, step_den)))
    return MetricLpResult(lp.OPTIMAL, value, witness, None, 0)


def _ray_metric(m: int, r: int, step: Fraction) -> Metric:
    """``step`` times the r-th ray of ``cone_rays(m)``, as a metric."""
    table = [[ZERO] * m for _ in range(m)]
    for (p, q), v in zip(all_pairs(m), cone_rays(m)[r]):
        table[p][q] = table[q][p] = step * v
    return Metric(table)


@functools.cache
def _normalized_ray(m: int, r: int) -> Metric:
    """The r-th ray of ``cone_rays(m)`` over its pair mass: the vertex it
    gives a program normalized by sum d <= 1, such as the membership probe."""
    return _ray_metric(m, r, Fraction(1, sum(cone_rays(m)[r])))


# ---------------------------------------------------------------------------
# LPs over the metric cone, with lazily generated triangle rows


@dataclass
class MetricLpResult:
    status: str
    value: Fraction | None      # objective value, pinned constants included
    table: Metric | None        # optimal point as a full metric (pins merged)
    ray_table: Metric | None    # improving direction when unbounded (pins read 0)
    rounds: int                 # cutting-plane rounds; 0 when read off the rays


@functools.cache
def _cone_triangles(m: int) -> tuple[tuple[int, int, int], ...]:
    """The triangle rows d(i,j) <= d(i,l) + d(l,j) on m points in the order
    triangle separation scans them, each as the positions of pairs ij, il
    and lj in ``all_pairs(m)``."""
    index = _pair_index(m)
    rows = []
    for a, b, c in itertools.combinations(range(m), 3):
        for i, j, l in ((a, b, c), (a, c, b), (b, c, a)):
            rows.append((index[(i, j)], index[pair(i, l)], index[pair(l, j)]))
    return tuple(rows)


class MetricConeLp:
    """An LP whose variables are pair distances on m points, kept inside the
    metric cone.

    Some pairs may be pinned to constants taken from a valid metric; the
    rest are nonnegative variables. Triangle inequalities are not
    materialized up front: a separation oracle adds the violated ones
    through :func:`lp.cutting_plane`, which is measurably faster and reaches
    the same optimal value (on a degenerate optimal face the witness can be
    another optimal vertex). Rows and points cross that loop as integers:
    the pins are scaled once to numerators over one denominator, each round's
    point or ray is read as the outcome's integer numerators, and each
    violated row is built from coefficients of plus or minus one and pin
    numerators (:meth:`lp.Constraint.from_integers`). ``Fraction``s are
    built only for the objective, the extra rows and the returned result. An
    unpinned cone on at most five points with one extra row with nonnegative
    coefficients and a positive right-hand side skips the LP: its answer is
    read off the extreme rays (:func:`_ray_optimum`).
    """

    def __init__(self, m: int, pinned: Mapping[Pair, Fraction] | None = None):
        self.m = m
        self.pinned = dict(pinned) if pinned else {}
        self.var_pairs = [pq for pq in all_pairs(m) if pq not in self.pinned]
        self.index = {pq: j for j, pq in enumerate(self.var_pairs)}

    @functools.cached_property
    def _scaled_pins(self) -> tuple[list[tuple[int | None, int]], int]:
        """Per pair of ``all_pairs(m)``, its variable's column, or None and the
        pin's numerator; and the pins' positive common denominator. Built on
        the first triangle separation, so a cone read off its rays never
        scales its pins."""
        pin_nums, pin_scale = integer_row(list(self.pinned.values()))
        pin_of = dict(zip(self.pinned, pin_nums))
        return [(self.index.get(pq), pin_of.get(pq, 0)) for pq in all_pairs(self.m)], pin_scale

    def _full_values(self, x: Sequence[Fraction], pins_zero: bool) -> list[list[Fraction]]:
        rows = [[ZERO] * self.m for _ in range(self.m)]
        for pq, v in self.pinned.items():
            val = ZERO if pins_zero else v
            rows[pq[0]][pq[1]] = rows[pq[1]][pq[0]] = val
        for pq, j in self.index.items():
            rows[pq[0]][pq[1]] = rows[pq[1]][pq[0]] = x[j]
        return rows

    def _triangle_cuts(self, nums: Sequence[int], scale: int) -> list[lp.Constraint]:
        """The violated triangle rows at the point ``nums / scale``, or along
        the ray ``nums`` with the pins read 0 when ``scale`` is 0.

        Every distance is compared as its value times ``scale * pin_scale``,
        which decides each triangle as the Fractions would. Two triangles
        with only one unpinned pair can give the same row; it is returned
        once.
        """
        slots, ps = self._scaled_pins
        vals = [pin * scale if j is None else nums[j] * ps for j, pin in slots]
        cuts = []
        rows = set()
        for ij, il, lj in _cone_triangles(self.m):
            if vals[ij] > vals[il] + vals[lj]:
                coeffs: dict[int, int] = {}
                rhs = 0
                for pos, sgn in ((ij, 1), (il, -1), (lj, -1)):
                    j, pin = slots[pos]
                    if j is None:
                        rhs -= sgn * pin
                    else:
                        coeffs[j] = sgn * ps
                cut = lp.Constraint.from_integers(coeffs, lp.LE, rhs, ps)
                row = (cut.cols, cut.nums, cut.rhs_num)
                if row not in rows:
                    rows.add(row)
                    cuts.append(cut)
        return cuts

    def optimize(
        self,
        sense: str,
        objective: Mapping[Pair, Fraction],
        extra_rows: Iterable[tuple[Mapping[Pair, Fraction], str, Fraction]] = (),
    ) -> MetricLpResult:
        """Optimize a linear objective over the (pinned) metric cone.

        ``objective`` and each extra row are keyed by pair; coefficients on
        pinned pairs become constants. Returns the exact optimum with a full
        metric witness, or an improving ray direction when unbounded.
        """
        extra_rows = list(extra_rows)
        if not self.pinned and len(extra_rows) == 1 and 2 <= self.m <= RAY_POINTS:
            result = _ray_optimum(self.m, sense, objective, extra_rows[0])
            if result is not None:
                return result
        program = lp.LinearProgram(len(self.var_pairs), sense)
        const = ZERO
        for pq, c in objective.items():
            if pq in self.index:
                program.set_objective_coeff(self.index[pq], c)
            else:
                const += c * self.pinned[pq]
        for coeffs, rel, rhs in extra_rows:
            row: dict[int, Fraction] = {}
            for pq, c in coeffs.items():
                if pq in self.index:
                    row[self.index[pq]] = row.get(self.index[pq], ZERO) + c
                else:
                    rhs = rhs - c * self.pinned[pq]
            program.add_constraint(row, rel, rhs)

        def oracle(out: lp.LpOutcome) -> list[lp.Constraint]:
            if out.status == lp.UNBOUNDED:
                return self._triangle_cuts(out.direction[0], 0)
            return self._triangle_cuts(*out.point)

        # Every cut is one of the finitely many triangle rows and never
        # repeats, so the round cap is a formality.
        result = lp.cutting_plane(program, [oracle], max_rounds=100_000)
        if not result.converged:
            raise lp.CuttingPlaneError("triangle separation did not converge")
        out = result.outcome
        if out.status == lp.OPTIMAL:
            table = Metric(self._full_values(out.x, pins_zero=False))
            return MetricLpResult(out.status, out.value + const, table, None, result.rounds)
        if out.status == lp.UNBOUNDED:
            ray = Metric(self._full_values(out.ray, pins_zero=True))
            return MetricLpResult(out.status, None, None, ray, result.rounds)
        return MetricLpResult(out.status, None, None, None, result.rounds)


# ---------------------------------------------------------------------------
# minimum metric extension


@dataclass(frozen=True)
class ExtensionResult:
    """Optimal value and an optimal extension witness."""

    value: Fraction
    witness: Metric


def min_extension(g: WeightedGraph, d_y: Metric) -> ExtensionResult:
    """Cheapest semimetric on all of g's vertices agreeing with d_y on terminals.

    d_y is indexed terminal-locally: d_y(p, q) pins the distance between
    g.terminals[p] and g.terminals[q]. The witness is a full metric whose
    restriction to the terminals reproduces d_y exactly and whose weighted
    cost equals the returned value exactly. Always attained: extensions are
    never infeasible and the nonnegative objective is never unbounded.
    """
    if d_y.size != g.k:
        raise ValueError(f"metric has {d_y.size} points but the graph has {g.k} terminals")
    pinned = {
        pair(g.terminals[p], g.terminals[q]): d_y.dist(p, q)
        for p, q in all_pairs(g.k)
    }
    cone = MetricConeLp(g.n, pinned)
    objective = {pq: w for pq, w in g.weights.items() if w}
    result = cone.optimize("min", objective)
    lp.check(result.status == lp.OPTIMAL, "a minimum extension always exists")
    witness = result.table
    lp.check(witness.restrict(g.terminals) == d_y, "extension witness moved a terminal distance")
    lp.check(alpha_cost(g, witness) == result.value, "extension witness cost differs from LP value")
    return ExtensionResult(result.value, witness)


# ---------------------------------------------------------------------------
# terminal min cuts, via LP and via max-flow


def _max_flow(n: int, capacity: dict[tuple[int, int], int | Fraction],
              s: int, t: int) -> int | Fraction:
    """Exact max-flow by shortest augmenting paths (arc count bounds the
    number of augmentations, so rational capacities terminate).

    Capacities are ints or Fractions; the flow comes back in the same kind.
    """
    residual: list[dict[int, int | Fraction]] = [dict() for _ in range(n)]
    for (u, v), c in capacity.items():
        if c:
            residual[u][v] = residual[u].get(v, 0) + c
            residual[v][u] = residual[v].get(u, 0) + c
    flow = 0
    while True:
        parent: list[int | None] = [None] * n
        parent[s] = s
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if u == t:
                break
            for v, c in residual[u].items():
                if c > 0 and parent[v] is None:
                    parent[v] = u
                    queue.append(v)
        if parent[t] is None:
            return flow
        bottleneck = None
        v = t
        while v != s:
            u = parent[v]
            c = residual[u][v]
            bottleneck = c if bottleneck is None or c < bottleneck else bottleneck
            v = u
        v = t
        while v != s:
            u = parent[v]
            residual[u][v] -= bottleneck
            residual[v][u] = residual[v].get(u, 0) + bottleneck
            v = u
        flow += bottleneck


def _terminal_side(g: WeightedGraph, side: Iterable[int]) -> set[int]:
    """``side`` as a set, checked to be a nonempty proper subset of 0..k-1."""
    side_set = set(side)
    if not side_set or len(side_set) >= g.k:
        raise ValueError("cut side must be a nonempty proper subset of the terminals")
    for p in side_set:
        if not 0 <= p < g.k:
            raise ValueError(f"terminal index {p} outside 0..{g.k - 1}")
    return side_set


def min_cut_via_flow(g: WeightedGraph, side: Iterable[int]) -> Fraction:
    """Minimum weight of edges separating the terminals in ``side`` from the
    rest, non-terminals falling freely; computed by max-flow on the graph
    with each terminal group contracted to a single node.

    The flow runs on integer capacities, the weights scaled by the lcm of
    their denominators, and is scaled back to an exact Fraction. ``side``
    holds terminal-local indices and must be a nonempty proper subset of
    0..k-1.
    """
    side_set = _terminal_side(g, side)
    node_of: dict[int, int] = {}
    for p, t in enumerate(g.terminals):
        node_of[t] = 0 if p in side_set else 1
    nxt = 2
    for v in range(g.n):
        if v not in node_of:
            node_of[v] = nxt
            nxt += 1
    weights, scale = integer_row(list(g.weights.values()))
    capacity: dict[tuple[int, int], int] = {}
    for (i, j), w in zip(g.weights, weights):
        u, v = node_of[i], node_of[j]
        if u == v or not w:
            continue
        key = (u, v) if u < v else (v, u)
        capacity[key] = capacity.get(key, 0) + w
    return Fraction(_max_flow(nxt, capacity, 0, 1), scale)


def min_cut_via_lp(g: WeightedGraph, side: Iterable[int]) -> Fraction:
    """The same terminal min cut as the minimum extension of the cut metric."""
    return min_extension(g, cut_metric(side, g.k)).value


def min_cut_by_enumeration(g: WeightedGraph, side: Iterable[int],
                           budget: int = 1_000_000) -> Fraction:
    """Terminal min cut by brute force over all 2^(n-k) vertex bipartitions.

    Independent of both the LP and the max-flow routes, which makes it the
    tie-breaking referee in oracle cross-checks. Raises ValueError when the
    enumeration would exceed ``budget`` bipartitions.
    """
    side_set = _terminal_side(g, side)
    free = [v for v in range(g.n) if v not in g.terminals]
    if 1 << len(free) > budget:
        raise ValueError(
            f"enumerating 2^{len(free)} bipartitions exceeds budget {budget}")
    pinned = {g.terminals[p] for p in side_set}
    best: Fraction | None = None
    for mask in range(1 << len(free)):
        inside = pinned | {free[a] for a in range(len(free)) if mask >> a & 1}
        value = sum(
            (w for (i, j), w in g.weights.items() if (i in inside) != (j in inside)),
            ZERO,
        )
        if best is None or value < best:
            best = value
    return best


# ---------------------------------------------------------------------------
# exhaustive 0-extension


@dataclass(frozen=True)
class ZeroExtension:
    """A vertex-to-terminal collapse and its weighted cost.

    ``assignment[v]`` is the terminal-local index vertex v maps to;
    terminals map to themselves.
    """

    cost: Fraction
    assignment: tuple[int, ...]


def best_zero_extension(g: WeightedGraph, d_y: Metric,
                        budget: int = 10_000_000) -> ZeroExtension:
    """Cheapest 0-extension by exhaustive enumeration of k^(n-k) assignments.

    Ties break to the lexicographically smallest assignment, so the result
    is deterministic. Raises ValueError when the enumeration would exceed
    ``budget`` assignments. The cost always dominates min_extension(g, d_y).
    """
    if d_y.size != g.k:
        raise ValueError(f"metric has {d_y.size} points but the graph has {g.k} terminals")
    free = [v for v in range(g.n) if v not in set(g.terminals)]
    count = g.k ** len(free)
    if count > budget:
        raise ValueError(
            f"0-extension enumeration needs {count} assignments, over the budget of {budget}")
    local = {t: p for p, t in enumerate(g.terminals)}
    edges = [(i, j, w) for (i, j), w in g.weights.items() if w]
    best_cost: Fraction | None = None
    best_assignment: tuple[int, ...] | None = None
    for choice in itertools.product(range(g.k), repeat=len(free)):
        f = dict(zip(free, choice))
        f.update(local)
        cost = ZERO
        for i, j, w in edges:
            fi, fj = f[i], f[j]
            if fi != fj:
                cost += w * d_y.dist(fi, fj)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_assignment = tuple(f[v] for v in range(g.n))
    return ZeroExtension(best_cost, best_assignment)
