"""Minimum metric extensions and their combinatorial cross-checks.

``min_extension`` computes, by exact LP, the cheapest semimetric on all
vertices that agrees with a prescribed semimetric on the terminals; the
weighted cost counts each unordered pair once. Two independent oracles keep
it honest: the max-flow of :mod:`vsparse.mincut` (for cut metrics the
minimum extension is exactly a terminal min cut, which ``min_cut_via_lp``
reads off the LP) and exhaustive 0-extension enumeration (an upper bound
for arbitrary metrics).

``terminal_pair_lp`` is the program behind the metric upper quality and
the maximum concurrent flow: the ratio of a weighted sum of terminal
distances to alpha(d), over vertex metrics d. Past ``RAY_POINTS`` vertices
it runs, as ``min_extension`` does, over edge lengths, and its witness is
the shortest-path closure of the optimal lengths. Both add path rows by one
rule (:func:`_short_paths`): at a round's integer lengths, a terminal pair
whose shortest path is shorter than its bound, d_y or the pair's distance,
gets the row of that path and of every other two-edge path shorter too.

``MetricConeLp`` optimizes a linear objective over the metric cone on m
points, every pair distance a variable, under extra rows; its triangle rows
and the path rows go through one cutting-plane driver (:func:`_separate`).
Separation and max-flow compare integer numerators over one common positive
denominator, which decides exactly as the Fractions would, and every value
in and out stays a ``Fraction``. On at most six points the metric cone has
a short list of extreme rays (:func:`cone_rays`: the cut metrics, with 10
more on five points and the 265 non-cut rays on six, 296 in all), so a
cone LP with one extra row is read off them.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from fractions import Fraction
from math import lcm
from typing import Container, Iterable, Mapping, Sequence

from . import lp
from .core import (
    ONE,
    ZERO,
    FractionLike,
    Metric,
    Pair,
    Record,
    Value,
    WeightedGraph,
    all_pairs,
    as_fraction,
    cut_metric,
    floyd_warshall,
    integer_row,
    pair,
    zero_metric,
)
# perfbench's tracer finds the max-flow as ``vsparse.extension.min_cut_via_flow``
from .mincut import min_cut_via_flow


# ---------------------------------------------------------------------------
# extreme rays of the metric cone on at most six points

RAY_POINTS = 6  # cone_rays is known up to this many points

# One ray of each orbit of the 265 non-cut extreme rays on six points under
# relabeling, over all_pairs(6): the path metrics of K_{2,3} with a point
# doubled on its side of two (60 rays) or of three (90), of K_{2,4} (15), of
# K_{3,3} (10) and of K_{3,3} less an edge (90).
_SIX_POINT_ORBITS = (
    (0, 1, 1, 1, 2, 1, 1, 1, 2, 2, 2, 1, 2, 1, 1),
    (0, 1, 1, 2, 2, 1, 1, 2, 2, 2, 1, 1, 1, 1, 2),
    (1, 1, 1, 1, 2, 2, 2, 2, 1, 2, 2, 1, 2, 1, 1),
    (1, 1, 1, 2, 2, 2, 2, 1, 1, 2, 1, 1, 1, 1, 2),
    (1, 1, 1, 2, 2, 2, 2, 1, 1, 2, 1, 1, 1, 3, 2),
)


@functools.cache
def cone_rays(m: int) -> tuple[tuple[int, ...], ...]:
    """The extreme rays of the metric cone on 2 <= m <= 6 points, as integer
    distance vectors over ``all_pairs(m)``, the cut metrics first.

    For m <= 4 the metric cone is the cut cone, whose extreme rays are the
    2^(m-1) - 1 nonzero cut metrics. On five points the 10 path metrics of
    K_{2,3} (distance 1 across the two sides, 2 within a side) join the 15
    cuts. On six points 265 non-cut rays, in the five orbits of
    ``_SIX_POINT_ORBITS``, join the 31 cuts, in sorted order: 296 in all
    (Avis 1980; Deza & Laurent, *Geometry of Cuts and Metrics*, 1997). Every
    metric on m points is a nonnegative combination of these rays. Built on
    first use.
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
    elif m == 6:
        # relabeled rays as bytes, which sort as the tuples do: the 3335
        # repeats would otherwise park on CPython's tuple free list
        index, orbits = _pair_index(m), set()
        for s in itertools.permutations(range(m)):
            at = [index[pair(s[p], s[q])] for p, q in pairs]  # where s takes each pair
            orbits.update(bytes([ray[j] for j in at]) for ray in _SIX_POINT_ORBITS)
        rays += [tuple(ray) for ray in sorted(orbits)]
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


@functools.cache
def _ray_columns(m: int) -> tuple[tuple[int, ...], ...]:
    """The ray table of ``cone_rays(m)`` by columns, one per pair of
    ``all_pairs(m)``: the r-th entry of a column is the r-th ray's
    distance on that pair."""
    return tuple(zip(*cone_rays(m)))


def _on_rays(m: int, nums: Sequence[int]) -> list[int]:
    """A linear functional, given as integer numerators over ``all_pairs(m)``
    and one positive denominator, on every ray of ``cone_rays(m)``, times
    that denominator: the signs, and every ratio of two values, are exact.
    By columns: one pass over the rays per nonzero coefficient
    (:func:`_ray_columns`).

    A linear functional is at most 0 on the whole cone exactly when every
    entry is.
    """
    values = [0] * len(cone_rays(m))
    for column, c in zip(_ray_columns(m), nums):
        if c:
            values = [v + c * x for v, x in zip(values, column)]
    return values


@functools.cache
def _ray_masses(m: int) -> tuple[int, ...]:
    """The pair mass sum d of every ray of ``cone_rays(m)``: the
    normalization row sum d <= 1 on the rays."""
    return tuple([sum(ray) for ray in cone_rays(m)])


def _ray_optimum(m: int, sense: str, objective: Mapping[Pair, FractionLike],
                 row: tuple[Mapping[Pair, FractionLike], str, FractionLike]
                 ) -> MetricLpResult | None:
    """A one-row LP over the metric cone on m <= 6 points, read off
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
    if rhs <= 0:
        return None
    if len(coeffs) == len(_pair_index(m)) and all(c == 1 for c in coeffs.values()):
        a_rays, a_scale = _ray_masses(m), 1  # the normalization sum d <= 1
    else:
        a_nums, a_scale = _pair_numerators(m, coeffs)
        if min(a_nums) < 0:
            return None
        a_rays = _on_rays(m, a_nums)
    if rel == lp.GE and not any(a_rays):
        return MetricLpResult(lp.INFEASIBLE, None, None, None, 0)
    c_nums, c_scale = _pair_numerators(m, objective)
    sign = 1 if sense == "max" else -1
    best = None  # (sign * c.r, a.r, ray index) of the best vertex so far
    for r, cr, ar in zip(itertools.count(), _on_rays(m, [sign * c for c in c_nums]), a_rays):
        if cr > 0 and (ar == 0 or rel == lp.GE):
            return MetricLpResult(lp.UNBOUNDED, None, None, _ray_metric(m, r, ONE), 0)
        if ar and (best is None or cr * best[1] > best[0] * ar):
            best = (cr, ar, r)
    if rel == lp.LE and (best is None or best[0] <= 0):
        return MetricLpResult(lp.OPTIMAL, ZERO, zero_metric(m), None, 0)
    cr, ar, r = best
    # the optimal vertex is step * ray with step = rhs * a_scale / ar
    step_num, step_den = rhs.numerator * a_scale, rhs.denominator * ar
    value = Fraction(step_num * sign * cr, step_den * c_scale)
    witness = (_normalized_ray(m, r) if step_num * _ray_masses(m)[r] == step_den
               else _ray_metric(m, r, Fraction(step_num, step_den)))
    return MetricLpResult(lp.OPTIMAL, value, witness, None, 0)


def _pair_metric(m: int, nums: Sequence[int], scale: int) -> Metric:
    """The metric on m points whose distances over ``all_pairs(m)`` are the
    integers ``nums`` over the positive ``scale``."""
    table = [[0] * m for _ in range(m)]
    for (p, q), v in zip(all_pairs(m), nums):
        table[p][q] = table[q][p] = v
    return Metric.from_integers(table, scale)


def _ray_metric(m: int, r: int, step: Fraction) -> Metric:
    """``step`` times the r-th ray of ``cone_rays(m)``."""
    return _pair_metric(m, [v * step.numerator for v in cone_rays(m)[r]], step.denominator)


@functools.cache
def _normalized_ray(m: int, r: int) -> Metric:
    """The r-th ray of ``cone_rays(m)`` over its pair mass: the vertex it
    gives a program normalized by sum d <= 1, such as the membership probe."""
    return _ray_metric(m, r, Fraction(1, _ray_masses(m)[r]))


# ---------------------------------------------------------------------------
# LPs over the metric cone, with lazily generated triangle rows


class MetricLpResult(Record):
    """An outcome of :meth:`MetricConeLp.optimize`: its status, the objective
    ``value``, the optimal point as a full metric ``table`` or the improving
    direction ``ray_table`` when unbounded, and the cutting-plane ``rounds``,
    0 when read off the rays."""

    __slots__ = _fields = ("status", "value", "table", "ray_table", "rounds")

    def __init__(self, status: str, value: Fraction | None, table: Metric | None,
                 ray_table: Metric | None, rounds: int):
        self.status, self.value, self.table, self.ray_table = status, value, table, ray_table
        self.rounds = rounds


@functools.cache
def _triangle_rows(n: int, k: int = 0) -> tuple[tuple[tuple[int, int, int], int, int, int], ...]:
    """The triangle rows (i, j, l), d(i,j) <= d(i,l) + d(l,j), on n points in
    the order the scans read them, each with the positions of pairs ij, il
    and lj in ``all_pairs(n)``. Rows among the first k points are left out:
    there they are an operator's terminal rows, which the identity rows
    imply."""
    index = _pair_index(n)
    rows = []
    for i, j in index:
        for l in range(n):
            if l == i or l == j or (j < k and l < k):
                continue
            rows.append(((i, j, l), index[(i, j)], index[pair(i, l)], index[pair(l, j)]))
    return tuple(rows)


def _separate(program: lp.LinearProgram, oracle: lp.Oracle, rows: str) -> lp.CuttingPlaneResult:
    """``program`` solved under the rows ``oracle`` adds, by
    :func:`lp.cutting_plane`. Each row is one of the finitely many triangle
    or path ``rows`` and never repeats, so the round cap is a formality."""
    result = lp.cutting_plane(program, [oracle], max_rounds=100_000)
    if not result.converged:
        raise lp.CuttingPlaneError(f"{rows} separation did not converge")
    return result


class MetricConeLp:
    """An LP whose variables are the pair distances on m points, one
    nonnegative variable per pair of ``all_pairs(m)``, kept inside the
    metric cone by triangle rows added as they are violated, which is
    measurably faster than all rows up front and reaches the same optimal
    value (on a degenerate optimal face the witness can be another optimal
    vertex). A cone on at most six points with one extra row with
    nonnegative coefficients and a positive right-hand side skips the LP:
    its answer is read off the extreme rays (:func:`_ray_optimum`).
    """

    def __init__(self, m: int):
        self.m = m

    def _triangle_cuts(self, nums: Sequence[int]) -> list[lp.Constraint]:
        """The triangle rows violated at the point, or along the ray, whose
        integer numerators over ``all_pairs(m)`` are ``nums``; the positive
        common denominator changes no comparison, so it is not needed."""
        return [lp.Constraint.from_integers({ij: 1, il: -1, lj: -1}, lp.LE, 0, 1)
                for _, ij, il, lj in _triangle_rows(self.m) if nums[ij] > nums[il] + nums[lj]]

    def optimize(
        self,
        sense: str,
        objective: Mapping[Pair, Fraction],
        extra_rows: Iterable[tuple[Mapping[Pair, Fraction], str, Fraction]] = (),
    ) -> MetricLpResult:
        """Optimize a linear objective over the metric cone.

        ``objective`` and each extra row are keyed by pair. Returns the
        exact optimum with a full metric witness, or an improving ray
        direction when unbounded.
        """
        extra_rows = list(extra_rows)
        if len(extra_rows) == 1 and 2 <= self.m <= RAY_POINTS:
            result = _ray_optimum(self.m, sense, objective, extra_rows[0])
            if result is not None:
                return result
        index = _pair_index(self.m)
        program = lp.LinearProgram(len(index), sense)
        for pq, c in objective.items():
            program.set_objective_coeff(index[pq], c)
        for coeffs, rel, rhs in extra_rows:
            row: dict[int, Fraction] = {}
            for pq, c in coeffs.items():
                row[index[pq]] = row.get(index[pq], ZERO) + c
            program.add_constraint(row, rel, rhs)

        result = _separate(program, lambda out: self._triangle_cuts(
            (out.direction if out.status == lp.UNBOUNDED else out.point)[0]), "triangle")
        out = result.outcome
        if out.status == lp.OPTIMAL:
            return MetricLpResult(out.status, out.value, _pair_metric(self.m, *out.point), None,
                                  result.rounds)
        if out.status == lp.UNBOUNDED:
            return MetricLpResult(out.status, None, None, _pair_metric(self.m, *out.direction),
                                  result.rounds)
        return MetricLpResult(out.status, None, None, None, result.rounds)


# ---------------------------------------------------------------------------
# shortest paths and closures of integer edge lengths


def _adjacency(n: int, edges: Sequence[Pair]) -> list[list[tuple[int, int]]]:
    """Each vertex's neighbours along ``edges``, with the edge's column."""
    adjacent: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for j, (u, v) in enumerate(edges):
        adjacent[u].append((v, j))
        adjacent[v].append((u, j))
    return adjacent


def _shortest_paths(source: int, adjacent: Sequence[Sequence[tuple[int, int]]],
                    nums: Sequence[int], blocked: Container[int]
                    ) -> tuple[dict[int, int], dict[int, tuple[int, int]]]:
    """Dijkstra from ``source`` at the integer edge lengths ``nums`` over
    ``adjacent`` (:func:`_adjacency`), never continuing through a vertex of
    ``blocked`` but the source: each reached vertex's distance, and the
    vertex and edge column it was reached by. Ties settle at the lowest
    vertex and keep the first predecessor, so the paths are deterministic.
    """
    dist, via, done = {source: 0}, {}, set()
    heap = [(0, source)]
    while heap:
        du, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u != source and u in blocked:
            continue
        for v, j in adjacent[u]:
            dv = du + nums[j]
            if v not in dist or dv < dist[v]:
                dist[v], via[v] = dv, (u, j)
                heapq.heappush(heap, (dv, v))
    return dist, via


def _path(via: Mapping[int, tuple[int, int]], source: int, t: int) -> list[int]:
    """The edge columns of the path from ``source`` to t that
    :func:`_shortest_paths` found."""
    cols = []
    while t != source:
        t, j = via[t]
        cols.append(j)
    return cols


def _short_paths(source: int, adjacent: Sequence[Sequence[tuple[int, int]]],
                 nums: Sequence[int], blocked: Container[int],
                 bounds: Mapping[int, int]) -> list[tuple[int, list[int]]]:
    """The paths from ``source`` shorter than their target's bound at the
    integer edge lengths ``nums``, as (target, edge columns): for each
    target of ``bounds`` in turn whose shortest path not continuing through
    ``blocked`` (:func:`_shortest_paths`) is too short, that path and then
    every other too-short two-edge path through a vertex outside ``blocked``,
    which saves a dense graph rounds. Bounds are on the scale of ``nums``.
    """
    dist, via = _shortest_paths(source, adjacent, nums, blocked)
    near = dict(adjacent[source])  # each neighbour's edge column
    found = []
    for t, bound in bounds.items():
        if t in dist and dist[t] < bound:
            path = _path(via, source, t)
            found.append((t, path))
            found += [(t, [near[w], b]) for w, b in adjacent[t]
                      if w in near and w not in blocked and nums[near[w]] + nums[b] < bound
                      and {near[w], b} != set(path)]
    return found


def _closure(n: int, entries: Iterable[tuple[int, int, int]]) -> tuple[list[list[int]], int]:
    """The shortest-path table on n vertices of the integer lengths
    ``(u, v, length)``, by :func:`core.floyd_warshall`, and the sentinel,
    longer than any path, at which every pair with no path stays."""
    entries = list(entries)
    absent = 1 + sum([length for _, _, length in entries])
    ints = [[absent] * n for _ in range(n)]
    for v in range(n):
        ints[v][v] = 0
    for u, v, length in entries:
        ints[u][v] = ints[v][u] = length
    floyd_warshall(ints)
    return ints, absent


# ---------------------------------------------------------------------------
# minimum metric extension, over edge lengths


class ExtensionResult(Value):
    """Optimal value and an optimal extension witness.

    ``witness``, a full metric on the graph's vertices, is built from the
    integer closure ``(table, at, scale)`` on first read: vertex u sits at
    ``at[u]`` and d(u, v) is ``table[at[u]][at[v]] / scale``.
    """

    __slots__ = ("value", "_closure", "__dict__")  # the dict caches the witness
    _fields = ("value", "_closure")

    def __init__(self, value: Fraction, closure: tuple[list[list[int]], list[int], int]):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_closure", closure)

    @functools.cached_property
    def witness(self) -> Metric:
        table, at, scale = self._closure
        return Metric.from_integers([[table[u][v] for v in at] for u in at], scale)


def min_extension(g: WeightedGraph, d_y: Metric) -> ExtensionResult:
    """Cheapest semimetric on all of g's vertices agreeing with d_y on terminals.

    d_y is indexed terminal-locally: d_y(p, q) fixes the distance between
    g.terminals[p] and g.terminals[q]. The witness is a full metric whose
    restriction to the terminals reproduces d_y exactly and whose weighted
    cost equals the returned value exactly; both are checked on its integer
    table before it is built. Always attained: extensions are never
    infeasible and the nonnegative objective is never unbounded.

    The LP runs over edge lengths, the form of the metric relaxation of
    0-extension in Karzanov (1998) and Calinescu, Karloff & Rabani (2001):
    one length l_e >= 0 at cost w_e * l_e per weighted edge with a
    non-terminal endpoint, and the row sum_{e in P} l_e >= d_y(p, q) for
    each path P from terminal p to terminal q through non-terminals, added
    lazily by shortest-path separation (:func:`_short_paths`). An edge
    between two terminals adds the constant w * d_y(p, q). The value is the
    minimum extension's: an extension d gives feasible lengths l_e = d(e) at
    the same cost, by the triangle inequality along each path, and feasible
    lengths give an extension that costs no more, the witness: the
    shortest-path metric of the optimal lengths with d_y laid over the
    terminal pairs. A vertex with no path to a terminal sits on the first
    terminal.
    """
    if d_y.size != g.k:
        raise ValueError(f"metric has {d_y.size} points but the graph has {g.k} terminals")
    local = {t: p for p, t in enumerate(g.terminals)}
    edges = sorted(pq for pq in g.weights if pq[0] not in local or pq[1] not in local)
    program = lp.LinearProgram(len(edges), "min", {j: g.weights[pq] for j, pq in enumerate(edges)})
    adjacent = _adjacency(g.n, edges)
    w_nums, w_scale = g.integers
    d_nums, d_scale = d_y.integers
    const = Fraction(sum([w * d_nums[local[i]][local[j]] for (i, j), w in zip(g.weights, w_nums)
                          if i in local and j in local]), w_scale * d_scale)

    def oracle(out: lp.LpOutcome) -> list[lp.Constraint]:
        nums, scale = out.point  # lengths nums / scale against d_y, cross-multiplied
        lengths, cuts = [x * d_scale for x in nums], []
        for p, source in enumerate(g.terminals):
            need = d_nums[p]
            bounds = {g.terminals[q]: need[q] * scale for q in range(p + 1, g.k) if need[q]}
            if bounds:
                cuts += [lp.Constraint.from_integers(dict.fromkeys(path, d_scale), lp.GE,
                                                     need[local[t]], d_scale)
                         for t, path in _short_paths(source, adjacent, lengths, local, bounds)]
        return cuts

    result = _separate(program, oracle, "shortest-path")
    out = result.outcome
    lp.check(out.status == lp.OPTIMAL, "a minimum extension always exists")
    nums, scale = out.point
    common = lcm(scale, d_scale)
    held = [(t, s, d_nums[p][q] * (common // d_scale))
            for (p, t), (q, s) in itertools.combinations(enumerate(g.terminals), 2)]
    ints, absent = _closure(g.n, [(u, v, x * (common // scale))
                                  for (u, v), x in zip(edges, nums)] + held)
    lp.check(all(ints[t][s] == length for t, s, length in held),
             "extension witness moved a terminal distance")
    first = g.terminals[0]
    at = [v if ints[first][v] < absent else first for v in range(g.n)]
    value = out.value + const
    lp.check(sum([w * ints[at[u]][at[v]] for (u, v), w in zip(g.weights, w_nums)])
             * value.denominator == value.numerator * common * w_scale,
             "extension witness cost differs from LP value")
    return ExtensionResult(value, (ints, at, common))


def min_cut_via_lp(g: WeightedGraph, side: Iterable[int]) -> Fraction:
    """The same terminal min cut as the minimum extension of the cut metric."""
    return min_extension(g, cut_metric(side, g.k)).value


# ---------------------------------------------------------------------------
# metric upper quality and concurrent flow, over edge lengths


class PairLpResult(Value):
    """An outcome of :func:`terminal_pair_lp`.

    ``witness`` is a terminal metric: the restriction of an optimal point,
    or of an improving direction when the program is unbounded, in which
    case ``value`` is None.
    """

    __slots__ = _fields = ("status", "value", "witness")

    def __init__(self, status: str, value: Fraction | None, witness: Metric):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "witness", witness)


def terminal_pair_lp(g: WeightedGraph, sense: str,
                     coeffs: Mapping[Pair, Fraction]) -> PairLpResult:
    """The ratio of c(d) = sum coeffs[p, q] * d(p, q) to alpha(d) over the
    metrics d on g's vertices, in one of its two normalizations.

    ``coeffs`` is keyed by terminal-local pair and nonnegative. Sense "max"
    maximizes c(d) subject to alpha(d) <= 1: the metric upper quality of a
    sparsifier with beta = coeffs. Sense "min" minimizes alpha(d) subject to
    c(d) >= 1: the maximum concurrent flow of the demands coeffs, which needs
    a positive entry.

    A graph on at most ``RAY_POINTS`` vertices is read off the extreme rays
    of its metric cone (:class:`MetricConeLp`); a larger one runs over edge
    lengths (:func:`_edge_length_lp`).
    """
    if g.n > RAY_POINTS:
        return _edge_length_lp(g, sense, coeffs)
    objective = _vertex_pairs(g, coeffs)
    if sense == "max":
        result = MetricConeLp(g.n).optimize("max", objective, [(g.weights, lp.LE, ONE)])
    else:
        result = MetricConeLp(g.n).optimize("min", g.weights, [(objective, lp.GE, ONE)])
    table = result.ray_table if result.status == lp.UNBOUNDED else result.table
    return PairLpResult(result.status, result.value, table.restrict(g.terminals))


def _vertex_pairs(g: WeightedGraph, coeffs: Mapping[Pair, Fraction]) -> dict[Pair, Fraction]:
    """The nonzero coefficients of terminal-local pairs, keyed by the pairs
    of their terminal vertices."""
    return {pair(g.terminals[p], g.terminals[q]): c for (p, q), c in coeffs.items() if c}


def _edge_length_lp(g: WeightedGraph, sense: str,
                    coeffs: Mapping[Pair, Fraction]) -> PairLpResult:
    """:func:`terminal_pair_lp` over edge lengths.

    One length l_e >= 0 per weighted edge, then one distance x_pq >= 0 per
    pair of terminals with a coefficient that is not an edge, each in sorted
    pair order; a pair that is an edge reads its length. Sense "max" is
    max sum c * x subject to sum w * l <= 1, sense "min" is min sum w * l
    subject to sum c * x >= 1, and both keep x_pq - sum_{e in P} l_e <= 0
    for the paths P from p to q, through terminals too, added lazily by
    :func:`_short_paths` with each pair's distance as its bound. Before the
    first solve each distance column gets the row of its shortest path at
    the lengths 1 / w_e, so every round is bounded and every round after
    the first is warm. Each program is the metric one's: a metric gives
    feasible lengths and distances by the triangle inequality, and the
    shortest-path closure of optimal lengths is a metric that does as well,
    the witness. Terminals with no path between them sit at the closure's
    sentinel distance.

    A pair with no path between its terminals makes the ratio unbounded
    before any LP runs. For the first such pair (u, v), u < v, the cut
    metric of u's component extends at cost 0 and has c > 0: for "max" it
    is the improving direction, and "min" has the value 0 at it, scaled to
    c = 1.
    """
    objective = _vertex_pairs(g, coeffs)
    edges = sorted(g.weights)
    column = {pq: j for j, pq in enumerate(edges)}
    extra = sorted(pq for pq in objective if pq not in column)
    column.update((pq, len(edges) + i) for i, pq in enumerate(extra))
    adjacent = _adjacency(g.n, edges)
    w_nums = dict(zip(g.weights, g.integers[0]))
    top = lcm(*w_nums.values())
    inverse = [top // w_nums[pq] for pq in edges]  # the lengths 1 / w_e, scaled
    seeds = []
    for u, pairs in itertools.groupby(extra, key=lambda pq: pq[0]):
        dist, via = _shortest_paths(u, adjacent, inverse, ())
        for _, v in pairs:
            if v not in dist:
                cut = cut_metric([p for p, t in enumerate(g.terminals) if t in dist], g.k)
                if sense == "max":
                    return PairLpResult(lp.UNBOUNDED, None, cut)
                mass = sum([c for (p, q), c in objective.items() if (p in dist) != (q in dist)])
                return PairLpResult(lp.OPTIMAL, ZERO, cut.scale(ONE / mass))
            seeds.append(_distance_row(column[(u, v)], _path(via, u, v)))
    costs, row, rel = ((objective, g.weights, lp.LE) if sense == "max"
                       else (g.weights, objective, lp.GE))
    c_nums, c_scale = integer_row(list(objective.values())) if sense == "max" else g.integers
    program = lp.LinearProgram(len(column), sense, {column[pq]: c for pq, c in costs.items()})
    program.add_constraint({column[pq]: c for pq, c in row.items()}, rel, ONE)
    for con in seeds:
        program.add(con)
    targets: dict[int, dict[int, int]] = {}  # each pair's column, by its two vertices
    for u, v in sorted(objective):
        targets.setdefault(u, {})[v] = column[(u, v)]

    def oracle(out: lp.LpOutcome) -> list[lp.Constraint]:
        nums = out.point[0]
        return [_distance_row(ends[v], path) for u, ends in targets.items()
                for v, path in _short_paths(u, adjacent, nums, (),
                                            {v: nums[j] for v, j in ends.items()})]

    result = _separate(program, oracle, "shortest-path")
    out = result.outcome
    lp.check(out.status == lp.OPTIMAL, "a pair LP with a path for every pair is attained")
    nums, scale = out.point
    ints, _ = _closure(g.n, [(u, v, x) for (u, v), x in zip(edges, nums)])
    lp.check(sum([c * ints[u][v] for (u, v), c in zip(costs, c_nums)]) * out.value.denominator
             == out.value.numerator * scale * c_scale,
             "the closure of the optimal lengths misses the LP value")
    witness = Metric.from_integers([[ints[t][s] for s in g.terminals] for t in g.terminals], scale)
    return PairLpResult(lp.OPTIMAL, out.value, witness)


def _distance_row(j: int, path: Sequence[int]) -> lp.Constraint:
    """The row x_j - sum_{e in path} l_e <= 0."""
    return lp.Constraint.from_integers({j: 1, **dict.fromkeys(path, -1)}, lp.LE, 0, 1)


# ---------------------------------------------------------------------------
# exhaustive 0-extension


class ZeroExtension(Value):
    """A vertex-to-terminal collapse and its weighted cost.

    ``assignment[v]`` is the terminal-local index vertex v maps to;
    terminals map to themselves.
    """

    __slots__ = _fields = ("cost", "assignment")

    def __init__(self, cost: Fraction, assignment: tuple[int, ...]):
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "assignment", assignment)


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
