"""Minimum extensions, terminal min cuts, and the 0-extension oracle."""

import itertools
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from vsparse import (
    DemandSet,
    Sparsifier,
    WeightedGraph,
    all_pairs,
    alpha_cost,
    best_zero_extension,
    cut_metric,
    lp,
    max_concurrent_flow,
    min_cut_by_enumeration,
    min_cut_via_flow,
    min_cut_via_lp,
    min_extension,
    pair,
    zero_metric,
)
from vsparse import extension
from vsparse.extension import MetricConeLp, terminal_pair_lp
from vsparse.sampling import random_fraction, random_graph, random_metric
from helpers import (cone_minimum, held_rows, metric_closure, metric_sum, path3,
                     reference_min_extension, reference_pair_lp, unit_star, weighted_star)

F = Fraction


# --- the metric-cone LP ------------------------------------------------

def test_cone_lp_minimizes_pinned_triangle_slack():
    # min d(0,1) with d(0,2) = d(1,2) = 1 held by rows: interval [0, 2]; the
    # minimum is the negated maximum of -d(0,1)
    cone = MetricConeLp(3)
    rows = held_rows({(0, 2): F(1), (1, 2): F(1)})
    low = cone_minimum(3, {(0, 1): F(1)}, rows)
    high = cone.optimize({(0, 1): F(1)}, rows)
    assert (low.value, high.value) == (0, 2)
    assert high.witness.dist(0, 1) == 2


def test_cone_lp_reports_rays():
    cone = MetricConeLp(2)
    out = cone.optimize({(0, 1): F(1)})
    assert out.status == "unbounded"
    assert out.witness.dist(0, 1) > 0


def test_cone_lp_counts_pinned_constants_in_the_value():
    out = cone_minimum(3, {(0, 1): F(2), (0, 2): F(1)}, held_rows({(0, 1): F(5)}))
    assert out.value == 10  # 2*5 plus the free minimum 0


@pytest.mark.parametrize("rel,rhs,status", [
    ("<=", F(13, 2), "optimal"), ("<=", F(6), "infeasible"),
    (">=", F(13, 2), "optimal"), (">=", F(7), "infeasible"),
])
def test_cone_lp_on_a_fully_pinned_cone_checks_its_row(rel, rhs, status):
    # Every pair held by rows: the program is the constant 2*2 + 3 = 7 under
    # the row 2*d(0,1) + d(1,2) = 13/2 rel rhs, decided in one round.
    pins = {(0, 1): F(2), (0, 2): F(3), (1, 2): F(5, 2)}
    out = MetricConeLp(3).optimize(
        {(0, 1): F(2), (0, 2): F(1)},
        [*held_rows(pins), ({(0, 1): F(2), (1, 2): F(1)}, rel, rhs)])
    assert (out.status, out.rounds) == (status, 1)
    if status == "optimal":
        assert out.value == 7
        assert [out.witness.dist(*pq) for pq in pins] == list(pins.values())
    else:
        assert out.value is None and out.witness is None


# --- min_extension -----------------------------------------------------

def test_extension_with_nothing_to_extend():
    g = WeightedGraph(3, [0, 1, 2], {(0, 1): 1, (1, 2): F(1, 2)})
    d = metric_closure([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    res = min_extension(g, d)
    assert res.value == alpha_cost(g, d)
    assert res.witness.rows == d.rows


def test_extension_of_unit_distance_on_path_costs_the_mincut():
    g = path3()
    d = cut_metric([0], 2)
    res = min_extension(g, d)
    assert res.value == min_cut_via_flow(g, [0]) == 1


def test_extension_of_zero_metric_is_free():
    res = min_extension(unit_star(), zero_metric(3))
    assert res.value == 0
    assert res.witness == zero_metric(4)


def test_extension_rejects_wrong_size():
    with pytest.raises(ValueError):
        min_extension(path3(), zero_metric(3))
    with pytest.raises(ValueError, match="metric has 3 points but the graph has 2 terminals"):
        best_zero_extension(path3(), zero_metric(3))


@pytest.mark.parametrize("seed", range(15))
def test_extension_witness_invariants(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(3, 6), rng.randint(1, 3))
    d = random_metric(rng, g.k)
    res = min_extension(g, d)
    assert res.witness.restrict(g.terminals).rows == d.rows
    assert alpha_cost(g, res.witness) == res.value


@pytest.mark.parametrize("seed", range(10))
def test_extension_is_convex_in_the_metric(seed):
    rng = random.Random(100 + seed)
    g = random_graph(rng, rng.randint(3, 6), rng.randint(2, 3))
    d1 = random_metric(rng, g.k)
    d2 = random_metric(rng, g.k)
    lam = F(rng.randint(0, 8), 8)
    mixed = metric_sum(g.k, [d1.scale(lam), d2.scale(1 - lam)])
    bound = lam * min_extension(g, d1).value + (1 - lam) * min_extension(g, d2).value
    assert min_extension(g, mixed).value <= bound


@pytest.mark.parametrize("seed", range(10))
def test_extension_is_monotone(seed):
    rng = random.Random(200 + seed)
    g = random_graph(rng, rng.randint(3, 6), rng.randint(2, 3))
    small = random_metric(rng, g.k)
    # inflate some entries, then re-close so the table stays a metric and
    # dominates the original entrywise
    bumped = [list(row) for row in small.rows]
    for p, q in itertools.combinations(range(g.k), 2):
        bump = F(rng.randint(0, 3), 2)
        bumped[p][q] = bumped[q][p] = bumped[p][q] + bump
    big = metric_closure(bumped)
    if all(big.dist(p, q) >= small.dist(p, q)
           for p, q in itertools.combinations(range(g.k), 2)):
        assert min_extension(g, big).value >= min_extension(g, small).value


@pytest.mark.parametrize("seed", range(10))
def test_extension_is_homogeneous(seed):
    rng = random.Random(300 + seed)
    g = random_graph(rng, rng.randint(3, 6), rng.randint(1, 3))
    d = random_metric(rng, g.k)
    c = F(rng.randint(0, 7), rng.randint(1, 4))
    assert min_extension(g, d.scale(c)).value == c * min_extension(g, d).value


# --- min_extension against the pinned metric-cone reference -------------

def recorded(call, *args):
    """``call(*args)``, and the program and final outcome of each
    cutting-plane loop it ran."""
    real, runs = lp.cutting_plane, []

    def recording(program, oracle, max_rounds):
        result = real(program, oracle, max_rounds)
        runs.append((program, result.outcome))
        return result

    with mock.patch.object(lp, "cutting_plane", recording):
        res = call(*args)
    return res, runs


def recorded_min_extension(g, d):
    """``min_extension(g, d)``, its edge-length LP and the LP's final outcome."""
    res, [(program, out)] = recorded(min_extension, g, d)
    return res, program, out


def shortest_paths_over(g, d, witness):
    """Shortest-path distances over g's edges at the witness's values and the
    terminal pairs at d's, or None where no path exists."""
    dist = [[F(0) if u == v else None for v in range(g.n)] for u in range(g.n)]
    for u, v in g.weights:
        dist[u][v] = dist[v][u] = witness.dist(u, v)
    for p, t in enumerate(g.terminals):
        for q, s in enumerate(g.terminals):
            dist[t][s] = d.dist(p, q)
    for l in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if dist[i][l] is not None and dist[l][j] is not None:
                    via = dist[i][l] + dist[l][j]
                    if dist[i][j] is None or via < dist[i][j]:
                        dist[i][j] = via
    return dist


def check_extension(g, d):
    """min_extension(g, d) against the reference, its LP audited and its
    witness checked to be the closure the edge lengths give."""
    res, program, out = recorded_min_extension(g, d)
    lp.audit(program, out)
    assert all(con.rel == lp.GE and len(set(con.nums)) == 1 for con in program.constraints)
    ref = reference_min_extension(g, d)
    assert ref.status == lp.OPTIMAL and res.value == ref.value
    assert res.witness.restrict(g.terminals) == d
    assert alpha_cost(g, res.witness) == res.value
    # the witness is the shortest-path metric of its own edge values with d
    # over the terminal pairs; a vertex with no path to a terminal sits on
    # the first terminal
    paths = shortest_paths_over(g, d, res.witness)
    first = g.terminals[0]
    at = [v if paths[first][v] is not None else first for v in range(g.n)]
    assert [list(row) for row in res.witness.rows] == [[paths[u][v] for v in at] for u in at]
    return res


@st.composite
def extension_instances(draw):
    """A seeded random graph on 1 <= k <= n <= 7 vertices, connected or not,
    with unsorted terminals, and a terminal metric, the zero one included."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, n))
    rng = random.Random(draw(st.integers(0, 10_000)))
    g = random_graph(rng, n, k, density=draw(st.sampled_from([0.2, 0.5, 1.0])),
                     connected=draw(st.booleans()))
    d = random_metric(rng, k, max_den=draw(st.sampled_from([1, 4, 9])))
    return g, d.scale(draw(st.sampled_from([F(0), F(1), F(3, 2)])))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(extension_instances())
def test_min_extension_matches_the_pinned_cone_reference(case):
    check_extension(*case)


def test_extension_puts_a_vertex_without_terminal_paths_on_the_first_terminal():
    # terminals 3 and 0, unsorted; vertices 2 and 4 form a component of their own
    g = WeightedGraph(5, [3, 0], {(0, 1): 1, (1, 3): 2, (2, 4): 5})
    res = check_extension(g, cut_metric([0], 2).scale(3))
    assert res.value == 3  # all of d(3, 0) = 3 on the edge of weight 1
    assert res.witness.rows[2] == res.witness.rows[4] == res.witness.rows[3]


def test_extension_with_every_vertex_a_terminal_is_the_metric_itself():
    g = WeightedGraph(3, [2, 0, 1], {(0, 1): 1, (1, 2): F(1, 2), (0, 2): 3})
    d = metric_closure([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    res = check_extension(g, d)
    assert res.value == 1 * 1 + F(1, 2) * 2 + 3 * 1


def test_extension_of_a_single_terminal_is_free():
    g = random_graph(random.Random(3), 6, 1, connected=False)
    res = check_extension(g, zero_metric(1))
    assert res.value == 0 and res.witness == zero_metric(6)


def test_extension_witness_is_built_on_first_read():
    res = min_extension(path3(), cut_metric([0], 2))
    assert "witness" not in vars(res)
    assert res.witness.rows == ((0, 1, 1), (1, 0, 0), (1, 0, 0))
    assert vars(res)["witness"] is res.witness


def test_extension_adds_every_too_short_two_edge_path_at_once():
    # terminal 1 is cut off from terminals 2 and 3; at the first round's zero
    # lengths both 1-0-2, the shortest path, and 1-4-2 are too short, so both
    # rows come, though the lengths on 1-0 and 1-4 that answer 1-0-2 and
    # 1-4-3 would satisfy 1-4-2 as well; columns are (0,1) (0,2) (1,4) (2,4) (3,4)
    g = WeightedGraph(5, [1, 2, 3], {(0, 1): F(3, 4), (0, 2): F(3, 2), (1, 2): F(1, 4), (1, 3): 1,
                                     (1, 4): F(5, 4), (2, 3): 2, (2, 4): F(5, 4), (3, 4): 2})
    d = cut_metric([0], 3)
    res, program, _ = recorded_min_extension(g, d)
    assert [con.cols for con in program.constraints] == [(0, 1), (2, 3), (2, 4)]
    assert res.value == F(3, 4) + F(5, 4) + F(1, 4) + 1 == check_extension(g, d).value


@st.composite
def short_path_instances(draw):
    """A random graph on n <= 7 vertices with integer edge lengths, a source,
    a blocked set that may hold it, and integer bounds on some targets."""
    n = draw(st.integers(2, 7))
    edges = draw(st.lists(st.sampled_from(all_pairs(n)), unique=True))
    nums = draw(st.lists(st.integers(0, 5), min_size=len(edges), max_size=len(edges)))
    source = draw(st.integers(0, n - 1))
    blocked = draw(st.sets(st.integers(0, n - 1)))
    targets = draw(st.lists(st.integers(0, n - 1).filter(lambda t: t != source), unique=True))
    bounds = {t: draw(st.integers(0, 12)) for t in targets}
    return n, edges, nums, source, blocked, bounds


def walk(edges, cols, source):
    """The vertices of the path from ``source`` along the edge columns
    ``cols``, each used once, or None when they do not form a walk."""
    vertices, left = [source], set(cols)
    while left:
        step = [j for j in left if vertices[-1] in edges[j]]
        if len(step) != 1:
            return None
        left.remove(step[0])
        u, v = edges[step[0]]
        vertices.append(v if u == vertices[-1] else u)
    return vertices


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(short_path_instances())
def test_short_paths_are_simple_unblocked_and_too_short(case):
    n, edges, nums, source, blocked, bounds = case
    found = extension._short_paths(source, extension._adjacency(n, edges), nums, blocked, bounds)
    for t, cols in found:
        vertices = walk(edges, cols, source)
        assert vertices is not None and len(set(vertices)) == len(vertices)
        assert vertices[-1] == t and not blocked.intersection(vertices[1:-1])
        assert sum(nums[j] for j in cols) < bounds[t]
    # per target: a shortest unblocked path first, when it is too short, then
    # every other too-short two-edge path, in ``bounds`` order
    reach = {source: 0}
    for _ in range(n):
        for j, (u, v) in enumerate(edges):
            for a, b in ((u, v), (v, u)):
                if a in reach and (a == source or a not in blocked):
                    reach[b] = min(reach.get(b, reach[a] + nums[j]), reach[a] + nums[j])
    want = [t for t in bounds if reach.get(t, bounds[t]) < bounds[t]]
    assert [t for t, _ in found if t in want] == [t for t, _ in found]
    assert list(dict.fromkeys(t for t, _ in found)) == want
    for t in want:
        paths = [cols for s, cols in found if s == t]
        assert sum(nums[j] for j in paths[0]) == reach[t]
        twos = {frozenset((i, j)) for i, (a, b) in enumerate(edges) for j, (c, d) in enumerate(edges)
                if {a, b} & {c, d} and len({a, b, c, d}) == 3 and source in (a, b)
                and t in (c, d) and ({a, b} & {c, d}).isdisjoint(blocked | {source, t})
                and nums[i] + nums[j] < bounds[t]}
        others = twos - {frozenset(paths[0])}
        assert len(paths) == 1 + len(others) and {frozenset(c) for c in paths[1:]} == others


# --- metric upper quality and concurrent flow over edge lengths ---------

@st.composite
def pair_lp_instances(draw):
    """A seeded random graph on 1 <= k <= n <= 7 vertices, k = 1 only for
    n = 1, connected or not, with some edges drawn at weight 0, and
    terminal-pair coefficients, some or all of them zero."""
    n = draw(st.sampled_from([7, 6, 5, 4, 3, 2, 1]))
    k = draw(st.integers(min(2, n), n))
    rng = random.Random(draw(st.integers(0, 10_000)))
    g = random_graph(rng, n, k, density=draw(st.sampled_from([0.2, 0.5, 1.0])),
                     connected=draw(st.booleans()))
    keep = rng.choice([0.0, 0.5, 1.0, 1.0, 1.0])
    coeffs = {pq: random_fraction(rng, 6, 4) for pq in all_pairs(k) if rng.random() < keep}
    return g, coeffs


def check_pair_lp(g, coeffs):
    """The edge-length LP and the public dispatch against the metric-cone
    reference, the LP audited, and each witness checked to attain the
    program: c(witness) = Q at minimum extension 1 when Q > 0, and an
    unbounded witness extends at cost 0 with c > 0. With a positive
    coefficient, the concurrent flow of the demands coeffs, 1 / Q or 0
    when unbounded, is checked against the other normalization, the
    metric-cone LP min alpha(d) subject to c(d) >= 1."""
    res, runs = recorded(extension._edge_length_lp, g, coeffs)
    for program, out in runs:
        lp.audit(program, out)
        assert all(con.rel == lp.LE and con.rhs_num == 0 for con in program.constraints[1:])
    ref = reference_pair_lp(g, "max", coeffs)
    public = terminal_pair_lp(g, coeffs)
    c = Sparsifier(g.k, coeffs)
    for got in (res, public):
        assert (got.status, got.value) == (ref.status, ref.value)
        if got.status == lp.UNBOUNDED:
            assert min_extension(g, got.witness).value == 0 < c.cost(got.witness)
        elif got.value > 0:
            assert c.cost(got.witness) == got.value
            assert min_extension(g, got.witness).value == 1
        else:
            assert not any(coeffs.values())
    if any(coeffs.values()):
        flow = reference_pair_lp(g, "min", coeffs)
        assert flow.status == lp.OPTIMAL
        demands = DemandSet([(p, q, w) for (p, q), w in coeffs.items()])
        assert max_concurrent_flow(g, demands) == flow.value
    return res


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(pair_lp_instances())
def test_edge_length_lp_matches_the_metric_cone_reference(case):
    check_pair_lp(*case)


def split_six():
    """Two triangles 0-1-2 and 3-4-5 with terminals 0, 3, 1, 4 and a
    zero-weight edge between them."""
    return WeightedGraph(6, [0, 3, 1, 4], {(0, 1): 1, (1, 2): 2, (0, 2): 1, (2, 3): 0,
                                           (3, 4): F(1, 2), (4, 5): 1, (3, 5): 3})


def test_a_pair_with_no_path_is_unbounded_before_any_lp():
    # six vertices: the public dispatch reads the rays, so the edge-length
    # program, which still runs past six, is called directly
    beta = {(0, 2): 1, (0, 1): 2, (2, 3): F(1, 3)}
    res, runs = recorded(extension._edge_length_lp, split_six(), beta)
    assert runs == [] and res.status == lp.UNBOUNDED
    # vertices (0, 3) are the first pair with no path; 0's component holds terminals 0 and 2
    assert res.witness == cut_metric([0, 2], 4)
    # no concurrent flow; check_pair_lp also takes it from the min-form cone LP
    assert max_concurrent_flow(split_six(), DemandSet([(0, 1, 2)])) == 0
    check_pair_lp(split_six(), beta)


def test_terminals_with_no_path_and_no_coefficient_sit_at_the_sentinel():
    res = check_pair_lp(split_six(), {(0, 2): 1, (1, 3): 1})
    assert res.status == lp.OPTIMAL and res.value > 0
    assert res.witness.dist(0, 1) > res.witness.dist(0, 2) + res.witness.dist(1, 3)


def test_a_complete_graph_needs_no_distance_column():
    g = random_graph(random.Random(4), 7, 4, density=1.0)
    beta = {(p, q): F(p + q + 1, 2) for p, q in all_pairs(4)}
    res, [(program, _)] = recorded(terminal_pair_lp, g, beta)
    assert program.n_vars == len(g.weights) == 21
    assert res.value == check_pair_lp(g, beta).value


@pytest.mark.parametrize("g", [unit_star(3), unit_star(7)], ids=["rays", "edge-lengths"])
def test_concurrent_flow_refuses_demands_with_no_positive_entry(g):
    # with no positive coefficient the pair program's optimum is 0, so the
    # concurrent flow, 1 over it, is refused rather than divided by zero
    res = terminal_pair_lp(g, {})
    assert (res.status, res.value) == (lp.OPTIMAL, 0)
    with pytest.raises(ValueError, match="positive demand"):
        max_concurrent_flow(g, DemandSet([(0, 1, 0)]))


def test_edge_length_lp_rounds_are_bounded_and_warm_after_the_first():
    g = random_graph(random.Random(7), 8, 5, density=0.3)
    beta = {pq: F(1) for pq in all_pairs(5)}
    # some pairs get a distance column, bounded from the first solve by its seeded row
    assert any(pair(g.terminals[p], g.terminals[q]) not in g.weights for p, q in all_pairs(5))
    real, solves = lp.solve, []

    def recording(program, previous=None):
        out = real(program, previous)
        solves.append((previous is None, out.status))
        return out

    with mock.patch.object(lp, "solve", recording):
        terminal_pair_lp(g, beta)
    assert solves[0] == (True, lp.OPTIMAL) and len(solves) > 1
    assert all(s == (False, lp.OPTIMAL) for s in solves[1:])


# --- terminal min cuts -------------------------------------------------

def min_cut(g, side):
    """The terminal min cut by max-flow, checked against the LP route."""
    by_flow = min_cut_via_flow(g, side)
    assert min_cut_via_lp(g, side) == by_flow
    return by_flow


def test_star_cuts_by_hand():
    g = unit_star(3)
    assert min_cut(g, [0]) == 1
    assert min_cut(g, [0, 1]) == 1  # the single edge to leaf 2 is cheaper


def test_edgeless_graph_has_zero_cuts():
    g = WeightedGraph(4, [0, 1], {})
    assert min_cut(g, [0]) == 0


def test_weighted_star_cut_picks_the_lighter_side():
    g = weighted_star([5, F(1, 2), 3])
    assert min_cut(g, [0]) == F(1, 2) + 3  # center joins leaf 0
    assert min_cut(g, [1]) == F(1, 2)


def test_flow_cancels_an_earlier_augmenting_path():
    # The first shortest augmenting path, 0-3-2-1, sends 1 from 3 to 2; the
    # last, 0-4-2-3-5-1, must cancel it and send 1 more from 2 to 3, which
    # the residual allows only beyond the edge's own capacity 1.
    g = WeightedGraph(6, [0, 1], {(0, 3): 1, (0, 4): 2, (1, 2): 1, (1, 5): 2,
                                  (2, 3): 1, (2, 4): 3, (3, 5): 3})
    assert min_cut(g, [0]) == 3  # around {0, 2, 4}


def test_max_flow_network_grows_with_the_edges_not_with_n():
    # two edges among 2000 vertices: a capacity matrix with a row for every
    # vertex would take about 32 MB, one for each vertex on an edge takes bytes
    g = WeightedGraph(2000, [0, 1], {(0, 1000): 1, (1000, 1): 2})
    g.integers  # built and kept before the measurement
    tracemalloc.start()
    try:
        assert min_cut_via_flow(g, [0]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("side", [[], [0, 1, 2], [5]])
def test_cut_side_validation(side):
    g = unit_star(3)
    with pytest.raises(ValueError):
        min_cut_via_flow(g, side)
    with pytest.raises(ValueError):
        min_cut_by_enumeration(g, side)


def test_enumeration_budget_is_enforced():
    g = WeightedGraph(25, [0, 1], {(0, 1): 1})
    with pytest.raises(ValueError):
        min_cut_by_enumeration(g, [0], budget=1000)


@pytest.mark.parametrize("seed", range(20))
def test_three_cut_routes_agree(seed):
    rng = random.Random(400 + seed)
    g = random_graph(rng, rng.randint(3, 7), rng.randint(2, 4))
    for bits in range(1, (1 << g.k) - 1):
        side = [p for p in range(g.k) if bits >> p & 1]
        by_flow = min_cut_via_flow(g, side)
        assert min_cut_via_lp(g, side) == by_flow
        assert min_cut_by_enumeration(g, side) == by_flow


def test_exhaustive_cut_cross_check_on_five_terminals():
    rng = random.Random(9)
    g = random_graph(rng, 7, 5)
    for bits in range(1, (1 << g.k) - 1):
        side = [p for p in range(g.k) if bits >> p & 1]
        assert min_extension(g, cut_metric(side, g.k)).value == min_cut_via_flow(g, side)


# --- best_zero_extension ----------------------------------------------

def test_zero_extension_identity_when_nothing_is_free():
    g = WeightedGraph(3, [0, 1, 2], {(0, 1): 1, (0, 2): 2})
    d = metric_closure([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    ze = best_zero_extension(g, d)
    assert ze.assignment == (0, 1, 2)
    assert ze.cost == alpha_cost(g, d)


def test_zero_extension_on_the_path():
    # both maps of the middle vertex cost 1; ties break to terminal 0
    g = path3()
    ze = best_zero_extension(g, cut_metric([0], 2))
    assert ze.cost == 1
    assert ze.assignment == (0, 1, 0)


def test_zero_extension_of_zero_metric_costs_nothing():
    ze = best_zero_extension(unit_star(), zero_metric(3))
    assert ze.cost == 0


def test_zero_extension_budget_is_enforced():
    g = WeightedGraph(30, [0, 1, 2], {})
    with pytest.raises(ValueError):
        best_zero_extension(g, zero_metric(3), budget=100)


@pytest.mark.parametrize("seed", range(15))
def test_zero_extension_dominates_min_extension(seed):
    rng = random.Random(500 + seed)
    g = random_graph(rng, rng.randint(3, 6), rng.randint(1, 3))
    d = random_metric(rng, g.k)
    assert best_zero_extension(g, d).cost >= min_extension(g, d).value


def test_zero_extension_cost_formula():
    # score a fixed assignment by hand: star with center sent to leaf 1
    g = unit_star(3)
    d = metric_closure([[0, 2, 1], [2, 0, 1], [1, 1, 0]])
    ze = best_zero_extension(g, d)
    # center joining leaf p costs sum over other leaves q of d(p, q):
    # p=0: 2+1, p=1: 2+1, p=2: 1+1 -> best is 2 via p=2
    assert ze.cost == 2
    assert ze.assignment == (0, 1, 2, 2)
