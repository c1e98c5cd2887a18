"""Core types: metrics, cuts, graphs, costs."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from vsparse import (
    DemandSet,
    Metric,
    Sparsifier,
    Unbounded,
    WeightedGraph,
    alpha_cost,
    all_pairs,
    canonicalize,
    cut_metric,
    is_unbounded,
    pair,
    zero_metric,
)
from vsparse.core import CUT_CAP, as_fraction, bipartitions
from helpers import metric_closure, metric_sum, path3, reference_violation, triangle_y, unit_star

F = Fraction


# --- oracles -----------------------------------------------------------

def triples_ok(d: Metric) -> bool:
    """Brute-force triangle-inequality check over all ordered triples."""
    m = d.size
    return all(d.dist(i, j) + d.dist(j, l) >= d.dist(i, l)
               for i in range(m) for j in range(m) for l in range(m))


def shortest_paths(n: int, weights: dict) -> list[list[Fraction]]:
    """Floyd-Warshall over exact rationals; assumes connectivity."""
    big = sum(weights.values(), F(1))
    dist = [[F(0) if i == j else big for j in range(n)] for i in range(n)]
    for (i, j), w in weights.items():
        dist[i][j] = dist[j][i] = min(dist[i][j], w)
    for l in range(n):
        for i in range(n):
            for j in range(n):
                via = dist[i][l] + dist[l][j]
                if via < dist[i][j]:
                    dist[i][j] = via
    return dist


# --- small helpers -----------------------------------------------------

@pytest.mark.parametrize("build, error, message", [
    (lambda: as_fraction(0.5), TypeError, "expected an exact rational, got float"),
    (lambda: cut_metric([0], 2).scale(-1), ValueError, "nonnegative scaling"),
    (lambda: cut_metric([2], 2), ValueError, "cut side contains 2, outside 0..1"),
], ids=["float", "negative-scale", "cut-side-out-of-range"])
def test_exact_values_refuse_what_they_cannot_hold(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_pair_orders_endpoints():
    assert pair(3, 1) == (1, 3)
    assert pair(1, 3) == (1, 3)
    with pytest.raises(ValueError):
        pair(2, 2)


def test_all_pairs_counts():
    assert all_pairs(1) == []
    assert all_pairs(3) == [(0, 1), (0, 2), (1, 2)]
    assert len(all_pairs(6)) == 15


def test_unbounded_singleton():
    assert Unbounded() is Unbounded()
    assert is_unbounded(Unbounded())
    assert not is_unbounded(F(5))


# --- metric validation -------------------------------------------------

def test_zero_table_is_valid():
    d = Metric([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert d == zero_metric(3)


def test_triangle_violation_reported():
    # d(0,2) = 3 > d(0,1) + d(1,2) = 1 + 1
    with pytest.raises(ValueError) as info:
        Metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    assert str(info.value) == "triangle violation at (0, 2, 1): d(0,2) = 3 > d(0,1) + d(1,2) = 2"


@pytest.mark.parametrize("table,kind", [
    ([[0, 1], [1, 0], [1, 1]], "shape"),
    ([[0, -1], [-1, 0]], "negative"),
    ([[0, 1], [2, 0]], "symmetry"),
    ([[1, 1], [1, 0]], "diagonal"),
    ([[0, 1, 3], [1, 0, 1], [3, 1, 0]], "triangle"),
])
def test_violations_distinctly_reported(table, kind):
    with pytest.raises(ValueError) as info:
        Metric(table)
    assert str(info.value).startswith(f"{kind} violation at ")
    assert str(info.value) == reference_violation([[F(v) for v in row] for row in table])


def test_metric_constructor_rejects_bad_tables():
    with pytest.raises(ValueError):
        Metric([[0, 1], [2, 0]])


@pytest.mark.parametrize("seed", range(10))
def test_shortest_path_tables_are_metrics(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    # random connected graph: spanning path plus extras
    weights = {}
    for i in range(n - 1):
        weights[(i, i + 1)] = F(rng.randint(1, 6), rng.randint(1, 4))
    for i, j in itertools.combinations(range(n), 2):
        if (i, j) not in weights and rng.random() < 0.4:
            weights[(i, j)] = F(rng.randint(1, 6), rng.randint(1, 4))
    table = shortest_paths(n, weights)
    d = Metric(table)
    assert triples_ok(d)


# --- cut metrics -------------------------------------------------------

def test_singleton_cut_on_two_points():
    assert cut_metric([0], 2).dist(0, 1) == 1
    assert cut_metric([1], 2).dist(0, 1) == 1


def test_empty_and_full_cuts_are_zero():
    assert cut_metric([], 4) == zero_metric(4)
    assert cut_metric(range(4), 4) == zero_metric(4)


def test_two_two_cut_separates_four_pairs():
    d = cut_metric([0, 1], 4)
    ones = [(i, j) for i, j in all_pairs(4) if d.dist(i, j) == 1]
    assert ones == [(0, 2), (0, 3), (1, 2), (1, 3)]


def test_cut_metric_complement_invariance():
    for m in range(1, 6):
        for bits in range(1 << m):
            side = [i for i in range(m) if bits >> i & 1]
            other = [i for i in range(m) if not bits >> i & 1]
            assert cut_metric(side, m).rows == cut_metric(other, m).rows


def test_cut_metric_restriction_is_cut_metric():
    m = 5
    for bits in range(1 << m):
        side = {i for i in range(m) if bits >> i & 1}
        for ybits in range(1, 1 << m):
            y = [i for i in range(m) if ybits >> i & 1]
            inner = [p for p, v in enumerate(y) if v in side]
            got = cut_metric(side, m).restrict(y)
            assert got.rows == cut_metric(inner, len(y)).rows


# --- bipartitions ------------------------------------------------------

@pytest.mark.parametrize("k", range(1, 7))
def test_bipartitions_count_and_ascending_masks(k):
    masks = [mask for mask, _ in bipartitions(k)]
    assert len(masks) == 2 ** (k - 1) - 1
    assert all(a < b for a, b in zip(masks, masks[1:]))


@pytest.mark.parametrize("k", range(1, 7))
def test_bipartition_sides_hold_terminal_zero_and_match_their_mask(k):
    for mask, side in bipartitions(k):
        assert 0 in side
        assert side == sorted(set(side))
        assert sum(1 << p for p in side) == mask


@pytest.mark.parametrize("k", range(1, 7))
def test_bipartitions_with_complements_cover_each_proper_subset_once(k):
    seen = Counter()
    for _, side in bipartitions(k):
        seen[frozenset(side)] += 1
        seen[frozenset(range(k)) - frozenset(side)] += 1
    proper = Counter(frozenset(c) for r in range(1, k)
                     for c in itertools.combinations(range(k), r))
    assert seen == proper


def test_one_terminal_has_no_bipartition():
    assert list(bipartitions(1)) == []


def test_bipartitions_refuse_more_than_the_cap_at_the_call():
    with pytest.raises(ValueError, match=f"k = {CUT_CAP + 1} terminals exceeds cap {CUT_CAP}"):
        bipartitions(CUT_CAP + 1)  # raised before the first bipartition is asked for
    assert next(bipartitions(CUT_CAP)) == (1, [0])


# --- restrict ----------------------------------------------------------

def test_restrict_to_everything_is_identity():
    d = metric_closure([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    assert d.restrict([0, 1, 2]).rows == d.rows


def test_restrict_path_metric_keeps_long_distance():
    # a-c-b with unit steps: d(a,b) = 2 survives dropping c.
    d = Metric([[0, 2, 1], [2, 0, 1], [1, 1, 0]])
    got = d.restrict([0, 1])
    assert got.dist(0, 1) == 2


def test_restrict_rejects_out_of_range():
    d = zero_metric(3)
    with pytest.raises(ValueError):
        d.restrict([0, 3])


# --- stored form -------------------------------------------------------

def built_metrics():
    """Metrics built every way the package builds them, several of them
    equal by different routes, with a label each."""
    d = Metric([[0, F(3, 2), F(5, 6)], [F(3, 2), 0, F(2, 3)], [F(5, 6), F(2, 3), 0]])
    return [
        ("fractions", Metric([[F(0), F(1)], [F(1), F(0)]])),
        ("ints", Metric([[0, 1], [1, 0]])),
        ("strings", Metric([["0", "2/2"], ["1", "0/5"]])),
        ("from_integers", Metric.from_integers([[0, 6], [6, 0]], 6)),
        ("cut", cut_metric([1], 2)),
        ("restricted cut", cut_metric([0, 2], 3).restrict([1, 2])),
        ("half", Metric([[0, "1/2"], ["1/2", 0]])),
        ("scaled cut", cut_metric([0], 2).scale("1/2")),
        ("half from_integers", Metric.from_integers([[0, 3], [3, 0]], 6)),
        ("zero", zero_metric(2)),
        ("zero from_integers", Metric.from_integers([[0, 0], [0, 0]], 7)),
        ("cut scaled by 0", cut_metric([0], 2).scale(0)),
        ("restricted to one side", cut_metric([2], 3).restrict([0, 1])),
        ("empty", Metric([])),
        ("empty zero", zero_metric(0)),
        ("point", zero_metric(1)),
        ("three points", d),
        ("three points scaled", d.scale(F(6, 5))),
        ("three points from_integers", Metric.from_integers([[0, 54, 30], [54, 0, 24], [30, 24, 0]], 30)),
        ("three points reordered", d.restrict([2, 1, 0]).restrict([2, 1, 0])),
        ("three points restricted", d.restrict([0, 2])),
        ("two points", Metric([[0, F(5, 6)], [F(5, 6), 0]])),
    ]


def test_metrics_compare_and_hash_as_their_fraction_tables():
    metrics = built_metrics()
    for (la, a), (lb, b) in itertools.product(metrics, repeat=2):
        assert (a == b) == (a.rows == b.rows), (la, lb)
        if a == b:
            assert hash(a) == hash(b), (la, lb)
    assert len({d for _, d in metrics}) == len({d.rows for _, d in metrics}) == 8


def test_stored_integers_are_tuples_over_the_smallest_denominator():
    for label, d in built_metrics():
        nums, scale = d.integers
        assert type(nums) is tuple and all(type(row) is tuple for row in nums), label
        assert scale == math.lcm(*[v.denominator for row in d.rows for v in row]), label
        assert all(type(v) is Fraction for row in d.rows for v in row), label
    assert Metric.from_integers([[0, 4], [4, 0]], 6).integers == (((0, 2), (2, 0)), 3)


def test_rows_are_built_on_first_read():
    d = Metric.from_integers([[0, 4], [4, 0]], 6)
    for got in (d, d.restrict([1, 0]), d.scale(3), cut_metric([0], 3), zero_metric(2)):
        assert "rows" not in vars(got)
    assert d.size == 2 and "rows" not in vars(d)
    assert d.dist(0, 1) == F(2, 3) and "rows" in vars(d)
    assert d.rows is d.rows


# --- metric closure ----------------------------------------------------

def test_closure_shortcuts_slack_entries():
    d = metric_closure([[0, 5, 1], [5, 0, 1], [1, 1, 0]])
    assert d.dist(0, 1) == 2


@pytest.mark.parametrize("table, message", [
    ([[0, 1], [1, 0], [0, 0]], "square"),
    ([[0, 1], [1, 1]], "square"),
    ([[0, 1, 2], [1, 0, 3], [2]], "square"),  # a short row after a full one
    ([[0, 1], [2, 0]], "symmetric"),
    ([[0, -1], [-1, 0]], "nonnegative"),
])
def test_closure_rejects_bad_tables(table, message):
    with pytest.raises(ValueError, match=message):
        metric_closure(table)


@pytest.mark.parametrize("seed", range(8))
def test_closure_matches_floyd_warshall(seed):
    rng = random.Random(100 + seed)
    n = rng.randint(3, 6)
    table = [[F(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        table[i][j] = table[j][i] = F(rng.randint(1, 9), rng.randint(1, 3))
    weights = {(i, j): table[i][j] for i, j in itertools.combinations(range(n), 2)}
    want = shortest_paths(n, weights)
    got = metric_closure(table)
    assert [list(row) for row in got.rows] == want


# --- alpha_cost --------------------------------------------------------

def test_cost_of_zero_metric_is_zero():
    assert alpha_cost(unit_star(), zero_metric(4)) == 0


def test_cost_of_single_edge_is_its_distance():
    g = WeightedGraph(2, [0], {(0, 1): 1})
    d = Metric([[0, F(5, 7)], [F(5, 7), 0]])
    assert alpha_cost(g, d) == F(5, 7)


def test_cost_of_path_under_its_own_metric():
    # alpha = unit edges (a,c), (c,b); closure gives d(a,c)=d(c,b)=1,
    # d(a,b)=2, and the pair (a,b) carries weight 0: total 1+1 = 2.
    g = path3()
    d = metric_closure([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    assert alpha_cost(g, d) == 2


def test_cost_dimension_mismatch():
    with pytest.raises(ValueError):
        alpha_cost(path3(), zero_metric(2))
    with pytest.raises(ValueError, match="metric has 3 points, sparsifier has 2"):
        Sparsifier(2, {(0, 1): 1}).cost(zero_metric(3))


@pytest.mark.parametrize("seed", range(6))
def test_cost_is_linear(seed):
    rng = random.Random(200 + seed)
    n = 4
    g = WeightedGraph(n, [0, 1], {(i, j): F(rng.randint(0, 5), rng.randint(1, 3))
                                  for i, j in itertools.combinations(range(n), 2)})
    d1 = random_metric(rng, n)
    d2 = random_metric(rng, n)
    a = F(rng.randint(0, 4), rng.randint(1, 3))
    b = F(rng.randint(0, 4), rng.randint(1, 3))
    combo = metric_sum(n, [d1.scale(a), d2.scale(b)])
    assert alpha_cost(g, combo) == a * alpha_cost(g, d1) + b * alpha_cost(g, d2)


def random_metric(rng: random.Random, m: int) -> Metric:
    table = [[F(0)] * m for _ in range(m)]
    for i, j in itertools.combinations(range(m), 2):
        table[i][j] = table[j][i] = F(rng.randint(0, 6), rng.randint(1, 4))
    return metric_closure(table)


@pytest.mark.parametrize("seed", range(6))
def test_convex_combinations_stay_valid(seed):
    rng = random.Random(300 + seed)
    m = rng.randint(2, 5)
    d1 = random_metric(rng, m)
    d2 = random_metric(rng, m)
    lam = F(rng.randint(0, 8), 8)
    combo = metric_sum(m, [d1.scale(lam), d2.scale(1 - lam)])  # raises unless a metric
    assert triples_ok(combo)


# --- graphs ------------------------------------------------------------

def test_graph_basics():
    g = unit_star()
    assert g.n == 4 and g.k == 3
    assert g.weights[(0, 3)] == 1
    assert (0, 1) not in g.weights  # absent pair means weight 0
    assert g.is_canonical()


@pytest.mark.parametrize("n,terminals,weights", [
    (3, [], {}),                       # k = 0
    (3, [0, 0], {}),                   # duplicate terminal
    (3, [0, 3], {}),                   # terminal out of range
    (3, [0], {(1, 1): 1}),             # self-loop
    (3, [0], {(0, 2): -1}),            # negative weight
    (3, [0], {(0, 3): 1}),             # edge endpoint out of range
    (0, [], {}),                       # empty vertex set
    (3, [0], [(0, 1, 1), (1, 0, 2)]),  # an edge listed twice, as a graph file can
])
def test_graph_rejects_bad_inputs(n, terminals, weights):
    with pytest.raises(ValueError):
        WeightedGraph(n, terminals, weights)


def test_graph_drops_zero_weight_edges():
    g = WeightedGraph(3, [0], {(0, 1): 0, (1, 2): 1})
    assert (0, 1) not in g.weights
    assert g.weights[(1, 2)] == 1


def test_canonicalize_puts_terminals_first():
    g = WeightedGraph(4, [2, 0], {(2, 3): F(1, 2), (0, 1): 1})
    gc, order = canonicalize(g)
    assert order == (2, 0, 1, 3)
    assert gc.terminals == (0, 1)
    assert gc.is_canonical()
    # edge (2,3) maps to (0,3), edge (0,1) maps to (1,2)
    assert gc.weights[(0, 3)] == F(1, 2)
    assert gc.weights[(1, 2)] == 1


def test_canonicalize_is_identity_on_canonical_graphs():
    g = unit_star()
    gc, order = canonicalize(g)
    assert order == (0, 1, 2, 3)
    assert gc.weights == g.weights


def test_canonicalize_preserves_costs():
    rng = random.Random(7)
    g = WeightedGraph(5, [3, 1], {(0, 3): 2, (1, 4): F(3, 2), (2, 3): 1})
    gc, order = canonicalize(g)
    d = random_metric(rng, 5)
    moved = Metric([[d.dist(order[a], order[b]) for b in range(5)] for a in range(5)])
    assert alpha_cost(gc, moved) == alpha_cost(g, d)


# --- sparsifiers -------------------------------------------------------

def test_sparsifier_cost_and_cut_value():
    h = Sparsifier(3, {(0, 1): F(1, 2), (0, 2): F(1, 2), (1, 2): F(1, 2)})
    assert h.cost(cut_metric([0], 3)) == 1
    assert h.cut_value([0]) == 1
    assert h.cut_value([0, 1]) == 1
    assert h.beta[(0, 1)] == F(1, 2)


def test_sparsifier_as_graph_round_trip():
    h = Sparsifier(3, {(0, 1): 2, (1, 2): F(1, 3)})
    g = h.as_graph()
    assert g.n == 3 and g.terminals == (0, 1, 2)
    assert g.weights == {(0, 1): 2, (1, 2): F(1, 3)}


@pytest.mark.parametrize("k,beta", [
    (2, {(0, 2): 1}),     # endpoint out of range
    (2, {(0, 1): -1}),    # negative weight
    (1, {(0, 0): 1}),     # self pair
    (0, {}),              # no terminal
    (2, {(0, 1): 1, (1, 0): 2}),  # one pair keyed in both orientations
])
def test_sparsifier_rejects_bad_inputs(k, beta):
    with pytest.raises(ValueError):
        Sparsifier(k, beta)


def test_sparsifier_refuses_a_pair_keyed_twice_instead_of_summing():
    with pytest.raises(ValueError, match=r"^duplicate pair \(0, 1\)$"):
        Sparsifier(2, {(0, 1): 1, (1, 0): 2})


# --- demands -----------------------------------------------------------

def test_demand_set_basics():
    ds = DemandSet([(0, 1, F(1, 2)), (2, 0, 0)])
    assert ds.max_endpoint() == 2
    assert ds.has_positive()
    assert not DemandSet([(0, 1, 0)]).has_positive()


@pytest.mark.parametrize("triples", [
    [(0, 0, 1)],       # equal endpoints
    [(0, 1, -1)],      # negative demand
    [(-1, 1, 1)],      # negative endpoint, as a demand file can list it
])
def test_demand_set_rejects_bad_inputs(triples):
    with pytest.raises(ValueError):
        DemandSet(triples)


def test_triangle_y_sanity():
    g = triangle_y()
    assert g.k == g.n == 3
    assert alpha_cost(g, cut_metric([0], 3)) == 2
