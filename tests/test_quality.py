"""Quality reports: cut, metric and flow semantics, plus their wire formats."""

import random
from fractions import Fraction

import pytest

from vsparse import (
    UNBOUNDED,
    DemandSet,
    FlowProbeError,
    Metric,
    QualityReport,
    Sparsifier,
    WeightedGraph,
    all_pairs,
    canonicalize,
    cut_metric,
    cut_quality,
    evaluate_operator_distortion,
    find_optimal_operator,
    flow_quality_probe,
    is_unbounded,
    max_concurrent_flow,
    metric_lower_check,
    metric_quality,
    metric_quality_upper,
    min_cut_by_enumeration,
    min_cut_via_flow,
    min_extension,
    operator_to_sparsifier,
    pair,
    report_from_json,
    report_to_json,
    sparsifier_from_json,
    sparsifier_to_json,
    zero_extension_operator,
)
from vsparse import quality
from vsparse.jsonio import JsonFormatError, dump_canonical
from vsparse.operators import ExtensionOperator
from vsparse.quality import CUT, EXACT, FLOW, METRIC, SAMPLED, flow_quality
from vsparse.sampling import random_demands, random_fraction, random_graph
from helpers import path3, triangle_y, unit_star

F = Fraction
ZERO = F(0)


# --- oracles -----------------------------------------------------------

def brute_cut_quality(g: WeightedGraph, beta: Sparsifier):
    """Worst cut ratio via the enumeration min-cut route; None when every
    bipartition is 0/0, "unbounded" on a positive/zero one."""
    best = None
    for mask in range((1 << (g.k - 1)) - 1):
        side = [p for p in range(g.k) if (mask << 1 | 1) >> p & 1]
        h_val = beta.cut_value(side)
        g_val = min_cut_by_enumeration(g, side)
        if g_val == 0:
            if h_val > 0:
                return "unbounded"
            continue
        if best is None or h_val / g_val > best:
            best = h_val / g_val
    return best


def random_tree(rng: random.Random, n: int, k: int):
    """Random spanning tree with parent pointers; routing in it is forced,
    so concurrent flow has a closed form."""
    parent = [0] * n
    weights = {}
    for v in range(1, n):
        parent[v] = rng.randrange(v)
        weights[pair(parent[v], v)] = random_fraction(rng, min_num=1)
    terminals = rng.sample(range(n), k)
    return WeightedGraph(n, terminals, weights), parent


def tree_path_edges(parent, u: int, v: int):
    anc = []
    x = u
    while True:
        anc.append(x)
        if x == 0:
            break
        x = parent[x]
    lift = []
    y = v
    while y not in anc:
        lift.append(y)
        y = parent[y]
    edges = [pair(parent[z], z) for z in lift]
    x = u
    while x != y:
        edges.append(pair(parent[x], x))
        x = parent[x]
    return edges


def tree_concurrent_flow(g: WeightedGraph, parent, demands: DemandSet) -> Fraction:
    """min over used edges of capacity / routed demand."""
    load: dict[tuple[int, int], Fraction] = {}
    for s, t, dem in demands.demands:
        if dem:
            for e in tree_path_edges(parent, g.terminals[s], g.terminals[t]):
                load[e] = load.get(e, ZERO) + dem
    return min(g.weights[e] / total for e, total in load.items())


def half_triangle(k: int) -> Sparsifier:
    return Sparsifier(k, {(p, q): F(1, 2) for p in range(k) for q in range(p + 1, k)})


def split_graph() -> WeightedGraph:
    """Two components, one terminal in each: every cross quantity is 0/0."""
    return WeightedGraph(4, [0, 1], {(0, 2): 1, (1, 3): 1})


# --- cut quality -------------------------------------------------------

def test_cut_quality_star_half_triangle():
    report = cut_quality(unit_star(3), half_triangle(3))
    assert report == QualityReport(CUT, F(1), True, 1, EXACT)


def test_cut_quality_star4_worst_at_singleton():
    # {t} cuts: beta 3/2 vs min cut 1; 2-2 cuts: beta 2 vs min cut 2
    report = cut_quality(unit_star(4), half_triangle(4))
    assert report.q_value == F(3, 2)
    assert report.witness == 1
    assert report.lower_ok is True
    assert report.completeness == EXACT


def test_cut_quality_two_terminals_mincut_edge():
    report = cut_quality(path3(), Sparsifier(2, {(0, 1): 1}))
    assert report == QualityReport(CUT, F(1), True, 1, EXACT)


def test_cut_quality_unbounded_on_disconnected_terminals():
    report = cut_quality(split_graph(), Sparsifier(2, {(0, 1): 1}))
    assert is_unbounded(report.q_value)
    assert report.witness == 1
    assert report.lower_ok is True


def test_cut_quality_zero_over_zero_is_vacuous():
    # nothing binds: 0, as the metric LP and the operator solve read there
    report = cut_quality(split_graph(), Sparsifier(2, {}))
    assert report == QualityReport(CUT, F(0), True, None, EXACT)


def test_cut_quality_single_terminal_is_zero():
    g = WeightedGraph(2, [0], {(0, 1): 5})
    report = cut_quality(g, Sparsifier(1, {}))
    assert report == QualityReport(CUT, F(0), True, None, EXACT)


def test_cut_quality_lower_violation_is_flagged():
    report = cut_quality(unit_star(3), Sparsifier(3, {(0, 1): F(1, 10)}))
    assert report.lower_ok is False
    assert report.q_value < 1


def refuse_flows(monkeypatch):
    def no_flow(*args):
        raise AssertionError("a min cut ran")
    monkeypatch.setattr(quality, "min_cut_via_flow", no_flow)


def test_cut_quality_cap_and_k_mismatch(monkeypatch):
    refuse_flows(monkeypatch)  # the cap refuses before any flow runs
    with pytest.raises(ValueError, match="k = 21 terminals exceeds cap 20"):
        cut_quality(unit_star(21), Sparsifier(21, {}))
    with pytest.raises(ValueError, match="terminals"):
        cut_quality(unit_star(3), half_triangle(4))


def check_cut_quality_by_enumeration(g: WeightedGraph, beta: Sparsifier):
    """Assert that cut_quality agrees with brute_cut_quality; return the
    latter's verdict."""
    report = cut_quality(g, beta)
    expected = brute_cut_quality(g, beta)
    if expected == "unbounded":
        assert is_unbounded(report.q_value)
    elif expected is None:
        assert report.q_value == 0 and report.witness is None
    else:
        assert report.q_value == expected
        # the witness bipartition achieves the reported ratio
        side = [p for p in range(g.k) if report.witness >> p & 1]
        assert beta.cut_value(side) == expected * min_cut_by_enumeration(g, side)
    return expected


@pytest.mark.parametrize("seed", range(12))
def test_cut_quality_matches_enumeration_oracle(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(3, 6), rng.randint(2, 4), connected=False)
    beta = Sparsifier(g.k, {(p, q): random_fraction(rng)
                            for p in range(g.k) for q in range(p + 1, g.k)})
    check_cut_quality_by_enumeration(g, beta)


@pytest.mark.parametrize("g", [
    WeightedGraph(3, [0], {(0, 1): 1, (1, 2): 2}),
    WeightedGraph(4, [0, 1], {(0, 2): 1, (1, 3): 1}),
], ids=["one-terminal", "split"])
def test_cut_quality_matches_enumeration_oracle_with_nothing_to_grade(g):
    # no seed above draws an instance whose every bipartition is 0/0: one
    # terminal has no bipartition, and two terminals with no path between
    # them under an empty sparsifier have one at 0/0
    assert check_cut_quality_by_enumeration(g, Sparsifier(g.k, {})) is None


# --- metric quality: upper ---------------------------------------------

def test_metric_upper_path_edge_sparsifier():
    report = metric_quality_upper(path3(), Sparsifier(2, {(0, 1): 1}))
    assert report.q_value == 1
    assert report.lower_ok is None
    assert report.completeness == EXACT
    assert report.witness.dist(0, 1) > 0


def test_metric_upper_star_half_triangle_is_one():
    report = metric_quality_upper(unit_star(3), half_triangle(3))
    assert report.q_value == 1


def test_metric_upper_scales_with_beta():
    g = unit_star(3)
    beta = Sparsifier(3, {k: F(1, 10) for k in half_triangle(3).beta})
    assert metric_quality_upper(g, beta).q_value == F(1, 5)


def test_metric_upper_zero_beta_is_zero():
    report = metric_quality_upper(path3(), Sparsifier(2, {}))
    assert report.q_value == 0


def test_metric_upper_unbounded_ray_witness():
    g = split_graph()
    beta = Sparsifier(2, {(0, 1): 1})
    report = metric_quality_upper(g, beta)
    assert is_unbounded(report.q_value)
    assert report.lower_ok is None
    # the ray is a terminal metric with free extension but positive beta
    assert min_extension(g, report.witness).value == 0
    assert beta.cost(report.witness) > 0


@pytest.mark.parametrize("seed", range(10))
def test_metric_upper_witness_attains_ratio(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(3, 6), rng.randint(2, 3))
    beta = Sparsifier(g.k, {(p, q): random_fraction(rng)
                            for p in range(g.k) for q in range(p + 1, g.k)})
    report = metric_quality_upper(g, beta)
    assert not is_unbounded(report.q_value)
    if report.q_value > 0:
        assert beta.cost(report.witness) == report.q_value
        assert min_extension(g, report.witness).value == 1


# --- metric quality: lower check and merge ------------------------------

def test_metric_lower_star_underweight_witness():
    report = metric_lower_check(unit_star(3), Sparsifier(3, {k: F(1, 10) for k in half_triangle(3).beta}))
    assert report == QualityReport(METRIC, None, False, cut_metric([0], 3), SAMPLED)


def test_metric_lower_zero_beta_violates():
    report = metric_lower_check(path3(), Sparsifier(2, {}))
    assert report.lower_ok is False
    assert report.witness == cut_metric([0], 2)


def test_metric_lower_passes_on_exact_sparsifier():
    report = metric_lower_check(path3(), Sparsifier(2, {(0, 1): 1}))
    assert report == QualityReport(METRIC, None, True, None, SAMPLED)


def test_metric_lower_cap(monkeypatch):
    refuse_flows(monkeypatch)
    with pytest.raises(ValueError, match="k = 21 terminals exceeds cap 20"):
        metric_lower_check(unit_star(21), Sparsifier(21, {}))


def test_metric_lower_refutes_by_a_sampled_metric_what_every_cut_passes():
    # beta = 1/3 on every pair of the five-leaf unit star passes every cut
    # (a side of s leaves cuts s(5 - s)/3 >= min(s, 5 - s)), yet some metrics
    # extend at more than beta pays: seed 4 draws one, seeds 0-3 do not
    g, beta = unit_star(5), Sparsifier(5, {pq: F(1, 3) for pq in all_pairs(5)})
    assert cut_quality(g, beta) == QualityReport(CUT, F(4, 3), True, 1, EXACT)
    for seed in range(4):
        assert metric_lower_check(g, beta, samples=100, seed=seed).lower_ok is True
    report = metric_lower_check(g, beta, samples=100, seed=4)
    assert (report.lower_ok, report.q_value, report.completeness) == (False, None, SAMPLED)
    assert (beta.cost(report.witness), min_extension(g, report.witness).value) == (
        F(14, 3), F(39, 8))
    # the path metric of K_{2,3}, 1 across its sides {0, 1} and {2, 3, 4}
    # and 2 within one, does so too
    k23 = Metric([[0 if p == q else 1 if (p < 2) != (q < 2) else 2 for q in range(5)]
                  for p in range(5)])
    assert (beta.cost(k23), min_extension(g, k23).value) == (F(14, 3), 5)


@pytest.mark.parametrize("seed", range(6))
def test_metric_lower_never_fires_on_collapsed_operator(seed):
    rng = random.Random(seed)
    g, _ = canonicalize(random_graph(rng, rng.randint(3, 5), rng.randint(2, 3)))
    report = find_optimal_operator(g)
    beta = operator_to_sparsifier(report.operator, g)
    assert metric_lower_check(g, beta, samples=30, seed=seed).lower_ok is True


def test_metric_quality_merges_upper_and_lower():
    g = unit_star(3)
    good = metric_quality(g, half_triangle(3), samples=20)
    assert good.q_value == 1
    assert good.lower_ok is True
    assert good.completeness == SAMPLED
    assert good.witness == metric_quality_upper(g, half_triangle(3)).witness

    thin = Sparsifier(3, {k: F(1, 10) for k in half_triangle(3).beta})
    bad = metric_quality(g, thin, samples=20)
    assert bad.q_value == F(1, 5)
    assert bad.lower_ok is False
    assert bad.witness == cut_metric([0], 3)


# --- concurrent flow ----------------------------------------------------

def test_flow_path_unit_demand():
    assert max_concurrent_flow(path3(), DemandSet([(0, 1, 1)])) == 1


def test_flow_path_double_demand():
    assert max_concurrent_flow(path3(), DemandSet([(0, 1, 2)])) == F(1, 2)


def test_flow_on_sparsifier_single_edge():
    assert max_concurrent_flow(Sparsifier(2, {(0, 1): 1}), DemandSet([(0, 1, 1)])) == 1


def test_flow_star_uniform_demands():
    # each unit edge carries 2 * (1/2) demand halves: lambda = 1
    demands = DemandSet([(0, 1, F(1, 2)), (0, 2, F(1, 2)), (1, 2, F(1, 2))])
    assert max_concurrent_flow(unit_star(3), demands) == 1


def test_flow_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError, match="positive demand"):
        max_concurrent_flow(path3(), DemandSet([(0, 1, 0)]))
    with pytest.raises(ValueError, match="outside terminals"):
        max_concurrent_flow(path3(), DemandSet([(0, 2, 1)]))


def test_flow_ignores_zero_demand_entries():
    with_zero = DemandSet([(0, 1, 1), (1, 0, 0)])
    assert max_concurrent_flow(path3(), with_zero) == 1


@pytest.mark.parametrize("seed", range(12))
def test_single_commodity_flow_matches_max_flow(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(3, 7), rng.randint(2, 4))
    s, t = rng.sample(range(g.k), 2)
    dem = random_fraction(rng, min_num=1)
    lam = max_concurrent_flow(g, DemandSet([(s, t, dem)]))
    s_t = WeightedGraph(g.n, [g.terminals[s], g.terminals[t]], g.weights)
    assert lam == min_cut_via_flow(s_t, [0]) / dem


@pytest.mark.parametrize("seed", range(12))
def test_tree_flow_matches_bottleneck_oracle(seed):
    rng = random.Random(seed)
    g, parent = random_tree(rng, rng.randint(3, 8), rng.randint(2, 4))
    demands = random_demands(rng, g.k, rng.randint(1, 4))
    assert max_concurrent_flow(g, demands) == tree_concurrent_flow(g, parent, demands)


@pytest.mark.parametrize("seed", range(8))
def test_flow_scales_inversely_with_demand(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(3, 6), rng.randint(2, 4))
    demands = random_demands(rng, g.k, rng.randint(1, 3))
    lam = max_concurrent_flow(g, demands)
    for c in (F(2), F(1, 3), F(5, 4)):
        scaled = DemandSet([(s, t, c * dem) for s, t, dem in demands.demands])
        assert max_concurrent_flow(g, scaled) == lam / c


# --- flow probe ---------------------------------------------------------

def test_flow_probe_identity_sparsifier_ratio_one():
    g = triangle_y()
    beta = Sparsifier(3, dict(g.weights))
    for demands in (DemandSet([(0, 1, 1)]), DemandSet([(0, 1, 1), (1, 2, 2)])):
        assert flow_quality_probe(g, beta, demands) == \
            QualityReport(FLOW, F(1), True, demands, SAMPLED)


def test_flow_probe_path_edge_sparsifier():
    report = flow_quality_probe(path3(), Sparsifier(2, {(0, 1): 1}), DemandSet([(0, 1, 3)]))
    assert report.q_value == 1
    assert report.witness == DemandSet([(0, 1, 3)])


def test_flow_probe_underweight_sparsifier_reports_lower_failure():
    # H routes (0, 2) at 1/4 + 1/4 through its direct and its 1-2 pair, G at
    # 1: the ratio is 1/2 and the failing set is the witness; (0, 1) routes
    # better in H and passes
    beta = Sparsifier(3, {(0, 1): 1, (0, 2): F(1, 4), (1, 2): F(1, 4)})
    worse, better = DemandSet([(0, 2, 1)]), DemandSet([(0, 1, 1)])
    assert flow_quality_probe(unit_star(3), beta, worse) == \
        QualityReport(FLOW, F(1, 2), False, worse, SAMPLED)
    assert flow_quality_probe(unit_star(3), beta, better) == \
        QualityReport(FLOW, F(5, 4), True, better, SAMPLED)


def test_flow_probe_vacuous_on_disconnected_demands():
    # the only demand crosses the split: both flows are 0, and so is the ratio
    demands = DemandSet([(0, 1, 1)])
    report = flow_quality_probe(split_graph(), Sparsifier(2, {}), demands)
    assert report == QualityReport(FLOW, F(0), True, demands, SAMPLED)


def test_flow_probe_unbounded_when_graph_flow_is_zero():
    # G cannot route the demand at all, H can: unbounded, as under cut and metric
    beta = Sparsifier(2, {(0, 1): 1})
    for demands in (DemandSet([(0, 1, 2)]), DemandSet([(0, 1, 1)])):
        assert flow_quality_probe(split_graph(), beta, demands) == \
            QualityReport(FLOW, UNBOUNDED, True, demands, SAMPLED)


@pytest.mark.parametrize("seed", range(6))
def test_flow_probe_ratio_below_metric_upper(seed):
    # collapsed operators satisfy the sandwich by construction
    rng = random.Random(seed)
    g, _ = canonicalize(random_graph(rng, rng.randint(3, 5), rng.randint(2, 3)))
    beta = operator_to_sparsifier(find_optimal_operator(g).operator, g)
    upper = metric_quality_upper(g, beta).q_value
    for _ in range(4):
        demands = random_demands(rng, g.k, rng.randint(1, 3))
        report = flow_quality_probe(g, beta, demands)
        assert 1 <= report.q_value <= upper
        assert report.lower_ok is True and report.witness == demands


@pytest.mark.parametrize("seed", range(4))
def test_flow_probe_same_report_with_passed_cap(seed):
    rng = random.Random(seed)
    g, _ = canonicalize(random_graph(rng, rng.randint(3, 5), rng.randint(2, 3)))
    beta = operator_to_sparsifier(find_optimal_operator(g).operator, g)
    upper = metric_quality_upper(g, beta).q_value
    for _ in range(3):
        demands = random_demands(rng, g.k, rng.randint(1, 3))
        assert flow_quality_probe(g, beta, demands, q_cap=upper) == \
            flow_quality_probe(g, beta, demands)


def test_flow_probe_checks_against_passed_cap():
    # doubling the path's edge doubles the flow: quality 2, so a cap of 3/2 breaks
    beta, demands = Sparsifier(2, {(0, 1): 2}), DemandSet([(0, 1, 1)])
    assert flow_quality_probe(path3(), beta, demands).q_value == 2
    with pytest.raises(FlowProbeError, match="exceeds metric quality 3/2"):
        flow_quality_probe(path3(), beta, demands, q_cap=F(3, 2))


# --- exact flow quality ----------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_flow_quality_exact_on_pipeline_instances(seed):
    # D = beta: H routes it at lambda 1, G at 1/Q
    rng = random.Random(seed)
    g, _ = canonicalize(random_graph(rng, rng.randint(3, 5), rng.randint(2, 3)))
    report = find_optimal_operator(g)
    beta = operator_to_sparsifier(report.operator, g)
    demands = DemandSet([(p, q, w) for (p, q), w in sorted(beta.beta.items()) if w])
    assert max_concurrent_flow(beta, demands) == 1
    assert max_concurrent_flow(g, demands) == 1 / report.q
    assert flow_quality(g, beta, report.q) == \
        QualityReport(FLOW, report.q, True, demands, EXACT)


def test_flow_quality_vacuous_without_positive_entries():
    # no demand to route: 0, as the metric upper quality of an empty beta
    empty = QualityReport(FLOW, F(0), True, None, EXACT)
    assert flow_quality(split_graph(), Sparsifier(2, {}), F(0)) == empty
    assert flow_quality(WeightedGraph(2, [0], {(0, 1): 3}), Sparsifier(1, {}), F(1)) == empty


def test_flow_quality_exact_when_unbounded():
    beta = Sparsifier(2, {(0, 1): 1})
    assert is_unbounded(metric_quality_upper(split_graph(), beta).q_value)
    assert flow_quality(split_graph(), beta, UNBOUNDED) == \
        QualityReport(FLOW, UNBOUNDED, True, DemandSet([(0, 1, 1)]), EXACT)


def test_flow_quality_raises_on_wrong_cap():
    # Q = 4/3: a cap above it misses the ratio, one below breaks the sandwich
    beta = Sparsifier(3, {(0, 1): F(2, 3), (0, 2): F(2, 3), (1, 2): F(2, 3)})
    with pytest.raises(FlowProbeError, match="metric upper quality is 3/2"):
        flow_quality(unit_star(3), beta, F(3, 2))
    with pytest.raises(FlowProbeError, match="exceeds metric quality 5/4"):
        flow_quality(unit_star(3), beta, F(5, 4))


def test_flow_quality_raises_on_lower_failure():
    # half the path's capacity: the ratio is the cap, but H routes less than G
    with pytest.raises(FlowProbeError, match="lower bound held: False"):
        flow_quality(path3(), Sparsifier(2, {(0, 1): F(1, 2)}), F(1, 2))


# --- operator distortion, solver-independent -----------------------------

def test_evaluate_identity_operator_is_one():
    g = triangle_y()
    assert evaluate_operator_distortion(ExtensionOperator(3, 3, {}), g) == 1


def test_evaluate_path_collapse_is_one():
    phi = zero_extension_operator(3, 2, (0, 1, 1))
    assert evaluate_operator_distortion(phi, path3()) == 1


def test_evaluate_solver_operator_reproduces_q():
    g = unit_star(3)
    report = find_optimal_operator(g)
    assert evaluate_operator_distortion(report.operator, g) == report.q == F(4, 3)


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError, match="operator is"):
        evaluate_operator_distortion(ExtensionOperator(3, 2, {}), unit_star(3))


def test_evaluate_unbounded_on_disconnected_image():
    # phi charges the cross pair to an edge with free extensions available
    g = split_graph()
    phi = ExtensionOperator(4, 2, {((0, 2), (0, 1)): 1})
    assert is_unbounded(evaluate_operator_distortion(phi, g))


@pytest.mark.parametrize("seed", range(4))
def test_evaluate_agrees_with_solver_q(seed):
    rng = random.Random(seed)
    g, _ = canonicalize(random_graph(rng, rng.randint(3, 5), rng.randint(2, 3)))
    report = find_optimal_operator(g)
    assert evaluate_operator_distortion(report.operator, g) == report.q


# --- invariants across semantics -----------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_cut_quality_never_exceeds_metric_upper(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(3, 6), rng.randint(2, 4))
    beta = Sparsifier(g.k, {(p, q): random_fraction(rng)
                            for p in range(g.k) for q in range(p + 1, g.k)})
    cut = cut_quality(g, beta).q_value
    upper = metric_quality_upper(g, beta).q_value
    assert not is_unbounded(upper)
    assert cut <= upper


@pytest.mark.parametrize("seed", range(6))
def test_collapsed_sparsifier_upper_equals_operator_distortion(seed):
    rng = random.Random(seed)
    g, _ = canonicalize(random_graph(rng, rng.randint(3, 5), rng.randint(2, 3)))
    report = find_optimal_operator(g)
    beta = operator_to_sparsifier(report.operator, g)
    assert metric_quality_upper(g, beta).q_value == \
        evaluate_operator_distortion(report.operator, g) == report.q


@pytest.mark.parametrize("seed", range(6))
def test_identity_instance_all_semantics_are_one(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    g, _ = canonicalize(random_graph(rng, n, n))
    beta = Sparsifier(n, dict(g.weights))
    assert cut_quality(g, beta).q_value == 1
    merged = metric_quality(g, beta, samples=20, seed=seed)
    assert merged.q_value == 1 and merged.lower_ok is True
    for _ in range(3):
        assert flow_quality_probe(g, beta, random_demands(rng, n, rng.randint(1, 3))).q_value == 1


# --- sparsifier wire format ----------------------------------------------

def test_sparsifier_json_shape():
    beta = Sparsifier(3, {(1, 2): F(3), (0, 1): F(1, 2)})
    assert sparsifier_to_json(beta) == {
        "k": 3,
        "beta": [[0, 1, "1/2"], [1, 2, "3/1"]],
    }


def test_sparsifier_json_round_trip_drops_nothing():
    beta = Sparsifier(4, {(0, 3): F(7, 5), (1, 2): F(2)})
    again = sparsifier_from_json(sparsifier_to_json(beta))
    assert again == beta
    assert dump_canonical(sparsifier_to_json(again)) == dump_canonical(sparsifier_to_json(beta))


@pytest.mark.parametrize("seed", range(10))
def test_sparsifier_json_round_trip_random(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 5)
    beta = Sparsifier(k, {(p, q): random_fraction(rng)
                          for p in range(k) for q in range(p + 1, k)
                          if rng.random() < 0.7})
    assert sparsifier_from_json(sparsifier_to_json(beta)) == beta


@pytest.mark.parametrize("data,fragment", [
    ({"k": 2}, "missing"),
    ({"k": 2, "beta": 3}, "expected a list"),
    ({"k": 2, "beta": [[0, 1]]}, "expected [p, q, value]"),
    ({"k": 2, "beta": [[0, 0, "1/2"]]}, "endpoints must differ"),
    ({"k": 2, "beta": [[0, 1, "1/2"], [1, 0, "1/3"]]}, "duplicate pair"),
    ({"k": 2, "beta": [[0, 1, "x"]]}, "bad rational"),
    ({"k": 2, "beta": [[0, 1, "-1/2"]]}, "negative"),
    ({"k": 2, "beta": [[0, 5, "1/2"]]}, "outside"),
])
def test_sparsifier_json_errors(data, fragment):
    with pytest.raises(JsonFormatError) as err:
        sparsifier_from_json(data)
    assert fragment in str(err.value)


# --- report wire format ---------------------------------------------------

def test_report_json_shape():
    report = QualityReport(CUT, F(3, 2), True, 1, EXACT)
    assert report_to_json(report) == {
        "semantics": "cut",
        "q_value": "3/2",
        "lower_ok": True,
        "witness": 1,
        "completeness": "exact",
    }


@pytest.mark.parametrize("report", [
    QualityReport(CUT, F(3, 2), True, 1, EXACT),
    QualityReport(CUT, UNBOUNDED, True, 5, EXACT),
    QualityReport(CUT, F(1), True, None, EXACT),
    QualityReport(METRIC, F(1), None, cut_metric([0], 3), EXACT),
    QualityReport(METRIC, None, False, cut_metric([0, 1], 3), SAMPLED),
    QualityReport(FLOW, F(1, 2), True, DemandSet([(0, 1, F(2)), (1, 2, F(1, 3))]), SAMPLED),
    QualityReport(FLOW, F(1), True, None, SAMPLED),
    QualityReport(FLOW, F(4, 3), True, DemandSet([(0, 1, F(2, 3))]), EXACT),
])
def test_report_json_round_trip(report):
    data = report_to_json(report)
    again = report_from_json(data)
    assert again == report
    assert dump_canonical(report_to_json(again)) == dump_canonical(data)


def test_report_json_round_trips_real_reports():
    g = unit_star(3)
    reports = [
        cut_quality(g, half_triangle(3)),
        metric_quality(g, half_triangle(3), samples=10),
        metric_quality_upper(split_graph(), Sparsifier(2, {(0, 1): 1})),
        flow_quality_probe(g, half_triangle(3), DemandSet([(0, 1, 1)])),
    ]
    for report in reports:
        assert report_from_json(report_to_json(report)) == report


def test_report_json_unbounded_marker():
    data = report_to_json(QualityReport(CUT, UNBOUNDED, True, 3, EXACT))
    assert data["q_value"] == "unbounded"
    assert is_unbounded(report_from_json(data).q_value)


@pytest.mark.parametrize("mangle,fragment", [
    (lambda d: d.pop("witness"), "missing"),
    (lambda d: d.update(semantics="edge"), "unknown semantics"),
    (lambda d: d.update(completeness="total"), "unknown completeness"),
    (lambda d: d.update(lower_ok="yes"), "expected true, false or null"),
    (lambda d: d.update(q_value="1/0"), "bad rational"),
    (lambda d: d.update(witness=[[0, 1]]), "expected a rational string"),
])
def test_report_json_errors(mangle, fragment):
    data = report_to_json(QualityReport(METRIC, F(1), True, cut_metric([0], 2), SAMPLED))
    mangle(data)
    with pytest.raises(JsonFormatError) as err:
        report_from_json(data)
    assert fragment in str(err.value)


def test_report_json_witness_shape_per_semantics():
    cut_data = report_to_json(QualityReport(CUT, F(1), True, 3, EXACT))
    cut_data["witness"] = [[0, 1, "1/2"]]
    with pytest.raises(JsonFormatError, match="expected an integer"):
        report_from_json(cut_data)
    flow_data = report_to_json(QualityReport(FLOW, F(1), True, DemandSet([(0, 1, F(1))]), SAMPLED))
    flow_data["witness"] = [[0, 1]]
    with pytest.raises(JsonFormatError, match="expected \\[s, t, demand\\]"):
        report_from_json(flow_data)
