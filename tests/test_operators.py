"""Extension operators: the tensor type, both separation families, and the exact solve."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vsparse import (
    Metric,
    WeightedGraph,
    all_pairs,
    alpha_cost,
    best_zero_extension,
    canonicalize,
    cut_metric,
    evaluate_operator_distortion,
    find_optimal_operator,
    membership_oracle,
    metric_quality_upper,
    min_extension,
    operator_from_json,
    operator_to_json,
    operator_to_sparsifier,
    pair,
    zero_extension_operator,
    zero_metric,
)
from vsparse import operators, quality
from vsparse.core import is_unbounded
from vsparse.extension import cone_rays
from vsparse.jsonio import JsonFormatError, dump_canonical
from vsparse.operators import ExtensionOperator
from vsparse.sampling import random_graph, random_metric
from helpers import apply, path3, triangle_y, unit_star

F = Fraction


def overshoot(report, q):
    """The metric upper quality report when its value exceeds q, else None."""
    return report if is_unbounded(report.q_value) or report.q_value > q else None


def distortion_hit(phi, q, g):
    """The metric upper quality report of phi's collapse, which the solve
    grades a member iterate by, when phi's distortion exceeds q; else None."""
    return overshoot(metric_quality_upper(g, operator_to_sparsifier(phi, g)), q)


def random_assignment(rng: random.Random, n: int, k: int) -> tuple[int, ...]:
    return tuple(range(k)) + tuple(rng.randrange(k) for _ in range(n - k))


# --- the tensor type ---------------------------------------------------

def test_identity_rows_are_injected():
    phi = ExtensionOperator(3, 2, {})
    assert phi.coeffs == {((0, 1), (0, 1)): F(1)}
    assert phi.coeffs.get(((0, 1), (0, 1)), 0) == 1
    assert phi.coeffs.get(((0, 2), (0, 1)), 0) == 0


def test_explicit_identity_rows_are_accepted():
    phi = ExtensionOperator(3, 2, {((0, 1), (0, 1)): 1})
    assert phi.coeffs == {((0, 1), (0, 1)): F(1)}


@pytest.mark.parametrize("coeffs", [
    {((0, 1), (0, 1)): 2},            # terminal row off the identity
    {((0, 1), (0, 1)): 0},            # identity entry erased
    {((0, 2), (0, 1)): -1},           # negative coefficient
    {((0, 3), (0, 1)): 1},            # X-pair out of range
    {((0, 2), (0, 2)): 1},            # Y-pair out of range
    {((0, 2), (-1, 0)): 1},           # Y-pair with a negative index
    {((0, 2), (0, 1)): 1, ((2, 0), (0, 1)): 2},  # one entry keyed in two orientations
])
def test_tensor_validation(coeffs):
    with pytest.raises(ValueError):
        ExtensionOperator(3, 2, coeffs)


def test_negative_distortion_is_refused():
    # a distortion is a ratio of nonnegative costs
    assert ExtensionOperator(3, 2, {}, distortion=0).distortion == 0
    with pytest.raises(ValueError, match="distortion is negative: -1"):
        ExtensionOperator(3, 2, {}, distortion=-1)


@pytest.mark.parametrize("n, k", [(2, 3), (3, 0)], ids=["more-terminals-than-vertices",
                                                          "no-terminal"])
def test_shape_validation(n, k):
    with pytest.raises(ValueError, match=f"need 1 <= k <= n, got k = {k}, n = {n}"):
        ExtensionOperator(n, k, {})


@pytest.mark.parametrize("n, coeffs", [
    (4, {((0, 3), (0, 1)): 1, ((3, 0), (0, 1)): 2}),
    (4, {((0, 3), (1, 0)): 0, ((0, 3), (0, 1)): 0}),
    (3, {((0, 1), (0, 1)): 1, ((1, 0), (1, 0)): 1}),
])
def test_an_entry_keyed_twice_is_refused_by_its_normalized_key(n, coeffs):
    # one X-pair and Y-pair in two orientations is one entry, whatever the values
    key = next(iter(coeffs))
    normalized = (pair(*key[0]), pair(*key[1]))
    with pytest.raises(ValueError, match=re.escape(f"duplicate coefficient for {normalized}")):
        ExtensionOperator(n, 2, coeffs)


def test_zero_entries_are_dropped():
    phi = ExtensionOperator(3, 2, {((0, 2), (0, 1)): 0})
    assert ((0, 2), (0, 1)) not in phi.coeffs


def test_unordered_keys_are_canonicalized():
    phi = ExtensionOperator(3, 2, {((2, 0), (1, 0)): F(1, 3)})
    assert phi.coeffs[((0, 2), (0, 1))] == F(1, 3)


# --- apply -------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_identity_operator_applies_as_identity(seed):
    rng = random.Random(seed)
    d = random_metric(rng, 3)
    phi = ExtensionOperator(3, 3, {})
    assert apply(phi, d).rows == d.rows


@pytest.mark.parametrize("seed", range(10))
def test_collapse_operator_applies_as_lookup(seed):
    rng = random.Random(50 + seed)
    n, k = rng.randint(3, 6), rng.randint(2, 3)
    f = random_assignment(rng, n, k)
    phi = zero_extension_operator(n, k, f)
    d = random_metric(rng, k)
    image = apply(phi, d)
    assert all(image.dist(i, j) == d.dist(f[i], f[j])
               for i in range(n) for j in range(n))


def test_zero_metric_maps_to_zero_metric():
    phi = zero_extension_operator(4, 3, (0, 1, 2, 0))
    assert apply(phi, zero_metric(3)) == zero_metric(4)


def test_apply_checks_dimensions():
    with pytest.raises(ValueError):
        apply(ExtensionOperator(3, 2, {}), zero_metric(3))


@pytest.mark.parametrize("f", [
    (1, 1, 2, 0),      # terminal 0 not fixed
    (0, 1, 2, 3),      # target outside 0..k-1
    (0, 1, 2),         # wrong length
])
def test_collapse_validation(f):
    with pytest.raises(ValueError):
        zero_extension_operator(4, 3, f)


# --- membership oracle -------------------------------------------------

def test_identity_instance_is_a_member():
    assert membership_oracle(ExtensionOperator(3, 3, {})) is None


@pytest.mark.parametrize("seed", range(10))
def test_collapse_operators_are_members(seed):
    rng = random.Random(100 + seed)
    n, k = rng.randint(3, 6), rng.randint(2, 3)
    phi = zero_extension_operator(n, k, random_assignment(rng, n, k))
    assert membership_oracle(phi) is None


def test_all_zero_rows_violate_a_triangle():
    # phi(d)(0,2) = phi(d)(2,1) = 0 while the identity row keeps
    # phi(d)(0,1) = d(0,1): the normalized cone on two terminals is the
    # single point d(0,1) = 1, where the row fails by exactly 1.
    hit = membership_oracle(ExtensionOperator(3, 2, {}))
    assert hit is not None
    assert hit.where == (0, 1, 2)
    assert hit.witness.dist(0, 1) == 1
    assert hit.excess == 1


def test_membership_accepts_k1_operators():
    assert membership_oracle(ExtensionOperator(3, 1, {})) is None


def image_value(phi, d_y, xp):
    """phi(d_Y) at the X-pair ``xp``, read off the tensor (any d_Y, member or not)."""
    return sum((phi.coeffs.get((xp, yp), 0) * d_y.dist(*yp) for yp in all_pairs(phi.k)), F(0))


def maps_rays_to_metrics(phi):
    """phi is linear, so it maps every terminal metric to a metric exactly
    when it maps each extreme ray of the terminal metric cone to one."""
    for ray in cone_rays(phi.k):
        table = [[0] * phi.k for _ in range(phi.k)]
        for (p, q), v in zip(all_pairs(phi.k), ray):
            table[p][q] = table[q][p] = v
        try:
            apply(phi, Metric(table))
        except ValueError:
            return False
    return True


def check_membership_hit(phi, hit):
    i, j, l = hit.where
    assert hit.witness.size == phi.k and hit.excess > 0
    assert sum((hit.witness.dist(*yp) for yp in all_pairs(phi.k)), F(0)) == 1
    broken = (image_value(phi, hit.witness, (i, j)) - image_value(phi, hit.witness, pair(i, l))
              - image_value(phi, hit.witness, pair(l, j)))
    assert broken == hit.excess


def check_distortion_hit(phi, q, g, hit):
    # the witness extends at cost 1 at a positive optimum of the metric upper
    # quality, where its beta-cost is alpha(phi(witness)) > q, and at cost 0,
    # with a positive cost, when that quality is unbounded
    cost = alpha_cost(g, apply(phi, hit.witness))
    assert operator_to_sparsifier(phi, g).cost(hit.witness) == cost
    if is_unbounded(hit.q_value):
        assert min_extension(g, hit.witness).value == 0 and cost > 0
    else:
        assert min_extension(g, hit.witness).value == 1 and hit.q_value == cost > q


def mixed_zero_extensions(rng, n, k):
    """A random convex combination of two or three zero-extension operators:
    a member of the operator cone, which is convex, and seldom a zero
    extension itself."""
    weights = [F(rng.randint(1, 4)) for _ in range(rng.randint(2, 3))]
    coeffs = {}
    for w in weights:
        for key, c in zero_extension_operator(n, k, random_assignment(rng, n, k)).coeffs.items():
            if key[0][1] >= k:  # the constructor injects the identity rows
                coeffs[key] = coeffs.get(key, F(0)) + c * w / sum(weights)
    return ExtensionOperator(n, k, coeffs)


def random_operator(rng, n, k):
    density = rng.choice((0.1, 0.3, 0.6))
    return ExtensionOperator(n, k, {
        (xp, yp): F(rng.randint(1, 4), rng.randint(1, 3))
        for xp in all_pairs(n) if xp[1] >= k for yp in all_pairs(k) if rng.random() < density})


def solve_recording_oracles(g, monkeypatch):
    """Solve g, recording every master iterate the oracle was asked about:
    (phi, hits) for the membership scan and, for each iterate the solve
    grades, (phi, q, graph, hit), hit being its report when it overshoots
    the master's q. The scan reads the iterate as an integer table; phi is
    rebuilt from it. A graded phi is the collapsed one, whose distortion is q."""
    scans, collapsed, probes = [], [], []
    scan, collapse, upper = (operators._membership_scan, operators.operator_to_sparsifier,
                             quality.metric_quality_upper)

    def recorded_scan(n, k, table, scale):
        phi = ExtensionOperator(n, k, {
            (xp, yp): F(table[a][b], scale) for a, xp in enumerate(all_pairs(n))
            for b, yp in enumerate(all_pairs(k)) if xp[1] >= k})
        scans.append((phi, scan(n, k, table, scale)))
        return scans[-1][1]

    def recorded_collapse(phi, graph):
        collapsed.append(phi)
        return collapse(phi, graph)

    def recorded_upper(graph, beta):
        report, phi = upper(graph, beta), collapsed[-1]
        assert beta == collapse(phi, graph)
        probes.append((phi, phi.distortion, graph, overshoot(report, phi.distortion)))
        return report

    with monkeypatch.context() as patch:
        patch.setattr(operators, "_membership_scan", recorded_scan)
        patch.setattr(operators, "operator_to_sparsifier", recorded_collapse)
        patch.setattr(quality, "metric_quality_upper", recorded_upper)
        report = find_optimal_operator(g)
    assert len(scans) == report.iterations  # one scan per master round
    # the oracle grades exactly the iterates its scan finds no hit on
    assert len(probes) == sum(not hits for _, hits in scans)
    return report, scans, probes


@pytest.mark.parametrize("seed", range(6))
def test_membership_matches_the_images_of_the_extreme_rays(seed, monkeypatch):
    rng = random.Random(500 + seed)
    phis = []
    for _ in range(12):
        k = rng.randint(2, 5)
        n = rng.randint(k + 1, k + 2)
        phis.append(random_operator(rng, n, k))
        phis.append(zero_extension_operator(n, k, random_assignment(rng, n, k)))
    k = 3 + seed % 3
    report, scans, _ = solve_recording_oracles(random_graph(rng, k + 2, k), monkeypatch)
    phis += [phi for phi, _ in scans] + [report.operator]
    verdicts = []
    for phi in phis:
        hit = membership_oracle(phi)
        verdicts.append(hit is None)
        assert verdicts[-1] == maps_rays_to_metrics(phi)
        if hit is not None:
            check_membership_hit(phi, hit)
    assert any(verdicts) and not all(verdicts)
    for phi, hits in scans:  # the solve's own scan: every violated row, members none
        assert (not hits) == maps_rays_to_metrics(phi)
        for hit in hits:
            check_membership_hit(phi, hit)


@pytest.mark.parametrize("seed", range(4))
def test_distortion_hits_overshoot_by_the_image_cost(seed):
    rng = random.Random(600 + seed)
    for _ in range(4):
        k = rng.randint(2, 4)
        n = rng.randint(k + 1, k + 3)
        g, _ = canonicalize(random_graph(rng, n, k))
        phi = zero_extension_operator(n, k, random_assignment(rng, n, k))
        q_phi = evaluate_operator_distortion(phi, g)
        assert 0 < q_phi and not is_unbounded(q_phi)  # random graphs are connected
        for q in (F(0), q_phi / 2, q_phi * F(9, 10)):
            check_distortion_hit(phi, q, g, distortion_hit(phi, q, g))
        assert distortion_hit(phi, q_phi, g) is None


@st.composite
def probe_instances(draw):
    """A canonical seeded random graph on 2 <= k < n <= 7 vertices,
    connected or not, so that both routes of the metric upper quality run,
    and a member operator: a zero extension or a mix of them."""
    n = draw(st.integers(3, 7))
    k = draw(st.integers(2, n - 1))
    rng = random.Random(draw(st.integers(0, 10_000)))
    g, _ = canonicalize(random_graph(rng, n, k, density=draw(st.sampled_from([0.3, 1.0])),
                                     connected=draw(st.booleans())))
    if draw(st.booleans()):
        return g, zero_extension_operator(n, k, random_assignment(rng, n, k))
    return g, mixed_zero_extensions(rng, n, k)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(probe_instances())
def test_distortion_oracle_hits_exactly_above_the_operator_distortion(case):
    g, phi = case
    q_phi = evaluate_operator_distortion(phi, g)
    bounded = not is_unbounded(q_phi)
    for q in ((F(0), q_phi / 2, q_phi * F(9, 10), q_phi) if bounded else (F(0), F(1))):
        hit = distortion_hit(phi, q, g)
        assert (hit is not None) == (not bounded or q_phi > q)
        if hit is not None:
            check_distortion_hit(phi, q, g, hit)
            assert is_unbounded(hit.q_value) == (not bounded)


def test_the_solves_distortion_hits_overshoot_by_the_image_cost(monkeypatch):
    g, _ = canonicalize(random_graph(random.Random(6), 7, 5, density=1.0))
    report, _, probes = solve_recording_oracles(g, monkeypatch)
    hits = [(phi, q, graph, hit) for phi, q, graph, hit in probes if hit is not None]
    assert len(hits) == report.distortion_cuts > 0  # a rare event on random graphs
    for phi, q, graph, hit in hits:
        assert membership_oracle(phi) is None and q == phi.distortion
        check_distortion_hit(phi, q, graph, hit)


# --- distortion oracle -------------------------------------------------

def test_identity_operator_has_no_distortion_witness():
    g = triangle_y()
    phi = ExtensionOperator(3, 3, {})
    assert distortion_hit(phi, F(1), g) is None
    assert distortion_hit(phi, F(2), g) is None


def test_collapse_on_path_meets_q_one():
    g = path3()
    phi = zero_extension_operator(3, 2, (0, 1, 0))
    assert distortion_hit(phi, F(1), g) is None


def test_double_paying_operator_is_caught_at_q_one():
    # both edges of the path pay d(a,b): feasible as a member, but costs
    # twice the minimum extension of every nonzero d_Y
    g = path3()
    phi = ExtensionOperator(3, 2, {((0, 2), (0, 1)): 1, ((1, 2), (0, 1)): 1})
    assert membership_oracle(phi) is None
    hit = distortion_hit(phi, F(1), g)
    assert hit is not None
    check_distortion_hit(phi, F(1), g, hit)
    assert hit.witness == cut_metric([0], 2)  # d(a, b) = 1 extends at cost 1
    assert hit.q_value == 2


def test_an_operator_across_disconnected_terminals_has_unbounded_distortion():
    # two paths, 0-2-4 and 1-3-5; the zero extension pulls 2 and 4 onto
    # terminal 1, so beta(0, 1) = 1 while the cut metric of 0's component
    # extends at cost 0
    g = WeightedGraph(6, [0, 1], {(0, 2): 1, (2, 4): 1, (1, 3): 1, (3, 5): 1})
    phi = zero_extension_operator(6, 2, (0, 1, 1, 1, 1, 1))
    assert is_unbounded(evaluate_operator_distortion(phi, g))
    hit = distortion_hit(phi, F(7), g)
    check_distortion_hit(phi, F(7), g, hit)
    assert hit.witness == cut_metric([0], 2) and is_unbounded(hit.q_value)
    assert min_extension(g, hit.witness).value == 0
    assert operator_to_sparsifier(phi, g).cost(hit.witness) == 1


def test_distortion_oracle_requires_canonical_graph():
    g = WeightedGraph(3, [2, 0], {(0, 2): 1})
    with pytest.raises(ValueError):
        distortion_hit(ExtensionOperator(3, 2, {}), F(1), g)


# --- operator_to_sparsifier --------------------------------------------

def test_identity_sparsifier_restricts_the_weights():
    g = triangle_y()
    h = operator_to_sparsifier(ExtensionOperator(3, 3, {}), g)
    assert h.beta == g.weights


def test_path_collapse_moves_all_weight_onto_the_terminal_pair():
    # beta_ab = w(a,c)*phi[(a,c),(a,b)] + w(c,b)*phi[(c,b),(a,b)] = 0 + 1
    g = path3()
    h = operator_to_sparsifier(zero_extension_operator(3, 2, (0, 1, 0)), g)
    assert h.beta == {(0, 1): F(1)}


@pytest.mark.parametrize("seed", range(10))
def test_sparsifier_cost_equals_image_cost(seed):
    rng = random.Random(200 + seed)
    n, k = rng.randint(3, 6), rng.randint(2, 3)
    g = random_graph(rng, n, k)
    g, _ = canonicalize(g)
    phi = zero_extension_operator(n, k, random_assignment(rng, n, k))
    h = operator_to_sparsifier(phi, g)
    for _ in range(10):
        d = random_metric(rng, k)
        assert h.cost(d) == alpha_cost(g, apply(phi, d))


def test_sparsifier_conversion_requires_canonical_graph():
    g = WeightedGraph(3, [2, 0], {(0, 2): 1})
    with pytest.raises(ValueError):
        operator_to_sparsifier(ExtensionOperator(3, 2, {}), g)


# --- find_optimal_operator ---------------------------------------------

def test_identity_instance_solves_to_q_one():
    report = find_optimal_operator(triangle_y())
    assert report.converged
    assert report.q == 1
    assert report.operator.coeffs == ExtensionOperator(3, 3, {}).coeffs


@pytest.mark.parametrize("seed", range(8))
def test_two_terminals_always_reach_q_one(seed):
    rng = random.Random(300 + seed)
    g = random_graph(rng, rng.randint(2, 6), 2)
    report = find_optimal_operator(g)
    assert report.converged
    assert report.q == 1


def test_path_optimum_is_a_collapse():
    report = find_optimal_operator(path3())
    assert report.converged and report.q == 1
    collapses = [zero_extension_operator(3, 2, (0, 1, p)).coeffs for p in (0, 1)]
    assert report.operator.coeffs in collapses


def test_unit_star_optimum_by_hand():
    # Leaf pairs are symmetric, so an optimal tensor has value a on the two
    # pairs meeting its own leaf and b on the opposite pair. Distortion is
    # linear in (a, b) and maximized on cut metrics, membership on the
    # triangle rows demands 3a + b >= 1 and 4a + 2b >= 1, and minimizing
    # the worst cut ratio 2(2a + b) gives a = 1/3, b = 0, Q = 4/3.
    report = find_optimal_operator(unit_star(3))
    assert report.converged
    assert report.q == F(4, 3)
    phi = report.operator
    assert phi.distortion == F(4, 3)
    for t in range(3):
        own = [yp for yp in [(0, 1), (0, 2), (1, 2)] if t in yp]
        opposite = [yp for yp in [(0, 1), (0, 2), (1, 2)] if t not in yp]
        assert all(phi.coeffs.get(((t, 3), yp), 0) == F(1, 3) for yp in own)
        assert all(phi.coeffs.get(((t, 3), yp), 0) == 0 for yp in opposite)


def test_unit_star_report_details():
    report = find_optimal_operator(unit_star(3))
    # all three cut metrics are binding with min extension 1
    assert len(report.worst_metrics) == 3
    for d, c in report.worst_metrics:
        assert c == 1
        assert alpha_cost(report.graph, apply(report.operator, d)) == report.q * c
    assert report.graph.is_canonical()
    assert report.order == (0, 1, 2, 3)


@pytest.mark.parametrize("seed", range(6))
def test_solver_beats_every_collapse(seed):
    # 0-extension operators are members, so the optimum can only be better;
    # exhaustive over all k^(n-k) assignments
    rng = random.Random(400 + seed)
    n, k = rng.randint(3, 5), rng.randint(2, 3)
    g, _ = canonicalize(random_graph(rng, n, k))
    report = find_optimal_operator(g)
    assert report.converged
    free = n - k
    for mask in range(k ** free):
        f = list(range(k))
        rest, m = [], mask
        for _ in range(free):
            rest.append(m % k)
            m //= k
        value = evaluate_operator_distortion(zero_extension_operator(n, k, f + rest), g)
        assert report.q <= value


@pytest.mark.parametrize("seed", range(5))
def test_solver_output_invariants(seed):
    rng = random.Random(500 + seed)
    g = random_graph(rng, rng.randint(3, 6), rng.randint(2, 3))
    report = find_optimal_operator(g)
    assert report.converged
    phi, q, g_c = report.operator, report.q, report.graph
    assert membership_oracle(phi) is None
    assert distortion_hit(phi, q, g_c) is None
    for _ in range(30):
        d = random_metric(rng, g.k)
        image = apply(phi, d)  # raises if the image leaves the cone
        assert image.restrict(range(g.k)).rows == d.rows
        cost = alpha_cost(g_c, image)
        c_star = min_extension(g_c, d).value
        assert c_star <= cost <= q * c_star
    for d, c in report.worst_metrics:
        assert alpha_cost(g_c, apply(phi, d)) == q * c


def test_solver_is_deterministic():
    g = random_graph(random.Random(77), 5, 3)
    r1 = find_optimal_operator(g)
    r2 = find_optimal_operator(g)
    assert r1.q == r2.q
    assert r1.operator.coeffs == r2.operator.coeffs
    assert dump_canonical(operator_to_json(r1.operator)) == dump_canonical(
        operator_to_json(r2.operator))


def test_disconnected_graphs_still_get_finite_distortion():
    # terminals 0,1 and 2,3 live in separate components
    g = WeightedGraph(6, [0, 1, 2, 3],
                      {(0, 4): 1, (1, 4): 2, (2, 5): F(1, 2), (3, 5): 1})
    report = find_optimal_operator(g)
    assert report.converged
    assert report.q == 1


def test_terminal_free_component_collapses_for_free():
    # the component {3, 4} holds no terminal, so its edge can always ride
    # along with one terminal at zero cost
    g = WeightedGraph(5, [0, 1], {(0, 2): 1, (1, 2): 1, (3, 4): 3})
    report = find_optimal_operator(g)
    assert report.converged and report.q == 1
    assert evaluate_operator_distortion(report.operator, report.graph) == 1


def test_single_terminal_has_vacuous_distortion():
    # with k = 1 the only terminal metric is zero, so the supremum is empty
    report = find_optimal_operator(WeightedGraph(2, [0], {(0, 1): 1}))
    assert report.converged and report.q == 0
    tiny = find_optimal_operator(WeightedGraph(1, [0], {}))
    assert tiny.converged and tiny.q == 0


def test_iteration_cap_reports_non_convergence():
    report = find_optimal_operator(unit_star(3), max_iters=1)
    assert not report.converged
    assert report.iterations == 1
    assert report.q < F(4, 3)  # cap hit before the last cuts arrived


def test_non_canonical_inputs_are_relabeled():
    g = WeightedGraph(3, [2, 0], {(1, 2): 1, (0, 1): 1})  # path 2-1-0
    report = find_optimal_operator(g)
    assert report.converged and report.q == 1
    assert report.order == (2, 0, 1)
    assert report.graph.terminals == (0, 1)


# --- wire format -------------------------------------------------------

def test_operator_round_trip():
    report = find_optimal_operator(unit_star(3))
    data = operator_to_json(report.operator)
    back = operator_from_json(data)
    assert back.coeffs == report.operator.coeffs
    assert back.distortion == report.operator.distortion
    assert dump_canonical(operator_to_json(back)) == dump_canonical(data)


def test_operator_json_requires_distortion():
    with pytest.raises(ValueError):
        operator_to_json(ExtensionOperator(3, 2, {}))


@pytest.mark.parametrize("mangle,fragment", [
    (lambda d: d.pop("Q"), "missing required key"),
    (lambda d: d.update(Q="-1/1"), "operator: distortion is negative: -1"),
    (lambda d: d["coeffs"].append(d["coeffs"][0]), "duplicate"),
    (lambda d: d["coeffs"][0].pop(), "expected [i, j, p, q, value]"),
    (lambda d: d["coeffs"].append([2, 3, 0, 1, "-1/2"]), "negative"),
    (lambda d: d["coeffs"].append([0, 1, 0, 1, "1/2"]), "duplicate"),
    (lambda d: d["coeffs"].append([2, 3, -1, 0, "1/1"]), "Y-pair (-1, 0) outside 0..2"),
    # the last coefficient again, a nonterminal one, with both pairs reversed
    (lambda d: d["coeffs"].append([*d["coeffs"][-1][1::-1], *d["coeffs"][-1][3:1:-1], "2/1"]),
     "]: duplicate coefficient for ((2, 3), "),
    (lambda d: d["coeffs"].append([3, 3, 0, 1, "1/1"]), "]: pair endpoints must differ"),
    (lambda d: d["coeffs"].append([0, 3, 1, 1, "1/1"]), "]: pair endpoints must differ"),
])
def test_operator_json_errors(mangle, fragment):
    data = operator_to_json(find_optimal_operator(unit_star(3)).operator)
    mangle(data)
    with pytest.raises(JsonFormatError) as err:
        operator_from_json(data)
    assert fragment in str(err.value)
