"""Integer metric-cone helpers against the Fraction code they replaced.

Metric validation, shortest-path closure, triangle separation, the cutting
plane's violation check and max-flow decide on integer numerators over one
common positive denominator; triangle separation and the violation check read
the point as the integers an outcome carries. The Fraction versions are kept
here, verbatim in logic, as references (metric validation's in ``helpers``):
every decision, message, cut and order must agree. So does the grading
arithmetic on the integer views of graphs and sparsifiers, against the
Fraction references in ``helpers``.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vsparse import (
    CutCertificate,
    Metric,
    MetricCertificate,
    Sparsifier,
    WeightedGraph,
    all_pairs,
    certify_cut,
    certify_metric,
    cut_metric,
    min_cut_by_enumeration,
    min_cut_via_flow,
    pair,
)
from vsparse import lp
from vsparse.core import _table_violation, bipartitions, integer_row, integer_table
from vsparse.extension import MetricConeLp
from vsparse.sampling import random_fraction, random_graph, random_metric
from helpers import (
    metric_closure,
    reference_certify_cut,
    reference_certify_metric,
    reference_cost,
    reference_cut_value,
    reference_random_metric,
    reference_violation,
)

F = Fraction
ZERO = F(0)


# --- Fraction references -------------------------------------------------

def reference_closure(table):
    rows = [list(row) for row in table]
    m = len(rows)
    for l in range(m):
        for i in range(m):
            for j in range(m):
                via = rows[i][l] + rows[l][j]
                if via < rows[i][j]:
                    rows[i][j] = via
    return rows


def reference_triangle_cuts(cone, x):
    pairs = all_pairs(cone.m)
    index = {pq: j for j, pq in enumerate(pairs)}
    cuts = []
    for i, j in pairs:
        for l in range(cone.m):
            if l not in (i, j) and x[index[(i, j)]] > x[index[pair(i, l)]] + x[index[pair(l, j)]]:
                coeffs = {index[(i, j)]: 1, index[pair(i, l)]: -1, index[pair(l, j)]: -1}
                cuts.append(lp.Constraint(coeffs, lp.LE, ZERO))
    return cuts


def reference_cut_is_violated(con, out):
    if out.status == lp.OPTIMAL:
        return not con.satisfied_by(out.x)
    if out.status == lp.UNBOUNDED:
        if out.x is not None and not con.satisfied_by(out.x):
            return True
        along = sum((c * out.ray[j] for j, c in con.coeffs.items()), ZERO)
        if con.rel == lp.LE:
            return along > 0
        return along < 0
    return False


# --- seeded tables with planted faults ------------------------------------

FAULTS = ("none", "shape", "diagonal", "symmetry", "negative", "triangle")


def planted_table(rng, fault):
    m = rng.randint(3, 7)
    rows = [list(row) for row in random_metric(rng, m, max_den=rng.choice([4, 9, 35])).rows]
    i, j = sorted(rng.sample(range(m), 2))
    v = random_fraction(rng, 9, 12, min_num=1)
    if fault == "shape":
        rows[i] = rows[i][:-1] if rng.random() < 0.5 else rows[i] + [v]
    elif fault == "diagonal":
        rows[i][i] = v
    elif fault == "symmetry":
        rows[i][j] += v
    elif fault == "negative":
        rows[i][j] = rows[j][i] = -v
    elif fault == "triangle":
        rows[i][j] = rows[j][i] = sum((rows[i][l] + rows[l][j] for l in range(m)), v)
    return rows


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("seed", range(8))
def test_table_violation_matches_fraction_reference(fault, seed):
    rows = planted_table(random.Random(seed), fault)
    got = _table_violation(*integer_table(rows))
    assert got == reference_violation(rows)
    assert (got is None) == (fault == "none")
    if got is not None:
        assert got.startswith(f"{fault} violation at ")
        with pytest.raises(ValueError) as info:
            Metric(rows)
        assert str(info.value) == got


@pytest.mark.parametrize("seed", range(20))
def test_triangle_violation_picks_the_same_first_triple(seed):
    # several independent triangle faults: the first in (i, j, l) order wins
    rng = random.Random(seed)
    m = rng.randint(4, 8)
    rows = [[ZERO] * m for _ in range(m)]
    for i, j in all_pairs(m):
        rows[i][j] = rows[j][i] = random_fraction(rng, 9, rng.choice([2, 7, 12]))
    assert _table_violation(*integer_table(rows)) == reference_violation(rows)


@pytest.mark.parametrize("seed", range(12))
def test_metric_closure_matches_fraction_reference(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 7)
    table = [[ZERO] * m for _ in range(m)]
    for i, j in all_pairs(m):
        table[i][j] = table[j][i] = random_fraction(rng, 9, rng.choice([3, 8, 30]))
    closed = metric_closure(table)
    assert [list(row) for row in closed.rows] == reference_closure(table)
    assert all(type(v) is Fraction for row in closed.rows for v in row)


@pytest.mark.parametrize("seed", range(12))
def test_metric_from_integers_is_the_metric_of_its_fractions(seed):
    # numerators times a common factor, over the denominator times it: the
    # factor divides out, so the stored integers are integer_table(rows) again
    rng = random.Random(seed)
    d = random_metric(rng, rng.randint(0, 6), max_den=rng.choice([1, 4, 9]))
    nums, scale = d.integers
    factor = rng.randint(1, 6)
    got = Metric.from_integers([[v * factor for v in row] for row in nums], scale * factor)
    want, want_scale = integer_table(got.rows)
    assert got == d and got.integers == (tuple(map(tuple, want)), want_scale) == d.integers
    assert all(type(v) is Fraction for row in got.rows for v in row)


@pytest.mark.parametrize("ints,scale,message", [
    ([[0, 2], [4, 0]], 6, "symmetry"),
    ([[0, 1, 4], [1, 0, 1], [4, 1, 0]], 2, "triangle"),
    ([[0, 1], [1, 0]], 0, "positive"),
])
def test_metric_from_integers_rejects_what_the_constructor_rejects(ints, scale, message):
    with pytest.raises(ValueError, match=message):
        Metric.from_integers(ints, scale)


# --- triangle separation ---------------------------------------------------

def cone_case(rng, pinned):
    # "pinned": some pairs take a metric's distances, as rows hold the
    # terminal pairs of a minimum extension, so fewer triangles fail
    m = rng.randint(3, 7)
    x = [random_fraction(rng, 8, rng.choice([2, 5, 12])) for _ in all_pairs(m)]
    if pinned:
        d = random_metric(rng, m, max_den=rng.choice([4, 9]))
        x = [d.dist(*pq) if rng.random() < 0.4 else v for pq, v in zip(all_pairs(m), x)]
    return MetricConeLp(m), x


def integer_cuts(cone, x, ray):
    # the separation reads a point as its numerators over their lcm, and a
    # ray as numerators over whatever positive denominator it came with
    nums, _ = integer_row(x)
    return cone._triangle_cuts([3 * v for v in nums] if ray else nums)


@pytest.mark.parametrize("ray", [False, True], ids=["point", "ray"])
@pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
@pytest.mark.parametrize("seed", range(10))
def test_triangle_cuts_match_fraction_reference(seed, pinned, ray):
    cone, x = cone_case(random.Random(seed), pinned)
    cuts = integer_cuts(cone, x, ray)
    reference = reference_triangle_cuts(cone, x)
    assert cuts == reference
    assert all(type(c) is Fraction for cut in cuts for c in (*cut.coeffs.values(), cut.rhs))
    for cut, ref in zip(cuts, reference):
        # the stored integer row is the Fraction row scaled by its lcm
        cols = sorted(ref.coeffs)
        nums, scale = integer_row([*(ref.coeffs[j] for j in cols), ref.rhs])
        assert (list(cut.cols), [*cut.nums, cut.rhs_num], cut.scale) == (cols, nums, scale)
        assert (cut.coeffs, cut.rel, cut.rhs) == (ref.coeffs, ref.rel, ref.rhs)


def test_triangle_cuts_cover_some_violations():
    # the seeded points above are far from metric, so the comparison is not vacuous
    counts = [len(integer_cuts(cone, x, False))
              for cone, x in (cone_case(random.Random(s), True) for s in range(10))]
    assert sum(counts) > 0


# --- cutting-plane violation check ------------------------------------------

def random_outcome(rng, n):
    # the outcome carries its point (and ray) as integers; x and ray are read lazily
    x = [random_fraction(rng, 6, rng.choice([1, 4, 9]), min_num=-3) for _ in range(n)]
    if rng.random() < 0.5:
        out = lp.LpOutcome(lp.OPTIMAL, ZERO, integer_row(x))
        ray = None
    else:
        ray = [random_fraction(rng, 4, rng.choice([1, 3, 10]), min_num=-2) for _ in range(n)]
        out = lp.LpOutcome(lp.UNBOUNDED, ZERO, integer_row(x), integer_row(ray))
    assert (out.x, out.ray) == (x, ray)
    return out


@pytest.mark.parametrize("seed", range(10))
def test_cut_violation_matches_fraction_reference(seed):
    rng = random.Random(seed)
    for _ in range(30):
        n = rng.randint(1, 6)
        out = random_outcome(rng, n)
        coeffs = {j: random_fraction(rng, 5, rng.choice([1, 6]), min_num=-5)
                  for j in range(n) if rng.random() < 0.7}
        coeffs = {j: c for j, c in coeffs.items() if c}
        con = lp.Constraint(coeffs, rng.choice([lp.LE, lp.GE]),
                            random_fraction(rng, 6, 5, min_num=-6))
        got = lp._cut_is_violated(lp._signature(con), out)
        assert got == reference_cut_is_violated(con, out)


# --- max-flow ------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(10))
def test_min_cut_via_flow_matches_enumeration_on_mixed_denominators(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(3, 8), rng.randint(2, 4),
                     density=rng.choice([0.2, 0.5]), connected=rng.random() < 0.7,
                     max_den=rng.choice([7, 12, 30]))
    for r in range(1, g.k):
        for side in itertools.combinations(range(g.k), r):
            got = min_cut_via_flow(g, side)
            assert type(got) is Fraction
            assert got == min_cut_by_enumeration(g, side)


# --- grading on the integer views of graphs and sparsifiers --------------------

# zero numerators and denominators with few common factors
rationals = st.builds(F, st.integers(0, 9), st.sampled_from([1, 2, 3, 5, 7, 12, 30]))


@st.composite
def pair_weights(draw, m):
    """Weights on a random subset of the pairs on m points; zeros included."""
    return {pq: draw(rationals) for pq in all_pairs(m) if draw(st.booleans())}


@st.composite
def distributions(draw, k):
    masks = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=6))
    weights = draw(st.lists(rationals, min_size=len(masks), max_size=len(masks)))
    if not any(weights):
        weights[0] = F(1)
    total = sum(weights, ZERO)
    return [(mask, w / total) for mask, w in zip(masks, weights)]


@st.composite
def grading_cases(draw):
    """A graph with k <= 6 terminals, often with a terminal cut off, a
    sparsifier and a cut certificate on it, a seeded random metric's seed
    and denominator bound, and a scaled cut metric."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(k, k + 3))
    terminals = draw(st.permutations(range(n)))[:k]
    g = WeightedGraph(n, terminals, draw(pair_weights(n)))
    beta = Sparsifier(k, draw(pair_weights(k)))
    cert = CutCertificate(g, draw(distributions(k)), draw(distributions(k)))
    mask = draw(st.integers(0, (1 << k) - 1))
    cut = cut_metric([p for p in range(k) if mask >> p & 1], k).scale(draw(rationals))
    return g, beta, cert, draw(st.integers(0, 2**32)), draw(st.sampled_from([1, 4, 9, 30])), cut


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(grading_cases())
def test_integer_grading_matches_fraction_references(case):
    g, beta, cert, seed, max_den, cut = case
    for _, side in bipartitions(g.k):
        got = beta.cut_value(side)
        assert type(got) is Fraction and got == reference_cut_value(beta, side)
        flow = min_cut_via_flow(g, side)
        assert type(flow) is Fraction and flow == min_cut_by_enumeration(g, side)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    d = random_metric(rng, g.k, max_den=max_den)
    # the same draws in the same order, closed to the same table
    assert [list(row) for row in d.rows] == reference_random_metric(ref_rng, g.k, max_den=max_den)
    assert rng.getstate() == ref_rng.getstate()
    cost = beta.cost(d)
    assert type(cost) is Fraction and cost == reference_cost(beta, d)
    assert certify_cut(cert) == reference_certify_cut(cert)
    family = MetricCertificate(g, [d, cut, random_metric(rng, g.k, max_den=max_den)])
    assert certify_metric(family) == reference_certify_metric(family)


def test_integer_views_are_kept_and_match_integer_row():
    g = WeightedGraph(4, [2, 0], {(0, 1): F(3, 4), (1, 2): F(5, 6), (2, 3): 0, (0, 3): 2})
    beta = Sparsifier(2, {(0, 1): F(7, 10)})
    for view, values in ((g.integers, g.weights), (beta.integers, beta.beta)):
        nums, scale = view
        assert type(nums) is tuple and (list(nums), scale) == integer_row(list(values.values()))
    assert g.integers == ((9, 10, 24), 12)
    assert g.integers is g.integers and beta.integers is beta.integers
    assert WeightedGraph(2, [0], {}).integers == ((), 1)
