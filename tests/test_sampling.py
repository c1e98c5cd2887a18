"""Seeded instance generators used across the suite and the CLI."""

import random
from fractions import Fraction

import pytest

from vsparse import Metric
from vsparse.sampling import random_demands, random_fraction, random_graph, random_metric


@pytest.mark.parametrize("seed", range(10))
def test_random_fraction_stays_in_range(seed):
    rng = random.Random(seed)
    for _ in range(50):
        f = random_fraction(rng, max_num=6, max_den=4)
        assert 0 <= f <= 6
        assert f.denominator <= 4


@pytest.mark.parametrize("seed", range(20))
def test_random_graph_shape(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    k = rng.randint(1, n)
    g = random_graph(rng, n, k)
    assert g.n == n and g.k == k
    assert len(set(g.terminals)) == k
    assert all(w > 0 for w in g.weights.values())


@pytest.mark.parametrize("seed", range(10))
def test_random_graph_is_connected_by_default(seed):
    rng = random.Random(100 + seed)
    g = random_graph(rng, rng.randint(2, 8), 2)
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for (i, j) in g.weights:
            for a, b in ((i, j), (j, i)):
                if a == v and b not in seen:
                    seen.add(b)
                    frontier.append(b)
    assert seen == set(range(g.n))


def test_random_graph_determinism():
    assert random_graph(random.Random(42), 7, 3) == random_graph(random.Random(42), 7, 3)


@pytest.mark.parametrize("seed", range(10))
def test_random_metric_is_valid(seed):
    rng = random.Random(200 + seed)
    d = random_metric(rng, rng.randint(1, 7))
    assert Metric(d.rows) == d  # validated again from its Fractions


@pytest.mark.parametrize("seed", range(10))
def test_random_demands_are_terminal_local(seed):
    rng = random.Random(300 + seed)
    k = rng.randint(2, 5)
    ds = random_demands(rng, k, count=6)
    assert len(ds.demands) == 6
    assert ds.max_endpoint() < k
    assert ds.has_positive()


def test_random_demands_need_two_terminals():
    with pytest.raises(ValueError):
        random_demands(random.Random(0), 1, count=2)


@pytest.mark.parametrize("draw, message", [
    (lambda rng: random_graph(rng, 2, 3), "need 1 <= k <= n, got k = 3, n = 2"),
    (lambda rng: random_graph(rng, 3, 0), "need 1 <= k <= n, got k = 0, n = 3"),
    (lambda rng: random_demands(rng, 3, count=0), "at least one demand"),
], ids=["more-terminals-than-vertices", "no-terminal", "no-demand"])
def test_generators_refuse_impossible_shapes(draw, message):
    with pytest.raises(ValueError, match=message):
        draw(random.Random(0))
