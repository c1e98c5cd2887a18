"""Seeded random instances: metrics, graphs and demand sets.

Every generator takes an explicit :class:`random.Random`, so one seed fixes
each artifact bit-for-bit. Random metrics are shortest-path closures of
random nonnegative pair tables, valid by construction; random graphs place
terminals in random (unsorted) positions so downstream canonicalization is
exercised rather than assumed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import DemandSet, Metric, WeightedGraph, all_pairs, floyd_warshall, integer_row, pair


def random_fraction(rng: random.Random, max_num: int = 6, max_den: int = 4,
                    min_num: int = 0) -> Fraction:
    """A rational with numerator in [min_num, max_num] and denominator in [1, max_den]."""
    return Fraction(rng.randint(min_num, max_num), rng.randint(1, max_den))


def random_metric(rng: random.Random, m: int, max_num: int = 6,
                  max_den: int = 4) -> Metric:
    """A random semimetric on m points: the closure of a random pair table,
    taken on the draws' numerators over their least common denominator."""
    pairs = all_pairs(m)
    nums, scale = integer_row([random_fraction(rng, max_num, max_den) for _ in pairs])
    ints = [[0] * m for _ in range(m)]
    for (i, j), v in zip(pairs, nums):
        ints[i][j] = ints[j][i] = v
    floyd_warshall(ints)
    return Metric.from_integers(ints, scale)


def random_graph(rng: random.Random, n: int, k: int, density: float = 0.5,
                 connected: bool = True, max_num: int = 6,
                 max_den: int = 4) -> WeightedGraph:
    """A random weighted graph with k terminals in random (unsorted) positions.

    With ``connected`` a random spanning tree of positive weights comes first.
    Every other pair draws a weight with probability ``density``; a draw of 0
    (1 in max_num + 1) adds no edge, so density 1 need not give a complete graph.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k = {k}, n = {n}")
    terminals = tuple(rng.sample(range(n), k))
    weights: dict[tuple[int, int], Fraction] = {}
    if connected and n > 1:
        vertices = list(range(n))
        rng.shuffle(vertices)
        for pos in range(1, n):
            anchor = vertices[rng.randrange(pos)]
            weights[pair(vertices[pos], anchor)] = random_fraction(
                rng, max_num, max_den, min_num=1)
    for pq in all_pairs(n):
        if pq not in weights and rng.random() < density:
            weights[pq] = random_fraction(rng, max_num, max_den)
    return WeightedGraph(n, terminals, weights)


def random_demands(rng: random.Random, k: int, count: int, max_num: int = 4,
                   max_den: int = 3) -> DemandSet:
    """``count`` positive demands between random terminal-local pairs; k >= 2."""
    if k < 2:
        raise ValueError("demands need at least two terminals")
    if count < 1:
        raise ValueError("demand sets must carry at least one demand")
    demands = []
    for _ in range(count):
        s, t = rng.sample(range(k), 2)
        demands.append((s, t, random_fraction(rng, max_num, max_den, min_num=1)))
    return DemandSet(demands)
