"""Terminal min cuts without an LP: the package's one max-flow
(:func:`min_cut_via_flow`) and a brute-force referee. A cut certificate is
checked with these alone, so it loads neither ``extension`` nor ``lp``;
``extension.min_cut_via_lp`` is the third, independent route.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .core import ZERO, WeightedGraph


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

    The terminals in ``side`` become node 0, the other terminals node 1 and
    the non-terminals nodes 2, 3, ...; the graph's integer view (its weights
    scaled by the lcm of their denominators) summed into a capacity matrix
    on those nodes carries the flow, by shortest augmenting paths, and the
    flow is scaled back to an exact Fraction. ``side`` holds terminal-local
    indices and must be a nonempty proper subset of 0..k-1.
    """
    side_set = _terminal_side(g, side)
    node_of: dict[int, int] = {}
    for p, t in enumerate(g.terminals):
        node_of[t] = 0 if p in side_set else 1
    m = 2
    for v in range(g.n):
        if v not in node_of:
            node_of[v] = m
            m += 1
    residual = [[0] * m for _ in range(m)]
    weights, scale = g.integers
    for (i, j), w in zip(g.weights, weights):
        u, v = node_of[i], node_of[j]
        if u != v:
            residual[u][v] += w
            residual[v][u] += w
    flow = 0
    nodes = range(m)
    while True:
        parent = [-1] * m
        parent[0] = 0
        queue = [0]  # breadth-first: the loop reads what it appends
        for u in queue:
            if u == 1:
                break
            row = residual[u]
            for v in nodes:
                if row[v] and parent[v] < 0:
                    parent[v] = u
                    queue.append(v)
        if parent[1] < 0:
            return Fraction(flow, scale)
        path = []
        v = 1
        while v:  # back to the source, node 0
            path.append((parent[v], v))
            v = parent[v]
        bottleneck = min([residual[u][v] for u, v in path])
        for u, v in path:
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
        flow += bottleneck


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
