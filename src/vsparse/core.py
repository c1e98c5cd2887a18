"""Exact building blocks: finite semimetrics, weighted graphs, demands.

Every quantity in this package is a ``fractions.Fraction``; nothing touches
floating point. Hot comparisons and sums (metric validation, shortest-path
closure, a sparsifier's cut values and costs) run on integer numerators over
one common positive denominator, cached per metric, graph and sparsifier as
its ``integers`` view, which decides exactly as the Fractions would, while
every value in and out stays a ``Fraction``. Vertex sets are 0-based ranges and the canonical key for an
edge or a distance is the unordered pair ``(i, j)`` with ``i < j``, counted
once. Metrics are symmetric, zero on the diagonal, nonnegative and satisfy
all triangle inequalities; zero distance between distinct points is allowed.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence, Union

Pair = tuple[int, int]
FractionLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(value: FractionLike) -> Fraction:
    """Convert an int, string or Fraction to Fraction without touching floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def integer_row(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Numerators of ``values`` over their least common denominator.

    The denominator is positive, so comparing numerators compares values.
    """
    scale = lcm(*[v.denominator for v in values])  # a list, see _exact_rows
    return [v.numerator * (scale // v.denominator) for v in values], scale


def integer_table(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """A table of Fractions as integer numerators over one common denominator."""
    scale = lcm(*[v.denominator for row in rows for v in row])
    return [[v.numerator * (scale // v.denominator) for v in row] for row in rows], scale


def pair(i: int, j: int) -> Pair:
    """Canonical unordered pair key."""
    if i == j:
        raise ValueError(f"pair endpoints must differ, got ({i}, {j})")
    return (i, j) if i < j else (j, i)


def all_pairs(m: int) -> list[Pair]:
    """All unordered pairs on points 0..m-1, in lexicographic order."""
    return list(itertools.combinations(range(m), 2))


def bipartitions(k: int) -> Iterator[tuple[int, list[int]]]:
    """Each bipartition of terminals 0..k-1 once, as (mask, side).

    Bit 0 stays on the inside, so the masks are the odd ones 1, 3, ...,
    2^k - 3 in ascending order and a side and its complement never both
    appear; ``side`` lists the terminals whose bits are set.
    """
    for mask in range(1, (1 << k) - 1, 2):
        yield mask, [p for p in range(k) if mask >> p & 1]


class Unbounded:
    """Singleton marker for quality values with no finite supremum."""

    _instance = None

    def __new__(cls) -> "Unbounded":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "unbounded"


UNBOUNDED = Unbounded()


def is_unbounded(value: object) -> bool:
    return value is UNBOUNDED


@dataclass(frozen=True)
class MetricViolation:
    """First reason a distance table fails to be a semimetric."""

    kind: str  # "shape" | "value" | "diagonal" | "symmetry" | "negative" | "triangle"
    where: tuple[int, ...]
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} violation at {self.where}: {self.detail}"


def _exact_rows(table: Sequence[Sequence[FractionLike]]) -> tuple[tuple[Fraction, ...], ...]:
    # Built from lists, not generators: tuple() of a generator grows by
    # resizing, which bypasses CPython's tuple free list, so every freed row
    # would park on that list until the next full garbage collection.
    return tuple([tuple([as_fraction(v) for v in row]) for row in table])


def _table_violation(rows: Sequence[Sequence[Fraction]]) -> MetricViolation | None:
    """Return the first violated semimetric condition of a square table, or None.

    The conditions are decided on integer numerators over the table's common
    denominator; the messages print the Fraction entries.
    """
    m = len(rows)
    for i, row in enumerate(rows):
        if len(row) != m:
            return MetricViolation("shape", (i,), f"row {i} has length {len(row)}, expected {m}")
    ints, _ = integer_table(rows)
    for i in range(m):
        if ints[i][i] != 0:
            return MetricViolation("diagonal", (i,), f"d({i},{i}) = {rows[i][i]} != 0")
        for j in range(i + 1, m):
            if ints[i][j] != ints[j][i]:
                return MetricViolation("symmetry", (i, j), f"d({i},{j}) = {rows[i][j]} but d({j},{i}) = {rows[j][i]}")
            if ints[i][j] < 0:
                return MetricViolation("negative", (i, j), f"d({i},{j}) = {rows[i][j]} < 0")
    # The table is symmetric from here on, so d(l,j) = d(j,l) and row j
    # serves as column j. Points l = i and l = j give d(i,j) itself, never
    # more, so the sums need no filtering before the first violation.
    for i in range(m):
        ri = ints[i]
        for j in range(i + 1, m):
            rj, dij = ints[j], ri[j]
            if dij > min([a + b for a, b in zip(ri, rj)]):
                l = next(l for l in range(m) if dij > ri[l] + rj[l])
                return MetricViolation(
                    "triangle", (i, j, l),
                    f"d({i},{j}) = {rows[i][j]} > d({i},{l}) + d({l},{j}) = {rows[i][l] + rows[l][j]}",
                )
    return None


@dataclass(frozen=True)
class Metric:
    """A finite semimetric on points 0..m-1, stored as a full distance table.

    The constructor normalizes entries to Fraction and validates all three
    semimetric conditions exactly, so holding a Metric is proof of validity.
    Use :func:`validate_metric` to classify a table without raising.
    """

    rows: tuple[tuple[Fraction, ...], ...]

    def __init__(self, table: Sequence[Sequence[FractionLike]]):
        rows = _exact_rows(table)
        bad = _table_violation(rows)
        if bad is not None:
            raise ValueError(str(bad))
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return len(self.rows)

    def dist(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    @functools.cached_property
    def integers(self) -> tuple[list[list[int]], int]:
        """``integer_table(rows)``, built on first read and kept; read only."""
        return integer_table(self.rows)

    def restrict(self, points: Sequence[int]) -> "Metric":
        """The induced metric on the given points, in the given order."""
        for p in points:
            if not 0 <= p < self.size:
                raise ValueError(f"point {p} outside 0..{self.size - 1}")
        return Metric([[self.rows[i][j] for j in points] for i in points])

    def scale(self, c: FractionLike) -> "Metric":
        c = as_fraction(c)
        if c < 0:
            raise ValueError("metrics are only closed under nonnegative scaling")
        return Metric([[c * v for v in row] for row in self.rows])

    def __add__(self, other: "Metric") -> "Metric":
        if self.size != other.size:
            raise ValueError("cannot add metrics of different sizes")
        return Metric([
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)
        ])

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.rows for v in row)


def validate_metric(table: Sequence[Sequence[FractionLike]]) -> Metric | MetricViolation:
    """Check a square distance table; return a Metric or the first violation found.

    Conditions, in check order: square shape with exact rational entries,
    zero diagonal, symmetry, nonnegativity, and every triangle inequality.
    """
    try:
        rows = _exact_rows(table)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        return MetricViolation("value", (), str(exc))
    bad = _table_violation(rows)
    if bad is not None:
        return bad
    return Metric(rows)


def zero_metric(m: int) -> Metric:
    return Metric([[ZERO] * m for _ in range(m)])


def cut_metric(side: Iterable[int], m: int) -> Metric:
    """The 0/1 metric of the bipartition (side, complement) on points 0..m-1."""
    side_set = set(side)
    for v in side_set:
        if not 0 <= v < m:
            raise ValueError(f"cut side contains {v}, outside 0..{m - 1}")
    table = [
        [ONE if (i in side_set) != (j in side_set) else ZERO for j in range(m)]
        for i in range(m)
    ]
    return Metric(table)


def metric_closure(table: Sequence[Sequence[FractionLike]]) -> Metric:
    """Shortest-path closure of a symmetric nonnegative table with zero diagonal.

    The closure is the largest semimetric pointwise below the table, which is
    how arbitrary nonnegative pair data is turned into a valid metric.
    """
    rows = [[as_fraction(v) for v in row] for row in table]
    m = len(rows)
    if any(len(row) != m or row[i] != 0 for i, row in enumerate(rows)):
        raise ValueError("closure input must be square with zero diagonal")
    for i in range(m):
        for j in range(m):
            if rows[i][j] != rows[j][i] or rows[i][j] < 0:
                raise ValueError("closure input must be symmetric and nonnegative")
    ints, scale = integer_table(rows)
    floyd_warshall(ints)  # on the numerators; the common denominator is positive
    return Metric([[Fraction(v, scale) for v in row] for row in ints])


def floyd_warshall(ints: list[list[int]]) -> None:
    """Replace each entry of a square table of nonnegative integer lengths
    with zero diagonal by its shortest-path length, in place."""
    m = len(ints)
    for l in range(m):
        rl = ints[l]
        for i in range(m):
            ril = ints[i][l]
            ints[i] = [a if a <= ril + b else ril + b for a, b in zip(ints[i], rl)]


def restrict(d: Metric, points: Sequence[int]) -> Metric:
    """Module-level alias for :meth:`Metric.restrict`."""
    return d.restrict(points)


@dataclass(frozen=True, eq=True)
class WeightedGraph:
    """An undirected graph with nonnegative rational edge weights and terminals.

    Vertices are 0..n-1. ``terminals`` is a nonempty ordered tuple of distinct
    vertices; its order fixes the terminal-local indexing 0..k-1 used by cut
    metrics, sparsifiers and demands. Weights are keyed by canonical pair;
    absent pairs weigh zero.
    """

    n: int
    terminals: tuple[int, ...]
    weights: dict[Pair, Fraction]

    def __init__(
        self,
        n: int,
        terminals: Sequence[int],
        weights: Mapping[Pair, FractionLike] | Iterable[tuple[int, int, FractionLike]],
    ):
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got n = {n}")
        terms = tuple(terminals)
        if not terms:
            raise ValueError("graph needs at least one terminal")
        if len(set(terms)) != len(terms):
            raise ValueError(f"terminals contain duplicates: {terms}")
        for t in terms:
            if not 0 <= t < n:
                raise ValueError(f"terminal {t} outside 0..{n - 1}")
        if isinstance(weights, Mapping):
            triples: Iterable[tuple[int, int, FractionLike]] = ((i, j, w) for (i, j), w in weights.items())
        else:
            triples = weights
        norm: dict[Pair, Fraction] = {}
        seen: set[Pair] = set()
        for i, j, w in triples:
            key = pair(i, j)
            if key[0] < 0 or key[1] >= n:
                raise ValueError(f"edge {key} outside 0..{n - 1}")
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            wf = as_fraction(w)
            if wf < 0:
                raise ValueError(f"edge {key} has negative weight {wf}")
            if wf:
                norm[key] = wf
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terminals", terms)
        object.__setattr__(self, "weights", norm)

    @property
    def k(self) -> int:
        return len(self.terminals)

    def weight(self, i: int, j: int) -> Fraction:
        return self.weights.get(pair(i, j), ZERO)

    @functools.cached_property
    def integers(self) -> tuple[tuple[int, ...], int]:
        """The weights, in ``weights`` order, as numerators over their least
        common denominator (:func:`integer_row`), built on first read and kept; read only."""
        nums, scale = integer_row(list(self.weights.values()))
        return tuple(nums), scale

    def edges(self) -> list[tuple[int, int, Fraction]]:
        """Stored edges as (i, j, weight) triples in pair order."""
        return [(i, j, w) for (i, j), w in sorted(self.weights.items())]

    def is_canonical(self) -> bool:
        """True when the terminals are exactly 0..k-1 in order."""
        return self.terminals == tuple(range(self.k))

    def __hash__(self) -> int:
        return hash((self.n, self.terminals, tuple(sorted(self.weights.items()))))


def canonicalize(g: WeightedGraph) -> tuple[WeightedGraph, tuple[int, ...]]:
    """Relabel vertices so the terminals occupy 0..k-1 in terminal order.

    Returns the relabeled graph and ``order`` with ``order[new] = old``.
    Non-terminals keep their relative order after the terminals. On an
    already canonical graph this is the identity.
    """
    if g.is_canonical():
        return g, tuple(range(g.n))
    term_set = set(g.terminals)
    order = tuple(g.terminals) + tuple(v for v in range(g.n) if v not in term_set)
    new_of_old = {old: new for new, old in enumerate(order)}
    weights = {pair(new_of_old[i], new_of_old[j]): w for (i, j), w in g.weights.items()}
    return WeightedGraph(g.n, tuple(range(g.k)), weights), order


def alpha_cost(g: WeightedGraph, d: Metric) -> Fraction:
    """The weighted sum of distances, each unordered pair counted once."""
    if d.size != g.n:
        raise ValueError(f"metric has {d.size} points, graph has {g.n} vertices")
    total = ZERO
    for (i, j), w in g.weights.items():
        if w:
            total += w * d.rows[i][j]
    return total


@dataclass(frozen=True)
class Sparsifier:
    """A weighted graph on the k terminals alone, keyed by terminal-local pairs.

    The quality semantics (cut, metric, flow) all compare this object
    against the graph it was derived from.
    """

    k: int
    beta: dict[Pair, Fraction]

    def __init__(self, k: int, beta: Mapping[Pair, FractionLike]):
        if k < 1:
            raise ValueError(f"sparsifier needs at least one terminal, got k = {k}")
        norm: dict[Pair, Fraction] = {}
        for (p, q), w in beta.items():
            key = pair(p, q)
            if key[0] < 0 or key[1] >= k:
                raise ValueError(f"pair {key} outside 0..{k - 1}")
            wf = as_fraction(w)
            if wf < 0:
                raise ValueError(f"weight of pair {key} is negative: {wf}")
            if wf:
                norm[key] = norm.get(key, ZERO) + wf
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "beta", norm)

    def weight(self, p: int, q: int) -> Fraction:
        return self.beta.get(pair(p, q), ZERO)

    @functools.cached_property
    def integers(self) -> tuple[tuple[int, ...], int]:
        """The weights, in ``beta`` order, as numerators over their least
        common denominator (:func:`integer_row`), built on first read and kept; read only."""
        nums, scale = integer_row(list(self.beta.values()))
        return tuple(nums), scale

    def cost(self, d_y: Metric) -> Fraction:
        """The weighted sum of terminal distances, each pair counted once."""
        if d_y.size != self.k:
            raise ValueError(f"metric has {d_y.size} points, sparsifier has {self.k}")
        nums, scale = self.integers
        d, d_scale = d_y.integers
        return Fraction(sum([w * d[p][q] for (p, q), w in zip(self.beta, nums)]), scale * d_scale)

    def cut_value(self, side: Iterable[int]) -> Fraction:
        side_set = set(side)
        nums, scale = self.integers
        return Fraction(sum([w for (p, q), w in zip(self.beta, nums)
                             if (p in side_set) != (q in side_set)]), scale)

    def as_graph(self) -> "WeightedGraph":
        """The sparsifier as a standalone graph whose vertices are all terminals."""
        return WeightedGraph(self.k, tuple(range(self.k)), self.beta)


@dataclass(frozen=True)
class DemandSet:
    """Concurrent-flow demands between terminal-local endpoint pairs.

    Endpoints are terminal indices 0..k-1 so the same demand set applies
    unchanged to a graph (via its terminal list) and to its sparsifier.
    """

    demands: tuple[tuple[int, int, Fraction], ...]

    def __init__(self, demands: Iterable[tuple[int, int, FractionLike]]):
        norm = []
        for s, t, dem in demands:
            if s == t:
                raise ValueError(f"demand endpoints must differ, got ({s}, {t})")
            if s < 0 or t < 0:
                raise ValueError(f"demand endpoints must be nonnegative, got ({s}, {t})")
            demf = as_fraction(dem)
            if demf < 0:
                raise ValueError(f"demand ({s}, {t}) is negative: {demf}")
            norm.append((s, t, demf))
        object.__setattr__(self, "demands", tuple(norm))

    def max_endpoint(self) -> int:
        return max((max(s, t) for s, t, _ in self.demands), default=-1)

    def has_positive(self) -> bool:
        return any(dem > 0 for _, _, dem in self.demands)
