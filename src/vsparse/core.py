"""Exact building blocks: finite semimetrics, weighted graphs, demands.

Every quantity in this package is a ``fractions.Fraction``; nothing touches
floating point. Hot comparisons and sums (metric validation, shortest-path
closure, a sparsifier's cut values and costs) run on integer numerators over
one common positive denominator, the ``integers`` of a metric, graph or
sparsifier, which decide exactly as the Fractions would, while every value in
and out stays a ``Fraction``. Vertex sets are 0-based ranges and the
canonical key for an edge or a distance is the unordered pair ``(i, j)`` with
``i < j``, counted once. Metrics are symmetric, zero on the diagonal,
nonnegative and satisfy all triangle inequalities; zero distance between
distinct points is allowed.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar, Union

Pair = tuple[int, int]
FractionLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)
CUT_CAP = 20  # the most terminals whose 2^(k-1) - 1 bipartitions are enumerated
CUT, METRIC, FLOW = "cut", "metric", "flow"  # the three sparsifier semantics


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
    scale = lcm(*[v.denominator for v in values])  # a list, see Metric.rows
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
    appear; ``side`` lists the terminals whose bits are set. More than
    ``CUT_CAP`` terminals raise ValueError at the call.
    """
    if k > CUT_CAP:
        raise ValueError(f"bipartition enumeration over k = {k} terminals exceeds cap {CUT_CAP}")
    return ((mask, [p for p in range(k) if mask >> p & 1]) for mask in range(1, (1 << k) - 1, 2))


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


_R = TypeVar("_R", bound="Record")


class Record:
    """Base of the package's records: one constructor, equality and repr
    over the attributes named in ``_fields``, in order, and :meth:`replace`.
    A record equals only records of its own class, and records are
    unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values: object, **named: object) -> None:
        """Set the fields in ``_fields`` order, positionally first, then by
        name. A missing field, an extra positional, an unknown name or a
        field given twice raises TypeError."""
        fields = self._fields
        if named or len(values) != len(fields):
            cls = type(self).__name__
            if len(values) > len(fields):
                raise TypeError(f"{cls} takes {len(fields)} fields, got {len(values)} positional")
            for name in named:
                if name not in fields:
                    raise TypeError(f"{cls} has no field {name!r}")
                if fields.index(name) < len(values):
                    raise TypeError(f"{cls} got field {name!r} twice")
            missing = [name for name in fields[len(values):] if name not in named]
            if missing:
                raise TypeError(f"{cls} is missing field(s) {', '.join(missing)}")
            values += tuple([named[name] for name in fields[len(values):]])
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__name__}({fields})"

    def replace(self: _R, **changes: object) -> _R:
        """A copy with the named fields changed, built by the class's
        constructor, whose parameters are named after the fields."""
        fields = {name: getattr(self, name) for name in self._fields}
        return type(self)(**(fields | changes))


class Value(Record):
    """A read-only :class:`Record`, hashed on its fields. Assigning or
    deleting an attribute raises AttributeError; the base constructor sets
    the fields with ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is read-only")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is read-only")

    def __reduce__(self) -> tuple:
        return _rebuild, (type(self), self._values())


def _rebuild(cls: type[Value], values: tuple) -> Value:
    """The value of class ``cls`` holding ``values`` in its fields, for
    pickle and copy, which would assign them."""
    value = cls.__new__(cls)
    for name, v in zip(cls._fields, values):
        object.__setattr__(value, name, v)
    return value


def _table_violation(ints: Sequence[Sequence[int]], scale: int) -> str | None:
    """The first violated semimetric condition of a square table (shape,
    diagonal, symmetry, negative, triangle, in check order) as the message
    ``"<kind> violation at <where>: <detail>"``, or None. The conditions are
    decided on ``ints``, the table's integer numerators over the positive
    ``scale``; the messages print the Fractions ``Fraction(v, scale)``.
    """
    m = len(ints)
    for i, row in enumerate(ints):
        if len(row) != m:
            return f"shape violation at {(i,)}: row {i} has length {len(row)}, expected {m}"
    d = functools.partial(Fraction, denominator=scale)
    for i in range(m):
        if ints[i][i] != 0:
            return f"diagonal violation at {(i,)}: d({i},{i}) = {d(ints[i][i])} != 0"
        for j in range(i + 1, m):
            if ints[i][j] != ints[j][i]:
                return f"symmetry violation at {(i, j)}: d({i},{j}) = {d(ints[i][j])} but d({j},{i}) = {d(ints[j][i])}"
            if ints[i][j] < 0:
                return f"negative violation at {(i, j)}: d({i},{j}) = {d(ints[i][j])} < 0"
    # The table is symmetric from here on, so d(l,j) = d(j,l) and row j
    # serves as column j. Points l = i and l = j give d(i,j) itself, never
    # more, so the sums need no filtering before the first violation.
    for i in range(m):
        ri = ints[i]
        for j in range(i + 1, m):
            rj, dij = ints[j], ri[j]
            if dij > min([a + b for a, b in zip(ri, rj)]):
                l = next(l for l in range(m) if dij > ri[l] + rj[l])
                return (f"triangle violation at {(i, j, l)}: d({i},{j}) = {d(dij)} > "
                        f"d({i},{l}) + d({l},{j}) = {d(ri[l] + rj[l])}")
    return None


class Metric(Value):
    """A finite semimetric on points 0..m-1, stored once as ``integers``:
    its distance table's rows of numerators and their least common
    denominator, on which metrics compare and hash; read only.

    Every constructor validates all three semimetric conditions exactly on
    those integers, so holding a Metric is proof of validity; a table that
    fails raises ValueError naming the first violation.
    """

    integers: tuple[tuple[tuple[int, ...], ...], int]
    _fields = ("integers",)

    def __init__(self, table: Sequence[Sequence[FractionLike]]):
        self._settle(*integer_table([[as_fraction(v) for v in row] for row in table]))

    def _settle(self, ints: Sequence[Sequence[int]], scale: int) -> None:
        bad = _table_violation(ints, scale)
        if bad is not None:
            raise ValueError(bad)
        super().__init__((tuple([tuple(row) for row in ints]), scale))

    @classmethod
    def from_integers(cls, ints: Sequence[Sequence[int]], scale: int) -> "Metric":
        """The metric of the integers ``ints`` over the positive ``scale``,
        validated once on them after their gcd with ``scale`` is divided out."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        common = gcd(scale, *[v for row in ints for v in row])
        metric = cls.__new__(cls)
        metric._settle([[v // common for v in row] for row in ints], scale // common)
        return metric

    def replace(self, integers: tuple[Sequence[Sequence[int]], int] | None = None) -> "Metric":
        """A copy with ``integers`` changed, built by :meth:`from_integers`."""
        return Metric.from_integers(*(self.integers if integers is None else integers))

    @functools.cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The distance table as Fractions, built on first read and kept."""
        # Built from lists, not generators: tuple() of a generator grows by
        # resizing, which bypasses CPython's tuple free list, so every freed
        # row would park on that list until the next full garbage collection.
        nums, scale = self.integers
        return tuple([tuple([Fraction(v, scale) for v in row]) for row in nums])

    @property
    def size(self) -> int:
        return len(self.integers[0])

    def dist(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def restrict(self, points: Sequence[int]) -> "Metric":
        """The induced metric on the given points, in the given order."""
        for p in points:
            if not 0 <= p < self.size:
                raise ValueError(f"point {p} outside 0..{self.size - 1}")
        nums, scale = self.integers
        return Metric.from_integers([[nums[i][j] for j in points] for i in points], scale)

    def scale(self, c: FractionLike) -> "Metric":
        c = as_fraction(c)
        if c < 0:
            raise ValueError("metrics are only closed under nonnegative scaling")
        nums, scale = self.integers
        return Metric.from_integers([[c.numerator * v for v in row] for row in nums],
                                    scale * c.denominator)


def zero_metric(m: int) -> Metric:
    return Metric.from_integers([[0] * m for _ in range(m)], 1)


def cut_metric(side: Iterable[int], m: int) -> Metric:
    """The 0/1 metric of the bipartition (side, complement) on points 0..m-1."""
    side_set = set(side)
    for v in side_set:
        if not 0 <= v < m:
            raise ValueError(f"cut side contains {v}, outside 0..{m - 1}")
    return Metric.from_integers(
        [[int((i in side_set) != (j in side_set)) for j in range(m)] for i in range(m)], 1)


def floyd_warshall(ints: list[list[int]]) -> None:
    """Replace each entry of a square table of nonnegative integer lengths
    with zero diagonal by its shortest-path length, in place."""
    m = len(ints)
    for l in range(m):
        rl = ints[l]
        for i in range(m):
            ril = ints[i][l]
            ints[i] = [a if a <= ril + b else ril + b for a, b in zip(ints[i], rl)]


class WeightedGraph(Value):
    """An undirected graph with nonnegative rational edge weights and terminals.

    Vertices are 0..n-1. ``terminals`` is a nonempty ordered tuple of distinct
    vertices; its order fixes the terminal-local indexing 0..k-1 used by cut
    metrics, sparsifiers and demands. Weights are keyed by canonical pair;
    absent pairs weigh zero.
    """

    n: int
    terminals: tuple[int, ...]
    weights: dict[Pair, Fraction]
    _fields = ("n", "terminals", "weights")

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
        super().__init__(n, terms, norm)

    @property
    def k(self) -> int:
        return len(self.terminals)

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


class Sparsifier(Value):
    """A weighted graph on the k terminals alone, keyed by terminal-local pairs.

    The quality semantics (cut, metric, flow) all compare this object
    against the graph it was derived from.
    """

    k: int
    beta: dict[Pair, Fraction]
    _fields = ("k", "beta")

    def __init__(self, k: int, beta: Mapping[Pair, FractionLike]):
        if k < 1:
            raise ValueError(f"sparsifier needs at least one terminal, got k = {k}")
        norm: dict[Pair, Fraction] = {}
        for (p, q), w in beta.items():
            key = pair(p, q)
            if key in norm:  # one pair keyed in two orientations
                raise ValueError(f"duplicate pair {key}")
            if key[0] < 0 or key[1] >= k:
                raise ValueError(f"pair {key} outside 0..{k - 1}")
            wf = as_fraction(w)
            if wf < 0:
                raise ValueError(f"weight of pair {key} is negative: {wf}")
            norm[key] = wf
        super().__init__(k, {key: w for key, w in norm.items() if w})

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


class DemandSet(Value):
    """Concurrent-flow demands between terminal-local endpoint pairs.

    Endpoints are terminal indices 0..k-1 so the same demand set applies
    unchanged to a graph (via its terminal list) and to its sparsifier.
    """

    demands: tuple[tuple[int, int, Fraction], ...]
    __slots__ = _fields = ("demands",)

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
        super().__init__(tuple(norm))

    def max_endpoint(self) -> int:
        return max((max(s, t) for s, t, _ in self.demands), default=-1)

    def has_positive(self) -> bool:
        return any(dem > 0 for _, _, dem in self.demands)
