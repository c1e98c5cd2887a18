"""Shared instance builders and Fraction references for the test suite.

Every graph here is small enough that brute-force oracles (exhaustive
bipartitions, exhaustive 0-extensions) stay instant. The references
(an operator's image, a shortest-path closure, a sum of metrics, the
metric validation message) are what the tests compare the package against;
the package itself does not need them.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from vsparse import (
    Metric,
    WeightedGraph,
    all_pairs,
    lp,
    min_cut_by_enumeration,
    min_extension,
    pair,
)
from vsparse.core import floyd_warshall, integer_table
from vsparse.extension import MetricConeLp
from vsparse.sampling import random_fraction


def path3() -> WeightedGraph:
    """Path a-c-b with unit weights; terminals a, b; c in the middle."""
    return WeightedGraph(3, [0, 1], {(0, 2): 1, (1, 2): 1})


def unit_star(k: int = 3) -> WeightedGraph:
    """k unit edges from terminals 0..k-1 to a non-terminal center k."""
    return WeightedGraph(k + 1, range(k), {(t, k): 1 for t in range(k)})


def weighted_star(weights) -> WeightedGraph:
    """Star with one leaf terminal per weight, center non-terminal."""
    k = len(weights)
    return WeightedGraph(k + 1, range(k),
                         {(t, k): Fraction(w) for t, w in enumerate(weights)})


def triangle_y() -> WeightedGraph:
    """Complete graph on 3 terminals (Y = X), unit weights."""
    return WeightedGraph(3, [0, 1, 2], {(0, 1): 1, (0, 2): 1, (1, 2): 1})


def apply(phi, d_y) -> Metric:
    """The image metric phi(d_Y) on all n vertices, summed as Fractions.

    Raises ValueError if the image violates a metric condition, which for a
    well-formed phi means it is not a member of the operator cone.
    """
    if d_y.size != phi.k:
        raise ValueError(f"metric has {d_y.size} points, operator expects {phi.k}")
    table = [[Fraction(0)] * phi.n for _ in range(phi.n)]
    for ((i, j), (p, q)), c in phi.coeffs.items():
        table[i][j] += c * d_y.dist(p, q)
        table[j][i] = table[i][j]
    return Metric(table)


def metric_closure(table) -> Metric:
    """Shortest-path closure of a symmetric nonnegative table with zero
    diagonal: the largest metric pointwise below it, closed by
    ``core.floyd_warshall`` on its numerators."""
    rows = [[Fraction(v) for v in row] for row in table]
    m = len(rows)
    if any(len(row) != m or row[i] != 0 for i, row in enumerate(rows)):
        raise ValueError("closure input must be square with zero diagonal")
    if any(rows[i][j] != rows[j][i] or rows[i][j] < 0 for i in range(m) for j in range(m)):
        raise ValueError("closure input must be symmetric and nonnegative")
    ints, scale = integer_table(rows)
    floyd_warshall(ints)  # on the numerators; the common denominator is positive
    return Metric.from_integers(ints, scale)


def metric_sum(m: int, metrics) -> Metric:
    """The entrywise sum of metrics on m points, a metric again; the zero
    metric when there are none."""
    table = [[Fraction(0)] * m for _ in range(m)]
    for d in metrics:
        if d.size != m:
            raise ValueError(f"cannot add a metric on {d.size} points to one on {m}")
        table = [[a + b for a, b in zip(row, d_row)] for row, d_row in zip(table, d.rows)]
    return Metric(table)


def reference_violation(rows):
    """The constructor's message for the first violated semimetric
    condition of a table of Fractions, or None, decided on the Fractions
    and with every triple of points tried in order."""
    m = len(rows)
    for i, row in enumerate(rows):
        if len(row) != m:
            return f"shape violation at {(i,)}: row {i} has length {len(row)}, expected {m}"
    for i in range(m):
        if rows[i][i] != 0:
            return f"diagonal violation at {(i,)}: d({i},{i}) = {rows[i][i]} != 0"
        for j in range(i + 1, m):
            if rows[i][j] != rows[j][i]:
                return (f"symmetry violation at {(i, j)}: "
                        f"d({i},{j}) = {rows[i][j]} but d({j},{i}) = {rows[j][i]}")
            if rows[i][j] < 0:
                return f"negative violation at {(i, j)}: d({i},{j}) = {rows[i][j]} < 0"
    for i, j, l in itertools.permutations(range(m), 3):
        if i < j and rows[i][j] > rows[i][l] + rows[l][j]:
            return (f"triangle violation at {(i, j, l)}: d({i},{j}) = {rows[i][j]} > "
                    f"d({i},{l}) + d({l},{j}) = {rows[i][l] + rows[l][j]}")
    return None


def held_rows(values):
    """Each pair of ``values`` held at its value, as a "<=" and a ">=" row."""
    rows = []
    for pq, v in values.items():
        rows += [({pq: Fraction(1)}, lp.LE, v), ({pq: Fraction(1)}, lp.GE, v)]
    return rows


def reference_min_extension(g: WeightedGraph, d_y):
    """The minimum extension as a metric-cone LP over all n vertices, each
    terminal distance held by a pair of rows; its ``MetricLpResult``.

    Rows come in pairs, so the cone never reads the one-row program off
    its rays: the LP with lazy triangle rows decides.
    """
    held = {pair(g.terminals[p], g.terminals[q]): d_y.dist(p, q) for p, q in all_pairs(g.k)}
    return MetricConeLp(g.n).optimize("min", dict(g.weights), held_rows(held))


def reference_pair_lp(g: WeightedGraph, sense: str, coeffs):
    """The metric upper quality ("max", beta = coeffs) or the concurrent
    flow ("min", demands coeffs) as the metric-cone LP over all n vertices;
    its ``MetricLpResult``.

    ``coeffs`` is keyed by terminal-local pair. "max" maximizes
    sum coeffs * d(p, q) subject to alpha(d) <= 1, "min" minimizes alpha(d)
    subject to sum coeffs * d(p, q) >= 1. On at most six points the cone
    reads the one-row program off its extreme rays, elsewhere the LP with
    lazy triangle rows decides.
    """
    objective = {}
    for (p, q), c in coeffs.items():
        if c:
            key = pair(g.terminals[p], g.terminals[q])
            objective[key] = objective.get(key, Fraction(0)) + c
    cone = MetricConeLp(g.n)
    if sense == "max":
        return cone.optimize("max", objective, [(dict(g.weights), lp.LE, Fraction(1))])
    return cone.optimize("min", dict(g.weights), [(objective, lp.GE, Fraction(1))])


def reference_cut_value(beta, side) -> Fraction:
    """``Sparsifier.cut_value`` summed as Fractions."""
    side = set(side)
    return sum((w for (p, q), w in beta.beta.items() if (p in side) != (q in side)), Fraction(0))


def reference_cost(beta, d_y) -> Fraction:
    """``Sparsifier.cost`` summed as Fractions."""
    return sum((w * d_y.dist(p, q) for (p, q), w in beta.beta.items()), Fraction(0))


def reference_certify_cut(cert):
    """``certificates.certify_cut`` on Fractions, with each expected min cut
    taken by enumeration instead of max-flow."""
    g = cert.graph
    c_min = Fraction(0)
    for p in range(g.k):
        for q in range(g.k):
            if p == q:
                continue
            m1 = sum((prob for mask, prob in cert.mu1 if mask >> p & 1 and not mask >> q & 1),
                     Fraction(0))
            m2 = sum((prob for mask, prob in cert.mu2 if mask >> p & 1 and not mask >> q & 1),
                     Fraction(0))
            if m2 == 0:
                if m1 > 0:
                    return None
                continue
            c_min = max(c_min, m1 / m2)

    def expected(mu):
        full = (1 << g.k) - 1
        return sum((prob * min_cut_by_enumeration(g, [p for p in range(g.k) if mask >> p & 1])
                    for mask, prob in mu if prob and mask not in (0, full)), Fraction(0))

    e1, e2 = expected(cert.mu1), expected(cert.mu2)
    if e1 <= 0 or e2 <= 0:
        return None
    return e1 / (c_min * e2)


def reference_certify_metric(cert):
    """``certificates.certify_metric`` on Fractions: the family summed as
    Metrics, and every minimum extension taken by the LP, cut metrics too."""
    g = cert.graph
    denominator = min_extension(g, metric_sum(g.k, cert.metrics)).value
    if denominator == 0:
        return None
    return sum((min_extension(g, d).value for d in cert.metrics), Fraction(0)) / denominator


def reference_random_metric(rng, m: int, max_num: int = 6, max_den: int = 4):
    """The table of ``sampling.random_metric``: the same draws, closed by
    Floyd-Warshall on Fractions."""
    table = [[Fraction(0)] * m for _ in range(m)]
    for i, j in all_pairs(m):
        table[i][j] = table[j][i] = random_fraction(rng, max_num, max_den)
    for l in range(m):
        for i in range(m):
            for j in range(m):
                table[i][j] = min(table[i][j], table[i][l] + table[l][j])
    return table


@dataclass
class BoundedOutcome:
    """An outcome of a :class:`BoundedProgram` in its own variables."""

    status: str
    x: list[Fraction] | None
    value: Fraction | None
    duals: list[Fraction] | None
    bound_duals: list[Fraction] | None
    ray: list[Fraction] | None


EQ = "="  # an equation row of a BoundedProgram


class BoundedProgram(lp.LinearProgram):
    """A linear program whose variables may be free or bounded above, and
    whose rows may be equations, solved as the sign-constrained
    inequality program ``lp.solve`` takes.

    A free x_j is written x_j - x_j' with x_j' on a new column after the
    original ones, in the order of j. An ``EQ`` row is written as a "<="
    row followed by a ">=" row with the same coefficients and right-hand
    side; its dual is the sum of the pair's duals. Each ``x_j <= u_j``
    becomes a "<=" row after the program's own rows, in the order of j, and
    its dual is the bound dual of x_j (0 for a variable without an upper
    bound).
    """

    def __init__(self, n_vars: int, sense: str = "min", objective=None):
        super().__init__(n_vars, sense, objective)
        self.free = [False] * n_vars
        self.upper: list[Fraction | None] = [None] * n_vars

    def add_constraint(self, coeffs, rel: str, rhs) -> int:
        r = super().add_constraint(coeffs, lp.LE if rel == EQ else rel, rhs)
        self.constraints[r].rel = rel
        return r

    def set_free(self, j: int) -> None:
        self._check_var(j)
        self.free[j] = True

    def set_upper(self, j: int, u) -> None:
        self._check_var(j)
        self.upper[j] = Fraction(u)

    def _neg_cols(self) -> dict[int, int]:
        free = [j for j in range(self.n_vars) if self.free[j]]
        return {j: self.n_vars + i for i, j in enumerate(free)}

    def signed_row(self, coeffs) -> dict[int, Fraction]:
        """The coefficients on the columns of :meth:`sign_constrained`."""
        neg = self._neg_cols()
        row = dict(coeffs)
        row.update({neg[j]: -c for j, c in coeffs.items() if j in neg})
        return row

    def sign_constrained(self) -> lp.LinearProgram:
        program = lp.LinearProgram(self.n_vars + len(self._neg_cols()), self.sense,
                                   self.signed_row(self.objective))
        for con in self.constraints:
            for rel in (lp.LE, lp.GE) if con.rel == EQ else (con.rel,):
                program.add_constraint(self.signed_row(con.coeffs), rel, con.rhs)
        for j, u in enumerate(self.upper):
            if u is not None:
                program.add_constraint(self.signed_row({j: 1}), lp.LE, u)
        return program

    def outcome(self, out: lp.LpOutcome) -> BoundedOutcome:
        """``out``, an outcome of :meth:`sign_constrained`, mapped back; rows
        appended to that program after it was built have no dual here."""
        neg = self._neg_cols()

        def back(values):
            if values is None:
                return None
            return [values[j] - values[neg[j]] if j in neg else values[j]
                    for j in range(self.n_vars)]

        duals = bound_duals = None
        if out.duals is not None:
            rows = iter(out.duals)
            duals = [next(rows) + next(rows) if con.rel == EQ else next(rows)
                     for con in self.constraints]
            bound_duals = [Fraction(0)] * self.n_vars
            bounded = [j for j, u in enumerate(self.upper) if u is not None]
            for j, y in zip(bounded, rows):
                bound_duals[j] = y
        return BoundedOutcome(out.status, back(out.x), out.value, duals, bound_duals,
                              back(out.ray))

    def solve(self) -> BoundedOutcome:
        """Solve the sign-constrained program, audit it and map it back."""
        program = self.sign_constrained()
        out = lp.solve(program)
        lp.audit(program, out)
        return self.outcome(out)
