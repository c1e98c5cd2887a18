"""Shared instance builders for the test suite.

Every graph here is small enough that brute-force oracles (exhaustive
bipartitions, exhaustive 0-extensions) stay instant.
"""

from dataclasses import dataclass
from fractions import Fraction

from vsparse import WeightedGraph, lp


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
