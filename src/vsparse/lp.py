"""Exact rational linear programming and a lazy-constraint driver.

A small two-phase primal simplex with Bland's anti-cycling rule, so every
solve is deterministic and every certificate is bit-exact. An optimal
outcome keeps its tableau: once more rows are appended to the program,
:func:`solve` re-solves from it by a dual simplex with no phase one, which
is how :func:`cutting_plane` runs every round after the first.
The dual simplex picks its leaving row by exact dual steepest edge and falls
back to the dual Bland rule only while a basis it has already visited comes
back. The tableau holds each row as integer numerators over one exact
positive denominator and pivots fraction-free (cross-multiply, then divide
out the gcd); programs come in and every value comes out as
``fractions.Fraction``. Outcomes carry primal solutions, dual multipliers
satisfying strong duality and complementary slackness exactly (built from
the final reduced costs on first read), and improving rays for unbounded
programs. :func:`audit` re-verifies all of that from scratch and is switched
on liberally in the test suite.

Every variable is nonnegative and every other condition is an inequality
row, so a program is ``min`` or ``max`` of ``c.x`` over ``x >= 0`` and rows
``<=`` or ``>=``; an equation is the pair of them. Dual conventions, stated
once and enforced by :func:`audit`:

* sense ``min``: duals are >= 0 on ">=" rows and <= 0 on "<=" rows;
  reduced costs ``c_j - y.A_j`` are >= 0.
* sense ``max``: duals are >= 0 on "<=" rows and <= 0 on ">=" rows;
  reduced costs are <= 0.

Strong duality reads ``value = sum_r duals[r] * rhs_r``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, Mapping, Sequence

from .core import ONE, ZERO, FractionLike, as_fraction, integer_row

LE, GE = "<=", ">="
_RELATIONS = (LE, GE)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpError(ValueError):
    """Malformed linear program."""


class LpAuditError(AssertionError):
    """An exact post-solve check failed; this always signals a solver bug."""


class CuttingPlaneError(RuntimeError):
    """The lazy-constraint loop detected an oracle exactness bug."""


@dataclass
class Constraint:
    """A sparse linear row ``sum coeffs[j] * x_j  rel  rhs``."""

    coeffs: dict[int, Fraction]
    rel: str
    rhs: Fraction

    def evaluate(self, x: Sequence[Fraction]) -> Fraction:
        return sum((c * x[j] for j, c in self.coeffs.items()), ZERO)

    def satisfied_by(self, x: Sequence[Fraction]) -> bool:
        lhs = self.evaluate(x)
        if self.rel == LE:
            return lhs <= self.rhs
        return lhs >= self.rhs


class LinearProgram:
    """A linear program over exact rationals.

    Variables are indexed 0..n_vars-1 and are all nonnegative; an upper
    bound is a "<=" row like any other. Constraints are added in a fixed
    order that, together with the pivot rules, makes every solve deterministic.
    """

    def __init__(self, n_vars: int, sense: str = "min",
                 objective: Mapping[int, FractionLike] | None = None):
        if n_vars < 0:
            raise LpError(f"n_vars must be nonnegative, got {n_vars}")
        if sense not in ("min", "max"):
            raise LpError(f"sense must be 'min' or 'max', got {sense!r}")
        self.n_vars = n_vars
        self.sense = sense
        self.objective: dict[int, Fraction] = {}
        if objective:
            for j, c in objective.items():
                self.set_objective_coeff(j, c)
        self.constraints: list[Constraint] = []

    def _check_var(self, j: int) -> None:
        if not 0 <= j < self.n_vars:
            raise LpError(f"variable index {j} outside 0..{self.n_vars - 1}")

    def set_objective_coeff(self, j: int, c: FractionLike) -> None:
        self._check_var(j)
        c = as_fraction(c)
        if c:
            self.objective[j] = c
        else:
            self.objective.pop(j, None)

    def add_constraint(self, coeffs: Mapping[int, FractionLike], rel: str,
                       rhs: FractionLike) -> int:
        if rel not in _RELATIONS:
            raise LpError(f"relation must be one of {_RELATIONS}, got {rel!r}")
        row: dict[int, Fraction] = {}
        for j, c in coeffs.items():
            self._check_var(j)
            c = as_fraction(c)
            if c:
                row[j] = c
        self.constraints.append(Constraint(row, rel, as_fraction(rhs)))
        return len(self.constraints) - 1


@dataclass
class LpOutcome:
    """Result of an exact solve.

    status "optimal": x, value and duals (one per constraint) are set.
    status "unbounded": x is a feasible point and ray an improving feasible
    direction from it. status "infeasible": everything else is None.
    An optimal outcome of :func:`solve` also keeps its final ``tableau``, from
    which a later solve of the same program with rows appended starts.
    Its duals are built on first read from ``dual_source``, a copy of the
    final reduced-cost row (numerators, denominator) and of each row's
    ``(column, sign)``, taken because a later solve takes the tableau over.
    """

    status: str
    x: list[Fraction] | None = None
    value: Fraction | None = None
    ray: list[Fraction] | None = None
    tableau: _Tableau | None = field(default=None, repr=False, compare=False)
    dual_source: tuple[list[int], int, list[tuple[int, int]]] | None = field(
        default=None, repr=False, compare=False)
    _duals: list[Fraction] | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def duals(self) -> list[Fraction] | None:
        """One multiplier per constraint of an optimal outcome, else None."""
        if self._duals is None and self.dual_source is not None:
            red, den, entries = self.dual_source
            self._duals = [sign * Fraction(red[col], den) for col, sign in entries]
            self.dual_source = None
        return self._duals


# ---------------------------------------------------------------------------
# simplex core


def _eliminate(row: list[int], den: int, f: int, prow: list[int], pden: int,
               nz: list[int]) -> tuple[list[int], int]:
    """``row/den - (f/den) * prow/pden`` over ``len(row)`` columns.

    ``nz`` lists the nonzero columns of ``prow`` below ``len(row)``. When
    ``pden`` divides ``f`` only those entries change, in place; otherwise the
    row is cross-multiplied and divided by the gcd of its entries and
    denominator.
    """
    g = gcd(f, pden)
    if g == pden:
        mult = f // pden
        for idx in nz:
            row[idx] -= mult * prow[idx]
        return row, den
    scale, mult = pden // g, f // g
    new = [a * scale - mult * b for a, b in zip(row, prow)]
    den *= scale
    g = gcd(den, *new)
    if g > 1:
        new = [v // g for v in new]
        den //= g
    return new, den


def _row_norm(row: list[int]) -> int:
    """The sum of squares of a tableau row's numerators outside the rhs."""
    return sum(map(mul, row, row)) - row[-1] * row[-1]


class _Tableau:
    """Dense simplex tableau of integer numerators; rhs in the last column.

    Row r stands for ``rows[r][idx] / dens[r]`` with ``dens[r] > 0``, and the
    reduced-cost row likewise for ``red[idx] / red_den``. A pivot rescales the
    pivot row so its pivot entry equals the denominator, cross-multiplies the
    other rows against it and divides each touched row by the gcd of its
    entries and denominator, so the values stay exact rationals without any
    Fraction arithmetic. Every pivoting decision reads only a sign or an
    exact comparison of integer products, so the pivot sequence is the one a
    tableau of Fractions would take. ``norms[r]`` caches the sum of squares
    of row r's numerators outside the rhs, ``None`` once the row has changed;
    the dual simplex fills it in when it needs it. ``layout`` maps the
    program onto the columns.
    """

    def __init__(self, rows: list[list[int]], dens: list[int], basis: list[int], ncols: int,
                 layout: _Layout):
        self.rows = rows
        self.dens = dens
        self.basis = basis
        self.ncols = ncols  # structural + slack + artificial, excluding rhs
        self.norms: list[int | None] = [None] * len(rows)
        self.red: list[int] = []
        self.red_den = 1
        self.layout = layout

    def pivot(self, pr: int, pc: int) -> None:
        prow = self.rows[pr]
        pden = prow[pc]
        if pden < 0:
            prow = [-v for v in prow]
            pden = -pden
        g = gcd(*prow)
        if g > 1:
            prow = [v // g for v in prow]
            pden //= g
        self.rows[pr], self.dens[pr] = prow, pden
        norms = self.norms
        norms[pr] = None
        nz = [idx for idx, v in enumerate(prow) if v]
        for r, row in enumerate(self.rows):
            f = row[pc]
            if f and r != pr:
                self.rows[r], self.dens[r] = _eliminate(row, self.dens[r], f, prow, pden, nz)
                norms[r] = None
        f = self.red[pc]
        if f:
            if nz[-1] == self.ncols:
                nz.pop()  # the reduced-cost row has no rhs column
            self.red, self.red_den = _eliminate(self.red, self.red_den, f, prow, pden, nz)
        self.basis[pr] = pc

    def set_reduced_costs(self, cost: list[int], cost_den: int) -> None:
        """Reduced costs of ``cost / cost_den`` against the current basis."""
        basic = [(cost[b], r) for r, b in enumerate(self.basis) if cost[b]]
        scale = lcm(*[self.dens[r] for _, r in basic])  # a list, see core._exact_rows
        red = [c * scale for c in cost]
        for cb, r in basic:
            mult = cb * (scale // self.dens[r])
            red = [a - mult * b for a, b in zip(red, self.rows[r])]
        den = cost_den * scale
        g = gcd(den, *red)
        if g > 1:
            red = [v // g for v in red]
            den //= g
        self.red, self.red_den = red, den

    def run(self, cost: list[int], cost_den: int,
            enterable: Sequence[bool]) -> tuple[str, int | None]:
        """Bland-rule simplex to optimality; returns (status, entering col).

        status "optimal" means no enterable column has negative reduced cost;
        "unbounded" reports the entering column whose ratio test found no
        blocking row. The final reduced costs stay in ``red`` / ``red_den``.
        """
        self.set_reduced_costs(cost, cost_den)
        rows, basis = self.rows, self.basis
        while True:
            red = self.red
            pc = -1
            for idx in range(self.ncols):
                if enterable[idx] and red[idx] < 0:
                    pc = idx
                    break
            if pc < 0:
                return OPTIMAL, None
            # Ratios rhs/a compare by cross-multiplication: the row's
            # denominator cancels and both pivot entries are positive.
            pr = -1
            best_rhs = best_a = 0
            for r, row in enumerate(rows):
                a = row[pc]
                if a > 0:
                    diff = row[-1] * best_a - best_rhs * a
                    if pr < 0 or diff < 0 or (diff == 0 and basis[r] < basis[pr]):
                        pr, best_rhs, best_a = r, row[-1], a
            if pr < 0:
                return UNBOUNDED, pc
            self.pivot(pr, pc)

    def append_rows(self, rows: list[list[int]], dens: list[int]) -> None:
        """Append rows whose last ``len(rows)`` columns before the rhs are
        their own new slacks, entered basic.

        Every existing row gains zeros in the new columns, and so does the
        reduced-cost row: a basic slack has reduced cost zero. The zeros leave
        the old rows' norms as they were; the new rows have none yet. Each
        new row is reduced against the current basis, so it reads zero in
        every basic column but its slack.
        """
        width = len(rows)
        for row in self.rows:
            row[-1:-1] = [0] * width
        self.red += [0] * width
        self.norms += [None] * width
        nonzero: dict[int, list[int]] = {}
        for offset, (row, den) in enumerate(zip(rows, dens)):
            for r, b in enumerate(self.basis):
                f = row[b]
                if f:
                    prow = self.rows[r]
                    if r not in nonzero:
                        nonzero[r] = [idx for idx, v in enumerate(prow) if v]
                    row, den = _eliminate(row, den, f, prow, self.dens[r], nonzero[r])
            rows[offset], dens[offset] = row, den
        slacks = range(self.ncols, self.ncols + width)
        self.rows += rows
        self.dens += dens
        self.basis += slacks
        self.ncols += width

    def run_dual(self, enterable: Sequence[bool]) -> bool:
        """Dual simplex from a dual feasible basis to optimality.

        The leaving row is chosen by exact dual steepest edge: among the rows
        with a negative rhs, the one with the largest ``rhs_r**2 / N_r``,
        where ``N_r`` is the row's cached norm (its denominator cancels),
        ties to the lowest basic column. The entering column is the
        enterable column with a negative entry in that row that minimizes
        ``red_j / -a_rj``, ties to the lowest column. Returns False when a
        leaving row has no such column, which proves the program infeasible.

        A dual-degenerate pivot (entering reduced cost zero) leaves the dual
        objective where it was, so only a run of them can cycle. The sorted
        basis before each is remembered until the next nondegenerate pivot;
        if one comes back, the leaving row is the dual Bland rule's (the
        lowest basic column with a negative rhs) until the next
        nondegenerate pivot. Bland's rule cannot cycle, so neither can this.
        """
        rows, basis, norms = self.rows, self.basis, self.norms
        seen: set[tuple[int, ...]] = set()
        bland = False
        while True:
            pr = -1
            best_sq = best_norm = 0
            for r, row in enumerate(rows):
                rhs = row[-1]
                if rhs >= 0:
                    continue
                if bland:
                    if pr < 0 or basis[r] < basis[pr]:
                        pr = r
                    continue
                norm = norms[r]
                if norm is None:
                    norm = norms[r] = _row_norm(row)
                # rhs_r**2 / N_r against the best so far, cross-multiplied.
                sq = rhs * rhs
                diff = sq * best_norm - best_sq * norm
                if pr < 0 or diff > 0 or (diff == 0 and basis[r] < basis[pr]):
                    pr, best_sq, best_norm = r, sq, norm
            if pr < 0:
                return True
            # Ratios red/-a compare by cross-multiplication: the common
            # denominators cancel and both pivot entries are negative.
            red = self.red
            pc = -1
            best_red = best_a = 0
            for idx, a in enumerate(rows[pr][:-1]):
                if a < 0 and enterable[idx] and (pc < 0 or red[idx] * best_a > best_red * a):
                    pc, best_red, best_a = idx, red[idx], a
            if pc < 0:
                return False
            if red[pc]:
                seen.clear()
                bland = False
            elif not bland:
                key = tuple(sorted(basis))
                bland = key in seen
                seen.add(key)
            self.pivot(pr, pc)


class _Layout:
    """How a program sits in its tableau: enough to read an outcome off the
    tableau and to append more rows of the same program to it. Variable j
    is column j."""

    def __init__(self, program: LinearProgram):
        self.program = program
        self.shape = _shape(program)  # sense and objective the tableau was built for
        # per row of the program in the tableau: the column whose reduced cost
        # is its dual, and the dual's sign
        self.duals: list[tuple[int, int]] = []
        self.enterable: list[bool] = []


def _tableau_row(coeffs: Mapping[int, Fraction], rhs: Fraction, negate: bool,
                 ncols: int) -> tuple[list[int], int]:
    """The row scaled to integers once, by the lcm of its denominators, over
    ``ncols`` columns plus the rhs; returns it with the scale."""
    nums, scale = integer_row([*coeffs.values(), rhs])
    sgn = -1 if negate else 1
    row = [0] * (ncols + 1)
    for j, c in zip(coeffs, nums):
        row[j] = sgn * c
    row[-1] = sgn * nums[-1]
    return row, scale


def _shape(lp: LinearProgram) -> tuple:
    return lp.sense, tuple(lp.objective.items())


def _dual_sign(rel: str, minimize: bool) -> int:
    """Sign turning the reduced cost of a row's slack column into the row's
    dual: the slack of a "<=" row is +e_r and that of a ">=" row -e_r,
    whichever sign the tableau stores the row with."""
    sign = 1 if rel == GE else -1
    return sign if minimize else -sign


def solve(lp: LinearProgram, previous: LpOutcome | None = None) -> LpOutcome:
    """Solve exactly; see module docstring for the outcome conventions.

    ``previous`` may be an optimal outcome of this same program, solved before
    more rows were appended to it: its tableau is then extended by those
    rows and re-solved by the dual simplex, without phase one. The previous
    outcome gives up its tableau to the new one. Any other previous outcome
    means a solve from scratch.
    """
    if lp.n_vars == 0:
        raise LpError("program has no variables")
    tab = previous.tableau if previous is not None else None
    if tab is not None:
        layout = tab.layout
        if (layout.program is not lp or layout.shape != _shape(lp)
                or len(lp.constraints) < len(layout.duals)):
            raise LpError("previous outcome is not of this program with rows appended")
        previous.tableau = None
        return _resolve(lp, tab, lp.constraints[len(layout.duals):])
    return _solve_cold(lp)


def _solve_cold(lp: LinearProgram) -> LpOutcome:
    """Two-phase primal simplex from the slack and artificial basis."""
    minimize = lp.sense == "min"

    # Columns: the variables, then each row's slack, followed by an
    # artificial when the row is ">=" once its rhs is made nonnegative.
    ncols = lp.n_vars
    slack_of: list[int] = []
    art_of: dict[int, int] = {}
    for r, con in enumerate(lp.constraints):
        slack_of.append(ncols)
        ncols += 1
        if (con.rel == GE) != (con.rhs < 0):
            art_of[r] = ncols
            ncols += 1

    layout = _Layout(lp)
    rows: list[list[int]] = []
    dens: list[int] = []
    basis: list[int] = []
    for r, con in enumerate(lp.constraints):
        row, scale = _tableau_row(con.coeffs, con.rhs, con.rhs < 0, ncols)
        if r in art_of:
            row[slack_of[r]] = -scale
            row[art_of[r]] = scale
            basis.append(art_of[r])
        else:
            row[slack_of[r]] = scale
            basis.append(slack_of[r])
        rows.append(row)
        dens.append(scale)
        layout.duals.append((slack_of[r], _dual_sign(con.rel, minimize)))

    tab = _Tableau(rows, dens, basis, ncols, layout)
    artificial = [False] * ncols
    for col in art_of.values():
        artificial[col] = True

    # Internal objective: minimize (negated for max), on the variable columns.
    cost2, cost_den = _tableau_row(lp.objective, ZERO, not minimize, ncols)
    cost2.pop()  # no rhs

    if art_of:
        cost1 = [1 if artificial[idx] else 0 for idx in range(ncols)]
        enterable = [True] * ncols
        status, _ = tab.run(cost1, 1, enterable)
        check(status == OPTIMAL, "phase one is bounded below by zero but reported unbounded")
        if any(artificial[tab.basis[r]] and tab.rows[r][-1] != 0
               for r in range(len(tab.rows))):
            return LpOutcome(INFEASIBLE)
        # Drive the artificials left basic at zero out of the basis. Every
        # row has a slack column of its own, so the rows are independent
        # outside the artificial columns and none of them vanishes there.
        for r in range(len(tab.rows)):
            if not artificial[tab.basis[r]]:
                continue
            row = tab.rows[r]
            pc = next((idx for idx in range(ncols)
                       if not artificial[idx] and row[idx]), None)
            check(pc is not None, f"tableau row {r} is zero outside the artificial columns")
            tab.pivot(r, pc)

    layout.enterable = [not artificial[idx] for idx in range(ncols)]
    status, enter_col = tab.run(cost2, cost_den, layout.enterable)
    return _outcome(lp, tab, status, enter_col)


def _resolve(lp: LinearProgram, tab: _Tableau, new: Sequence[Constraint]) -> LpOutcome:
    """Append ``new`` to an optimal tableau and re-solve it by the dual
    simplex: the old basis stays dual feasible, and each new row enters with
    its slack basic, ">=" rows negated into "<=" rows."""
    layout = tab.layout
    minimize = lp.sense == "min"
    ncols = tab.ncols + len(new)
    rows: list[list[int]] = []
    dens: list[int] = []
    for offset, con in enumerate(new):
        flip = con.rel == GE
        row, scale = _tableau_row(con.coeffs, con.rhs, flip, ncols)
        slack = tab.ncols + offset
        row[slack] = scale
        rows.append(row)
        dens.append(scale)
        layout.duals.append((slack, _dual_sign(con.rel, minimize)))
    layout.enterable += [True] * len(new)
    tab.append_rows(rows, dens)
    if not tab.run_dual(layout.enterable):
        return LpOutcome(INFEASIBLE)
    return _outcome(lp, tab, OPTIMAL, None)


def _outcome(lp: LinearProgram, tab: _Tableau, status: str, enter_col: int | None) -> LpOutcome:
    """Read the outcome off a final tableau; an optimal one keeps it."""
    layout = tab.layout
    values = [ZERO] * tab.ncols
    for r, b in enumerate(tab.basis):
        values[b] = Fraction(tab.rows[r][-1], tab.dens[r])
    x = values[:lp.n_vars]
    value = sum((c * x[j] for j, c in lp.objective.items()), ZERO)

    if status == UNBOUNDED:
        check(enter_col is not None, "unbounded phase two reported no entering column")
        direction = [ZERO] * tab.ncols
        direction[enter_col] = ONE
        for r, row in enumerate(tab.rows):
            if row[enter_col]:
                direction[tab.basis[r]] = Fraction(-row[enter_col], tab.dens[r])
        return LpOutcome(UNBOUNDED, x=x, value=value, ray=direction[:lp.n_vars])

    # Duals from the reduced costs of the identity-seeded column of each row.
    return LpOutcome(OPTIMAL, x=x, value=value, tableau=tab,
                     dual_source=(tab.red[:], tab.red_den, layout.duals[:]))


# ---------------------------------------------------------------------------
# post-solve audit


def check(ok: bool, message: str) -> None:
    """Raise :class:`LpAuditError` unless an exactness invariant holds.

    Used instead of ``assert`` so that ``python -O`` keeps the check.
    """
    if not ok:
        raise LpAuditError(message)


def audit(lp: LinearProgram, out: LpOutcome) -> None:
    """Re-verify an outcome exactly: feasibility, duality, slackness, rays.

    Raises :class:`LpAuditError` on the first failed check. "infeasible"
    outcomes carry no certificate and are accepted as-is.
    """
    if out.status == INFEASIBLE:
        return
    check(out.x is not None and out.value is not None, "missing primal data")
    x = out.x
    check(len(x) == lp.n_vars, "primal solution has wrong length")
    for j in range(lp.n_vars):
        check(x[j] >= 0, f"x[{j}] = {x[j]} below lower bound 0")
    for r, con in enumerate(lp.constraints):
        check(con.satisfied_by(x), f"constraint {r} violated")
    value = sum((c * x[j] for j, c in lp.objective.items()), ZERO)
    check(value == out.value, "objective value mismatch")

    if out.status == UNBOUNDED:
        ray = out.ray
        check(ray is not None and len(ray) == lp.n_vars, "missing or malformed ray")
        for j in range(lp.n_vars):
            check(ray[j] >= 0, f"ray[{j}] leaves the lower bound")
        for r, con in enumerate(lp.constraints):
            along = sum((c * ray[j] for j, c in con.coeffs.items()), ZERO)
            if con.rel == LE:
                check(along <= 0, f"ray violates constraint {r}")
            else:
                check(along >= 0, f"ray violates constraint {r}")
        gain = sum((c * ray[j] for j, c in lp.objective.items()), ZERO)
        if lp.sense == "min":
            check(gain < 0, "ray does not improve a minimization")
        else:
            check(gain > 0, "ray does not improve a maximization")
        return

    duals = out.duals
    check(duals is not None and len(duals) == len(lp.constraints), "missing duals")
    minimize = lp.sense == "min"
    for r, con in enumerate(lp.constraints):
        y = duals[r]
        if (con.rel == GE) == minimize:
            check(y >= 0, f"dual {r} has wrong sign")
        else:
            check(y <= 0, f"dual {r} has wrong sign")
        check(y * (con.evaluate(x) - con.rhs) == 0, f"complementary slackness fails on row {r}")
    for j in range(lp.n_vars):
        rc = lp.objective.get(j, ZERO)
        rc -= sum((con.coeffs[j] * duals[r] for r, con in enumerate(lp.constraints)
                   if j in con.coeffs), ZERO)
        if minimize:
            check(rc >= 0, f"reduced cost of variable {j} is negative")
        else:
            check(rc <= 0, f"reduced cost of variable {j} is positive")
        check(rc * x[j] == 0, f"complementary slackness fails on variable {j}")
    dual_value = sum((duals[r] * con.rhs for r, con in enumerate(lp.constraints)), ZERO)
    check(dual_value == out.value, f"strong duality gap: primal {out.value}, dual {dual_value}")


# ---------------------------------------------------------------------------
# lazy constraint generation


@dataclass
class CuttingPlaneResult:
    """Final master outcome of the lazy-constraint loop; its cuts are the
    rows appended to the program.

    ``converged`` is True when the loop closed conclusively: the final
    solution violates no oracle (or the master became infeasible, which no
    added cut can repair). False means the round cap was hit.
    """

    outcome: LpOutcome
    rounds: int
    converged: bool


Oracle = Callable[[LpOutcome], "list[Constraint] | None"]


def _signature(con: Constraint) -> tuple:
    """The row as (columns, coprime integer coefficients, relation, rhs)."""
    items = sorted(con.coeffs.items())
    ints, _ = integer_row([*(c for _, c in items), con.rhs])
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    index = tuple([j for j, _ in items])  # a list, see core._exact_rows
    return (index, tuple(ints[:-1]), con.rel, ints[-1])


def _violates(sig: tuple, nums: list[int], scale: int) -> bool:
    """Whether the signature row fails at the point ``nums / scale``.

    ``scale`` is the point's positive common denominator; a ray is checked
    with scale 0, which tests the row's homogeneous part along it.
    """
    index, coeffs, rel, rhs = sig
    lhs = sum([c * nums[j] for j, c in zip(index, coeffs)])
    rhs *= scale
    if rel == LE:
        return lhs > rhs
    return lhs < rhs


def _integer_outcome(out: LpOutcome) -> tuple[list[int], int, list[int] | None]:
    """The point as numerators over their common denominator, plus the ray's
    numerators when the master is unbounded."""
    x_nums, x_scale = integer_row(out.x)
    ray_nums = integer_row(out.ray)[0] if out.status == UNBOUNDED else None
    return x_nums, x_scale, ray_nums


def _cut_is_violated(sig: tuple, point: tuple[list[int], int, list[int] | None]) -> bool:
    """Whether the point breaks the row or, for an unbounded master, the ray
    leaves it."""
    x_nums, x_scale, ray_nums = point
    return (_violates(sig, x_nums, x_scale)
            or ray_nums is not None and _violates(sig, ray_nums, 0))


def cutting_plane(lp: LinearProgram, oracles: Sequence[Oracle],
                  max_rounds: int = 10_000) -> CuttingPlaneResult:
    """Solve ``lp`` under lazily generated constraints.

    Each round solves the master and consults the oracles in order; the
    first oracle returning violated cuts ends the round and the cuts are
    appended (so later oracles never see a candidate an earlier oracle has
    already rejected). Each round is one :func:`solve` call; after the
    first, it passes the previous outcome, so an optimal round's tableau is
    extended by the cuts and re-solved by the dual simplex. A round after an
    unbounded one solves from scratch. The kept tableau is dropped on
    return. The loop converges when no oracle objects, or conclusively when
    the master goes infeasible. Every returned cut is checked to be
    genuinely violated, and a previously added cut coming back still
    violated raises :class:`CuttingPlaneError`, since with exact arithmetic
    that can only be a logic bug.
    """
    if max_rounds < 1:
        raise LpError("max_rounds must be positive")
    seen = {_signature(con) for con in lp.constraints}
    out = solve(lp)
    for rounds in range(1, max_rounds + 1):
        if out.status == INFEASIBLE:
            return CuttingPlaneResult(out, rounds, True)
        cuts: list[Constraint] = []
        for oracle in oracles:
            got = oracle(out)
            if got:
                cuts = list(got)
                break
        if not cuts:
            out.tableau = None
            return CuttingPlaneResult(out, rounds, True)
        point = _integer_outcome(out)  # scaled to integers once per round
        for cut in cuts:
            sig = _signature(cut)
            if not _cut_is_violated(sig, point):
                raise CuttingPlaneError("oracle returned a cut the current solution satisfies")
            if sig in seen:
                raise CuttingPlaneError(
                    "oracle returned a constraint already present and still violated")
            seen.add(sig)
            lp.add_constraint(cut.coeffs, cut.rel, cut.rhs)
        if rounds < max_rounds:
            out = solve(lp, out)
    out.tableau = None
    return CuttingPlaneResult(out, max_rounds, False)


# ---------------------------------------------------------------------------
# debug dump


def to_lp_text(lp: LinearProgram, name: str = "lp") -> str:
    """Human-readable LP-format dump for debugging; rationals stay exact."""

    def term(j: int, c: Fraction, first: bool) -> str:
        sign = "-" if c < 0 else ("" if first else "+")
        mag = abs(c)
        coeff = "" if mag == 1 else f"{mag} "
        return f"{sign} {coeff}x{j} ".replace("  ", " ")

    def linear(coeffs: Mapping[int, Fraction]) -> str:
        if not coeffs:
            return "0"
        parts = []
        for pos, (j, c) in enumerate(sorted(coeffs.items())):
            parts.append(term(j, c, pos == 0).strip())
        return " ".join(parts)

    lines = [f"\\ {name}", "Minimize" if lp.sense == "min" else "Maximize",
             f" obj: {linear(lp.objective)}", "Subject To"]
    for r, con in enumerate(lp.constraints):
        lines.append(f" c{r}: {linear(con.coeffs)} {con.rel} {con.rhs}")
    lines.append("End")
    return "\n".join(lines) + "\n"
