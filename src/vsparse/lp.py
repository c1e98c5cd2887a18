"""Exact rational linear programming and a lazy-constraint driver.

A small exact simplex. Every row enters the tableau through
``_Tableau.append_rows``, with its slack basic. A solve from scratch starts
from the program's empty tableau (no rows, every variable nonbasic),
reaches a feasible basis by the dual simplex on the zero cost (at which
every basis is dual feasible), then optimizes by the primal simplex under
Bland's anti-cycling rule, so every solve is deterministic and every
certificate is bit-exact. An optimal outcome keeps its tableau: once more
rows are appended to the program, :func:`solve` appends them to it and
re-solves by the same dual simplex on the program's own cost, which is how
:func:`cutting_plane`, the lazy-constraint loop of one separation oracle,
runs every round after the first. The dual simplex picks its leaving row
by exact dual steepest edge and falls back to the dual Bland rule only
while a basis it has already visited comes back.
The tableau keeps only the columns of nonbasic variables (a row's basic
entry and its zeros under the other basic variables are implicit), holds
each row as integer numerators over one exact positive denominator and
pivots fraction-free (cross-multiply, then divide out the gcd). Rows and
points cross the cutting-plane loop as integers too: a :class:`Constraint`
keeps its row once as numerators over its least common denominator, which
the tableau and the loop's violation and repeat checks read, and an outcome
keeps its point and ray as numerators over one positive denominator, read
off the tableau. Programs come in, and every value comes out, as
``fractions.Fraction``, built only at that boundary: a row makes its
coefficients on first read, and an outcome its ``x``, ``ray`` and
``duals``. Outcomes carry primal solutions, dual multipliers
satisfying strong duality and complementary slackness exactly (built from
the final reduced costs), and improving rays for unbounded programs.
:func:`audit` re-verifies all of that from scratch and is switched on
liberally in the test suite.

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

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence

from .core import ZERO, FractionLike, Record, as_fraction, integer_row

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


class Constraint:
    """A sparse linear row ``sum coeffs[j] * x_j  rel  rhs``.

    The row is kept once as integers: its columns ``cols`` in increasing
    order, their numerators ``nums`` and the rhs numerator ``rhs_num``, all
    over one positive ``scale``, the least common denominator of the row
    (as :func:`core.integer_row` scales it). Zero coefficients are dropped.
    Both constructors reduce a row to that form by one path, the one of
    :meth:`from_integers`, and the tableau and the cutting-plane checks read
    only it; ``coeffs`` and ``rhs`` are ``Fraction``s, built on first read.
    """

    __slots__ = ("cols", "nums", "rel", "rhs_num", "scale", "_coeffs", "_rhs")

    def __init__(self, coeffs: Mapping[int, FractionLike], rel: str, rhs: FractionLike):
        # integer_row's numerators are coprime with its lcm: the reduction keeps them
        nums, scale = integer_row([*map(as_fraction, coeffs.values()), as_fraction(rhs)])
        self._reduce(dict(zip(coeffs, nums)), rel, nums[-1], scale)

    @classmethod
    def from_integers(cls, coeffs: Mapping[int, int], rel: str, rhs: int,
                      scale: int) -> Constraint:
        """The row ``sum coeffs[j] / scale * x_j  rel  rhs / scale`` for
        integer ``coeffs`` and ``rhs`` and a positive integer ``scale``,
        reduced to the least common denominator without a ``Fraction``."""
        con = cls.__new__(cls)
        con._reduce(coeffs, rel, rhs, scale)
        return con

    def _reduce(self, coeffs: Mapping[int, int], rel: str, rhs: int, scale: int) -> None:
        if scale <= 0:
            raise LpError(f"scale must be positive, got {scale}")
        items = sorted((j, c) for j, c in coeffs.items() if c)
        g = gcd(scale, rhs, *[c for _, c in items])
        self.cols = tuple([j for j, _ in items])
        self.nums = tuple([c // g for _, c in items])
        self.rhs_num, self.scale, self.rel = rhs // g, scale // g, rel
        self._coeffs: dict[int, Fraction] | None = None
        self._rhs: Fraction | None = None

    @property
    def coeffs(self) -> dict[int, Fraction]:
        if self._coeffs is None:
            self._coeffs = {j: Fraction(c, self.scale) for j, c in zip(self.cols, self.nums)}
        return self._coeffs

    @property
    def rhs(self) -> Fraction:
        if self._rhs is None:
            self._rhs = Fraction(self.rhs_num, self.scale)
        return self._rhs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constraint):
            return NotImplemented
        return ((self.cols, self.nums, self.rel, self.rhs_num, self.scale)
                == (other.cols, other.nums, other.rel, other.rhs_num, other.scale))

    def __repr__(self) -> str:
        return f"Constraint({self.coeffs!r}, {self.rel!r}, {self.rhs!r})"

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
        for j in coeffs:
            self._check_var(j)
        return self.add(Constraint(coeffs, rel, rhs))

    def add(self, con: Constraint) -> int:
        """Append a built row as it is; returns its index."""
        if con.rel not in _RELATIONS:
            raise LpError(f"relation must be one of {_RELATIONS}, got {con.rel!r}")
        for j in con.cols:
            self._check_var(j)
        self.constraints.append(con)
        return len(self.constraints) - 1


class LpOutcome(Record):
    """Result of an exact solve.

    status "optimal": the point, value and duals (one per constraint) are
    set. status "unbounded": the point is feasible and the direction an
    improving feasible ray from it. status "infeasible": everything else is
    None. The point is kept as integers, ``point = (numerators, scale)`` over
    the least common denominator of its entries (as :func:`core.integer_row`
    scales them), and so is ``direction``; ``x`` and ``ray`` are their
    ``Fraction``s, built on first read.
    An optimal outcome of :func:`solve` also keeps its final ``tableau``, from
    which a later solve of the same program with rows appended starts.
    Its duals are built on first read from ``dual_source``, a copy of the
    final reduced costs (numerators, labels, denominator) and of the list of
    rows, with the sense, taken as a later solve takes the tableau over.
    Outcomes compare on status, value, point and direction alone.
    """

    __slots__ = ("status", "value", "point", "direction", "tableau", "dual_source",
                 "_x", "_ray", "_duals")
    _fields = ("status", "value", "point", "direction")

    def __init__(self, status: str, value: Fraction | None = None,
                 point: tuple[list[int], int] | None = None,
                 direction: tuple[list[int], int] | None = None,
                 tableau: _Tableau | None = None,
                 dual_source: tuple[list[int], list[int], int, list[Constraint], bool]
                 | None = None):
        self.status, self.value, self.point, self.direction = status, value, point, direction
        self.tableau, self.dual_source = tableau, dual_source
        self._x = self._ray = self._duals = None  # list[Fraction] once read

    @property
    def x(self) -> list[Fraction] | None:
        """The point as Fractions, or None when infeasible."""
        if self._x is None and self.point is not None:
            self._x = _fractions(*self.point)
        return self._x

    @property
    def ray(self) -> list[Fraction] | None:
        """The improving direction of an unbounded outcome, else None."""
        if self._ray is None and self.direction is not None:
            self._ray = _fractions(*self.direction)
        return self._ray

    @property
    def duals(self) -> list[Fraction] | None:
        """One multiplier per constraint of an optimal outcome, else None."""
        if self._duals is None and self.dual_source is not None:
            red, cols, den, rows, minimize = self.dual_source
            # Row r's dual is the reduced cost of its slack, label n + r with
            # n = len(cols); a basic slack's is zero.
            n, self._duals = len(cols), [ZERO] * len(rows)
            for label, rc in zip(cols, red):
                if label >= n and rc:
                    r = label - n
                    self._duals[r] = _dual_sign(rows[r].rel, minimize) * Fraction(rc, den)
            self.dual_source = None
        return self._duals


def _fractions(nums: list[int], scale: int) -> list[Fraction]:
    return [Fraction(v, scale) for v in nums]


# ---------------------------------------------------------------------------
# simplex core


def _eliminate(row: list[int], den: int, f: int, prow: list[int], pden: int,
               nz: list[int]) -> tuple[list[int], int]:
    """``row/den - (f/den) * prow/pden`` over ``len(row)`` columns.

    ``nz`` lists the nonzero columns of ``prow`` below ``len(row)``, the
    only entries that change: in place when ``pden`` divides ``f``, else in
    the scaled row, divided then by the gcd of its entries and denominator.
    """
    g = gcd(f, pden)
    if g == pden:
        mult = f // pden
        for idx in nz:
            row[idx] -= mult * prow[idx]
        return row, den
    scale, mult = pden // g, f // g
    new = [a * scale for a in row]
    for idx in nz:
        new[idx] -= mult * prow[idx]
    den *= scale
    g = gcd(den, *new)
    if g > 1:
        new = [v // g for v in new]
        den //= g
    return new, den


def _row_norm(row: list[int], den: int) -> int:
    """The sum of squares of a row's numerators outside the rhs, ``den`` included."""
    return den * den + sum(map(mul, row, row)) - row[-1] * row[-1]


class _Tableau:
    """Condensed simplex tableau of integer numerators: one column per
    nonbasic label, then the rhs.

    Labels name the program's columns: its variables, then one slack per
    row in row order. Each row is stored in "<=" form, a ">=" row negated,
    so its slack has coefficient +1 in it. ``cols[p]`` is the label at
    position p and ``basis[r]`` the label basic in row r. Row r stands for
    ``rows[r][p] / dens[r]`` with ``dens[r] > 0``; its own basic entry,
    always ``dens[r]``, and its zeros under the other basic labels are
    implicit. The reduced-cost row ``red[p] / red_den`` is zero on basic
    labels, and everywhere until :meth:`run` prices a cost. A pivot swaps
    labels: the entering position takes the leaving label, whose entry is
    the pivot row's old denominator and zero in every other row. It then
    rescales the pivot row so its pivot entry equals the denominator,
    cross-multiplies the other rows against it and divides each touched row
    by the gcd of its entries and denominator, so the values stay exact
    rationals without any Fraction arithmetic.
    Every pivoting decision reads only a sign or an exact comparison of
    integer products and breaks ties by label, so the pivot sequence is the
    one a full tableau of Fractions would take. ``norms[r]`` caches
    :func:`_row_norm` of row r, ``None`` once the row has changed; the dual
    simplex fills it in when it needs it. There are ``len(cols) + len(rows)``
    labels. ``_Tableau(program)`` is the program's empty tableau: no rows,
    every variable nonbasic (label j is variable j) and zero reduced costs;
    every row enters through :meth:`append_rows`. It also keeps the
    ``program``, its sense and objective (``shape``), and that objective as
    numerators ``cost_nums`` on columns ``cost_cols`` over ``cost_den``.
    """

    def __init__(self, program: LinearProgram):
        self.program = program
        self.shape = _shape(program)
        self.cost_cols = list(program.objective)
        self.cost_nums, self.cost_den = integer_row(list(program.objective.values()))
        self.rows: list[list[int]] = []
        self.dens: list[int] = []
        self.basis: list[int] = []
        self.cols = list(range(program.n_vars))
        self.norms: list[int | None] = []
        self.red = [0] * program.n_vars
        self.red_den = 1

    def pivot(self, pr: int, pc: int) -> None:
        rows, dens, norms = self.rows, self.dens, self.norms
        prow = rows[pr]
        pden = prow[pc]
        prow[pc] = dens[pr]  # the leaving label's entry
        if pden < 0:
            prow = [-v for v in prow]
            pden = -pden
        g = gcd(pden, *prow)
        if g > 1:
            prow = [v // g for v in prow]
            pden //= g
        rows[pr], dens[pr] = prow, pden
        norms[pr] = None
        nz = [idx for idx, v in enumerate(prow) if v]
        for r, row in enumerate(rows):
            f = row[pc]
            if f and r != pr:
                row[pc] = 0
                rows[r], dens[r] = _eliminate(row, dens[r], f, prow, pden, nz)
                norms[r] = None
        f = self.red[pc]
        if f:
            self.red[pc] = 0
            if nz[-1] == len(self.red):
                nz.pop()  # the reduced-cost row has no rhs column
            self.red, self.red_den = _eliminate(self.red, self.red_den, f, prow, pden, nz)
        self.basis[pr], self.cols[pc] = self.cols[pc], self.basis[pr]

    def _reduce(self, row: list[int], den: int,
                basic: list[tuple[int, int]]) -> tuple[list[int], int]:
        """``row / den`` minus ``c / den`` times row r for each ``(c, r)`` of
        ``basic``, over one positive denominator with the common factor of the
        entries divided out."""
        scale = lcm(*[self.dens[r] for _, r in basic])  # a list, see core.Metric.rows
        row = [v * scale for v in row]
        for c, r in basic:
            mult = c * (scale // self.dens[r])
            row = [a - mult * b for a, b in zip(row, self.rows[r])]
        den *= scale
        g = gcd(den, *row)
        if g > 1:
            row = [v // g for v in row]
            den //= g
        return row, den

    def run(self, cost: list[int], cost_den: int) -> tuple[str, int | None]:
        """Bland-rule simplex on ``cost / cost_den``, one cost per label, to
        optimality; returns (status, entering position).

        status "optimal" means no label has negative reduced cost;
        "unbounded" reports the entering position whose ratio test found no
        blocking row. The final reduced costs stay in ``red`` / ``red_den``.
        """
        rows, basis, cols = self.rows, self.basis, self.cols
        basic = [(cost[b], r) for r, b in enumerate(basis) if cost[b]]
        self.red, self.red_den = self._reduce([cost[c] for c in cols], cost_den, basic)
        while True:
            pc = -1
            for idx, rc in enumerate(self.red):
                if rc < 0 and (pc < 0 or cols[idx] < cols[pc]):
                    pc = idx
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

    def append_rows(self, new: Sequence[Constraint]) -> None:
        """Append constraints as rows with new slack labels, entered basic,
        ">=" rows negated into "<=" rows.

        The old rows and the reduced costs do not change: a basic label has
        no column. Each new row is reduced against the basic rows of the
        labels it touches, so it reads zero under every basic label but its
        slack; it has no norm yet.
        """
        pos = {c: p for p, c in enumerate(self.cols)}
        row_of = {b: r for r, b in enumerate(self.basis)}
        for con in new:
            sgn = -1 if con.rel == GE else 1
            row = [0] * len(pos) + [sgn * con.rhs_num]
            basic = []
            for j, c in zip(con.cols, con.nums):
                if j in pos:
                    row[pos[j]] = sgn * c
                else:
                    basic.append((sgn * c, row_of[j]))
            row, den = self._reduce(row, con.scale, basic)
            self.basis.append(len(self.cols) + len(self.rows))  # the new slack label
            self.rows.append(row)
            self.dens.append(den)
            self.norms.append(None)

    def run_dual(self) -> bool:
        """Dual simplex from a dual feasible basis to optimality.

        The leaving row is chosen by exact dual steepest edge: among the rows
        with a negative rhs, the one with the largest ``rhs_r**2 / N_r``,
        where ``N_r`` is the row's cached norm (its denominator cancels),
        ties to the lowest basic label. The entering position is the one
        with a negative entry in that row that minimizes
        ``red_j / -a_rj``, ties to the lowest label. Returns False when a
        leaving row has no such position, which proves the program infeasible.

        A dual-degenerate pivot (entering reduced cost zero) leaves the dual
        objective where it was, so only a run of them can cycle. The sorted
        basis before each is remembered until the next nondegenerate pivot;
        if one comes back, the leaving row is the dual Bland rule's (the
        lowest basic label with a negative rhs) until the next
        nondegenerate pivot. Bland's rule cannot cycle, so neither can this.
        """
        rows, dens, basis, cols, norms = self.rows, self.dens, self.basis, self.cols, self.norms
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
                    norm = norms[r] = _row_norm(row, dens[r])
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
                if a < 0:
                    diff = red[idx] * best_a - best_red * a
                    if pc < 0 or diff > 0 or (diff == 0 and cols[idx] < cols[pc]):
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


def _shape(lp: LinearProgram) -> tuple:
    return lp.sense, tuple(lp.objective.items())


def _dual_sign(rel: str, minimize: bool) -> int:
    """Sign turning the reduced cost of a row's slack column into the row's
    dual: the slack of a "<=" row is +e_r, and that of a ">=" row, which the
    tableau stores negated, is -e_r."""
    sign = 1 if rel == GE else -1
    return sign if minimize else -sign


def solve(lp: LinearProgram, previous: LpOutcome | None = None) -> LpOutcome:
    """Solve exactly; see module docstring for the outcome conventions.

    ``previous`` may be an optimal outcome of this same program, solved
    before more rows were appended to it: the solve takes its tableau over.
    Any other previous outcome means a solve from the program's empty
    tableau. The rows not yet in the tableau enter with their slacks basic,
    which keeps the basis dual feasible (a kept one on the program's cost,
    an empty one at zero cost), so the dual simplex reaches an optimal
    basis, or from scratch a feasible one, or proves the program infeasible.
    From scratch, the primal simplex then optimizes the program's cost.
    """
    tab = previous.tableau if previous is not None else None
    fresh = tab is None
    if fresh:
        tab = _Tableau(lp)
    elif tab.program is not lp or tab.shape != _shape(lp) or len(lp.constraints) < len(tab.rows):
        raise LpError("previous outcome is not of this program with rows appended")
    else:
        previous.tableau = None
    tab.append_rows(lp.constraints[len(tab.rows):])
    if not tab.run_dual():
        return LpOutcome(INFEASIBLE)
    if not fresh:
        return _outcome(lp, tab, OPTIMAL, None)
    # Internal objective: minimize (negated for max), on the variable labels.
    sgn = 1 if lp.sense == "min" else -1
    cost = [0] * (len(tab.cols) + len(tab.rows))
    for j, c in zip(tab.cost_cols, tab.cost_nums):
        cost[j] = sgn * c
    status, enter_col = tab.run(cost, tab.cost_den)
    return _outcome(lp, tab, status, enter_col)


def _common(entries: Iterable[tuple[int, int, int]], n: int) -> tuple[list[int], int]:
    """A vector of length n from ``(index, numerator, denominator)`` entries
    (zero elsewhere), as numerators over the least common denominator."""
    entries = [e for e in entries if e[1]]
    scale = lcm(*[d for _, _, d in entries])
    nums = [0] * n
    for j, v, d in entries:
        nums[j] = v * (scale // d)
    g = gcd(scale, *nums)
    if g > 1:
        nums = [v // g for v in nums]
        scale //= g
    return nums, scale


def _outcome(lp: LinearProgram, tab: _Tableau, status: str, enter_col: int | None) -> LpOutcome:
    """Read the outcome off a final tableau; an optimal one keeps it."""
    n, rows, dens = lp.n_vars, tab.rows, tab.dens
    x_nums, x_scale = point = _common(
        [(b, rows[r][-1], dens[r]) for r, b in enumerate(tab.basis) if b < n], n)
    value = Fraction(sum([c * x_nums[j] for j, c in zip(tab.cost_cols, tab.cost_nums)]),
                     tab.cost_den * x_scale)

    if status == UNBOUNDED:
        check(enter_col is not None, "unbounded phase two reported no entering column")
        label = tab.cols[enter_col]
        entries = [(label, 1, 1)] if label < n else []
        entries += [(b, -rows[r][enter_col], dens[r]) for r, b in enumerate(tab.basis) if b < n]
        return LpOutcome(UNBOUNDED, value, point, _common(entries, n))

    # Duals from the reduced costs of each row's slack label.
    return LpOutcome(OPTIMAL, value, point, tableau=tab,
                     dual_source=(tab.red[:], tab.cols[:], tab.red_den, lp.constraints[:],
                                  lp.sense == "min"))


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


class CuttingPlaneResult(Record):
    """Final master outcome of the lazy-constraint loop; its cuts are the
    rows appended to the program.

    ``converged`` is True when the loop closed conclusively: the final
    solution violates no oracle (or the master became infeasible, which no
    added cut can repair). False means the round cap was hit.
    """

    __slots__ = _fields = ("outcome", "rounds", "converged")

    def __init__(self, outcome: LpOutcome, rounds: int, converged: bool):
        self.outcome, self.rounds, self.converged = outcome, rounds, converged


Oracle = Callable[[LpOutcome], "list[Constraint] | None"]


def _signature(con: Constraint) -> tuple:
    """The row as (columns, coprime integer coefficients, relation, rhs)."""
    nums, rhs = con.nums, con.rhs_num
    g = gcd(rhs, *nums)
    if g > 1:
        nums, rhs = tuple([v // g for v in nums]), rhs // g
    return (con.cols, nums, con.rel, rhs)


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


def _cut_is_violated(sig: tuple, out: LpOutcome) -> bool:
    """Whether the outcome's point breaks the row or, for an unbounded
    master, its ray leaves it; both are read as integers."""
    return (_violates(sig, *out.point)
            or out.direction is not None and _violates(sig, out.direction[0], 0))


def cutting_plane(lp: LinearProgram, oracle: Oracle,
                  max_rounds: int = 10_000) -> CuttingPlaneResult:
    """Solve ``lp`` under lazily generated constraints.

    Each round solves the master and asks ``oracle`` for rows the outcome
    violates; an oracle that separates several families consults them in
    its own order. The rows are appended, and each round is one
    :func:`solve` call; after the first, it passes the previous outcome, so
    an optimal round's tableau is extended by the cuts and re-solved by the
    dual simplex. A round after an unbounded one solves from scratch. The
    kept tableau is dropped on return. The loop converges when the oracle
    returns no row, or conclusively when the master goes infeasible. Every
    returned cut is checked to be genuinely violated, and a previously added
    cut coming back still violated raises :class:`CuttingPlaneError`, since
    with exact arithmetic that can only be a logic bug.
    """
    if max_rounds < 1:
        raise LpError("max_rounds must be positive")
    seen = {_signature(con) for con in lp.constraints}
    out = solve(lp)
    for rounds in range(1, max_rounds + 1):
        if out.status == INFEASIBLE:
            return CuttingPlaneResult(out, rounds, True)
        cuts = oracle(out)
        if not cuts:
            out.tableau = None
            return CuttingPlaneResult(out, rounds, True)
        for cut in cuts:
            sig = _signature(cut)
            if not _cut_is_violated(sig, out):
                raise CuttingPlaneError("oracle returned a cut the current solution satisfies")
            if sig in seen:
                raise CuttingPlaneError(
                    "oracle returned a constraint already present and still violated")
            seen.add(sig)
            lp.add(cut)
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
