"""The condensed simplex tableau against the full-width one it replaced.

``lp._Tableau`` keeps only the columns of nonbasic labels. The full-width
tableau below keeps every label's column, the basis's identity block
included, and is kept verbatim in logic as a reference: on every program,
cold or warm, both must take the same pivots, each named by its leaving
basic label and its entering label, and read off the same status, point,
ray and duals.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from unittest import mock

from hypothesis import given, settings, strategies as st

from vsparse import lp
from vsparse.core import integer_row
from vsparse.lp import GE, INFEASIBLE, OPTIMAL, UNBOUNDED

# --- the full-width reference ---------------------------------------------


def full_eliminate(row, den, f, prow, pden, nz):
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


def full_row_norm(row):
    return sum(map(mul, row, row)) - row[-1] * row[-1]


class FullTableau:
    """Every label's column and the rhs; column j is label j."""

    def __init__(self, rows, dens, basis, ncols):
        self.rows, self.dens, self.basis, self.ncols = rows, dens, basis, ncols
        self.norms = [None] * len(rows)
        self.red, self.red_den = [0] * ncols, 1
        self.pivots = []

    def pivot(self, pr, pc):
        self.pivots.append((self.basis[pr], pc))
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
        self.norms[pr] = None
        nz = [idx for idx, v in enumerate(prow) if v]
        for r, row in enumerate(self.rows):
            f = row[pc]
            if f and r != pr:
                self.rows[r], self.dens[r] = full_eliminate(row, self.dens[r], f, prow, pden, nz)
                self.norms[r] = None
        f = self.red[pc]
        if f:
            if nz[-1] == self.ncols:
                nz.pop()
            self.red, self.red_den = full_eliminate(self.red, self.red_den, f, prow, pden, nz)
        self.basis[pr] = pc

    def set_reduced_costs(self, cost, cost_den):
        basic = [(cost[b], r) for r, b in enumerate(self.basis) if cost[b]]
        scale = lcm(*[self.dens[r] for _, r in basic])
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

    def run(self, cost, cost_den):
        self.set_reduced_costs(cost, cost_den)
        rows, basis = self.rows, self.basis
        while True:
            red = self.red
            pc = next((idx for idx in range(self.ncols) if red[idx] < 0), -1)
            if pc < 0:
                return OPTIMAL, None
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

    def append_rows(self, rows, dens):
        width = len(rows)
        for row in self.rows:
            row[-1:-1] = [0] * width
        self.red += [0] * width
        self.norms += [None] * width
        for offset, (row, den) in enumerate(zip(rows, dens)):
            for r, b in enumerate(self.basis):
                f = row[b]
                if f:
                    prow = self.rows[r]
                    nz = [idx for idx, v in enumerate(prow) if v]
                    row, den = full_eliminate(row, den, f, prow, self.dens[r], nz)
            rows[offset], dens[offset] = row, den
        self.rows += rows
        self.dens += dens
        self.basis += range(self.ncols, self.ncols + width)
        self.ncols += width

    def run_dual(self):
        rows, basis, norms = self.rows, self.basis, self.norms
        seen, bland = set(), False
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
                if norms[r] is None:
                    norms[r] = full_row_norm(row)
                sq = rhs * rhs
                diff = sq * best_norm - best_sq * norms[r]
                if pr < 0 or diff > 0 or (diff == 0 and basis[r] < basis[pr]):
                    pr, best_sq, best_norm = r, sq, norms[r]
            if pr < 0:
                return True
            red = self.red
            pc = -1
            best_red = best_a = 0
            for idx, a in enumerate(rows[pr][:-1]):
                if a < 0 and (pc < 0 or red[idx] * best_a > best_red * a):
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


def dual_sign(rel):
    return 1 if rel == GE else -1


class ReferenceSolver:
    """Cold and warm solves of one program on a :class:`FullTableau`; each
    solve returns (status, x, ray, duals) and its pivots."""

    def __init__(self, program):
        self.program = program
        self.tab = None

    def row(self, con, negate, ncols):
        sgn = -1 if negate else 1
        row = [0] * (ncols + 1)
        for j, c in zip(con.cols, con.nums):
            row[j] = sgn * c
        row[-1] = sgn * con.rhs_num
        return row

    def cold(self):
        # Phase one is the dual simplex on the zero cost from the slack
        # basis, every row in "<=" form; phase two the primal simplex.
        p = self.program
        n, m = p.n_vars, len(p.constraints)
        rows, dens = [], []
        for r, con in enumerate(p.constraints):
            row = self.row(con, con.rel == GE, n + m)
            row[n + r] = con.scale
            rows.append(row)
            dens.append(con.scale)
        self.duals = [(n + r, dual_sign(con.rel)) for r, con in enumerate(p.constraints)]
        tab = self.tab = FullTableau(rows, dens, list(range(n, n + m)), n + m)
        if not tab.run_dual():
            self.tab = None
            return (INFEASIBLE, None, None, None), tab.pivots
        nums, cost_den = integer_row(list(p.objective.values()))
        cost = dict(zip(p.objective, nums))
        status, enter_col = tab.run([cost.get(idx, 0) for idx in range(n + m)], cost_den)
        return self.outcome(status, enter_col), tab.pivots

    def warm(self, new):
        tab = self.tab
        ncols = tab.ncols + len(new)
        rows, dens = [], []
        for offset, con in enumerate(new):
            row = self.row(con, con.rel == GE, ncols)
            row[tab.ncols + offset] = con.scale
            rows.append(row)
            dens.append(con.scale)
            self.duals.append((tab.ncols + offset, dual_sign(con.rel)))
        tab.append_rows(rows, dens)
        tab.pivots = []
        if not tab.run_dual():
            self.tab = None
            return (INFEASIBLE, None, None, None), tab.pivots
        return self.outcome(OPTIMAL, None), tab.pivots

    def outcome(self, status, enter_col):
        tab, n = self.tab, self.program.n_vars
        x = [Fraction(0)] * n
        for r, b in enumerate(tab.basis):
            if b < n:
                x[b] = Fraction(tab.rows[r][-1], tab.dens[r])
        if status == UNBOUNDED:
            self.tab = None
            ray = [Fraction(int(j == enter_col)) for j in range(n)]
            for r, b in enumerate(tab.basis):
                if b < n:
                    ray[b] = Fraction(-tab.rows[r][enter_col], tab.dens[r])
            return status, x, ray, None
        return status, x, None, [s * Fraction(tab.red[col], tab.red_den) for col, s in self.duals]


# --- the condensed tableau against it -----------------------------------------


def condensed_solve(program, previous=None):
    """``lp.solve`` with its pivots as (leaving basic label, entering label)."""
    real, pivots = lp._Tableau.pivot, []

    def recorded(self, pr, pc):
        pivots.append((self.basis[pr], self.cols[pc]))
        real(self, pr, pc)

    with mock.patch.object(lp._Tableau, "pivot", recorded):
        out = lp.solve(program, previous)
    return out, pivots


def assert_same(got, expected):
    out, pivots = got
    (status, x, ray, duals), ref_pivots = expected
    assert pivots == ref_pivots
    assert (out.status, out.x, out.ray, out.duals) == (status, x, ray, duals)


small = st.integers(-3, 3)


def fractions():
    return st.builds(Fraction, small, st.integers(1, 3))


def rows(n, min_size, max_size):
    """"<=" / ">=" rows of fractions; zero coefficients and right-hand sides
    are as likely as any other, so degenerate bases and ties abound."""
    return st.lists(st.tuples(st.lists(fractions(), min_size=n, max_size=n),
                              st.sampled_from([lp.LE, GE]), fractions()),
                    min_size=min_size, max_size=max_size)


def add_rows(program, batch):
    for coeffs, rel, rhs in batch:
        program.add_constraint(dict(enumerate(coeffs)), rel, rhs)


@st.composite
def programs(draw, boxed):
    """A program whose objective is zero a third of the time. A boxed one
    bounds every variable first, so its first solve is not unbounded, and
    comes with up to three batches of rows to append."""
    n = draw(st.integers(1, 4))
    zero = draw(st.sampled_from([True, False, False]))
    p = lp.LinearProgram(n, {} if zero else {j: draw(fractions()) for j in range(n)})
    if boxed:
        for j in range(n):
            p.add_constraint({j: 1}, lp.LE, draw(st.integers(0, 3)))
    add_rows(p, draw(rows(n, 0 if boxed else 1, 6)))
    batches = draw(st.lists(rows(n, 1, 4), min_size=1, max_size=3)) if boxed else []
    return p, batches


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(programs(boxed=False))
def test_cold_solves_take_the_full_tableaus_pivots(case):
    p, _ = case
    assert_same(condensed_solve(p), ReferenceSolver(p).cold())


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(programs(boxed=True))
def test_warm_solves_take_the_full_tableaus_pivots(case):
    p, batches = case
    reference = ReferenceSolver(p)
    expected = reference.cold()
    got = condensed_solve(p)
    assert_same(got, expected)
    for batch in batches:
        if got[0].status != OPTIMAL:
            break
        start = len(p.constraints)
        add_rows(p, batch)
        expected = reference.warm(p.constraints[start:])
        got = condensed_solve(p, got[0])
        assert_same(got, expected)


def test_the_bland_fallback_takes_the_full_tableaus_pivots():
    # The cycling instance of test_lp's repeated-basis test, with every norm
    # read as 1 on both sides: a basis comes back, and the dual Bland rule
    # takes over.
    p = lp.LinearProgram(4)
    reference = ReferenceSolver(p)
    reference.cold()
    first, _ = condensed_solve(p)
    for coeffs, rhs in [([-5, -4, 3, 4], 1), ([-8, -6, 5, 4], -2), ([-7, 7, -2, -4], -8),
                        ([-4, -9, -7, -6], -2), ([-2, 6, 5, 9], 9)]:
        p.add_constraint(dict(enumerate(coeffs)), GE, rhs)
    real, bases = FullTableau.pivot, []

    def recorded(self, pr, pc):
        bases.append(tuple(sorted(self.basis)))
        real(self, pr, pc)

    with mock.patch.object(lp, "_row_norm", lambda row, den: 1), \
            mock.patch.dict(globals(), {"full_row_norm": lambda row: 1}), \
            mock.patch.object(FullTableau, "pivot", recorded):
        expected = reference.warm(p.constraints)
        got = condensed_solve(p, first)
    assert_same(got, expected)
    assert len(set(bases)) < len(bases) and got[0].status == INFEASIBLE
