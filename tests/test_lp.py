"""Exact simplex and the cutting-plane driver.

Every optimal outcome is re-verified by lp.audit, which checks primal
feasibility, dual feasibility, complementary slackness and strong duality
as exact rational identities; passing it is a complete optimality proof
independent of the pivot path the solver took. ``lp`` takes nonnegative
variables and "<=" / ">=" rows only; programs with free variables, upper
bounds or equations are written in that form by ``helpers.BoundedProgram``.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from vsparse import all_pairs, lp
from vsparse.core import integer_row
from vsparse.extension import MetricConeLp, min_extension
from vsparse.operators import find_optimal_operator
from vsparse.sampling import random_graph, random_metric
from helpers import EQ, BoundedProgram, held_rows

F = Fraction


def solve_audited(p: lp.LinearProgram) -> lp.LpOutcome:
    out = lp.solve(p)
    lp.audit(p, out)
    return out


# --- basic outcomes ----------------------------------------------------

def test_single_variable_max():
    p = lp.LinearProgram(1, "max", {0: 1})
    p.add_constraint({0: 1}, lp.LE, 5)
    out = solve_audited(p)
    assert out.status == lp.OPTIMAL
    assert out.value == 5 and out.x == [F(5)]


def test_single_variable_unbounded_with_unit_ray():
    p = lp.LinearProgram(1, "max", {0: 1})
    out = lp.solve(p)
    lp.audit(p, out)
    assert out.status == lp.UNBOUNDED
    assert out.ray == [F(1)]


def test_infeasible_program():
    p = lp.LinearProgram(1, "min", {0: 1})
    p.add_constraint({0: 1}, lp.LE, 1)
    p.add_constraint({0: 1}, lp.GE, 2)
    assert lp.solve(p).status == lp.INFEASIBLE


def test_triangle_interval_bounds():
    # One free length x = d(a,b) against fixed d(a,c) = d(c,b) = 1: the
    # triangle rows pin x to [|1-1|, 1+1]; enumerate both interval ends.
    def interval_lp(sense):
        p = lp.LinearProgram(1, sense, {0: 1})
        p.add_constraint({0: 1}, lp.LE, 2)    # x <= d(a,c) + d(c,b)
        p.add_constraint({0: 1}, lp.GE, 0)    # d(a,c) <= x + d(c,b)
        return p
    assert solve_audited(interval_lp("min")).value == 0
    assert solve_audited(interval_lp("max")).value == 2


def test_two_variable_vertex_optimum():
    # max 3x + 2y over x+y <= 4, x <= 2, y <= 3: vertices (0,0), (2,0),
    # (2,2), (1,3), (0,3) give values 0, 6, 10, 9, 6.
    p = lp.LinearProgram(2, "max", {0: 3, 1: 2})
    p.add_constraint({0: 1, 1: 1}, lp.LE, 4)
    p.add_constraint({0: 1}, lp.LE, 2)
    p.add_constraint({1: 1}, lp.LE, 3)
    out = solve_audited(p)
    assert out.value == 10
    assert out.x == [F(2), F(2)]


def test_beale_cycling_instance_terminates():
    # Classic degenerate instance that cycles without an anti-cycling rule.
    p = lp.LinearProgram(4, "min", {0: F(-3, 4), 1: 150, 2: F(-1, 50), 3: 6})
    p.add_constraint({0: F(1, 4), 1: -60, 2: F(-1, 25), 3: 9}, lp.LE, 0)
    p.add_constraint({0: F(1, 2), 1: -90, 2: F(-1, 50), 3: 3}, lp.LE, 0)
    p.add_constraint({2: 1}, lp.LE, 1)
    out = solve_audited(p)
    assert out.value == F(-1, 20)


def test_equality_rows_and_free_variables():
    # min x + y with x free, x + y = 3, y <= 1: push x down? No: objective
    # x + y = 3 is constant on the feasible set.
    p = BoundedProgram(2, "min", {0: 1, 1: 1})
    p.set_free(0)
    p.add_constraint({0: 1, 1: 1}, EQ, 3)
    p.add_constraint({1: 1}, lp.LE, 1)
    out = p.solve()
    assert out.value == 3


def test_free_variable_goes_negative():
    p = BoundedProgram(1, "min", {0: 1})
    p.set_free(0)
    p.add_constraint({0: 1}, lp.GE, -7)
    out = p.solve()
    assert out.value == -7 and out.x == [F(-7)]


def test_upper_bounds_without_constraints():
    p = BoundedProgram(2, "max", {0: 1, 1: 2})
    p.set_upper(0, F(1, 2))
    p.set_upper(1, F(1, 3))
    out = p.solve()
    assert out.value == F(1, 2) + F(2, 3)
    assert out.bound_duals == [F(1), F(2)]  # each bound row prices its variable


# --- input validation --------------------------------------------------

def test_rejects_bad_construction():
    with pytest.raises(lp.LpError):
        lp.LinearProgram(-1)
    with pytest.raises(lp.LpError):
        lp.LinearProgram(1, "maximize")
    p = lp.LinearProgram(1)
    with pytest.raises(lp.LpError):
        p.add_constraint({0: 1}, "<", 0)
    with pytest.raises(lp.LpError):
        p.add_constraint({0: 1}, "=", 0)  # an equation is a "<=" and a ">=" row
    with pytest.raises(lp.LpError):
        p.add_constraint({1: 1}, lp.LE, 0)
    with pytest.raises(lp.LpError):
        p.set_objective_coeff(3, 1)
    with pytest.raises(lp.LpError, match="scale must be positive, got 0"):
        lp.Constraint.from_integers({0: 1}, lp.LE, 0, 0)


@pytest.mark.parametrize("seed", range(5))
def test_a_fraction_row_keeps_its_integer_row(seed):
    # the Fraction constructor stores core.integer_row's numerators and lcm
    # as they are, the form from_integers reduces any integer multiple to
    rng = random.Random(seed)
    coeffs = {j: F(rng.randint(-6, 6), rng.randint(1, 12)) for j in rng.sample(range(9), 5)}
    rhs = F(rng.randint(-6, 6), rng.randint(1, 12))
    con = lp.Constraint(coeffs, rng.choice(lp._RELATIONS), rhs)
    kept = sorted((j, c) for j, c in coeffs.items() if c)
    nums, scale = integer_row([c for _, c in kept] + [rhs])
    assert (con.cols, con.nums, con.rhs_num, con.scale) == (
        tuple(j for j, _ in kept), tuple(nums[:-1]), nums[-1], scale)
    assert con.coeffs == dict(kept) and con.rhs == rhs
    m = rng.randint(2, 5)
    assert con == lp.Constraint.from_integers(
        {j: m * c for j, c in zip(con.cols, con.nums)}, con.rel, m * con.rhs_num, m * scale)


def test_program_without_variables_is_a_constant():
    empty = lp.LinearProgram(0, "max")
    out = solve_audited(empty)
    assert (out.status, out.value, out.x) == (lp.OPTIMAL, 0, [])
    empty.add_constraint({}, lp.LE, 1)
    out = solve_audited(empty)
    assert (out.status, out.value, out.duals) == (lp.OPTIMAL, 0, [0])
    impossible = lp.LinearProgram(0)
    impossible.add_constraint({}, lp.GE, 1)  # 0 >= 1
    assert solve_audited(impossible).status == lp.INFEASIBLE


# --- properties over random programs -----------------------------------

def random_program(rng: random.Random) -> BoundedProgram:
    n = rng.randint(1, 4)
    sense = rng.choice(["min", "max"])
    p = BoundedProgram(n, sense,
                       {j: F(rng.randint(-4, 4), rng.randint(1, 3)) for j in range(n)})
    for j in range(n):
        if rng.random() < 0.25:
            p.set_free(j)
        if rng.random() < 0.4:
            p.set_upper(j, F(rng.randint(0, 6), rng.randint(1, 2)))
    for _ in range(rng.randint(1, 5)):
        coeffs = {j: F(rng.randint(-3, 3)) for j in range(n) if rng.random() < 0.8}
        p.add_constraint(coeffs, rng.choice([lp.LE, lp.GE, EQ]),
                         F(rng.randint(-5, 5), rng.randint(1, 2)))
    return p


@pytest.mark.parametrize("seed", range(120))
def test_every_outcome_passes_the_exact_audit(seed):
    p = random_program(random.Random(seed)).sign_constrained()
    out = lp.solve(p)
    lp.audit(p, out)
    # the integer point and ray sit over their least common denominators
    if out.point is not None:
        assert out.point == integer_row(out.x)
    if out.direction is not None:
        assert out.direction == integer_row(out.ray)


def test_random_programs_cover_all_statuses():
    statuses = {random_program(random.Random(seed)).solve().status
                for seed in range(120)}
    assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}


@pytest.mark.parametrize("seed", range(30))
def test_row_permutation_keeps_the_value(seed):
    rng = random.Random(1000 + seed)
    p = random_program(rng)
    out = p.solve()
    q = BoundedProgram(p.n_vars, p.sense, p.objective)
    q.free = list(p.free)
    q.upper = list(p.upper)
    for con in rng.sample(p.constraints, len(p.constraints)):
        q.add_constraint(con.coeffs, con.rel, con.rhs)
    out2 = q.solve()
    assert out2.status == out.status
    if out.status == lp.OPTIMAL:
        assert out2.value == out.value


@pytest.mark.parametrize("seed", range(20))
def test_solving_twice_is_deterministic(seed):
    p1 = random_program(random.Random(2000 + seed))
    p2 = random_program(random.Random(2000 + seed))
    o1, o2 = p1.solve(), p2.solve()
    assert o1.status == o2.status and o1.x == o2.x and o1.value == o2.value


small_int = st.integers(-3, 3)


@st.composite
def programs_in_two_batches(draw):
    """A program boxed in by ``x_j <= u_j`` rows, so its first solve is
    bounded, and a second batch of "<=" / ">=" rows to append. An equation
    of the first batch is a "<=" row followed by a ">=" row. Right-hand
    sides of zero are as likely as any other, so degenerate bases abound."""
    n = draw(st.integers(1, 4))
    p = lp.LinearProgram(n, draw(st.sampled_from(["min", "max"])),
                         {j: draw(small_int) for j in range(n)})
    for j in range(n):
        p.add_constraint({j: 1}, lp.LE, draw(st.integers(0, 3)))

    def rows(rels, min_size):
        return draw(st.lists(st.tuples(st.lists(small_int, min_size=n, max_size=n),
                                       st.sampled_from(rels), small_int),
                             min_size=min_size, max_size=5))

    for coeffs, rel, rhs in rows([lp.LE, lp.GE, EQ], 0):
        for half in (lp.LE, lp.GE) if rel == EQ else (rel,):
            p.add_constraint(dict(enumerate(coeffs)), half, rhs)
    return p, rows([lp.LE, lp.GE], 1)


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(programs_in_two_batches())
def test_warm_resolve_agrees_with_cold_solve(case):
    p, later = case
    first = lp.solve(p)
    lp.audit(p, first)
    for coeffs, rel, rhs in later:
        p.add_constraint(dict(enumerate(coeffs)), rel, rhs)
    out = lp.solve(p, first)
    lp.audit(p, out)
    cold = lp.solve(p)
    lp.audit(p, cold)
    assert (out.status, out.value) == (cold.status, cold.value)


@st.composite
def cones_unbounded_at_first(draw):
    """A metric cone on 3..6 points, some pairs held by rows at a sum of cut
    metrics, and a "min" objective negative on some pair no row holds, so
    the first batch (no triangle row yet) is unbounded and triangle
    separation starts from its ray."""
    m = draw(st.integers(3, 6))
    pairs = all_pairs(m)
    d = dict.fromkeys(pairs, 0)
    for mask, w in draw(st.lists(st.tuples(st.integers(1, (1 << m) - 2), st.integers(1, 3)),
                                 max_size=3)):
        for p, q in pairs:
            d[(p, q)] += w * ((mask >> p & 1) != (mask >> q & 1))
    held = {pq: F(d[pq]) for pq, hold in zip(pairs, draw(st.lists(
        st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if hold}
    free = [pq for pq in pairs if pq not in held]
    assume(free)
    objective = {pq: F(draw(small_int), draw(st.integers(1, 3))) for pq in pairs}
    objective[draw(st.sampled_from(free))] = F(-draw(st.integers(1, 3)))
    return MetricConeLp(m), objective, held_rows(held)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(cones_unbounded_at_first())
def test_cutting_plane_from_an_unbounded_first_batch_agrees_with_cold_solve(case):
    cone, objective, rows = case
    real, runs = lp.cutting_plane, []

    def recorded(program, oracle, max_rounds):
        seen = []

        def recording(out):
            seen.append(out.status)
            return oracle(out)

        result = real(program, recording, max_rounds)
        runs.append((program, result, seen))
        return result

    with mock.patch.object(lp, "cutting_plane", recorded):
        got = cone.optimize("min", objective, rows)
    [(program, result, seen)] = runs
    assert seen[0] == lp.UNBOUNDED
    lp.audit(program, result.outcome)
    cold = lp.solve(program)
    lp.audit(program, cold)
    assert (result.outcome.status, result.outcome.value) == (cold.status, cold.value)
    assert got.status == cold.status


# --- cutting plane -----------------------------------------------------

def test_an_oracle_with_no_cut_returns_master_optimum_in_one_round():
    p = lp.LinearProgram(1, "min", {0: 1})
    res = lp.cutting_plane(p, lambda out: None)
    assert res.converged and res.rounds == 1
    assert res.outcome.value == 0 and p.constraints == []


def test_single_cut_convergence():
    p = lp.LinearProgram(1, "min", {0: 1})

    def want_q_at_least_3(out):
        if out.x[0] < 3:
            return [lp.Constraint({0: F(1)}, lp.GE, F(3))]
        return None

    res = lp.cutting_plane(p, want_q_at_least_3)
    assert res.converged
    assert res.outcome.value == 3
    assert len(p.constraints) == 1


def test_converged_point_satisfies_every_oracle_cut():
    # Approximate a disc by tangent cuts at a fixed set of slopes; the
    # converged point must satisfy each tangent exactly. y is free, so the
    # master runs on its sign-constrained form and the oracle reads the
    # point and, while the master is unbounded, the ray in x and y.
    slopes = [(F(1), F(1), F(4)), (F(1), F(-1), F(3)), (F(1), F(3), F(6))]
    bounded = BoundedProgram(2, "max", {0: 1, 1: 1})
    bounded.set_free(1)
    p = bounded.sign_constrained()

    def oracle(out):
        mapped = bounded.outcome(out)
        for a, b, rhs in slopes:
            tangent = lp.Constraint(bounded.signed_row({0: a, 1: b}), lp.LE, rhs)
            if a * mapped.x[0] + b * mapped.x[1] > rhs:
                return [tangent]
            if mapped.ray is not None and a * mapped.ray[0] + b * mapped.ray[1] > 0:
                return [tangent]
        return None

    res = lp.cutting_plane(p, oracle)
    assert res.converged and res.outcome.status == lp.OPTIMAL
    assert res.outcome.value == 4 and len(p.constraints) >= 1
    x = bounded.outcome(res.outcome).x
    assert all(a * x[0] + b * x[1] <= rhs for a, b, rhs in slopes)
    assert oracle(res.outcome) is None


def test_round_cap_reports_non_convergence():
    p = lp.LinearProgram(1, "min", {0: 1})
    state = {"level": 0}

    def always_hungry(out):
        state["level"] += 1
        return [lp.Constraint({0: F(1)}, lp.GE, F(state["level"]))]

    res = lp.cutting_plane(p, always_hungry, max_rounds=5)
    assert not res.converged
    assert res.rounds == 5


def test_satisfied_cut_raises():
    p = lp.LinearProgram(1, "min", {0: 1})

    def lazy_oracle(out):
        return [lp.Constraint({0: F(1)}, lp.GE, F(-1))]  # already true at x=0

    with pytest.raises(lp.CuttingPlaneError):
        lp.cutting_plane(p, lazy_oracle)


def test_repeated_cut_raises():
    # One batch carrying x >= 3 twice, the second copy scaled by 2: the
    # canonical signatures collide and the driver must refuse the repeat.
    p = lp.LinearProgram(1, "min", {0: 1})

    def stutter(out):
        return [lp.Constraint({0: F(1)}, lp.GE, F(3)),
                lp.Constraint({0: F(2)}, lp.GE, F(6))]

    with pytest.raises(lp.CuttingPlaneError):
        lp.cutting_plane(p, stutter)


def test_master_infeasible_is_conclusive():
    p = lp.LinearProgram(1, "min", {0: 1})
    p.add_constraint({0: 1}, lp.LE, 2)

    def demand_too_much(out):
        if out.status == lp.OPTIMAL and out.x[0] < 3:
            return [lp.Constraint({0: F(1)}, lp.GE, F(3))]
        return None

    res = lp.cutting_plane(p, demand_too_much)
    assert res.converged
    assert res.outcome.status == lp.INFEASIBLE


def test_oracle_order_first_objection_wins():
    # one oracle separating two families consults them in its own order: a
    # round the first family cuts never reaches the second
    p = lp.LinearProgram(1, "min", {0: 1})
    calls = []

    def first(out):
        calls.append("first")
        if out.x[0] < 1:
            return [lp.Constraint({0: F(1)}, lp.GE, F(1))]
        return None

    def second(out):
        calls.append("second")
        if out.x[0] < 2:
            return [lp.Constraint({0: F(1)}, lp.GE, F(2))]
        return None

    res = lp.cutting_plane(p, lambda out: first(out) or second(out))
    assert res.converged and res.outcome.value == 2 and res.rounds == 3
    # round 1: first objects, second never consulted; round 3: neither objects
    assert calls == ["first", "first", "second", "first", "second"]


def test_max_rounds_must_be_positive():
    with pytest.raises(lp.LpError):
        lp.cutting_plane(lp.LinearProgram(1), lambda out: None, max_rounds=0)


# --- phase one: the dual simplex on the zero cost ---------------------

def test_a_cold_tableau_holds_only_the_variables_columns():
    # Phase one starts at the slack basis, so the tableau stores one column
    # per variable however many ">=" rows there are.
    p = lp.LinearProgram(3, "min", {0: 1, 1: 2, 2: 3})
    p.add_constraint({0: 1, 1: 1}, lp.GE, 2)
    p.add_constraint({1: 1, 2: 1}, lp.GE, 3)
    p.add_constraint({0: 1, 2: 1}, lp.LE, 4)
    tab = solve_audited(p).tableau
    assert len(tab.cols) == p.n_vars
    assert all(len(row) == p.n_vars + 1 for row in tab.rows)
    assert sorted(tab.cols + tab.basis) == list(range(p.n_vars + len(p.constraints)))


def test_phase_one_hands_a_repeated_basis_to_bland(monkeypatch):
    # With every norm read as 1 the zero-cost dual simplex revisits a basis
    # on this feasible program (found by a random search). Every phase-one
    # pivot is degenerate, so once a basis has come back, every later
    # leaving row is the dual Bland rule's: the lowest basic label with a
    # negative rhs.
    monkeypatch.setattr(lp, "_row_norm", lambda row, den: 1)
    p = lp.LinearProgram(4, "min")
    for coeffs, rel, rhs in [([8, 8, -2, -9], lp.LE, -1), ([-9, 0, 1, -6], lp.LE, -3),
                             ([5, 7, 8, 6], lp.LE, 8), ([-2, -3, -2, 5], lp.GE, 3),
                             ([4, -9, 6, 5], lp.LE, 8)]:
        p.add_constraint(dict(enumerate(coeffs)), rel, rhs)
    pivot, bases, bland = lp._Tableau.pivot, [], []

    def recorded(self, pr, pc):
        bases.append(tuple(sorted(self.basis)))
        bland.append(self.basis[pr] == min(b for b, row in zip(self.basis, self.rows)
                                           if row[-1] < 0))
        pivot(self, pr, pc)

    monkeypatch.setattr(lp._Tableau, "pivot", recorded)
    out = solve_audited(p)
    first_repeat = next(i for i, key in enumerate(bases) if key in bases[:i])
    assert out.status == lp.OPTIMAL
    assert len(bland) > first_repeat + 1 and all(bland[first_repeat + 1:])


def test_phase_one_proves_conflicting_rows_infeasible(monkeypatch):
    # x + y <= 1 caps x + 2y at 2, so x + 2y >= 3 cannot hold: phase one ends
    # in the dual ratio test and the primal simplex never runs. With the
    # ">=" row at 2 phase one reaches a feasible basis, and the optimum the
    # primal simplex finds from it passes the audit.
    run, runs = lp._Tableau.run, []

    def counted(self, cost, cost_den):
        runs.append(cost)
        return run(self, cost, cost_den)

    monkeypatch.setattr(lp._Tableau, "run", counted)
    for rhs, status in [(3, lp.INFEASIBLE), (2, lp.OPTIMAL)]:
        p = lp.LinearProgram(2, "max", {0: 2, 1: 1})
        p.add_constraint({0: 1, 1: 1}, lp.LE, 1)
        p.add_constraint({0: 1, 1: 2}, lp.GE, rhs)
        out = solve_audited(p)
        assert out.status == status
    assert len(runs) == 1
    assert out.x == [F(0), F(1)] and out.value == 1


# --- warm re-solve -----------------------------------------------------

@pytest.fixture
def replay(monkeypatch):
    """Check every lp.solve against a cold solve of the same program.

    Each outcome must pass the audit and agree with the cold solve in
    status and value; returns the list of calls, True for each that
    started from a kept tableau.
    """
    solve, calls = lp.solve, []

    def checked(program, previous=None):
        calls.append(previous is not None and previous.tableau is not None)
        out = solve(program, previous)
        lp.audit(program, out)
        cold = solve(program)
        assert (out.status, out.value) == (cold.status, cold.value)
        return out

    monkeypatch.setattr(lp, "solve", checked)
    return calls


@pytest.fixture
def cold_solves(monkeypatch):
    """Count solves from scratch: each starts from a new empty tableau."""
    init, calls = lp._Tableau.__init__, []

    def counted(self, program):
        calls.append(program)
        init(self, program)

    monkeypatch.setattr(lp._Tableau, "__init__", counted)
    return calls


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_operator_rounds_replay_warm_as_cold(replay, seed, k):
    report = find_optimal_operator(random_graph(random.Random(seed), 5, k))
    assert report.converged
    assert any(replay)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_metric_cone_rounds_replay_warm_as_cold(replay, seed):
    rng = random.Random(seed)
    g = random_graph(rng, 7, 3)
    min_extension(g, random_metric(rng, 3))
    objective = {pq: F(rng.randint(-4, 4), rng.randint(1, 3)) for pq in all_pairs(6)}
    ones = {pq: F(1) for pq in all_pairs(6)}
    probe = MetricConeLp(6).optimize("max", objective, [(ones, lp.LE, F(1))])
    assert probe.status == lp.OPTIMAL
    assert any(replay)


@pytest.mark.parametrize("seed", range(120))
def test_appended_rows_resolve_warm_as_cold(seed, cold_solves):
    # The rows of a random program, boxed in so the first batch is bounded,
    # arrive in two batches; the second re-solves warm from the first.
    rng = random.Random(3000 + seed)
    bounded = random_program(rng)
    n_rows = sum(2 if con.rel == EQ else 1 for con in bounded.constraints)
    for j in range(bounded.n_vars):
        if bounded.free[j]:
            bounded.add_constraint({j: 1}, lp.GE, -10)
        if bounded.upper[j] is None:
            bounded.set_upper(j, 10)
    p = bounded.sign_constrained()
    rows = p.constraints[n_rows:] + p.constraints[:n_rows]  # the box first
    split = rng.randint(len(rows) - n_rows, len(rows) - 1)
    p.constraints = rows[:split]
    first = lp.solve(p)
    p.constraints = rows
    out = lp.solve(p, first)
    lp.audit(p, out)
    cold = lp.solve(p)
    assert (out.status, out.value) == (cold.status, cold.value)
    assert len(cold_solves) == 3 - (first.status == lp.OPTIMAL)


def test_infeasible_cut_ends_in_the_dual_ratio_test(cold_solves):
    p = lp.LinearProgram(1, "min", {0: 1})
    p.add_constraint({0: 1}, lp.LE, 1)
    first = lp.solve(p)
    p.add_constraint({0: 1}, lp.GE, 2)
    assert lp.solve(p, first).status == lp.INFEASIBLE
    assert len(cold_solves) == 1
    assert first.tableau is None  # the re-solve took it over


@pytest.mark.parametrize("sense", ["min", "max"])
def test_ge_cut_enters_as_a_negated_row(sense, cold_solves):
    sign = 1 if sense == "min" else -1
    p = lp.LinearProgram(2, sense, {0: sign * 2, 1: sign * 3})
    p.add_constraint({0: 1, 1: 1}, lp.LE, 4)
    first = lp.solve(p)
    assert first.value == 0
    p.add_constraint({0: 1, 1: 2}, lp.GE, 3)
    out = lp.solve(p, first)
    lp.audit(p, out)
    assert len(cold_solves) == 1
    assert out.x == [F(0), F(3, 2)] and out.value == sign * F(9, 2)
    assert out.duals == [F(0), sign * F(3, 2)]


def test_round_after_unbounded_outcome_is_cold(cold_solves):
    p = lp.LinearProgram(1, "max", {0: 1})
    first = lp.solve(p)
    assert first.status == lp.UNBOUNDED and first.tableau is None
    p.add_constraint({0: 1}, lp.LE, 5)
    out = lp.solve(p, first)
    lp.audit(p, out)
    assert out.value == 5 and len(cold_solves) == 2


def test_previous_outcome_of_another_program_is_refused():
    p = lp.LinearProgram(1, "min", {0: 1})
    first = lp.solve(p)
    with pytest.raises(lp.LpError):
        lp.solve(lp.LinearProgram(1, "min", {0: 1}), first)
    p.set_objective_coeff(0, 2)
    with pytest.raises(lp.LpError):
        lp.solve(p, first)


def test_beale_dual_terminates_warm(cold_solves):
    # The dual of Beale's cycling instance (see test_beale_cycling_instance_terminates),
    # its rows appended as cuts. y0 and y1 cost nothing, so dual ratio tests
    # tie at zero and termination rests on the tie rule; the suite's pivot
    # budget bounds it.
    p = lp.LinearProgram(3, "min", {2: 1})
    first = lp.solve(p)
    rows = [({0: F(1, 4), 1: F(1, 2)}, F(3, 4)), ({0: -60, 1: -90}, -150),
            ({0: F(-1, 25), 1: F(-1, 50), 2: 1}, F(1, 50)), ({0: 9, 1: 3}, -6)]
    for coeffs, rhs in rows:
        p.add_constraint(coeffs, lp.GE, rhs)
    out = lp.solve(p, first)
    lp.audit(p, out)
    assert out.value == F(1, 20) and len(cold_solves) == 1


@pytest.mark.parametrize("seed", range(40))
def test_zero_objective_cuts_resolve_by_degenerate_pivots(seed, monkeypatch):
    # With no objective every reduced cost is zero, so every dual pivot is
    # degenerate and only the repeated-basis guard bounds the run; the
    # suite's pivot budget holds it to that.
    rng = random.Random(4000 + seed)
    n = rng.randint(2, 6)
    p = lp.LinearProgram(n, "min")
    first = lp.solve(p)
    p.add_constraint({j: rng.randint(1, 2) for j in range(n)}, lp.GE, 1)
    for _ in range(rng.randint(2, 9)):
        p.add_constraint({j: rng.randint(-2, 2) for j in range(n)},
                         rng.choice([lp.LE, lp.GE]), rng.randint(-2, 2))
    pivot, reduced = lp._Tableau.pivot, []

    def recorded(self, pr, pc):
        reduced.append(self.red[pc])
        pivot(self, pr, pc)

    monkeypatch.setattr(lp._Tableau, "pivot", recorded)
    out = lp.solve(p, first)
    lp.audit(p, out)
    assert not any(reduced)
    assert reduced or out.status == lp.INFEASIBLE
    assert out.status == lp.solve(p).status


def test_a_repeated_basis_hands_the_leaving_row_to_bland(monkeypatch):
    # With every norm read as 1 the leaving row is the one of most negative
    # rhs numerator, a rule that cycles on this zero-objective program (found
    # by a random search; steepest edge revisited no basis on any program
    # searched). Every pivot is degenerate, so a basis seen twice is the
    # guard handing the leaving row to Bland's rule, which ends the run.
    monkeypatch.setattr(lp, "_row_norm", lambda row, den: 1)
    p = lp.LinearProgram(4, "min")
    first = lp.solve(p)
    for coeffs, rhs in [([-5, -4, 3, 4], 1), ([-8, -6, 5, 4], -2), ([-7, 7, -2, -4], -8),
                        ([-4, -9, -7, -6], -2), ([-2, 6, 5, 9], 9)]:
        p.add_constraint(dict(enumerate(coeffs)), lp.GE, rhs)
    pivot, bases = lp._Tableau.pivot, []

    def recorded(self, pr, pc):
        bases.append(tuple(sorted(self.basis)))
        pivot(self, pr, pc)

    monkeypatch.setattr(lp._Tableau, "pivot", recorded)
    out = lp.solve(p, first)
    assert len(set(bases)) < len(bases)
    assert out.status == lp.INFEASIBLE == lp.solve(p).status


def test_duals_of_a_taken_over_tableau_are_its_own():
    # A warm solve extends the kept tableau's reduced-cost row and dual
    # layout in place and pivots on them; the earlier outcome still reads
    # the duals it was solved with.
    def program():
        p = lp.LinearProgram(2, "max", {0: 3, 1: 2})
        p.add_constraint({0: 1, 1: 1}, lp.LE, 4)
        p.add_constraint({0: 1}, lp.LE, 2)
        p.add_constraint({1: 1}, lp.LE, 3)
        return p

    p, before = program(), program()
    first = lp.solve(p)
    p.add_constraint({0: 1, 1: 3}, lp.LE, 5)
    p.add_constraint({0: 2, 1: 1}, lp.LE, 3)
    out = lp.solve(p, first)
    assert first.tableau is None  # taken over
    lp.audit(p, out)
    lp.audit(before, first)
    assert first.duals == [F(2), F(1), F(0)]


# --- debug dump --------------------------------------------------------

def test_lp_text_dump_mentions_all_parts():
    p = BoundedProgram(2, "max", {0: 1, 1: F(1, 2)})
    p.add_constraint({0: 1, 1: 1}, lp.LE, 3)
    p.set_upper(0, 7)
    text = lp.to_lp_text(p.sign_constrained(), "demo")
    assert "Maximize" in text and "x0" in text and "x1" in text
    assert "3" in text and "demo" in text
    assert " c1: x0 <= 7\n" in text  # the upper bound is a row
    assert "Bounds" not in text  # LP format's default bounds, [0, +inf), are lp's
