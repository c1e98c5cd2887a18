"""Seeded cases for the golden bit-identity test, and their serialization.

``lp_cases()`` builds about fifty small programs (seeded random ones plus
Beale's cycling instance, infeasible and unbounded programs, free variables,
upper bounds, negative right-hand sides and equations). ``lp.solve`` takes
nonnegative variables and inequality rows only, so each is a
``helpers.BoundedProgram``: a free variable is split into two nonnegative
columns, an equation is a "<=" row followed by a ">=" row, an upper bound
is a "<=" row after the program's own rows, and the outcome is mapped back
to the original variables and rows: an equation's dual is the sum of its
pair's duals, and bound duals are read off the bound rows.
``operator_cases()``
lists the ``find_optimal_operator`` instances; ``metric_cone_fixture()``
covers the metric-cone layer (``min_extension``, ``metric_quality_upper``,
``max_concurrent_flow``, ``min_cut_via_flow`` and ``random_metric``) on
seeded graphs with mixed denominators, plus seeded one-row
``MetricConeLp(m).optimize`` programs on cones of 2..5 points
(``cone_lp_cases()``). Every outcome is serialized to plain
JSON with exact fraction strings, so the fixture pins the pivot path's
results bit for bit.

Regenerate the fixture (only when a result is meant to change) with::

    PYTHONPATH=src python tests/golden_cases.py > tests/data/golden.json
"""

import json
import random
from fractions import Fraction

from vsparse import (Sparsifier, all_pairs, find_optimal_operator, lp,
                     max_concurrent_flow, metric_quality_upper, min_cut_via_flow,
                     min_extension)
from vsparse.extension import MetricConeLp
from vsparse.sampling import (random_demands, random_fraction, random_graph,
                              random_metric)
from helpers import EQ, BoundedOutcome, BoundedProgram

F = Fraction

OPERATOR_SHAPES = ((5, 3), (5, 4), (6, 3))
OPERATOR_SEEDS = (1, 2, 3)
# (n, k, max_den, density) of the metric-cone graphs; max_den 7 and 12 mix
# denominators whose lcm is far from any single one of them.
CONE_SHAPES = ((5, 3, 4, 0.5), (6, 4, 7, 0.5), (7, 3, 12, 0.4), (7, 4, 4, 0.6),
               (8, 5, 7, 0.3))
CONE_SEEDS = (1, 2, 3, 4)
# point counts and seeds of the one-row LPs over the metric cone
CONE_LP_POINTS = (2, 3, 4, 5)
CONE_LP_SEEDS = (1, 2, 3, 4)


def _random_lp(rng: random.Random) -> BoundedProgram:
    n = rng.randint(1, 6)
    sense = rng.choice(["min", "max"])
    p = BoundedProgram(n, sense)
    # Most programs are feasible by construction around a hidden point x0,
    # with some rows tight there, so degenerate vertices come up often.
    anchored = rng.random() < 0.7
    x0 = []
    for j in range(n):
        if rng.random() < 0.8:
            p.set_objective_coeff(j, F(rng.randint(-5, 5), rng.randint(1, 4)))
        x0.append(F(rng.randint(0, 6), rng.randint(1, 3)))
        roll = rng.random()
        if roll < 0.2:
            p.set_free(j)
            x0[j] -= 2
        elif roll < 0.45:
            p.set_upper(j, x0[j] + rng.randint(0, 2))
    for _ in range(rng.randint(1, 7)):
        coeffs = {j: F(rng.randint(-6, 6), rng.randint(1, 5))
                  for j in range(n) if rng.random() < 0.7}
        rel = rng.choice([lp.LE, lp.LE, lp.GE, EQ])
        if anchored:
            at = sum((c * x0[j] for j, c in coeffs.items()), F(0))
            slack = F(rng.choice([0, 0, 1, 3]), rng.randint(1, 2))
            rhs = at if rel == EQ else at + slack if rel == lp.LE else at - slack
        else:
            rhs = F(rng.randint(-8, 12), rng.randint(1, 3))
        p.add_constraint(coeffs, rel, rhs)
    return p


def _named_lps() -> list[tuple[str, BoundedProgram]]:
    cases = []

    beale = BoundedProgram(4, "min", {0: F(-3, 4), 1: 150, 2: F(-1, 50), 3: 6})
    beale.add_constraint({0: F(1, 4), 1: -60, 2: F(-1, 25), 3: 9}, lp.LE, 0)
    beale.add_constraint({0: F(1, 2), 1: -90, 2: F(-1, 50), 3: 3}, lp.LE, 0)
    beale.add_constraint({2: 1}, lp.LE, 1)
    cases.append(("beale", beale))

    infeasible = BoundedProgram(2, "min", {0: 1})
    infeasible.add_constraint({0: 1, 1: 1}, lp.LE, 1)
    infeasible.add_constraint({0: 1, 1: 1}, lp.GE, 2)
    cases.append(("infeasible", infeasible))

    infeasible_eq = BoundedProgram(2, "max", {1: 1})
    infeasible_eq.add_constraint({0: 1, 1: -1}, EQ, -3)
    infeasible_eq.set_upper(1, 2)
    cases.append(("infeasible-eq-upper", infeasible_eq))

    unbounded = BoundedProgram(3, "max", {0: 1, 1: F(1, 2)})
    unbounded.add_constraint({0: 1, 1: -1}, lp.LE, 2)
    unbounded.add_constraint({2: 1}, EQ, F(5, 3))
    cases.append(("unbounded", unbounded))

    unbounded_free = BoundedProgram(2, "min", {0: 1, 1: 1})
    unbounded_free.set_free(0)
    unbounded_free.add_constraint({0: 1, 1: 2}, lp.LE, -1)
    cases.append(("unbounded-free", unbounded_free))

    negative_rhs = BoundedProgram(3, "min", {0: 2, 1: 3, 2: F(1, 3)})
    negative_rhs.add_constraint({0: -1, 1: -1}, lp.LE, -4)
    negative_rhs.add_constraint({1: 1, 2: -2}, lp.GE, F(-7, 2))
    negative_rhs.add_constraint({0: 1, 2: 1}, EQ, 3)
    negative_rhs.set_upper(0, F(5, 2))
    cases.append(("negative-rhs", negative_rhs))

    redundant_eq = BoundedProgram(3, "max", {0: 1, 1: 1, 2: 1})
    redundant_eq.add_constraint({0: 1, 1: 1}, EQ, 2)
    redundant_eq.add_constraint({0: 2, 1: 2}, EQ, 4)
    redundant_eq.add_constraint({2: 1, 0: -1}, lp.LE, 1)
    cases.append(("redundant-eq", redundant_eq))

    degenerate = BoundedProgram(3, "max", {0: 10, 1: -57, 2: -9})
    degenerate.add_constraint({0: F(1, 2), 1: F(-11, 2), 2: F(-5, 2)}, lp.LE, 0)
    degenerate.add_constraint({0: F(1, 2), 1: F(-3, 2), 2: F(-1, 2)}, lp.LE, 0)
    degenerate.add_constraint({0: 1}, lp.LE, 1)
    cases.append(("degenerate-kuhn", degenerate))
    return cases


def lp_cases() -> list[tuple[str, BoundedProgram]]:
    cases = _named_lps()
    for seed in range(42):
        cases.append((f"random-{seed}", _random_lp(random.Random(seed))))
    return cases


def operator_cases() -> list[tuple[str, tuple[int, int, int]]]:
    return [(f"operator-{n}-{k}-{s}", (n, k, s))
            for n, k in OPERATOR_SHAPES for s in OPERATOR_SEEDS]


def _fracs(values) -> list[str] | None:
    return None if values is None else [str(v) for v in values]


def outcome_record(out: BoundedOutcome) -> dict:
    return {
        "status": out.status,
        "x": _fracs(out.x),
        "value": None if out.value is None else str(out.value),
        "duals": _fracs(out.duals),
        "bound_duals": _fracs(out.bound_duals),
        "ray": _fracs(out.ray),
    }


def solve_operator(n: int, k: int, seed: int):
    return find_optimal_operator(random_graph(random.Random(seed), n, k))


def operator_record(report) -> dict:
    return {
        "q": str(report.q),
        "iterations": report.iterations,
        "membership_cuts": report.membership_cuts,
        "coeffs": [[*xp, *yp, str(c)]
                   for (xp, yp), c in sorted(report.operator.coeffs.items())],
        "worst_metrics": [[[_fracs(row) for row in d.rows], str(c)]
                          for d, c in report.worst_metrics],
    }


def _rows(d) -> list[list[str]]:
    return [_fracs(row) for row in d.rows]


def cone_graph(n: int, k: int, max_den: int, density: float, seed: int):
    """A seeded graph plus a terminal metric, sparsifier and demand set on it.

    Odd seeds draw a sparse graph with no spanning tree, which often leaves
    terminals in different components; their budgeted metric LP is then
    unbounded, so the ray path of the cone is pinned too.
    """
    rng = random.Random(seed * 1000 + n * 10 + k)
    connected = seed % 2 == 0
    g = random_graph(rng, n, k, density=density if connected else 0.25,
                     connected=connected, max_den=max_den)
    d_y = random_metric(rng, k, max_den=max_den)
    beta = Sparsifier(k, {pq: random_fraction(rng, 6, max_den, min_num=1)
                          for pq in all_pairs(k)})
    demands = random_demands(rng, k, 3, max_den=max_den)
    return g, d_y, beta, demands


def metric_cone_cases() -> list[tuple[str, tuple]]:
    return [(f"cone-{n}-{k}-{den}-{s}", (n, k, den, density, s))
            for n, k, den, density in CONE_SHAPES for s in CONE_SEEDS]


def metric_cone_record(n: int, k: int, max_den: int, density: float, seed: int) -> dict:
    g, d_y, beta, demands = cone_graph(n, k, max_den, density, seed)
    ext = min_extension(g, d_y)
    upper = metric_quality_upper(g, beta)
    return {
        "min_extension": {"value": str(ext.value), "witness": _rows(ext.witness)},
        "metric_upper": {"q": str(upper.q_value), "witness": _rows(upper.witness)},
        "concurrent_flow": str(max_concurrent_flow(g, demands)),
        "min_cuts": [str(min_cut_via_flow(g, [p for p in range(k) if mask >> p & 1]))
                     for mask in range(1, 1 << k, 2) if mask != (1 << k) - 1],
    }


def random_metric_cases() -> list[tuple[str, tuple[int, int, int]]]:
    return [(f"random-metric-{m}-{den}-{s}", (m, den, s))
            for m in (3, 5, 8) for den in (4, 9) for s in (1, 2)]


def random_metric_record(m: int, max_den: int, seed: int) -> list[list[str]]:
    return _rows(random_metric(random.Random(seed), m, max_den=max_den))


def _signed_objective(rng: random.Random, m: int, low: int, high: int) -> dict:
    """Coefficients in [low, high] / [1, 3] on every pair, zeros included."""
    return {pq: F(rng.randint(low, high), rng.randint(1, 3)) for pq in all_pairs(m)}


def _sparse_row(rng: random.Random, m: int, keep: float) -> dict:
    """Positive coefficients on a random subset of pairs (never empty), so
    the row vanishes on every ray that keeps that subset at distance 0."""
    pairs = all_pairs(m)
    row = {pq: F(rng.randint(1, 5), rng.randint(1, 3)) for pq in pairs if rng.random() < keep}
    return row or {rng.choice(pairs): F(rng.randint(1, 5), rng.randint(1, 3))}


def _cone_lp(family: str, m: int, seed: int) -> tuple:
    """One seeded (m, sense, objective, (row, rel, rhs)) program.

    ``eq-max`` is the probe of membership and distortion separation over
    the slice sum d <= 1 (the ``eq-max`` families keep the names their
    fixture keys have), ``ge-min`` the concurrent-flow LP (demand rows that
    vanish on some rays), ``le-max`` the budgeted quality LP (unbounded
    when the budget misses a pair the objective rewards); the named
    families pin ties, all-nonpositive objectives and the apex.
    """
    rng = random.Random(seed * 1000 + m * 100 + CONE_LP_FAMILIES.index(family))
    pairs = all_pairs(m)
    ones = {pq: F(1) for pq in pairs}
    if family == "eq-max":
        return m, "max", _signed_objective(rng, m, -4, 4), (ones, lp.LE, F(1))
    if family == "eq-max-tied":
        # every pair weighs the same, so every normalized ray ties
        return m, "max", {pq: F(seed, 3) for pq in pairs}, (ones, lp.LE, F(1))
    if family == "eq-max-one-pair":
        # d(0,1) over the total is 1/(m-1) on the cuts of {0} and of {1} alike: a tie
        return m, "max", {(0, 1): F(seed)}, (ones, lp.LE, F(1))
    if family == "eq-max-nonpositive":
        return m, "max", _signed_objective(rng, m, -4, 0), (ones, lp.LE, F(1))
    if family == "ge-min":
        weights = {pq: F(rng.randint(0, 5), rng.randint(1, 3)) for pq in pairs}
        return m, "min", weights, (_sparse_row(rng, m, 0.4), lp.GE, F(rng.randint(1, 3), 2))
    if family == "le-max":
        return (m, "max", _signed_objective(rng, m, -1, 5),
                (_sparse_row(rng, m, 0.8), lp.LE, F(rng.randint(1, 4), 3)))
    if family == "le-max-unbounded":
        # the budget misses every pair at point 0, so the cut of point 0 is
        # free and the objective rewards it
        budget = {pq: F(rng.randint(1, 4)) for pq in pairs if pq[0] != 0}
        return m, "max", {(0, 1): F(1), **budget}, (budget or {(0, 1): F(0)}, lp.LE, F(1))
    if family == "le-max-apex":
        return m, "max", _signed_objective(rng, m, -3, 0), (ones, lp.LE, F(2))
    raise ValueError(family)


CONE_LP_FAMILIES = ("eq-max", "eq-max-tied", "eq-max-one-pair", "eq-max-nonpositive",
                    "ge-min", "le-max", "le-max-unbounded", "le-max-apex")


def cone_lp_cases() -> list[tuple[str, tuple]]:
    return [(f"cone-lp-{family}-{m}-{s}", (family, m, s))
            for family in CONE_LP_FAMILIES for m in CONE_LP_POINTS for s in CONE_LP_SEEDS]


def cone_lp_record(family: str, m: int, seed: int) -> dict:
    m, sense, objective, row = _cone_lp(family, m, seed)
    result = MetricConeLp(m).optimize(sense, objective, [row])
    witness = None if result.witness is None else _rows(result.witness)
    ray = result.status == lp.UNBOUNDED  # the witness is an improving direction
    return {
        "status": result.status,
        "value": None if result.value is None else str(result.value),
        "table": None if ray else witness,
        "ray": witness if ray else None,
    }


def metric_cone_fixture() -> dict:
    return {
        "cases": {name: metric_cone_record(*args) for name, args in metric_cone_cases()},
        "cone_lp": {name: cone_lp_record(*args) for name, args in cone_lp_cases()},
        "random_metric": {name: random_metric_record(*args)
                          for name, args in random_metric_cases()},
    }


def build_fixture() -> dict:
    return {
        "lp": {name: outcome_record(p.solve()) for name, p in lp_cases()},
        "metric_cone": metric_cone_fixture(),
        "operators": {name: operator_record(solve_operator(*args))
                      for name, args in operator_cases()},
    }


if __name__ == "__main__":
    print(json.dumps(build_fixture(), indent=1, sort_keys=True))
