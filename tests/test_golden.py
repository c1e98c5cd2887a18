"""Golden bit-identity: exact solver results pinned against a recorded fixture.

``tests/data/golden.json`` was first recorded with the Fraction-tableau
simplex that preceded the integer tableau. Bland's rule decides every pivot
from signs and exact ratio comparisons only, so any exact arithmetic
reproduces the same pivot sequence, and hence the same vertex, duals and
rays, on a solve from scratch; the single programs (``lp``) pin that. Those
with free variables, upper bounds or equations are solved in the
sign-constrained inequality form ``lp.solve`` takes
(``helpers.BoundedProgram``: a free variable split into two nonnegative
columns, an equation a "<=" row followed by a ">=" row, each upper bound a
"<=" row after the program's own rows) and mapped back, bound duals
included. The metric-cone entries were recorded with the Fraction triangle
separation, metric validation, cut re-check and max-flow that preceded
their integer versions. The one-row cone LPs (``cone_lp``) are read off
the extreme rays; on a tie that read returns the optimal vertex of the
first ray in ``cone_rays`` order.

When the exact LP lost its "=" rows, each equation of ``lp`` became such a
pair of rows, which moved the duals of three programs on degenerate
optima, and the normalized cone probes became "<=" slices, which moved
their non-positive optima to the apex; no operator, extension or quality
pin moved.

A cutting-plane loop (the operator master, and cone LPs that add triangle
rows) re-solves every round after the first by the dual simplex from the
kept tableau, a different pivot path from a solve from scratch. Where
the optimum is a degenerate face it can end at another optimal vertex,
so the fixture was re-recorded when that path came in: the round and
membership-cut counts of four operators and one ``min_extension`` witness
moved; every Q, optimal value and operator coefficient stayed.

A solve from scratch first ran a primal phase one on artificial columns.
It now reaches feasibility by the dual simplex on the zero cost from the
slack basis, which is another pivot path, so the fixture was re-recorded
again: the duals of ``random-15``, the duals and bound duals of
``random-25`` (both degenerate optima), the feasible point, its value and
the ray of the unbounded ``random-35``, and the membership-cut counts of
seven operators moved; every q, optimal value, operator coefficient,
round count and worst metric stayed.

``min_extension`` first ran on the metric cone over all pair distances with
the terminal pairs pinned. It now runs over edge lengths with shortest-path
rows, and its witness is the shortest-path closure of the optimal lengths,
another optimal extension, so the fixture was re-recorded once more: the
``min_extension`` witnesses of ``cone-5-3-4-1``, ``cone-5-3-4-3``,
``cone-6-4-7-1``, ``cone-7-3-12-3`` and ``cone-7-4-4-1`` moved; every value
stayed. The metric upper quality and the concurrent flow of a graph on more
than five vertices then left the metric cone for the same edge-length form,
with a distance column per terminal pair that is not an edge; no entry
moved, the unbounded rays of ``cone-6-4-7-1`` and ``cone-6-4-7-3`` included,
which the cut metric of a component reproduces. Both programs on six
vertices now read the 296 extreme rays of the six-point metric cone, so
only graphs on more than six vertices take the edge-length form; again no
entry moved, the unbounded rays of ``cone-6-4-7-1`` and ``cone-6-4-7-3``
included. Every test runs under the suite's per-solve pivot budget
(``tests/conftest.py``).
"""
import json
from fractions import Fraction
from pathlib import Path

import pytest

from vsparse import lp
from golden_cases import (build_fixture, cone_lp_cases, cone_lp_record, lp_cases,
                          metric_cone_cases, metric_cone_record, operator_cases,
                          operator_record, outcome_record, random_metric_cases,
                          random_metric_record, solve_operator)

FIXTURE_PATH = Path(__file__).parent / "data" / "golden.json"
FIXTURE = json.loads(FIXTURE_PATH.read_text())


def test_generator_reproduces_the_fixture_byte_for_byte():
    # the fixture is what the generator prints, so it was not edited by hand
    text = json.dumps(build_fixture(), indent=1, sort_keys=True) + "\n"
    assert text.encode() == FIXTURE_PATH.read_bytes()


def test_fixture_covers_every_outcome_kind():
    statuses = {rec["status"] for rec in FIXTURE["lp"].values()}
    assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}
    assert len(FIXTURE["lp"]) == len(lp_cases()) >= 50
    assert len(FIXTURE["operators"]) == len(operator_cases()) == 9
    cases = FIXTURE["metric_cone"]["cases"]
    assert len(cases) == len(metric_cone_cases()) == 20
    assert len(FIXTURE["metric_cone"]["random_metric"]) == len(random_metric_cases()) == 12
    # both the optimal and the ray path of the budgeted metric LP are pinned
    assert {rec["metric_upper"]["q"] == "unbounded" for rec in cases.values()} == {True, False}


@pytest.mark.parametrize("name,program", [pytest.param(*c, id=c[0]) for c in lp_cases()])
def test_lp_outcome_is_bit_identical_and_audited(name, program):
    out = program.solve()  # audited on the sign-constrained program
    assert outcome_record(out) == FIXTURE["lp"][name]
    values = [out.value, *(v for field in (out.x, out.duals, out.bound_duals, out.ray)
                           if field is not None for v in field)]
    assert all(type(v) is Fraction for v in values if v is not None)


@pytest.mark.parametrize("name,args", [pytest.param(*c, id=c[0]) for c in operator_cases()])
def test_operator_solve_is_bit_identical(name, args):
    assert operator_record(solve_operator(*args)) == FIXTURE["operators"][name]


@pytest.mark.parametrize("name,args", [pytest.param(*c, id=c[0]) for c in metric_cone_cases()])
def test_metric_cone_layer_is_bit_identical(name, args):
    assert metric_cone_record(*args) == FIXTURE["metric_cone"]["cases"][name]


@pytest.mark.parametrize("name,args", [pytest.param(*c, id=c[0]) for c in random_metric_cases()])
def test_random_metric_is_bit_identical(name, args):
    assert random_metric_record(*args) == FIXTURE["metric_cone"]["random_metric"][name]


def test_cone_lp_fixture_covers_optimal_and_unbounded():
    records = FIXTURE["metric_cone"]["cone_lp"]
    assert len(records) == len(cone_lp_cases()) == 128
    assert {rec["status"] for rec in records.values()} == {lp.OPTIMAL, lp.UNBOUNDED}


@pytest.mark.parametrize("name,args", [pytest.param(*c, id=c[0]) for c in cone_lp_cases()])
def test_cone_lp_is_bit_identical(name, args):
    assert cone_lp_record(*args) == FIXTURE["metric_cone"]["cone_lp"][name]
