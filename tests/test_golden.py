"""Golden bit-identity: exact solver results pinned against a recorded fixture.

``tests/data/golden.json`` was recorded with the Fraction-tableau simplex
that preceded the integer tableau. Bland's rule decides every pivot from
signs and exact ratio comparisons only, so any exact arithmetic must
reproduce the same pivot sequence and therefore the same vertex, duals,
rays, operators, witnesses and round counts, bit for bit.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from vsparse import lp
from golden_cases import (lp_cases, operator_cases, operator_record,
                          outcome_record, solve_operator)

FIXTURE = json.loads((Path(__file__).parent / "data" / "golden.json").read_text())


def test_fixture_covers_every_outcome_kind():
    statuses = {rec["status"] for rec in FIXTURE["lp"].values()}
    assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}
    assert len(FIXTURE["lp"]) == len(lp_cases()) >= 50
    assert len(FIXTURE["operators"]) == len(operator_cases()) == 9


@pytest.mark.parametrize("name,program", [pytest.param(*c, id=c[0]) for c in lp_cases()])
def test_lp_outcome_is_bit_identical_and_audited(name, program):
    out = lp.solve(program)
    lp.audit(program, out)
    assert outcome_record(out) == FIXTURE["lp"][name]
    values = [out.value, *(v for field in (out.x, out.duals, out.bound_duals, out.ray)
                           if field is not None for v in field)]
    assert all(type(v) is Fraction for v in values if v is not None)


@pytest.mark.parametrize("name,args", [pytest.param(*c, id=c[0]) for c in operator_cases()])
def test_operator_solve_is_bit_identical(name, args):
    assert operator_record(solve_operator(*args)) == FIXTURE["operators"][name]
