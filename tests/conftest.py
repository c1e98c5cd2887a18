"""Suite-wide fixtures.

Every tier-1 test runs under a per-solve pivot budget. A cutting-plane loop
keeps one tableau across its rounds, so the count restarts at each call of
``lp.solve`` rather than with each tableau. The most pivots one solve in this
suite takes is 69, so a solver that cycles, as Bland's rule with a wrong
tie-break can, fails the test at once instead of hanging the suite.
"""

import pytest

from vsparse import lp

PIVOT_BUDGET = 500


class PivotBudgetExceeded(RuntimeError):
    pass


@pytest.fixture(autouse=True)
def pivot_budget(monkeypatch):
    pivot, solve = lp._Tableau.pivot, lp.solve
    taken = [0]

    def counted_pivot(self, pr, pc):
        taken[0] += 1
        if taken[0] > PIVOT_BUDGET:
            raise PivotBudgetExceeded(f"one solve took more than {PIVOT_BUDGET} pivots")
        pivot(self, pr, pc)

    def counted_solve(*args, **kwargs):
        taken[0] = 0
        return solve(*args, **kwargs)

    monkeypatch.setattr(lp._Tableau, "pivot", counted_pivot)
    monkeypatch.setattr(lp, "solve", counted_solve)
