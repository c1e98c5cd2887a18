"""Suite-wide fixtures.

Every tier-1 test runs under a per-solve pivot budget. The most pivots one
solve in this suite takes is 159, so a solver that cycles, as Bland's rule
with a wrong tie-break can, fails the test at once instead of hanging the
suite.
"""

import pytest

from vsparse import lp

PIVOT_BUDGET = 500


class PivotBudgetExceeded(RuntimeError):
    pass


@pytest.fixture(autouse=True)
def pivot_budget(monkeypatch):
    pivot = lp._Tableau.pivot

    def counted(self, pr, pc):
        # one _Tableau per lp.solve, so the count is per solve
        self.pivots_taken = getattr(self, "pivots_taken", 0) + 1
        if self.pivots_taken > PIVOT_BUDGET:
            raise PivotBudgetExceeded(f"one solve took more than {PIVOT_BUDGET} pivots")
        pivot(self, pr, pc)

    monkeypatch.setattr(lp._Tableau, "pivot", counted)
