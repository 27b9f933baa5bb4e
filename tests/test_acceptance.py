"""End-to-end acceptance suite.

Each criterion prints one pass/fail line; run with `pytest -s` (or see the
captured output on failure) to read them.
"""

import pytest

from blimpdyn import validation
from blimpdyn.equilibria import NoConvergence
from blimpdyn.frames import GF_TO_N


@pytest.mark.parametrize(
    "criterion",
    validation.ALL_CRITERIA,
    ids=[f"criterion_{k + 1}" for k in range(len(validation.ALL_CRITERIA))],
)
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.line()


@pytest.mark.parametrize("drx_cm, diff, stock_only, rest", [
    pytest.param(4, -4.9, True, "mirror defect 0.0e+00", id="stock-cell"),
    pytest.param(0, -3.2, False, "mirror defect inf", id="staircase-cell"),
])
def test_criterion_6_counts_a_failed_cell(monkeypatch, drx_cm, diff, stock_only, rest):
    """A spiral cell that does not converge makes criterion 6 FAIL with the
    count it measured, instead of aborting.  A failed cell at dr_x = 0 also
    takes the staircase and, failing on the symmetrized vehicle too, the
    mirror check with it."""
    params, model = validation._bundle()
    monkeypatch.setattr(validation, "_bundle", lambda: (params, model))
    bad_cell = (drx_cm * 1e-2, 0.5 * (7.0 + diff) * GF_TO_N, 0.5 * (7.0 - diff) * GF_TO_N)
    solve = validation.solve_spiral

    def failing(dr_x, Fl, Fr, p, m):
        if (p is params or not stock_only) and (dr_x, Fl, Fr) == bad_cell:
            raise NoConvergence("forced failure")
        return solve(dr_x, Fl, Fr, p, m)

    monkeypatch.setattr(validation, "solve_spiral", failing)
    result = validation.criterion_6()
    assert not result.passed
    assert result.detail.startswith("35/36 converged")
    assert rest in result.detail
    assert ("staircase radius error inf%" in result.detail) == (drx_cm == 0)
