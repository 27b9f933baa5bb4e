"""End-to-end acceptance suite.

Each criterion prints one pass/fail line; run with `pytest -s` (or see the
captured output on failure) to read them.
"""

import gc
import re
import warnings
from dataclasses import replace

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
    """Each criterion passes, and closes every file it opens."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        result = criterion()
        gc.collect()
    print(result.line())
    assert result.passed, result.line()
    leaks = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks, leaks


@pytest.mark.parametrize("drx_cm, diff, stock_only, rest", [
    pytest.param(4, -4.9, True, "mirror defect 0.0e+00", id="stock-cell"),
    pytest.param(0, -3.2, False, "mirror defect inf", id="staircase-cell"),
])
def test_criterion_6_counts_a_failed_cell(monkeypatch, drx_cm, diff, stock_only, rest):
    """A spiral cell that does not converge makes criterion 6 FAIL with the
    count it measured, instead of aborting.  A failed cell at dr_x = 0 also
    takes the staircase and, failing on the symmetrized vehicle too, the
    mirror check with it."""
    params, model = validation.load_bundled()
    monkeypatch.setattr(validation, "load_bundled", lambda: (params, model))
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


def test_criterion_2_reads_the_buoyancy_from_the_vehicle(monkeypatch):
    """The lift share of criterion 2 is taken against the vehicle's own
    buoyancy: a vehicle with twice the buoyancy reports the share of the
    same aero lift against it."""
    params, model = validation.load_bundled()
    heavy = replace(params, B=2.0 * params.B)
    monkeypatch.setattr(validation, "load_bundled", lambda: (heavy, model))
    detail = validation.criterion_2().detail
    lift_gf = float(re.search(r"aero lift ([0-9.]+) gf", detail).group(1))
    share = float(re.search(r"share ([0-9.]+)%", detail).group(1))
    assert abs(share - 100.0 * lift_gf / (heavy.B / GF_TO_N + lift_gf)) < 0.01
    assert share < 4.0  # about half the stock 6.7 %
