"""The experiment scripts run end to end on a cell where a method fails."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_the_improvement_experiment_survives_a_method_that_fails():
    # the tail program is empty on this cell, so cvar_solution raises Infeasible
    run_cell = runpy.run_path(str(SCRIPTS / "run_improvement_experiment.py"))["run_cell"]
    row = run_cell("covering", 2, 5, 0.5, 1, 1e-2, 1e-2, "lp")
    assert row["cvar"] is None and row["errors"]["cvar"].startswith("Infeasible: ")
    assert row["alsox"] == pytest.approx(10.2573, abs=1e-4)
    assert row["alsoxplus"] == pytest.approx(10.2573, abs=1e-4)
    assert row["oracle"] == pytest.approx(10.25, abs=1e-9)
    assert row["improvement_alsox"] is None and row["improvement_alsoxplus"] is None
    assert row["gap_alsox"] == pytest.approx((row["alsox"] - 10.25) / 10.25 * 100.0)
