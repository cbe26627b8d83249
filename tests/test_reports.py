"""Every SolveReport is recounted at its returned point."""

import argparse
import json

import pytest

from ccpkit import (
    CcpError,
    also_x,
    also_x_plus,
    conic_margin,
    cvar_solution,
    exact_solve,
    gaussian_violation,
    is_feasible,
    load_elliptical,
    relax_and_scale,
    violation_probability,
)
from ccpkit.cli import _prepare, _run_method

from conftest import FINITE_DOCUMENTS, INSTANCES, load_document

FINITE_METHODS = {
    "alsox-auto": lambda inst: also_x(inst),
    "alsox-lp": lambda inst: also_x(inst, backend="lp"),
    "alsoxplus-auto": lambda inst: also_x_plus(inst),
    "alsoxplus-lp": lambda inst: also_x_plus(inst, backend="lp"),
    "dc-auto": lambda inst: also_x_plus(inst, rescue="dc"),
    "dc-lp": lambda inst: also_x_plus(inst, backend="lp", rescue="dc"),
    "cvar": lambda inst: cvar_solution(inst),
    "oracle": lambda inst: exact_solve(inst),
    "relax_and_scale": lambda inst: relax_and_scale(inst),
}
# the methods whose objective is their solver's value, not c'x_star
OWN_VALUE = {"cvar", "oracle"}
COVERING_DOCUMENTS = {
    name for name in FINITE_DOCUMENTS
    if json.loads((INSTANCES / f"{name}.json").read_text())["constraints"]["type"] == "covering"
}
CASES = [
    (name, method) for name in FINITE_DOCUMENTS for method in sorted(FINITE_METHODS)
    if method != "relax_and_scale" or name in COVERING_DOCUMENTS
]
GAUSSIAN_DOCUMENTS = sorted(
    p.stem for p in INSTANCES.glob("*.json")
    if json.loads(p.read_text()).get("type") == "elliptical_gaussian"
)


@pytest.mark.parametrize("name,method", CASES)
def test_a_finite_report_is_recounted_at_x_star(name, method):
    inst = load_document(name)
    try:
        out = FINITE_METHODS[method](inst)
    except CcpError as exc:
        pytest.skip(f"{type(exc).__name__}: {exc}")
    assert out.feasible is is_feasible(inst, out.x_star)
    assert out.violation_prob == violation_probability(inst, out.x_star)
    if method in OWN_VALUE:
        assert out.objective == out.t_star == out.lower_bound_used == out.upper_bound_used
        assert out.objective == pytest.approx(float(inst.cost @ out.x_star), abs=1e-6)
    else:
        assert out.objective == float(inst.cost @ out.x_star)


@pytest.mark.parametrize("method", ["alsox", "oracle"])
@pytest.mark.parametrize("theta", [None, 0.1])
@pytest.mark.parametrize("name", GAUSSIAN_DOCUMENTS)
def test_a_gaussian_report_is_recounted_at_x_star(name, theta, method):
    args = argparse.Namespace(delta1=1e-2, theta=theta, norm=None)
    ec = _prepare(load_elliptical((INSTANCES / f"{name}.json").read_text()), args)
    out = _run_method(ec, method, args)
    assert out.feasible is True and conic_margin(ec, out.x_star) >= 0.0
    assert out.violation_prob == gaussian_violation(ec, out.x_star)
    if method == "oracle":
        assert out.objective == out.t_star == out.lower_bound_used == out.upper_bound_used
    else:
        assert out.objective == float(ec.cost @ out.x_star)
