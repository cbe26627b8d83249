"""Tests of the benchmark's own code: span arithmetic, rebinding, counters, gate.

Run from the repository root with the package on the path:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import sys

import numpy as np

import ccpkit
import ccpkit.alsox
import ccpkit.covering
import ccpkit.cvar
import ccpkit.lowerlevel
import ccpkit.oracle
import gate
from calibrate import REFERENCE_S
from layertrace import Span, Tracer, self_times, summarize
from run import time_metrics
from workloads import Case, Solve, _row_losses, solve_group


def tiny_instance():
    """The README's three rows xi'x <= b on the unit box, with one row allowed to fail."""
    xi = np.array([[[2.0, 1.0]], [[1.0, 3.0]], [[4.0, 1.0]]])
    b = np.array([[2.0], [2.5], [3.0]])
    inst = ccpkit.CcpInstance(
        n=2,
        scenario_count=3,
        probabilities=np.full(3, 1 / 3),
        constraints=ccpkit.BiAffine(xi, b),
        x_set=ccpkit.Box(np.zeros(2), np.ones(2)),
        cost=np.array([-1.0, -2.0]),
        epsilon=0.34,
    )
    return inst, _row_losses(xi, b)


def test_self_time_subtracts_nested_children_once():
    spans = [
        Span(0, "alsox.also_x", None, 0.0, 10.0),
        Span(1, "covering.quantile_lower_bound", 0, 1.0, 4.0),
        Span(2, "lp.solve_lp", 1, 1.5, 2.5),
        Span(3, "lp.solve_lp", 1, 3.0, 3.5),
        Span(4, "lowerlevel.solve_lower_level", 0, 5.0, 9.0),
        Span(5, "lp.solve_lp", 4, 5.0, 9.0),
    ]
    assert self_times(spans) == [3.0, 1.5, 1.0, 0.5, 0.0, 4.0]
    m = summarize(spans)
    assert m["self_s.lp"] == 5.5
    assert m["self_s.covering"] == 1.5
    assert m["self_s.alsox"] == 3.0
    assert m["lp.solves"] == 3


def test_counter_reader_time_is_charged_to_no_span():
    # the caller's span ran 10 s, of which 1 s went to reading its child's counters
    spans = [
        Span(0, "alsox.also_x", None, 0.0, 10.0, reader_s=1.0),
        Span(1, "lowerlevel.solve_lower_level", 0, 2.0, 5.0),
    ]
    assert spans[0].seconds == 9.0
    assert self_times(spans) == [6.0, 3.0]


def test_two_groups_give_the_same_per_group_counters_as_one():
    inst, _ = tiny_instance()
    one, two = Tracer(), Tracer()
    with one:
        ccpkit.also_x_plus(inst, backend="lp")
    for _ in range(2):
        with two:
            ccpkit.also_x_plus(inst, backend="lp")
    per_one, per_two = summarize(one.spans, 1), summarize(two.spans, 2)
    counts = [k for k in per_one if not k.endswith("_s") and not k.startswith("self_s.")]
    assert "lp.solves" in counts and "alsox.accept_ratio" in counts
    assert {k: per_two[k] for k in counts} == {k: per_one[k] for k in counts}
    assert per_one["lp.solves"] > 0


def test_every_rebinding_is_undone():
    originals = {
        (m.__name__, name): getattr(m, name)
        for m in (ccpkit, ccpkit.lowerlevel, ccpkit.covering, ccpkit.cvar, ccpkit.oracle, ccpkit.alsox)
        for name in ("solve_lp", "also_x", "cvar_solution", "solve_lower_level", "subset_min_cost")
        if hasattr(m, name)
    }
    with Tracer():
        assert ccpkit.lowerlevel.solve_lp is not originals[("ccpkit.lowerlevel", "solve_lp")]
        assert ccpkit.oracle.solve_lp is not originals[("ccpkit.oracle", "solve_lp")]
    for (mod, name), fn in originals.items():
        assert getattr(sys.modules[mod], name) is fn
    assert ccpkit.lowerlevel.solve_lp is ccpkit.lp.solve_lp


def test_counters_match_the_reports_on_a_tiny_instance():
    inst, _ = tiny_instance()
    plain = ccpkit.also_x(inst, backend="lp")
    anchor = ccpkit.cvar_solution(inst)
    with Tracer() as tr:
        traced = ccpkit.also_x(inst, backend="lp")
    assert traced.objective == plain.objective
    m = summarize(tr.spans)
    # N single-scenario LPs for the quantile bound, one tail LP, one hinge LP per probe
    assert m["covering.subset_solves"] == inst.scenario_count
    assert m["cvar.anchor_calls"] == 1
    assert m["alsox.probes"] == plain.iterations
    assert m["lp.solves"] == inst.scenario_count + 1 + plain.iterations
    tail = [s for s in tr.spans if s.name == "lp.solve_lp"
            and tr.spans[s.parent].name == "cvar.cvar_solution"]
    assert [s.attrs["pivots"] for s in tail] == [anchor.iterations]
    assert m["subgrad.solves"] == 0 and m["geometry.dykstra_calls"] == 0
    assert 0.0 < m["alsox.accept_ratio"] <= 1.0
    roots = [s for s in tr.spans if s.parent is None]
    assert [s.name for s in roots] == ["alsox.also_x"]


def test_gate_flags_a_perturbed_objective():
    inst, losses = tiny_instance()
    case = Case("tiny", inst, losses, True, {
        "cvar": lambda: ccpkit.cvar_solution(inst),
        "alsox": lambda: ccpkit.also_x(inst, backend="lp"),
    })
    solve_group([case])
    assert gate.case_problems(case) == {}
    ref = {s.method: s.objective for s in case.solves}
    assert gate.case_problems(case, ref) == {}
    moved = dict(ref, alsox=ref["alsox"] + 0.05)
    assert list(gate.case_problems(case, moved)) == ["alsox"]
    alsox = case.solves[1]
    case.solves[1] = Solve("alsox", alsox.seconds, alsox.objective - 0.5, alsox.x)
    assert "differs from c'x" in " ".join(gate.case_problems(case)["alsox"])
    case.solves[1] = Solve("alsox", alsox.seconds, error="NoFeasibleT: none")
    assert list(gate.case_problems(case)) == ["alsox"]


def test_gate_recounts_feasibility_independently():
    inst, losses = tiny_instance()
    case = Case("tiny", inst, losses, True, {})
    x = np.ones(2)              # violates every row
    case.solves.append(Solve("cvar", 0.0, float(inst.cost @ x), x))
    assert "violation mass" in " ".join(gate.case_problems(case)["cvar"])


def test_calibrated_solves_scale_to_reference_seconds():
    inst, losses = tiny_instance()
    case = Case("tiny", inst, losses, True, {"cvar": lambda: ccpkit.cvar_solution(inst)})
    solve_group([case], calibrate=True)
    assert case.solves[0].kernel_s > 0.0
    # a solve timed while the kernel ran at half the reference speed counts half
    case.solves = [Solve("cvar", 0.4, kernel_s=2 * REFERENCE_S), Solve("alsox", 0.6, kernel_s=REFERENCE_S)]
    setups = [(0.2, REFERENCE_S / 2), (0.3, 2 * REFERENCE_S), (0.1, REFERENCE_S)]
    m = time_metrics([[case]], setups, lambda sec, kernel_s: sec * REFERENCE_S / kernel_s)
    assert m["cvar_s"] == 0.2 and m["alsox_s"] == 0.6
    assert m["solves_per_s"] == 2 / 0.8
    assert m["setup_s"] == 0.15
