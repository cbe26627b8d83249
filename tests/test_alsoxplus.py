"""Rescue stage: tightening past the plain bisection value."""

import numpy as np
import pytest

import ccpkit.alsox
import ccpkit.lowerlevel
from ccpkit import (
    NoConvergence,
    ValidationError,
    am,
    also_x,
    also_x_plus,
    bounds_with_anchor,
    dc_solve,
    is_feasible,
    solve_lower_level,
    violation_probability,
    z_update,
)
from ccpkit.cli import generate_instance

from conftest import FINITE_DOCUMENTS, force_cold_lp, load_document, random_box_instance, report_key


def test_two_var_cover_reaches_true_optimum(two_var_cover):
    out = also_x_plus(two_var_cover, delta1=1e-3, delta2=1e-3)
    assert out.objective <= 0.5 + 2e-3
    assert out.objective >= 0.5 - 1e-7
    assert out.feasible
    assert is_feasible(two_var_cover, out.x_star)


def test_duplicated_row_rescue_beats_bisection(duplicated_row_cover):
    plain = also_x(duplicated_row_cover).objective
    out = also_x_plus(duplicated_row_cover)
    assert out.objective == pytest.approx(2.0078125, abs=1e-3)
    assert out.objective < plain - 0.9
    # lands exactly on the allowed miss mass
    assert violation_probability(duplicated_row_cover, out.x_star) == pytest.approx(
        duplicated_row_cover.epsilon
    )
    assert out.feasible


def test_never_worse_than_bisection(scalar_chain, binary_pair_cover):
    for inst in (scalar_chain, binary_pair_cover):
        assert also_x_plus(inst).objective <= also_x(inst).objective + 1e-2


def test_never_worse_on_random_instances():
    rng = np.random.default_rng(29)
    for _ in range(3):
        inst = random_box_instance(rng)
        plus = also_x_plus(inst, backend="lp")
        plain = also_x(inst, backend="lp")
        assert plus.objective <= plain.objective + 1e-2
        assert is_feasible(inst, plus.x_star)


def test_dc_rescue_variant(two_var_cover):
    out = also_x_plus(two_var_cover, rescue="dc")
    plain = also_x(two_var_cover)
    assert out.feasible
    assert out.objective <= plain.objective + 1e-2


@pytest.mark.parametrize("rounds", [0, -1, 1.5, "3"])
@pytest.mark.parametrize("rescue", ["am", "dc"])
def test_a_bad_round_budget_is_refused_before_the_bounds(monkeypatch, duplicated_row_cover,
                                                         rounds, rescue):
    # with no round am has no point to return, and the first rescue would fail inside numpy
    calls = []
    bound = ccpkit.alsox.quantile_lower_bound
    monkeypatch.setattr(ccpkit.alsox, "quantile_lower_bound",
                        lambda *args, **kwargs: calls.append(1) or bound(*args, **kwargs))
    with pytest.raises(ValidationError, match="max_rounds"):
        also_x_plus(duplicated_row_cover, backend="lp", rescue=rescue, max_rounds=rounds)
    assert calls == []


def test_an_unknown_rescue_is_refused_before_the_bounds(monkeypatch, duplicated_row_cover):
    calls = []
    bound = ccpkit.alsox.quantile_lower_bound
    monkeypatch.setattr(ccpkit.alsox, "quantile_lower_bound",
                        lambda *args, **kwargs: calls.append(1) or bound(*args, **kwargs))
    with pytest.raises(ValidationError, match="rescue"):
        also_x_plus(duplicated_row_cover, rescue="x")
    assert calls == []


@pytest.mark.parametrize("rounds", [0, -1, 1.5])
@pytest.mark.parametrize("solver", [lambda inst, **kw: am(inst, 3.0, backend="lp", **kw),
                                    lambda inst, **kw: dc_solve(inst, 3.0, **kw)],
                         ids=["am", "dc_solve"])
def test_the_rescues_refuse_a_bad_round_budget(duplicated_row_cover, rounds, solver):
    with pytest.raises(ValidationError, match="max_rounds"):
        solver(duplicated_row_cover, max_rounds=rounds)


def test_round_budget_smoke(two_var_cover):
    out = also_x_plus(two_var_cover, max_rounds=1)
    assert out.feasible
    assert is_feasible(two_var_cover, out.x_star)


@pytest.mark.parametrize("name", FINITE_DOCUMENTS)
def test_warm_probes_and_rescues_match_cold_ones(name, monkeypatch):
    inst = load_document(name)
    warm = report_key(also_x_plus, inst, backend="lp")
    force_cold_lp(monkeypatch)
    assert report_key(also_x_plus, inst, backend="lp") == warm


def test_warm_am_rounds_match_cold_ones(monkeypatch):
    inst = generate_instance("linear", 6, 30, 0.1, 1)
    t_low, t_up, _ = bounds_with_anchor(inst, backend="lp")
    t = t_low + 0.1 * (t_up - t_low)
    probe = solve_lower_level(inst, t, backend="lp")
    z0 = z_update(probe.s, inst.probabilities, inst.epsilon)
    warm = am(inst, t, z0=z0, delta2=1e-6, backend="lp", start=probe.start)
    force_cold_lp(monkeypatch)
    cold = am(inst, t, z0=z0, delta2=1e-6, backend="lp", start=probe.start)
    # the same rounds to rounding: a warm round may pivot to another optimal vertex
    assert warm.rounds == cold.rounds == 3
    assert warm.objective_trace == pytest.approx(cold.objective_trace, rel=1e-12, abs=1e-15)


def test_dc_counts_capped_projections_and_its_rescue_stays_in_x(two_var_cover, monkeypatch):
    # every projection "hits the sweep cap" at x = (-1, 1): outside the
    # orthant, yet it costs 0 and misses only the 1/3 mass of [2, 1]'x >= 1
    N = two_var_cover.scenario_count
    outside = np.concatenate([[-1.0, 1.0], np.zeros(N), np.ones(N)])
    calls = []

    def capped(pieces, u):
        calls.append(1)
        raise NoConvergence("sweep cap", best=outside.copy())

    monkeypatch.setattr(ccpkit.lowerlevel, "dykstra_project", capped)
    out = dc_solve(two_var_cover, 0.6, x0=np.zeros(2))
    assert out.capped == len(calls) >= 1
    assert out.x.tolist() == [-1.0, 1.0] and is_feasible(two_var_cover, out.x)
    plain = also_x(two_var_cover)
    calls.clear()
    rescued = also_x_plus(two_var_cover, rescue="dc")
    assert calls                      # the rescue ran, and its point was refused
    assert two_var_cover.x_set.contains(rescued.x_star)
    assert (rescued.objective, rescued.iterations) == (plain.objective, plain.iterations)
