"""Bisection scheme: frozen optima, exactness cases, failure modes."""

import numpy as np
import pytest

import ccpkit.alsox as alsox_module
from ccpkit import (
    BiAffine,
    Infeasible,
    NoFeasibleT,
    NonNegOrthant,
    also_x,
    also_x_plus,
    bounds_with_anchor,
    cvar_solution,
    exact_solve,
    is_feasible,
    violation_probability,
)

from conftest import equiprobable


def check_report(inst, out):
    assert out.feasible
    assert is_feasible(inst, out.x_star)
    assert violation_probability(inst, out.x_star) <= inst.epsilon + 1e-9
    assert out.objective == pytest.approx(float(inst.cost @ out.x_star), abs=1e-7)
    assert out.lower_bound_used <= out.t_star + 1e-9
    assert out.t_star <= out.upper_bound_used + 1e-9


def test_scalar_chain_lands_in_band(scalar_chain):
    out = also_x(scalar_chain)
    assert 2.0 - 1e-7 <= out.objective <= 2.0 + 1e-2
    check_report(scalar_chain, out)


def test_two_var_cover_matches_direct_value(two_var_cover):
    out = also_x(two_var_cover)
    assert out.objective == pytest.approx(2.0 / 3.0, abs=1e-2)
    check_report(two_var_cover, out)
    # scheme value sits strictly above the true optimum here
    assert exact_solve(two_var_cover).objective == pytest.approx(0.5)


def test_binary_enumeration_is_exact(binary_pair_cover):
    out = also_x(binary_pair_cover)
    assert out.objective == pytest.approx(1.0)
    assert np.allclose(out.x_star, [1.0, 0.0])
    check_report(binary_pair_cover, out)


def test_duplicated_row_sticks_to_conservative_face(duplicated_row_cover):
    out = also_x(duplicated_row_cover)
    assert out.objective == pytest.approx(3.0, abs=1e-2)
    check_report(duplicated_row_cover, out)


def test_equality_recovery(equality_pair):
    out = also_x(equality_pair)
    assert out.objective == pytest.approx(0.5, abs=1e-2)
    check_report(equality_pair, out)


def test_tight_family_hits_approximation_factor(tight_cover_family):
    out = also_x(tight_cover_family)
    assert out.objective == pytest.approx(3.0, abs=1e-2)
    check_report(tight_cover_family, out)


def test_clashing_rows_raise(split_direction_rows):
    with pytest.raises(NoFeasibleT):
        also_x(split_direction_rows)


def test_never_beats_tail_baseline(scalar_chain, two_var_cover, duplicated_row_cover):
    for inst in (scalar_chain, two_var_cover, duplicated_row_cover):
        assert also_x(inst).objective <= cvar_solution(inst).objective + 1e-2


def test_delta1_controls_band(scalar_chain):
    coarse = also_x(scalar_chain, delta1=1e-2).objective
    fine = also_x(scalar_chain, delta1=1e-3).objective
    assert abs(coarse - fine) <= 1e-2 + 1e-6
    assert 2.0 - 1e-7 <= fine <= 2.0 + 1e-3 + 1e-6


def test_anchor_brackets_the_answer(scalar_chain):
    t_low, t_up, incumbent = bounds_with_anchor(scalar_chain)
    assert t_low <= t_up + 1e-9
    assert is_feasible(scalar_chain, incumbent)
    assert float(scalar_chain.cost @ incumbent) <= t_up + 1e-7
    v = also_x(scalar_chain).objective
    assert t_low - 1e-9 <= v <= t_up + 1e-2


def make_unbounded_quantile_rows():
    # x1 <= 1 (scenarios 1-2) and x2 <= 1 (scenarios 3-4) over the orthant:
    # each scenario alone leaves the cost unbounded, so the quantile bound is -inf
    mats = np.array([[[1.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]], [[0.0, 1.0]]])
    return equiprobable(2, BiAffine(mats, np.ones((4, 1))), NonNegOrthant(2), [-1.0, -2.0], 0.25)


@pytest.mark.parametrize("method", [also_x, also_x_plus])
def test_down_march_below_an_unbounded_quantile(method):
    inst = make_unbounded_quantile_rows()
    out = method(inst, backend="lp")
    assert out.objective == -3.0
    assert out.iterations == 10
    assert out.lower_bound_used == -6.0
    check_report(inst, out)
    assert exact_solve(inst).objective == -3.0


def test_anchor_search_probes_with_the_callers_backend(monkeypatch):
    # x >= 1 in one scenario, x <= 0 in two: the tail program is empty, but
    # dropping the first scenario leaves x = 0 chance-feasible
    rows = BiAffine(np.array([[[-1.0]], [[1.0]], [[1.0]]]), np.array([[-1.0], [0.0], [0.0]]))
    inst = equiprobable(1, rows, NonNegOrthant(1), [1.0], 1.0 / 3.0)
    with pytest.raises(Infeasible):
        cvar_solution(inst)
    seen = []
    real = alsox_module.solve_lower_level

    def spy(*args, **kwargs):
        seen.append(kwargs["backend"])
        return real(*args, **kwargs)

    monkeypatch.setattr(alsox_module, "solve_lower_level", spy)
    out = also_x(inst, backend="lp")
    assert seen and set(seen) == {"lp"}
    assert out.objective == pytest.approx(0.0)
    check_report(inst, out)
