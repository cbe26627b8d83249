"""Tail-average baseline: frozen optima and the budget bridge."""

import numpy as np
import pytest

from ccpkit import (
    Infeasible,
    SgdConfig,
    cvar_lower_value,
    cvar_solution,
    is_feasible,
    scenario_losses,
)
from ccpkit.cli import generate_instance


def test_scalar_chain_value(scalar_chain):
    out = cvar_solution(scalar_chain)
    assert out.objective == pytest.approx(8.0 / 3.0, abs=1e-6)
    assert out.feasible
    assert is_feasible(scalar_chain, out.x_star)


def test_two_var_cover_value(two_var_cover):
    out = cvar_solution(two_var_cover)
    assert out.objective == pytest.approx(2.0 / 3.0, abs=1e-4)
    assert is_feasible(two_var_cover, out.x_star)


def test_binary_pair_needs_full_cover(binary_pair_cover):
    out = cvar_solution(binary_pair_cover)
    assert out.objective == pytest.approx(3.0)
    assert np.allclose(out.x_star, [1.0, 1.0])


def test_duplicated_row_conservatism(duplicated_row_cover):
    out = cvar_solution(duplicated_row_cover)
    assert out.objective == pytest.approx(3.0, abs=1e-4)
    assert np.allclose(out.x_star, [1.0, 0.0], atol=1e-3)


def test_clashing_rows_are_infeasible(split_direction_rows):
    with pytest.raises(Infeasible):
        cvar_solution(split_direction_rows)


def test_equality_tail_is_infeasible(equality_pair):
    with pytest.raises(Infeasible):
        cvar_solution(equality_pair)


def test_budget_bridge(scalar_chain):
    v = cvar_solution(scalar_chain).objective
    assert cvar_lower_value(scalar_chain, v + 1e-6) <= 1e-6
    assert cvar_lower_value(scalar_chain, v - 0.1) > 1e-4
    grid = np.linspace(v - 0.5, v + 0.5, 7)
    vals = [cvar_lower_value(scalar_chain, float(t)) for t in grid]
    assert all(a >= b - 1e-8 for a, b in zip(vals, vals[1:]))
    assert all(val >= 0.0 for val in vals)


def test_binary_bridge(binary_pair_cover):
    v = cvar_solution(binary_pair_cover).objective
    assert cvar_lower_value(binary_pair_cover, v) <= 1e-9
    assert cvar_lower_value(binary_pair_cover, v - 0.5) > 0.0


def test_subgradient_bisection_is_conservative():
    inst = generate_instance("linear", 2, 5, 0.2, 1)
    out = cvar_solution(inst, backend="sgd", sgd_config=SgdConfig(max_iter=300, stall_window=300))
    assert out.objective >= cvar_solution(inst, backend="lp").objective - 1e-9
    # tail condition at the point, by its breakpoints: probes accept a
    # lower-level value eps * tail of at most 1e-6
    losses = scenario_losses(inst, out.x_star)
    p, eps = inst.probabilities, inst.epsilon
    betas = np.append(np.minimum(losses, 0.0), 0.0)
    tail = min(b + p @ np.maximum(losses - b, 0.0) / eps for b in betas)
    assert tail <= 1e-6 / eps
    assert is_feasible(inst, out.x_star)
