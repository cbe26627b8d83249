"""Tail-average baseline: frozen optima and the budget bridge."""

from types import SimpleNamespace

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
from ccpkit.cvar import _tail_values


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


def _tail_values_at_every_breakpoint(p, eps, losses):
    """The tail minimum as the earlier scan computed it: the expression at
    every loss (capped at 0) and at 0; the reference the sort must match."""
    betas = np.concatenate([np.minimum(losses, 0.0), np.zeros((losses.shape[0], 1))], axis=1)
    best = np.full(losses.shape[0], np.inf)
    for beta in betas.T:
        tail = beta + (1.0 / eps) * np.sum(p * np.maximum(losses - beta[:, None], 0.0), axis=1)
        best = np.minimum(best, tail)
    return best


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_sorted_tail_matches_every_breakpoint_bit_for_bit(scale):
    rng = np.random.default_rng(11)
    for trial in range(120):
        N = int(rng.integers(2, 40))
        p = np.full(N, 1.0 / N) if trial % 2 else rng.dirichlet(np.full(N, 0.7))
        # eps = k/N puts the (1-eps) quantile on a flat segment for uniform p
        eps = int(rng.integers(1, N)) / N if trial % 3 else float(rng.uniform(0.02, 0.98))
        if trial % 4 == 0:
            losses = rng.integers(-3, 3, size=(64, N)).astype(float)     # ties
        else:
            losses = rng.normal(size=(64, N)) - rng.uniform(0.0, 1.5)
            losses[:, rng.integers(N, size=N // 2)] = losses[:, rng.integers(N, size=N // 2)]
        losses *= scale
        got = _tail_values(SimpleNamespace(probabilities=p, epsilon=eps), losses)
        want = _tail_values_at_every_breakpoint(p, eps, losses)
        assert got.tobytes() == want.tobytes(), (trial, N, eps)
