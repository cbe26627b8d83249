"""Tail-average baseline: frozen optima and the budget bridge."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import ccpkit.cvar
from ccpkit import (
    BinaryTiny,
    CcpInstance,
    Covering,
    Infeasible,
    SgdConfig,
    also_x,
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


def _rows_with_nonnegative_counts(rng, N, counts, rows_each=48):
    """Rows with exactly c nonnegative losses for each c in counts, in
    random order: half of them real-valued, half small integers (ties, and
    zeros among the nonnegative ones)."""
    rows = []
    for c in counts:
        for r in range(rows_each):
            if r % 2:
                up, down = rng.uniform(0.0, 2.0, size=c), -rng.uniform(0.01, 2.0, size=N - c)
            else:
                up, down = rng.integers(0, 3, size=c), -rng.integers(1, 4, size=N - c)
            rows.append(rng.permutation(np.concatenate([up, down]).astype(float)))
    return np.array(rows)


@pytest.mark.parametrize("N", [1, 2, 3, 7, 10, 12, 14, 20])
def test_rows_around_the_skip_count_match_every_breakpoint_bit_for_bit(N):
    # rows with K = min(N, ceil(eps / min p) + 2) or more nonnegative losses
    # skip the sort; K - 1, K and K + 1 straddle that line
    rng = np.random.default_rng(N)
    grid = [k / N for k in range(1, N)]
    for p in (np.full(N, 1.0 / N), rng.dirichlet(np.full(N, 2.0))):
        for eps in grid + [0.05, 0.3, 0.77, float(rng.uniform(0.01, 0.99))]:
            K = min(N, math.ceil(eps / p.min()) + 2)
            counts = sorted({c for c in (K - 1, K, K + 1) if 0 <= c <= N})
            losses = _rows_with_nonnegative_counts(rng, N, counts)
            assert set(np.count_nonzero(losses >= 0.0, axis=1)) == set(counts)
            got = _tail_values(SimpleNamespace(probabilities=p, epsilon=eps), losses)
            want = _tail_values_at_every_breakpoint(p, eps, losses)
            assert got.tobytes() == want.tobytes(), (N, eps, K)


def _tail_at_every_breakpoint(instance, losses):
    return _tail_values_at_every_breakpoint(instance.probabilities, instance.epsilon, losses)


def test_zero_mass_scenarios_keep_the_binary_answers(monkeypatch):
    # the binary pair cover x1 >= 1, x2 >= 1 with a third, massless scenario
    # x1 + x2 >= 1: eps / min p is infinite
    inst = CcpInstance(
        n=2,
        scenario_count=3,
        probabilities=np.array([0.5, 0.5, 0.0]),
        constraints=Covering(np.array([[[1.0, 0.0]], [[0.0, 1.0]], [[1.0, 1.0]]])),
        x_set=BinaryTiny(2),
        cost=np.array([1.0, 2.0]),
        epsilon=1.0 / 3.0,
    )
    out = cvar_solution(inst)
    lower = [cvar_lower_value(inst, t) for t in (3.0, 2.5, 1.0)]
    assert out.objective == 3.0 and np.array_equal(out.x_star, [1.0, 1.0])
    assert lower[0] == 0.0 and lower[1] > 0.0
    monkeypatch.setattr(ccpkit.cvar, "_tail_values", _tail_at_every_breakpoint)
    assert out.objective.hex() == cvar_solution(inst).objective.hex()
    assert [v.hex() for v in lower] == [cvar_lower_value(inst, t).hex() for t in (3.0, 2.5, 1.0)]
    # a subnormal mass, where eps / min p would overflow
    p = np.array([0.5, 0.5, 5e-324])
    losses = np.random.default_rng(3).normal(size=(64, 3))
    got = _tail_values(SimpleNamespace(probabilities=p, epsilon=0.1), losses)
    assert got.tobytes() == _tail_values_at_every_breakpoint(p, 0.1, losses).tobytes()


def _binary_answers(inst):
    """float.hex of the objectives and the bytes of x of cvar_solution and
    also_x, and float.hex of cvar_lower_value at and below the CVaR optimum."""
    reports = [cvar_solution(inst), also_x(inst)]
    budgets = [reports[0].objective - d for d in (0.0, 1.0, 3.0)]
    return [(r.objective.hex(), r.x_star.tobytes()) for r in reports] + [
        cvar_lower_value(inst, t).hex() for t in budgets
    ]


@pytest.mark.parametrize("family", ["linear", "covering"])
@pytest.mark.parametrize("N", [20, 50])
def test_binary_answers_equal_the_every_breakpoint_scan(family, N, monkeypatch):
    cases = []
    for seed in range(1, 6):
        inst = replace(generate_instance(family, 10, N, 0.1, seed), x_set=BinaryTiny(10))
        weights = np.random.default_rng(seed).uniform(0.2, 1.0, size=N)
        cases += [inst, replace(inst, probabilities=weights / weights.sum())]
    got = [_binary_answers(inst) for inst in cases]
    monkeypatch.setattr(ccpkit.cvar, "_tail_values", _tail_at_every_breakpoint)
    assert got == [_binary_answers(inst) for inst in cases]
