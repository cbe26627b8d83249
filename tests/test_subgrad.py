"""Projected subgradient machinery: projectors, starts, descent."""

import numpy as np
import pytest

import ccpkit.subgrad
from ccpkit import (
    BadStart,
    BiAffine,
    Box,
    Constant,
    DrccpSpec,
    Harmonic,
    Intersection,
    LInf,
    NoConvergence,
    NonNegOrthant,
    SgdConfig,
    Simplex,
    feasible_start,
    robustify,
    scenario_losses,
    solve_hinge_sgd,
)
from ccpkit.cli import generate_instance
from ccpkit.subgrad import losses_and_grads, make_cap_projector

from conftest import equiprobable, make_two_var_cover, random_hinge_problem


def _row_cases():
    """(instance, mats, offsets, theta): the losses are max(mats x - offsets)
    plus theta ||x||_1, or max(1 - mats x) plus theta ||x||_1 for covering
    rows (offsets None)."""
    rng = np.random.default_rng(4)
    mats, offsets = rng.normal(size=(9, 3, 4)), rng.normal(size=(9, 3))
    multi = equiprobable(4, BiAffine(mats, offsets), Box(-np.ones(4), np.ones(4)), np.ones(4), 0.2)
    linear = generate_instance("linear", 5, 12, 0.1, 2)
    covering = generate_instance("covering", 5, 12, 0.1, 2)
    for base in (linear, covering, multi):
        model = base.constraints
        offsets = None if base is covering else model.offsets
        yield base, model.mats, offsets, 0.0
        yield robustify(DrccpSpec(base, 0.05, LInf())), model.mats, offsets, 0.05


def _independent_rows(mats, offsets, x):
    return mats @ x - offsets if offsets is not None else 1.0 - mats @ x


def _independent_losses(mats, offsets, theta, x):
    worst = np.max(_independent_rows(mats, offsets, x), axis=1)
    return worst + theta * np.sum(np.abs(x)) if theta else worst


def test_affine_row_losses_match_the_independent_formulas_bit_for_bit():
    # every affine model is evaluated through its one row form; on linear
    # and covering rows, and their sup-norm robust versions, that form
    # must give max(R x - r) and max(1 - A x) exactly
    rng = np.random.default_rng(11)
    for inst, mats, offsets, theta in _row_cases():
        block = rng.uniform(-1.0, 1.0, size=(6, inst.n))
        want = [_independent_losses(mats, offsets, theta, x) for x in block]
        assert np.array_equal(scenario_losses(inst, block), np.array(want))
        for x, losses in zip(block, want):
            assert np.array_equal(scenario_losses(inst, x), losses)
            vals, grads = losses_and_grads(inst, x)
            assert np.array_equal(vals, losses)
            j = np.argmax(_independent_rows(mats, offsets, x), axis=1)
            pick = mats[np.arange(inst.scenario_count), j]
            want_grads = pick if offsets is not None else -pick
            if theta:
                want_grads = want_grads + theta * np.sign(x)
            assert np.array_equal(grads, want_grads)


def test_step_rules():
    h = Harmonic(2.0)
    assert h.step(0) == pytest.approx(2.0)
    assert h.step(1) == pytest.approx(1.0)
    assert Constant(0.5).step(9) == pytest.approx(0.5)


def test_cap_projector_on_box_is_exact():
    # projection onto [0,1]^n with c'x <= t, probed against perturbations
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        cost = rng.normal(size=n)
        box = Box(np.zeros(n), np.ones(n))
        t_lo = float(np.minimum(cost, 0.0).sum())
        t_hi = float(np.maximum(cost, 0.0).sum())
        t = float(rng.uniform(t_lo, t_hi))
        proj = make_cap_projector(box, cost, t)
        y = rng.normal(scale=2.0, size=n)
        p = proj(y)
        assert np.all(p >= -1e-9) and np.all(p <= 1.0 + 1e-9)
        assert cost @ p <= t + 1e-7 * (1.0 + abs(t))
        base = np.linalg.norm(y - p)
        for _ in range(10):
            q = np.clip(p + rng.normal(scale=0.05, size=n), 0.0, 1.0)
            if cost @ q <= t:
                assert np.linalg.norm(y - q) >= base - 1e-7
        assert np.allclose(proj(p), p, atol=1e-8)


def test_cap_projector_unreachable_budget_raises():
    box = Box(np.ones(2), 2.0 * np.ones(2))
    proj = make_cap_projector(box, np.array([1.0, 1.0]), 1.0)
    with pytest.raises(BadStart):
        proj(np.array([1.5, 1.5]))


def test_cap_projector_orthant_corner():
    # c'x <= t with c >= 0 on the orthant: origin is always reachable
    proj = make_cap_projector(NonNegOrthant(2), np.array([1.0, 1.0]), 0.0)
    p = proj(np.array([3.0, 4.0]))
    assert np.allclose(p, [0.0, 0.0], atol=1e-9)


def test_cap_projector_simplex_uses_dykstra():
    proj = make_cap_projector(Simplex(2, 1.0), np.array([1.0, 0.0]), 0.25)
    p = proj(np.array([1.0, 0.0]))
    assert p.sum() == pytest.approx(1.0, abs=1e-6)
    assert p[0] <= 0.25 + 1e-6


def test_feasible_start_members():
    box = Box(np.zeros(3), np.ones(3))
    cost = np.array([1.0, 1.0, 1.0])
    x = feasible_start(box, cost, 1.5)
    assert np.all(x >= -1e-9) and np.all(x <= 1.0 + 1e-9)
    assert cost @ x <= 1.5 + 1e-9
    with pytest.raises(BadStart):
        feasible_start(Box(np.ones(2), np.ones(2)), np.array([1.0, 1.0]), 1.0)


def test_hinge_descent_reaches_known_floor():
    # on the budget face the two short rows leave total shortfall 1 - t
    inst = make_two_var_cover()
    z = np.ones(3)
    out = solve_hinge_sgd(inst, 0.5, z, None, SgdConfig(max_iter=4000))
    assert out.value == pytest.approx(0.5 / 3.0, abs=1e-4)
    assert out.iterations > 0


def test_descent_matches_across_configs():
    inst, t = random_hinge_problem(np.random.default_rng(11))
    z = np.ones(inst.scenario_count)
    a = solve_hinge_sgd(inst, t, z, None, SgdConfig(max_iter=3000))
    b = solve_hinge_sgd(inst, t, z, None, SgdConfig(max_iter=12000))
    assert b.value <= a.value + 1e-6


def test_boxes_with_an_empty_overlap_take_the_dykstra_path(monkeypatch):
    # their merged bounds cross (lo > hi), so no closed-form box projection
    # exists; both entry points must hand the two boxes to Dykstra
    calls = []

    def spy(sets, y, *args, **kwargs):
        calls.append(len(sets))
        raise NoConvergence("spy: no convergence", best=np.asarray(y, dtype=float))

    monkeypatch.setattr(ccpkit.subgrad, "dykstra_project", spy)
    apart = Intersection((Box(np.zeros(2), np.ones(2)), Box(np.full(2, 2.0), np.full(2, 3.0))))
    cost = np.array([1.0, 1.0])
    y = np.array([0.5, 2.5])
    assert np.array_equal(make_cap_projector(apart, cost, 4.0)(y), y)   # best iterate kept
    with pytest.raises(BadStart):
        feasible_start(apart, cost, 4.0)
    with pytest.raises(BadStart):
        feasible_start(apart, cost, np.inf)
    assert calls == [3, 3, 2]         # two boxes, plus the cap row when t is finite
