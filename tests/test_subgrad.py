"""Projected subgradient machinery: projectors, starts, descent."""

import numpy as np
import pytest

import ccpkit.subgrad
from ccpkit import (
    L1,
    L2,
    BadStart,
    BiAffine,
    BiAffineEquality,
    Box,
    DrccpSpec,
    Halfspaces,
    Intersection,
    LInf,
    Mahalanobis,
    NoConvergence,
    NonNegOrthant,
    SeparableConvexPower,
    SgdConfig,
    Simplex,
    feasible_start,
    robustify,
    scenario_losses,
    solve_hinge_sgd,
)
from ccpkit.cli import generate_instance
from ccpkit.subgrad import make_cap_projector, solve_cvar_lower_sgd

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
            vals, grads = inst.constraints.losses_and_grads(x)
            assert np.array_equal(vals, losses)
            j = np.argmax(_independent_rows(mats, offsets, x), axis=1)
            pick = mats[np.arange(inst.scenario_count), j]
            want_grads = pick if offsets is not None else -pick
            if theta:
                want_grads = want_grads + theta * np.sign(x)
            assert np.array_equal(grads, want_grads)


def _model_cases():
    """One named (instance, low, high) per constraint model: points are drawn
    from [low, high]^n, which for the power model lies in its domain x >= 0."""
    rng = np.random.default_rng(5)
    signed = Box(-np.ones(4), np.ones(4))
    linear = generate_instance("linear", 4, 9, 0.2, 3)
    covering = generate_instance("covering", 4, 9, 0.2, 3)
    equality = equiprobable(4, BiAffineEquality(rng.normal(size=(9, 4)), rng.normal(size=9)),
                            signed, np.ones(4), 0.2)
    multi = equiprobable(4, BiAffine(rng.normal(size=(9, 3, 4)), rng.normal(size=(9, 3))),
                         signed, np.ones(4), 0.2)
    root = rng.normal(size=(4, 4))
    for name, base in (("linear", linear), ("covering", covering), ("equality", equality)):
        yield pytest.param(base, -1.0, 1.0, id=name)
    for norm in (L1(), L2(), LInf(), Mahalanobis(root @ root.T + np.eye(4))):
        robust = robustify(DrccpSpec(multi, 0.3, norm))
        yield pytest.param(robust, -1.0, 1.0, id=f"robust-{type(norm).__name__}")
        one_row = robustify(DrccpSpec(linear, 0.3, norm))
        yield pytest.param(one_row, -1.0, 1.0, id=f"robust-one-row-{type(norm).__name__}")
    for power in (1.0, 1.5, 3.0):
        model = SeparableConvexPower(power, rng.uniform(0.0, 2.0, size=(9, 4)), 1.5)
        inst = equiprobable(4, model, NonNegOrthant(4), np.ones(4), 0.2)
        yield pytest.param(inst, 0.0, 2.0, id=f"power-{power}")


@pytest.mark.parametrize("inst, low, high", _model_cases())
def test_every_model_answers_its_losses_and_subgradients_in_one_place(inst, low, high):
    # losses, losses_and_grads and scenario_losses agree bit for bit, a
    # block is its rows stacked, and each gradient supports its loss:
    # g_k(y) >= g_k(x) + grad_k(x)'(y - x) on pairs drawn from the domain.
    # One-row gradients are views of the rows that cannot be written, and
    # no write into any returned gradient reaches the rows
    model = inst.constraints
    before = None if model.rows is None else model.rows.R.copy()
    rng = np.random.default_rng(17)
    block = rng.uniform(low, high, size=(8, inst.n))
    rows = [model.losses(x) for x in block]
    assert np.array_equal(model.losses(block), np.array(rows))
    assert np.array_equal(scenario_losses(inst, block), np.array(rows))
    for x, losses in zip(block, rows):
        vals, grads = model.losses_and_grads(x)
        assert np.array_equal(vals, losses)
        assert np.array_equal(scenario_losses(inst, x), losses)
        assert grads.shape == (inst.scenario_count, inst.n)
        for y in rng.uniform(low, high, size=(5, inst.n)):
            support = vals + grads @ (y - x)
            assert np.all(model.losses(y) >= support - 1e-12 * (1.0 + np.abs(vals)))
        if before is not None and before.shape[1] == 1 and model.rows.theta == 0.0:
            assert np.shares_memory(grads, model.rows.R)
            with pytest.raises(ValueError):
                grads[0, 0] = 1.0
        else:
            grads[...] = np.nan     # the caller's own copy
    if before is not None:
        assert np.array_equal(model.rows.R, before)


def _linear_rows_over(x_set):
    base = generate_instance("linear", 4, 12, 0.1, 2)
    return equiprobable(4, base.constraints, x_set, base.cost, base.epsilon)


def test_sgd_counts_the_projections_cut_off_at_the_sweep_cap(monkeypatch):
    # the feasible start projects for real; every later projection raises
    # NoConvergence with a best point, and each one must be counted
    real = ccpkit.subgrad.dykstra_project
    calls = []

    def capped(sets, y, *args, **kwargs):
        calls.append(y)
        if len(calls) == 1:
            return real(sets, y, *args, **kwargs)
        raise NoConvergence("capped", best=np.clip(y, 0.0, 0.5))

    monkeypatch.setattr(ccpkit.subgrad, "dykstra_project", capped)
    inst = _linear_rows_over(
        Intersection((Halfspaces(np.ones((1, 4)), np.array([2.5])), Box(np.zeros(4), np.ones(4))))
    )
    cfg = SgdConfig(max_iter=40, stall_window=40)
    for solve in (lambda: solve_hinge_sgd(inst, -5.0, np.ones(12), None, cfg),
                  lambda: solve_cvar_lower_sgd(inst, -5.0, cfg)):
        calls.clear()
        out = solve()
        assert out.capped == len(calls) - 1 >= 1
    box = _linear_rows_over(Box(np.zeros(4), np.ones(4)))
    assert solve_hinge_sgd(box, -5.0, np.ones(12), None, cfg).capped == 0
    assert solve_cvar_lower_sgd(box, -5.0, cfg).capped == 0


def _cap_projection_by_bisection(y, lo, hi, c, t):
    """clip(y - lam c, lo, hi) at the least lam >= 0 with phi(lam) <= t, up
    to 1e-11 (1 + |t|), found by bisection on the multiplier lam: phi(lam)
    = c' clip(y - lam c, lo, hi) is nonincreasing."""
    def phi(lam):
        return float(c @ np.clip(y - lam * c, lo, hi))

    level = t + 1e-11 * (1.0 + abs(t))
    low, high = 0.0, 1.0
    if phi(low) <= level:
        return np.clip(y, lo, hi)
    while phi(high) > level:
        low, high = high, 2.0 * high
    for _ in range(100):
        mid = 0.5 * (low + high)
        low, high = (mid, high) if phi(mid) > level else (low, mid)
    return np.clip(y - high * c, lo, hi)


def _cap_cases(rng):
    """(lo, hi, c, t, y) for the box cap projector, one draw of each kind."""
    n = int(rng.integers(1, 7))
    c = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.2, 2.0, size=n)
    y = rng.normal(scale=2.0, size=n)
    zeros, ones = np.zeros(n), np.ones(n)
    corner = np.where(c > 0, zeros, ones)        # the minimum of c'x over [0, 1]^n
    t_min = float(c @ corner)
    yield "unit", zeros, ones, c, float(rng.uniform(t_min, float(np.maximum(c, 0.0).sum()))), y
    # each coordinate in [0, 1], [0, inf), (-inf, 1] or (-inf, inf)
    kind = rng.integers(0, 4, size=n)
    lo = np.where(kind >= 2, -np.inf, 0.0)
    hi = np.where(kind % 2 == 1, np.inf, 1.0)
    reach = float(c @ np.clip(y, lo, hi))
    cmin = float(np.sum(np.where(c > 0, c * lo, c * hi)))
    t = reach - float(rng.exponential(3.0)) if np.isinf(cmin) else float(rng.uniform(cmin, reach))
    yield "half-infinite", lo, hi, c, t, y
    zero = c * (rng.uniform(size=n) < 0.5)
    yield "zero costs", zeros, ones, zero, float(rng.uniform(float(np.minimum(zero, 0.0).sum()), 0.5)), y
    same = rng.uniform(size=n) < 0.6
    rep_c, rep_y = np.where(same, c[0], c), np.where(same, y[0], y)
    rep_min = float(np.minimum(rep_c, 0.0).sum())
    yield "repeated breakpoints", zeros, ones, rep_c, float(rng.uniform(rep_min, 0.0)), rep_y
    # t at the minimum itself, and a hair below it: phi is flat from the last
    # breakpoint on, and the walk runs past it
    yield "t at the minimum", zeros, ones, c, t_min, y
    yield "t below the minimum", zeros, ones, c, t_min - 1e-12, y


def test_cap_projector_on_box_is_exact(monkeypatch):
    # each projection onto {lo <= x <= hi, c'x <= t} equals bisection on
    # the multiplier within 1e-9 and beats feasible perturbations, with the
    # breakpoints walked all at once and one by one
    rng = np.random.default_rng(3)
    for draw in range(200):
        monkeypatch.setattr(ccpkit.subgrad, "_WALK_FLOATS", 2**16 if draw % 2 else 1)
        for kind, lo, hi, cost, t, y in _cap_cases(rng):
            n = cost.size
            p = make_cap_projector(Box(lo, hi), cost, t)(y)
            want = _cap_projection_by_bisection(y, lo, hi, cost, t)
            assert np.max(np.abs(p - want)) <= 1e-9, kind
            assert np.all(p >= lo - 1e-9) and np.all(p <= hi + 1e-9)
            assert cost @ p <= t + 1e-7 * (1.0 + abs(t))
            base = np.linalg.norm(y - p)
            for _ in range(10):
                q = np.clip(p + rng.normal(scale=0.05, size=n), lo, hi)
                if cost @ q <= t:
                    assert np.linalg.norm(y - q) >= base - 1e-7
            assert np.allclose(make_cap_projector(Box(lo, hi), cost, t)(p), p, atol=1e-8)


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
