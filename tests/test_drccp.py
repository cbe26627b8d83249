"""Ambiguity-ball reductions and worst-case solves."""

import numpy as np
import pytest

from ccpkit import (
    BiAffine,
    BinaryTiny,
    Box,
    DrccpSpec,
    L2,
    LInf,
    ModeMismatch,
    NormAugmented,
    NormMismatch,
    SeparableConvexPower,
    ValidationError,
    also_x,
    exact_solve,
    is_feasible,
    robustify,
    scenario_losses,
    worst_case_solve,
)

from conftest import equiprobable, make_two_var_cover, random_box_instance


def test_spec_validation(two_var_cover):
    with pytest.raises(ValidationError):
        DrccpSpec(two_var_cover, -0.1, LInf())
    with pytest.raises(ValidationError):
        DrccpSpec(two_var_cover, 0.1, LInf(), mode="both")


def test_dual_reduction_wraps_rows(two_var_cover):
    out = robustify(DrccpSpec(two_var_cover, 0.2, L2()))
    model = out.constraints
    assert isinstance(model, NormAugmented)
    assert model.theta == pytest.approx(0.2)
    x = np.array([0.3, 0.4])
    base_losses = scenario_losses(two_var_cover, x)
    assert np.allclose(
        scenario_losses(out, x), base_losses + 0.2 * np.linalg.norm(x)
    )


def test_dual_reduction_rejects_power_rows():
    inst = equiprobable(
        2,
        SeparableConvexPower(2.0, np.ones((2, 2)), 3.0),
        Box(np.zeros(2), np.ones(2)),
        [1.0, 1.0],
        0.5,
    )
    with pytest.raises(ModeMismatch):
        robustify(DrccpSpec(inst, 0.1, L2()))


def test_shift_reduction_needs_sup_norm(two_var_cover):
    with pytest.raises(NormMismatch):
        robustify(DrccpSpec(two_var_cover, 0.1, L2(), mode="shift"))


def test_shift_matches_dual_on_nonnegative_domain():
    # over x >= 0 the sup-norm dual term theta |x|_1 equals the
    # componentwise data shift, so both reductions agree row by row
    inst = make_two_var_cover()
    theta = 0.15
    dual = robustify(DrccpSpec(inst, theta, LInf(), mode="dual"))
    shift = robustify(DrccpSpec(inst, theta, LInf(), mode="shift"))
    assert isinstance(shift.constraints, BiAffine)
    rng = np.random.default_rng(2)
    for _ in range(25):
        x = rng.uniform(0.0, 2.0, size=2)
        assert np.allclose(
            scenario_losses(dual, x), scenario_losses(shift, x), atol=1e-12
        )


def test_shift_reduction_guards_signed_domains():
    inst = random_box_instance(np.random.default_rng(19))
    signed = equiprobable(
        inst.n,
        inst.constraints,
        Box(-np.ones(inst.n), np.ones(inst.n)),
        inst.cost,
        inst.epsilon,
    )
    with pytest.raises(ModeMismatch):
        robustify(DrccpSpec(signed, 0.1, LInf(), mode="shift"))


def test_zero_radius_is_the_base_problem():
    inst = random_box_instance(np.random.default_rng(37))
    wc = worst_case_solve(DrccpSpec(inst, 0.0, LInf()), backend="lp")
    base = also_x(inst, backend="lp")
    assert wc.objective == pytest.approx(base.objective, abs=1e-6)


def test_radius_monotonicity():
    inst = make_two_var_cover()
    values = [
        worst_case_solve(DrccpSpec(inst, theta, LInf()), backend="lp").objective
        for theta in (0.0, 0.05, 0.1)
    ]
    assert values[0] <= values[1] + 1e-7
    assert values[1] <= values[2] + 1e-7


def test_worst_case_point_survives_row_perturbations():
    # the robust solution keeps covering after adversarial data moves
    inst = make_two_var_cover()
    theta = 0.1
    wc = worst_case_solve(DrccpSpec(inst, theta, LInf()), backend="lp")
    x = wc.x_star
    rng = np.random.default_rng(41)
    xi = np.array([[2.0, 3.0], [2.0, 1.0], [1.0, 2.0]])
    for _ in range(40):
        delta = rng.uniform(-theta, theta, size=xi.shape)
        moved = equiprobable(
            2,
            BiAffine(-(xi + delta)[:, None, :], np.full((3, 1), -1.0)),
            inst.x_set,
            inst.cost,
            inst.epsilon,
        )
        assert is_feasible(moved, x)


def test_worst_case_methods_keep_ordering():
    inst = random_box_instance(np.random.default_rng(43))
    spec = DrccpSpec(inst, 0.05, LInf())
    v_alsox = worst_case_solve(spec, method="alsox", backend="lp").objective
    v_cvar = worst_case_solve(spec, method="cvar", backend="lp").objective
    assert v_alsox <= v_cvar + 1e-2


def _binary_robust_rows():
    # four scenarios over {0,1}^2: a block of all 2**2 points is as tall as
    # the scenario count, so a norm lined up with the scenario axis broadcasts
    mats = np.array([[[2.0, 2.0]], [[-1.0, 1.0]], [[1.0, -2.0]], [[1.0, 1.0]]])
    offsets = np.array([[2.0], [0.0], [2.0], [2.0]])
    base = equiprobable(2, BiAffine(mats, offsets), BinaryTiny(2), [-1.0, -2.0], 0.25)
    return DrccpSpec(base, 0.3, L2())


def test_block_losses_add_each_points_own_norm():
    robust = robustify(_binary_robust_rows())
    for points in (np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
                   np.array([[0.0, 1.0], [1.0, 1.0]])):
        block = scenario_losses(robust, points)
        assert block.shape == (len(points), robust.scenario_count)
        for row, x in zip(block, points):
            assert np.array_equal(row, scenario_losses(robust, x))


def test_binary_worst_case_matches_per_point_scan():
    spec = _binary_robust_rows()
    robust = robustify(spec)
    points = [np.array(p, dtype=float) for p in ((0, 0), (0, 1), (1, 0), (1, 1))]
    losses = [scenario_losses(robust, x) for x in points]
    costs = [float(robust.cost @ x) for x in points]
    chance = min(c for c, x in zip(costs, points) if is_feasible(robust, x))
    # eps = 1/4 of four equal scenarios: the tail is the single worst loss
    tail = min(c for c, g in zip(costs, losses) if g.max() <= 1e-9)
    assert (chance, tail) == (-1.0, 0.0)
    assert exact_solve(robust).objective == chance
    assert worst_case_solve(spec, method="cvar").objective == tail
