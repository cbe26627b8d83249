"""Model layer: constructors, losses, norms, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccpkit import (
    BiAffine,
    BiAffineEquality,
    BinaryTiny,
    Box,
    CcpInstance,
    Covering,
    L1,
    L2,
    LInf,
    Mahalanobis,
    NonNegOrthant,
    NormAugmented,
    ParseError,
    SeparableConvexPower,
    Simplex,
    ValidationError,
    dump_instance,
    is_feasible,
    load_instance,
    scenario_losses,
    violation_probability,
)
from ccpkit.model import norm_from_tag, norm_to_tag

from conftest import equiprobable, load_document, make_two_var_cover


def test_biaffine_losses_take_row_maximum():
    mats = np.array([[[1.0, 0.0], [0.0, 2.0]]])
    offsets = np.array([[0.5, 1.0]])
    inst = equiprobable(2, BiAffine(mats, offsets), NonNegOrthant(2), [1.0, 1.0], 0.5)
    losses = scenario_losses(inst, np.array([1.0, 1.0]))
    assert losses.shape == (1,)
    assert losses[0] == pytest.approx(max(1.0 - 0.5, 2.0 - 1.0))


def test_equality_losses_are_absolute_residuals(equality_pair):
    x = np.array([0.5, 0.0])
    losses = scenario_losses(equality_pair, x)
    assert np.allclose(losses, np.abs(np.array([0.0, 0.0, -0.5])))


def test_covering_losses_measure_shortfall():
    mats = np.array([[[2.0, 0.0]], [[1.0, 1.0]]])
    inst = equiprobable(2, Covering(mats), NonNegOrthant(2), [1.0, 1.0], 0.5)
    losses = scenario_losses(inst, np.array([0.25, 0.0]))
    assert np.allclose(losses, [0.5, 0.75])


def test_power_losses():
    weights = np.array([[1.0, 2.0]])
    inst = equiprobable(
        2, SeparableConvexPower(2.0, weights, 3.0), NonNegOrthant(2), [1.0, 1.0], 0.5
    )
    losses = scenario_losses(inst, np.array([1.0, 1.0]))
    assert losses[0] == pytest.approx(1.0 + 2.0 - 3.0)


def test_norm_augmented_adds_dual_norm_term():
    base = BiAffine(np.array([[[1.0, 0.0]]]), np.array([[0.0]]))
    aug = NormAugmented(base.mats, base.offsets, theta=0.5, norm=LInf())
    inst = equiprobable(2, aug, NonNegOrthant(2), [1.0, 1.0], 0.5)
    x = np.array([2.0, 3.0])
    # theta * |x|_1 is the dual of the sup norm
    assert scenario_losses(inst, x)[0] == pytest.approx(2.0 + 0.5 * 5.0)


def test_violation_probability_counts_strict_exceedances(two_var_cover):
    x = np.array([0.0, 0.5])
    assert violation_probability(two_var_cover, x) == pytest.approx(1.0 / 3.0)
    assert is_feasible(two_var_cover, x)


def test_tie_at_epsilon_is_feasible(duplicated_row_cover):
    x = np.array([0.0, 1.0])
    assert violation_probability(duplicated_row_cover, x) == pytest.approx(1.0 / 3.0)
    assert is_feasible(duplicated_row_cover, x)
    assert not is_feasible(duplicated_row_cover, np.array([0.0, 0.0]))


@pytest.mark.parametrize(
    "spec,y,expected",
    [
        (L1(), np.array([1.0, -2.0]), 2.0),
        (LInf(), np.array([1.0, -2.0]), 3.0),
        (L2(), np.array([3.0, 4.0]), 5.0),
        (Mahalanobis(np.diag([4.0, 1.0])), np.array([1.0, 1.0]), np.sqrt(5.0)),
    ],
)
def test_dual_norm_values(spec, y, expected):
    assert spec.dual(y) == pytest.approx(expected)


@pytest.mark.parametrize(
    "spec", [L1(), L2(), LInf(), Mahalanobis(np.diag([4.0, 1.0]))]
)
def test_dual_norm_subgradient_attains_value(spec):
    rng = np.random.default_rng(7)
    for _ in range(20):
        y = rng.normal(size=2)
        g = spec.dual_subgradient(y)
        assert float(y @ g) == pytest.approx(spec.dual(y), abs=1e-10)


@given(
    y=st.lists(st.floats(-10, 10), min_size=3, max_size=3),
    z=st.lists(st.floats(-10, 10), min_size=3, max_size=3),
    scale=st.floats(0, 5),
)
@settings(max_examples=60, deadline=None)
def test_dual_norm_is_a_norm(y, z, scale):
    y = np.asarray(y)
    z = np.asarray(z)
    for spec in (L1(), L2(), LInf()):
        assert spec.dual(scale * y) == pytest.approx(scale * spec.dual(y), abs=1e-8)
        assert spec.dual(y + z) <= spec.dual(y) + spec.dual(z) + 1e-8


def test_norm_tags_round_trip():
    sigma = np.diag([2.0, 3.0])
    for spec in (L1(), L2(), LInf(), Mahalanobis(sigma)):
        tag = norm_to_tag(spec)
        back = norm_from_tag(tag, sigma=sigma if tag == "mahalanobis" else None)
        assert type(back) is type(spec)


def test_instance_validation_rejects_bad_probabilities():
    inst = make_two_var_cover()
    with pytest.raises(ValidationError):
        CcpInstance(
            n=2,
            scenario_count=3,
            probabilities=np.array([0.5, 0.5, 0.5]),
            constraints=inst.constraints,
            x_set=inst.x_set,
            cost=inst.cost,
            epsilon=inst.epsilon,
        )


def test_instance_validation_rejects_epsilon_bounds():
    inst = make_two_var_cover()
    for eps in (0.0, 1.0, -0.1):
        with pytest.raises(ValidationError):
            CcpInstance(
                n=2,
                scenario_count=3,
                probabilities=inst.probabilities,
                constraints=inst.constraints,
                x_set=inst.x_set,
                cost=inst.cost,
                epsilon=eps,
            )


def test_covering_rejects_negative_entries():
    with pytest.raises(ValidationError):
        Covering(np.array([[[-1.0, 2.0]]]))


def test_equality_rejects_mismatched_counts():
    with pytest.raises(ValidationError):
        BiAffineEquality(np.ones((3, 2)), np.ones(2))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Covering(np.zeros((3, 0, 2))),
        lambda: BiAffine(np.zeros((3, 0, 2)), np.zeros((3, 0))),
        lambda: NormAugmented(np.zeros((3, 0, 2)), np.zeros((3, 0)), 0.1, LInf()),
    ],
    ids=["covering", "biaffine", "norm_augmented"],
)
def test_zero_row_models_are_rejected(make):
    # a scenario with no row has no maximum to take: a typed error at
    # construction, not a numpy error at the first evaluation
    with pytest.raises(ValidationError):
        make()


def test_serialization_round_trip(finite_instances):
    for name, inst in finite_instances.items():
        text = dump_instance(inst)
        back = load_instance(text)
        assert back.n == inst.n, name
        assert back.scenario_count == inst.scenario_count, name
        assert back.epsilon == pytest.approx(inst.epsilon), name
        assert np.allclose(back.cost, inst.cost), name
        x = np.zeros(inst.n)
        assert np.allclose(scenario_losses(back, x), scenario_losses(inst, x)), name
        assert dump_instance(back) == text, name


def test_load_instance_rejects_junk():
    with pytest.raises(ParseError):
        load_instance("not json at all {")


def _document(name, **changes):
    doc = json.loads(dump_instance(load_document(name)))
    for key, value in changes.items():
        if key == "dim":
            doc["x_set"][key] = value
        else:
            doc[key] = value
    return json.dumps(doc)


@pytest.mark.parametrize(
    "name,changes",
    [
        ("two_var_cover", {"cost": ["a", "b"]}),
        ("two_var_cover", {"cost": [True, False]}),
        ("two_var_cover", {"cost": [[1.0], 1.0]}),
        ("two_var_cover", {"probabilities": ["0.5", "0.25", "0.25"]}),
        ("two_var_cover", {"epsilon": "x"}),
        ("two_var_cover", {"n": 2.7}),
        ("two_var_cover", {"n": "2"}),
        ("scalar_chain", {"n": True}),
        ("two_var_cover", {"dim": 2.5}),
        ("scalar_chain", {"dim": True}),
    ],
    ids=[
        "cost-strings",
        "cost-booleans",
        "cost-ragged",
        "probabilities-strings",
        "epsilon-string",
        "n-fraction",
        "n-string",
        "n-boolean",
        "dim-fraction",
        "dim-boolean",
    ],
)
def test_non_numeric_and_non_integral_values_are_validation_errors(name, changes):
    with pytest.raises(ValidationError):
        load_instance(_document(name, **changes))


@pytest.mark.parametrize(
    "lower,upper",
    [
        (["a"], ["b"]),
        ([0.0], [[1.0], 2.0]),
        ([False], [True]),
        ([np.inf, 0.0], [np.inf, 1.0]),
        ([-np.inf, 0.0], [-np.inf, 1.0]),
    ],
    ids=["strings", "ragged", "booleans", "lower_plus_inf", "upper_minus_inf"],
)
def test_box_rejects_non_numeric_bounds(lower, upper):
    with pytest.raises(ValidationError):
        Box(lower, upper)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Simplex(True, 1.0),
        lambda: Simplex(2, "1"),
        lambda: BinaryTiny(1.5),
        lambda: NonNegOrthant(True),
        lambda: SeparableConvexPower("2", np.ones((1, 1)), 1.0),
        lambda: NormAugmented(np.ones((1, 1, 1)), np.ones((1, 1)), "0.1", LInf()),
    ],
    ids=["simplex-dim", "simplex-total", "binary-dim", "orthant-dim", "power", "theta"],
)
def test_set_and_model_scalars_are_checked(make):
    with pytest.raises(ValidationError):
        make()


@given(
    seed=st.integers(0, 10_000),
)
@settings(max_examples=30, deadline=None)
def test_random_instance_round_trip(seed):
    from conftest import random_box_instance

    inst = random_box_instance(np.random.default_rng(seed))
    back = load_instance(dump_instance(inst))
    x = np.full(inst.n, 0.5)
    assert np.allclose(scenario_losses(back, x), scenario_losses(inst, x))
    assert isinstance(back.x_set, Box)
