"""Covering approximations: relaxation, scaling, quantile bound."""

from dataclasses import replace

import numpy as np
import pytest

import ccpkit.covering
import ccpkit.lowerlevel
from ccpkit import (
    BiAffine,
    BinaryTiny,
    Box,
    DrccpSpec,
    Halfspaces,
    Infeasible,
    Intersection,
    L1,
    L2,
    LInf,
    NoConvergence,
    NonNegOrthant,
    SgdConfig,
    ValidationError,
    also_x,
    covering_relaxation,
    exact_solve,
    is_feasible,
    quantile_lower_bound,
    relax_and_scale,
    robustify,
    scenario_costs,
    solve_lp,
    subset_min_cost,
)
from ccpkit.cli import generate_instance
from ccpkit.covering import SubsetChain, _subset_lp

from conftest import FINITE_DOCUMENTS, equiprobable, load_document, random_box_instance


def test_quantile_bound_frozen_values(scalar_chain, two_var_cover, duplicated_row_cover):
    assert quantile_lower_bound(scalar_chain) == pytest.approx(2.0, abs=1e-6)
    assert quantile_lower_bound(two_var_cover) == pytest.approx(0.5, abs=1e-6)
    assert quantile_lower_bound(duplicated_row_cover) == pytest.approx(2.0, abs=1e-6)


def test_quantile_bound_is_a_lower_bound():
    rng = np.random.default_rng(31)
    for _ in range(4):
        inst = random_box_instance(rng)
        bound = quantile_lower_bound(inst)
        exact = exact_solve(inst)
        assert bound <= exact.objective + 1e-6


def test_relaxation_on_tight_family(tight_cover_family):
    rel = covering_relaxation(tight_cover_family)
    assert rel.value == pytest.approx(1.0, abs=1e-8)
    assert np.all(rel.s >= -1e-12) and np.all(rel.s <= 1.0 + 1e-12)
    # fractional budget: at most floor(N eps) = 2 units of miss mass
    assert rel.s.sum() <= 2.0 + 1e-9


def test_relaxation_rejects_non_covering(two_var_cover):
    with pytest.raises(ValidationError):
        covering_relaxation(two_var_cover)


def test_relax_and_scale_tight_family(tight_cover_family):
    rel = covering_relaxation(tight_cover_family)
    out = relax_and_scale(tight_cover_family)
    assert out.feasible
    assert is_feasible(tight_cover_family, out.x_star)
    assert out.objective <= 3.0 * rel.value + 1e-9
    assert quantile_lower_bound(tight_cover_family) == pytest.approx(1.0, abs=1e-6)


def test_relax_and_scale_generated_family():
    # the scaling guarantee needs a scale-invariant domain
    boxed = generate_instance("covering", n=6, count=12, epsilon=0.25, seed=4)
    inst = equiprobable(
        boxed.n, boxed.constraints, NonNegOrthant(boxed.n), boxed.cost, boxed.epsilon
    )
    rel = covering_relaxation(inst)
    out = relax_and_scale(inst)
    factor = int(np.floor(inst.scenario_count * inst.epsilon)) + 1
    assert out.feasible
    assert is_feasible(inst, out.x_star)
    assert out.objective <= factor * rel.value + 1e-9
    assert rel.value <= out.objective + 1e-9


def test_relax_and_scale_reports_clipped_failures():
    # on a box the scaled point can clip back out of coverage
    inst = generate_instance("covering", n=6, count=12, epsilon=0.25, seed=4)
    with pytest.raises(Infeasible):
        relax_and_scale(inst)


def test_power_model_subset_costs_by_bisection():
    # separable power rows have no LP form: every subset cost is a
    # feasibility run plus a budget bisection to within 1e-5
    inst = generate_instance("nonlinear", 2, 5, 0.2, 1)
    cfg = SgdConfig(max_iter=200, stall_window=200)
    value = -6.574798583984375          # frozen; the bound is tight on this instance
    assert quantile_lower_bound(inst, cfg) == pytest.approx(value, abs=1e-5)
    assert exact_solve(inst, sgd_config=cfg).objective == pytest.approx(value, abs=1e-5)


def test_rows_with_no_lp_form_take_the_subgradient_path(monkeypatch):
    # an L2 ball's dual norm has no LP form: the LP builders raise
    # BackendUnavailable and every subset cost is a subgradient search
    inst = robustify(DrccpSpec(generate_instance("linear", 2, 5, 0.2, 1), 0.05, L2()))
    cfg = SgdConfig(max_iter=200, stall_window=200)

    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was solved for rows with no LP form")

    searched = []
    sgd = ccpkit.covering._subset_min_cost_sgd
    monkeypatch.setattr(ccpkit.covering, "solve_lp", no_lp)
    monkeypatch.setattr(ccpkit.covering, "_subset_min_cost_sgd",
                        lambda *args: searched.append(1) or sgd(*args))
    bound = quantile_lower_bound(inst, cfg)
    assert len(searched) == inst.scenario_count
    out = exact_solve(inst, sgd_config=cfg)
    assert np.isfinite(bound)
    assert out.objective >= bound - 1e-5
    assert is_feasible(inst, out.x_star)


def test_a_spent_step_budget_is_not_read_as_an_unsatisfiable_scenario():
    # at 300 steps the feasibility phase of the first scenario still carries
    # hinge mass; that proves nothing, so the search reports NoConvergence
    # (the point reached on .best) instead of a cost of +inf
    inst = robustify(DrccpSpec(generate_instance("covering", 4, 12, 0.1, 3), 0.05, L2()))
    cfg = SgdConfig(max_iter=300, stall_window=300)
    with pytest.raises(NoConvergence, match="hinge mass") as info:
        scenario_costs(inst, cfg)
    x = info.value.best
    assert x.shape == (4,) and np.all((x >= 0.0) & (x <= 1.0))
    with pytest.raises(NoConvergence):     # not NoFeasibleT: the instance is feasible
        also_x(inst, sgd_config=cfg)


def _binary_cost_instances():
    base = generate_instance("linear", 6, 12, 0.2, 3)
    rows = base.constraints
    offsets = rows.offsets.copy()
    offsets[4] = -1e3                    # scenario 4 holds at no lattice point
    binary = replace(base, constraints=BiAffine(rows.mats, offsets), x_set=BinaryTiny(6))
    yield binary
    yield robustify(DrccpSpec(binary, 0.05, LInf()))
    cut = Halfspaces(np.array([[1.0, 1.0, 1.0, 0.0, 0.0, 0.0]]), np.array([2.0]))
    yield replace(binary, x_set=Intersection((BinaryTiny(6), cut)))
    covering = generate_instance("covering", 7, 9, 0.2, 5)
    yield replace(covering, x_set=BinaryTiny(7))


def test_one_lattice_pass_gives_each_single_scenario_cost_bit_for_bit():
    for inst in _binary_cost_instances():
        h = scenario_costs(inst)
        want = [subset_min_cost(inst, [k]) for k in range(inst.scenario_count)]
        assert h.tobytes() == np.array(want).tobytes()
    assert np.isinf(scenario_costs(next(_binary_cost_instances()))[4])


def test_each_scenario_column_keeps_the_scan_tie_rule():
    # x = (0, 1) comes before (1, 0) and costs one ulp more: the later point
    # is not lower by more than 1e-15, so the column keeps the earlier cost
    mats = np.array([
        [[-1.0, -1.0], [1.0, 1.0]],      # x1 + x2 = 1
        [[-1.0, 0.0], [0.0, 1.0]],       # x1 = 1, x2 = 0
        [[0.0, 0.0], [0.0, 0.0]],        # never holds
    ])
    offsets = np.array([[-1.0, 1.0], [-1.0, 0.0], [-1.0, -1.0]])
    inst = equiprobable(2, BiAffine(mats, offsets), BinaryTiny(2), [1.0, 1.0 + 2.0**-52], 0.34)
    h = scenario_costs(inst)
    assert h.tolist() == [1.0 + 2.0**-52, 1.0, np.inf]
    assert h.tolist() == [subset_min_cost(inst, [k]) for k in range(3)]
    pairs = ccpkit.lowerlevel.Lattice(inst).argmin(
        lambda costs, losses: np.where(losses <= 0.0, costs[:, None], np.inf))
    points = [None if pair is None else pair[1].tolist() for pair in pairs]
    assert points == [[0.0, 1.0], [1.0, 0.0], None]


def test_binary_quantile_bound_scores_each_lattice_block_once(monkeypatch):
    inst = replace(generate_instance("linear", 13, 6, 0.2, 2), x_set=BinaryTiny(13))
    want = quantile_lower_bound(inst)
    calls = []
    losses = ccpkit.lowerlevel.scenario_losses

    def spy(instance, x):
        calls.append(np.shape(x)[0])
        return losses(instance, x)

    monkeypatch.setattr(ccpkit.lowerlevel, "scenario_losses", spy)
    assert quantile_lower_bound(inst) == want
    assert calls == [4096, 4096]         # 2^13 points in two blocks, not once per scenario


def _several_rows_per_scenario():
    rng = np.random.default_rng(8)
    mats = rng.integers(-2, 5, size=(9, 3, 4)).astype(float)
    offsets = rng.uniform(1.0, 4.0, size=(9, 3))
    return equiprobable(4, BiAffine(mats, offsets), Box(np.zeros(4), np.ones(4)), -np.ones(4), 0.2)


def _sliced_cost_instances():
    """Instances whose single-scenario LPs differ in layout: the 1-norm
    ball's one aux column, a sup-norm ball's aux columns on a box that
    straddles 0, X with rows, several rows per scenario."""
    linear = generate_instance("linear", 4, 8, 0.25, 2)
    yield robustify(DrccpSpec(linear, 0.05, L1()))
    straddling = robustify(DrccpSpec(linear, 0.05, LInf()))
    yield replace(straddling, x_set=Box(-np.ones(4), np.ones(4)))
    cut = Halfspaces(np.array([[1.0, 1.0, 0.0, 0.0]]), np.array([1.5]))
    yield replace(linear, x_set=Intersection((Box(np.zeros(4), np.ones(4)), cut)))
    yield _several_rows_per_scenario()


def _cold_single_scenario_cost(inst, k):
    out = solve_lp(_subset_lp(inst, [k]))
    return {"optimal": out.value, "infeasible": np.inf, "unbounded": -np.inf}[out.status]


@pytest.mark.parametrize("inst", list(_sliced_cost_instances()))
def test_single_scenario_costs_are_row_slices_of_one_lp(inst):
    N = inst.scenario_count
    want = np.array([_cold_single_scenario_cost(inst, k) for k in range(N)])
    assert scenario_costs(inst).tobytes() == want.tobytes()
    chain = SubsetChain(inst)
    for keep in ([k] for k in range(N)):
        sliced, built = chain.compact(keep), _subset_lp(inst, keep)
        for name in ("c", "A", "b", "E", "f", "lo", "hi"):
            got, ref = getattr(sliced, name), getattr(built, name)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), name
    # a slice of several scenarios keeps them in the order asked for
    keep = [N - 1, 0, 2]
    assert chain.compact(keep).A.tobytes() == _subset_lp(inst, keep).A.tobytes()


@pytest.mark.parametrize("name", FINITE_DOCUMENTS)
def test_single_scenario_costs_match_unchained_solves_on_demo_documents(name):
    inst = load_document(name)
    want = [subset_min_cost(inst, [k]) for k in range(inst.scenario_count)]
    assert scenario_costs(inst).tobytes() == np.array(want, dtype=float).tobytes()


def test_scenario_costs_build_one_lp_for_all_scenarios(monkeypatch):
    inst = generate_instance("linear", 4, 20, 0.1, 1)
    builds = []
    build = ccpkit.covering._scenario_lp

    def spy(instance, keep=slice(None), **kwargs):
        builds.append(list(keep))
        return build(instance, keep, **kwargs)

    monkeypatch.setattr(ccpkit.covering, "_scenario_lp", spy)
    scenario_costs(inst)
    assert builds == [list(range(20))]


def _knapsack_min(c, a, b, lo, hi):
    """min c'x s.t. a'x <= b, lo <= x <= hi, in closed form: every
    coordinate at its cheaper bound (the one that lowers a'x when c_j = 0),
    then, while the row is violated, the coordinates whose move toward
    their other bound lowers a'x move in increasing order of |c_j| / |a_j|,
    each at most to that bound; +inf when the row never holds."""
    x = np.where((c > 0) | ((c == 0) & (a > 0)), lo, hi)
    assert np.isfinite(x).all()
    excess = a @ x - b
    if excess <= 0.0:
        return float(c @ x)
    movable = ((x == lo) & (a < 0)) | ((x == hi) & (a > 0))
    movable &= lo < hi
    value = float(c @ x)
    for j in sorted(np.flatnonzero(movable), key=lambda j: abs(c[j]) / abs(a[j])):
        step = min(excess / abs(a[j]), hi[j] - lo[j])
        value += abs(c[j]) * step
        excess -= abs(a[j]) * step
        if excess <= 1e-12 * (1.0 + abs(b)):
            return value
    return np.inf


def _one_row_cost_instances():
    for seed in (1, 2, 3):
        for family in ("linear", "covering"):
            yield generate_instance(family, 10, 45, 0.1, seed)
        # the lp-bisect benchmark's sup-norm robust case
        yield robustify(DrccpSpec(generate_instance("linear", 10, 45, 0.1, seed), 0.05, LInf()))


@pytest.mark.parametrize("inst", list(_one_row_cost_instances()))
def test_one_row_scenario_costs_match_a_closed_form_knapsack(inst):
    chain = SubsetChain(inst)
    want = []
    for k in range(inst.scenario_count):
        lp = chain.compact([k])
        assert lp.A.shape[0] == 1 and lp.E.shape[0] == 0   # one row, no equalities
        want.append(_knapsack_min(lp.c, lp.A[0], lp.b[0], lp.lo, lp.hi))
    got = scenario_costs(inst)
    for h, ref in zip(got, want):
        if ref == np.inf:
            assert h == np.inf
        else:
            assert abs(h - ref) <= 1e-12 * (1.0 + abs(ref))
