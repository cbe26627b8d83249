"""Scenario-branching oracle, subset solves, nullspace verdicts."""

from dataclasses import replace

import numpy as np
import pytest

import ccpkit.covering
import ccpkit.oracle
from ccpkit import (
    BiAffine,
    BiAffineEquality,
    Box,
    CapExceeded,
    DrccpSpec,
    LInf,
    LpProblem,
    NonFinite,
    NonNegOrthant,
    SubsetChain,
    ValidationError,
    also_x,
    check_nullspace_property,
    cvar_solution,
    exact_solve,
    exact_solve_binary,
    is_feasible,
    robustify,
    subset_min_cost,
    violation_probability,
)

from ccpkit.cli import generate_instance
from conftest import FINITE_DOCUMENTS, equiprobable, load_document, random_box_instance


@pytest.mark.parametrize(
    "name,value",
    [
        ("scalar_chain", 2.0),
        ("two_var_cover", 0.5),
        ("binary_pair_cover", 1.0),
        ("duplicated_row_cover", 2.0),
        ("split_direction_rows", 1.0),
        ("equality_pair", 0.5),
        ("tight_cover_family", 1.0),
    ],
)
def test_frozen_optima(finite_instances, name, value):
    inst = finite_instances[name]
    out = exact_solve(inst)
    assert out.objective == pytest.approx(value, abs=1e-6)
    assert out.feasible
    assert is_feasible(inst, out.x_star)
    assert violation_probability(inst, out.x_star) <= inst.epsilon + 1e-9


def test_known_minimizers(duplicated_row_cover, scalar_chain):
    assert np.allclose(exact_solve(duplicated_row_cover).x_star, [0.0, 1.0], atol=1e-6)
    assert exact_solve(scalar_chain).x_star[0] == pytest.approx(2.0, abs=1e-8)


def test_binary_enumerator_agrees(binary_pair_cover):
    direct = exact_solve_binary(binary_pair_cover)
    assert direct.objective == pytest.approx(1.0)
    assert direct.objective == pytest.approx(exact_solve(binary_pair_cover).objective)


def test_subset_min_cost(two_var_cover):
    assert subset_min_cost(two_var_cover, [0]) == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert subset_min_cost(two_var_cover, [0, 1]) == pytest.approx(0.5, abs=1e-8)
    value, x = subset_min_cost(two_var_cover, [0, 1, 2], with_point=True)
    assert value == pytest.approx(2.0 / 3.0, abs=1e-8)
    assert np.allclose(x, [1.0 / 3.0, 1.0 / 3.0], atol=1e-6)


def test_subset_cap_guard(tight_cover_family):
    with pytest.raises(CapExceeded):
        exact_solve(tight_cover_family, subset_cap=1)


def test_subset_cap_counts_the_subset_solves(monkeypatch):
    inst = generate_instance("covering", 10, 20, 0.1, 1)
    assert exact_solve(inst).iterations > 5
    calls = []
    subset = ccpkit.oracle.subset_min_cost
    monkeypatch.setattr(ccpkit.oracle, "subset_min_cost",
                        lambda *args, **kwargs: calls.append(1) or subset(*args, **kwargs))
    with pytest.raises(CapExceeded, match="5 subset solves"):
        exact_solve(inst, subset_cap=5)
    assert len(calls) == 5


@pytest.mark.parametrize("epsilon,value", [(0.2, -1.0), (0.25, None), (0.5, None)])
def test_an_unbounded_node_branches_until_a_droppable_set_is_unbounded(epsilon, value):
    # x <= 1 bounds min -x on the orthant; the three rows -x <= 0 do not, so
    # dropping the first scenario (mass 0.25) leaves the objective unbounded
    rows = BiAffine(np.array([1.0, -1.0, -1.0, -1.0])[:, None, None],
                    np.array([1.0, 0.0, 0.0, 0.0])[:, None])
    inst = equiprobable(1, rows, NonNegOrthant(1), [-1.0], epsilon)
    if value is None:
        with pytest.raises(NonFinite, match="unbounded below on a kept set"):
            exact_solve(inst)
    else:
        assert exact_solve(inst).objective == value


def _milp_optimum(inst):
    """min c'x over [0, 1]^n with one binary z_k per scenario that lifts its
    row by the row's largest excess over the box, and sum z <= floor(N eps)."""
    optimize = pytest.importorskip("scipy.optimize")
    rows = inst.constraints.rows
    A, r = rows.R[:, 0, :], rows.r[:, 0]
    N, n = A.shape
    big = np.maximum(np.maximum(A, 0.0).sum(axis=1) - r, 0.0)
    cons = [
        optimize.LinearConstraint(np.hstack([A, -np.diag(big)]), -np.inf, r),
        optimize.LinearConstraint(np.hstack([np.zeros(n), np.ones(N)])[None, :], 0,
                                  np.floor(N * inst.epsilon + 1e-12)),
    ]
    out = optimize.milp(np.hstack([inst.cost, np.zeros(N)]), constraints=cons,
                        integrality=np.hstack([np.zeros(n), np.ones(N)]),
                        bounds=optimize.Bounds(0.0, 1.0))
    assert out.success
    return out.fun


@pytest.mark.parametrize("family", ["linear", "covering"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_branching_matches_a_milp_at_fifty_scenarios(family, seed):
    inst = generate_instance(family, 10, 50, 0.1, seed)
    expected = _milp_optimum(inst)
    out = exact_solve(inst)
    assert out.objective == pytest.approx(expected, rel=0, abs=1e-8 * (1 + abs(expected)))
    assert out.feasible and is_feasible(inst, out.x_star)


def test_oracle_lower_bounds_methods():
    rng = np.random.default_rng(47)
    for _ in range(3):
        inst = random_box_instance(rng)
        vstar = exact_solve(inst).objective
        assert vstar <= also_x(inst, backend="lp").objective + 1e-2
        assert vstar <= cvar_solution(inst, backend="lp").objective + 1e-2


def test_nullspace_verdicts(equality_pair, violated_equality):
    good = check_nullspace_property(equality_pair)
    assert good.holds and good.status == "holds"
    assert good.lps_solved > 0
    bad = check_nullspace_property(violated_equality)
    assert bad.status == "violated"
    assert not bad.holds
    assert bad.witness is not None


def test_nullspace_budget_guard(equality_pair):
    capped = check_nullspace_property(equality_pair, lp_budget=1)
    assert capped.status == "cap_exceeded"


# ---------------------------------------------------------------------------
# the warm-started subset chain of exact_solve


def _compact(monkeypatch):
    """Send every subset LP through the compact cold LP, as without a chain."""
    monkeypatch.setattr(ccpkit.covering.SubsetChain, "problem", lambda self, keep: None)


def _chained_and_cold(monkeypatch, inst):
    chained = exact_solve(inst)
    with monkeypatch.context() as m:
        _compact(m)
        cold = exact_solve(inst)
    return chained, cold


def _assert_same_optimum(inst, chained, cold):
    assert chained.objective == pytest.approx(cold.objective, rel=1e-12, abs=1e-12)
    assert chained.iterations == cold.iterations        # the same subsets solved
    assert is_feasible(inst, chained.x_star)


def _non_equiprobable():
    inst = generate_instance("linear", 4, 8, 0.25, 3)
    p = np.random.default_rng(3).uniform(0.5, 1.5, 8)
    return replace(inst, probabilities=p / p.sum())


def _orthant_rows():
    """Mixed-sign rows on the nonnegative orthant: a positive coefficient on
    an unbounded coordinate gives a row with no finite maximum."""
    mats = np.array([[-1.0, -2.0], [1.0, -1.0], [-2.0, -1.0], [1.0, 1.0], [-1.0, -1.0]])
    rows = BiAffine(mats[:, None, :], np.array([-1.0, 0.5, -1.5, 3.0, -1.2])[:, None])
    return equiprobable(2, rows, NonNegOrthant(2), [1.0, 1.5], 0.2)


@pytest.mark.parametrize("name", FINITE_DOCUMENTS)
def test_chained_oracle_matches_cold_on_demo_documents(monkeypatch, name):
    inst = load_document(name)
    _assert_same_optimum(inst, *_chained_and_cold(monkeypatch, inst))


@pytest.mark.parametrize("family", ["linear", "covering"])
def test_chained_oracle_matches_cold_on_generated_instances(monkeypatch, family):
    for seed in range(1, 11):
        inst = generate_instance(family, 10, 20, 0.1, seed)
        _assert_same_optimum(inst, *_chained_and_cold(monkeypatch, inst))


def test_chained_oracle_matches_cold_on_the_dfs_path(monkeypatch):
    inst = _non_equiprobable()
    assert not inst.equiprobable
    _assert_same_optimum(inst, *_chained_and_cold(monkeypatch, inst))


def _robust(x_set=None):
    """The sup-norm-robust linear instance, over [0, 1]^4 or over x_set."""
    inst = robustify(DrccpSpec(generate_instance("linear", 4, 8, 0.25, 2), 0.05, LInf()))
    return inst if x_set is None else replace(inst, x_set=x_set)


def test_sign_definite_robust_rows_join_the_chain(monkeypatch):
    # on [0, 1]^4 the norm term folds into the rows, so every row has a
    # finite maximum over the box
    inst = _robust()
    assert SubsetChain(inst).problem([0]) is not None
    _assert_same_optimum(inst, *_chained_and_cold(monkeypatch, inst))


@pytest.mark.parametrize("make", [
    # a box that straddles 0 keeps the norm's aux columns, which have no upper bound
    lambda: _robust(Box(-np.ones(4), np.ones(4))),
    _orthant_rows,
])
def test_rows_with_no_finite_maximum_keep_the_compact_lp(monkeypatch, make):
    inst = make()
    assert SubsetChain(inst).problem([0]) is None
    starts = []
    solve = ccpkit.covering.solve_lp
    with monkeypatch.context() as m:
        m.setattr(ccpkit.covering, "solve_lp",
                  lambda problem, start=None: starts.append(start) or solve(problem, start))
        chained, cold = _chained_and_cold(m, inst)
    assert starts and all(s is None for s in starts)
    _assert_same_optimum(inst, chained, cold)


@pytest.mark.parametrize("inst", [
    generate_instance("linear", 10, 20, 0.1, 1),
    generate_instance("covering", 10, 20, 0.1, 1),
    _non_equiprobable(),
])
def test_each_chained_subset_is_one_warm_started_lp(monkeypatch, inst):
    calls = []              # the starts of the solve_lp calls inside each subset call
    subset, solve = ccpkit.oracle.subset_min_cost, ccpkit.covering.solve_lp

    def spy_subset(*args, **kwargs):
        calls.append([])
        return subset(*args, **kwargs)

    def spy_lp(problem, start=None):
        calls[-1].append(start)
        return solve(problem, start)

    monkeypatch.setattr(ccpkit.oracle, "subset_min_cost", spy_subset)
    monkeypatch.setattr(ccpkit.covering, "solve_lp", spy_lp)
    report = exact_solve(inst)
    assert len(calls) == report.iterations > 1
    assert all(len(starts) == 1 for starts in calls)
    assert calls[0][0] is None
    assert all(s[0] is not None and s[0].status == "optimal" for s in calls[1:])


@pytest.mark.parametrize("make", [
    lambda: generate_instance("linear", 10, 20, 0.1, 1),
    _orthant_rows,              # the compact LPs, every one a slice
])
def test_the_oracle_builds_one_lp_for_its_chain(monkeypatch, make):
    inst = make()
    builds = []
    build = ccpkit.covering._scenario_lp
    monkeypatch.setattr(ccpkit.covering, "_scenario_lp",
                        lambda instance, keep, **kw: builds.append(list(keep)) or build(instance, keep, **kw))
    report = exact_solve(inst)
    assert report.iterations > 1
    assert builds == [list(range(inst.scenario_count))]


def test_a_chain_serves_one_instance(two_var_cover, duplicated_row_cover):
    chain = SubsetChain(two_var_cover)
    assert subset_min_cost(two_var_cover, [0, 1], chain=chain) == pytest.approx(0.5, abs=1e-8)
    assert subset_min_cost(two_var_cover, [0], chain=chain) == pytest.approx(1.0 / 3.0, abs=1e-8)
    with pytest.raises(ValidationError):
        subset_min_cost(duplicated_row_cover, [0], chain=chain)


def _equality_instance(count, seed):
    d = np.random.default_rng(seed).integers(1, 6, size=(count, 3)).astype(float)
    return equiprobable(3, BiAffineEquality(d, np.ones(count)), NonNegOrthant(3),
                        [1.0, -1.0, 0.5], 0.2)


# the generated instances: one holds after 384 LPs, one is violated at the 24th
@pytest.mark.parametrize("name", ["equality_pair", "generated-6-1", "generated-5-7"])
def test_nullspace_check_warm_starts_match_cold(monkeypatch, finite_instances, name):
    if name == "equality_pair":
        inst = finite_instances[name]
    else:
        inst = _equality_instance(*(int(v) for v in name.split("-")[1:]))
    solve = ccpkit.oracle.solve_lp
    pivots = []
    monkeypatch.setattr(ccpkit.oracle, "solve_lp",
                        lambda problem, start=None: pivots.append(solve(problem, start)) or pivots[-1])
    warm = check_nullspace_property(inst)
    warm_pivots = sum(out.pivots for out in pivots)
    pivots.clear()
    monkeypatch.setattr(ccpkit.oracle, "solve_lp",
                        lambda problem, start=None: pivots.append(solve(problem)) or pivots[-1])
    cold = check_nullspace_property(inst)
    cold_pivots = sum(out.pivots for out in pivots)
    assert (warm.status, warm.lps_solved) == (cold.status, cold.lps_solved)
    assert warm.lps_solved > 1
    if cold.status == "violated":
        assert warm.witness["subset"] == cold.witness["subset"]
        assert warm.witness["signs"] == cold.witness["signs"]
    assert warm_pivots < cold_pivots


def test_nullspace_check_derives_each_subset_lp_from_its_patterns_lp(monkeypatch, equality_pair):
    derive = LpProblem.derive
    parents, children = [], []

    def spy(self, *args, **kwargs):
        child = derive(self, *args, **kwargs)
        parents.append(self)
        children.append(child)
        return child

    monkeypatch.setattr(LpProblem, "derive", spy)
    solve = ccpkit.oracle.solve_lp
    solved = []
    monkeypatch.setattr(ccpkit.oracle, "solve_lp",
                        lambda problem, start=None: solved.append(problem) or solve(problem, start))
    verdict = check_nullspace_property(equality_pair)
    assert verdict.holds and verdict.lps_solved == len(solved) == 24
    # every LP solved is a derivation that shares its pattern's A, one
    # pattern LP per sign pattern (2^3 of them) and 3 subsets each
    assert [id(p) for p in solved] == [id(c) for c in children]
    assert all(c.A is p.A and c.E is p.E for p, c in zip(parents, children))
    assert len({id(p) for p in parents}) == 8
