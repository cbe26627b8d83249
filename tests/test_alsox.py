"""Bisection scheme: frozen optima, exactness cases, failure modes."""

from dataclasses import replace
from time import perf_counter

import numpy as np
import pytest

import ccpkit.alsox as alsox_module
import ccpkit.covering
import ccpkit.cvar
import ccpkit.lowerlevel
import ccpkit.subgrad
from ccpkit import (
    L1,
    L2,
    BackendUnavailable,
    BiAffine,
    BinaryTiny,
    DrccpSpec,
    Infeasible,
    LInf,
    NoFeasibleT,
    NonNegOrthant,
    also_x,
    also_x_plus,
    bounds_with_anchor,
    cvar_solution,
    exact_solve,
    is_feasible,
    quantile_lower_bound,
    robustify,
    solve_lower_level,
    violation_probability,
)
from ccpkit.cli import generate_instance
from ccpkit.lowerlevel import Lattice, hinge_start

from conftest import (
    FINITE_DOCUMENTS,
    answer_key,
    equiprobable,
    force_cold_lattice,
    force_cold_lp,
    lattice_block_spy,
    load_document,
    report_key,
)
from test_covering import _binary_cost_instances


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
    builds = []
    build = ccpkit.lowerlevel._hinge_lp

    def counted(*args, **kwargs):
        builds.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(ccpkit.lowerlevel, "_hinge_lp", counted)
    out = also_x(inst, backend="lp")
    assert seen and set(seen) == {"lp"}
    # the anchor search probes with the budget search's acceptor: one hinge
    # LP, built before the bounds, serves both searches
    assert len(builds) == 1
    assert out.objective == pytest.approx(0.0)
    check_report(inst, out)


@pytest.mark.parametrize("name", FINITE_DOCUMENTS)
def test_warm_probe_chain_matches_a_cold_one(name, monkeypatch):
    inst = load_document(name)
    warm = report_key(also_x, inst, backend="lp")
    force_cold_lp(monkeypatch)
    assert report_key(also_x, inst, backend="lp") == warm


@pytest.mark.parametrize("method", [also_x, also_x_plus])
def test_search_lattices_give_the_answers_of_cold_scans(method, monkeypatch):
    # the linear, sup-norm-robust, cut and covering binary instances
    insts = list(_binary_cost_instances())
    warm = [answer_key(method, inst) for inst in insts]
    force_cold_lattice(monkeypatch)
    assert [answer_key(method, inst) for inst in insts] == warm


@pytest.mark.parametrize("method", [also_x, also_x_plus])
def test_one_search_builds_each_lattice_block_once(method, monkeypatch):
    inst = replace(generate_instance("linear", 13, 6, 0.2, 2), x_set=BinaryTiny(13))
    sizes = lattice_block_spy(monkeypatch)
    out = method(inst)
    assert out.iterations == 10
    # 2^13 points in two blocks, built once before the bounds: the quantile
    # bound, the CVaR anchor and every probe and AM round scan that lattice
    assert sizes == [4096] * 2


@pytest.mark.parametrize("method", [also_x, also_x_plus])
def test_one_hinge_column_per_distinct_weight_vector(method, monkeypatch):
    # 2^10 points: the lattice is one block, so each column is one computation
    inst = replace(generate_instance("linear", 10, 30, 0.1, 1), x_set=BinaryTiny(10))
    columns, solved = [], []
    column = ccpkit.lowerlevel._hinge_column
    enum = ccpkit.lowerlevel._solve_hinge_enum

    def computed(weights, losses):
        columns.append(weights.tobytes())
        return column(weights, losses)

    def scanned(instance, t, z, start=None):
        solved.append((instance.probabilities * z).tobytes())
        return enum(instance, t, z, start)

    monkeypatch.setattr(ccpkit.lowerlevel, "_hinge_column", computed)
    monkeypatch.setattr(ccpkit.lowerlevel, "_solve_hinge_enum", scanned)
    out = method(inst)
    assert out.iterations == 10
    # the search's lattice keeps one column per weight vector: the probes,
    # all at z = 1, share the first probe's column, and an AM round computes
    # one only at a z that no earlier scan used
    assert columns == list(dict.fromkeys(solved))
    # six AM rescues of two rounds each, every one at the same z
    assert len(columns) == (1 if method is also_x else 2)


def test_the_bounds_build_their_own_lattice_from_a_start_not_theirs(monkeypatch):
    inst = replace(generate_instance("linear", 6, 12, 0.2, 3), x_set=BinaryTiny(6))
    other = replace(generate_instance("linear", 6, 12, 0.2, 4), x_set=BinaryTiny(6))

    def answers(start=None):
        rep = cvar_solution(inst, start=start)
        t_low = quantile_lower_bound(inst, start=start)
        return float(t_low).hex(), float(rep.objective).hex(), rep.x_star.tobytes()

    want = answers()
    foreign = [
        Lattice(other),
        Lattice(replace(inst)),            # the same data, another object
        hinge_start(generate_instance("linear", 6, 12, 0.2, 3)),
    ]
    sizes = lattice_block_spy(monkeypatch)
    for start in foreign:
        sizes.clear()
        assert answers(start) == want
        assert sizes == [64, 64]
    # the instance's own lattice is scanned, not built again
    own = Lattice(inst)
    sizes.clear()
    assert answers(own) == want
    assert sizes == []


@pytest.mark.parametrize("method", [also_x, also_x_plus])
def test_rows_with_no_lp_form_fail_on_lp_before_any_bound(method, scalar_chain, monkeypatch):
    # the L2 ball does not linearize: the search's hinge LP is built first,
    # so no subgradient bound is computed before the call raises
    calls = []
    for module in (ccpkit.covering, ccpkit.lowerlevel, ccpkit.subgrad):
        monkeypatch.setattr(module, "solve_hinge_sgd", lambda *a, **k: calls.append(a))
    for module in (ccpkit.cvar, ccpkit.subgrad):
        monkeypatch.setattr(module, "solve_cvar_lower_sgd", lambda *a, **k: calls.append(a))
    inst = robustify(DrccpSpec(scalar_chain, 0.05, L2()))
    begin = perf_counter()
    with pytest.raises(BackendUnavailable):
        method(inst, backend="lp")
    assert perf_counter() - begin < 1.0
    assert calls == []


@pytest.mark.parametrize("norm", [None, LInf(), L1()], ids=["plain", "linf", "l1"])
def test_a_binary_set_is_unavailable_on_the_lp_backend(norm, binary_pair_cover):
    # a lattice has no polyhedron: like rows with no LP form, the lp backend
    # does not apply, so every lp entry point raises BackendUnavailable
    inst = binary_pair_cover
    if norm is not None:
        inst = robustify(DrccpSpec(inst, 0.05, norm))
    for solve in (lambda: also_x(inst, backend="lp"),
                  lambda: also_x_plus(inst, backend="lp"),
                  lambda: solve_lower_level(inst, 0.0, backend="lp")):
        with pytest.raises(BackendUnavailable, match="BinaryTiny"):
            solve()


def _scenario_lp_builds(monkeypatch) -> list:
    """One entry per _scenario_lp call from now on, in every module that calls it."""
    builds = []
    build = ccpkit.lowerlevel._scenario_lp

    def spy(*args, **kwargs):
        builds.append(1)
        return build(*args, **kwargs)

    for module in (ccpkit.lowerlevel, ccpkit.covering, ccpkit.cvar):
        monkeypatch.setattr(module, "_scenario_lp", spy)
    return builds


@pytest.mark.parametrize("method", [also_x, also_x_plus])
def test_one_search_builds_each_scenario_lp_once(method, monkeypatch):
    builds = _scenario_lp_builds(monkeypatch)
    counts = []
    for N in (10, 30):
        builds.clear()
        report = method(generate_instance("linear", 6, N, 0.1, 1), backend="lp")
        assert report.iterations > 2
        counts.append(len(builds))
    # one LP for the quantile bound's N single-scenario LPs, one tail LP for
    # the anchor, and one hinge LP that every probe and AM round derives from
    assert counts == [3, 3]
