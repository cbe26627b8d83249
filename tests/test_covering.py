"""Covering approximations: relaxation, scaling, quantile bound."""

import numpy as np
import pytest

from ccpkit import (
    Infeasible,
    NonNegOrthant,
    SgdConfig,
    ValidationError,
    covering_relaxation,
    exact_solve,
    is_feasible,
    quantile_lower_bound,
    relax_and_scale,
)
from ccpkit.cli import generate_instance

from conftest import equiprobable, random_box_instance


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
