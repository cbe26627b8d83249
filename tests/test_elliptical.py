"""Gaussian closed forms: special functions, margins, conic solves."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccpkit.elliptical
from ccpkit import (
    L1,
    L2,
    BackendUnavailable,
    Mahalanobis,
    NormMismatch,
    ValidationError,
    also_x_elliptical,
    conic_margin,
    elliptical_from_doc,
    elliptical_to_doc,
    exact_conic_solve,
    gaussian_hinge,
    gaussian_hinge_gradient,
    gaussian_violation,
    hinge_factor,
    load_elliptical,
    sample_losses,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)


def test_normal_special_values():
    assert std_normal_cdf(0.0) == pytest.approx(0.5)
    assert std_normal_pdf(0.0) == pytest.approx(1.0 / np.sqrt(2.0 * np.pi))
    assert std_normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert std_normal_quantile(0.9) == pytest.approx(1.2815515655446004, abs=1e-9)
    assert std_normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-8)


@given(x=st.floats(-5, 5))
@settings(max_examples=60, deadline=None)
def test_quantile_inverts_cdf(x):
    assert std_normal_quantile(std_normal_cdf(x)) == pytest.approx(x, abs=1e-7)


@given(alpha=st.floats(-6, 6))
@settings(max_examples=60, deadline=None)
def test_hinge_factor_shape(alpha):
    f = hinge_factor(alpha)
    assert f > 0.0
    assert f >= max(-alpha, 0.0) - 1e-12
    # reflection identity pins both tails
    assert hinge_factor(-alpha) == pytest.approx(f + alpha, abs=1e-10)
    assert hinge_factor(alpha + 0.25) <= f + 1e-12


def test_hinge_gradient_matches_finite_differences(gaussian_plane):
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = rng.uniform(-2.0, 2.0, size=2)
        grad = gaussian_hinge_gradient(gaussian_plane, x)
        for j in range(2):
            e = np.zeros(2)
            e[j] = 1e-6
            fd = (
                gaussian_hinge(gaussian_plane, x + e)
                - gaussian_hinge(gaussian_plane, x - e)
            ) / 2e-6
            assert grad[j] == pytest.approx(fd, abs=1e-5)


def test_hinge_matches_sampling(gaussian_plane):
    rng = np.random.default_rng(14)
    for _ in range(3):
        x = rng.uniform(-1.5, 1.5, size=2)
        draws = sample_losses(gaussian_plane, x, 200_000, seed=5)
        mc = float(np.maximum(draws, 0.0).mean())
        se = float(np.maximum(draws, 0.0).std() / np.sqrt(draws.shape[0]))
        assert abs(gaussian_hinge(gaussian_plane, x) - mc) <= 4.0 * se + 1e-9


def test_violation_matches_sampling(gaussian_plane):
    x = np.array([0.5, 0.25])
    draws = sample_losses(gaussian_plane, x, 200_000, seed=6)
    frac = float((draws > 0.0).mean())
    se = np.sqrt(frac * (1.0 - frac) / draws.shape[0])
    assert abs(gaussian_violation(gaussian_plane, x) - frac) <= 4.0 * se + 1e-9


def test_sampling_is_seed_deterministic(gaussian_plane):
    x = np.array([0.1, 0.2])
    a = sample_losses(gaussian_plane, x, 1000, seed=3)
    b = sample_losses(gaussian_plane, x, 1000, seed=3)
    assert np.array_equal(a, b)


def test_plane_conic_optimum(gaussian_plane):
    value, x = exact_conic_solve(gaussian_plane)
    assert value == pytest.approx(-1.55432057, abs=1e-5)
    # the margin constraint is active and satisfied at the optimum
    assert conic_margin(gaussian_plane, x) == pytest.approx(0.0, abs=1e-5)
    assert gaussian_violation(gaussian_plane, x) <= gaussian_plane.epsilon + 1e-6


def test_portfolio_conic_matches_closed_form(simplex_portfolio):
    value, x = exact_conic_solve(simplex_portfolio)
    target = 2.0 - (1.0 + np.sqrt(0.4)) / 2.0
    assert value == pytest.approx(target, abs=1e-6)
    assert x.sum() == pytest.approx(1.0, abs=1e-7)


def test_portfolio_scheme_is_nearly_exact(simplex_portfolio):
    conic, _ = exact_conic_solve(simplex_portfolio)
    out = also_x_elliptical(simplex_portfolio)
    assert out.feasible
    assert out.objective >= conic - 1e-9
    assert out.objective - conic <= 2e-2


def test_plane_scheme_stays_above_optimum(gaussian_plane):
    conic, _ = exact_conic_solve(gaussian_plane)
    out = also_x_elliptical(gaussian_plane)
    assert out.objective >= conic - 1e-9
    assert gaussian_violation(gaussian_plane, out.x_star) <= gaussian_plane.epsilon + 1e-9


def test_robust_margin_shrinks(gaussian_plane):
    robust = replace(
        gaussian_plane, theta=0.05, wasserstein_norm=Mahalanobis(gaussian_plane.sigma)
    )
    x = np.array([0.5, 0.5])
    assert conic_margin(robust, x) < conic_margin(gaussian_plane, x)
    base_value, _ = exact_conic_solve(gaussian_plane)
    robust_value, _ = exact_conic_solve(robust)
    assert robust_value >= base_value - 1e-9


@pytest.mark.parametrize(
    "ball",
    [lambda ec: L1(), lambda ec: L2(), lambda ec: None, lambda ec: Mahalanobis(2.0 * ec.sigma)],
    ids=["l1", "l2", "none", "mahalanobis-2sigma"],
)
def test_robust_solvers_refuse_every_other_ball_before_any_solve(gaussian_plane, ball, monkeypatch):
    robust = replace(gaussian_plane, theta=0.1, wasserstein_norm=ball(gaussian_plane))
    calls = []
    real = ccpkit.elliptical._margin_ascent

    def spy(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(ccpkit.elliptical, "_margin_ascent", spy)
    with pytest.raises(NormMismatch):
        exact_conic_solve(robust)
    with pytest.raises(NormMismatch):
        also_x_elliptical(robust)
    assert calls == []


def test_the_sigma_ball_keeps_its_robust_values(gaussian_plane):
    robust = replace(gaussian_plane, theta=0.1, wasserstein_norm=Mahalanobis(gaussian_plane.sigma))
    value, _ = exact_conic_solve(robust)
    assert value == -1.363608479499817
    assert also_x_elliptical(robust).objective == -1.2932959794998455


def test_document_round_trip(gaussian_plane, simplex_portfolio):
    for ec in (gaussian_plane, simplex_portfolio):
        doc = elliptical_to_doc(ec)
        assert doc["type"] == "elliptical_gaussian"
        back = elliptical_from_doc(doc)
        x = np.array([0.25, 0.5])
        assert gaussian_hinge(back, x) == pytest.approx(gaussian_hinge(ec, x), abs=1e-12)
        again = load_elliptical(json.dumps(doc))
        assert gaussian_violation(again, x) == pytest.approx(
            gaussian_violation(ec, x), abs=1e-12
        )


def test_only_the_gaussian_generator_constructs(gaussian_plane):
    with pytest.raises(BackendUnavailable, match="student"):
        replace(gaussian_plane, generator="student")
    doc = elliptical_to_doc(gaussian_plane)
    doc["generator"] = "student"
    with pytest.raises(BackendUnavailable):
        elliptical_from_doc(doc)


def test_sigma_is_checked_as_the_mahalanobis_norm_checks_it(gaussian_plane):
    # Cholesky succeeds, but its second pivot (1e-13) is below the norm's floor
    doc = elliptical_to_doc(gaussian_plane)
    doc["sigma"] = np.diag([1.0, 1e-26]).tolist()
    with pytest.raises(ValidationError, match="Cholesky pivot"):
        elliptical_from_doc(doc)
