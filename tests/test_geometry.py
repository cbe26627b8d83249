"""Feasible sets: membership, projection, polyhedral views."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccpkit import (
    AffineEqualities,
    BinaryTiny,
    Box,
    Halfspaces,
    Intersection,
    NonNegOrthant,
    Simplex,
    UnsupportedSet,
    dykstra_project,
)


def test_box_projection_clips():
    box = Box(np.zeros(2), np.ones(2))
    assert np.allclose(box.project(np.array([2.0, -1.0])), [1.0, 0.0])
    assert box.contains(np.array([0.5, 0.5]))
    assert not box.contains(np.array([1.5, 0.5]))


def test_orthant_projection():
    assert np.allclose(NonNegOrthant(3).project(np.array([-1.0, 2.0, 0.0])), [0.0, 2.0, 0.0])


def test_simplex_projection_frozen_value():
    got = Simplex(3, 1.0).project(np.array([0.9, 0.8, -0.5]))
    assert np.allclose(got, [0.55, 0.45, 0.0], atol=1e-12)
    assert got.sum() == pytest.approx(1.0)


def test_halfspace_projection_is_closest_point():
    hs = Halfspaces(np.array([[1.0, 1.0]]), np.array([1.0]))
    got = hs.project(np.array([1.0, 1.0]))
    assert np.allclose(got, [0.5, 0.5])


def test_affine_equality_projection():
    # columns are equalities: {x : x1 - x2 = 0}
    eq = AffineEqualities(np.array([[1.0], [-1.0]]), np.array([0.0]))
    got = eq.project(np.array([1.0, 0.0]))
    assert np.allclose(got, [0.5, 0.5])


def test_binary_projection_rounds():
    got = BinaryTiny(2).project(np.array([0.4, 0.9]))
    assert set(np.unique(got)).issubset({0.0, 1.0})
    assert np.allclose(got, [0.0, 1.0])


def test_intersection_needs_dykstra():
    parts = Intersection(
        (
            Box(np.zeros(2), np.ones(2)),
            Halfspaces(np.array([[1.0, 1.0]]), np.array([0.5])),
        )
    )
    with pytest.raises(UnsupportedSet):
        parts.project(np.array([1.0, 1.0]))
    got = dykstra_project(parts.pieces(), np.array([1.0, 1.0]))
    assert np.allclose(got, [0.25, 0.25], atol=1e-6)
    assert parts.contains(got, tol=1e-6)


def test_flatten_set_unnests():
    inner = Intersection((Box(np.zeros(2), np.ones(2)), NonNegOrthant(2)))
    outer = Intersection((inner, Halfspaces(np.array([[1.0, 0.0]]), np.array([0.5]))))
    parts = outer.pieces()
    assert len(parts) == 3
    assert outer.dim == 2


def test_as_polyhedron_shapes():
    box = Box(np.zeros(2), np.ones(2))
    A, b, E, f, lo, hi = box.polyhedron()
    assert A.shape[1] == 2 and E.shape[1] == 2
    assert np.allclose(lo, 0.0) and np.allclose(hi, 1.0)
    simplex = Simplex(3, 1.0)
    A, b, E, f, lo, hi = simplex.polyhedron()
    assert E.shape == (1, 3) and f[0] == pytest.approx(1.0)
    with pytest.raises(UnsupportedSet):
        BinaryTiny(2).polyhedron()


_ROWS = np.array([[1.0, 1.0, 0.0], [0.0, -1.0, 2.0], [-1.0, 0.5, 1.0]])
SET_KINDS = {
    "box_infinite": Box(np.array([-np.inf, 0.0, -1.0]), np.array([1.0, np.inf, np.inf])),
    "halfspace": Halfspaces(_ROWS[:1], np.array([1.0])),
    "halfspaces": Halfspaces(_ROWS, np.array([1.0, 0.5, 1.5])),
    "orthant": NonNegOrthant(3),
    "simplex": Simplex(3, 1.0),
    "affine_eq": AffineEqualities(np.array([[1.0], [1.0], [-1.0]]), np.array([0.5])),
    "binary": BinaryTiny(3),
    "nested_binary": Intersection(
        (Intersection((BinaryTiny(3), NonNegOrthant(3))), Halfspaces(_ROWS[:2], np.array([1.0, 0.5])))
    ),
}


@pytest.mark.parametrize("kind", list(SET_KINDS))
def test_contains_agrees_with_rows_and_polyhedron(kind):
    s = SET_KINDS[kind]
    rng = np.random.default_rng(3)
    # points off the set, lattice points, and (for a convex set) points on it
    block = [rng.normal(scale=2.0, size=(20, 3)), rng.integers(0, 2, size=(20, 3)).astype(float)]
    if not s.binary:
        block.append(np.array([dykstra_project([s], y) for y in rng.normal(scale=2.0, size=(20, 3))]))
    x = np.vstack(block)
    inside = s.contains(x)
    assert inside.shape == (x.shape[0],) and inside.any() and not inside.all()
    assert inside.tolist() == [s.contains(row) for row in x]
    if s.binary:
        with pytest.raises(UnsupportedSet):
            s.polyhedron()
        return
    tol = 1e-7
    A, b, E, f, lo, hi = s.polyhedron()
    by_rows = (
        np.all(x @ A.T <= b + tol, axis=1)
        & np.all(np.abs(x @ E.T - f) <= tol, axis=1)
        & np.all((x >= lo - tol) & (x <= hi + tol), axis=1)
    )
    assert inside.tolist() == by_rows.tolist()


@given(
    y=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    z=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_projection_idempotent_and_nonexpansive(y, z):
    y = np.asarray(y)
    z = np.asarray(z)
    for s in (
        Box(-np.ones(3), np.ones(3)),
        Simplex(3, 1.0),
        NonNegOrthant(3),
        Halfspaces(np.array([[1.0, -2.0, 0.5]]), np.array([1.0])),
        AffineEqualities(np.array([[1.0], [1.0], [-1.0]]), np.array([0.5])),
    ):
        py = s.project(y)
        pz = s.project(z)
        assert s.contains(py, tol=1e-8)
        assert np.allclose(s.project(py), py, atol=1e-9)
        assert np.linalg.norm(py - pz) <= np.linalg.norm(y - z) + 1e-9


@given(
    y=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    w=st.lists(st.floats(0.01, 1), min_size=3, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_simplex_projection_optimality(y, w):
    y = np.asarray(y)
    s = Simplex(3, 1.0)
    py = s.project(y)
    # any feasible competitor is no closer
    q = np.asarray(w)
    q = q / q.sum()
    assert np.linalg.norm(y - py) <= np.linalg.norm(y - q) + 1e-9
