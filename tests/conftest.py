"""Shared fixtures: small hand-checkable instances with known optima."""

import json
from pathlib import Path

import numpy as np
import pytest

import ccpkit.lowerlevel
from ccpkit import (
    BiAffine,
    BiAffineEquality,
    BinaryTiny,
    Box,
    CcpInstance,
    Covering,
    EllipticalCcp,
    NonNegOrthant,
    CcpError,
    Simplex,
    load_instance,
    std_normal_quantile,
)

INSTANCES = Path(__file__).resolve().parents[1] / "instances"
# the demo documents that hold a finite-scenario instance
FINITE_DOCUMENTS = sorted(
    p.stem for p in INSTANCES.glob("*.json")
    if json.loads(p.read_text()).get("type") != "elliptical_gaussian"
)


def load_document(name: str) -> CcpInstance:
    return load_instance((INSTANCES / f"{name}.json").read_text())


def force_cold_lp(monkeypatch):
    """Make every hinge LP solve ignore its warm start."""
    cold = ccpkit.lowerlevel.solve_lp
    monkeypatch.setattr(ccpkit.lowerlevel, "solve_lp", lambda problem, start=None: cold(problem))


def force_cold_lattice(monkeypatch):
    """Make every enum hinge solve build its lattice anew, whatever its start."""
    cold = ccpkit.lowerlevel._solve_hinge_enum

    def ignore_start(instance, t, z, start=None):
        return cold(instance, t, z)

    monkeypatch.setattr(ccpkit.lowerlevel, "_solve_hinge_enum", ignore_start)


def lattice_block_spy(monkeypatch) -> list:
    """The sizes of the lattice blocks whose scenario losses are built from
    now on, one entry per block, in build order."""
    sizes = []
    losses = ccpkit.lowerlevel.scenario_losses

    def spy(instance, x):
        if np.ndim(x) == 2:
            sizes.append(np.shape(x)[0])
        return losses(instance, x)

    monkeypatch.setattr(ccpkit.lowerlevel, "scenario_losses", spy)
    return sizes


def answer_key(solve, instance):
    """The bits of a solve's answer (objective, x, probe count), or its error's name."""
    try:
        out = solve(instance)
    except CcpError as exc:
        return type(exc).__name__
    return float(out.objective).hex(), out.x_star.tobytes(), out.iterations


def report_key(solve, *args, **kwargs):
    """(objective, t_star, iterations, feasible) of a solve, or its error's name."""
    try:
        out = solve(*args, **kwargs)
    except CcpError as exc:
        return type(exc).__name__
    return out.objective, out.t_star, out.iterations, out.feasible


def cover_rows(xi) -> BiAffine:
    """Rows xi'x >= 1 encoded as bi-affine losses 1 - xi'x."""
    xi = np.asarray(xi, dtype=float)
    count = xi.shape[0]
    return BiAffine(-xi[:, None, :], np.full((count, 1), -1.0))


def equiprobable(n, constraints, x_set, cost, epsilon) -> CcpInstance:
    count = constraints.scenario_count
    return CcpInstance(
        n=n,
        scenario_count=count,
        probabilities=np.full(count, 1.0 / count),
        constraints=constraints,
        x_set=x_set,
        cost=np.asarray(cost, dtype=float),
        epsilon=epsilon,
    )


def make_scalar_chain() -> CcpInstance:
    # x >= xi for xi in {3, 2, 1}; drop one scenario at eps = 1/2
    mats = np.full((3, 1, 1), -1.0)
    offsets = np.array([[-3.0], [-2.0], [-1.0]])
    return equiprobable(1, BiAffine(mats, offsets), NonNegOrthant(1), [1.0], 0.5)


def make_two_var_cover() -> CcpInstance:
    rows = cover_rows([[2.0, 3.0], [2.0, 1.0], [1.0, 2.0]])
    return equiprobable(2, rows, NonNegOrthant(2), [1.0, 1.0], 1.0 / 3.0)


def make_binary_pair_cover() -> CcpInstance:
    rows = cover_rows([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return equiprobable(2, rows, BinaryTiny(2), [1.0, 2.0], 1.0 / 3.0)


def make_duplicated_row_cover() -> CcpInstance:
    rows = cover_rows([[1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    return equiprobable(2, rows, NonNegOrthant(2), [3.0, 2.0], 1.0 / 3.0)


def make_split_direction_rows() -> CcpInstance:
    # x1 >= 1, x2 >= 1, x1 + x2 <= 1: every pair of scenarios clashes
    mats = np.array([[[-1.0, 0.0]], [[0.0, -1.0]], [[1.0, 1.0]]])
    offsets = np.array([[-1.0], [-1.0], [1.0]])
    return equiprobable(2, BiAffine(mats, offsets), NonNegOrthant(2), [1.0, 1.0], 1.0 / 3.0)


def make_equality_pair() -> CcpInstance:
    d = np.array([[2.0, 3.0], [2.0, 1.0], [1.0, 2.0]])
    e = np.ones(3)
    return equiprobable(2, BiAffineEquality(d, e), NonNegOrthant(2), [1.0, 1.0], 1.0 / 3.0)


def make_violated_equality() -> CcpInstance:
    # direction (1, 1) has |d_1'h| = 5 >= half the total mass 7
    d = np.array([[3.0, 2.0], [1.0, 0.0], [0.0, 1.0]])
    e = np.ones(3)
    return equiprobable(2, BiAffineEquality(d, e), NonNegOrthant(2), [1.0, -1.0], 1.0 / 3.0)


def make_tight_cover_family() -> CcpInstance:
    # three singleton rows plus seven all-ones rows; floor(N eps) + 1 = 3
    mats = np.ones((10, 1, 3))
    for i in range(3):
        row = np.zeros(3)
        row[i] = 1.0
        mats[i, 0] = row
    return equiprobable(3, Covering(mats), NonNegOrthant(3), np.ones(3), 0.25)


def make_gaussian_plane() -> EllipticalCcp:
    return EllipticalCcp(
        mu=np.array([2.0, 1.0]),
        sigma=np.eye(2),
        a=np.eye(2),
        a0=np.zeros(2),
        b=np.zeros(2),
        b0=1.0,
        cost=np.array([-1.0, -3.0]),
        epsilon=0.05,
    )


def make_simplex_portfolio() -> EllipticalCcp:
    # on the simplex the margin constraint reduces to |x|_2^2 <= 0.7
    b0 = 0.3 + std_normal_quantile(0.9) * np.sqrt(0.7)
    return EllipticalCcp(
        mu=np.array([0.3, 0.3]),
        sigma=np.eye(2),
        a=np.eye(2),
        a0=np.zeros(2),
        b=np.zeros(2),
        b0=b0,
        cost=np.array([1.0, 2.0]),
        epsilon=0.1,
        x_set=Simplex(2, 1.0),
    )


def random_box_instance(rng) -> CcpInstance:
    """Small bi-affine instance on [0,1]^n with mixed-sign data."""
    n = int(rng.integers(2, 4))
    count = int(rng.integers(5, 9))
    if rng.random() < 0.5:
        xi = rng.integers(1, 6, size=(count, n)).astype(float)
        cost = -rng.integers(1, 6, size=n).astype(float)
        b = rng.uniform(0.5, 0.5 * xi.sum(axis=1))
    else:
        xi = rng.integers(-3, 6, size=(count, n)).astype(float)
        cost = rng.integers(-5, 6, size=n).astype(float)
        if not cost.any():
            cost[0] = -1.0
        b = rng.uniform(0.25, 2.0, size=count)
    rows = BiAffine(xi[:, None, :], b[:, None])
    return equiprobable(n, rows, Box(np.zeros(n), np.ones(n)), cost, 0.25)


def random_hinge_problem(rng):
    """(instance, t) pair for lower-level backend cross-checks."""
    n = int(rng.integers(2, 4))
    count = int(rng.integers(4, 9))
    xi = rng.integers(-3, 6, size=(count, n)).astype(float)
    cost = rng.integers(-5, 6, size=n).astype(float)
    if not cost.any():
        cost[0] = -1.0
    b = rng.uniform(0.25, 2.0, size=count)
    rows = BiAffine(xi[:, None, :], b[:, None])
    instance = equiprobable(n, rows, Box(np.zeros(n), np.ones(n)), cost, 0.25)
    t_lo = float(np.minimum(cost, 0.0).sum())
    t_hi = float(np.maximum(cost, 0.0).sum())
    t = float(rng.uniform(t_lo, t_hi))
    return instance, t


@pytest.fixture
def scalar_chain():
    return make_scalar_chain()


@pytest.fixture
def two_var_cover():
    return make_two_var_cover()


@pytest.fixture
def binary_pair_cover():
    return make_binary_pair_cover()


@pytest.fixture
def duplicated_row_cover():
    return make_duplicated_row_cover()


@pytest.fixture
def split_direction_rows():
    return make_split_direction_rows()


@pytest.fixture
def equality_pair():
    return make_equality_pair()


@pytest.fixture
def violated_equality():
    return make_violated_equality()


@pytest.fixture
def tight_cover_family():
    return make_tight_cover_family()


@pytest.fixture
def gaussian_plane():
    return make_gaussian_plane()


@pytest.fixture
def simplex_portfolio():
    return make_simplex_portfolio()


@pytest.fixture
def finite_instances():
    return {
        "scalar_chain": make_scalar_chain(),
        "two_var_cover": make_two_var_cover(),
        "binary_pair_cover": make_binary_pair_cover(),
        "duplicated_row_cover": make_duplicated_row_cover(),
        "split_direction_rows": make_split_direction_rows(),
        "equality_pair": make_equality_pair(),
        "tight_cover_family": make_tight_cover_family(),
    }
