"""Euclidean projections and norm machinery.

`project` handles the primitive sets in closed form. Intersections (and
multi-row halfspace systems, which are intersections of single rows) go
through `dykstra_project`, which converges to the exact projection for
convex pieces.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .errors import NoConvergence, UnsupportedSet
from .model import (
    AffineEqualities,
    BinaryTiny,
    Box,
    FeasibleSet,
    Halfspaces,
    Intersection,
    L1,
    L2,
    LInf,
    Mahalanobis,
    NonNegOrthant,
    NormSpec,
    Simplex,
    dual_norm,
    dual_norm_subgradient,
    set_contains,
)

__all__ = [
    "project",
    "dykstra_project",
    "flatten_set",
    "as_polyhedron",
    "dual_norm",
    "dual_norm_subgradient",
    "NormSpec",
    "L1",
    "L2",
    "LInf",
    "Mahalanobis",
]


def _project_simplex(y: np.ndarray, total: float) -> np.ndarray:
    """Sort-and-threshold projection onto {x >= 0, sum x = total}."""
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - total
    ks = np.arange(1, y.shape[0] + 1)
    cond = u - css / ks > 0
    rho = int(np.nonzero(cond)[0][-1]) + 1 if np.any(cond) else 1
    tau = css[rho - 1] / rho
    return np.maximum(y - tau, 0.0)


def project(s: FeasibleSet, y) -> np.ndarray:
    """Exact Euclidean projection onto a primitive set.

    Raises UnsupportedSet for Intersection and for Halfspaces with more
    than one row; those need `dykstra_project`.
    """
    y = np.asarray(y, dtype=float)
    if isinstance(s, Box):
        return np.clip(y, s.lower, s.upper)
    if isinstance(s, Halfspaces):
        if s.a.shape[0] != 1:
            raise UnsupportedSet("multi-row halfspace system: use dykstra_project")
        a = s.a[0]
        slack = float(a @ y - s.b[0])
        nrm2 = float(a @ a)
        if slack <= 0.0 or nrm2 == 0.0:
            return y.copy()
        return y - (slack / nrm2) * a
    if isinstance(s, NonNegOrthant):
        return np.maximum(y, 0.0)
    if isinstance(s, Simplex):
        return _project_simplex(y, s.total)
    if isinstance(s, AffineEqualities):
        # x = y - pinv(U') (U'y - h)
        return y - s._pinv_ut @ (s.u.T @ y - s.h)
    if isinstance(s, BinaryTiny):
        return np.where(y >= 0.5, 1.0, 0.0)
    if isinstance(s, Intersection):
        raise UnsupportedSet("intersection: use dykstra_project")
    raise UnsupportedSet(f"unknown feasible set {type(s).__name__}")


def flatten_set(s: FeasibleSet) -> List[FeasibleSet]:
    """Split a set into primitives `project` accepts (rows become single rows)."""
    if isinstance(s, Intersection):
        out: List[FeasibleSet] = []
        for p in s.parts:
            out.extend(flatten_set(p))
        return out
    if isinstance(s, Halfspaces) and s.a.shape[0] > 1:
        return [Halfspaces(s.a[i : i + 1], s.b[i : i + 1]) for i in range(s.a.shape[0])]
    return [s]


def has_binary(s: FeasibleSet) -> bool:
    """True when s has a binary member, so its points are a lattice."""
    return any(isinstance(p, BinaryTiny) for p in flatten_set(s))


def as_polyhedron(s: FeasibleSet):
    """Polyhedral description (A, b, E, f, lo, hi) with A x <= b and E x = f.

    Raises UnsupportedSet for sets with no such description (BinaryTiny).
    """
    n = s.dim
    A = np.zeros((0, n))
    b = np.zeros(0)
    E = np.zeros((0, n))
    f = np.zeros(0)
    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)
    if isinstance(s, Box):
        return A, b, E, f, s.lower.copy(), s.upper.copy()
    if isinstance(s, Halfspaces):
        return s.a.copy(), s.b.copy(), E, f, lo, hi
    if isinstance(s, NonNegOrthant):
        return A, b, E, f, np.zeros(n), hi
    if isinstance(s, Simplex):
        return A, b, np.ones((1, n)), np.array([s.total]), np.zeros(n), hi
    if isinstance(s, AffineEqualities):
        return A, b, s.u.T.copy(), s.h.copy(), lo, hi
    if isinstance(s, Intersection):
        for p in s.parts:
            pA, pb, pE, pf, plo, phi = as_polyhedron(p)
            A = np.vstack([A, pA])
            b = np.concatenate([b, pb])
            E = np.vstack([E, pE])
            f = np.concatenate([f, pf])
            lo = np.maximum(lo, plo)
            hi = np.minimum(hi, phi)
        return A, b, E, f, lo, hi
    raise UnsupportedSet(f"no polyhedral description for {type(s).__name__}")


def dykstra_project(
    sets: Sequence[FeasibleSet],
    y,
    max_iter: int = 10_000,
    tol: float = 1e-9,
) -> np.ndarray:
    """Projection onto an intersection of primitive convex sets.

    Dykstra's alternating scheme with one correction term per set. Stops
    when a full sweep moves the iterate by at most tol (sup norm) and the
    point lies in every set. Raises NoConvergence (carrying the best
    iterate on `.best`) if the budget runs out.
    """
    pieces: List[FeasibleSet] = []
    for s in sets:
        pieces.extend(flatten_set(s))
    if not pieces:
        raise UnsupportedSet("dykstra_project: empty set list")
    x = np.asarray(y, dtype=float).copy()
    if len(pieces) == 1:
        return project(pieces[0], x)
    corrections = [np.zeros_like(x) for _ in pieces]
    for _ in range(max_iter):
        x_prev = x.copy()
        for i, piece in enumerate(pieces):
            z = x + corrections[i]
            x_new = project(piece, z)
            corrections[i] = z - x_new
            x = x_new
        if float(np.max(np.abs(x - x_prev))) <= tol and all(
            set_contains(p, x, 10 * tol) for p in pieces
        ):
            return x
    err = NoConvergence(f"dykstra_project: no convergence in {max_iter} sweeps")
    err.best = x
    raise err
