"""Dykstra projection onto an intersection of convex sets.

Each feasible set projects exactly onto itself (`project`) where it has a
closed form. An intersection, or a multi-row halfspace system, is split into
such primitives (`pieces`), and `dykstra_project` converges to the exact
projection onto their intersection.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .errors import NoConvergence, UnsupportedSet
from .model import FeasibleSet

__all__ = ["dykstra_project"]


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
        pieces.extend(s.pieces())
    if not pieces:
        raise UnsupportedSet("dykstra_project: empty set list")
    x = np.asarray(y, dtype=float).copy()
    if len(pieces) == 1:
        return pieces[0].project(x)
    corrections = [np.zeros_like(x) for _ in pieces]
    for _ in range(max_iter):
        x_prev = x.copy()
        for i, piece in enumerate(pieces):
            z = x + corrections[i]
            x_new = piece.project(z)
            corrections[i] = z - x_new
            x = x_new
        if float(np.max(np.abs(x - x_prev))) <= tol and all(
            p.contains(x, 10 * tol) for p in pieces
        ):
            return x
    err = NoConvergence(f"dykstra_project: no convergence in {max_iter} sweeps")
    err.best = x
    raise err
