"""Exact reference solver by scenario-subset enumeration.

A point is chance-feasible iff the scenarios it violates carry mass at
most eps, so the exact optimum is the cheapest min-cost solve over any
"kept" scenario set whose complement is droppable. Equiprobable masses
make the droppable sets exactly those of size floor(N eps); general
masses need the maximal droppable sets, enumerated by depth-first
search. Everything here is meant for desk-scale instances: the subset
count is capped and each inner solve is a full LP or subgradient run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Tuple

import numpy as np

from .covering import subset_min_cost
from .errors import CapExceeded, Infeasible, NonFinite, ValidationError
from .geometry import as_polyhedron, flatten_set
from .lowerlevel import lattice_argmin
from .lp import LpProblem, solve_lp
from .model import (
    BiAffineEquality,
    BinaryTiny,
    CcpInstance,
    SolveReport,
    is_feasible,
    violation_probability,
)
from .subgrad import SgdConfig


def exact_solve_binary(instance: CcpInstance) -> SolveReport:
    """Full lattice scan; first strict minimizer wins ties."""
    start = perf_counter()

    def feasible_cost(points, costs, losses):
        return np.where(is_feasible(instance, points), costs, np.inf)

    found = lattice_argmin(instance, feasible_cost)
    if found is None:
        raise Infeasible("no lattice point is chance-feasible")
    return _exact_report(instance, *found, 2**instance.n, start)


def _exact_report(instance, value, x, iterations, start) -> SolveReport:
    return SolveReport(
        method="oracle",
        t_star=value,
        x_star=x,
        objective=value,
        feasible=True,
        violation_prob=violation_probability(instance, x),
        iterations=iterations,
        lower_bound_used=value,
        upper_bound_used=value,
        wall_time=perf_counter() - start,
    )


def _maximal_droppable(p: np.ndarray, eps: float, cap: int) -> List[Tuple[int, ...]]:
    """All inclusion-maximal index sets with mass <= eps (ties allowed)."""
    n = len(p)
    tol = 1e-12
    out: List[Tuple[int, ...]] = []
    nodes = 0

    def rec(start: int, chosen: List[int], mass: float) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > cap or len(out) > cap:
            raise CapExceeded(f"droppable-set enumeration passed {cap} nodes")
        extended = False
        for k in range(start, n):
            if mass + p[k] <= eps + tol:
                extended = True
                chosen.append(k)
                rec(k + 1, chosen, mass + float(p[k]))
                chosen.pop()
        if extended:
            return
        inside = set(chosen)
        # indices skipped earlier must not fit either, else not maximal
        if any(k not in inside and mass + p[k] <= eps + tol for k in range(start)):
            return
        out.append(tuple(chosen))

    rec(0, [], 0.0)
    return out


def exact_solve(
    instance: CcpInstance,
    subset_cap: int = 200_000,
    sgd_config: Optional[SgdConfig] = None,
) -> SolveReport:
    """Exhaustive optimum over droppable scenario sets.

    Exact whenever the inner min-cost solves are (affine rows or a binary
    domain); inherits the ~1e-5 bisection accuracy otherwise. Subsets
    whose kept scenarios already force a cost at or above the incumbent
    are pruned using single-scenario bounds.
    """
    start = perf_counter()
    if any(isinstance(p, BinaryTiny) for p in flatten_set(instance.x_set)):
        return exact_solve_binary(instance)
    N = instance.scenario_count
    if instance.equiprobable:
        m = int(np.floor(N * instance.epsilon + 1e-12))
        if math.comb(N, m) > subset_cap:
            raise CapExceeded(f"{math.comb(N, m)} droppable sets exceed cap {subset_cap}")
        drops = sorted(itertools.combinations(range(N), m), key=lambda s: tuple(reversed(s)))
    else:
        drops = _maximal_droppable(instance.probabilities, instance.epsilon, subset_cap)
    h = np.array([subset_min_cost(instance, [k], sgd_config) for k in range(N)])
    order = np.argsort(-h, kind="stable")
    best = np.inf
    best_x = None
    solves = 0
    for drop in drops:
        dropped = set(drop)
        bound = next((float(h[k]) for k in order if k not in dropped), -np.inf)
        if bound >= best:
            continue
        keep = [k for k in range(N) if k not in dropped]
        val, x = subset_min_cost(instance, keep, sgd_config, with_point=True)
        solves += 1
        if val == -np.inf:
            raise NonFinite("exact solve: objective unbounded below on a kept set")
        if val < best - 1e-15:
            best, best_x = val, x
    if best_x is None:
        raise Infeasible("every droppable scenario set leaves an unsatisfiable core")
    return _exact_report(instance, best, best_x, solves, start)


# ---------------------------------------------------------------------------
# exactness certificate for the equality scenario model


@dataclass(frozen=True)
class NullspaceVerdict:
    status: str                    # "holds" | "violated" | "cap_exceeded"
    lps_solved: int
    witness: Optional[dict] = None

    @property
    def holds(self) -> bool:
        return self.status == "holds"


def check_nullspace_property(
    instance: CcpInstance,
    lp_budget: int = 200_000,
) -> NullspaceVerdict:
    """Concentration test for homogeneous slacks of the equality model.

    Over directions x with c'x = 0 (and any equality rows of X kept
    homogeneous), normalize the signed slack mass sum_i sgn_i d_i'x to one
    with every signed slack nonnegative, then maximize the share carried
    by a small index set S with |S| <= floor(eps N). The property holds
    when no pattern lets such a set carry half the mass or more; the
    hinge scheme is then exact for this instance family.
    """
    model = instance.constraints
    if not isinstance(model, BiAffineEquality):
        raise ValidationError("nullspace check applies to the equality scenario model")
    if not instance.equiprobable:
        raise ValidationError("nullspace check needs equiprobable scenarios")
    N = instance.scenario_count
    n = instance.n
    m_max = int(np.floor(N * instance.epsilon + 1e-12))
    if m_max == 0:
        return NullspaceVerdict(status="holds", lps_solved=0)
    subsets = [
        s for size in range(1, m_max + 1) for s in itertools.combinations(range(N), size)
    ]
    total = len(subsets) * 2 ** N
    if total > lp_budget:
        return NullspaceVerdict(status="cap_exceeded", lps_solved=0)
    d = model.d
    _, _, xE, _, _, _ = as_polyhedron(instance.x_set)
    eq_rows = [instance.cost]
    if xE.shape[0]:
        eq_rows.extend(xE)              # homogeneous: directions, not points
    solved = 0
    for signs in itertools.product((1.0, -1.0), repeat=N):
        sg = np.array(signs)
        signed = sg[:, None] * d        # rows sgn_i d_i
        E = np.vstack(eq_rows + [signed.sum(axis=0)])
        f = np.zeros(E.shape[0])
        f[-1] = 1.0                     # total signed slack mass fixed to one
        for subset in subsets:
            obj = -signed[list(subset)].sum(axis=0)
            out = solve_lp(
                LpProblem(
                    c=obj,
                    A=-signed,
                    b=np.zeros(N),
                    E=E,
                    f=f,
                    lo=np.full(n, -np.inf),
                    hi=np.full(n, np.inf),
                )
            )
            solved += 1
            if out.status == "optimal" and -out.value >= 0.5 - 1e-9:
                witness = {
                    "subset": tuple(subset),
                    "signs": tuple(float(s) for s in sg),
                    "share": float(-out.value),
                    "x": [float(v) for v in out.x],
                }
                return NullspaceVerdict(status="violated", lps_solved=solved, witness=witness)
    return NullspaceVerdict(status="holds", lps_solved=solved)
