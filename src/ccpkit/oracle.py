"""Exact reference solver by branching on scenarios.

A point is chance-feasible iff the scenarios it violates carry mass at
most eps, so the exact optimum is the cheapest min-cost solve over any
"kept" scenario set whose complement is droppable. exact_solve finds it
by a depth-first search that keeps or drops one violated scenario per
branch. Each subset program is one LP on affine rows, derived from one
SubsetChain and warm from the last optimal basis when every scenario row
has a finite maximum over X's bounds, cold otherwise; the sgd engine runs
a subgradient search (lowerlevel.engine). A binary X takes a lattice scan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Tuple

import numpy as np

from .covering import SubsetChain, subset_min_cost
from .errors import CapExceeded, Infeasible, NonFinite, ValidationError
from .lowerlevel import Lattice, engine, lattice_argmin
from .lp import LpProblem, solve_lp
from .model import (
    _FEAS_TOL,
    BiAffineEquality,
    CcpInstance,
    SolveReport,
    default_zero_tol,
    is_feasible,
    scenario_losses,
    violation_probability,
)
from .subgrad import SgdConfig


def exact_solve_binary(instance: CcpInstance) -> SolveReport:
    """Full lattice scan; first strict minimizer wins ties."""
    start = perf_counter()

    def feasible_cost(points, costs, losses):
        return np.where(is_feasible(instance, points), costs, np.inf)

    found = lattice_argmin(Lattice(instance), feasible_cost)
    if found is None:
        raise Infeasible("no lattice point is chance-feasible")
    return _exact_report(instance, *found, 2**instance.n, start)


def _exact_report(instance, value, x, iterations, start) -> SolveReport:
    return SolveReport(
        method="oracle",
        t_star=value,
        x_star=x,
        objective=value,
        feasible=is_feasible(instance, x),
        violation_prob=violation_probability(instance, x),
        iterations=iterations,
        lower_bound_used=value,
        upper_bound_used=value,
        wall_time=perf_counter() - start,
    )


def exact_solve(
    instance: CcpInstance,
    subset_cap: int = 200_000,
    sgd_config: Optional[SgdConfig] = None,
) -> SolveReport:
    """The optimum by depth-first branching on scenarios.

    A node keeps a scenario set F and drops a set D of mass at most eps
    (+ _FEAS_TOL), from F = D = {} at the root. It solves subset_min_cost
    over F (one SubsetChain per search) and is pruned when that is +inf or
    not below the incumbent by more than 1e-15. If the scenarios outside F
    that its minimizer violates carry mass at most eps, the minimizer is
    the incumbent. Else it pushes (F + k, D) for the most violated k
    outside F and D (lowest index on ties), and while D + k fits, drops k
    at the same node (same minimizer) and branches on the next. An optimum
    violates no scenario of F and all of D along one path, so the search is
    exact whenever the subset solves are (kept scenarios are trusted to
    their accuracy). A node unbounded below branches on the scenarios
    outside F and D by index, and raises NonFinite when the mass outside F
    is droppable. iterations counts the subset solves; CapExceeded past
    subset_cap of them. A binary X takes exact_solve_binary's lattice scan.
    """
    start = perf_counter()
    if engine(instance) == "enum":
        return exact_solve_binary(instance)
    p = instance.probabilities
    room = instance.epsilon + _FEAS_TOL
    tol = default_zero_tol(instance)
    chain = SubsetChain(instance)
    best, best_x, solves = np.inf, None, 0
    stack: List[Tuple[List[int], List[int]]] = [([], [])]
    while stack:
        kept, dropped = stack.pop()
        if solves == subset_cap:
            raise CapExceeded(f"scenario branching passed {subset_cap} subset solves")
        val, x = subset_min_cost(instance, kept, sgd_config, with_point=True, chain=chain)
        solves += 1
        # a node must beat best by more than 1e-15 to be kept or replace it,
        # so which nodes are solved does not hang on the last bit of an LP value
        if not val < best - 1e-15:
            continue
        # an unbounded node has no minimizer: every scenario outside F counts
        loss = np.full(p.size, np.inf) if x is None else scenario_losses(instance, x)
        loss[kept] = -np.inf
        violated = np.flatnonzero(loss > tol)
        if p[violated].sum() <= room:
            if x is None:
                raise NonFinite("exact solve: objective unbounded below on a kept set")
            best, best_x = val, x
            continue
        order = violated[np.argsort(-loss[violated], kind="stable")]
        mass = p[dropped].sum()
        for k in order[~np.isin(order, dropped)]:
            stack.append((sorted(kept + [int(k)]), dropped))
            if mass + p[k] > room:
                break
            dropped, mass = dropped + [int(k)], mass + p[k]
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
    _, _, xE, _, _, _ = instance.x_set.polyhedron()
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
        # only the cost changes between the subsets of one sign pattern, so
        # each subset's LP is derived from the pattern's and re-prices the
        # last optimal basis
        pattern = LpProblem(c=np.zeros(n), A=-signed, b=np.zeros(N), E=E, f=f,
                            lo=np.full(n, -np.inf), hi=np.full(n, np.inf))
        start = None
        for subset in subsets:
            out = solve_lp(pattern.derive(c=-signed[list(subset)].sum(axis=0)), start=start)
            solved += 1
            if out.status == "optimal":
                start = out
            if out.status == "optimal" and -out.value >= 0.5 - 1e-9:
                witness = {
                    "subset": tuple(subset),
                    "signs": tuple(float(s) for s in sg),
                    "share": float(-out.value),
                    "x": [float(v) for v in out.x],
                }
                return NullspaceVerdict(status="violated", lps_solved=solved, witness=witness)
    return NullspaceVerdict(status="holds", lps_solved=solved)
