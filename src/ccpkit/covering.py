"""Covering-specific machinery and scenario-subset cost bounds.

For covering constraints (A_k x >= 1 rows, A_k >= 0) with equiprobable
scenarios, the continuous relaxation replaces the chance constraint by a
budget of floor(N eps) fractional row violations; scaling its minimizer by
floor(N eps) + 1 restores chance feasibility on the nonnegative orthant and
multiplies the cost by at most that factor.

`quantile_lower_bound` works for every constraint model: h_k is the cost of
satisfying scenario k alone, and any chance-feasible point must pay at least
the value at the (1-eps) quantile of the h distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Optional

import numpy as np

from .errors import BackendUnavailable, BadStart, Infeasible, NonFinite, ValidationError
from .geometry import as_polyhedron, dykstra_project, flatten_set
from .lowerlevel import _norm_aux, affine_row_blocks, has_affine_rows, lattice_argmin
from .lp import LpProblem, solve_lp
from .model import (
    BinaryTiny,
    CcpInstance,
    Covering,
    L1,
    LInf,
    NormAugmented,
    SolveReport,
    default_zero_tol,
    is_feasible,
    set_contains,
    violation_probability,
)
from .search import bisect_budget
from .subgrad import SgdConfig, solve_hinge_sgd


@dataclass(frozen=True, eq=False)
class RelaxationResult:
    value: float
    x: np.ndarray
    s: np.ndarray          # fractional row-violation budget per scenario
    iterations: int


def covering_relaxation(instance: CcpInstance) -> RelaxationResult:
    """LP relaxation: min c'x with at most floor(N eps) fractional misses."""
    model = instance.constraints
    if not isinstance(model, Covering):
        raise ValidationError("covering relaxation: needs a covering constraint model")
    if not instance.equiprobable:
        raise ValidationError("covering relaxation: scenarios must be equiprobable")
    n, N = instance.n, instance.scenario_count
    budget = float(np.floor(N * instance.epsilon))
    xA, xb, xE, xf, lo_x, hi_x = as_polyhedron(instance.x_set)

    ncol = n + N
    rows = []
    rhs = []
    for k in range(N):
        Ak = model.mats[k]
        for i in range(Ak.shape[0]):
            row = np.zeros(ncol)
            row[:n] = -Ak[i]
            row[n + k] = -1.0
            rows.append(row)
            rhs.append(-1.0)
    row = np.zeros(ncol)
    row[n:] = 1.0
    rows.append(row)
    rhs.append(budget)
    for i in range(xA.shape[0]):
        row = np.zeros(ncol)
        row[:n] = xA[i]
        rows.append(row)
        rhs.append(float(xb[i]))
    eq = None
    eqrhs = None
    if xE.shape[0]:
        eq = np.zeros((xE.shape[0], ncol))
        eq[:, :n] = xE
        eqrhs = xf
    lo = np.concatenate([np.maximum(lo_x, 0.0), np.zeros(N)])
    hi = np.concatenate([hi_x, np.ones(N)])
    out = solve_lp(
        LpProblem(
            c=np.concatenate([instance.cost, np.zeros(N)]),
            A=np.array(rows),
            b=np.array(rhs),
            E=eq,
            f=eqrhs,
            lo=lo,
            hi=hi,
        )
    )
    if out.status == "infeasible":
        raise Infeasible("covering relaxation: no fractional covering exists")
    if out.status != "optimal":
        raise NonFinite(f"covering relaxation: unexpected status {out.status}")
    return RelaxationResult(
        value=float(out.value),
        x=out.x[:n],
        s=out.x[n:],
        iterations=out.pivots,
    )


def relax_and_scale(instance: CcpInstance) -> SolveReport:
    """Scale the relaxation minimizer by floor(N eps) + 1 and certify it."""
    start = perf_counter()
    rel = covering_relaxation(instance)
    scale = float(np.floor(instance.scenario_count * instance.epsilon)) + 1.0
    x = scale * rel.x
    if not set_contains(instance.x_set, x):
        x = dykstra_project(list(flatten_set(instance.x_set)), x)
    if not is_feasible(instance, x):
        raise Infeasible("relax-and-scale: scaled point failed the chance constraint")
    value = float(instance.cost @ x)
    return SolveReport(
        method="relax_and_scale",
        t_star=value,
        x_star=x,
        objective=value,
        feasible=True,
        violation_prob=violation_probability(instance, x),
        iterations=rel.iterations,
        lower_bound_used=rel.value,
        upper_bound_used=value,
        wall_time=perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# single-scenario and subset costs


def _subset_min_cost_lp(instance: CcpInstance, keep: Iterable[int]):
    model = instance.constraints
    blocks = affine_row_blocks(model, keep)
    n = instance.n
    n_aux, aux_kind = _norm_aux(model)
    theta = model.theta if isinstance(model, NormAugmented) else 0.0
    xA, xb, xE, xf, lo_x, hi_x = as_polyhedron(instance.x_set)
    ncol = n + n_aux
    rows = []
    rhs = []
    for Rk, rk in blocks:
        for i in range(Rk.shape[0]):
            row = np.zeros(ncol)
            row[:n] = Rk[i]
            if aux_kind == "sum":
                row[n:] = theta
            elif aux_kind == "max":
                row[n] = theta
            rows.append(row)
            rhs.append(float(rk[i]))
    if aux_kind != "none":
        for j in range(n):
            for sign in (1.0, -1.0):
                row = np.zeros(ncol)
                row[j] = sign
                row[n + (j if aux_kind == "sum" else 0)] = -1.0
                rows.append(row)
                rhs.append(0.0)
    for i in range(xA.shape[0]):
        row = np.zeros(ncol)
        row[:n] = xA[i]
        rows.append(row)
        rhs.append(float(xb[i]))
    eq = None
    eqrhs = None
    if xE.shape[0]:
        eq = np.zeros((xE.shape[0], ncol))
        eq[:, :n] = xE
        eqrhs = xf
    out = solve_lp(
        LpProblem(
            c=np.concatenate([instance.cost, np.zeros(n_aux)]),
            A=np.array(rows) if rows else None,
            b=np.array(rhs) if rhs else None,
            E=eq,
            f=eqrhs,
            lo=np.concatenate([lo_x, np.zeros(n_aux)]),
            hi=np.concatenate([hi_x, np.full(n_aux, np.inf)]),
        )
    )
    if out.status == "infeasible":
        return np.inf, None
    if out.status == "unbounded":
        return -np.inf, None
    return float(out.value), np.array(out.x[:n])


def _subset_min_cost_enum(instance: CcpInstance, keep: Iterable[int]):
    keep = list(keep)
    tol = default_zero_tol(instance)

    def kept_cost(points, costs, losses):
        return np.where(np.all(losses[:, keep] <= tol, axis=1), costs, np.inf)

    return lattice_argmin(instance, kept_cost) or (np.inf, None)


def _subset_min_cost_sgd(
    instance: CcpInstance,
    keep: Iterable[int],
    sgd_config: Optional[SgdConfig],
):
    keep = list(keep)
    cfg = sgd_config or SgdConfig(max_iter=20_000)
    z = np.zeros(instance.scenario_count)
    z[keep] = 1.0
    # feasibility phase: can the kept scenarios be satisfied inside X at all?
    feas = solve_hinge_sgd(instance, np.inf, z, None, cfg)
    if feas.value > 1e-6:
        return np.inf, None

    def satisfiable(t: float):
        try:
            sol = solve_hinge_sgd(instance, t, z, None, cfg)
        except BadStart:
            return None
        return sol.x if sol.value <= 1e-8 else None

    t_hi = float(instance.cost @ feas.x)
    found = bisect_budget(satisfiable, -np.inf, t_hi, 1e-5, max(1.0, abs(t_hi) / 2.0))
    if found.lo == -np.inf:
        return -np.inf, None
    return found.hi, feas.x if found.witness is None else found.witness


def subset_min_cost(
    instance: CcpInstance,
    keep: Iterable[int],
    sgd_config: Optional[SgdConfig] = None,
    with_point: bool = False,
):
    """min c'x over x in X with g(x, xi^k) <= 0 for every kept k; inf if none.

    Exact for affine rows over polyhedral or binary sets; for other models
    a feasibility-then-bisection subgradient search returns the cost to
    about 1e-5. With with_point=True returns (value, x) where x is None
    whenever the value is not finite.
    """
    keep = list(keep)
    if any(isinstance(p, BinaryTiny) for p in flatten_set(instance.x_set)):
        pair = _subset_min_cost_enum(instance, keep)
        return pair if with_point else pair[0]
    model = instance.constraints
    linearizable = has_affine_rows(model) and not (
        isinstance(model, NormAugmented)
        and model.theta > 0.0
        and not isinstance(model.norm, (L1, LInf))
    )
    pair = None
    if linearizable:
        try:
            pair = _subset_min_cost_lp(instance, keep)
        except BackendUnavailable:
            pair = None
    if pair is None:
        pair = _subset_min_cost_sgd(instance, keep, sgd_config)
    return pair if with_point else pair[0]


def quantile_lower_bound(
    instance: CcpInstance,
    sgd_config: Optional[SgdConfig] = None,
) -> float:
    """Largest single-scenario cost inside the smallest (1-eps) mass prefix.

    Sort the per-scenario costs h_k ascending and accumulate probability
    until it reaches 1 - eps; every chance-feasible point must satisfy some
    scenario at least that expensive, so the prefix maximum bounds v* from
    below. Returns +inf when the required prefix contains an unsatisfiable
    scenario.
    """
    h = np.array(
        [subset_min_cost(instance, [k], sgd_config) for k in range(instance.scenario_count)]
    )
    order = np.argsort(h, kind="stable")
    mass = 0.0
    for k in order:
        mass += float(instance.probabilities[k])
        if mass >= 1.0 - instance.epsilon - 1e-12:
            return float(h[k])
    return float(h[order[-1]])
