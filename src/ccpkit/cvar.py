"""Conditional-value-at-risk approximation of the chance constraint.

Replacing P{g > 0} <= eps by the convex tail condition

    min_{beta <= 0}  beta + (1/eps) E[(g - beta)_+]  <=  0

gives a conservative (upper-bounding) solvable program. With affine
scenario rows and a polyhedral X this is one linear program in
(x, w, beta); binary sets enumerate; everything else bisects the budget t
against the tail lower-level value.

`cvar_lower_value` is the t-parametric companion

    min { eps*beta + E[(g - beta)_+] : x in X, c'x <= t, beta <= 0 }

clamped at zero; on budgets below feasibility it coincides with the plain
hinge value because the optimal beta pins to the cap.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

import numpy as np

from .errors import BackendUnavailable, BadStart, Infeasible, NonFinite
from .geometry import as_polyhedron, flatten_set
from .lowerlevel import _norm_aux, affine_row_blocks, has_affine_rows, lattice_argmin
from .lp import LpProblem, solve_lp
from .model import (
    BinaryTiny,
    CcpInstance,
    NormAugmented,
    SolveReport,
    is_feasible,
    violation_probability,
)
from .search import bisect_from
from .subgrad import SgdConfig, feasible_start, solve_cvar_lower_sgd


def _tail_lp(instance: CcpInstance, t: Optional[float], relaxed: bool):
    """Shared LP in (x, w, beta).

    relaxed=False: min c'x subject to the tail condition (the upper bound).
    relaxed=True:  min eps*beta + p'w subject to c'x <= t (the lower level).
    """
    model = instance.constraints
    blocks = affine_row_blocks(model)
    if blocks is None:
        raise BackendUnavailable(f"cvar lp: {type(model).__name__} rows are not affine")
    n, N = instance.n, instance.scenario_count
    eps = instance.epsilon
    n_aux, aux_kind = _norm_aux(model)
    theta = model.theta if isinstance(model, NormAugmented) else 0.0
    xA, xb, xE, xf, lo_x, hi_x = as_polyhedron(instance.x_set)

    # columns: x | w (N) | beta | aux
    ncol = n + N + 1 + n_aux
    b_col = n + N
    rows = []
    rhs = []
    for k, (Rk, rk) in enumerate(blocks):
        for i in range(Rk.shape[0]):
            row = np.zeros(ncol)
            row[:n] = Rk[i]
            row[n + k] = -1.0
            row[b_col] = -1.0
            if aux_kind == "sum":
                row[b_col + 1 :] = theta
            elif aux_kind == "max":
                row[b_col + 1] = theta
            rows.append(row)
            rhs.append(float(rk[i]))
    if aux_kind != "none":
        for j in range(n):
            for sign in (1.0, -1.0):
                row = np.zeros(ncol)
                row[j] = sign
                row[b_col + 1 + (j if aux_kind == "sum" else 0)] = -1.0
                rows.append(row)
                rhs.append(0.0)
    if relaxed:
        if t is None or not np.isfinite(t):
            raise BadStart("cvar lower level needs a finite budget t")
        row = np.zeros(ncol)
        row[:n] = instance.cost
        rows.append(row)
        rhs.append(float(t))
    else:
        row = np.zeros(ncol)
        row[n : n + N] = instance.probabilities / eps
        row[b_col] = 1.0
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
    lo = np.concatenate([lo_x, np.zeros(N), [-np.inf], np.zeros(n_aux)])
    hi = np.concatenate([hi_x, np.full(N, np.inf), [0.0], np.full(n_aux, np.inf)])
    if relaxed:
        cost = np.concatenate([np.zeros(n), instance.probabilities, [eps], np.zeros(n_aux)])
    else:
        cost = np.concatenate([instance.cost, np.zeros(N + 1 + n_aux)])
    out = solve_lp(
        LpProblem(
            c=cost,
            A=np.array(rows),
            b=np.array(rhs),
            E=eq,
            f=eqrhs,
            lo=lo,
            hi=hi,
        )
    )
    return out, n


def _tail_values(instance: CcpInstance, losses: np.ndarray) -> np.ndarray:
    """min over beta <= 0 of beta + (1/eps) E[(g - beta)_+] for each row of
    a (B, N) block of scenario losses; the minimum sits at a loss or at 0."""
    p = instance.probabilities
    eps = instance.epsilon
    betas = np.concatenate([np.minimum(losses, 0.0), np.zeros((losses.shape[0], 1))], axis=1)
    best = np.full(losses.shape[0], np.inf)
    for beta in betas.T:
        tail = beta + (1.0 / eps) * np.sum(p * np.maximum(losses - beta[:, None], 0.0), axis=1)
        best = np.minimum(best, tail)
    return best


def _cvar_enum(instance: CcpInstance) -> tuple:
    def tail_cost(points, costs, losses):
        tail = _tail_values(instance, losses)
        return np.where(tail <= 1e-9 * (1.0 + np.abs(tail)), costs, np.inf)

    best = lattice_argmin(instance, tail_cost)
    if best is None:
        raise Infeasible("cvar: no binary point satisfies the tail condition")
    return (*best, 2**instance.n)


def cvar_solution(
    instance: CcpInstance,
    backend: str = "auto",
    sgd_config: Optional[SgdConfig] = None,
) -> SolveReport:
    """Minimize c'x under the tail condition; raises Infeasible when empty."""
    start = perf_counter()
    if any(isinstance(p, BinaryTiny) for p in flatten_set(instance.x_set)):
        value, x, iterations = _cvar_enum(instance)
    elif has_affine_rows(instance.constraints) and backend != "sgd":
        try:
            out, n = _tail_lp(instance, None, relaxed=False)
        except BackendUnavailable:
            out = None
        if out is not None:
            if out.status == "infeasible":
                raise Infeasible("cvar: the tail-constrained program is empty")
            if out.status != "optimal":
                raise NonFinite(f"cvar lp: unexpected status {out.status}")
            x = out.x[:n]
            value = float(out.value)
            iterations = out.pivots
        else:
            value, x, iterations = _cvar_bisect(instance, sgd_config)
    else:
        value, x, iterations = _cvar_bisect(instance, sgd_config)
    return SolveReport(
        method="cvar",
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


def _cvar_bisect(instance: CcpInstance, sgd_config: Optional[SgdConfig], width: float = 1e-6):
    """Budget bisection against the subgradient tail lower level."""
    cfg = sgd_config or SgdConfig()

    def accept(t: float):
        try:
            out = solve_cvar_lower_sgd(instance, t, None, None, cfg)
        except BadStart:
            return None
        return out.x if out.value <= 1e-6 else None

    t0 = float(instance.cost @ feasible_start(instance.x_set, instance.cost, np.inf))
    found = bisect_from(accept, t0, width)
    if found.witness is None:
        raise Infeasible("cvar: tail condition unreachable within the bracket search")
    return found.hi, found.witness, found.probes


def cvar_lower_value(
    instance: CcpInstance,
    t: float,
    sgd_config: Optional[SgdConfig] = None,
) -> float:
    """Tail lower-level value at budget t, clamped below at zero."""
    if any(isinstance(p, BinaryTiny) for p in flatten_set(instance.x_set)):
        cap = t + 1e-9 * (1.0 + abs(t))
        eps = instance.epsilon

        def tail(points, costs, losses):
            return np.where(costs <= cap, eps * _tail_values(instance, losses), np.inf)

        best = lattice_argmin(instance, tail)
        if best is None:
            raise BadStart(f"cvar lower level: no lattice point satisfies c'x <= {t}")
        return max(best[0], 0.0)
    if has_affine_rows(instance.constraints):
        try:
            out, _ = _tail_lp(instance, t, relaxed=True)
        except BackendUnavailable:
            out = None
        if out is not None:
            if out.status == "infeasible":
                raise BadStart(f"cvar lower level: S(t) is empty at t={t}")
            if out.status != "optimal":
                raise NonFinite(f"cvar lower lp: unexpected status {out.status}")
            return max(float(out.value), 0.0)
    res = solve_cvar_lower_sgd(instance, t, None, None, sgd_config or SgdConfig())
    return max(float(res.value), 0.0)
