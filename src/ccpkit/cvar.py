"""Conditional-value-at-risk approximation of the chance constraint.

Replacing P{g > 0} <= eps by the convex tail condition

    min_{beta <= 0}  beta + (1/eps) E[(g - beta)_+]  <=  0

gives a conservative (upper-bounding) solvable program. Which solver
runs is lowerlevel.engine's rule: on the lp engine (affine rows over a
polyhedral X, no ball or a 1-norm or sup-norm ball) it is one linear
program in (x, w, beta); on a binary X the lattice is enumerated; on the
sgd engine, or when a caller passes backend="sgd" where the LP builds,
the budget t is bisected against the subgradient tail lower level.

`cvar_lower_value` is the t-parametric companion

    min { eps*beta + E[(g - beta)_+] : x in X, c'x <= t, beta <= 0 }

clamped at zero; on budgets below feasibility it coincides with the plain
hinge value because the optimal beta pins to the cap.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

import numpy as np

from .errors import BadStart, Infeasible, NonFinite
from .lowerlevel import Lattice, _scenario_lp, _slack_rows, engine, lattice_argmin
from .lp import LpProblem, solve_lp
from .model import CcpInstance, SolveReport, is_feasible, violation_probability
from .search import bisect_from
from .subgrad import SgdConfig, feasible_start, solve_cvar_lower_sgd


def _tail_problem(instance: CcpInstance, t: Optional[float], relaxed: bool) -> LpProblem:
    """Shared LP in (x, w, beta, aux): lowerlevel._scenario_lp with the
    rows R_k[i] x - w_k - beta + theta * aux <= r_k[i], w >= 0, beta <= 0.

    relaxed=False: min c'x subject to the tail row (the upper bound).
    relaxed=True:  min eps*beta + p'w subject to c'x <= t (the lower level).
    """
    slacks = _slack_rows(instance)
    n, N, p, eps = instance.n, instance.scenario_count, instance.probabilities, instance.epsilon
    if relaxed and (t is None or not np.isfinite(t)):
        raise BadStart("cvar lower level needs a finite budget t")
    limit = instance.cost if relaxed else np.concatenate([np.zeros(n), p / eps, [1.0]])
    return _scenario_lp(
        instance,
        x_cost=None if relaxed else instance.cost,
        y_rows=np.hstack([slacks, np.full((slacks.shape[0], 1), -1.0)]),
        y_cost=np.concatenate([p, [eps]]) if relaxed else None,
        y_lo=np.concatenate([np.zeros(N), [-np.inf]]),
        y_hi=np.concatenate([np.full(N, np.inf), [0.0]]),
        extra=limit[None, :],
        extra_rhs=[t if relaxed else 0.0],
    )


def _tail_values(instance: CcpInstance, losses: np.ndarray) -> np.ndarray:
    """min over beta <= 0 of beta + (1/eps) E[(g - beta)_+] for each row of
    a (B, N) block of scenario losses.

    In beta the tail is convex and piecewise linear, with a breakpoint at
    each loss; its slope is 1 - (1/eps) P{g > beta}, so it is smallest at the
    largest loss whose mass at or above it reaches eps (Rockafellar and
    Uryasev 2000), and on the whole segment below that loss when the mass
    there is exactly eps. The expression is evaluated at 0 for every row in
    one pass. A row's sort finds that loss, at position `at` in descending
    order, and the expression is also evaluated there and at its neighbours
    in sorted order (the other end of a flat segment, or the breakpoint
    rounding in the cumulative mass may have passed over), each capped at 0.

    Only the rows that can need it are sorted. The m + 1 largest losses hold
    mass at least (m + 1) min p, which is eps + min p or more for
    m = ceil(eps / min p): a margin that no rounding of the cumulative mass
    closes, so `at` <= m. A row with K = min(N, m + 2) or more nonnegative
    losses thus has all three sorted candidates capped to 0, and its tail is
    the value at 0, bit for bit. K = N when eps / min p is not below N,
    which includes min p = 0.
    """
    p = instance.probabilities
    eps = instance.epsilon
    B, N = losses.shape

    def tail(beta, block):
        return beta + (1.0 / eps) * np.sum(p * np.maximum(block - beta[:, None], 0.0), axis=1)

    best = tail(np.zeros(B), losses)
    K = min(N, int(np.ceil(eps / p.min())) + 2) if eps < N * p.min() else N
    rows = np.flatnonzero(np.count_nonzero(losses >= 0.0, axis=1) < K)
    few = losses[rows]
    order = np.argsort(-few, axis=1, kind="stable")
    ranked = np.take_along_axis(few, order, axis=1)
    at = np.minimum(np.sum(np.cumsum(p[order], axis=1) < eps, axis=1), N - 1)
    near = np.clip(at[:, None] + np.arange(-1, 2), 0, N - 1)
    kept = best[rows]
    for beta in np.minimum(np.take_along_axis(ranked, near, axis=1), 0.0).T:
        kept = np.minimum(kept, tail(beta, few))
    best[rows] = kept
    return best


def _cvar_enum(instance: CcpInstance, start=None) -> tuple:
    def tail_cost(points, costs, losses):
        tail = _tail_values(instance, losses)
        return np.where(tail <= 1e-9 * (1.0 + np.abs(tail)), costs, np.inf)

    best = lattice_argmin(Lattice.of(instance, start), tail_cost)
    if best is None:
        raise Infeasible("cvar: no binary point satisfies the tail condition")
    return (*best, 2**instance.n)


def _cvar_lp(instance: CcpInstance) -> tuple:
    """(value, x, pivots) of the tail-constrained LP."""
    out = solve_lp(_tail_problem(instance, None, relaxed=False))
    if out.status == "infeasible":
        raise Infeasible("cvar: the tail-constrained program is empty")
    if out.status != "optimal":
        raise NonFinite(f"cvar lp: unexpected status {out.status}")
    return float(out.value), out.x[: instance.n], out.pivots


def cvar_solution(
    instance: CcpInstance,
    backend: str = "auto",
    sgd_config: Optional[SgdConfig] = None,
    *,
    start=None,
) -> SolveReport:
    """Minimize c'x under the tail condition; raises Infeasible when empty.

    backend: lowerlevel.engine's; one the instance cannot take raises
    BackendUnavailable before any solve. start: a budget search's start;
    on a binary X the enumeration scans it when it is a lowerlevel.Lattice
    of this instance (`is`), and a new Lattice otherwise.
    """
    begin = perf_counter()
    kind = engine(instance, backend)
    if kind == "enum":
        value, x, iterations = _cvar_enum(instance, start)
    elif kind == "lp":
        value, x, iterations = _cvar_lp(instance)
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
        wall_time=perf_counter() - begin,
    )


def _cvar_bisect(instance: CcpInstance, sgd_config: Optional[SgdConfig]):
    """Budget bisection against the subgradient tail lower level."""
    cfg = sgd_config or SgdConfig()

    def accept(t: float):
        try:
            out = solve_cvar_lower_sgd(instance, t, cfg)
        except BadStart:
            return None
        return out.x if out.value <= 1e-6 else None

    t0 = float(instance.cost @ feasible_start(instance.x_set, instance.cost, np.inf))
    found = bisect_from(accept, t0, 1e-6)
    if found.witness is None:
        raise Infeasible("cvar: tail condition unreachable within the bracket search")
    return found.hi, found.witness, found.probes


def cvar_lower_value(
    instance: CcpInstance,
    t: float,
    sgd_config: Optional[SgdConfig] = None,
) -> float:
    """Tail lower-level value at budget t, clamped below at zero, on the
    instance's engine (lowerlevel.engine)."""
    kind = engine(instance)
    if kind == "enum":
        cap = t + 1e-9 * (1.0 + abs(t))
        eps = instance.epsilon

        def tail(points, costs, losses):
            return np.where(costs <= cap, eps * _tail_values(instance, losses), np.inf)

        best = lattice_argmin(Lattice(instance), tail)
        if best is None:
            raise BadStart(f"cvar lower level: no lattice point satisfies c'x <= {t}")
        return max(best[0], 0.0)
    if kind == "sgd":
        return max(float(solve_cvar_lower_sgd(instance, t, sgd_config or SgdConfig()).value), 0.0)
    out = solve_lp(_tail_problem(instance, t, relaxed=True))
    if out.status == "infeasible":
        raise BadStart(f"cvar lower level: S(t) is empty at t={t}")
    if out.status != "optimal":
        raise NonFinite(f"cvar lower lp: unexpected status {out.status}")
    return max(float(out.value), 0.0)
