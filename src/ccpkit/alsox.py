"""Budget bisection that accepts hinge minimizers by their violation mass.

The bracket runs from the scenario-quantile lower bound up to the cost of a
chance-feasible incumbent: the tail (cvar) point, the relax-and-scale point
on equiprobable covering instances, or, when the tail program is empty, the
first budget whose hinge minimizer passes the violation check. Only accepted
probe minimizers replace the incumbent, so the reported objective never
exceeds the bound provider's value.
"""

from __future__ import annotations

from functools import partial
from time import perf_counter
from typing import Optional, Tuple

import numpy as np

from .covering import quantile_lower_bound, relax_and_scale
from .cvar import cvar_solution
from .errors import (
    BadStart,
    Infeasible,
    NoFeasibleT,
    NonFinite,
    UnsupportedSet,
    ValidationError,
)
from .lowerlevel import solve_lower_level
from .model import CcpInstance, Covering, SolveReport, is_feasible, violation_probability
from .search import bisect_budget
from .subgrad import SgdConfig


def bounds_with_anchor(
    instance: CcpInstance,
    sgd_config: Optional[SgdConfig] = None,
    backend: str = "auto",
) -> Tuple[float, float, np.ndarray]:
    """(t_low, t_up, incumbent) with the incumbent chance-feasible at cost t_up."""
    t_low = quantile_lower_bound(instance, sgd_config)
    if t_low == np.inf:
        raise NoFeasibleT("a scenario inside the required mass cannot be satisfied")
    anchor = None
    if isinstance(instance.constraints, Covering) and instance.equiprobable:
        try:
            rep = relax_and_scale(instance)
            anchor = (rep.objective, rep.x_star)
        except (Infeasible, ValidationError, UnsupportedSet, NonFinite):
            anchor = None
    if anchor is None:
        try:
            rep = cvar_solution(instance, sgd_config=sgd_config)
            anchor = (rep.objective, rep.x_star)
        except Infeasible:
            anchor = _anchor_by_search(instance, t_low, backend, sgd_config)
    return t_low, float(anchor[0]), anchor[1]


def _anchor_by_search(instance, t_low, backend, sgd_config):
    base = t_low if np.isfinite(t_low) else 0.0
    accept = partial(_accepted, instance, backend, sgd_config, None)
    found = bisect_budget(accept, base, np.inf, tol=np.inf, step=max(1.0, abs(base) / 2.0))
    if found.witness is None:
        raise NoFeasibleT("no budget produced a chance-feasible hinge minimizer")
    return float(instance.cost @ found.witness), found.witness


def _accepted(instance, backend, sgd_config, rescue, t) -> Optional[np.ndarray]:
    """The hinge minimizer at budget t if it is chance-feasible, else what
    rescue(t, minimizer) returns, if a rescue is given; None when S(t) is empty."""
    try:
        sol = solve_lower_level(instance, t, None, backend=backend, sgd_config=sgd_config)
    except BadStart:
        return None
    if is_feasible(instance, sol.x):
        return sol.x
    return None if rescue is None else rescue(t, sol)


def _bisect(instance, method, delta1, backend, sgd_config, max_bisections, rescue=None):
    """The scheme of also_x, and of also_x_plus when given its rescue."""
    start = perf_counter()
    t_low, t_up, incumbent = bounds_with_anchor(instance, sgd_config, backend)
    accept = partial(_accepted, instance, backend, sgd_config, rescue)
    found = bisect_budget(accept, t_low, t_up, delta1, max(1.0, abs(t_up)), max_bisections)
    if found.witness is not None:
        incumbent = found.witness
    return SolveReport(
        method=method,
        t_star=found.hi,
        x_star=incumbent,
        objective=float(instance.cost @ incumbent),
        feasible=is_feasible(instance, incumbent),
        violation_prob=violation_probability(instance, incumbent),
        iterations=found.probes,
        lower_bound_used=found.marched[0],
        upper_bound_used=t_up,
        wall_time=perf_counter() - start,
    )


def also_x(
    instance: CcpInstance,
    delta1: float = 1e-2,
    backend: str = "auto",
    sgd_config: Optional[SgdConfig] = None,
    max_bisections: int = 200,
) -> SolveReport:
    """Bisect the budget, accepting chance-feasible hinge minimizers."""
    return _bisect(instance, "alsox", delta1, backend, sgd_config, max_bisections)
