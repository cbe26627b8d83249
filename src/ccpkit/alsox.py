"""Budget bisection that accepts hinge minimizers by their violation mass.

The bracket runs from the scenario-quantile lower bound up to the cost of a
chance-feasible incumbent: the tail (cvar) point, the relax-and-scale point
on equiprobable covering instances, or, when the tail program is empty, the
first budget whose hinge minimizer passes the violation check. Only accepted
probe minimizers replace the incumbent, so the reported objective never
exceeds the bound provider's value.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional, Tuple

import numpy as np

from .covering import quantile_lower_bound, relax_and_scale
from .cvar import cvar_solution
from .errors import BadStart, Infeasible, NoFeasibleT, NonFinite, ValidationError
from .lowerlevel import Lattice, engine, hinge_start, pick_backend, solve_lower_level
from .model import CcpInstance, Covering, SolveReport, is_feasible, violation_probability
from .search import bisect_budget
from .subgrad import SgdConfig

# a safety cap on the probes of one budget bisection; a delta1 above the
# budgets' float spacing ends every search long before it
_MAX_BISECTIONS = 200

class _Acceptor:
    """accept(t) for one budget search: the hinge minimizer at budget t if it
    is chance-feasible, else what rescue(t, minimizer) returns, if a rescue
    is given; None when S(t) is empty. Only t moves from one probe to the
    next, so each probe starts from the last solved one's `start`: the LP
    derived from the last one and re-solved from its basis, or the search's
    Lattice and its one hinge column at the probes' weights. The backend
    is resolved here, before any bound (lowerlevel.engine), so a backend
    the instance cannot take raises BackendUnavailable at once, and so is
    the search's start: on the lp backend the hinge LP; on the enum
    backend the instance's lowerlevel.Lattice, which bounds_with_anchor
    hands to the quantile bound and the CVaR anchor."""

    def __init__(self, instance, backend, sgd_config, rescue=None):
        kind = pick_backend(instance) if backend == "auto" else engine(instance, backend)
        self.instance, self.backend, self.sgd_config = instance, kind, sgd_config
        self.rescue = rescue
        self.start = None
        if kind == "lp":
            self.start = hinge_start(instance)
        elif kind == "enum":
            self.start = Lattice(instance)

    def __call__(self, t) -> Optional[np.ndarray]:
        return self.probe(t, self.rescue)

    def probe(self, t, rescue=None) -> Optional[np.ndarray]:
        """The hinge minimizer at t if it is chance-feasible, else
        rescue(t, minimizer) if a rescue is given; None when S(t) is empty."""
        try:
            sol = solve_lower_level(
                self.instance, t, None, backend=self.backend, sgd_config=self.sgd_config,
                start=self.start,
            )
        except BadStart:
            return None
        self.start = sol.start
        if is_feasible(self.instance, sol.x):
            return sol.x
        return None if rescue is None else rescue(t, sol)


def bounds_with_anchor(
    instance: CcpInstance,
    sgd_config: Optional[SgdConfig] = None,
    backend: str = "auto",
    *,
    accept: Optional[_Acceptor] = None,
) -> Tuple[float, float, np.ndarray]:
    """(t_low, t_up, incumbent) with the incumbent chance-feasible at cost t_up.

    accept: the budget search's acceptor. Its start goes to the quantile
    bound and the CVaR anchor as their `start` (on a binary X, the
    search's Lattice, which the bounds scan instead of building their
    own), and when the tail program is empty the anchor search probes with
    it, so the budget search goes on from the anchor search's last start.
    Without one each bound builds its own Lattice, and the anchor search,
    if it runs, its own acceptor on `backend`.
    """
    start = None if accept is None else accept.start
    t_low = quantile_lower_bound(instance, sgd_config, start=start)
    if t_low == np.inf:
        raise NoFeasibleT("a scenario inside the required mass cannot be satisfied")
    anchor = None
    covering = isinstance(instance.constraints, Covering) and instance.equiprobable
    if covering and engine(instance) == "lp":
        try:
            rep = relax_and_scale(instance)
            anchor = (rep.objective, rep.x_star)
        except (Infeasible, ValidationError, NonFinite):
            anchor = None
    if anchor is None:
        try:
            rep = cvar_solution(instance, sgd_config=sgd_config, start=start)
            anchor = (rep.objective, rep.x_star)
        except Infeasible:
            accept = accept or _Acceptor(instance, backend, sgd_config)
            anchor = _anchor_by_search(instance, t_low, accept)
    return t_low, float(anchor[0]), anchor[1]


def _anchor_by_search(instance, t_low, accept: _Acceptor):
    """The first budget up from t_low whose hinge minimizer is itself
    chance-feasible (no rescue is tried), and that minimizer."""
    base = t_low if np.isfinite(t_low) else 0.0
    found = bisect_budget(accept.probe, base, np.inf, tol=np.inf, step=max(1.0, abs(base) / 2.0))
    if found.witness is None:
        raise NoFeasibleT("no budget produced a chance-feasible hinge minimizer")
    return float(instance.cost @ found.witness), found.witness


def _bisect(instance, method, delta1, backend, sgd_config, rescue=None):
    """The scheme of also_x, and of also_x_plus when given its rescue."""
    start = perf_counter()
    accept = _Acceptor(instance, backend, sgd_config, rescue)
    t_low, t_up, incumbent = bounds_with_anchor(instance, sgd_config, backend, accept=accept)
    found = bisect_budget(accept, t_low, t_up, delta1, max(1.0, abs(t_up)), _MAX_BISECTIONS)
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
) -> SolveReport:
    """Bisect the budget, accepting chance-feasible hinge minimizers."""
    return _bisect(instance, "alsox", delta1, backend, sgd_config)
