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
from typing import Iterable, List, Optional

import numpy as np

from .errors import BadStart, Infeasible, NoConvergence, NonFinite, ValidationError
from .geometry import dykstra_project
from .lowerlevel import Lattice, _scenario_lp, _slack_rows, engine, lattice_argmin
from .lp import LpOutcome, LpProblem, solve_lp
from .model import CcpInstance, Covering, SolveReport, _report, default_zero_tol
from .search import bisect_budget
from .subgrad import SgdConfig, solve_hinge_sgd


@dataclass(frozen=True, eq=False)
class RelaxationResult:
    value: float
    x: np.ndarray
    s: np.ndarray          # fractional row-violation budget per scenario
    iterations: int


def _relaxation_lp(instance: CcpInstance) -> LpProblem:
    """min c'x over (x, s): -A_k[i] x - s_k <= -1 per covering row,
    sum_k s_k <= floor(N eps), then X's rows; x >= 0 and 0 <= s <= 1
    (lowerlevel._scenario_lp)."""
    n, N = instance.n, instance.scenario_count
    return _scenario_lp(
        instance,
        x_cost=instance.cost,
        y_rows=_slack_rows(instance),
        y_lo=np.zeros(N),
        y_hi=np.ones(N),
        extra=np.concatenate([np.zeros(n), np.ones(N)])[None, :],
        extra_rhs=[np.floor(N * instance.epsilon)],
        x_lo=0.0,
    )


def covering_relaxation(instance: CcpInstance) -> RelaxationResult:
    """LP relaxation: min c'x with at most floor(N eps) fractional misses."""
    if not isinstance(instance.constraints, Covering):
        raise ValidationError("covering relaxation: needs a covering constraint model")
    if not instance.equiprobable:
        raise ValidationError("covering relaxation: scenarios must be equiprobable")
    n = instance.n
    out = solve_lp(_relaxation_lp(instance))
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
    if not instance.x_set.contains(x):
        x = dykstra_project([instance.x_set], x)
    report = _report(instance, "relax_and_scale", x, start, rel.iterations, lower=rel.value)
    if not report.feasible:
        raise Infeasible("relax-and-scale: scaled point failed the chance constraint")
    return report


# ---------------------------------------------------------------------------
# single-scenario and subset costs


def _subset_lp(instance: CcpInstance, keep: List[int]) -> LpProblem:
    """min c'x over (x, aux) with the rows of the kept scenarios, in the
    order of `keep`, their dual-norm rows, then X's rows
    (lowerlevel._scenario_lp)."""
    return _scenario_lp(instance, keep, x_cost=instance.cost)


class SubsetChain:
    """Every subset LP of a run of subset_min_cost calls on one instance,
    derived from one LP with the rows of every scenario, built on first use.

    A call switches the rows of the scenarios it does not keep off by
    raising their rhs above the row's maximum over the LP's bound box, so
    every subset LP of the run shares c, A, E, lo and hi (LpProblem.derive:
    the same arrays) and re-solves from the last optimal outcome (solve_lp's
    dual loop). Instances with a scenario row that has no finite maximum
    over the box (say, a sup-norm ball's aux column, which only a
    coordinate whose box straddles 0 has) get the compact LP instead,
    solved cold: the chain's LP restricted to the kept scenarios' rows, the
    dual-norm rows and X's rows, which is _subset_lp(instance, keep) row for
    row. The single-scenario costs of scenario_costs are such compact LPs
    of one chain.
    Create one per run; it holds that run's LP and its last optimal outcome.
    """

    def __init__(self, instance: CcpInstance):
        self.instance = instance
        self.start: Optional[LpOutcome] = None
        self._lp: Optional[LpProblem] = None    # every scenario row switched on
        self._off: Optional[np.ndarray] = None  # the scenario rows' rhs when off, if finite
        self._per = 0                           # LP rows per scenario
        self._tail: Optional[np.ndarray] = None  # the LP rows after the scenario rows

    def problem(self, keep: List[int]) -> Optional[LpProblem]:
        """The chain's LP with only the rows of `keep` switched on, or None
        when some scenario row has no finite maximum."""
        lp = self._full()
        if self._off is None:
            return None
        on = np.zeros(self.instance.scenario_count, dtype=bool)
        on[keep] = True
        b = lp.b.copy()
        b[: self._off.size] = np.where(np.repeat(on, self._per), b[: self._off.size], self._off)
        return lp.derive(b=b)

    def compact(self, keep: List[int]) -> LpProblem:
        """The chain's LP with only the rows of `keep`, in that order, of all
        the scenario rows: _subset_lp(instance, keep)."""
        lp, per = self._full(), self._per
        rows = (np.asarray(keep, dtype=int)[:, None] * per + np.arange(per)).ravel()
        return lp.derive(rows=np.concatenate([rows, self._tail]))

    def solve(self, keep: List[int]) -> LpOutcome:
        """The subset LP of keep, solved: the switched LP warm from the
        chain's last optimal outcome, else the compact one cold."""
        problem = self.problem(keep)
        if problem is None:
            return solve_lp(self.compact(keep))
        out = solve_lp(problem, start=self.start)
        if out.status == "optimal":
            self.start = out
        return out

    def _full(self) -> LpProblem:
        if self._lp is None:
            N = self.instance.scenario_count
            lp = _subset_lp(self.instance, list(range(N)))
            per = self.instance.constraints.rows.r.shape[1]
            scen = lp.A[: N * per]
            # the box corner that maximizes each term; a zero coefficient adds 0
            corner = np.where(scen > 0, lp.hi, np.where(scen < 0, lp.lo, 0.0))
            row_max = (scen * corner).sum(axis=1)
            if np.isfinite(row_max).all():
                # the margin keeps an off row's slack at least 1 on the
                # whole box, so it never ties in a ratio test
                self._off = np.maximum(lp.b[: N * per], row_max + 1.0)
            self._lp, self._per, self._tail = lp, per, np.arange(N * per, lp.b.size)
        return self._lp


class _CompactChain:
    """A chain's compact LPs, every one solved cold: how scenario_costs
    solves its single-scenario LPs, however the chain solves its own."""

    def __init__(self, chain: SubsetChain):
        self.chain, self.instance = chain, chain.instance

    def solve(self, keep: List[int]) -> LpOutcome:
        return solve_lp(self.chain.compact(keep))


def _subset_min_cost_lp(instance: CcpInstance, keep: List[int], chain):
    out = solve_lp(_subset_lp(instance, keep)) if chain is None else chain.solve(keep)
    if out.status == "infeasible":
        return np.inf, None
    if out.status == "unbounded":
        return -np.inf, None
    return float(out.value), np.array(out.x[: instance.n])


def _subset_min_cost_enum(instance: CcpInstance, keep: Iterable[int]):
    keep = list(keep)
    tol = default_zero_tol(instance)

    def kept_cost(points, costs, losses):
        return np.where(np.all(losses[:, keep] <= tol, axis=1), costs, np.inf)

    return lattice_argmin(Lattice(instance), kept_cost) or (np.inf, None)


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
    # Only a stalled descent reads as "no"; a spent step budget proves nothing.
    feas = solve_hinge_sgd(instance, np.inf, z, None, cfg)
    if feas.value > 1e-6:
        if feas.stalled:
            return np.inf, None
        raise NoConvergence(
            f"subset cost: hinge mass {feas.value:.6g} left after {feas.iterations} "
            "subgradient steps; raise SgdConfig.max_iter",
            best=feas.x,
        )

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
    *,
    chain: Optional[SubsetChain] = None,
):
    """min c'x over x in X with g(x, xi^k) <= 0 for every kept k; inf if none.

    Solved on the instance's engine (lowerlevel.engine): exact on a binary
    X and where the LP builds; elsewhere a feasibility-then-bisection
    subgradient search returns the cost to about 1e-5. With
    with_point=True returns (value, x) where x is None whenever the value
    is not finite. chain: a SubsetChain of this instance, whose LP the
    solve derives its own from and warm-starts from (lp engine only).
    """
    keep = list(keep)
    if chain is not None and chain.instance is not instance:
        raise ValidationError("subset_min_cost: the chain belongs to another instance")
    kind = engine(instance)
    if kind == "enum":
        pair = _subset_min_cost_enum(instance, keep)
    elif kind == "lp":
        pair = _subset_min_cost_lp(instance, keep, chain)
    else:
        pair = _subset_min_cost_sgd(instance, keep, sgd_config)
    return pair if with_point else pair[0]


def scenario_costs(
    instance: CcpInstance,
    sgd_config: Optional[SgdConfig] = None,
) -> np.ndarray:
    """The vector h of single-scenario costs, h_k = subset_min_cost(instance, [k]).

    On a binary X one lattice pass scores every scenario at once; on any
    other X each h_k is its own subset_min_cost solve.
    """
    return _scenario_costs(instance, sgd_config)


def _scenario_costs(instance, sgd_config, start=None) -> np.ndarray:
    """scenario_costs, whose LPs are the compact LPs of one SubsetChain: one
    LP over every scenario is built, and each h_k solves its rows of it
    cold. On a binary X the pass scans Lattice.of(instance, start)."""
    if engine(instance) == "enum":
        tol = default_zero_tol(instance)

        def kept_costs(points, costs, losses):
            return np.where(losses <= tol, costs[:, None], np.inf)

        found = lattice_argmin(Lattice.of(instance, start), kept_costs)
        return np.array([np.inf if pair is None else pair[0] for pair in found])
    compact = _CompactChain(SubsetChain(instance))
    N = instance.scenario_count
    return np.array([subset_min_cost(instance, [k], sgd_config, chain=compact) for k in range(N)])


def quantile_lower_bound(
    instance: CcpInstance,
    sgd_config: Optional[SgdConfig] = None,
    *,
    start=None,
) -> float:
    """Largest single-scenario cost inside the smallest (1-eps) mass prefix.

    Sort the per-scenario costs h_k (scenario_costs) ascending and
    accumulate probability until it reaches 1 - eps; every chance-feasible
    point must satisfy some scenario at least that expensive, so the prefix
    maximum bounds v* from below. Returns +inf when the required prefix
    contains an unsatisfiable scenario. start: a budget search's start; on
    a binary X the costs scan it when it is a lowerlevel.Lattice of this
    instance (`is`), and a new Lattice otherwise.
    """
    h = _scenario_costs(instance, sgd_config, start)
    order = np.argsort(h, kind="stable")
    mass = 0.0
    for k in order:
        mass += float(instance.probabilities[k])
        if mass >= 1.0 - instance.epsilon - 1e-12:
            return float(h[k])
    return float(h[order[-1]])
