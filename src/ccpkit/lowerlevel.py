"""Lower-level solvers: weighted hinge minimization over S(t) and the two
relaxation-tightening schemes built on it (alternating minimization and the
difference-of-convex scheme).

The weighted hinge problem is

    v(t; z) = min { sum_k p_k z_k (g(x, xi^k))_+ : x in X, c'x <= t }

with z in [0,1]^N fixed. One rule, engine(instance), names the solver
family every program of an instance takes (hinge, tail, single-scenario
and subset costs, DC pieces):

  "enum"  lattice enumeration, on a binary X
  "lp"    exact simplex solves, where every scenario-row LP builds: affine
          rows over a polyhedral X, with no ball, a 1-norm or a sup-norm ball
  "sgd"   projected subgradient descent, everywhere else

A backend of "auto" takes that engine; an explicit one must name it,
except that "sgd" may stand in for "lp". Any other backend is refused
with BackendUnavailable before any solve, never swapped for another. The
hinge's own auto backend (pick_backend) is the engine with sgd in place
of lp, except on the equality model.

The lp and enum solves return a warm start for the next solve of the same
instance (solve_lower_level): the hinge LP with its outcome, or the
Lattice they scanned. Neither the LP's rows nor the lattice depend on t
or z, so alsox builds the search's start (hinge_start, Lattice) before its
bounds, and on a binary X hands the lattice to the quantile bound and the
CVaR anchor as well. Each later LP is derived from the last one (a new t
moves one entry of b, new weights only y's cost) and re-solved from its
basis; each later scan masks by c'x <= t the lattice's hinge column at
its weights p z, which a kept lattice computes once per weight vector
(Lattice.hinges).

Every LP here and in cvar and covering (hinge, tail, subset, relaxation)
and the DC pieces come from one builder, _scenario_lp, the one place that
knows their layout and how they linearize the norm term. It and the
exact-face pieces read one thing from the constraint model: its rows,
model.rows, g_k(x) = max_i (R[k] x - r[k])_i + theta ||x||_*. Where the
engine is not lp (a lattice, the power model's missing rows, a ball that
does not linearize) it raises BackendUnavailable. Verdicts still read the
exact g (scenario_losses).

The sgd default for affine rows is deliberate: its minimizers land in the
interior of flat optimal faces, which is the behavior the approximation
schemes are calibrated against; the lp backend returns vertices instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import BackendUnavailable, BadStart, NoConvergence, NonFinite
from .geometry import dykstra_project
from .lp import LpOutcome, LpProblem, solve_lp
from .model import (
    AffineEqualities,
    BiAffineEquality,
    Box,
    CcpInstance,
    Halfspaces,
    Intersection,
    L1,
    LInf,
    _count,
    _times,
    scenario_losses,
)
from .subgrad import SgdConfig, solve_hinge_sgd


@dataclass(frozen=True, eq=False)
class LowerLevelSolution:
    x: np.ndarray
    s: np.ndarray          # (g(x, xi^k))_+ recomputed at x
    value: float           # sum_k p_k z_k s_k
    backend: str
    iterations: int
    start: object = None   # a warm start for the next solve of this instance (solve_lower_level)


def _hinge_parts(instance: CcpInstance, x: np.ndarray, z: np.ndarray):
    s = np.maximum(scenario_losses(instance, x), 0.0)
    return s, float(np.sum(instance.probabilities * z * s))


def engine(instance: CcpInstance, backend: str = "auto") -> str:
    """The solver family of instance's programs under `backend` (see the
    module docstring): "enum" on a binary X; "lp" for affine rows over a
    polyhedral X with no ball, a 1-norm or a sup-norm ball; "sgd" otherwise.
    "auto" gives that engine, and "sgd" may stand in for "lp". Any other
    backend, an unknown name included, raises BackendUnavailable naming
    the backend and what the instance lacks."""
    x_set, model = instance.x_set, instance.constraints
    rows = model.rows
    if x_set.binary:
        kind, lacks = "enum", f"X is a {type(x_set).__name__} lattice, not a convex set"
    elif rows is None:
        kind, lacks = "sgd", f"{type(model).__name__} rows are not affine"
    elif rows.theta != 0.0 and not isinstance(rows.norm, (L1, LInf)):
        kind, lacks = "sgd", f"{type(rows.norm).__name__} balls have no LP form"
    else:
        kind, lacks = "lp", f"X is a {type(x_set).__name__}, not a binary set"
    if backend == "auto":
        return kind
    if backend == kind or (backend, kind) == ("sgd", "lp"):
        return backend
    if backend not in ("enum", "lp", "sgd"):
        raise BackendUnavailable(f"unknown backend {backend!r}")
    raise BackendUnavailable(f"{backend} backend: {lacks}")


def _slack_rows(instance: CcpInstance) -> np.ndarray:
    """y_rows for one slack column per scenario: -1 in column k on each row
    of scenario k."""
    N, per = instance.constraints.rows.r.shape
    out = np.zeros((N * per, N))
    out[np.arange(N * per), np.repeat(np.arange(N), per)] = -1.0
    return out


def _scenario_lp(
    instance: CcpInstance,
    keep=slice(None),
    *,
    x_cost: Optional[np.ndarray] = None,
    y_rows: Optional[np.ndarray] = None,
    y_cost: Optional[np.ndarray] = None,
    y_lo=(),
    y_hi=(),
    extra: Optional[np.ndarray] = None,
    extra_rhs=(),
    x_lo: Optional[float] = None,
) -> LpProblem:
    """The LP over the rows of the kept scenarios, in the order of keep:
    the one layout of every hinge, tail, subset, relaxation and DC program.

    Columns x | y | aux. x lies in X's box (lower bounds raised to x_lo when
    given) at cost x_cost; y are the caller's columns, in [y_lo, y_hi] at
    cost y_cost (a cost of None is 0); aux, in [0, inf) at cost 0,
    linearizes theta ||x||_*. For the sup-norm ball (dual 1-norm), theta
    |x_j| is theta s_j x_j where the box fixes the sign s_j of x_j, folded
    into column j of the scenario rows, and each j whose box straddles 0
    gets a u_j >= |x_j|; the 1-norm ball (dual sup norm) gets one v >= |x_j|.
    Rows, in order: R[k][i] x + y_rows[k I + i] y + theta * aux <= r[k][i];
    the dual-norm rows +-x_j - u_j (or - v) <= 0, x_j then -x_j, next j;
    extra <= extra_rhs; X's rows, with X's equalities as E x = f. y_rows
    and extra cover the leading columns of x | y, zeros the rest. With no
    y, no aux and no other row, A is the kept rows themselves, not a
    zero-filled copy.

    Only the scenario rows depend on keep: the LP of a subset is the LP of
    every scenario restricted to the subset's I rows per scenario and every
    row after the N I scenario rows. The last extra row sits right above
    X's rows, at row A.shape[0] - (X's row count) - 1: the budget row
    c'x <= t of a hinge LP. Raises BackendUnavailable where the engine is
    not lp.
    """
    engine(instance, "lp")
    rows = instance.constraints.rows
    xA, xb, xE, xf, lo, hi = instance.x_set.polyhedron()
    if x_lo is not None:
        lo = np.maximum(lo, x_lo)
    theta, R = rows.theta, rows.R[keep]
    n = R.shape[2]
    x_rows = R.reshape(-1, n)
    aux_j, n_aux = np.zeros(0, dtype=int), 0
    if theta != 0.0:
        if isinstance(rows.norm, LInf):
            x_rows = x_rows + theta * np.where(lo >= 0.0, 1.0, np.where(hi <= 0.0, -1.0, 0.0))
            aux_j = np.flatnonzero((lo < 0.0) & (hi > 0.0))
            n_aux = aux_j.size
        else:
            aux_j, n_aux = np.arange(n), 1
    b = rows.r[keep].reshape(-1)
    x_cost = np.zeros(n) if x_cost is None else x_cost
    ny = len(y_lo)
    if ny + n_aux == 0 and extra is None and xA.shape[0] == 0:
        return LpProblem(c=x_cost, A=x_rows, b=b, E=xE, f=xf, lo=lo, hi=hi)
    extra = np.zeros((0, n)) if extra is None else extra
    m, n_norm, n_extra = x_rows.shape[0], 2 * aux_j.size, extra.shape[0]
    A = np.zeros((m + n_norm + n_extra + xA.shape[0], n + ny + n_aux))
    A[:m, :n] = x_rows
    if y_rows is not None:
        A[:m, n : n + y_rows.shape[1]] = y_rows
    if n_aux:
        A[:m, n + ny :] = theta
        pair = np.repeat(np.arange(aux_j.size), 2)
        norm = A[m : m + n_norm]
        norm[np.arange(n_norm), aux_j[pair]] = np.tile([1.0, -1.0], aux_j.size)
        # the j-th straddling coordinate's u_j, or the one v
        norm[np.arange(n_norm), n + ny + (pair if n_aux > 1 else 0)] = -1.0
    A[m + n_norm : m + n_norm + n_extra, : extra.shape[1]] = extra
    A[m + n_norm + n_extra :, :n] = xA
    E = np.zeros((xE.shape[0], n + ny + n_aux))
    E[:, :n] = xE
    return LpProblem(
        c=np.concatenate([x_cost, np.zeros(ny) if y_cost is None else y_cost, np.zeros(n_aux)]),
        A=A,
        b=np.concatenate([b, np.zeros(n_norm), extra_rhs, xb]),
        E=E,
        f=xf,
        lo=np.concatenate([lo, y_lo, np.zeros(n_aux)]),
        hi=np.concatenate([hi, y_hi, np.full(n_aux, np.inf)]),
    )


def _hinge_lp(instance: CcpInstance, t: float, z: np.ndarray) -> LpProblem:
    """The weighted hinge problem as an LP over (x, s, aux): _scenario_lp
    with one slack s_k >= 0 per scenario at cost p_k z_k, and c'x <= t
    when t is finite."""
    N, finite = instance.scenario_count, bool(np.isfinite(t))
    return _scenario_lp(
        instance,
        y_rows=_slack_rows(instance),
        y_cost=instance.probabilities * z,
        y_lo=np.zeros(N),
        y_hi=np.full(N, np.inf),
        extra=instance.cost[None, :] if finite else None,
        extra_rhs=[t] if finite else (),
    )


@dataclass(frozen=True, eq=False)
class HingeStart:
    """The lp backend's warm start: an instance's hinge LP and the outcome
    of its solve (None while it is unsolved). `budget` is the row of c'x <= t
    in the LP, None when it was built at t = inf and has no such row."""

    instance: CcpInstance
    problem: LpProblem
    budget: Optional[int]
    outcome: Optional[LpOutcome] = None


def hinge_start(instance: CcpInstance, t: float = 0.0, z=None) -> HingeStart:
    """The hinge LP at budget t and weights z (default 1), built but not
    solved: the start of a budget search on the lp engine, whose probes
    derive their LPs from it."""
    z = np.ones(instance.scenario_count) if z is None else z
    problem = _hinge_lp(instance, t, z)
    budget = None
    if np.isfinite(t):
        budget = problem.A.shape[0] - instance.x_set.polyhedron()[1].size - 1
    return HingeStart(instance, problem, budget)


def _solve_hinge_lp(
    instance: CcpInstance, t: float, z: np.ndarray, start: Optional[HingeStart] = None
) -> LowerLevelSolution:
    """The hinge solve at (t, z). From a start of this instance (`is`) at a
    finite budget, a finite t derives the LP from the start's: b with t in
    the budget row and y's cost p z, every other array shared, and
    re-solves it from the start's outcome. Any other LP is built anew and
    solved cold."""
    offered = None
    own = start is not None and start.instance is instance
    if own and start.budget is not None and np.isfinite(t):
        old, n, N = start.problem, instance.n, instance.scenario_count
        b, c = old.b.copy(), old.c.copy()
        b[start.budget] = t
        c[n : n + N] = instance.probabilities * z
        here = HingeStart(instance, old.derive(c=c, b=b), start.budget)
        offered = start.outcome
    else:
        here = hinge_start(instance, t, z)
    out = solve_lp(here.problem, start=offered)
    if out.status == "infeasible":
        raise BadStart(f"hinge lp: S(t) is empty at t={t}")
    if out.status != "optimal":
        raise NonFinite(f"hinge lp: unexpected status {out.status}")
    x = out.x[: instance.n]
    s, value = _hinge_parts(instance, x, z)
    return LowerLevelSolution(
        x=x, s=s, value=value, backend="lp", iterations=out.pivots,
        start=HingeStart(instance, out.problem, here.budget, out),
    )


# points of a lattice scan scored at once; a dim-20 scan holds one block at a time
_LATTICE_BLOCK = 4096
# the most floats a kept lattice may hold, counted as 2^n (N + n + 1) for
# its points, costs and losses: 2^22 floats, 32 MB
_LATTICE_KEEP = 2**22


def _hinge_column(weights: np.ndarray, losses: np.ndarray) -> np.ndarray:
    """sum_k w_k (g_k)_+ at each point of one lattice block."""
    return np.sum(weights * np.maximum(losses, 0.0), axis=-1)


def _read_only(arrays: tuple) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


class Lattice:
    """X cap {0,1}^n of one instance as read-only (points, costs c'x,
    scenario losses) blocks of up to _LATTICE_BLOCK codes, in
    itertools.product order: what every binary scan reads (lattice_argmin).
    The blocks are kept while 2^n (N + n + 1) floats fit in _LATTICE_KEEP;
    above it `blocks` is None and every pass builds them again, one at a
    time, so a large lattice is never held whole."""

    def __init__(self, instance: CcpInstance):
        if sum(p.binary for p in instance.x_set.pieces()) != 1:
            raise BackendUnavailable("lattice scan: needs exactly one binary set")
        self.instance, self._hinges = instance, {}
        keep = 2**instance.n * (instance.scenario_count + instance.n + 1) <= _LATTICE_KEEP
        self.blocks = tuple(self._build()) if keep else None

    @classmethod
    def of(cls, instance: CcpInstance, start=None) -> "Lattice":
        """start when it is a Lattice of this instance (`is`), else a new one."""
        return start if isinstance(start, cls) and start.instance is instance else cls(instance)

    def _build(self):
        instance, n = self.instance, self.instance.n
        shifts = np.arange(n - 1, -1, -1)
        for first in range(0, 2**n, _LATTICE_BLOCK):
            codes = np.arange(first, min(first + _LATTICE_BLOCK, 2**n))
            points = ((codes[:, None] >> shifts) & 1).astype(float)
            points = points[instance.x_set.contains(points)]
            yield _read_only((points, _times(instance.cost, points), scenario_losses(instance, points)))

    def __iter__(self):
        return self._build() if self.blocks is None else iter(self.blocks)

    def hinges(self, weights: np.ndarray):
        """(points, costs, hinge column sum_k w_k (g_k)_+) blocks. A kept
        lattice keeps the columns of the N weight vectors last used, keyed
        by their bytes (the values depend on nothing else), so they never
        hold more floats than its losses."""
        if self.blocks is None:
            return ((p, c, _hinge_column(weights, g)) for p, c, g in self._build())
        key = weights.tobytes()
        columns = self._hinges.pop(key, None)
        if columns is None:
            columns = _read_only(tuple(_hinge_column(weights, g) for _, _, g in self.blocks))
            if len(self._hinges) == self.instance.scenario_count:
                del self._hinges[next(iter(self._hinges))]      # the least recently used
        self._hinges[key] = columns
        return ((p, c, h) for (p, c, _), h in zip(self.blocks, columns))


def lattice_argmin(blocks, score):
    """(value, x) at the first minimizer of score over a lattice, or None.

    blocks: the lattice's (points, costs, losses) triples in scan order, as
    a Lattice yields them; score(points, costs, losses) maps a block to
    one value per point, inf to skip the point. A later point replaces the
    best only when it is lower by more than 1e-15.

    A score may instead map a block of B points to a (B, K) array: K
    objectives scored in the same pass, each column minimized on its own
    under the same rule. The result is then a list of K such (value, x)
    pairs or None. Every block is scored once, so K minima cost one scan of
    the lattice rather than K.
    """
    best = best_x = None
    for points, costs, losses in blocks:
        values = score(points, costs, losses)
        columns = values[:, None] if values.ndim == 1 else values
        if best is None:
            best, best_x = np.full(columns.shape[1], np.inf), [None] * columns.shape[1]
        # a point that beats a column's best by the tie rule is below every
        # earlier value of the column, so only those running minima need the
        # in-order check
        earlier = np.minimum.accumulate(np.vstack([best, columns]), axis=0)[:-1]
        won = {}
        for k, i in zip(*np.nonzero((columns < earlier).T)):
            if columns[i, k] < best[k] - 1e-15:
                best[k], won[k] = columns[i, k], i
        for k, i in won.items():          # one copy per winner, not per improvement
            best_x[k] = points[i].copy()
    found = [None if x is None else (float(v), x) for v, x in zip(best, best_x)]
    return found if values.ndim == 2 else found[0]


def _solve_hinge_enum(
    instance: CcpInstance, t: float, z: np.ndarray, start=None
) -> LowerLevelSolution:
    lattice = Lattice.of(instance, start)
    cap = t + 1e-9 * (1.0 + abs(t)) if np.isfinite(t) else np.inf

    def within_budget(points, costs, hinge):
        return np.where(costs <= cap, hinge, np.inf)

    best = lattice_argmin(lattice.hinges(instance.probabilities * z), within_budget)
    if best is None:
        raise BadStart(f"hinge enum: no lattice point satisfies c'x <= {t}")
    x = best[1]
    s, value = _hinge_parts(instance, x, z)
    return LowerLevelSolution(
        x=x, s=s, value=value, backend="enum", iterations=2**instance.n, start=lattice
    )


def pick_backend(instance: CcpInstance) -> str:
    """The hinge's auto backend: the engine, with sgd in place of lp except
    on the equality model (see the module docstring)."""
    kind = engine(instance)
    if kind == "lp" and not isinstance(instance.constraints, BiAffineEquality):
        return "sgd"
    return kind


def solve_lower_level(
    instance: CcpInstance,
    t: float,
    z_weights=None,
    backend: str = "auto",
    x0=None,
    sgd_config: Optional[SgdConfig] = None,
    start=None,
) -> LowerLevelSolution:
    """Weighted hinge minimum over S(t); see the module docstring.

    start: the `start` of an earlier solve of this instance (the sgd
    backend's is None). On the lp backend it is the HingeStart that holds
    the hinge LP and its outcome: the LP is derived from that one, with the
    new t and z, and re-solved from the outcome's final basis (lp.solve_lp);
    hinge_start builds one before any solve. On the enum backend it is the
    instance's Lattice, with its points, costs, losses and hinge columns,
    and the solve returns the Lattice it scanned: this one or, with no
    usable start, its own (Lattice.of). A start of another backend or of
    another instance (`is`) is ignored, and so is an lp start built at
    t = inf or a solve at t = inf: those LPs are built anew and solved
    cold. The sgd backend ignores every start.
    """
    z = np.ones(instance.scenario_count) if z_weights is None else np.asarray(z_weights, dtype=float)
    backend = pick_backend(instance) if backend == "auto" else engine(instance, backend)
    if backend == "lp":
        return _solve_hinge_lp(instance, t, z, start if isinstance(start, HingeStart) else None)
    if backend == "enum":
        return _solve_hinge_enum(instance, t, z, start)
    out = solve_hinge_sgd(instance, t, z, x0, sgd_config)
    s, value = _hinge_parts(instance, out.x, z)
    return LowerLevelSolution(x=out.x, s=s, value=value, backend="sgd", iterations=out.iterations)


# ---------------------------------------------------------------------------
# alternating minimization


def z_update(s, probabilities, epsilon: float) -> np.ndarray:
    """min over z in [0,1]^N with p'z >= 1-eps of p'(z * s): fill small s first.

    Stable ascending sort, so ties resolve toward lower scenario indices;
    the boundary scenario gets a fractional weight when masses do not align.
    """
    s = np.asarray(s, dtype=float)
    p = np.asarray(probabilities, dtype=float)
    z = np.zeros_like(s)
    remaining = 1.0 - epsilon
    for k in np.argsort(s, kind="stable"):
        if remaining <= 0.0:
            break
        if p[k] <= 0.0:
            z[k] = 1.0        # free mass, cannot hurt the objective
            continue
        take = min(1.0, remaining / p[k])
        z[k] = take
        remaining -= p[k] * take
    return z


@dataclass(frozen=True, eq=False)
class AmResult:
    x: np.ndarray
    z: np.ndarray
    s: np.ndarray
    value: float                    # E[z * s] at the final pair
    rounds: int
    objective_trace: Tuple[float, ...]


def _face_pieces(instance: CcpInstance, t: float, z: np.ndarray):
    """Affine pieces of {x in X, c'x <= t, g_k(x) <= 0 for z_k > 0} or None."""
    rows = instance.constraints.rows
    if engine(instance) != "lp" or rows.theta != 0.0:
        return None
    pieces = instance.x_set.pieces()
    if np.isfinite(t):
        pieces.append(Halfspaces(instance.cost[None, :], np.array([t])))
    for k in np.nonzero(z > 0.0)[0]:
        pieces.append(Halfspaces(rows.R[k], rows.r[k]))
    return pieces


def _exact_face_polish(instance, t, z, x) -> Optional[np.ndarray]:
    pieces = _face_pieces(instance, t, z)
    if pieces is None:
        return None
    # Dykstra cannot converge on an empty face and would spend its whole
    # sweep budget finding that out; one feasibility LP proves it at once
    A, b, E, f, lo, hi = Intersection(pieces).polyhedron()
    if solve_lp(LpProblem(np.zeros(instance.n), A, b, E, f, lo, hi)).status == "infeasible":
        return None
    try:
        return dykstra_project(pieces, x)
    except NoConvergence:
        return None               # active face may be empty; keep the sgd point


def am(
    instance: CcpInstance,
    t: float,
    z0=None,
    delta2: float = 1e-2,
    max_rounds: int = 100,
    backend: str = "auto",
    sgd_config: Optional[SgdConfig] = None,
    x0=None,
    start=None,
) -> AmResult:
    """Alternate weighted hinge solves with the closed-form z update.

    The objective trace is nonincreasing. The lp and enum backends
    minimize each round exactly, each round warm-started from the previous
    round's `start` (the first round from `start`, if given;
    solve_lower_level): only the cost weights move between rounds, so each
    round's LP is the last one with y's cost re-priced, re-solved from the
    last basis, and the lattice scan reuses the start's Lattice. The sgd
    backend warm-starts each hinge solve from the previous x (x0 for the first),
    and its best iterate can never exceed its start. When the sgd backend
    leaves an interior point with every active scenario nearly tight, a
    projection onto the exact active face removes the residual hinge mass
    so downstream feasibility verdicts see exact zeros.

    Stops when consecutive objectives differ by less than delta2, or after
    max_rounds rounds; ValidationError unless max_rounds is an integer >= 1.
    """
    max_rounds = _count(max_rounds, "max_rounds", 1)
    p = instance.probabilities
    z = np.ones(instance.scenario_count) if z0 is None else np.asarray(z0, dtype=float)
    x_warm = x0
    prev_obj: Optional[float] = None
    trace: List[float] = []
    for rounds in range(1, max_rounds + 1):
        sol = solve_lower_level(
            instance, t, z, backend=backend, x0=x_warm, sgd_config=sgd_config, start=start
        )
        x, s, obj = sol.x, sol.s, sol.value
        start = sol.start
        if sol.backend == "sgd" and np.min(z) == 0.0:
            polished = _exact_face_polish(instance, t, z, x)
            if polished is not None:
                s_pol, obj_pol = _hinge_parts(instance, polished, z)
                if obj_pol <= obj + 1e-12:
                    x, s, obj = polished, s_pol, obj_pol
        trace.append(float(obj))
        if prev_obj is not None and abs(obj - prev_obj) < delta2:
            break
        prev_obj = float(obj)
        z = z_update(s, p, instance.epsilon)
        x_warm = x
    return AmResult(x=x, z=z, s=s, value=float(obj), rounds=rounds, objective_trace=tuple(trace))


# ---------------------------------------------------------------------------
# difference-of-convex scheme on the exact complementarity objective

# projected-gradient steps per round of dc_solve
_DC_INNER_ITERS = 400


@dataclass(frozen=True, eq=False)
class DcResult:
    x: np.ndarray
    s: np.ndarray
    z: np.ndarray
    value: float                    # E[z * s] at the final triple
    rounds: int
    objective_trace: Tuple[float, ...]
    capped: int                     # projections cut off at Dykstra's sweep cap


def _dc_pieces(instance: CcpInstance, t: float):
    """Convex pieces of the coupled set over (x, s, z): one box (X's bounds,
    s >= 0, z in [0, 1]), X's equality rows, then one system of X's rows,
    the budget row, the scenario rows and the mass row: affine rows with no
    ball over a polyhedral X, else BackendUnavailable."""
    rows = instance.constraints.rows
    if engine(instance) != "lp" or rows.theta != 0.0:
        raise BackendUnavailable(
            f"dc scheme: {type(instance.constraints).__name__} rows over "
            f"{type(instance.x_set).__name__} do not embed as halfspaces"
        )
    n, N, finite = instance.n, instance.scenario_count, int(np.isfinite(t))
    extra = np.zeros((finite + 1, n + 2 * N))
    extra[:finite, :n] = instance.cost
    # probability mass kept by z must reach 1 - eps
    extra[finite, n + N :] = -instance.probabilities
    lp = _scenario_lp(
        instance,
        y_rows=_slack_rows(instance),
        y_lo=np.zeros(2 * N),
        y_hi=np.concatenate([np.full(N, np.inf), np.ones(N)]),
        extra=extra,
        extra_rhs=[t] * finite + [-(1.0 - instance.epsilon)],
    )
    pieces = [Box(lp.lo, lp.hi)]
    if lp.E.shape[0]:
        pieces.append(AffineEqualities(lp.E.T, lp.f))
    # Dykstra projects onto these rows one at a time, in this order: X's
    # rows, then the budget, scenario and mass rows
    M = rows.r.size
    mass = M + finite
    order = np.r_[mass + 1 : lp.A.shape[0], M:mass, :M, mass]
    return pieces + [Halfspaces(lp.A[order], lp.b[order])]


def dc_solve(
    instance: CcpInstance,
    t: float,
    x0=None,
    s0=None,
    z0=None,
    delta2: float = 1e-2,
    max_rounds: int = 100,
) -> DcResult:
    """Difference-of-convex descent on E[z s] over the coupled (x, s, z) set.

    E[z s] splits as 1/4 E[(z+s)^2] - 1/4 E[(z-s)^2]; each round linearizes
    the concave half at the current z - s and minimizes the resulting convex
    quadratic by projected gradient (the quadratic has curvature p_k per
    scenario block, so the 1/max(p) step is safe). Stops when consecutive
    E[z s] values differ by less than delta2, or immediately once the
    product is numerically zero. A projection that hits Dykstra's sweep cap
    goes on from the best iterate it reached, which may lie outside the
    set; `capped` counts them. ValidationError unless max_rounds is an
    integer >= 1.
    """
    max_rounds = _count(max_rounds, "max_rounds", 1)
    n, N = instance.n, instance.scenario_count
    p = instance.probabilities
    pieces = _dc_pieces(instance, t)
    capped = 0

    def project(u: np.ndarray) -> np.ndarray:
        nonlocal capped
        try:
            return dykstra_project(pieces, u)
        except NoConvergence as exc:
            capped += 1
            return exc.best

    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    s = np.maximum(scenario_losses(instance, x), 0.0) if s0 is None else np.asarray(s0, dtype=float)
    z = np.ones(N) if z0 is None else np.asarray(z0, dtype=float)
    u = project(np.concatenate([x, s, z]))

    def split(u):
        return u[:n], u[n : n + N], u[n + N :]

    def product(u) -> float:
        _, s_, z_ = split(u)
        return float(np.sum(p * z_ * s_))

    step = 1.0 / float(np.max(p))
    obj = product(u)
    trace = [obj]
    rounds = 0
    if obj >= 1e-12:
        for rounds in range(1, max_rounds + 1):
            _, s_, z_ = split(u)
            w = z_ - s_
            for _ in range(_DC_INNER_ITERS):
                _, s_, z_ = split(u)
                grad = np.zeros_like(u)
                grad[n : n + N] = p * (0.5 * (z_ + s_) + 0.5 * w)
                grad[n + N :] = p * (0.5 * (z_ + s_) - 0.5 * w)
                u_next = project(u - step * grad)
                if float(np.max(np.abs(u_next - u))) <= 1e-11:
                    u = u_next
                    break
                u = u_next
            obj = product(u)
            trace.append(obj)
            if obj < 1e-12 or abs(trace[-1] - trace[-2]) < delta2:
                break
    x_fin, s_fin, z_fin = split(u)
    return DcResult(
        x=x_fin,
        s=s_fin,
        z=z_fin,
        value=float(obj),
        rounds=rounds,
        objective_trace=tuple(trace),
        capped=capped,
    )
