"""Lower-level solvers: weighted hinge minimization over S(t) and the two
relaxation-tightening schemes built on it (alternating minimization and the
difference-of-convex scheme).

The weighted hinge problem is

    v(t; z) = min { sum_k p_k z_k (g(x, xi^k))_+ : x in X, c'x <= t }

with z in [0,1]^N fixed. Backends:

  "lp"    exact simplex solve; needs affine scenario rows and a polyhedral X
  "sgd"   projected subgradient descent; works for every constraint model
  "enum"  lattice enumeration; needs a binary feasible set
  "auto"  enum for binary sets, lp for the equality model, sgd otherwise

Every LP here (the hinge LP, and the tail, subset and relaxation LPs that
cvar and covering build from the same helpers) and the exact-face and DC
pieces read one thing from the constraint model: its rows, model.rows,
g_k(x) = max_i (R[k] x - r[k])_i + theta ||x||_*. The power model has no
rows (None); its LPs raise BackendUnavailable.

The norm term is linear wherever X's box fixes the signs. For the sup-norm
ball (dual 1-norm), theta |x_j| is theta x_j where lo_j >= 0 and -theta x_j
where hi_j <= 0, so the LP rows carry it in column j, and only a
coordinate whose box straddles 0 gets an aux column u_j >= |x_j|. On a box
in the nonnegative orthant these LPs have no aux columns at all. Verdicts
still read the exact g (scenario_losses).

The sgd default for affine rows is deliberate: its minimizers land in the
interior of flat optimal faces, which is the behavior the approximation
schemes are calibrated against; the lp backend returns vertices instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import BackendUnavailable, BadStart, NoConvergence, NonFinite, UnsupportedSet
from .geometry import as_polyhedron, dykstra_project, flatten_set, has_binary
from .lp import LpOutcome, LpProblem, solve_lp
from .model import (
    AffineEqualities,
    AffineRows,
    BiAffineEquality,
    BinaryTiny,
    Box,
    CcpInstance,
    Halfspaces,
    Intersection,
    L1,
    LInf,
    _times,
    scenario_losses,
    set_contains,
)
from .subgrad import SgdConfig, solve_hinge_sgd


@dataclass(frozen=True, eq=False)
class LowerLevelSolution:
    x: np.ndarray
    s: np.ndarray          # (g(x, xi^k))_+ recomputed at x
    value: float           # sum_k p_k z_k s_k
    backend: str
    iterations: int
    lp_outcome: Optional[LpOutcome] = None   # the lp backend's LP outcome, a warm start for the next


def _hinge_parts(instance: CcpInstance, x: np.ndarray, z: np.ndarray):
    s = np.maximum(scenario_losses(instance, x), 0.0)
    return s, float(np.sum(instance.probabilities * z * s))


def _lp_rows(model) -> AffineRows:
    """The model's rows; BackendUnavailable when they are not affine."""
    if model.rows is None:
        raise BackendUnavailable(f"no LP form: {type(model).__name__} rows are not affine")
    return model.rows


def _straddling(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The coordinates j whose box lo_j <= x_j <= hi_j leaves the sign of
    x_j open, as a mask."""
    return (lo < 0.0) & (hi > 0.0)


def _norm_aux(rows: AffineRows, lo: np.ndarray, hi: np.ndarray) -> Tuple[int, str]:
    """(aux column count, kind) for linearizing theta * dual norm in an LP
    whose x lies in the box lo <= x <= hi.

    "sum" (sup-norm ball, dual 1-norm): one u_j per coordinate whose box
    straddles 0 (_straddling); the others have a known sign s_j, so
    theta |x_j| is theta s_j x_j and _x_rows folds it into the scenario rows.
    "max" (1-norm ball, dual sup norm): a single bound v on every |x_j|.
    """
    if rows.theta == 0.0:
        return 0, "none"
    if isinstance(rows.norm, LInf):
        return int(np.count_nonzero(_straddling(lo, hi))), "sum"
    if isinstance(rows.norm, L1):
        return 1, "max"
    raise BackendUnavailable("lp backend: only 1-norm / sup-norm balls linearize")


def _x_rows(rows: AffineRows, lo: np.ndarray, hi: np.ndarray, keep=slice(None)) -> np.ndarray:
    """The scenario rows of rows.R[keep] over x, shape (K * I, n). For the
    sup-norm ball, column j carries theta s_j where the box fixes the sign
    s_j of x_j: on those coordinates theta |x_j| needs no aux."""
    R = rows.R[keep]
    x_rows = R.reshape(-1, R.shape[2])
    if rows.theta != 0.0 and isinstance(rows.norm, LInf):
        sign = np.where(lo >= 0.0, 1.0, np.where(hi <= 0.0, -1.0, 0.0))
        x_rows = x_rows + rows.theta * sign
    return x_rows


def _padded(x_rows: np.ndarray, ncol: int) -> np.ndarray:
    """Rows over x, followed by zeros up to ncol columns."""
    out = np.zeros((x_rows.shape[0], ncol))
    out[:, : x_rows.shape[1]] = x_rows
    return out


def _scenario_rows(
    rows: AffineRows,
    ncol: int,
    aux_col: int,
    lo: np.ndarray,
    hi: np.ndarray,
    slack_col: Optional[int] = None,
    keep=slice(None),
):
    """(scen, norm): the LP rows of R = rows.R[keep], shape (K, I, n), with
    x in the box lo <= x <= hi.

    scen holds _x_rows (R[k][i] x, plus the folded theta s_j x_j of the
    sup-norm ball) - slack_k + theta * aux, one row per scenario row (its
    rhs is rows.r[keep][k][i]), with the slack in column slack_col + k, or
    no slack term when slack_col is None. norm holds the dual-norm rows of
    _norm_aux, rhs 0: +-x_j - u_j for each coordinate j that straddles 0
    ("sum", u_j in the order of j) or +-x_j - v for every j ("max"), in the
    order x_j, -x_j, next j. The aux columns start at aux_col.
    """
    per, n = rows.R.shape[1:]
    n_aux, aux_kind = _norm_aux(rows, lo, hi)
    scen = _padded(_x_rows(rows, lo, hi, keep), ncol)
    if slack_col is not None:
        i = np.arange(scen.shape[0])
        scen[i, slack_col + i // per] = -1.0
    aux_j = np.flatnonzero(_straddling(lo, hi)) if aux_kind == "sum" else np.arange(n)
    norm = np.zeros((2 * aux_j.size if n_aux else 0, ncol))
    if n_aux:
        scen[:, aux_col : aux_col + n_aux] = rows.theta
        m = np.repeat(np.arange(aux_j.size), 2)
        norm[np.arange(2 * aux_j.size), aux_j[m]] = np.tile([1.0, -1.0], aux_j.size)
        norm[np.arange(2 * aux_j.size), aux_col + (m if aux_kind == "sum" else 0)] = -1.0
    return scen, norm


def _hinge_lp(instance: CcpInstance, t: float, z: np.ndarray) -> LpProblem:
    """The weighted hinge problem as an LP over (x, s, aux).

    One row R_k[i] x - s_k + theta * aux <= r_k[i] per scenario row (the
    sign-definite part of the norm folded into x, _x_rows), the dual-norm
    rows of _norm_aux, c'x <= t when t is finite, then X's rows.
    """
    rows = _lp_rows(instance.constraints)
    N, n = instance.scenario_count, instance.n
    xA, xb, xE, xf, lo_x, hi_x = as_polyhedron(instance.x_set)
    n_aux = _norm_aux(rows, lo_x, hi_x)[0]
    ncol = n + N + n_aux
    scen, norm = _scenario_rows(rows, ncol, n + N, lo_x, hi_x, slack_col=n)
    budget = instance.cost[None, :] if np.isfinite(t) else np.zeros((0, n))
    return LpProblem(
        c=np.concatenate([np.zeros(n), instance.probabilities * z, np.zeros(n_aux)]),
        A=np.vstack([scen, norm, _padded(budget, ncol), _padded(xA, ncol)]),
        b=np.concatenate(
            [rows.r.reshape(-1), np.zeros(norm.shape[0]), np.full(budget.shape[0], t), xb]
        ),
        E=_padded(xE, ncol),
        f=xf,
        lo=np.concatenate([lo_x, np.zeros(N + n_aux)]),
        hi=np.concatenate([hi_x, np.full(N + n_aux, np.inf)]),
    )


def _solve_hinge_lp(
    instance: CcpInstance, t: float, z: np.ndarray, start: Optional[LpOutcome] = None
) -> LowerLevelSolution:
    out = solve_lp(_hinge_lp(instance, t, z), start=start)
    if out.status == "infeasible":
        raise BadStart(f"hinge lp: S(t) is empty at t={t}")
    if out.status != "optimal":
        raise NonFinite(f"hinge lp: unexpected status {out.status}")
    x = out.x[: instance.n]
    s, value = _hinge_parts(instance, x, z)
    return LowerLevelSolution(
        x=x, s=s, value=value, backend="lp", iterations=out.pivots, lp_outcome=out
    )


# points of a lattice scan scored at once; a dim-20 scan holds one block at a time
_LATTICE_BLOCK = 4096


def lattice_argmin(instance: CcpInstance, score):
    """(value, x) at the first minimizer of score over X cap {0,1}^n, or None.

    Points come in itertools.product order, a block of rows at a time;
    score(points, costs, losses) maps a block, its costs c'x and its scenario
    losses to one value per point, inf to skip the point. A later point
    replaces the best only when it is lower by more than 1e-15.

    A score may instead map a block of B points to a (B, K) array: K
    objectives scored in the same pass, each column minimized on its own
    under the same rule. The result is then a list of K such (value, x)
    pairs or None. Every block is built, filtered by X and scored once, so
    K minima cost one scan of the lattice rather than K.
    """
    if sum(isinstance(p, BinaryTiny) for p in flatten_set(instance.x_set)) != 1:
        raise BackendUnavailable("lattice scan: needs exactly one binary set")
    n = instance.n
    shifts = np.arange(n - 1, -1, -1)
    best = best_x = None
    for first in range(0, 2**n, _LATTICE_BLOCK):
        codes = np.arange(first, min(first + _LATTICE_BLOCK, 2**n))
        points = ((codes[:, None] >> shifts) & 1).astype(float)
        points = points[set_contains(instance.x_set, points)]
        values = score(points, _times(instance.cost, points), scenario_losses(instance, points))
        columns = values[:, None] if values.ndim == 1 else values
        if best is None:
            best, best_x = np.full(columns.shape[1], np.inf), [None] * columns.shape[1]
        # a point that beats a column's best by the tie rule is below every
        # earlier value of the column, so only those running minima need the
        # in-order check
        earlier = np.minimum.accumulate(np.vstack([best, columns]), axis=0)[:-1]
        for k, i in zip(*np.nonzero((columns < earlier).T)):
            if columns[i, k] < best[k] - 1e-15:
                best[k], best_x[k] = columns[i, k], points[i].copy()
    found = [None if x is None else (float(v), x) for v, x in zip(best, best_x)]
    return found if values.ndim == 2 else found[0]


def _solve_hinge_enum(instance: CcpInstance, t: float, z: np.ndarray) -> LowerLevelSolution:
    cap = t + 1e-9 * (1.0 + abs(t)) if np.isfinite(t) else np.inf
    weights = instance.probabilities * z

    def hinge(points, costs, losses):
        return np.where(costs <= cap, np.sum(weights * np.maximum(losses, 0.0), axis=-1), np.inf)

    best = lattice_argmin(instance, hinge)
    if best is None:
        raise BadStart(f"hinge enum: no lattice point satisfies c'x <= {t}")
    x = best[1]
    s, value = _hinge_parts(instance, x, z)
    return LowerLevelSolution(x=x, s=s, value=value, backend="enum", iterations=2**instance.n)


def pick_backend(instance: CcpInstance) -> str:
    if has_binary(instance.x_set):
        return "enum"
    if isinstance(instance.constraints, BiAffineEquality):
        return "lp"
    return "sgd"


def solve_lower_level(
    instance: CcpInstance,
    t: float,
    z_weights=None,
    backend: str = "auto",
    x0=None,
    sgd_config: Optional[SgdConfig] = None,
    start: Optional[LpOutcome] = None,
) -> LowerLevelSolution:
    """Weighted hinge minimum over S(t); see the module docstring.

    start: the lp_outcome of an earlier lp-backend solve of this instance;
    the LP then warm-starts from its final basis (lp.solve_lp). Other
    backends ignore it.
    """
    z = np.ones(instance.scenario_count) if z_weights is None else np.asarray(z_weights, dtype=float)
    if backend == "auto":
        backend = pick_backend(instance)
    if backend == "lp":
        return _solve_hinge_lp(instance, t, z, start)
    if backend == "enum":
        return _solve_hinge_enum(instance, t, z)
    if backend == "sgd":
        out = solve_hinge_sgd(instance, t, z, x0, sgd_config)
        s, value = _hinge_parts(instance, out.x, z)
        return LowerLevelSolution(x=out.x, s=s, value=value, backend="sgd", iterations=out.iterations)
    raise BackendUnavailable(f"unknown backend {backend!r}")


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
    if rows is None or rows.theta != 0.0 or has_binary(instance.x_set):
        return None
    pieces = list(flatten_set(instance.x_set))
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
    A, b, E, f, lo, hi = as_polyhedron(Intersection(pieces))
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
    start: Optional[LpOutcome] = None,
) -> AmResult:
    """Alternate weighted hinge solves with the closed-form z update.

    The objective trace is nonincreasing. The lp backend minimizes each
    round exactly, and warm-starts each round's LP from the previous round's
    final basis (the first round from `start`, an lp_outcome at this t, if
    given): only the cost weights move between rounds. The sgd backend
    warm-starts each hinge solve from the previous x (x0 for the first),
    and its best iterate can never exceed its start. When the sgd backend
    leaves an interior point with every active scenario nearly tight, a
    projection onto the exact active face removes the residual hinge mass
    so downstream feasibility verdicts see exact zeros.

    Stops when consecutive objectives differ by less than delta2.
    """
    p = instance.probabilities
    z = np.ones(instance.scenario_count) if z0 is None else np.asarray(z0, dtype=float)
    x_warm = x0
    prev_obj: Optional[float] = None
    trace: List[float] = []
    x = None
    s = None
    obj = np.nan
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        sol = solve_lower_level(
            instance, t, z, backend=backend, x0=x_warm, sgd_config=sgd_config, start=start
        )
        x, s, obj = sol.x, sol.s, sol.value
        start = sol.lp_outcome
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


@dataclass(frozen=True, eq=False)
class DcResult:
    x: np.ndarray
    s: np.ndarray
    z: np.ndarray
    value: float                    # E[z * s] at the final triple
    rounds: int
    objective_trace: Tuple[float, ...]


def _dc_pieces(instance: CcpInstance, t: float):
    """Convex pieces of the coupled set over (x, s, z): one box (X's bounds,
    s >= 0, z in [0, 1]), X's equality rows, then one system of X's rows,
    the budget row, the scenario rows and the mass row."""
    model = instance.constraints
    rows = model.rows
    if rows is None or rows.theta != 0.0:
        raise BackendUnavailable(
            f"dc scheme: {type(model).__name__} rows do not embed as halfspaces"
        )
    try:
        xA, xb, xE, xf, lo, hi = as_polyhedron(instance.x_set)
    except UnsupportedSet as exc:
        raise BackendUnavailable(f"dc scheme: {exc}") from exc
    n, N = instance.n, instance.scenario_count
    dim = n + 2 * N
    pieces = [
        Box(np.concatenate([lo, np.zeros(2 * N)]), np.concatenate([hi, np.full(N, np.inf), np.ones(N)]))
    ]
    if xE.shape[0]:
        pieces.append(AffineEqualities(_padded(xE, dim).T, xf))
    budget = instance.cost[None, :] if np.isfinite(t) else np.zeros((0, n))
    scen, _ = _scenario_rows(rows, dim, dim, lo, hi, slack_col=n)
    # probability mass kept by z must reach 1 - eps
    mass = np.zeros((1, dim))
    mass[0, n + N :] = -instance.probabilities
    A = np.vstack([_padded(xA, dim), _padded(budget, dim), scen, mass])
    b = np.concatenate([xb, np.full(budget.shape[0], t), rows.r.reshape(-1), [-(1.0 - instance.epsilon)]])
    return pieces + [Halfspaces(A, b)]


def dc_solve(
    instance: CcpInstance,
    t: float,
    x0=None,
    s0=None,
    z0=None,
    delta2: float = 1e-2,
    max_rounds: int = 100,
    inner_iters: int = 400,
) -> DcResult:
    """Difference-of-convex descent on E[z s] over the coupled (x, s, z) set.

    E[z s] splits as 1/4 E[(z+s)^2] - 1/4 E[(z-s)^2]; each round linearizes
    the concave half at the current z - s and minimizes the resulting convex
    quadratic by projected gradient (the quadratic has curvature p_k per
    scenario block, so the 1/max(p) step is safe). Stops when consecutive
    E[z s] values differ by less than delta2, or immediately once the
    product is numerically zero.
    """
    n, N = instance.n, instance.scenario_count
    p = instance.probabilities
    pieces = _dc_pieces(instance, t)

    def project(u: np.ndarray) -> np.ndarray:
        try:
            return dykstra_project(pieces, u)
        except NoConvergence as exc:
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
            for _ in range(inner_iters):
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
    )
