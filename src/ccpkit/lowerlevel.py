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

The sgd default for affine rows is deliberate: its minimizers land in the
interior of flat optimal faces, which is the behavior the approximation
schemes are calibrated against; the lp backend returns vertices instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import BackendUnavailable, BadStart, NoConvergence, NonFinite
from .geometry import as_polyhedron, dykstra_project, flatten_set
from .lp import LpProblem, solve_lp
from .model import (
    AffineEqualities,
    BiAffine,
    BiAffineEquality,
    BinaryTiny,
    Box,
    CcpInstance,
    Covering,
    Halfspaces,
    L1,
    LInf,
    NonNegOrthant,
    NormAugmented,
    SeparableConvexPower,
    Simplex,
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


def _hinge_parts(instance: CcpInstance, x: np.ndarray, z: np.ndarray):
    s = np.maximum(scenario_losses(instance, x), 0.0)
    return s, float(np.sum(instance.probabilities * z * s))


def affine_row_blocks(model) -> Optional[List[Tuple[np.ndarray, np.ndarray]]]:
    """Per-scenario (R_k, r_k) with g_k(x) = max_i (R_k x - r_k)_i, or None."""
    if isinstance(model, (BiAffine, NormAugmented)):
        return [(model.mats[k], model.offsets[k]) for k in range(model.scenario_count)]
    if isinstance(model, Covering):
        return [
            (-model.mats[k], -np.ones(model.mats.shape[1]))
            for k in range(model.scenario_count)
        ]
    if isinstance(model, BiAffineEquality):
        return [
            (np.vstack([model.d[k], -model.d[k]]), np.array([model.e[k], -model.e[k]]))
            for k in range(model.scenario_count)
        ]
    return None


def _norm_aux(model) -> Tuple[int, str]:
    """(aux column count, kind) for linearizing theta * dual norm in an LP."""
    if not isinstance(model, NormAugmented) or model.theta == 0.0:
        return 0, "none"
    if isinstance(model.norm, LInf):      # dual is the 1-norm: one u_j per coordinate
        return model.dim, "sum"
    if isinstance(model.norm, L1):        # dual is the sup norm: a single bound v
        return 1, "max"
    raise BackendUnavailable("lp backend: only 1-norm / sup-norm balls linearize")


def _solve_hinge_lp(instance: CcpInstance, t: float, z: np.ndarray) -> LowerLevelSolution:
    model = instance.constraints
    blocks = affine_row_blocks(model)
    if blocks is None:
        raise BackendUnavailable(f"lp backend: {type(model).__name__} rows are not affine")
    n, N = instance.n, instance.scenario_count
    n_aux, aux_kind = _norm_aux(model)
    theta = model.theta if isinstance(model, NormAugmented) else 0.0
    xA, xb, xE, xf, lo_x, hi_x = as_polyhedron(instance.x_set)

    ncol = n + N + n_aux
    rows: List[np.ndarray] = []
    rhs: List[float] = []

    def pad(vec_x, vec_s=None, vec_u=None):
        r = np.zeros(ncol)
        r[:n] = vec_x
        if vec_s is not None:
            r[n : n + N] = vec_s
        if vec_u is not None:
            r[n + N :] = vec_u
        return r

    for k, (Rk, rk) in enumerate(blocks):
        for i in range(Rk.shape[0]):
            s_vec = np.zeros(N)
            s_vec[k] = -1.0
            u_vec = None
            if aux_kind == "sum":
                u_vec = np.full(n_aux, theta)
            elif aux_kind == "max":
                u_vec = np.array([theta])
            rows.append(pad(Rk[i], s_vec, u_vec))
            rhs.append(float(rk[i]))
    if aux_kind == "sum":
        for j in range(n):
            for sign in (1.0, -1.0):
                r = np.zeros(ncol)
                r[j] = sign
                r[n + N + j] = -1.0
                rows.append(r)
                rhs.append(0.0)
    elif aux_kind == "max":
        for j in range(n):
            for sign in (1.0, -1.0):
                r = np.zeros(ncol)
                r[j] = sign
                r[n + N] = -1.0
                rows.append(r)
                rhs.append(0.0)
    if np.isfinite(t):
        rows.append(pad(instance.cost))
        rhs.append(float(t))
    for i in range(xA.shape[0]):
        rows.append(pad(xA[i]))
        rhs.append(float(xb[i]))
    eq_rows = [pad(xE[i]) for i in range(xE.shape[0])]
    eq_rhs = [float(xf[i]) for i in range(xE.shape[0])]

    lo = np.concatenate([lo_x, np.zeros(N), np.zeros(max(n_aux, 0))])
    hi = np.concatenate([hi_x, np.full(N, np.inf), np.full(max(n_aux, 0), np.inf)])
    cost = np.concatenate([np.zeros(n), instance.probabilities * z, np.zeros(n_aux)])

    problem = LpProblem(
        c=cost,
        A=np.array(rows) if rows else None,
        b=np.array(rhs) if rhs else None,
        E=np.array(eq_rows) if eq_rows else None,
        f=np.array(eq_rhs) if eq_rhs else None,
        lo=lo,
        hi=hi,
    )
    out = solve_lp(problem)
    if out.status == "infeasible":
        raise BadStart(f"hinge lp: S(t) is empty at t={t}")
    if out.status != "optimal":
        raise NonFinite(f"hinge lp: unexpected status {out.status}")
    x = out.x[:n]
    s, value = _hinge_parts(instance, x, z)
    return LowerLevelSolution(x=x, s=s, value=value, backend="lp", iterations=out.pivots)


# points of a lattice scan scored at once; a dim-20 scan holds one block at a time
_LATTICE_BLOCK = 4096


def lattice_argmin(instance: CcpInstance, score) -> Optional[Tuple[float, np.ndarray]]:
    """(value, x) at the first minimizer of score over X cap {0,1}^n, or None.

    Points come in itertools.product order, a block of rows at a time;
    score(points, costs, losses) maps a block, its costs c'x and its scenario
    losses to one value per point, inf to skip the point. A later point
    replaces the best only when it is lower by more than 1e-15.
    """
    if sum(isinstance(p, BinaryTiny) for p in flatten_set(instance.x_set)) != 1:
        raise BackendUnavailable("lattice scan: needs exactly one binary set")
    n = instance.n
    shifts = np.arange(n - 1, -1, -1)
    best, best_x = np.inf, None
    for first in range(0, 2**n, _LATTICE_BLOCK):
        codes = np.arange(first, min(first + _LATTICE_BLOCK, 2**n))
        points = ((codes[:, None] >> shifts) & 1).astype(float)
        points = points[set_contains(instance.x_set, points)]
        values = score(points, _times(instance.cost, points), scenario_losses(instance, points))
        # a point that beats the best by the tie rule is below every earlier
        # value, so only those running minima need the in-order check
        earlier = np.minimum.accumulate(np.concatenate([[best], values]))[:-1]
        for i in np.flatnonzero(values < earlier):
            if values[i] < best - 1e-15:
                best, best_x = float(values[i]), points[i].copy()
    return None if best_x is None else (best, best_x)


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
    if any(isinstance(p, BinaryTiny) for p in flatten_set(instance.x_set)):
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
) -> LowerLevelSolution:
    """Weighted hinge minimum over S(t); see the module docstring."""
    z = np.ones(instance.scenario_count) if z_weights is None else np.asarray(z_weights, dtype=float)
    if backend == "auto":
        backend = pick_backend(instance)
    if backend == "lp":
        return _solve_hinge_lp(instance, t, z)
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
    model = instance.constraints
    if isinstance(model, NormAugmented) and model.theta != 0.0:
        return None
    if isinstance(model, SeparableConvexPower):
        return None
    if any(isinstance(p, BinaryTiny) for p in flatten_set(instance.x_set)):
        return None
    pieces = list(flatten_set(instance.x_set))
    if np.isfinite(t):
        pieces.append(Halfspaces(instance.cost[None, :], np.array([t])))
    for k in np.nonzero(z > 0.0)[0]:
        if isinstance(model, (BiAffine, NormAugmented)):
            pieces.append(Halfspaces(model.mats[k], model.offsets[k]))
        elif isinstance(model, Covering):
            pieces.append(Halfspaces(-model.mats[k], -np.ones(model.mats.shape[1])))
        elif isinstance(model, BiAffineEquality):
            pieces.append(AffineEqualities(model.d[k][:, None], np.array([model.e[k]])))
        else:
            return None
    return pieces


def _exact_face_polish(instance, t, z, x) -> Optional[np.ndarray]:
    pieces = _face_pieces(instance, t, z)
    if pieces is None:
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
) -> AmResult:
    """Alternate weighted hinge solves with the closed-form z update.

    Warm-starting each hinge solve from the previous x makes the objective
    trace nonincreasing (the best iterate can never exceed its start). When
    the sgd backend leaves an interior point with every active scenario
    nearly tight, a projection onto the exact active face removes the
    residual hinge mass so downstream feasibility verdicts see exact zeros.

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
        sol = solve_lower_level(instance, t, z, backend=backend, x0=x_warm, sgd_config=sgd_config)
        x, s, obj = sol.x, sol.s, sol.value
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
    """Convex pieces of the coupled set over (x, s, z)."""
    model = instance.constraints
    blocks = affine_row_blocks(model)
    if blocks is None or (isinstance(model, NormAugmented) and model.theta != 0.0):
        raise BackendUnavailable(
            f"dc scheme: {type(model).__name__} rows do not embed as halfspaces"
        )
    n, N = instance.n, instance.scenario_count
    dim = n + 2 * N
    pieces = []
    for piece in flatten_set(instance.x_set):
        if isinstance(piece, Box):
            lo = np.concatenate([piece.lower, np.full(2 * N, -np.inf)])
            hi = np.concatenate([piece.upper, np.full(2 * N, np.inf)])
            pieces.append(Box(lo, hi))
        elif isinstance(piece, NonNegOrthant):
            lo = np.concatenate([np.zeros(n), np.full(2 * N, -np.inf)])
            pieces.append(Box(lo, np.full(dim, np.inf)))
        elif isinstance(piece, Halfspaces):
            a = np.zeros((piece.a.shape[0], dim))
            a[:, :n] = piece.a
            pieces.append(Halfspaces(a, piece.b))
        elif isinstance(piece, Simplex):
            lo = np.concatenate([np.zeros(n), np.full(2 * N, -np.inf)])
            pieces.append(Box(lo, np.full(dim, np.inf)))
            u = np.zeros((dim, 1))
            u[:n, 0] = 1.0
            pieces.append(AffineEqualities(u, np.array([piece.total])))
        elif isinstance(piece, AffineEqualities):
            u = np.zeros((dim, piece.u.shape[1]))
            u[:n] = piece.u
            pieces.append(AffineEqualities(u, piece.h))
        else:
            raise BackendUnavailable(f"dc scheme: set {type(piece).__name__} unsupported")
    # s >= 0, z in [0, 1]
    lo = np.concatenate([np.full(n, -np.inf), np.zeros(2 * N)])
    hi = np.concatenate([np.full(n + N, np.inf), np.ones(N)])
    pieces.append(Box(lo, hi))
    if np.isfinite(t):
        row = np.zeros((1, dim))
        row[0, :n] = instance.cost
        pieces.append(Halfspaces(row, np.array([t])))
    rows = []
    rhs = []
    for k, (Rk, rk) in enumerate(blocks):
        for i in range(Rk.shape[0]):
            row = np.zeros(dim)
            row[:n] = Rk[i]
            row[n + k] = -1.0
            rows.append(row)
            rhs.append(float(rk[i]))
    pieces.append(Halfspaces(np.array(rows), np.array(rhs)))
    # probability mass kept by z must reach 1 - eps
    row = np.zeros((1, dim))
    row[0, n + N :] = -instance.probabilities
    pieces.append(Halfspaces(row, np.array([-(1.0 - instance.epsilon)])))
    return pieces


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
