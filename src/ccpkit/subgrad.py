"""Projected subgradient descent for weighted hinge objectives.

Works over S(t) = X intersect {c'x <= t}. X is read through its
polyhedron(): when it has no rows, only bounds lo <= hi, S(t) gets an
exact projection via the KKT multiplier of the budget row, the root of a
piecewise-linear phi (the continuous quadratic knapsack of Helgason,
Kennington and Lall): the breakpoints are sorted and phi is evaluated at
all of them at once (in blocks past n = 181), one vectorized walk per
projection. Any other X (rows, equalities, a binary set, or bounds that
cross) is projected by Dykstra sweeps over its pieces and the budget row.
Each solve sets S(t) up once, for its projection and its feasible start.

Step sizes shrink harmonically, 1 / (k + 1) at step k, and a polish then
restarts from the best iterate with a few constant steps. Directions are
normalized once their norm exceeds one, which keeps the scheme scale-free
across the coefficient magnitudes the scenario generators produce. The
losses and their subgradients come from the constraint model
(losses_and_grads). The reported minimizer is the best iterate seen, not
the last one; a Dykstra projection cut off at its sweep cap is counted in
SgdResult.capped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import BadStart, NoConvergence, NonFinite
from .geometry import dykstra_project
from .model import CcpInstance, Halfspaces


@dataclass(frozen=True)
class SgdConfig:
    max_iter: int = 5000
    stall_window: int = 500


@dataclass(frozen=True, eq=False)
class SgdResult:
    x: np.ndarray
    value: float
    iterations: int
    stalled: bool
    capped: int = 0             # projections cut off at Dykstra's sweep cap


# an improvement of the best value by less than this does not restart the
# stall window
_STOP_TOL = 1e-10


# ---------------------------------------------------------------------------
# projection onto X intersect {c'x <= t}


# the most floats one block of the breakpoint walk holds: all K <= 2n
# breakpoints at once while 2 n^2 <= 2^16 (n <= 181), bounded blocks beyond
_WALK_FLOATS = 2**16


def _clip(y, lo, hi) -> np.ndarray:
    # np.clip's values through two ufunc calls, without its dispatch layers
    return np.minimum(np.maximum(y, lo), hi)


def _box_cap_projector(lo, hi, c, t) -> Callable[[np.ndarray], np.ndarray]:
    """Exact projection onto {lo <= x <= hi, c'x <= t} via the cap multiplier.

    phi(lam) = c' clip(y - lam c, lo, hi) is piecewise linear and
    nonincreasing; the multiplier is the exact root of phi(lam) = t on the
    first segment between sorted coordinate breakpoints where phi reaches
    t. phi is evaluated at a block of breakpoints at once, one (K, n) clip
    and product per block. Everything that does not depend on the point y
    is computed once, here.
    """
    # infimum of c'x over the box; 0 * inf corners contribute nothing
    with np.errstate(invalid="ignore"):
        terms = np.where(c > 0, c * lo, np.where(c < 0, c * hi, 0.0))
    cmin = float(np.sum(terms))
    if np.isnan(cmin):
        cmin = -np.inf
    unreachable = cmin > t + 1e-9 * (1.0 + abs(t))
    cap_tol = 1e-13 * (1.0 + abs(t))
    # breakpoints (y_j - bound_j) / c_j exist only for c_j != 0 and a finite
    # bound: their coordinates, bounds and costs, lower bounds first
    at_lo = np.flatnonzero((c != 0.0) & np.isfinite(lo))
    at_hi = np.flatnonzero((c != 0.0) & np.isfinite(hi))
    where = np.concatenate([at_lo, at_hi])
    bound = np.concatenate([lo[at_lo], hi[at_hi]])
    c_at = c[where]
    block = max(1, _WALK_FLOATS // max(1, c.size))
    # past the last breakpoint only coordinates with an infinite blocking
    # bound keep moving; the rest sit on the cmin corner
    blocking = np.where(c > 0, lo, np.where(c < 0, hi, 0.0))
    free = (c != 0.0) & ~np.isfinite(blocking)
    slope = float(np.sum(c[free] ** 2))

    def project(y: np.ndarray) -> np.ndarray:
        x = _clip(y, lo, hi)
        cap = float(c @ x) - t
        if cap <= cap_tol:
            return x
        if unreachable:
            raise BadStart("budget cap unreachable inside the box")
        cand = (y[where] - bound) / c_at
        # a repeated breakpoint evaluates to the same phi, so duplicates
        # stay: the first one at or below t is the same as with np.unique
        lams = cand[np.isfinite(cand) & (cand > 0.0)]
        lams.sort()
        prev_l, prev_phi = 0.0, cap + t
        for head in range(0, lams.size, block):
            lam = lams[head : head + block]
            phi = _clip(y - lam[:, None] * c, lo, hi) @ c
            hit = phi <= t
            i = int(hit.argmax())
            if hit[i]:
                if i:
                    prev_l, prev_phi = float(lam[i - 1]), float(phi[i - 1])
                lam_star = prev_l + (prev_phi - t) * (lam[i] - prev_l) / (prev_phi - phi[i])
                return _clip(y - lam_star * c, lo, hi)
            prev_l, prev_phi = float(lam[-1]), float(phi[-1])
        if slope <= 0.0:
            # phi is flat at cmin ~ t (within the tolerance checked above)
            return _clip(y - (prev_l + 1.0) * c, lo, hi)
        lam_star = prev_l + (prev_phi - t) / slope
        return _clip(y - lam_star * c, lo, hi)

    return project


def _cap_setup(x_set, c: np.ndarray, t: float):
    """(box projection or None, Dykstra pieces) for S(t) = X cap {c'x <= t}.

    A box X (no rows in its polyhedron, lo <= hi) gets the exact closed-form
    projection; any other X gets its primitive pieces plus the cap row. The
    cap is void when t is infinite or c = 0, and then a t < 0 is BadStart.
    """
    uncapped = not np.isfinite(t) or float(np.linalg.norm(c)) == 0.0
    if uncapped and t < 0.0:
        raise BadStart("budget below the infimum of c'x over X")
    if not x_set.binary:
        A, _, E, _, lo, hi = x_set.polyhedron()
        if not A.shape[0] and not E.shape[0] and np.all(lo <= hi):
            if uncapped:
                return (lambda y: _clip(y, lo, hi)), None
            return _box_cap_projector(lo, hi, c, t), None
    sets = x_set.pieces()
    if not uncapped:
        sets.append(Halfspaces(c[None, :], np.array([t])))
    return None, sets


def make_cap_projector(x_set, cost, t: float) -> Callable[[np.ndarray], np.ndarray]:
    """Projection closure for S(t) = X intersect {c'x <= t}.

    A Dykstra projection that hits its sweep cap returns the best iterate it
    reached, which may lie outside S(t); the closure's `capped` counts them.
    """
    return _projector(_cap_setup(x_set, np.asarray(cost, dtype=float), t))


def _projector(setup) -> Callable[[np.ndarray], np.ndarray]:
    box, sets = setup
    if box is not None:
        box.capped = 0
        return box

    def proj(y: np.ndarray) -> np.ndarray:
        try:
            return dykstra_project(sets, y)
        except NoConvergence as exc:
            # best iterate is still a useful search point mid-run
            proj.capped += 1
            return exc.best

    proj.capped = 0
    return proj


def feasible_start(x_set, cost, t: float) -> np.ndarray:
    """Point of S(t) near the origin; BadStart if none is found."""
    c = np.asarray(cost, dtype=float)
    return _start(_cap_setup(x_set, c, t), c, t)


def _start(setup, c: np.ndarray, t: float, x0=None) -> np.ndarray:
    box, sets = setup
    y = np.zeros(c.shape[0]) if x0 is None else np.asarray(x0, dtype=float)
    if box is not None:
        return box(y)
    try:
        x = dykstra_project(sets, y)
    except NoConvergence as exc:
        raise BadStart("no feasible start: projection onto S(t) failed") from exc
    # an uncapped t is infinite or c = 0, so the check below cannot fire
    if float(c @ x) > t + 1e-6 * (1.0 + abs(t)):
        raise BadStart("no feasible start: budget cap violated after projection")
    return x


# ---------------------------------------------------------------------------
# solvers


def _descend(objective, x0: np.ndarray, proj, max_iter: int, stall_window: int,
             gamma: Optional[float] = None) -> SgdResult:
    """Shared loop: objective(x) -> (value, subgradient). Step k is
    1 / (k + 1), or the constant gamma when one is given."""
    x = np.asarray(x0, dtype=float).copy()
    best_val, _ = objective(x)
    best_x = x.copy()
    last_improve = 0
    k = 0
    for k in range(max_iter):
        val, grad = objective(x)
        if not math.isfinite(val):
            raise NonFinite("sgd: objective became non-finite")
        if val < best_val - _STOP_TOL:
            best_val = val
            best_x = x.copy()
            last_improve = k
        elif val < best_val:
            best_val = val
            best_x = x.copy()
        if k - last_improve >= stall_window:
            return SgdResult(best_x, float(best_val), k + 1, True)
        nrm = math.sqrt(float(grad @ grad))   # np.linalg.norm's own formula
        if nrm > 1.0:
            grad = grad / nrm
        x = proj(x - (1.0 / (k + 1.0) if gamma is None else gamma) * grad)
    return SgdResult(best_x, float(best_val), max_iter, False)


def _descend_with_polish(objective, x0: np.ndarray, proj, cfg: SgdConfig) -> SgdResult:
    """Main pass plus constant-step restarts from the best iterate.

    Decaying steps crawl along an active budget face; a few short
    constant-step passes recover the tangential motion. Best-iterate
    tracking makes each pass monotone, so the chain can only improve.
    Budgets under 1000 iterations skip the polish (they are deliberate).
    """
    out = _descend(objective, x0, proj, cfg.max_iter, cfg.stall_window)
    if cfg.max_iter < 1000:
        return out
    best = out
    total = out.iterations
    span = 1.0 + float(np.max(np.abs(best.x))) if best.x.size else 1.0
    pol_iters, pol_window = max(400, cfg.max_iter // 8), min(cfg.stall_window, 150)
    for gamma in (1e-2 * span, 1e-3 * span, 1e-4 * span):
        res = _descend(objective, best.x, proj, pol_iters, pol_window, gamma)
        total += res.iterations
        if res.value < best.value:
            best = res
    return SgdResult(best.x, best.value, total, out.stalled)


def solve_hinge_sgd(
    instance: CcpInstance,
    t: float,
    z_weights,
    x0,
    cfg: Optional[SgdConfig] = None,
) -> SgdResult:
    """min over S(t) of sum_k p_k z_k (g(x, xi^k))_+ ; best-iterate answer."""
    cfg = cfg or SgdConfig()
    z = np.asarray(z_weights, dtype=float)
    if z.shape != (instance.scenario_count,):
        raise BadStart("z_weights: wrong length")
    w = instance.probabilities * z
    setup = _cap_setup(instance.x_set, instance.cost, t)
    proj, start = _projector(setup), _start(setup, instance.cost, t, x0)

    def objective(x):
        vals, grads = instance.constraints.losses_and_grads(x)
        act = vals > 0.0          # zero subgradient at the hinge kink
        if not act.any():
            return 0.0, np.zeros_like(x)
        w_act = w[act]
        return float(w_act @ vals[act]), (w_act[:, None] * grads[act]).sum(axis=0)

    return replace(_descend_with_polish(objective, start, proj, cfg), capped=proj.capped)


def solve_cvar_lower_sgd(instance: CcpInstance, t: float, cfg: Optional[SgdConfig] = None) -> SgdResult:
    """min over S(t), beta <= 0 of sum_k p_k max(g_k(x), beta) - (1-eps) beta.

    Joint descent in (x, beta) from the feasible start nearest the origin and
    beta = min(0, its least loss); used as the conditional-value lower bound
    on models with no linear-programming form.
    """
    cfg = cfg or SgdConfig()
    p = instance.probabilities
    eps = instance.epsilon
    setup = _cap_setup(instance.x_set, instance.cost, t)
    proj_x, x_start = _projector(setup), _start(setup, instance.cost, t)
    beta_start = min(0.0, float(np.min(instance.constraints.losses(x_start))))

    def objective(xb):
        x, beta = xb[:-1], xb[-1]
        vals, grads = instance.constraints.losses_and_grads(x)
        over = vals > beta
        p_over = p[over]
        value = float(p_over @ vals[over] + (1.0 - float(np.sum(p_over))) * beta
                      - (1.0 - eps) * beta)
        gx = (p_over[:, None] * grads[over]).sum(axis=0) if p_over.size else np.zeros_like(x)
        gb = float(np.sum(p[~over])) - (1.0 - eps)
        return value, np.concatenate([gx, [gb]])

    def proj(xb):
        return np.concatenate([proj_x(xb[:-1]), [min(0.0, xb[-1])]])

    out = _descend_with_polish(objective, np.concatenate([x_start, [beta_start]]), proj, cfg)
    return SgdResult(out.x[:-1], out.value, out.iterations, out.stalled, capped=proj_x.capped)
