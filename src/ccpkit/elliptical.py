"""Single-row chance constraints under a Gaussian scenario vector.

    g(x, xi) = xi' a1(x) - b1(x),   a1(x) = A x + a0,   b1(x) = b'x + b0

with xi ~ N(mu, sigma). The hinge expectation and the violation
probability have closed forms through the loss mean/deviation

    m(x) = mu' a1(x) - b1(x),   sd(x) = sqrt(a1(x)' sigma a1(x)),

so the approximation scheme needs no scenario sampling: a point is
chance-feasible iff the conic margin -m(x) - quant(1-eps) sd(x) is
nonnegative. For eps <= 1/2 the margin is concave and the exact optimum
is a budget bisection around a supergradient ascent of the margin.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from time import perf_counter
from typing import Optional, Tuple

import numpy as np

from .errors import (
    BackendUnavailable,
    BadStart,
    DomainError,
    Infeasible,
    NoFeasibleT,
    NonFinite,
    NormMismatch,
    ParseError,
    ValidationError,
)
from .geometry import as_polyhedron
from .lp import LpProblem, solve_lp
from .model import (
    Box,
    FeasibleSet,
    Mahalanobis,
    NormSpec,
    SolveReport,
    _set_from_doc,
    _set_to_doc,
    norm_from_tag,
    norm_to_tag,
    set_dim,
)
from .search import bisect_budget, bisect_from
from .subgrad import feasible_start

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


def std_normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT2PI


def std_normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def std_normal_quantile(q: float) -> float:
    """Inverse cdf by bracketed bisection; DomainError outside (0, 1)."""
    if not 0.0 < q < 1.0:
        raise DomainError(f"quantile needs q in (0, 1), got {q}")
    found = bisect_budget(lambda t: t if std_normal_cdf(t) >= q else None, -40.0, 40.0, 1e-12, 1.0)
    return 0.5 * (found.lo + found.hi)


def hinge_factor(alpha: float) -> float:
    """f(a) = pdf(a) - a + a * cdf(a); E[(Y - c)_+] = sd * f((c - mean)/sd)."""
    return std_normal_pdf(alpha) - alpha + alpha * std_normal_cdf(alpha)


@dataclass(frozen=True, eq=False)
class EllipticalCcp:
    mu: np.ndarray
    sigma: np.ndarray
    a: np.ndarray            # (m, n)
    a0: np.ndarray           # (m,)
    b: np.ndarray            # (n,)
    b0: float
    cost: np.ndarray         # (n,)
    epsilon: float
    x_set: Optional[FeasibleSet] = None
    generator: str = "gaussian"
    theta: Optional[float] = None
    wasserstein_norm: Optional[NormSpec] = None

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        a = np.asarray(self.a, dtype=float)
        a0 = np.asarray(self.a0, dtype=float)
        b = np.asarray(self.b, dtype=float)
        cost = np.asarray(self.cost, dtype=float)
        m = mu.shape[0]
        if sigma.shape != (m, m):
            raise ValidationError("sigma: shape must match mu")
        sigma = 0.5 * (sigma + sigma.T)
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            raise ValidationError("sigma: not positive definite")
        if a.ndim != 2 or a.shape[0] != m:
            raise ValidationError("a: shape must be (len(mu), n)")
        n = a.shape[1]
        if a0.shape != (m,) or b.shape != (n,) or cost.shape != (n,):
            raise ValidationError("a0/b/cost: inconsistent shapes")
        if not 0.0 < float(self.epsilon) < 1.0:
            raise ValidationError("epsilon: must lie strictly inside (0, 1)")
        if self.x_set is not None and set_dim(self.x_set) != n:
            raise ValidationError("x_set: dimension differs from n")
        if self.theta is not None and (not np.isfinite(self.theta) or self.theta < 0):
            raise ValidationError("theta: must be >= 0")
        for name, val in (("mu", mu), ("sigma", sigma), ("a", a), ("a0", a0), ("b", b)):
            object.__setattr__(self, name, val)
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "b0", float(self.b0))
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "_chol", chol)

    @property
    def n(self) -> int:
        return self.a.shape[1]

    def domain(self) -> FeasibleSet:
        if self.x_set is not None:
            return self.x_set
        return Box(np.full(self.n, -np.inf), np.full(self.n, np.inf))

    def a1(self, x) -> np.ndarray:
        return self.a @ np.asarray(x, dtype=float) + self.a0

    def b1(self, x) -> float:
        return float(self.b @ np.asarray(x, dtype=float) + self.b0)

    def loss_moments(self, x) -> Tuple[float, float]:
        """(mean, standard deviation) of g(x, xi)."""
        v = self.a1(x)
        mean = float(self.mu @ v) - self.b1(x)
        sd = float(np.sqrt(max(v @ self.sigma @ v, 0.0)))
        return mean, sd


def _require_gaussian(ec: EllipticalCcp) -> None:
    if ec.generator != "gaussian":
        raise BackendUnavailable(f"no closed forms for generator {ec.generator!r}")


def gaussian_hinge(ec: EllipticalCcp, x) -> float:
    """E[(g(x, xi))_+] in closed form; degenerates to (mean)_+ when sd = 0."""
    _require_gaussian(ec)
    mean, sd = ec.loss_moments(x)
    if sd < 1e-15:
        return max(mean, 0.0)
    alpha = -mean / sd
    return sd * hinge_factor(alpha)


def gaussian_hinge_gradient(ec: EllipticalCcp, x) -> np.ndarray:
    _require_gaussian(ec)
    mean, sd = ec.loss_moments(x)
    mean_grad = ec.a.T @ ec.mu - ec.b
    if sd < 1e-15:
        return mean_grad if mean > 0.0 else np.zeros(ec.n)
    alpha = -mean / sd
    v = ec.a1(x)
    sd_grad = (ec.a.T @ (ec.sigma @ v)) / sd
    # d/dx E[(g)_+] = P(g > 0) * grad mean + pdf(alpha) * grad sd
    return (1.0 - std_normal_cdf(alpha)) * mean_grad + std_normal_pdf(alpha) * sd_grad


def gaussian_violation(ec: EllipticalCcp, x) -> float:
    """P{g(x, xi) > 0}."""
    _require_gaussian(ec)
    mean, sd = ec.loss_moments(x)
    if sd < 1e-15:
        return 0.0 if mean <= 0.0 else 1.0
    return std_normal_cdf(mean / sd)


def conic_margin(ec: EllipticalCcp, x) -> float:
    """-mean - quant(1-eps) sd; nonnegative iff x is chance-feasible.

    With sd = 0 the verdict is deterministic and the margin is +-inf by the
    sign of the mean.
    """
    _require_gaussian(ec)
    mean, sd = ec.loss_moments(x)
    if sd < 1e-15:
        return np.inf if mean <= 0.0 else -np.inf
    return -mean - std_normal_quantile(1.0 - ec.epsilon) * sd


def robust_conic_margin(ec: EllipticalCcp, x) -> float:
    """Margin against every distribution within theta in Wasserstein metric.

    The ball must be measured in the Mahalanobis norm of this instance's
    sigma; the radius then simply inflates the quantile.
    """
    _require_gaussian(ec)
    if ec.theta is None:
        raise ValidationError("robust margin needs a wasserstein radius theta")
    if not isinstance(ec.wasserstein_norm, Mahalanobis) or not np.allclose(
        ec.wasserstein_norm.sigma, ec.sigma, atol=1e-12
    ):
        raise NormMismatch("robust margin needs the Mahalanobis norm of sigma")
    mean, sd = ec.loss_moments(x)
    if sd < 1e-15:
        return np.inf if mean <= 0.0 else -np.inf
    r = std_normal_quantile(1.0 - ec.epsilon) + ec.theta
    return -mean - r * sd


# ---------------------------------------------------------------------------
# exact conic optimum and the hinge scheme


def _margin_and_supergrad(ec: EllipticalCcp, r: float, x: np.ndarray) -> Tuple[float, np.ndarray]:
    mean, sd = ec.loss_moments(x)
    grad = -(ec.a.T @ ec.mu - ec.b)
    if sd < 1e-15:
        return -mean, grad          # cone tip: any sd supergradient works
    return -mean - r * sd, grad - r * (ec.a.T @ (ec.sigma @ ec.a1(x))) / sd


def _budget_polyhedron(ec: EllipticalCcp, t: float):
    """Rows of S(t) = X cap {c'x <= t} in an (x, eta) column layout."""
    xA, xb, xE, xf, lo, hi = as_polyhedron(ec.domain())
    rows = [np.concatenate([row, [0.0]]) for row in xA]
    rhs = [float(v) for v in xb]
    if np.isfinite(t) and float(np.linalg.norm(ec.cost)) > 0.0:
        rows.append(np.concatenate([ec.cost, [0.0]]))
        rhs.append(float(t))
    eq = None
    eqrhs = None
    if xE.shape[0]:
        eq = np.hstack([xE, np.zeros((xE.shape[0], 1))])
        eqrhs = xf
    return rows, rhs, eq, eqrhs, lo, hi


def _margin_ascent(
    ec: EllipticalCcp,
    t: float,
    r: float,
    max_cuts: int = 120,
    tol: float = 1e-8,
) -> Tuple[float, Optional[np.ndarray]]:
    """Certified max of the concave margin over S(t) by cutting planes.

    Linearizations overestimate a concave function, so the cut LP value is
    an upper bound and the best evaluated point a lower bound; the loop
    exits as soon as a point with nonnegative margin is in hand (witness),
    the upper bound goes negative (certificate of infeasibility), or the
    two meet. Returns (-inf, None) when S(t) itself is empty. A trust box
    around the starting point keeps the first LPs bounded on free domains;
    it only ever expands, so no optimum is cut off.
    """
    try:
        x = feasible_start(ec.domain(), ec.cost, t)
    except BadStart:
        return -np.inf, None
    n = ec.n
    base_rows, base_rhs, eq, eqrhs, lo, hi = _budget_polyhedron(ec, t)
    radius = 10.0 * (1.0 + float(np.max(np.abs(x))))
    obj = np.zeros(n + 1)
    obj[n] = -1.0                      # maximize the cut value eta
    cut_rows: list = []
    cut_rhs: list = []
    best_val = -np.inf
    best_x = None
    for _ in range(max_cuts):
        val, g = _margin_and_supergrad(ec, r, x)
        if val > best_val:
            best_val, best_x = val, x
        if best_val >= 0.0:
            return best_val, best_x
        cut_rows.append(np.concatenate([-g, [1.0]]))
        cut_rhs.append(float(val - g @ x))
        out = solve_lp(
            LpProblem(
                c=obj,
                A=np.array(base_rows + cut_rows),
                b=np.array(base_rhs + cut_rhs),
                E=eq,
                f=eqrhs,
                lo=np.concatenate([np.maximum(lo, x - radius), [-np.inf]]),
                hi=np.concatenate([np.minimum(hi, x + radius), [np.inf]]),
            )
        )
        if out.status == "infeasible":
            return -np.inf, None
        ub = float(out.x[n])
        new_x = np.array(out.x[:n])
        if ub < 0.0:
            return best_val, best_x
        if ub - best_val <= tol * (1.0 + abs(ub)):
            return best_val, best_x
        if float(np.max(np.abs(new_x - x))) >= radius - 1e-9:
            radius *= 10.0             # trust box hit; widen and keep going
        x = new_x
    return best_val, best_x


def _hinge_cut_min(
    ec: EllipticalCcp,
    t: float,
    max_cuts: int = 120,
    tol: float = 1e-9,
) -> np.ndarray:
    """Minimize the closed-form hinge over S(t) by cutting planes.

    Convex counterpart of the margin ascent: cut LP values bound the hinge
    from below, evaluated points from above. Raises BadStart on empty S(t).
    """
    x = feasible_start(ec.domain(), ec.cost, t)
    n = ec.n
    base_rows, base_rhs, eq, eqrhs, lo, hi = _budget_polyhedron(ec, t)
    radius = 10.0 * (1.0 + float(np.max(np.abs(x))))
    obj = np.zeros(n + 1)
    obj[n] = 1.0
    cut_rows: list = []
    cut_rhs: list = []
    best_val = np.inf
    best_x = x
    for _ in range(max_cuts):
        val = gaussian_hinge(ec, x)
        if val < best_val:
            best_val, best_x = val, x
        if best_val <= 0.0:
            return best_x
        g = gaussian_hinge_gradient(ec, x)
        # hinge >= val + g'(x - x_k), i.e. g'x - eta <= g'x_k - val
        cut_rows.append(np.concatenate([g, [-1.0]]))
        cut_rhs.append(float(g @ x - val))
        out = solve_lp(
            LpProblem(
                c=obj,
                A=np.array(base_rows + cut_rows),
                b=np.array(base_rhs + cut_rhs),
                E=eq,
                f=eqrhs,
                lo=np.concatenate([np.maximum(lo, x - radius), [0.0]]),
                hi=np.concatenate([np.minimum(hi, x + radius), [np.inf]]),
            )
        )
        if out.status == "infeasible":
            raise BadStart("empty budget slice")
        lb = float(out.x[n])
        new_x = np.array(out.x[:n])
        if best_val - lb <= tol * (1.0 + abs(best_val)):
            return best_x
        if float(np.max(np.abs(new_x - x))) >= radius - 1e-9:
            radius *= 10.0
        x = new_x
    return best_x


def exact_conic_solve(
    ec: EllipticalCcp,
    robust: bool = False,
    tol: float = 1e-7,
) -> Tuple[float, np.ndarray]:
    """Bisection on the budget against the concave margin; needs eps <= 1/2."""
    _require_gaussian(ec)
    if ec.epsilon > 0.5:
        raise ValidationError("exact conic solve needs eps <= 1/2 (concave margin)")
    r = std_normal_quantile(1.0 - ec.epsilon)
    if robust:
        if ec.theta is None:
            raise ValidationError("robust solve needs a wasserstein radius theta")
        r += ec.theta

    def accept(t: float) -> Optional[np.ndarray]:
        value, witness = _margin_ascent(ec, t, r)
        return witness if value >= 0.0 else None

    t0 = float(ec.cost @ feasible_start(ec.domain(), ec.cost, np.inf))
    found = bisect_from(accept, t0, tol, relative=True)
    if found.witness is None:
        raise Infeasible("conic program: no feasible budget found")
    if found.lo == -np.inf:
        raise NonFinite("conic program appears unbounded below")
    return found.hi, found.witness


def also_x_elliptical(
    ec: EllipticalCcp,
    delta1: float = 1e-2,
    robust: bool = False,
) -> SolveReport:
    """Hinge-based budget bisection with the closed-form feasibility check.

    The bracket starts at the exact conic value. Only hinge minimizers
    become incumbents, so the report shows what the hinge scheme achieves,
    not the conic optimum.
    """
    _require_gaussian(ec)
    start = perf_counter()
    margin = (lambda x: robust_conic_margin(ec, x)) if robust else (lambda x: conic_margin(ec, x))

    def accept(t: float) -> Optional[np.ndarray]:
        try:
            x = _hinge_cut_min(ec, t)
        except BadStart:
            return None
        return x if margin(x) >= 0.0 else None

    t_low, _ = exact_conic_solve(ec, robust=robust)
    found = bisect_budget(accept, t_low, np.inf, delta1, max(1.0, abs(t_low) / 2.0))
    if found.witness is None:
        raise NoFeasibleT("no budget made the hinge minimizer chance-feasible")
    return SolveReport(
        method="alsox_elliptical",
        t_star=found.hi,
        x_star=found.witness,
        objective=float(ec.cost @ found.witness),
        feasible=True,
        violation_prob=gaussian_violation(ec, found.witness),
        iterations=found.probes,
        lower_bound_used=found.lo,
        upper_bound_used=found.marched[1],
        wall_time=perf_counter() - start,
    )


def sample_losses(ec: EllipticalCcp, x, count: int, seed: int = 0) -> np.ndarray:
    """Monte-Carlo draws of g(x, xi); used to cross-check the closed forms."""
    _require_gaussian(ec)
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((int(count), ec.mu.shape[0])) @ ec._chol.T + ec.mu
    return draws @ ec.a1(x) - ec.b1(x)


# ---------------------------------------------------------------------------
# serialization


def elliptical_to_doc(ec: EllipticalCcp) -> dict:
    doc = {
        "type": "elliptical_gaussian",
        "mu": ec.mu.tolist(),
        "sigma": ec.sigma.tolist(),
        "a": ec.a.tolist(),
        "a0": ec.a0.tolist(),
        "b": ec.b.tolist(),
        "b0": ec.b0,
        "cost": ec.cost.tolist(),
        "epsilon": ec.epsilon,
        "generator": ec.generator,
    }
    if ec.x_set is not None:
        doc["x_set"] = _set_to_doc(ec.x_set)
    if ec.theta is not None:
        doc["theta"] = ec.theta
    if ec.wasserstein_norm is not None:
        doc["wasserstein_norm"] = norm_to_tag(ec.wasserstein_norm)
    return doc


def elliptical_from_doc(doc: dict) -> EllipticalCcp:
    if doc.get("type") != "elliptical_gaussian":
        raise ParseError(f"expected type 'elliptical_gaussian', got {doc.get('type')!r}")
    for key in ("mu", "sigma", "a", "a0", "b", "b0", "cost", "epsilon"):
        if key not in doc:
            raise ParseError(f"elliptical document: missing key {key!r}")
    norm = None
    if "wasserstein_norm" in doc:
        tag = doc["wasserstein_norm"]
        norm = norm_from_tag(tag, doc["sigma"] if tag == "mahalanobis" else None)
    return EllipticalCcp(
        mu=doc["mu"],
        sigma=doc["sigma"],
        a=doc["a"],
        a0=doc["a0"],
        b=doc["b"],
        b0=doc["b0"],
        cost=doc["cost"],
        epsilon=doc["epsilon"],
        x_set=_set_from_doc(doc["x_set"]) if "x_set" in doc else None,
        generator=doc.get("generator", "gaussian"),
        theta=doc.get("theta"),
        wasserstein_norm=norm,
    )


def load_elliptical(text: str) -> EllipticalCcp:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return elliptical_from_doc(doc)
