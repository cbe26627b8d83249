"""Single-row chance constraints under a Gaussian scenario vector.

    g(x, xi) = xi' a1(x) - b1(x),   a1(x) = A x + a0,   b1(x) = b'x + b0

with xi ~ N(mu, sigma). The hinge expectation and the violation
probability have closed forms through the loss mean/deviation

    m(x) = mu' a1(x) - b1(x),   sd(x) = sqrt(a1(x)' sigma a1(x)),

so the approximation scheme needs no scenario sampling: a point is
chance-feasible iff the conic margin -m(x) - quant(1-eps) sd(x) is
nonnegative. For eps <= 1/2 the margin is concave and the exact optimum
is a budget bisection around a supergradient ascent of the margin. A
problem that carries a Wasserstein radius theta, with the ball in the
Mahalanobis norm of sigma, is solved robustly: theta is added to the
quantile.
"""

from __future__ import annotations

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
    ValidationError,
)
from .lp import LpProblem, solve_lp
from .model import (
    Box,
    FeasibleSet,
    Mahalanobis,
    NormSpec,
    SolveReport,
    _mat,
    _real,
    from_doc,
    parse_document,
    to_doc,
)
from .search import bisect_budget, bisect_from
from .subgrad import feasible_start

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
# Kelley loops: the cut cap, and the relative gap at which the margin
# ascent and the hinge minimization stop
_MAX_CUTS = 120
_MARGIN_TOL = 1e-8
_HINGE_TOL = 1e-9
# relative width at which the exact conic solve's budget bisection stops
_CONIC_TOL = 1e-7


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
        if self.generator != "gaussian":
            raise BackendUnavailable(f"no closed forms for generator {self.generator!r}")
        mu = _mat(self.mu, "mu", 1)
        sigma = _mat(self.sigma, "sigma", 2)
        a = _mat(self.a, "a", 2)
        a0 = _mat(self.a0, "a0", 1)
        b = _mat(self.b, "b", 1)
        cost = _mat(self.cost, "cost", 1)
        epsilon = _real(self.epsilon, "epsilon")
        m = mu.shape[0]
        if sigma.shape != (m, m):
            raise ValidationError("sigma: shape must match mu")
        # sigma must pass as the Mahalanobis norm a Wasserstein radius puts on it
        norm = Mahalanobis(sigma)
        sigma, chol = norm.sigma, norm._chol
        if a.ndim != 2 or a.shape[0] != m:
            raise ValidationError("a: shape must be (len(mu), n)")
        n = a.shape[1]
        if a0.shape != (m,) or b.shape != (n,) or cost.shape != (n,):
            raise ValidationError("a0/b/cost: inconsistent shapes")
        if not 0.0 < epsilon < 1.0:
            raise ValidationError("epsilon: must lie strictly inside (0, 1)")
        if self.x_set is not None and self.x_set.dim != n:
            raise ValidationError("x_set: dimension differs from n")
        if self.theta is not None:
            _real(self.theta, "theta", 0.0)
        for name, val in (("mu", mu), ("sigma", sigma), ("a", a), ("a0", a0), ("b", b)):
            object.__setattr__(self, name, val)
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "b0", _real(self.b0, "b0"))
        object.__setattr__(self, "epsilon", epsilon)
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


def gaussian_hinge(ec: EllipticalCcp, x) -> float:
    """E[(g(x, xi))_+] in closed form; degenerates to (mean)_+ when sd = 0."""
    mean, sd = ec.loss_moments(x)
    if sd < 1e-15:
        return max(mean, 0.0)
    alpha = -mean / sd
    return sd * hinge_factor(alpha)


def gaussian_hinge_gradient(ec: EllipticalCcp, x) -> np.ndarray:
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
    mean, sd = ec.loss_moments(x)
    if sd < 1e-15:
        return 0.0 if mean <= 0.0 else 1.0
    return std_normal_cdf(mean / sd)


def _radius(ec: EllipticalCcp) -> float:
    """quant(1-eps), plus theta when the problem carries a Wasserstein
    radius theta: the number of standard deviations a feasible point's mean
    loss must keep below zero. A radius needs a ball measured in the
    Mahalanobis norm of this instance's sigma (NormMismatch); it then
    simply inflates the quantile."""
    r = std_normal_quantile(1.0 - ec.epsilon)
    if ec.theta is None:
        return r
    if not isinstance(ec.wasserstein_norm, Mahalanobis) or not np.allclose(
        ec.wasserstein_norm.sigma, ec.sigma, atol=1e-12
    ):
        raise NormMismatch("robust margin needs the Mahalanobis norm of sigma")
    return r + ec.theta


def _margin(ec: EllipticalCcp, r: float, x) -> float:
    """-mean - r sd; with sd = 0 the verdict is deterministic and the margin
    is +-inf by the sign of the mean."""
    mean, sd = ec.loss_moments(x)
    if sd < 1e-15:
        return np.inf if mean <= 0.0 else -np.inf
    return -mean - r * sd


def conic_margin(ec: EllipticalCcp, x) -> float:
    """-mean - r sd with r = _radius(ec); nonnegative iff x is
    chance-feasible, against every distribution within theta in the
    Wasserstein metric when ec carries a radius."""
    return _margin(ec, _radius(ec), x)


# ---------------------------------------------------------------------------
# exact conic optimum and the hinge scheme


def _margin_and_supergrad(ec: EllipticalCcp, r: float, x: np.ndarray) -> Tuple[float, np.ndarray]:
    mean, sd = ec.loss_moments(x)
    grad = -(ec.a.T @ ec.mu - ec.b)
    if sd < 1e-15:
        return -mean, grad          # cone tip: any sd supergradient works
    return -mean - r * sd, grad - r * (ec.a.T @ (ec.sigma @ ec.a1(x))) / sd


def _cutting_planes(ec: EllipticalCcp, t: float, oracle, sense: int, eta_lo: float, done):
    """Kelley's (1960) cutting planes for sense * f over S(t); (best value, point).

    oracle(x) gives f(x) and a subgradient of f (sense +1: f convex and
    minimized; -1: f concave and maximized). Each cut sense * (f(x_k) +
    g'(x - x_k)) <= sense * eta is a row [sense * g, -sense] over (x, eta),
    so the cut LP's eta bounds the optimum and the best evaluated point
    bounds it from the other side. The loop stops once a point has
    sense * f <= 0 (a nonnegative margin is a witness, a zero hinge is
    optimal), or when done(best value, eta) holds after a cut LP.
    A trust box around the starting point keeps the first LPs bounded on
    free domains; it only ever expands, so no optimum is cut off. Raises
    BadStart when S(t) is empty.
    """
    x = feasible_start(ec.domain(), ec.cost, t)
    n = ec.n
    xA, xb, xE, xf, lo, hi = ec.domain().polyhedron()
    if np.isfinite(t) and float(np.linalg.norm(ec.cost)) > 0.0:
        xA, xb = np.vstack([xA, ec.cost]), np.append(xb, t)
    base = np.hstack([xA, np.zeros((xA.shape[0], 1))])
    eq = np.hstack([xE, np.zeros((xE.shape[0], 1))])
    radius = 10.0 * (1.0 + float(np.max(np.abs(x))))
    obj = np.append(np.zeros(n), float(sense))
    cut_rows, cut_rhs = [], []
    best_val, best_x = sense * np.inf, x
    for _ in range(_MAX_CUTS):
        val, g = oracle(x)
        if sense * val < sense * best_val:
            best_val, best_x = val, x
        if sense * best_val <= 0.0:
            break
        cut_rows.append(np.concatenate([sense * g, [-sense]]))
        cut_rhs.append(sense * float(g @ x) - sense * val)
        out = solve_lp(
            LpProblem(
                c=obj,
                A=np.vstack([base] + cut_rows),
                b=np.concatenate([xb, cut_rhs]),
                E=eq,
                f=xf,
                lo=np.concatenate([np.maximum(lo, x - radius), [eta_lo]]),
                hi=np.concatenate([np.minimum(hi, x + radius), [np.inf]]),
            )
        )
        if out.status == "infeasible":
            raise BadStart("empty budget slice")
        if done(best_val, float(out.x[n])):
            break
        new_x = np.array(out.x[:n])
        if float(np.max(np.abs(new_x - x))) >= radius - 1e-9:
            radius *= 10.0             # trust box hit; widen and keep going
        x = new_x
    return best_val, best_x


def _margin_ascent(ec: EllipticalCcp, t: float, r: float) -> Tuple[float, Optional[np.ndarray]]:
    """Certified max of the concave margin over S(t) by cutting planes.

    Cut LP values bound the margin from above. The loop exits with a point
    of nonnegative margin (witness), an upper bound below zero
    (certificate of infeasibility), or once the two bounds meet. Returns
    (-inf, None) when S(t) itself is empty.
    """
    try:
        return _cutting_planes(
            ec, t, lambda x: _margin_and_supergrad(ec, r, x), -1, -np.inf,
            lambda best, ub: ub < 0.0 or ub - best <= _MARGIN_TOL * (1.0 + abs(ub)),
        )
    except BadStart:
        return -np.inf, None


def _hinge_cut_min(ec: EllipticalCcp, t: float) -> np.ndarray:
    """Minimize the closed-form hinge over S(t) by cutting planes.

    Cut LP values bound the hinge (>= 0) from below, evaluated points from
    above. Raises BadStart on empty S(t).
    """
    return _cutting_planes(
        ec, t, lambda x: (gaussian_hinge(ec, x), gaussian_hinge_gradient(ec, x)), 1, 0.0,
        lambda best, lb: best - lb <= _HINGE_TOL * (1.0 + abs(best)),
    )[1]


def exact_conic_solve(ec: EllipticalCcp) -> Tuple[float, np.ndarray]:
    """Bisection on the budget against the concave margin (conic_margin,
    robust when ec carries a radius theta); needs eps <= 1/2."""
    if ec.epsilon > 0.5:
        raise ValidationError("exact conic solve needs eps <= 1/2 (concave margin)")
    r = _radius(ec)

    def accept(t: float) -> Optional[np.ndarray]:
        value, witness = _margin_ascent(ec, t, r)
        return witness if value >= 0.0 else None

    t0 = float(ec.cost @ feasible_start(ec.domain(), ec.cost, np.inf))
    found = bisect_from(accept, t0, _CONIC_TOL, relative=True)
    if found.witness is None:
        raise Infeasible("conic program: no feasible budget found")
    if found.lo == -np.inf:
        raise NonFinite("conic program appears unbounded below")
    return found.hi, found.witness


def also_x_elliptical(ec: EllipticalCcp, delta1: float = 1e-2) -> SolveReport:
    """Hinge-based budget bisection with the closed-form feasibility check
    (conic_margin, robust when ec carries a radius theta).

    The bracket starts at the exact conic value. Only hinge minimizers
    become incumbents, so the report shows what the hinge scheme achieves,
    not the conic optimum.
    """
    start = perf_counter()
    r = _radius(ec)

    def accept(t: float) -> Optional[np.ndarray]:
        try:
            x = _hinge_cut_min(ec, t)
        except BadStart:
            return None
        return x if _margin(ec, r, x) >= 0.0 else None

    t_low, _ = exact_conic_solve(ec)
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
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((int(count), ec.mu.shape[0])) @ ec._chol.T + ec.mu
    return draws @ ec.a1(x) - ec.b1(x)


# ---------------------------------------------------------------------------
# serialization: one entry in the document tables of the model module. A
# Mahalanobis ball writes its tag only and reads its matrix from "sigma".

GAUSSIAN_TYPES = {
    "elliptical_gaussian": (
        EllipticalCcp,
        ("mu", "sigma", "a", "a0", "b", "b0", "cost", "epsilon",
         "x_set", "generator", "theta", "wasserstein_norm"),
    ),
}


def elliptical_to_doc(ec: EllipticalCcp) -> dict:
    return to_doc(ec, GAUSSIAN_TYPES)


def elliptical_from_doc(doc: dict) -> EllipticalCcp:
    return from_doc(doc, GAUSSIAN_TYPES, "elliptical document")


def load_elliptical(text: str) -> EllipticalCcp:
    return elliptical_from_doc(parse_document(text))
