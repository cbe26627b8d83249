"""Problem data model: feasible sets, constraint models, instances, reports.

Finite-support chance-constrained program

    min c'x  s.t.  x in X,  P{ g(x, xi) <= 0 } >= 1 - epsilon

with scenario data stored per constraint-model variant. All types are
immutable after construction and safe to share across threads; operations
here are pure functions.

Instance documents are JSON, schema described in the README. Probabilities
default to equiprobable when the document omits them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .errors import ParseError, ValidationError

_FEAS_TOL = 1e-12


def _vec(a, name: str) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    if out.ndim != 1:
        raise ValidationError(f"{name}: expected a 1-d array, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValidationError(f"{name}: entries must be finite")
    return out


def _mat(a, name: str, ndim: int) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    if out.ndim != ndim:
        raise ValidationError(f"{name}: expected a {ndim}-d array, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValidationError(f"{name}: entries must be finite")
    return out


# ---------------------------------------------------------------------------
# norms


@dataclass(frozen=True, eq=False)
class L1:
    pass


@dataclass(frozen=True, eq=False)
class L2:
    pass


@dataclass(frozen=True, eq=False)
class LInf:
    pass


@dataclass(frozen=True, eq=False)
class Mahalanobis:
    """Norm ||y|| = sqrt(y' inv(sigma) y); its dual is sqrt(y' sigma y)."""

    sigma: np.ndarray

    def __post_init__(self):
        s = _mat(self.sigma, "sigma", 2)
        if s.shape[0] != s.shape[1]:
            raise ValidationError("sigma: must be square")
        s = 0.5 * (s + s.T)
        try:
            chol = np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            raise ValidationError("sigma: not positive definite")
        if np.min(np.diag(chol)) <= 1e-12:
            raise ValidationError("sigma: Cholesky pivot below 1e-12")
        object.__setattr__(self, "sigma", s)
        object.__setattr__(self, "_chol", chol)


NormSpec = Union[L1, L2, LInf, Mahalanobis]


def dual_norm(spec: NormSpec, y) -> float:
    """Dual norm ||y||_* of the given norm."""
    y = np.asarray(y, dtype=float)
    if isinstance(spec, L1):
        return float(np.max(np.abs(y))) if y.size else 0.0
    if isinstance(spec, L2):
        return float(np.linalg.norm(y))
    if isinstance(spec, LInf):
        return float(np.sum(np.abs(y)))
    if isinstance(spec, Mahalanobis):
        return float(np.sqrt(max(y @ spec.sigma @ y, 0.0)))
    raise ValidationError(f"unknown norm spec {type(spec).__name__}")


def dual_norm_subgradient(spec: NormSpec, y) -> np.ndarray:
    """One subgradient of y -> ||y||_*; zero vector at the kink y = 0."""
    y = np.asarray(y, dtype=float)
    if isinstance(spec, L1):
        g = np.zeros_like(y)
        j = int(np.argmax(np.abs(y)))
        if abs(y[j]) > 0.0:
            g[j] = np.sign(y[j])
        return g
    if isinstance(spec, L2):
        nrm = np.linalg.norm(y)
        return y / nrm if nrm > 0.0 else np.zeros_like(y)
    if isinstance(spec, LInf):
        return np.sign(y)
    if isinstance(spec, Mahalanobis):
        val = dual_norm(spec, y)
        return (spec.sigma @ y) / val if val > 0.0 else np.zeros_like(y)
    raise ValidationError(f"unknown norm spec {type(spec).__name__}")


# ---------------------------------------------------------------------------
# feasible sets


@dataclass(frozen=True, eq=False)
class Box:
    """Bounds may be infinite; a fully free variable is lower=-inf, upper=+inf."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValidationError("box bounds: lower/upper must be matching vectors")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ValidationError("box bounds: NaN entries")
        if np.any(lo > hi):
            raise ValidationError("box bounds: lower exceeds upper")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]


@dataclass(frozen=True, eq=False)
class Halfspaces:
    """Rows a_i'x <= b_i."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = _mat(self.a, "a", 2)
        b = _vec(self.b, "b")
        if a.shape[0] != b.shape[0]:
            raise ValidationError("halfspaces: row counts of a and b differ")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True, eq=False)
class NonNegOrthant:
    dim: int

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ValidationError("orthant: dim must be >= 1")
        object.__setattr__(self, "dim", int(self.dim))


@dataclass(frozen=True, eq=False)
class Simplex:
    """{x >= 0, sum x = total}."""

    dim: int
    total: float = 1.0

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ValidationError("simplex: dim must be >= 1")
        if not np.isfinite(self.total) or self.total < 0:
            raise ValidationError("simplex: total must be finite and >= 0")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "total", float(self.total))


@dataclass(frozen=True, eq=False)
class AffineEqualities:
    """{x : U'x = h}; u has shape (dim, m), one column per equality."""

    u: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        u = _mat(self.u, "u", 2)
        h = _vec(self.h, "h")
        if u.shape[1] != h.shape[0]:
            raise ValidationError("affine equalities: column count of u != len(h)")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "h", h)
        # pseudo-inverse cached once; projection is a hot path
        object.__setattr__(self, "_pinv_ut", np.linalg.pinv(u.T))

    @property
    def dim(self) -> int:
        return self.u.shape[0]


@dataclass(frozen=True, eq=False)
class BinaryTiny:
    """{0,1}^dim with dim <= 20 (enumeration cap)."""

    dim: int

    def __post_init__(self):
        d = int(self.dim)
        if not 1 <= d <= 20:
            raise ValidationError("binary set: dim must be in [1, 20]")
        object.__setattr__(self, "dim", d)


@dataclass(frozen=True, eq=False)
class Intersection:
    parts: Tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValidationError("intersection: needs at least one member")
        dims = {set_dim(p) for p in parts}
        if len(dims) != 1:
            raise ValidationError(f"intersection: members disagree on dimension {dims}")
        object.__setattr__(self, "parts", parts)

    @property
    def dim(self) -> int:
        return set_dim(self.parts[0])


FeasibleSet = Union[Box, Halfspaces, NonNegOrthant, Simplex, AffineEqualities, BinaryTiny, Intersection]


def set_dim(s: FeasibleSet) -> int:
    return s.dim


def _times(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x, or m @ each row of a (B, n) block x stacked in front; a stacked
    matmul repeats the single product's arithmetic, so values match bit for bit."""
    if x.ndim == 1:
        return m @ x
    column = x.reshape((x.shape[0],) + (1,) * max(m.ndim - 2, 0) + (x.shape[1], 1))
    return (m @ column)[..., 0]


def set_contains(s: FeasibleSet, x, tol: float = 1e-7):
    """Membership of x; for a (B, n) block of points, a bool per row."""
    x = np.asarray(x, dtype=float)
    if isinstance(s, Box):
        inside = np.all((x >= s.lower - tol) & (x <= s.upper + tol), axis=-1)
    elif isinstance(s, Halfspaces):
        inside = np.all(_times(s.a, x) <= s.b + tol, axis=-1)
    elif isinstance(s, NonNegOrthant):
        inside = np.all(x >= -tol, axis=-1)
    elif isinstance(s, Simplex):
        inside = np.all(x >= -tol, axis=-1) & (np.abs(np.sum(x, axis=-1) - s.total) <= tol)
    elif isinstance(s, AffineEqualities):
        inside = np.all(np.abs(_times(s.u.T, x) - s.h) <= tol, axis=-1)
    elif isinstance(s, BinaryTiny):
        inside = np.all(np.minimum(np.abs(x), np.abs(x - 1.0)) <= tol, axis=-1)
    elif isinstance(s, Intersection):
        inside = np.logical_and.reduce([set_contains(p, x, tol) for p in s.parts])
    else:
        raise ValidationError(f"unknown feasible set {type(s).__name__}")
    return bool(inside) if x.ndim == 1 else inside


# ---------------------------------------------------------------------------
# constraint models


@dataclass(frozen=True, eq=False)
class AffineRows:
    """The row form every solver reads from an affine constraint model:

        g_k(x) = max_i (R[k] x - r[k])_i + theta ||x||_*

    R has shape (N, I, n) and r shape (N, I), I >= 1; norm is the ball's
    norm (None for a model with no theta term). Built once by the model.
    """

    R: np.ndarray
    r: np.ndarray
    theta: float = 0.0
    norm: Optional[NormSpec] = None

    def __post_init__(self):
        if self.R.shape[1] == 0:
            raise ValidationError("constraint rows: each scenario needs at least one row")


@dataclass(frozen=True, eq=False)
class BiAffine:
    """Per scenario k: g(x, xi^k) = max_j (mats[k] x - offsets[k])_j."""

    mats: np.ndarray      # (N, I, n)
    offsets: np.ndarray   # (N, I)

    def __post_init__(self):
        m = _mat(self.mats, "mats", 3)
        e = _mat(self.offsets, "offsets", 2)
        if m.shape[:2] != e.shape:
            raise ValidationError("bi-affine: mats/offsets scenario or row counts differ")
        object.__setattr__(self, "mats", m)
        object.__setattr__(self, "offsets", e)
        object.__setattr__(self, "rows", AffineRows(m, e))

    @property
    def scenario_count(self) -> int:
        return self.mats.shape[0]

    @property
    def dim(self) -> int:
        return self.mats.shape[2]


@dataclass(frozen=True, eq=False)
class BiAffineEquality:
    """Per scenario k: loss |d_k'x - e_k| (uncertain linear equality).

    Its rows are the pair d_k'x - e_k and e_k - d_k'x. The loss itself is
    evaluated as |d_k'x - e_k|: the stacked rows, through a batched matmul,
    can round differently from d_k'x.
    """

    d: np.ndarray   # (N, n)
    e: np.ndarray   # (N,)

    def __post_init__(self):
        d = _mat(self.d, "d", 2)
        e = _vec(self.e, "e")
        if d.shape[0] != e.shape[0]:
            raise ValidationError("equality model: d/e scenario counts differ")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "e", e)
        rows = AffineRows(np.stack([d, -d], axis=1), np.stack([e, -e], axis=1))
        object.__setattr__(self, "rows", rows)

    @property
    def scenario_count(self) -> int:
        return self.d.shape[0]

    @property
    def dim(self) -> int:
        return self.d.shape[1]


@dataclass(frozen=True, eq=False)
class SeparableConvexPower:
    """g(x, xi^k) = sum_j weights[k,j] x_j^power - threshold, weights >= 0.

    Defined on x >= 0; evaluation clamps negative coordinates to the domain
    boundary so projected iterates that graze zero stay well-defined. Its
    rows are not affine: rows is None.
    """

    power: float
    weights: np.ndarray   # (N, n)
    threshold: float

    rows = None

    def __post_init__(self):
        if not np.isfinite(self.power) or self.power < 1.0:
            raise ValidationError("power model: power must be >= 1")
        w = _mat(self.weights, "weights", 2)
        if np.any(w < 0):
            raise ValidationError("power model: weights must be nonnegative")
        if not np.isfinite(self.threshold):
            raise ValidationError("power model: threshold must be finite")
        object.__setattr__(self, "power", float(self.power))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "threshold", float(self.threshold))

    @property
    def scenario_count(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True, eq=False)
class Covering:
    """g(x, xi^k) = max_row (1 - mats[k] x) with mats >= 0 (normalized rhs);
    its rows are (-mats, -1)."""

    mats: np.ndarray   # (N, m, n)

    def __post_init__(self):
        m = _mat(self.mats, "mats", 3)
        if np.any(m < 0):
            raise ValidationError("covering model: matrix entries must be >= 0")
        object.__setattr__(self, "mats", m)
        object.__setattr__(self, "rows", AffineRows(-m, -np.ones(m.shape[:2])))

    @property
    def scenario_count(self) -> int:
        return self.mats.shape[0]

    @property
    def dim(self) -> int:
        return self.mats.shape[2]


@dataclass(frozen=True, eq=False)
class NormAugmented:
    """Robustified rows: g(x, k) = theta ||x||_* + max_j (mats[k] x - offsets[k])_j.

    Produced by the Wasserstein robustification of bi-affine rows under the
    identity coefficient map; theta = 0 evaluates identically to BiAffine.
    """

    mats: np.ndarray      # (N, I, n)
    offsets: np.ndarray   # (N, I)
    theta: float
    norm: NormSpec

    def __post_init__(self):
        m = _mat(self.mats, "mats", 3)
        e = _mat(self.offsets, "offsets", 2)
        if m.shape[:2] != e.shape:
            raise ValidationError("robust rows: mats/offsets scenario or row counts differ")
        if not np.isfinite(self.theta) or self.theta < 0:
            raise ValidationError("robust rows: theta must be >= 0")
        object.__setattr__(self, "mats", m)
        object.__setattr__(self, "offsets", e)
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "rows", AffineRows(m, e, self.theta, self.norm))

    @property
    def scenario_count(self) -> int:
        return self.mats.shape[0]

    @property
    def dim(self) -> int:
        return self.mats.shape[2]


ConstraintModel = Union[BiAffine, BiAffineEquality, SeparableConvexPower, Covering, NormAugmented]


def offset_scale(model: ConstraintModel) -> float:
    """Magnitude of the constraint offsets, used to scale zero tolerances."""
    if model.rows is None:
        return abs(model.threshold)
    return float(np.max(np.abs(model.rows.r), initial=0.0))


# ---------------------------------------------------------------------------
# instance and report


@dataclass(frozen=True, eq=False)
class CcpInstance:
    n: int
    scenario_count: int
    probabilities: np.ndarray
    constraints: ConstraintModel
    x_set: FeasibleSet
    cost: np.ndarray
    epsilon: float

    def __post_init__(self):
        n = int(self.n)
        count = int(self.scenario_count)
        p = _vec(self.probabilities, "probabilities")
        c = _vec(self.cost, "cost")
        if p.shape[0] != count:
            raise ValidationError("probabilities: length differs from scenario count")
        if np.any(p < 0):
            raise ValidationError("probabilities: entries must be >= 0")
        if abs(float(np.sum(p)) - 1.0) > _FEAS_TOL * max(1, count):
            raise ValidationError("probabilities: mass must sum to 1")
        if not 0.0 < float(self.epsilon) < 1.0:
            raise ValidationError("epsilon: must lie strictly inside (0, 1)")
        if c.shape[0] != n:
            raise ValidationError("cost: length differs from n")
        if set_dim(self.x_set) != n:
            raise ValidationError("x_set: dimension differs from n")
        if self.constraints.dim != n:
            raise ValidationError("constraints: decision dimension differs from n")
        if self.constraints.scenario_count != count:
            raise ValidationError("constraints: scenario count differs from N")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "scenario_count", count)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "cost", c)
        object.__setattr__(self, "epsilon", float(self.epsilon))

    @property
    def equiprobable(self) -> bool:
        return bool(np.allclose(self.probabilities, 1.0 / self.scenario_count, atol=1e-12))


@dataclass(frozen=True, eq=False)
class SolveReport:
    method: str
    t_star: float
    x_star: np.ndarray
    objective: float
    feasible: bool
    violation_prob: float
    iterations: int
    lower_bound_used: float
    upper_bound_used: float
    wall_time: float

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "t_star": self.t_star,
            "x_star": [float(v) for v in np.asarray(self.x_star, dtype=float)],
            "objective": self.objective,
            "feasible": bool(self.feasible),
            "violation_prob": self.violation_prob,
            "iterations": int(self.iterations),
            "lower_bound_used": self.lower_bound_used,
            "upper_bound_used": self.upper_bound_used,
            "wall_time": self.wall_time,
        }


# ---------------------------------------------------------------------------
# evaluation


def scenario_losses(instance: CcpInstance, x) -> np.ndarray:
    """Vector of g(x, xi^k) over scenarios (|.| for the equality model); for a
    (B, n) block of points, a (B, N) array with one such vector per row."""
    x = np.asarray(x, dtype=float)
    model = instance.constraints
    if isinstance(model, BiAffineEquality):
        return np.abs(_times(model.d, x) - model.e)
    if isinstance(model, SeparableConvexPower):
        xx = np.maximum(x, 0.0) ** model.power
        return _times(model.weights, xx) - model.threshold
    rows = model.rows
    losses = np.max(_times(rows.R, x) - rows.r, axis=-1)
    if rows.theta == 0.0:
        return losses
    norms = [dual_norm(rows.norm, point) for point in np.atleast_2d(x)]
    column = np.reshape(norms, x.shape[:-1] + (1,))     # one norm per point
    return losses + rows.theta * column


def default_zero_tol(instance: CcpInstance) -> float:
    # exact-zero test on s_i needs a scale-aware tolerance in floating point
    return 1e-8 * (1.0 + offset_scale(instance.constraints))


def violation_probability(instance: CcpInstance, x, tol_zero: Optional[float] = None) -> float:
    """Probability mass of scenarios with g(x, xi^k) > tol_zero (per row of a block)."""
    if tol_zero is None:
        tol_zero = default_zero_tol(instance)
    if tol_zero < 0:
        raise ValidationError("tol_zero must be >= 0")
    losses = scenario_losses(instance, x)
    if losses.ndim == 2:
        return np.sum(np.where(losses > tol_zero, instance.probabilities, 0.0), axis=-1)
    return float(np.sum(instance.probabilities[losses > tol_zero]))


def is_feasible(instance: CcpInstance, x, tol_zero: Optional[float] = None) -> bool:
    """Chance feasibility (per row of a block); a violation mass of exactly epsilon passes."""
    return violation_probability(instance, x, tol_zero) <= instance.epsilon + _FEAS_TOL


# ---------------------------------------------------------------------------
# serialization


def _set_to_doc(s: FeasibleSet) -> dict:
    if isinstance(s, Box):
        return {"type": "box", "lower": s.lower.tolist(), "upper": s.upper.tolist()}
    if isinstance(s, Halfspaces):
        return {"type": "halfspaces", "a": s.a.tolist(), "b": s.b.tolist()}
    if isinstance(s, NonNegOrthant):
        return {"type": "nonneg", "dim": s.dim}
    if isinstance(s, Simplex):
        return {"type": "simplex", "dim": s.dim, "total": s.total}
    if isinstance(s, AffineEqualities):
        return {"type": "affine_eq", "u": s.u.tolist(), "h": s.h.tolist()}
    if isinstance(s, BinaryTiny):
        return {"type": "binary", "dim": s.dim}
    if isinstance(s, Intersection):
        return {"type": "intersection", "parts": [_set_to_doc(p) for p in s.parts]}
    raise ValidationError(f"unknown feasible set {type(s).__name__}")


def _set_from_doc(doc: dict) -> FeasibleSet:
    kind = doc.get("type")
    try:
        if kind == "box":
            return Box(doc["lower"], doc["upper"])
        if kind == "halfspaces":
            return Halfspaces(doc["a"], doc["b"])
        if kind == "nonneg":
            return NonNegOrthant(doc["dim"])
        if kind == "simplex":
            return Simplex(doc["dim"], doc.get("total", 1.0))
        if kind == "affine_eq":
            return AffineEqualities(doc["u"], doc["h"])
        if kind == "binary":
            return BinaryTiny(doc["dim"])
        if kind == "intersection":
            return Intersection(tuple(_set_from_doc(p) for p in doc["parts"]))
    except KeyError as exc:
        raise ParseError(f"x_set: missing key {exc}") from exc
    raise ParseError(f"x_set: unknown type {kind!r}")


def norm_to_tag(spec: NormSpec) -> str:
    return {L1: "l1", L2: "l2", LInf: "linf", Mahalanobis: "mahalanobis"}[type(spec)]


def norm_from_tag(tag: str, sigma=None) -> NormSpec:
    if tag == "l1":
        return L1()
    if tag == "l2":
        return L2()
    if tag == "linf":
        return LInf()
    if tag == "mahalanobis":
        if sigma is None:
            raise ParseError("mahalanobis norm requires a sigma matrix")
        return Mahalanobis(np.asarray(sigma, dtype=float))
    raise ParseError(f"unknown norm tag {tag!r}")


def _model_to_doc(model: ConstraintModel) -> dict:
    if isinstance(model, BiAffine):
        return {"type": "biaffine", "d": model.mats.tolist(), "e": model.offsets.tolist()}
    if isinstance(model, BiAffineEquality):
        return {"type": "biaffine_eq", "d": model.d.tolist(), "e": model.e.tolist()}
    if isinstance(model, SeparableConvexPower):
        return {
            "type": "separable_power",
            "power": model.power,
            "weights": model.weights.tolist(),
            "threshold": model.threshold,
        }
    if isinstance(model, Covering):
        return {"type": "covering", "a": model.mats.tolist()}
    if isinstance(model, NormAugmented):
        doc = {
            "type": "norm_augmented",
            "d": model.mats.tolist(),
            "e": model.offsets.tolist(),
            "theta": model.theta,
            "norm": norm_to_tag(model.norm),
        }
        if isinstance(model.norm, Mahalanobis):
            doc["sigma"] = model.norm.sigma.tolist()
        return doc
    raise ValidationError(f"unknown constraint model {type(model).__name__}")


def _model_from_doc(doc: dict) -> ConstraintModel:
    kind = doc.get("type")
    try:
        if kind == "biaffine":
            return BiAffine(doc["d"], doc["e"])
        if kind == "biaffine_eq":
            return BiAffineEquality(doc["d"], doc["e"])
        if kind == "separable_power":
            return SeparableConvexPower(doc["power"], doc["weights"], doc["threshold"])
        if kind == "covering":
            return Covering(doc["a"])
        if kind == "norm_augmented":
            norm = norm_from_tag(doc["norm"], doc.get("sigma"))
            return NormAugmented(doc["d"], doc["e"], doc["theta"], norm)
    except KeyError as exc:
        raise ParseError(f"constraints: missing key {exc}") from exc
    raise ParseError(f"constraints: unknown type {kind!r}")


def instance_to_doc(instance: CcpInstance) -> dict:
    return {
        "n": instance.n,
        "epsilon": instance.epsilon,
        "cost": instance.cost.tolist(),
        "probabilities": instance.probabilities.tolist(),
        "x_set": _set_to_doc(instance.x_set),
        "constraints": _model_to_doc(instance.constraints),
    }


def instance_from_doc(doc: dict) -> CcpInstance:
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    for key in ("n", "epsilon", "cost", "x_set", "constraints"):
        if key not in doc:
            raise ParseError(f"instance document: missing key {key!r}")
    model = _model_from_doc(doc["constraints"])
    count = model.scenario_count
    probs = doc.get("probabilities")
    if probs is None:
        probs = np.full(count, 1.0 / count)
    return CcpInstance(
        n=doc["n"],
        scenario_count=count,
        probabilities=probs,
        constraints=model,
        x_set=_set_from_doc(doc["x_set"]),
        cost=doc["cost"],
        epsilon=doc["epsilon"],
    )


def load_instance(text: str) -> CcpInstance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return instance_from_doc(doc)


def dump_instance(instance: CcpInstance) -> str:
    return json.dumps(instance_to_doc(instance), sort_keys=True, indent=2) + "\n"
