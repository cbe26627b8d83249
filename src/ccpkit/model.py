"""Problem data model: feasible sets, constraint models, instances, reports.

Finite-support chance-constrained program

    min c'x  s.t.  x in X,  P{ g(x, xi) <= 0 } >= 1 - epsilon

with scenario data stored per constraint-model variant. All types are
immutable after construction and safe to share across threads; operations
here are pure functions.

Each feasible set answers for itself what the solvers ask of X: contains,
project, pieces (for geometry.dykstra_project), polyhedron and binary. Each
norm answers for its dual: dual and dual_subgradient. Each constraint model
answers for g: losses, losses_and_grads, offset_scale and shifted (the
sup-norm shift reduction), from its affine rows unless it overrides them.

Instance documents are JSON. The document tables at the end of this module
(SET_TYPES, MODEL_TYPES, NORM_TYPES) are their schema, read and written by
one codec, from_doc and to_doc. Probabilities default to equiprobable when
the document omits them.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from typing import Optional, Tuple, Union

import numpy as np

from .errors import ModeMismatch, ParseError, UnsupportedSet, ValidationError

_FEAS_TOL = 1e-12


def _mat(a, name: str, ndim: int, finite: bool = True) -> np.ndarray:
    """a as a float array with ndim axes; ValidationError on ragged nesting,
    entries that are not numbers (booleans and strings included), NaN, and
    with finite, infinities."""
    try:
        raw = np.asarray(a)
    except ValueError as exc:
        raise ValidationError(f"{name}: not a rectangular array") from exc
    if raw.dtype.kind not in "iuf":
        raise ValidationError(f"{name}: entries must be numbers")
    out = raw.astype(float, copy=False)
    if out.ndim != ndim:
        raise ValidationError(f"{name}: expected a {ndim}-d array, got shape {out.shape}")
    if np.any(~np.isfinite(out) if finite else np.isnan(out)):
        raise ValidationError(f"{name}: {'non-finite' if finite else 'NaN'} entries")
    return out


def _real(v, name: str, lo: float = -np.inf, hi: float = np.inf) -> float:
    """v as a finite float in [lo, hi]; ValidationError on anything else,
    booleans and strings included."""
    out = float(_mat(v, name, 0))
    if not lo <= out <= hi:
        raise ValidationError(f"{name}: must lie in [{lo}, {hi}], got {out}")
    return out


def _count(v, name: str, lo: float = 0, hi: float = np.inf) -> int:
    """v as an int in [lo, hi]; ValidationError on non-integral numbers too."""
    out = _real(v, name, lo, hi)
    if not out.is_integer():
        raise ValidationError(f"{name}: expected an integer, got {v!r}")
    return int(out)


# ---------------------------------------------------------------------------
# norms


@dataclass(frozen=True, eq=False)
class L1:
    """Norm ||y||_1; its dual is the sup norm."""

    def dual(self, y) -> float:
        y = np.asarray(y, dtype=float)
        return float(np.max(np.abs(y))) if y.size else 0.0

    def dual_subgradient(self, y) -> np.ndarray:
        """One subgradient of y -> dual(y); zero vector at the kink y = 0."""
        y = np.asarray(y, dtype=float)
        g = np.zeros_like(y)
        j = int(np.argmax(np.abs(y)))
        if abs(y[j]) > 0.0:
            g[j] = np.sign(y[j])
        return g


@dataclass(frozen=True, eq=False)
class L2:
    """Euclidean norm, its own dual."""

    def dual(self, y) -> float:
        return float(np.linalg.norm(np.asarray(y, dtype=float)))

    def dual_subgradient(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        nrm = np.linalg.norm(y)
        return y / nrm if nrm > 0.0 else np.zeros_like(y)


@dataclass(frozen=True, eq=False)
class LInf:
    """Sup norm; its dual is the 1-norm."""

    def dual(self, y) -> float:
        return float(np.sum(np.abs(np.asarray(y, dtype=float))))

    def dual_subgradient(self, y) -> np.ndarray:
        return np.sign(np.asarray(y, dtype=float))


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

    def dual(self, y) -> float:
        y = np.asarray(y, dtype=float)
        return float(np.sqrt(max(y @ self.sigma @ y, 0.0)))

    def dual_subgradient(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        val = self.dual(y)
        return (self.sigma @ y) / val if val > 0.0 else np.zeros_like(y)


NormSpec = Union[L1, L2, LInf, Mahalanobis]


# ---------------------------------------------------------------------------
# feasible sets


class _Set:
    """What every solver asks of X: membership (contains), exact projection
    (project), the primitives Dykstra sweeps over (pieces), rows and bounds
    (polyhedron(); UnsupportedSet for a lattice), and whether its points are
    a lattice (binary)."""

    binary = False

    def contains(self, x, tol: float = 1e-7):
        """Membership of x; for a (B, n) block of points, a bool per row."""
        x = np.asarray(x, dtype=float)
        inside = self._inside(x, tol)
        return bool(inside) if x.ndim == 1 else inside

    def project(self, y) -> np.ndarray:
        """Exact Euclidean projection of y; UnsupportedSet for a set that
        needs geometry.dykstra_project over its pieces."""
        return self._project(np.asarray(y, dtype=float))

    def pieces(self) -> list:
        """A fresh list of primitives whose project is exact and whose
        intersection is this set."""
        return [self]

    def _free(self):
        """The polyhedron of R^dim, the start of every set's polyhedron():
        fresh arrays (A, b, E, f, lo, hi) for A x <= b, E x = f, lo <= x <= hi,
        here with no rows and infinite bounds."""
        n = self.dim
        return (np.zeros((0, n)), np.zeros(0), np.zeros((0, n)), np.zeros(0),
                np.full(n, -np.inf), np.full(n, np.inf))


@dataclass(frozen=True, eq=False)
class Box(_Set):
    """Bounds may be infinite; a fully free variable is lower=-inf, upper=+inf."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _mat(self.lower, "box lower", 1, finite=False)
        hi = _mat(self.upper, "box upper", 1, finite=False)
        if lo.shape != hi.shape:
            raise ValidationError("box bounds: lower/upper must be matching vectors")
        if np.any(lo > hi):
            raise ValidationError("box bounds: lower exceeds upper")
        if np.any(lo == np.inf) or np.any(hi == -np.inf):
            raise ValidationError(
                "box bounds: a lower bound of +inf or an upper bound of -inf admits no point"
            )
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def _inside(self, x, tol):
        return np.all((x >= self.lower - tol) & (x <= self.upper + tol), axis=-1)

    def _project(self, y):
        return np.clip(y, self.lower, self.upper)

    def polyhedron(self):
        A, b, E, f, _, _ = self._free()
        return A, b, E, f, self.lower.copy(), self.upper.copy()


@dataclass(frozen=True, eq=False)
class Halfspaces(_Set):
    """Rows a_i'x <= b_i."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = _mat(self.a, "a", 2)
        b = _mat(self.b, "b", 1)
        if a.shape[0] != b.shape[0]:
            raise ValidationError("halfspaces: row counts of a and b differ")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    def _inside(self, x, tol):
        return np.all(_times(self.a, x) <= self.b + tol, axis=-1)

    def _project(self, y):
        if self.a.shape[0] != 1:
            raise UnsupportedSet("multi-row halfspace system: use dykstra_project")
        a = self.a[0]
        slack = float(a @ y - self.b[0])
        nrm2 = float(a @ a)
        if slack <= 0.0 or nrm2 == 0.0:
            return y.copy()
        return y - (slack / nrm2) * a

    def pieces(self) -> list:
        """One single-row Halfspaces per row."""
        if self.a.shape[0] > 1:
            return [Halfspaces(self.a[i : i + 1], self.b[i : i + 1]) for i in range(self.a.shape[0])]
        return [self]

    def polyhedron(self):
        _, _, E, f, lo, hi = self._free()
        return self.a.copy(), self.b.copy(), E, f, lo, hi


@dataclass(frozen=True, eq=False)
class NonNegOrthant(_Set):
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "dim", _count(self.dim, "orthant: dim", 1))

    def _inside(self, x, tol):
        return np.all(x >= -tol, axis=-1)

    def _project(self, y):
        return np.maximum(y, 0.0)

    def polyhedron(self):
        A, b, E, f, _, hi = self._free()
        return A, b, E, f, np.zeros(self.dim), hi


@dataclass(frozen=True, eq=False)
class Simplex(_Set):
    """{x >= 0, sum x = total}."""

    dim: int
    total: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "dim", _count(self.dim, "simplex: dim", 1))
        object.__setattr__(self, "total", _real(self.total, "simplex: total", 0.0))

    def _inside(self, x, tol):
        return np.all(x >= -tol, axis=-1) & (np.abs(np.sum(x, axis=-1) - self.total) <= tol)

    def _project(self, y):
        # sort and threshold
        u = np.sort(y)[::-1]
        css = np.cumsum(u) - self.total
        ks = np.arange(1, y.shape[0] + 1)
        cond = u - css / ks > 0
        rho = int(np.nonzero(cond)[0][-1]) + 1 if np.any(cond) else 1
        tau = css[rho - 1] / rho
        return np.maximum(y - tau, 0.0)

    def polyhedron(self):
        A, b, _, _, _, hi = self._free()
        return A, b, np.ones((1, self.dim)), np.array([self.total]), np.zeros(self.dim), hi


@dataclass(frozen=True, eq=False)
class AffineEqualities(_Set):
    """{x : U'x = h}; u has shape (dim, m), one column per equality."""

    u: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        u = _mat(self.u, "u", 2)
        h = _mat(self.h, "h", 1)
        if u.shape[1] != h.shape[0]:
            raise ValidationError("affine equalities: column count of u != len(h)")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "h", h)
        # pseudo-inverse cached once; projection is a hot path
        object.__setattr__(self, "_pinv_ut", np.linalg.pinv(u.T))

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    def _inside(self, x, tol):
        return np.all(np.abs(_times(self.u.T, x) - self.h) <= tol, axis=-1)

    def _project(self, y):
        # x = y - pinv(U') (U'y - h)
        return y - self._pinv_ut @ (self.u.T @ y - self.h)

    def polyhedron(self):
        A, b, _, _, lo, hi = self._free()
        return A, b, self.u.T.copy(), self.h.copy(), lo, hi


@dataclass(frozen=True, eq=False)
class BinaryTiny(_Set):
    """{0,1}^dim with dim <= 20 (enumeration cap)."""

    dim: int

    binary = True

    def __post_init__(self):
        object.__setattr__(self, "dim", _count(self.dim, "binary set: dim", 1, 20))

    def _inside(self, x, tol):
        return np.all(np.minimum(np.abs(x), np.abs(x - 1.0)) <= tol, axis=-1)

    def _project(self, y):
        return np.where(y >= 0.5, 1.0, 0.0)

    def polyhedron(self):
        raise UnsupportedSet("no polyhedral description for BinaryTiny")


@dataclass(frozen=True, eq=False)
class Intersection(_Set):
    parts: Tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValidationError("intersection: needs at least one member")
        dims = {p.dim for p in parts}
        if len(dims) != 1:
            raise ValidationError(f"intersection: members disagree on dimension {dims}")
        object.__setattr__(self, "parts", parts)

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    @property
    def binary(self) -> bool:
        return any(p.binary for p in self.parts)

    def _inside(self, x, tol):
        return np.logical_and.reduce([p._inside(x, tol) for p in self.parts])

    def _project(self, y):
        raise UnsupportedSet("intersection: use dykstra_project")

    def pieces(self) -> list:
        return [q for p in self.parts for q in p.pieces()]

    def polyhedron(self):
        A, b, E, f, lo, hi = self._free()
        for p in self.parts:
            pA, pb, pE, pf, plo, phi = p.polyhedron()
            A = np.vstack([A, pA])
            b = np.concatenate([b, pb])
            E = np.vstack([E, pE])
            f = np.concatenate([f, pf])
            lo = np.maximum(lo, plo)
            hi = np.minimum(hi, phi)
        return A, b, E, f, lo, hi


FeasibleSet = Union[Box, Halfspaces, NonNegOrthant, Simplex, AffineEqualities, BinaryTiny, Intersection]


def _times(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x, or m @ each row of a (B, n) block x stacked in front; a stacked
    matmul repeats the single product's arithmetic, so values match bit for bit."""
    if x.ndim == 1:
        return m @ x
    column = x.reshape((x.shape[0],) + (1,) * max(m.ndim - 2, 0) + (x.shape[1], 1))
    return (m @ column)[..., 0]


# ---------------------------------------------------------------------------
# constraint models


@dataclass(frozen=True, eq=False)
class AffineRows:
    """The row form every solver reads from an affine constraint model:

        g_k(x) = max_i (R[k] x - r[k])_i + theta ||x||_*

    R has shape (N, I, n) and r shape (N, I), I >= 1; norm is the ball's
    norm (None for a model with no theta term). Built once by the model;
    R is kept as a read-only view, so a view handed out of it cannot
    write into the model.
    """

    R: np.ndarray
    r: np.ndarray
    theta: float = 0.0
    norm: Optional[NormSpec] = None

    def __post_init__(self):
        if self.R.shape[1] == 0:
            raise ValidationError("constraint rows: each scenario needs at least one row")
        R = self.R.view()
        R.flags.writeable = False
        object.__setattr__(self, "R", R)


class _Model:
    """What every solver asks of a constraint model, answered here from the
    row form self.rows of the affine models; the others override."""

    @property
    def scenario_count(self) -> int:
        return self._shape()[0]

    @property
    def dim(self) -> int:
        return self._shape()[-1]

    def _shape(self):
        return self.rows.R.shape

    def losses(self, x) -> np.ndarray:
        """g(x, xi^k) per scenario, shape (N,); a (B, n) block of points gives (B, N)."""
        x = np.asarray(x, dtype=float)
        rows = self.rows
        losses = np.max(_times(rows.R, x) - rows.r, axis=-1)
        if rows.theta == 0.0:
            return losses
        norms = [rows.norm.dual(point) for point in np.atleast_2d(x)]
        column = np.reshape(norms, x.shape[:-1] + (1,))     # one norm per point
        return losses + rows.theta * column

    def losses_and_grads(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """g(x, xi^k) and one subgradient per scenario, shapes (N,) and (N, n).

        With one row per scenario both are views, with no argmax or copy:
        the column of R x - r and R[:, 0, :] itself, which is read-only.
        Callers must not write into either; a theta term is added out of
        place.
        """
        rows = self.rows
        values = rows.R @ x - rows.r                        # (N, I)
        if values.shape[1] == 1:
            vals, grads = values[:, 0], rows.R[:, 0, :]
        else:
            j = np.argmax(values, axis=1)
            idx = np.arange(values.shape[0])
            vals, grads = values[idx, j], rows.R[idx, j, :]
        if rows.theta > 0.0:
            vals = vals + rows.theta * rows.norm.dual(x)
            grads = grads + rows.theta * rows.norm.dual_subgradient(x)[None, :]
        return vals, grads

    @property
    def offset_scale(self) -> float:
        """Magnitude of the constraint offsets, used to scale zero tolerances."""
        return float(np.max(np.abs(self.rows.r), initial=0.0))

    def shifted(self, theta: float, x_set):
        """Each scenario moved to its worst point in the sup-norm ball of
        radius theta, for x in x_set (drccp's shift reduction)."""
        raise ModeMismatch(f"shift reduction undefined for {type(self).__name__}")


@dataclass(frozen=True, eq=False)
class BiAffine(_Model):
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

    def shifted(self, theta: float, x_set):
        # x >= 0 on the whole domain: a lattice, or lower bounds >= 0
        if not (x_set.binary or np.all(x_set.polyhedron()[4] >= 0.0)):
            raise ModeMismatch("componentwise worst case needs x >= 0 baked into the domain")
        return BiAffine(self.mats + theta, self.offsets)


@dataclass(frozen=True, eq=False)
class BiAffineEquality(_Model):
    """Per scenario k: loss |d_k'x - e_k| (uncertain linear equality).

    Its rows are the pair d_k'x - e_k and e_k - d_k'x. The loss itself is
    evaluated as |d_k'x - e_k|: the stacked rows, through a batched matmul,
    can round differently from d_k'x.
    """

    d: np.ndarray   # (N, n)
    e: np.ndarray   # (N,)

    def __post_init__(self):
        d = _mat(self.d, "d", 2)
        e = _mat(self.e, "e", 1)
        if d.shape[0] != e.shape[0]:
            raise ValidationError("equality model: d/e scenario counts differ")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "e", e)
        rows = AffineRows(np.stack([d, -d], axis=1), np.stack([e, -e], axis=1))
        object.__setattr__(self, "rows", rows)

    def losses(self, x) -> np.ndarray:
        return np.abs(_times(self.d, np.asarray(x, dtype=float)) - self.e)

    def losses_and_grads(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        r = self.d @ x - self.e
        return np.abs(r), np.sign(r)[:, None] * self.d


@dataclass(frozen=True, eq=False)
class SeparableConvexPower(_Model):
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
        w = _mat(self.weights, "weights", 2)
        if np.any(w < 0):
            raise ValidationError("power model: weights must be nonnegative")
        object.__setattr__(self, "power", _real(self.power, "power model: power", 1.0))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "threshold", _real(self.threshold, "threshold"))

    def _shape(self):
        return self.weights.shape

    def losses(self, x) -> np.ndarray:
        xx = np.maximum(np.asarray(x, dtype=float), 0.0) ** self.power
        return _times(self.weights, xx) - self.threshold

    def losses_and_grads(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        xx = np.maximum(x, 0.0)
        vals = self.weights @ (xx ** self.power) - self.threshold
        grads = self.power * self.weights * (xx ** (self.power - 1.0))[None, :]
        return vals, grads

    @property
    def offset_scale(self) -> float:
        return abs(self.threshold)

    def shifted(self, theta: float, x_set):
        return SeparableConvexPower(self.power, self.weights + theta, self.threshold)


@dataclass(frozen=True, eq=False)
class Covering(_Model):
    """g(x, xi^k) = max_row (1 - mats[k] x) with mats >= 0 (normalized rhs);
    its rows are (-mats, -1)."""

    mats: np.ndarray   # (N, m, n)

    def __post_init__(self):
        m = _mat(self.mats, "mats", 3)
        if np.any(m < 0):
            raise ValidationError("covering model: matrix entries must be >= 0")
        object.__setattr__(self, "mats", m)
        object.__setattr__(self, "rows", AffineRows(-m, -np.ones(m.shape[:2])))


@dataclass(frozen=True, eq=False)
class NormAugmented(_Model):
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
        object.__setattr__(self, "mats", m)
        object.__setattr__(self, "offsets", e)
        object.__setattr__(self, "theta", _real(self.theta, "robust rows: theta", 0.0))
        object.__setattr__(self, "rows", AffineRows(m, e, self.theta, self.norm))


ConstraintModel = Union[BiAffine, BiAffineEquality, SeparableConvexPower, Covering, NormAugmented]


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
        n = _count(self.n, "n")
        count = _count(self.scenario_count, "scenario_count")
        p = _mat(self.probabilities, "probabilities", 1)
        c = _mat(self.cost, "cost", 1)
        epsilon = _real(self.epsilon, "epsilon")
        if p.shape[0] != count:
            raise ValidationError("probabilities: length differs from scenario count")
        if np.any(p < 0):
            raise ValidationError("probabilities: entries must be >= 0")
        if abs(float(np.sum(p)) - 1.0) > _FEAS_TOL * max(1, count):
            raise ValidationError("probabilities: mass must sum to 1")
        if not 0.0 < epsilon < 1.0:
            raise ValidationError("epsilon: must lie strictly inside (0, 1)")
        if c.shape[0] != n:
            raise ValidationError("cost: length differs from n")
        if self.x_set.dim != n:
            raise ValidationError("x_set: dimension differs from n")
        if self.constraints.dim != n:
            raise ValidationError("constraints: decision dimension differs from n")
        if self.constraints.scenario_count != count:
            raise ValidationError("constraints: scenario count differs from N")
        for name, value in (("n", n), ("scenario_count", count), ("probabilities", p),
                            ("cost", c), ("epsilon", epsilon)):
            object.__setattr__(self, name, value)

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
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


# ---------------------------------------------------------------------------
# evaluation


def scenario_losses(instance: CcpInstance, x) -> np.ndarray:
    """Vector of g(x, xi^k) over scenarios (|.| for the equality model); for a
    (B, n) block of points, a (B, N) array with one such vector per row."""
    return instance.constraints.losses(x)


def default_zero_tol(instance: CcpInstance) -> float:
    # exact-zero test on s_i needs a scale-aware tolerance in floating point
    return 1e-8 * (1.0 + instance.constraints.offset_scale)


def violation_probability(instance: CcpInstance, x) -> float:
    """Probability mass of scenarios with g(x, xi^k) > default_zero_tol
    (per row of a block)."""
    tol_zero = default_zero_tol(instance)
    losses = scenario_losses(instance, x)
    if losses.ndim == 2:
        return np.sum(np.where(losses > tol_zero, instance.probabilities, 0.0), axis=-1)
    return float(np.sum(instance.probabilities[losses > tol_zero]))


def is_feasible(instance: CcpInstance, x) -> bool:
    """Chance feasibility (per row of a block); a violation mass of exactly epsilon passes."""
    return violation_probability(instance, x) <= instance.epsilon + _FEAS_TOL


# ---------------------------------------------------------------------------
# serialization
#
# The tables are the document schema. Each maps a document "type" to its
# class and to the document key of each constructor argument, in order;
# to_doc and from_doc serve every table, the Gaussian one in elliptical.py
# included.

SET_TYPES = {
    "box": (Box, ("lower", "upper")),
    "halfspaces": (Halfspaces, ("a", "b")),
    "nonneg": (NonNegOrthant, ("dim",)),
    "simplex": (Simplex, ("dim", "total")),
    "affine_eq": (AffineEqualities, ("u", "h")),
    "binary": (BinaryTiny, ("dim",)),
    "intersection": (Intersection, ("parts",)),
}
MODEL_TYPES = {
    "biaffine": (BiAffine, ("d", "e")),
    "biaffine_eq": (BiAffineEquality, ("d", "e")),
    "separable_power": (SeparableConvexPower, ("power", "weights", "threshold")),
    "covering": (Covering, ("a",)),
    "norm_augmented": (NormAugmented, ("d", "e", "theta", "norm")),
}
NORM_TYPES = {
    "l1": (L1, ()),
    "l2": (L2, ()),
    "linf": (LInf, ()),
    "mahalanobis": (Mahalanobis, ("sigma",)),
}
_NESTED = {"x_set": SET_TYPES, "constraints": MODEL_TYPES}
_NORM_KEYS = ("norm", "wasserstein_norm")


def _plain(value):
    """JSON value of a field: arrays as lists, numpy scalars as Python ones."""
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


def _encode(doc: dict, key: str, value) -> None:
    if value is None:
        return
    if key in _NESTED:
        doc[key] = to_doc(value, _NESTED[key])
    elif key == "parts":
        doc[key] = [to_doc(p, SET_TYPES) for p in value]
    elif key in _NORM_KEYS:
        # a norm is its tag; its matrix goes under "sigma" unless the
        # document has a "sigma" of its own (the Gaussian covariance)
        params = to_doc(value, NORM_TYPES)
        doc[key] = params.pop("type")
        for name, param in params.items():
            doc.setdefault(name, param)
    else:
        doc[key] = _plain(value)


def _decode(doc: dict, key: str):
    value = doc[key]
    if key in _NESTED:
        return from_doc(value, _NESTED[key], key)
    if key == "parts":
        if not isinstance(value, list):
            raise ParseError("x_set: parts must be a JSON list")
        return tuple(from_doc(p, SET_TYPES, "x_set") for p in value)
    if key in _NORM_KEYS:
        return norm_from_tag(value, doc.get("sigma"))
    return value


def _object(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    return doc


def to_doc(obj, table: dict) -> dict:
    """Document of obj under the table entry of its class; None fields are left out."""
    for kind, (cls, keys) in table.items():
        if type(obj) is cls:
            break
    else:
        raise ValidationError(f"no document type for {type(obj).__name__}")
    doc = {"type": kind}
    for field, key in zip(fields(cls), keys):
        _encode(doc, key, getattr(obj, field.name))
    return doc


def from_doc(doc, table: dict, where: str):
    """Object of doc's "type" in the table; a missing or null key takes the
    constructor's default, and ParseError names a node that is not an
    object, an unknown type or a missing required key."""
    kind = _object(doc, where).get("type")
    if not isinstance(kind, str) or kind not in table:
        raise ParseError(f"{where}: unknown type {kind!r}")
    cls, keys = table[kind]
    args = {}
    for field, key in zip(fields(cls), keys):
        if doc.get(key) is not None:
            args[field.name] = _decode(doc, key)
        elif field.default is MISSING:
            raise ParseError(f"{where}: missing key {key!r}")
    return cls(**args)


def norm_to_tag(spec: NormSpec) -> str:
    return to_doc(spec, NORM_TYPES)["type"]


def norm_from_tag(tag: str, sigma=None) -> NormSpec:
    return from_doc({"type": tag, "sigma": sigma}, NORM_TYPES, f"{tag} norm")


def instance_to_doc(instance: CcpInstance) -> dict:
    doc: dict = {}
    for key in ("n", "epsilon", "cost", "probabilities", "x_set", "constraints"):
        _encode(doc, key, getattr(instance, key))
    return doc


def instance_from_doc(doc: dict) -> CcpInstance:
    _object(doc, "instance document")
    for key in ("n", "epsilon", "cost", "x_set", "constraints"):
        if key not in doc:
            raise ParseError(f"instance document: missing key {key!r}")
    model = _decode(doc, "constraints")
    count = model.scenario_count
    probs = doc.get("probabilities")
    if probs is None:
        probs = np.full(count, 1.0 / count)
    return CcpInstance(
        n=doc["n"],
        scenario_count=count,
        probabilities=probs,
        constraints=model,
        x_set=_decode(doc, "x_set"),
        cost=doc["cost"],
        epsilon=doc["epsilon"],
    )


def parse_document(text: str):
    """The JSON value of a document's text; ParseError on invalid JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def load_instance(text: str) -> CcpInstance:
    return instance_from_doc(parse_document(text))


def dump_instance(instance: CcpInstance) -> str:
    return json.dumps(instance_to_doc(instance), sort_keys=True, indent=2) + "\n"
