"""Dense bounded-variable simplex for small linear programs, with dual
certificates and warm re-solves from an earlier optimal basis.

    min c'x   s.t.  A x <= b,  E x = f,  lo <= x <= hi

Tableau. Every LP is solved on one tableau T = B^-1 [A I; E I] over the n
columns of x and one slack per row: a <= row's slack lies in [0, inf), an
equality row's slack is fixed at 0. Bounds stay implicit (Dantzig 1955): no
range is a row, and a nonbasic column sits at its lower bound, at its upper
bound, or at 0 when it is free. The last column of T holds the basic values
and the last row the reduced costs; since every slack column began as a unit
vector, the slack columns hold B^-1 itself.

Start rule. When the LP has no equality rows and every column has a nonzero
cost and a finite bound on its cheaper side (lo where c_j > 0, hi where
c_j < 0), every column starts at that bound with every slack basic: that
basis is strictly dual feasible, so the long-step dual loop below solves it
with no phase 1, and the LP cannot be unbounded. Every other LP starts each
column at its lower bound (its upper bound when only that is finite, 0 when
free); a row whose slack would then lie outside its bounds, and every
equality row, gets an artificial column, basic at the size of the row's
residual. When there is one, phase 1 minimises their sum with the primal
loop below; a sum left above 1e-7 (1 + max |residual|) proves the LP
infeasible. The artificial columns are then fixed at 0, so one still basic
on a redundant row keeps that row's multiplier at 0, and phase 2 runs the
primal loop on c.

Bounded primal loop. Pricing is Dantzig's rule on the reduced cost measured
in each nonbasic column's feasible direction (the most negative, lowest index
on ties), except that the pivot after a degenerate one (zero step) uses
Bland's rule (Bland 1977): the lowest-index improving column, and on ratio
ties the row whose basic column has the lowest index. A basic value blocks
the step at whichever of its bounds it moves toward. When the entering
column's own range is shorter than the smallest blocking step, it flips to
its other bound instead of pivoting. This terminates: a pivot of positive
step or a flip strictly lowers the objective, so no basis comes back across
one; a column that just flipped cannot flip back before the next pivot, and
inside a run of degenerate pivots every pivot after the first is a Bland
pivot, which cannot cycle.

Long-step dual loop (the bound-flipping ratio test of Fourer 1994). The
basic value furthest outside its bounds leaves (lowest index on ties). The
nonbasic columns that can move it toward that bound are sorted by the ratio
of their reduced cost to their entry in its row (lowest index on ties).
Walking up those breakpoints, the dual objective rises at a slope that starts
at the leaving value's distance to its bound and falls at each breakpoint by
|entry| times the column's range. While the slope stays positive, the column
is boxed and flips to its other bound; the first column at which the slope
would reach zero enters, so one pivot replaces a run of short-step dual
pivots. When the slope stays positive past every breakpoint, or no column can
move the row, the LP is infeasible. It terminates like the primal loop: a
step of positive length raises the dual objective strictly, since the flips
passed only segments of positive slope; after a zero-length step the next
leaving row is picked by Bland's rule.

Both loops share a pivot budget of 50 * (rows + columns), which guards them
against rounding and raises CycleGuardTripped if exhausted. `pivots` counts
basis changes, never bound flips. Intended for desk-scale problems (at most
10_000 columns); everything is dense numpy.

Warm re-solves. solve_lp(problem, start=outcome) starts from a copy of the
final tableau of an optimal outcome of an LP with the same A, E, lo and hi
(the same arrays, as LpProblem.with_rhs shares them, or equal ones; any other
start is ignored and the LP is solved cold). The new basic values are B^-1
times the new right-hand side less the nonbasic columns at their bounds. With
the same c the old basis is still dual feasible, and the long-step dual loop
re-solves it. A new c is priced against the old basis: the primal loop goes
on from a basis that is still primal feasible, the long-step dual loop from
one that is only dual feasible, and one that is neither is solved cold. The
start is never modified.

The optimal outcome carries a dual certificate (row multipliers, the most
negative reduced cost of a nonbasic column measured in its feasible
direction, and the primal-dual gap) so callers can verify optimality
independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import CycleGuardTripped, NonFinite, ValidationError

_PIVOT_TOL = 1e-9
_MAX_COLUMNS = 10_000


@dataclass(frozen=True, eq=False)
class LpProblem:
    c: np.ndarray
    A: Optional[np.ndarray] = None   # inequality rows A x <= b
    b: Optional[np.ndarray] = None
    E: Optional[np.ndarray] = None   # equality rows E x = f
    f: Optional[np.ndarray] = None
    lo: Optional[np.ndarray] = None  # defaults to 0
    hi: Optional[np.ndarray] = None  # defaults to +inf

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValidationError("lp: cost must be a nonempty vector")
        n = c.shape[0]
        A = np.zeros((0, n)) if self.A is None else np.asarray(self.A, dtype=float)
        b = np.zeros(0) if self.b is None else np.asarray(self.b, dtype=float)
        E = np.zeros((0, n)) if self.E is None else np.asarray(self.E, dtype=float)
        f = np.zeros(0) if self.f is None else np.asarray(self.f, dtype=float)
        lo = np.zeros(n) if self.lo is None else np.asarray(self.lo, dtype=float)
        hi = np.full(n, np.inf) if self.hi is None else np.asarray(self.hi, dtype=float)
        if A.shape != (b.shape[0], n) or E.shape != (f.shape[0], n):
            raise ValidationError("lp: constraint matrix/rhs shapes disagree")
        if lo.shape != (n,) or hi.shape != (n,):
            raise ValidationError("lp: bound vectors must have length n")
        # one finiteness pass over the data and one check of the bounds as a
        # whole (lo <= hi is false on a NaN); the field to blame is looked
        # for only when either fails
        data_ok = np.isfinite(np.concatenate([c, A.ravel(), b, E.ravel(), f])).all()
        if not (data_ok and (lo <= hi).all() and lo.max() < np.inf and hi.min() > -np.inf):
            _reject(c, A, b, E, f, lo, hi)
        for name, value in (("c", c), ("A", A), ("b", b), ("E", E), ("f", f), ("lo", lo), ("hi", hi)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.c.shape[0]

    def with_rhs(self, b) -> "LpProblem":
        """This LP with the inequality right-hand side b. Only b is checked.
        The other arrays are shared with this problem, read-only (frozen
        copies on the first call), so a start from either problem matches
        the other by identity instead of by comparing matrices."""
        b = np.array(b, dtype=float)
        if b.shape != self.b.shape:
            raise ValidationError("lp: constraint matrix/rhs shapes disagree")
        if not np.isfinite(b).all():
            raise NonFinite("lp: non-finite entries in b")
        child = object.__new__(LpProblem)
        for name in ("c", "A", "E", "f", "lo", "hi"):
            value = _frozen(getattr(self, name))
            object.__setattr__(self, name, value)
            object.__setattr__(child, name, value)
        object.__setattr__(child, "b", b)
        return child


def _is_frozen(a: np.ndarray) -> bool:
    """Read-only and owning its data (a read-only view of a writeable
    array can still change)."""
    flags = a.flags
    return not flags.writeable and flags.owndata


def _frozen(a: np.ndarray) -> np.ndarray:
    """a itself when it is frozen, else a frozen copy."""
    if _is_frozen(a):
        return a
    a = a.copy()
    a.flags.writeable = False
    return a


def _kept(a: np.ndarray) -> np.ndarray:
    """What a warm-start match keeps of a problem's array: the array itself
    when it is frozen, else a private copy, so that a caller's later edit
    of its array cannot pass the match."""
    return a if _is_frozen(a) else a.copy()


def _same(kept: np.ndarray, given: np.ndarray) -> bool:
    """Whether given equals an array that _kept returned: by identity, else
    by value."""
    return kept is given or np.array_equal(kept, given)


def _reject(c, A, b, E, f, lo, hi):
    """Raise the error that names the first invalid field of an LP."""
    if np.any(lo == np.inf) or np.any(hi == -np.inf):
        raise ValidationError("lp: a lower bound of +inf or an upper bound of -inf admits no value")
    if np.any(lo > hi):
        raise ValidationError("lp: lower bound exceeds upper bound")
    for name, arr in (("c", c), ("A", A), ("b", b), ("E", E), ("f", f)):
        if not np.all(np.isfinite(arr)):
            raise NonFinite(f"lp: non-finite entries in {name}")
    if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
        raise NonFinite("lp: NaN in bounds")


@dataclass(frozen=True, eq=False)
class LpOutcome:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray] = None
    value: Optional[float] = None
    dual_ineq: Optional[np.ndarray] = None   # multipliers of A x <= b, <= 0 orientation
    dual_eq: Optional[np.ndarray] = None     # multipliers of E x = f
    reduced_cost_min: Optional[float] = None
    duality_gap: Optional[float] = None
    pivots: int = 0
    # the final tableau of an optimal solve, for solve_lp(..., start=outcome)
    tableau: Optional["_BoundTableau"] = field(default=None, repr=False)


def _eliminate(T: np.ndarray, row: int, col: int) -> None:
    """Gauss-Jordan step: scale T[row] to a unit entry in col and clear col
    from every other row."""
    prow = T[row]
    prow /= prow[col]
    fac = T[:, col].copy()
    fac[row] = 0.0
    T -= np.multiply.outer(fac, prow)
    T[:, col] = 0.0
    T[row, col] = 1.0


def _long_step_applies(problem: LpProblem) -> bool:
    """No equality rows, and every cost is nonzero with a finite bound on
    its cheaper side: the start at those bounds is strictly dual feasible."""
    c = problem.c
    return (problem.E.shape[0] == 0 and bool(c.all())
            and bool(np.isfinite(np.where(c > 0, problem.lo, problem.hi)).all()))


class _BoundTableau:
    """T = B^-1 [A I; E I | x_B] over the n columns of x, one slack per row and
    the artificial columns of phase 1, with the reduced costs in its last row
    and the basic values in its last column. A nonbasic column sits where
    `sgn` says: +1 at its lower bound, -1 at its upper bound, 0 at its fixed
    value or, when free, at 0; `free` lists the free columns still nonbasic,
    and lob, hib hold the bounds of the basic columns."""

    def __init__(self, problem: LpProblem, sgn: np.ndarray, residual: np.ndarray, art: np.ndarray):
        """The tableau at a start: x nonbasic where sgn puts it, each row's
        slack basic at its residual (rhs minus the row at those values), and
        on the rows in art an artificial column basic at |residual| instead,
        with the reduced costs of c at a slack basis."""
        A, E, lo = problem.A, problem.E, problem.lo
        n, m_ineq, n_art = problem.n, A.shape[0], art.size
        if n > _MAX_COLUMNS:
            raise ValidationError(f"lp: {n} columns exceeds the {_MAX_COLUMNS} cap")
        m = m_ineq + E.shape[0]
        ncols = n + m + n_art
        self.c, self.A, self.E, self.lo, self.hi = map(_kept, (problem.c, A, E, lo, problem.hi))
        self.n, self.m = n, m
        self.lo_all = np.zeros(ncols)
        self.lo_all[:n] = lo
        self.hi_all = np.full(ncols, np.inf)
        self.hi_all[:n] = problem.hi
        self.hi_all[n + m_ineq : n + m] = 0.0     # equality rows' slacks
        self.width = self.hi_all - self.lo_all
        self.sgn = np.ones(ncols)
        self.sgn[:n] = sgn
        self.sgn[n + m_ineq : n + m] = 0.0
        self.free = np.flatnonzero((sgn == 0.0) & (lo == -np.inf))
        self.base = self.lo_all                    # where a column with sgn >= 0 sits
        if self.free.size:
            self.base = self.lo_all.copy()
            self.base[self.free] = 0.0
        self.T = T = np.zeros((m + 1, ncols + 1))
        T[:m_ineq, :n] = A
        T[m_ineq:m, :n] = E
        T.reshape(-1)[n : m * (ncols + 1) : ncols + 2] = 1.0   # the slacks' unit columns
        T[:m, -1] = residual
        T[m, :n] = problem.c
        self.basis = np.arange(n, n + m)
        if n_art:
            # scaling an artificial's row by the sign of its residual keeps
            # B^-1 in the slack columns
            T[art] *= np.where(residual[art] < 0.0, -1.0, 1.0)[:, None]
            T[art, n + m + np.arange(n_art)] = 1.0
            self.basis[art] = n + m + np.arange(n_art)
        self.lob, self.hib = self.lo_all[self.basis], self.hi_all[self.basis]
        self.pivots = 0

    def fits(self, problem: LpProblem) -> bool:
        return (_same(self.A, problem.A) and _same(self.E, problem.E)
                and _same(self.lo, problem.lo) and _same(self.hi, problem.hi))

    def copy(self) -> "_BoundTableau":
        new = object.__new__(_BoundTableau)
        new.__dict__.update(self.__dict__)
        for name in ("T", "basis", "sgn", "lob", "hib"):
            setattr(new, name, getattr(self, name).copy())
        new.pivots = 0
        return new

    def values(self) -> np.ndarray:
        """Every nonbasic column at its bound, basic columns at 0."""
        x = np.where(self.sgn < 0, self.hi_all, self.base)
        x[self.basis] = 0.0
        return x

    def price(self, cost: np.ndarray) -> None:
        """Reduced costs of cost (one entry per column of T, 0 on the last)."""
        m = self.m
        self.T[m] = cost - cost[self.basis] @ self.T[:m]

    def score(self) -> np.ndarray:
        """Reduced costs measured in each column's feasible direction: the
        negative ones improve."""
        d = self.T[self.m, :-1]
        score = d * self.sgn
        if self.free.size:
            score[self.free] = -np.abs(d[self.free])
        return score

    def pivot(self, leave: int, enter: int, delta: float, lower: bool) -> None:
        """Move column enter by delta, so that the basic column of row leave
        reaches its lower (or upper) bound and leaves there, and make enter
        basic in its place."""
        T, sgn = self.T, self.sgn
        out = self.basis[leave]
        value = (self.hi_all[enter] if sgn[enter] < 0 else self.base[enter]) + delta
        sgn[out] = 0.0 if self.width[out] == 0.0 else (1.0 if lower else -1.0)
        T[leave, -1] = delta * T[leave, enter]    # the elimination then moves x_B
        _eliminate(T, leave, enter)
        T[leave, -1] = value
        self.basis[leave] = enter
        self.lob[leave], self.hib[leave] = self.lo_all[enter], self.hi_all[enter]
        if self.free.size:
            self.free = self.free[self.free != enter]
        self.pivots += 1

    def primal(self) -> str:
        """Bounded primal simplex from a primal-feasible basis, until optimal
        or unbounded."""
        T, basis, sgn, width = self.T, self.basis, self.sgn, self.width
        m = self.m
        cap = 50 * (m + T.shape[1] - 1)
        xb = T[:m, -1]
        bland = False
        ratios = np.empty(m + 1)
        while True:
            score = self.score()
            if bland:
                improving = (score < -_PIVOT_TOL).nonzero()[0]
                if improving.size == 0:
                    return "optimal"
                enter = int(improving[0])
            else:
                enter = int(score.argmin())
                if score[enter] >= -_PIVOT_TOL:
                    return "optimal"
            # x_enter moves up when its reduced cost is negative; x_B then
            # moves by -g per unit and blocks at its lower bound where g > 0
            up = T[m, enter] < 0.0
            g = T[:m, enter] if up else -T[:m, enter]
            ratios.fill(np.inf)
            np.divide(xb - np.where(g > 0.0, self.lob, self.hib), g, out=ratios[:m],
                      where=np.abs(g) > _PIVOT_TOL)
            ratios[m] = width[enter]          # the entering column's own range
            leave = int(ratios.argmin())
            best = float(ratios[leave])
            if best == np.inf:
                return "unbounded"
            if leave == m:
                T[:, -1] -= (best if up else -best) * T[:, enter]
                sgn[enter] = -sgn[enter]
                bland = False
                continue
            tie = (ratios[:m] <= best + _PIVOT_TOL * (1.0 + abs(best))).nonzero()[0]
            if tie.size > 1:
                leave = int(tie[basis[tie].argmin()])
            if self.pivots >= cap:
                raise CycleGuardTripped(f"lp: pivot budget {cap} exhausted")
            step = max(best, 0.0)
            self.pivot(leave, enter, step if up else -step, g[leave] > 0.0)
            bland = step <= _PIVOT_TOL

    def dual(self) -> str:
        """Dual simplex with the long-step ratio test from a dual-feasible
        basis, until the basic values lie within their bounds or a row proves
        the LP infeasible."""
        T, basis, sgn, width = self.T, self.basis, self.sgn, self.width
        m = self.m
        if m == 0:
            return "optimal"
        cap = 50 * (m + T.shape[1] - 1)
        xb = T[:m, -1]
        bland = False
        while True:
            lower_gap = self.lob - xb
            gap = np.maximum(lower_gap, xb - self.hib)  # > 0 where out of bounds
            if bland:
                short = (gap > _PIVOT_TOL).nonzero()[0]
                if short.size == 0:
                    return "optimal"
                leave = int(short[basis[short].argmin()])
            else:
                leave = int(gap.argmax())
                if gap[leave] <= _PIVOT_TOL:
                    return "optimal"
            # the leaving value must rise (to its lower bound) or fall (to its
            # upper one); alpha is its row signed so that rising is positive
            rise = lower_gap[leave] > 0.0
            alpha = T[leave, :-1] if rise else -T[leave, :-1]
            # a column at its lower bound can move up, one at its upper bound
            # down and a free one either way; it helps where it moves the
            # leaving value toward its bound
            helps = alpha * sgn
            if self.free.size:
                helps[self.free] = -np.abs(alpha[self.free])
            helps[basis] = 0.0
            cols = (helps < -_PIVOT_TOL).nonzero()[0]
            if cols.size == 0:
                return "infeasible"
            ratios = T[m, cols] / -alpha[cols]
            order = np.argsort(ratios, kind="stable")
            cols, ratios = cols[order], ratios[order]
            # passing a breakpoint flips a boxed column to its other bound;
            # the first column whose flip would cover the rest of the gap enters
            left = gap[leave] - np.cumsum(np.abs(alpha[cols]) * width[cols])
            k = int((left <= _PIVOT_TOL).argmax())
            if left[k] > _PIVOT_TOL:
                return "infeasible"
            enter = int(cols[k])
            if self.pivots >= cap:
                raise CycleGuardTripped(f"lp: pivot budget {cap} exhausted")
            flips = cols[:k]
            if flips.size:
                T[:, -1] -= T[:, flips] @ (sgn[flips] * width[flips])
                sgn[flips] = -sgn[flips]
            target = self.lob[leave] if rise else self.hib[leave]
            self.pivot(leave, enter, (xb[leave] - target) / T[leave, enter], rise)
            bland = ratios[k] <= _PIVOT_TOL


def _cold(problem: LpProblem) -> Tuple[_BoundTableau, str]:
    """A new tableau for problem and its status after solving it from the
    start rule of the module docstring."""
    c, lo, hi = problem.c, problem.lo, problem.hi
    n, m_ineq = problem.n, problem.A.shape[0]
    dual_start = _long_step_applies(problem)
    if dual_start:
        sgn = np.sign(c)
        home = np.where(sgn < 0.0, hi, lo)
    else:
        lo_fin = np.isfinite(lo)
        sgn = np.where(lo_fin, 1.0, np.where(hi < np.inf, -1.0, 0.0))
        home = np.where(lo_fin, lo, np.where(sgn < 0.0, hi, 0.0))
    sgn[lo == hi] = 0.0
    residual = problem.b - problem.A @ home
    if problem.E.shape[0]:
        residual = np.concatenate([residual, problem.f - problem.E @ home])
    art = np.zeros(0, dtype=int)
    if not dual_start:
        needs = residual < 0.0
        needs[m_ineq:] = True
        art = np.flatnonzero(needs)
    tab = _BoundTableau(problem, sgn, residual, art)
    if dual_start:
        return tab, tab.dual()
    if art.size:
        T, m, art0 = tab.T, tab.m, n + tab.m
        cost = np.zeros(T.shape[1])
        cost[art0:-1] = 1.0
        tab.price(cost)
        if tab.primal() == "unbounded":    # cannot happen: phase-1 objective >= 0
            raise NonFinite("lp: phase 1 reported unbounded")
        infeas = float(T[:m, -1][tab.basis >= art0].sum())
        if infeas > 1e-7 * (1.0 + float(np.max(np.abs(residual), initial=0.0))):
            return tab, "infeasible"
        tab.hi_all[art0:] = tab.width[art0:] = tab.sgn[art0:] = 0.0
        tab.hib[tab.basis >= art0] = 0.0
        cost[art0:-1] = 0.0
        cost[:n] = c
        tab.price(cost)
    return tab, tab.primal()


def _warm(problem: LpProblem, tab: _BoundTableau) -> Optional[str]:
    """Re-solve problem from tab, a copy of a start's tableau; None when its
    basis is neither primal nor dual feasible for the new data."""
    T, n, m = tab.T, tab.n, tab.m
    rhs = np.concatenate([problem.b, problem.f])
    # x_B = B^-1 (rhs - N x_N), with B^-1 in the slack columns
    T[:m, -1] = T[:m, n:n + m] @ rhs - T[:m, :n] @ tab.values()[:n]
    if not _same(tab.c, problem.c):
        tab.c = _kept(problem.c)
        cost = np.zeros(T.shape[1])
        cost[:n] = problem.c
        tab.price(cost)
        xb = T[:m, -1]
        if np.max(np.maximum(tab.lob - xb, xb - tab.hib), initial=0.0) <= _PIVOT_TOL:
            return tab.primal()
        if tab.score().min(initial=0.0) < -_PIVOT_TOL:
            return None
    return tab.dual()


def solve_lp(problem: LpProblem, start: Optional[LpOutcome] = None) -> LpOutcome:
    """Solve an LpProblem; outcome status is "optimal", "infeasible" or "unbounded".

    start: an optimal outcome of an LP with the same A, E, lo and hi, which
    the solve re-solves from (module docstring); any other start is ignored.
    """
    old = None if start is None else start.tableau
    status = None
    if old is not None and old.fits(problem):
        tab = old.copy()
        status = _warm(problem, tab)
    if status is None:
        tab, status = _cold(problem)
    if status != "optimal":
        return LpOutcome(status=status, pivots=tab.pivots)
    T, n, m = tab.T, tab.n, tab.m
    x_all = tab.values()
    x_all[tab.basis] = T[:m, -1]
    x = x_all[:n]
    value = float(problem.c @ x)
    d = T[m, :n + m]
    # a slack column is e_i with cost 0, so its reduced cost is -y_i
    y = -d[n:]
    dual_obj = float(y @ np.concatenate([problem.b, problem.f]) + d[:n] @ x)
    return LpOutcome(
        status="optimal",
        x=x,
        value=value,
        dual_ineq=y[: problem.A.shape[0]],
        dual_eq=y[problem.A.shape[0]:],
        reduced_cost_min=float(tab.score()[: n + m].min(initial=0.0)),
        duality_gap=abs(value - dual_obj) / (1.0 + abs(value)),
        pivots=tab.pivots,
        tableau=tab,
    )
