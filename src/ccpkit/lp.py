"""Dense simplex for small linear programs, with two engines and warm
re-solves from an earlier optimal basis.

    min c'x   s.t.  A x <= b,  E x = f,  lo <= x <= hi

Which engine. A cold solve takes the long-step dual engine when the LP has
no equality rows and every column has a nonzero cost and a finite bound on
its cheaper side (lo where c_j > 0, hi where c_j < 0): every column at that
bound with every slack basic is then strictly dual feasible, so no phase 1
is needed and the LP cannot be unbounded. Every other LP takes the row-form
engine. A warm solve (start=) stays in the engine its start came from.
`pivots` counts basis changes in both engines, never bound flips.

Row-form engine. Every variable becomes a column z >= 0 (x = lo + z,
x = hi - z, or a free pair), and every finite range hi - lo becomes one more
<= row. A <= row whose shifted rhs is nonnegative starts with its slack
basic; only the rows with a negative rhs (negated) and the equality rows
get an artificial column, and phase 1 runs only when there is one.

Pricing is Dantzig's rule (the most negative reduced cost, lowest index on
ties), except that the pivot after a degenerate one (zero step) uses Bland's
rule (Bland 1977): the lowest-index improving column, and on ratio ties the
row whose basic column has the lowest index. This terminates: each
nondegenerate pivot strictly lowers the objective, so no basis comes back
across one, and inside a run of degenerate pivots every pivot after the
first is a Bland pivot, which cannot cycle. A pivot budget of
50 * (rows + columns) still guards the loop against rounding and raises
CycleGuardTripped if exhausted. Intended for desk-scale problems (at most
10_000 columns after standard-form conversion); everything is dense numpy.

Warm re-solves. solve_lp(problem, start=outcome) starts from the final
tableau of an optimal outcome of an LP with the same A, E, lo and hi (the
same arrays, as LpProblem.with_rhs shares them, or equal ones; any other
start is ignored and the LP is solved cold). That tableau holds the basis
inverse in the columns that began as unit vectors, the slacks and the
equality rows' artificials, so a copy of it takes the new rhs as that
inverse times the new shifted rhs, and the new cost is priced against the
old basis. A basis that is still primal feasible goes on with the primal
loop above. One that is only dual feasible, as after a change of b alone,
goes to a dual simplex loop (Lemke 1954). One that is neither, or a start
whose phase 1 dropped redundant rows, is solved cold.

The dual loop prices like the primal one: the row with the most negative
basic value leaves (lowest index on ties), and the entering column has the
smallest ratio of its reduced cost to minus its entry in that row (lowest
index on ties). The pivot after a degenerate one (zero ratio) is a dual Bland
pivot: the infeasible row whose basic column has the lowest index leaves. It
terminates for the same reason: each nondegenerate dual pivot strictly raises
the objective while every reduced cost stays nonnegative, so no basis comes
back across one, and a run of degenerate pivots is Bland's rule on the dual
after its first pivot. The same pivot budget guards it. A row with a negative
basic value and no negative entry proves the LP infeasible. Once every basic
value is nonnegative, the primal loop confirms optimality (it normally makes
no pivot). The start is never modified.

Long-step dual engine (the bounded-variable simplex of Dantzig 1955 with
the bound-flipping ratio test of Fourer 1994). The columns are x itself and
one slack per <= row, and the bounds stay implicit: a nonbasic column sits
at its lower or its upper bound, and no range is a row. The basic value
furthest outside its bounds leaves (lowest index on ties). The columns that
can move it toward that bound are sorted by the ratio of their reduced cost
to their entry in its row (lowest index on ties). Walking up those
breakpoints, the dual objective rises at a slope that starts at the leaving
value's distance to its bound and falls at each breakpoint by |entry| times
the column's range. While the slope stays positive, the column is boxed and
flips to its other bound; the first column at which the slope would reach
zero enters, so one pivot replaces a run of short-step dual pivots. When
the slope stays positive past every breakpoint, or no column can move the
row, the LP is infeasible. A warm solve (same c, A, lo and hi) takes the
new basic values from the basis inverse in the slack columns. It
terminates like the dual loop above: a step of positive length raises the
dual objective strictly, since the flips passed only segments of positive
slope; after a zero-length step the next leaving row is picked by Bland's
rule, and the same pivot budget raises CycleGuardTripped.

The optimal outcome carries a dual certificate (row multipliers, the most
negative reduced cost of a nonbasic column measured in its feasible
direction, and the primal-dual gap) so callers can verify optimality
independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

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
    tableau: Optional["_Tableau"] = field(default=None, repr=False)


class _Form:
    """Standard form of an LP's A, E, lo and hi: columns z >= 0 with x equal to
    offsets plus sign * z summed over the columns of each variable (src).

    A finite lo gives x = lo + z (plus a row z <= hi - lo when hi is finite),
    a finite hi alone gives x = hi - z, and a free x is a pair z+ - z-.
    """

    def __init__(self, problem: LpProblem):
        lo, hi = problem.lo, problem.hi
        lo_fin = np.isfinite(lo)
        hi_fin = np.isfinite(hi)
        free = ~(lo_fin | hi_fin)
        width = 1 + free.astype(int)
        self.ncols = int(width.sum())
        if self.ncols > _MAX_COLUMNS:
            raise ValidationError(f"lp: {self.ncols} columns exceeds the {_MAX_COLUMNS} cap")
        first = np.cumsum(width) - width
        self.src = np.repeat(np.arange(problem.n), width)   # original variable of each column
        self.sign = np.ones(self.ncols)
        self.sign[first[~lo_fin & hi_fin]] = -1.0
        self.sign[first[free] + 1] = -1.0
        self.offsets = np.where(lo_fin, lo, np.where(hi_fin, hi, 0.0))
        boxed = lo_fin & hi_fin
        self.up_cols = first[boxed]
        self.u_rhs = (hi - lo)[boxed]
        self.n_ineq = problem.A.shape[0]
        self.n_eq = problem.E.shape[0]
        self.nslack = self.n_ineq + self.up_cols.shape[0]
        self.m = self.nslack + self.n_eq
        self.A, self.E, self.lo, self.hi = _kept(problem.A), _kept(problem.E), _kept(lo), _kept(hi)

    def fits(self, problem: LpProblem) -> bool:
        return (_same(self.A, problem.A) and _same(self.E, problem.E)
                and _same(self.lo, problem.lo) and _same(self.hi, problem.hi))

    def rhs(self, problem: LpProblem) -> np.ndarray:
        """Right-hand sides of the rows in z, before any row is negated."""
        off = self.offsets
        return np.concatenate([problem.b - problem.A @ off, self.u_rhs, problem.f - problem.E @ off])


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


class _Tableau:
    """Full tableau T = [rows | rhs] over a standard form, with the
    reduced-cost row at the bottom. Rows with row_sign -1 were negated, and
    the columns from art0 on are artificials."""

    def __init__(self, form: _Form, T: np.ndarray, basis: np.ndarray, row_sign: np.ndarray, art0: int):
        self.form = form
        self.T = T
        self.m = T.shape[0] - 1
        self.n = T.shape[1] - 1
        self.basis = basis
        self.row_sign = row_sign
        self.art0 = art0
        self.pivots = 0

    def set_costs(self, c: np.ndarray) -> None:
        m, n = self.m, self.n
        cb = c[self.basis]
        self.T[m, :n] = c - cb @ self.T[:m, :n]
        self.T[m, n] = -float(cb @ self.T[:m, n])

    def pivot(self, row: int, col: int) -> None:
        _eliminate(self.T, row, col)
        self.basis[row] = col
        self.pivots += 1
        # tiny negative basic values are rounding debris
        rhs = self.T[: self.m, self.n]
        if rhs.min() < 0:
            rhs[(rhs < 0) & (rhs > -_PIVOT_TOL)] = 0.0

    def run(self, limit: int, cap: int) -> str:
        """Pivot over the first `limit` columns until optimal or unbounded."""
        T = self.T
        m, n = self.m, self.n
        rhs = T[:m, n]
        bland = False
        while True:
            costs = T[m, :limit]
            if bland:
                improving = (costs < -_PIVOT_TOL).nonzero()[0]
                if improving.size == 0:
                    return "optimal"
                enter = int(improving[0])
            else:
                enter = int(costs.argmin())
                if costs[enter] >= -_PIVOT_TOL:
                    return "optimal"
            col = T[:m, enter]
            rows = (col > _PIVOT_TOL).nonzero()[0]
            if rows.size == 0:
                return "unbounded"
            ratios = rhs[rows] / col[rows]
            best = float(ratios.min())
            if rows.size == 1:
                leave = int(rows[0])
            else:
                # Bland tie-break: smallest basis index among minimizing rows
                tie = rows[ratios <= best + _PIVOT_TOL * (1.0 + abs(best))]
                leave = int(tie[self.basis[tie].argmin()])
            if self.pivots >= cap:
                raise CycleGuardTripped(f"lp: pivot budget {cap} exhausted")
            self.pivot(leave, enter)
            bland = best <= _PIVOT_TOL

    def run_dual(self, limit: int, cap: int) -> str:
        """Dual simplex over the first `limit` columns from a dual-feasible
        basis, until every basic value is nonnegative or a row proves the LP
        infeasible."""
        T = self.T
        m, n = self.m, self.n
        bland = False
        while True:
            rhs = T[:m, n]
            if bland:
                short = (rhs < -_PIVOT_TOL).nonzero()[0]
                if short.size == 0:
                    return "optimal"
                leave = int(short[self.basis[short].argmin()])
            else:
                leave = int(rhs.argmin())
                if rhs[leave] >= -_PIVOT_TOL:
                    return "optimal"
            row = T[leave, :limit]
            cols = (row < -_PIVOT_TOL).nonzero()[0]
            if cols.size == 0:
                return "infeasible"
            ratios = T[m, cols] / -row[cols]
            best = float(ratios.min())
            enter = int(cols[(ratios <= best + _PIVOT_TOL * (1.0 + abs(best))).argmax()])
            if self.pivots >= cap:
                raise CycleGuardTripped(f"lp: pivot budget {cap} exhausted")
            self.pivot(leave, enter)
            bland = best <= _PIVOT_TOL


def _phase2_cost(problem: LpProblem, form: _Form, total_cols: int) -> np.ndarray:
    cost = np.zeros(total_cols)
    cost[: form.ncols] = problem.c[form.src] * form.sign
    return cost


def solve_lp(problem: LpProblem, start: Optional[LpOutcome] = None) -> LpOutcome:
    """Solve an LpProblem; outcome status is "optimal", "infeasible" or "unbounded".

    start: an optimal outcome of an LP with the same A, E, lo and hi (and,
    for the long-step engine, the same c), which the solve re-solves from in
    the engine that produced it (module docstring); any other start is
    ignored.
    """
    old = None if start is None else start.tableau
    if isinstance(old, _BoundTableau) and old.fits(problem):
        return _long_step_solve(problem, old)
    if isinstance(old, _Tableau) and old.form.fits(problem):
        out = _warm_solve(problem, old)
        if out is not None:
            return out
        return _cold_solve(problem, old.form)
    if _long_step_applies(problem):
        return _long_step_solve(problem, None)
    return _cold_solve(problem, _Form(problem))


def _cold_solve(problem: LpProblem, form: _Form) -> LpOutcome:
    ncols, nslack, m = form.ncols, form.nslack, form.m
    n_ineq, n_up = form.n_ineq, form.up_cols.shape[0]
    rhs = form.rhs(problem)

    # rows with a negative rhs are negated; they and the equality rows get an
    # artificial column, every other row starts with its slack basic
    row_sign = np.where(rhs < 0, -1.0, 1.0)
    needs_art = row_sign < 0
    needs_art[nslack:] = True
    art_rows = np.flatnonzero(needs_art)
    n_art = art_rows.shape[0]
    art0 = ncols + nslack
    total_cols = art0 + n_art

    T = np.zeros((m + 1, total_cols + 1))
    T[:n_ineq, :ncols] = problem.A[:, form.src] * form.sign
    T[n_ineq + np.arange(n_up), form.up_cols] = 1.0
    T[nslack:m, :ncols] = problem.E[:, form.src] * form.sign
    T[np.arange(nslack), ncols + np.arange(nslack)] = 1.0
    T[:m, total_cols] = rhs
    T[:m] *= row_sign[:, None]
    T[art_rows, art0 + np.arange(n_art)] = 1.0
    basis = ncols + np.arange(m)
    basis[art_rows] = art0 + np.arange(n_art)

    tab = _Tableau(form, T, basis, row_sign, art0)
    cap = 50 * (m + total_cols)

    # --- phase 1 ------------------------------------------------------------
    dropped: List[int] = []              # rows found redundant keep multiplier zero
    if n_art:
        phase1_cost = np.zeros(total_cols)
        phase1_cost[art0:] = 1.0
        tab.set_costs(phase1_cost)
        status = tab.run(total_cols, cap)
        if status == "unbounded":       # cannot happen: phase-1 objective >= 0
            raise NonFinite("lp: phase 1 reported unbounded")
        infeas = -float(tab.T[tab.m, tab.n])
        if infeas > 1e-7 * (1.0 + float(np.max(np.abs(rhs), initial=0.0))):
            return LpOutcome(status="infeasible", pivots=tab.pivots)

        # drive artificials out of the basis; rows that will not pivot are redundant
        keep = np.ones(tab.m, dtype=bool)
        for i in np.flatnonzero(tab.basis >= art0):
            cand = np.flatnonzero(np.abs(tab.T[i, :art0]) > _PIVOT_TOL)
            if cand.size:
                tab.pivot(int(i), int(cand[0]))
            else:
                keep[i] = False
                dropped.append(art_rows[tab.basis[i] - art0])
        if dropped:
            tab.T = np.vstack([tab.T[:-1][keep], tab.T[-1:]])
            tab.basis = tab.basis[keep]
            tab.m = int(keep.sum())

    # --- phase 2 ------------------------------------------------------------
    cost = _phase2_cost(problem, form, total_cols)
    tab.set_costs(cost)
    status = tab.run(art0, cap)
    if status == "unbounded":
        return LpOutcome(status="unbounded", pivots=tab.pivots)
    return _optimal(problem, tab, rhs, cost, dropped)


def _warm_solve(problem: LpProblem, old: _Tableau) -> Optional[LpOutcome]:
    """Re-solve from a copy of old's basis; None when it is neither primal
    nor dual feasible for the new data."""
    form = old.form
    tab = _Tableau(form, old.T.copy(), old.basis.copy(), old.row_sign, old.art0)
    T, m, n = tab.T, tab.m, tab.n
    rhs = form.rhs(problem)
    # the new rhs column is B^-1 (row_sign * rhs); B^-1 e_i is row_sign_i times
    # the slack column of <= row i (the signs cancel) and, on equality row i,
    # the artificial column
    inverse = np.concatenate([form.ncols + np.arange(form.nslack), np.arange(n - form.n_eq, n)])
    scaled = rhs.copy()
    scaled[form.nslack:] *= tab.row_sign[form.nslack:]
    values = T[:m, inverse] @ scaled
    values[(values < 0) & (values > -_PIVOT_TOL)] = 0.0
    T[:m, n] = values
    cost = _phase2_cost(problem, form, n)
    tab.set_costs(cost)
    cap = 50 * (m + n)
    if values.min(initial=0.0) < 0.0:
        if T[m, : tab.art0].min(initial=0.0) < -_PIVOT_TOL:
            return None
        if tab.run_dual(tab.art0, cap) == "infeasible":
            return LpOutcome(status="infeasible", pivots=tab.pivots)
    if tab.run(tab.art0, cap) == "unbounded":
        return LpOutcome(status="unbounded", pivots=tab.pivots)
    return _optimal(problem, tab, rhs, cost, [])


def _optimal(problem: LpProblem, tab: _Tableau, rhs: np.ndarray, cost: np.ndarray,
             dropped: List[int]) -> LpOutcome:
    """Primal point, duals and certificate at an optimal tableau."""
    form = tab.form
    ncols, nslack, art0, total_cols = form.ncols, form.nslack, tab.art0, tab.n
    z = np.zeros(total_cols)
    z[tab.basis] = tab.T[: tab.m, tab.n]
    x = form.offsets + np.bincount(form.src, weights=form.sign * z[:ncols], minlength=problem.n)
    shift_cost = float(problem.c @ form.offsets)
    value = float(cost[:ncols] @ z[:ncols]) + shift_cost

    # a slack column is e_i, so y_i = -cbar(slack_i) on <= rows; an equality
    # row's artificial column is sign_i * e_i, so y_i = -sign_i * cbar(art_i)
    cbar = tab.T[tab.m, :total_cols]
    y = np.empty(form.m)
    y[:nslack] = -cbar[ncols:art0]
    y[nslack:] = -tab.row_sign[nslack:] * cbar[total_cols - form.n_eq :]
    y[dropped] = 0.0
    dual_ineq = y[: form.n_ineq].copy()
    dual_eq = y[nslack:].copy()
    # standard-form dual objective on the original (unnegated) rows
    dual_obj = float(y @ rhs) + shift_cost
    scale = 1.0 + abs(value)
    gap = abs(value - dual_obj)
    reduced_min = float(np.min(cbar[:art0], initial=0.0))

    return LpOutcome(
        status="optimal",
        x=x,
        value=value,
        dual_ineq=dual_ineq,
        dual_eq=dual_eq,
        reduced_cost_min=reduced_min,
        duality_gap=float(gap / scale),
        pivots=tab.pivots,
        tableau=None if dropped else tab,
    )


# ---------------------------------------------------------------------------
# long-step dual simplex over implicit bounds


def _long_step_applies(problem: LpProblem) -> bool:
    """No equality rows, and every cost is nonzero with a finite bound on
    its cheaper side: the start at those bounds is strictly dual feasible."""
    c = problem.c
    return (problem.E.shape[0] == 0 and bool(c.all())
            and bool(np.isfinite(np.where(c > 0, problem.lo, problem.hi)).all()))


class _BoundTableau:
    """T = B^-1 [A I] over the n structural columns and the m slacks, with
    the reduced costs in its last row. A nonbasic column sits at its lower
    bound, or at its upper one where `upper` is set; the basic values are
    kept apart from T, since they depend on those bounds."""

    def __init__(self, problem: LpProblem, T: np.ndarray, basis: np.ndarray, upper: np.ndarray):
        m, n = problem.A.shape
        self.c, self.A = _kept(problem.c), _kept(problem.A)
        self.lo, self.hi = lo, hi = _kept(problem.lo), _kept(problem.hi)
        self.lo_all = np.concatenate([lo, np.zeros(m)])      # slacks lie in [0, inf)
        self.hi_all = np.concatenate([hi, np.full(m, np.inf)])
        self.width = self.hi_all - self.lo_all
        self.T = T
        self.basis = basis
        self.upper = upper
        self.pivots = 0

    def fits(self, problem: LpProblem) -> bool:
        return (problem.E.shape[0] == 0 and _same(self.c, problem.c) and _same(self.A, problem.A)
                and _same(self.lo, problem.lo) and _same(self.hi, problem.hi))

    def copy(self) -> "_BoundTableau":
        new = object.__new__(_BoundTableau)
        new.__dict__.update(self.__dict__)
        new.T, new.basis, new.upper, new.pivots = self.T.copy(), self.basis.copy(), self.upper.copy(), 0
        return new

    def nonbasic_values(self) -> np.ndarray:
        """Every column at its bound, basic columns at 0."""
        x = np.where(self.upper, self.hi_all, self.lo_all)
        x[self.basis] = 0.0
        return x

    def run(self, xb: np.ndarray, cap: int) -> str:
        """Dual simplex with the long-step ratio test, updating the basic
        values xb in place, until they lie within their bounds or a row
        proves the LP infeasible."""
        T, basis, upper, width = self.T, self.basis, self.upper, self.width
        m = basis.shape[0]
        if m == 0:
            return "optimal"
        bland = False
        while True:
            lower_gap = self.lo_all[basis] - xb
            gap = np.maximum(lower_gap, xb - self.hi_all[basis])  # > 0 where out of bounds
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
            alpha = T[leave] if rise else -T[leave]
            # a column at its lower bound can move up, one at its upper bound
            # down; either helps where it moves the leaving value toward its bound
            toward = np.where(upper, alpha, -alpha)
            toward[basis] = 0.0
            cols = (toward > _PIVOT_TOL).nonzero()[0]
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
                xb -= T[:m, flips] @ np.where(upper[flips], -width[flips], width[flips])
                upper[flips] = ~upper[flips]
            col = T[:m, enter]
            target = self.lo_all[basis[leave]] if rise else self.hi_all[basis[leave]]
            step = (xb[leave] - target) / col[leave]
            start = self.hi_all[enter] if upper[enter] else self.lo_all[enter]
            xb -= step * col
            xb[leave] = start + step
            upper[basis[leave]] = not rise
            upper[enter] = False
            _eliminate(T, leave, enter)
            basis[leave] = enter
            self.pivots += 1
            bland = ratios[k] <= _PIVOT_TOL


def _long_step_solve(problem: LpProblem, old: Optional[_BoundTableau]) -> LpOutcome:
    """Solve cold from the slack basis with every column at its cheaper
    bound, or warm from a copy of old's basis."""
    A, b, c = problem.A, problem.b, problem.c
    m, n = A.shape
    if old is None:
        if n > _MAX_COLUMNS:
            raise ValidationError(f"lp: {n} columns exceeds the {_MAX_COLUMNS} cap")
        T = np.zeros((m + 1, n + m))
        T[:m, :n] = A
        T[np.arange(m), n + np.arange(m)] = 1.0
        T[m, :n] = c
        tab = _BoundTableau(problem, T, n + np.arange(m), np.concatenate([c < 0, np.zeros(m, bool)]))
    else:
        tab = old.copy()
    # x_B = B^-1 (b - N x_N), with B^-1 in the slack columns
    T = tab.T
    xb = T[:m, n:] @ b - T[:m, :n] @ tab.nonbasic_values()[:n]
    if tab.run(xb, 50 * (m + T.shape[1])) == "infeasible":
        return LpOutcome(status="infeasible", pivots=tab.pivots)
    x_all = tab.nonbasic_values()
    x_all[tab.basis] = xb
    x = x_all[:n]
    value = float(c @ x)
    d = T[m]
    # a slack column is e_i with cost 0, so its reduced cost is -y_i
    y = -d[n:]
    dual_obj = float(y @ b + d[:n] @ x)
    return LpOutcome(
        status="optimal",
        x=x,
        value=value,
        dual_ineq=y,
        dual_eq=np.zeros(0),
        reduced_cost_min=float(np.min(np.where(tab.upper, -d, d), initial=0.0)),
        duality_gap=abs(value - dual_obj) / (1.0 + abs(value)),
        pivots=tab.pivots,
        tableau=tab,
    )
