"""Dense two-phase primal simplex for small linear programs, with warm
re-solves from an earlier optimal basis.

    min c'x   s.t.  A x <= b,  E x = f,  lo <= x <= hi

Every variable becomes a column z >= 0 (x = lo + z, x = hi - z, or a free
pair), and every finite range hi - lo becomes one more <= row. A <= row
whose shifted rhs is nonnegative starts with its slack basic; only the
rows with a negative rhs (negated) and the equality rows get an artificial
column, and phase 1 runs only when there is one.

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
tableau of an optimal outcome of an LP with the same A, E, lo and hi (checked
with np.array_equal; any other start is ignored and the LP is solved cold).
That tableau holds the basis inverse in the columns that began as unit
vectors, the slacks and the equality rows' artificials, so a copy of it
takes the new rhs as that inverse times the new shifted rhs, and the new
cost is priced against the old basis. A basis that is still primal feasible
goes on with the primal loop above. One that is only dual feasible, as after
a change of b alone, goes to a dual simplex loop (Lemke 1954). One that is
neither, or a start whose phase 1 dropped redundant rows, is solved cold.

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

The optimal outcome carries a dual certificate (row multipliers, the most
negative reduced cost, and the primal-dual gap) so callers can verify
optimality independently.
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
        # copies, so a caller's later edit of its arrays cannot pass fits()
        self.A, self.E, self.lo, self.hi = problem.A.copy(), problem.E.copy(), lo.copy(), hi.copy()

    def fits(self, problem: LpProblem) -> bool:
        return (np.array_equal(self.A, problem.A) and np.array_equal(self.E, problem.E)
                and np.array_equal(self.lo, problem.lo) and np.array_equal(self.hi, problem.hi))

    def rhs(self, problem: LpProblem) -> np.ndarray:
        """Right-hand sides of the rows in z, before any row is negated."""
        off = self.offsets
        return np.concatenate([problem.b - problem.A @ off, self.u_rhs, problem.f - problem.E @ off])


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
        T = self.T
        prow = T[row]
        prow /= prow[col]
        fac = T[:, col].copy()
        fac[row] = 0.0
        T -= np.multiply.outer(fac, prow)
        T[:, col] = 0.0
        T[row, col] = 1.0
        self.basis[row] = col
        self.pivots += 1
        # tiny negative basic values are rounding debris
        rhs = T[: self.m, self.n]
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

    start: an optimal outcome of an LP with the same A, E, lo and hi, which
    the solve re-solves from (module docstring); any other start is ignored.
    """
    old = None if start is None else start.tableau
    if old is not None and old.form.fits(problem):
        out = _warm_solve(problem, old)
        if out is not None:
            return out
        return _cold_solve(problem, old.form)
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
