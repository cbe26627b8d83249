"""Dense simplex solver: primal answers and dual certificates."""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import ccpkit.lp
from ccpkit import (
    DrccpSpec,
    Intersection,
    LInf,
    LpProblem,
    NonFinite,
    Simplex,
    SubsetChain,
    ValidationError,
    robustify,
    solve_lp,
)
from ccpkit.cli import generate_instance
from ccpkit.covering import _relaxation_lp, _subset_lp
from ccpkit.cvar import _tail_problem
from ccpkit.lowerlevel import _hinge_lp


def certificate_ok(problem: LpProblem, out, tol=1e-7) -> bool:
    x = out.x
    scale = 1.0 + abs(out.value)
    if problem.A is not None and problem.A.size:
        slack = problem.b - problem.A @ x
        if slack.min() < -tol * scale:
            return False
        if out.dual_ineq.max() > tol:
            return False
        if np.max(np.abs(out.dual_ineq * slack)) > 1e-5 * scale:
            return False
    if problem.E is not None and problem.E.size:
        if np.max(np.abs(problem.E @ x - problem.f)) > tol * scale:
            return False
    lo = problem.lo if problem.lo is not None else np.zeros(x.shape[0])
    hi = problem.hi if problem.hi is not None else np.full(x.shape[0], np.inf)
    if np.any(x < lo - tol * scale) or np.any(x > hi + tol * scale):
        return False
    return out.duality_gap <= 1e-6 and out.reduced_cost_min >= -1e-7


@pytest.fixture
def loops(monkeypatch):
    """The simplex loops ("primal" or "dual") that solve_lp runs, in order."""
    seen = []
    for name in ("primal", "dual"):
        def spy(self, real=getattr(ccpkit.lp._BoundTableau, name), name=name):
            seen.append(name)
            return real(self)
        monkeypatch.setattr(ccpkit.lp._BoundTableau, name, spy)
    return seen


def test_simple_bounded_optimum():
    # min x1 + 2 x2 subject to x1 + x2 >= 1, x >= 0
    p = LpProblem(
        c=np.array([1.0, 2.0]),
        A=np.array([[-1.0, -1.0]]),
        b=np.array([-1.0]),
    )
    out = solve_lp(p)
    assert out.status == "optimal"
    assert out.value == pytest.approx(1.0)
    assert np.allclose(out.x, [1.0, 0.0])
    assert out.dual_ineq[0] == pytest.approx(-1.0)
    assert certificate_ok(p, out)


def test_degenerate_face_value():
    p = LpProblem(
        c=np.array([-1.0, -1.0]),
        A=np.array([[1.0, 1.0]]),
        b=np.array([1.0]),
    )
    out = solve_lp(p)
    assert out.status == "optimal"
    assert out.value == pytest.approx(-1.0)
    assert certificate_ok(p, out)


def test_equality_with_box():
    p = LpProblem(
        c=np.array([1.0, 1.0]),
        E=np.array([[1.0, -1.0]]),
        f=np.array([0.5]),
        lo=np.zeros(2),
        hi=np.ones(2),
    )
    out = solve_lp(p)
    assert out.status == "optimal"
    assert out.value == pytest.approx(0.5)
    assert np.allclose(out.x, [0.5, 0.0])
    assert certificate_ok(p, out)


def test_infeasible_detected():
    p = LpProblem(
        c=np.array([1.0]),
        A=np.array([[1.0]]),
        b=np.array([-1.0]),
    )
    assert solve_lp(p).status == "infeasible"


def test_unbounded_detected():
    p = LpProblem(c=np.array([-1.0]))
    assert solve_lp(p).status == "unbounded"


def test_free_variable_via_lo():
    # min x with x >= -3 needs the explicit lower bound
    p = LpProblem(c=np.array([1.0]), lo=np.array([-3.0]))
    out = solve_lp(p)
    assert out.status == "optimal"
    assert out.value == pytest.approx(-3.0)
    assert certificate_ok(p, out)


def test_redundant_rows_keep_zero_multiplier():
    p = LpProblem(
        c=np.array([1.0, 0.0]),
        A=np.array([[-1.0, 0.0], [-1.0, 0.0]]),
        b=np.array([-1.0, -1.0]),
        E=np.array([[0.0, 1.0], [0.0, 1.0]]),
        f=np.array([0.25, 0.25]),
    )
    out = solve_lp(p)
    assert out.status == "optimal"
    assert out.value == pytest.approx(1.0)
    assert certificate_ok(p, out)


def test_random_lps_certify():
    rng = np.random.default_rng(42)
    solved = 0
    for _ in range(60):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, 5))
        p = LpProblem(
            c=rng.normal(size=n),
            A=rng.normal(size=(m, n)) if m else None,
            b=rng.uniform(0.5, 2.0, size=m) if m else None,
            lo=np.zeros(n),
            hi=rng.uniform(0.5, 3.0, size=n),
        )
        out = solve_lp(p)
        assert out.status == "optimal"
        assert certificate_ok(p, out)
        # optimality against brute-force feasible samples
        best = out.value
        for _ in range(200):
            cand = rng.uniform(0.0, 1.0, size=n) * p.hi
            if m and np.any(p.A @ cand > p.b + 1e-12):
                continue
            assert p.c @ cand >= best - 1e-7 * (1.0 + abs(best))
        solved += 1
    assert solved == 60


def test_beale_degenerate_lp_does_not_cycle():
    # Beale's example: pure Dantzig pricing cycles through degenerate bases
    p = LpProblem(
        c=np.array([-0.75, 20.0, -0.5, 6.0]),
        A=np.array([
            [0.25, -8.0, -1.0, 9.0],
            [0.5, -12.0, -0.5, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]),
        b=np.array([0.0, 0.0, 1.0]),
    )
    out = solve_lp(p)
    assert out.status == "optimal"
    assert out.value == pytest.approx(-1.25)
    assert np.allclose(out.x, [1.0, 0.0, 1.0, 0.0])
    assert certificate_ok(p, out)


def test_slack_basis_skips_phase_one(loops):
    # every <= row has rhs >= 0, so the slack basis is feasible from the
    # start; the zero-cost third column sends the LP to the primal start,
    # which adds no artificial column and runs the primal loop once
    p = LpProblem(
        c=np.array([-1.0, -1.0, 0.0]),
        A=np.array([[1.0, 1.0, 0.0]]),
        b=np.array([1.0]),
        lo=np.zeros(3),
        hi=np.ones(3),
    )
    out = solve_lp(p)
    assert loops == ["primal"] and out.tableau.T.shape == (2, 3 + 1 + 1)
    assert out.status == "optimal"
    assert out.value == pytest.approx(-1.0)
    assert out.pivots == 1
    assert certificate_ok(p, out)
    # without it the long-step start puts both columns at their upper
    # bound, flips the first and lets the second enter: one pivot as well
    loops.clear()
    q = LpProblem(c=p.c[:2], A=p.A[:, :2], b=p.b, lo=np.zeros(2), hi=np.ones(2))
    out = solve_lp(q)
    assert loops == ["dual"]
    assert out.value == pytest.approx(-1.0)
    assert out.pivots == 1
    assert certificate_ok(q, out)


def test_two_phase_path_counts_basis_changes_not_flips(monkeypatch, loops):
    # min -x1 - 2 x2 + 0 x3 s.t. x1 + x2 + x3 >= 2, x1 + x2 <= 1.5 on [0, 1]^3.
    # The first row starts short, so phase 1 runs: x1 flips to 1 without a
    # pivot (its range, 1, is shorter than the artificial's step, 2), then x2
    # and x3 enter. Phase 2 lowers x1 to 0.5 while x2 leaves at its upper
    # bound: three basis changes in all.
    eliminations = []
    eliminate = ccpkit.lp._eliminate
    monkeypatch.setattr(ccpkit.lp, "_eliminate", lambda T, r, c: (eliminations.append(c), eliminate(T, r, c)))
    p = LpProblem(c=[-1.0, -2.0, 0.0], A=[[-1.0, -1.0, -1.0], [1.0, 1.0, 0.0]], b=[-2.0, 1.5],
                  lo=np.zeros(3), hi=np.ones(3))
    out = solve_lp(p)
    assert loops == ["primal", "primal"]
    assert out.status == "optimal" and out.pivots == 3 and eliminations == [1, 2, 0]
    assert np.allclose(out.x, [0.5, 1.0, 0.5]) and out.value == pytest.approx(-2.5)
    assert certificate_ok(p, out)


def _phase_one_lp(rng, redundant=True, mixed=False):
    """A feasible, bounded LP with mixed-sign rhs, equality rows (one of them
    redundant unless redundant=False) and a mix of finite and infinite lower
    bounds. mixed=True puts six columns of fixed kinds first: free, lower
    bound only, upper bound only, boxed, fixed, and boxed at zero cost."""
    n = int(rng.integers(2, 7)) + 6 * mixed
    m = int(rng.integers(1, 6))
    k = int(rng.integers(1, 3))
    lo = np.where(rng.random(n) < 0.6, rng.normal(size=n), -np.inf)
    hi = np.where(rng.random(n) < 0.5, rng.uniform(0.5, 3.0, n) + np.maximum(lo, 0.0), np.inf)
    if mixed:
        lo[:6] = [-np.inf, -1.0, -np.inf, 0.0, 0.5, 0.0]
        hi[:6] = [np.inf, np.inf, 1.0, 2.0, 0.5, 1.0]
    x0 = np.clip(2.0 * rng.normal(size=n), lo, hi)      # a feasible point
    A = rng.normal(size=(m, n))
    b = A @ x0 + rng.uniform(0.0, 1.0, m) * (rng.random(m) < 0.7)
    E = rng.normal(size=(k, n))
    if redundant:
        E = np.vstack([E, rng.normal(size=k) @ E])
    f = E @ x0
    # a dual-feasible cost keeps the LP bounded
    y = rng.uniform(0.0, 1.0, m)
    v = rng.normal(size=E.shape[0])
    r_lo = np.where(np.isfinite(lo), rng.uniform(0.0, 1.0, n), 0.0)
    r_hi = np.where(np.isfinite(hi), rng.uniform(0.0, 1.0, n), 0.0)
    c = -A.T @ y + E.T @ v + r_lo - r_hi
    if mixed:
        c[5] = 0.0          # still dual feasible: the column is boxed
    return LpProblem(c=c, A=A, b=b, E=E, f=f, lo=lo, hi=hi)


def test_phase_one_lps_certify_and_match_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(7)
    negative_rhs = 0
    for trial in range(120):
        p = _phase_one_lp(rng, mixed=trial >= 80)
        shift = np.where(np.isfinite(p.lo), p.lo, np.where(np.isfinite(p.hi), p.hi, 0.0))
        negative_rhs += bool(np.any(p.b - p.A @ shift < 0))
        out = solve_lp(p)
        assert out.status == "optimal"
        assert certificate_ok(p, out)
        ref = linprog(
            p.c, A_ub=p.A, b_ub=p.b, A_eq=p.E, b_eq=p.f,
            bounds=[(l if np.isfinite(l) else None, h if np.isfinite(h) else None)
                    for l, h in zip(p.lo, p.hi)],
            method="highs",
        )
        assert ref.status == 0
        assert out.value == pytest.approx(ref.fun, rel=1e-7, abs=1e-7)
    assert negative_rhs > 0


def test_package_import_leaves_scipy_unloaded():
    # scipy is only a test oracle; importing it would multiply set-up time
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = "import sys, ccpkit; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("lo, hi", [(-np.inf, -np.inf), (np.inf, np.inf)])
def test_bounds_that_admit_no_value_are_rejected(lo, hi):
    with pytest.raises(ValidationError):
        LpProblem(c=[-1.0], A=[[1.0]], b=[5.0], lo=[lo], hi=[hi])


@pytest.mark.parametrize(
    "field, value, error, message",
    [
        ("c", np.nan, NonFinite, "non-finite entries in c"),
        ("A", np.inf, NonFinite, "non-finite entries in A"),
        ("b", -np.inf, NonFinite, "non-finite entries in b"),
        ("E", np.nan, NonFinite, "non-finite entries in E"),
        ("f", np.inf, NonFinite, "non-finite entries in f"),
        ("lo", np.nan, NonFinite, "NaN in bounds"),
        ("hi", np.nan, NonFinite, "NaN in bounds"),
        ("lo", np.inf, ValidationError, "lower bound of +inf"),
        ("hi", -np.inf, ValidationError, "upper bound of -inf"),
        ("lo", 5.0, ValidationError, "lower bound exceeds upper bound"),
    ],
)
def test_each_invalid_field_is_named_by_its_typed_error(field, value, error, message):
    fields = dict(c=np.array([1.0, -1.0, 2.0]), A=np.ones((2, 3)), b=np.ones(2),
                  E=np.ones((1, 3)), f=np.ones(1), lo=np.array([-np.inf, 0.0, -1.0]),
                  hi=np.array([np.inf, 4.0, 1.0]))
    LpProblem(**fields)
    fields[field] = fields[field].copy()
    fields[field].flat[-1] = value
    with pytest.raises(error, match=message.replace("+", r"\+")):
        LpProblem(**fields)


def _highs_status(p):
    """(status, value) of scipy's HiGHS on p, presolve off so that an
    unbounded LP is not reported as infeasible."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    ref = linprog(
        p.c, A_ub=p.A, b_ub=p.b, A_eq=p.E, b_eq=p.f,
        bounds=[(l if np.isfinite(l) else None, h if np.isfinite(h) else None)
                for l, h in zip(p.lo, p.hi)],
        method="highs", options={"presolve": False},
    )
    return {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status], ref.fun


def test_warm_solves_match_cold_solves_and_highs():
    try:
        import scipy.optimize  # noqa: F401
        highs = True
    except ImportError:
        highs = False
    rng = np.random.default_rng(11)
    seen = set()
    warm_pivots = cold_pivots = 0
    for trial in range(210):
        # the last 60 LPs have every kind of column and a redundant equality row
        p = _phase_one_lp(rng, redundant=trial >= 150, mixed=trial >= 150)
        start = solve_lp(p)
        assert start.status == "optimal"
        moved = ("b", "c", "both")[trial % 3]
        scale = rng.choice([0.1, 1.0, 3.0])
        b = p.b + scale * rng.normal(size=p.b.shape) if moved != "c" else p.b
        c = p.c + scale * rng.normal(size=p.c.shape) if moved != "b" else p.c
        q = LpProblem(c=c, A=p.A, b=b, E=p.E, f=p.f, lo=p.lo, hi=p.hi)
        warm = solve_lp(q, start=start)
        cold = solve_lp(q)
        seen.add((moved, cold.status))
        assert warm.status == cold.status
        warm_pivots += warm.pivots
        cold_pivots += cold.pivots
        if cold.status == "optimal":
            assert warm.value == pytest.approx(cold.value, rel=1e-9, abs=1e-9)
            assert certificate_ok(q, warm)
        if highs:
            status, value = _highs_status(q)
            assert warm.status == status
            if status == "optimal":
                assert warm.value == pytest.approx(value, rel=1e-7, abs=1e-7)
    # the sweep reaches every kind of outcome, and warm solves pivot less
    assert {("b", "infeasible"), ("c", "unbounded"), ("b", "optimal"), ("c", "optimal")} <= seen
    assert warm_pivots < 0.5 * cold_pivots


def test_warm_solve_leaves_its_start_alone_and_repeats_exactly():
    rng = np.random.default_rng(5)
    p = _phase_one_lp(rng, redundant=False)
    start = solve_lp(p)
    before = start.tableau.T.copy(), start.tableau.basis.copy()
    q = LpProblem(c=p.c, A=p.A, b=p.b + 0.5 * rng.normal(size=p.b.shape), E=p.E, f=p.f,
                  lo=p.lo, hi=p.hi)
    first, second = solve_lp(q, start=start), solve_lp(q, start=start)
    assert first.status != "optimal" or certificate_ok(q, first)
    assert np.array_equal(start.tableau.T, before[0])
    assert np.array_equal(start.tableau.basis, before[1])
    for name in ("status", "value", "reduced_cost_min", "duality_gap", "pivots"):
        assert getattr(first, name) == getattr(second, name)
    for name in ("x", "dual_ineq", "dual_eq"):
        assert np.array_equal(getattr(first, name), getattr(second, name))


def test_start_of_another_matrix_gives_the_cold_result():
    rng = np.random.default_rng(8)
    p = _phase_one_lp(rng, redundant=False)
    start = solve_lp(p)
    A = p.A.copy()
    A[0, 0] += 1e-3
    q = LpProblem(c=p.c, A=A, b=p.b, E=p.E, f=p.f, lo=p.lo, hi=p.hi)
    warm, cold = solve_lp(q, start=start), solve_lp(q)
    assert warm.status == cold.status
    assert warm.status != "optimal" or certificate_ok(q, warm)
    assert warm.value == cold.value and warm.pivots == cold.pivots
    assert np.array_equal(warm.x, cold.x) and np.array_equal(warm.dual_ineq, cold.dual_ineq)


def test_budget_cut_takes_one_dual_pivot_per_dropped_item(loops):
    # a continuous knapsack, max 3 x1 + 2 x2 + x3 + 0.5 x4 s.t. sum x <= t,
    # 0 <= x <= 1: after t falls by k, the old basis stays dual feasible, and
    # the long-step dual loop flips the k - 1 cheapest items still packed to 0
    # and pivots once. A zero-cost fifth column sends the cold solve to the
    # primal start instead; the cut is the same one pivot.
    for extra, first in (([0.0], "primal"), ([], "dual")):
        def knapsack(t):
            return LpProblem(c=[-3.0, -2.0, -1.0, -0.5] + extra, A=[[1.0] * 4 + extra], b=[t],
                             lo=np.zeros(4 + len(extra)), hi=np.ones(4 + len(extra)))

        loops.clear()
        start = solve_lp(knapsack(3.5))
        assert loops == [first]
        assert start.value == pytest.approx(-6.25) and certificate_ok(knapsack(3.5), start)
        for k, value in ((1, -5.5), (2, -4.0), (3, -1.5)):
            loops.clear()
            warm = solve_lp(knapsack(3.5 - k), start=start)
            assert loops == ["dual"]
            assert warm.status == "optimal" and warm.value == pytest.approx(value)
            assert warm.pivots == 1
            assert certificate_ok(knapsack(3.5 - k), warm)
        assert solve_lp(knapsack(-0.5), start=start).status == "infeasible"


def _reference_eliminate(T, row, col):
    """_eliminate as it was before its numpy calls were trimmed."""
    T[row] = T[row] / T[row, col]
    fac = T[:, col].copy()
    fac[row] = 0.0
    T -= fac[:, None] * T[row]
    T[:, col] = 0.0
    T[row, col] = 1.0


def _solve_sequence():
    """(problem, outcome) of cold and warm solves of seeded LPs: random
    phase-1 LPs with a moved b or c, hinge LPs over a budget sweep, and a
    chain of subset LPs."""
    rng = np.random.default_rng(21)
    solves = []
    for trial in range(40):
        p = _phase_one_lp(rng, redundant=trial % 4 == 0)
        solves.append((p, solve_lp(p)))
        q = LpProblem(c=p.c + 3.0 * (trial % 2) * rng.normal(size=p.c.shape), A=p.A,
                      b=p.b + (1 - trial % 2) * rng.normal(size=p.b.shape),
                      E=p.E, f=p.f, lo=p.lo, hi=p.hi)
        solves.append((q, solve_lp(q, start=solves[-1][1])))
    for family in ("linear", "covering"):
        inst = generate_instance(family, 10, 20, 0.1, 2)
        z = np.ones(20)
        for t in (np.inf, 5.0, 2.0, -5.0, -20.0):
            p = _hinge_lp(inst, t, z)
            solves.append((p, solve_lp(p, start=solves[-1][1])))
        chain = SubsetChain(inst)
        for drop in ((0, 1), (0, 2), (1, 2), (0, 3), (2, 3), (5, 9)):
            p = chain.problem([k for k in range(20) if k not in drop])
            solves.append((p, solve_lp(p, start=chain.start)))
            chain.start = solves[-1][1] if solves[-1][1].status == "optimal" else chain.start
    return solves


def test_elimination_matches_its_reference_bit_for_bit(monkeypatch):
    fast = _solve_sequence()
    monkeypatch.setattr(ccpkit.lp, "_eliminate", _reference_eliminate)
    reference = _solve_sequence()
    statuses = set()
    for (problem, got), (_, want) in zip(fast, reference, strict=True):
        statuses.add(want.status)
        for name in ("status", "value", "reduced_cost_min", "duality_gap", "pivots"):
            assert getattr(got, name) == getattr(want, name)
        for name in ("x", "dual_ineq", "dual_eq"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert (got.tableau is None) == (want.tableau is None)
        if want.tableau is not None:
            assert np.array_equal(got.tableau.T, want.tableau.T)
            assert np.array_equal(got.tableau.basis, want.tableau.basis)
            assert certificate_ok(problem, got)
    assert statuses == {"optimal", "infeasible", "unbounded"}


def _long_step_lp(rng):
    """A feasible LP that the long-step start takes: no equality rows, and
    every cost nonzero with a finite bound on its cheaper side (the other
    side finite or not). Integer costs half of the time, so ratios tie."""
    n = int(rng.integers(1, 7))
    m = int(rng.integers(0, 7))
    sign = rng.choice([-1.0, 1.0], n)
    c = sign * (rng.integers(1, 4, n) if rng.random() < 0.5 else rng.uniform(0.1, 3.0, n))
    lo = rng.normal(size=n)
    hi = lo + rng.uniform(0.0, 3.0, n) * (rng.random(n) < 0.9)   # a few fixed columns
    lo = np.where((c < 0) & (rng.random(n) < 0.3), -np.inf, lo)
    hi = np.where((c > 0) & (rng.random(n) < 0.3), np.inf, hi)
    x0 = np.clip(rng.normal(size=n), lo, hi)
    A = rng.normal(size=(m, n))
    b = A @ x0 + rng.uniform(0.0, 1.0, m)
    return LpProblem(c=c, A=A, b=b, lo=lo, hi=hi)


def test_long_step_lps_match_highs_cold_and_warm(loops):
    try:
        import scipy.optimize  # noqa: F401
        highs = True
    except ImportError:
        highs = False
    rng = np.random.default_rng(31)
    seen = set()
    for trial in range(150):
        p = _long_step_lp(rng)
        loops.clear()
        start = solve_lp(p)
        assert loops == ["dual"]
        b = p.b + rng.choice([0.1, 1.0, 3.0]) * rng.normal(size=p.b.shape)
        # the shared-array constructor and a fresh problem both match the start
        q = p.with_rhs(b) if trial % 2 else LpProblem(c=p.c, A=p.A, b=b, lo=p.lo, hi=p.hi)
        warm, cold = solve_lp(q, start=start), solve_lp(q)
        assert warm.status == cold.status
        if cold.status == "optimal":
            assert warm.value == pytest.approx(cold.value, rel=1e-9, abs=1e-9)
        for problem, out in ((p, start), (q, warm), (q, cold)):
            seen.add((problem is q, out.status))
            if out.status == "optimal":
                assert certificate_ok(problem, out)
            if highs:
                status, value = _highs_status(problem)
                assert out.status == status
                if status == "optimal":
                    assert out.value == pytest.approx(value, rel=1e-7, abs=1e-7)
    assert {(False, "optimal"), (True, "optimal"), (True, "infeasible")} <= seen


def test_long_step_proves_infeasibility_with_and_without_flips(loops):
    # x1 + x2 <= -1 on [0, 1]^2: no column can lower the row
    p = LpProblem(c=[1.0, 2.0], A=[[1.0, 1.0]], b=[-1.0], lo=np.zeros(2), hi=np.ones(2))
    # x1 + x2 >= 3 on [0, 1]^2: flipping both columns up still leaves it short
    q = LpProblem(c=[1.0, 2.0], A=[[-1.0, -1.0]], b=[-3.0], lo=np.zeros(2), hi=np.ones(2))
    for problem in (p, q):
        loops.clear()
        out = solve_lp(problem)
        assert loops == ["dual"]
        assert out.status == "infeasible" and out.pivots == 0


def test_long_step_ties_flip_the_lowest_index_first_and_degenerate_steps_certify():
    # min -(x1 + x2 + x3) s.t. sum x <= 1.5 on [0, 1]^3: every ratio is 1, so
    # x1 flips to 0 and x2 enters at 0.5 in one pivot
    p = LpProblem(c=[-1.0, -1.0, -1.0], A=[[1.0, 1.0, 1.0]], b=[1.5], lo=np.zeros(3), hi=np.ones(3))
    out = solve_lp(p)
    assert out.pivots == 1 and np.array_equal(out.x, [0.0, 0.5, 1.0])
    assert certificate_ok(p, out)
    # at b = 0.2, x2 leaves and x3, whose reduced cost is now 0, enters: a
    # zero-length dual step
    q = p.with_rhs([0.2])
    warm = solve_lp(q, start=out)
    assert warm.pivots == 1 and warm.value == pytest.approx(-0.2)
    assert np.allclose(warm.x, [0.0, 0.0, 0.2])
    assert certificate_ok(q, warm)


def test_long_step_without_rows_sits_at_the_cheaper_bounds():
    p = LpProblem(c=[1.0, -2.0], lo=[0.5, -np.inf], hi=[np.inf, 3.0])
    out = solve_lp(p)
    assert isinstance(out.tableau, ccpkit.lp._BoundTableau)
    assert out.status == "optimal" and out.pivots == 0
    assert np.array_equal(out.x, [0.5, 3.0]) and out.value == -5.5
    assert certificate_ok(p, out)


def test_engine_selection_by_lp_kind(loops):
    def start(problem):
        """The loop a cold solve of problem starts with."""
        loops.clear()
        out = solve_lp(problem)
        assert out.status == "optimal" and certificate_ok(problem, out)
        return loops[0]

    for family in ("linear", "covering"):
        inst = generate_instance(family, 10, 20, 0.1, 1)
        chain = SubsetChain(inst)
        # the single-scenario LPs of the quantile bound and the oracle's chain
        assert start(_subset_lp(inst, [3])) == "dual"
        assert start(chain.problem(list(range(2, 20)))) == "dual"
        # hinge and tail LPs have zero-cost columns
        assert start(_hinge_lp(inst, 5.0, np.ones(20))) == "primal"
        assert start(_tail_problem(inst, None, relaxed=False)) == "primal"
        # the L-inf ball's aux columns cost nothing
        robust = robustify(DrccpSpec(inst, 0.05, LInf()))
        assert start(_subset_lp(robust, [3])) == "primal"
        # a simplex X brings an equality row
        simplex = replace(inst, x_set=Intersection((inst.x_set, Simplex(inst.n, 3.0))))
        assert start(_subset_lp(simplex, [3])) == "primal"
    assert start(_relaxation_lp(inst)) == "primal"


def test_with_rhs_shares_frozen_arrays_and_checks_only_b():
    rng = np.random.default_rng(4)
    p = _long_step_lp(rng)
    q = p.with_rhs(p.b + 1.0)
    for name in ("c", "A", "E", "f", "lo", "hi"):
        assert getattr(q, name) is getattr(p, name)
        assert not getattr(q, name).flags.writeable
    assert np.array_equal(q.b, p.b + 1.0)
    with pytest.raises(ValidationError):
        p.with_rhs(np.ones(p.b.size + 1))
    with pytest.raises(NonFinite):
        p.with_rhs(np.full(p.b.size, np.nan))


@pytest.mark.parametrize("make", [_long_step_lp, lambda rng: _phase_one_lp(rng, redundant=False)])
def test_editing_a_callers_matrix_in_place_gives_the_cold_result(make):
    rng = np.random.default_rng(9)
    p = make(rng)
    while p.A.shape[0] == 0:
        p = make(rng)
    A = p.A.copy()                      # caller-owned, passed in as is
    first = LpProblem(c=p.c, A=A, b=p.b, E=p.E, f=p.f, lo=p.lo, hi=p.hi)
    start = solve_lp(first)
    A[0, 0] += 1e-3
    second = LpProblem(c=p.c, A=A, b=p.b, E=p.E, f=p.f, lo=p.lo, hi=p.hi)
    warm, cold = solve_lp(second, start=start), solve_lp(second)
    assert warm.status == cold.status
    assert warm.status != "optimal" or certificate_ok(second, warm)
    assert warm.value == cold.value and warm.pivots == cold.pivots
    assert np.array_equal(warm.x, cold.x) and np.array_equal(warm.dual_ineq, cold.dual_ineq)
