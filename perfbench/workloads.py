"""Workload definitions: which instances each workload solves, and how.

A workload is an endless stream of *groups*. Group g of workload seed s
is built from instance seed ``s + GROUP_STRIDE * g`` by
``ccpkit.cli.generate_instance``, so the same (seed, g) always gives the
same instances and group 0 of seed s uses the generator's seed s. A run
solves whole groups until its time is up; every group holds the same mix
of instance shapes and methods, so per-group means compare across runs.

Solvers are looked up on the ``ccpkit`` package at call time (never
bound at import), so the layer tracer's rebinding also wraps the
top-level method calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

import ccpkit
from ccpkit.cli import generate_instance

from calibrate import kernel_seconds

GROUP_STRIDE = 1_000_003
THETA = 0.05           # sup-norm transport radius of the robust instance
LP_N = 45              # scenarios (hinge-LP columns) per lp-bisect instance
ORACLE_N = 20          # scenarios per continuous exact-lattice instance: C(20, 2) subsets
BINARY_N = 10          # X = {0,1}^10: every lattice scan visits 1024 points
# sgd-rescue's budget for every subgradient solve: with stall_window equal
# to max_iter, each solve runs exactly max_iter steps on every instance
SGD_BUDGET = ccpkit.SgdConfig(max_iter=200, stall_window=200)


@dataclass
class Solve:
    """One method run on one case; `error` is set instead of the answer.
    `kernel_s` is the calibration kernel's time around the solve, if measured."""

    method: str
    seconds: float
    objective: Optional[float] = None
    x: Optional[np.ndarray] = None
    error: Optional[str] = None
    kernel_s: Optional[float] = None


@dataclass
class Case:
    """One instance and the methods a workload runs on it."""

    label: str
    instance: object
    losses: Callable[[np.ndarray], np.ndarray]   # independent recount of g(x, xi^k)
    convex: bool
    methods: Dict[str, Callable[[], object]]
    solves: List[Solve] = field(default_factory=list)


def _row_losses(mats: np.ndarray, offsets: np.ndarray, theta: float = 0.0):
    """g_k(x) = max_i (R_k x - r_k)_i + theta * ||x||_1 (the sup-norm ball's dual)."""
    def losses(x):
        return np.max(mats @ x - offsets, axis=1) + theta * float(np.sum(np.abs(x)))
    return losses


def _generate(family: str, n: int, count: int, epsilon: float, seed: int):
    """A generated instance plus the raw scenario rows the gate recounts with."""
    inst = generate_instance(family, n, count, epsilon, seed)
    model = inst.constraints
    if family == "covering":
        losses = _row_losses(-model.mats, -np.ones(model.mats.shape[:2]))
    else:
        losses = _row_losses(model.mats, model.offsets)
    return inst, losses


def _case(label, inst, losses, convex=True, **methods) -> Case:
    return Case(label, inst, losses, convex, methods)


def _lp_methods(inst):
    return {
        "cvar": lambda: ccpkit.cvar_solution(inst, backend="lp"),
        "alsox": lambda: ccpkit.also_x(inst, backend="lp"),
        "alsoxplus": lambda: ccpkit.also_x_plus(inst, backend="lp"),
    }


def lp_bisect(seed: int) -> List[Case]:
    """Mid-size hinge LPs (55-65 columns): the dense simplex does the work."""
    cases = []
    for family, eps in (("linear", 0.1), ("linear", 0.05), ("covering", 0.1)):
        inst, losses = _generate(family, 10, LP_N, eps, seed)
        cases.append(_case(f"{family}-N{LP_N}-eps{eps}", inst, losses, **_lp_methods(inst)))
    base, _ = _generate("linear", 10, LP_N, 0.1, seed)
    spec = ccpkit.DrccpSpec(base, THETA, ccpkit.LInf())
    rows = base.constraints
    cases.append(
        _case(
            f"linear-N{LP_N}-linf{THETA}",
            ccpkit.robustify(spec),
            _row_losses(rows.mats, rows.offsets, THETA),
            cvar=lambda: ccpkit.worst_case_solve(spec, method="cvar", backend="lp"),
            alsox=lambda: ccpkit.worst_case_solve(spec, method="alsox", backend="lp"),
        )
    )
    return cases


def sgd_rescue(seed: int) -> List[Case]:
    """Default backend, which is the subgradient method, at a fixed step
    budget: the probes and the AM rounds of the rescues are subgradient solves."""
    inst, losses = _generate("linear", 5, 10, 0.1, seed)
    return [
        _case(
            "linear-n5-N10-eps0.1",
            inst,
            losses,
            cvar=lambda: ccpkit.cvar_solution(inst, sgd_config=SGD_BUDGET),
            alsox=lambda: ccpkit.also_x(inst, sgd_config=SGD_BUDGET),
            alsoxplus=lambda: ccpkit.also_x_plus(inst, sgd_config=SGD_BUDGET),
        )
    ]


def exact_lattice(seed: int) -> List[Case]:
    """Many tiny LPs (the oracle's subset solves) and the binary lattice scans."""
    cases = []
    for family in ("linear", "covering"):
        inst, losses = _generate(family, 10, ORACLE_N, 0.1, seed)
        cases.append(
            _case(
                f"{family}-N{ORACLE_N}",
                inst,
                losses,
                oracle=lambda inst=inst: ccpkit.exact_solve(inst),
                **_lp_methods(inst),
            )
        )
    inst, losses = _generate("linear", BINARY_N, 50, 0.1, seed)
    binary = replace(inst, x_set=ccpkit.BinaryTiny(BINARY_N))
    cases.append(
        _case(
            f"linear-N50-binary{BINARY_N}",
            binary,
            losses,
            convex=False,
            oracle=lambda: ccpkit.exact_solve(binary),
            cvar=lambda: ccpkit.cvar_solution(binary),
            alsox=lambda: ccpkit.also_x(binary),
        )
    )
    return cases


WORKLOADS: Dict[str, Callable[[int], List[Case]]] = {
    "lp-bisect": lp_bisect,
    "sgd-rescue": sgd_rescue,
    "exact-lattice": exact_lattice,
}


# Quality metrics are taken over groups 0 .. QUALITY_GROUPS - 1: no more
# groups than the seed commit solves in a 40 s run, and every run solves them.
QUALITY_GROUPS = {"lp-bisect": 8, "exact-lattice": 12, "sgd-rescue": 40}


def build_group(workload: str, seed: int, group: int) -> List[Case]:
    return WORKLOADS[workload](seed + GROUP_STRIDE * group)


def solve_group(cases: List[Case], calibrate: bool = False) -> List[Case]:
    """Run every method of every case, one after another, recording each solve.

    With `calibrate`, the calibration kernel is timed before the first
    solve and after each one, and a solve's `kernel_s` is the mean of the
    kernel times just before and just after it.
    """
    before = kernel_seconds() if calibrate else None
    for case in cases:
        for method, run in case.methods.items():
            begin = perf_counter()
            try:
                report = run()
            except Exception as exc:  # a raised solve is a failed solve, not a crash
                solve = Solve(method, perf_counter() - begin, error=f"{type(exc).__name__}: {exc}")
            else:
                seconds = perf_counter() - begin
                solve = Solve(method, seconds, float(report.objective), np.asarray(report.x_star, dtype=float))
            if calibrate:
                after = kernel_seconds()
                solve.kernel_s = 0.5 * (before + after)
                before = after
            case.solves.append(solve)
    return cases


def fresh(cases: List[Case]) -> List[Case]:
    """The same cases with no recorded solves (for a second, traced pass)."""
    return [replace(c, solves=[]) for c in cases]
