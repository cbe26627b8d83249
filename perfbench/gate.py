"""Correctness gate: every solve is checked before its time counts.

Checks per solve (any instance, any seed):
  - the method raised nothing and returned a finite objective equal to c'x;
  - x lies in X (the unit box, or the binary lattice);
  - x is chance-feasible by an independent recount of the scenario rows.
Checks per case:
  - on convex X: alsoxplus <= alsox + delta1 and alsox <= cvar + delta1,
    which together give alsoxplus <= alsox + delta1 <= cvar + 2 delta1;
  - the oracle's value is at most every method's.
For the reference seed, each objective must also match the value recorded
in ``reference.json`` within delta1.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from workloads import Case, Solve

DELTA1 = 1e-2          # the solvers' default bisection tolerance
REFERENCE_SEED = 1
BOX_TOL = 1e-9
ORACLE_TOL = 1e-6


def zero_tol(case: Case) -> float:
    """Scale-aware zero test on g(x, xi^k), the same rule the package documents."""
    model = case.instance.constraints
    offsets = getattr(model, "offsets", None)
    scale = 1.0 if offsets is None else float(np.max(np.abs(offsets), initial=0.0))
    return 1e-8 * (1.0 + scale)


def violation_mass(case: Case, x: np.ndarray) -> float:
    inst = case.instance
    return float(np.sum(inst.probabilities[case.losses(x) > zero_tol(case)]))


def _in_x(case: Case, x: np.ndarray) -> bool:
    if case.convex:
        return bool(np.all(x >= -BOX_TOL) and np.all(x <= 1.0 + BOX_TOL))
    return bool(np.all((x == 0.0) | (x == 1.0)))


def solve_problems(case: Case, solve: Solve) -> List[str]:
    """Why one solve fails the gate; empty when it passes."""
    if solve.error is not None:
        return [f"raised {solve.error}"]
    inst = case.instance
    problems = []
    v, x = solve.objective, solve.x
    if not math.isfinite(v):
        return [f"objective {v} is not finite"]
    if x.shape != (inst.n,) or not np.all(np.isfinite(x)):
        return ["x has the wrong shape or non-finite entries"]
    if abs(float(inst.cost @ x) - v) > 1e-9 * (1.0 + abs(v)):
        problems.append(f"objective {v} differs from c'x = {float(inst.cost @ x)}")
    if not _in_x(case, x):
        problems.append("x lies outside X")
    mass = violation_mass(case, x)
    if mass > inst.epsilon + 1e-12:
        problems.append(f"violation mass {mass:.4f} exceeds epsilon {inst.epsilon}")
    return problems


def case_problems(case: Case, reference: Optional[Dict[str, float]] = None) -> Dict[str, List[str]]:
    """Problems per method of one solved case (methods absent from the dict passed)."""
    out: Dict[str, List[str]] = {}
    values = {}
    for s in case.solves:
        found = solve_problems(case, s)
        if found:
            out[s.method] = found
        else:
            values[s.method] = s.objective

    def flag(method, text):
        out.setdefault(method, []).append(text)

    if case.convex:
        if "alsox" in values and "cvar" in values and values["alsox"] > values["cvar"] + DELTA1:
            flag("alsox", f"alsox {values['alsox']:.6g} > cvar {values['cvar']:.6g} + delta1")
        if "alsoxplus" in values and "alsox" in values and values["alsoxplus"] > values["alsox"] + DELTA1:
            flag("alsoxplus", f"alsoxplus {values['alsoxplus']:.6g} > alsox {values['alsox']:.6g} + delta1")
    if "oracle" in values:
        v_or = values["oracle"]
        for method, v in values.items():
            if v < v_or - ORACLE_TOL * (1.0 + abs(v_or)):
                flag(method, f"{method} {v:.6g} beats the oracle {v_or:.6g}")
    for method, ref in (reference or {}).items():
        if method in values and abs(values[method] - ref) > DELTA1:
            flag(method, f"{method} {values[method]:.6g} moved from reference {ref:.6g}")
    return out
