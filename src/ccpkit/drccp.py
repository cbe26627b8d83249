"""Worst-case chance constraints over an inf-Wasserstein ambiguity ball.

Every distribution within transport radius theta of the empirical one
(moving each scenario at most theta in the chosen norm) must satisfy the
chance constraint. Two reductions bring this back to a plain scenario
instance:

  dual   g_k(x) + theta * ||x-gradient of the scenario row||_*
         for bi-affine rows, handled by the norm-augmented model;
  shift  move each scenario itself to its worst position, valid when
         the loss is monotone in xi (sup-norm ball, componentwise worst
         case), so only the scenario data changes; each model gives its
         own shifted data (shifted), or ModeMismatch.

For bi-affine rows on x >= 0 the two agree: theta ||x||_1 = theta 1'x, so
shifting the row matrices by theta is the dual term written into them. The
LP builder uses the same identity on the dual reduction, per coordinate of
X's box whose sign is fixed (lowerlevel._scenario_lp).

The reduced instance runs through the ordinary solvers unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .alsox import also_x
from .alsoxplus import also_x_plus
from .cvar import cvar_solution
from .errors import ModeMismatch, NormMismatch, ValidationError
from .model import CcpInstance, LInf, NormAugmented, NormSpec, SolveReport
from .subgrad import SgdConfig


@dataclass(frozen=True, eq=False)
class DrccpSpec:
    base: CcpInstance
    theta: float
    norm: NormSpec
    mode: str = "dual"

    def __post_init__(self):
        if not np.isfinite(self.theta) or self.theta < 0.0:
            raise ValidationError("theta: transport radius must be finite and >= 0")
        if self.mode not in ("dual", "shift"):
            raise ValidationError(f"mode: expected 'dual' or 'shift', got {self.mode!r}")
        object.__setattr__(self, "theta", float(self.theta))


def robustify(spec: DrccpSpec) -> CcpInstance:
    """Rewrite the base instance so nominal feasibility means worst-case
    feasibility over the ambiguity ball."""
    base = spec.base
    model = base.constraints
    theta = spec.theta
    if spec.mode == "dual":
        rows = model.rows
        if rows is None or rows.theta != 0.0:
            raise ModeMismatch(
                f"dual reduction needs affine rows with no norm term, not {type(model).__name__}"
            )
        new = NormAugmented(rows.R, rows.r, theta, spec.norm)
    else:
        if not isinstance(spec.norm, LInf):
            raise NormMismatch("shift reduction needs the sup-norm transport ball")
        new = model.shifted(theta, base.x_set)
    return CcpInstance(
        n=base.n,
        scenario_count=base.scenario_count,
        probabilities=base.probabilities,
        constraints=new,
        x_set=base.x_set,
        cost=base.cost,
        epsilon=base.epsilon,
    )


def worst_case_solve(
    spec: DrccpSpec,
    method: str = "alsox",
    delta1: float = 1e-2,
    delta2: float = 1e-2,
    backend: str = "auto",
    sgd_config: Optional[SgdConfig] = None,
) -> SolveReport:
    robust = robustify(spec)
    if method == "alsox":
        return also_x(robust, delta1=delta1, backend=backend, sgd_config=sgd_config)
    if method == "alsoxplus":
        return also_x_plus(
            robust, delta1=delta1, delta2=delta2, backend=backend, sgd_config=sgd_config
        )
    if method == "cvar":
        return cvar_solution(robust, backend=backend, sgd_config=sgd_config)
    raise ValidationError(f"method: expected alsox/alsoxplus/cvar, got {method!r}")
