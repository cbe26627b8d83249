"""Budget bisection with relaxation-tightening rescue of rejected probes.

A hinge minimizer that fails the violation check is not discarded: its
hinge vector seeds the scenario weights and the alternating-minimization
scheme (or the difference-of-convex scheme) tries to shift the remaining
hinge mass onto a discardable eps-mass of scenarios. The probe budget is
accepted if the rescued point lies in X, costs at most the budget and
passes the violation check.
"""

from __future__ import annotations

from typing import Optional

from .alsox import _bisect
from .errors import BadStart
from .lowerlevel import am, dc_solve, z_update
from .model import CcpInstance, SolveReport, is_feasible
from .subgrad import SgdConfig


def also_x_plus(
    instance: CcpInstance,
    delta1: float = 1e-2,
    delta2: float = 1e-2,
    backend: str = "auto",
    sgd_config: Optional[SgdConfig] = None,
    rescue: str = "am",
    max_rounds: int = 100,
) -> SolveReport:
    """Bisect the budget; rescue rejected hinge minimizers before giving up."""
    if rescue not in ("am", "dc"):
        raise ValueError(f"rescue must be 'am' or 'dc', got {rescue!r}")

    def rescued(t: float, sol):
        """The rescue's point from a rejected hinge minimizer, if it lies in
        X, costs at most t and passes the violation check."""
        z0 = z_update(sol.s, instance.probabilities, instance.epsilon)
        try:
            if rescue == "am":
                res = am(
                    instance,
                    t,
                    z0=z0,
                    delta2=delta2,
                    max_rounds=max_rounds,
                    backend=backend,
                    sgd_config=sgd_config,
                    x0=sol.x,
                    start=sol.start,
                )
            else:
                res = dc_solve(
                    instance,
                    t,
                    x0=sol.x,
                    s0=sol.s,
                    z0=z0,
                    delta2=delta2,
                    max_rounds=max_rounds,
                )
        except BadStart:
            return None
        cap = t + 1e-6 * (1.0 + abs(t))
        # a dc point may come from a projection cut off outside X
        if (
            float(instance.cost @ res.x) <= cap
            and instance.x_set.contains(res.x)
            and is_feasible(instance, res.x)
        ):
            return res.x
        return None

    method = "alsoxplus" if rescue == "am" else "dc"
    return _bisect(instance, method, delta1, backend, sgd_config, rescued)
