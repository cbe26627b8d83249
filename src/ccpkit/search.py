"""The objective-budget search that every budget bisection in the package runs."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

MARCH_PROBES = 60


@dataclass(frozen=True, eq=False)
class Bracket:
    lo: float                      # rejected, or the caller's lo; -inf if the down-march ran out
    hi: float                      # accepted, or the caller's hi; +inf if the up-march ran out
    witness: Optional[object]      # accept(hi) at the last accepted probe; None if none was
    probes: int
    marched: Tuple[float, float]   # (lo, hi) when the march ended, before any halving


def bisect_budget(accept: Callable[[float], Optional[object]], lo: float, hi: float, tol: float,
                  step: float, max_probes: float = np.inf, relative: bool = False) -> Bracket:
    """Narrow [lo, hi] around the smallest budget that accept() takes.

    accept(t) returns a witness, or None to reject t. With hi = inf (no
    budget known to be accepted) the probes lo + step * 2**k march up, lo
    fixed, until one is accepted. With lo = -inf (none known rejected) the
    probes hi - step * 2**k march down, each accepted one the new hi, until
    one is rejected. A march stops after MARCH_PROBES probes, leaving its end
    infinite for the caller to report. Midpoints then halve the bracket until
    it is at most tol wide (tol * (1 + |hi|) when relative) or max_probes
    probes, march probes included, have been made.
    """
    probes = 0
    witness = None
    up = hi == np.inf
    if up or lo == -np.inf:
        for k in range(MARCH_PROBES):
            t = lo + step * 2.0**k if up else hi - step * 2.0**k
            probes += 1
            found = accept(t)
            if found is not None:
                hi, witness = t, found
            elif not up:
                lo = t
            if (found is not None) == up:     # up ends at an acceptance, down at a rejection
                break
    marched = (lo, hi)
    bounded = np.isfinite(lo) and np.isfinite(hi)
    while bounded and probes < max_probes and hi - lo > (tol * (1 + abs(hi)) if relative else tol):
        t = 0.5 * (lo + hi)
        probes += 1
        found = accept(t)
        if found is None:
            lo = t
        else:
            hi, witness = t, found
    return Bracket(lo=lo, hi=hi, witness=witness, probes=probes, marched=marched)


def bisect_from(accept: Callable[[float], Optional[object]], start: float, tol: float,
                relative: bool = False) -> Bracket:
    """bisect_budget from a budget start that may or may not be accepted.

    start is the first probe; while it is rejected, the probes
    start + step * 2**k march up from it. From the first accepted budget the
    search marches down and halves as bisect_budget does. The witness is None
    if no budget was accepted.
    """
    hi, witness, probes = start, accept(start), 1
    if witness is None:
        up = bisect_budget(accept, start, np.inf, tol=np.inf, step=max(1.0, abs(start) / 2.0))
        if up.witness is None:
            return replace(up, probes=probes + up.probes)
        hi, witness, probes = up.hi, up.witness, probes + up.probes
    down = bisect_budget(accept, -np.inf, hi, tol, max(1.0, abs(hi) / 2.0), relative=relative)
    return replace(down, witness=witness if down.witness is None else down.witness,
                   probes=probes + down.probes)
