"""Outside-in layer tracing: rebind ccpkit's public functions to timed wrappers.

While a `Tracer` is installed, each target function is replaced, in every
loaded ``ccpkit`` module that holds a reference to it (``solve_lp`` sits
in ``lowerlevel``, ``covering``, ``cvar`` and ``oracle`` as well as in
``lp`` and the package namespace), by a wrapper that records one span:
name, start, end and the span that was open when it was called. Counters
come from the objects the functions return (``LpOutcome.pivots``,
``SgdResult.iterations``/``stalled``, ``AmResult.rounds``,
``SolveReport.iterations``, ``LowerLevelSolution.backend``). Leaving the
tracer puts every original function back.

Hot leaf helpers (``geometry.project``, ``model.scenario_losses``) are not
wrapped: a polish hitting the sweep cap calls ``project`` millions of
times, and a wrapper there would measure the tracer, not the package.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from ccpkit.model import BinaryTiny, is_feasible


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    reader_s: float = 0.0        # counter readers run while this span was open

    @property
    def seconds(self) -> float:
        """Duration without the tracer's counter readers."""
        return self.end - self.start - self.reader_s


def _lattice_points(instance) -> int:
    x_set = instance.x_set
    return 2 ** x_set.dim if isinstance(x_set, BinaryTiny) else 0


def _lp(a, out):
    return {"pivots": out.pivots, "cols": a["problem"].n}


def _sgd(a, out):
    return {"iters": out.iterations, "stalled": bool(out.stalled)}


def _lower_level(a, out):
    inst = a["instance"]
    return {
        "backend": out.backend,
        "iters": out.iterations,
        "points": out.iterations if out.backend == "enum" else 0,
        "accepted": is_feasible(inst, out.x),
    }


def _am(a, out):
    inst, t = a["instance"], a["t"]
    cap = t + 1e-6 * (1.0 + abs(t))      # the acceptance rule also_x_plus applies
    ok = float(inst.cost @ out.x) <= cap and is_feasible(inst, out.x)
    return {"rounds": out.rounds, "accepted": bool(ok)}


def _rounds(a, out):
    return {"rounds": out.rounds}


def _report(a, out):
    return {"iters": out.iterations}


def _lattice(a, out):
    return {"points": _lattice_points(a["instance"])}


def _report_lattice(a, out):
    return {"iters": out.iterations, "points": _lattice_points(a["instance"])}


# (module, function, counter reader); the span name is "module.function"
TARGETS: List[Tuple[str, str, Optional[Callable]]] = [
    ("lp", "solve_lp", _lp),
    ("subgrad", "solve_hinge_sgd", _sgd),
    ("subgrad", "solve_cvar_lower_sgd", _sgd),
    ("geometry", "dykstra_project", None),
    ("lowerlevel", "solve_lower_level", _lower_level),
    ("lowerlevel", "am", _am),
    ("lowerlevel", "dc_solve", _rounds),
    ("covering", "quantile_lower_bound", None),
    ("covering", "subset_min_cost", _lattice),
    ("covering", "covering_relaxation", _report),
    ("covering", "relax_and_scale", _report),
    ("cvar", "cvar_solution", _report_lattice),
    ("cvar", "cvar_lower_value", _lattice),
    ("alsox", "bounds_with_anchor", None),
    ("alsox", "also_x", _report),
    ("alsoxplus", "also_x_plus", _report),
    ("oracle", "exact_solve", _report),
    ("oracle", "exact_solve_binary", _lattice),
    ("drccp", "robustify", None),
    ("drccp", "worst_case_solve", None),
]

LAYERS = ("lp", "subgrad", "geometry", "lowerlevel", "covering", "cvar",
          "alsox", "alsoxplus", "oracle", "drccp", "lattice")


def layer_of(span: Span) -> str:
    """Module layer of a span; enum-path calls on a binary X count as "lattice"."""
    if span.attrs.get("points", 0) > 0:
        return "lattice"
    return span.name.split(".", 1)[0]


class Tracer:
    """Install with ``with Tracer() as tr:``; spans accumulate in ``tr.spans``."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._undo: List[Tuple[object, str, Callable]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "ccpkit" or name.startswith("ccpkit."))]
        for mod_name, fn_name, reader in TARGETS:
            original = getattr(importlib.import_module(f"ccpkit.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, reader)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, fn: Callable, reader: Optional[Callable]) -> Callable:
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(spans), name, stack[-1].id if stack else None, perf_counter())
            spans.append(span)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter()
                stack.pop()
                span.attrs["error"] = type(exc).__name__
                raise
            span.end = perf_counter()
            stack.pop()
            if reader is not None:
                # a reader (is_feasible, for one) runs inside the caller's
                # span; its cost is taken off every open span's duration
                begin = perf_counter()
                span.attrs.update(reader(signature.bind(*args, **kwargs).arguments, out))
                cost = perf_counter() - begin
                for open_span in stack:
                    open_span.reader_s += cost
            return out

        return wrapper

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end, "reader_s": s.reader_s,
                                     **s.attrs}) + "\n")


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Spans come from one thread, so a span's children run one after another
    inside it and never overlap: the covered part is their summed length.
    """
    out = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.seconds
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Metrics that are not totals, so not divided by the number of groups.
NOT_PER_GROUP = ("lp.cols_max", "alsox.accept_ratio", "alsoxplus.rescue_accept_ratio",
                 "subgrad.stalled_frac")


def summarize(spans: List[Span], groups: int = 1) -> Dict[str, float]:
    """Per-layer counters and seconds per traced group (0 where a layer is unused).

    A run traces as many groups as its time allows, so totals are divided
    by `groups`: a faster program traces more groups, not bigger counts.
    Ratios and the widest LP are left as they are.
    """
    selfs = self_times(spans)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def parent_name(s: Span) -> Optional[str]:
        return None if s.parent is None else spans[s.parent].name

    def total(items) -> float:
        return float(sum(s.seconds for s in items))

    m: Dict[str, float] = {}
    lp = by_name["lp.solve_lp"]
    m["lp.solves"] = len(lp)
    m["lp.pivots"] = sum(s.attrs.get("pivots", 0) for s in lp)
    m["lp_s"] = total(lp)
    m["lp.cols_max"] = max((s.attrs.get("cols", 0) for s in lp), default=0)

    m["covering.quantile_s"] = total(by_name["covering.quantile_lower_bound"])
    m["covering.subset_solves"] = sum(
        1 for s in by_name["covering.subset_min_cost"]
        if parent_name(s) == "covering.quantile_lower_bound")
    m["covering.relax_scale_s"] = total(by_name["covering.relax_and_scale"])
    anchors = [s for s in by_name["cvar.cvar_solution"] + by_name["covering.relax_and_scale"]
               if parent_name(s) == "alsox.bounds_with_anchor"]
    m["cvar.anchor_s"] = total(anchors)
    m["cvar.anchor_calls"] = len(anchors)

    probes = [s for s in by_name["lowerlevel.solve_lower_level"]
              if parent_name(s) in ("alsox.also_x", "alsoxplus.also_x_plus")]
    accepted = sum(1 for s in probes if s.attrs.get("accepted"))
    m["alsox.probes"] = len(probes)
    m["alsox.probe_s"] = total(probes)
    m["alsox.accept_ratio"] = _ratio(accepted, len(probes))

    am = by_name["lowerlevel.am"]
    rescues = [s for s in am if parent_name(s) == "alsoxplus.also_x_plus"]
    m["alsoxplus.rescues"] = len(rescues)
    m["alsoxplus.rescue_s"] = total(rescues)
    m["alsoxplus.rescue_accept_ratio"] = _ratio(
        sum(1 for s in rescues if s.attrs.get("accepted")), len(rescues))
    m["lowerlevel.am_rounds"] = sum(s.attrs.get("rounds", 0) for s in am)

    sgd = by_name["subgrad.solve_hinge_sgd"] + by_name["subgrad.solve_cvar_lower_sgd"]
    m["subgrad.solves"] = len(sgd)
    m["subgrad.iters"] = sum(s.attrs.get("iters", 0) for s in sgd)
    m["subgrad_s"] = float(sum(selfs[s.id] for s in sgd))
    m["subgrad.stalled_frac"] = _ratio(sum(1 for s in sgd if s.attrs.get("stalled")), len(sgd))

    dyk = by_name["geometry.dykstra_project"]
    m["geometry.dykstra_calls"] = len(dyk)
    m["geometry.dykstra_nonconverged"] = sum(
        1 for s in dyk if s.attrs.get("error") == "NoConvergence")
    m["geometry.dykstra_s"] = total(dyk)

    lattice = [s for s in spans if layer_of(s) == "lattice"]
    m["lattice.points"] = sum(s.attrs["points"] for s in lattice)
    m["lattice_s"] = float(sum(selfs[s.id] for s in lattice))

    m["oracle.subset_solves"] = sum(
        1 for s in by_name["covering.subset_min_cost"] if parent_name(s) == "oracle.exact_solve")
    m["oracle_s"] = total(s for s in by_name["oracle.exact_solve"] if s.parent is None)
    m["drccp.robustify_s"] = total(by_name["drccp.robustify"])

    per_layer = defaultdict(float)
    for s, own in zip(spans, selfs):
        per_layer[layer_of(s)] += own
    for layer in LAYERS:
        m[f"self_s.{layer}"] = float(per_layer[layer])
    return {k: float(v if k in NOT_PER_GROUP else v / groups) for k, v in m.items()}
