"""Command-line surface: solve, compare, oracle, gen, bench.

Instance documents are JSON; a top-level type of "elliptical_gaussian"
routes to the closed-form Gaussian machinery, anything else parses as a
finite-scenario instance. Exit codes: 0 solved, 2 chance-infeasible,
3 a cap or backend limit stopped the run, 1 usage or bad input. Errors
are mirrored as one-line JSON objects on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from time import perf_counter
from typing import List, Optional

import numpy as np

from .alsox import also_x
from .alsoxplus import also_x_plus
from .cvar import cvar_solution
from .drccp import DrccpSpec, robustify
from .elliptical import (
    EllipticalCcp,
    also_x_elliptical,
    elliptical_from_doc,
    exact_conic_solve,
    gaussian_violation,
)
from .errors import (
    BackendUnavailable,
    CapExceeded,
    CcpError,
    CycleGuardTripped,
    Infeasible,
    NoConvergence,
    NoFeasibleT,
    NormMismatch,
)
from .model import (
    BiAffine,
    Box,
    CcpInstance,
    Covering,
    Mahalanobis,
    SeparableConvexPower,
    SolveReport,
    dump_instance,
    instance_from_doc,
    norm_from_tag,
    parse_document,
)
from .oracle import exact_solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_LIMIT = 3

_INFEASIBLE = (NoFeasibleT, Infeasible)
_LIMIT = (CapExceeded, CycleGuardTripped, BackendUnavailable, NoConvergence)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is taken by "infeasible"
    def error(self, message):
        print(json.dumps({"error": "usage", "message": message}), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _print_error(exc: BaseException) -> None:
    print(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}),
        file=sys.stderr,
    )


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return "%.6g" % value
    if isinstance(value, (list, tuple, np.ndarray)):
        return " ".join("%.6g" % float(v) for v in value)
    return str(value)


def _csv_text(rows: List[dict]) -> str:
    keys: List[str] = []
    for row in rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    lines = [",".join(keys)]
    for row in rows:
        lines.append(",".join(_fmt_cell(row.get(k)) for k in keys))
    return "\n".join(lines) + "\n"


def _load_document(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        doc = parse_document(fh.read())
    if isinstance(doc, dict) and doc.get("type") == "elliptical_gaussian":
        return elliptical_from_doc(doc)
    return instance_from_doc(doc)


def _prepare(problem, args):
    """The problem that every method of one command solves: --theta's
    ambiguity ball applied once (robustify, or the Gaussian radius).
    NormMismatch when the ball cannot be the one --norm names: a Mahalanobis
    ball on finite scenarios, or any other ball on an elliptical document."""
    theta = getattr(args, "theta", None)
    if theta is None:
        return problem
    tag = getattr(args, "norm", None)
    if isinstance(problem, EllipticalCcp):
        if tag is not None and tag != "mahalanobis":
            raise NormMismatch("elliptical ambiguity balls use the Mahalanobis norm of sigma")
        return replace(problem, theta=theta, wasserstein_norm=Mahalanobis(problem.sigma))
    if tag == "mahalanobis":
        raise NormMismatch(
            "--norm mahalanobis needs a covariance: finite-scenario documents have none"
        )
    norm = norm_from_tag(tag or "linf")
    return robustify(DrccpSpec(problem, theta, norm, getattr(args, "mode", None) or "dual"))


def _conic_report(ec: EllipticalCcp) -> SolveReport:
    """The exact conic optimum of a Gaussian document as a report."""
    start = perf_counter()
    value, x = exact_conic_solve(ec)
    return SolveReport(
        method="exact_conic",
        t_star=value,
        x_star=x,
        objective=value,
        feasible=True,
        violation_prob=gaussian_violation(ec, x),
        iterations=0,
        lower_bound_used=value,
        upper_bound_used=value,
        wall_time=perf_counter() - start,
    )


# every method the CLI runs: a name and its runner(problem, args) on a
# finite-scenario problem; the keys are the --method choices
_FINITE = {
    "alsox": lambda p, a: also_x(p, delta1=a.delta1),
    "alsoxplus": lambda p, a: also_x_plus(p, delta1=a.delta1, delta2=a.delta2),
    "cvar": lambda p, a: cvar_solution(p),
    "dc": lambda p, a: also_x_plus(p, delta1=a.delta1, delta2=a.delta2, rescue="dc"),
    "oracle": lambda p, a: exact_solve(p, subset_cap=getattr(a, "subset_cap", 200_000)),
}
# the methods with a Gaussian form, robust when the problem carries a
# radius theta (its document's, or --theta's)
_GAUSSIAN = {
    "alsox": lambda ec, a: also_x_elliptical(ec, delta1=a.delta1),
    "oracle": lambda ec, a: _conic_report(ec),
}


def _run_method(problem, method: str, args) -> SolveReport:
    """One method on a prepared problem, from the table of its kind."""
    table = _GAUSSIAN if isinstance(problem, EllipticalCcp) else _FINITE
    if method not in table:
        raise BackendUnavailable(f"method {method!r} needs finite scenarios")
    return table[method](problem, args)


def _method_list(text: str) -> List[str]:
    """--methods as a list of table keys; ValueError on any other name."""
    methods = [m.strip() for m in text.split(",") if m.strip()]
    for m in methods:
        if m not in _FINITE:
            raise ValueError(f"unknown method {m!r}")
    return methods


def _row(problem, method: str, args) -> dict:
    """One compare or bench row: the method's headline numbers, or the
    error that stopped it and its message."""
    begin = perf_counter()
    try:
        report = _run_method(problem, method, args)
    except CcpError as exc:
        return {"method": method, "error": type(exc).__name__, "message": str(exc),
                "time": perf_counter() - begin}
    return {"method": method, "objective": report.objective, "feasible": report.feasible,
            "violation_prob": report.violation_prob, "time": report.wall_time}


def cmd_solve(args) -> int:
    problem = _prepare(_load_document(args.instance), args)
    doc = _run_method(problem, args.method, args).to_dict()
    doc["config"] = {
        "method": args.method,
        "delta1": args.delta1,
        "delta2": args.delta2,
        "theta": args.theta,
        "norm": args.norm,
        "mode": args.mode,
    }
    if args.format == "csv":
        row = dict(doc)
        row.update(row.pop("config"))
        text = _csv_text([row])
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_compare(args) -> int:
    problem = _load_document(args.instance)
    methods = _method_list(args.methods)
    # a mistake every method shares is a usage error, not one per row
    problem = _prepare(problem, args)
    rows = [_row(problem, method, args) for method in methods]
    values = {r["method"]: r["objective"] for r in rows if "objective" in r}
    v_cvar = values.get("cvar")
    if v_cvar is not None and abs(v_cvar) > 0:
        for row in rows:
            if row["method"] != "cvar" and "objective" in row:
                row["improvement_pct"] = (v_cvar - row["objective"]) / abs(v_cvar) * 100.0
    doc = {"instance": args.instance, "results": rows}
    convex = isinstance(problem, EllipticalCcp) or not problem.x_set.binary
    if convex and "alsox" in values and v_cvar is not None:
        ordered = values["alsox"] <= v_cvar + args.delta1
        if "alsoxplus" in values:
            ordered = ordered and values["alsoxplus"] <= values["alsox"] + args.delta1
        doc["consistency"] = {
            "ordering": "alsoxplus <= alsox <= cvar (within delta1)",
            "holds": bool(ordered),
        }
    if args.format == "csv":
        text = _csv_text(rows)
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _emit(text, args.out)
    if any("objective" in r for r in rows):
        return EXIT_OK
    for row in rows:
        if row.get("error") in [c.__name__ for c in _INFEASIBLE]:
            return EXIT_INFEASIBLE
    return EXIT_LIMIT


def cmd_oracle(args) -> int:
    args.method = "oracle"
    return cmd_solve(args)


def generate_instance(family: str, n: int, count: int, epsilon: float, seed: int) -> CcpInstance:
    """Stock test families on [0,1]^n with integer uniform data.

    linear     per-scenario row xi'x <= 100, xi in [1, 50], cost in [-10, -1]
    nonlinear  sum_j xi_j x_j^2 <= 100, xi in [1, 99], cost in [-10, -1]
    covering   xi'x >= 40 (rows stored scaled by 1/40), xi in [1, 50],
               cost in [1, 10]
    """
    rng = np.random.default_rng(seed)
    if family == "linear":
        xi = rng.integers(1, 51, size=(count, 1, n)).astype(float)
        model = BiAffine(xi, np.full((count, 1), 100.0))
        cost = rng.integers(-10, 0, size=n).astype(float)
    elif family == "nonlinear":
        xi = rng.integers(1, 100, size=(count, n)).astype(float)
        model = SeparableConvexPower(2.0, xi, 100.0)
        cost = rng.integers(-10, 0, size=n).astype(float)
    elif family == "covering":
        xi = rng.integers(1, 51, size=(count, 1, n)).astype(float)
        model = Covering(xi / 40.0)
        cost = rng.integers(1, 11, size=n).astype(float)
    else:
        raise ValueError(f"unknown family {family!r}")
    return CcpInstance(
        n=n,
        scenario_count=count,
        probabilities=np.full(count, 1.0 / count),
        constraints=model,
        x_set=Box(np.zeros(n), np.ones(n)),
        cost=cost,
        epsilon=epsilon,
    )


def cmd_gen(args) -> int:
    instance = generate_instance(args.family, args.n, args.N, args.epsilon, args.seed)
    _emit(dump_instance(instance), args.out)
    return EXIT_OK


def cmd_bench(args) -> int:
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    methods = _method_list(args.methods)
    rows = []
    for seed in seeds:
        instance = generate_instance(args.family, args.n, args.N, args.epsilon, seed)
        base = {"family": args.family, "n": args.n, "N": args.N, "epsilon": args.epsilon, "seed": seed}
        rows += [{**base, **_row(instance, method, args)} for method in methods]
    if args.format == "json":
        text = json.dumps({"rows": rows}, indent=2, sort_keys=True) + "\n"
    else:
        text = _csv_text(rows)
    _emit(text, args.out)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="ccpkit", description="chance-constrained program solvers")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, methods=True):
        p.add_argument("--instance", required=True, help="instance JSON path")
        if methods:
            p.add_argument("--method", required=True, choices=_FINITE)
        p.add_argument("--delta1", type=float, default=1e-2)
        p.add_argument("--delta2", type=float, default=1e-2)
        p.add_argument("--theta", type=float, default=None, help="ambiguity radius")
        p.add_argument("--norm", choices=("l1", "l2", "linf", "mahalanobis"), default=None)
        p.add_argument("--mode", choices=("dual", "shift"), default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_solve = sub.add_parser("solve", help="run one method on one instance")
    common(p_solve)
    p_solve.add_argument("--subset-cap", type=int, default=200_000, dest="subset_cap")
    p_solve.set_defaults(func=cmd_solve)

    p_cmp = sub.add_parser("compare", help="run several methods and tabulate")
    common(p_cmp, methods=False)
    p_cmp.add_argument("--methods", default="alsox,alsoxplus,cvar")
    p_cmp.set_defaults(func=cmd_compare)

    p_oracle = sub.add_parser("oracle", help="exact optimum by branching on scenarios")
    common(p_oracle, methods=False)
    p_oracle.add_argument("--subset-cap", type=int, default=200_000, dest="subset_cap")
    p_oracle.set_defaults(func=cmd_oracle)

    p_gen = sub.add_parser("gen", help="generate a random instance document")
    p_gen.add_argument("--family", required=True, choices=("linear", "nonlinear", "covering"))
    p_gen.add_argument("--n", type=int, default=10)
    p_gen.add_argument("--N", type=int, default=100)
    p_gen.add_argument("--epsilon", type=float, default=0.1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="timing table over generated instances")
    p_bench.add_argument("--family", required=True, choices=("linear", "nonlinear", "covering"))
    p_bench.add_argument("--n", type=int, default=10)
    p_bench.add_argument("--N", type=int, default=100)
    p_bench.add_argument("--epsilon", type=float, default=0.1)
    p_bench.add_argument("--seeds", default="0")
    p_bench.add_argument("--methods", default="alsox,cvar")
    p_bench.add_argument("--delta1", type=float, default=1e-2)
    p_bench.add_argument("--delta2", type=float, default=1e-2)
    p_bench.add_argument("--out", default=None)
    p_bench.add_argument("--format", choices=("json", "csv"), default="csv")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _INFEASIBLE as exc:
        _print_error(exc)
        return EXIT_INFEASIBLE
    except _LIMIT as exc:
        _print_error(exc)
        return EXIT_LIMIT
    except CcpError as exc:
        _print_error(exc)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        _print_error(exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
