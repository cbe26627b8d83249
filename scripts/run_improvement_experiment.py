#!/usr/bin/env python3
"""Improvement-over-baseline table on generated instance families.

For each (family, epsilon, seed) cell the script runs the tail baseline,
both bisection schemes and the exact oracle, then reports the percentage
improvement (v_cvar - v_method) / |v_cvar| * 100 and the gap above the
optimum (v_method - v_oracle) / |v_oracle| * 100. A method that raises a
toolkit error (the oracle past its subset cap, an empty tail program) leaves
its cell blank and is named on the cell's stderr line; an improvement or gap
cell is blank when either of its values is, or when its reference is 0, and
each mean is taken over the filled cells. The oracle solves its subset
programs on the instance's engine, so on the nonlinear family each is a
subgradient search of seconds. Writes one CSV row per cell and a mean
summary per epsilon.
"""

import argparse
import csv
import sys
from time import perf_counter

import numpy as np

from ccpkit import CcpError, also_x, also_x_plus, cvar_solution, exact_solve
from ccpkit.cli import generate_instance


def _pct(a, b, ref):
    """(a - b) / |ref| * 100, or None when a value is blank or ref is 0."""
    if a is None or b is None or not ref:
        return None
    return (a - b) / abs(ref) * 100.0


def run_cell(family, n, count, epsilon, seed, delta1, delta2, backend):
    """One row: each method's objective, or None with its error in
    row["errors"], and the improvement and gap cells."""
    inst = generate_instance(family, n, count, epsilon, seed)
    solvers = {
        "cvar": lambda: cvar_solution(inst, backend=backend),
        "alsox": lambda: also_x(inst, delta1=delta1, backend=backend),
        "alsoxplus": lambda: also_x_plus(inst, delta1=delta1, delta2=delta2, backend=backend),
        "oracle": lambda: exact_solve(inst),
    }
    row = {"family": family, "n": n, "N": count, "epsilon": epsilon, "seed": seed}
    errors = {}
    begin = perf_counter()
    for name, solve in solvers.items():
        try:
            row[name] = solve().objective
        except CcpError as exc:
            row[name] = None
            errors[name] = f"{type(exc).__name__}: {exc}"
    v_cvar, v_a, v_p, v_or = (row[name] for name in solvers)
    row.update(
        improvement_alsox=_pct(v_cvar, v_a, v_cvar),
        improvement_alsoxplus=_pct(v_cvar, v_p, v_cvar),
        gap_alsox=_pct(v_a, v_or, v_or),
        gap_alsoxplus=_pct(v_p, v_or, v_or),
        time=perf_counter() - begin,
        errors=errors,
    )
    return row


def _fmt(value, spec="%.6g"):
    return "blank" if value is None else spec % value


def _mean(cells, key):
    filled = [r[key] for r in cells if r[key] is not None]
    return _fmt(float(np.mean(filled)) if filled else None, "%+.2f%%")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", default="linear", choices=("linear", "nonlinear", "covering"))
    parser.add_argument("--n", type=int, default=10)
    parser.add_argument("--N", type=int, default=100)
    parser.add_argument("--epsilons", default="0.05,0.1")
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--delta1", type=float, default=1e-2)
    parser.add_argument("--delta2", type=float, default=1e-2)
    parser.add_argument("--backend", default="lp", choices=("auto", "lp", "sgd"))
    parser.add_argument("--out", default=None, help="CSV path (default: stdout)")
    args = parser.parse_args()

    epsilons = [float(e) for e in args.epsilons.split(",") if e.strip()]
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    rows = []
    for epsilon in epsilons:
        for seed in seeds:
            row = run_cell(
                args.family, args.n, args.N, epsilon, seed,
                args.delta1, args.delta2, args.backend,
            )
            rows.append(row)
            print(
                "eps=%.3g seed=%d cvar=%s alsox=%s (%s) alsoxplus=%s (%s) oracle=%s %.1fs%s"
                % (
                    epsilon,
                    seed,
                    _fmt(row["cvar"]),
                    _fmt(row["alsox"]),
                    _fmt(row["improvement_alsox"], "%+.2f%%"),
                    _fmt(row["alsoxplus"]),
                    _fmt(row["improvement_alsoxplus"], "%+.2f%%"),
                    _fmt(row["oracle"]),
                    row["time"],
                    "".join("; %s %s" % item for item in row["errors"].items()),
                ),
                file=sys.stderr,
            )

    for epsilon in epsilons:
        cells = [r for r in rows if r["epsilon"] == epsilon]
        print(
            "epsilon=%.3g mean improvement: alsox %s, alsoxplus %s; "
            "mean gap to optimum: alsox %s, alsoxplus %s; oracle blank on %d of %d cells"
            % (
                epsilon,
                _mean(cells, "improvement_alsox"),
                _mean(cells, "improvement_alsoxplus"),
                _mean(cells, "gap_alsox"),
                _mean(cells, "gap_alsoxplus"),
                sum(r["oracle"] is None for r in cells),
                len(cells),
            ),
            file=sys.stderr,
        )

    handle = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        fieldnames = [k for k in rows[0] if k != "errors"]
        writer = csv.DictWriter(handle, fieldnames=fieldnames, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("%.6g" % v if isinstance(v, float) else v) for k, v in row.items()})
    finally:
        if args.out:
            handle.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
