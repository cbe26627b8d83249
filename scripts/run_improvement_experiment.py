#!/usr/bin/env python3
"""Improvement-over-baseline table on generated instance families.

For each (family, epsilon, seed) cell the script runs the tail baseline,
both bisection schemes and the exact oracle, then reports the percentage
improvement (v_cvar - v_method) / |v_cvar| * 100 and the gap above the
optimum (v_method - v_oracle) / |v_oracle| * 100. The oracle and gap cells
are blank where the oracle passes its subset cap (CapExceeded). The
oracle solves its subset programs on the instance's engine, so on the
nonlinear family each is a subgradient search of seconds. Writes one CSV
row per cell and a mean summary per epsilon.
"""

import argparse
import csv
import sys
from time import perf_counter

import numpy as np

from ccpkit import CapExceeded, also_x, also_x_plus, cvar_solution, exact_solve
from ccpkit.cli import generate_instance


def run_cell(family, n, count, epsilon, seed, delta1, delta2, backend):
    inst = generate_instance(family, n, count, epsilon, seed)
    row = {"family": family, "n": n, "N": count, "epsilon": epsilon, "seed": seed}
    begin = perf_counter()
    v_cvar = cvar_solution(inst, backend=backend).objective
    v_a = also_x(inst, delta1=delta1, backend=backend).objective
    v_p = also_x_plus(inst, delta1=delta1, delta2=delta2, backend=backend).objective
    try:
        v_or = exact_solve(inst).objective
    except CapExceeded:
        v_or = None

    def gap(v):
        return None if v_or is None else (v - v_or) / abs(v_or) * 100.0

    row.update(
        cvar=v_cvar,
        alsox=v_a,
        alsoxplus=v_p,
        oracle=v_or,
        improvement_alsox=(v_cvar - v_a) / abs(v_cvar) * 100.0,
        improvement_alsoxplus=(v_cvar - v_p) / abs(v_cvar) * 100.0,
        gap_alsox=gap(v_a),
        gap_alsoxplus=gap(v_p),
        time=perf_counter() - begin,
    )
    return row


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
                "eps=%.3g seed=%d cvar=%.6g alsox=%.6g (%+.2f%%) "
                "alsoxplus=%.6g (%+.2f%%) oracle=%s %.1fs"
                % (
                    epsilon,
                    seed,
                    row["cvar"],
                    row["alsox"],
                    row["improvement_alsox"],
                    row["alsoxplus"],
                    row["improvement_alsoxplus"],
                    "capped" if row["oracle"] is None else "%.6g" % row["oracle"],
                    row["time"],
                ),
                file=sys.stderr,
            )

    for epsilon in epsilons:
        cells = [r for r in rows if r["epsilon"] == epsilon]
        mean_a = float(np.mean([r["improvement_alsox"] for r in cells]))
        mean_p = float(np.mean([r["improvement_alsoxplus"] for r in cells]))
        solved = [r for r in cells if r["oracle"] is not None]
        gaps = ", ".join(
            "%s %+.2f%%" % (m, float(np.mean([r["gap_" + m] for r in solved])))
            for m in ("alsox", "alsoxplus")
        ) if solved else "none"
        print(
            "epsilon=%.3g mean improvement: alsox %+.2f%%, alsoxplus %+.2f%%; "
            "mean gap to optimum: %s; oracle capped on %d of %d cells"
            % (epsilon, mean_a, mean_p, gaps, len(cells) - len(solved), len(cells)),
            file=sys.stderr,
        )

    handle = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("%.6g" % v if isinstance(v, float) else v) for k, v in row.items()})
    finally:
        if args.out:
            handle.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
