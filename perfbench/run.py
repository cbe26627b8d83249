"""ccpkit benchmark: one workload, one process, one thread, every answer checked.

    python3 perfbench/run.py --workload lp-bisect --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy. With ``--trace 0`` the
run solves whole groups of instances until ``--seconds`` is (nearly) used
up, and at least the groups its quality metrics are taken over, and
reports the end-to-end metrics. Their times are in reference seconds
(``calibrate.py``): each solve's wall time is scaled by the speed of a
fixed kernel timed around it, so the host's changing speed is divided
out; the plain wall-clock figures are printed too, as ``wall.*``. With
``--trace 1`` it solves each group twice in a row, untraced and then with
the layer tracer installed, and reports the per-layer metrics of the
traced solves, per traced group, plus the tracing overhead (traced minus
untraced solve time); the spans go to ``perfbench/out/`` as JSONL.

Every metric is printed as ``name value unit`` before the last line,
which is one JSON object: correct, attempted, failed and the metrics
listed in BENCHMARK.json. The exit code is 0 only when every solve passed
the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("lp-bisect", "exact-lattice", "sgd-rescue")
SETUP_REPEATS = 10
SETUP_GROUPS = 4

# Timed in a fresh interpreter: importing the package and building the
# first SETUP_GROUPS groups of the workload is what a user pays before
# the first solve. The interpreter's own start-up is not counted. The
# calibration kernel is timed after the set-up, in the same interpreter.
SETUP_CODE = """
import sys
from time import perf_counter
begin = perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import ccpkit
import workloads
for g in range(int(sys.argv[5])):
    workloads.build_group(sys.argv[3], int(sys.argv[4]), g)
elapsed = perf_counter() - begin
import calibrate
print(elapsed, calibrate.kernel_seconds(5))
"""

END_TO_END_UNITS = {
    "setup_s": "s", "solves_per_s": "1/s", "cvar_s": "s", "alsox_s": "s",
    "alsoxplus_s": "s", "oracle_s": "s", "failed_frac": "1",
    "improvement_pct.alsox": "%", "improvement_pct.alsoxplus": "%",
    "gap_pct.alsox": "%", "gap_pct.alsoxplus": "%", "peak_rss_mb": "MB",
    "kernel_ms": "ms",
}


def _blas_version() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def header(args) -> dict:
    import numpy as np

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0], "python": platform.python_version(),
        "numpy": np.__version__, "blas": _blas_version(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def setup_once(workload: str, seed: int) -> tuple:
    """Import plus instance generation, timed inside a fresh interpreter:
    (wall seconds, the kernel's seconds in that interpreter)."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), workload,
         str(seed), str(SETUP_GROUPS)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    wall, kernel_s = done.stdout.strip().splitlines()[-1].split()
    return float(wall), float(kernel_s)


def warm_up() -> None:
    """First calls pay one-time numpy and import costs; keep them out of the timings."""
    import calibrate
    import ccpkit
    from ccpkit.cli import generate_instance

    inst = generate_instance("linear", 3, 6, 0.2, 0)
    ccpkit.cvar_solution(inst)
    ccpkit.also_x(inst, backend="lp")
    calibrate.kernel_seconds()


def run_groups(workload: str, seed: int, seconds: float, tracer=None, min_groups: int = 1):
    """Solve groups 0, 1, ... until the next one would likely end past `seconds`,
    and at least `min_groups` of them.

    Without a tracer, set-up is timed SETUP_REPEATS times, before the
    groups that start after each further `seconds / SETUP_REPEATS` and at
    the end for the rest, so its median spans the whole run rather than
    one moment of it, and every solve is calibrated. With a tracer, each
    group is solved twice in a row, untraced and then traced and neither
    calibrated, so that both passes see the same machine state. Returns
    the untraced groups and their solve times, the traced groups and
    their times, and the set-up times.
    """
    from workloads import build_group, fresh, solve_group

    groups, durations, traced, traced_durations, setups = [], [], [], [], []
    begin = perf_counter()
    while True:
        if tracer is None and perf_counter() - begin >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(setup_once(workload, seed))
        cases = build_group(workload, seed, len(groups))
        t0 = perf_counter()
        solve_group(cases, calibrate=tracer is None)
        durations.append(perf_counter() - t0)
        groups.append(cases)
        if tracer is not None:
            again = fresh(cases)
            t0 = perf_counter()
            with tracer:
                solve_group(again)
            traced_durations.append(perf_counter() - t0)
            traced.append(again)
        elapsed = perf_counter() - begin
        if len(groups) >= min_groups and elapsed + elapsed / len(groups) > seconds:
            break
    while tracer is None and len(setups) < SETUP_REPEATS:
        setups.append(setup_once(workload, seed))
    return groups, durations, traced, traced_durations, setups


def gate_groups(workload: str, seed: int, groups, reference) -> tuple:
    """(attempted, failed, messages) over every solve of every group."""
    import gate

    attempted = failed = 0
    messages = []
    for g, cases in enumerate(groups):
        ref = reference.get(workload, {}).get(str(g), {}) if seed == gate.REFERENCE_SEED else {}
        for case in cases:
            problems = gate.case_problems(case, ref.get(case.label))
            attempted += len(case.solves)
            failed += len(problems)
            messages += [f"group {g} {case.label} {m}: {'; '.join(p)}" for m, p in problems.items()]
    return attempted, failed, messages


def quality(groups) -> dict:
    """Mean improvement over cvar and mean gap to the oracle, in percent of the
    cvar and oracle values, over every case of `groups` that ran both methods."""
    gathered = {}
    for cases in groups:
        for case in cases:
            v = {s.method: s.objective for s in case.solves if s.error is None}
            for method in ("alsox", "alsoxplus"):
                for base, name, sign in (("cvar", "improvement_pct", -1.0), ("oracle", "gap_pct", 1.0)):
                    if method in v and v.get(base):
                        gathered.setdefault(f"{name}.{method}", []).append(
                            sign * (v[method] - v[base]) / abs(v[base]) * 100.0)
    return {k: statistics.mean(vals) for k, vals in gathered.items()}


def time_metrics(groups, setups, scale) -> dict:
    """setup_s, solves_per_s and <method>_s, with every time first passed
    through scale(seconds, kernel_s). Method times are per group, over every
    group the run solved; set-up is the median of the samples."""
    per_method, solves, total = {}, 0, 0.0
    for cases in groups:
        sums = {}
        for case in cases:
            for s in case.solves:
                sums[s.method] = sums.get(s.method, 0.0) + scale(s.seconds, s.kernel_s)
        for method, sec in sums.items():
            per_method.setdefault(method, []).append(sec)
            total += sec
        solves += sum(len(case.solves) for case in cases)
    m = {"setup_s": statistics.median(scale(*setup) for setup in setups),
         "solves_per_s": solves / total}
    for method, secs in per_method.items():
        m[f"{method}_s"] = statistics.mean(secs)
    return m


def end_to_end(workload: str, groups, setups, attempted: int, failed: int) -> dict:
    """Times in reference seconds, then the same in wall seconds as wall.*.
    Quality is taken over the first QUALITY_GROUPS groups, which every run
    solves, so it is the same for a given seed however fast the program is."""
    from calibrate import REFERENCE_S
    from workloads import QUALITY_GROUPS

    m = time_metrics(groups, setups, lambda sec, kernel_s: sec * REFERENCE_S / kernel_s)
    m.update({f"wall.{k}": v for k, v in time_metrics(groups, setups, lambda sec, _: sec).items()})
    m["kernel_ms"] = 1e3 * statistics.median(
        [s.kernel_s for cases in groups for case in cases for s in case.solves]
        + [kernel_s for _, kernel_s in setups])
    m["failed_frac"] = failed / attempted
    m.update(quality(groups[:QUALITY_GROUPS[workload]]))
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m


def same_answers(first, second) -> list:
    """Objectives of the traced pass must equal the untraced ones exactly."""
    out = []
    for g, (a_cases, b_cases) in enumerate(zip(first, second)):
        for a, b in zip(a_cases, b_cases):
            for sa, sb in zip(a.solves, b.solves):
                if sa.objective != sb.objective or sa.error != sb.error:
                    out.append(f"group {g} {a.label} {sa.method}: traced answer differs")
    return out


def traced_metrics(tracer, groups: int, untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer metrics per traced group; the overhead is over the same groups."""
    import layertrace

    m = layertrace.summarize(tracer.spans, groups)
    m["trace.overhead_s"] = (traced_wall - untraced_wall) / groups
    m["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall
    m["trace.spans"] = len(tracer.spans) / groups
    for layer in layertrace.LAYERS:
        share = m[f"self_s.{layer}"] * groups / traced_wall
        print(f"# share {layer:<12s} {100.0 * share:6.2f} % of {traced_wall:.3f} s traced wall")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "ccpkit" / "__init__.py").is_file():
        print(f"perfbench: no ccpkit sources under {SRC}", file=sys.stderr)
        return 2

    for var in THREAD_VARS:          # before numpy loads its BLAS
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import ccpkit

    if Path(ccpkit.__file__).resolve().parent != SRC / "ccpkit":
        print(f"perfbench: ccpkit came from {ccpkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layertrace
    from workloads import QUALITY_GROUPS

    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    print("# header " + json.dumps(header(args), sort_keys=True), flush=True)
    warm_up()

    tracer = layertrace.Tracer() if args.trace else None
    groups, durations, traced, traced_durations, setups = run_groups(
        args.workload, args.seed, args.seconds, tracer,
        1 if args.trace else QUALITY_GROUPS[args.workload])
    attempted, failed, messages = gate_groups(args.workload, args.seed, groups, reference)
    if not args.trace:
        metrics = end_to_end(args.workload, groups, setups, attempted, failed)
        units = {**END_TO_END_UNITS,
                 **{k: END_TO_END_UNITS[k[len("wall."):]] for k in metrics if k.startswith("wall.")}}
    else:
        traced_attempted, traced_failed, traced_messages = gate_groups(
            args.workload, args.seed, traced, reference)
        drift = same_answers(groups, traced)
        attempted += traced_attempted
        failed += traced_failed + len(drift)
        messages += traced_messages + drift
        metrics = traced_metrics(tracer, len(traced), sum(durations), sum(traced_durations))
        units = {m["name"]: m["unit"] for m in wanted}
        OUT.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")

    for msg in messages:
        print(f"# FAILED {msg}")
    print(f"# groups {len(groups)}  solves {attempted}  failed {failed}  "
          f"(failed_frac base: every method run on every case of every group)")
    for name, value in metrics.items():
        print(f"{name:<32s} {value:14.6f} {units.get(name, '')}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
