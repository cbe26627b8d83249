"""Record the reference objectives the correctness gate compares against.

    python3 perfbench/record_reference.py --workload lp-bisect --groups 50

Solves the first GROUPS groups of a listed workload at the reference seed
and writes their objectives to perfbench/reference.json, keeping the
other workloads' entries. Run it only on a commit whose answers are known
to be right: the gate then holds every later commit to these values
within delta1.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    from run import SRC, THREAD_VARS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--groups", type=int, required=True)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    args = parser.parse_args()
    for var in THREAD_VARS:          # before numpy loads its BLAS
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import gate
    import workloads

    path = HERE / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8"))
    reference[args.workload] = {
        str(g): {
            case.label: {s.method: s.objective for s in case.solves}
            for case in workloads.solve_group(workloads.build_group(args.workload, gate.REFERENCE_SEED, g))
        }
        for g in range(args.groups)
    }
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
