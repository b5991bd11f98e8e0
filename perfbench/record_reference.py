"""Record the reference outputs that the polytope4 and nondeg3 checks
compare against, from the code as it is now.

    python3 perfbench/record_reference.py

For every corpus item of each seed in workloads.REFERENCE_SEEDS it stores,
keyed by the item's input digest, the exact-output digest of a polytope4
item and the verdict of a nondeg3 item. Items of other seeds are checked
against the entries they share with these (always the anchors and the
reference block) and by the workload's invariants. Recording again is a
change to the benchmark.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from run import PINNED_ENV  # noqa: E402

RECORDED = ("polytope4", "nondeg3")


def main() -> int:
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        # Record in the thread and hash environment the workers run in.
        os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, **PINNED_ENV))
    reference = {name: {} for name in RECORDED}
    for name in RECORDED:
        workload = workloads.WORKLOADS[name]
        for seed in workloads.REFERENCE_SEEDS:
            for k in range(workload.corpus_size):
                p = workload.prepare(workload.make(seed, k))
                if p["key"] not in reference[name]:
                    out = workload.run(p)
                    reference[name][p["key"]] = workload.reference_value(p, out)
            print(f"{name} seed {seed} recorded", file=sys.stderr, flush=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
