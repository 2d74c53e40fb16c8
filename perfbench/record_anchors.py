"""Write ``anchors.json``: the simulated results each workload must reproduce.

Every entry comes from a UVMSan-checked run (report mode) that found zero
violations.  The simulated timeline is meant never to move, so rerun this
only when a change is meant to alter it, and say so in the change::

    python3 perfbench/record_anchors.py --seeds 32
"""

from __future__ import annotations

import argparse
import json

from run import ANCHORS_PATH, WORKLOADS, run_sample


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=32, help="record seeds 0..N-1")
    args = parser.parse_args(argv)
    table = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for seed in range(args.seeds):
            checked = run_sample(workload, seed, "checked")
            if checked is None or checked["violations"]:
                raise SystemExit(f"{workload} seed {seed}: UVMSan run failed: {checked}")
            table[workload][str(seed)] = checked["anchors"]
    ANCHORS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
