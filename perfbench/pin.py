"""Pin each workload's simulated outputs, per seed, into ``golden.json``.

    python3 perfbench/pin.py --seeds 0-31 [--workload NAME ...]

Runs one pass per (workload, seed), refuses outputs that break a
workload's invariants, and merges the summaries into ``golden.json``.
Every benchmark pass on a pinned seed must reproduce its entry (counts
exactly, floats within ``workloads.REL_TOL``).  Re-pin only when a change
is meant to alter simulated outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

GOLDEN = HERE / "golden.json"


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="inclusive range, e.g. 0-31")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for name in args.workload or WORKLOADS:
        workload = WORKLOADS[name]
        for seed in args.seeds:
            inputs = workload.make_inputs(seed)
            outputs = workload.run(workload.build(inputs), inputs)
            problems = workload.invariants(outputs, inputs)
            if problems:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            golden.setdefault(name, {})[str(seed)] = \
                workload.summary(outputs)
            print(f"pinned {name} seed {seed}", flush=True)
            del outputs
        # Write after each workload so an interrupted run keeps its work.
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True)
                          + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
