"""Rewrite goldens.json: the corpus report bytes and the fiber-singular
Pluecker lists at each declared seed.

    python3 benchmarks/capture_goldens.py

Run it only on a commit whose outputs are trusted (the goldens in the repo
were captured at the commit that introduced the benchmark); every output is
checked before it is recorded, and a failing check aborts the capture.
"""

from __future__ import annotations

import json
import sys

import workloads

SEEDS = list(range(32)) + [12345]


def main() -> int:
    workloads.import_engine()
    goldens: dict = {"seeds": SEEDS}
    for workload in workloads.NAMES:
        per_seed = goldens.setdefault(workload, {})
        items = workloads.load(workload)
        for seed in SEEDS:
            pinned = per_seed.setdefault(str(seed), {})
            for item in items:
                output = workloads.run_item(workload, item, seed)
                problem = workloads.check_item(workload, item, output, seed, {})
                if problem is not None:
                    print(f"{workload} seed {seed} {item.label}: {problem}", file=sys.stderr)
                    return 1
                pinned[item.label] = workloads.golden_key(workload, item, output)
            print(f"{workload} seed {seed}: {len(pinned)} items", file=sys.stderr)
    with workloads.GOLDENS.open("w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
