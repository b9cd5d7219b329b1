"""The benchmark's own test: per-layer counts repeat exactly.

Runs two traced passes of each workload at seed 0, each in a fresh
interpreter with a different string-hash seed, and compares every count
and every ratio of counts (calls, steps built and taken, memo hit ratios
and sizes, lattice points).  Times are left out; they are noisy, the
counts are exact.

    python3 perfbench/check_counts.py

Exits 0 when every count repeats, 1 otherwise.
"""
from __future__ import annotations

import os
import sys

from run import ROOT, WORKLOADS, run_pass

SEED = 0


def counts(specs: list, hash_seed: str) -> dict:
    layers = run_pass(specs, 1, env={**os.environ, "PYTHONHASHSEED": hash_seed})["layers"]
    return {name: value for name, value in layers.items() if not name.endswith("_s")}


def main() -> int:
    if not (ROOT / "src" / "ubcalc" / "__init__.py").is_file():
        print(f"check_counts.py: no ubcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    ok = True
    for workload in WORKLOADS:
        specs = workloads.plan(workload, SEED)
        first, second = counts(specs, "0"), counts(specs, "1")
        differ = sorted(name for name in first.keys() | second.keys() if first.get(name) != second.get(name))
        print(f"{workload}: {len(first)} counts, {'identical' if not differ else 'DIFFERENT'}")
        for name in differ:
            print(f"  {name}: {first.get(name)} vs {second.get(name)}")
        ok = ok and not differ
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
