"""Paired benchmark runs of two checkouts, parent and change.

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --workloads semantics typed --seed 4242 --pairs 10 --out BENCH_N.json

Both checkouts first compile their sources to bytecode, so neither side
compiles inside a timed run.  For each workload, runs
``perfbench/run.py --trace 0`` once in each checkout per pair, one run
at a time, the parent first in even pairs and the change first in odd
pairs, so drift of the host's speed falls on both sides alike.  The run length, the end-to-end metrics and their bounds
come from the change's ``BENCHMARK.json`` (read only).  For every metric the output
gives each side's median and quartiles (inclusive method), the pairs the
change won and lost, the relative change of the median, whether that
change is within the metric's bound, whether the gap between the
medians exceeds the parent's quartile spread, and every run.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    runs = {name: m["value"] for name, m in out["metrics"].items()}
    runs["failed_share"] = out["failed"] / out["attempted"]
    return runs


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(parent: list[float], change: list[float], bound: float, better: str) -> dict:
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ps, cs = spread(parent), spread(change)
    rel = (cs["median"] - ps["median"]) / ps["median"] if ps["median"] else 0.0
    return {
        "parent": ps,
        "change": cs,
        "change_wins": wins,
        "change_losses": losses,
        "relative_change_of_median": rel,
        "bound": bound,
        "better": better,
        "within_bound": sign * rel <= bound,
        "parent_runs": parent,
        "change_runs": change,
        "gap_exceeds_parent_iqr": abs(cs["median"] - ps["median"]) > ps["q3"] - ps["q1"],
    }


def pair_count(text: str) -> int:
    """--pairs: the quartiles of a side need at least two runs."""
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 pairs, got {n}")
    return n


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=pair_count, default=10)
    ap.add_argument("--out", type=Path, help="write the JSON here instead of stdout")
    args = ap.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    result = {
        "method": (
            "Both checkouts first ran `python -m compileall -q src`. "
            f"For each workload, {args.pairs} alternating pairs of `python3 perfbench/run.py --workload W "
            f"--seed {args.seed} --seconds {seconds:g} --trace 0`, the parent first in even pairs and the "
            "change first in odd pairs, each side from its own checkout, one run at a time. Medians and "
            "quartiles (inclusive method) are over each side's runs; change_wins counts the pairs in which "
            "the change was better, change_losses those in which it was worse; failed_share is the largest "
            "over the runs."
        ),
        "seed": args.seed,
        "workloads": {},
    }
    for side in SIDES:
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=getattr(args, side), check=True)
    for workload in args.workloads:
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                start = time.monotonic()
                runs[side].append(run_once(getattr(args, side), workload, args.seed, seconds))
                print(f"{workload} pair {i} {side}: wall_s {runs[side][-1]['wall_s']:.4g} "
                      f"({time.monotonic() - start:.0f} s)", file=sys.stderr)
        result["workloads"][workload] = {
            "pairs": args.pairs,
            "metrics": {
                m["name"]: compare(
                    [r[m["name"]] for r in runs["parent"]],
                    [r[m["name"]] for r in runs["change"]],
                    m["bound"],
                    m["better"],
                )
                for m in metrics
            },
            "failed_share": {side: max(r["failed_share"] for r in runs[side]) for side in SIDES},
        }
    text = json.dumps(result, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
