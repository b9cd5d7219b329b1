"""ubcalc benchmark: time to verdict on one workload.

    python3 perfbench/run.py --workload typed --seed 1 --seconds 20 --trace 0

The inputs are drawn once from --seed (workloads.plan).  Each pass runs
the workload's whole item set in a fresh interpreter, so
the program's module-level caches start empty, as in every ``ubcalc``
invocation.  One client, closed loop: the next item starts when the
previous verdict is in.  Passes repeat until --seconds have gone by
(at least MIN_PASSES of them).

The host's speed drifts by up to half over tens of seconds, and every
item slows with it alike.  So each pass also times a fixed reference
work before every item (one_pass.reference_ms), and every time a pass
reports is scaled by REF_MS over the median of those: times are given
at the host speed where the reference takes REF_MS.  Set-up time, pass
time, memory and each item's time are then medians over the passes.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes and prints the per-layer metrics, with the tracing
overhead.  The last line of output is one JSON object.  Every verdict is
checked against its known answer; a wrong one is counted, not fatal.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
WORKLOADS = ("typed", "rewrite", "bridge", "semantics")
MIN_PASSES = 3
PASS_TIMEOUT_S = 120.0
STOP_BY_S = 150.0  # start no pass that could end after this, counted from the start of the run
TAIL_BEYOND = 10  # the tail percentile leaves this many samples beyond it
REF_MS = 0.75  # the reference work's median time on the 2-core host of NOTES.md

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "decided_share": "ratio",
    "peak_rss_mb": "MB",
}


class PassError(RuntimeError):
    pass


def run_pass(specs: list, trace: int, env: dict | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--trace", str(trace), "--started", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, input=json.dumps(specs), cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"a pass took longer than {PASS_TIMEOUT_S:.0f} s") from exc
    if proc.returncode != 0:
        raise PassError(f"a pass exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float]:
    """The value at the highest percentile with TAIL_BEYOND samples beyond
    it, and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def scale(p: dict) -> float:
    """Factor that brings the pass's times to the reference host speed."""
    return REF_MS / p["ref_ms"]


def wall(passes: list[dict]) -> float:
    return statistics.median(p["wall_s"] * scale(p) for p in passes)


def end_to_end(plain: list[dict]) -> tuple[dict[str, float], str]:
    scaled = [[ms * scale(p) for ms in p["item_ms"]] for p in plain]
    per_item = [statistics.median(ms) for ms in zip(*scaled)]
    tail_ms, pct = tail(per_item)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] * scale(p) for p in plain),
        "wall_s": wall(plain),
        "verdict_p50_ms": statistics.median(per_item),
        "verdict_tail_ms": tail_ms,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    return metrics, f"p{pct:.1f} of {len(per_item)} items, each item's median of {len(plain)} passes"


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Counts from the first traced pass (they must repeat exactly);
    seconds, rates and ratios as medians over the traced passes, with
    seconds and rates scaled to the reference host speed."""
    notes = []
    first = traced[0]["layers"]
    metrics = {}
    for name in first:
        values = [t["layers"].get(name, 0) for t in traced]
        if isinstance(first[name], int):
            metrics[name] = first[name]
            if len(set(values)) > 1:
                notes.append(f"count {name} differs between traced passes: {values}")
        elif name.endswith("per_s"):
            metrics[name] = statistics.median(v / scale(t) for v, t in zip(values, traced))
        elif name.endswith("_s"):
            metrics[name] = statistics.median(v * scale(t) for v, t in zip(values, traced))
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = wall(traced) - wall(plain)
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ubcalc" / "__init__.py").is_file():
        print(f"run.py: no ubcalc sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    launched = time.monotonic()
    import workloads

    specs = workloads.plan(args.workload, args.seed)
    start = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    try:
        while True:
            plain.append(run_pass(specs, 0))
            if args.trace:
                traced.append(run_pass(specs, 1))
            now = time.monotonic()
            per_pass = (now - start) / len(plain)
            enough = len(plain) >= (1 if args.trace else MIN_PASSES)
            if enough and (now - start >= args.seconds or now + per_pass - launched > STOP_BY_S):
                break
    except PassError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    runs = plain + traced
    verdicts = [v for p in runs for v in p["verdicts"]]
    attempted = len(verdicts)
    failed = verdicts.count("fail") + verdicts.count("error")
    decided = verdicts.count("pass") + verdicts.count("fail")

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and {len(traced)} traced passes, "
          f"{len(plain[0]['verdicts'])} items per pass")
    print(f"  reference work took {statistics.median(p['ref_ms'] for p in runs):.3f} ms (median of passes); "
          f"unscaled wall_s {statistics.median(p['wall_s'] for p in plain):.4g} s")
    if args.trace:
        metrics, notes = per_layer(plain, traced)
        units = {name: _layer_unit(name) for name in metrics}
        for note in notes:
            print(f"  note: {note}")
    else:
        metrics, tail_note = end_to_end(plain)
        metrics["decided_share"] = decided / attempted
        units = END_TO_END_UNITS
        print(f"  verdict_tail_ms is {tail_note}")
    print(f"  failed_share {failed / attempted:.4f} ({failed} of {attempted} verdicts wrong or crashed)")
    for err in sorted({e for p in runs for e in p["errors"]}):
        print(f"  error: {err}")
    for name in sorted(metrics):
        print(f"  {name:44s} {metrics[name]:.6g} {units[name]}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
