"""One pass over a workload's items in a fresh interpreter.

Reads the item specs (``workloads.plan``) as JSON on standard input and
prints one JSON record: set-up seconds (from the moment the parent
started this interpreter), pass wall time, per-item time and verdict,
peak RSS, the host's speed as the median time of a fixed reference
work run before every item, and with --trace 1 the per-layer metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _tree(depth: int, i: int) -> tuple:
    return (i,) if depth == 0 else (_tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1), i)


def _walk(t: tuple) -> int:
    return t[0] if len(t) == 1 else _walk(t[0]) ^ _walk(t[1]) ^ (hash(t) & 0xFF)


def reference_ms() -> float:
    """Milliseconds for a fixed piece of pure-Python work that calls no
    ubcalc code: build, hash and walk a tree of 2047 tuples.  The host's
    speed drifts by half over tens of seconds, and this work slows with it
    in step with the items.  The cyclic collector is held off meanwhile,
    so the size of the program's heap does not enter; every tuple is
    freed again before it is turned back on."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    _walk(_tree(10, 1))
    ms = (time.perf_counter() - t0) * 1000.0
    if enabled:
        gc.enable()
    return ms


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--started", type=float, required=True, help="time.monotonic() at interpreter start")
    args = ap.parse_args()

    import ubcalc  # noqa: F401  (set-up includes the package import)
    import tracing
    import workloads

    items = workloads.build(json.load(sys.stdin))
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        api = tracer.install()
    else:
        api = types.SimpleNamespace(**tracing.layer_modules())
    setup_s = time.monotonic() - args.started

    times, verdicts, errors, ref_ms = [], [], [], []
    for item in items:
        ref_ms.append(reference_ms())
        t0 = time.perf_counter()
        try:
            verdict = item.run(api)
        except Exception as exc:  # a crash counts as failed; the pass goes on
            verdict = workloads.ERROR
            errors.append(f"{item.kind}: {type(exc).__name__}: {exc}"[:200])
        times.append((time.perf_counter() - t0) * 1000.0)
        verdicts.append(verdict)

    record = {
        "setup_s": setup_s,
        "wall_s": sum(times) / 1000.0,
        "ref_ms": statistics.median(ref_ms),
        "item_ms": times,
        "verdicts": verdicts,
        "kinds": [item.kind for item in items],
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
