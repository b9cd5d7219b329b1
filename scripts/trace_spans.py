"""Calls and self time of every traced function in one pass of a workload.

    python3 scripts/trace_spans.py --workload typed --seed 2727 --prefix derivfile. terms.parse_term

Runs the workload's items once in this interpreter under the benchmark's
tracer (``perfbench/tracing.py``) and prints one JSON object mapping
each span name to its calls and self seconds.  It reports every span,
also those the benchmark's per-layer metrics leave out, such as the
calls of ``terms.parse_term``.  After the spans it reports each
``lru_cache`` that ``ubcalc.typesys`` or ``ubcalc.filters`` defines, as
``memo.<module>.<name>`` with its hits, misses and current size after
the pass.  --prefix keeps the names that start with one of the prefixes
given.
"""
from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tracing  # noqa: E402
import workloads  # noqa: E402


def memo_stats() -> dict[str, dict[str, int]]:
    """Hits, misses and current size of each lru_cache that typesys or
    filters defines, under the module that defines it: a memo one of them
    imports from the other is reported once."""
    out = {}
    for layer in ("typesys", "filters"):
        module = importlib.import_module(f"ubcalc.{layer}")
        for name, value in vars(module).items():
            info = getattr(value, "cache_info", None)
            if info is not None and value.__module__ == module.__name__:
                ci = info()
                out[f"memo.{layer}.{name}"] = {"hits": ci.hits, "misses": ci.misses, "currsize": ci.currsize}
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--prefix", nargs="*", default=[""])
    args = ap.parse_args(argv)

    items = workloads.build(workloads.plan(args.workload, args.seed))
    tracer = tracing.Tracer()
    api = tracer.install()
    for item in items:
        item.run(api)
    spans = {name: {"calls": stat.calls, "self_s": stat.self_s} for name, stat in tracer.stats.items()}
    spans.update(memo_stats())
    print(json.dumps({name: entry for name, entry in sorted(spans.items()) if name.startswith(tuple(args.prefix))}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
