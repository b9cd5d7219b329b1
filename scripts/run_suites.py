#!/usr/bin/env python3
"""Run every property suite at a chosen scale and print a summary table."""
import argparse
import json
import time

from ubcalc.cli import non_negative_int
from ubcalc.harness import SUITES, GenConfig, run_suite


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cases", type=non_negative_int, default=100)
    ap.add_argument("--max-size", type=non_negative_int, default=20)
    ap.add_argument("--fuel", type=non_negative_int, default=200)
    ap.add_argument("--json", action="store_true")
    ap.add_argument("--only", nargs="*", choices=sorted(SUITES), default=None)
    args = ap.parse_args(argv)

    cfg = GenConfig(seed=args.seed, cases=args.cases, max_size=args.max_size, fuel=args.fuel)
    names = args.only if args.only else sorted(SUITES)
    rc = 0
    rows = []
    for name in names:
        t0 = time.time()
        rep = run_suite(name, cfg)
        rows.append((name, rep, time.time() - t0))
        if not rep.ok:
            rc = 1
    if args.json:
        print(json.dumps([r.to_json() | {"seconds": round(dt, 2)} for _, r, dt in rows]))
    else:
        for name, rep, dt in rows:
            mark = "ok " if rep.ok else "FAIL"
            print(
                f"{mark} {name:24s} cases={rep.cases:5d} passes={rep.passes:5d} "
                f"inconclusive={rep.inconclusive:4d} failures={len(rep.failures):3d} {dt:6.1f}s"
            )
            for failure in rep.failures[:3]:
                print(f"      {failure}")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
