#!/usr/bin/env python3
"""Print the finite-rank value and computation lattices, optionally as DOT."""
import argparse
import sys

from ubcalc.cli import AtomSpecError, _atom_spec, _dot_order, non_negative_int
from ubcalc.filters import DomainSizeError, build_domain
from ubcalc.typesys import AtomTable, EMPTY_TABLE, print_type, to_ctype, to_vtype


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rank", type=non_negative_int, default=2)
    ap.add_argument("--atoms", help="JSON file with atoms and order pairs")
    ap.add_argument("--dot", action="store_true")
    args = ap.parse_args(argv)

    try:
        table = AtomTable(*_atom_spec(args.atoms)) if args.atoms else EMPTY_TABLE
        dom = build_domain(args.rank, table)
    except (OSError, AtomSpecError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except DomainSizeError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    if args.dot:
        print(_dot_order(dom))
        return 0
    print(f"rank {dom.n}: {len(dom.values)} value classes, {len(dom.comps)} computation classes")
    for v in dom.values:
        print(f"  value: {print_type(to_vtype(v))}")
    for c in dom.comps:
        print(f"  comp:  {print_type(to_ctype(c))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
