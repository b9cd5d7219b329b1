"""Command line front door.

Subcommands: fmt, reduce, eval, subtype, typecheck, infer, translate,
interp, prop.  Exit status 0 = success/true, 1 = false/failed,
2 = usage error, 3 = inconclusive.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import convergence, derivfile, filters, harness, moggi, reduction
from .assignment import check_derivation, infer_bounded
from .reduction import Rule
from .terms import ParseError, SortError, is_comp, parse_term, print_term
from .typesys import (
    AtomTable,
    EMPTY_TABLE,
    EnumerationError,
    UnknownAtomError,
    enumerate_types,
    is_vtype,
    leq_c,
    leq_v,
    parse_type,
    print_type,
    to_ctype,
    to_vtype,
)

OK, FALSE, USAGE, INCONCLUSIVE = 0, 1, 2, 3


class AtomSpecError(ValueError):
    """The --atoms file is not a JSON object of atom names and order pairs
    over those names."""


class UsageError(ValueError):
    """Options that leave the command no one thing to do, such as
    translate without exactly one direction."""


# Errors in what the user gave (typed text, files): exit 2, never 1, which
# is a verdict.  ParseError covers the syntax errors of all four grammars:
# terms, types, let-terms and derivation files.
USAGE_ERRORS = (
    OSError,
    AtomSpecError,
    UsageError,
    EnumerationError,
    ParseError,
    SortError,
    UnknownAtomError,
    filters.OpenVariableError,
)


def _read_arg(arg: str, parse):
    if arg == "-":
        return parse(sys.stdin.read())
    # the text is read as a term only when no file of that name exists, so
    # a file that does not parse reports its own error
    if os.path.isfile(arg):
        with open(arg) as fh:
            return parse(fh.read())
    return parse(arg)


def rule_set(spec: str) -> frozenset[Rule]:
    """argparse type for --rules: comma-separated rule names; an unknown
    name is a usage error (exit 2)."""
    names = {
        "betac": Rule.BETA_C,
        "id": Rule.ID,
        "ass": Rule.ASS,
        "etac": Rule.ETA_C,
    }
    try:
        return frozenset(names[p.strip()] for p in spec.split(",") if p.strip())
    except KeyError as e:
        raise argparse.ArgumentTypeError(f"unknown rule {e.args[0]!r}; choose from {', '.join(names)}")


def _table_from(args) -> AtomTable:
    table = EMPTY_TABLE
    if getattr(args, "atoms", None):
        atoms, order = _atom_spec(args.atoms)
        table = AtomTable(atoms, order)
    eta = getattr(args, "eta", "none")
    if eta != "none":
        depth = args.eta_depth if args.eta_depth is not None else getattr(args, "rank", 2)
        table = AtomTable(table.atoms, table.order, eta, depth)
    return table


def _atom_spec(path: str) -> tuple[tuple[str, ...], frozenset[tuple[str, str]]]:
    with open(path) as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as e:
            raise AtomSpecError(f"{path}: not JSON: {e}") from None
    shape = f"{path}: expected {{\"atoms\": [names], \"order\": [[name, name], ...]}}"
    if not isinstance(spec, dict):
        raise AtomSpecError(shape)
    atoms, order = spec.get("atoms", []), spec.get("order", [])
    if not (
        isinstance(atoms, list)
        and all(isinstance(a, str) for a in atoms)
        and isinstance(order, list)
        and all(
            isinstance(p, list) and len(p) == 2 and all(isinstance(a, str) for a in p)
            for p in order
        )
    ):
        raise AtomSpecError(shape)
    undeclared = sorted({a for p in order for a in p} - set(atoms))
    if undeclared:
        raise AtomSpecError(f"{path}: order names undeclared atoms: {', '.join(undeclared)}")
    return tuple(atoms), frozenset(tuple(p) for p in order)


def cmd_fmt(args) -> int:
    if args.moggi:
        print(moggi.m_print(_read_arg(args.term, moggi.m_parse)))
    else:
        print(print_term(_read_arg(args.term, parse_term)))
    return OK


def cmd_reduce(args) -> int:
    t = _read_arg(args.term, parse_term)
    if not is_comp(t):
        raise SortError("reduce expects a computation")
    out = reduction.normalize(t, args.rules, args.fuel)
    records = [
        {"rule": s.rule.value, "path": s.position_str(), "term": print_term(s.result)}
        for s in out.trace
    ]
    if args.json:
        print(json.dumps({"normal_form": out.normal_form, "term": print_term(out.term), "trace": records}))
    else:
        for r in records:
            print(f"{r['rule']}@{r['path']}  {r['term']}")
        if out.normal_form:
            print(f"normal form: {print_term(out.term)}")
        else:
            print(f"fuel-exhausted after {len(out.trace)}: {print_term(out.term)}")
    return OK if out.normal_form else INCONCLUSIVE


def cmd_eval(args) -> int:
    t = _read_arg(args.term, parse_term)
    if not is_comp(t):
        raise SortError("eval expects a computation")
    out = convergence.big_step(t, args.fuel)
    if out.status is convergence.Status.CONVERGES:
        print(f"converges: {print_term(out.value)}")
        return OK
    if out.status is convergence.Status.OPEN_TERM:
        raise filters.OpenVariableError("eval expects a closed computation")
    print(f"fuel-exhausted after {args.fuel}")
    return INCONCLUSIVE


def cmd_subtype(args) -> int:
    table = _table_from(args)
    a, b = parse_type(args.left), parse_type(args.right)
    if is_vtype(a) != is_vtype(b):
        raise SortError("types of different sorts")
    verdict = leq_v(a, b, table) if is_vtype(a) else leq_c(a, b, table)
    print("true" if verdict else "false")
    return OK if verdict else FALSE


def cmd_typecheck(args) -> int:
    with open(args.file) as fh:
        d = derivfile.parse_derivation(fh.read())
    report = check_derivation(d, _table_from(args))
    if args.json:
        print(json.dumps({"valid": report.valid, "errors": [
            {"path": list(p), "message": m} for p, m in report.errors
        ]}))
    else:
        print("valid" if report.valid else "invalid")
        for path, msg in report.errors:
            print(f"  at {'.'.join(map(str, path)) or 'root'}: {msg}")
    return OK if report.valid else FALSE


def cmd_infer(args) -> int:
    t = _read_arg(args.term, parse_term)
    table = _table_from(args)
    universe = enumerate_types(args.rank, args.width, table)
    found = infer_bounded((), t, universe, table)
    if is_comp(t):
        types = [print_type(to_ctype(c)) for c in found]
    else:
        types = [print_type(to_vtype(c)) for c in found]
    if args.json:
        print(json.dumps({"types": types, "rank": args.rank, "width": args.width}))
    else:
        for s in types:
            print(s)
    return OK


def cmd_translate(args) -> int:
    if args.to_moggi == args.from_moggi:
        raise UsageError("choose --to-moggi or --from-moggi")
    if args.to_moggi:
        print(moggi.m_print(moggi.to_moggi(_read_arg(args.term, parse_term))))
    else:
        print(print_term(moggi.from_moggi(_read_arg(args.term, moggi.m_parse))))
    return OK


def cmd_interp(args) -> int:
    table = _table_from(args)
    if args.table:
        dom = filters.build_domain(args.rank, table)
        print(_dot_order(dom))
        return OK
    t = _read_arg(args.term, parse_term)
    if not is_comp(t):
        raise SortError("interp expects a computation")
    e = filters.interp_closed(t, args.rank, table)
    print(print_type(to_ctype(e.gen)))
    return OK


def _dot_order(dom: filters.RankDomain) -> str:
    from .typesys import leq_canon_v

    names = {v: print_type(to_vtype(v)) for v in dom.values}
    lines = ["digraph order {", '  rankdir="BT";']
    for v in dom.values:
        lines.append(f'  "{names[v]}";')
    for a in dom.values:
        for b in dom.values:
            if a == b or not leq_canon_v(a, b, dom.table):
                continue
            # covering edges only
            if any(
                c not in (a, b)
                and leq_canon_v(a, c, dom.table)
                and leq_canon_v(c, b, dom.table)
                for c in dom.values
            ):
                continue
            lines.append(f'  "{names[a]}" -> "{names[b]}";')
    lines.append("}")
    return "\n".join(lines)


def cmd_prop(args) -> int:
    cfg = harness.GenConfig(
        seed=args.seed,
        cases=args.cases,
        max_size=args.max_size,
        fuel=args.fuel,
        rank_bound=args.rank,
        width_bound=args.width,
        atoms=_table_from(args),
    )
    rep = harness.run_suite(args.suite, cfg)
    if args.json:
        print(json.dumps(rep.to_json()))
    else:
        print(
            f"{rep.suite}: cases={rep.cases} passes={rep.passes} "
            f"inconclusive={rep.inconclusive} failures={len(rep.failures)}"
        )
        for f in rep.failures[:10]:
            print(f"  failure: {f}")
    return OK if rep.ok else FALSE


def non_negative_int(text: str) -> int:
    """argparse type for budgets, bounds and counts: a bad value is a usage
    error (exit 2), not a verdict."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ubcalc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, fuel=True, rank=False, width=False, atoms=True, as_json=True):
        if fuel:
            sp.add_argument("--fuel", type=non_negative_int, default=200)
        if rank:
            sp.add_argument("--rank", type=non_negative_int, default=2)
        if width:
            sp.add_argument("--width", type=non_negative_int, default=2)
        if atoms:
            sp.add_argument("--atoms", help="JSON file with atoms and order pairs")
            sp.add_argument("--eta", choices=("none", "scott", "park"), default="none")
            sp.add_argument("--eta-depth", type=non_negative_int, metavar="N",
                            help="how deep --eta unfolds atoms (default: --rank, or 2)")
        if as_json:
            sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("fmt", help="parse and pretty print a term")
    sp.add_argument("term")
    sp.add_argument("--moggi", action="store_true")
    sp.set_defaults(fn=cmd_fmt)

    sp = sub.add_parser("reduce", help="normalize with a step trace")
    sp.add_argument("term")
    sp.add_argument("--rules", type=rule_set, default="betac,id,ass")
    common(sp, atoms=False)
    sp.set_defaults(fn=cmd_reduce)

    sp = sub.add_parser("eval", help="big-step evaluate a closed computation")
    sp.add_argument("term")
    common(sp, atoms=False, as_json=False)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("subtype", help="decide a subtyping judgment")
    sp.add_argument("left")
    sp.add_argument("op", choices=("<=",))
    sp.add_argument("right")
    common(sp, fuel=False, rank=True, as_json=False)
    sp.set_defaults(fn=cmd_subtype)

    sp = sub.add_parser("typecheck", help="check a derivation file")
    sp.add_argument("file")
    common(sp, fuel=False)
    sp.set_defaults(fn=cmd_typecheck)

    sp = sub.add_parser("infer", help="bounded type inference")
    sp.add_argument("term")
    common(sp, fuel=False, rank=True, width=True)
    sp.set_defaults(fn=cmd_infer)

    sp = sub.add_parser("translate", help="translate to or from the let calculus")
    sp.add_argument("term")
    sp.add_argument("--to-moggi", action="store_true")
    sp.add_argument("--from-moggi", action="store_true")
    sp.set_defaults(fn=cmd_translate)

    sp = sub.add_parser("interp", help="finite-rank interpretation")
    sp.add_argument("term", nargs="?", default="")
    sp.add_argument("--table", action="store_true", help="dump the value lattice as DOT")
    common(sp, fuel=False, rank=True, as_json=False)
    sp.set_defaults(fn=cmd_interp)

    sp = sub.add_parser("prop", help="run a property suite")
    sp.add_argument("suite", choices=sorted(harness.SUITES))
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--cases", type=non_negative_int, default=100)
    sp.add_argument("--max-size", type=non_negative_int, default=25)
    common(sp, rank=True, width=True)
    sp.set_defaults(fn=cmd_prop)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE if e.code not in (0, None) else OK
    try:
        return args.fn(args)
    except USAGE_ERRORS as e:
        # KeyError subclasses quote their message when printed
        detail = e.args[0] if isinstance(e, KeyError) and e.args else e
        print(f"error: {type(e).__name__}: {detail}", file=sys.stderr)
        return USAGE
    except RecursionError:
        # a stopgap until the term walkers are iterative
        print("error: term nests too deeply for this interpreter's recursion limit", file=sys.stderr)
        return USAGE
    except filters.DomainSizeError as e:
        # the lattice size budget ran out: no verdict either way
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return INCONCLUSIVE
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return FALSE


if __name__ == "__main__":
    sys.exit(main())
