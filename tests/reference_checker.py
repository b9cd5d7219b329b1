"""The derivation checker as it stood before it read the rule schema:
each rule's premise count, premise subjects and premise bases written
out by hand, and every node's basis checked at that node.  Kept as the
differential oracle of ``assignment.check_derivation``."""
from __future__ import annotations

from ubcalc.assignment import CheckReport, Derivation, basis_dom, basis_extend
from ubcalc.terms import Bind, Lambda, Unit, Variable, is_value
from ubcalc.typesys import (
    AtomTable,
    CInter,
    COmega,
    CTf,
    EMPTY_TABLE,
    VArrow,
    VInter,
    VOmega,
    is_vtype,
    leq_c,
    leq_v,
    print_type,
)


def _basis_errors(basis: Basis) -> list[str]:
    """A basis maps each variable once, to a value type."""
    errs: list[str] = []
    seen: set[str] = set()
    for name, t in basis:
        if name in seen:
            errs.append(f"{name} is bound twice in the basis")
        seen.add(name)
        if not is_vtype(t):
            errs.append(f"{name} is bound to a computation type")
    return errs


def _node_errors(d: Derivation, table: AtomTable) -> list[str]:
    J = d.conclusion
    subj, t = J.subject, J.tipo
    errs = _basis_errors(J.basis)
    if is_value(subj) != is_vtype(t):
        return errs + [f"sort mismatch between subject and type in {d.rule}"]
    prem = d.premises
    match d.rule:
        case "Ax":
            if prem:
                errs.append("Ax takes no premises")
            if not isinstance(subj, Variable):
                errs.append("Ax subject must be a variable")
            elif (subj.name, t) not in J.basis:
                errs.append(f"binding {subj.name}:{print_type(t)} not in basis")
        case "Omega":
            if prem:
                errs.append("Omega takes no premises")
            if not isinstance(t, (VOmega, COmega)):
                errs.append("Omega concludes the top type")
        case "ArrowI":
            if not (isinstance(subj, Lambda) and isinstance(t, VArrow)):
                errs.append("ArrowI needs an abstraction subject and arrow type")
            elif len(prem) != 1:
                errs.append("ArrowI takes one premise")
            else:
                p = prem[0].conclusion
                if subj.binder in basis_dom(J.basis):
                    errs.append(f"basis clash on {subj.binder}")
                if p.basis != basis_extend(J.basis, subj.binder, t.dom):
                    errs.append("premise basis is not the conclusion basis extended with the binder")
                if p.subject != subj.body:
                    errs.append("premise subject is not the abstraction body")
                if p.tipo != t.cod:
                    errs.append("premise type is not the arrow codomain")
        case "UnitI":
            if not (isinstance(subj, Unit) and isinstance(t, CTf)):
                errs.append("UnitI needs a unit subject and a T type")
            elif len(prem) != 1:
                errs.append("UnitI takes one premise")
            else:
                p = prem[0].conclusion
                if p.basis != J.basis or p.subject != subj.value or p.tipo != t.arg:
                    errs.append("UnitI premise must type the wrapped value at the T argument")
        case "ArrowE":
            if not isinstance(subj, Bind):
                errs.append("ArrowE subject must be a bind")
            elif len(prem) != 2:
                errs.append("ArrowE takes two premises")
            else:
                pm, pv = prem[0].conclusion, prem[1].conclusion
                if pm.basis != J.basis or pv.basis != J.basis:
                    errs.append("ArrowE premises must share the conclusion basis")
                if pm.subject != subj.left or pv.subject != subj.right:
                    errs.append("ArrowE premises must type the bind operands")
                if not isinstance(pm.tipo, CTf) or not isinstance(pv.tipo, VArrow):
                    errs.append("ArrowE premises need a T type and an arrow type")
                else:
                    if pv.tipo.cod != t:
                        errs.append("conclusion type is not the arrow codomain")
                    if not leq_v(pm.tipo.arg, pv.tipo.dom, table):
                        errs.append(
                            f"content {print_type(pm.tipo.arg)} does not entail the "
                            f"argument type {print_type(pv.tipo.dom)}"
                        )
        case "InterI":
            if not isinstance(t, (VInter, CInter)):
                errs.append("InterI concludes an intersection")
            elif len(prem) != 2:
                errs.append("InterI takes two premises")
            else:
                pl, pr = prem[0].conclusion, prem[1].conclusion
                if pl.basis != J.basis or pr.basis != J.basis or pl.subject != subj or pr.subject != subj:
                    errs.append("InterI premises must share basis and subject")
                if pl.tipo != t.left or pr.tipo != t.right:
                    errs.append("InterI premises must match the intersection components")
        case "Leq":
            if len(prem) != 1:
                errs.append("Leq takes one premise")
            elif d.side is None:
                errs.append("Leq needs a subtyping witness")
            else:
                p = prem[0].conclusion
                lo, hi = d.side
                if p.basis != J.basis or p.subject != subj:
                    errs.append("Leq premise must share basis and subject")
                if p.tipo != lo or t != hi:
                    errs.append("Leq witness must connect premise and conclusion types")
                else:
                    ok = leq_v(lo, hi, table) if is_vtype(lo) else leq_c(lo, hi, table)
                    if not ok:
                        errs.append(
                            f"subtyping side condition fails: "
                            f"{print_type(lo)} <= {print_type(hi)}"
                        )
        case _:
            errs.append(f"unknown rule {d.rule!r}")
    return errs


def check_derivation(d: Derivation, table: AtomTable = EMPTY_TABLE) -> CheckReport:
    report = CheckReport(True)

    def walk(node: Derivation, path: tuple[int, ...]) -> None:
        for msg in _node_errors(node, table):
            report.valid = False
            report.errors.append((path, msg))
        for i, p in enumerate(node.premises):
            walk(p, path + (i,))

    walk(d, ())
    return report
