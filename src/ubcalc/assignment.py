"""Type assignment for the unit/bind calculus.

Judgments assign value types to values and computation types to
computations over a finite basis.  Derivations are explicit trees with
rules Ax, ArrowI, UnitI, ArrowE, Omega, InterI and Leq, checkable node
by node.  On top of the checker sit bounded inference relative to a
finite type universe, derivation synthesis, and the constructive
transformations carrying a derivation forward along a reduction step
(subject reduction) or backward (subject expansion).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .terms import (
    Bind,
    Comp,
    Lambda,
    ScopedMemo,
    Term,
    Unit,
    Value,
    Variable,
    is_value,
    unshadow,
)
from .typesys import (
    AnyType,
    AtomTable,
    C_OMEGA,
    CanonC,
    CanonV,
    ComType,
    CTf,
    CInter,
    COmega,
    EMPTY_TABLE,
    TOP_C,
    TOP_V,
    ValType,
    VArrow,
    VInter,
    VOmega,
    _make_canon_v,
    apply_canon,
    is_vtype,
    leq_c,
    leq_canon_c,
    leq_canon_v,
    leq_v,
    normalize_vtype,
    print_type,
    tcan,
    to_ctype,
    to_vtype,
)

# ------------------------------------------------------------------- bases

Basis = tuple[tuple[str, ValType], ...]

AX, ARROW_I, UNIT_I, ARROW_E, OMEGA, INTER_I, LEQ = (
    "Ax",
    "ArrowI",
    "UnitI",
    "ArrowE",
    "Omega",
    "InterI",
    "Leq",
)

# The rule schema: for each premise, where its subject sits in the
# conclusion's.  A child of the subject is named as terms declare it in
# KIDS, (selector, field, whether the binder scopes over it); SAME is the
# subject itself.  Ax and Omega take no premises.
Site = tuple[Optional[str], Optional[str], bool]
SAME: Site = (None, None, False)
RULES: dict[str, tuple[Site, ...]] = {
    AX: (),
    ARROW_I: Lambda.KIDS,
    UNIT_I: Unit.KIDS,
    ARROW_E: Bind.KIDS,
    OMEGA: (),
    INTER_I: (SAME, SAME),
    LEQ: (SAME,),
}


def make_basis(bindings: Iterable[tuple[str, ValType]] = ()) -> Basis:
    items = sorted(dict(bindings).items())
    return tuple(items)


def basis_get(basis: Basis, x: str) -> ValType:
    for name, t in basis:
        if name == x:
            return t
    return VOmega()


def basis_dom(basis: Basis) -> frozenset[str]:
    return frozenset(name for name, _ in basis)


def basis_extend(basis: Basis, x: str, t: ValType) -> Basis:
    return make_basis(list(basis) + [(x, t)])


def basis_remove(basis: Basis, x: str) -> Basis:
    return tuple((n, t) for n, t in basis if n != x)


# -------------------------------------------------------------- derivations


@dataclass(frozen=True)
class Judgment:
    basis: Basis
    subject: Term
    tipo: AnyType


@dataclass(frozen=True)
class Derivation:
    rule: str
    conclusion: Judgment
    premises: tuple["Derivation", ...] = ()
    side: Optional[tuple[AnyType, AnyType]] = None


@dataclass
class CheckReport:
    valid: bool
    errors: list[tuple[tuple[int, ...], str]] = field(default_factory=list)


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


# --------------------------------------------------------- node constructors


def ax(basis: Basis, x: str) -> Derivation:
    return Derivation(AX, Judgment(basis, Variable(x), basis_get(basis, x)))


def omega_node(basis: Basis, subject: Term) -> Derivation:
    t: AnyType = VOmega() if is_value(subject) else COmega()
    return Derivation(OMEGA, Judgment(basis, subject, t))


def leq_node(premise: Derivation, target: AnyType) -> Derivation:
    J = premise.conclusion
    if J.tipo == target:
        return premise
    return Derivation(
        LEQ, Judgment(J.basis, J.subject, target), (premise,), (J.tipo, target)
    )


def inter_fold(nodes: Sequence[Derivation]) -> Derivation:
    assert nodes
    acc = nodes[0]
    for n in nodes[1:]:
        J = acc.conclusion
        t = (VInter if is_vtype(J.tipo) else CInter)(J.tipo, n.conclusion.tipo)
        acc = Derivation(INTER_I, Judgment(J.basis, J.subject, t), (acc, n))
    return acc


def unit_node(premise: Derivation) -> Derivation:
    J = premise.conclusion
    return Derivation(
        UNIT_I, Judgment(J.basis, Unit(J.subject), CTf(J.tipo)), (premise,)
    )


def arrow_i_node(premise: Derivation, binder: str) -> Derivation:
    J = premise.conclusion
    dom = basis_get(J.basis, binder)
    return Derivation(
        ARROW_I,
        Judgment(basis_remove(J.basis, binder), Lambda(binder, J.subject), VArrow(dom, J.tipo)),
        (premise,),
    )


def arrow_e_node(comp_premise: Derivation, value_premise: Derivation) -> Derivation:
    jm, jv = comp_premise.conclusion, value_premise.conclusion
    assert isinstance(jv.tipo, VArrow)
    return Derivation(
        ARROW_E,
        Judgment(jm.basis, Bind(jm.subject, jv.subject), jv.tipo.cod),
        (comp_premise, value_premise),
    )


# ---------------------------------------------------------- bounded inference


def _canon_basis(basis: Basis, table: AtomTable) -> tuple[tuple[str, CanonV], ...]:
    return tuple((x, normalize_vtype(t, table)) for x, t in basis)


class _Minimal:
    """Bounded inference over one term tree and one universe.

    An abstraction's argument ranges over the universe; a unit is typed
    from its value's type by ``unit`` (``tcan`` for inference; the filter
    interpreter truncates into its rank).  Abstractions and binds are
    memoised on (node, basis types of their free variables), so a closed
    abstraction runs its body once per evaluator rather than once per
    enclosing universe point."""

    __slots__ = ("universe", "table", "unit", "memo")

    def __init__(
        self,
        universe: Sequence[CanonV],
        table: AtomTable,
        unit: Callable[[CanonV], CanonC] = tcan,
    ) -> None:
        self.universe = universe
        self.table = table
        self.unit = unit
        self.memo = ScopedMemo()

    def value(self, v: Value, basis: dict[str, CanonV]) -> CanonV:
        match v:
            case Variable(name):
                return basis.get(name, TOP_V)
            case Lambda(x, body):
                return self.memo.cached(v, basis, lambda: self._lambda(x, body, basis))
        raise TypeError(f"not a value: {v!r}")

    def comp(self, m: Comp, basis: dict[str, CanonV]) -> CanonC:
        match m:
            case Unit(v):
                return self.unit(self.value(v, basis))
            case Bind(left, right):
                return self.memo.cached(m, basis, lambda: self._bind(left, right, basis))
        raise TypeError(f"not a computation: {m!r}")

    def _lambda(self, x: str, body: Comp, basis: dict[str, CanonV]) -> CanonV:
        arrows = [(p, self.comp(body, {**basis, x: p})) for p in self.universe]
        return _make_canon_v((), arrows, self.table)

    def _bind(self, left: Comp, right: Value, basis: dict[str, CanonV]) -> CanonC:
        t = self.comp(left, basis)
        if t.arg is None:
            return TOP_C
        return apply_canon(self.value(right, basis), t.arg, self.table)


def minimal_value(
    v: Value,
    basis: dict[str, CanonV],
    universe: Sequence[CanonV],
    table: AtomTable = EMPTY_TABLE,
) -> CanonV:
    """Strongest derivable value type with abstraction arguments drawn
    from the universe (complete relative to the universe only)."""
    return _Minimal(universe, table).value(v, basis)


def minimal_comp(
    m: Comp,
    basis: dict[str, CanonV],
    universe: Sequence[CanonV],
    table: AtomTable = EMPTY_TABLE,
) -> CanonC:
    return _Minimal(universe, table).comp(m, basis)


def infer_bounded(
    basis: Basis,
    subject: Term,
    universe: tuple[Sequence[CanonV], Sequence[CanonC]],
    table: AtomTable = EMPTY_TABLE,
) -> list[CanonV] | list[CanonC]:
    """All universe classes derivable for the subject, the top class always
    included; complete relative to derivations whose abstraction argument
    types come from the universe."""
    uvals, ucomps = universe
    cb = dict(_canon_basis(basis, table))
    if is_value(subject):
        low = minimal_value(subject, cb, uvals, table)
        return [u for u in uvals if leq_canon_v(low, u, table)]
    low = minimal_comp(subject, cb, uvals, table)
    return [u for u in ucomps if leq_canon_c(low, u, table)]


def typable_nontrivial(
    m: Comp,
    universe: tuple[Sequence[CanonV], Sequence[CanonC]],
    table: AtomTable = EMPTY_TABLE,
) -> Optional[ComType]:
    """A non-trivial computation type for a closed m, or None if the
    bounded search finds only the top class (inconclusive)."""
    if m.fv:
        raise ValueError("typable_nontrivial expects a closed computation")
    low = minimal_comp(m, {}, universe[0], table)
    if low.arg is None:
        return None
    return to_ctype(low)


# ------------------------------------------------------------ synthesis


class Unsynthesizable(ValueError):
    pass


def synth_derivation(
    basis: Basis,
    subject: Term,
    target: AnyType,
    universe: Sequence[CanonV],
    table: AtomTable = EMPTY_TABLE,
) -> Derivation:
    """Build a checkable derivation of basis |- subject : target, with
    abstraction argument types drawn from the universe.  Shadowed binders
    are alpha-renamed away (the rules cannot type them as written), so
    the returned subject is alpha-equivalent to the request.  Raises
    Unsynthesizable when the bounded minimal type does not entail the
    target."""
    cb = dict(_canon_basis(basis, table))
    subject = unshadow(subject, basis_dom(basis))
    # one evaluator for the whole recursion: every level asks for minimal
    # types of subterms of the same tree
    return _synth(basis, cb, subject, target, _Minimal(universe, table))


def _trivial(t: AnyType, table: AtomTable) -> bool:
    return leq_v(VOmega(), t, table) if is_vtype(t) else leq_c(COmega(), t, table)


def _synth(
    basis: Basis,
    cb: dict[str, CanonV],
    subject: Term,
    target: AnyType,
    ev: _Minimal,
) -> Derivation:
    table = ev.table
    if _trivial(target, table):
        return leq_node(omega_node(basis, subject), target)
    match subject:
        case Variable(name):
            if name not in basis_dom(basis):
                raise Unsynthesizable(f"open variable {name}")
            if not leq_v(basis_get(basis, name), target, table):
                raise Unsynthesizable(f"{name} not typable at {print_type(target)}")
            return leq_node(ax(basis, name), target)
        case Lambda(x, body):
            if not leq_canon_v(ev.value(subject, cb), normalize_vtype(target, table), table):
                raise Unsynthesizable(f"abstraction not typable at {print_type(target)}")
            canon = normalize_vtype(target, table)
            if canon.atoms:
                raise Unsynthesizable("abstractions have no atomic types")
            nodes = []
            for d, _ in canon.arrows:
                for point in ev.universe:
                    if not leq_canon_v(d, point, table):
                        continue
                    inner = {**cb, x: point}
                    out = ev.comp(body, inner)
                    sub = _synth(basis_extend(basis, x, to_vtype(point)), inner, body, to_ctype(out), ev)
                    nodes.append(arrow_i_node(sub, x))
            return leq_node(inter_fold(nodes), target)
        case Unit(v):
            low = ev.value(v, cb)
            if not leq_c(CTf(to_vtype(low)), target, table):
                raise Unsynthesizable(f"unit not typable at {print_type(target)}")
            sub = _synth(basis, cb, v, to_vtype(low), ev)
            return leq_node(unit_node(sub), target)
        case Bind(left, right):
            t = ev.comp(left, cb)
            if t.arg is None:
                raise Unsynthesizable("left operand has no non-trivial type")
            out = ev.comp(subject, cb)
            if not leq_c(to_ctype(out), target, table):
                raise Unsynthesizable(f"bind not typable at {print_type(target)}")
            arg_ast = to_vtype(t.arg)
            dm = _synth(basis, cb, left, CTf(arg_ast), ev)
            dv = _synth(basis, cb, right, VArrow(arg_ast, to_ctype(out)), ev)
            return leq_node(arrow_e_node(dm, dv), target)
    raise TypeError(f"not a term: {subject!r}")
