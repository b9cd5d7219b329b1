"""Type assignment for the unit/bind calculus.

Judgments assign value types to values and computation types to
computations over a finite basis.  Derivations are explicit trees with
rules Ax, ArrowI, UnitI, ArrowE, Omega, InterI and Leq, checkable node
by node; a built derivation may share a sub-derivation between several
places, and the transforms and the checker handle a shared node once per
call.  On top of the checker sit bounded inference relative to a finite
type universe, which is also the filter interpreter; derivation
synthesis, which derives exactly the types that inference computes and
weakens the result to the target; and the constructive transformations
carrying a derivation forward along a reduction step (subject reduction)
or backward (subject expansion).
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
    V_OMEGA,
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


# What each rule concludes: the subject's and the type's constructors
# (object where any will do), and how to say it.
_CONCLUDES: dict[str, tuple[type | tuple[type, ...], type | tuple[type, ...], str]] = {
    AX: (Variable, object, "a variable"),
    ARROW_I: (Lambda, VArrow, "an abstraction at an arrow type"),
    UNIT_I: (Unit, CTf, "a unit at a T type"),
    ARROW_E: (Bind, object, "a bind"),
    OMEGA: (object, (VOmega, COmega), "the top type"),
    INTER_I: (object, (VInter, CInter), "an intersection"),
    LEQ: (object, object, "any judgment"),
}


def _node_errors(d: Derivation, table: AtomTable) -> list[str]:
    """The errors of one node, given that its conclusion's basis is valid.
    The rule schema gives each premise's subject and basis; only the type
    relation is checked rule by rule."""
    J = d.conclusion
    subj, t = J.subject, J.tipo
    if d.rule not in RULES:
        return [f"unknown rule {d.rule!r}"]
    if is_value(subj) != is_vtype(t):
        return [f"sort mismatch between subject and type in {d.rule}"]
    subj_cls, type_cls, shape = _CONCLUDES[d.rule]
    if not (isinstance(subj, subj_cls) and isinstance(t, type_cls)):
        return [f"{d.rule} concludes {shape}"]
    sites = RULES[d.rule]
    if len(d.premises) != len(sites):
        return [f"{d.rule} takes {len(sites)} premise(s), not {len(d.premises)}"]
    errs = []
    for i, (_, field, scoped) in enumerate(sites):
        pj = d.premises[i].conclusion
        part = subj if field is None else getattr(subj, field)
        # built derivations share their subterms: identity settles most
        if pj.subject is not part and pj.subject != part:
            errs.append(f"premise {i} does not type the subject" + (f"'s {field}" if field else ""))
        if pj.basis != (basis_extend(J.basis, subj.binder, t.dom) if scoped else J.basis):
            errs.append(f"premise {i} basis is not the conclusion's" + (" plus the binder" if scoped else ""))
    prem = [p.conclusion.tipo for p in d.premises]
    match d.rule:
        case "Ax":
            if (subj.name, t) not in J.basis:
                errs.append(f"binding {subj.name}:{print_type(t)} not in basis")
        case "ArrowI":
            if subj.binder in basis_dom(J.basis):
                errs.append(f"basis clash on {subj.binder}")
            if not is_vtype(t.dom):
                errs.append("arrow domain is not a value type")
            if prem[0] != t.cod:
                errs.append("premise type is not the arrow codomain")
        case "UnitI":
            if prem[0] != t.arg:
                errs.append("premise type is not the T argument")
        case "ArrowE":
            tm, tv = prem
            if not isinstance(tm, CTf) or not isinstance(tv, VArrow):
                errs.append("ArrowE premises need a T type and an arrow type")
            else:
                if tv.cod != t:
                    errs.append("conclusion type is not the arrow codomain")
                if not leq_v(tm.arg, tv.dom, table):
                    arg, dom = print_type(tm.arg), print_type(tv.dom)
                    errs.append(f"content {arg} does not entail the argument type {dom}")
        case "InterI":
            if prem != [t.left, t.right]:
                errs.append("InterI premises must match the intersection components")
        case "Leq":
            if d.side is None:
                errs.append("Leq needs a subtyping witness")
            elif prem[0] != d.side[0] or t != d.side[1]:
                errs.append("Leq witness must connect premise and conclusion types")
            elif is_vtype(d.side[0]) != is_vtype(t):
                errs.append("Leq witness relates types of different sorts")
            elif not (leq_v if is_vtype(t) else leq_c)(*d.side, table):
                lo, hi = map(print_type, d.side)
                errs.append(f"subtyping side condition fails: {lo} <= {hi}")
    return errs


def check_derivation(d: Derivation, table: AtomTable = EMPTY_TABLE) -> CheckReport:
    """Check every node.  Only the root's basis is checked as such: every
    premise's is compared with the one its node expects.

    A node's errors depend only on the node, its premises' conclusions
    and the table, so the errors of a subtree are found once per node
    object, with paths relative to it, and prefixed at every place a
    shared node occurs: the report is the tree walk's, in its order."""
    errors = [((), msg) for msg in _basis_errors(d.conclusion.basis)] + _subtree_errors(d, table, {})
    return CheckReport(not errors, errors)


def _subtree_errors(
    node: Derivation, table: AtomTable, memo: dict[int, list[tuple[tuple[int, ...], str]]]
) -> list[tuple[tuple[int, ...], str]]:
    errs = memo.get(id(node))
    if errs is None:
        msgs = _node_errors(node, table)
        errs = [((), msg) for msg in msgs] if msgs else []
        for i, p in enumerate(node.premises):
            sub = _subtree_errors(p, table, memo)
            if sub:
                errs += [((i, *path), msg) for path, msg in sub]
        memo[id(node)] = errs
    return errs


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
    enclosing universe point.  ``derive`` builds the derivation of the
    types it computes."""

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

    def derive(self, t: Term, basis: Basis, cb: dict[str, CanonV], arg: Optional[CanonV] = None) -> Derivation:
        """The derivation of basis |- t at exactly the type this evaluator
        gives t under cb (basis in canonical form), read from its memo.
        With arg, t is the function of a bind whose argument has type arg,
        and an abstraction keeps only the arrows whose domain arg entails."""
        c = self.value(t, cb) if is_value(t) else self.comp(t, cb)
        if c.is_top:
            return omega_node(basis, t)
        match t:
            case Variable(name):
                return leq_node(ax(basis, name), to_vtype(c))
            case Lambda(x, body):
                return inter_fold([
                    arrow_i_node(self.derive(body, basis_extend(basis, x, to_vtype(p)), {**cb, x: p}), x)
                    for p, _ in c.arrows
                    if arg is None or leq_canon_v(arg, p, self.table)
                ])
            case Unit(v):
                return leq_node(unit_node(self.derive(v, basis, cb)), to_ctype(c))
            case Bind(left, right):
                a = self.comp(left, cb).arg
                fun = leq_node(self.derive(right, basis, cb, a), VArrow(to_vtype(a), to_ctype(c)))
                return arrow_e_node(self.derive(left, basis, cb), fun)
        raise TypeError(f"not a term: {t!r}")


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


def minimal_derivation(
    basis: Basis,
    subject: Term,
    universe: Sequence[CanonV],
    table: AtomTable = EMPTY_TABLE,
) -> Derivation:
    """A checkable derivation of basis |- subject at its strongest bounded
    type, abstraction argument types drawn from the universe; an Omega
    node when that type is the top class.  Shadowed binders are
    alpha-renamed away (the rules cannot type them as written), so the
    derivation's subject is alpha-equivalent to the request."""
    subject = unshadow(subject, basis_dom(basis))
    return _Minimal(universe, table).derive(subject, basis, dict(_canon_basis(basis, table)))


def synth_derivation(
    basis: Basis,
    subject: Term,
    target: AnyType,
    universe: Sequence[CanonV],
    table: AtomTable = EMPTY_TABLE,
) -> Derivation:
    """Build a checkable derivation of basis |- subject : target: the
    ``minimal_derivation``, weakened to the target, or Omega weakened to
    a target the top class entails.  Raises Unsynthesizable when the
    subject and the target are of different sorts, or when the minimal
    type does not entail the target."""
    sorts = ("computation", "value")
    if is_value(subject) != is_vtype(target):
        raise Unsynthesizable(
            f"a {sorts[is_value(subject)]} subject has no {sorts[is_vtype(target)]} type"
        )
    leq, top = (leq_v, V_OMEGA) if is_vtype(target) else (leq_c, C_OMEGA)
    if leq(top, target, table):
        return leq_node(omega_node(basis, unshadow(subject, basis_dom(basis))), target)
    d = minimal_derivation(basis, subject, universe, table)
    low = d.conclusion.tipo
    if not leq(low, target, table):
        raise Unsynthesizable(f"minimal type {print_type(low)} does not entail {print_type(target)}")
    return leq_node(d, target)
