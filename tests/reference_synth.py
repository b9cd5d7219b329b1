"""Derivation synthesis as it stood before it read the evaluator's types:
the generation lemma worked through top-down against a target, asking
the bounded evaluator again at every level and building one ArrowI per
universe point above each target arrow.  Kept as the differential
oracle of ``assignment.synth_derivation``."""
from __future__ import annotations

from typing import Sequence

from ubcalc.assignment import (
    Basis,
    Derivation,
    Unsynthesizable,
    _canon_basis,
    _Minimal,
    arrow_e_node,
    arrow_i_node,
    ax,
    basis_dom,
    basis_extend,
    basis_get,
    inter_fold,
    leq_node,
    omega_node,
    unit_node,
)
from ubcalc.terms import Bind, Lambda, Term, Unit, Variable, unshadow
from ubcalc.typesys import (
    AnyType,
    AtomTable,
    CanonV,
    COmega,
    CTf,
    EMPTY_TABLE,
    VArrow,
    VOmega,
    is_vtype,
    leq_c,
    leq_canon_v,
    leq_v,
    normalize_vtype,
    print_type,
    to_ctype,
    to_vtype,
)


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
    return _synth(basis, cb, subject, target, _Minimal(universe, table), {})


def _trivial(t: AnyType, table: AtomTable) -> bool:
    return leq_v(VOmega(), t, table) if is_vtype(t) else leq_c(COmega(), t, table)


_SynthMemo = dict[tuple[int, Basis, AnyType], Derivation]


def _synth(
    basis: Basis,
    cb: dict[str, CanonV],
    subject: Term,
    target: AnyType,
    ev: _Minimal,
    memo: _SynthMemo,
) -> Derivation:
    """The derivation of basis |- subject : target, built once per request
    of one synth_derivation call (cb is a function of basis, and every
    subject is a subterm of the call's, alive with it): an abstraction
    typed at several arrows whose domains lie below one universe point
    shares that point's body derivation, so the result is a DAG."""
    key = (id(subject), basis, target)
    d = memo.get(key)
    if d is None:
        d = memo[key] = _synth_node(basis, cb, subject, target, ev, memo)
    return d


def _synth_node(
    basis: Basis,
    cb: dict[str, CanonV],
    subject: Term,
    target: AnyType,
    ev: _Minimal,
    memo: _SynthMemo,
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
                    sub = _synth(basis_extend(basis, x, to_vtype(point)), inner, body, to_ctype(out), ev, memo)
                    nodes.append(arrow_i_node(sub, x))
            return leq_node(inter_fold(nodes), target)
        case Unit(v):
            low = ev.value(v, cb)
            if not leq_c(CTf(to_vtype(low)), target, table):
                raise Unsynthesizable(f"unit not typable at {print_type(target)}")
            sub = _synth(basis, cb, v, to_vtype(low), ev, memo)
            return leq_node(unit_node(sub), target)
        case Bind(left, right):
            t = ev.comp(left, cb)
            if t.arg is None:
                raise Unsynthesizable("left operand has no non-trivial type")
            out = ev.comp(subject, cb)
            if not leq_c(to_ctype(out), target, table):
                raise Unsynthesizable(f"bind not typable at {print_type(target)}")
            arg_ast = to_vtype(t.arg)
            dm = _synth(basis, cb, left, CTf(arg_ast), ev, memo)
            dv = _synth(basis, cb, right, VArrow(arg_ast, to_ctype(out)), ev, memo)
            return leq_node(arrow_e_node(dm, dv), target)
    raise TypeError(f"not a term: {subject!r}")
