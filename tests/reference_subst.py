"""Subject reduction as it stood before substitution became part of the
alignment walk: each beta_c piece freshens dv, then d, walks d
substituting and weakening a copy of dv at every Ax on x, and realigns
the result with the contractum; the associativity case freshens the
right-hand derivation and weakens it in two walks.  The rewrites below
are that code, copied verbatim.  Kept as the byte-identity oracle of
``transform.reduce_derivation``."""
from __future__ import annotations

from typing import Iterable

from ubcalc.assignment import (
    ARROW_I,
    AX,
    Basis,
    Derivation,
    arrow_e_node,
    arrow_i_node,
    basis_dom,
    basis_get,
    basis_remove,
    inter_fold,
    leq_node,
    make_basis,
    omega_node,
)
from ubcalc.reduction import Rule, Step, root_step
from ubcalc.terms import (
    Bind,
    Comp,
    Lambda,
    Term,
    Unit,
    Variable,
    all_vars,
    alpha_eq,
    fresh_var,
    positions,
    subst,
    subterm_at,
    unshadow,
)
from ubcalc.transform import (
    TransformError,
    _checked_leq,
    _deriv_vars,
    _descend,
    _extract_bind,
    _extract_lambda,
    _extract_unit,
    _fold_below,
    _fold_or_omega,
    _omega_route,
    _reduce_id,
    _sites,
    _with,
    narrow_basis,
)
from ubcalc.typesys import AtomTable, CTf, EMPTY_TABLE, ValType, leq_v, vinter_all


def _align(d: Derivation, target: Term, ren: dict[str, str]) -> Derivation:
    """The one renaming walk: d retargeted to `target`, which must be d's
    subject up to alpha and up to the renaming `ren` of its free
    variables.  Every subject becomes the matching part of target and
    every basis key follows the renaming, binders included."""
    J = d.conclusion
    basis = make_basis((ren.get(n, n), ty) for n, ty in J.basis) if ren else J.basis
    premises = []
    for p, (_, field, scoped) in zip(d.premises, _sites(d)):
        part = target if field is None else getattr(target, field)
        premises.append(_align(p, part, {**ren, J.subject.binder: target.binder} if scoped else ren))
    return _with(d, basis, target, tuple(premises))


def align_derivation(d: Derivation, target: Term) -> Derivation:
    """Rewrite subjects (and basis keys for binders) so the derivation
    types the alpha-equivalent `target` instead."""
    if d.conclusion.subject == target:
        # each node of a valid derivation already types its part of target
        return d
    if not alpha_eq(d.conclusion.subject, target):
        raise TransformError("alignment target is not alpha-equivalent")
    return _align(d, target, {})


def freshen_derivation(d: Derivation, avoid: Iterable[str] = ()) -> Derivation:
    """Rename every abstraction binder in d to a globally fresh name, no
    two alike."""
    return _align(d, unshadow(d.conclusion.subject, _deriv_vars(d).union(avoid)), {})


def weaken_derivation(d: Derivation, extra: Basis) -> Derivation:
    """Add bindings to every basis; clashing binders must be freshened first."""
    extra_names = basis_dom(extra)

    def walk(node: Derivation) -> Derivation:
        J = node.conclusion
        if node.rule == ARROW_I and J.subject.binder in extra_names:
            raise TransformError(f"weakening clashes with binder {J.subject.binder}")
        basis = make_basis(list(extra) + list(J.basis))
        return _with(node, basis, J.subject, tuple(walk(p) for p in node.premises))

    return walk(d)


def subst_derivation(d: Derivation, x: str, dv: Derivation, table: AtomTable = EMPTY_TABLE) -> Derivation:
    """From (Gamma, x:delta |- M : tau) and (Gamma |- V : delta) build
    Gamma |- M[V/x] : tau.  dv's type must equal the binding of x."""
    binding = basis_get(d.conclusion.basis, x)
    if dv.conclusion.tipo != binding:
        raise TransformError("substituend derivation must match the binding type")
    avoid = _deriv_vars(d) | _deriv_vars(dv) | {x}
    dv = freshen_derivation(dv, avoid)
    v = dv.conclusion.subject
    d = freshen_derivation(d, avoid | _deriv_vars(dv) | v.fv)

    def walk(node: Derivation) -> Derivation:
        J = node.conclusion
        basis = basis_remove(J.basis, x)
        if node.rule == AX and J.subject == Variable(x):
            extra = tuple((n, t) for n, t in basis if n not in basis_dom(dv.conclusion.basis))
            return weaken_derivation(dv, extra)
        return _with(node, basis, subst(J.subject, x, v), tuple(walk(p) for p in node.premises))

    return walk(d)


def _reduce_betac(d: Derivation, target: Comp, table: AtomTable) -> Derivation:
    """unit V * \\x.B  -->  B[V/x], carrying the typing forward."""
    J = d.conclusion
    subj = J.subject
    assert isinstance(subj, Bind) and isinstance(subj.left, Unit) and isinstance(subj.right, Lambda)
    v = subj.left.value
    pieces: list[Derivation] = []
    for dm, dvp in _extract_bind(d):
        arrow = dvp.conclusion.tipo
        unit_atoms = _extract_unit(dm)
        vd = inter_fold([dvx for _, dvx in unit_atoms]) if unit_atoms else omega_node(J.basis, v)
        ks: list[Derivation] = []
        for binder, dk, _, body in _extract_lambda(dvp):
            if leq_v(arrow.dom, dk, table):
                _checked_leq(vd.conclusion.tipo, dk, table)
                ks.append(align_derivation(subst_derivation(body, binder, leq_node(vd, dk), table), target))
        pieces.append(_fold_or_omega(ks, J.basis, target, arrow.cod, table))
    return _fold_or_omega(pieces, J.basis, target, J.tipo, table)


def _reduce_ass(d: Derivation, target: Comp, table: AtomTable) -> Derivation:
    """(L * \\x.B) * \\y.N  -->  L * \\x.(B * \\y.N), x renamed fresh."""
    J = d.conclusion
    subj = J.subject
    assert isinstance(subj, Bind) and isinstance(subj.left, Bind)
    pieces: list[Derivation] = []
    for d_lb, d_n in _extract_bind(d):
        alpha = d_n.conclusion.tipo.dom
        beta = d_n.conclusion.tipo.cod
        collected: list[tuple[str, Derivation]] = []
        l_nodes: list[Derivation] = []
        doms: list[ValType] = []
        for d_l, d_b in _extract_bind(d_lb):
            gamma = d_b.conclusion.tipo.dom
            fams = _extract_lambda(d_b)
            keep = [(b, dk, body) for b, dk, _, body in fams if leq_v(gamma, dk, table)]
            if not keep:
                continue
            l_nodes.append(d_l)
            for b, dk, body in keep:
                doms.append(dk)
                collected.append((b, body))
        if not collected:
            pieces.append(_omega_route(J.basis, target, beta, table))
            continue
        dhat = vinter_all(doms)
        xstar = fresh_var(
            frozenset().union(*(_deriv_vars(b) for _, b in collected))
            | _deriv_vars(d_n) | all_vars(subj) | basis_dom(J.basis)
        )
        narrowed = []
        for binder, body in collected:
            nb = narrow_basis(body, binder, dhat, table)
            narrowed.append(_align(nb, subst(nb.conclusion.subject, binder, Variable(xstar)), {binder: xstar}))
        b_at = _fold_below(narrowed, CTf(alpha), table)
        dn_w = freshen_derivation(d_n, _deriv_vars(b_at) | {xstar})
        dn_w = weaken_derivation(dn_w, ((xstar, dhat),))
        lam = arrow_i_node(arrow_e_node(b_at, dn_w), xstar)
        l_at = _fold_below(l_nodes, CTf(dhat), table)
        pieces.append(align_derivation(arrow_e_node(l_at, lam), target))
    return _fold_or_omega(pieces, J.basis, target, J.tipo, table)


_REDUCE = {Rule.BETA_C: _reduce_betac, Rule.ID: _reduce_id, Rule.ASS: _reduce_ass}


def reduce_derivation(d: Derivation, step: Step, table: AtomTable = EMPTY_TABLE) -> Derivation:
    """Subject reduction: carry d (typing the step's source, up to alpha)
    to a valid derivation of the step's result at the same type."""
    if step.rule is Rule.ETA_C:
        raise TransformError("eta steps are outside the assignment system")
    root = d.conclusion.subject
    try:
        contractum = root_step(subterm_at(root, step.position), step.rule)
    except ValueError:
        contractum = None
    if contractum is None:
        raise TransformError("derivation subject does not hold the step's redex")
    # one contractum for the whole step, its binders clear of every name
    # in scope at the redex
    above = {s.binder for p, s in positions(root) if isinstance(s, Lambda) and p == step.position[:len(p)] != step.position}
    target = unshadow(contractum, root.fv | basis_dom(d.conclusion.basis) | above)
    reduce = _REDUCE[step.rule]
    return _descend(d, step.position, target, lambda node: reduce(node, target, table))
