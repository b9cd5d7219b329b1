"""Derivation transformations along reduction steps.

reduce_derivation carries a valid derivation of the source of a step to
one of its contractum at the same type (subject reduction);
expand_derivation goes the other way (subject expansion).  Both are
purely syntactic constructions, validated by the checker, built from a
toolkit of derivation rewrites: basis weakening and strengthening,
binding narrowing (which also fixes a binding that was left at Wv),
substitution, and one alignment walk that retargets a derivation to an
alpha-variant of its subject under a rename map.  That walk does all of
the renaming: alignment with an alpha-equivalent term, binder
freshening, and renaming a free variable.

Each step fixes one term to place at the redex.  Reduction places a
shadow-free contractum and aligns each piece it builds there to it once.
Expansion aligns the derivation once, up front, with a shadow-free
source; every piece it builds at the redex then types that source's
redex exactly.  The copies of the redex under an intersection therefore
agree on every name, and the walk down to the redex never realigns.

Returned derivations may type an alpha-renamed variant of the requested
term: the assignment system cannot type shadowed binders as written, so
the transformations freshen them away; callers compare subjects up to
alpha.
"""
from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .reduction import Rule, Step, root_step
from .terms import (
    BIND_LEFT,
    BIND_RIGHT,
    LAMBDA_BODY,
    UNIT_ARG,
    Bind,
    Comp,
    Lambda,
    Position,
    Term,
    Unit,
    Variable,
    all_vars,
    alpha_eq,
    fresh_var,
    replace_at,
    subst,
    subterm_at,
    unshadow,
)
from .typesys import (
    AnyType,
    AtomTable,
    C_OMEGA,
    CTf,
    EMPTY_TABLE,
    ValType,
    VOmega,
    is_vtype,
    leq_c,
    leq_v,
    normalize_ctype,
    print_type,
    to_vtype,
    vinter_all,
)
from .assignment import (
    ARROW_E,
    ARROW_I,
    AX,
    Basis,
    Derivation,
    INTER_I,
    Judgment,
    LEQ,
    OMEGA,
    UNIT_I,
    arrow_e_node,
    arrow_i_node,
    ax,
    basis_dom,
    basis_extend,
    basis_get,
    basis_remove,
    inter_fold,
    leq_node,
    omega_node,
    unit_node,
)


class TransformError(ValueError):
    pass


# ------------------------------------------------------------ name plumbing


def _deriv_vars(d: Derivation) -> frozenset[str]:
    out = set(all_vars(d.conclusion.subject)) | set(basis_dom(d.conclusion.basis))
    for p in d.premises:
        out |= _deriv_vars(p)
    return frozenset(out)


def _align(d: Derivation, target: Term, ren: dict[str, str]) -> Derivation:
    """The one renaming walk: d retargeted to `target`, which must be d's
    subject up to alpha and up to the renaming `ren` of its free
    variables.  Every subject becomes the matching part of target and
    every basis key follows the renaming, binders included."""
    J = d.conclusion
    basis = tuple(sorted(((ren.get(n, n), ty) for n, ty in J.basis), key=lambda it: it[0])) if ren else J.basis
    match d.rule:
        case "Ax" | "Omega":
            premises: tuple[Derivation, ...] = ()
        case "InterI" | "Leq":
            premises = tuple(_align(p, target, ren) for p in d.premises)
        case "ArrowI":
            premises = (_align(d.premises[0], target.body, {**ren, J.subject.binder: target.binder}),)
        case "UnitI":
            premises = (_align(d.premises[0], target.value, ren),)
        case "ArrowE":
            premises = (_align(d.premises[0], target.left, ren), _align(d.premises[1], target.right, ren))
        case _:
            raise TransformError(f"unknown rule {d.rule!r}")
    return Derivation(d.rule, Judgment(basis, target, J.tipo), premises, d.side)


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
        basis = tuple(sorted(dict(list(extra) + list(J.basis)).items(), key=lambda it: it[0]))
        return Derivation(
            node.rule,
            Judgment(basis, J.subject, J.tipo),
            tuple(walk(p) for p in node.premises),
            node.side,
        )

    return walk(d)


def strengthen_derivation(d: Derivation, drop: frozenset[str]) -> Derivation:
    """Remove bindings from every basis; fails if any Ax node uses one."""

    def walk(node: Derivation, dropped: frozenset[str]) -> Derivation:
        J = node.conclusion
        if node.rule == AX and isinstance(J.subject, Variable) and J.subject.name in dropped:
            raise TransformError(f"cannot strengthen: {J.subject.name} is used")
        basis = tuple((n, t) for n, t in J.basis if n not in dropped)
        inner = dropped
        if node.rule == ARROW_I and J.subject.binder in dropped:
            inner = dropped - {J.subject.binder}
        return Derivation(
            node.rule,
            Judgment(basis, J.subject, J.tipo),
            tuple(walk(p, inner) for p in node.premises),
            node.side,
        )

    return walk(d, drop)


def narrow_basis(d: Derivation, x: str, stronger: ValType, table: AtomTable) -> Derivation:
    """Replace the binding of x in every basis with a stronger type (one
    left at Wv takes any type), patching Ax nodes on x with a subtyping
    step."""
    old = basis_get(d.conclusion.basis, x)
    if not leq_v(stronger, old, table):
        raise TransformError("narrowing requires a stronger binding")

    def walk(node: Derivation) -> Derivation:
        J = node.conclusion
        basis = tuple(sorted(((n, stronger if n == x else t) for n, t in J.basis), key=lambda it: it[0]))
        if node.rule == ARROW_I and J.subject.binder == x:
            # rebinding shadows x below; only this node's basis changes
            return Derivation(node.rule, Judgment(basis, J.subject, J.tipo), node.premises, node.side)
        if node.rule == AX and J.subject == Variable(x):
            return leq_node(Derivation(AX, Judgment(basis, J.subject, stronger)), J.tipo)
        return Derivation(
            node.rule,
            Judgment(basis, J.subject, J.tipo),
            tuple(walk(p) for p in node.premises),
            node.side,
        )

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
        subject = subst(J.subject, x, v)
        return Derivation(
            node.rule,
            Judgment(basis, subject, J.tipo),
            tuple(walk(p) for p in node.premises),
            node.side,
        )

    return walk(d)


# --------------------------------------------------------------- extraction

# A valid derivation factors through Omega/InterI/Leq into rule-specific
# atoms whose conclusion types meet below the root type.


def _extract(d: Derivation, rule: str) -> list[Derivation]:
    if d.rule == OMEGA:
        return []
    if d.rule == INTER_I:
        return _extract(d.premises[0], rule) + _extract(d.premises[1], rule)
    if d.rule == LEQ:
        return _extract(d.premises[0], rule)
    if d.rule == rule:
        return [d]
    raise TransformError(f"unexpected rule {d.rule} while extracting {rule}")


def _extract_bind(d: Derivation) -> list[tuple[Derivation, Derivation]]:
    return [(n.premises[0], n.premises[1]) for n in _extract(d, ARROW_E)]


def _extract_lambda(d: Derivation) -> list[tuple[str, ValType, AnyType, Derivation]]:
    out = []
    for n in _extract(d, ARROW_I):
        t = n.conclusion.tipo
        out.append((n.conclusion.subject.binder, t.dom, t.cod, n.premises[0]))
    return out


def _extract_unit(d: Derivation) -> list[tuple[ValType, Derivation]]:
    return [(n.conclusion.tipo.arg, n.premises[0]) for n in _extract(d, UNIT_I)]


def _checked_leq(lo: AnyType, hi: AnyType, table: AtomTable) -> None:
    ok = leq_v(lo, hi, table) if is_vtype(lo) else leq_c(lo, hi, table)
    if not ok:
        raise TransformError(
            f"internal subtyping obligation failed: {print_type(lo)} <= {print_type(hi)}"
        )


def _omega_route(basis: Basis, subject: Term, target: AnyType, table: AtomTable) -> Derivation:
    lo: AnyType = VOmega() if is_vtype(target) else C_OMEGA
    _checked_leq(lo, target, table)
    return leq_node(omega_node(basis, subject), target)


def _fold_below(nodes: Sequence[Derivation], target: AnyType, table: AtomTable) -> Derivation:
    """The InterI fold of nodes, which share basis and subject, weakened
    to the target type."""
    folded = inter_fold(nodes)
    _checked_leq(folded.conclusion.tipo, target, table)
    return leq_node(folded, target)


def _fold_or_omega(
    nodes: Sequence[Derivation], basis: Basis, subject: Term, target: AnyType, table: AtomTable
) -> Derivation:
    return _fold_below(nodes, target, table) if nodes else _omega_route(basis, subject, target, table)


# ------------------------------------------------- subject reduction cases

# Each case types `target`, the contractum of its node's subject, and
# aligns every piece it folds to target once.


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


def _reduce_id(d: Derivation, target: Comp, table: AtomTable) -> Derivation:
    """M * \\x.unit x  -->  M."""
    J = d.conclusion
    pieces: list[Derivation] = []
    for dm, dvp in _extract_bind(d):
        out_i = dvp.conclusion.tipo.cod
        _checked_leq(dm.conclusion.tipo, out_i, table)
        pieces.append(align_derivation(leq_node(dm, out_i), target))
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


# -------------------------------------------------- subject expansion cases

# expand_derivation aligns the derivation once, to the contractum of a
# shadow-free source whose binders are also clear of the root basis.  A
# redex node's subject is then exactly the contractum of `source_sub`:
# substitution renamed nothing, no binder of source_sub is in scope at
# the node, and none is free in V.  So each case rebuilds source_sub
# itself from the node's parts and never renames.


def _expand_betac(source_sub: Comp, d: Derivation, table: AtomTable) -> Derivation:
    """From Gamma |- B[V/x] : tau build Gamma |- unit V * \\x.B : tau by
    collecting the types of the substituted copies of V."""
    J = d.conclusion
    assert isinstance(source_sub, Bind) and isinstance(source_sub.left, Unit)
    lam = source_sub.right
    assert isinstance(lam, Lambda)
    x = Variable(lam.binder)
    collected: list[Derivation] = []

    def rebuild(node: Derivation, t: Term) -> Derivation:
        """node, which types the copy of t in B[V/x], made to type t with
        x bound to Wv; each copy of V becomes an Ax on x."""
        Jn = node.conclusion
        basis = basis_extend(Jn.basis, x.name, VOmega())
        if t == x:
            collected.append(node)
            return Derivation(AX, Judgment(basis, x, Jn.tipo))
        match node.rule:
            case "Omega" | "Ax":
                premises: tuple[Derivation, ...] = ()
            case "InterI" | "Leq":
                premises = tuple(rebuild(p, t) for p in node.premises)
            case "ArrowI":
                premises = (rebuild(node.premises[0], t.body),)
            case "UnitI":
                premises = (rebuild(node.premises[0], t.value),)
            case "ArrowE":
                premises = (rebuild(node.premises[0], t.left), rebuild(node.premises[1], t.right))
            case _:
                raise TransformError(f"unknown rule {node.rule!r}")
        return Derivation(node.rule, Judgment(basis, t, Jn.tipo), premises, node.side)

    body_deriv = rebuild(d, lam.body)
    # a copy of V types it under the binders of B above the copy, which V does not use
    v_derivs = [strengthen_derivation(n, basis_dom(n.conclusion.basis) - basis_dom(J.basis)) for n in collected]
    vd = inter_fold(v_derivs) if v_derivs else omega_node(J.basis, source_sub.left.value)
    body_deriv = narrow_basis(body_deriv, x.name, vd.conclusion.tipo, table)
    built = arrow_e_node(unit_node(vd), arrow_i_node(body_deriv, x.name))
    return leq_node(built, J.tipo)


def _expand_id(source_sub: Comp, d: Derivation, table: AtomTable) -> Derivation:
    """From Gamma |- M : tau build Gamma |- M * \\x.unit x : tau."""
    J = d.conclusion
    assert isinstance(source_sub, Bind) and isinstance(source_sub.right, Lambda)
    canon = normalize_ctype(J.tipo, table)
    if canon.arg is None:
        return _omega_route(J.basis, source_sub, J.tipo, table)
    delta = to_vtype(canon.arg)
    x = source_sub.right.binder
    body = unit_node(ax(basis_extend(J.basis, x, delta), x))
    built = arrow_e_node(leq_node(d, CTf(delta)), arrow_i_node(body, x))
    return leq_node(built, J.tipo)


def _expand_ass(source_sub: Comp, d: Derivation, table: AtomTable) -> Derivation:
    """From Gamma |- L * \\x.(B * \\y.N) : tau build the typing of the
    redex (L * \\x.B) * \\y.N."""
    J = d.conclusion
    assert isinstance(source_sub, Bind) and isinstance(source_sub.left, Bind)
    pieces: list[Derivation] = []
    for d_l, d_lam in _extract_bind(d):
        beta = d_lam.conclusion.tipo.cod
        alpha = d_lam.conclusion.tipo.dom
        subpieces: list[Derivation] = []
        for binder, dk, _, body in _extract_lambda(d_lam):
            if not leq_v(alpha, dk, table):
                continue
            for db, dn in _extract_bind(body):
                gamma = dn.conclusion.tipo.dom
                lam_b = arrow_i_node(db, binder)
                _checked_leq(d_l.conclusion.tipo, CTf(dk), table)
                inner_bind = arrow_e_node(leq_node(d_l, CTf(dk)), lam_b)
                _checked_leq(inner_bind.conclusion.tipo, CTf(gamma), table)
                dn_s = strengthen_derivation(dn, frozenset({binder}))
                subpieces.append(arrow_e_node(leq_node(inner_bind, CTf(gamma)), dn_s))
        pieces.append(_fold_or_omega(subpieces, J.basis, source_sub, beta, table))
    return _fold_or_omega(pieces, J.basis, source_sub, J.tipo, table)


# ----------------------------------------------------------- path descent


def _descend(
    d: Derivation,
    path: Position,
    placed: Term,
    at_redex: Callable[[Derivation], Derivation],
) -> Derivation:
    """d with its subject's subterm at path replaced by `placed`.
    at_redex rebuilds each node that types the redex and must return a
    derivation of exactly `placed`; an Omega node above the redex just
    takes the new subject.  The premises of an InterI node therefore
    keep sharing their subject."""
    if not path:
        return at_redex(d)
    sel, rest = path[0], path[1:]
    J = d.conclusion
    match d.rule:
        case "Omega":
            return Derivation(OMEGA, Judgment(J.basis, replace_at(J.subject, path, placed), J.tipo))
        case "InterI" | "Leq":
            prems = tuple(_descend(p, path, placed, at_redex) for p in d.premises)
            return Derivation(d.rule, Judgment(J.basis, prems[0].conclusion.subject, J.tipo), prems, d.side)
        case "ArrowI" if sel == LAMBDA_BODY:
            prem = _descend(d.premises[0], rest, placed, at_redex)
            subj = Lambda(J.subject.binder, prem.conclusion.subject)
            return Derivation(ARROW_I, Judgment(J.basis, subj, J.tipo), (prem,), d.side)
        case "UnitI" if sel == UNIT_ARG:
            prem = _descend(d.premises[0], rest, placed, at_redex)
            return Derivation(
                UNIT_I, Judgment(J.basis, Unit(prem.conclusion.subject), J.tipo), (prem,), d.side
            )
        case "ArrowE" if sel == BIND_LEFT:
            pm = _descend(d.premises[0], rest, placed, at_redex)
            subj = Bind(pm.conclusion.subject, J.subject.right)
            return Derivation(ARROW_E, Judgment(J.basis, subj, J.tipo), (pm, d.premises[1]), d.side)
        case "ArrowE" if sel == BIND_RIGHT:
            pv = _descend(d.premises[1], rest, placed, at_redex)
            subj = Bind(J.subject.left, pv.conclusion.subject)
            return Derivation(ARROW_E, Judgment(J.basis, subj, J.tipo), (d.premises[0], pv), d.side)
    raise TransformError(f"path {path} does not match rule {d.rule}")


_REDUCE = {Rule.BETA_C: _reduce_betac, Rule.ID: _reduce_id, Rule.ASS: _reduce_ass}
_EXPAND = {Rule.BETA_C: _expand_betac, Rule.ID: _expand_id, Rule.ASS: _expand_ass}


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
    target = unshadow(contractum, all_vars(root) | basis_dom(d.conclusion.basis))
    reduce = _REDUCE[step.rule]
    return _descend(d, step.position, target, lambda node: reduce(node, target, table))


def expand_derivation(
    source: Comp,
    step: Step,
    d: Derivation,
    table: AtomTable = EMPTY_TABLE,
) -> Derivation:
    """Subject expansion: from a derivation of the step's result (up to
    alpha) build a valid derivation of the source at the same type.

    The derivation's subjects are first aligned with a shadow-free
    variant of the step result whose binders are also clear of the
    derivation's basis, so the redex reconstruction and the derivation
    agree on every bound name.
    """
    if step.rule is Rule.ETA_C:
        raise TransformError("eta steps are not covered by expansion")
    if not alpha_eq(d.conclusion.subject, step.result):
        raise TransformError("derivation does not type the step's result")
    src = unshadow(source, basis_dom(d.conclusion.basis))
    src_sub = subterm_at(src, step.position)
    contractum = root_step(src_sub, step.rule)
    if contractum is None:
        raise TransformError("source does not hold the step's redex")
    d = align_derivation(d, replace_at(src, step.position, contractum))
    expand = _EXPAND[step.rule]
    return _descend(d, step.position, src_sub, lambda node: expand(src_sub, node, table))
