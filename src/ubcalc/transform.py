"""Derivation transformations along reduction steps.

reduce_derivation carries a valid derivation of the source of a step to
one of its contractum at the same type (subject reduction);
expand_derivation goes the other way (subject expansion).  Both are
purely syntactic constructions, validated by the checker, built from a
toolkit of derivation rewrites: basis strengthening, binding narrowing
(which also fixes a binding that was left at Wv), and one alignment walk
that retargets a derivation to an alpha-variant of its subject under a
rename map.  That walk does all of the renaming (alignment with an
alpha-equivalent term, binder freshening, and renaming a free
variable), adds bindings to every basis (weakening), and substitutes a
value's derivation for a variable (the substitution lemma) while it
aligns.  It, the expansion's rebuild and the walk down to a redex read
which part of the subject each premise types from the rule schema,
``assignment.RULES``.

Each step fixes one term to place at the redex.  Reduction places a
shadow-free contractum, a binder renamed only when it clashes with a
name in scope at the redex, and aligns each piece it builds there to it
once; a beta_c piece is substituted in that same walk.  The reduct keeps
every sub-derivation the step does not touch, as the same objects.
Expansion aligns the derivation once, up front, with a shadow-free
source; every piece it builds at the redex then types that source's
redex exactly.  The copies of the redex under an intersection therefore
agree on every name, and the walk down to the redex never realigns.

Returned derivations may type an alpha-renamed variant of the requested
term: the assignment system cannot type shadowed binders as written, so
the transformations freshen them away; callers compare subjects up to
alpha.

A derivation may share a sub-derivation between several places (as
synthesis builds them).  Every walk here memoises per call on node
identity plus its other arguments, so it rebuilds a shared node once
and a DAG in gives a DAG out.  A memo's keys are nodes and subterms
reachable from the call's arguments, so no identity is reused while
it lives.
"""
from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .reduction import Rule, Step, root_step
from .terms import (
    Bind,
    Comp,
    Lambda,
    Position,
    Term,
    Unit,
    Variable,
    _kid,
    all_vars,
    alpha_eq,
    replace_at,
    subst,
    subterm_at,
    unshadow,
    with_child,
)
from .typesys import (
    AnyType,
    AtomTable,
    C_OMEGA,
    CTf,
    EMPTY_TABLE,
    ValType,
    VArrow,
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
    RULES,
    Site,
    UNIT_I,
    arrow_e_node,
    arrow_i_node,
    ax,
    basis_dom,
    basis_extend,
    basis_get,
    inter_fold,
    leq_node,
    make_basis,
    omega_node,
    unit_node,
)


class TransformError(ValueError):
    pass


def _sites(d: Derivation) -> tuple[Site, ...]:
    """Where d's premises sit in its subject, from the rule schema."""
    if d.rule not in RULES:
        raise TransformError(f"unknown rule {d.rule!r}")
    return RULES[d.rule]


def _with(d: Derivation, basis: Basis, subject: Term, premises: tuple[Derivation, ...]) -> Derivation:
    """d's rule, type and side condition over a new basis, subject and premises."""
    return Derivation(d.rule, Judgment(basis, subject, d.conclusion.tipo), premises, d.side)


# ------------------------------------------------------------ name plumbing


def _deriv_vars(d: Derivation) -> frozenset[str]:
    """Every name d uses.  A premise's basis is its conclusion's, possibly
    extended with a binder of the subject, so the root holds them all."""
    return all_vars(d.conclusion.subject) | basis_dom(d.conclusion.basis)


def _align(
    d: Derivation,
    target: Term,
    ren: dict[str, str],
    x: str | None = None,
    dv: Derivation | None = None,
    extra: Basis = (),
) -> Derivation:
    """The one renaming walk: d retargeted to `target`, which must be d's
    subject up to alpha and up to the renaming `ren` of its free
    variables.  Every subject becomes the matching part of target and
    every basis key follows the renaming, binders included; `extra` is
    added to every basis, and no binder of target may be bound by it.

    Given x and dv, the walk also substitutes: target is d's subject
    with dv's subject V put for x.  x leaves every basis, and each Ax on
    x becomes dv aligned to that copy of V, weakened by the renamed
    bindings in scope there that dv's basis lacks.  target must be
    shadow-free and its binders clear of d's and dv's bases.

    A node met again at the same part of target under the same renaming
    is rebuilt once, so a DAG gives a DAG."""
    return _retarget(d, target, {k: v for k, v in ren.items() if k != v}, x, dv, extra, {})


def _retarget(
    d: Derivation,
    target: Term,
    ren: dict[str, str],
    x: str | None,
    dv: Derivation | None,
    extra: Basis,
    memo: dict[int, tuple[Term, dict[str, str], Derivation]],
) -> Derivation:
    """_align's walk; memo maps a node to its last retargeting."""
    if d.conclusion.subject is target and not ren and not extra and x is None:
        return d
    hit = memo.get(id(d))
    if hit is not None and hit[0] is target and hit[1] == ren:
        return hit[2]
    J = d.conclusion
    if x is not None and d.rule == AX and J.subject == Variable(x):
        dom = basis_dom(dv.conclusion.basis)
        scope = tuple((ren.get(n, n), t) for n, t in J.basis if n != x and ren.get(n, n) not in dom)
        out = _align(dv, target, {}, extra=extra + scope)
    else:
        if ren or extra or x is not None:
            basis = make_basis([*extra, *((ren.get(n, n), t) for n, t in J.basis if n != x)])
        else:
            basis = J.basis
        if extra and d.rule == ARROW_I and target.binder in basis_dom(extra):
            raise TransformError(f"weakening clashes with binder {target.binder}")
        premises = []
        for p, (_, field, scoped) in zip(d.premises, _sites(d)):
            part = target if field is None else getattr(target, field)
            inner = {**ren, J.subject.binder: target.binder} if scoped else ren
            if scoped and target.binder == J.subject.binder:
                del inner[target.binder]
            premises.append(_retarget(p, part, inner, x, dv, extra, memo))
        out = _with(d, basis, target, tuple(premises))
    memo[id(d)] = (target, ren, out)
    return out


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
    return _align(d, d.conclusion.subject, {}, extra=extra)


def strengthen_derivation(d: Derivation, drop: frozenset[str]) -> Derivation:
    """Remove bindings from every basis; fails if any Ax node uses one."""
    return _strengthen(d, drop, {})


def _strengthen(
    node: Derivation, dropped: frozenset[str], memo: dict[int, tuple[frozenset[str], Derivation]]
) -> Derivation:
    hit = memo.get(id(node))
    if hit is not None and hit[0] == dropped:
        return hit[1]
    J = node.conclusion
    if node.rule == AX and isinstance(J.subject, Variable) and J.subject.name in dropped:
        raise TransformError(f"cannot strengthen: {J.subject.name} is used")
    basis = tuple((n, t) for n, t in J.basis if n not in dropped)
    inner = dropped
    if node.rule == ARROW_I and J.subject.binder in dropped:
        inner = dropped - {J.subject.binder}
    out = _with(node, basis, J.subject, tuple(_strengthen(p, inner, memo) for p in node.premises))
    memo[id(node)] = (dropped, out)
    return out


def narrow_basis(d: Derivation, x: str, stronger: ValType, table: AtomTable) -> Derivation:
    """Replace the binding of x in every basis with a stronger type (one
    left at Wv takes any type), patching Ax nodes on x with a subtyping
    step."""
    old = basis_get(d.conclusion.basis, x)
    if not leq_v(stronger, old, table):
        raise TransformError("narrowing requires a stronger binding")
    return _narrow(d, x, stronger, {})


def _narrow(node: Derivation, x: str, stronger: ValType, memo: dict[int, Derivation]) -> Derivation:
    out = memo.get(id(node))
    if out is not None:
        return out
    J = node.conclusion
    basis = make_basis((n, stronger if n == x else t) for n, t in J.basis)
    if node.rule == ARROW_I and J.subject.binder == x:
        # rebinding shadows x below; only this node's basis changes
        out = _with(node, basis, J.subject, node.premises)
    elif node.rule == AX and J.subject == Variable(x):
        out = leq_node(Derivation(AX, Judgment(basis, J.subject, stronger)), J.tipo)
    else:
        out = _with(node, basis, J.subject, tuple(_narrow(p, x, stronger, memo) for p in node.premises))
    memo[id(node)] = out
    return out


def subst_derivation(d: Derivation, x: str, dv: Derivation) -> Derivation:
    """From (Gamma, x:delta |- M : tau) and (Gamma |- V : delta) build
    Gamma |- M[V/x] : tau.  dv's type must equal the binding of x.

    The result types an alpha-variant of M[V/x] whose binders are
    pairwise distinct and clear of every name d and dv use: each copy of
    V gets binders of its own."""
    binding = basis_get(d.conclusion.basis, x)
    if dv.conclusion.tipo != binding:
        raise TransformError("substituend derivation must match the binding type")
    avoid = _deriv_vars(d) | _deriv_vars(dv) | {x}
    return _align(d, unshadow(subst(d.conclusion.subject, x, dv.conclusion.subject), avoid), {}, x, dv)


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
                ks.append(_align(body, target, {}, binder, leq_node(vd, dk)))
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
    """(L * \\x.B) * \\y.N  -->  L * \\x.(B * \\y.N), x renamed fresh.  Each
    piece is built in target's names: the narrowed bodies, N's typing
    and L's typings are each aligned straight onto their part of it."""
    J = d.conclusion
    subj = J.subject
    assert isinstance(subj, Bind) and isinstance(subj.left, Bind)
    lam_t = target.right
    xstar = lam_t.binder
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
        narrowed = [
            _align(narrow_basis(body, binder, dhat, table), lam_t.body.left, {binder: xstar})
            for binder, body in collected
        ]
        b_at = _fold_below(narrowed, CTf(alpha), table)
        dn_w = _align(d_n, lam_t.body.right, {}, extra=((xstar, dhat),))
        inner = Derivation(ARROW_E, Judgment(b_at.conclusion.basis, lam_t.body, beta), (b_at, dn_w))
        lam = Derivation(ARROW_I, Judgment(J.basis, lam_t, VArrow(dhat, beta)), (inner,))
        l_at = _align(_fold_below(l_nodes, CTf(dhat), table), target.left, {})
        pieces.append(Derivation(ARROW_E, Judgment(J.basis, target, beta), (l_at, lam)))
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
    body_deriv = _rebuild(d, lam.body, x, collected, {})
    # a copy of V types it under the binders of B above the copy, which V does not use
    v_derivs = [strengthen_derivation(n, basis_dom(n.conclusion.basis) - basis_dom(J.basis)) for n in collected]
    vd = inter_fold(v_derivs) if v_derivs else omega_node(J.basis, source_sub.left.value)
    body_deriv = narrow_basis(body_deriv, x.name, vd.conclusion.tipo, table)
    built = arrow_e_node(unit_node(vd), arrow_i_node(body_deriv, x.name))
    return leq_node(built, J.tipo)


def _rebuild(
    node: Derivation,
    t: Term,
    x: Variable,
    collected: list[Derivation],
    memo: dict[int, tuple[Term, Derivation, int, int]],
) -> Derivation:
    """node, which types the copy of t in B[V/x], made to type t with x
    bound to Wv; each copy of V becomes an Ax on x, and is collected at
    every place it occurs.  memo maps a node to the part of B it was last
    made to type, the rebuilt node, and the span of `collected` that
    holds the copies of V below it."""
    hit = memo.get(id(node))
    if hit is not None and hit[0] is t:
        _, out, start, end = hit
        collected.extend(collected[start:end])
        return out
    start = len(collected)
    Jn = node.conclusion
    basis = basis_extend(Jn.basis, x.name, VOmega())
    if t == x:
        collected.append(node)
        out = Derivation(AX, Judgment(basis, x, Jn.tipo))
    else:
        parts = (t if field is None else getattr(t, field) for _, field, _ in _sites(node))
        premises = tuple(_rebuild(p, part, x, collected, memo) for p, part in zip(node.premises, parts))
        out = _with(node, basis, t, premises)
    memo[id(node)] = (t, out, start, len(collected))
    return out


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
    keep sharing their subject.  A node met again at the same depth is
    rebuilt once."""
    return _down(d, path, placed, at_redex, {})


def _down(
    d: Derivation,
    path: Position,
    placed: Term,
    at_redex: Callable[[Derivation], Derivation],
    memo: dict[tuple[int, int], Derivation],
) -> Derivation:
    key = (id(d), len(path))
    out = memo.get(key)
    if out is not None:
        return out
    J = d.conclusion
    if not path:
        out = at_redex(d)
    elif d.rule == OMEGA:
        out = Derivation(OMEGA, Judgment(J.basis, replace_at(J.subject, path, placed), J.tipo))
    else:
        sites = _sites(d)
        hits = [i for i, site in enumerate(sites) if site[0] in (None, path[0])]
        if not hits:
            raise TransformError(f"path {path} does not match rule {d.rule}")
        subject, premises = J.subject, list(d.premises)
        for i in hits:
            sel, field, _ = sites[i]
            premises[i] = _down(premises[i], path if sel is None else path[1:], placed, at_redex, memo)
            sub = premises[i].conclusion.subject
            subject = sub if sel is None else with_child(subject, field, sub)
        out = _with(d, J.basis, subject, tuple(premises))
    memo[key] = out
    return out


_REDUCE = {Rule.BETA_C: _reduce_betac, Rule.ID: _reduce_id, Rule.ASS: _reduce_ass}
_EXPAND = {Rule.BETA_C: _expand_betac, Rule.ID: _expand_id, Rule.ASS: _expand_ass}


def reduce_derivation(d: Derivation, step: Step, table: AtomTable = EMPTY_TABLE) -> Derivation:
    """Subject reduction: carry d (typing the step's source, up to alpha)
    to a valid derivation of the step's result at the same type."""
    if step.rule is Rule.ETA_C:
        raise TransformError("eta steps are outside the assignment system")
    root = redex = d.conclusion.subject
    scope = set(root.fv) | basis_dom(d.conclusion.basis)
    try:
        for sel in step.position:
            field, scoped = _kid(redex, sel)
            if scoped:
                scope.add(redex.binder)
            redex = getattr(redex, field)
        contractum = root_step(redex, step.rule)
    except ValueError:
        contractum = None
    if contractum is None:
        raise TransformError("derivation subject does not hold the step's redex")
    # one contractum for the whole step; only its binders that clash with
    # a name in scope at the redex are renamed, so each sub-derivation the
    # step leaves alone is kept as the same object
    target = unshadow(contractum, scope)
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
