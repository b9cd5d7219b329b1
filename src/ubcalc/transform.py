"""Derivation transformations along reduction steps.

reduce_derivation carries a valid derivation of the source of a step to
one of its contractum at the same type (subject reduction);
expand_derivation goes the other way (subject expansion).  Both are
purely syntactic constructions, validated by the checker, built from a
toolkit of derivation rewrites: binder freshening, basis weakening and
strengthening, binding narrowing, substitution, and alignment of a
derivation's subjects with an alpha-equivalent target term.

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


class _NameSupply:
    def __init__(self, avoid: Iterable[str]):
        self.avoid = set(avoid)

    def fresh(self) -> str:
        i = 0
        while f"x{i}" in self.avoid:
            i += 1
        name = f"x{i}"
        self.avoid.add(name)
        return name


def _rename_free(d: Derivation, old: str, new: str) -> Derivation:
    """Rename free occurrences of a variable in subjects and basis keys;
    `new` must be globally fresh for the tree."""
    J = d.conclusion
    basis = tuple(sorted(((new if n == old else n, t) for n, t in J.basis), key=lambda it: it[0]))
    subject = subst(J.subject, old, Variable(new))
    shadows = d.rule == ARROW_I and isinstance(J.subject, Lambda) and J.subject.binder == old
    premises = (
        d.premises
        if shadows
        else tuple(_rename_free(p, old, new) for p in d.premises)
    )
    return Derivation(d.rule, Judgment(basis, subject, J.tipo), premises, d.side)


def freshen_derivation(d: Derivation, avoid: Iterable[str] = ()) -> Derivation:
    """Rename every abstraction binder in d to a globally fresh name."""
    supply = _NameSupply(set(avoid) | _deriv_vars(d))

    def walk(node: Derivation) -> Derivation:
        premises = tuple(walk(p) for p in node.premises)
        J = node.conclusion
        if node.rule == ARROW_I and isinstance(J.subject, Lambda):
            new = supply.fresh()
            prem = _rename_free(premises[0], J.subject.binder, new)
            return Derivation(
                ARROW_I,
                Judgment(J.basis, Lambda(new, prem.conclusion.subject), J.tipo),
                (prem,),
                node.side,
            )
        if node.rule == INTER_I:
            # independently freshened siblings must share their subject again
            premises = (
                premises[0],
                align_derivation(premises[1], premises[0].conclusion.subject),
            )
        subject = J.subject
        if premises:
            subject = _resubject(node.rule, J.subject, premises)
        return Derivation(node.rule, Judgment(J.basis, subject, J.tipo), premises, node.side)

    return walk(d)


def _resubject(rule: str, subject: Term, premises: tuple[Derivation, ...]) -> Term:
    """Recompute a node subject from renamed premise subjects."""
    if rule in (INTER_I, LEQ):
        return premises[0].conclusion.subject
    if rule == UNIT_I:
        return Unit(premises[0].conclusion.subject)
    if rule == ARROW_E:
        return Bind(premises[0].conclusion.subject, premises[1].conclusion.subject)
    return subject


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
    """Replace the binding of x with a stronger type, patching Ax nodes
    with a subtyping step."""
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


def align_derivation(d: Derivation, target: Term) -> Derivation:
    """Rewrite subjects (and basis keys for binders) so the derivation
    types the alpha-equivalent `target` instead."""
    if not alpha_eq(d.conclusion.subject, target):
        raise TransformError("alignment target is not alpha-equivalent")

    def walk(node: Derivation, t: Term, ren: dict[str, str]) -> Derivation:
        J = node.conclusion
        basis = tuple(sorted(((ren.get(n, n), ty) for n, ty in J.basis), key=lambda it: it[0]))
        match node.rule:
            case "Ax" | "Omega":
                return Derivation(node.rule, Judgment(basis, t, J.tipo))
            case "InterI" | "Leq":
                prems = tuple(walk(p, t, ren) for p in node.premises)
                return Derivation(node.rule, Judgment(basis, t, J.tipo), prems, node.side)
            case "ArrowI":
                assert isinstance(t, Lambda)
                inner = {**ren, J.subject.binder: t.binder}
                prem = walk(node.premises[0], t.body, inner)
                return Derivation(ARROW_I, Judgment(basis, t, J.tipo), (prem,), node.side)
            case "UnitI":
                assert isinstance(t, Unit)
                prem = walk(node.premises[0], t.value, ren)
                return Derivation(UNIT_I, Judgment(basis, t, J.tipo), (prem,), node.side)
            case "ArrowE":
                assert isinstance(t, Bind)
                pm = walk(node.premises[0], t.left, ren)
                pv = walk(node.premises[1], t.right, ren)
                return Derivation(ARROW_E, Judgment(basis, t, J.tipo), (pm, pv), node.side)
        raise TransformError(f"unknown rule {node.rule!r}")

    return walk(d, target, {})


def fold_aligned(nodes: Sequence[Derivation]) -> Derivation:
    """InterI fold after aligning all subjects with the first node's."""
    assert nodes
    target = nodes[0].conclusion.subject
    aligned = [nodes[0]] + [align_derivation(n, target) for n in nodes[1:]]
    return inter_fold(aligned)


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


# ------------------------------------------------- subject reduction cases


def _reduce_betac(d: Derivation, table: AtomTable) -> Derivation:
    """unit V * \\x.B  -->  B[V/x], carrying the typing forward."""
    J = d.conclusion
    subj = J.subject
    assert isinstance(subj, Bind) and isinstance(subj.left, Unit) and isinstance(subj.right, Lambda)
    v = subj.left.value
    contractum = subst(subj.right.body, subj.right.binder, v)
    pieces: list[Derivation] = []
    for dm, dvp in _extract_bind(d):
        arrow = dvp.conclusion.tipo
        out_i = arrow.cod
        unit_atoms = _extract_unit(dm)
        fams = _extract_lambda(dvp)
        keep = [(b, dk, body) for b, dk, _, body in fams if leq_v(arrow.dom, dk, table)]
        if not keep:
            pieces.append(_omega_route(J.basis, contractum, out_i, table))
            continue
        ks: list[Derivation] = []
        for binder, dk, body in keep:
            vd = fold_aligned([dvx for _, dvx in unit_atoms]) if unit_atoms else omega_node(J.basis, v)
            _checked_leq(vd.conclusion.tipo, dk, table)
            vd = leq_node(vd, dk)
            ks.append(subst_derivation(body, binder, vd, table))
        folded = fold_aligned(ks)
        _checked_leq(folded.conclusion.tipo, out_i, table)
        pieces.append(leq_node(folded, out_i))
    if not pieces:
        return _omega_route(J.basis, contractum, J.tipo, table)
    folded = fold_aligned(pieces)
    _checked_leq(folded.conclusion.tipo, J.tipo, table)
    return leq_node(folded, J.tipo)


def _reduce_id(d: Derivation, table: AtomTable) -> Derivation:
    """M * \\x.unit x  -->  M."""
    J = d.conclusion
    assert isinstance(J.subject, Bind)
    pieces: list[Derivation] = []
    for dm, dvp in _extract_bind(d):
        out_i = dvp.conclusion.tipo.cod
        _checked_leq(dm.conclusion.tipo, out_i, table)
        pieces.append(leq_node(dm, out_i))
    if not pieces:
        return _omega_route(J.basis, J.subject.left, J.tipo, table)
    folded = fold_aligned(pieces)
    _checked_leq(folded.conclusion.tipo, J.tipo, table)
    return leq_node(folded, J.tipo)


def _reduce_ass(d: Derivation, table: AtomTable) -> Derivation:
    """(L * \\x.B) * \\y.N  -->  L * \\x.(B * \\y.N), x renamed fresh."""
    J = d.conclusion
    subj = J.subject
    assert isinstance(subj, Bind) and isinstance(subj.left, Bind)
    contractum = root_step(subj, Rule.ASS)
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
            pieces.append(_omega_route(J.basis, contractum, beta, table))
            continue
        dhat = vinter_all(doms)
        supply = _NameSupply(
            set().union(*(_deriv_vars(b) for _, b in collected))
            | _deriv_vars(d_n) | all_vars(subj) | basis_dom(J.basis)
        )
        xstar = supply.fresh()
        narrowed = []
        for binder, body in collected:
            nb = narrow_basis(body, binder, dhat, table)
            narrowed.append(_rename_free(nb, binder, xstar))
        b_fold = fold_aligned(narrowed)
        t_alpha = CTf(alpha)
        _checked_leq(b_fold.conclusion.tipo, t_alpha, table)
        b_at = leq_node(b_fold, t_alpha)
        dn_w = freshen_derivation(d_n, _deriv_vars(b_at) | {xstar})
        dn_w = weaken_derivation(dn_w, ((xstar, dhat),))
        inner_bind = arrow_e_node(b_at, dn_w)
        lam = arrow_i_node(inner_bind, xstar)
        l_fold = fold_aligned(l_nodes)
        _checked_leq(l_fold.conclusion.tipo, CTf(dhat), table)
        l_at = leq_node(l_fold, CTf(dhat))
        pieces.append(arrow_e_node(l_at, lam))
    if not pieces:
        return _omega_route(J.basis, contractum, J.tipo, table)
    folded = fold_aligned(pieces)
    _checked_leq(folded.conclusion.tipo, J.tipo, table)
    return leq_node(folded, J.tipo)


# -------------------------------------------------- subject expansion cases


def _var_positions(t: Term, x: str) -> list[Position]:
    out: list[Position] = []

    def walk(s: Term, pos: Position) -> None:
        match s:
            case Variable(name):
                if name == x:
                    out.append(pos)
            case Lambda(binder, body):
                if binder != x:
                    walk(body, pos + (LAMBDA_BODY,))
            case Unit(v):
                walk(v, pos + (UNIT_ARG,))
            case Bind(left, right):
                walk(left, pos + (BIND_LEFT,))
                walk(right, pos + (BIND_RIGHT,))

    walk(t, ())
    return out


def _set_binding(d: Derivation, x: str, t: ValType) -> Derivation:
    """Fix the type bound to x in every basis, patching Ax nodes on x."""

    def walk(node: Derivation) -> Derivation:
        J = node.conclusion
        basis = tuple(sorted(((n, t if n == x else ty) for n, ty in J.basis), key=lambda it: it[0]))
        if node.rule == AX and J.subject == Variable(x):
            return leq_node(Derivation(AX, Judgment(basis, J.subject, t)), J.tipo)
        return Derivation(
            node.rule,
            Judgment(basis, J.subject, J.tipo),
            tuple(walk(p) for p in node.premises),
            node.side,
        )

    return walk(d)


def _expand_betac(source_sub: Comp, d: Derivation, table: AtomTable) -> Derivation:
    """From Gamma |- B[V/x] : tau build Gamma |- unit V * \\x.B : tau by
    collecting the types of the substituted copies of V."""
    J = d.conclusion
    assert isinstance(source_sub, Bind) and isinstance(source_sub.left, Unit)
    lam = source_sub.right
    assert isinstance(lam, Lambda)
    v = source_sub.left.value
    occurrences = _var_positions(lam.body, lam.binder)
    d = freshen_derivation(d, all_vars(source_sub))
    supply = _NameSupply(_deriv_vars(d) | all_vars(source_sub))
    xhat = supply.fresh()
    collected: list[Derivation] = []

    def rebuild(node: Derivation, pos: Position) -> Derivation:
        Jn = node.conclusion
        rel = [p[len(pos):] for p in occurrences if p[: len(pos)] == pos]
        basis = basis_extend(Jn.basis, xhat, VOmega())
        if () in rel:
            collected.append(node)
            return Derivation(AX, Judgment(basis, Variable(xhat), Jn.tipo))
        new_subject = Jn.subject
        for r in rel:
            new_subject = replace_at(new_subject, r, Variable(xhat))
        match node.rule:
            case "Omega" | "Ax":
                return Derivation(node.rule, Judgment(basis, new_subject, Jn.tipo))
            case "InterI" | "Leq":
                prems = tuple(rebuild(p, pos) for p in node.premises)
                return Derivation(node.rule, Judgment(basis, new_subject, Jn.tipo), prems, node.side)
            case "ArrowI":
                prem = rebuild(node.premises[0], pos + (LAMBDA_BODY,))
                return Derivation(ARROW_I, Judgment(basis, new_subject, Jn.tipo), (prem,), node.side)
            case "UnitI":
                prem = rebuild(node.premises[0], pos + (UNIT_ARG,))
                return Derivation(UNIT_I, Judgment(basis, new_subject, Jn.tipo), (prem,), node.side)
            case "ArrowE":
                pm = rebuild(node.premises[0], pos + (BIND_LEFT,))
                pv = rebuild(node.premises[1], pos + (BIND_RIGHT,))
                return Derivation(ARROW_E, Judgment(basis, new_subject, Jn.tipo), (pm, pv), node.side)
        raise TransformError(f"unknown rule {node.rule!r}")

    body_deriv = rebuild(d, ())
    v_clean = unshadow(v, _deriv_vars(d) | basis_dom(J.basis) | {xhat})
    v_derivs = []
    for node in collected:
        extra = basis_dom(node.conclusion.basis) - basis_dom(J.basis)
        nd = strengthen_derivation(node, frozenset(extra))
        v_derivs.append(align_derivation(nd, v_clean))
    if v_derivs:
        vd = inter_fold(v_derivs)
        delta: ValType = vd.conclusion.tipo
    else:
        vd = omega_node(J.basis, v_clean)
        delta = VOmega()
    body_deriv = _set_binding(body_deriv, xhat, delta)
    built = arrow_e_node(unit_node(vd), arrow_i_node(body_deriv, xhat))
    return leq_node(built, J.tipo)


def _expand_id(source_sub: Comp, d: Derivation, table: AtomTable) -> Derivation:
    """From Gamma |- M : tau build Gamma |- M * \\x.unit x : tau."""
    J = d.conclusion
    assert isinstance(source_sub, Bind) and isinstance(source_sub.right, Lambda)
    canon = normalize_ctype(J.tipo, table)
    if canon.arg is None:
        return _omega_route(J.basis, Bind(J.subject, source_sub.right), J.tipo, table)
    delta = to_vtype(canon.arg)
    supply = _NameSupply(_deriv_vars(d) | all_vars(source_sub))
    x = source_sub.right.binder
    xh = x if x not in basis_dom(J.basis) else supply.fresh()
    dm = leq_node(d, CTf(delta))
    body = unit_node(ax(basis_extend(J.basis, xh, delta), xh))
    built = arrow_e_node(dm, arrow_i_node(body, xh))
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
        fams = _extract_lambda(d_lam)
        keep = [(b, dk, body) for b, dk, _, body in fams if leq_v(alpha, dk, table)]
        if not keep:
            pieces.append(_omega_route(J.basis, source_sub, beta, table))
            continue
        subpieces: list[Derivation] = []
        for binder, dk, body in keep:
            for db, dn in _extract_bind(body):
                gamma = dn.conclusion.tipo.dom
                lam_b = arrow_i_node(db, binder)
                _checked_leq(d_l.conclusion.tipo, CTf(dk), table)
                inner_bind = arrow_e_node(leq_node(d_l, CTf(dk)), lam_b)
                _checked_leq(inner_bind.conclusion.tipo, CTf(gamma), table)
                dn_s = strengthen_derivation(dn, frozenset({binder}))
                subpieces.append(arrow_e_node(leq_node(inner_bind, CTf(gamma)), dn_s))
        if not subpieces:
            pieces.append(_omega_route(J.basis, source_sub, beta, table))
            continue
        folded = fold_aligned(subpieces)
        _checked_leq(folded.conclusion.tipo, beta, table)
        pieces.append(leq_node(folded, beta))
    if not pieces:
        return _omega_route(J.basis, source_sub, J.tipo, table)
    folded = fold_aligned(pieces)
    _checked_leq(folded.conclusion.tipo, J.tipo, table)
    return leq_node(folded, J.tipo)


# ----------------------------------------------------------- path descent


def _descend(
    d: Derivation,
    path: Position,
    at_redex: Callable[[Derivation], Derivation],
    at_omega: Callable[[Derivation, Position], Term],
) -> Derivation:
    if not path:
        return at_redex(d)
    sel, rest = path[0], path[1:]
    J = d.conclusion
    match d.rule:
        case "Omega":
            return Derivation(OMEGA, Judgment(J.basis, at_omega(d, path), J.tipo))
        case "InterI":
            pl = _descend(d.premises[0], path, at_redex, at_omega)
            pr = _descend(d.premises[1], path, at_redex, at_omega)
            pr = align_derivation(pr, pl.conclusion.subject)
            subj = pl.conclusion.subject
            return Derivation(INTER_I, Judgment(J.basis, subj, J.tipo), (pl, pr), d.side)
        case "Leq":
            prem = _descend(d.premises[0], path, at_redex, at_omega)
            subj = prem.conclusion.subject
            return Derivation(LEQ, Judgment(J.basis, subj, J.tipo), (prem,), d.side)
        case "ArrowI" if sel == LAMBDA_BODY:
            prem = _descend(d.premises[0], rest, at_redex, at_omega)
            subj = Lambda(J.subject.binder, prem.conclusion.subject)
            return Derivation(ARROW_I, Judgment(J.basis, subj, J.tipo), (prem,), d.side)
        case "UnitI" if sel == UNIT_ARG:
            prem = _descend(d.premises[0], rest, at_redex, at_omega)
            return Derivation(
                UNIT_I, Judgment(J.basis, Unit(prem.conclusion.subject), J.tipo), (prem,), d.side
            )
        case "ArrowE" if sel == BIND_LEFT:
            pm = _descend(d.premises[0], rest, at_redex, at_omega)
            subj = Bind(pm.conclusion.subject, J.subject.right)
            return Derivation(ARROW_E, Judgment(J.basis, subj, J.tipo), (pm, d.premises[1]), d.side)
        case "ArrowE" if sel == BIND_RIGHT:
            pv = _descend(d.premises[1], rest, at_redex, at_omega)
            subj = Bind(J.subject.left, pv.conclusion.subject)
            return Derivation(ARROW_E, Judgment(J.basis, subj, J.tipo), (d.premises[0], pv), d.side)
    raise TransformError(f"path {path} does not match rule {d.rule}")


def reduce_derivation(d: Derivation, step: Step, table: AtomTable = EMPTY_TABLE) -> Derivation:
    """Subject reduction: carry d (typing the step's source, up to alpha)
    to a valid derivation of the step's result at the same type."""
    if step.rule is Rule.ETA_C:
        raise TransformError("eta steps are outside the assignment system")

    def at_redex(node: Derivation) -> Derivation:
        if step.rule is Rule.BETA_C:
            return _reduce_betac(node, table)
        if step.rule is Rule.ID:
            return _reduce_id(node, table)
        return _reduce_ass(node, table)

    def at_omega(node: Derivation, rest: Position) -> Term:
        subj = node.conclusion.subject
        sub = subterm_at(subj, rest)
        contractum = root_step(sub, step.rule)
        if contractum is None:
            raise TransformError("omega subject does not hold the redex")
        return replace_at(subj, rest, contractum)

    return _descend(d, step.position, at_redex, at_omega)


def expand_derivation(
    source: Comp,
    step: Step,
    d: Derivation,
    table: AtomTable = EMPTY_TABLE,
) -> Derivation:
    """Subject expansion: from a derivation of the step's result (up to
    alpha) build a valid derivation of the source at the same type.

    The derivation's subjects are first aligned with a shadow-free
    variant of the step result, so the redex reconstruction and the
    derivation agree on every bound name.
    """
    if step.rule is Rule.ETA_C:
        raise TransformError("eta steps are not covered by expansion")
    if not alpha_eq(d.conclusion.subject, step.result):
        raise TransformError("derivation does not type the step's result")
    src = unshadow(source)
    src_sub = subterm_at(src, step.position)
    contractum = root_step(src_sub, step.rule)
    if contractum is None:
        raise TransformError("source does not hold the step's redex")
    d = align_derivation(d, replace_at(src, step.position, contractum))

    def at_redex(node: Derivation) -> Derivation:
        if step.rule is Rule.BETA_C:
            return _expand_betac(src_sub, node, table)
        if step.rule is Rule.ID:
            return _expand_id(src_sub, node, table)
        return _expand_ass(src_sub, node, table)

    def at_omega(node: Derivation, rest: Position) -> Term:
        return replace_at(node.conclusion.subject, rest, src_sub)

    return _descend(d, step.position, at_redex, at_omega)
