"""Differential tests of the shared term kernel.

The one schema-driven kernel in ``ubcalc.terms`` (``fv``, ``all_vars``,
``subst``, alpha keys, ``positions``, ``replace_at``) replaced a
recursive copy per calculus.  Those copies are kept here as references,
with the let-calculus step enumeration and the unit/bind position walk
built on them, and the kernel must agree with them on generated terms of
both calculi, on translation images and on their one-step reducts.
"""
import copy
import itertools
import pickle

import pytest

from ubcalc.harness import GenConfig, gen_mterm, gen_terms
from ubcalc.moggi import (
    MApp,
    MLam,
    MLet,
    MRule,
    MStep,
    MVar,
    from_moggi,
    is_mvalue,
    m_enumerate_steps,
    to_moggi,
)
from ubcalc.reduction import ALL_RULES, Rule, Step, enumerate_steps
from ubcalc.terms import (
    BIND_LEFT,
    BIND_RIGHT,
    LAMBDA_BODY,
    UNIT_ARG,
    Bind,
    Lambda,
    Unit,
    Variable,
    all_vars,
    alpha_key,
    fresh_var,
    positions,
    replace_at,
    subst,
    subterm_at,
)

# ------------------------------------------------ unit/bind references


def ref_free_vars(t):
    match t:
        case Variable(name):
            return frozenset((name,))
        case Lambda(binder, body):
            return ref_free_vars(body) - {binder}
        case Unit(v):
            return ref_free_vars(v)
        case Bind(left, right):
            return ref_free_vars(left) | ref_free_vars(right)
    raise TypeError(f"not a term: {t!r}")


def ref_all_vars(t):
    match t:
        case Variable(name):
            return frozenset((name,))
        case Lambda(binder, body):
            return ref_all_vars(body) | {binder}
        case Unit(v):
            return ref_all_vars(v)
        case Bind(left, right):
            return ref_all_vars(left) | ref_all_vars(right)
    raise TypeError(f"not a term: {t!r}")


def ref_subst(t, x, v):
    match t:
        case Variable(name):
            return v if name == x else t
        case Lambda(binder, body):
            if binder == x or x not in ref_free_vars(body):
                return t
            if binder in ref_free_vars(v):
                new = fresh_var(ref_free_vars(body) | ref_free_vars(v) | {x, binder})
                body = ref_subst(body, binder, Variable(new))
                binder = new
            return Lambda(binder, ref_subst(body, x, v))
        case Unit(w):
            return Unit(ref_subst(w, x, v))
        case Bind(left, right):
            return Bind(ref_subst(left, x, v), ref_subst(right, x, v))
    raise TypeError(f"not a term: {t!r}")


def ref_debruijn(t, env=()):
    match t:
        case Variable(name):
            for i, b in enumerate(reversed(env)):
                if b == name:
                    return ("b", i)
            return ("f", name)
        case Lambda(binder, body):
            return ("lam", ref_debruijn(body, env + (binder,)))
        case Unit(v):
            return ("unit", ref_debruijn(v, env))
        case Bind(left, right):
            return ("bind", ref_debruijn(left, env), ref_debruijn(right, env))
    raise TypeError(f"not a term: {t!r}")


def ref_positions(t):
    stack = [((), t)]
    while stack:
        path, s = stack.pop()
        yield path, s
        match s:
            case Lambda(_, body):
                stack.append((path + (LAMBDA_BODY,), body))
            case Unit(v):
                stack.append((path + (UNIT_ARG,), v))
            case Bind(left, right):
                stack.append((path + (BIND_RIGHT,), right))
                stack.append((path + (BIND_LEFT,), left))


def ref_replace_at(t, path, new):
    if not path:
        return new
    sel, rest = path[0], path[1:]
    match t, sel:
        case Lambda(binder, body), "lambda-body":
            return Lambda(binder, ref_replace_at(body, rest, new))
        case Unit(v), "unit-arg":
            return Unit(ref_replace_at(v, rest, new))
        case Bind(left, right), "bind-left":
            return Bind(ref_replace_at(left, rest, new), right)
        case Bind(left, right), "bind-right":
            return Bind(left, ref_replace_at(right, rest, new))
    raise ValueError(f"selector {sel!r} does not address {t!r}")


def ref_root_step(t, rule):
    match rule, t:
        case Rule.BETA_C, Bind(Unit(v), Lambda(x, m)):
            return ref_subst(m, x, v)
        case Rule.ID, Bind(m, Lambda(x, Unit(Variable(y)))) if x == y:
            return m
        case Rule.ASS, Bind(Bind(l, Lambda(x, m)), Lambda(y, n)):
            if x in ref_free_vars(n):
                new = fresh_var(ref_free_vars(m) | ref_free_vars(n) | {x, y})
                m = ref_subst(m, x, Variable(new))
                x = new
            return Bind(l, Lambda(x, Bind(m, Lambda(y, n))))
        case Rule.ETA_C, Lambda(x, Bind(Unit(Variable(y)), v)) if x == y and x not in ref_free_vars(v):
            return v
    return None


def ref_enumerate_steps(m, rules):
    order = [r for r in (Rule.BETA_C, Rule.ID, Rule.ASS, Rule.ETA_C) if r in rules]
    out = []
    for path, sub in ref_positions(m):
        for rule in order:
            if isinstance(sub, Lambda if rule is Rule.ETA_C else Bind):
                c = ref_root_step(sub, rule)
                if c is not None:
                    out.append(Step(rule, path, ref_replace_at(m, path, c)))
    return out


# ------------------------------------------------ let-calculus references


def ref_m_free_vars(e):
    match e:
        case MVar(name):
            return frozenset((name,))
        case MLam(x, body):
            return ref_m_free_vars(body) - {x}
        case MApp(fn, arg):
            return ref_m_free_vars(fn) | ref_m_free_vars(arg)
        case MLet(x, bound, body):
            return ref_m_free_vars(bound) | (ref_m_free_vars(body) - {x})
    raise TypeError(f"not a term: {e!r}")


def ref_m_all_vars(e):
    match e:
        case MVar(name):
            return frozenset((name,))
        case MLam(x, body):
            return ref_m_all_vars(body) | {x}
        case MApp(fn, arg):
            return ref_m_all_vars(fn) | ref_m_all_vars(arg)
        case MLet(x, bound, body):
            return ref_m_all_vars(bound) | ref_m_all_vars(body) | {x}
    raise TypeError(f"not a term: {e!r}")


def ref_m_subst(e, x, v):
    match e:
        case MVar(name):
            return v if name == x else e
        case MLam(binder, body):
            if binder == x or x not in ref_m_free_vars(body):
                return e
            if binder in ref_m_free_vars(v):
                new = fresh_var(ref_m_free_vars(body) | ref_m_free_vars(v) | {x, binder})
                body = ref_m_subst(body, binder, MVar(new))
                binder = new
            return MLam(binder, ref_m_subst(body, x, v))
        case MApp(fn, arg):
            return MApp(ref_m_subst(fn, x, v), ref_m_subst(arg, x, v))
        case MLet(binder, bound, body):
            nb = ref_m_subst(bound, x, v)
            if binder == x or x not in ref_m_free_vars(body):
                return MLet(binder, nb, body)
            if binder in ref_m_free_vars(v):
                new = fresh_var(ref_m_free_vars(body) | ref_m_free_vars(v) | {x, binder})
                body = ref_m_subst(body, binder, MVar(new))
                binder = new
            return MLet(binder, nb, ref_m_subst(body, x, v))
    raise TypeError(f"not a term: {e!r}")


def ref_m_debruijn(e, env=()):
    match e:
        case MVar(name):
            for i, b in enumerate(reversed(env)):
                if b == name:
                    return ("b", i)
            return ("f", name)
        case MLam(x, body):
            return ("lam", ref_m_debruijn(body, env + (x,)))
        case MApp(fn, arg):
            return ("app", ref_m_debruijn(fn, env), ref_m_debruijn(arg, env))
        case MLet(x, bound, body):
            return ("let", ref_m_debruijn(bound, env), ref_m_debruijn(body, env + (x,)))
    raise TypeError(f"not a term: {e!r}")


def ref_m_root_steps(e):
    out = []
    match e:
        case MApp(MLam(x, body), arg) if is_mvalue(arg):
            out.append(MStep(MRule.BETA_V, ref_m_subst(body, x, arg)))
    match e:
        case MLam(x, MApp(v, MVar(y))) if x == y and is_mvalue(v) and x not in ref_m_free_vars(v):
            out.append(MStep(MRule.ETA_V, v))
    match e:
        case MLet(x, bound, MVar(y)) if x == y:
            out.append(MStep(MRule.ID, bound))
    match e:
        case MLet(x2, MLet(x1, e1, e2), body):
            if x1 in ref_m_free_vars(body):
                new = fresh_var(ref_m_all_vars(e) | ref_m_free_vars(body))
                e2 = ref_m_subst(e2, x1, MVar(new))
                x1 = new
            out.append(MStep(MRule.COMP, MLet(x1, e1, MLet(x2, e2, body))))
    match e:
        case MLet(x, bound, body) if is_mvalue(bound):
            out.append(MStep(MRule.LET_V, ref_m_subst(body, x, bound)))
    match e:
        case MApp(fn, arg) if not is_mvalue(fn):
            x = fresh_var(ref_m_all_vars(e))
            out.append(MStep(MRule.LET_1, MLet(x, fn, MApp(MVar(x), arg))))
    match e:
        case MApp(fn, arg) if is_mvalue(fn) and not is_mvalue(arg):
            x = fresh_var(ref_m_all_vars(e))
            out.append(MStep(MRule.LET_2, MLet(x, arg, MApp(fn, MVar(x)))))
    return out


def ref_m_steps(e):
    steps = ref_m_root_steps(e)
    match e:
        case MLam(x, body):
            steps.extend(MStep(s.rule, MLam(x, s.result)) for s in ref_m_steps(body))
        case MApp(fn, arg):
            steps.extend(MStep(s.rule, MApp(s.result, arg)) for s in ref_m_steps(fn))
            steps.extend(MStep(s.rule, MApp(fn, s.result)) for s in ref_m_steps(arg))
        case MLet(x, bound, body):
            steps.extend(MStep(s.rule, MLet(x, s.result, body)) for s in ref_m_steps(bound))
            steps.extend(MStep(s.rule, MLet(x, bound, s.result)) for s in ref_m_steps(body))
    return steps


def ref_m_enumerate_steps(e):
    out = {}
    for s in ref_m_steps(e):
        k = ref_m_debruijn(s.result)
        out.setdefault((s.rule, k), s)
    return list(out.values())


# ------------------------------------------------------------- corpus

CFG = GenConfig(seed=5, cases=40, max_size=14)


def _ub_corpus():
    """Generated unit/bind terms, their reducts (eta included) and the
    images of generated let-terms."""
    for m in gen_terms(CFG):
        yield m
        for s in ref_enumerate_steps(m, ALL_RULES)[:3]:
            yield s.result
    for i in range(CFG.cases):
        yield from_moggi(gen_mterm(CFG, i))


def _m_corpus():
    """Generated let-terms, images of unit/bind terms, and their reducts."""
    sources = itertools.chain((gen_mterm(CFG, i) for i in range(CFG.cases)), map(to_moggi, gen_terms(CFG)))
    for e in sources:
        yield e
        for s in ref_m_enumerate_steps(e)[:3]:
            yield s.result


UB = list(_ub_corpus())
M = list(_m_corpus())
CALCULI = {
    "unit/bind": (UB, ref_free_vars, ref_all_vars, ref_subst, ref_debruijn, Variable, Lambda("c", Unit(Variable("c")))),
    "let": (M, ref_m_free_vars, ref_m_all_vars, ref_m_subst, ref_m_debruijn, MVar, MLam("c", MVar("c"))),
}


def _m_subterms(e):
    out = [e]
    match e:
        case MLam(_, body):
            out += _m_subterms(body)
        case MApp(fn, arg):
            out += _m_subterms(fn) + _m_subterms(arg)
        case MLet(_, bound, body):
            out += _m_subterms(bound) + _m_subterms(body)
    return out


def _subterms(t):
    if isinstance(t, (MVar, MLam, MApp, MLet)):
        return _m_subterms(t)
    return [s for _, s in ref_positions(t)]


@pytest.mark.parametrize("calculus", sorted(CALCULI))
class TestAgainstReferences:
    def test_free_and_all_vars(self, calculus):
        terms, fv, av, *_ = CALCULI[calculus]
        for t in terms:
            for s in _subterms(t):
                assert s.fv == fv(s)
                assert all_vars(s) == av(s)

    def test_alpha_keys(self, calculus):
        terms, _, _, _, debruijn, *_ = CALCULI[calculus]
        for t in terms:
            for s in _subterms(t):
                assert alpha_key(s) == debruijn(s)

    def test_subst_every_free_variable(self, calculus):
        """Substitute, at every open subterm and for each of its free
        variables, a closed value, a free variable and a variable named
        after each binder of the subterm; the last renames binders."""
        terms, fv, av, ref, _, var, closed = CALCULI[calculus]
        renamed = 0
        for t in terms:
            for s in _subterms(t):
                values = [closed, var("fresh")] + [var(b) for b in sorted(av(s) - fv(s))]
                for x in sorted(fv(s)):
                    for v in values:
                        got, want = subst(s, x, v), ref(s, x, v)
                        assert got == want, (s, x, v)
                        renamed += not av(want) <= av(s) | fv(v)
        assert renamed > 0

    def test_replace_and_address_every_position(self, calculus):
        terms, *_ = CALCULI[calculus]
        probe = terms[0]
        for t in terms:
            for path, s in positions(t):
                assert subterm_at(t, path) is s
                assert replace_at(t, path, s) == t
                if calculus == "unit/bind":
                    assert replace_at(t, path, probe) == ref_replace_at(t, path, probe)


def test_positions_match_reference_walk():
    for t in UB:
        assert list(positions(t)) == list(ref_positions(t))


def test_enumerate_steps_match_reference():
    for m in UB:
        if isinstance(m, (Unit, Bind)):
            assert enumerate_steps(m, ALL_RULES) == ref_enumerate_steps(m, ALL_RULES)


def test_m_enumerate_steps_match_reference():
    for e in M:
        got = m_enumerate_steps(e)
        want = ref_m_enumerate_steps(e)
        assert [(s.rule, s.key) for s in got] == [(s.rule, ref_m_debruijn(s.result)) for s in want]
        assert [s.result for s in got] == [s.result for s in want]


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))])
def test_copies_carry_free_variables(clone):
    for t in (Unit(Lambda("x", Bind(Unit(Variable("x")), Variable("y")))), MLet("x", MVar("y"), MVar("x"))):
        got = clone(t)
        assert got == t and got.fv == t.fv


def test_equal_free_variable_sets_are_shared():
    x = Variable("x")
    assert Variable("x").fv is x.fv
    bind = Bind(Unit(x), Variable("x"))
    assert bind.fv is bind.left.fv
    # a binder that removes nothing, and a union that adds nothing, reuse a child's set
    lam = Lambda("y", Bind(Unit(x), Variable("x")))
    assert lam.fv is lam.body.fv
    assert Lambda("x", Unit(x)).fv is Lambda("y", Unit(Variable("y"))).fv
    assert MLet("z", MVar("x"), MVar("x")).fv is MVar("x").fv
