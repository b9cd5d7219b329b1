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

from conftest import ref_m_all_vars, ref_m_debruijn, ref_m_enumerate_steps, ref_m_free_vars, ref_m_subst

from ubcalc.harness import GenConfig, gen_mterm, gen_terms
from ubcalc.moggi import MApp, MLam, MLet, MVar, from_moggi, m_enumerate_steps, to_moggi
from ubcalc.reduction import ALL_RULES, DEFAULT_RULES, MRule, Rule, Step, enumerate_steps
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
    replace_keyed,
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


# ----------------------------------------------------- derived step keys


def _keyed_sources(seed):
    """Generated unit/bind terms and let-terms at seed, and the to_moggi
    images of the unit/bind terms."""
    cfg = GenConfig(seed=seed, cases=60, max_size=20)
    ub = list(gen_terms(cfg))
    return ub, [gen_mterm(cfg, i) for i in range(cfg.cases)] + [to_moggi(m) for m in ub]


@pytest.mark.parametrize("seed", [0, 7])
def test_step_keys_derived_from_the_parent_match_from_scratch_keys(seed):
    """A step's key is its parent's with the subkey along its path
    replaced.  Over two levels of steps, the second keyed from the first's
    derived keys as a search keys them, it must equal the from-scratch
    debruijn walk of the result, and keying must leave the step list
    (rule, position, result, in order) as it is."""
    ub, let_terms = _keyed_sources(seed)
    seen = set()
    for m in ub:
        for rules in (DEFAULT_RULES, ALL_RULES):
            level = [(m, alpha_key(m))]
            for _ in range(2):
                nxt = []
                for t, key in level:
                    steps = enumerate_steps(t, rules, key)
                    assert steps == enumerate_steps(t, rules) == ref_enumerate_steps(t, rules)
                    for s in steps:
                        assert s.key == alpha_key(s.result) == ref_debruijn(s.result)
                        seen.add((s.rule, bool(s.position)))
                        nxt.append((s.result, s.key))
                level = nxt
    assert seen >= {(rule, True) for rule in Rule}
    for e in let_terms:
        level = [(e, alpha_key(e))]
        for _ in range(2):
            nxt = []
            for t, key in level:
                steps = m_enumerate_steps(t, key)
                assert steps == m_enumerate_steps(t)
                want = ref_m_enumerate_steps(t)
                assert [(s.rule, s.result) for s in steps] == [(s.rule, s.result) for s in want]
                for s in steps:
                    assert s.key == alpha_key(s.result) == ref_m_debruijn(s.result)
                    seen.add((s.rule, True))
                    nxt.append((s.result, s.key))
            level = nxt
    assert seen >= {(rule, True) for rule in MRule}


@pytest.mark.parametrize("calculus", sorted(CALCULI))
def test_replace_keyed_at_every_position(calculus):
    """Put, at every position, each variable named in the term (so the
    binders above the position capture it) and a closed term."""
    terms, _, _, _, debruijn, var, closed = CALCULI[calculus]
    for t in terms:
        key = alpha_key(t)
        for path, s in positions(t):
            for probe in [var(x) for x in sorted(all_vars(t))] + [closed]:
                if calculus == "unit/bind" and isinstance(s, (Unit, Bind)):
                    probe = Unit(probe)
                got, got_key = replace_keyed(t, key, path, probe)
                assert got == replace_at(t, path, probe)
                assert got_key == debruijn(got)


def test_closed_nodes_keep_their_key_and_open_ones_none():
    inner = Lambda("y", Unit(Variable("y")))
    t = Bind(Unit(Variable("u")), Lambda("x", Bind(Unit(Variable("x")), inner)))
    key = alpha_key(t)
    assert inner.closed_key == ref_debruijn(inner)
    assert t.right.closed_key == ref_debruijn(t.right)
    for open_node in (t, t.left, t.right.body):
        assert not hasattr(open_node, "closed_key")
    assert alpha_key(t) == key == ref_debruijn(t)


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
