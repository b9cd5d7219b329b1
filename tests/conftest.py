import pytest

from hypothesis import HealthCheck, settings, strategies as st

from ubcalc.harness import GenConfig, gen_term
from ubcalc.reduction import MRule, Step
from ubcalc.terms import Bind, Lambda, MApp, MLam, MLet, MVar, Unit, Variable, fresh_var, is_mvalue

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=60
)
settings.load_profile("suite")


NAMES = st.sampled_from(["x", "y", "z", "w"])


def values(depth, env):
    opts = [st.builds(Lambda, NAMES, comps(depth - 1, env))] if depth > 0 else []
    banked = sorted(env)
    if banked:
        opts.append(st.sampled_from(banked).map(Variable))
    if not opts:
        opts = [st.just(Lambda("x", Unit(Variable("x"))))]
    return st.one_of(*opts)


def comps(depth, env=frozenset()):
    if depth <= 0:
        return st.builds(Unit, values(0, env))
    return st.one_of(
        st.builds(Unit, values(depth - 1, env)),
        st.builds(Bind, comps(depth - 1, env), values(depth - 1, env)),
    )


def closed_values(depth):
    # closed values are abstractions whose bodies may use the binder
    def lam(name, depth):
        return st.builds(Lambda, st.just(name), closed_comps(depth - 1, frozenset({name})))

    return lam("x", depth) if depth > 0 else st.just(Lambda("x", Unit(Variable("x"))))


def closed_comps(depth, env=frozenset()):
    vs = values(depth - 1, env) if env else closed_values(depth - 1)
    if depth <= 0:
        return st.builds(Unit, vs)

    def value_at(d):
        opts = [st.builds(Lambda, NAMES, st.deferred(lambda: closed_comps(0, env)))]
        banked = sorted(env)
        if banked:
            opts.append(st.sampled_from(banked).map(Variable))
        return st.one_of(*opts)

    inner = st.one_of(
        st.builds(Unit, _cv(depth - 1, env)),
        st.builds(Bind, closed_comps(depth - 1, env), _cv(depth - 1, env)),
    )
    return inner


def _cv(depth, env):
    names = st.sampled_from(["a", "b", "c"])
    opts = []
    if depth > 0:
        opts.append(
            names.flatmap(
                lambda n: st.builds(Lambda, st.just(n), closed_comps(depth - 1, env | {n}))
            )
        )
    banked = sorted(env)
    if banked:
        opts.append(st.sampled_from(banked).map(Variable))
    if not opts:
        opts = [st.just(Lambda("x", Unit(Variable("x"))))]
    return st.one_of(*opts)


@pytest.fixture(scope="session")
def closed_strategy():
    return closed_comps(4)


CLOSED_COMPS = closed_comps(4)
OPEN_COMPS = comps(4, frozenset({"u", "w"}))


# harness terms on which the memoised evaluators are compared with their
# un-memoised references
CLOSED_TERMS = [gen_term(GenConfig(seed=s, max_size=14), i) for s in (0, 1) for i in range(12)]
OPEN_TERMS = [gen_term(GenConfig(seed=s, max_size=10, closed=False), i) for s in (0, 1) for i in range(8)]


def rotations(t, points, count=3):
    """Maps giving t's free variables the given points, in rotations."""
    names = sorted(t.fv)
    for shift in range(count if names else 1):
        yield {x: points[(i + shift) % len(points)] for i, x in enumerate(names)}


def unshare(d):
    """d rebuilt with every node a fresh object: the tree that a
    derivation sharing sub-derivations stands for."""
    return type(d)(d.rule, d.conclusion, tuple(unshare(p) for p in d.premises), d.side)


def distinct_nodes(d) -> list:
    """The node objects of d, each once."""
    seen = {}
    stack = [d]
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen[id(n)] = n
            stack.extend(n.premises)
    return list(seen.values())


def tree_size(d) -> int:
    """The nodes of the tree d stands for: a shared node counts at every
    place it occurs."""
    return 1 + sum(tree_size(p) for p in d.premises)


def share(d):
    """d with each set of equal sub-derivations made one object: the DAG
    with the fewest nodes that stands for d's tree."""
    table, memo = {}, {}

    def walk(n):
        got = memo.get(id(n))
        if got is None:
            premises = tuple(walk(p) for p in n.premises)
            key = (n.rule, n.conclusion, tuple(map(id, premises)), n.side)
            got = memo[id(n)] = table.setdefault(key, type(n)(n.rule, n.conclusion, premises, n.side))
        return got

    return walk(d)


# ------------------------------------------------ let-calculus references

# The let-calculus's free variables, substitution, alpha keys and step
# list as recursive walks of their own, independent of the shared kernel's
# schema-driven walks and redex table: a step carries its rule and result,
# at position ().


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
            out.append(Step(MRule.BETA_V, (), ref_m_subst(body, x, arg)))
    match e:
        case MLam(x, MApp(v, MVar(y))) if x == y and is_mvalue(v) and x not in ref_m_free_vars(v):
            out.append(Step(MRule.ETA_V, (), v))
    match e:
        case MLet(x, bound, MVar(y)) if x == y:
            out.append(Step(MRule.ID, (), bound))
    match e:
        case MLet(x2, MLet(x1, e1, e2), body):
            if x1 in ref_m_free_vars(body):
                new = fresh_var(ref_m_all_vars(e) | ref_m_free_vars(body))
                e2 = ref_m_subst(e2, x1, MVar(new))
                x1 = new
            out.append(Step(MRule.COMP, (), MLet(x1, e1, MLet(x2, e2, body))))
    match e:
        case MLet(x, bound, body) if is_mvalue(bound):
            out.append(Step(MRule.LET_V, (), ref_m_subst(body, x, bound)))
    match e:
        case MApp(fn, arg) if not is_mvalue(fn):
            x = fresh_var(ref_m_all_vars(e))
            out.append(Step(MRule.LET_1, (), MLet(x, fn, MApp(MVar(x), arg))))
    match e:
        case MApp(fn, arg) if is_mvalue(fn) and not is_mvalue(arg):
            x = fresh_var(ref_m_all_vars(e))
            out.append(Step(MRule.LET_2, (), MLet(x, arg, MApp(fn, MVar(x)))))
    return out


def ref_m_steps(e):
    steps = ref_m_root_steps(e)
    match e:
        case MLam(x, body):
            steps.extend(Step(s.rule, (), MLam(x, s.result)) for s in ref_m_steps(body))
        case MApp(fn, arg):
            steps.extend(Step(s.rule, (), MApp(s.result, arg)) for s in ref_m_steps(fn))
            steps.extend(Step(s.rule, (), MApp(fn, s.result)) for s in ref_m_steps(arg))
        case MLet(x, bound, body):
            steps.extend(Step(s.rule, (), MLet(x, s.result, body)) for s in ref_m_steps(bound))
            steps.extend(Step(s.rule, (), MLet(x, bound, s.result)) for s in ref_m_steps(body))
    return steps


def ref_m_enumerate_steps(e):
    out = {}
    for s in ref_m_steps(e):
        k = ref_m_debruijn(s.result)
        out.setdefault((s.rule, k), s)
    return list(out.values())
