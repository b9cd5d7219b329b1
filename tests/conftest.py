import pytest

from hypothesis import HealthCheck, settings, strategies as st

from ubcalc.harness import GenConfig, gen_term
from ubcalc.terms import Bind, Lambda, Unit, Variable

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
