"""The two-sided search as it stood when each reduct's alpha key was
derived from its parent's along the step's path: ``explore`` a generator
per side, and ``meet`` pulling from both in turn, each side finishing
its level and yielding one state of the next.  The code below is that
search, copied but for how a reduct is keyed: from scratch
(``alpha_key``), which equals the key it derived.  Kept as the
differential oracle of ``reduction.meet`` and ``reduction.joinable``."""
from __future__ import annotations

from ubcalc.reduction import enumerate_steps, normalize
from ubcalc.terms import alpha_key


def explore(start, key: tuple, rules, budget: int, seen: set):
    """Bounded breadth-first search up to alpha from start, whose alpha
    key is key.  Yields (key, state, depth) for start, then for each state
    first reached, after adding its key to seen.  A state's steps are
    ``enumerate_steps`` under rules, and each costs one unit of budget.  A
    state whose expansion begins within the budget takes all its steps;
    once the budget is spent, the next state with a step is refused and
    the search stops.  Returns False when a state was refused, and True
    when none was: the reachable set was exhausted."""
    seen.add(key)
    yield key, start, 0
    frontier, depth = [(key, start)], 0
    while frontier:
        depth += 1
        nxt = []
        for k, t in frontier:
            steps = [(alpha_key(s.result), s.result) for s in enumerate_steps(t, rules)]
            if steps and budget <= 0:
                return False
            budget -= len(steps)
            for sk, result in steps:
                if sk not in seen:
                    seen.add(sk)
                    nxt.append((sk, result))
                    yield sk, result, depth
        frontier = nxt
    return True


def meet(a, b, keys: tuple[tuple, tuple], rules, fuel: int):
    """Search from a and from b, whose alpha keys are keys, for a common
    reduct under rules: the state, False when both reachable sets were
    exhausted without meeting, None when a budget ran out first."""
    seen: tuple[set, set] = (set(), set())
    searches = {i: explore(t, keys[i], rules, fuel, seen[i]) for i, t in enumerate((a, b))}
    level, exhausted = [-1, -1], True
    while searches:
        for i, search in list(searches.items()):
            try:
                depth = level[i]
                while level[i] == depth:
                    k, state, level[i] = next(search)
                    if k in seen[1 - i]:
                        return state
            except StopIteration as stop:
                exhausted = exhausted and stop.value
                del searches[i]
    return False if exhausted else None


def joinable(m, n, fuel: int, rules):
    """``reduction.joinable`` on the search above."""
    keys = alpha_key(m), alpha_key(n)
    if keys[0] == keys[1]:
        return m
    fast = min(fuel, 80)
    nm = normalize(m, rules, fast)
    nn = normalize(n, rules, fast)
    if nm.normal_form and nn.normal_form and alpha_key(nm.term) == alpha_key(nn.term):
        return nm.term
    return meet(m, n, keys, rules, fuel)


def reaches(start, key: tuple, rules, budget: int) -> bool:
    """Whether ``explore`` from start yields a state keyed key within
    budget."""
    return any(k == key for k, _, _ in explore(start, alpha_key(start), rules, budget, set()))
