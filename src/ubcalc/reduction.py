"""Reduction for the unit/bind calculus and for the let-calculus.

Three notions of reduction on unit/bind computations:

    betac)  unit V * (\\x. M)        -->  M[V/x]
    id)     M * (\\x. unit x)        -->  M
    ass)    (L * \\x.M) * (\\y. N)   -->  L * \\x.(M * \\y.N)   (x not free in N)

plus the optional, confluence-breaking value rule

    etac)   \\x. (unit x * V)        -->  V                    (x not free in V)

and the let-calculus's seven (``MRule``): beta and eta for values, the
let identity, let reassociation, let elimination on values, and two
sequencing rules pushing non-value operands of applications into lets.
One step kernel serves both calculi: ``root_step`` contracts a redex of
either, ``Step`` records a step of either, one redex walk lists the
steps, and ``replay`` applies a recorded list of (rule, position) steps
where a search is not needed.  Also here: complete developments, the
left-of-star termination measure for ass, and ``meet``, the bounded
two-sided breadth-first search on unit/bind terms.  ``joinable`` runs
``meet`` and returns a common reduct, False once both reachable sets
are exhausted without meeting, or None when a budget runs out first.
Without etac the rules are confluent, so False means not convertible;
with etac it means only "no common reduct".
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional

from .terms import (
    Bind,
    Comp,
    Lambda,
    MApp,
    MLam,
    MLet,
    MVar,
    Node,
    Position,
    Term,
    Unit,
    Variable,
    all_vars,
    alpha_key,
    fresh_var,
    is_mvalue,
    positions,
    replace_at,
    subst,
    subterm_at,
)


class Rule(enum.Enum):
    BETA_C = "betac"
    ID = "id"
    ASS = "ass"
    ETA_C = "etac"


class MRule(enum.Enum):
    BETA_V = "betav"
    ETA_V = "etav"
    ID = "id"
    COMP = "comp"
    LET_V = "letv"
    LET_1 = "let1"
    LET_2 = "let2"


DEFAULT_RULES = frozenset((Rule.BETA_C, Rule.ID, Rule.ASS))
ALL_RULES = frozenset(Rule)
LET_RULES = frozenset(MRule)

@dataclass(frozen=True, slots=True)
class Step:
    """One step of either calculus: its rule, the position of its redex
    and the whole reduct."""

    rule: Rule | MRule
    position: Position
    result: Node

    def position_str(self) -> str:
        return ".".join(self.position) if self.position else "root"


def root_step(t: Node, rule: Rule | MRule) -> Optional[Node]:
    """Contract t at the root by `rule`, of either calculus, or None if it
    does not match.

    The bound variable of an ass or comp redex is renamed when it occurs
    free in the continuation, so the step is always applicable to the shape.
    """
    match rule:
        case Rule.BETA_C:
            match t:
                case Bind(Unit(v), Lambda(x, m)):
                    return subst(m, x, v)
        case Rule.ID:
            match t:
                case Bind(m, Lambda(x, Unit(Variable(y)))) if x == y:
                    return m
        case Rule.ASS:
            match t:
                case Bind(Bind(l, Lambda(x, m)), Lambda(y, n)):
                    if x in n.fv:
                        new = fresh_var(m.fv | n.fv | {x, y})
                        m = subst(m, x, Variable(new))
                        x = new
                    return Bind(l, Lambda(x, Bind(m, Lambda(y, n))))
        case Rule.ETA_C:
            match t:
                case Lambda(x, Bind(Unit(Variable(y)), v)) if x == y:
                    if x not in v.fv:
                        return v
        case MRule.BETA_V:
            match t:
                case MApp(MLam(x, body), arg) if is_mvalue(arg):
                    return subst(body, x, arg)
        case MRule.ETA_V:
            match t:
                case MLam(x, MApp(v, MVar(y))) if x == y and is_mvalue(v) and x not in v.fv:
                    return v
        case MRule.ID:
            match t:
                case MLet(x, bound, MVar(y)) if x == y:
                    return bound
        case MRule.COMP:
            match t:
                case MLet(x2, MLet(x1, e1, e2), body):
                    if x1 in body.fv:
                        new = fresh_var(all_vars(t) | body.fv)
                        e2 = subst(e2, x1, MVar(new))
                        x1 = new
                    return MLet(x1, e1, MLet(x2, e2, body))
        case MRule.LET_V:
            match t:
                case MLet(x, bound, body) if is_mvalue(bound):
                    return subst(body, x, bound)
        case MRule.LET_1:
            match t:
                case MApp(fn, arg) if not is_mvalue(fn):
                    x = fresh_var(all_vars(t))
                    return MLet(x, fn, MApp(MVar(x), arg))
        case MRule.LET_2:
            match t:
                case MApp(fn, arg) if is_mvalue(fn) and not is_mvalue(arg):
                    x = fresh_var(all_vars(t))
                    return MLet(x, arg, MApp(fn, MVar(x)))
    return None


# The rules whose redexes have each constructor at the root, in the order
# the steps at one position are listed.
_ROOT_RULES = {
    Variable: (),
    Lambda: (Rule.ETA_C,),
    Unit: (),
    Bind: (Rule.BETA_C, Rule.ID, Rule.ASS),
    MVar: (),
    MLam: (MRule.ETA_V,),
    MApp: (MRule.BETA_V, MRule.LET_1, MRule.LET_2),
    MLet: (MRule.ID, MRule.COMP, MRule.LET_V),
}


def redexes(t: Node, rules: frozenset | set) -> Iterator[tuple[Rule | MRule, Position, Node]]:
    """(rule, position, contractum) for every redex of t by one of rules:
    positions in preorder, and at each position the rules in _ROOT_RULES
    order."""
    for path, sub in positions(t):
        for rule in _ROOT_RULES[type(sub)]:
            if rule in rules:
                contractum = root_step(sub, rule)
                if contractum is not None:
                    yield rule, path, contractum


def enumerate_steps(m: Comp, rules: frozenset[Rule] | set[Rule] = DEFAULT_RULES) -> list[Step]:
    """All one-step reducts of m, leftmost-outermost first."""
    return [Step(rule, path, replace_at(m, path, c)) for rule, path, c in redexes(m, rules)]


def replay(t: Node, steps) -> Optional[Node]:
    """t after each (rule, position) of steps in turn, of either calculus,
    or None as soon as one does not apply (``root_step``)."""
    for rule, path in steps:
        try:
            sub = subterm_at(t, path)
        except ValueError:  # the position is not in t
            return None
        contractum = root_step(sub, rule)
        if contractum is None:
            return None
        t = replace_at(t, path, contractum)
    return t


def first_step(m: Comp, rules: frozenset[Rule] | set[Rule] = DEFAULT_RULES) -> Optional[Step]:
    """The leftmost-outermost step of m, ``enumerate_steps(m, rules)[0]``,
    or None when m is in normal form.

    The walk stops at the first redex and rebuilds only the spine above
    it: one contraction per step, not one reduct of m per redex.
    """
    for rule, path, c in redexes(m, rules):
        return Step(rule, path, replace_at(m, path, c))
    return None


@dataclass(frozen=True, slots=True)
class NormalizeOutcome:
    normal_form: bool
    term: Comp
    trace: tuple[Step, ...]


def normalize(
    m: Comp,
    rules: frozenset[Rule] | set[Rule] = DEFAULT_RULES,
    fuel: int = 1000,
) -> NormalizeOutcome:
    """Leftmost-outermost normalization with a step budget.

    Each step is ``first_step``; fuel counts steps taken, and the trace
    holds them.
    """
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    trace: list[Step] = []
    cur = m
    for _ in range(fuel):
        step = first_step(cur, rules)
        if step is None:
            return NormalizeOutcome(True, cur, tuple(trace))
        trace.append(step)
        cur = step.result
    return NormalizeOutcome(first_step(cur, rules) is None, cur, tuple(trace))


# ------------------------------------------------------ parallel reduction

# The simultaneous contraction relation only covers betac and id; ass is
# intentionally excluded and handled by commutation.


def parallel_successors(t: Term, _memo: dict | None = None) -> list[Term]:
    """All terms reachable from t by one parallel (simultaneous) step."""
    if _memo is None:
        _memo = {}
    key = id(t)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    out: dict[tuple, Term] = {}

    def add(s: Term) -> None:
        out.setdefault(alpha_key(s), s)

    match t:
        case Variable():
            add(t)
        case Lambda(x, body):
            for b in parallel_successors(body, _memo):
                add(Lambda(x, b))
        case Unit(v):
            for w in parallel_successors(v, _memo):
                add(Unit(w))
        case Bind(left, right):
            lefts = parallel_successors(left, _memo)
            rights = parallel_successors(right, _memo)
            for l2 in lefts:
                for r2 in rights:
                    add(Bind(l2, r2))
            match left, right:
                case Unit(v), Lambda(x, body):
                    for v2 in parallel_successors(v, _memo):
                        for b2 in parallel_successors(body, _memo):
                            add(subst(b2, x, v2))
            match right:
                case Lambda(x, Unit(Variable(y))) if x == y:
                    for l2 in lefts:
                        add(l2)
    result = list(out.values())
    _memo[key] = result
    return result


def parallel_reduces(t1: Term, t2: Term) -> bool:
    """Whether t2 is a one-step parallel reduct of t1 (reflexive)."""
    target = alpha_key(t2)
    return any(alpha_key(s) == target for s in parallel_successors(t1))


def star(t: Term) -> Term:
    """The complete development: contract every betac/id redex of t at once.

    Clause priority on binds: betac shape first, then id shape, then
    structural descent; this resolves the overlap on unit V * \\x.unit x
    in favour of the betac clause.
    """
    match t:
        case Variable():
            return t
        case Lambda(x, body):
            return Lambda(x, star(body))
        case Unit(v):
            return Unit(star(v))
        case Bind(left, right):
            match left, right:
                case Unit(v), Lambda(x, body):
                    return subst(star(body), x, star(v))
            match right:
                case Lambda(x, Unit(Variable(y))) if x == y:
                    return star(left)
            return Bind(star(left), star(right))
    raise TypeError(f"not a term: {t!r}")


# ------------------------------------------------------------- ass measure


def _stars_and_measure(t: Term) -> tuple[int, int]:
    match t:
        case Variable():
            return 0, 0
        case Lambda(_, body):
            return _stars_and_measure(body)
        case Unit(v):
            return _stars_and_measure(v)
        case Bind(left, right):
            ls, lm = _stars_and_measure(left)
            rs, rm = _stars_and_measure(right)
            # every star of the left subterm is to the left of this bind
            return ls + rs + 1, lm + rm + ls
    raise TypeError(f"not a term: {t!r}")


def ass_measure(m: Comp) -> int:
    """Number of ordered pairs of binds where one occurs in the left
    subterm of the other; strictly decreases under every ass step."""
    return _stars_and_measure(m)[1]


# ------------------------------------------------------------ bounded search


def meet(a: Comp, b: Comp, rules: frozenset[Rule] | set[Rule], fuel: int) -> Comp | bool | None:
    """Search from a and from b, up to alpha, for a common reduct under
    rules.

    The sides take turns, one whole level of breadth-first search each.
    Each side has fuel: expanding a state costs that side the number of
    its steps (``enumerate_steps``), and once the side's fuel is spent its
    next state with a step is refused and the side stops.  Returns the
    first reduct one side reaches that the other has seen; False when both
    reachable sets were exhausted without meeting; None when a state was
    refused first.
    """
    start = alpha_key(a), alpha_key(b)
    if start[0] == start[1]:
        return a
    seen = ({start[0]}, {start[1]})
    frontiers, budgets = [[a], [b]], [fuel, fuel]
    exhausted = True
    while frontiers[0] or frontiers[1]:
        for i in (0, 1):
            mine, other, nxt = seen[i], seen[1 - i], []
            for t in frontiers[i]:
                steps = enumerate_steps(t, rules)
                if steps and budgets[i] <= 0:
                    exhausted, nxt = False, []
                    break
                budgets[i] -= len(steps)
                for s in steps:
                    k = alpha_key(s.result)
                    if k not in mine:
                        if k in other:
                            return s.result
                        mine.add(k)
                        nxt.append(s.result)
            frontiers[i] = nxt
    return False if exhausted else None


def joinable(
    m: Comp,
    n: Comp,
    fuel: int = 200,
    rules: frozenset[Rule] | set[Rule] = DEFAULT_RULES,
) -> Comp | bool | None:
    """A common reduct of m and n, False, or None.

    Fast path: leftmost-outermost normalization of both sides.  Otherwise
    ``meet`` with fuel steps per side: False means both reachable sets
    were exhausted without meeting, None that a budget ran out.  Without
    etac the rules are confluent, so False means not convertible; with
    etac it means only that m and n have no common reduct.
    """
    if alpha_key(m) == alpha_key(n):
        return m
    fast = min(fuel, 80)
    nm = normalize(m, rules, fast)
    nn = normalize(n, rules, fast)
    if nm.normal_form and nn.normal_form and alpha_key(nm.term) == alpha_key(nn.term):
        return nm.term

    return meet(m, n, rules, fuel)
