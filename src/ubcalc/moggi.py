"""The let-based computational lambda-calculus and the two translations.

Terms are variables, abstractions, applications and lets; values are
variables and abstractions.  Reduction has beta and eta for values, the
let identity, let reassociation, let elimination on values, and two
sequencing rules pushing non-value operands of applications into lets.
The term constructors are ``terms.Node``s, so free variables,
substitution, alpha keys and positions are the unit/bind calculus's own.

to_moggi maps unit/bind terms into the let calculus (unit disappears,
bind becomes let); from_moggi maps back, wrapping translated values in
unit so that every image is a computation.  to_moggi is compositional,
so each unit/bind step is simulated by a fixed short let-reduction at
the image of its redex (``RECIPES``), which ``simulate`` replays.
"""
from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Optional, Union

from . import reduction as ub_reduction
from .terms import (
    BIND_LEFT,
    BIND_RIGHT,
    LAMBDA_BODY,
    UNIT_ARG,
    Bind,
    Comp,
    Lambda,
    Node,
    ParseError,
    Position,
    Term,
    TokenCursor,
    Unit,
    Value,
    Variable,
    all_vars,
    alpha_key,
    diff_position,
    fresh_var,
    is_comp,
    positions,
    replace_keyed,
    subst,
)


@dataclass(frozen=True, slots=True)
class MVar(Node):
    name: str


@dataclass(frozen=True, slots=True)
class MLam(Node):
    binder: str
    body: "MTerm"
    KIDS = (("lam-body", "body", True),)
    TAG = "lam"
    VAR = MVar


@dataclass(frozen=True, slots=True)
class MApp(Node):
    fn: "MTerm"
    arg: "MTerm"
    KIDS = (("app-fn", "fn", False), ("app-arg", "arg", False))
    TAG = "app"


@dataclass(frozen=True, slots=True)
class MLet(Node):
    binder: str
    bound: "MTerm"
    body: "MTerm"
    KIDS = (("let-bound", "bound", False), ("let-body", "body", True))
    TAG = "let"
    VAR = MVar


MTerm = Union[MVar, MLam, MApp, MLet]


def is_mvalue(e: MTerm) -> bool:
    return isinstance(e, (MVar, MLam))


# ------------------------------------------------------------------ reduction


class MRule(enum.Enum):
    BETA_V = "betav"
    ETA_V = "etav"
    ID = "id"
    COMP = "comp"
    LET_V = "letv"
    LET_1 = "let1"
    LET_2 = "let2"


@dataclass(frozen=True, slots=True)
class MStep:
    rule: MRule
    result: MTerm
    key: Optional[tuple] = field(default=None, compare=False, repr=False)


def m_root_step(e: MTerm, rule: MRule) -> Optional[MTerm]:
    """Contract e at the root by rule, or None if it does not match."""
    match rule:
        case MRule.BETA_V:
            match e:
                case MApp(MLam(x, body), arg) if is_mvalue(arg):
                    return subst(body, x, arg)
        case MRule.ETA_V:
            match e:
                case MLam(x, MApp(v, MVar(y))) if x == y and is_mvalue(v) and x not in v.fv:
                    return v
        case MRule.ID:
            match e:
                case MLet(x, bound, MVar(y)) if x == y:
                    return bound
        case MRule.COMP:
            match e:
                case MLet(x2, MLet(x1, e1, e2), body):
                    if x1 in body.fv:
                        new = fresh_var(all_vars(e) | body.fv)
                        e2 = subst(e2, x1, MVar(new))
                        x1 = new
                    return MLet(x1, e1, MLet(x2, e2, body))
        case MRule.LET_V:
            match e:
                case MLet(x, bound, body) if is_mvalue(bound):
                    return subst(body, x, bound)
        case MRule.LET_1:
            match e:
                case MApp(fn, arg) if not is_mvalue(fn):
                    x = fresh_var(all_vars(e))
                    return MLet(x, fn, MApp(MVar(x), arg))
        case MRule.LET_2:
            match e:
                case MApp(fn, arg) if is_mvalue(fn) and not is_mvalue(arg):
                    x = fresh_var(all_vars(e))
                    return MLet(x, arg, MApp(fn, MVar(x)))
    return None


# The rules whose redexes have each constructor at the root, in MRule order.
_ROOT_RULES = {
    MVar: (),
    MLam: (MRule.ETA_V,),
    MApp: (MRule.BETA_V, MRule.LET_1, MRule.LET_2),
    MLet: (MRule.ID, MRule.COMP, MRule.LET_V),
}


def m_root_steps(e: MTerm) -> list[MStep]:
    """The root steps of e, one per rule that matches, in MRule order."""
    return [MStep(rule, result) for rule in _ROOT_RULES[type(e)] if (result := m_root_step(e, rule)) is not None]


def m_enumerate_steps(e: MTerm, key: Optional[tuple] = None) -> list[MStep]:
    """One-step reducts under the full compatible closure (under lambda,
    both application operands, both let positions), one per rule and alpha
    class, each with its key, derived from e's key (computed when not
    given) along the step's path.  Contexts keep distinct keys distinct,
    so one deduplication at the root removes what one at every position
    would."""
    if key is None:
        key = alpha_key(e)
    out: dict[tuple, MStep] = {}
    for path, sub in positions(e):
        for s in m_root_steps(sub):
            result, k = replace_keyed(e, key, path, s.result)
            if (s.rule, k) not in out:
                out[s.rule, k] = MStep(s.rule, result, k)
    return list(out.values())


# ---------------------------------------------------------------- printing


def m_print(e: MTerm) -> str:
    match e:
        case MVar(name):
            return name
        case MLam(x, body):
            return f"\\{x}. {m_print(body)}"
        case MLet(x, bound, body):
            b = m_print(bound)
            if isinstance(bound, (MLam, MLet)):
                b = f"({b})"
            return f"let {x} = {b} in {m_print(body)}"
        case MApp(fn, arg):
            f = m_print(fn)
            if isinstance(fn, (MLam, MLet)):
                f = f"({f})"
            a = m_print(arg)
            if isinstance(arg, (MLam, MLet, MApp)):
                a = f"({a})"
            return f"{f} {a}"
    raise TypeError(f"not a term: {e!r}")


_M_TOKEN_RE = re.compile(
    r"""(?P<let>let\b) | (?P<in>in\b)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<lam>\\|λ) | (?P<dot>\.) | (?P<eq>=)
      | (?P<lpar>\() | (?P<rpar>\))
    """,
    re.VERBOSE,
)


class MSyntaxError(ParseError):
    pass


class _MParser(TokenCursor):
    TOKENS = _M_TOKEN_RE
    ERROR = MSyntaxError

    def parse(self) -> MTerm:
        kind = self.peek()[0]
        if kind == "lam":
            self.pop()
            x = self.expect("ident")
            self.expect("dot", ".")
            return MLam(x, self.parse())
        if kind == "let":
            self.pop()
            x = self.expect("ident")
            self.expect("eq", "=")
            bound = self.parse_app()
            self.expect("in")
            return MLet(x, bound, self.parse())
        return self.parse_app()

    def parse_app(self) -> MTerm:
        acc = self.parse_atom()
        while self.peek()[0] in ("ident", "lpar", "lam"):
            if self.peek()[0] == "lam":
                acc = MApp(acc, self.parse())
                break
            acc = MApp(acc, self.parse_atom())
        return acc

    def parse_atom(self) -> MTerm:
        t = self.pop()
        kind, text, _ = t
        if kind == "ident":
            return MVar(text)
        if kind == "lpar":
            inner = self.parse()
            self.expect("rpar", ")")
            return inner
        raise self.error(f"unexpected token {text!r}", t)


def m_parse(text: str) -> MTerm:
    return _MParser(text).parse_all()


# --------------------------------------------------------------- translation


def to_moggi(t: Term) -> MTerm:
    """unit disappears, bind sequences through a fresh let."""
    match t:
        case Variable(name):
            return MVar(name)
        case Lambda(x, body):
            return MLam(x, to_moggi(body))
        case Unit(v):
            return to_moggi(v)
        case Bind(left, right):
            x = fresh_var(all_vars(left) | all_vars(right))
            return MLet(x, to_moggi(left), MApp(to_moggi(right), MVar(x)))
    raise TypeError(f"not a term: {t!r}")


def from_moggi_value(v: MTerm) -> Value:
    match v:
        case MVar(name):
            return Variable(name)
        case MLam(x, body):
            if is_mvalue(body):
                return Lambda(x, Unit(from_moggi_value(body)))
            return Lambda(x, from_moggi_comp(body))
    raise TypeError(f"not a value: {v!r}")


def from_moggi_comp(n: MTerm) -> Comp:
    match n:
        case MApp(f, a) if is_mvalue(f) and is_mvalue(a):
            return Bind(Unit(from_moggi_value(a)), from_moggi_value(f))
        case MApp(f, a) if is_mvalue(f):
            # value applied to a non-value: run the argument, feed the function
            return Bind(from_moggi_comp(a), from_moggi_value(f))
        case MApp(f, a) if is_mvalue(a):
            va = from_moggi_value(a)
            x = fresh_var(all_vars(n))
            return Bind(from_moggi_comp(f), Lambda(x, Bind(Unit(va), Variable(x))))
        case MApp(f, a):
            x = fresh_var(all_vars(n))
            return Bind(from_moggi_comp(f), Lambda(x, Bind(from_moggi_comp(a), Variable(x))))
        case MLet(x, bound, body):
            left = Unit(from_moggi_value(bound)) if is_mvalue(bound) else from_moggi_comp(bound)
            right = Unit(from_moggi_value(body)) if is_mvalue(body) else from_moggi_comp(body)
            return Bind(left, Lambda(x, right))
    raise TypeError(f"not a non-value: {n!r}")


def from_moggi(e: MTerm) -> Comp:
    """Translate any term to a computation, wrapping values in unit."""
    if is_mvalue(e):
        return Unit(from_moggi_value(e))
    return from_moggi_comp(e)


# ------------------------------------------------------------- conversion


def convertible(a, b, fuel: int = 300) -> Optional[bool]:
    """Bounded bidirectional joinability on either calculus.

    True when a common reduct is found; False when both reachable sets
    were exhausted without meeting; None when budgets ran out
    (inconclusive, since conversion is only semi-decided by joining).
    Let-terms search with ``reduction.meet`` over ``m_enumerate_steps``
    as this module holds it when called; unit/bind computations search
    with ``reduction.joinable`` under the default rules.
    """
    let_terms = (MVar, MLam, MApp, MLet)
    if isinstance(a, let_terms) and isinstance(b, let_terms):
        found = ub_reduction.meet(a, b, m_enumerate_steps, fuel)
    elif is_comp(a) and is_comp(b):
        found = ub_reduction.joinable(a, b, fuel)
    else:
        raise TypeError("convertible expects two let-terms or two unit/bind computations")
    return None if found is None else found is not False


# -------------------------------------------------------------- simulation

# Where a unit/bind selector's child lands in the image: a bind's right
# operand is applied to the let's variable in the let-body, and unit
# leaves its value in place.
_IMAGE_SELECTORS = {
    BIND_LEFT: ("let-bound",),
    BIND_RIGHT: ("let-body", "app-fn"),
    LAMBDA_BODY: ("lam-body",),
    UNIT_ARG: (),
}

MSteps = tuple[tuple[MRule, Position], ...]

# Each unit/bind rule's let-steps from the image of its redex and from the
# image of its contractum, positions relative to that image, after which
# the two are alpha-equal: betac is a let elimination and a beta, id a
# beta in the let-body and a let identity, and ass a reassociation
# followed on both sides by the beta of the inner continuation.
RECIPES: dict[ub_reduction.Rule, tuple[MSteps, MSteps]] = {
    ub_reduction.Rule.BETA_C: (((MRule.LET_V, ()), (MRule.BETA_V, ())), ()),
    ub_reduction.Rule.ID: (((MRule.BETA_V, ("let-body",)), (MRule.ID, ())), ()),
    ub_reduction.Rule.ASS: (
        ((MRule.COMP, ()), (MRule.BETA_V, ("let-body", "let-bound"))),
        ((MRule.BETA_V, ("let-body",)),),
    ),
}


def image_position(p: Position) -> Position:
    """The position in ``to_moggi(m)`` of the image of m's subterm at p."""
    return tuple(sel for s in p for sel in _IMAGE_SELECTORS[s])


def simulate(source_image: MTerm, target_image: MTerm, step: ub_reduction.Step) -> Optional[tuple[MSteps, MSteps]]:
    """A witness that the images of a unit/bind step's source and target
    are convertible: the let-steps of the step's recipe, placed at the
    image of its position, from source_image and from target_image, when
    both replay (``reduction.replay``) and end alpha-equal; None
    otherwise, and for a rule without a recipe."""
    recipe = RECIPES.get(step.rule)
    if recipe is None:
        return None
    q = image_position(step.position)
    witness = tuple(tuple((rule, q + at) for rule, at in side) for side in recipe)
    ends = [ub_reduction.replay(t, side, m_root_step) for t, side in zip((source_image, target_image), witness)]
    if any(end is None for end in ends) or alpha_key(ends[0]) != alpha_key(ends[1]):
        return None
    return witness


# ------------------------------------------------------------ preservation


@dataclass(frozen=True, slots=True)
class PreservationResult:
    """One step's verdict: ``reached`` when the source image reduces to
    the target image, in ``steps`` steps (-1 when it does not): the depth
    at which the first search that reached the target found it, which
    may exceed the shortest reduction when a search confined to a subterm
    found it first; ``eta_join`` when it is not reached but the two
    images join with eta; ``refuted`` when neither holds and both
    whole-term searches were exhausted, so no budget would find either."""

    rule: MRule
    source_image: Comp
    target_image: Comp
    reached: bool
    steps: int
    eta_join: bool = False
    refuted: bool = False

    @property
    def preserved(self) -> Optional[bool]:
        """True when reached or joined with eta, False when refuted, and
        None (inconclusive) when a budget ran out first."""
        if self.reached or self.eta_join:
            return True
        return False if self.refuted else None


def _forward_rules(allow_eta: bool) -> frozenset:
    return ub_reduction.DEFAULT_RULES | ({ub_reduction.Rule.ETA_C} if allow_eta else set())


def _first_depths(src: Comp, successors, targets: set, fuel: int) -> tuple[dict[tuple, int], bool]:
    """The depth at which one breadth-first search from src over
    successors, with fuel steps, first reaches each target key it
    reaches, and whether the search exhausted the reachable set.  The
    search stops once every target has appeared (not exhausted, then).
    Its (key, depth) sequence is fixed, so a search for one target would
    see a prefix of it."""
    search = ub_reduction.explore(src, successors, fuel, set())
    depths: dict[tuple, int] = {}
    while len(depths) < len(targets):
        try:
            k, _, d = next(search)
        except StopIteration as stop:
            return depths, stop.value
        if k in targets:
            depths[k] = d
    return depths, False


def image_reaches(src: Comp, dst: Comp, fuel: int, allow_eta: bool) -> tuple[bool, int]:
    """Breadth-first check that src reduces to dst (up to alpha), with
    fuel steps: whether it does and in how many steps (-1 when not).
    The one-target case of the whole-term search ``check_preservation``
    runs."""
    target = alpha_key(dst)
    successors = ub_reduction.step_successors(_forward_rules(allow_eta))
    depth = _first_depths(src, successors, {target}, fuel)[0].get(target, -1)
    return depth >= 0, depth


def _confined(src: Comp, src_key: tuple, dst: Comp, key: tuple, rule: MRule, fuel: int, successors):
    """(reached, steps, eta_join) as found by searches confined to a
    subterm: forward from src, then a join with eta, each within the
    position where the two images differ and then within each of its
    ancestors below the root, each with fuel steps of its own; None when
    none of them succeeds.  Every state such a search visits is a reduct
    of its start, so what it finds is a witness; what it misses proves
    nothing."""
    q = diff_position(src, src_key, key)
    levels = [q[:n] for n in range(len(q), 0, -1)]
    forward = _forward_rules(rule is MRule.ETA_V)

    def reach(at):
        depth = _first_depths(src, successors(forward, at), {key}, fuel)[0].get(key)
        return None if depth is None else (True, depth, False)

    def join(at):
        found = ub_reduction.meet(src, dst, successors(ub_reduction.ALL_RULES, at), fuel, whole=True)
        return (False, -1, True) if is_comp(found) else None

    joins = [(join, at) for at in levels]
    # a let2 target needs eta, which the forward search does not take
    tries = joins if rule is MRule.LET_2 else [(reach, at) for at in levels] + joins
    for search, at in tries:
        found = search(at)
        if found is not None:
            return found
    return None


def check_preservation(e: MTerm, fuel: int = 400) -> list[PreservationResult]:
    """For every one-step reduct e > e', verify the translation of e
    reaches the translation of e'.

    Eta is enabled for eta steps.  The translation is compositional, so
    a step changes the image in one subterm, and each step is first
    searched there: an alpha-equal target is reached at depth 0;
    otherwise searches confined to the position where the images differ,
    and then to its ancestors below the root, look for the target
    forward and then for a join with eta (``_confined``).  Sequencing
    steps that name a non-value argument eta-expand the function position
    in the image, so there the images are connected by an eta step from
    the target back to the source, and only the join finds them.  The
    targets still open after that are searched from the whole source
    image, once per rule set in use for all of them at once (the default
    rules, and the default rules with etac when some open step is an eta
    step), with the verdicts of one ``image_reaches`` per target, and
    those not reached are joined with eta by ``reduction.joinable``.
    Every confined search of one call shares one memo of expansions per
    rule set and position.  A step neither reached nor joined is refuted
    only when its whole-term forward search and its join were both
    exhausted; otherwise it is inconclusive.
    """
    src = from_moggi(e)
    src_key = alpha_key(src)
    memos: dict[tuple, object] = {}

    def successors(rules: frozenset, at: Position = ()):
        if (rules, at) not in memos:
            memos[rules, at] = ub_reduction.memoised(ub_reduction.step_successors(rules, at))
        return memos[rules, at]

    steps = [(s.rule, from_moggi(s.result)) for s in m_enumerate_steps(e)]
    keys = [alpha_key(dst) for _, dst in steps]
    found = [
        (True, 0, False) if k == src_key else _confined(src, src_key, dst, k, rule, fuel, successors)
        for (rule, dst), k in zip(steps, keys)
    ]
    searches = {}
    for allow_eta in (False, True):
        targets = {
            k for (rule, _), k, f in zip(steps, keys, found) if f is None and (rule is MRule.ETA_V) == allow_eta
        }
        if targets:
            searches[allow_eta] = _first_depths(src, successors(_forward_rules(allow_eta)), targets, fuel)
    out = []
    for (rule, dst), k, f in zip(steps, keys, found):
        if f is not None:
            out.append(PreservationResult(rule, src, dst, *f))
            continue
        depths, exhausted = searches[rule is MRule.ETA_V]
        n = depths.get(k, -1)
        ok = n >= 0
        join = None if ok else ub_reduction.joinable(src, dst, fuel, ub_reduction.ALL_RULES)
        out.append(PreservationResult(rule, src, dst, ok, n, is_comp(join), exhausted and join is False))
    return out
