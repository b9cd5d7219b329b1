"""The let-based computational lambda-calculus and the two translations.

Terms are variables, abstractions, applications and lets; values are
variables and abstractions.  Reduction has beta and eta for values, the
let identity, let reassociation, let elimination on values, and two
sequencing rules pushing non-value operands of applications into lets.
The term constructors are ``terms.Node``s, so free variables,
substitution, alpha keys and positions are the unit/bind calculus's own.

to_moggi maps unit/bind terms into the let calculus (unit disappears,
bind becomes let); from_moggi maps back, wrapping translated values in
unit so that every image is a computation.  Both translations are
compositional, so each step of either calculus is simulated by a fixed
short reduction of the other at the image of its redex (``RECIPES``):
``simulate`` replays a unit/bind step's let-steps, and
``check_preservation`` a let-step's unit/bind steps, searching with
``reduction.joinable`` only where a recipe does not meet.
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
    fresh_var,
    is_comp,
    positions,
    replace_keyed,
    subst,
    subterm_at,
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
    position: Position = ()
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
    class, each with the position of its first redex in preorder and its
    key, derived from e's key (computed when not given) along the path.
    Contexts keep distinct keys distinct, so one deduplication at the root
    removes what one at every position would."""
    if key is None:
        key = alpha_key(e)
    out: dict[tuple, MStep] = {}
    for path, sub in positions(e):
        for s in m_root_steps(sub):
            result, k = replace_keyed(e, key, path, s.result)
            if (s.rule, k) not in out:
                out[s.rule, k] = MStep(s.rule, result, path, k)
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
    """unit disappears, bind sequences through a let whose variable is
    fresh for every name in the bind (``all_vars``)."""
    return _to_moggi(t)[0]


def _to_moggi(t: Term) -> tuple[MTerm, frozenset[str]]:
    """t's image and ``all_vars(t)``, built in one walk of t."""
    match t:
        case Variable(name):
            return MVar(name), t.fv
        case Lambda(x, body):
            image, names = _to_moggi(body)
            return MLam(x, image), names | {x}
        case Unit(v):
            return _to_moggi(v)
        case Bind(left, right):
            (left, left_names), (right, right_names) = _to_moggi(left), _to_moggi(right)
            names = left_names | right_names
            x = fresh_var(names)
            return MLet(x, left, MApp(right, MVar(x))), names
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

# (rule, position) steps of either calculus, as ``reduction.replay`` takes
# them, and a witness: the steps from a source and from a target to one term.
Steps = tuple[tuple[enum.Enum, Position], ...]
Witness = tuple[Steps, Steps]

# Where a unit/bind selector's child lands in the image: a bind's right
# operand is applied to the let's variable in the let-body, and unit
# leaves its value in place.
_IMAGE_SELECTORS = {
    BIND_LEFT: ("let-bound",),
    BIND_RIGHT: ("let-body", "app-fn"),
    LAMBDA_BODY: ("lam-body",),
    UNIT_ARG: (),
}

# Where a let-term's child lands in the image of its parent, by selector
# and by whether the parent applies a value function: a non-value
# function runs first and its argument in the continuation, while a value
# function is the continuation of its argument (``from_moggi_comp``).
_LET_IMAGE_SELECTORS = {
    ("lam-body", False): (LAMBDA_BODY,),
    ("let-bound", False): (BIND_LEFT,),
    ("let-body", False): (BIND_RIGHT, LAMBDA_BODY),
    ("app-fn", False): (BIND_LEFT,),
    ("app-arg", False): (BIND_RIGHT, LAMBDA_BODY, BIND_LEFT),
    ("app-fn", True): (BIND_RIGHT,),
    ("app-arg", True): (BIND_LEFT,),
}

# Each rule's steps in the other calculus from the image of its redex and
# from the image of its contractum, positions relative to that image,
# after which the two are alpha-equal.  A unit/bind rule's are let-steps:
# betac is a let elimination and a beta, id a beta in the let-body and a
# let identity, and ass a reassociation followed on both sides by the
# beta of the inner continuation.  A let-rule's are unit/bind steps: betav
# and letv are a betac, id and comp an id and an ass, etav an etac at the
# value image, let1 leaves the image as it is, and let2's target image is
# the source image with its continuation eta-expanded.
RECIPES: dict[enum.Enum, Witness] = {
    ub_reduction.Rule.BETA_C: (((MRule.LET_V, ()), (MRule.BETA_V, ())), ()),
    ub_reduction.Rule.ID: (((MRule.BETA_V, ("let-body",)), (MRule.ID, ())), ()),
    ub_reduction.Rule.ASS: (
        ((MRule.COMP, ()), (MRule.BETA_V, ("let-body", "let-bound"))),
        ((MRule.BETA_V, ("let-body",)),),
    ),
    MRule.BETA_V: (((ub_reduction.Rule.BETA_C, ()),), ()),
    MRule.LET_V: (((ub_reduction.Rule.BETA_C, ()),), ()),
    MRule.ID: (((ub_reduction.Rule.ID, ()),), ()),
    MRule.COMP: (((ub_reduction.Rule.ASS, ()),), ()),
    MRule.ETA_V: (((ub_reduction.Rule.ETA_C, ()),), ()),
    MRule.LET_1: ((), ()),
    MRule.LET_2: ((), ((ub_reduction.Rule.ETA_C, (BIND_RIGHT,)),)),
}


def image_position(p: Position) -> Position:
    """The position in ``to_moggi(m)`` of the image of m's subterm at p."""
    return tuple(sel for s in p for sel in _IMAGE_SELECTORS[s])


def let_image_position(e: MTerm, p: Position) -> Position:
    """The position in ``from_moggi(e)`` of the image of e's subterm at
    p: of its value image when the subterm is a value (under unit, except
    as an application's value function), else of its computation image."""
    q = (UNIT_ARG,) if is_mvalue(e) else ()
    for sel in p:
        fn_value = isinstance(e, MApp) and is_mvalue(e.fn)
        e = subterm_at(e, (sel,))
        q += _LET_IMAGE_SELECTORS[sel, fn_value]
        if is_mvalue(e) and (sel, fn_value) != ("app-fn", True):
            q += (UNIT_ARG,)
    return q


def _meeting(source, target, witness: Witness, contract) -> Optional[Witness]:
    """witness when its two sides replay from source and from target
    (``reduction.replay`` with contract) and end alpha-equal, else None."""
    ends = [ub_reduction.replay(t, side, contract) for t, side in zip((source, target), witness)]
    if any(end is None for end in ends) or alpha_key(ends[0]) != alpha_key(ends[1]):
        return None
    return witness


def _placed(recipe: Witness, q: Position) -> Witness:
    return tuple(tuple((rule, q + at) for rule, at in side) for side in recipe)


def simulate(source_image: MTerm, target_image: MTerm, step: ub_reduction.Step) -> Optional[Witness]:
    """A witness that the images of a unit/bind step's source and target
    are convertible: the let-steps of the step's recipe, placed at the
    image of its position, from source_image and from target_image, when
    both replay (``reduction.replay``) and end alpha-equal; None
    otherwise, and for a rule without a recipe."""
    recipe = RECIPES.get(step.rule)
    if recipe is None:
        return None
    return _meeting(source_image, target_image, _placed(recipe, image_position(step.position)), m_root_step)


def _let_witness(e: MTerm, source_image: Comp, target_image: Comp, step: MStep) -> Optional[Witness]:
    """The unit/bind steps of a let-step's recipe, placed at the image of
    its redex, when they carry ``from_moggi`` of e and of the step's
    result to one term; None otherwise.  A non-value function that
    contracts to a value moves its application to the other case of
    ``from_moggi_comp``, one betac at the application's image further."""
    p = step.position
    q = let_image_position(e, p)
    source, target = _placed(RECIPES[step.rule], q)
    if p[-1:] == ("app-fn",) and not is_mvalue(subterm_at(e, p)) and is_mvalue(subterm_at(step.result, p)):
        source += ((ub_reduction.Rule.BETA_C, q[:-1]),)
    return _meeting(source_image, target_image, (source, target), ub_reduction.root_step)


# ------------------------------------------------------------ preservation


@dataclass(frozen=True, slots=True)
class PreservationResult:
    """One step's verdict: ``reached`` when the source image reduces to
    the target image, in ``steps`` steps (-1 when it does not), the
    length of the recipe's source side; ``eta_join`` when it is not
    reached but the two images join with eta; ``refuted`` when neither
    holds and the fallback join was exhausted without a meet.
    ``witness`` holds the recipe's two step lists, placed as ``simulate``
    places them, when they meet; None for a verdict of the fallback."""

    rule: MRule
    source_image: Comp
    target_image: Comp
    reached: bool
    steps: int
    eta_join: bool = False
    refuted: bool = False
    witness: Optional[Witness] = None

    @property
    def preserved(self) -> Optional[bool]:
        """True when reached or joined with eta, False when refuted, and
        None (inconclusive) when a budget ran out first."""
        if self.reached or self.eta_join:
            return True
        return False if self.refuted else None


def check_preservation(e: MTerm, fuel: int = 400) -> list[PreservationResult]:
    """For every one-step reduct e > e', check that the translation of e
    reaches, or joins with eta, the translation of e'.

    The translation is compositional, so each step is matched by its
    rule's recipe (``RECIPES``) at the image of its redex, replayed with
    ``reduction.replay``: a recipe without target-side steps is a
    reduction from the source image, and let2's, an etac from the target
    image back to the source image, is a join with eta.  A step whose
    recipe does not meet goes to one ``reduction.joinable`` with every
    rule and fuel steps a side: a common reduct is a join with eta, and a
    join exhausted without one refutes the step, since every forward
    reduct of the source image would have been a common reduct; a spent
    budget leaves it inconclusive.
    """
    src = from_moggi(e)
    out = []
    for step in m_enumerate_steps(e):
        dst = from_moggi(step.result)
        witness = _let_witness(e, src, dst, step)
        if witness is not None:
            reached = not witness[1]
            out.append(PreservationResult(step.rule, src, dst, reached, len(witness[0]) if reached else -1,
                                          not reached, witness=witness))
            continue
        join = ub_reduction.joinable(src, dst, fuel, ub_reduction.ALL_RULES)
        out.append(PreservationResult(step.rule, src, dst, False, -1, is_comp(join), join is False))
    return out
