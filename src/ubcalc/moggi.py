"""The let-calculus's syntax, the two translations, and the recipes by
which each calculus simulates the other.

Let-terms are variables, abstractions, applications and lets; values are
variables and abstractions.  Their constructors live in ``terms`` and
their rules (``MRule``) in ``reduction``, whose one step kernel serves
both calculi: ``reduction.root_step`` contracts a let-redex as it does a
unit/bind one, ``reduction.Step`` records either, and
``reduction.replay`` replays either without being told which.  This
module holds the let syntax and the let-steps deduplicated up to alpha
(``m_enumerate_steps``).

to_moggi maps unit/bind terms into the let calculus (unit disappears,
bind becomes let); from_moggi maps back, wrapping translated values in
unit so that every image is a computation.  Both translations are
compositional, so each step of either calculus is simulated by a fixed
short reduction of the other at the image of its redex (``RECIPES``),
placed there by ``recipe_at`` for a unit/bind step and by
``let_recipe_at`` for a let-step.  ``meets`` is the one check for both
directions: the placed recipe replays from the two images to one term.
Replay needs no budget, so a step is simulated or it is not: a recipe
that does not meet is a failure, and no search stands in for it.
"""
from __future__ import annotations

import re
from typing import Optional

from . import reduction as ub_reduction
from .reduction import LET_RULES, MRule, Rule, Step
from .terms import (
    BIND_LEFT,
    BIND_RIGHT,
    LAMBDA_BODY,
    UNIT_ARG,
    Bind,
    Comp,
    Lambda,
    MApp,
    MLam,
    MLet,
    MTerm,
    MVar,
    ParseError,
    Position,
    Term,
    TokenCursor,
    Unit,
    Value,
    Variable,
    alpha_key,
    fresh_var,
    is_mvalue,
    subterm_at,
)


# ------------------------------------------------------------------- steps


def m_enumerate_steps(e: MTerm) -> list[Step]:
    """One-step reducts under the full compatible closure (under lambda,
    both application operands, both let positions), one per rule and alpha
    class, each with the position of its first redex in preorder.
    Contexts keep distinct keys distinct, so one deduplication at the root
    removes what one at every position would."""
    out: dict[tuple, Step] = {}
    for step in ub_reduction.enumerate_steps(e, LET_RULES):
        out.setdefault((step.rule, alpha_key(step.result)), step)
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


def to_moggi(t: Term, memo: Optional[dict] = None) -> MTerm:
    """unit disappears, bind sequences through a let whose variable is
    fresh for every name in the bind (``all_vars``).  memo maps node ids to
    the node (held, so its id stays unique) and its image; it may serve a
    term and its reducts, as each fresh variable comes from the node's names."""
    return _to_moggi(t, {} if memo is None else memo)[0]


def _to_moggi(t: Term, memo: dict) -> tuple[MTerm, frozenset[str]]:
    """t's image and ``all_vars(t)``, built in one walk of t."""
    if id(t) in memo:
        return memo[id(t)][1]
    match t:
        case Variable(name):
            out = MVar(name), t.fv
        case Lambda(x, body):
            image, names = _to_moggi(body, memo)
            out = MLam(x, image), names | {x}
        case Unit(v):
            out = _to_moggi(v, memo)
        case Bind(left, right):
            (left, left_names), (right, right_names) = _to_moggi(left, memo), _to_moggi(right, memo)
            names = left_names | right_names
            x = fresh_var(names)
            out = MLet(x, left, MApp(right, MVar(x))), names
        case _:
            raise TypeError(f"not a term: {t!r}")
    memo[id(t)] = t, out
    return out


def _from_moggi(e: MTerm, memo: dict) -> tuple[Term, frozenset[str]]:
    """e's value image when e is a value, else its computation image, and
    ``all_vars(e)``, built in one walk of e.  A non-value function runs
    first, and its argument in a continuation whose variable is fresh for
    every name in the application."""
    if id(e) in memo:
        return memo[id(e)][1]
    match e:
        case MVar(name):
            out = Variable(name), e.fv
        case MLam(x, body):
            image, names = _from_moggi(body, memo)
            out = Lambda(x, _as_comp(body, image)), names | {x}
        case MApp(f, a):
            (fn, f_names), (arg, a_names) = _from_moggi(f, memo), _from_moggi(a, memo)
            names = f_names | a_names
            if is_mvalue(f):
                out = Bind(_as_comp(a, arg), fn), names
            else:
                x = fresh_var(names)
                out = Bind(fn, Lambda(x, Bind(_as_comp(a, arg), Variable(x)))), names
        case MLet(x, bound, body):
            (left, bound_names), (right, body_names) = _from_moggi(bound, memo), _from_moggi(body, memo)
            out = Bind(_as_comp(bound, left), Lambda(x, _as_comp(body, right))), bound_names | body_names | {x}
        case _:
            raise TypeError(f"not a term: {e!r}")
    memo[id(e)] = e, out
    return out


def _as_comp(e: MTerm, image: Term) -> Comp:
    """The computation image of e, given its image: a value's under unit."""
    return Unit(image) if is_mvalue(e) else image


def from_moggi_value(v: MTerm) -> Value:
    if not is_mvalue(v):
        raise TypeError(f"not a value: {v!r}")
    return _from_moggi(v, {})[0]


def from_moggi_comp(n: MTerm) -> Comp:
    if not isinstance(n, (MApp, MLet)):
        raise TypeError(f"not a non-value: {n!r}")
    return _from_moggi(n, {})[0]


def from_moggi(e: MTerm, memo: Optional[dict] = None) -> Comp:
    """Translate any term to a computation, wrapping values in unit; memo as in ``to_moggi``."""
    return _as_comp(e, _from_moggi(e, {} if memo is None else memo)[0])


# -------------------------------------------------------------- simulation

# (rule, position) steps of either calculus, as ``reduction.replay`` takes
# them, and a witness: the steps from a source and from a target to one term.
Steps = tuple[tuple[Rule | MRule, Position], ...]
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
# function is the continuation of its argument (``_from_moggi``).
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
RECIPES: dict[Rule | MRule, Witness] = {
    Rule.BETA_C: (((MRule.LET_V, ()), (MRule.BETA_V, ())), ()),
    Rule.ID: (((MRule.BETA_V, ("let-body",)), (MRule.ID, ())), ()),
    Rule.ASS: (
        ((MRule.COMP, ()), (MRule.BETA_V, ("let-body", "let-bound"))),
        ((MRule.BETA_V, ("let-body",)),),
    ),
    MRule.BETA_V: (((Rule.BETA_C, ()),), ()),
    MRule.LET_V: (((Rule.BETA_C, ()),), ()),
    MRule.ID: (((Rule.ID, ()),), ()),
    MRule.COMP: (((Rule.ASS, ()),), ()),
    MRule.ETA_V: (((Rule.ETA_C, ()),), ()),
    MRule.LET_1: ((), ()),
    MRule.LET_2: ((), ((Rule.ETA_C, (BIND_RIGHT,)),)),
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


def meets(source_image, target_image, recipe: Witness) -> bool:
    """Whether a placed recipe's two sides replay (``reduction.replay``)
    from source_image and from target_image and end alpha-equal."""
    ends = [ub_reduction.replay(t, side) for t, side in zip((source_image, target_image), recipe)]
    return all(end is not None for end in ends) and alpha_key(ends[0]) == alpha_key(ends[1])


def _placed(recipe: Witness, q: Position) -> Witness:
    return tuple(tuple((rule, q + at) for rule, at in side) for side in recipe)


def recipe_at(step: Step) -> Witness:
    """The let-steps of a unit/bind step's recipe, placed at the image of
    its position."""
    return _placed(RECIPES[step.rule], image_position(step.position))


def let_recipe_at(e: MTerm, step: Step) -> Witness:
    """The unit/bind steps of the recipe of a let-step of e, placed at
    the image of its redex in ``from_moggi(e)``.  A non-value function that
    contracts to a value moves its application to the other case of
    ``_from_moggi``, one betac at the application's image further."""
    p = step.position
    q = let_image_position(e, p)
    source, target = _placed(RECIPES[step.rule], q)
    if p[-1:] == ("app-fn",) and not is_mvalue(subterm_at(e, p)) and is_mvalue(subterm_at(step.result, p)):
        source += ((Rule.BETA_C, q[:-1]),)
    return source, target
