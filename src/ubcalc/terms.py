"""Two-sorted term syntax for the unit/bind calculus.

Values are variables and abstractions; computations are ``unit V`` and
``M * V`` (bind).  An abstraction body is always a computation, the left
operand of bind is a computation and the right operand a value; no other
term forms exist.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Iterator, Union


# Child selectors of the unit/bind constructors, as printed in step paths.
UNIT_ARG = "unit-arg"
BIND_LEFT = "bind-left"
BIND_RIGHT = "bind-right"
LAMBDA_BODY = "lambda-body"

Position = tuple[str, ...]


_EMPTY: frozenset[str] = frozenset()


@lru_cache(maxsize=4096)
def _singleton(name: str) -> frozenset[str]:
    return frozenset((name,))


class Node:
    """A term node of either calculus.

    A constructor's fields are its binder, when it has one, then its
    children.  KIDS declares each child once, as (selector, field, whether
    the binder scopes over it); that one schema drives free variables,
    substitution, alpha keys and positions for both calculi.  A
    constructor without children is a variable with a ``name``.  TAG
    heads the node's alpha key and VAR is its calculus's variable
    constructor.

    ``fv``, the free variables, is computed once at construction from the
    children's; equality, hashing and repr see the declared fields only.
    """

    __slots__ = ("fv",)
    KIDS: tuple[tuple[str, str, bool], ...] = ()
    TAG = ""
    VAR: type

    def __post_init__(self) -> None:
        # share sets: a variable's comes from _singleton, and a node whose
        # children add or remove nothing reuses a child's
        fv = None if self.KIDS else _singleton(self.name)
        for _, field, scoped in self.KIDS:
            kid = getattr(self, field).fv
            if scoped and self.binder in kid:
                kid = kid - {self.binder} or _EMPTY
            if fv is None or fv <= kid:
                fv = kid
            elif not kid <= fv:
                fv = fv | kid
        object.__setattr__(self, "fv", fv)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which sets fv
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)


@dataclass(frozen=True, slots=True)
class Variable(Node):
    name: str


@dataclass(frozen=True, slots=True)
class Lambda(Node):
    binder: str
    body: "Comp"
    KIDS = ((LAMBDA_BODY, "body", True),)
    TAG = "lam"
    VAR = Variable


Value = Union[Variable, Lambda]


@dataclass(frozen=True, slots=True)
class Unit(Node):
    value: Value
    KIDS = ((UNIT_ARG, "value", False),)
    TAG = "unit"


@dataclass(frozen=True, slots=True)
class Bind(Node):
    left: "Comp"
    right: Value
    KIDS = ((BIND_LEFT, "left", False), (BIND_RIGHT, "right", False))
    TAG = "bind"


Comp = Union[Unit, Bind]
Term = Union[Value, Comp]


class SortError(ValueError):
    """A term was used at the wrong sort (value vs computation)."""


class ParseError(ValueError):
    """A syntax error at a line and column of the parsed text; each
    grammar raises its own subclass."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class TermSyntaxError(ParseError):
    pass


def is_value(t: Term) -> bool:
    return isinstance(t, (Variable, Lambda))


def is_comp(t: Term) -> bool:
    return isinstance(t, (Unit, Bind))


# ---------------------------------------------------------------- variables

FRESH_PREFIX = "x"


def fresh_var(avoid: set[str] | frozenset[str]) -> str:
    """First name x0, x1, ... not in `avoid`; deterministic given `avoid`."""
    i = 0
    while f"{FRESH_PREFIX}{i}" in avoid:
        i += 1
    return f"{FRESH_PREFIX}{i}"


class ScopedMemo(dict):
    """Per-call memo for an evaluator whose result at a node depends only
    on the node and on what the environment binds the node's free
    variables to.

    A key is the node's identity plus the environment's values for its
    free variables, in the iteration order of the node's own ``fv`` (a
    missing name reads as None).  Each keyed node is held until the memo
    is dropped, so its identity is not reused while the memo lives; build
    one per top-level evaluation and let it go with the call."""

    __slots__ = ("_held",)

    def __init__(self) -> None:
        super().__init__()
        self._held: dict[int, Node] = {}

    def cached(self, node: Node, env: dict, compute: Callable[[], Any]) -> Any:
        """The memoised result at (node, env), running compute() on a miss."""
        key = (id(node), *[env.get(x) for x in node.fv])
        hit = self.get(key)
        if hit is None:
            self._held[id(node)] = node
            hit = self[key] = compute()
        return hit


def subterms(t: Node) -> Iterator[Node]:
    """All subterms of t, preorder, including t itself."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        stack.extend(getattr(s, field) for _, field, _ in reversed(s.KIDS))


def all_vars(t: Node) -> frozenset[str]:
    """Every variable name occurring in t, free or bound: its free
    variables and its binders."""
    names = set(t.fv)
    stack = [t]
    while stack:
        s = stack.pop()
        binder = getattr(s, "binder", None)
        if binder is not None:
            names.add(binder)
        for _, field, _ in s.KIDS:
            stack.append(getattr(s, field))
    return frozenset(names)


# ------------------------------------------------------------ substitution


def subst(t: Node, x: str, v: Node) -> Node:
    """Capture-avoiding substitution of the value v for x in t, in either
    calculus.  A binder that would capture a free variable of v becomes
    the first fresh_var outside v's and its scope's free variables, x and
    the old binder."""
    if x not in t.fv:
        return t
    if not t.KIDS:
        return v
    kids = [(getattr(t, field), scoped) for _, field, scoped in t.KIDS]
    binder = getattr(t, "binder", None)
    if binder is None:
        return type(t)(*[subst(k, x, v) for k, _ in kids])
    if binder == x:
        return type(t)(binder, *[k if scoped else subst(k, x, v) for k, scoped in kids])
    if binder in v.fv and any(scoped and x in k.fv for k, scoped in kids):
        new = fresh_var(v.fv.union((x, binder), *(k.fv for k, scoped in kids if scoped)))
        kids = [(subst(k, binder, t.VAR(new)) if scoped else k, scoped) for k, scoped in kids]
        binder = new
    return type(t)(binder, *[subst(k, x, v) for k, _ in kids])


def unshadow(t: Term, avoid: frozenset[str] | set[str] = frozenset()) -> Term:
    """Alpha-variant of t whose binders are pairwise distinct, disjoint
    from free variables and from `avoid`."""
    taken = set(avoid) | t.fv

    def walk(s: Term) -> Term:
        match s:
            case Variable():
                return s
            case Lambda(x, b):
                if x in taken:
                    new = fresh_var(taken | all_vars(b))
                    taken.add(new)
                    return Lambda(new, walk(subst(b, x, Variable(new))))
                taken.add(x)
                return Lambda(x, walk(b))
            case Unit(v):
                return Unit(walk(v))
            case Bind(l, r):
                return Bind(walk(l), walk(r))
        raise TypeError(f"not a term: {s!r}")

    return walk(t)


# ------------------------------------------------------------ alpha-equality

# de Bruijn skeletons are the structural internal form: bound variables
# become indices, free variables keep their names.


def debruijn(t: Node, env: tuple[str, ...] = ()) -> tuple:
    if not t.KIDS:
        if t.name in env:
            return ("b", env[::-1].index(t.name))
        return ("f", t.name)
    binder = getattr(t, "binder", None)
    inner = env if binder is None else env + (binder,)
    return (t.TAG, *[debruijn(getattr(t, field), inner if scoped else env) for _, field, scoped in t.KIDS])


def alpha_eq(t1: Node, t2: Node) -> bool:
    if is_value(t1) != is_value(t2):
        raise SortError("alpha_eq compares terms of the same sort")
    return debruijn(t1) == debruijn(t2)


def alpha_key(t: Node) -> tuple:
    """Hashable key identifying t up to alpha-equivalence."""
    return debruijn(t)


# ---------------------------------------------------------------- positions


def positions(t: Node) -> Iterator[tuple[Position, Node]]:
    """Every (path, subterm) of t in preorder, leftmost first; a path is
    the selectors of the children taken from the root."""
    stack: list[tuple[Position, Node]] = [((), t)]
    while stack:
        path, s = stack.pop()
        yield path, s
        for sel, field, _ in reversed(s.KIDS):
            stack.append((path + (sel,), getattr(s, field)))


def _field(t: Node, sel: str) -> str:
    for s, field, _ in t.KIDS:
        if s == sel:
            return field
    raise ValueError(f"selector {sel!r} does not address {t!r}")


def subterm_at(t: Node, path: Position) -> Node:
    for sel in path:
        t = getattr(t, _field(t, sel))
    return t


def replace_at(t: Node, path: Position, new: Node) -> Node:
    """t with its subterm at path replaced by new; only the spine above
    the path is rebuilt."""
    spine = []
    for sel in path:
        field = _field(t, sel)
        spine.append((t, field))
        t = getattr(t, field)
    for node, field in reversed(spine):
        new = type(node)(*[new if f == field else getattr(node, f) for f in node.__match_args__])
    return new


# ------------------------------------------------------------------ printing


def _print_value_atom(v: Value) -> str:
    match v:
        case Variable(name):
            return name
        case Lambda():
            return f"({print_term(v)})"
    raise TypeError(f"not a value: {v!r}")


def print_term(t: Term) -> str:
    match t:
        case Variable(name):
            return name
        case Lambda(binder, body):
            return f"\\{binder}. {print_term(body)}"
        case Unit(v):
            return f"unit {_print_value_atom(v)}"
        case Bind(left, right):
            return f"{print_term(left)} * {_print_value_atom(right)}"
    raise TypeError(f"not a term: {t!r}")


# ------------------------------------------------------------------- parsing

_TOKEN_RE = re.compile(
    r"""(?P<unit>unit\b)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<lam>\\|λ)
      | (?P<star>\*|⋆)
      | (?P<at>@)
      | (?P<dot>\.)
      | (?P<lpar>\()
      | (?P<rpar>\))
    """,
    re.VERBOSE,
)


# A token is (kind, text, offset of the text in the parsed text).
Token = tuple[str, str, int]


def _syntax_error(error: type[ParseError], message: str, text: str, pos: int) -> ParseError:
    line = text.count("\n", 0, pos) + 1
    return error(message, line, pos - text.rfind("\n", 0, pos))


@lru_cache(maxsize=8)
def _skipping_space(token_re: re.Pattern) -> re.Pattern:
    """token_re after optional whitespace: one match per token."""
    return re.compile(rf"\s*(?:{token_re.pattern})", token_re.flags)


def tokenize(text: str, token_re: re.Pattern, error: type[ParseError]) -> list[Token]:
    """The tokens of text under a grammar's token regex, whose named
    groups are the token kinds, closed by an eof token.  Whitespace
    between tokens is skipped; a character that starts no token raises
    error."""
    toks: list[Token] = []
    pos = 0
    for m in _skipping_space(token_re).finditer(text):
        if m.start() != pos:
            break
        pos = m.end()
        kind = m.lastgroup
        toks.append((kind, m.group(kind), m.start(kind)))
    rest = text[pos:]
    if rest.strip():
        pos += len(rest) - len(rest.lstrip())
        raise _syntax_error(error, f"unexpected character {text[pos]!r}", text, pos)
    toks.append(("eof", "", len(text)))
    return toks


class TokenCursor:
    """Base of the recursive-descent parsers: a subclass names its
    grammar's token regex (TOKENS), its syntax-error class (ERROR) and its
    start rule (parse)."""

    TOKENS: re.Pattern
    ERROR: type[ParseError]

    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text, self.TOKENS, self.ERROR)
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def pop(self) -> Token:
        t = self.toks[self.i]
        if t[0] != "eof":
            self.i += 1
        return t

    def expect(self, kind: str, text: str | None = None) -> str:
        """Pop the next token, which must be of the kind (and text) given,
        and return its text."""
        got_kind, got, _ = self.peek()
        if got_kind != kind or (text is not None and got != text):
            raise self.error(f"expected {text or kind!r}, got {got!r}")
        self.i += 1
        return got

    def error(self, message: str, at: Token | None = None) -> ParseError:
        """The grammar's syntax error at token `at`, by default the next one."""
        return _syntax_error(self.ERROR, message, self.text, (at or self.peek())[2])

    def parse_all(self) -> Any:
        """The start rule over the whole text."""
        result = self.parse()
        kind, text, _ = self.peek()
        if kind != "eof":
            raise self.error(f"trailing input {text!r}")
        return result


class _Parser(TokenCursor):
    """Recursive descent over the surface grammar.

    Comp  ::= item (("*" ValueAtom) | ("@" item))*
    item  ::= "unit" ValueAtom | "(" Term ")" | ValueAtom
    ValueAtom ::= ident | lambda | "(" Term ")"
    lambda extends as far right as possible; "*" and "@" are
    left-associative at the same level; "@" is sugar for monadic
    application (see desugar_app).
    """

    TOKENS = _TOKEN_RE
    ERROR = TermSyntaxError

    def sort_error(self, message: str) -> ParseError:
        return self.error(f"sort error: {message}")

    def parse(self) -> Term:
        first = self.parse_item()
        parts: list[tuple[str, Term]] = []
        while self.peek()[0] in ("star", "at"):
            op = self.pop()[0]
            if op == "star":
                arg = self.parse_value_atom()
            else:
                arg = self.parse_item()
            parts.append((op, arg))
        if not parts:
            return first
        acc = first
        if not is_comp(acc):
            raise self.sort_error("left operand of '*'/'@' must be a computation")
        for op, arg in parts:
            if op == "star":
                if not is_value(arg):
                    raise self.sort_error("right operand of '*' must be a value")
                acc = Bind(acc, arg)
            else:
                if not is_comp(arg):
                    raise self.sort_error("operands of '@' must be computations")
                acc = desugar_app(acc, arg)
        return acc

    def parse_item(self) -> Term:
        if self.peek()[0] == "unit":
            self.pop()
            v = self.parse_value_atom()
            return Unit(v)
        return self.parse_value_atom(allow_comp=True)

    def parse_value_atom(self, allow_comp: bool = False) -> Term:
        kind, text, _ = self.peek()
        if kind == "ident":
            self.pop()
            return Variable(text)
        if kind == "lam":
            self.pop()
            name_kind, name, _ = self.peek()
            if name_kind != "ident":
                raise self.error("expected identifier after lambda")
            self.pop()
            if self.peek()[0] != "dot":
                raise self.error("expected '.' after lambda binder")
            self.pop()
            body = self.parse()
            if not is_comp(body):
                raise self.sort_error("lambda body must be a computation")
            return Lambda(name, body)
        if kind == "lpar":
            self.pop()
            inner = self.parse()
            if self.peek()[0] != "rpar":
                raise self.error("expected ')'")
            self.pop()
            if not allow_comp and not is_value(inner):
                raise self.sort_error("expected a value")
            return inner
        raise self.error(f"unexpected token {text!r}")


def parse_term(text: str) -> Term:
    return _Parser(text).parse_all()


# ------------------------------------------------------------------ app sugar


def desugar_app(m: Comp, n: Comp) -> Comp:
    """Monadic application M @ N == M * (\\z. N * z) with z fresh for N."""
    z = fresh_var(n.fv)
    return Bind(m, Lambda(z, Bind(n, Variable(z))))


# -------------------------------------------------------------- common terms


def omega_c() -> Comp:
    """The closed looping computation unit (\\x. unit x * x) * (\\x. unit x * x)."""
    w = Lambda("x", Bind(Unit(Variable("x")), Variable("x")))
    return Bind(Unit(w), w)


def term_size(t: Term) -> int:
    return sum(1 for _ in subterms(t))
