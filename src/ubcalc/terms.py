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


@dataclass(frozen=True, slots=True)
class Variable:
    name: str


@dataclass(frozen=True, slots=True)
class Lambda:
    binder: str
    body: "Comp"


Value = Union[Variable, Lambda]


@dataclass(frozen=True, slots=True)
class Unit:
    value: Value


@dataclass(frozen=True, slots=True)
class Bind:
    left: "Comp"
    right: Value


Comp = Union[Unit, Bind]
Term = Union[Value, Comp]


class SortError(ValueError):
    """A term was used at the wrong sort (value vs computation)."""


class ParseError(ValueError):
    """A syntax error at a line and column of the parsed text; each
    grammar raises its own subclass."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
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


def free_vars(t: Term) -> frozenset[str]:
    match t:
        case Variable(name):
            return frozenset((name,))
        case Lambda(binder, body):
            return free_vars(body) - {binder}
        case Unit(v):
            return free_vars(v)
        case Bind(left, right):
            return free_vars(left) | free_vars(right)
    raise TypeError(f"not a term: {t!r}")


class ScopedMemo(dict):
    """Per-call memo for an evaluator whose result at a node depends only
    on the node and on what the environment binds the node's free
    variables to.

    A key is the node's identity plus the environment's values for its
    free variables, in sorted name order (a missing name reads as None).
    Each keyed node is held until the memo is dropped, so its identity is
    not reused while the memo lives; build one per top-level evaluation
    and let it go with the call."""

    __slots__ = ("_scopes",)

    def __init__(self) -> None:
        super().__init__()
        self._scopes: dict[int, tuple[Term, tuple[str, ...]]] = {}

    def cached(self, node: Term, env: dict, compute: Callable[[], Any]) -> Any:
        """The memoised result at (node, env), running compute() on a miss."""
        scope = self._scopes.get(id(node))
        if scope is None:
            scope = self._scopes[id(node)] = (node, tuple(sorted(free_vars(node))))
        key = (id(node), *[env.get(x) for x in scope[1]])
        hit = self.get(key)
        if hit is None:
            hit = self[key] = compute()
        return hit


def all_vars(t: Term) -> frozenset[str]:
    """Every variable name occurring in t, free or bound."""
    match t:
        case Variable(name):
            return frozenset((name,))
        case Lambda(binder, body):
            return all_vars(body) | {binder}
        case Unit(v):
            return all_vars(v)
        case Bind(left, right):
            return all_vars(left) | all_vars(right)
    raise TypeError(f"not a term: {t!r}")


# ------------------------------------------------------------ substitution


def subst(t: Term, x: str, v: Value) -> Term:
    """Capture-avoiding substitution of value v for x in t (either sort)."""
    match t:
        case Variable(name):
            return v if name == x else t
        case Lambda(binder, body):
            if binder == x or x not in free_vars(body):
                return t
            if binder in free_vars(v):
                new = fresh_var(free_vars(body) | free_vars(v) | {x, binder})
                body = subst(body, binder, Variable(new))
                binder = new
            return Lambda(binder, subst(body, x, v))
        case Unit(w):
            return Unit(subst(w, x, v))
        case Bind(left, right):
            return Bind(subst(left, x, v), subst(right, x, v))
    raise TypeError(f"not a term: {t!r}")


def unshadow(t: Term, avoid: frozenset[str] | set[str] = frozenset()) -> Term:
    """Alpha-variant of t whose binders are pairwise distinct, disjoint
    from free variables and from `avoid`."""
    taken = set(avoid) | set(free_vars(t))

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


def debruijn(t: Term, env: tuple[str, ...] = ()) -> tuple:
    match t:
        case Variable(name):
            for i, b in enumerate(reversed(env)):
                if b == name:
                    return ("b", i)
            return ("f", name)
        case Lambda(binder, body):
            return ("lam", debruijn(body, env + (binder,)))
        case Unit(v):
            return ("unit", debruijn(v, env))
        case Bind(left, right):
            return ("bind", debruijn(left, env), debruijn(right, env))
    raise TypeError(f"not a term: {t!r}")


def alpha_eq(t1: Term, t2: Term) -> bool:
    if is_value(t1) != is_value(t2):
        raise SortError("alpha_eq compares terms of the same sort")
    return debruijn(t1) == debruijn(t2)


def alpha_key(t: Term) -> tuple:
    """Hashable key identifying t up to alpha-equivalence."""
    return debruijn(t)


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
    z = fresh_var(free_vars(n))
    return Bind(m, Lambda(z, Bind(n, Variable(z))))


# -------------------------------------------------------------- common terms


def omega_c() -> Comp:
    """The closed looping computation unit (\\x. unit x * x) * (\\x. unit x * x)."""
    w = Lambda("x", Bind(Unit(Variable("x")), Variable("x")))
    return Bind(Unit(w), w)


def subterms(t: Term) -> Iterator[Term]:
    """All subterms of t, preorder, including t itself."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        match s:
            case Lambda(_, body):
                stack.append(body)
            case Unit(v):
                stack.append(v)
            case Bind(left, right):
                stack.append(right)
                stack.append(left)


def term_size(t: Term) -> int:
    return sum(1 for _ in subterms(t))
