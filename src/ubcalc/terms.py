"""Term syntax of the unit/bind calculus and of the let-calculus.

Unit/bind values are variables and abstractions; computations are
``unit V`` and ``M * V`` (bind).  An abstraction body is always a
computation, the left operand of bind is a computation and the right
operand a value.  Let-terms are variables, abstractions, applications
and lets, unsorted.  The constructors of both calculi are hand-built
``Node``s of one kernel; the printer and parser here are the unit/bind
calculus's, and ``moggi`` holds the let syntax.
"""
from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, Callable, Iterator, Union


# Child selectors of the unit/bind constructors, as printed in step paths.
UNIT_ARG = "unit-arg"
BIND_LEFT = "bind-left"
BIND_RIGHT = "bind-right"
LAMBDA_BODY = "lambda-body"

Position = tuple[str, ...]


_EMPTY: frozenset[str] = frozenset()
_set = object.__setattr__


@lru_cache(maxsize=4096)
def _singleton(name: str) -> frozenset[str]:
    return frozenset((name,))


class Fields:
    """Base of a frozen node; its constructor sets the fields ``__match_args__``
    names once, and copy and pickle rebuild through the constructor."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class Node(Fields):
    """A term node of either calculus.

    A constructor's fields are its binder, when it has one, then its
    children.  KIDS declares each child once, as (selector, field, whether
    the binder scopes over it); that one schema drives substitution,
    alpha keys and positions for both calculi.  A constructor without
    children is a variable with a ``name``.  TAG heads the node's alpha
    key and VAR is its calculus's variable constructor.

    Each constructor's own ``__init__`` sets its fields and ``fv``, the
    free variables: a variable's set comes from ``_singleton``, and a node
    whose children add or remove nothing reuses a child's.  A closed node
    keeps its alpha key in ``closed_key`` once ``debruijn`` has walked it.
    Equality and hashing see the field tuple (``_fields``), as a dataclass's.
    """

    __slots__ = ("fv", "closed_key")
    KIDS: tuple[tuple[str, str, bool], ...] = ()
    TAG = ""
    VAR: type

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())


class Variable(Node):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)
        _set(self, "fv", _singleton(name))

    def _fields(self) -> tuple:
        return (self.name,)


class Lambda(Node):
    __slots__ = __match_args__ = ("binder", "body")
    KIDS = ((LAMBDA_BODY, "body", True),)
    TAG = "lam"
    VAR = Variable

    def __init__(self, binder: str, body: Comp):
        _set(self, "binder", binder)
        _set(self, "body", body)
        _set(self, "fv", body.fv - {binder} or _EMPTY if binder in body.fv else body.fv)

    def _fields(self) -> tuple:
        return self.binder, self.body


Value = Union[Variable, Lambda]


class Unit(Node):
    __slots__ = __match_args__ = ("value",)
    KIDS = ((UNIT_ARG, "value", False),)
    TAG = "unit"

    def __init__(self, value: Value):
        _set(self, "value", value)
        _set(self, "fv", value.fv)

    def _fields(self) -> tuple:
        return (self.value,)


class Bind(Node):
    __slots__ = __match_args__ = ("left", "right")
    KIDS = ((BIND_LEFT, "left", False), (BIND_RIGHT, "right", False))
    TAG = "bind"

    def __init__(self, left: Comp, right: Value):
        _set(self, "left", left)
        _set(self, "right", right)
        a, b = left.fv, right.fv
        _set(self, "fv", b if a <= b else a if b <= a else a | b)

    def _fields(self) -> tuple:
        return self.left, self.right


Comp = Union[Unit, Bind]
Term = Union[Value, Comp]


class MVar(Node):
    __slots__ = __match_args__ = ("name",)
    __init__, _fields = Variable.__init__, Variable._fields


class MLam(Node):
    __slots__ = __match_args__ = ("binder", "body")
    KIDS = (("lam-body", "body", True),)
    TAG = "lam"
    VAR = MVar
    __init__, _fields = Lambda.__init__, Lambda._fields


class MApp(Node):
    __slots__ = __match_args__ = ("fn", "arg")
    KIDS = (("app-fn", "fn", False), ("app-arg", "arg", False))
    TAG = "app"

    def __init__(self, fn: MTerm, arg: MTerm):
        _set(self, "fn", fn)
        _set(self, "arg", arg)
        a, b = fn.fv, arg.fv
        _set(self, "fv", b if a <= b else a if b <= a else a | b)

    def _fields(self) -> tuple:
        return self.fn, self.arg


class MLet(Node):
    __slots__ = __match_args__ = ("binder", "bound", "body")
    KIDS = (("let-bound", "bound", False), ("let-body", "body", True))
    TAG = "let"
    VAR = MVar

    def __init__(self, binder: str, bound: MTerm, body: MTerm):
        _set(self, "binder", binder)
        _set(self, "bound", bound)
        _set(self, "body", body)
        a, b = bound.fv, body.fv - {binder} or _EMPTY if binder in body.fv else body.fv
        _set(self, "fv", b if a <= b else a if b <= a else a | b)

    def _fields(self) -> tuple:
        return self.binder, self.bound, self.body


MTerm = Union[MVar, MLam, MApp, MLet]


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


def is_mvalue(e: MTerm) -> bool:
    return isinstance(e, (MVar, MLam))


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
    from free variables and from `avoid`; t itself when no binder needs
    renaming."""
    return _unshadow(t, set(avoid) | t.fv)


def _unshadow(s: Term, taken: set[str]) -> Term:
    """s with each binder that is in `taken` renamed fresh, in preorder,
    every binder added to `taken`; a node under which nothing is renamed
    is returned as it is."""
    match s:
        case Variable():
            return s
        case Lambda(x, b):
            if x in taken:
                new = fresh_var(taken | all_vars(b))
                taken.add(new)
                return Lambda(new, _unshadow(subst(b, x, Variable(new)), taken))
            taken.add(x)
            body = _unshadow(b, taken)
            return s if body is b else Lambda(x, body)
        case Unit(v):
            value = _unshadow(v, taken)
            return s if value is v else Unit(value)
        case Bind(l, r):
            left, right = _unshadow(l, taken), _unshadow(r, taken)
            return s if left is l and right is r else Bind(left, right)
    raise TypeError(f"not a term: {s!r}")


# ------------------------------------------------------------ alpha-equality

# de Bruijn skeletons are the structural internal form: bound variables
# become indices into env (innermost binder first), free ones keep names.


def debruijn(t: Node, env: tuple[str, ...] = ()) -> tuple:
    kids = t.KIDS
    if not kids:
        return ("b", env.index(t.name)) if t.name in env else ("f", t.name)
    closed = not t.fv
    if closed:
        # no binder above a closed node changes its key: walk it once
        try:
            return t.closed_key
        except AttributeError:
            pass
    _, field, scoped = kids[0]
    key = debruijn(getattr(t, field), (t.binder,) + env if scoped else env)
    if len(kids) == 1:
        key = (t.TAG, key)
    else:
        _, field, scoped = kids[1]
        key = (t.TAG, key, debruijn(getattr(t, field), (t.binder,) + env if scoped else env))
    if closed:
        _set(t, "closed_key", key)
    return key


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


def _kid(t: Node, sel: str) -> tuple[str, bool]:
    """The child of t that sel selects: its field and whether t's binder
    scopes over it."""
    for s, field, scoped in t.KIDS:
        if s == sel:
            return field, scoped
    raise ValueError(f"selector {sel!r} does not address {t!r}")


def subterm_at(t: Node, path: Position) -> Node:
    for sel in path:
        t = getattr(t, _kid(t, sel)[0])
    return t


def replace_at(t: Node, path: Position, new: Node) -> Node:
    """t with its subterm at path replaced by new; only the spine above
    the path is rebuilt."""
    spine = []
    for sel in path:
        field = _kid(t, sel)[0]
        spine.append((t, field))
        t = getattr(t, field)
    for node, field in reversed(spine):
        new = with_child(node, field, new)
    return new


def with_child(t: Node, field: str, new: Node) -> Node:
    """t with the child in field replaced by new."""
    return type(t)(*[new if f == field else getattr(t, f) for f in t.__match_args__])


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
    """token_re after optional whitespace: one match per token, an eof
    token at the end of the text and a bad token at a character that
    starts no token."""
    return re.compile(rf"\s*(?:{token_re.pattern}|(?P<eof>\Z)|(?P<bad>.))", token_re.flags)


@lru_cache(maxsize=8)
def _token_run(token_re: re.Pattern) -> re.Pattern:
    """Tokens of token_re and the whitespace before each: its match at the
    start of a text ends where the first character that starts no token
    stands, after optional whitespace."""
    return re.compile(rf"(?:\s*(?:{token_re.pattern}))*", token_re.flags)


class TokenCursor:
    """Base of the recursive-descent parsers: a subclass names its
    grammar's token regex (TOKENS), its syntax-error class (ERROR) and its
    start rule (parse).

    Tokens are read on demand from a position in the text, whitespace
    before each skipped.  A character that starts no token is the error,
    wherever it stands: every syntax error the cursor builds is that
    character's if the text has one."""

    TOKENS: re.Pattern
    ERROR: type[ParseError]

    def __init__(self, text: str):
        self.text = text
        self.match = _skipping_space(self.TOKENS).match
        self.pos = 0  # where the next token, or the whitespace before it, starts
        self.next: Token | None = None  # the token at pos once peeked, ending at self.end
        self.end = 0

    def peek(self) -> Token:
        tok = self.next
        if tok is None:
            m = self.match(self.text, self.pos)
            kind = m.lastgroup
            text = m[kind]
            end = self.end = m.end()
            tok = (kind, text, end - len(text))
            if kind == "bad":
                raise self.error(f"unexpected character {text!r}", tok)
            self.next = tok
        return tok

    def pop(self) -> Token:
        tok = self.next or self.peek()
        self.pos, self.next = self.end, None
        return tok

    def expect(self, kind: str, text: str | None = None) -> str:
        """Pop the next token, which must be of the kind (and text) given,
        and return its text."""
        got_kind, got, _ = self.next or self.peek()
        if got_kind != kind or (text is not None and got != text):
            raise self.error(f"expected {text or kind!r}, got {got!r}")
        self.pos, self.next = self.end, None
        return got

    def error(self, message: str, at: Token | None = None) -> ParseError:
        """The grammar's syntax error at token `at`, by default the next
        one, unless the text holds a character that starts no token."""
        return self.bad_character() or _syntax_error(self.ERROR, message, self.text, (at or self.peek())[2])

    def bad_character(self) -> ParseError | None:
        """The syntax error at the text's first character that starts no
        token, or None if it has none."""
        rest = self.text[_token_run(self.TOKENS).match(self.text).end():].lstrip()
        if not rest:
            return None
        return _syntax_error(self.ERROR, f"unexpected character {rest[0]!r}", self.text, len(self.text) - len(rest))

    def parse_all(self) -> Any:
        """The start rule over the whole text.  A text nested past the
        recursion limit that holds a character starting no token fails
        on that character; one that holds none raises RecursionError."""
        try:
            result = self.parse()
        except RecursionError:
            bad = self.bad_character()
            if bad is None:
                raise
            raise bad from None
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
