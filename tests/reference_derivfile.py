"""The derivation file reader and writer as they stood before the reader
scanned only record syntax and the writer printed each type once, and
the eager token cursor all four grammars read through before tokens
were read on demand.

``test_derivfile.py`` holds the new module to this one: on every input
the new reader must give an equal Derivation or the same error (class,
message, line and column).  The new writer must give the same text up
to brackets, since a right operand of '&' that is itself an
intersection is now bracketed.  The type printers are kept here too, so
the writer is compared with the old type printing, not with itself.
``test_terms.py`` holds the term, type and let-term parsers read
through ``frozen`` cursors to the same rule.
"""
from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, Callable

from ubcalc.assignment import RULES, Basis, Derivation, Judgment, make_basis
from ubcalc.derivfile import DerivationSyntaxError
from ubcalc.terms import ParseError, parse_term, print_term
from ubcalc.typesys import (
    AnyType,
    CInter,
    COmega,
    ComType,
    CTf,
    ValType,
    VArrow,
    VAtom,
    VInter,
    VOmega,
    is_vtype,
    parse_type,
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


def frozen(parser: type) -> type:
    """parser's grammar read through the eager cursor above: its rules,
    with this module's peek, pop, expect and error."""
    return type(f"Frozen{parser.__name__}", (TokenCursor, parser), {})


_TOKEN_RE = re.compile(
    r"""(?P<lpar>\() | (?P<rpar>\))
      | (?P<turnstile>\|-) | (?P<leq><=) | (?P<colon>:) | (?P<comma>,)
      | (?P<word>[^()\s:,|<=]+)
    """,
    re.VERBOSE,
)


class _Reader(TokenCursor):
    TOKENS = _TOKEN_RE
    ERROR = DerivationSyntaxError

    def until_balanced(self, *stops: str) -> tuple[str, int]:
        """The source text up to a stop kind or an unmatched ')' at depth
        zero, and its offset in the file, for the term and type grammars
        to parse."""
        depth = 0
        start = self.peek()[2]
        while True:
            kind, _, at = self.peek()
            if kind == "eof":
                raise self.error("unexpected end of input")
            if depth == 0 and (kind in stops or kind == "rpar"):
                return self.text[start:at], start
            if kind == "lpar":
                depth += 1
            elif kind == "rpar":
                depth -= 1
            self.i += 1

    def embedded(self, parse: Callable[[str], Any], source: tuple[str, int]) -> Any:
        """parse(text) on a slice of the file from until_balanced, its
        syntax error moved to the line and column in the file."""
        text, offset = source
        try:
            return parse(text)
        except ParseError as e:
            pos = offset + sum(len(line) + 1 for line in text.split("\n")[: e.line - 1]) + e.column - 1
            line = self.text.count("\n", 0, pos) + 1
            raise type(e)(e.message, line, pos - self.text.rfind("\n", 0, pos)) from None

    def parse(self) -> Derivation:
        self.expect("lpar", "(")
        self.expect("word", "rule")
        at = self.peek()
        rule = self.expect("word")
        if rule not in RULES:
            raise self.error(f"unknown rule {rule!r}", at)
        self.expect("lpar", "(")
        self.expect("word", "concl")
        basis: dict[str, ValType] = {}
        while self.peek()[0] != "turnstile":
            at = self.peek()
            name = self.expect("word")
            if name in basis:
                raise self.error(f"{name} is bound twice in the basis", at)
            self.expect("colon", ":")
            at = self.peek()
            basis[name] = self.embedded(parse_type, self.until_balanced("comma", "turnstile"))
            if not is_vtype(basis[name]):
                raise self.error(f"{name} is bound to a computation type", at)
            if self.peek()[0] == "comma":
                self.pop()
        self.pop()
        term_src = self.until_balanced("colon")
        self.expect("colon", ":")
        type_src = self.until_balanced()
        self.expect("rpar", ")")
        premises: list[Derivation] = []
        side = None
        while self.peek()[0] == "lpar":
            self.pop()
            at = self.peek()
            section = self.expect("word")
            if section == "premises":
                while self.peek()[0] == "lpar":
                    premises.append(self.parse())
                self.expect("rpar", ")")
            elif section == "side":
                lo = self.until_balanced("leq")
                self.expect("leq", "<=")
                hi = self.until_balanced()
                self.expect("rpar", ")")
                side = (self.embedded(parse_type, lo), self.embedded(parse_type, hi))
            else:
                raise self.error(f"unknown section {section!r}", at)
        self.expect("rpar", ")")
        judgment = Judgment(
            make_basis(basis.items()), self.embedded(parse_term, term_src), self.embedded(parse_type, type_src)
        )
        return Derivation(rule, judgment, tuple(premises), side)


def parse_derivation(text: str) -> Derivation:
    return _Reader(text).parse_all()


def print_basis(basis: Basis) -> str:
    return ", ".join(f"{name}: {print_type(t)}" for name, t in basis)


def print_derivation(d: Derivation, indent: int = 0) -> str:
    """The file form of d: always the tree, a shared sub-derivation
    written out at every place it occurs, its judgment and side condition
    formatted once."""
    return _show(d, indent, {})


def _show(d: Derivation, indent: int, memo: dict[int, tuple[str, str | None]]) -> str:
    texts = memo.get(id(d))
    if texts is None:
        J = d.conclusion
        concl = f"(concl {print_basis(J.basis)} |- {print_term(J.subject)} : {print_type(J.tipo)})"
        side = None if d.side is None else f"(side {print_type(d.side[0])} <= {print_type(d.side[1])})"
        texts = memo[id(d)] = (concl, side)
    concl, side = texts
    pad = "  " * indent
    parts = [f"{pad}(rule {d.rule}\n{pad}  {concl}"]
    if d.premises:
        inner = "\n".join(_show(p, indent + 2, memo) for p in d.premises)
        parts.append(f"{pad}  (premises\n{inner})")
    if side is not None:
        parts.append(f"{pad}  {side}")
    return "\n".join(parts) + ")"


# The type printers of ``ubcalc.typesys`` as they stood: a tree walk per call.


def print_vtype(t: ValType) -> str:
    match t:
        case VOmega():
            return "Wv"
        case VAtom(name):
            return f"@{name}"
        case VArrow(d, c):
            lhs = print_vtype(d)
            if isinstance(d, VArrow):
                lhs = f"({lhs})"
            return f"{lhs} -> {print_ctype(c)}"
        case VInter(l, r):
            def wrap(s: ValType) -> str:
                txt = print_vtype(s)
                return f"({txt})" if isinstance(s, VArrow) else txt
            return f"{wrap(l)} & {wrap(r)}"
    raise TypeError(f"not a value type: {t!r}")


def print_ctype(t: ComType) -> str:
    match t:
        case COmega():
            return "Wc"
        case CTf(a):
            inner = print_vtype(a)
            if isinstance(a, (VArrow, VInter)):
                inner = f"({inner})"
            return f"T {inner}"
        case CInter(l, r):
            return f"{print_ctype(l)} & {print_ctype(r)}"
    raise TypeError(f"not a computation type: {t!r}")


def print_type(t: AnyType) -> str:
    return print_vtype(t) if is_vtype(t) else print_ctype(t)
