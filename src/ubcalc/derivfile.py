"""Reader and writer for the derivation file format.

A derivation is a nested parenthesized record:

    (rule <name>
      (concl <basis> |- <term> : <type>)
      (premises <derivation> ...)
      (side <type> <= <type>)?)

Bases are written ``x: <type>, y: <type>`` (empty allowed), each
variable bound once and to a value type; terms and types use the
surface grammars of the calculus and type modules.
"""
from __future__ import annotations

import re
from typing import Any, Callable

from .assignment import RULES, Derivation, Judgment, make_basis
from .terms import ParseError, TokenCursor, _syntax_error, parse_term, print_term
from .typesys import ValType, is_vtype, parse_type, print_type

_TOKEN_RE = re.compile(
    r"""(?P<lpar>\() | (?P<rpar>\))
      | (?P<turnstile>\|-) | (?P<leq><=) | (?P<colon>:) | (?P<comma>,)
      | (?P<word>[^()\s:,|<=]+)
    """,
    re.VERBOSE,
)
# Each record token but a word starts with one of these characters, and
# no word holds one: a slice's end is found by these alone.
_STRUCTURE_RE = re.compile(r"(?P<open>\()|(?P<close>\))|[:,|<]")


class DerivationSyntaxError(ParseError):
    pass


class _Reader(TokenCursor):
    """The record grammar.  Term and type slices are skipped by their
    structure characters alone and handed whole to their grammars, each
    distinct (grammar, text) parsed once per file."""

    TOKENS = _TOKEN_RE
    ERROR = DerivationSyntaxError

    def __init__(self, text: str):
        super().__init__(text)
        self.parsed: dict[tuple[Callable[[str], Any], str], Any] = {}

    def until_balanced(self, *stops: str) -> tuple[str, int]:
        """The source text up to a stop kind or an unmatched ')' at depth
        zero, and its offset in the file, for the term and type grammars
        to parse; the stop is the next token."""
        start = self.peek()[2]
        depth = 0
        for m in _STRUCTURE_RE.finditer(self.text, start):
            if m.lastgroup == "open":
                depth += 1
            elif depth and m.lastgroup == "close":
                depth -= 1
            elif not depth:
                self.pos, self.next = m.start(), None
                kind = self.peek()[0]
                if kind in stops or kind == "rpar":
                    return self.text[start:m.start()], start
        raise self.error("unexpected end of input", ("eof", "", len(self.text)))

    def embedded(self, parse: Callable[[str], Any], source: tuple[str, int]) -> Any:
        """parse(text) on a slice of the file from until_balanced, its
        syntax error moved to the line and column in the file unless the
        file holds a character that starts no record token; a text met
        before gives the same object."""
        text, offset = source
        key = (parse, text)
        hit = self.parsed.get(key)
        if hit is None:
            try:
                hit = self.parsed[key] = parse(text)
            except ParseError as e:
                pos = offset + sum(len(line) + 1 for line in text.split("\n")[: e.line - 1]) + e.column - 1
                raise self.bad_character() or _syntax_error(type(e), e.message, self.text, pos) from None
        return hit

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


def print_derivation(d: Derivation, indent: int = 0) -> str:
    """The file form of d: always the tree, a shared sub-derivation
    written out at every place it occurs, its judgment and side condition
    formatted once, and each distinct type formatted once."""
    return _show(d, indent, {}, {})


def _show(d: Derivation, indent: int, memo: dict[int, tuple[str, str | None]], types: dict) -> str:
    texts = memo.get(id(d))
    if texts is None:
        J = d.conclusion
        basis = ", ".join(f"{name}: {print_type(t, types)}" for name, t in J.basis)
        concl = f"(concl {basis} |- {print_term(J.subject)} : {print_type(J.tipo, types)})"
        side = None
        if d.side is not None:
            side = f"(side {print_type(d.side[0], types)} <= {print_type(d.side[1], types)})"
        texts = memo[id(d)] = (concl, side)
    concl, side = texts
    pad = "  " * indent
    parts = [f"{pad}(rule {d.rule}\n{pad}  {concl}"]
    if d.premises:
        inner = "\n".join(_show(p, indent + 2, memo, types) for p in d.premises)
        parts.append(f"{pad}  (premises\n{inner})")
    if side is not None:
        parts.append(f"{pad}  {side}")
    return "\n".join(parts) + ")"
