"""The derivation file reader and writer as they stood before the reader
scanned only record syntax and the writer printed each type once.

``test_derivfile.py`` holds the new module to this one: on every input
the new reader must give an equal Derivation or the same error (class,
message, line and column), and the new writer the same text.  The type
printers are kept here too, so the writer is compared with the old
type printing, not with itself.
"""
from __future__ import annotations

import re
from typing import Any, Callable

from ubcalc.assignment import RULES, Basis, Derivation, Judgment, make_basis
from ubcalc.derivfile import DerivationSyntaxError
from ubcalc.terms import ParseError, TokenCursor, parse_term, print_term
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
