"""Intersection types for values and computations.

Value types: atoms, arrows from value types to computation types,
intersections, and a top ``Wv``.  Computation types: ``T d`` for a value
type d, intersections, and a top ``Wc``.  The preorders are the least
type theories with top, intersection as meet, arrow anti/co-variance,
distribution of arrows over intersection on codomains, covariant ``T``
distributing over intersection, and ``Wv = Wv -> Wc``.

Deciding the preorder goes through canonical forms: a value type
normalizes to a meet of atoms and arrows (an antichain, arrows with
trivial codomain absorbed into top), a computation type to ``T d`` or
top.  An arrow is then dominated by a meet exactly when the codomains of
the parts whose domains dominate the arrow's domain meet below its
codomain.  A separate derivation-search oracle double-checks the decider
on small instances.
"""
from __future__ import annotations

import itertools
import re
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Union

from .terms import ParseError, TokenCursor

# --------------------------------------------------------------- type ASTs

# Types, raw and canonical, are hash-consed (Filliatre & Conchon,
# "Type-safe modular hash-consing", 2006).  Every node is built through one
# weak intern table keyed by its class and fields, so structurally equal
# live nodes are one object and equality and hashing are by identity.  The
# children of a node are interned first, so a lookup hashes only one
# level, and a memo keyed on a node costs one lookup rather than a walk of
# the tree.  Fields are read-only; copy and pickle rebuild through the
# table.  Structural identity is not equality in the theory: that stays
# leq both ways (``eq_v``, ``eq_canon_v``).

_INTERNED_TYPES: "weakref.WeakValueDictionary[tuple, _TypeNode]" = weakref.WeakValueDictionary()


class _TypeNode:
    """Base of every type node: positional fields named by
    ``__match_args__``, built through ``_INTERNED_TYPES``.  A class that
    derives more slots from its fields sets ``_derive``, which a new node
    runs once, before it enters the table."""

    __slots__ = ("__weakref__",)
    __match_args__: tuple[str, ...] = ()
    _derive = None

    def __new__(cls, *args, **kwargs):
        if kwargs:
            try:
                args += tuple(kwargs.pop(f) for f in cls.__match_args__[len(args):])
            except KeyError as missing:
                raise TypeError(f"{cls.__name__} is missing field {missing}") from None
            if kwargs:
                raise TypeError(f"{cls.__name__} got unexpected fields {sorted(kwargs)}")
        key = (cls, *args)
        node = _INTERNED_TYPES.get(key)
        if node is None:
            if len(args) != len(cls.__match_args__):
                raise TypeError(f"{cls.__name__} takes fields {cls.__match_args__}, got {len(args)}")
            node = object.__new__(cls)
            for name, value in zip(cls.__match_args__, args):
                object.__setattr__(node, name, value)
            if cls._derive is not None:
                node._derive()
            _INTERNED_TYPES[key] = node
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class VAtom(_TypeNode):
    __slots__ = __match_args__ = ("name",)
    name: str


class VArrow(_TypeNode):
    __slots__ = __match_args__ = ("dom", "cod")
    dom: "ValType"
    cod: "ComType"


class VInter(_TypeNode):
    __slots__ = __match_args__ = ("left", "right")
    left: "ValType"
    right: "ValType"


class VOmega(_TypeNode):
    __slots__ = __match_args__ = ()


class CTf(_TypeNode):
    __slots__ = __match_args__ = ("arg",)
    arg: "ValType"


class CInter(_TypeNode):
    __slots__ = __match_args__ = ("left", "right")
    left: "ComType"
    right: "ComType"


class COmega(_TypeNode):
    __slots__ = __match_args__ = ()


ValType = Union[VAtom, VArrow, VInter, VOmega]
ComType = Union[CTf, CInter, COmega]
AnyType = Union[ValType, ComType]

V_OMEGA = VOmega()
C_OMEGA = COmega()


def is_vtype(t: AnyType) -> bool:
    return isinstance(t, (VAtom, VArrow, VInter, VOmega))


def is_ctype(t: AnyType) -> bool:
    return isinstance(t, (CTf, CInter, COmega))


def vinter_all(parts: Iterable[ValType]) -> ValType:
    parts = list(parts)
    if not parts:
        return V_OMEGA
    acc = parts[0]
    for p in parts[1:]:
        acc = VInter(acc, p)
    return acc


# -------------------------------------------------------------- atom tables


class UnknownAtomError(KeyError):
    pass


class EnumerationError(ValueError):
    """enumerate_types cannot enumerate the classes of this atom table."""


@dataclass(frozen=True)
class AtomTable:
    """Finite atom namespace with a preorder, plus the extensionality mode.

    eta_mode 'scott' reads each atom as Wv -> T(atom), 'park' as
    atom -> T(atom); atoms are rewritten by bounded unfolding during
    normalization, making the decider sound but not complete in
    eta mode.

    Every type memo is keyed on a table, so its hash is computed once,
    at construction; copy and pickle rebuild through the constructor, so
    a table sent to another process is hashed under that process's
    string-hash seed.
    """

    atoms: tuple[str, ...] = ()
    order: frozenset[tuple[str, str]] = frozenset()
    eta_mode: str = "none"
    eta_depth: int = 1

    def __post_init__(self):
        closed = {(a, a) for a in self.atoms} | set(self.order)
        changed = True
        while changed:
            changed = False
            for a, b in list(closed):
                for c, d in list(closed):
                    if b == c and (a, d) not in closed:
                        closed.add((a, d))
                        changed = True
        object.__setattr__(self, "order", frozenset(closed))
        object.__setattr__(self, "_hash", hash((self.atoms, self.order, self.eta_mode, self.eta_depth)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return AtomTable, (self.atoms, self.order, self.eta_mode, self.eta_depth)

    def leq_atom(self, a: str, b: str) -> bool:
        if a not in self.atoms or b not in self.atoms:
            raise UnknownAtomError(a if a not in self.atoms else b)
        return (a, b) in self.order


EMPTY_TABLE = AtomTable()


# ---------------------------------------------------------------- rank map


def rank(t: AnyType) -> int:
    match t:
        case VAtom() | VOmega() | COmega():
            return 0
        case VInter(l, r) | CInter(l, r):
            return max(rank(l), rank(r))
        case VArrow(d, c):
            return max(rank(d) + 1, rank(c))
        case CTf(a):
            return rank(a) + 1
    raise TypeError(f"not a type: {t!r}")


# ----------------------------------------------------------- canonical forms


# Canonical types are type nodes too, interned in the same table.  Each
# also carries ``key``, a structural sort key fixing the order of
# canonical forms, and ``rank``, both derived once from its children when
# it is built.


class CanonV(_TypeNode):
    """Meet of atoms and arrows; empty meet is the top (omega) class."""

    __slots__ = ("atoms", "arrows", "key", "rank")
    __match_args__ = ("atoms", "arrows")
    atoms: tuple[str, ...]
    arrows: tuple[tuple["CanonV", "CanonC"], ...]
    key: tuple
    rank: int

    def _derive(self) -> None:
        init = object.__setattr__
        init(self, "key", ("m", self.atoms, tuple((d.key, t.key) for d, t in self.arrows)))
        init(self, "rank", max((max(d.rank + 1, t.rank) for d, t in self.arrows), default=0))

    @property
    def is_top(self) -> bool:
        return not self.atoms and not self.arrows


class CanonC(_TypeNode):
    """Either the top (omega) class or the class of T applied to a value."""

    __slots__ = ("arg", "key", "rank")
    __match_args__ = ("arg",)
    arg: Optional[CanonV]
    key: tuple
    rank: int

    def _derive(self) -> None:
        init, arg = object.__setattr__, self.arg
        init(self, "key", ("tc",) if arg is None else ("t", arg.key))
        init(self, "rank", 0 if arg is None else arg.rank + 1)

    @property
    def is_top(self) -> bool:
        return self.arg is None


TOP_V = CanonV((), ())
TOP_C = CanonC(None)


def tcan(v: CanonV) -> CanonC:
    return CanonC(v)


def _arrow_key(a: tuple[CanonV, CanonC]) -> tuple:
    return (a[0].key, a[1].key)


def _arrow_leq(a1: tuple[CanonV, CanonC], a2: tuple[CanonV, CanonC], table: AtomTable) -> bool:
    # single arrow below single arrow: contravariant domain, covariant codomain
    return leq_canon_v(a2[0], a1[0], table) and leq_canon_c(a1[1], a2[1], table)


# The memos hold strong references to the nodes they key on, so they are
# bounded; a node no memo or caller holds leaves the intern table.
_MEMO_SIZE = 2**16


def _make_canon_v(
    atoms: Iterable[str],
    arrows: Iterable[tuple[CanonV, CanonC]],
    table: AtomTable,
) -> CanonV:
    """The canonical form of the meet of the given atoms and arrows,
    memoised on the parts in the order given."""
    return _make_canon_v_cached(tuple(atoms), tuple(arrows), table)


@lru_cache(maxsize=_MEMO_SIZE)
def _make_canon_v_cached(
    atoms: tuple[str, ...],
    arrows: tuple[tuple[CanonV, CanonC], ...],
    table: AtomTable,
) -> CanonV:
    # atoms: keep one representative per equivalence class, minimal ones only
    kept_atoms: list[str] = []
    for a in sorted(set(atoms)):
        dominated = False
        for b in list(kept_atoms):
            if table.leq_atom(b, a):
                dominated = True
                break
            if table.leq_atom(a, b):
                kept_atoms.remove(b)
        if not dominated:
            kept_atoms.append(a)
    # arrows: drop trivial codomains, merge equal domains, prune to an antichain
    by_dom: dict[CanonV, CanonC] = {}
    for d, t in arrows:
        if t.is_top:
            continue
        prev = by_dom.get(d)
        by_dom[d] = t if prev is None else meet_canon_c(prev, t, table)
    kept: list[tuple[CanonV, CanonC]] = []
    for arr in sorted(by_dom.items(), key=_arrow_key):
        if any(_arrow_leq(k, arr, table) for k in kept):
            continue
        kept = [k for k in kept if not _arrow_leq(arr, k, table)]
        kept.append(arr)
    kept.sort(key=_arrow_key)
    return CanonV(tuple(sorted(kept_atoms)), tuple(kept))


def _meet_fold(a: CanonV, b: CanonV, table: AtomTable) -> CanonV:
    # The fold of a meet takes no entry of the fold memo: a meet is memoised
    # on its pair (below), and a lattice build, which meets most pairs only
    # once, calls this unmemoised.
    return _make_canon_v_cached.__wrapped__(a.atoms + b.atoms, a.arrows + b.arrows, table)


_meet_canon_v_cached = lru_cache(maxsize=_MEMO_SIZE)(_meet_fold)


def meet_canon_v(a: CanonV, b: CanonV, table: AtomTable) -> CanonV:
    if a.is_top:
        return b
    if b.is_top:
        return a
    if a == b:
        return a
    if b.key < a.key:
        a, b = b, a
    return _meet_canon_v_cached(a, b, table)


def meet_canon_c(a: CanonC, b: CanonC, table: AtomTable) -> CanonC:
    if a.is_top:
        return b
    if b.is_top:
        return a
    return tcan(meet_canon_v(a.arg, b.arg, table))


def meet_all_canon_c(parts: Iterable[CanonC], table: AtomTable) -> CanonC:
    acc = TOP_C
    for p in parts:
        acc = meet_canon_c(acc, p, table)
    return acc


def apply_canon(f: CanonV, arg: CanonV, table: AtomTable) -> CanonC:
    """The type of applying a function of type f to an argument of type arg:
    the meet of the codomains of f's arrows whose domain arg entails."""
    if not f.arrows:
        return TOP_C
    return _apply_canon_cached(f, arg, table)


@lru_cache(maxsize=_MEMO_SIZE)
def _apply_canon_cached(f: CanonV, arg: CanonV, table: AtomTable) -> CanonC:
    return meet_all_canon_c((c for d, c in f.arrows if leq_canon_v(arg, d, table)), table)


@lru_cache(maxsize=_MEMO_SIZE)
def _leq_canon_v_cached(a: CanonV, b: CanonV, table: AtomTable) -> bool:
    for atom in b.atoms:
        if not any(table.leq_atom(x, atom) for x in a.atoms):
            return False
    for d2, c2 in b.arrows:
        if not leq_canon_c(apply_canon(a, d2, table), c2, table):
            return False
    return True


def leq_canon_v(a: CanonV, b: CanonV, table: AtomTable) -> bool:
    if b.is_top or a == b:
        return True
    if a.is_top:
        return False
    return _leq_canon_v_cached(a, b, table)


def leq_canon_c(a: CanonC, b: CanonC, table: AtomTable) -> bool:
    if b.is_top:
        return True
    if a.is_top:
        return False
    if a == b:
        return True
    return leq_canon_v(a.arg, b.arg, table)


def eq_canon_v(a: CanonV, b: CanonV, table: AtomTable) -> bool:
    return a == b or (leq_canon_v(a, b, table) and leq_canon_v(b, a, table))


def eq_canon_c(a: CanonC, b: CanonC, table: AtomTable) -> bool:
    return a == b or (leq_canon_c(a, b, table) and leq_canon_c(b, a, table))


# ------------------------------------------------------------- normalization


def _unfold_atom(name: str, table: AtomTable, depth: int) -> CanonV:
    if table.eta_mode == "none" or depth <= 0:
        return CanonV((name,), ())
    inner = _unfold_atom(name, table, depth - 1)
    if table.eta_mode == "scott":
        return CanonV((), ((TOP_V, tcan(inner)),))
    if table.eta_mode == "park":
        return CanonV((), ((inner, tcan(inner)),))
    raise ValueError(f"unknown eta mode {table.eta_mode!r}")


def normalize_vtype(t: ValType, table: AtomTable = EMPTY_TABLE, eta_depth: int | None = None) -> CanonV:
    return _normalize_v(t, table, table.eta_depth if eta_depth is None else eta_depth)


def normalize_ctype(t: ComType, table: AtomTable = EMPTY_TABLE, eta_depth: int | None = None) -> CanonC:
    return _normalize_c(t, table, table.eta_depth if eta_depth is None else eta_depth)


@lru_cache(maxsize=_MEMO_SIZE)
def _normalize_v(t: ValType, table: AtomTable, depth: int) -> CanonV:
    match t:
        case VOmega():
            return TOP_V
        case VAtom(name):
            if name not in table.atoms:
                raise UnknownAtomError(name)
            return _unfold_atom(name, table, depth)
        case VArrow(d, c):
            cc = _normalize_c(c, table, depth)
            if cc.is_top:
                return TOP_V
            # a single arrow with a non-top codomain is already canonical
            return CanonV((), ((_normalize_v(d, table, depth), cc),))
        case VInter(l, r):
            return meet_canon_v(_normalize_v(l, table, depth), _normalize_v(r, table, depth), table)
    raise TypeError(f"not a value type: {t!r}")


@lru_cache(maxsize=_MEMO_SIZE)
def _normalize_c(t: ComType, table: AtomTable, depth: int) -> CanonC:
    match t:
        case COmega():
            return TOP_C
        case CTf(a):
            return tcan(_normalize_v(a, table, depth))
        case CInter(l, r):
            return meet_canon_c(_normalize_c(l, table, depth), _normalize_c(r, table, depth), table)
    raise TypeError(f"not a computation type: {t!r}")


def _eta_depth_pairs(table: AtomTable) -> list[tuple[int, int]]:
    d = max(0, table.eta_depth)
    return [(i, j) for i in range(d + 1) for j in range(d + 1)]


def leq_v(a: ValType, b: ValType, table: AtomTable = EMPTY_TABLE) -> bool:
    if table.eta_mode != "none" and table.atoms:
        # any unfolding depth is equality-preserving in the eta theory, so
        # a derivation found at any depth pair is sound; missing ones are
        # the documented incompleteness of eta mode
        return any(
            leq_canon_v(normalize_vtype(a, table, i), normalize_vtype(b, table, j), table)
            for i, j in _eta_depth_pairs(table)
        )
    return leq_canon_v(normalize_vtype(a, table), normalize_vtype(b, table), table)


def leq_c(a: ComType, b: ComType, table: AtomTable = EMPTY_TABLE) -> bool:
    if table.eta_mode != "none" and table.atoms:
        return any(
            leq_canon_c(normalize_ctype(a, table, i), normalize_ctype(b, table, j), table)
            for i, j in _eta_depth_pairs(table)
        )
    return leq_canon_c(normalize_ctype(a, table), normalize_ctype(b, table), table)


def eq_v(a: ValType, b: ValType, table: AtomTable = EMPTY_TABLE) -> bool:
    return leq_v(a, b, table) and leq_v(b, a, table)


def eq_c(a: ComType, b: ComType, table: AtomTable = EMPTY_TABLE) -> bool:
    return leq_c(a, b, table) and leq_c(b, a, table)


@lru_cache(maxsize=_MEMO_SIZE)
def to_vtype(c: CanonV) -> ValType:
    if c.is_top:
        return V_OMEGA
    parts: list[ValType] = [VAtom(a) for a in c.atoms]
    parts.extend(VArrow(to_vtype(d), to_ctype(t)) for d, t in c.arrows)
    return vinter_all(parts)


def to_ctype(c: CanonC) -> ComType:
    return C_OMEGA if c.arg is None else CTf(to_vtype(c.arg))


# ---------------------------------------------------------------- printing


def print_type(t: AnyType, memo: dict[AnyType, str] | None = None) -> str:
    """The surface form of t.  A caller printing many types that share
    nodes passes one memo for them all, so each distinct interned node is
    formatted once."""
    return _print(t, {} if memo is None else memo)


def _print(t: AnyType, memo: dict[AnyType, str]) -> str:
    text = memo.get(t)
    if text is not None:
        return text
    match t:
        case VOmega():
            text = "Wv"
        case COmega():
            text = "Wc"
        case VAtom(name):
            text = f"@{name}"
        case VArrow(d, c):
            text = f"{_operand(d, VArrow, memo)} -> {_print(c, memo)}"
        case CTf(a):
            text = f"T {_operand(a, (VArrow, VInter), memo)}"
        case VInter(l, r) | CInter(l, r):
            # '&' is left-associative: a right operand that is itself an
            # intersection is bracketed, as is an arrow on either side
            text = f"{_operand(l, VArrow, memo)} & {_operand(r, (VArrow, VInter, CInter), memo)}"
        case _:
            raise TypeError(f"not a type: {t!r}")
    memo[t] = text
    return text


def _operand(t: AnyType, bracketed: type | tuple[type, ...], memo: dict[AnyType, str]) -> str:
    text = _print(t, memo)
    return f"({text})" if isinstance(t, bracketed) else text


# ------------------------------------------------------------------ parsing

_TYPE_TOKEN_RE = re.compile(
    r"""(?P<wv>Wv\b)
      | (?P<wc>Wc\b)
      | (?P<t>T\b)
      | (?P<atom>@[A-Za-z_][A-Za-z0-9_]*)
      | (?P<arrow>->)
      | (?P<amp>&)
      | (?P<lpar>\()
      | (?P<rpar>\))
    """,
    re.VERBOSE,
)


class TypeSyntaxError(ParseError):
    pass


class _TypeParser(TokenCursor):
    TOKENS = _TYPE_TOKEN_RE
    ERROR = TypeSyntaxError

    def parse(self) -> AnyType:
        left = self.parse_inter()
        if self.peek()[0] == "arrow":
            self.pop()
            right = self.parse()
            if not is_vtype(left):
                raise self.error("arrow domain must be a value type")
            if not is_ctype(right):
                raise self.error("arrow codomain must be a computation type")
            return VArrow(left, right)
        return left

    def parse_inter(self) -> AnyType:
        acc = self.parse_atom()
        while self.peek()[0] == "amp":
            self.pop()
            nxt = self.parse_atom()
            if is_vtype(acc) and is_vtype(nxt):
                acc = VInter(acc, nxt)
            elif is_ctype(acc) and is_ctype(nxt):
                acc = CInter(acc, nxt)
            else:
                raise self.error("intersection of mixed sorts")
        return acc

    def parse_atom(self) -> AnyType:
        t = self.pop()
        kind, text, _ = t
        if kind == "wv":
            return V_OMEGA
        if kind == "wc":
            return C_OMEGA
        if kind == "atom":
            return VAtom(text[1:])
        if kind == "t":
            arg = self.parse_atom()
            if not is_vtype(arg):
                raise self.error("T expects a value type argument")
            return CTf(arg)
        if kind == "lpar":
            inner = self.parse()
            self.expect("rpar", ")")
            return inner
        raise self.error(f"unexpected token {text!r}", t)


@lru_cache(maxsize=_MEMO_SIZE)
def parse_type(text: str) -> AnyType:
    return _TypeParser(text).parse_all()


# ---------------------------------------------------------- enumeration


def _dedup_semantic_v(cands: Iterable[CanonV], table: AtomTable) -> list[CanonV]:
    buckets: dict[tuple, list[CanonV]] = {}
    out: list[CanonV] = []
    for c in dict.fromkeys(cands):
        sig = (c.rank, len(c.atoms), len(c.arrows), c.atoms)
        reps = buckets.setdefault(sig, [])
        if not any(eq_canon_v(c, r, table) for r in reps):
            reps.append(c)
            out.append(c)
    out.sort(key=lambda c: c.key)
    return out


def enumerate_types(
    rank_bound: int,
    width_bound: int,
    table: AtomTable = EMPTY_TABLE,
) -> tuple[list[CanonV], list[CanonC]]:
    """All canonical classes of rank <= rank_bound built from meets of at
    most width_bound atoms/arrows at every level, each class once."""
    if rank_bound < 0 or width_bound < 0:
        raise ValueError("bounds must be non-negative")
    if table.eta_mode != "none" and table.atoms:
        raise EnumerationError("enumeration over eta-equated atoms is not supported")
    atom_parts = [CanonV((a,), ()) for a in table.atoms]
    values = _dedup_semantic_v(
        itertools.chain(
            [TOP_V],
            (
                _make_canon_v([a for p in combo for a in p.atoms], [], table)
                for size in range(1, width_bound + 1)
                for combo in itertools.combinations(atom_parts, size)
            ),
        ),
        table,
    )
    comps: list[CanonC] = [TOP_C]
    for _ in range(rank_bound):
        comps = [TOP_C] + [tcan(v) for v in values]
        arrow_parts = [
            CanonV((), ((d, c),))
            for d in values
            for c in comps
            if not c.is_top
        ]
        parts = atom_parts + arrow_parts
        cands: list[CanonV] = [TOP_V]
        for size in range(1, width_bound + 1):
            for combo in itertools.combinations(parts, size):
                atoms = [a for p in combo for a in p.atoms]
                arrows = [ar for p in combo for ar in p.arrows]
                cands.append(_make_canon_v(atoms, arrows, table))
        values = _dedup_semantic_v(cands, table)
    return values, [c for c in comps]


# ------------------------------------------------- derivation-search oracle

# The oracle works on raw types flattened only for associativity,
# commutativity and idempotence of the intersection and absorption of
# omega into meets; every True it returns corresponds to a derivation
# assembled from the axioms, the meet rules, monotonicity, and the
# distribution axioms.

_RAW_CAP = 64


def _raw_v(t: ValType) -> tuple:
    match t:
        case VOmega():
            return ("vo",)
        case VAtom(name):
            return ("va", name)
        case VArrow(d, c):
            return ("ar", _raw_v(d), _raw_c(c))
        case VInter(l, r):
            return _raw_meet((_raw_v(l), _raw_v(r)), "vm", ("vo",))
    raise TypeError(f"not a value type: {t!r}")


def _raw_c(t: ComType) -> tuple:
    match t:
        case COmega():
            return ("co",)
        case CTf(a):
            return ("t", _raw_v(a))
        case CInter(l, r):
            return _raw_meet((_raw_c(l), _raw_c(r)), "cm", ("co",))
    raise TypeError(f"not a computation type: {t!r}")


def _raw_meet(parts: Iterable[tuple], meet_tag: str, top: tuple) -> tuple:
    """The meet of raw types of one sort, flattened: a part that is a meet
    gives its parts, top is dropped, and one part stands for itself."""
    flat: set[tuple] = set()
    for p in parts:
        if p[0] == meet_tag:
            flat.update(p[1])
        elif p != top:
            flat.add(p)
    if not flat:
        return top
    if len(flat) == 1:
        return next(iter(flat))
    return (meet_tag, tuple(sorted(flat)))


class _OracleBudget(Exception):
    pass


def _oracle_derivable(x: tuple, y: tuple, table: AtomTable, depth: int, memo: dict) -> bool:
    if depth <= 0:
        raise _OracleBudget
    key = (x, y)
    hit = memo.get(key)
    if hit is not None:
        return hit
    memo[key] = False  # cycle guard; goals strictly shrink so this is safe
    result = _oracle_step(x, y, table, depth, memo)
    memo[key] = result
    return result


def _oracle_step(x: tuple, y: tuple, table: AtomTable, depth: int, memo: dict) -> bool:
    if x == y:
        return True
    if y in (("vo",), ("co",)):
        return True
    # meet on the right: prove each part
    if y[0] in ("vm", "cm"):
        return all(_oracle_derivable(x, p, table, depth - 1, memo) for p in y[1])
    xparts = x[1] if x[0] in ("vm", "cm") else (x,)
    # projection route through a single part
    for p in xparts:
        if p == y or _projectable(p, y, table, depth, memo):
            return True
    # distribution route for an arrow goal: combine all parts whose domain
    # dominates the goal domain, then compare the meet of their codomains
    if y[0] == "ar":
        dbar, cbar = y[1], y[2]
        cods = []
        for p in xparts:
            if p[0] == "ar" and _oracle_derivable(dbar, p[1], table, depth - 1, memo):
                cods.append(p[2])
            if p == ("vo",):
                cods.append(("co",))
        if _oracle_derivable(_raw_meet(cods, "cm", ("co",)), cbar, table, depth - 1, memo):
            return True
        # omega on the left unfolds once to omega -> omega_C
        if x == ("vo",) and _oracle_derivable(("co",), cbar, table, depth - 1, memo):
            return True
    # T distribution route
    if y[0] == "t":
        args = [p[1] for p in xparts if p[0] == "t"]
        if args and _oracle_derivable(
            _raw_meet(args, "vm", ("vo",)), y[1], table, depth - 1, memo
        ):
            return True
    if y[0] == "va" and x[0] == "va":
        return table.leq_atom(x[1], y[1])
    return False


def _projectable(p: tuple, y: tuple, table: AtomTable, depth: int, memo: dict) -> bool:
    if p[0] in ("vm", "cm"):
        return False
    return _oracle_derivable(p, y, table, depth - 1, memo)


def _type_size(t: tuple) -> int:
    if t[0] in ("vm", "cm"):
        return 1 + sum(_type_size(p) for p in t[1])
    if t[0] == "ar":
        return 1 + _type_size(t[1]) + _type_size(t[2])
    if t[0] == "t":
        return 1 + _type_size(t[1])
    return 1


def brute_subtype_oracle(
    a: AnyType,
    b: AnyType,
    depth: int = 200,
    table: AtomTable = EMPTY_TABLE,
) -> Optional[bool]:
    """Exhaustive bounded search for a derivation of a <= b.

    Some(True) is always backed by an assembled derivation over the
    axioms/rules.  Some(False) is reported only when the search space was
    exhausted within the budget for inputs of tractable size; otherwise
    None (inconclusive).  Atom rewriting for eta modes is not searched.
    """
    if table.eta_mode != "none":
        return None
    if is_vtype(a) != is_vtype(b):
        raise TypeError("oracle compares types of the same sort")
    x = _raw_v(a) if is_vtype(a) else _raw_c(a)
    y = _raw_v(b) if is_vtype(b) else _raw_c(b)
    if _type_size(x) + _type_size(y) > _RAW_CAP:
        return None
    try:
        return _oracle_derivable(x, y, table, depth, {})
    except _OracleBudget:
        return None
