"""Finite-rank filter domains over canonical intersection types.

In a finite type lattice every filter is principal, so a domain element
is represented by its generating type; the domain order is the reverse
of the subtype order (stronger type = higher element, the omega class is
bottom).  The value side of rank n is the meet closure of the value
types of rank <= n (``value_lattice``); the computation side is the top
class plus ``T`` of every value point of rank <= n-1.

Bind and application act on generators by collecting the codomains of
the arrow parts whose domains dominate the argument (``apply_canon``);
abstraction builds the meet of one arrow per sampled argument point.
By the completeness of type assignment a term denotes the filter of its
types, so interpretation at rank n is the bounded inference of
``assignment``, with abstraction arguments drawn from the rank n-1 value
lattice and unit contents truncated into rank n (rank 0 has no argument
points, and every unit denotes bottom).  Interpretation raises
``OpenVariableError`` at every rank when the environment leaves a free
variable of the term unbound.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional

from .assignment import _Minimal
from .terms import Comp, Term, Value
from .typesys import (
    TOP_C,
    TOP_V,
    AtomTable,
    CanonC,
    CanonV,
    EMPTY_TABLE,
    _MEMO_SIZE,
    _make_canon_v,
    _meet_fold,
    apply_canon,
    leq_canon_c,
    leq_canon_v,
    meet_canon_v,
    tcan,
)


class DomainSizeError(RuntimeError):
    """The requested rank/table combination has an intractably large lattice."""


@dataclass(frozen=True, slots=True)
class ValFilt:
    gen: CanonV


@dataclass(frozen=True, slots=True)
class ComFilt:
    gen: CanonC


BOTTOM_V = ValFilt(TOP_V)
BOTTOM_C = ComFilt(TOP_C)


def dom_leq_v(a: ValFilt, b: ValFilt, table: AtomTable = EMPTY_TABLE) -> bool:
    """Domain order: a below b iff b's generator is the stronger type."""
    return leq_canon_v(b.gen, a.gen, table)


def dom_leq_c(a: ComFilt, b: ComFilt, table: AtomTable = EMPTY_TABLE) -> bool:
    return leq_canon_c(b.gen, a.gen, table)


# --------------------------------------------------------- rank lattices

# Lattices are cached per (n, table, cap), however the caller spelled them;
# the bound keeps a long-lived process that visits many atom tables from
# holding every lattice it built.
LATTICE_CACHE_SIZE = 32
LATTICE_CAP = 5000  # points


def _too_large(cap: int) -> DomainSizeError:
    return DomainSizeError(f"value lattice exceeds {cap} points; use a smaller rank or table")


def _meet_closure(gens: list[CanonV], table: AtomTable, cap: int) -> list[CanonV]:
    # Every point of the closure is a finite meet of generators, so meeting
    # each new point with the generators alone (not with every point seen)
    # reaches the same set, in at most cap * len(gens) meets before the cap.
    gens = list(dict.fromkeys([TOP_V, *gens]))
    seen = dict.fromkeys(gens)
    frontier = gens
    while frontier:
        new: list[CanonV] = []
        for x in frontier:
            for g in gens:
                m = _meet_fold(x, g, table)
                if m not in seen:
                    seen[m] = None
                    new.append(m)
                    if len(seen) > cap:
                        raise _too_large(cap)
        frontier = new
    return sorted(seen, key=lambda c: c.key)


def value_lattice(n: int, table: AtomTable = EMPTY_TABLE, cap: int = LATTICE_CAP) -> tuple[CanonV, ...]:
    """The rank-n value lattice: the meet closure of the table's atoms
    and, for n > 0, of every arrow d -> T c between points of the rank
    n-1 lattice, as canonical forms sorted by key.  Every value class of
    rank <= n has a point, but a class can have several: at rank 3 over
    the empty table, 1,650 points fall into 1,086 classes."""
    return _value_lattice(n, table, cap)


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def _value_lattice(n: int, table: AtomTable, cap: int) -> tuple[CanonV, ...]:
    if n < 0:
        raise ValueError("rank must be non-negative")
    atoms = [CanonV((a,), ()) for a in table.atoms]
    points = _meet_closure(atoms, table, cap)
    for _ in range(n):
        # the closure holds every generator, and the arrows d -> T c are
        # pairwise distinct, so it would exceed the cap before it starts
        if len(points) ** 2 > cap:
            raise _too_large(cap)
        comps = [tcan(v) for v in points]
        arrows = [CanonV((), ((d, c),)) for d in points for c in comps]
        points = _meet_closure(atoms + arrows, table, cap)
    return tuple(points)


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def comp_lattice(n: int, table: AtomTable = EMPTY_TABLE) -> tuple[CanonC, ...]:
    """All computation classes of rank <= n: top plus T of rank n-1 values."""
    if n == 0:
        return (TOP_C,)
    return (TOP_C,) + tuple(tcan(v) for v in value_lattice(n - 1, table))


@dataclass(frozen=True)
class RankDomain:
    n: int
    table: AtomTable
    values: tuple[CanonV, ...]
    comps: tuple[CanonC, ...]

    def value_elems(self) -> list[ValFilt]:
        return [ValFilt(v) for v in self.values]


def build_domain(n: int, table: AtomTable = EMPTY_TABLE) -> RankDomain:
    return RankDomain(n, table, value_lattice(n, table), comp_lattice(n, table))


# ------------------------------------------------------- monad operations


def unit_f(d: ValFilt) -> ComFilt:
    """Coerce a value element into the trivial computation on it."""
    return ComFilt(tcan(d.gen))


def bind_f(t: ComFilt, e: ValFilt, table: AtomTable = EMPTY_TABLE) -> ComFilt:
    """Feed t's result to function-value e.

    The generator collects the codomains of e's arrow parts whose domain
    is implied by t's content; a bottom t or a part-free e yields bottom.
    """
    a = t.gen.arg
    if a is None:
        return BOTTOM_C
    return ComFilt(apply_canon(e.gen, a, table))


def apply_f(u: ValFilt, d: ValFilt, table: AtomTable = EMPTY_TABLE) -> ComFilt:
    return ComFilt(apply_canon(u.gen, d.gen, table))


def unit_as_function(points: Iterable[CanonV], table: AtomTable = EMPTY_TABLE) -> ValFilt:
    """The element representing the unit operation over the given points."""
    return psi_f({p: ComFilt(tcan(p)) for p in points}, table)


class NonMonotoneTableError(ValueError):
    pass


def psi_f(fn_table: dict[CanonV, ComFilt], table: AtomTable = EMPTY_TABLE) -> ValFilt:
    """Fold a finite monotone point-to-computation table into a value element."""
    points = list(fn_table)
    for a in points:
        for b in points:
            if leq_canon_v(b, a, table):  # up(a) below up(b) in the domain order
                if not leq_canon_c(fn_table[b].gen, fn_table[a].gen, table):
                    raise NonMonotoneTableError(f"table not monotone at {a} vs {b}")
    arrows = [(p, fn_table[p].gen) for p in points]
    return ValFilt(_make_canon_v((), arrows, table))


def phi_f(u: ValFilt, points: Iterable[CanonV], table: AtomTable = EMPTY_TABLE) -> dict[CanonV, ComFilt]:
    """Read a value element back as a table on the given argument points."""
    return {p: apply_f(u, ValFilt(p), table) for p in points}


# --------------------------------------------- embedding-projection pairs


def project_val(e: ValFilt, n: int, table: AtomTable = EMPTY_TABLE) -> ValFilt:
    """Strongest rank-n consequence of e's generator."""
    return ValFilt(_projected(e.gen, n, table))


@lru_cache(maxsize=_MEMO_SIZE)
def _projected(gen: CanonV, n: int, table: AtomTable) -> CanonV:
    acc = TOP_V
    for v in value_lattice(n, table):
        if leq_canon_v(gen, v, table):
            acc = meet_canon_v(acc, v, table)
    return acc


def project_comp(t: ComFilt, n: int, table: AtomTable = EMPTY_TABLE) -> ComFilt:
    if t.gen.arg is None:
        return BOTTOM_C
    if n == 0:
        return BOTTOM_C
    return ComFilt(tcan(project_val(ValFilt(t.gen.arg), n - 1, table).gen))


# ------------------------------------------------------- interpretation


class OpenVariableError(KeyError):
    pass


EnvN = dict[str, ValFilt]


def _interpreter(t: Term, env: EnvN, n: int, table: AtomTable) -> _Minimal:
    """Bounded inference that interprets t at rank n: abstraction arguments
    range over the rank n-1 lattice and units truncate into rank n.  Every
    free variable of t must be bound in env."""
    unbound = sorted(t.fv - env.keys())
    if unbound:
        raise OpenVariableError(unbound[0])
    if n == 0:
        return _Minimal((), table, lambda d: TOP_C)
    return _Minimal(value_lattice(n - 1, table), table, lambda d: tcan(_projected(d, n - 1, table)))


def _gens(env: EnvN) -> dict[str, CanonV]:
    return {x: d.gen for x, d in env.items()}


def interp_value(v: Value, env: EnvN, n: int, table: AtomTable = EMPTY_TABLE) -> ValFilt:
    return ValFilt(_interpreter(v, env, n, table).value(v, _gens(env)))


def interp_comp(m: Comp, env: EnvN, n: int, table: AtomTable = EMPTY_TABLE) -> ComFilt:
    return ComFilt(_interpreter(m, env, n, table).comp(m, _gens(env)))


def interp_closed(m: Comp, n: int, table: AtomTable = EMPTY_TABLE) -> ComFilt:
    return interp_comp(m, {}, n, table)


# ----------------------------------------------------------- type meaning


class RankOverflowError(ValueError):
    pass


def type_elems(sigma: CanonV | CanonC, dom: RankDomain) -> list:
    """All domain elements whose generator entails sigma."""
    if isinstance(sigma, CanonV):
        if sigma.rank > dom.n:
            raise RankOverflowError(f"rank {sigma.rank} exceeds domain rank {dom.n}")
        return [ValFilt(v) for v in dom.values if leq_canon_v(v, sigma, dom.table)]
    if sigma.rank > dom.n:
        raise RankOverflowError(f"rank {sigma.rank} exceeds domain rank {dom.n}")
    return [ComFilt(c) for c in dom.comps if leq_canon_c(c, sigma, dom.table)]


# ------------------------------------------------------- table enumeration


def monotone_tables(
    dom_points: list[CanonV],
    cod_points: list[CanonC],
    table: AtomTable = EMPTY_TABLE,
    cap: Optional[int] = None,
) -> Iterator[dict[CanonV, ComFilt]]:
    """All monotone tables from the value points to the computation points.

    Yields at most `cap` tables when given; iteration order is
    deterministic.
    """
    points = sorted(dom_points, key=lambda p: p.key)
    # linear extension of the domain order: up(p) is low when p is weak,
    # i.e. entails few other generators
    order = sorted(points, key=lambda p: (sum(1 for q in points if leq_canon_v(p, q, table)), p.key))
    preds: list[list[int]] = []
    for i, p in enumerate(order):
        preds.append([j for j in range(i) if leq_canon_v(p, order[j], table)])
    cods = sorted(cod_points, key=lambda c: c.key)
    count = 0
    assignment: list[CanonC] = []

    def rec(i: int) -> Iterator[dict[CanonV, ComFilt]]:
        nonlocal count
        if cap is not None and count >= cap:
            return
        if i == len(order):
            count += 1
            yield {order[k]: ComFilt(assignment[k]) for k in range(len(order))}
            return
        for c in cods:
            # image must dominate the images of all lower points
            if all(leq_canon_c(c, assignment[j], table) for j in preds[i]):
                assignment.append(c)
                yield from rec(i + 1)
                assignment.pop()

    yield from rec(0)
