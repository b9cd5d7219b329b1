"""The benchmark's workloads: seeded inputs and the known answer for
every item.

A workload is made in two steps.  ``plan`` draws the inputs from the
workload seed: a list of item specs, plain JSON, such as
``["suite", name, k]``.  ``build`` turns specs into runnable items.  The
parent draws the plan once per run; each pass only builds from it, so
the search for inputs of a given shape is not part of set-up time.

An item is one call that yields one verdict: ``pass`` (a decided verdict
that matches the known answer), ``fail`` (a decided verdict that does
not), ``inconclusive`` (a fuel or budget ran out) or ``error`` (an
exception, so no verdict).

Suite items are ``harness.run_suite(name, GenConfig(seed=k, cases=1,
max_size=MAX_SIZE))``, the same call as ``ubcalc prop name --cases 1
--seed k --max-size 16``.  The workload seed draws the k's.  Item cost
grows steeply with term size, so each item is drawn to a fixed shape
from its workload's profile: the seed picks which terms are run, the
profile fixes how large they are, and one pass costs about the same at
every seed.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from ubcalc import harness, reduction, terms
from ubcalc.harness import GenConfig
from ubcalc.typesys import AtomTable, EMPTY_TABLE

MAX_SIZE = 16
ONE_ATOM = AtomTable(("a",))

PASS, FAIL, INCONCLUSIVE, ERROR = "pass", "fail", "inconclusive", "error"


@dataclass(frozen=True)
class Item:
    kind: str
    run: Callable[[object], str]  # takes the layer namespace, returns a verdict


# ------------------------------------------------------------ input draws
#
# A shape is what an item's cost depends on most: for a unit/bind term,
# its size and how deeply its abstractions nest (type search and the
# interpreter both go through every abstraction body once per point of a
# finite universe, so cost grows with that power).


def _draw(rng: random.Random, shape, shape_of: Callable[[int], object]) -> int:
    """First suite seed from rng whose input has the given shape (any
    shape when shape is None)."""
    while True:
        k = rng.randrange(1 << 30)
        if shape is None or shape_of(k) == shape:
            return k


def _cfg(k: int) -> GenConfig:
    return GenConfig(seed=k, cases=1, max_size=MAX_SIZE)


def _depth(t: terms.Term) -> int:
    """Nesting depth of abstractions."""
    match t:
        case terms.Lambda(_, body):
            return 1 + _depth(body)
        case terms.Unit(v):
            return _depth(v)
        case terms.Bind(left, right):
            return max(_depth(left), _depth(right))
    return 0


def term_shape(k: int, index: int = 0) -> tuple[int, int]:
    """Size and abstraction depth of the suite's term number index."""
    m = harness.gen_term(_cfg(k), index)
    return terms.term_size(m), _depth(m)


def redex_shape(k: int) -> tuple[int, int, int]:
    """term_shape and the number of one-step reducts.  The suites that
    check every step of their term cost about that many times as much,
    and type search on terms of one such shape varies far less than on
    terms of one term_shape (see NOTES.md)."""
    m = harness.gen_term(_cfg(k), 0)
    return terms.term_size(m), _depth(m), len(reduction.enumerate_steps(m))


# ------------------------------------------------------------ item kinds
#
# Each kind has a spec drawer, run in the parent, and an item builder,
# run in the pass.


def suite_specs(rng: random.Random, name: str, shapes: tuple, shape_of=term_shape) -> list[list]:
    return [["suite", name, _draw(rng, shape, shape_of)] for shape in shapes]


def suite_item(name: str, k: int) -> Item:
    """Every suite checks a theorem the paper proves, so any failure is a
    wrong verdict."""
    cfg = _cfg(k)

    def run(api) -> str:
        rep = api.harness.run_suite(name, cfg)
        if rep.failures or not rep.cases:
            return FAIL
        return INCONCLUSIVE if rep.inconclusive else PASS

    return Item(f"suite:{name}", run)


def chain_text(rng: random.Random, length: int) -> str:
    """unit (\\z. unit z) * (\\x. unit x * (\\y. unit y)) * ... with
    seeded binder names; every stage passes its argument on unchanged."""
    names = rng.sample(range(10_000), 2 * length)
    text = "unit (\\z. unit z)"
    for i in range(length):
        x, y = f"a{names[2 * i]}", f"b{names[2 * i + 1]}"
        text = f"{text} * (\\{x}. unit {x} * (\\{y}. unit {y}))"
    return text


def chain_specs(rng: random.Random, lengths: tuple[int, ...]) -> list[list]:
    return [["chain", length, chain_text(rng, length)] for length in lengths]


EXPECTED_CHAIN_VALUE = terms.Lambda("z", terms.Unit(terms.Variable("z")))


def chain_item(length: int, text: str) -> Item:
    """Parse, normalize, evaluate both ways and print a bind chain; every
    result must be alpha-equal to unit \\z. unit z."""
    expected = terms.Unit(EXPECTED_CHAIN_VALUE)
    fuel = 20 * length + 20

    def run(api) -> str:
        m = api.terms.parse_term(text)
        nf = api.reduction.normalize(m, fuel=fuel)
        small = api.convergence.small_step_converge(m, fuel)
        big = api.convergence.big_step(m, fuel)
        api.terms.print_term(nf.term)
        if not (nf.normal_form and small.value is not None and big.value is not None):
            return INCONCLUSIVE
        ok = (
            terms.alpha_eq(nf.term, expected)
            and terms.alpha_eq(small.value, EXPECTED_CHAIN_VALUE)
            and terms.alpha_eq(big.value, EXPECTED_CHAIN_VALUE)
        )
        return PASS if ok else FAIL

    return Item(f"chain:{length}", run)


def roundtrip_specs(rng: random.Random, shapes: tuple) -> list[list]:
    return [["roundtrip", _draw(rng, shape, redex_shape)] for shape in shapes]


def roundtrip_item(k: int) -> Item:
    """Synthesize a derivation, print it, parse it back and check it: the
    ``ubcalc typecheck`` path.  It must check as valid with its
    conclusion unchanged."""
    cfg = _cfg(k)

    def run(api) -> str:
        _, d = api.harness.gen_typed_term(cfg, 0)
        back = api.derivfile.parse_derivation(api.derivfile.print_derivation(d))
        ok = api.assignment.check_derivation(back, cfg.atoms).valid and back.conclusion == d.conclusion
        return PASS if ok else FAIL

    return Item("roundtrip", run)


TABLES = (EMPTY_TABLE, ONE_ATOM)  # indexed by the number of atoms

# Point counts of the rank-n value lattices, keyed by (n, atoms).  With
# no atom: rank 0 is the top class alone.  Rank 1 adds a = top -> T top,
# which is not top, since no arrow of top covers it; 2 points.  Rank 2
# adds the four arrows a1 = top -> T top (= a), a2 = top -> T a,
# a3 = a -> T top, a4 = a -> T a, ordered a2 <= a1 <= a3 and
# a2 <= a4 <= a3 (contravariant domain, covariant codomain, T monotone),
# and no other way.  Of their meets only a1 /\ a4 is new: against
# top -> T a, the arrows of a1 /\ a4 whose domain lies above top give
# only T top, which is not below T a, so a1 /\ a4 is strictly above a2.
# That makes 6 points.  With one atom: rank 0 is top and the atom; rank
# 1 adds the arrows between rank-0 points and their meets.
LATTICE_POINTS = {(0, 0): 1, (1, 0): 2, (2, 0): 6, (0, 1): 2, (1, 1): 12}


def lattice_specs() -> list[list]:
    return [["lattice", n, atoms] for n, atoms in LATTICE_POINTS]


def lattice_item(n: int, atoms: int) -> Item:
    points = LATTICE_POINTS[n, atoms]

    def run(api) -> str:
        return PASS if len(api.filters.value_lattice(n, TABLES[atoms])) == points else FAIL

    return Item("lattice", run)


def _rename(t: terms.Term, fresh, env: dict[str, str]) -> terms.Term:
    """t with every binder renamed to the next name from fresh."""
    match t:
        case terms.Variable(x):
            return terms.Variable(env.get(x, x))
        case terms.Lambda(x, body):
            y = next(fresh)
            return terms.Lambda(y, _rename(body, fresh, {**env, x: y}))
        case terms.Unit(v):
            return terms.Unit(_rename(v, fresh, env))
        case terms.Bind(left, right):
            return terms.Bind(_rename(left, fresh, env), _rename(right, fresh, env))
    raise TypeError(f"not a term: {t!r}")


def interp_specs(rng: random.Random, rank: int, atoms: int, shapes: tuple, shape_of=term_shape) -> list[list]:
    return [["interp", rank, atoms, _draw(rng, shape, shape_of), rng.randrange(1000)] for shape in shapes]


def interp_item(rank: int, atoms: int, k: int, first_name: int) -> Item:
    """Interpret a seeded closed term and a renaming of its binders; the
    two denotations must be equal, since a denotation depends on a term
    only up to alpha-equivalence.

    Invariance under reduction is not the known answer here: projected
    one rank down from rank 3, it fails on some self-applications (see
    NOTES.md), so it is not a theorem of the finite-rank interpreter."""
    table = TABLES[atoms]
    m = harness.gen_term(_cfg(k), 0)
    renamed = _rename(m, (f"r{i}" for i in itertools.count(first_name)), {})

    def run(api) -> str:
        a = api.filters.interp_closed(m, rank, table)
        b = api.filters.interp_closed(renamed, rank, table)
        return PASS if api.typesys.eq_canon_c(a.gen, b.gen, table) else FAIL

    return Item(f"interp:{rank}:{atoms}", run)


# ------------------------------------------------------------- workloads


# A shape of depth 1 admits a single term up to renaming (a chain of
# identities), so suite and interp items use nested shapes, which admit
# tens of terms each; the chains are the one deliberately fixed input.
# Within a workload the kinds are sized so that the median and the tail
# item fall inside a run of like items, not on the edge between two.
NESTED = ((10, 2), (12, 2), (14, 2), (12, 3), (14, 3))


def typed(rng: random.Random) -> list[list]:
    # 66 items: the median falls among the 40 characterization items, the
    # tail (p84.8) among the 14 subject-reduction items with four reducts
    # (about 150 ms each), the dearest kind.
    return (
        suite_specs(rng, "characterization", NESTED * 8)
        + roundtrip_specs(rng, ((10, 2, 2),) * 4)
        + suite_specs(rng, "subject-reduction", ((12, 2, 4),) * 14, redex_shape)
        + suite_specs(rng, "subject-expansion", ((10, 2, 2),) * 8, redex_shape)
    )


def rewrite(rng: random.Random) -> list[list]:
    # 50 items: the tail (p80) falls among five chains of length 14, the
    # median among twelve of length 7, above 20 cheap suite items.
    return (
        chain_specs(rng, tuple(range(16, 25)) + (14,) * 5 + (9, 10, 11, 12) + (7,) * 12)
        + suite_specs(rng, "confluence", NESTED)
        + suite_specs(rng, "triangle", NESTED)
        + suite_specs(rng, "ass-sn", NESTED)
        + suite_specs(rng, "big-small", NESTED)
    )


def bridge(rng: random.Random) -> list[list]:
    # 52 items: the median falls among the 16 convertibility items with 5
    # reducts, the tail (p80.8) among the 16 with 6, the dearest kind.
    # Preservation items are mostly cheaper than both; no shape tried
    # fixes their cost, so they are drawn as they come.
    return suite_specs(rng, "moggi-preservation", (None,) * 20) + suite_specs(
        rng, "moggi-convertibility", ((16, 2, 5),) * 16 + ((16, 2, 6),) * 16, redex_shape
    )


def semantics(rng: random.Random) -> list[list]:
    # 158 items: the median falls amid the 48 interp items at rank 3 of
    # depth 2, with about as many cheap lattice, interp-substitution and
    # model-soundness items below them as dearer items above.  With one
    # atom, interpretation cost grows fastest with nesting (a tenth of the
    # larger nested terms cost ten times the rest), so those items keep
    # to the smaller nested shapes.
    return (
        lattice_specs()
        + interp_specs(rng, 3, 0, ((14, 2, 3),) * 48, redex_shape)
        + interp_specs(rng, 3, 0, ((16, 3),) * 24)
        + interp_specs(rng, 2, 1, ((10, 2), (12, 2)) * 12)
        # a term with fewer than two reducts yields no model-soundness case
        + suite_specs(rng, "model-soundness", ((10, 2, 2), (12, 2, 3), (14, 2, 3), (12, 3, 2)) * 2, redex_shape)
        # these two suites generate their own inputs
        + suite_specs(rng, "interp-substitution", (None,) * 48)
        + suite_specs(rng, "monad-laws", (None,))
    )


WORKLOADS = {"typed": typed, "rewrite": rewrite, "bridge": bridge, "semantics": semantics}


KINDS = {
    "suite": suite_item,
    "chain": chain_item,
    "roundtrip": roundtrip_item,
    "lattice": lattice_item,
    "interp": interp_item,
}


def plan(workload: str, seed: int) -> list[list]:
    """The workload's item specs; the same seed gives the same specs."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def build(specs: list[list]) -> list[Item]:
    return [KINDS[kind](*args) for kind, *args in specs]
