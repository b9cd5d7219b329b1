"""The derivation checker against the one it replaced.

``reference_checker.py`` is the checker as it stood before it read the
rule schema.  Both must agree on whether a derivation is valid, and the
new one may report an error only at a node where the old one reports
one.  The corpus is every derivation of the typed generator at seeds 0
and 7 with its subject-reduction reducts, and seeded single-node
mutants of them.  A derivation may share sub-derivations, so
the checker's report on each (as built, and with its equal
sub-derivations made one object), and on mutants that replace a shared
node at every place it occurs, must equal its report on the tree.
"""
import functools
import random
from collections import Counter

import pytest

import reference_checker as reference
from conftest import distinct_nodes, share, unshare
from test_assignment import ID_LAM

from ubcalc.assignment import (
    RULES,
    CheckReport,
    Derivation,
    Judgment,
    basis_extend,
    check_derivation,
    inter_fold,
)
from ubcalc.derivfile import print_derivation
from ubcalc.harness import GenConfig, gen_typed_term
from ubcalc.reduction import DEFAULT_RULES, enumerate_steps
from ubcalc.terms import Lambda, Unit, all_vars
from ubcalc.transform import TransformError, reduce_derivation
from ubcalc.typesys import C_OMEGA, V_OMEGA, CTf, VArrow, is_vtype


@functools.lru_cache(maxsize=None)
def _corpus(seed: int) -> tuple[Derivation, ...]:
    cfg = GenConfig(seed=seed, cases=20)
    out = []
    for i in range(cfg.cases):
        m, d = gen_typed_term(cfg, i)
        out.append(d)
        for step in enumerate_steps(m, DEFAULT_RULES):
            try:
                out.append(reduce_derivation(d, step))
            except TransformError:
                pass
    return tuple(out)


def _nodes(d: Derivation, path=()):
    yield path, d
    for i, p in enumerate(d.premises):
        yield from _nodes(p, path + (i,))


def _at(d: Derivation, path) -> Derivation:
    for i in path:
        d = d.premises[i]
    return d


def _replace(d: Derivation, path, new: Derivation) -> Derivation:
    if not path:
        return new
    i = path[0]
    premises = d.premises[:i] + (_replace(d.premises[i], path[1:], new),) + d.premises[i + 1 :]
    return Derivation(d.rule, d.conclusion, premises, d.side)


def _mutants(n: Derivation, rng: random.Random, types: list, subjects: list):
    """Single-node changes of n, each named."""
    J = n.conclusion

    def with_judgment(basis, subject, tipo):
        return Derivation(n.rule, Judgment(basis, subject, tipo), n.premises, n.side)

    yield "rule", Derivation(rng.choice(sorted(set(RULES) - {n.rule}) + ["Bogus"]), J, n.premises, n.side)
    yield "type", with_judgment(J.basis, J.subject, rng.choice(types))
    yield "subject", with_judgment(J.basis, rng.choice(subjects), J.tipo)
    if n.premises:
        i = rng.randrange(len(n.premises))
        yield "drop", Derivation(n.rule, J, n.premises[:i] + n.premises[i + 1 :], n.side)
    if len(n.premises) > 1:
        yield "reorder", Derivation(n.rule, J, n.premises[::-1], n.side)
    name = rng.choice(sorted(all_vars(J.subject)) + ["fresh"])
    bound = rng.choice([t for t in types if is_vtype(t)])
    yield "basis", with_judgment(basis_extend(J.basis, name, bound), J.subject, J.tipo)
    if n.side is not None:
        lo, hi = n.side
        changed = (rng.choice(types), hi) if rng.random() < 0.5 else (lo, rng.choice(types))
        yield "side", Derivation(n.rule, J, n.premises, changed)
        yield "no-side", Derivation(n.rule, J, n.premises, None)


def _agree(d: Derivation) -> bool:
    """Both checkers give d the same verdict; the new one reports errors
    only at nodes the old one reports.  Returns the verdict."""
    got = check_derivation(d)
    try:
        want = reference.check_derivation(d)
    except TypeError:  # the old checker crashed on a witness of mixed sorts
        assert not got.valid
        return False
    assert got.valid == want.valid, (got.errors, want.errors)
    assert {p for p, _ in got.errors} <= {p for p, _ in want.errors}, (got.errors, want.errors)
    return got.valid


@pytest.mark.parametrize("seed", [0, 7])
def test_checker_matches_the_reference(seed):
    """Whole derivations first, then mutants.  A node's errors depend only
    on its own conclusion and its premises' conclusions, so a mutant is
    checked from the parent of the changed node: every node outside that
    subtree reports the same on both sides."""
    rng = random.Random(seed)
    mutants = invalid = 0
    kinds = set()
    for d in _corpus(seed):
        assert _agree(d)
        nodes = list(_nodes(d))
        types = sorted({n.conclusion.tipo for _, n in nodes}, key=repr)
        subjects = sorted({n.conclusion.subject for _, n in nodes}, key=repr)
        for path, n in rng.sample(nodes, min(12, len(nodes))):
            top = path[:-1]
            for kind, mutant in _mutants(n, rng, types, subjects):
                kinds.add(kind)
                mutants += 1
                invalid += not _agree(_replace(_at(d, top), path[len(top) :], mutant))
    assert kinds == {"rule", "type", "subject", "drop", "reorder", "basis", "side", "no-side"}
    assert invalid > mutants // 3 and mutants > 2000


def _replace_every(d: Derivation, old: Derivation, new: Derivation) -> Derivation:
    """d with `new` in every place the node object `old` occurs; the rest
    keeps its sharing."""
    memo: dict[int, Derivation] = {}

    def walk(n: Derivation) -> Derivation:
        if n is old:
            return new
        if id(n) not in memo:
            premises = tuple(walk(p) for p in n.premises)
            same = all(a is b for a, b in zip(premises, n.premises))
            memo[id(n)] = n if same else Derivation(n.rule, n.conclusion, premises, n.side)
        return memo[id(n)]

    return walk(d)


def _same_as_the_tree(d: Derivation) -> CheckReport:
    got = check_derivation(d)
    assert got == check_derivation(unshare(d))
    return got


@pytest.mark.parametrize("seed", [0, 7])
def test_shared_nodes_report_as_the_tree(seed):
    """The report (verdict, paths, messages and their order) and the
    printed form of every corpus derivation equal those of its tree, as
    do the reports of mutants that replace a shared node everywhere.
    Synthesis shares no nodes, so each derivation is also checked with
    its equal sub-derivations made one object (``share``), and as both
    premises of one InterI."""
    rng = random.Random(seed)
    shared = mutants = invalid = 0
    for d in (x for d in _corpus(seed) for x in (d, share(d), inter_fold([d, d]))):
        assert _same_as_the_tree(d).valid
        assert print_derivation(d) == print_derivation(unshare(d))
        nodes = distinct_nodes(d)
        refs = Counter(id(p) for n in nodes for p in n.premises)
        multi = [n for n in nodes if refs[id(n)] > 1]
        shared += bool(multi)
        types = sorted({n.conclusion.tipo for n in nodes}, key=repr)
        subjects = sorted({n.conclusion.subject for n in nodes}, key=repr)
        for n in rng.sample(multi, min(1, len(multi))):
            for _, mutant in _mutants(n, rng, types, subjects):
                mutants += 1
                invalid += not _same_as_the_tree(_replace_every(d, n, mutant)).valid
    assert shared > len(_corpus(seed)) // 4
    assert invalid > mutants // 3 and mutants > 200


def test_arrow_i_premise_missing_an_unused_binder():
    # \x. unit (\y. unit y): x is unused, but the premise basis must still bind it
    inner = Derivation("Omega", Judgment((), Unit(ID_LAM), C_OMEGA))
    d = Derivation("ArrowI", Judgment((), Lambda("x", Unit(ID_LAM)), VArrow(V_OMEGA, C_OMEGA)), (inner,))
    assert not _agree(d)
    assert check_derivation(d).errors == [((), "premise 0 basis is not the conclusion's plus the binder")]


def test_arrow_i_domain_of_the_wrong_sort():
    # the premise basis is the conclusion's plus x, but x is bound to a
    # computation type: the old checker reports it at the premise's basis
    dom = CTf(V_OMEGA)
    inner = Derivation("Omega", Judgment((("x", dom),), Unit(ID_LAM), C_OMEGA))
    d = Derivation("ArrowI", Judgment((), Lambda("x", Unit(ID_LAM)), VArrow(dom, C_OMEGA)), (inner,))
    assert check_derivation(d).errors == [((), "arrow domain is not a value type")]
    assert not reference.check_derivation(d).valid
