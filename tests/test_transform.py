"""Derivation rewrites: the helpers the subject reduction and expansion
constructions are built from, and a differential check of those
constructions against the previous transform module.

``reference_transform.py`` is that module as it stood before the
transformations were routed through one alignment walk.  It is loaded
under the ``ubcalc`` package so that its relative imports resolve.
"""
import importlib.util
import pathlib

import pytest
from hypothesis import given, settings

from conftest import CLOSED_COMPS
from test_assignment import ID_LAM, UNIVERSE, two_node_identity_derivation

from ubcalc.assignment import (
    C_OMEGA,
    Derivation,
    Unsynthesizable,
    ax,
    check_derivation,
    make_basis,
    synth_derivation,
    typable_nontrivial,
)
from ubcalc.harness import GenConfig, _universe, gen_term, gen_typed_term
from ubcalc.reduction import DEFAULT_RULES, enumerate_steps
from ubcalc.terms import Lambda, Unit, Variable, alpha_eq, parse_term, subterms
from ubcalc.transform import (
    TransformError,
    align_derivation,
    expand_derivation,
    freshen_derivation,
    narrow_basis,
    reduce_derivation,
    strengthen_derivation,
    weaken_derivation,
)
from ubcalc.typesys import EMPTY_TABLE, V_OMEGA, parse_type


def _load_reference():
    path = pathlib.Path(__file__).with_name("reference_transform.py")
    spec = importlib.util.spec_from_file_location("ubcalc.reference_transform", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _load_reference()


class TestFreshen:
    AVOID = frozenset({"x", "y", "z", "w", "x0", "x1"})

    @given(CLOSED_COMPS)
    @settings(max_examples=40)
    def test_binders_become_fresh_and_distinct(self, m):
        tnt = typable_nontrivial(m, UNIVERSE)
        d = synth_derivation((), m, tnt if tnt else C_OMEGA, UNIVERSE[0])
        got = freshen_derivation(d, self.AVOID)
        assert check_derivation(got).valid
        assert alpha_eq(got.conclusion.subject, d.conclusion.subject)
        assert got.conclusion.tipo == d.conclusion.tipo
        binders = [s.binder for s in subterms(got.conclusion.subject) if isinstance(s, Lambda)]
        assert not set(binders) & self.AVOID
        assert len(set(binders)) == len(binders)

    def test_binder_clear_of_the_basis(self):
        basis = make_basis([("x0", V_OMEGA)])
        d = synth_derivation(basis, Unit(ID_LAM), parse_type("T (Wv -> T Wv)"), UNIVERSE[0])
        got = freshen_derivation(d)
        assert check_derivation(got).valid
        assert got.conclusion.subject.value.binder not in {"x", "x0"}


class TestRewriteErrors:
    def test_align_to_a_term_that_is_not_alpha_equivalent(self):
        with pytest.raises(TransformError):
            align_derivation(two_node_identity_derivation(), Lambda("x", Unit(Variable("y"))))

    def test_weaken_with_a_binder_clash(self):
        with pytest.raises(TransformError):
            weaken_derivation(two_node_identity_derivation(), (("x", V_OMEGA),))

    def test_strengthen_a_used_variable(self):
        with pytest.raises(TransformError):
            strengthen_derivation(ax(make_basis([("x", V_OMEGA)]), "x"), frozenset({"x"}))

    def test_narrow_to_a_weaker_binding(self):
        d = ax(make_basis([("x", parse_type("Wv -> T Wv"))]), "x")
        with pytest.raises(TransformError):
            narrow_basis(d, "x", V_OMEGA, EMPTY_TABLE)


@pytest.mark.parametrize(
    "source", ["unit (\\x. unit x) * (\\z. unit z)", "(unit y * (\\x. unit x)) * (\\z. unit z * y)"]
)
def test_expansion_keeps_source_binders_clear_of_the_basis(source):
    # the basis binds x, which the source also uses as a binder
    basis = make_basis([("x", V_OMEGA), ("y", parse_type("Wv -> T Wv"))])
    m = parse_term(source)
    for step in enumerate_steps(m, DEFAULT_RULES):
        d = synth_derivation(basis, step.result, parse_type("T Wv"), UNIVERSE[0])
        got = expand_derivation(m, step, d)
        assert check_derivation(got).valid
        assert alpha_eq(got.conclusion.subject, m) and got.conclusion.basis == basis


def _shape(d: Derivation) -> tuple:
    return (d.rule, d.conclusion.tipo, d.side, tuple(_shape(p) for p in d.premises))


def _same_construction(got: Derivation, want: Derivation) -> None:
    assert _shape(got) == _shape(want)
    assert alpha_eq(got.conclusion.subject, want.conclusion.subject)
    assert check_derivation(got).valid and check_derivation(want).valid


@pytest.mark.parametrize("seed", [0, 7])
def test_transforms_match_the_reference(seed):
    """On the subject-reduction and subject-expansion suites' cases
    (20 per suite, as in the pinned run), both modules build the same
    rules, types and side conditions at every node."""
    cfg = GenConfig(seed=seed, cases=20)
    for i in range(cfg.cases):
        m, d = gen_typed_term(cfg, i)
        for step in enumerate_steps(m, DEFAULT_RULES):
            _same_construction(reduce_derivation(d, step), reference.reduce_derivation(d, step))
    universe = _universe(cfg)
    for i in range(cfg.cases):
        m = gen_term(cfg, i)
        for step in enumerate_steps(m, DEFAULT_RULES):
            tnt = typable_nontrivial(step.result, universe) if not step.result.fv else None
            try:
                d = synth_derivation((), step.result, tnt if tnt is not None else C_OMEGA, universe[0])
            except Unsynthesizable:
                continue
            _same_construction(expand_derivation(m, step, d), reference.expand_derivation(m, step, d))
