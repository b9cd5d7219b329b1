"""Derivation rewrites: the helpers the subject reduction and expansion
constructions are built from, and differential checks of those
constructions against earlier transform modules.

``reference_transform.py`` is that module as it stood before the
transformations were routed through one alignment walk.  It is loaded
under the ``ubcalc`` package so that its relative imports resolve.
``reference_subst.py`` keeps subject reduction as it stood before the
alignment walk also substituted; its output must match byte for byte.
"""
import importlib.util
import pathlib
import sys
import types

import pytest
from hypothesis import given, settings

import reference_subst
from conftest import CLOSED_COMPS, distinct_nodes
from test_assignment import ID_LAM, UNIVERSE, two_node_identity_derivation

from ubcalc import assignment, derivfile, harness, transform
from ubcalc.assignment import (
    C_OMEGA,
    Derivation,
    Unsynthesizable,
    ax,
    check_derivation,
    inter_fold,
    leq_node,
    make_basis,
    omega_node,
    synth_derivation,
    typable_nontrivial,
)
from ubcalc.harness import GenConfig, _universe, gen_term, gen_typed_term, run_suite
from ubcalc.derivfile import print_derivation
from ubcalc.reduction import DEFAULT_RULES, Rule, enumerate_steps
from ubcalc.terms import (
    BIND_LEFT,
    BIND_RIGHT,
    LAMBDA_BODY,
    UNIT_ARG,
    Lambda,
    Unit,
    Variable,
    alpha_eq,
    parse_term,
    subterms,
)
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
from ubcalc.typesys import EMPTY_TABLE, V_OMEGA, leq_v, parse_type


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


@pytest.mark.parametrize(
    "path",
    [
        (UNIT_ARG,),
        (BIND_LEFT,),
        (LAMBDA_BODY, BIND_RIGHT),
        (LAMBDA_BODY, UNIT_ARG, LAMBDA_BODY),
    ],
    ids=["arrow-i-lacks-unit-arg", "arrow-i-lacks-bind-left", "unit-i-lacks-bind-right", "ax-has-no-premise"],
)
def test_descend_on_a_path_no_premise_takes(path):
    d = two_node_identity_derivation()

    def at_redex(node):
        raise AssertionError("the path reached a redex")

    with pytest.raises(TransformError, match="does not match rule"):
        transform._descend(d, path, Variable("z"), at_redex)


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


def _load_workloads():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _run_typed_workload():
    """Run every item of the typed benchmark workload at seed 0; none may
    fail."""
    workloads = _load_workloads()
    api = types.SimpleNamespace(harness=harness, derivfile=derivfile, assignment=assignment)
    for item in workloads.build(workloads.plan("typed", 0)):
        assert item.run(api) != workloads.FAIL


def test_deriv_vars_reads_the_root(monkeypatch):
    """The names a derivation uses are those of its root subject and
    basis: the reference's walk over every node finds no more, on every
    derivation a transform asks about, and on every derivation the
    transforms take and give and every premise of those, in the typed
    benchmark workload and in the subject-reduction and subject-expansion
    suites."""
    root_only = transform._deriv_vars
    calls, mismatches, seen = [0], [], {}

    def checked(d):
        calls[0] += 1
        got = root_only(d)
        if got != reference._deriv_vars(d):
            mismatches.append(d)
        return got

    def recorded(fn):
        def call(*args):
            out = fn(*args)
            for d in (*args, out):
                if isinstance(d, Derivation):
                    seen.update((id(n), n) for n in (d, *d.premises))
            return out

        return call

    monkeypatch.setattr(transform, "_deriv_vars", checked)
    monkeypatch.setattr(transform, "reduce_derivation", recorded(transform.reduce_derivation))
    monkeypatch.setattr(transform, "expand_derivation", recorded(transform.expand_derivation))
    for seed in (0, 7, 1, 2):
        for name in ("subject-reduction", "subject-expansion"):
            assert not run_suite(name, GenConfig(seed=seed, cases=20)).failures
    _run_typed_workload()
    for node in seen.values():
        checked(node)
    assert calls[0] > 1000 and not mismatches


def _betac_pieces(node: Derivation, table):
    """(body, binder, substituend) for each piece the beta_c case builds
    at a redex node: one per kept abstraction typing, as in
    ``transform._reduce_betac``."""
    J = node.conclusion
    for dm, dvp in transform._extract_bind(node):
        arrow = dvp.conclusion.tipo
        unit_atoms = transform._extract_unit(dm)
        vd = inter_fold([dvx for _, dvx in unit_atoms]) if unit_atoms else omega_node(J.basis, J.subject.left.value)
        for binder, dk, _, body in transform._extract_lambda(dvp):
            if leq_v(arrow.dom, dk, table):
                yield body, binder, leq_node(vd, dk)


@pytest.fixture
def byte_oracle(monkeypatch):
    """Compare, as printed text, every beta_c piece and every
    reduce_derivation result with reference_subst's; count both."""
    seen = {"pieces": 0, "reducts": 0}
    betac, reduce = transform._REDUCE[Rule.BETA_C], transform.reduce_derivation

    def checked_betac(node, target, table):
        for body, binder, dv in _betac_pieces(node, table):
            got = transform._align(body, target, {}, binder, dv)
            want = reference_subst.align_derivation(reference_subst.subst_derivation(body, binder, dv, table), target)
            assert print_derivation(got) == print_derivation(want)
            seen["pieces"] += 1
        return betac(node, target, table)

    def checked_reduce(d, step, table=EMPTY_TABLE):
        got = reduce(d, step, table)
        assert print_derivation(got) == print_derivation(reference_subst.reduce_derivation(d, step, table))
        seen["reducts"] += 1
        return got

    monkeypatch.setitem(transform._REDUCE, Rule.BETA_C, checked_betac)
    monkeypatch.setattr(transform, "reduce_derivation", checked_reduce)
    return seen


@pytest.mark.parametrize("seed", [0, 7])
def test_subject_reduction_prints_as_the_reference(byte_oracle, seed):
    assert not run_suite("subject-reduction", GenConfig(seed=seed, cases=20)).failures
    assert byte_oracle["pieces"] and byte_oracle["reducts"]


def test_typed_workload_reduction_prints_as_the_reference(byte_oracle):
    _run_typed_workload()
    assert byte_oracle["pieces"] and byte_oracle["reducts"]


def _node_ids(d: Derivation) -> set[int]:
    return {id(n) for n in distinct_nodes(d)}


class TestReductionKeepsUntouchedNodes:
    def test_id_step_keeps_the_left_derivation(self):
        term = parse_term("(unit \\y. unit y) * \\x. unit x")
        d = synth_derivation((), term, typable_nontrivial(term, UNIVERSE), UNIVERSE[0])
        (step,) = [s for s in enumerate_steps(term, DEFAULT_RULES) if s.rule is Rule.ID and s.position == ()]
        reduct = reduce_derivation(d, step)
        assert reduct.conclusion.subject is d.conclusion.subject.left
        lefts, nodes = [dm for dm, _ in transform._extract_bind(d)], _node_ids(reduct)
        assert lefts and all(id(dm) in nodes for dm in lefts)

    def test_align_without_change_returns_the_node(self):
        d = two_node_identity_derivation()
        assert transform._align(d, d.conclusion.subject, {}) is d
        assert transform._align(d, d.conclusion.subject, {"x": "x"}) is d
        open_node = d.premises[0]
        assert transform._align(open_node, open_node.conclusion.subject, {"x": "x"}) is open_node

    @pytest.mark.parametrize("size", [16, 30])
    def test_reducts_check_and_rebuild_no_more_than_the_reference(self, size):
        """Every reduct of a generated typing is valid, keeps the type,
        types the step's result up to alpha, and holds no more nodes that
        are not d's than reference_subst's reduct."""
        reducts = 0
        for seed in range(10):
            cfg = GenConfig(seed=seed, cases=5, max_size=size)
            for i in range(cfg.cases):
                m, d = gen_typed_term(cfg, i)
                old = _node_ids(d)
                for step in enumerate_steps(m, DEFAULT_RULES):
                    got = reduce_derivation(d, step)
                    assert check_derivation(got).valid
                    assert got.conclusion.tipo == d.conclusion.tipo
                    assert alpha_eq(got.conclusion.subject, step.result)
                    want = reference_subst.reduce_derivation(d, step)
                    assert len(_node_ids(got) - old) <= len(_node_ids(want) - old)
                    reducts += 1
        assert reducts > 100
