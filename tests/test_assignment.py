import pytest
from hypothesis import given, settings

from conftest import CLOSED_COMPS, CLOSED_TERMS, OPEN_TERMS, distinct_nodes, rotations

from ubcalc.assignment import (
    C_OMEGA,
    Derivation,
    Judgment,
    Unsynthesizable,
    ax,
    check_derivation,
    infer_bounded,
    make_basis,
    minimal_comp,
    minimal_value,
    synth_derivation,
    typable_nontrivial,
)
from ubcalc import assignment
from ubcalc.derivfile import parse_derivation, print_derivation
from ubcalc.filters import value_lattice
from ubcalc.harness import GenConfig, gen_typed_term
from ubcalc.reduction import DEFAULT_RULES, Rule, enumerate_steps
from ubcalc.terms import (
    Bind,
    Lambda,
    Unit,
    Variable,
    alpha_eq,
    is_value,
    omega_c,
    parse_term,
    subst,
    subterms,
)
from ubcalc.transform import (
    TransformError,
    expand_derivation,
    reduce_derivation,
    subst_derivation,
)
from ubcalc.typesys import (
    CTf,
    EMPTY_TABLE,
    TOP_C,
    TOP_V,
    V_OMEGA,
    AtomTable,
    VArrow,
    _make_canon_v,
    enumerate_types,
    eq_c,
    leq_canon_c,
    leq_canon_v,
    meet_all_canon_c,
    normalize_vtype,
    parse_type,
    tcan,
    to_ctype,
    to_vtype,
)

UNIVERSE = enumerate_types(2, 2)
UVALS = UNIVERSE[0]
ID_LAM = Lambda("x", Unit(Variable("x")))


def two_node_identity_derivation():
    # Ax; UnitI; ArrowI for |- \x.unit x : Wv -> T Wv
    inner = ax(make_basis([("x", V_OMEGA)]), "x")
    unit = Derivation("UnitI", Judgment(inner.conclusion.basis, Unit(Variable("x")), CTf(V_OMEGA)), (inner,))
    return Derivation(
        "ArrowI",
        Judgment((), ID_LAM, VArrow(V_OMEGA, CTf(V_OMEGA))),
        (unit,),
    )


class TestChecker:
    def test_identity_lambda(self):
        rep = check_derivation(two_node_identity_derivation())
        assert rep.valid, rep.errors

    def test_omega_types_anything(self):
        d = Derivation("Omega", Judgment((), omega_c(), C_OMEGA))
        assert check_derivation(d).valid

    def test_bad_arrow_e_content(self):
        # content T(Wv) does not entail the argument Wv -> T Wv
        good = two_node_identity_derivation()
        m = Derivation("Omega", Judgment((), Unit(ID_LAM), C_OMEGA))
        sub = Derivation(
            "Leq",
            Judgment((), Unit(ID_LAM), CTf(V_OMEGA)),
            (m,),
            (C_OMEGA, CTf(V_OMEGA)),
        )
        lam_ty = VArrow(parse_type("Wv -> T Wv"), CTf(V_OMEGA))
        lam = Derivation("Leq", Judgment((), ID_LAM, lam_ty), (good,), (good.conclusion.tipo, lam_ty))
        node = Derivation(
            "ArrowE",
            Judgment((), Bind(Unit(ID_LAM), ID_LAM), CTf(V_OMEGA)),
            (sub, lam),
        )
        rep = check_derivation(node)
        assert not rep.valid
        assert any("side condition fails" in msg or "does not entail" in msg for _, msg in rep.errors)

    def test_basis_clash_detected(self):
        inner = ax(make_basis([("x", V_OMEGA)]), "x")
        unit = Derivation("UnitI", Judgment(inner.conclusion.basis, Unit(Variable("x")), CTf(V_OMEGA)), (inner,))
        lam = Derivation(
            "ArrowI",
            Judgment(make_basis([("x", parse_type("Wv -> T Wv"))]), ID_LAM, VArrow(V_OMEGA, CTf(V_OMEGA))),
            (unit,),
        )
        rep = check_derivation(lam)
        assert not rep.valid

    def test_leq_side_condition_checked(self):
        base = Derivation("Omega", Judgment((), Unit(ID_LAM), C_OMEGA))
        bad = Derivation(
            "Leq",
            Judgment((), Unit(ID_LAM), CTf(V_OMEGA)),
            (base,),
            (C_OMEGA, CTf(V_OMEGA)),
        )
        rep = check_derivation(bad)
        assert not rep.valid

    def test_basis_binding_a_computation_type(self):
        d = Derivation("Omega", Judgment((("x", CTf(V_OMEGA)),), Unit(Variable("x")), C_OMEGA))
        assert check_derivation(d).errors == [((), "x is bound to a computation type")]

    def test_basis_binding_a_name_twice(self):
        arrow = VArrow(V_OMEGA, CTf(V_OMEGA))
        d = Derivation("Ax", Judgment((("x", V_OMEGA), ("x", arrow)), Variable("x"), arrow))
        assert check_derivation(d).errors == [((), "x is bound twice in the basis")]


class TestInfer:
    def test_omega_only_top_class(self):
        found = infer_bounded((), omega_c(), UNIVERSE)
        assert [c for c in found if not c.is_top] == []

    def test_unit_identity_gets_t_top(self):
        found = infer_bounded((), Unit(ID_LAM), UNIVERSE)
        assert any(eq_c(to_ctype(c), parse_type("T Wv")) for c in found)

    def test_identity_lambda_below_arrow_class(self):
        found = infer_bounded((), ID_LAM, UNIVERSE)
        want = parse_type("Wv -> T Wv")
        from ubcalc.typesys import leq_v, to_vtype

        assert any(not v.is_top and leq_v(to_vtype(v), want) for v in found)

    def test_typable_nontrivial(self):
        assert typable_nontrivial(Unit(ID_LAM), UNIVERSE) is not None
        assert typable_nontrivial(omega_c(), UNIVERSE) is None

    def test_open_term_rejected(self):
        with pytest.raises(ValueError):
            typable_nontrivial(Unit(Variable("x")), UNIVERSE)


# Bounded inference without its memo: every abstraction re-runs its body
# once per universe point, under every basis it is reached with.  Kept as
# the differential oracle for the memoised evaluator.


def reference_minimal_value(v, basis, universe, table=EMPTY_TABLE):
    match v:
        case Variable(name):
            return basis.get(name, TOP_V)
        case Lambda(x, body):
            arrows = []
            for point in universe:
                out = reference_minimal_comp(body, {**basis, x: point}, universe, table)
                arrows.append((point, out))
            return _make_canon_v((), arrows, table)
    raise TypeError(f"not a value: {v!r}")


def reference_minimal_comp(m, basis, universe, table=EMPTY_TABLE):
    match m:
        case Unit(v):
            return tcan(reference_minimal_value(v, basis, universe, table))
        case Bind(left, right):
            t = reference_minimal_comp(left, basis, universe, table)
            if t.arg is None:
                return TOP_C
            e = reference_minimal_value(right, basis, universe, table)
            return meet_all_canon_c(
                (c for d, c in e.arrows if leq_canon_v(t.arg, d, table)), table
            )
    raise TypeError(f"not a computation: {m!r}")


T1 = AtomTable(("a",))
# the universes of the rank-1 to rank-3 interpretation (no atom) and of
# rank 1 and 2 with one atom, plus the type enumeration the suites use
UNIVERSES = [(value_lattice(r, EMPTY_TABLE), EMPTY_TABLE) for r in range(3)] + [
    (value_lattice(r, T1), T1) for r in range(2)
] + [(UVALS, EMPTY_TABLE), (enumerate_types(1, 2, T1)[0], T1)]
UNIVERSE_IDS = ["lattice0", "lattice1", "lattice2", "lattice0-a", "lattice1-a", "types2", "types1-a"]


class TestMinimalMatchesReference:
    @pytest.mark.parametrize("universe,table", UNIVERSES, ids=UNIVERSE_IDS)
    def test_closed_terms(self, universe, table):
        for m in CLOSED_TERMS:
            assert minimal_comp(m, {}, universe, table) is reference_minimal_comp(m, {}, universe, table)

    @pytest.mark.parametrize("universe,table", UNIVERSES, ids=UNIVERSE_IDS)
    def test_every_subterm_under_bases(self, universe, table):
        for m in CLOSED_TERMS + OPEN_TERMS:
            for t in dict.fromkeys(subterms(m)):
                for basis in rotations(t, universe):
                    if is_value(t):
                        got = minimal_value(t, basis, universe, table)
                        want = reference_minimal_value(t, basis, universe, table)
                    else:
                        got = minimal_comp(t, basis, universe, table)
                        want = reference_minimal_comp(t, basis, universe, table)
                    assert got is want

    def test_infer_bounded_with_a_basis(self):
        uvals, ucomps = UNIVERSE
        for m in OPEN_TERMS:
            for cb in rotations(m, uvals):
                basis = make_basis((x, to_vtype(t)) for x, t in cb.items())
                canon = {x: normalize_vtype(t) for x, t in basis}
                low = reference_minimal_comp(m, canon, uvals)
                assert infer_bounded(basis, m, UNIVERSE) == [u for u in ucomps if leq_canon_c(low, u, EMPTY_TABLE)]
                v = Lambda("s0", m)
                low = reference_minimal_value(v, canon, uvals)
                assert infer_bounded(basis, v, UNIVERSE) == [u for u in uvals if leq_canon_v(low, u, EMPTY_TABLE)]

    def test_synthesis_shares_one_evaluator(self, monkeypatch):
        # every level of the synthesis asks again for the minimal types
        # of the two abstractions; with one memo for the whole recursion
        # each is built once (the inner one is closed)
        built = []

        def counting(atoms, arrows, table):
            built.append(len(arrows))
            return _make_canon_v(atoms, arrows, table)

        m = parse_term("unit (\\x. unit (\\y. unit y) * x)")
        target = typable_nontrivial(m, UNIVERSE)
        monkeypatch.setattr(assignment, "_make_canon_v", counting)
        d = synth_derivation((), m, target, UVALS)
        monkeypatch.undo()
        assert built == [len(UVALS)] * 2
        assert check_derivation(d).valid


class TestSynth:
    def test_identity_example(self):
        d = synth_derivation((), ID_LAM, parse_type("Wv -> T Wv"), UVALS)
        assert check_derivation(d).valid

    def test_unsynthesizable_raises(self):
        with pytest.raises(Unsynthesizable):
            synth_derivation((), omega_c(), parse_type("T Wv"), UVALS)

    @pytest.mark.parametrize(
        "subject,target,message",
        [
            ("\\x. unit x", "T Wv", "a value subject has no computation type"),
            ("\\x. unit x", "Wc", "a value subject has no computation type"),
            ("unit (\\x. unit x)", "Wv", "a computation subject has no value type"),
        ],
    )
    def test_a_target_of_the_other_sort_is_unsynthesizable(self, subject, target, message):
        with pytest.raises(Unsynthesizable, match=message):
            synth_derivation((), parse_term(subject), parse_type(target), UVALS)

    @given(CLOSED_COMPS)
    @settings(max_examples=40)
    def test_minimal_always_synthesizable(self, m):
        tnt = typable_nontrivial(m, UNIVERSE)
        target = tnt if tnt is not None else C_OMEGA
        d = synth_derivation((), m, target, UVALS)
        assert check_derivation(d).valid
        assert alpha_eq(d.conclusion.subject, m)

    def test_one_arrow_i_per_kept_arrow(self):
        """Synthesis types an abstraction by the InterI of one ArrowI per
        arrow it keeps: as many ArrowI nodes as the canonical form of their
        intersection has arrows, and no two with one conclusion."""
        cfg = GenConfig(seed=0, cases=20)
        groups = several = 0
        for i in range(cfg.cases):
            _, d = gen_typed_term(cfg, i)
            for top in _abstraction_tops(d):
                arrows = list(_arrow_i_nodes(top))
                assert len({a.conclusion for a in arrows}) == len(arrows)
                assert len(arrows) == len(normalize_vtype(top.conclusion.tipo).arrows)
                groups += 1
                several += len(arrows) > 1
        assert groups > 100 and several > 10


def _abstraction_tops(d: Derivation):
    """The topmost InterI or ArrowI node of each abstraction typed in d."""
    heads = ("InterI", "ArrowI")
    tops = [d] if d.rule in heads else []
    tops += [p for n in distinct_nodes(d) if n.rule != "InterI" for p in n.premises if p.rule in heads]
    return tops


def _arrow_i_nodes(d: Derivation):
    if d.rule == "ArrowI":
        yield d
    else:
        for p in d.premises:
            yield from _arrow_i_nodes(p)


class TestTransformations:
    @given(CLOSED_COMPS)
    @settings(max_examples=35)
    def test_subject_reduction(self, m):
        tnt = typable_nontrivial(m, UNIVERSE)
        d = synth_derivation((), m, tnt if tnt else C_OMEGA, UVALS)
        for step in enumerate_steps(d.conclusion.subject, DEFAULT_RULES):
            nd = reduce_derivation(d, step)
            assert check_derivation(nd).valid
            assert nd.conclusion.tipo == d.conclusion.tipo
            assert alpha_eq(nd.conclusion.subject, step.result)

    @given(CLOSED_COMPS)
    @settings(max_examples=35)
    def test_subject_expansion(self, m):
        for step in enumerate_steps(m, DEFAULT_RULES):
            tnt = typable_nontrivial(step.result, UNIVERSE)
            d = synth_derivation((), step.result, tnt if tnt else C_OMEGA, UVALS)
            ed = expand_derivation(m, step, d)
            assert check_derivation(ed).valid
            assert ed.conclusion.tipo == d.conclusion.tipo
            assert alpha_eq(ed.conclusion.subject, m)

    def test_id_expansion_example(self):
        d = synth_derivation((), Unit(ID_LAM), parse_type("T Wv"), UVALS)
        src = Bind(Unit(ID_LAM), Lambda("z", Unit(Variable("z"))))
        step = [s for s in enumerate_steps(src) if s.rule is Rule.ID][0]
        ed = expand_derivation(src, step, d)
        assert check_derivation(ed).valid
        assert ed.conclusion.tipo == parse_type("T Wv")

    def test_trivial_type_expansion_is_omega(self):
        d = Derivation("Omega", Judgment((), Unit(ID_LAM), C_OMEGA))
        src = Bind(Unit(ID_LAM), Lambda("z", Unit(Variable("z"))))
        step = [s for s in enumerate_steps(src) if s.rule is Rule.ID][0]
        ed = expand_derivation(src, step, d)
        assert check_derivation(ed).valid and ed.conclusion.tipo == C_OMEGA

    def test_eta_step_rejected(self):
        d = Derivation("Omega", Judgment((), omega_c(), C_OMEGA))
        from ubcalc.reduction import Step

        with pytest.raises(TransformError):
            reduce_derivation(d, Step(Rule.ETA_C, (), omega_c()))

    def test_substitution_lemma_construction(self):
        # Gamma, x: Wv -> T Wv |- unit x * x : T Wv with V = identity
        basis = make_basis([("x", parse_type("Wv -> T Wv"))])
        body = Bind(Unit(Variable("x")), Variable("x"))
        d = synth_derivation(basis, body, parse_type("T Wv"), UVALS)
        dv = synth_derivation((), ID_LAM, parse_type("Wv -> T Wv"), UVALS)
        got = subst_derivation(d, "x", dv)
        assert check_derivation(got).valid
        assert alpha_eq(got.conclusion.subject, Bind(Unit(ID_LAM), ID_LAM))
        assert got.conclusion.tipo == parse_type("T Wv")

    def test_substitution_gives_each_copy_of_v_its_own_binders(self):
        # x occurs three times, twice under y; V = \x. unit x binds x itself
        basis = make_basis([("x", parse_type("Wv -> T Wv"))])
        body = parse_term("unit x * \\y. unit x * x")
        d = synth_derivation(basis, body, parse_type("T Wv"), UVALS)
        dv = synth_derivation((), ID_LAM, parse_type("Wv -> T Wv"), UVALS)
        got = subst_derivation(d, "x", dv)
        assert check_derivation(got).valid
        assert alpha_eq(got.conclusion.subject, subst(body, "x", ID_LAM))
        binders = [s.binder for s in subterms(got.conclusion.subject) if isinstance(s, Lambda)]
        assert len(binders) == 4 and len(set(binders)) == len(binders)


def _one_node_per_constructor():
    """One valid node from each node constructor, keyed by its rule."""
    arrow = parse_type("Wv -> T Wv")
    basis = make_basis([("y", arrow)])
    on_y = assignment.ax(basis, "y")
    on_x = assignment.ax(assignment.basis_extend(basis, "x", V_OMEGA), "x")
    lam = assignment.arrow_i_node(assignment.unit_node(on_x), "x")
    nodes = [
        on_y,
        assignment.omega_node(basis, Unit(Variable("y"))),
        assignment.unit_node(on_y),
        lam,
        assignment.arrow_e_node(assignment.unit_node(on_y), lam),
        assignment.inter_fold([on_y, assignment.omega_node(basis, Variable("y"))]),
        assignment.leq_node(on_y, V_OMEGA),
    ]
    return {d.rule: d for d in nodes}


class TestRuleSchema:
    def test_every_rule_has_a_constructor(self):
        assert set(_one_node_per_constructor()) == set(assignment.RULES)

    @pytest.mark.parametrize("rule", sorted(assignment.RULES))
    def test_constructor_premises_sit_where_the_schema_says(self, rule):
        d = _one_node_per_constructor()[rule]
        assert check_derivation(d).valid
        J = d.conclusion
        sites = assignment.RULES[rule]
        assert len(d.premises) == len(sites)
        for p, (_, field, scoped) in zip(d.premises, sites):
            assert p.conclusion.subject == (J.subject if field is None else getattr(J.subject, field))
            # the basis grows by the binder exactly where the binder scopes
            scope = {J.subject.binder} if scoped else set()
            assert assignment.basis_dom(p.conclusion.basis) == assignment.basis_dom(J.basis) | scope


class TestDerivationFiles:
    def test_round_trip(self):
        d = synth_derivation((), Unit(ID_LAM), parse_type("T Wv"), UVALS)
        text = print_derivation(d)
        back = parse_derivation(text)
        assert back == d

    def test_round_trip_with_basis_and_side(self):
        basis = make_basis([("x", parse_type("(Wv -> T Wv) & Wv"))])
        d = synth_derivation(basis, Unit(Variable("x")), parse_type("T Wv"), UVALS)
        back = parse_derivation(print_derivation(d))
        assert back == d
        assert check_derivation(back).valid
