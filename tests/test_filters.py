import itertools
import time

import pytest
from hypothesis import given, settings

from conftest import CLOSED_COMPS, CLOSED_TERMS, OPEN_TERMS, rotations

from ubcalc import assignment, filters, typesys
from ubcalc.assignment import check_derivation
from ubcalc.filters import (
    BOTTOM_C,
    BOTTOM_V,
    ComFilt,
    DomainSizeError,
    NonMonotoneTableError,
    OpenVariableError,
    RankOverflowError,
    ValFilt,
    apply_f,
    bind_f,
    build_domain,
    comp_lattice,
    dom_leq_c,
    dom_leq_v,
    interp_closed,
    interp_comp,
    interp_value,
    monotone_tables,
    phi_f,
    project_comp,
    project_val,
    psi_f,
    type_elems,
    unit_as_function,
    unit_f,
    value_lattice,
)
from ubcalc.harness import GenConfig, gen_term
from ubcalc.reduction import enumerate_steps
from ubcalc.terms import (
    Bind,
    Lambda,
    Unit,
    Variable,
    is_value,
    omega_c,
    parse_term,
    subst,
    subterms,
    unshadow,
)
from ubcalc.typesys import (
    AtomTable,
    CanonV,
    EMPTY_TABLE,
    TOP_C,
    TOP_V,
    _make_canon_v,
    eq_canon_c,
    eq_canon_v,
    leq_canon_c,
    leq_canon_v,
    meet_canon_v,
    normalize_ctype,
    normalize_vtype,
    parse_type,
    tcan,
    to_ctype,
)

T1 = AtomTable(("a",))
ID_LAM = Lambda("x", Unit(Variable("x")))


def canon_v(src):
    return normalize_vtype(parse_type(src))


def canon_c(src):
    return normalize_ctype(parse_type(src))


class TestDomains:
    def test_rank0_one_point(self):
        dom = build_domain(0)
        assert dom.values == (TOP_V,) and dom.comps == (TOP_C,)

    def test_rank1_two_point_chain(self):
        dom = build_domain(1)
        assert len(dom.values) == 2
        assert dom.comps == (TOP_C, tcan(TOP_V))
        # strictness: the T class is above bottom
        assert dom_leq_c(BOTTOM_C, ComFilt(tcan(TOP_V)))
        assert not dom_leq_c(ComFilt(tcan(TOP_V)), BOTTOM_C)

    def test_rank2_empty_table_six_points(self):
        dom = build_domain(2)
        assert len(dom.values) == 6 and len(dom.comps) == 3

    def test_one_atom_rank1(self):
        assert len(value_lattice(1, T1)) == 12

    def test_meet_closed(self):
        dom = build_domain(2)
        keys = set(dom.values)
        for a, b in itertools.combinations(dom.values, 2):
            assert meet_canon_v(a, b, dom.table) in keys

    def test_size_guard(self):
        with pytest.raises(DomainSizeError):
            value_lattice(2, AtomTable(("a", "b")), cap=300)

    def test_rank3_builds(self):
        start = time.perf_counter()
        points = filters._value_lattice.__wrapped__(3, EMPTY_TABLE, filters.LATTICE_CAP)
        assert time.perf_counter() - start < 10
        assert len(points) == 1650

    def test_rank4_fails_fast(self):
        # 1,650 squared arrow generators exceed the cap before any meet
        start = time.perf_counter()
        with pytest.raises(DomainSizeError):
            filters._value_lattice.__wrapped__(4, EMPTY_TABLE, filters.LATTICE_CAP)
        assert time.perf_counter() - start < 10


def all_pairs_meet_closure(gens, table, cap):
    """Reference closure: every new point is met with every point seen."""
    seen = {TOP_V: None}
    for g in gens:
        seen.setdefault(g)
    frontier = list(seen)
    while frontier:
        new = []
        for x in frontier:
            for y in list(seen):
                m = meet_canon_v(x, y, table)
                if m not in seen:
                    seen[m] = None
                    new.append(m)
                    if len(seen) > cap:
                        raise DomainSizeError(cap)
        frontier = new
    return sorted(seen, key=lambda c: c.key)


def reference_value_lattice(n, table):
    atoms = [CanonV((a,), ()) for a in table.atoms]
    points = all_pairs_meet_closure(atoms, table, 5000)
    for _ in range(n):
        arrows = [CanonV((), ((d, tcan(c)),)) for d in points for c in points]
        points = all_pairs_meet_closure(atoms + arrows, table, 5000)
    return tuple(points)


@pytest.mark.parametrize("n,table", [(0, EMPTY_TABLE), (1, EMPTY_TABLE), (2, EMPTY_TABLE), (0, T1), (1, T1)])
def test_generator_closure_matches_all_pairs(n, table):
    assert filters._value_lattice.__wrapped__(n, table, filters.LATTICE_CAP) == reference_value_lattice(n, table)


@pytest.mark.parametrize("n,table", [(2, EMPTY_TABLE), (1, T1)])
def test_lattice_build_leaves_the_meet_memo_alone(n, table):
    """A closure meets most pairs once, so its meets take no entry of the
    process-wide meet memo, and the points are those of all-pairs meets."""
    memo = typesys._meet_canon_v_cached
    before = memo.cache_info().misses
    got = filters._value_lattice.__wrapped__(n, table, filters.LATTICE_CAP)
    assert memo.cache_info().misses == before
    assert got == reference_value_lattice(n, table)


class TestMonadOps:
    def test_unit_keeps_generator(self):
        assert unit_f(BOTTOM_V).gen == tcan(TOP_V)

    def test_unit_then_bind_applies(self):
        d = canon_v("Wv -> T Wv")
        arrow = ValFilt(canon_v("(Wv -> T Wv) -> T (Wv -> T Wv)"))
        out = bind_f(unit_f(ValFilt(d)), arrow)
        assert eq_canon_c(out.gen, canon_c("T (Wv -> T Wv)"), EMPTY_TABLE)

    def test_bind_with_partless_value_is_bottom(self):
        assert bind_f(ComFilt(tcan(TOP_V)), BOTTOM_V).gen == TOP_C

    def test_bind_bottom_left_is_bottom(self):
        assert bind_f(BOTTOM_C, ValFilt(canon_v("Wv -> T Wv"))).gen == TOP_C

    def test_apply(self):
        u = ValFilt(canon_v("(Wv -> T Wv) -> T Wv"))
        assert eq_canon_c(apply_f(u, ValFilt(canon_v("Wv -> T Wv"))).gen, tcan(TOP_V), EMPTY_TABLE)
        assert apply_f(ValFilt(TOP_V), ValFilt(TOP_V)).gen == TOP_C

    def test_monotone(self):
        dom = build_domain(2)
        elems = dom.value_elems()
        for a, b in itertools.combinations(elems, 2):
            if dom_leq_v(a, b):
                assert dom_leq_c(unit_f(a), unit_f(b))
                for f in elems:
                    assert dom_leq_c(apply_f(f, a), apply_f(f, b))


class TestPsiPhi:
    def test_constant_bottom_collapses_to_value_bottom(self):
        points = value_lattice(1)
        u = psi_f({p: BOTTOM_C for p in points})
        assert u.gen == TOP_V

    def test_unit_as_function_round_trips(self):
        points = value_lattice(1)
        u = unit_as_function(points)
        for p in points:
            got = apply_f(u, ValFilt(p))
            assert eq_canon_c(got.gen, tcan(p), EMPTY_TABLE)

    def test_phi_psi_identity_on_all_tables(self):
        for n in (0, 1):
            points = list(value_lattice(n))
            comps = list(comp_lattice(n))
            for table in monotone_tables(points, comps):
                u = psi_f(table)
                back = phi_f(u, points)
                for p in points:
                    assert eq_canon_c(back[p].gen, table[p].gen, EMPTY_TABLE)

    def test_non_monotone_rejected(self):
        points = list(value_lattice(1))
        bottom_first = sorted(points, key=lambda p: 0 if p.is_top else 1)
        table = {
            bottom_first[0]: ComFilt(tcan(TOP_V)),
            bottom_first[1]: BOTTOM_C,
        }
        with pytest.raises(NonMonotoneTableError):
            psi_f(table)

    def test_psi_phi_retraction_direction(self):
        # folding the application table loses at most atom content: the
        # composite sits below the identity, with equality on every
        # element that is a meet of arrows
        for table, n in ((EMPTY_TABLE, 2), (T1, 1)):
            points = list(value_lattice(n - 1, table))
            for ugen in value_lattice(n, table):
                u = ValFilt(ugen)
                again = psi_f(phi_f(u, points, table), table)
                assert dom_leq_v(again, u, table)
                if not ugen.atoms:
                    assert eq_canon_v(again.gen, ugen, table)


class TestEmbedProject:
    # the embedding keeps the generator, so both laws read directly on
    # project_val

    def test_project_embed_identity(self):
        for gen in value_lattice(1):
            d = ValFilt(gen)
            assert project_val(d, 1).gen == gen

    def test_embed_project_below_identity(self):
        for gen in value_lattice(2):
            e = ValFilt(gen)
            assert dom_leq_v(project_val(e, 1), e)

    def test_embedding_is_not_inclusion_of_sets(self):
        # the generator survives but the closure gains rank-2 members the
        # rank-1 carrier never held
        gen = canon_v("Wv -> T Wv")
        new_member = canon_v("(Wv -> T Wv) -> T Wv")
        assert leq_canon_v(gen, new_member, EMPTY_TABLE)
        assert new_member.rank == 2
        assert all(v.rank <= 1 for v in value_lattice(1))

    def test_project_comp(self):
        t = ComFilt(canon_c("T (Wv -> T Wv)"))
        assert project_comp(t, 1).gen == tcan(TOP_V)
        assert project_comp(t, 0).gen == TOP_C


class TestInterp:
    def test_rank0_everything_bottom(self):
        assert interp_closed(Unit(ID_LAM), 0).gen == TOP_C

    def test_omega_is_bottom_at_low_ranks(self):
        for n in (0, 1, 2):
            assert interp_closed(omega_c(), n).gen == TOP_C

    def test_unit_value_nonbottom_at_positive_rank(self):
        for n in (1, 2):
            assert interp_closed(Unit(ID_LAM), n).gen != TOP_C

    def test_identity_interp_at_rank2(self):
        got = interp_closed(Unit(ID_LAM), 2)
        assert eq_canon_c(got.gen, canon_c("T (Wv -> T Wv)"), EMPTY_TABLE)

    def test_open_variable_rejected(self):
        with pytest.raises(OpenVariableError):
            interp_closed(Unit(Variable("x")), 1)

    @pytest.mark.parametrize("n", range(4))
    def test_unbound_variable_under_an_abstraction_raises_at_every_rank(self, n):
        # at rank 0 no abstraction body is run, so only an up-front check
        # of the free variables sees y
        with pytest.raises(OpenVariableError, match="y"):
            interp_value(Lambda("x", Unit(Variable("y"))), {}, n)
        with pytest.raises(OpenVariableError, match="y"):
            interp_comp(Unit(Lambda("x", Unit(Variable("y")))), {"x": BOTTOM_V}, n)

    def test_env_lookup(self):
        d = ValFilt(canon_v("Wv -> T Wv"))
        got = interp_comp(Unit(Variable("x")), {"x": d}, 2)
        assert eq_canon_c(got.gen, canon_c("T (Wv -> T Wv)"), EMPTY_TABLE)

    @given(CLOSED_COMPS)
    @settings(max_examples=30)
    def test_rank_coherence_measured(self, m):
        # projecting the finer interpretation never undershoots
        lo = interp_closed(m, 1)
        hi = project_comp(interp_closed(m, 2), 1)
        assert dom_leq_c(lo, hi)

    @given(CLOSED_COMPS)
    @settings(max_examples=30)
    def test_interpretation_types_are_derivable(self, m):
        # soundness direction of the type meaning: everything entailed by
        # the interpretation's generator is derivable at matching bounds
        from ubcalc.assignment import minimal_comp

        for n in (1, 2):
            gen = interp_closed(m, n).gen
            low = minimal_comp(m, {}, value_lattice(n), EMPTY_TABLE)
            assert leq_canon_c(low, gen, EMPTY_TABLE)

    @pytest.mark.parametrize("table,ranks", [(EMPTY_TABLE, range(4)), (T1, range(3))])
    def test_every_generator_has_a_checked_derivation(self, table, ranks):
        # the interpreter is the evaluator synthesis walks, so the walk
        # witnesses each generator with a derivation of exactly its type
        terms = [unshadow(gen_term(GenConfig(seed=s, max_size=16), i), frozenset()) for s in (0, 7) for i in range(40)]
        for n in ranks:
            for m in terms:
                d = filters._interpreter(m, {}, n, table).derive(m, (), {})
                assert check_derivation(d, table).valid
                assert d.conclusion.tipo == to_ctype(interp_closed(m, n, table).gen)


class TestSelfApplicationProjection:
    """The model-soundness suite asserts that a reduction step preserves
    the rank-(n+1) denotation projected to rank n, for n = 1, 2.  With a
    self-application in the continuation it holds at n = 1 and fails at
    n = 2; whether the interpreter or the claim is at fault is open."""

    M = parse_term("unit (\\x. unit (\\y. unit y) * x) * (\\g. unit g * g)")

    @pytest.mark.parametrize(
        "n",
        [
            1,
            pytest.param(
                2,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="open defect: g * g applies a rank-2 point to itself in m, "
                    "while the reduct applies the rank-3 abstraction, so one rank of "
                    "slack does not make the projections agree",
                ),
            ),
        ],
    )
    def test_step_preserves_projected_denotation(self, n):
        (step,) = enumerate_steps(self.M)
        before = project_comp(interp_closed(self.M, n + 1), n)
        after = project_comp(interp_closed(step.result, n + 1), n)
        assert eq_canon_c(before.gen, after.gen, EMPTY_TABLE)


# The interpreter without its memo: every abstraction re-runs its body
# once per lattice point, under every environment it is reached with.
# Kept as the differential oracle for the memoised one.


def reference_interp_value(v, env, n, table=EMPTY_TABLE):
    match v:
        case Variable(name):
            try:
                return env[name]
            except KeyError:
                raise OpenVariableError(name) from None
        case Lambda(x, body):
            if n == 0:
                return BOTTOM_V
            arrows = []
            for point in value_lattice(n - 1, table):
                out = reference_interp_comp(body, {**env, x: ValFilt(point)}, n, table)
                arrows.append((point, out.gen))
            return ValFilt(_make_canon_v((), arrows, table))
    raise TypeError(f"not a value: {v!r}")


def reference_interp_comp(m, env, n, table=EMPTY_TABLE):
    match m:
        case Unit(v):
            d = reference_interp_value(v, env, n, table)
            if n == 0:
                return BOTTOM_C
            acc = TOP_V
            for p in value_lattice(n - 1, table):
                if leq_canon_v(d.gen, p, table):
                    acc = meet_canon_v(acc, p, table)
            return ComFilt(tcan(acc))
        case Bind(left, right):
            t = reference_interp_comp(left, env, n, table)
            e = reference_interp_value(right, env, n, table)
            return bind_f(t, e, table)
    raise TypeError(f"not a computation: {m!r}")


RANKS = [(n, EMPTY_TABLE) for n in range(4)] + [(n, T1) for n in range(3)]
RANK_IDS = [f"rank{n}" for n in range(4)] + [f"rank{n}-a" for n in range(3)]


def env_points(n, table):
    # lattice points of rank up to n (at most 2, or 1 with an atom, where
    # the lattices stay small)
    return value_lattice(min(n, 2 if table is EMPTY_TABLE else 1), table)


def filter_envs(t, points):
    """Environments binding t's free variables to filters of points, in rotations."""
    for gens in rotations(t, points):
        yield {x: ValFilt(d) for x, d in gens.items()}


class TestInterpMatchesReference:
    @pytest.mark.parametrize("n,table", RANKS, ids=RANK_IDS)
    def test_closed_terms(self, n, table):
        for m in CLOSED_TERMS:
            assert interp_closed(m, n, table) == reference_interp_comp(m, {}, n, table)

    @pytest.mark.parametrize("n,table", RANKS, ids=RANK_IDS)
    def test_every_subterm_under_environments(self, n, table):
        # subterms of closed terms are open: their binders become free
        points = env_points(n, table)
        for m in CLOSED_TERMS + OPEN_TERMS:
            for t in dict.fromkeys(subterms(m)):
                for env in filter_envs(t, points):
                    if is_value(t):
                        assert interp_value(t, env, n, table) == reference_interp_value(t, env, n, table)
                    else:
                        assert interp_comp(t, env, n, table) == reference_interp_comp(t, env, n, table)

    @pytest.mark.parametrize("n,table", RANKS[1:4] + RANKS[5:6], ids=RANK_IDS[1:4] + RANK_IDS[5:6])
    def test_substitution_path(self, n, table):
        # the two sides the interp-substitution suite compares
        vv = Lambda("s0", Bind(Unit(Variable("s0")), ID_LAM))
        dv = interp_value(vv, {}, n, table)
        assert dv == reference_interp_value(vv, {}, n, table)
        for m in OPEN_TERMS:
            if "u" not in m.fv:
                continue
            env = {x: BOTTOM_V for x in m.fv if x != "u"}
            lhs = interp_comp(subst(m, "u", vv), env, n, table)
            assert lhs == reference_interp_comp(subst(m, "u", vv), env, n, table)
            rhs = interp_comp(m, {**env, "u": dv}, n, table)
            assert rhs == reference_interp_comp(m, {**env, "u": dv}, n, table)

    def test_closed_abstraction_runs_once_per_call(self, monkeypatch):
        # the inner abstraction is closed, so the outer one's six body
        # runs at rank 3 share one evaluation of it: two abstraction
        # generators are built, not 1 + 6
        built = []

        def counting(atoms, arrows, table):
            built.append(len(arrows))
            return _make_canon_v(atoms, arrows, table)

        m = parse_term("unit (\\x. unit (\\y. unit y) * x)")
        monkeypatch.setattr(assignment, "_make_canon_v", counting)
        got = interp_closed(m, 3)
        monkeypatch.undo()
        assert built == [6, 6]
        assert got == reference_interp_comp(m, {}, 3)


def test_lattice_and_projection_caches_are_bounded():
    for cache in (filters._value_lattice, comp_lattice, filters._projected):
        assert cache.cache_info().maxsize is not None


def test_value_lattice_cache_key_is_normalised():
    # comp_lattice(2) needs the rank-1 lattice that value_lattice(1)
    # already built, and omitted and explicit defaults are one entry
    filters._value_lattice.cache_clear()
    comp_lattice.cache_clear()
    value_lattice(1)
    comp_lattice(2)
    info = filters._value_lattice.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    value_lattice(1, EMPTY_TABLE)
    value_lattice(1, EMPTY_TABLE, cap=filters.LATTICE_CAP)
    info = filters._value_lattice.cache_info()
    assert (info.misses, info.hits) == (1, 3)


class TestTypeElems:
    def test_omega_c_is_everything(self):
        dom = build_domain(1)
        got = type_elems(TOP_C, dom)
        assert len(got) == len(dom.comps)

    def test_monotone_in_sigma(self):
        dom = build_domain(2)
        small, large = canon_c("T (Wv -> T Wv)"), canon_c("T Wv")
        a = {e.gen for e in type_elems(small, dom)}
        b = {e.gen for e in type_elems(large, dom)}
        assert a <= b

    def test_t_top_excludes_bottom(self):
        dom = build_domain(1)
        got = type_elems(tcan(TOP_V), dom)
        assert [e.gen for e in got] == [tcan(TOP_V)]

    def test_rank_overflow(self):
        dom = build_domain(1)
        with pytest.raises(RankOverflowError):
            type_elems(canon_c("T ((Wv -> T Wv) -> T Wv)"), dom)


class TestMonadLawsExhaustive:
    @pytest.mark.parametrize("table,n", [(EMPTY_TABLE, 1), (EMPTY_TABLE, 2), (T1, 1)])
    def test_laws(self, table, n):
        values = value_lattice(n, table)
        comps = comp_lattice(n, table)
        prev = value_lattice(n - 1, table)
        unit_fn = unit_as_function(prev, table)
        for dgen, fgen in itertools.product(values, values):
            d, f = ValFilt(dgen), ValFilt(fgen)
            lhs = bind_f(project_comp(unit_f(d), n, table), f, table)
            assert eq_canon_c(lhs.gen, apply_f(f, d, table).gen, table)
        for cgen in comps:
            a = ComFilt(cgen)
            assert eq_canon_c(bind_f(a, unit_fn, table).gen, a.gen, table)
        for cgen, fgen, ggen in itertools.product(comps, values, values):
            a, f, g = ComFilt(cgen), ValFilt(fgen), ValFilt(ggen)
            lhs = bind_f(bind_f(a, f, table), g, table)
            composite = psi_f(
                {p: bind_f(apply_f(f, ValFilt(p), table), g, table) for p in prev},
                table,
            )
            rhs = bind_f(a, composite, table)
            assert eq_canon_c(lhs.gen, rhs.gen, table)
