import gc
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ubcalc import typesys
from ubcalc.filters import value_lattice
from ubcalc.typesys import (
    AtomTable,
    C_OMEGA,
    CanonC,
    CanonV,
    CInter,
    COmega,
    CTf,
    EMPTY_TABLE,
    TOP_C,
    TOP_V,
    UnknownAtomError,
    V_OMEGA,
    VArrow,
    VAtom,
    VInter,
    VOmega,
    apply_canon,
    brute_subtype_oracle,
    enumerate_types,
    eq_c,
    eq_v,
    leq_c,
    leq_canon_v,
    leq_v,
    meet_all_canon_c,
    meet_canon_c,
    meet_canon_v,
    normalize_ctype,
    normalize_vtype,
    parse_type,
    print_type,
    rank,
    tcan,
    to_ctype,
    to_vtype,
)

T1 = AtomTable(("a",))
T2 = AtomTable(("a", "b"))
T2C = AtomTable(("a", "b"), frozenset({("a", "b")}))

ARROW_TOP = VArrow(V_OMEGA, C_OMEGA)


class TestAtomTableHash:
    def test_equal_tables_hash_equal(self):
        # the order is closed at construction, so these are one table
        again = AtomTable(("a", "b"), frozenset({("a", "b"), ("a", "a")}))
        assert again == T2C and hash(again) == hash(T2C)

    def test_copy_and_pickle_rebuild_the_hash(self):
        import copy
        import pickle
        import pickletools

        table = AtomTable(("a", "b"), frozenset({("a", "b")}), "scott", 2)
        stale = AtomTable(("a", "b"), frozenset({("a", "b")}), "scott", 2)
        # a hash computed under another process's string-hash seed
        object.__setattr__(stale, "_hash", hash(table) ^ 1)
        payload = pickle.dumps(stale)
        assert not any(
            arg in (hash(stale), "_hash") for _, arg, _ in pickletools.genops(payload)
        )
        for back in (pickle.loads(payload), copy.copy(stale), copy.deepcopy(stale)):
            assert back == table and hash(back) == hash(table)


def vtypes(depth, table=EMPTY_TABLE):
    base = [st.just(V_OMEGA)]
    if table.atoms:
        base.append(st.sampled_from(table.atoms).map(VAtom))
    if depth <= 0:
        return st.one_of(*base)
    return st.one_of(
        *base,
        st.builds(VArrow, vtypes(depth - 1, table), ctypes(depth - 1, table)),
        st.builds(VInter, vtypes(depth - 1, table), vtypes(depth - 1, table)),
    )


def ctypes(depth, table=EMPTY_TABLE):
    if depth <= 0:
        return st.just(C_OMEGA)
    return st.one_of(
        st.just(C_OMEGA),
        st.builds(CTf, vtypes(depth - 1, table)),
        st.builds(CInter, ctypes(depth - 1, table), ctypes(depth - 1, table)),
    )


class TestRank:
    @pytest.mark.parametrize(
        "src,expected",
        [("Wv", 0), ("Wc", 0), ("T Wv", 1), ("Wv -> T Wv", 1), ("(Wv -> Wc) -> T Wv", 2)],
    )
    def test_cases(self, src, expected):
        assert rank(parse_type(src)) == expected

    def test_atoms_rank_zero(self):
        assert rank(VAtom("a")) == 0

    def test_meet_takes_max(self):
        assert rank(parse_type("Wv & (Wv -> T Wv)")) == 1


class TestNormalize:
    def test_omega_arrow_absorbed(self):
        assert normalize_vtype(ARROW_TOP) == TOP_V

    def test_arrow_with_trivial_codomain_absorbed(self):
        # derivation-search oracle confirms both directions
        t = VArrow(parse_type("Wv -> T Wv"), C_OMEGA)
        assert normalize_vtype(t) == TOP_V
        assert brute_subtype_oracle(t, V_OMEGA) is True
        assert brute_subtype_oracle(V_OMEGA, t) is True

    def test_t_intersections_merge(self):
        got = normalize_ctype(parse_type("T Wv & T (Wv -> T Wv)"))
        want = normalize_ctype(CTf(parse_type("Wv & (Wv -> T Wv)")))
        assert got == want

    @given(vtypes(3))
    def test_idempotent_value(self, t):
        c = normalize_vtype(t)
        assert normalize_vtype(to_vtype(c)) == c

    @given(vtypes(3))
    def test_eq_preserving(self, t):
        assert eq_v(t, to_vtype(normalize_vtype(t)))

    @given(ctypes(3))
    def test_comp_shape(self, t):
        c = normalize_ctype(t)
        assert c.is_top or c.arg is not None
        assert eq_c(t, to_ctype(c))


# Reference keys and ranks computed by recursion over the whole tree, as
# canonical types were keyed before they were hash-consed.


def ref_key_v(c):
    return ("m", c.atoms, tuple((ref_key_v(d), ref_key_c(t)) for d, t in c.arrows))


def ref_key_c(c):
    return ("tc",) if c.arg is None else ("t", ref_key_v(c.arg))


def ref_rank_v(c):
    r = 0
    for d, t in c.arrows:
        r = max(r, ref_rank_v(d) + 1, ref_rank_c(t))
    return r


def ref_rank_c(c):
    return 0 if c.arg is None else ref_rank_v(c.arg) + 1


def canon_nodes(c):
    """c and every canonical node below it."""
    out, todo = [], [c]
    while todo:
        n = todo.pop()
        out.append(n)
        if isinstance(n, CanonC):
            todo.extend([] if n.arg is None else [n.arg])
        else:
            todo.extend(x for arrow in n.arrows for x in arrow)
    return out


CANON_MEMOS = ("_make_canon_v_cached", "_meet_canon_v_cached", "_apply_canon_cached", "_leq_canon_v_cached")


class TestInterning:
    @given(vtypes(3, T2))
    def test_normalize_twice_is_identical(self, t):
        assert normalize_vtype(t, T2) is normalize_vtype(t, T2)
        assert normalize_vtype(to_vtype(normalize_vtype(t, T2)), T2) is normalize_vtype(t, T2)

    @given(ctypes(3, T2))
    def test_key_and_rank_match_the_recursive_ones(self, t):
        for n in canon_nodes(normalize_ctype(t, T2)):
            if isinstance(n, CanonV):
                assert n.key == ref_key_v(n) and n.rank == ref_rank_v(n)
            else:
                assert n.key == ref_key_c(n) and n.rank == ref_rank_c(n)

    @given(vtypes(3, T1), vtypes(3, T1))
    def test_equal_exactly_when_structurally_equal(self, a, b):
        ca, cb = normalize_vtype(a, T1), normalize_vtype(b, T1)
        assert (ca == cb) == (ref_key_v(ca) == ref_key_v(cb)) == (ca is cb)

    @given(vtypes(3, T2), vtypes(3, T2))
    def test_meet_commutes_up_to_identity(self, a, b):
        ca, cb = normalize_vtype(a, T2), normalize_vtype(b, T2)
        assert meet_canon_v(ca, cb, T2) is meet_canon_v(cb, ca, T2)

    def test_fields_are_read_only(self):
        with pytest.raises(AttributeError):
            TOP_V.atoms = ("a",)

    def test_rebuilt_by_copy_and_pickle_as_the_same_node(self):
        import copy
        import pickle

        c = normalize_ctype(parse_type("T ((Wv -> T @a) & @b)"), T2)
        assert copy.deepcopy(c) is c
        assert pickle.loads(pickle.dumps(c)) is c

    def test_dropped_nodes_leave_the_table(self):
        def interned(cls):
            return sum(isinstance(n, cls) for n in list(typesys._INTERNED_TYPES.values()))

        gc.collect()
        before = interned(CanonV), interned(CanonC)
        c = TOP_V
        for _ in range(50):
            c = meet_canon_v(CanonV((), ((c, tcan(c)),)), CanonV(("a",), ()), T1)
        assert interned(CanonV) > before[0] + 50
        del c
        # the memos hold strong references; dropping them frees the nodes
        for name in CANON_MEMOS:
            getattr(typesys, name).cache_clear()
        gc.collect()
        assert interned(CanonV) <= before[0]
        assert interned(CanonC) <= before[1]

    def test_memos_are_bounded(self):
        for name in CANON_MEMOS:
            assert getattr(typesys, name).cache_info().maxsize is not None


# The fold and the application before they were memoised: each call folds
# the whole table, or compares the argument with every arrow's domain.


def ref_make_canon_v(atoms, arrows, table):
    kept_atoms = []
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
    by_dom = {}
    for d, t in arrows:
        if t.is_top:
            continue
        prev = by_dom.get(d)
        by_dom[d] = t if prev is None else meet_canon_c(prev, t, table)
    kept = []
    for arr in sorted(by_dom.items(), key=typesys._arrow_key):
        if any(typesys._arrow_leq(k, arr, table) for k in kept):
            continue
        kept = [k for k in kept if not typesys._arrow_leq(arr, k, table)]
        kept.append(arr)
    kept.sort(key=typesys._arrow_key)
    return CanonV(tuple(sorted(kept_atoms)), tuple(kept))


def ref_apply_canon(f, arg, table):
    return meet_all_canon_c((c for d, c in f.arrows if leq_canon_v(arg, d, table)), table)


class TestCanonMemos:
    @pytest.mark.parametrize("n,table", [(2, EMPTY_TABLE), (1, T1)], ids=["rank2", "rank1-one-atom"])
    def test_memos_match_the_unmemoised_bodies(self, n, table):
        points = value_lattice(n, table)
        rng = random.Random(n)
        # each point's table over the points, and its meet with each point,
        # with the parts in shuffled order
        folds = []
        for f in points:
            parts = [(f.atoms, [(p, ref_apply_canon(f, p, table)) for p in points])]
            parts += [(f.atoms + g.atoms, list(f.arrows + g.arrows)) for g in points]
            for atoms, arrows in parts:
                rng.shuffle(arrows)
                folds.append((atoms, arrows, ref_make_canon_v(atoms, arrows, table)))
        applied = [(f, arg, ref_apply_canon(f, arg, table)) for f in points for arg in points]
        assert any(not want.is_top for _, _, want in applied)

        def check():
            for atoms, arrows, want in folds:
                assert typesys._make_canon_v(iter(atoms), iter(arrows), table) is want
            for f, arg, want in applied:
                assert apply_canon(f, arg, table) is want

        clear_type_memos()
        check()
        # the second round is answered from the memos; a function with no
        # arrows is applied without one
        memos = (typesys._make_canon_v_cached, typesys._apply_canon_cached)
        before = [memo.cache_info().hits for memo in memos]
        check()
        after = [memo.cache_info().hits for memo in memos]
        assert after[0] - before[0] >= len(folds)
        assert after[1] - before[1] == sum(1 for f, _, _ in applied if f.arrows) > 0
        clear_type_memos()
        check()


# The un-memoised normalisation the raw types were read with before they
# were hash-consed: a walk of the whole tree at every call.


def ref_normalize_vtype(t, table=EMPTY_TABLE, eta_depth=None):
    depth = table.eta_depth if eta_depth is None else eta_depth
    match t:
        case VOmega():
            return TOP_V
        case VAtom(name):
            if name not in table.atoms:
                raise UnknownAtomError(name)
            return typesys._unfold_atom(name, table, depth)
        case VArrow(d, c):
            cc = ref_normalize_ctype(c, table, depth)
            if cc.is_top:
                return TOP_V
            return CanonV((), ((ref_normalize_vtype(d, table, depth), cc),))
        case VInter(l, r):
            return meet_canon_v(ref_normalize_vtype(l, table, depth), ref_normalize_vtype(r, table, depth), table)
    raise TypeError(f"not a value type: {t!r}")


def ref_normalize_ctype(t, table=EMPTY_TABLE, eta_depth=None):
    depth = table.eta_depth if eta_depth is None else eta_depth
    match t:
        case COmega():
            return TOP_C
        case CTf(a):
            return tcan(ref_normalize_vtype(a, table, depth))
        case CInter(l, r):
            return meet_canon_c(ref_normalize_ctype(l, table, depth), ref_normalize_ctype(r, table, depth), table)
    raise TypeError(f"not a computation type: {t!r}")


TYPE_NAMES = {cls.__name__: cls for cls in (VAtom, VArrow, VInter, VOmega, CTf, CInter, COmega, CanonV, CanonC)}
RAW_MEMOS = ("_normalize_v", "_normalize_c", "to_vtype", "parse_type")
NORMALIZE_TABLES = [EMPTY_TABLE, T1] + [
    AtomTable(("a",), eta_mode=mode, eta_depth=depth) for mode in ("scott", "park") for depth in (0, 1, 2)
]


def rebuilt(t):
    """A structurally equal copy of t, built bottom-up from its fields."""
    fields = (getattr(t, name) for name in t.__match_args__)
    return type(t)(*(rebuilt(f) if isinstance(f, typesys._TypeNode) else f for f in fields))


def clear_type_memos():
    for name in RAW_MEMOS + CANON_MEMOS:
        getattr(typesys, name).cache_clear()


class TestRawInterning:
    @given(st.one_of(vtypes(3, T2), ctypes(3, T2)))
    def test_equal_types_are_one_object(self, t):
        assert rebuilt(t) is t
        assert eval(repr(t), TYPE_NAMES) is t
        text = print_type(t)
        first = parse_type(text)
        typesys.parse_type.cache_clear()
        assert parse_type(text) is first

    @given(vtypes(3, T1), vtypes(3, T1))
    def test_equal_exactly_when_printed_alike(self, a, b):
        assert (a == b) == (repr(a) == repr(b)) == (a is b)
        pa, pb = parse_type(print_type(a)), parse_type(print_type(b))
        assert (pa == pb) == (print_type(a) == print_type(b))

    def test_fields_are_read_only(self):
        t = parse_type("Wv -> T Wv")
        with pytest.raises(AttributeError):
            t.dom = VAtom("a")
        with pytest.raises(AttributeError):
            del t.cod
        with pytest.raises(AttributeError):
            V_OMEGA.extra = 1
        c = CanonV(("q",), ())
        for node, field in ((c, "atoms"), (c, "key"), (tcan(c), "arg"), (tcan(c), "rank")):
            with pytest.raises(AttributeError):
                setattr(node, field, ())
            with pytest.raises(AttributeError):
                delattr(node, field)
        # a failed delete leaves the interned node whole
        assert eval(repr(tcan(c)), TYPE_NAMES) is tcan(CanonV(("q",), ()))

    @pytest.mark.parametrize(
        "src,want",
        [
            ("Wv -> T Wv", "VArrow(dom=VOmega(), cod=CTf(arg=VOmega()))"),
            ("@a & Wv", "VInter(left=VAtom(name='a'), right=VOmega())"),
            ("Wc & T @b", "CInter(left=COmega(), right=CTf(arg=VAtom(name='b')))"),
            pytest.param(TOP_C, "CanonC(arg=None)", id="TOP_C"),
            pytest.param(
                normalize_vtype(parse_type("@a & (Wv -> T @a)"), T1),
                "CanonV(atoms=('a',), arrows=((CanonV(atoms=(), arrows=()), CanonC(arg=CanonV(atoms=('a',), arrows=()))),))",
                id="canonical-meet",
            ),
        ],
    )
    def test_repr_is_dataclass_style(self, src, want):
        node = parse_type(src) if isinstance(src, str) else src
        assert repr(node) == want

    def test_construction_by_field_name(self):
        assert VArrow(dom=V_OMEGA, cod=C_OMEGA) is VArrow(V_OMEGA, C_OMEGA) is VArrow(V_OMEGA, cod=C_OMEGA)
        with pytest.raises(TypeError):
            VArrow(V_OMEGA)
        with pytest.raises(TypeError):
            VArrow(V_OMEGA, dom=V_OMEGA)
        assert CanonV(atoms=("a",), arrows=()) is CanonV(("a",), ()) is CanonV(("a",), arrows=())
        assert CanonC(arg=None) is TOP_C
        with pytest.raises(TypeError):
            CanonV(("a",))
        with pytest.raises(TypeError):
            CanonC(None, arg=None)

    def test_rebuilt_by_copy_and_pickle_as_the_same_node(self):
        import copy
        import pickle

        t = parse_type("(Wv -> T @a) & @b -> Wc & T Wv")
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        assert pickle.loads(pickle.dumps(t)) is t

    def test_dropped_types_leave_the_table(self):
        clear_type_memos()
        gc.collect()
        before = len(typesys._INTERNED_TYPES)
        t = V_OMEGA
        for i in range(50):
            t = VInter(VArrow(t, CTf(VAtom(f"drop{i}"))), VAtom(f"drop{i}"))
        assert len(typesys._INTERNED_TYPES) > before + 50
        normalize_vtype(t, AtomTable(tuple(f"drop{i}" for i in range(50))))
        to_vtype(normalize_vtype(parse_type("Wv -> T (Wv -> T Wv)")))
        del t
        # the memos hold strong references; dropping them frees the types
        clear_type_memos()
        gc.collect()
        assert len(typesys._INTERNED_TYPES) <= before

    def test_memos_are_bounded(self):
        for name in RAW_MEMOS + CANON_MEMOS:
            assert getattr(typesys, name).cache_info().maxsize == typesys._MEMO_SIZE

    @given(vtypes(3, T1), ctypes(3, T1))
    @settings(max_examples=150)
    def test_normalize_matches_the_unmemoised_walk(self, v, c):
        def same(got, want, *args):
            try:
                expected = want(*args)
            except UnknownAtomError:
                with pytest.raises(UnknownAtomError):
                    got(*args)
                return
            assert got(*args) is expected

        for table in NORMALIZE_TABLES:
            for depth in (None, 0, 1, 2):
                same(normalize_vtype, ref_normalize_vtype, v, table, depth)
                same(normalize_ctype, ref_normalize_ctype, c, table, depth)


class TestTheoryAxioms:
    def test_top_axioms(self):
        assert leq_v(parse_type("Wv -> T Wv"), V_OMEGA)
        assert leq_c(parse_type("T Wv"), C_OMEGA)

    def test_omega_equals_omega_arrow(self):
        assert eq_v(V_OMEGA, ARROW_TOP)

    def test_distribution(self):
        lhs = parse_type("(Wv -> T Wv) & (Wv -> T (Wv -> T Wv))")
        rhs = parse_type("Wv -> (T Wv & T (Wv -> T Wv))")
        assert eq_v(lhs, rhs)

    def test_arrow_variance(self):
        small = parse_type("Wv -> T (Wv -> T Wv)")
        big = parse_type("(Wv -> T Wv) -> T Wv")
        # domain shrinks, codomain grows
        assert leq_v(small, VArrow(parse_type("Wv -> T Wv"), CTf(V_OMEGA)))
        assert not leq_v(big, small)

    def test_t_covariance(self):
        assert leq_c(parse_type("T (Wv -> T Wv)"), parse_type("T Wv"))

    def test_omega_c_not_below_t_top(self):
        assert not leq_c(C_OMEGA, parse_type("T Wv"))
        assert leq_c(parse_type("T Wv"), C_OMEGA)

    def test_nontrivial_comp_below_t_top(self):
        # every non-top computation class sits below T of the value top
        for c in enumerate_types(2, 2)[1]:
            if not c.is_top:
                assert leq_c(to_ctype(c), parse_type("T Wv"))

    def test_atom_table_order(self):
        assert leq_v(VAtom("a"), VAtom("b"), T2C)
        assert not leq_v(VAtom("b"), VAtom("a"), T2C)
        assert not leq_v(VAtom("a"), VAtom("b"), T2)

    def test_unknown_atom_rejected(self):
        with pytest.raises(UnknownAtomError):
            leq_v(VAtom("zz"), V_OMEGA, T1)

    @given(vtypes(2, T2), vtypes(2, T2), vtypes(2, T2))
    @settings(max_examples=60)
    def test_preorder_and_meet_laws(self, a, b, c):
        assert leq_v(a, a, T2)
        m = VInter(a, b)
        assert leq_v(m, a, T2) and leq_v(m, b, T2)
        if leq_v(c, a, T2) and leq_v(c, b, T2):
            assert leq_v(c, m, T2)
        if leq_v(a, b, T2) and leq_v(b, c, T2):
            assert leq_v(a, c, T2)


class TestEq:
    def test_mandatory_equalities(self):
        assert eq_v(V_OMEGA, ARROW_TOP)
        assert eq_c(
            parse_type("T Wv & T (Wv -> T Wv)"),
            CTf(parse_type("Wv & (Wv -> T Wv)")),
        )
        assert not eq_c(parse_type("T Wv"), C_OMEGA)


class TestEnumerate:
    def test_rank0_empty(self):
        vals, comps = enumerate_types(0, 2)
        assert vals == [TOP_V] and comps == [TOP_C]

    def test_rank1_width1_contains_arrow_class(self):
        vals, _ = enumerate_types(1, 1)
        assert any(eq_v(to_vtype(v), parse_type("Wv -> T Wv")) for v in vals)

    def test_rank2_empty_counts(self):
        vals, comps = enumerate_types(2, 2)
        assert len(vals) == 6 and len(comps) == 3

    def test_each_class_once(self):
        vals, _ = enumerate_types(2, 1, T1)
        for a, b in itertools.combinations(vals, 2):
            assert not eq_v(to_vtype(a), to_vtype(b), T1)
        vals, _ = enumerate_types(1, 2, T2)
        for a, b in itertools.combinations(vals, 2):
            assert not eq_v(to_vtype(a), to_vtype(b), T2)

    def test_closed_under_normalize(self):
        vals, comps = enumerate_types(2, 2)
        for v in vals:
            assert normalize_vtype(to_vtype(v)) == v
        for c in comps:
            assert normalize_ctype(to_ctype(c)) == c


class TestOracle:
    def test_omega_axiom_instances(self):
        assert brute_subtype_oracle(V_OMEGA, ARROW_TOP, 2) is True
        assert brute_subtype_oracle(ARROW_TOP, V_OMEGA, 2) is True

    def test_refutes_omega_below_t(self):
        assert brute_subtype_oracle(C_OMEGA, parse_type("T Wv")) is False

    def test_reflexivity(self):
        t = parse_type("(Wv -> T Wv) & @a")
        assert brute_subtype_oracle(t, t, 50, T1) is True

    @given(vtypes(3, T2), vtypes(3, T2))
    @settings(max_examples=150)
    def test_decider_agreement_values(self, a, b):
        want = brute_subtype_oracle(a, b, 200, T2)
        if want is not None:
            assert leq_v(a, b, T2) == want

    @given(ctypes(3, T2C), ctypes(3, T2C))
    @settings(max_examples=150)
    def test_decider_agreement_comps(self, a, b):
        want = brute_subtype_oracle(a, b, 200, T2C)
        if want is not None:
            assert leq_c(a, b, T2C) == want


class TestEtaModes:
    def test_scott_axiom_soundness_direction(self):
        table = AtomTable(("a",), eta_mode="scott", eta_depth=1)
        alpha = VAtom("a")
        unfolded = VArrow(V_OMEGA, CTf(alpha))
        assert leq_v(alpha, unfolded, table)
        assert leq_v(unfolded, alpha, table)

    def test_park_axiom_soundness_direction(self):
        table = AtomTable(("a",), eta_mode="park", eta_depth=1)
        alpha = VAtom("a")
        unfolded = VArrow(alpha, CTf(alpha))
        assert leq_v(alpha, unfolded, table)
        assert leq_v(unfolded, alpha, table)

    def test_plain_mode_keeps_atoms_opaque(self):
        alpha = VAtom("a")
        assert not leq_v(alpha, VArrow(V_OMEGA, CTf(alpha)), T1)

    def test_enumeration_guarded_in_eta_mode(self):
        table = AtomTable(("a",), eta_mode="scott")
        with pytest.raises(ValueError):
            enumerate_types(1, 1, table)


class TestTypeGrammar:
    @pytest.mark.parametrize(
        "src",
        ["Wv", "Wc", "@a", "T Wv", "Wv -> Wc", "(Wv -> T Wv) & @a", "T (@a & @b)"],
    )
    def test_round_trip(self, src):
        t = parse_type(src)
        assert print_type(parse_type(print_type(t))) == print_type(t)

    @given(st.one_of(vtypes(4), ctypes(4), vtypes(3, T2), ctypes(3, T2)))
    def test_printed_types_read_back_as_themselves(self, t):
        # '&' reads left-nested, so a right-nested intersection is printed
        # with its right operand bracketed
        assert parse_type(print_type(t)) is t

    def test_right_nested_intersections_are_bracketed(self):
        t = VInter(V_OMEGA, VInter(VAtom("a"), V_OMEGA))
        c = CInter(C_OMEGA, CInter(CTf(V_OMEGA), C_OMEGA))
        assert (print_type(t), print_type(c)) == ("Wv & (@a & Wv)", "Wc & (T Wv & Wc)")

    def test_sort_errors(self):
        from ubcalc.typesys import TypeSyntaxError

        with pytest.raises(TypeSyntaxError):
            parse_type("Wc -> Wc")
        with pytest.raises(TypeSyntaxError):
            parse_type("Wv & Wc")
        with pytest.raises(TypeSyntaxError):
            parse_type("T Wc")
