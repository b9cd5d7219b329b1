import random

import pytest
from hypothesis import given

import reference_derivfile as reference
from conftest import CLOSED_COMPS, OPEN_COMPS

from ubcalc.derivfile import DerivationSyntaxError, parse_derivation
from ubcalc.harness import GenConfig, _gen_ctype, _gen_vtype, gen_mterm, gen_term
from ubcalc.moggi import MSyntaxError, _MParser, m_parse, m_print
from ubcalc.terms import (
    Bind,
    Lambda,
    ParseError,
    SortError,
    TermSyntaxError,
    Unit,
    _Parser,
    Variable,
    alpha_eq,
    desugar_app,
    fresh_var,
    omega_c,
    parse_term,
    print_term,
    subst,
    term_size,
    unshadow,
)
from ubcalc.typesys import EMPTY_TABLE, AtomTable, TypeSyntaxError, _TypeParser, parse_type, print_type

OMEGA_SRC = "unit (\\x. unit x * x) * (\\x. unit x * x)"


def debruijn_oracle(t, env=()):
    """Independent de Bruijn conversion used to cross-check alpha_eq."""
    match t:
        case Variable(name):
            return env.index(name) if name in env else ("free", name)
        case Lambda(binder, body):
            return ("lam", debruijn_oracle(body, (binder,) + env))
        case Unit(v):
            return ("unit", debruijn_oracle(v, env))
        case Bind(l, r):
            return ("bind", debruijn_oracle(l, env), debruijn_oracle(r, env))


def alpha_oracle(a, b):
    return debruijn_oracle(a) == debruijn_oracle(b)


class TestParsePrint:
    def test_unit_var(self):
        assert parse_term("unit x") == Unit(Variable("x"))

    def test_omega(self):
        assert alpha_eq(parse_term(OMEGA_SRC), omega_c())
        assert print_term(omega_c()) == OMEGA_SRC

    def test_lambda_body_extends_right(self):
        assert parse_term("\\x. unit x * y") == Lambda(
            "x", Bind(Unit(Variable("x")), Variable("y"))
        )

    def test_star_left_associative(self):
        t = parse_term("unit x * y * z")
        assert t == Bind(Bind(Unit(Variable("x")), Variable("y")), Variable("z"))

    def test_unicode_aliases(self):
        assert parse_term("λx. unit x ⋆ y") == parse_term("\\x. unit x * y")

    def test_print_simple_lambda(self):
        assert print_term(Lambda("x", Unit(Variable("x")))) == "\\x. unit x"

    def test_syntax_error_carries_position(self):
        with pytest.raises(TermSyntaxError) as err:
            parse_term("unit ?")
        assert err.value.line == 1

    def test_syntax_error_carries_line_and_column(self):
        with pytest.raises(TermSyntaxError) as err:
            parse_term("unit x\n  * $")
        assert (err.value.line, err.value.column) == (2, 5)
        assert str(err.value).startswith("2:5: unexpected character '$'")

    def test_sort_error_unit_of_comp(self):
        with pytest.raises(TermSyntaxError, match="sort error"):
            parse_term("(unit x) * (unit y)")

    @given(CLOSED_COMPS)
    def test_round_trip_closed(self, t):
        assert alpha_eq(parse_term(print_term(t)), t)

    @given(OPEN_COMPS)
    def test_round_trip_open(self, t):
        assert alpha_eq(parse_term(print_term(t)), t)


class TestFreeVars:
    def test_identity_lambda_closed(self):
        assert Lambda("x", Unit(Variable("x"))).fv == frozenset()

    def test_bind_collects_both_sides(self):
        assert Bind(Unit(Variable("x")), Variable("y")).fv == {"x", "y"}

    def test_omega_closed(self):
        assert omega_c().fv == frozenset()


class TestSubst:
    def test_subst_to_omega(self):
        body = Bind(Unit(Variable("x")), Variable("x"))
        w = Lambda("x", Bind(Unit(Variable("x")), Variable("x")))
        assert alpha_eq(subst(body, "x", w), omega_c())

    def test_not_free_is_noop(self):
        t = Unit(Variable("y"))
        assert subst(t, "x", Lambda("z", Unit(Variable("z")))) == t

    def test_capture_avoided(self):
        # substituting y under a binder named y must rename the binder
        t = Lambda("y", Bind(Unit(Variable("x")), Variable("y")))
        got = subst(t, "x", Variable("y"))
        want = Lambda("q", Bind(Unit(Variable("y")), Variable("q")))
        assert alpha_oracle(got, want)

    @given(OPEN_COMPS, OPEN_COMPS, CLOSED_COMPS)
    def test_substitution_composition(self, m, mv, mw):
        v = Lambda("v0", mv)
        w = Lambda("w0", mw)
        # x /= y and x not free in w
        lhs = subst(subst(m, "u", v), "w", w)
        rhs = subst(subst(m, "w", w), "u", subst(v, "w", w))
        assert alpha_eq(lhs, rhs)

    @given(OPEN_COMPS, CLOSED_COMPS)
    def test_free_vars_shrink(self, m, mv):
        v = Lambda("v0", mv)
        got = subst(m, "u", v).fv
        assert got <= (m.fv - {"u"}) | v.fv


class TestAlphaEq:
    def test_basic(self):
        assert alpha_eq(Lambda("x", Unit(Variable("x"))), Lambda("y", Unit(Variable("y"))))

    def test_free_vs_bound(self):
        assert not alpha_eq(Lambda("x", Unit(Variable("y"))), Lambda("y", Unit(Variable("y"))))

    def test_bound_renaming_right_of_bind(self):
        m = Unit(Variable("m"))
        n = Bind(Unit(Variable("z")), Variable("q"))
        t1 = Bind(m, Lambda("y", n))
        t2 = Bind(m, Lambda("x", subst(n, "z", Variable("z"))))
        assert alpha_eq(t1, Bind(m, Lambda("y", n)))
        assert alpha_eq(t1, t2) == alpha_oracle(t1, t2)

    def test_sort_mismatch_rejected(self):
        with pytest.raises(SortError):
            alpha_eq(Unit(Variable("x")), Variable("x"))

    @given(CLOSED_COMPS, CLOSED_COMPS)
    def test_agrees_with_oracle(self, a, b):
        assert alpha_eq(a, b) == alpha_oracle(a, b)

    @given(CLOSED_COMPS)
    def test_reflexive(self, a):
        assert alpha_eq(a, a)

    @given(CLOSED_COMPS, CLOSED_COMPS, CLOSED_COMPS)
    def test_equivalence_laws(self, a, b, c):
        assert alpha_eq(a, b) == alpha_eq(b, a)
        if alpha_eq(a, b) and alpha_eq(b, c):
            assert alpha_eq(a, c)


class TestFreshAndSugar:
    @pytest.mark.parametrize(
        "avoid,expect",
        [({"x"}, "x0"), (set(), "x0"), ({"x0", "x1"}, "x2")],
    )
    def test_fresh_counter(self, avoid, expect):
        assert fresh_var(avoid) == expect

    def test_desugar_app(self):
        got = desugar_app(Unit(Variable("f")), Unit(Variable("a")))
        want = parse_term("unit f * (\\z. unit a * z)")
        assert alpha_eq(got, want)

    def test_desugar_avoids_capture(self):
        n = Unit(Variable("x0"))
        got = desugar_app(Unit(Variable("f")), n)
        assert got.right.binder != "x0"

    def test_at_sugar_parses(self):
        assert alpha_eq(
            parse_term("unit f @ unit a"),
            desugar_app(Unit(Variable("f")), Unit(Variable("a"))),
        )

    @given(OPEN_COMPS)
    def test_unshadow_alpha_equal(self, m):
        assert alpha_eq(unshadow(m), m)
        assert term_size(unshadow(m)) == term_size(m)


@pytest.mark.parametrize(
    "parse, error, text",
    [
        (parse_term, TermSyntaxError, "unit x * $"),
        (parse_type, TypeSyntaxError, "Wv -> T $"),
        (m_parse, MSyntaxError, "let x = y in $"),
        (parse_derivation, DerivationSyntaxError, "(rule Ax (concl |- x = y : Wv))"),
        # a grammar error stands before the bad character
        (parse_term, TermSyntaxError, "unit ) $"),
        (parse_type, TypeSyntaxError, "Wv -> -> $"),
        (m_parse, MSyntaxError, "let in $"),
        (parse_derivation, DerivationSyntaxError, "(rule Foo (concl |- x = y : Wv))"),
        (parse_derivation, DerivationSyntaxError, "(rule Ax (concl x: Wv -> |- x : Wv) (side Wv < Wv))"),
    ],
)
def test_bad_character_raises_the_grammars_own_error(parse, error, text):
    # the one token cursor serves all four grammars, each with its own
    # class; a character that starts no token is the error wherever it
    # stands, as when the whole text was tokenized first.  In each text
    # that character is its last '$', '=' or '<'.
    with pytest.raises(ParseError) as err:
        parse(text)
    assert type(err.value) is error
    at = max(text.rfind(c) for c in "$=<")
    got = (err.value.message, err.value.line, err.value.column)
    assert got == (f"unexpected character {text[at]!r}", 1, at + 1)


def _outcome(parser, text):
    """What parser makes of text: ("ok", value) or its syntax error as
    (class, message, line, column)."""
    try:
        return "ok", parser(text).parse_all()
    except ParseError as e:
        return type(e), e.message, e.line, e.column


def _char_mutant(rng, text):
    """text with one to three characters put in, dropped or replaced,
    from the tokens of the three grammars and characters none of them
    knows."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        op = rng.choice(["put", "drop", "swap"])
        c = rng.choice("\\.*@()xyunit&->TWvc=let$|< \n")
        if op == "put":
            chars.insert(i, c)
        elif i < len(chars):
            chars[i : i + 1] = [] if op == "drop" else [c]
    return "".join(chars)


def test_mutants_parse_as_through_the_eager_cursor():
    # the term, type and let-term parsers against their own rules read
    # through the eager cursor they had, on printed texts and mutants
    rng = random.Random(19)
    sources = [
        (_Parser, [print_term(gen_term(GenConfig(seed=s, max_size=12, closed=s % 2 == 0), i)) for s in range(2) for i in range(30)]),
        (_TypeParser, [print_type(gen(rng, 3, table)) for gen in (_gen_vtype, _gen_ctype) for table in (EMPTY_TABLE, AtomTable(("a", "b"))) for _ in range(15)]),
        (_MParser, [m_print(gen_mterm(GenConfig(seed=s, max_size=12), i)) for s in range(2) for i in range(30)]),
    ]
    for parser, texts in sources:
        old = reference.frozen(parser)
        kinds = set()
        for _ in range(1500):
            text = _char_mutant(rng, rng.choice(texts))
            got = _outcome(parser, text)
            assert got == _outcome(old, text), text
            kinds.add(got[0] if got[0] == "ok" else got[1].split(" ")[0])
        assert {"ok", "unexpected", "expected"} <= kinds, parser


@pytest.mark.parametrize(
    "second_line, error, where",
    [
        ("  (concl x: Wv |- unit unit : T Wv))", TermSyntaxError, (2, 24)),
        ("  (concl x: Wv |- unit x : T Wv ->))", TypeSyntaxError, (2, 35)),
    ],
)
def test_derivation_file_errors_point_into_the_file(second_line, error, where):
    # terms and types are parsed from slices of the file; their errors
    # still give the file's line and column
    with pytest.raises(error) as err:
        parse_derivation("(rule UnitI\n" + second_line)
    assert (err.value.line, err.value.column) == where
