import contextlib
import functools
import io
import json
import re

import pytest
from hypothesis import given, strategies as st

from ubcalc import filters
from ubcalc.cli import _dot_order, main
from ubcalc.terms import parse_term
from ubcalc.typesys import EMPTY_TABLE, AtomTable, leq_canon_v, print_type, to_ctype, to_vtype

OMEGA = "unit (\\x. unit x * x) * (\\x. unit x * x)"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fmt_round_trips(capsys):
    code, out, _ = run(capsys, "fmt", OMEGA)
    assert code == 0 and out.strip() == OMEGA


def test_reduce_omega_fuel_exhausted(capsys):
    code, out, _ = run(capsys, "reduce", "--fuel", "20", OMEGA)
    assert code == 3
    assert "fuel-exhausted" in out
    # the trace loops on the same redex
    assert out.count("betac@root") == 20


def test_reduce_json_stable(capsys):
    code1, out1, _ = run(capsys, "reduce", "--fuel", "5", "--json", OMEGA)
    code2, out2, _ = run(capsys, "reduce", "--fuel", "5", "--json", OMEGA)
    assert out1 == out2
    data = json.loads(out1)
    assert data["normal_form"] is False
    assert all(set(r) == {"rule", "path", "term"} for r in data["trace"])


def test_eval_converges(capsys):
    code, out, _ = run(capsys, "eval", "unit (\\z. unit z) * (\\x. unit x)")
    assert code == 0 and out.strip() == "converges: \\z. unit z"


def test_eval_fuel_exhausted(capsys):
    code, out, _ = run(capsys, "eval", "--fuel", "10", OMEGA)
    assert code == 3 and "fuel-exhausted" in out


def test_subtype_true_false(capsys):
    code, out, _ = run(capsys, "subtype", "Wv", "<=", "Wv -> Wc")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "subtype", "Wc", "<=", "T Wv")
    assert code == 1 and out.strip() == "false"


def test_subtype_sort_mismatch(capsys):
    code, _, err = run(capsys, "subtype", "Wv", "<=", "Wc")
    assert code == 2


def test_translate_to_moggi(capsys):
    code, out, _ = run(capsys, "translate", "--to-moggi", "unit m * v")
    assert code == 0 and out.strip() == "let x0 = m in v x0"


def test_translate_from_moggi(capsys):
    code, out, _ = run(capsys, "translate", "--from-moggi", "let x = m in v x")
    assert code == 0


def test_let_term_arguments_can_be_files(tmp_path, capsys):
    path = tmp_path / "let.txt"
    path.write_text("let x = m in v x")
    code, out, _ = run(capsys, "fmt", "--moggi", str(path))
    assert code == 0 and out.strip() == "let x = m in v x"
    code, out, _ = run(capsys, "translate", "--from-moggi", str(path))
    assert code == 0 and out.strip() == "unit m * (\\x. unit x * v)"


def test_infer_identity(capsys):
    code, out, _ = run(capsys, "infer", "--rank", "2", "--width", "2", "unit (\\x. unit x)")
    assert code == 0
    assert "T Wv" in out.splitlines()


def test_interp_term(capsys):
    code, out, _ = run(capsys, "interp", "--rank", "2", "unit (\\x. unit x)")
    assert code == 0 and out.strip() == "T (Wv -> T Wv)"


def test_interp_table_dot(capsys):
    code, out, _ = run(capsys, "interp", "--rank", "1", "--table")
    assert code == 0 and out.startswith("digraph")


def _ref_dot_order(dom: filters.RankDomain) -> str:
    """cli._dot_order as it stood before covers came from up-set bitmasks:
    a cubic search for covering edges.  Kept as the differential oracle."""
    names = {v: print_type(to_vtype(v)) for v in dom.values}
    lines = ["digraph order {", '  rankdir="BT";']
    for v in dom.values:
        lines.append(f'  "{names[v]}";')
    for a in dom.values:
        for b in dom.values:
            if a == b or not leq_canon_v(a, b, dom.table):
                continue
            # covering edges only
            if any(
                c not in (a, b)
                and leq_canon_v(a, c, dom.table)
                and leq_canon_v(c, b, dom.table)
                for c in dom.values
            ):
                continue
            lines.append(f'  "{names[a]}" -> "{names[b]}";')
    lines.append("}")
    return "\n".join(lines)


@pytest.mark.parametrize(
    "rank, table",
    [(0, EMPTY_TABLE), (1, EMPTY_TABLE), (2, EMPTY_TABLE), (0, AtomTable(("a",))), (1, AtomTable(("a",)))],
    ids=["rank0", "rank1", "rank2", "rank0-atom", "rank1-atom"],
)
def test_dot_order_matches_the_cubic_reference(rank, table):
    dom = filters.build_domain(rank, table)
    assert _dot_order(dom) == _ref_dot_order(dom)


def test_typecheck_file(tmp_path, capsys):
    from ubcalc.assignment import synth_derivation
    from ubcalc.derivfile import print_derivation
    from ubcalc.terms import parse_term
    from ubcalc.typesys import enumerate_types, parse_type

    uvals, _ = enumerate_types(2, 2)
    d = synth_derivation((), parse_term("unit (\\x. unit x)"), parse_type("T Wv"), uvals)
    path = tmp_path / "deriv.txt"
    path.write_text(print_derivation(d))
    code, out, _ = run(capsys, "typecheck", str(path))
    assert code == 0 and out.strip() == "valid"


def test_typecheck_invalid_file(tmp_path, capsys):
    path = tmp_path / "deriv.txt"
    path.write_text("(rule Omega (concl |- unit x : T Wv))")
    code, out, _ = run(capsys, "typecheck", str(path))
    assert code == 1 and "invalid" in out


def test_typecheck_leq_witness_of_mixed_sorts(tmp_path, capsys):
    path = tmp_path / "deriv.txt"
    path.write_text(
        "(rule Leq (concl |- \\x. unit x : Wv)\n"
        "  (premises (rule Omega (concl |- \\x. unit x : Wc)))\n"
        "  (side Wc <= Wv))"
    )
    code, out, err = run(capsys, "typecheck", str(path))
    assert code == 1 and out.splitlines()[0] == "invalid" and err == ""
    assert "  at root: Leq witness relates types of different sorts" in out


@functools.cache
def _printed_derivations() -> list[str]:
    from ubcalc.assignment import make_basis, synth_derivation
    from ubcalc.derivfile import print_derivation
    from ubcalc.terms import parse_term
    from ubcalc.typesys import enumerate_types, parse_type

    uvals, _ = enumerate_types(2, 2)
    cases = [
        ([], "unit (\\x. unit x)"),
        ([], "unit (\\x. unit x) * (\\y. unit y)"),
        ([("x", parse_type("(Wv -> T Wv) & Wv"))], "unit x"),
    ]
    return [
        print_derivation(synth_derivation(make_basis(basis), parse_term(m), parse_type("T Wv"), uvals))
        for basis, m in cases
    ]


# Words that can stand for one another: replacing one keeps most files
# readable, so the checker sees them, not only the reader.
_FUZZ_WORDS = [
    ("Ax", "ArrowI", "UnitI", "ArrowE", "Omega", "InterI", "Leq"),
    ("Wv", "Wc", "@a", "T"),
    ("x", "y", "z"),
    ("->", "&", "<=", "|-", ":", ","),
    ("(", ")", "premises", "side"),
]


@given(
    st.integers(0, 2),
    st.lists(
        st.tuples(
            st.sampled_from(["put", "put", "put", "drop", "copy"]),  # puts most often: they keep files readable
            st.integers(0, 10**6),
            st.sampled_from(_FUZZ_WORDS),
            st.integers(0, 6),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_typecheck_fuzz_never_raises(tmp_path_factory, which, edits):
    """Edits of printed derivations, word by word: typecheck answers with
    an exit code, never with an exception."""
    tokens = re.findall(r"[()]|[^\s()]+", _printed_derivations()[which])
    for op, at, words, pick in edits:
        if op == "put":
            spots = [i for i, tok in enumerate(tokens) if tok in words] or [0]
            tokens[spots[at % len(spots)]] = words[pick % len(words)]
        else:
            i = at % len(tokens)
            tokens[i : i + 1] = [] if op == "drop" else [tokens[i], tokens[i]]
    path = tmp_path_factory.mktemp("fuzz") / "deriv.txt"
    path.write_text(" ".join(tokens))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["typecheck", str(path)]) in (0, 1, 2)


# Each subcommand that reads a text, with a text it accepts, word by
# word, and the words of its grammar.
_TERM = ("unit ( \\ x . unit x ) * ( \\ y . unit y * y )", ("unit", "*", "\\", ".", "(", ")", "@", "x", "y"))
_LET = ("let x = ( \\ y . y ) in x x", ("let", "in", "=", "\\", ".", "(", ")", "x", "y"))
_TYPE_WORDS = ("Wv", "Wc", "T", "@a", "->", "&", "(", ")")
_TEXT_COMMANDS = {
    "fmt": (["fmt"], _TERM),
    "fmt --moggi": (["fmt", "--moggi"], _LET),
    "reduce": (["reduce"], _TERM),
    "eval": (["eval"], _TERM),
    "infer": (["infer"], _TERM),
    "interp --rank 1": (["interp", "--rank", "1"], _TERM),
    "subtype": (["subtype"], ("( Wv -> T Wv ) & Wv", _TYPE_WORDS), "<=", ("Wv -> Wc", _TYPE_WORDS)),
    "translate --to-moggi": (["translate", "--to-moggi"], _TERM),
    "translate --from-moggi": (["translate", "--from-moggi"], _LET),
}

_WORD_EDITS = st.lists(
    st.tuples(st.sampled_from(["put", "put", "drop", "copy"]), st.integers(0, 10**6), st.integers(0, 10**6)),
    max_size=4,
)


def _edited(text, words, edits):
    """text after each edit of one of its words: put a grammar word in its
    place, drop it, or copy it."""
    tokens = text.split()
    for op, at, pick in edits:
        i = at % (len(tokens) or 1)
        if op == "put":
            tokens[i : i + 1] = [words[pick % len(words)]]
        else:
            tokens[i : i + 1] = [] if op == "drop" else tokens[i : i + 1] * 2
    return " ".join(tokens)


@pytest.mark.parametrize("command", sorted(_TEXT_COMMANDS))
@given(st.lists(_WORD_EDITS, min_size=2, max_size=2))
def test_text_commands_fuzz_never_raise(command, edits):
    """Edits of accepted texts, word by word, with words of each grammar:
    every subcommand that reads a text answers with a documented exit
    code, never with a traceback."""
    head, *parts = _TEXT_COMMANDS[command]
    edit = iter(edits)
    argv = head + [part if isinstance(part, str) else _edited(*part, next(edit)) for part in parts]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3) and "Traceback" not in err.getvalue(), argv


@pytest.mark.parametrize(
    "text, where",
    [
        ("(rule Ax (concl x: Wv, x: Wv -> T Wv |- x : Wv -> T Wv))", "1:24: x is bound twice"),
        ("(rule Omega\n  (concl x: T Wv |- unit x : Wc))", "2:13: x is bound to a computation type"),
    ],
)
def test_typecheck_rejects_a_basis_that_is_not_a_value_map(tmp_path, capsys, text, where):
    path = tmp_path / "deriv.txt"
    path.write_text(text)
    err = _usage_error(capsys, "typecheck", str(path))
    assert err.count("\n") == 1 and f"DerivationSyntaxError: {where}" in err


def test_prop_json(capsys):
    code, out, _ = run(capsys, "prop", "critical-pairs", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == [] and data["cases"] == 4


def test_prop_seeded_stability(capsys):
    args = ("prop", "confluence", "--seed", "3", "--cases", "10", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_atoms_file(tmp_path, capsys):
    spec = tmp_path / "atoms.json"
    spec.write_text(json.dumps({"atoms": ["a", "b"], "order": [["a", "b"]]}))
    code, out, _ = run(capsys, "subtype", "--atoms", str(spec), "@a", "<=", "@b")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "subtype", "--atoms", str(spec), "@b", "<=", "@a")
    assert code == 1


def test_eta_flag(tmp_path, capsys):
    spec = tmp_path / "atoms.json"
    spec.write_text(json.dumps({"atoms": ["a"]}))
    code, out, _ = run(
        capsys, "subtype", "--atoms", str(spec), "--eta", "scott", "@a", "<=", "Wv -> T @a"
    )
    assert code == 0 and out.strip() == "true"
    # under --eta, --rank is the unfolding depth, and 0 unfolds nothing
    code, out, _ = run(
        capsys, "subtype", "--atoms", str(spec), "--eta", "scott", "--rank", "0", "@a", "<=", "Wv -> T @a"
    )
    assert code == 1 and out.strip() == "false"
    # --eta-depth sets the unfolding depth apart from --rank
    for rank, depth, verdict in (("2", "0", "false"), ("0", "1", "true")):
        code, out, _ = run(
            capsys, "subtype", "--atoms", str(spec), "--eta", "scott", "--rank", rank, "--eta-depth", depth,
            "@a", "<=", "Wv -> T @a",
        )
        assert out.strip() == verdict


def test_interp_at_an_eta_depth_apart_from_the_rank(tmp_path, capsys):
    spec = tmp_path / "atoms.json"
    spec.write_text(json.dumps({"atoms": ["a"]}))
    term = "unit (\\x. unit x)"
    argv = ("interp", "--atoms", str(spec), "--eta", "scott", "--rank", "2")
    code, out, _ = run(capsys, *argv, "--eta-depth", "1", term)
    table = AtomTable(("a",), eta_mode="scott", eta_depth=1)
    assert code == 0 and out == print_type(to_ctype(filters.interp_closed(parse_term(term), 2, table).gen)) + "\n"
    # without --eta-depth the depth is the rank, as before the flag
    _, default, _ = run(capsys, *argv, term)
    table = AtomTable(("a",), eta_mode="scott", eta_depth=2)
    assert default == print_type(to_ctype(filters.interp_closed(parse_term(term), 2, table).gen)) + "\n"


def test_usage_error(capsys):
    assert main(["reduce"]) == 2


def _usage_error(capsys, *argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    return err


def test_fmt_incomplete_term_is_usage_error(capsys):
    _usage_error(capsys, "fmt", "unit")


def test_fmt_unclosed_paren_is_usage_error(capsys):
    _usage_error(capsys, "fmt", "unit (\\x. x")


def test_subtype_unknown_atom_is_usage_error(capsys):
    err = _usage_error(capsys, "subtype", "Wv", "<=", "@a")
    assert "UnknownAtomError" in err


def test_interp_open_term_is_usage_error(capsys):
    err = _usage_error(capsys, "interp", "--rank", "1", "unit x")
    assert "OpenVariableError" in err


def test_fmt_reports_the_files_own_parse_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad_term.txt").write_text("unit (\\x. unit x")
    err = _usage_error(capsys, "fmt", "bad_term.txt")
    assert "TermSyntaxError" in err and "trailing input '.'" not in err
    # text that names no file is still read as a term
    code, out, _ = run(capsys, "fmt", "unit (\\x. unit x)")
    assert code == 0 and out.strip() == "unit (\\x. unit x)"


def test_typecheck_missing_file_is_usage_error(capsys, tmp_path):
    err = _usage_error(capsys, "typecheck", str(tmp_path / "missing.txt"))
    assert "FileNotFoundError" in err


def test_subtype_missing_atoms_file_is_usage_error(capsys, tmp_path):
    err = _usage_error(capsys, "subtype", "--atoms", str(tmp_path / "missing.json"), "Wv", "<=", "Wv")
    assert "FileNotFoundError" in err


def test_subtype_malformed_atoms_file_is_usage_error(capsys, tmp_path):
    spec = tmp_path / "atoms.json"
    for text in ("{\"atoms\": [", "[\"a\"]", "{\"atoms\": [\"a\"], \"order\": [[\"a\"]]}"):
        spec.write_text(text)
        err = _usage_error(capsys, "subtype", "--atoms", str(spec), "Wv", "<=", "Wv")
        assert "AtomSpecError" in err and err.count("\n") == 1


def test_subtype_undeclared_order_atom_is_usage_error(capsys, tmp_path):
    spec = tmp_path / "atoms.json"
    spec.write_text('{"atoms": ["a"], "order": [["a", "z"]]}')
    err = _usage_error(capsys, "subtype", "--atoms", str(spec), "@a", "<=", "@a")
    assert "AtomSpecError" in err and "undeclared atoms: z" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,message",
    [
        (("reduce", "\\x. unit x"), "SortError: reduce expects a computation"),
        (("eval", "\\x. unit x"), "SortError: eval expects a computation"),
        (("eval", "unit x * (\\y. unit y)"), "OpenVariableError: eval expects a closed computation"),
        (("interp", "\\x. unit x"), "SortError: interp expects a computation"),
        (("subtype", "Wv", "<=", "Wc"), "SortError: types of different sorts"),
        (("translate", "unit m"), "UsageError: choose --to-moggi or --from-moggi"),
        (
            ("translate", "--from-moggi", "--to-moggi", "let x = m in v x"),
            "UsageError: choose --to-moggi or --from-moggi",
        ),
    ],
)
def test_command_usage_errors_print_one_error_line(capsys, argv, message):
    err = _usage_error(capsys, *argv)
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("infer", "unit (\\x. unit x)"),
        ("prop", "subject-expansion", "--cases", "1"),
    ],
)
def test_enumeration_over_eta_atoms_is_usage_error(tmp_path, capsys, argv):
    spec = tmp_path / "atoms.json"
    spec.write_text('{"atoms": ["a"]}')
    err = _usage_error(capsys, *argv, "--atoms", str(spec), "--eta", "scott")
    assert err == "error: EnumerationError: enumeration over eta-equated atoms is not supported\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "unit (\\x. unit x)", "--json"),
        ("subtype", "Wv", "<=", "Wv", "--json"),
        ("interp", "unit (\\x. unit x)", "--json"),
        ("translate", "--to-moggi", "unit m", "--json"),
        ("subtype", "Wv", "<=", "Wv", "--width", "1"),
        ("interp", "unit (\\x. unit x)", "--width", "1"),
    ],
)
def test_flags_a_command_does_not_read_are_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("infer", "--rank", "-1", "\\x. unit x"),
        ("infer", "--width", "-1", "\\x. unit x"),
        ("interp", "--rank", "-1", "unit (\\x. unit x)"),
        ("reduce", "--fuel", "-5", OMEGA),
        ("eval", "--fuel", "-1", OMEGA),
        ("prop", "confluence", "--cases", "-1"),
        ("prop", "confluence", "--max-size", "-1"),
    ],
)
def test_negative_bound_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "usage:" in err and "must be non-negative" in err and "Traceback" not in err


def test_zero_bounds_are_allowed(capsys):
    assert run(capsys, "reduce", "--fuel", "0", "unit (\\x. unit x)")[0] == 0
    assert run(capsys, "prop", "confluence", "--cases", "0", "--max-size", "0")[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("interp", "--rank", "5", "unit (\\x. unit x)"),
        ("interp", "--rank", "5", "--table"),
    ],
)
def test_lattice_over_size_budget_is_inconclusive(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: DomainSizeError:") and err.count("\n") == 1 and "Traceback" not in err


def test_unknown_rule_is_usage_error(capsys):
    code, out, err = run(capsys, "reduce", "--rules", "foo", "unit (\\x. unit x)")
    assert code == 2 and out == ""
    assert "unknown rule 'foo'" in err and "Traceback" not in err


def _deep_chain(tmp_path) -> str:
    stages = "".join(f" * (\\a{i}. unit a{i})" for i in range(1200))
    path = tmp_path / "chain.txt"
    path.write_text("unit (\\z. unit z)" + stages)
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ("fmt",),
        ("reduce", "--fuel", "5"),
        ("infer",),
        ("interp", "--rank", "1"),
    ],
)
def test_deeply_nested_term_is_usage_error(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, _deep_chain(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: term nests too deeply") and err.count("\n") == 1
    assert "Traceback" not in err


def test_bad_character_behind_the_recursion_limit_is_reported(capsys):
    nested = "unit " + "(" * 3000 + "x" + ")" * 3000
    code, out, err = run(capsys, "fmt", nested + " $")
    assert code == 2 and out == ""
    assert err == "error: TermSyntaxError: 1:6008: unexpected character '$'\n"
    code, out, err = run(capsys, "fmt", nested)
    assert code == 2 and err.startswith("error: term nests too deeply")


def test_deep_chain_evaluates_past_the_recursion_limit(tmp_path, capsys):
    code, out, err = run(capsys, "eval", "--fuel", "5000", _deep_chain(tmp_path))
    assert (code, out, err) == (0, "converges: \\z. unit z\n", "")


def test_deep_chain_eval_runs_out_of_fuel_before_the_recursion_limit(tmp_path, capsys):
    code, out, err = run(capsys, "eval", _deep_chain(tmp_path))
    assert code == 3 and out == "fuel-exhausted after 200\n"
    assert err == ""
