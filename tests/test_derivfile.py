"""The derivation file reader and writer against the ones they replaced.

``reference_derivfile.py`` is the module as it stood when the reader
tokenized the whole file and parsed every term and type slice on its
own, and the writer walked every type at every place it occurs.  On
every input the two readers must give equal derivations or the same
error (class, message, line and column), and the two writers the same
text up to brackets; a printed derivation reads back as itself.  The
inputs are the printed derivations of the checker-oracle corpus and
seeded word- and character-level mutants of printed files.
"""
import functools
import random
import re

import pytest

import reference_derivfile as reference
from conftest import distinct_nodes
from test_checker_oracle import _corpus

from ubcalc.derivfile import DerivationSyntaxError, parse_derivation, print_derivation
from ubcalc.terms import ParseError, TermSyntaxError, Variable
from ubcalc.typesys import TypeSyntaxError


def _outcome(parse, text):
    """What parse makes of text: ("ok", derivation) or its syntax error
    as (class, message, line, column)."""
    try:
        return "ok", parse(text)
    except ParseError as e:
        return type(e), e.message, e.line, e.column


def _agree(text):
    got, want = _outcome(parse_derivation, text), _outcome(reference.parse_derivation, text)
    assert got == want, text
    return got


def _unbracketed(text):
    return text.replace("(", "").replace(")", "")


@pytest.mark.parametrize("seed", [0, 7])
def test_corpus_prints_and_reads_as_before(seed):
    # the writer brackets a right operand of '&' that is an intersection,
    # where the old one printed text that reads back left-nested
    for d in _corpus(seed):
        text = print_derivation(d)
        assert _unbracketed(text) == _unbracketed(reference.print_derivation(d))
        assert _agree(text) == ("ok", d)


@functools.lru_cache(maxsize=None)
def _small_texts() -> tuple[str, ...]:
    """The printed sub-derivations of the corpus of at most 40 nodes
    (as trees), each once, shortest first."""
    sizes: dict[int, int] = {}

    def size(n) -> int:
        if id(n) not in sizes:
            sizes[id(n)] = 1 + sum(map(size, n.premises))
        return sizes[id(n)]

    nodes = [n for seed in (0, 7) for d in _corpus(seed) for n in distinct_nodes(d)]
    texts = {print_derivation(n) for n in nodes if size(n) <= 40}
    return tuple(sorted(texts, key=lambda t: (len(t), t)))


# Words that can stand for one another, as in test_cli's typecheck fuzz:
# replacing one keeps many files readable past the edit.
_WORDS = [
    ("Ax", "ArrowI", "UnitI", "ArrowE", "Omega", "InterI", "Leq", "rule"),
    ("Wv", "Wc", "@a", "T", "x", "y", "unit", "\\x.", "*", "@"),
    ("->", "&", "<=", "|-", ":", ",", "=", "|", "<"),
    ("(", ")", "premises", "side", "concl"),
]


def _mutant(rng: random.Random, text: str) -> str:
    """One to four word-level edits of text (put a word of the same
    group, drop a word, double a word) or a stray character; the
    whitespace between words is kept, or every run of it becomes one
    space as in test_cli's fuzz."""
    parts = re.findall(r"\s+|[()]|[^\s()]+", text)
    words = [i for i, p in enumerate(parts) if not p.isspace()]
    for _ in range(rng.randint(1, 4)):
        i = rng.choice(words)
        op = rng.choice(["put", "put", "put", "drop", "copy", "char"])
        if op == "put":
            group = next((g for g in _WORDS if parts[i] in g), rng.choice(_WORDS))
            parts[i] = rng.choice(group)
        elif op == "drop":
            parts[i] = ""
        elif op == "copy":
            parts[i] = f"{parts[i]} {parts[i]}"
        else:
            cut = rng.randint(0, len(parts[i]))
            parts[i] = parts[i][:cut] + rng.choice("=|<-:,()$\n") + parts[i][cut:]
    out = "".join(parts)
    return " ".join(out.split()) if rng.random() < 0.3 else out


def test_mutants_read_as_before():
    rng = random.Random(18)
    texts = _small_texts()
    kinds = set()
    for _ in range(2000):
        got = _agree(_mutant(rng, rng.choice(texts)))
        kinds.add(got[0])
    # the mutants reach the reader's own errors, both slice grammars' and
    # files that still read
    assert kinds == {"ok", DerivationSyntaxError, TermSyntaxError, TypeSyntaxError}


# ------------------------------------------------------------ pinned paths


@pytest.mark.parametrize("bad", ["=", "|", "<", "| -", "< ="])
def test_a_bad_character_inside_a_term_is_the_readers_error(bad):
    # the file's alphabet is checked before any slice reaches the term
    # grammar, which would raise its own TermSyntaxError for these
    text = f"(rule Ax\n  (concl x: Wv |- x {bad} y : Wv))"
    assert _agree(text) == (DerivationSyntaxError, f"unexpected character {bad[0]!r}", 2, 21)


@pytest.mark.parametrize(
    "text",
    [
        "(rule Ax (concl x: (Wv",
        "(rule Ax (concl x: Wv |- x : (Wv -> T Wv",
        "(rule UnitI (concl |- unit (\\x. unit x\n",
        "(rule Leq (concl |- unit x : T Wv) (side (T Wv <= Wc",
    ],
)
def test_an_unclosed_paren_is_an_end_of_input_error_at_the_end(text):
    got = _agree(text)
    line, column = text.count("\n") + 1, len(text) - text.rfind("\n")
    assert got == (DerivationSyntaxError, "unexpected end of input", line, column)


def test_a_type_error_deep_in_a_long_file_points_into_the_file():
    # the first corpus derivation of at least 100 nodes, its last
    # conclusion type broken: the reader reaches it after every other node
    text = next(t for t in map(print_derivation, _corpus(0)) if t.count("(rule ") >= 100)
    lines = text.split("\n")
    at = max(i for i, line in enumerate(lines) if " : " in line)
    col = lines[at].rindex(" : ") + 3
    lines[at] = lines[at][:col] + "-> " + lines[at][col:]
    got = _agree("\n".join(lines))
    assert got == (TypeSyntaxError, "unexpected token '->'", at + 1, col + 1)
    assert at + 1 >= 200


@pytest.mark.parametrize("text", ["(rule Ax (concl |- x : Wv)\n", "(rule Ax (concl |- x : Wv) \n  ", "(rule Ax\n\n"])
def test_a_file_cut_short_fails_at_its_very_end(text):
    # the end of input lies after any trailing whitespace
    got = _agree(text)
    assert got[0] is DerivationSyntaxError and got[2:] == (text.count("\n") + 1, len(text) - text.rfind("\n"))


def test_one_text_read_by_both_grammars_gives_each_its_own_reading():
    # "Wv" is a variable as a term and the top value type as a type
    got = _agree("(rule Ax (concl Wv: Wv |- Wv : Wv))")
    assert got[0] == "ok" and got[1].conclusion.subject == Variable("Wv")
