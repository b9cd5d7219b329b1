import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ubcalc import harness, moggi
from ubcalc.harness import (
    GenConfig,
    SUITES,
    critical_pair_diagrams,
    derive_convergent_typing,
    gen_terms,
    gen_typed_term,
    run_suite,
    shrink_term,
)
from ubcalc.assignment import check_derivation
from ubcalc.convergence import Status, big_step
from ubcalc.reduction import ALL_RULES, Rule, enumerate_steps, joinable, root_step
from ubcalc.terms import Bind, alpha_eq, is_comp, omega_c, parse_term, print_term, subterm_at, term_size
from ubcalc.typesys import eq_c, parse_type


class TestGenerators:
    def test_deterministic(self):
        cfg = GenConfig(seed=42, cases=10)
        a = list(gen_terms(cfg))
        b = list(gen_terms(cfg))
        assert a == b

    def test_closed_and_sized(self):
        cfg = GenConfig(seed=1, max_size=18, cases=50)
        for t in gen_terms(cfg):
            assert is_comp(t)
            assert not t.fv
            assert term_size(t) <= 3 * cfg.max_size

    def test_open_mode_emits_free_vars(self):
        cfg = GenConfig(seed=3, closed=False, cases=60)
        assert any(t.fv for t in gen_terms(cfg))

    def test_typed_terms_validate(self):
        cfg = GenConfig(seed=7, max_size=12, cases=5)
        for i in range(5):
            m, d = gen_typed_term(cfg, i)
            assert check_derivation(d).valid
            assert alpha_eq(d.conclusion.subject, m)


class TestShrink:
    def test_shrinks_preserving_predicate(self):
        cfg = GenConfig(seed=11, max_size=22, cases=40)
        big = next(t for t in gen_terms(cfg) if isinstance(t, Bind) and term_size(t) > 10)
        small = shrink_term(big, lambda t: isinstance(t, Bind))
        assert isinstance(small, Bind)
        assert term_size(small) <= term_size(big)

    def test_closed_counterexample_shrinks_to_a_closed_term(self):
        small = shrink_term(parse_term(r"unit (\x. unit x) * (\y. unit y)"), lambda m: True)
        assert not small.fv


class TestSuites:
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_runs_clean(self, name):
        cfg = GenConfig(seed=2, cases=8, max_size=12, fuel=120)
        rep = run_suite(name, cfg)
        assert rep.ok, rep.failures[:3]
        assert rep.cases > 0

    def test_confluence_fails_on_a_peak_without_a_common_reduct(self, monkeypatch):
        # with etac, (l * \y. unit w) * (\x. unit x * z) reduces by ass and
        # by etac to two terms with distinct normal forms; the default rules
        # are confluent, so the suite's check sees the peak only with etac
        t = parse_term(r"(unit q * f * (\y. unit w)) * (\x. unit x * z)")
        cfg = GenConfig(fuel=150)
        a, b = enumerate_steps(t, ALL_RULES)
        assert joinable(a.result, b.result, cfg.fuel, ALL_RULES) is False
        monkeypatch.setattr(harness, "DEFAULT_RULES", ALL_RULES)
        assert harness._confluence(cfg, t) == {"left": print_term(a.result), "right": print_term(b.result)}

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nope", GenConfig())

    def test_reports_json_shape(self):
        rep = run_suite("critical-pairs", GenConfig())
        data = rep.to_json()
        assert set(data) == {"suite", "cases", "passes", "failures", "inconclusive", "info"}


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("seed", [0, 7])
def test_suite_verdicts_match_the_pinned_run(seed):
    """run_suites.py --json --cases 20 --seed N gives, suite by suite and
    field by field, what tests/data/suites_seedN.json records (timings
    aside).  Regenerate those files when a suite's claim changes on purpose."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_suites.py"), "--json", "--cases", "20", "--seed", str(seed)],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))},
    )
    assert proc.returncode == 0, proc.stderr
    got = [{k: v for k, v in row.items() if k != "seconds"} for row in json.loads(proc.stdout)]
    want = json.loads((ROOT / "tests" / "data" / f"suites_seed{seed}.json").read_text())
    assert [row["suite"] for row in got] == [row["suite"] for row in want]
    for g, w in zip(got, want):
        assert g == w, g["suite"]


class TestScaffold:
    def test_suite_names(self):
        assert sorted(SUITES) == [
            "ass-sn", "big-small", "characterization", "confluence", "critical-pairs",
            "interp-substitution", "model-soundness", "moggi-convertibility",
            "moggi-preservation", "monad-laws", "subject-expansion", "subject-reduction",
            "subtyping-oracle", "triangle",
        ]

    def test_failing_term_case_is_shrunk(self, monkeypatch):
        monkeypatch.setattr(harness, "SUITES", dict(SUITES))

        @harness.suite("has-bind")
        def has_bind(cfg, m):
            return {"size": term_size(m)} if isinstance(m, Bind) else harness.PASS

        cfg = GenConfig(seed=11, max_size=22, cases=40)
        rep = run_suite("has-bind", cfg)
        originals = list(gen_terms(cfg))
        assert rep.failures and rep.passes + len(rep.failures) == rep.cases == 40
        for failure in rep.failures:
            original = originals[failure["index"]]
            small = parse_term(failure["term"])
            assert term_size(small) <= term_size(original)
            # every other field is the one computed on the shrunk term
            assert {k: v for k, v in failure.items() if k not in ("index", "term")} == has_bind(cfg, small)
        assert any(f["size"] < term_size(originals[f["index"]]) for f in rep.failures)
        assert "has-bind" not in SUITES

    @pytest.mark.parametrize("seed", [0, 7])
    def test_a_shrunk_failure_names_a_redex_of_its_printed_term(self, seed, monkeypatch):
        """With the id and ass recipes broken, each moggi-convertibility
        failure names a step of its shrunk term: a redex of its rule at
        its position."""
        monkeypatch.setitem(moggi.RECIPES, Rule.ID, (moggi.RECIPES[Rule.ID][0][:1], ()))
        monkeypatch.setitem(moggi.RECIPES, Rule.ASS, (moggi.RECIPES[Rule.ASS][0], ()))
        rep = run_suite("moggi-convertibility", GenConfig(seed=seed, cases=40))
        assert rep.failures
        for failure in rep.failures:
            position = () if failure["position"] == "root" else tuple(failure["position"].split("."))
            redex = subterm_at(parse_term(failure["term"]), position)
            assert root_step(redex, Rule(failure["rule"])) is not None, failure

    def test_other_cases_are_counted_and_not_shrunk(self, monkeypatch):
        monkeypatch.setattr(harness, "SUITES", dict(SUITES))

        def cases(cfg, info):
            info["drawn"] = 3
            for i, outcome in enumerate([harness.PASS, harness.INCONCLUSIVE, {"why": "odd"}]):
                yield {"index": i}, outcome

        harness.suite("fixed", cases)(lambda cfg, outcome: outcome)
        rep = run_suite("fixed", GenConfig())
        assert (rep.cases, rep.passes, rep.inconclusive) == (3, 1, 1)
        assert rep.failures == [{"index": 2, "why": "odd"}]
        assert rep.info == {"drawn": 3}


class TestDiagrams:
    def test_all_four_close(self):
        diagrams = critical_pair_diagrams()
        assert len(diagrams) == 4
        assert all(d["identical"] for d in diagrams)

    def test_reassociation_needs_two_steps(self):
        peak = [d for d in critical_pair_diagrams() if d["name"] == "reassociation-peak"][0]
        assert peak["identical"]


class TestConvergentTyping:
    def test_expansion_chain_reaches_t_top(self):
        m = Bind(omega_c().left, omega_c().right)  # diverges: no typing
        assert big_step(m, 100).status is not Status.CONVERGES

        good = next(
            t
            for t in gen_terms(GenConfig(seed=9, cases=60, max_size=14))
            if big_step(t, 200).status is Status.CONVERGES and enumerate_steps(t)
        )
        d = derive_convergent_typing(good, 300)
        assert d is not None
        assert check_derivation(d).valid
        assert eq_c(d.conclusion.tipo, parse_type("T Wv"))
        assert alpha_eq(d.conclusion.subject, good)

    def test_a_value_with_a_long_body_is_typed_in_no_steps(self):
        # unit (\x. unit x * (\y. unit y) * ...) with 700 stages is a value
        # already; reducing under the abstraction would take 700 steps
        body = "unit x" + "".join(f" * (\\y{i}. unit y{i})" for i in range(700))
        m = parse_term(f"unit (\\x. {body})")
        d = derive_convergent_typing(m, 5)
        assert d is not None and check_derivation(d).valid
        assert eq_c(d.conclusion.tipo, parse_type("T Wv")) and d.conclusion.subject == m
        assert harness._characterization(GenConfig(), m) == harness.PASS
