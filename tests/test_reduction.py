import itertools
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

import reference_search
from conftest import CLOSED_COMPS, OPEN_COMPS

from ubcalc import reduction
from ubcalc.convergence import EvalOutcome, Status, small_step_converge
from ubcalc.harness import GenConfig, gen_term, gen_terms
from ubcalc.reduction import (
    ALL_RULES,
    DEFAULT_RULES,
    NormalizeOutcome,
    Rule,
    ass_measure,
    enumerate_steps,
    first_step,
    joinable,
    normalize,
    parallel_reduces,
    parallel_successors,
    replay,
    root_step,
    star,
)
from ubcalc.terms import (
    Bind,
    Comp,
    Lambda,
    Unit,
    Variable,
    alpha_eq,
    alpha_key,
    is_comp,
    omega_c,
    parse_term,
    print_term,
    subterm_at,
    subterms,
)


def star_free(names):
    return [Unit(Variable(n)) for n in names]


class TestRootSteps:
    def test_beta(self):
        t = parse_term("unit v * (\\x. unit x * q)")
        assert root_step(t, Rule.BETA_C) == parse_term("unit v * q")

    def test_id(self):
        t = parse_term("unit v * q * (\\x. unit x)")
        assert root_step(t, Rule.ID) == parse_term("unit v * q")

    def test_id_requires_same_binder(self):
        t = Bind(Unit(Variable("v")), Lambda("x", Unit(Variable("y"))))
        assert root_step(t, Rule.ID) is None

    def test_ass_renames_captured_binder(self):
        # x free in N forces renaming the inner binder
        l, m = Unit(Variable("l")), Unit(Variable("m"))
        n = Unit(Variable("x"))
        t = Bind(Bind(l, Lambda("x", m)), Lambda("y", n))
        got = root_step(t, Rule.ASS)
        assert got is not None
        lam = got.right
        assert lam.binder != "x"
        assert got.fv == t.fv

    def test_eta(self):
        v = Lambda("x", Bind(Unit(Variable("x")), Variable("f")))
        assert root_step(v, Rule.ETA_C) == Variable("f")

    def test_eta_blocked_when_bound_used(self):
        v = Lambda("x", Bind(Unit(Variable("x")), Variable("x")))
        assert root_step(v, Rule.ETA_C) is None


class TestEnumerate:
    def test_omega_single_self_step(self):
        steps = enumerate_steps(omega_c())
        assert len(steps) == 1
        assert steps[0].rule is Rule.BETA_C
        assert alpha_eq(steps[0].result, omega_c())

    def test_beta_and_ass_overlap(self):
        t = parse_term("(unit v * (\\x. unit x * q)) * (\\y. unit y * r)")
        rules = {s.rule for s in enumerate_steps(t)}
        assert Rule.BETA_C in rules and Rule.ASS in rules

    def test_normal_form_has_no_steps(self):
        assert enumerate_steps(parse_term("unit (\\x. unit x)")) == []

    def test_leftmost_outermost_order(self):
        t = parse_term("(unit v * (\\x. unit x)) * (\\y. unit w * (\\z. unit z))")
        positions = [s.position for s in enumerate_steps(t)]
        assert positions == sorted(positions, key=lambda p: (len(p) > 0, p))


class TestReplay:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_every_step_replays_to_its_result(self, seed):
        """Each step replays to its result's key.  The step
        with another rule, or at its parent's or a child's position, replays
        exactly when it is a step too, and not at all at a position outside
        the term."""
        refused = 0
        for m in gen_terms(GenConfig(seed=seed)):
            steps = {(s.rule, s.position): alpha_key(s.result) for s in enumerate_steps(m, ALL_RULES)}
            for (rule, path), key in steps.items():
                assert alpha_key(replay(m, [(rule, path)])) == key
                changed = [(other, path) for other in Rule if other is not rule]
                changed += [(rule, path[:-1])] if path else []
                changed += [(rule, path + (sel,)) for sel, _, _ in subterm_at(m, path).KIDS]
                for step in changed:
                    got = replay(m, [step])
                    if step in steps:
                        assert alpha_key(got) == steps[step]
                    else:
                        assert got is None
                        refused += 1
                assert replay(m, [(rule, path + ("let-bound",))]) is None
        assert refused > 0

    @pytest.mark.parametrize("seed", [0, 7])
    def test_a_normalization_trace_replays_to_its_end(self, seed):
        for m in gen_terms(GenConfig(seed=seed, cases=30)):
            out = normalize(m, fuel=50)
            got = replay(m, [(s.rule, s.position) for s in out.trace])
            assert alpha_key(got) == alpha_key(out.term)


class TestNormalize:
    def test_id_step(self):
        out = normalize(parse_term("unit v * (\\x. unit x)"), fuel=10)
        assert out.normal_form and out.term == parse_term("unit v")

    def test_omega_fuel_exhausted(self):
        out = normalize(omega_c(), fuel=100)
        assert not out.normal_form
        assert alpha_eq(out.term, omega_c())

    def test_ass_chain_right_associates(self):
        l, m, n, p = star_free("lmnp")
        t = Bind(Bind(Bind(l, Lambda("x", m)), Lambda("y", n)), Lambda("z", p))
        out = normalize(t, {Rule.ASS}, fuel=10)
        want = Bind(l, Lambda("x", Bind(m, Lambda("y", Bind(n, Lambda("z", p))))))
        assert out.normal_form and alpha_eq(out.term, want)


def bind_chain(n):
    """unit (\\z. unit z) * (\\a0. unit a0 * (\\b0. unit b0)) * ..., n
    stages nested to the left; it normalizes to unit (\\z. unit z)."""
    m = Unit(Lambda("z", Unit(Variable("z"))))
    for i in range(n):
        x, y = f"a{i}", f"b{i}"
        m = Bind(m, Lambda(x, Bind(Unit(Variable(x)), Lambda(y, Unit(Variable(y))))))
    return m


# Reference strategies: build every one-step reduct, keep the first.


def normalize_by_enumeration(m, rules, fuel):
    trace = []
    cur = m
    for _ in range(fuel):
        steps = enumerate_steps(cur, rules)
        if not steps:
            return NormalizeOutcome(True, cur, tuple(trace))
        trace.append(steps[0])
        cur = steps[0].result
    return NormalizeOutcome(not enumerate_steps(cur, rules), cur, tuple(trace))


def small_step_by_enumeration(m, fuel, detect_cycles, rules):
    if m.fv:
        return EvalOutcome(Status.OPEN_TERM)
    seen = set()
    cur = m
    for used in range(fuel + 1):
        if isinstance(cur, Unit):
            return EvalOutcome(Status.CONVERGES, cur.value, steps=used)
        if detect_cycles:
            k = alpha_key(cur)
            if k in seen:
                return EvalOutcome(Status.DIVERGES, steps=used)
            seen.add(k)
        if used == fuel:
            break
        cur = enumerate_steps(cur, rules)[0].result
    return EvalOutcome(Status.FUEL_EXHAUSTED, steps=fuel)


def _same_outcome(got, want):
    if got.status is not want.status or got.steps != want.steps:
        return False
    if want.value is None:
        return got.value is None
    return got.value is not None and alpha_eq(got.value, want.value)


def _corpus(closed):
    """Harness terms of two sizes, a bind chain, and omega for a
    reduction that runs out of fuel and revisits its start."""
    terms = [gen_term(GenConfig(seed=s, max_size=25, closed=closed), s) for s in range(150)]
    terms += [gen_term(GenConfig(seed=s, max_size=40, closed=closed), s) for s in range(40)]
    return terms + [bind_chain(12), omega_c()]


RULE_SETS = pytest.mark.parametrize("rules", [DEFAULT_RULES, ALL_RULES], ids=["default", "all"])


class TestFirstStepAgainstEnumeration:
    @given(st.one_of(CLOSED_COMPS, OPEN_COMPS), st.sampled_from([DEFAULT_RULES, ALL_RULES]))
    def test_first_step_is_head_of_enumeration(self, m, rules):
        steps = enumerate_steps(m, rules)
        assert first_step(m, rules) == (steps[0] if steps else None)

    @RULE_SETS
    @pytest.mark.parametrize("closed", [True, False], ids=["closed", "open"])
    def test_normalize_matches_reference(self, rules, closed):
        for m in _corpus(closed):
            got = normalize(m, rules, fuel=60)
            want = normalize_by_enumeration(m, rules, fuel=60)
            assert got.normal_form == want.normal_form, print_term(m)
            assert alpha_eq(got.term, want.term), print_term(m)
            assert len(got.trace) == len(want.trace), print_term(m)
            for a, b in zip(got.trace, want.trace):
                assert (a.rule, a.position) == (b.rule, b.position), print_term(m)
                assert alpha_eq(a.result, b.result), print_term(m)

    @RULE_SETS
    @pytest.mark.parametrize("detect_cycles", [False, True], ids=["plain", "cycles"])
    def test_small_step_matches_reference(self, rules, detect_cycles):
        for m in _corpus(True):
            got = small_step_converge(m, 60, detect_cycles, rules)
            want = small_step_by_enumeration(m, 60, detect_cycles, rules)
            assert _same_outcome(got, want), print_term(m)

    def test_long_chain_normalizes(self):
        # 798 steps over a term of 1604 nodes
        out = normalize(bind_chain(200), fuel=4020)
        assert out.normal_form and len(out.trace) == 798
        assert alpha_eq(out.term, Unit(Lambda("z", Unit(Variable("z")))))


class TestParallel:
    def test_reflexive(self):
        t = parse_term("unit v * (\\x. unit x * q)")
        assert parallel_reduces(t, t)

    def test_beta_clause(self):
        t = parse_term("unit v * (\\x. unit x * q)")
        assert parallel_reduces(t, parse_term("unit v * q"))

    def test_ass_excluded(self):
        l, m, n = star_free("lmn")
        t = Bind(Bind(l, Lambda("x", m)), Lambda("y", n))
        reassoc = Bind(l, Lambda("x", Bind(m, Lambda("y", n))))
        assert not parallel_reduces(t, reassoc)

    @given(CLOSED_COMPS)
    def test_one_step_inclusion(self, m):
        # every betac/id step is a parallel step
        for s in enumerate_steps(m, {Rule.BETA_C, Rule.ID}):
            assert parallel_reduces(m, s.result)

    @given(CLOSED_COMPS)
    @settings(max_examples=40)
    def test_parallel_inside_multistep(self, m):
        # every parallel successor is reachable by betac/id alone
        for q in parallel_successors(m)[:12]:
            assert _reaches(m, q, 80), print_term(q)


def _reaches(src, dst, budget):
    seen = {alpha_key(src)}
    frontier = [src]
    target = alpha_key(dst)
    if alpha_key(src) == target:
        return True
    while frontier and budget > 0:
        nxt = []
        for t in frontier:
            for s in enumerate_steps(t, {Rule.BETA_C, Rule.ID}):
                budget -= 1
                k = alpha_key(s.result)
                if k == target:
                    return True
                if k not in seen:
                    seen.add(k)
                    nxt.append(s.result)
        frontier = nxt
    return False


class TestStar:
    def test_variable(self):
        assert star(Variable("x")) == Variable("x")

    def test_omega_develops_to_itself(self):
        # hand expansion: the beta clause substitutes the developed body
        assert alpha_eq(star(omega_c()), omega_c())

    def test_id_clause_skips_unit_left(self):
        m = Bind(Unit(Variable("q")), Variable("f"))
        t = Bind(m, Lambda("x", Unit(Variable("x"))))
        assert alpha_eq(star(t), star(m))

    def test_beta_preferred_over_id(self):
        # unit v * \x.unit x matches both clauses; beta must win
        t = parse_term("unit v * (\\x. unit x)")
        assert star(t) == Unit(Variable("v"))

    def test_fallback_keeps_structure(self):
        t = Bind(Unit(Variable("v")), Variable("f"))
        assert star(t) == t

    @given(CLOSED_COMPS)
    @settings(max_examples=50)
    def test_triangle_property(self, p):
        succ = parallel_successors(p)
        if len(succ) > 100:
            return
        dev = star(p)
        for q in succ:
            assert parallel_reduces(q, dev)


class TestAssMeasure:
    def brute_force(self, m):
        """Count pairs of binds with one in the left subterm of the other
        by explicit enumeration."""
        nodes = [s for s in subterms(m) if isinstance(s, Bind)]
        count = 0
        for outer in nodes:
            count += sum(1 for s in subterms(outer.left) if isinstance(s, Bind))
        return count

    def test_left_chain_counts_three(self):
        l, m, n, p = star_free("lmnp")
        t = Bind(Bind(Bind(l, Lambda("x", m)), Lambda("y", n)), Lambda("z", p))
        assert ass_measure(t) == 3
        assert self.brute_force(t) == 3

    def test_right_chain_counts_zero(self):
        l, m, n, p = star_free("lmnp")
        t = Bind(l, Lambda("x", Bind(m, Lambda("y", Bind(n, Lambda("z", p))))))
        assert ass_measure(t) == 0

    def test_unit_is_zero(self):
        assert ass_measure(parse_term("unit v")) == 0

    @given(CLOSED_COMPS)
    def test_agrees_with_brute_force(self, m):
        assert ass_measure(m) == self.brute_force(m)

    @given(CLOSED_COMPS)
    def test_strictly_decreasing(self, m):
        before = ass_measure(m)
        for s in enumerate_steps(m, {Rule.ASS}):
            assert ass_measure(s.result) < before

    @given(CLOSED_COMPS)
    def test_ass_only_terminates_with_measure_fuel(self, m):
        out = normalize(m, {Rule.ASS}, fuel=ass_measure(m))
        assert out.normal_form


class TestJoinable:
    def test_beta_ass_overlap_joins(self):
        mm = Bind(Unit(Variable("x")), Variable("q"))
        t = Bind(Bind(Unit(Variable("v")), Lambda("x", mm)), Lambda("y", Unit(Variable("n"))))
        steps = enumerate_steps(t)
        a = [s for s in steps if s.rule is Rule.BETA_C][0].result
        b = [s for s in steps if s.rule is Rule.ASS][0].result
        got = joinable(a, b, fuel=60)
        assert is_comp(got)

    def test_divergent_peak_joins_by_breadth_first_search(self):
        # neither reduct normalises, so the join must come from the
        # breadth-first search, not from comparing normal forms
        t = Bind(Bind(Unit(Variable("v")), Lambda("x", omega_c())), Lambda("y", Unit(Variable("n"))))
        steps = enumerate_steps(t)
        a = [s for s in steps if s.rule is Rule.BETA_C][0].result
        b = [s for s in steps if s.rule is Rule.ASS][0].result
        assert not normalize(a, DEFAULT_RULES, 80).normal_form
        assert not normalize(b, DEFAULT_RULES, 80).normal_form
        got = joinable(a, b, fuel=60)
        assert got is not None and alpha_eq(got, a)

    def test_reassociation_peak_joins(self):
        l, m, n, p = star_free("lmnp")
        t = Bind(Bind(Bind(l, Lambda("x", m)), Lambda("y", n)), Lambda("z", p))
        reducts = [s.result for s in enumerate_steps(t, {Rule.ASS})]
        assert len(reducts) == 2
        got = joinable(reducts[0], reducts[1], fuel=60, rules={Rule.ASS})
        want = Bind(l, Lambda("x", Bind(m, Lambda("y", Bind(n, Lambda("z", p))))))
        assert got is not None and alpha_eq(got, want)

    def test_eta_counterexample_not_joinable(self):
        # a stuck computation in the head position keeps both sides apart:
        # both are distinct normal forms, so both searches are exhausted
        m = Bind(Unit(Variable("q")), Variable("f"))
        left = Bind(Bind(m, Variable("y")), Variable("z"))
        right = Bind(
            m,
            Lambda("x", Bind(Bind(Unit(Variable("x")), Variable("y")), Variable("z"))),
        )
        assert joinable(left, right, fuel=150, rules=ALL_RULES) is False

    def test_distinct_normal_forms_at_fuel_0(self):
        # no step is refused for want of budget, so both searches are
        # exhausted; a term with a step keeps the search open
        a = parse_term("unit (\\x. unit x)")
        assert joinable(a, parse_term("unit (\\y. unit (\\z. unit z))"), fuel=0) is False
        assert joinable(parse_term("unit a"), parse_term("unit b"), fuel=0) is False
        assert joinable(parse_term("unit a"), parse_term("unit b"), fuel=300) is False
        id_redex = parse_term("unit (\\y. unit y) * (\\z. unit z)")
        assert joinable(a, id_redex, fuel=0) is None
        # given budget, the id step joins it with the normal form
        assert alpha_eq(joinable(id_redex, a, fuel=300), a)

    @given(CLOSED_COMPS)
    @settings(max_examples=50)
    def test_sampled_confluence(self, m):
        steps = enumerate_steps(m)
        for a, b in itertools.combinations(steps, 2):
            assert is_comp(joinable(a.result, b.result, fuel=150))

    @given(CLOSED_COMPS)
    def test_reduction_preserves_closedness(self, m):
        for s in enumerate_steps(m):
            assert s.result.fv <= m.fv


# reduction.joinable as it was before it ran on reduction.meet: one budget
# shared by both sides, and never False.  Kept as the differential oracle
# of the new search.
def _ref_joinable(
    m: Comp,
    n: Comp,
    fuel: int = 200,
    rules: frozenset[Rule] | set[Rule] = DEFAULT_RULES,
) -> Optional[Comp]:
    """Search for a common reduct of m and n.

    Fast path: leftmost-outermost normalization of both sides.  Fallback:
    breadth-first expansion of both reachable sets (visited modulo alpha)
    within the step budget.  None means inconclusive, not non-joinable.
    """
    if alpha_key(m) == alpha_key(n):
        return m
    fast = min(fuel, 80)
    nm = normalize(m, rules, fast)
    nn = normalize(n, rules, fast)
    if nm.normal_form and nn.normal_form and alpha_key(nm.term) == alpha_key(nn.term):
        return nm.term

    seen_m: dict[tuple, Comp] = {alpha_key(m): m}
    seen_n: dict[tuple, Comp] = {alpha_key(n): n}
    frontier_m = [m]
    frontier_n = [n]
    budget = fuel
    while budget > 0 and (frontier_m or frontier_n):
        for seen, other, frontier in ((seen_m, seen_n, frontier_m), (seen_n, seen_m, frontier_n)):
            nxt: list[Comp] = []
            for term in frontier:
                for step in enumerate_steps(term, rules):
                    budget -= 1
                    k = alpha_key(step.result)
                    if k in other:
                        return step.result
                    if k not in seen:
                        seen[k] = step.result
                        nxt.append(step.result)
                if budget <= 0:
                    break
            frontier[:] = nxt
            if budget <= 0:
                break
    return None


def _critical_pairs(rules):
    """Every pair of one-step reducts of the harness terms, seeds 0-3 at
    two sizes."""
    for seed in range(4):
        for max_size in (20, 40):
            for m in gen_terms(GenConfig(seed=seed, max_size=max_size)):
                for a, b in itertools.combinations(enumerate_steps(m, rules), 2):
                    yield a.result, b.result


class TestJoinableOracle:
    @RULE_SETS
    @pytest.mark.parametrize("fuel", [0, 5, 60, 200])
    def test_never_contradicts_the_reference_search(self, rules, fuel):
        # a join the reference finds is found; False only where it gave up
        for a, b in _critical_pairs(rules):
            want = _ref_joinable(a, b, fuel, rules)
            got = joinable(a, b, fuel, rules)
            if want is not None:
                assert is_comp(got), (print_term(a), print_term(b))
            else:
                assert got is None or got is False or is_comp(got)


def _verdict(found) -> str:
    return "join" if is_comp(found) else repr(found)


@pytest.mark.parametrize(
    "rules", [DEFAULT_RULES, ALL_RULES, frozenset({Rule.ASS})], ids=["default", "all", "ass"]
)
@pytest.mark.parametrize("fuel", [0, 5, 60, 200])
def test_search_matches_the_keyed_reference(rules, fuel, monkeypatch):
    """joinable decides as it did on the generator search the
    level-synchronous ``meet`` replaced (``reference_search``), and every
    join ``meet`` returns is reached within fuel by the reference's search
    from each side."""
    joins = []

    def spy(a, b, *rest, real=reduction.meet):
        found = real(a, b, *rest)
        if is_comp(found):
            joins.append((a, b, alpha_key(found)))
        return found

    monkeypatch.setattr(reduction, "meet", spy)
    for a, b in _critical_pairs(rules):
        want = reference_search.joinable(a, b, fuel, rules)
        assert _verdict(joinable(a, b, fuel, rules)) == _verdict(want), (print_term(a), print_term(b))
    for a, b, k in joins:
        assert reference_search.reaches(a, k, rules, fuel) and reference_search.reaches(b, k, rules, fuel)
