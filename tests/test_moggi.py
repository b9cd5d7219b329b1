import dataclasses
import itertools

import pytest
from hypothesis import given, settings

from conftest import CLOSED_COMPS, ref_m_enumerate_steps

from ubcalc import moggi
from ubcalc import reduction as ub_reduction
from ubcalc.harness import GenConfig, gen_mterm, gen_term, gen_terms, run_suite
from ubcalc.moggi import (
    MApp,
    MLam,
    MLet,
    MRule,
    MVar,
    RECIPES,
    from_moggi,
    from_moggi_comp,
    from_moggi_value,
    image_position,
    is_mvalue,
    let_image_position,
    let_recipe_at,
    m_enumerate_steps,
    m_parse,
    m_print,
    meets,
    recipe_at,
    to_moggi,
)
from ubcalc.reduction import DEFAULT_RULES, Rule, Step, enumerate_steps, replay, root_step
from ubcalc.terms import (
    BIND_LEFT,
    BIND_RIGHT,
    LAMBDA_BODY,
    UNIT_ARG,
    Bind,
    Lambda,
    Unit,
    Variable,
    alpha_eq,
    alpha_key,
    all_vars,
    is_comp,
    omega_c,
    parse_term,
    positions,
    print_term,
    subst,
    subterm_at,
)


def mterms(size, env, binders=None):
    """Every let-term of the size over the free names env, each binder
    named by its size, or drawn from binders when given."""
    if size <= 0:
        return
    if size == 1:
        for v in env:
            yield MVar(v)
        return
    names = binders or [f"m{size}"]
    for binder in names:
        for b in mterms(size - 1, env + [binder], binders):
            yield MLam(binder, b)
    for ls in range(1, size - 1):
        for f in mterms(ls, env, binders):
            for a in mterms(size - 1 - ls, env, binders):
                yield MApp(f, a)
    for binder in names:
        for ls in range(1, size - 2):
            for bound in mterms(ls, env, binders):
                for body in mterms(size - 2 - ls, env + [binder], binders):
                    yield MLet(binder, bound, body)


# Binders that shadow each other, one of them a name ``fresh_var`` picks.
SHADOWING = ["x", "x1"]


class TestReduction:
    def test_beta_v(self):
        assert alpha_eq(root_step(m_parse("(\\x. x) y"), MRule.BETA_V), MVar("y"))

    def test_let_id(self):
        e = m_parse("let x = (y z) in x")
        assert alpha_eq(root_step(e, MRule.ID), m_parse("y z"))
        # the unit/bind id rule shares the value "id" but is another rule
        assert root_step(e, Rule.ID) is None

    def test_let_1_names_nonvalue_function(self):
        got = root_step(m_parse("(x y) z"), MRule.LET_1)
        assert alpha_eq(got, m_parse("let q = (x y) in q z"))

    def test_let_2_names_nonvalue_argument(self):
        got = root_step(m_parse("x (y z)"), MRule.LET_2)
        assert alpha_eq(got, m_parse("let q = (y z) in x q"))

    def test_comp_reassociates(self):
        got = root_step(m_parse("let b = (let a = x y in a) in b b"), MRule.COMP)
        assert alpha_eq(got, m_parse("let a = x y in (let b = a in b b)"))

    def test_comp_renames_on_capture(self):
        e = MLet("b", MLet("a", MApp(MVar("x"), MVar("y")), MVar("a")), MVar("a"))
        # the free a of the outer body must not be captured
        assert "a" in root_step(e, MRule.COMP).fv

    def test_eta_v(self):
        assert root_step(m_parse("\\x. y x"), MRule.ETA_V) is not None
        assert root_step(m_parse("\\x. x x"), MRule.ETA_V) is None

    def test_compatible_closure_under_lambda_and_let(self):
        e = m_parse("\\z. let w = ((\\x. x) y) in w")
        rules = {s.rule for s in m_enumerate_steps(e)}
        assert MRule.BETA_V in rules and MRule.ID in rules


def _ref_to_moggi(t):
    """to_moggi as it was before it gathered each bind's names in the walk
    that translates it, kept as the reference for the names of its lets."""
    match t:
        case Variable(name):
            return MVar(name)
        case Lambda(x, body):
            return MLam(x, _ref_to_moggi(body))
        case Unit(v):
            return _ref_to_moggi(v)
        case Bind(left, right):
            x = moggi.fresh_var(all_vars(left) | all_vars(right))
            return MLet(x, _ref_to_moggi(left), MApp(_ref_to_moggi(right), MVar(x)))


def _ref_from_moggi(e):
    """from_moggi as it was before it gathered each application's names in
    the walk that translates it, kept as the reference for the names of
    its continuations."""

    def value(v):
        match v:
            case MVar(name):
                return Variable(name)
            case MLam(x, body):
                return Lambda(x, Unit(value(body)) if is_mvalue(body) else comp(body))

    def comp(n):
        match n:
            case MApp(f, a) if is_mvalue(f) and is_mvalue(a):
                return Bind(Unit(value(a)), value(f))
            case MApp(f, a) if is_mvalue(f):
                return Bind(comp(a), value(f))
            case MApp(f, a) if is_mvalue(a):
                x = moggi.fresh_var(all_vars(n))
                return Bind(comp(f), Lambda(x, Bind(Unit(value(a)), Variable(x))))
            case MApp(f, a):
                x = moggi.fresh_var(all_vars(n))
                return Bind(comp(f), Lambda(x, Bind(comp(a), Variable(x))))
            case MLet(x, bound, body):
                left = Unit(value(bound)) if is_mvalue(bound) else comp(bound)
                return Bind(left, Lambda(x, Unit(value(body)) if is_mvalue(body) else comp(body)))

    return Unit(value(e)) if is_mvalue(e) else comp(e)


class TestTranslations:
    @pytest.mark.parametrize("max_size", [25, 100])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_to_moggi_names_lets_as_the_reference(self, seed, max_size):
        for m in gen_terms(GenConfig(seed=seed, max_size=max_size)):
            assert to_moggi(m) == _ref_to_moggi(m)

    @pytest.mark.parametrize("max_size", [25, 100])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_from_moggi_prints_as_the_reference(self, seed, max_size):
        """``translate --from-moggi`` prints the reference's bytes, and
        the value and computation images are the reference's too."""
        cfg = GenConfig(seed=seed, max_size=max_size)
        for i in range(cfg.cases):
            e = gen_mterm(cfg, i)
            want = _ref_from_moggi(e)
            assert print_term(from_moggi(e)) == print_term(want)
            assert (Unit(from_moggi_value(e)) if is_mvalue(e) else from_moggi_comp(e)) == want

    def test_unit_disappears(self):
        assert to_moggi(parse_term("unit v")) == MVar("v")

    def test_bind_becomes_let(self):
        got = to_moggi(parse_term("unit m * v"))
        assert alpha_eq(got, m_parse("let x = m in v x"))

    def test_omega_golden(self):
        got = to_moggi(omega_c())
        want = m_parse("let q = (\\x. let z = x in x z) in (\\x. let z = x in x z) q")
        assert alpha_eq(got, want)

    def test_from_value_application(self):
        got = from_moggi(m_parse("f y"))
        assert alpha_eq(got, parse_term("unit y * f"))

    def test_from_let_of_nonvalues(self):
        got = from_moggi(m_parse("let x = (f y) in (g x)"))
        assert alpha_eq(got, parse_term("(unit y * f) * (\\x. unit x * g)"))

    def test_identity_value_wraps(self):
        got = from_moggi(m_parse("\\x. x"))
        assert alpha_eq(got, parse_term("unit (\\x. unit x)"))

    def test_from_moggi_always_computation(self):
        for e in mterms(5, ["u"]):
            assert is_comp(from_moggi(e))

    @given(CLOSED_COMPS)
    @settings(max_examples=50)
    def test_to_moggi_value_classification(self, m):
        got = to_moggi(m)
        if isinstance(m, Unit):
            assert isinstance(got, (MVar, MLam))
        else:
            assert isinstance(got, MLet)


class TestSubstitutionLemmas:
    VALS = [MVar("q"), MLam("s", MVar("s")), MLam("s", MApp(MVar("s"), MVar("q")))]

    def test_to_moggi_exhaustive(self):
        vals = [
            Variable("q"),
            Lambda("s", Unit(Variable("s"))),
            Lambda("s", parse_term("unit s * q")),
        ]

        def small_comps(size, env):
            if size <= 1:
                for v in env:
                    yield Unit(Variable(v))
                return
            for v in env:
                yield Unit(Variable(v))
            yield Unit(Lambda("b", Unit(Variable("b"))))
            for ls in range(1, size - 1):
                for left in small_comps(ls, env):
                    for name in env:
                        yield Bind(left, Variable(name))
                    yield Bind(left, Lambda("c", Unit(Variable("c"))))

        checked = 0
        for m in small_comps(4, ["x", "q"]):
            for w in vals:
                lhs = to_moggi(subst(m, "x", w))
                rhs = subst(to_moggi(m), "x", to_moggi(w))
                assert alpha_eq(lhs, rhs)
                checked += 1
        assert checked > 50

    def test_from_moggi_exhaustive(self):
        checked = 0
        for e in mterms(5, ["x", "q"]):
            for v in self.VALS:
                lhs = from_moggi(subst(e, "x", v))
                rhs = subst(from_moggi(e), "x", from_moggi_value(v))
                assert alpha_eq(lhs, rhs)
                checked += 1
        assert checked > 100


def _let_steps(e):
    """Every let-step of e, with the images of its source and target and
    its placed recipe (``let_recipe_at``)."""
    source = from_moggi(e)
    return [(step, source, from_moggi(step.result), let_recipe_at(e, step)) for step in m_enumerate_steps(e)]


def _met_recipes(e, rule):
    """The placed recipes of e's steps by rule, each checked to meet: one
    without a target-side step is a reduction from the source image whose
    length is its source side's; one with a target-side step joins with eta."""
    recipes = []
    for step, source, target, recipe in _let_steps(e):
        if step.rule is rule:
            assert meets(source, target, recipe), (m_print(e), step.position)
            recipes.append(recipe)
    assert recipes
    return recipes


class TestPreservation:
    def test_let_v_is_one_beta(self):
        e = m_parse("let x = (\\z. z) in x x")
        assert all(not target and len(source) >= 1 for source, target in _met_recipes(e, MRule.LET_V))

    def test_comp_is_one_reassociation(self):
        e = m_parse("let y = (let x = (f q) in (g x)) in (h y)")
        assert all(not target and len(source) == 1 for source, target in _met_recipes(e, MRule.COMP))

    def test_let1_images_equal(self):
        e = m_parse("(f q) v")
        assert all(recipe == ((), ()) for recipe in _met_recipes(e, MRule.LET_1))

    def test_let2_joins_through_eta(self):
        e = m_parse("v (f q)")
        assert any(target for _, target in _met_recipes(e, MRule.LET_2))

    def test_eta_v_uses_eta(self):
        _met_recipes(m_parse("\\x. v x"), MRule.ETA_V)

    def test_exhaustive_size_5(self):
        """Every let-term of size 5, and every one to size 7 whose binders
        shadow each other: each step's recipe meets."""
        shadowing = (e for size in range(1, 8) for e in mterms(size, ["u"], SHADOWING))
        for e in itertools.chain(mterms(5, ["u"]), shadowing):
            for step, source, target, recipe in _let_steps(e):
                assert meets(source, target, recipe), m_print(e)

    def test_a_step_reached_at_the_root_is_reached(self):
        """Each source image reaches its target by one betac at the root,
        though an etac in the continuation also joins them."""
        cases = [
            (m_parse("(\\x. u x) u"), MRule.BETA_V),
            (m_parse("let y = u in u y"), MRule.LET_V),
            (gen_mterm(GenConfig(seed=0, max_size=50, cases=50), 5), MRule.LET_V),
        ]
        for e, rule in cases:
            (found,) = [(s, t, r) for step, s, t, r in _let_steps(e) if step.rule is rule and not step.position]
            source, target, recipe = found
            assert meets(source, target, recipe) and (len(recipe[0]), recipe[1]) == (1, ()), m_print(e)

    def test_a_spent_budget_is_inconclusive(self):
        """The betav step's image is two steps away, which its recipe
        replays.  Moved to where its recipe does not replay, the step once
        went to a bounded join, whose spent budget left it inconclusive;
        with no join left, it is not preserved."""
        e = m_parse("(\\x. x) (\\y. y) (\\z. z)")
        ((forward, backward),) = _met_recipes(e, MRule.BETA_V)
        assert (len(forward), backward) == (2, ())
        (step,) = [step for step in m_enumerate_steps(e) if step.rule is MRule.BETA_V]
        moved = dataclasses.replace(step, position=("app-arg",))
        assert not meets(from_moggi(e), from_moggi(step.result), let_recipe_at(e, moved))

    def test_steps_a_whole_search_left_open_are_decided(self):
        """Cases 29, 30 and 39 of seed 7 at size 50 have steps that a
        400-step whole-term search neither reaches nor exhausts; their
        recipes decide them all."""
        cfg = GenConfig(seed=7, max_size=50)
        for i in (29, 30, 39):
            steps = _let_steps(gen_mterm(cfg, i))
            assert steps and all(meets(source, target, recipe) for _, source, target, recipe in steps)

    def test_a_bogus_step_is_refuted(self, monkeypatch):
        """A step to a term the source image can neither reach nor join
        is not preserved.  The suite fails each case on its bogus step and
        names the placed recipe: one betac at the image of the root."""
        real = moggi.m_enumerate_steps
        bogus = Step(MRule.BETA_V, (), m_parse("\\y. \\z. z"))
        e = m_parse("\\x. x")
        assert not meets(from_moggi(e), from_moggi(bogus.result), let_recipe_at(e, bogus))
        monkeypatch.setattr(moggi, "m_enumerate_steps", lambda e, key=None: real(e, key) + [bogus])
        cfg = GenConfig(seed=0, cases=20)
        report = run_suite("moggi-preservation", cfg)
        assert (report.passes, report.inconclusive, len(report.failures)) == (0, 0, 20)
        for failure in report.failures:
            root = "unit-arg" if is_mvalue(gen_mterm(cfg, failure["index"])) else "root"
            assert (failure["rule"], failure["position"], failure["recipe"]) == ("betav", "root", [[f"betac at {root}"], []])


class TestConvertibility:
    def test_images_of_reduction_steps(self):
        """The images of each step's source and target meet by the step's
        witness, the ass step's with let-steps from both images."""
        m = parse_term("(unit (\\z. unit z) * (\\x. unit x * q)) * (\\y. unit y)")
        for step in enumerate_steps(m):
            assert meets(to_moggi(m), to_moggi(step.result), recipe_at(step)), step.rule

    def test_ub_side_dispatch(self):
        """A unit/bind pair is ``reduction.joinable``'s to decide: it
        joins the id peak at its normal form."""
        m = parse_term("unit (\\x. unit x) * (\\y. unit y)")
        n = parse_term("unit (\\x. unit x)")
        assert alpha_eq(ub_reduction.joinable(m, n, fuel=300), n)

    def test_ub_unrelated_normal_forms(self):
        a, b = Unit(Variable("a")), Unit(Variable("b"))
        assert ub_reduction.joinable(a, b, fuel=300) is False


# The let-term search and the preservation check as they were before the
# bridge suites replayed recipes, kept as differential oracles over the
# independent step list of ``conftest.ref_m_enumerate_steps``: each
# side's reachable set built to the end of its budget, and the forward
# image search with its own loop.


def _ref_m_reachable(e, budget):
    """The states reached within budget steps, and whether no step was
    refused for want of budget (the reachable set was exhausted)."""
    seen = {alpha_key(e): e}
    frontier = [e]
    while frontier:
        nxt = []
        for t in frontier:
            for s in ref_m_enumerate_steps(t):
                if budget <= 0:
                    return seen, False
                budget -= 1
                k = alpha_key(s.result)
                if k not in seen:
                    seen[k] = s.result
                    nxt.append(s.result)
        frontier = nxt
    return seen, True


def _ref_convertible(a, b, fuel):
    if alpha_eq(a, b):
        return True
    ra, ea = _ref_m_reachable(a, fuel)
    rb, eb = _ref_m_reachable(b, fuel)
    if set(ra) & set(rb):
        return True
    return False if ea and eb else None


def _ref_image_reaches(src, dst, fuel, allow_eta):
    rules = set(ub_reduction.DEFAULT_RULES)
    if allow_eta:
        rules.add(ub_reduction.Rule.ETA_C)
    target = alpha_key(dst)
    seen = {alpha_key(src)}
    frontier = [(src, 0)]
    if alpha_key(src) == target:
        return True, 0
    budget = fuel
    while frontier and budget > 0:
        nxt = []
        for term, depth in frontier:
            for s in enumerate_steps(term, rules):
                budget -= 1
                k = alpha_key(s.result)
                if k == target:
                    return True, depth + 1
                if k not in seen:
                    seen.add(k)
                    nxt.append((s.result, depth + 1))
                if budget <= 0:
                    break
            if budget <= 0:
                break
        frontier = nxt
    return False, -1


def _ref_check_preservation(e, fuel):
    """The preservation check as it was before the backward image search
    was dropped: forward, then backward with eta, then a join with eta."""
    out = []
    src = from_moggi(e)
    for s in m_enumerate_steps(e):
        dst = from_moggi(s.result)
        ok, n = _ref_image_reaches(src, dst, fuel, allow_eta=s.rule is MRule.ETA_V)
        eta_join = False
        if not ok:
            back, nb = _ref_image_reaches(dst, src, fuel, allow_eta=True)
            if back:
                eta_join, n = True, nb
            else:
                eta_join = is_comp(ub_reduction.joinable(src, dst, fuel, ub_reduction.ALL_RULES))
        out.append((s.rule, ok, n if ok else -1, eta_join))
    return out


ORACLE_CFG = GenConfig(seed=0, max_size=12, cases=10)
ORACLE_FUELS = (0, 1, 5, 40, 300)


def _oracle_pairs():
    """Let-terms with one of their reducts and with an unrelated term, and
    images of unit/bind terms with the images of their reducts."""
    for i in range(ORACLE_CFG.cases):
        e = gen_mterm(ORACLE_CFG, i)
        yield e, gen_mterm(ORACLE_CFG, i + 1)
        for s in ref_m_enumerate_steps(e)[:2]:
            yield e, s.result
    for m, s in _ub_oracle_steps():
        yield to_moggi(m), to_moggi(s.result)


def _ub_oracle_steps():
    """The oracle's unit/bind terms, each with its first two steps."""
    for m in gen_terms(ORACLE_CFG):
        for s in enumerate_steps(m)[:2]:
            yield m, s


class TestSearchOracles:
    def test_step_lists_match_per_position_dedup(self):
        for a, b in _oracle_pairs():
            for e in (a, b):
                got = m_enumerate_steps(e)
                want = ref_m_enumerate_steps(e)
                assert [(s.rule, alpha_key(s.result)) for s in got] == [
                    (s.rule, alpha_key(s.result)) for s in want
                ]
                assert all(s.key == alpha_key(s.result) for s in got)

    def test_placed_recipes_match_forward_then_backward(self):
        """Every step's placed recipe meets, and reads as the reference's
        result at fuel 60 and 300: reached when it has no target-side
        step, in as many steps as its source side has, and joined with eta
        otherwise.  At fuel 10 a recipe, which needs no fuel, decides a
        step the reference's searches leave open: the depth is equal
        wherever both reach."""
        terms = {alpha_key(e): e for pair in _oracle_pairs() for e in pair}
        joins = 0
        for e in terms.values():
            got = []
            for step, source, target, (forward, backward) in _let_steps(e):
                assert meets(source, target, (forward, backward)), (m_print(e), step.rule)
                got.append((step.rule, not backward, -1 if backward else len(forward), bool(backward)))
            for fuel in (10, 60, 300):
                want = _ref_check_preservation(e, fuel)
                if fuel == 10:
                    for (rule, reached, n, _), (ref_rule, ok, ref_n, _) in zip(got, want, strict=True):
                        assert rule is ref_rule
                        if ok and reached:
                            assert n == ref_n, (m_print(e), rule)
                else:
                    assert got == want, (m_print(e), fuel)
                    joins += sum(eta_join for *_, eta_join in got)
        assert joins > 0


def _ub_step_images(cfg):
    """Every default-rule step of cfg's unit/bind terms, with the images
    of its source and target and its placed recipe (``recipe_at``)."""
    for m in gen_terms(cfg):
        source = to_moggi(m)
        for step in enumerate_steps(m, DEFAULT_RULES):
            yield step, source, to_moggi(step.result), recipe_at(step)


def _let_step_images(cfg):
    """Every step of cfg's let-terms, as ``_let_steps`` gives it."""
    for i in range(cfg.cases):
        yield from _let_steps(gen_mterm(cfg, i))


_M_SELECTORS = ("lam-body", "app-fn", "app-arg", "let-bound", "let-body")
_UB_SELECTORS = (UNIT_ARG, BIND_LEFT, BIND_RIGHT, LAMBDA_BODY)


class TestSimulation:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_image_position_holds_the_image(self, seed):
        """The subterm at a position's image is the image of the subterm
        at the position, in either direction: a let-value's value image,
        and a let-term's computation image otherwise."""
        cfg = GenConfig(seed=seed)
        for m in gen_terms(cfg):
            image = to_moggi(m)
            for p, sub in positions(m):
                assert alpha_key(subterm_at(image, image_position(p))) == alpha_key(to_moggi(sub))
        for i in range(cfg.cases):
            e = gen_mterm(cfg, i)
            image = from_moggi(e)
            for p, sub in positions(e):
                want = from_moggi_value(sub) if is_mvalue(sub) else from_moggi_comp(sub)
                assert alpha_key(subterm_at(image, let_image_position(e, p))) == alpha_key(want)

    @pytest.mark.parametrize("max_size", [25, 50, 100])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_every_step_has_a_witness(self, seed, max_size):
        """Every unit/bind step of 50 terms, and every let-step of 100
        let-terms at size 25 and 50 at the larger sizes, has a witness
        that replays and meets."""
        steps = 0
        for step, source, target, recipe in _ub_step_images(GenConfig(seed=seed, max_size=max_size, cases=50)):
            assert meets(source, target, recipe), (m_print(source), step.rule)
            steps += 1
        assert steps > 100
        let_steps = 0
        for step, source, target, recipe in _let_step_images(GenConfig(seed=seed, max_size=max_size, cases=100 if max_size == 25 else 50)):
            assert meets(source, target, recipe), step.rule
            let_steps += 1
        assert let_steps > 100

    def test_a_witness_never_meets_a_refutation(self):
        """On the unit/bind half of the oracle pairs a witness exists, the
        full searches never refute it, and at fuel 300 they find the meet."""
        pairs = [(step, to_moggi(m), to_moggi(step.result)) for m, step in _ub_oracle_steps()]
        for fuel in ORACLE_FUELS:
            for step, source, target in pairs:
                assert meets(source, target, recipe_at(step))
                want = _ref_convertible(source, target, fuel)
                assert want is not False and (fuel < 300 or want is True), (m_print(source), fuel)

    def test_a_changed_witness_fails(self):
        """A witness of either direction with one step's rule, or its
        position, changed to its parent's or to a child's no longer meets,
        unless the changed step gives the term the original gave
        (``let x = V in x`` is both an id and a letv redex)."""
        cfg = GenConfig(seed=0, cases=30)
        witnesses = [
            (source, target, recipe, _M_SELECTORS, "unit/bind to let")
            for step, source, target, recipe in _ub_step_images(cfg)
        ]
        witnesses += [
            (source, target, recipe, _UB_SELECTORS, "let to unit/bind")
            for step, source, target, recipe in _let_step_images(cfg)
        ]
        failed = {"unit/bind to let": 0, "let to unit/bind": 0}
        for source, target, witness, selectors, direction in witnesses:
            for side, steps in enumerate(witness):
                start = (source, target)[side]
                for i, (rule, at) in enumerate(steps):
                    variants = [(other, at) for other in type(rule) if other is not rule]
                    variants += [(rule, at[:-1])] if at else []
                    variants += [(rule, at + (sel,)) for sel in selectors]
                    for variant in variants:
                        bad = list(witness)
                        bad[side] = steps[:i] + (variant,) + steps[i + 1:]
                        if meets(source, target, bad):
                            same = replay(start, bad[side][: i + 1])
                            assert alpha_key(same) == alpha_key(replay(start, steps[: i + 1]))
                        else:
                            failed[direction] += 1
        assert min(failed.values()) > 100

    @pytest.mark.parametrize("seed", [0, 7])
    def test_no_step_is_searched(self, seed, monkeypatch):
        """Neither bridge suite searches at default size: every verdict is
        a recipe's."""
        searched = []
        for module, name in ((ub_reduction, "joinable"), (ub_reduction, "meet")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, real=real, **kw: searched.append(args) or real(*args, **kw))
        for suite in ("moggi-convertibility", "moggi-preservation"):
            report = run_suite(suite, GenConfig(seed=seed))
            assert report.passes == report.cases > 0 and not searched, suite

    @pytest.mark.parametrize("seed", [0, 7])
    def test_suite_without_witnesses_fails_every_case_with_a_step(self, seed, monkeypatch):
        """With no witness, a case with a step fails, and a case without
        one passes.  The failure names the rule, position and placed
        recipe of the first step of its printed, shrunk term."""
        cfg = GenConfig(seed=seed, cases=40)
        monkeypatch.setattr(moggi, "meets", lambda *args: False)
        report = run_suite("moggi-convertibility", cfg)
        first = {i: enumerate_steps(gen_term(cfg, i), DEFAULT_RULES)[:1] for i in range(cfg.cases)}
        assert report.inconclusive == 0 and report.passes == sum(not steps for steps in first.values())
        assert sorted(f["index"] for f in report.failures) == [i for i, steps in first.items() if steps]
        for failure in report.failures:
            step = enumerate_steps(parse_term(failure["term"]), DEFAULT_RULES)[0]
            q = image_position(step.position)
            recipe = [[f"{rule.value} at {'.'.join(q + at) or 'root'}" for rule, at in side] for side in RECIPES[step.rule]]
            assert (failure["rule"], failure["position"], failure["recipe"]) == (
                step.rule.value, step.position_str(), recipe)

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("suite", ["moggi-convertibility", "moggi-preservation"])
    def test_bridge_suites_pass_at_every_seed(self, suite, seed):
        report = run_suite(suite, GenConfig(seed=seed, max_size=25, cases=50))
        assert report.passes == report.cases == 50, report.failures[:1]


class TestGrammar:
    @pytest.mark.parametrize(
        "src",
        [
            "x",
            "\\x. x y",
            "let x = y in x",
            "let x = (let y = z in y) in x x",
            "(\\x. x) (\\y. y)",
            "f (g h) k",
        ],
    )
    def test_round_trip(self, src):
        e = m_parse(src)
        assert alpha_eq(m_parse(m_print(e)), e)

    def test_application_left_associative(self):
        assert m_parse("f g h") == MApp(MApp(MVar("f"), MVar("g")), MVar("h"))
