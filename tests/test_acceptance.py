"""Acceptance suite: one test per criterion, one printed verdict line each.

Run standalone with `pytest tests/test_acceptance.py -v -s` or through
`scripts/run_acceptance.py`.
"""
import itertools
import time

from ubcalc import filters, moggi, transform, typesys
from ubcalc.assignment import (
    C_OMEGA,
    check_derivation,
    infer_bounded,
    synth_derivation,
    typable_nontrivial,
)
from ubcalc.convergence import Status, big_step, small_step_converge
from ubcalc.harness import (
    GenConfig,
    critical_pair_diagrams,
    derive_convergent_typing,
    gen_mterm,
    gen_term,
    gen_terms,
    gen_typed_term,
    run_suite,
)
from ubcalc.reduction import (
    DEFAULT_RULES,
    Rule,
    ass_measure,
    enumerate_steps,
    joinable,
    normalize,
    parallel_reduces,
    parallel_successors,
    star,
)
from ubcalc.terms import (
    Bind,
    Lambda,
    Unit,
    Variable,
    alpha_eq,
    omega_c,
    parse_term,
    subst,
)
from ubcalc.typesys import (
    AtomTable,
    EMPTY_TABLE,
    brute_subtype_oracle,
    enumerate_types,
    leq_c,
    leq_v,
    parse_type,
    to_ctype,
    to_vtype,
)


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {state}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_01_critical_pair_goldens():
    t0 = time.time()
    diagrams = critical_pair_diagrams()
    ok = len(diagrams) == 4 and all(d["identical"] for d in diagrams)

    # term-for-term checks of the three overlap diagrams
    mm = Bind(Unit(Variable("x")), Variable("q"))
    t1 = Bind(Bind(Unit(Variable("v")), Lambda("x", mm)), Lambda("y2", Unit(Variable("y"))))
    beta = [s for s in enumerate_steps(t1) if s.rule is Rule.BETA_C][0].result
    ok = ok and beta == parse_term("(unit v * q) * (\\y2. unit y)")
    reassoc = [s for s in enumerate_steps(t1) if s.rule is Rule.ASS][0].result
    closed = [s for s in enumerate_steps(reassoc) if s.rule is Rule.BETA_C][0].result
    ok = ok and closed == beta  # syntactically identical

    # the double-step reassociation join, second side needs two steps
    L, M, N, P = (Unit(Variable(c)) for c in "lmnp")
    m1 = Bind(Bind(Bind(L, Lambda("x", M)), Lambda("y", N)), Lambda("z", P))
    m2 = [s for s in enumerate_steps(m1, {Rule.ASS}) if s.position == ()][0].result
    m3 = [s for s in enumerate_steps(m1, {Rule.ASS}) if s.position != ()][0].result
    m4 = Bind(L, Lambda("x", Bind(M, Lambda("y", Bind(N, Lambda("z", P))))))
    one_step_m2 = [s.result for s in enumerate_steps(m2, {Rule.ASS})]
    one_step_m3 = [s.result for s in enumerate_steps(m3, {Rule.ASS})]
    two_step_m3 = [
        s.result for t in one_step_m3 for s in enumerate_steps(t, {Rule.ASS})
    ]
    ok = ok and any(alpha_eq(t, m4) for t in one_step_m2)
    ok = ok and not any(alpha_eq(t, m4) for t in one_step_m3)
    ok = ok and any(alpha_eq(t, m4) for t in two_step_m3)
    elapsed = time.time() - t0
    verdict(1, "critical-pair goldens", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_02_confluence_sampling():
    t0 = time.time()
    cfg = GenConfig(seed=20260201, cases=1000, max_size=25, fuel=200)
    cases = inconclusive = 0
    failures = 0
    for m in gen_terms(cfg):
        cases += 1
        steps = enumerate_steps(m, DEFAULT_RULES)
        for a, b in itertools.combinations(steps, 2):
            found = joinable(a.result, b.result, cfg.fuel, DEFAULT_RULES)
            if found is False:
                failures += 1
                break
            if found is None:
                inconclusive += 1
                break
    elapsed = time.time() - t0
    ok = (
        cases >= 1000
        and failures == 0
        and inconclusive < cases * 0.01
        and elapsed < 60
    )
    verdict(
        2,
        "confluence sampling",
        ok,
        f"{cases} terms, {failures} not joinable, {inconclusive} inconclusive, {elapsed:.1f}s",
    )


def test_03_triangle_property():
    checked = failures = 0
    index = 0
    cfg = GenConfig(seed=31, cases=10_000, max_size=14)
    while checked < 300 and index < 3000:
        p = gen_term(cfg, index)
        index += 1
        succ = parallel_successors(p)
        if len(succ) > 400:
            continue
        dev = star(p)
        if all(parallel_reduces(q, dev) for q in succ):
            checked += 1
        else:
            failures += 1
    verdict(3, "triangle property", checked >= 300 and failures == 0, f"{checked} terms")


def test_04_ass_termination():
    cfg = GenConfig(seed=41, cases=100_000, max_size=25)
    ass_steps = 0
    failures = 0
    index = 0
    while ass_steps < 1000 and index < 5000:
        m = gen_term(cfg, index)
        index += 1
        before = ass_measure(m)
        for s in enumerate_steps(m, {Rule.ASS}):
            ass_steps += 1
            if ass_measure(s.result) >= before:
                failures += 1
        out = normalize(m, {Rule.ASS}, fuel=before)
        if not out.normal_form:
            failures += 1
    verdict(
        4,
        "ass termination",
        ass_steps >= 1000 and failures == 0,
        f"{ass_steps} ass steps over {index} terms",
    )


def test_05_big_small_and_omega_regression():
    cfg = GenConfig(seed=51, cases=1000, max_size=25)
    cases = disagreements = both_exhausted = 0
    for m in gen_terms(cfg):
        cases += 1
        b = big_step(m, 600)
        s = small_step_converge(m, 900)
        if b.status is Status.CONVERGES and s.status is Status.CONVERGES:
            if not alpha_eq(b.value, s.value):
                disagreements += 1
        elif b.status is Status.CONVERGES or s.status is Status.CONVERGES:
            disagreements += 1
        else:
            both_exhausted += 1
    om = omega_c()
    cyc = small_step_converge(om, 50, detect_cycles=True)
    found = infer_bounded((), om, enumerate_types(2, 2))
    omega_ok = cyc.status is Status.DIVERGES and all(c.is_top for c in found)
    verdict(
        5,
        "big-step/small-step agreement",
        cases >= 1000 and disagreements == 0 and omega_ok,
        f"{cases} terms, {both_exhausted} non-convergent on both sides",
    )


def test_06_subject_reduction_and_expansion():
    universe = enumerate_types(2, 2)
    cfg = GenConfig(seed=61, cases=300, max_size=14)
    sr_cases = sr_failures = 0
    for i in range(300):
        m, d = gen_typed_term(cfg, i)
        sr_cases += 1
        for step in enumerate_steps(m, DEFAULT_RULES):
            nd = transform.reduce_derivation(d, step)
            ok = (
                check_derivation(nd).valid
                and nd.conclusion.tipo == d.conclusion.tipo
                and alpha_eq(nd.conclusion.subject, step.result)
            )
            if not ok:
                sr_failures += 1

    se_steps = se_failures = 0
    for i in range(150):
        m = gen_term(cfg, 10_000 + i)
        for step in enumerate_steps(m, DEFAULT_RULES):
            tnt = typable_nontrivial(step.result, universe) if not step.result.fv else None
            d = synth_derivation((), step.result, tnt if tnt else C_OMEGA, universe[0])
            ed = transform.expand_derivation(m, step, d)
            se_steps += 1
            if not (
                check_derivation(ed).valid and ed.conclusion.tipo == d.conclusion.tipo
            ):
                se_failures += 1

    chain_cases = chain_failures = 0
    idx = 0
    while chain_cases < 60 and idx < 1500:
        m = gen_term(cfg, 20_000 + idx)
        idx += 1
        if big_step(m, 300).status is not Status.CONVERGES:
            continue
        chain_cases += 1
        d = derive_convergent_typing(m, 400)
        good = (
            d is not None
            and check_derivation(d).valid
            and alpha_eq(d.conclusion.subject, m)
            and typesys.eq_c(d.conclusion.tipo, parse_type("T Wv"))
        )
        if not good:
            chain_failures += 1
    ok = (
        sr_cases >= 300
        and sr_failures == 0
        and se_steps > 0
        and se_failures == 0
        and chain_cases >= 60
        and chain_failures == 0
    )
    verdict(
        6,
        "subject reduction/expansion",
        ok,
        f"{sr_cases} typed terms, {se_steps} expansions, {chain_cases} convergence chains",
    )


def test_07_subtyping_decider_vs_oracle():
    # The literal rank-2/width-2 universes over non-empty tables are
    # intractable to enumerate (thousands to millions of classes), so the
    # schedule covers rank 2 and width 2 across tables of 0, 1 and 2
    # atoms with exhaustive pair coverage on each universe.
    t0 = time.time()
    schedule = [
        (EMPTY_TABLE, 2, 2),
        (AtomTable(("a",)), 2, 1),
        (AtomTable(("a",)), 1, 2),
        (AtomTable(("a", "b")), 1, 2),
        (AtomTable(("a", "b"), frozenset({("a", "b")})), 1, 2),
    ]
    pairs = disagreements = inconclusive = 0
    for table, rank_bound, width_bound in schedule:
        vals, comps = enumerate_types(rank_bound, width_bound, table)
        vts = [to_vtype(v) for v in vals]
        cts = [to_ctype(c) for c in comps]
        for a, b in itertools.chain(
            itertools.product(vts, vts), itertools.product(cts, cts)
        ):
            pairs += 1
            want = brute_subtype_oracle(a, b, 300, table)
            if want is None:
                inconclusive += 1
                continue
            got = (leq_v if typesys.is_vtype(a) else leq_c)(a, b, table)
            if got != want:
                disagreements += 1
    mandatory = (
        leq_v(parse_type("Wv"), parse_type("Wv -> Wc"))
        and leq_v(parse_type("Wv -> Wc"), parse_type("Wv"))
        and not leq_c(parse_type("Wc"), parse_type("T Wv"))
    )
    elapsed = time.time() - t0
    ok = pairs >= 2000 and disagreements == 0 and mandatory and elapsed < 120
    verdict(
        7,
        "subtyping decider vs oracle",
        ok,
        f"{pairs} pairs, {inconclusive} inconclusive, {elapsed:.1f}s",
    )


def test_08_filter_monad_laws():
    checked = failures = 0

    def law_checks(comps, values, prev, table):
        nonlocal checked, failures
        unit_fn = filters.unit_as_function(prev, table)
        rank_n = max(g.rank for g in values)
        for dgen, fgen in itertools.product(values, values):
            checked += 1
            d, f = filters.ValFilt(dgen), filters.ValFilt(fgen)
            lhs = filters.bind_f(
                filters.project_comp(filters.unit_f(d), rank_n, table), f, table
            )
            if not typesys.eq_canon_c(lhs.gen, filters.apply_f(f, d, table).gen, table):
                failures += 1
        for cgen in comps:
            checked += 1
            a = filters.ComFilt(cgen)
            if not typesys.eq_canon_c(filters.bind_f(a, unit_fn, table).gen, a.gen, table):
                failures += 1
        for cgen, fgen, ggen in itertools.product(comps, values, values):
            checked += 1
            a, f, g = filters.ComFilt(cgen), filters.ValFilt(fgen), filters.ValFilt(ggen)
            lhs = filters.bind_f(filters.bind_f(a, f, table), g, table)
            comp_fn = filters.psi_f(
                {p: filters.bind_f(filters.apply_f(f, filters.ValFilt(p), table), g, table) for p in prev},
                table,
            )
            if not typesys.eq_canon_c(lhs.gen, filters.bind_f(a, comp_fn, table).gen, table):
                failures += 1

    one_atom = AtomTable(("a",))
    # full lattices wherever they are tractable
    for table, n in [(EMPTY_TABLE, 0), (EMPTY_TABLE, 1), (EMPTY_TABLE, 2), (one_atom, 0), (one_atom, 1)]:
        law_checks(
            filters.comp_lattice(n, table),
            filters.value_lattice(n, table),
            filters.value_lattice(max(0, n - 1), table),
            table,
        )
    # one-atom rank 2: the full lattice is intractable; every width-1
    # canonical class instead, over the full rank-1 argument lattice
    vals2, comps2 = enumerate_types(2, 1, one_atom)
    law_checks(comps2, vals2, filters.value_lattice(1, one_atom), one_atom)

    # retraction on every monotone table at ranks 0 and 1, both tables
    tables_checked = 0
    for table in (EMPTY_TABLE, one_atom):
        for n in (0, 1):
            points = list(filters.value_lattice(n, table))
            comps = list(filters.comp_lattice(n, table))
            for fn_table in filters.monotone_tables(points, comps, table):
                tables_checked += 1
                u = filters.psi_f(fn_table, table)
                back = filters.phi_f(u, points, table)
                if any(
                    not typesys.eq_canon_c(back[p].gen, fn_table[p].gen, table)
                    for p in points
                ):
                    failures += 1
    ok = failures == 0 and checked > 10_000 and tables_checked >= 499
    verdict(
        8,
        "filter monad laws",
        ok,
        f"{checked} law instances, {tables_checked} monotone tables",
    )


def test_09_model_soundness():
    # agreement is checked on the rank-n projections of the rank-(n+1)
    # interpretations; raw rank-n equality is reported, not asserted
    cfg = GenConfig(seed=91, cases=400, max_size=16, fuel=120)
    rep = run_suite("model-soundness", cfg)
    pairs = rep.cases
    om_ok = all(filters.interp_closed(omega_c(), n).gen.is_top for n in (1, 2))
    v_ok = all(
        not filters.interp_closed(Unit(Lambda("x", Unit(Variable("x")))), n).gen.is_top
        for n in (1, 2)
    )
    raw = rep.info.get("raw_rank_agreement", {})
    ok = pairs >= 200 and rep.ok and om_ok and v_ok
    verdict(
        9,
        "model soundness",
        ok,
        f"{pairs} convertible pairs, raw agreement {raw}",
    )


def test_10_moggi_bridge():
    # exhaustive preservation for every term of size <= 7 over one free
    # variable, plus larger random ones
    def mterms(size, env):
        if size <= 0:
            return
        if size == 1:
            for v in env:
                yield moggi.MVar(v)
            return
        binder = f"m{size}"
        for b in mterms(size - 1, env + [binder]):
            yield moggi.MLam(binder, b)
        for ls in range(1, size - 1):
            for f in mterms(ls, env):
                for a in mterms(size - 1 - ls, env):
                    yield moggi.MApp(f, a)
        for ls in range(1, size - 2):
            for bound in mterms(ls, env):
                for body in mterms(size - 2 - ls, env + [binder]):
                    yield moggi.MLet(binder, bound, body)

    def let_steps(e):
        """Each let-step of e, and whether its placed recipe meets."""
        source = moggi.from_moggi(e)
        for step in moggi.m_enumerate_steps(e):
            yield moggi.meets(source, moggi.from_moggi(step.result), moggi.let_recipe_at(e, step))

    exhaustive = steps = failures = 0
    for size in range(1, 8):
        for e in mterms(size, ["u"]):
            exhaustive += 1
            for met in let_steps(e):
                steps += 1
                failures += not met
    cfg = GenConfig(seed=101, max_size=14)
    for i in range(1000):
        for met in let_steps(gen_mterm(cfg, i)):
            steps += 1
            failures += not met

    conv_steps = conv_failures = 0
    tcfg = GenConfig(seed=102, cases=100_000, max_size=16)
    idx = 0
    while conv_steps < 500 and idx < 2000:
        m = gen_term(tcfg, idx)
        idx += 1
        for step in enumerate_steps(m, DEFAULT_RULES):
            conv_steps += 1
            conv_failures += not moggi.meets(moggi.to_moggi(m), moggi.to_moggi(step.result), moggi.recipe_at(step))

    sub_checked = sub_failures = 0
    vals = [
        moggi.MVar("q"),
        moggi.MLam("s", moggi.MVar("s")),
        moggi.MLam("s", moggi.MApp(moggi.MVar("s"), moggi.MVar("q"))),
    ]
    for size in range(1, 7):
        for e in mterms(size, ["x", "q"]):
            for v in vals:
                sub_checked += 1
                lhs = moggi.from_moggi(subst(e, "x", v))
                rhs = subst(moggi.from_moggi(e), "x", moggi.from_moggi_value(v))
                if not alpha_eq(lhs, rhs):
                    sub_failures += 1
    for size in range(1, 7):
        for m in _small_ub_terms(size, ["x", "q"]):
            for v in vals:
                sub_checked += 1
                w = moggi.from_moggi_value(v)
                lhs = moggi.to_moggi(subst(m, "x", w))
                rhs = subst(moggi.to_moggi(m), "x", moggi.to_moggi(w))
                if not alpha_eq(lhs, rhs):
                    sub_failures += 1

    ok = (
        exhaustive > 900
        and failures == 0
        and conv_steps >= 500
        and conv_failures == 0
        and sub_failures == 0
    )
    verdict(
        10,
        "moggi bridge",
        ok,
        f"{exhaustive} exhaustive terms, {steps} preservation steps, "
        f"{conv_steps} convertibility steps, {sub_checked} substitution instances",
    )


def _small_ub_terms(size, env):
    if size <= 0:
        return
    if size <= 2:
        for v in env:
            yield Unit(Variable(v))
        return
    binder = f"b{size}"
    for v in env:
        yield Unit(Variable(v))
    for body in _small_ub_terms(size - 2, env + [binder]):
        yield Unit(Lambda(binder, body))
    for ls in range(1, size - 1):
        for left in _small_ub_terms(ls, env):
            for name in env:
                yield Bind(left, Variable(name))
            for body in _small_ub_terms(max(0, size - 2 - ls), env + [binder]):
                yield Bind(left, Lambda(binder, body))
