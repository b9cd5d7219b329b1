"""Seeded generators and the property suites behind the prop command.

Generators are deterministic functions of their configuration.  A suite
is a check registered with ``@suite``: the check maps one case to PASS,
INCONCLUSIVE (a fuel or search bound ran out; never a failure) or a
failure record, a dict of fields, possibly empty.  The suite's case
source yields (key, case) pairs, key being the fields that name the case
(``{"index": i}`` for the default source of generated unit/bind terms),
and may fill the report's ``info``.  The scaffold owns the rest: it runs
the check on every case, keeps the counts, and builds each failure
record as key plus the check's fields.  When the failing case is a
unit/bind term it also shrinks it, with "the check fails" as the
predicate, and reports the shrunk term as ``term`` with the fields the
check computes on it.
"""
from __future__ import annotations

import functools
import itertools
import random
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional

from . import filters, moggi, transform, typesys
from .assignment import Derivation, check_derivation, minimal_derivation, omega_node, typable_nontrivial, unit_node
from .convergence import Status, big_step, small_step_converge
from .reduction import (
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
from .terms import (
    Bind,
    Comp,
    Lambda,
    Unit,
    Value,
    Variable,
    alpha_eq,
    alpha_key,
    is_comp,
    print_term,
    subst,
    term_size,
)
from .typesys import (
    AtomTable,
    CInter,
    COmega,
    CTf,
    EMPTY_TABLE,
    VArrow,
    VAtom,
    VInter,
    VOmega,
    brute_subtype_oracle,
    enumerate_types,
    leq_v,
    print_type,
)


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    max_size: int = 25
    closed: bool = True
    fuel: int = 200
    rank_bound: int = 2
    width_bound: int = 2
    cases: int = 100
    atoms: AtomTable = EMPTY_TABLE


@dataclass
class PropertyReport:
    suite: str
    cases: int = 0
    passes: int = 0
    failures: list[dict] = field(default_factory=list)
    inconclusive: int = 0
    info: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------- generators


def _gen_value(rng: random.Random, budget: int, env: list[str]) -> Value:
    if budget <= 1:
        if env and rng.random() < 0.75:
            return Variable(rng.choice(env))
        x = f"g{rng.randrange(1000)}"
        return Lambda(x, Unit(Variable(x)))
    roll = rng.random()
    if env and roll < 0.3:
        return Variable(rng.choice(env))
    x = f"g{rng.randrange(1000)}"
    if roll < 0.45:
        # identity-shaped abstraction, fuel for id redexes
        return Lambda(x, Unit(Variable(x)))
    return Lambda(x, _gen_comp(rng, budget - 1, env + [x]))


def _gen_comp(rng: random.Random, budget: int, env: list[str]) -> Comp:
    if budget <= 2:
        return Unit(_gen_value(rng, budget - 1, env))
    roll = rng.random()
    if roll < 0.35:
        return Unit(_gen_value(rng, budget - 1, env))
    # bind chains biased toward redex-rich overlaps; left-heavy splits
    # make nested binds (reassociation redexes) common
    split = max(rng.randrange(1, budget - 1), rng.randrange(1, budget - 1))
    left = _gen_comp(rng, split, env)
    right = _gen_value(rng, budget - 1 - split, env)
    if not isinstance(right, Lambda) and rng.random() < 0.7:
        x = f"g{rng.randrange(1000)}"
        right = Lambda(x, Unit(Variable(x)))
    return Bind(left, right)


def gen_term(cfg: GenConfig, index: int = 0) -> Comp:
    """Deterministic sample #index of the configured stream."""
    rng = random.Random(f"{cfg.seed}:{index}:{cfg.max_size}:{cfg.closed}")
    size = rng.randrange(3, max(4, cfg.max_size + 1))
    env: list[str] = [] if cfg.closed else ["u", "w"]
    return _gen_comp(rng, size, env)


def gen_terms(cfg: GenConfig, count: Optional[int] = None) -> Iterator[Comp]:
    for i in range(count if count is not None else cfg.cases):
        yield gen_term(cfg, i)


def gen_typed_term(cfg: GenConfig, index: int = 0):
    """A closed term together with a checkable derivation of its
    strongest bounded type (the top class when nothing better exists)."""
    # every 50th sample of the stream, as the fixed-seed suite results expect
    d = minimal_derivation((), gen_term(cfg, index * 50), _universe(cfg)[0], cfg.atoms)
    return d.conclusion.subject, d


def _universe(cfg: GenConfig):
    return enumerate_types(cfg.rank_bound, cfg.width_bound, cfg.atoms)


def _gen_mterm(rng: random.Random, budget: int, env: list[str]) -> moggi.MTerm:
    if budget <= 1:
        if env:
            return moggi.MVar(rng.choice(env))
        x = f"g{rng.randrange(1000)}"
        return moggi.MLam(x, moggi.MVar(x))
    roll = rng.random()
    x = f"g{rng.randrange(1000)}"
    if roll < 0.3:
        return moggi.MLam(x, _gen_mterm(rng, budget - 1, env + [x]))
    if roll < 0.65:
        split = rng.randrange(1, budget)
        return moggi.MApp(
            _gen_mterm(rng, split, env), _gen_mterm(rng, budget - split, env)
        )
    split = rng.randrange(1, budget)
    return moggi.MLet(
        x, _gen_mterm(rng, split, env), _gen_mterm(rng, budget - split, env + [x])
    )


def gen_mterm(cfg: GenConfig, index: int = 0) -> moggi.MTerm:
    rng = random.Random(f"{cfg.seed}:m:{index}")
    return _gen_mterm(rng, rng.randrange(3, max(4, cfg.max_size + 1)), [])


def _gen_vtype(rng: random.Random, depth: int, table: AtomTable):
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        if table.atoms and rng.random() < 0.6:
            return VAtom(rng.choice(table.atoms))
        return VOmega()
    if roll < 0.55:
        return VArrow(_gen_vtype(rng, depth - 1, table), _gen_ctype(rng, depth - 1, table))
    return VInter(_gen_vtype(rng, depth - 1, table), _gen_vtype(rng, depth - 1, table))


def _gen_ctype(rng: random.Random, depth: int, table: AtomTable):
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        return COmega()
    if roll < 0.7:
        return CTf(_gen_vtype(rng, depth - 1, table))
    return CInter(_gen_ctype(rng, depth - 1, table), _gen_ctype(rng, depth - 1, table))


# ------------------------------------------------------------------ shrinking


def shrink_term(m: Comp, still_fails: Callable[[Comp], bool], rounds: int = 40) -> Comp:
    """Greedy counterexample minimization by subterm replacement; a
    candidate has no free variable that m lacks, so a closed
    counterexample shrinks to a closed one."""
    probe_value = Lambda("s", Unit(Variable("s")))

    def candidates(t: Comp) -> Iterator[Comp]:
        match t:
            case Bind(left, right):
                yield left
                yield Unit(right)
                for c in candidates(left):
                    yield Bind(c, right)
                if isinstance(right, Lambda):
                    yield Bind(left, probe_value)
            case Unit(Lambda(x, body)):
                if x not in body.fv:
                    yield body
                yield Unit(probe_value)
        return

    cur = m
    for _ in range(rounds):
        for cand in candidates(cur):
            if cand != cur and is_comp(cand) and cand.fv <= m.fv and term_size(cand) < term_size(cur):
                try:
                    if still_fails(cand):
                        cur = cand
                        break
                except Exception:
                    continue
        else:
            break
    return cur


# ------------------------------------------------------------------ scaffold

PASS, INCONCLUSIVE = "pass", "inconclusive"

Check = Callable[[GenConfig, Any], Any]
CaseSource = Callable[[GenConfig, dict], Iterable[tuple[dict, Any]]]

SUITES: dict[str, Callable[[GenConfig], PropertyReport]] = {}


def _indexed(gen: Callable[[GenConfig, int], Any]) -> CaseSource:
    """The case source gen(cfg, 0), gen(cfg, 1), ... of cfg.cases cases."""
    return lambda cfg, info: (({"index": i}, gen(cfg, i)) for i in range(cfg.cases))


_term_cases = _indexed(gen_term)


def suite(name: str, cases: CaseSource = _term_cases) -> Callable[[Check], Check]:
    """Register a check as the suite `name`, run over `cases`."""

    def register(check: Check) -> Check:
        SUITES[name] = functools.partial(_run_cases, name, cases, check)
        return check

    return register


def _run_cases(name: str, cases: CaseSource, check: Check, cfg: GenConfig) -> PropertyReport:
    rep = PropertyReport(name)
    for key, case in cases(cfg, rep.info):
        rep.cases += 1
        out = check(cfg, case)
        if out == PASS:
            rep.passes += 1
        elif out == INCONCLUSIVE:
            rep.inconclusive += 1
        else:
            if is_comp(case):
                small = shrink_term(case, lambda t: isinstance(check(cfg, t), dict))
                out = {"term": print_term(small), **check(cfg, small)}
            rep.failures.append({**key, **out})
    return rep


def run_suite(name: str, cfg: GenConfig) -> PropertyReport:
    try:
        run = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}") from None
    return run(cfg)


# -------------------------------------------------------------------- suites


@suite("confluence")
def _confluence(cfg: GenConfig, m: Comp):
    steps = enumerate_steps(m, DEFAULT_RULES)
    for a, b in itertools.combinations(steps, 2):
        found = joinable(a.result, b.result, cfg.fuel, DEFAULT_RULES)
        if found is None:
            return INCONCLUSIVE
        if found is False:
            return {"left": print_term(a.result), "right": print_term(b.result)}
    return PASS


@suite("triangle")
def _triangle(cfg: GenConfig, m: Comp):
    succ = parallel_successors(m)
    if len(succ) > 300:
        return INCONCLUSIVE
    dev = star(m)
    bad = next((q for q in succ if not parallel_reduces(q, dev)), None)
    return PASS if bad is None else {"successor": print_term(bad)}


def _ass_cases(cfg: GenConfig, info: dict) -> Iterator[tuple[dict, Comp]]:
    info["ass_steps_seen"] = 0
    for key, m in _term_cases(cfg, info):
        info["ass_steps_seen"] += len(enumerate_steps(m, {Rule.ASS}))
        yield key, m


@suite("ass-sn", _ass_cases)
def _ass_sn(cfg: GenConfig, m: Comp):
    before = ass_measure(m)
    decreasing = all(ass_measure(s.result) < before for s in enumerate_steps(m, {Rule.ASS}))
    return PASS if decreasing and normalize(m, {Rule.ASS}, fuel=before).normal_form else {}


def _reduct(t: Comp, rule: Rule, at_root: Optional[bool] = None) -> Optional[Comp]:
    """The first reduct of t by rule (at the root or below it, when at_root is given)."""
    steps = (s for s in enumerate_steps(t) if s.rule == rule and at_root in (None, s.position == ()))
    return next((s.result for s in steps), None)


def critical_pair_diagrams() -> list[dict]:
    """The three one-step overlap diagrams and the double-step
    reassociation join, with redex-free building blocks so each diagram
    has exactly the arrows it names."""
    # outer reassociation vs inner beta; the joins coincide syntactically
    mm = Bind(Unit(Variable("x")), Variable("q"))  # mentions the bound x
    nn = Unit(Variable("y"))
    t1 = Bind(Bind(Unit(Variable("v")), Lambda("x", mm)), Lambda("y2", nn))
    a, b = _reduct(t1, Rule.BETA_C), _reduct(t1, Rule.ASS, at_root=True)
    out = [{"name": "outer-ass-inner-beta", "term": t1, "identical": a == _reduct(b, Rule.BETA_C)}]
    # outer reassociation vs outer id, closed by one id inside
    M, N = Unit(Variable("m")), Unit(Variable("n"))
    t2 = Bind(Bind(M, Lambda("y", N)), Lambda("x", Unit(Variable("x"))))
    a, b = _reduct(t2, Rule.ID, at_root=True), _reduct(t2, Rule.ASS, at_root=True)
    out.append({"name": "outer-ass-outer-id", "term": t2, "identical": a == _reduct(b, Rule.ID, at_root=False)})
    # outer reassociation vs inner id, closed by one beta inside up to
    # renaming of the bound variable
    Ny = Bind(Unit(Variable("y")), Variable("q"))  # mentions the bound y
    t3 = Bind(Bind(M, Lambda("x", Unit(Variable("x")))), Lambda("y", Ny))
    a, b = _reduct(t3, Rule.ID), _reduct(t3, Rule.ASS, at_root=True)
    inner = _reduct(b, Rule.BETA_C, at_root=False)
    identical = inner is not None and alpha_key(a) == alpha_key(inner)
    out.append({"name": "outer-ass-inner-id", "term": t3, "identical": identical})
    # pure reassociation peak needing two steps on one side
    L, M, N, P = (Unit(Variable(ch)) for ch in "lmnp")
    m1 = Bind(Bind(Bind(L, Lambda("x", M)), Lambda("y", N)), Lambda("z", P))
    m2, m3 = _reduct(m1, Rule.ASS, at_root=True), _reduct(m1, Rule.ASS, at_root=False)
    m4 = Bind(L, Lambda("x", Bind(M, Lambda("y", Bind(N, Lambda("z", P))))))
    m2_next = [s.result for s in enumerate_steps(m2, {Rule.ASS})]
    m3_next = [s.result for s in enumerate_steps(m3, {Rule.ASS})]
    m3_two = [s2.result for t in m3_next for s2 in enumerate_steps(t, {Rule.ASS})]
    identical = (
        any(alpha_key(t) == alpha_key(m4) for t in m2_next)
        and all(alpha_key(t) != alpha_key(m4) for t in m3_next)
        and any(alpha_key(t) == alpha_key(m4) for t in m3_two)
    )
    out.append({"name": "reassociation-peak", "term": m1, "identical": identical})
    return out


def _diagram_cases(cfg: GenConfig, info: dict) -> Iterator[tuple[dict, dict]]:
    for diag in critical_pair_diagrams():
        yield {"diagram": diag["name"]}, diag


@suite("critical-pairs", _diagram_cases)
def _critical_pairs(cfg: GenConfig, diag: dict):
    return PASS if diag["identical"] else {"term": print_term(diag["term"])}


@suite("big-small")
def _big_small(cfg: GenConfig, m: Comp):
    b = big_step(m, cfg.fuel * 3)
    s = small_step_converge(m, cfg.fuel * 3)
    if b.status == Status.CONVERGES and s.status == Status.CONVERGES and alpha_eq(b.value, s.value):
        return PASS
    if b.status == Status.CONVERGES or s.status == Status.CONVERGES:
        return {"big": b.status.value, "small": s.status.value}
    return INCONCLUSIVE


@suite("characterization")
def _characterization(cfg: GenConfig, m: Comp):
    d = derive_convergent_typing(m, cfg.fuel * 3, cfg.atoms)
    if d is not None:
        return PASS if check_derivation(d, cfg.atoms).valid else {}
    # a term that does not converge passes only once a cycle proves it
    # divergent and bounded search finds no nontrivial type for it
    if small_step_converge(m, cfg.fuel * 3, detect_cycles=True).status is not Status.DIVERGES:
        return INCONCLUSIVE
    tipo = typable_nontrivial(m, _universe(cfg), cfg.atoms)
    return PASS if tipo is None else {"type": print_type(tipo)}


def derive_convergent_typing(m: Comp, fuel: int, table: AtomTable = EMPTY_TABLE) -> Optional[Derivation]:
    """Run m by small steps to unit V and expand a T-top typing of unit V
    back along the trace; None when m does not converge within fuel."""
    out = small_step_converge(m, fuel)
    if out.status is not Status.CONVERGES:
        return None
    d = unit_node(omega_node((), out.value))
    sources = [m] + [step.result for step in out.trace]
    for source, step in reversed(list(zip(sources, out.trace))):
        d = transform.expand_derivation(source, step, d, table)
    return d


@suite("subject-reduction", _indexed(gen_typed_term))
def _subject_reduction(cfg: GenConfig, case: tuple):
    m, d = case
    for step in enumerate_steps(m, DEFAULT_RULES):
        nd = transform.reduce_derivation(d, step, cfg.atoms)
        if not (
            check_derivation(nd, cfg.atoms).valid
            and nd.conclusion.tipo == d.conclusion.tipo
            and alpha_eq(nd.conclusion.subject, step.result)
        ):
            return {"term": print_term(m)}
    return PASS


@suite("subject-expansion")
def _subject_expansion(cfg: GenConfig, m: Comp):
    universe = _universe(cfg)[0]
    for step in enumerate_steps(m, DEFAULT_RULES):
        d = minimal_derivation((), step.result, universe, cfg.atoms)
        ed = transform.expand_derivation(m, step, d, cfg.atoms)
        if not (
            check_derivation(ed, cfg.atoms).valid
            and ed.conclusion.tipo == d.conclusion.tipo
            and alpha_eq(ed.conclusion.subject, m)
        ):
            return {}
    return PASS


def _type_pairs(cfg: GenConfig, info: dict) -> Iterator[tuple[dict, tuple]]:
    rng = random.Random(cfg.seed)
    for i in range(cfg.cases):
        yield {"index": i}, (_gen_vtype(rng, 3, cfg.atoms), _gen_vtype(rng, 3, cfg.atoms))


@suite("subtyping-oracle", _type_pairs)
def _subtyping_oracle(cfg: GenConfig, case: tuple):
    a, b = case
    want = brute_subtype_oracle(a, b, 300, cfg.atoms)
    if want is None:
        return INCONCLUSIVE
    got = leq_v(a, b, cfg.atoms)
    if got == want:
        return PASS
    return {"left": print_type(a), "right": print_type(b), "oracle": want, "decider": got}


def _convertible_pairs(cfg: GenConfig, info: dict) -> Iterator[tuple[dict, tuple]]:
    """Two reducts of one term, each carried up to two random steps on.
    Also reports, not asserted, how often the unprojected rank-n
    interpretations of a pair agree."""
    rng = random.Random(cfg.seed)
    raw_agree = info["raw_rank_agreement"] = {1: 0, 2: 0}
    for i in range(cfg.cases):
        steps = enumerate_steps(gen_term(cfg, i), DEFAULT_RULES)
        if len(steps) < 2:
            continue
        pair = []
        for step in rng.sample(steps, 2):
            cur = step.result
            for _ in range(rng.randrange(0, 3)):
                nxt = enumerate_steps(cur, DEFAULT_RULES)
                if not nxt:
                    break
                cur = rng.choice(nxt).result
            pair.append(cur)
        pa, pb = pair
        for n in (1, 2):
            ra = filters.interp_closed(pa, n, cfg.atoms)
            rb = filters.interp_closed(pb, n, cfg.atoms)
            raw_agree[n] += typesys.eq_canon_c(ra.gen, rb.gen, cfg.atoms)
        yield {"index": i}, (pa, pb)


@suite("model-soundness", _convertible_pairs)
def _model_soundness(cfg: GenConfig, case: tuple):
    pa, pb = case
    for n in (1, 2):
        ia = filters.project_comp(filters.interp_closed(pa, n + 1, cfg.atoms), n, cfg.atoms)
        ib = filters.project_comp(filters.interp_closed(pb, n + 1, cfg.atoms), n, cfg.atoms)
        if not typesys.eq_canon_c(ia.gen, ib.gen, cfg.atoms):
            return {"left": print_term(pa), "right": print_term(pb)}
    return PASS


def _substitution_cases(cfg: GenConfig, info: dict) -> Iterator[tuple[dict, tuple]]:
    """Open terms with u free, each with a closed value for u; at most
    30 draws per case."""
    open_cfg = GenConfig(seed=cfg.seed + 1, max_size=min(cfg.max_size, 12), closed=False)
    value_cfg = GenConfig(seed=cfg.seed + 2, max_size=8, closed=True)

    draws = ((probe, gen_term(open_cfg, probe - 1)) for probe in range(1, cfg.cases * 30 + 1))
    for probe, m in itertools.islice(((p, m) for p, m in draws if "u" in m.fv), cfg.cases):
        mv = gen_term(value_cfg, probe)
        yield {"probe": probe}, (m, mv.value if isinstance(mv, Unit) else Lambda("s0", mv))


@suite("interp-substitution", _substitution_cases)
def _interp_substitution(cfg: GenConfig, case: tuple):
    m, vv = case
    for n in (1, 2):
        dv = filters.interp_value(vv, {}, n, cfg.atoms)
        env = {x: filters.BOTTOM_V for x in m.fv if x != "u"}
        lhs = filters.interp_comp(subst(m, "u", vv), env, n, cfg.atoms)
        rhs = filters.interp_comp(m, {**env, "u": dv}, n, cfg.atoms)
        if not typesys.eq_canon_c(lhs.gen, rhs.gen, cfg.atoms):
            return {"term": print_term(m), "value": print_term(vv)}
    return PASS


def _lattice_cases(cfg: GenConfig, info: dict) -> Iterator[tuple[dict, tuple]]:
    for table in (EMPTY_TABLE, AtomTable(("a",))):
        for n in (0, 1, 2):
            if table.atoms and n == 2:
                continue  # the full one-atom rank-2 lattice is intractable
            yield {"table": table.atoms, "rank": n}, (table, n)


@suite("monad-laws", _lattice_cases)
def _monad_laws(cfg: GenConfig, case: tuple):
    table, n = case
    values = [filters.ValFilt(g) for g in filters.value_lattice(n, table)]
    comps = [filters.ComFilt(g) for g in filters.comp_lattice(n, table)]
    prev = filters.value_lattice(max(0, n - 1), table)
    unit_fn = filters.unit_as_function(prev, table)

    def bind(a, f):
        return filters.bind_f(a, f, table)

    def apply(f, d):
        return filters.apply_f(f, d, table)

    def sides():
        for d in values:  # left unit
            for f in values:
                yield bind(filters.project_comp(filters.unit_f(d), n, table), f), apply(f, d)
        for a in comps:  # right unit
            yield bind(a, unit_fn), a
        for a in comps:  # associativity
            for f in values:
                for g in values:
                    then = filters.psi_f({p: bind(apply(f, filters.ValFilt(p)), g) for p in prev}, table)
                    yield bind(bind(a, f), g), bind(a, then)

    if all(typesys.eq_canon_c(lhs.gen, rhs.gen, table) for lhs, rhs in sides()):
        return PASS
    return {}


def _unmet(step, recipe) -> dict:
    """The failure fields of a bridge step whose placed recipe does not
    meet: its rule, its position, and each side of the recipe."""
    return {"rule": step.rule.value, "position": step.position_str(),
            "recipe": [[f"{rule.value} at {'.'.join(at) or 'root'}" for rule, at in side] for side in recipe]}


def _simulated(source, steps, image, recipe_at):
    """PASS when each step's placed recipe meets from the image of source
    and from the image of the step's result (``moggi.meets``), else the
    failure fields of the first step whose recipe does not.  The images
    share a translation memo: a step result's costs only its spine."""
    image = functools.partial(image, memo={})
    source_image = image(source)
    for step in steps:
        recipe = recipe_at(step)
        if not moggi.meets(source_image, image(step.result), recipe):
            return _unmet(step, recipe)
    return PASS


@suite("moggi-preservation", _indexed(gen_mterm))
def _moggi_preservation(cfg: GenConfig, e: moggi.MTerm):
    out = _simulated(e, moggi.m_enumerate_steps(e), moggi.from_moggi, functools.partial(moggi.let_recipe_at, e))
    return out if out == PASS else {"term": moggi.m_print(e), **out}


@suite("moggi-convertibility")
def _moggi_convertibility(cfg: GenConfig, m: Comp):
    return _simulated(m, enumerate_steps(m, DEFAULT_RULES), moggi.to_moggi, moggi.recipe_at)
