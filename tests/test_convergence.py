import sys

import pytest
from hypothesis import given, settings

from conftest import CLOSED_COMPS

import reference_convergence as reference
from ubcalc.convergence import Status, big_step, small_step_converge
from ubcalc.harness import GenConfig, gen_terms
from ubcalc.reduction import replay
from ubcalc.terms import Bind, Lambda, Unit, Variable, alpha_eq, omega_c, parse_term, print_term


def test_unit_converges_immediately():
    out = big_step(parse_term("unit (\\x. unit x)"), fuel=5)
    assert out.status is Status.CONVERGES
    assert out.value == Lambda("x", Unit(Variable("x")))


def test_omega_exhausts_any_fuel():
    for fuel in (1, 10, 500):
        assert big_step(omega_c(), fuel).status is Status.FUEL_EXHAUSTED


def test_two_rule_tree():
    # hand derivation: unit (\z.unit z) converges to \z.unit z, then the
    # substituted body unit x becomes unit (\z.unit z)
    t = parse_term("unit (\\z. unit z) * (\\x. unit x)")
    out = big_step(t, fuel=10)
    assert out.status is Status.CONVERGES
    assert alpha_eq(out.value, parse_term("\\z. unit z"))
    small = small_step_converge(t, fuel=10)
    assert small.status is Status.CONVERGES
    assert alpha_eq(small.value, out.value)


def test_open_term_rejected():
    out = big_step(parse_term("unit x"), fuel=5)
    assert out.status is Status.OPEN_TERM


def test_small_step_id_route():
    out = small_step_converge(parse_term("unit v * (\\x. unit x)"), fuel=10)
    assert out.status is Status.OPEN_TERM  # v free: guarded
    out = small_step_converge(parse_term("unit (\\w. unit w) * (\\x. unit x)"), fuel=10)
    assert out.status is Status.CONVERGES


def test_cycle_detection_reports_divergence():
    out = small_step_converge(omega_c(), fuel=50, detect_cycles=True)
    assert out.status is Status.DIVERGES


@given(CLOSED_COMPS)
@settings(max_examples=80)
def test_big_small_agreement(m):
    b = big_step(m, fuel=500)
    s = small_step_converge(m, fuel=800)
    if b.status is Status.CONVERGES or s.status is Status.CONVERGES:
        assert b.status is Status.CONVERGES and s.status is Status.CONVERGES
        assert alpha_eq(b.value, s.value)


@given(CLOSED_COMPS)
@settings(max_examples=40)
def test_determinacy_across_fuels(m):
    lo = big_step(m, fuel=60)
    hi = big_step(m, fuel=600)
    if lo.status is Status.CONVERGES:
        assert hi.status is Status.CONVERGES
        assert alpha_eq(lo.value, hi.value)


# The loop evaluator against the recursive one it replaced
# (reference_convergence): same status, value up to alpha, and steps.

GRID_FUELS = (0, 1, 3, 10, 60, 600)


def _same_big_step(m, fuel):
    got, want = big_step(m, fuel), reference.big_step(m, fuel)
    assert (got.status, got.steps, got.trace) == (want.status, want.steps, ()), print_term(m)
    if want.value is None:
        assert got.value is None, print_term(m)
    else:
        assert alpha_eq(got.value, want.value), print_term(m)


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "open"])
@pytest.mark.parametrize("max_size", [10, 25, 40])
def test_loop_big_step_matches_the_recursive_one(max_size, closed):
    for seed in range(6):
        for m in gen_terms(GenConfig(seed=seed, max_size=max_size, closed=closed), 150):
            for fuel in GRID_FUELS:
                _same_big_step(m, fuel)


def _bind_chain(n):
    m = Unit(Lambda("z", Unit(Variable("z"))))
    for i in range(n):
        m = Bind(m, Lambda(f"a{i}", Unit(Variable(f"a{i}"))))
    return m


def test_loop_big_step_matches_the_recursive_one_on_a_deep_chain():
    m = _bind_chain(1200)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)  # the recursive oracle nests one call per bind
    try:
        for fuel in (1000, 2400, 2401, 5000):
            _same_big_step(m, fuel)
    finally:
        sys.setrecursionlimit(limit)
    assert big_step(_bind_chain(10_000), 50_000).status is Status.CONVERGES


# The small-step trace is a witness: it replays, by (rule, position), to
# unit V on convergence and to a repeated state on divergence.

def _trace_cases():
    terms = [m for seed in (0, 7) for m in gen_terms(GenConfig(seed=seed, cases=60))]
    late_loop = parse_term(r"unit (\y. unit y) * (\z. unit (\x. unit x * x) * (\x. unit x * x))")
    return terms + [omega_c(), late_loop, _bind_chain(12)]


@pytest.mark.parametrize("detect_cycles", [False, True], ids=["plain", "cycles"])
@pytest.mark.parametrize("fuel", [3, 60])
def test_a_small_step_trace_replays_to_its_verdict(fuel, detect_cycles):
    seen = set()
    for m in _trace_cases():
        out = small_step_converge(m, fuel, detect_cycles)
        seen.add(out.status)
        states = [m, *(step.result for step in out.trace)]
        assert alpha_eq(replay(m, [(s.rule, s.position) for s in out.trace]), states[-1]), print_term(m)
        assert out.steps == len(out.trace), print_term(m)
        if out.status is Status.CONVERGES:
            assert alpha_eq(states[-1], Unit(out.value)), print_term(m)
        elif out.status is Status.DIVERGES:
            assert any(alpha_eq(states[-1], s) for s in states[:-1]), print_term(m)
        else:
            assert len(out.trace) == fuel, print_term(m)
    assert Status.CONVERGES in seen and (Status.DIVERGES in seen) == detect_cycles
