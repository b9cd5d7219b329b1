"""Big-step convergence for closed computations.

Two rules: ``unit V`` converges to ``V``; ``M * \\x.N`` converges to
whatever ``N[V/x]`` converges to once ``M`` converges to ``V``.  The
relation agrees with small-step reduction to a term of shape ``unit V``.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .reduction import DEFAULT_RULES, first_step
from .terms import Bind, Comp, Lambda, Unit, Value, alpha_key, subst


class Status(enum.Enum):
    CONVERGES = "converges"
    FUEL_EXHAUSTED = "fuel-exhausted"
    DIVERGES = "diverges"
    OPEN_TERM = "open-term"


@dataclass(frozen=True, slots=True)
class EvalOutcome:
    status: Status
    value: Optional[Value] = None
    steps: int = 0


class _OutOfFuel(Exception):
    pass


def big_step(m: Comp, fuel: int = 1000) -> EvalOutcome:
    """Evaluate a closed computation by the two convergence rules.

    Fuel counts rule applications.  Divergence is only ever reported as
    FUEL_EXHAUSTED here; cycle detection lives in small_step_converge.
    """
    if m.fv:
        return EvalOutcome(Status.OPEN_TERM)
    budget = [fuel]

    def go(t: Comp) -> Value:
        if budget[0] <= 0:
            raise _OutOfFuel
        budget[0] -= 1
        match t:
            case Unit(v):
                return v
            case Bind(left, Lambda(x, body)):
                v = go(left)
                return go(subst(body, x, v))
        # closed binds always carry an abstraction on the right
        raise AssertionError(f"stuck closed computation: {t!r}")

    try:
        v = go(m)
    except _OutOfFuel:
        return EvalOutcome(Status.FUEL_EXHAUSTED, steps=fuel)
    return EvalOutcome(Status.CONVERGES, v, steps=fuel - budget[0])


def small_step_converge(
    m: Comp,
    fuel: int = 1000,
    detect_cycles: bool = False,
    rules=DEFAULT_RULES,
) -> EvalOutcome:
    """Reduce leftmost-outermost, one ``first_step`` at a time, until a
    term of shape unit V appears.

    With detect_cycles, returns DIVERGES when the reduction revisits an
    alpha-equivalent prior state.
    """
    if m.fv:
        return EvalOutcome(Status.OPEN_TERM)
    seen: set[tuple] = set()
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
        step = first_step(cur, rules)
        if step is None:
            # closed binds always have a root redex
            raise AssertionError(f"stuck closed computation: {cur!r}")
        cur = step.result
    return EvalOutcome(Status.FUEL_EXHAUSTED, steps=fuel)
