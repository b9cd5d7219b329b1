"""Convergence of closed computations, by two evaluators that agree.

``big_step`` applies the two convergence rules (``unit V`` converges to
``V``; ``M * \\x.N`` to what ``N[V/x]`` converges to once ``M`` converges
to ``V``) in a loop over a stack of pending continuations, so no
recursion limit bounds it.  ``small_step_converge`` reduces
leftmost-outermost to a term ``unit V`` and returns its steps: the path
``harness.derive_convergent_typing`` expands a typing along or, for
DIVERGES, the path to the repeated state.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .reduction import DEFAULT_RULES, Step, first_step
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
    trace: tuple[Step, ...] = ()  # small-step only


def big_step(m: Comp, fuel: int = 1000) -> EvalOutcome:
    """Evaluate a closed computation by the two convergence rules; fuel
    counts rule applications.  Divergence shows only as FUEL_EXHAUSTED."""
    if m.fv:
        return EvalOutcome(Status.OPEN_TERM)
    pending: list[Lambda] = []  # continuations awaiting their left side's value
    t = m
    for used in range(fuel):
        match t:
            case Unit(v):
                if not pending:
                    return EvalOutcome(Status.CONVERGES, v, steps=used + 1)
                k = pending.pop()
                t = subst(k.body, k.binder, v)
            case Bind(left, Lambda() as k):
                pending.append(k)
                t = left
            case _:
                # closed binds always carry an abstraction on the right
                raise AssertionError(f"stuck closed computation: {t!r}")
    return EvalOutcome(Status.FUEL_EXHAUSTED, steps=fuel)


def small_step_converge(
    m: Comp,
    fuel: int = 1000,
    detect_cycles: bool = False,
    rules=DEFAULT_RULES,
) -> EvalOutcome:
    """Reduce leftmost-outermost, one ``first_step`` at a time, until a
    term of shape unit V appears; the outcome's trace holds the steps.

    With detect_cycles, returns DIVERGES when the reduction revisits an
    alpha-equivalent prior state; the trace then ends at that state.
    """
    if m.fv:
        return EvalOutcome(Status.OPEN_TERM)
    seen: set[tuple] = set()
    trace: list[Step] = []
    cur = m
    for used in range(fuel + 1):
        if isinstance(cur, Unit):
            return EvalOutcome(Status.CONVERGES, cur.value, used, tuple(trace))
        if detect_cycles:
            k = alpha_key(cur)
            if k in seen:
                return EvalOutcome(Status.DIVERGES, steps=used, trace=tuple(trace))
            seen.add(k)
        if used == fuel:
            break
        step = first_step(cur, rules)
        if step is None:
            # closed binds always have a root redex
            raise AssertionError(f"stuck closed computation: {cur!r}")
        trace.append(step)
        cur = step.result
    return EvalOutcome(Status.FUEL_EXHAUSTED, steps=fuel, trace=tuple(trace))
