"""Big-step evaluation as it stood before it became a loop: one Python
call per rule application, the fuel in a closure over a mutable budget,
and an exception to unwind when it runs out.  The code below is that
evaluator, copied verbatim.  Kept as the differential oracle of
``convergence.big_step``; it is bounded by the interpreter's recursion
limit, so deep inputs need a raised limit."""
from __future__ import annotations

from ubcalc.convergence import EvalOutcome, Status
from ubcalc.terms import Bind, Comp, Lambda, Unit, Value, subst


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
