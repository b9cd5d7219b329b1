"""Per-layer tracing from outside the program.

A span is recorded only where a call crosses a module boundary: every
name one ubcalc layer imported from another (``from .terms import subst``
binds a separate name in each importing module) is replaced by a wrapper,
and every layer module another layer holds as an attribute (``moggi``
keeps ``reduction`` as ``ub_reduction``) is replaced by a proxy that hands
out wrappers.  Calls inside a module, recursion included, stay unwrapped.

A span's self time is its duration minus the time covered by its child
spans.  Spans are folded into per-function totals as they close, so the
tracer's memory does not grow with the number of calls.

A few counts live inside one module and cannot be seen at a boundary:
the steps built by ``reduction.enumerate_steps`` when ``normalize`` calls
it, and the steps built by ``moggi.m_enumerate_steps`` inside the bounded
searches.  Those functions, and the one-step strategies that own the
calls, get a hook in their own module that records counts (and the time
of ``normalize``) only, never a span.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
import types

LAYERS = (
    "terms",
    "reduction",
    "convergence",
    "typesys",
    "assignment",
    "transform",
    "derivfile",
    "filters",
    "moggi",
    "harness",
)

# Several functions of one layer are reported under one name.
GROUPS = {
    ("typesys", "normalize_vtype"): "typesys.normalize",
    ("typesys", "normalize_ctype"): "typesys.normalize",
    ("typesys", "leq_v"): "typesys.leq",
    ("typesys", "leq_c"): "typesys.leq",
    ("typesys", "leq_canon_v"): "typesys.leq",
    ("typesys", "leq_canon_c"): "typesys.leq",
    ("typesys", "eq_v"): "typesys.leq",
    ("typesys", "eq_c"): "typesys.leq",
    ("typesys", "eq_canon_v"): "typesys.leq",
    ("typesys", "eq_canon_c"): "typesys.leq",
    ("typesys", "meet_canon_v"): "typesys.meet",
    ("typesys", "meet_canon_c"): "typesys.meet",
    ("typesys", "meet_all_canon_c"): "typesys.meet",
    ("moggi", "to_moggi"): "moggi.translate",
    ("moggi", "from_moggi"): "moggi.translate",
    ("moggi", "from_moggi_comp"): "moggi.translate",
    ("moggi", "from_moggi_value"): "moggi.translate",
}

# Strategies that take one step of the reducts they build; every other
# caller of enumerate_steps (breadth-first search, the suites' loops over
# all steps) consumes every reduct it is given.
ONE_STEP = frozenset({"normalize", "small_step_converge"})


def layer_modules() -> dict[str, types.ModuleType]:
    return {name: importlib.import_module(f"ubcalc.{name}") for name in LAYERS}


def _is_traceable(value) -> bool:
    # lru_cache-wrapped functions (filters.value_lattice) are not plain functions
    return inspect.isfunction(value) or isinstance(value, functools._lru_cache_wrapper)


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "raised")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.raised = 0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, int] = {}
        self.normalize_s = 0.0
        self.lattices: dict[tuple, int] = {}
        self._stack: list[list[float]] = []
        self._owners: list[str] = []
        self._wrappers: dict[tuple[str, str], object] = {}

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # ------------------------------------------------------------- spans

    def wrap(self, layer: str, fn):
        """The one span wrapper for fn, shared by every importing module."""
        key = (layer, fn.__name__)
        hit = self._wrappers.get(key)
        if hit is not None:
            return hit
        stat = self.stats.setdefault(GROUPS.get(key, f"{layer}.{fn.__name__}"), Stat())
        post = _POST.get(key)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if post is not None:
                post(self, args, kwargs, result)
            return result

        self._wrappers[key] = span
        return span

    # ------------------------------------------------------ counting hooks

    def _hook_enumerate_steps(self, fn):
        @functools.wraps(fn)
        def hook(*args, **kwargs):
            steps = fn(*args, **kwargs)
            owner = self._owners[-1] if self._owners else ""
            taken = min(len(steps), 1) if owner in ONE_STEP else len(steps)
            self.count("reduction.enumerate_steps.calls")
            self.count("reduction.steps_built", len(steps))
            self.count("reduction.steps_taken", taken)
            if owner == "normalize":
                self.count("reduction.normalize.steps_taken", taken)
            return steps

        return hook

    def _hook_owner(self, fn):
        """Mark the calls of enumerate_steps made while fn runs as fn's;
        time normalize in all its calls, boundary or not."""
        owner = fn.__name__
        timed = owner == "normalize"

        @functools.wraps(fn)
        def hook(*args, **kwargs):
            self._owners.append(owner)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if timed:
                    self.normalize_s += time.perf_counter() - t0
                self._owners.pop()

        return hook

    def _hook_m_enumerate_steps(self, fn):
        depth = [0]

        @functools.wraps(fn)
        def hook(*args, **kwargs):
            depth[0] += 1
            try:
                steps = fn(*args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                self.count("moggi.m_steps_built", len(steps))
            return steps

        return hook

    # ----------------------------------------------------------- install

    def install(self) -> types.SimpleNamespace:
        """Wrap every cross-layer binding; return the layers as the
        benchmark should call them (through the same wrappers)."""
        mods = layer_modules()
        red, mog = mods["reduction"], mods["moggi"]
        # Counting hooks go into the home module first, so that the span
        # wrappers built below call through them.
        red.enumerate_steps = self._hook_enumerate_steps(red.enumerate_steps)
        red.normalize = self._hook_owner(red.normalize)
        conv = mods["convergence"]
        conv.small_step_converge = self._hook_owner(conv.small_step_converge)
        mog.m_enumerate_steps = self._hook_m_enumerate_steps(mog.m_enumerate_steps)

        home = {id(m): name for name, m in mods.items()}
        for caller, mod in mods.items():
            for name, value in list(vars(mod).items()):
                if isinstance(value, types.ModuleType):
                    layer = home.get(id(value))
                    if layer is not None and layer != caller:
                        setattr(mod, name, LayerProxy(self, layer, value))
                elif _is_traceable(value) and not name.startswith("_"):
                    layer = (value.__module__ or "").removeprefix("ubcalc.")
                    if layer in mods and layer != caller:
                        setattr(mod, name, self.wrap(layer, getattr(mods[layer], value.__name__)))
        return types.SimpleNamespace(
            **{name: LayerProxy(self, name, m) for name, m in mods.items()}
        )

    # ----------------------------------------------------------- metrics

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and seconds, keyed by metric name."""
        out: dict[str, float] = {}

        def stat(name: str) -> Stat:
            return self.stats.get(name, Stat())

        for name in (
            "terms.subst", "terms.alpha_key", "reduction.joinable", "typesys.normalize",
            "typesys.leq", "typesys.meet", "assignment.synth_derivation",
            "assignment.check_derivation", "transform.reduce_derivation",
            "transform.expand_derivation", "filters.interp_closed", "moggi.convertible",
        ):
            out[f"{name}.calls"] = stat(name).calls
        for name in (
            "terms.subst", "terms.alpha_key", "terms.parse_term", "terms.print_term",
            "reduction.enumerate_steps", "reduction.joinable", "reduction.parallel_successors",
            "convergence.big_step", "convergence.small_step_converge", "typesys.normalize",
            "typesys.leq", "typesys.meet", "typesys.enumerate_types",
            "assignment.synth_derivation", "assignment.check_derivation",
            "assignment.typable_nontrivial", "transform.reduce_derivation",
            "transform.expand_derivation", "derivfile.print_derivation",
            "derivfile.parse_derivation", "filters.interp_closed", "moggi.translate",
            "moggi.check_preservation", "moggi.convertible", "harness.gen_typed_term",
        ):
            out[f"{name}.self_s"] = stat(name).self_s

        c = self.counts
        out["reduction.enumerate_steps.calls"] = c.get("reduction.enumerate_steps.calls", 0)
        out["reduction.steps_built"] = c.get("reduction.steps_built", 0)
        out["reduction.steps_taken"] = c.get("reduction.steps_taken", 0)
        out["reduction.steps_used_ratio"] = _ratio(out["reduction.steps_taken"], out["reduction.steps_built"])
        out["reduction.normalize.steps_per_s"] = _ratio(
            c.get("reduction.normalize.steps_taken", 0), self.normalize_s
        )
        out["reduction.joinable.inconclusive_share"] = _ratio(
            c.get("reduction.joinable.inconclusive", 0), stat("reduction.joinable").calls
        )
        conv_s = stat("convergence.big_step").total_s + stat("convergence.small_step_converge").total_s
        out["convergence.steps_per_s"] = _ratio(c.get("convergence.steps", 0), conv_s)
        out["assignment.unsynthesizable_share"] = _ratio(
            stat("assignment.synth_derivation").raised, stat("assignment.synth_derivation").calls
        )
        out["filters.value_lattice.build_s"] = stat("filters.value_lattice").total_s
        out["filters.value_lattice.points"] = sum(self.lattices.values())
        out["moggi.convertible.inconclusive_share"] = _ratio(
            c.get("moggi.convertible.inconclusive", 0), stat("moggi.convertible").calls
        )
        out["moggi.m_steps_built"] = c.get("moggi.m_steps_built", 0)
        out.update(memo_metrics())
        return out


def memo_metrics() -> dict[str, float]:
    """Hit ratio and size of the type layer's lru caches, read after a
    pass; a cache that no longer exists is left out."""
    typesys = importlib.import_module("ubcalc.typesys")
    out: dict[str, float] = {}
    for metric, attr in (("leq_memo", "_leq_canon_v_cached"), ("meet_memo", "_meet_canon_v_cached")):
        info = getattr(getattr(typesys, attr, None), "cache_info", None)
        if info is None:
            continue
        ci = info()
        out[f"typesys.{metric}.hit_ratio"] = _ratio(ci.hits, ci.hits + ci.misses)
        out[f"typesys.{metric}.size"] = ci.currsize
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class LayerProxy:
    """Stands in for a layer module: functions come back wrapped, every
    other attribute (classes, constants) unchanged."""

    def __init__(self, tracer: Tracer, layer: str, module: types.ModuleType) -> None:
        self._tracer = tracer
        self._layer = layer
        self._module = module

    def __getattr__(self, name: str):
        value = getattr(self._module, name)
        if _is_traceable(value) and not name.startswith("_"):
            return self._tracer.wrap(self._layer, value)
        return value


# Inspect a result at the boundary: fuel-bound verdicts, step counts and
# lattice sizes.


def _post_joinable(tracer: Tracer, args, kwargs, result) -> None:
    if result is None:
        tracer.count("reduction.joinable.inconclusive")


def _post_convertible(tracer: Tracer, args, kwargs, result) -> None:
    if result is None:
        tracer.count("moggi.convertible.inconclusive")


def _post_eval(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("convergence.steps", result.steps)


def _post_value_lattice(tracer: Tracer, args, kwargs, result) -> None:
    tracer.lattices[args + tuple(sorted(kwargs.items()))] = len(result)


_POST = {
    ("reduction", "joinable"): _post_joinable,
    ("moggi", "convertible"): _post_convertible,
    ("convergence", "big_step"): _post_eval,
    ("convergence", "small_step_converge"): _post_eval,
    ("filters", "value_lattice"): _post_value_lattice,
}
