"""The benchmark's items as a test: every item of every workload at seed
0 must give a pass verdict through the layer modules the tracer wraps,
and the traced per-layer counts must repeat across string-hash seeds."""
import importlib.util
import pathlib
import subprocess
import sys
import types

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["typed", "rewrite", "bridge", "semantics"])
def test_every_benchmark_item_passes(workload):
    workloads, tracing = _load("workloads"), _load("tracing")
    api = types.SimpleNamespace(**tracing.layer_modules())
    items = workloads.build(workloads.plan(workload, 0))
    verdicts = [item.run(api) for item in items]
    assert verdicts == [workloads.PASS] * len(items), [i.kind for i, v in zip(items, verdicts) if v != workloads.PASS]


def test_traced_counts_repeat():
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "check_counts.py")], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
