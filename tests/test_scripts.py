"""Command-line checks of the repository's scripts."""
import importlib.util
import pathlib
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_bench_pairs_needs_two_pairs_before_any_run(monkeypatch, pairs):
    bench_pairs = _load_script("bench_pairs")

    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark run was started")

    monkeypatch.setattr(subprocess, "run", no_run)
    argv = ["--parent", ".", "--change", ".", "--workloads", "typed", "--seed", "1", "--pairs", pairs]
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(argv)
    assert exit_info.value.code == 2
