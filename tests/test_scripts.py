"""Command-line checks of the repository's scripts."""
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from ubcalc import filters, typesys

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


def test_bench_pairs_compiles_both_checkouts_before_the_first_run(monkeypatch, tmp_path):
    bench_pairs = _load_script("bench_pairs")
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    calls = []

    def fake_run(cmd, cwd=None, **kwargs):
        # stands in for every command: no benchmark run starts
        calls.append((pathlib.Path(cwd), cmd[1:3]))
        out = json.dumps({"metrics": {m: {"value": 1.0} for m in metrics}, "failed": 0, "attempted": 1})
        return subprocess.CompletedProcess(cmd, 0, out + "\n", "")

    monkeypatch.setattr(subprocess, "run", fake_run)
    argv = ["--parent", str(tmp_path), "--change", str(ROOT), "--workloads", "typed", "--seed", "1",
            "--pairs", "2", "--out", str(tmp_path / "out.json")]
    assert bench_pairs.main(argv) == 0
    assert calls[:2] == [(tmp_path, ["-m", "compileall"]), (ROOT, ["-m", "compileall"])]
    assert all(args[0] == "perfbench/run.py" for _, args in calls[2:]) and len(calls) == 6


@pytest.mark.parametrize(
    "spec,rank,code,out",
    [
        ('{"atoms": ["a"]}', "1", 0, "rank 1: 12 value classes, 3 computation classes"),
        ('{"atoms": "ab"}', "1", 2, ""),
        ("not json", "1", 2, ""),
        (None, "1", 2, ""),
        ('{"atoms": ["a"]}', "2", 3, ""),
        ('{"atoms": ["a"], "order": [["a", "z"]]}', "1", 2, ""),
    ],
    ids=["one-atom", "atoms-not-a-list", "not-json", "missing-file", "over-the-cap", "undeclared-order-atom"],
)
def test_dump_domain_reads_atoms_like_the_cli(tmp_path, capsys, spec, rank, code, out):
    dump_domain = _load_script("dump_domain")
    path = tmp_path / "atoms.json"
    if spec is not None:
        path.write_text(spec)
    assert dump_domain.main(["--rank", rank, "--atoms", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out.splitlines()[:1] == ([out] if out else [])
    errors = captured.err.splitlines()
    if code == 0:
        assert errors == []
    else:
        assert len(errors) == 1 and errors[0].startswith("error: ")


def test_dump_domain_rejects_a_negative_rank(capsys):
    dump_domain = _load_script("dump_domain")
    with pytest.raises(SystemExit) as exit_info:
        dump_domain.main(["--rank", "-1"])
    assert exit_info.value.code == 2
    assert "must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--cases", "--max-size", "--fuel"])
def test_run_suites_rejects_a_negative_number_before_any_suite(monkeypatch, capsys, flag):
    run_suites = _load_script("run_suites")

    def no_run(*args, **kwargs):
        raise AssertionError("a suite was run")

    monkeypatch.setattr(run_suites, "run_suite", no_run)
    with pytest.raises(SystemExit) as exit_info:
        run_suites.main([flag, "-1", "--only", "confluence"])
    assert exit_info.value.code == 2
    assert "must be non-negative" in capsys.readouterr().err


def test_trace_spans_reports_calls_the_metrics_leave_out():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "trace_spans.py"), "--workload", "typed", "--seed", "0",
         "--prefix", "derivfile.", "terms.parse_term"],
        capture_output=True, text=True, check=True,
    )
    spans = json.loads(proc.stdout)
    assert set(spans) == {"derivfile.parse_derivation", "derivfile.print_derivation", "terms.parse_term"}
    # one parse and one print per round-trip item, and terms parsed from the files
    assert spans["derivfile.parse_derivation"]["calls"] == spans["derivfile.print_derivation"]["calls"] == 4
    assert spans["terms.parse_term"]["calls"] > 0


def test_trace_spans_reports_an_imported_memo_once(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    trace_spans = _load_script("trace_spans")
    monkeypatch.setattr(filters, "_normalize_v", typesys._normalize_v, raising=False)
    names = [name for name in trace_spans.memo_stats() if name.endswith("._normalize_v")]
    assert names == ["memo.typesys._normalize_v"]


def test_trace_spans_reports_the_memos():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "trace_spans.py"), "--workload", "semantics", "--seed", "0",
         "--prefix", "memo.typesys._make_canon_v", "memo.typesys._apply_canon", "memo.filters."],
        capture_output=True, text=True, check=True,
    )
    memos = json.loads(proc.stdout)
    assert set(memos) == {
        "memo.typesys._make_canon_v_cached", "memo.typesys._apply_canon_cached",
        "memo.filters._value_lattice", "memo.filters.comp_lattice", "memo.filters._projected",
    }
    for name in ("memo.typesys._make_canon_v_cached", "memo.typesys._apply_canon_cached"):
        # a pass folds and applies few distinct inputs many times
        stats = memos[name]
        assert stats["hits"] > stats["misses"] == stats["currsize"] > 0
