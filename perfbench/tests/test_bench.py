"""Sanity checks of the benchmark itself: spans, table checks, traced runs.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import run
import spans

SMALL = str(run.HERE / "carnot_system.json")


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_nest_and_sum_to_root():
    t = spans.Tracer()
    leaf = t.wrap(lambda: _busy(0.002), "leaf")
    mid = t.wrap(lambda: [leaf() for _ in range(3)], "mid")
    t0 = time.perf_counter()
    t.run_root(lambda: (mid(), _busy(0.002)))
    wall = time.perf_counter() - t0
    rows = t.by_name()
    assert rows["leaf"][0] == 3 and rows["mid"][0] == 1
    assert all(s.self_ns >= 0 for s in t.spans)
    assert sum(s.self_ns for s in t.spans) == t.root.dur_ns
    assert rows["mid"][2] < rows["mid"][1]
    assert t.checks(wall) == []


def test_worker_spans_keep_their_own_stacks():
    t = spans.Tracer()
    work = t.wrap(lambda x: _busy(0.003), "work")

    def pool():
        owner = t.current()
        with ThreadPoolExecutor(max_workers=2) as ex:
            list(ex.map(lambda x: t.run("task", work, (x,), parent=owner), range(4)))

    t.run_root(t.wrap(pool, "pool"))
    pool_span = next(s for s in t.spans if s.name == "pool")
    tasks = [s for s in t.spans if s.name == "task"]
    assert all(s.parent is pool_span for s in tasks)
    assert all(s.tid != pool_span.tid for s in tasks)
    # concurrent children do not count against the pool's self time
    assert pool_span.self_ns == pool_span.dur_ns
    for s in t.spans:
        if s.name == "work":
            assert s.parent.name == "task" and s.parent.tid == s.tid


def test_broken_span_bookkeeping_is_reported():
    t = spans.Tracer()
    t.run_root(lambda: _busy(0.002))
    assert t.checks(t.root.dur_ns * spans.NS) == []
    assert t.checks(1.0)
    t.root.child_ns = t.root.dur_ns + 1
    assert any("negative" in p for p in t.checks(0.0))


def _write(path: Path, cols, rows):
    lines = ["# model.g = 1.73", "\t".join(cols)] + ["\t".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "got, ok",
    [
        ("0.5\t1", True),
        ("0.5000000001\t1", True),
        ("0.5001\t1", False),
        ("0.5\t0", False),
        ("nan\t1", False),
    ],
)
def test_table_check_tolerances(tmp_path, got, ok):
    (tmp_path / "ref").mkdir()
    (tmp_path / "got").mkdir()
    _write(tmp_path / "ref" / "thermo.tsv", ["F", "valid"], [["0.5", "1"]])
    _write(tmp_path / "got" / "thermo.tsv", ["F", "valid"], [got.split("\t")])
    problems = run.compare_tables("thermo-gap", tmp_path / "got", tmp_path / "ref")
    assert (problems == []) == ok


def test_nonzero_tc_count_is_exact(tmp_path):
    (tmp_path / "ref").mkdir()
    (tmp_path / "got").mkdir()
    _write(tmp_path / "ref" / "tc_map.tsv", ["alpha", "g", "T_c"], [["0", "1", "0"]])
    _write(tmp_path / "got" / "tc_map.tsv", ["alpha", "g", "T_c"], [["0", "1", "1e-12"]])
    problems = run.compare_tables("tc-map", tmp_path / "got", tmp_path / "ref")
    assert problems == ["nonzero_tc: 1 != reference 0"]


SMALL_STEPS = {
    "tc-map": lambda k: ["--config", SMALL, "--workers", "2", "tc-map",
                         "--alpha-steps", "3", "--g-values", "1.0,1.73"],
    "thermo-gap": lambda k: ["--config", SMALL, "--alpha", "0.36", "thermo",
                             "--t-steps", "20", "--gap"],
    "isotherm": lambda k: ["--config", SMALL, "--g", "1.73", "spinodal",
                           "--t-values", "0.144", "--alpha-steps", "6"],
    "carnot-grid": lambda k: ["--config", SMALL, "--g", "1.73", "cycle", "--kind",
                              "carnot", "--t-values", "0.4,0.7", "--x-values", "3.5,4.5"],
}


def _small(tmp_path, monkeypatch, workload):
    """Swap in small copies of the workload's steps, with fresh references."""
    monkeypatch.setattr(run, "REFERENCE", tmp_path / "reference")
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    (tmp_path / "work" / "results").mkdir(parents=True)
    env = run.child_env()
    for step in run.WORKLOADS[workload]:
        _, tables, counts = run.STEPS[step]
        monkeypatch.setitem(run.STEPS, step, (SMALL_STEPS[step], tables, counts))
        first = run.invoke(step, 0, False, tmp_path / "first" / step, env)
        shutil.copytree(first["out"], tmp_path / "reference" / step / "v0")
    return env


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_matches_untraced(tmp_path, monkeypatch, workload):
    env = _small(tmp_path, monkeypatch, workload)
    records, metrics, units = run.run_traced(workload, 0, 0.0, env, tmp_path / "pairs")
    assert len(records) == 2
    assert all(r["problems"] == [] for r in records), [r["problems"] for r in records]

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert list(metrics) == [m["name"] for m in declared]
    assert all(units[m["name"]] == m["unit"] for m in declared)
    assert all(v >= 0 for k, v in metrics.items() if k.endswith("self_s"))
    for step in run.WORKLOADS[workload]:
        assert (tmp_path / "work" / "results" / f"{workload}-{step}-spans.tsv").is_file()


def test_traced_tables_that_differ_fail_the_run(tmp_path, monkeypatch):
    env = _small(tmp_path, monkeypatch, "fresh")
    monkeypatch.setattr(run, "same_bytes", lambda names, a, b: list(names))
    records, _, _ = run.run_traced("fresh", 0, 0.0, env, tmp_path / "pairs")
    assert any("traced tables differ" in p for r in records for p in r["problems"])


def test_timed_run_reports_every_end_to_end_metric(tmp_path, monkeypatch):
    env = _small(tmp_path, monkeypatch, "revisit")
    monkeypatch.setattr(run, "MIN_RUNS", 1)
    records, metrics, units = run.run_timed("revisit", 0, 0.0, env, tmp_path / "runs")
    assert [r["problems"] for r in records] == [[]]
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    assert all(metrics[m["name"]] > 0 and units[m["name"]] == m["unit"] for m in declared)
    assert metrics["peak_rss_mb"] == max(
        s["peak_rss_mb"] for s in records[0]["steps"].values())


def test_fails_without_program_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fresh", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
