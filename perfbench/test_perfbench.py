"""The benchmark's own tests: tiny smoke runs, and injected faults it must catch.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench  # noqa: E402
import workloads  # noqa: E402
from spans import BenchmarkFailure  # noqa: E402

import vulncontext.knowledge as knowledge  # noqa: E402
import vulncontext.pipeline as pipeline  # noqa: E402
from vulncontext.errors import SourceSyntaxError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# One function per shape, plus one known RecursionError input.
TINY_GRID = (
    ("straight", 30),
    ("calls", 40),
    ("ifs", 40),
    ("nested", 30),
    ("calls", 1200),
    ("straight", 60),
)


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "LARGE_GRID", TINY_GRID)
    monkeypatch.setattr(workloads, "CWE_ENTRIES", 150)
    monkeypatch.setattr(bench, "SMALL_POOL_BATCHES", 2)
    monkeypatch.setattr(bench, "LARGE_POOL_CYCLES", 1)
    for name in ("TRACED_REPEATS", "RESUME_SCANS", "EVALUATIONS"):
        monkeypatch.setattr(bench, name, 1)


def run(tmp_path, workload="small-cpu", traced=False):
    work = tmp_path / f"work-{len(list(tmp_path.glob('work-*')))}"
    return bench.run(workload, 7, 0.01, traced, work, tmp_path)


def names(section):
    return sorted(m["name"] for m in SPEC[section])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_metric(tmp_path, workload):
    plain = run(tmp_path, workload)
    assert plain["line"]["correct"] is True
    assert sorted(plain["line"]["metrics"]) == names("end_to_end")
    traced = run(tmp_path, workload, traced=True)
    assert sorted(traced["line"]["metrics"]) == names("per_layer")
    assert traced["details"]["verdict_sha256"] == plain["details"]["verdict_sha256"]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for line in (plain["line"], traced["line"]):
        for name, metric in line["metrics"].items():
            assert metric["unit"] == units[name]


def test_large_counts_recursion_error_as_failure(tmp_path):
    result = run(tmp_path, "large-cpu")
    cycles = result["details"]["units"]
    assert result["line"]["failed"] == cycles
    assert result["details"]["properties"]["failures_by_class"] == {"RecursionError": cycles}
    assert result["line"]["metrics"]["verdict_ratio"]["value"] == pytest.approx(5 / 6)


def test_wrong_verdict_label_fails(tmp_path, monkeypatch):
    original = pipeline.verdict_record

    def flipped(verdict):
        record = original(verdict)
        record["label"] = "benign" if record["label"] == "vulnerable" else "vulnerable"
        return record

    monkeypatch.setattr(pipeline, "verdict_record", flipped)
    with pytest.raises(BenchmarkFailure, match="verdict label"):
        run(tmp_path)


def test_wrong_retrieval_ranking_fails(tmp_path, monkeypatch):
    original = knowledge.KnowledgeIndex.retrieve_top_k

    def swapped(self, query, k=knowledge.DEFAULT_TOP_K, alpha=None):
        return list(reversed(original(self, query, k=k, alpha=alpha)))

    monkeypatch.setattr(knowledge.KnowledgeIndex, "retrieve_top_k", swapped)
    with pytest.raises(BenchmarkFailure, match="oracle"):
        run(tmp_path)


def test_unexpected_escaping_exception_fails(tmp_path, monkeypatch):
    original = pipeline.generate_structural_context

    def crash_one(fn, level):
        if fn.id == "s0-b":
            raise RecursionError("injected")
        return original(fn, level)

    monkeypatch.setattr(pipeline, "generate_structural_context", crash_one)
    with pytest.raises(BenchmarkFailure, match="unexpected exceptions"):
        run(tmp_path)


def test_silently_degraded_slot_fails(tmp_path, monkeypatch):
    original = pipeline.generate_structural_context

    def degrade_one(fn, level):
        if fn.id == "s0-v":
            raise SourceSyntaxError("injected")
        return original(fn, level)

    monkeypatch.setattr(pipeline, "generate_structural_context", degrade_one)
    with pytest.raises(BenchmarkFailure, match="degraded slots"):
        run(tmp_path)


def test_dropped_query_fails(tmp_path, monkeypatch):
    original = pipeline.generate_queries
    monkeypatch.setattr(pipeline, "generate_queries", lambda fn, llm: original(fn, llm)[:1])
    with pytest.raises(BenchmarkFailure, match="retrieved with"):
        run(tmp_path)


def test_missing_span_target_fails(tmp_path, monkeypatch):
    targets = bench.LAYER_TARGETS + (("vulncontext.structure.no_such_stage", "structure.none", None),)
    monkeypatch.setattr(bench, "LAYER_TARGETS", targets)
    with pytest.raises(BenchmarkFailure, match="no longer exists"):
        run(tmp_path, traced=True)


def test_uncalled_span_target_fails(tmp_path, monkeypatch):
    targets = bench.LAYER_TARGETS + (("vulncontext.structure.matches_template", "structure.match", None),)
    monkeypatch.setattr(bench, "LAYER_TARGETS", targets)
    with pytest.raises(BenchmarkFailure, match="never called"):
        run(tmp_path, traced=True)


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "small-cpu", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
