"""Every library name the benchmark wraps still exists, is still reached, and unwrapping restores it.

The traced benchmark run wraps module-level names of ``vulncontext`` from
outside ``src/``; a refactor that deletes or renames one of them breaks that
run, and one that keeps a name but stops calling it through the module leaves
its layer without spans.  Installing the wrappers here, driving one function
through every layer, and uninstalling them catches both in the unit tests,
in well under a second, without running the benchmark.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from fixtures import COPY_BYTES, TOY_ENTRIES

from vulncontext import datasets, knowledge, pipeline
from vulncontext.llm import BoundedClient

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import backend  # noqa: E402
import bench  # noqa: E402
import spans  # noqa: E402
from workloads import ScriptEntry  # noqa: E402


def _current(target: str):
    return getattr(*spans.resolve(target))


def _drive_every_layer(tmp_path: Path) -> pipeline.Verdict:
    kb = tmp_path / "kb.idx"
    knowledge.build_knowledge_base(list(TOY_ENTRIES)).save(kb)
    index = knowledge.KnowledgeIndex.load(kb)
    dataset = tmp_path / "functions.jsonl"
    dataset.write_text(json.dumps({"id": "copy_bytes", "code": COPY_BYTES}) + "\n", encoding="utf-8")
    [fn] = datasets.load_functions(dataset)
    script = {fn.id: ScriptEntry("vulnerable", ["out of bounds write past the buffer end"])}
    client = BoundedClient(backend.ScriptBackend(script), max_in_flight=2)
    return pipeline.triage(fn, index, client)


def test_benchmark_wraps_existing_names_and_restores_them():
    recorder = spans.Recorder()
    try:
        bench.install_layers(recorder)
        wrappers = {target: _current(target) for target in recorder.targets}
    finally:
        recorder.uninstall()
    assert len(wrappers) == len(recorder.targets) >= 19
    for target, wrapper in wrappers.items():
        assert _current(target) == wrapper.__wrapped__, target


def test_one_triage_reaches_every_wrapped_name(tmp_path):
    recorder = spans.Recorder()
    try:
        bench.install_layers(recorder)
        verdict = _drive_every_layer(tmp_path)
    finally:
        recorder.uninstall()
    assert verdict.label == "vulnerable" and not verdict.degraded_paths
    recorder.check_called()
