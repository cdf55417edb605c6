"""Three digests: the lowered AST, the structural output and the verdict output
of fixed inputs.

The AST digest covers each unit's lowered tree in preorder: every node's
kind, name, line, role, ``uid`` and number of children.  The structural
digest covers each unit's CFG and DFG node and edge lists as ``parse``
returns them, and its verbalized A/B/C context at budget 1 and at the level
budget.  Both take the same inputs: the fixture corpus, seeded small pairs
and large functions from the benchmark's generators, a few multi-function
units, one unit of C type syntax and one of control-flow and reference
shapes.

The verdict digest covers the verdict files of scripted batch runs in which
every fault kind occurs, and the run summary that ``analyze`` writes.  Each
verdict's judge prompt hash covers the structural context text, so this
digest also pins the frontend end to end.

A refactor that must not change output keeps all three constants; a change
that alters the output on purpose updates one and says why in ``CHANGES.md``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import astuple
from pathlib import Path

from hypothesis import given, settings

from fixtures import CONTROL_PLUMBING, FIXTURE_CORPUS, TYPE_PLUMBING, c_functions

from vulncontext.cli import main
from vulncontext.errors import LlmTimeoutError, LlmTransportError
from vulncontext.graphs import SourceFunction, parse
from vulncontext.llm import ChatClient, ChatRequest, ChatResponse
from vulncontext.pipeline import run_triage
from vulncontext.structure import (
    LEVEL_BUDGETS,
    Level,
    build_salient_views,
    filter_ast,
    filter_cfg,
    filter_dfg,
    verbalize,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

AST_SHA256 = "e6094dfd4b77dfe9d83ffe6922fa0bff01201fba14b13c319a5fe4598a9c9d7e"
STRUCTURE_SHA256 = "77876b489e2272c947e6b3438683146e78cd1647bf0216b7c47e33bff49315e2"
VERDICT_SHA256 = "b16c8848903c33c536822f79fd3dd352b92d75310e5fc143c0f9f20bf263b55c"

SMALL_PAIRS = 20
LARGE_MAX_STATEMENTS = 600
UNITS = (
    ("copy_bytes", "if_else", "nested_loops"),
    ("mixed_flow", "switch_dispatch", "goto_cleanup"),
    ("straight_line", "straight_line_twin"),
)


def _inputs() -> list[SourceFunction]:
    codes = dict(FIXTURE_CORPUS)
    # A renamed copy, so one unit holds two isomorphic functions.
    codes["straight_line_twin"] = codes["straight_line"].replace("straight_line", "straight_line_twin")
    fns = [SourceFunction(id=name, code=code) for name, code in FIXTURE_CORPUS]
    rng = random.Random("equivalence:small")
    for serial, target in enumerate(workloads.small_sizes(rng, SMALL_PAIRS)):
        fns += [SourceFunction(id=g.id, code=g.code) for g in workloads.small_pair(rng, serial, target)]
    large = workloads.large_cycle(random.Random("large:901"), 0)
    fns += [SourceFunction(id=g.id, code=g.code) for g in large if g.statements <= LARGE_MAX_STATEMENTS]
    for names in UNITS:
        fns.append(SourceFunction(id="+".join(names), code="\n".join(codes[n] for n in names)))
    fns.append(SourceFunction(id="type_plumbing", code=TYPE_PLUMBING))
    fns.append(SourceFunction(id="control_plumbing", code=CONTROL_PLUMBING))
    return fns


def _record(fn: SourceFunction) -> dict:
    bundle = parse(fn)
    contexts = []
    for level in Level:
        filtered = (filter_ast(bundle.ast, level), filter_cfg(bundle.cfg), filter_dfg(bundle.dfg))
        for budget in (1, LEVEL_BUDGETS[level]):
            views = build_salient_views(bundle, *filtered, budget)
            contexts.append([level.value, budget, *verbalize(views)])
    return {
        "id": fn.id,
        "cfg_nodes": [astuple(n) for n in bundle.cfg.nodes],
        "cfg_edges": [astuple(e) for e in bundle.cfg.edges],
        "dfg_nodes": [astuple(n) for n in bundle.dfg.nodes],
        "dfg_edges": [astuple(e) for e in bundle.dfg.edges],
        "contexts": contexts,
    }


def structure_digest(fns: list[SourceFunction]) -> str:
    digest = hashlib.sha256()
    for fn in fns:
        digest.update(json.dumps(_record(fn), ensure_ascii=False, sort_keys=True).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def test_inputs_cover_every_shape():
    fns = _inputs()
    assert len(fns) >= len(FIXTURE_CORPUS) + 2 * SMALL_PAIRS + len(UNITS)
    shapes = {fn.id.split("-", 1)[1] for fn in fns if fn.id.startswith("L")}
    assert shapes == {shape for shape, _size in workloads.LARGE_GRID}


def ast_digest(fns: list[SourceFunction]) -> str:
    digest = hashlib.sha256()
    for fn in fns:
        rows = [[n.kind, n.name, n.line, n.role, n.uid, len(n.children)] for n in parse(fn).ast.walk()]
        digest.update(json.dumps({"id": fn.id, "ast": rows}, ensure_ascii=False, sort_keys=True).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def test_lowered_ast_matches_the_committed_digest():
    assert ast_digest(_inputs()) == AST_SHA256


def _assert_uids_are_preorder(fn: SourceFunction) -> None:
    uids = [node.uid for node in parse(fn).ast.walk()]
    assert uids == list(range(len(uids))), fn.id


def test_uids_number_every_input_in_preorder():
    for fn in _inputs():
        _assert_uids_are_preorder(fn)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(fn=c_functions())
def test_uids_number_generated_functions_in_preorder(fn):
    _assert_uids_are_preorder(fn)


def test_structural_output_matches_the_committed_digest():
    assert structure_digest(_inputs()) == STRUCTURE_SHA256


# -- verdict half ---------------------------------------------------------------

# The fault the scripted model puts on each named function; the others get
# well-formed answers.
FAULTS = {
    "single_if": "fallback-query",
    "if_else": "query-error",
    "nested_loops": "explain-error",
    "switch_dispatch": "empty-explain",
    "goto_cleanup": "judge-retry",
    "mixed_flow": "judge-unparsed",
    "pointer_walk": "judge-error",
}
QUERIES = "Query 1: out of bounds write via unchecked length\nQuery 2: integer overflow in size"
META = {"config_fingerprint": "equivalence"}


class FaultScript(ChatClient):
    """Answers by request tag, so each function meets its fault in any run order."""

    def complete(self, req: ChatRequest) -> ChatResponse:
        fn_id, stage = req.tag.rsplit(":", 1)
        fault = FAULTS.get(fn_id)
        if fault == "query-error" and stage == "query":
            raise LlmTransportError("scripted query failure")
        if fault == "explain-error" and stage == "explain":
            raise LlmTimeoutError("scripted explain timeout")
        if fault == "judge-error" and stage == "judge":
            raise LlmTransportError("scripted judge failure")
        if stage == "query":
            text = "no weakness in sight" if fault == "fallback-query" else QUERIES
        elif stage == "explain":
            text = "" if fault == "empty-explain" else f"{fn_id} transforms its inputs."
        elif fault == "judge-unparsed" or (fault == "judge-retry" and stage == "judge"):
            text = "hard to say"
        else:
            text = "Verdict: Yes" if len(fn_id) % 2 else "Verdict: No"
        return ChatResponse(text=text, model_id="fault-script")


def _triage_inputs() -> list[SourceFunction]:
    return [
        *(SourceFunction(id=name, code=code) for name, code in FIXTURE_CORPUS),
        SourceFunction(id="syntax_error", code="void oops( {"),
        SourceFunction(id="kotlin", code="fun main() {}", language="kotlin"),
    ]


def _run(fns, index, out, **kwargs) -> dict:
    summary = run_triage(fns, index, FaultScript(), out, meta=META, **kwargs)
    del summary["elapsed_s"], summary["out"]
    return summary


def test_verdict_output_matches_the_committed_digest(tmp_path, toy_index):
    fns = _triage_inputs()
    fresh, resumed, pooled, unindexed = (tmp_path / f"{n}.jsonl" for n in ("fresh", "resumed", "pooled", "none"))
    summary = _run(fns, toy_index, fresh)
    assert [f["id"] for f in summary["failures"]] == ["pointer_walk"]

    # Interrupted mid-write: a few records, then a torn line.
    _run(fns[:5], toy_index, resumed)
    with open(resumed, "a", encoding="utf-8") as handle:
        handle.write('{"record": "verdict", "id": "stra')
    _run(fns, toy_index, resumed)
    _run(fns, toy_index, pooled, workers=3)
    assert resumed.read_bytes() == pooled.read_bytes() == fresh.read_bytes()
    _run(fns, None, unindexed)

    # The offline CLI run, with its default script and run summary.
    kb, dataset, out = tmp_path / "kb.idx", tmp_path / "functions.jsonl", tmp_path / "cli.jsonl"
    toy_index.save(kb)
    lines = (json.dumps({"id": fn.id, "code": fn.code, "language": fn.language}) for fn in fns[:4] + fns[-2:])
    dataset.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    assert main(["analyze", "--input", str(dataset), "--kb", str(kb), "--out", str(out)]) == 0
    runinfo = json.loads(Path(f"{out}.runinfo.json").read_text(encoding="utf-8"))
    del runinfo["elapsed_s"], runinfo["out"]

    digest = hashlib.sha256()
    for part in (fresh.read_bytes(), unindexed.read_bytes(), out.read_bytes()):
        digest.update(part)
    for summary_record in (summary, runinfo):
        digest.update(json.dumps(summary_record, sort_keys=True).encode("utf-8") + b"\n")
    assert digest.hexdigest() == VERDICT_SHA256
