from __future__ import annotations

import contextvars
import json
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from fixtures import (
    COPY_BYTES,
    GOLDEN_T_AST,
    GOLDEN_T_CFG,
    GOLDEN_T_DFG,
    TOY_ENTRIES,
    copy_bytes_fn,
    nested_ifs,
    scripted_rules,
)

from vulncontext.datasets import jsonl_line, load_verdicts, verdict_record
from vulncontext.errors import (
    CorpusFormatError,
    DatasetFormatError,
    LlmTimeoutError,
    LlmTransportError,
    TriageError,
    VerdictParseError,
)
from vulncontext.graphs import SourceFunction
from vulncontext.knowledge import build_knowledge_base
from vulncontext import pipeline
from vulncontext.llm import ChatClient, ChatResponse, ScriptedChatClient, prompt_sha256
from vulncontext.pipeline import (
    DEGRADED_CONTROL,
    DEGRADED_EXPLAIN,
    DEGRADED_KNOWLEDGE,
    assemble_instruction,
    parse_verdict,
    run_triage,
    triage,
)

GOLDEN_STRUCT = "\n".join([GOLDEN_T_AST, GOLDEN_T_CFG, GOLDEN_T_DFG])

# Hash of the rendered instruction for the fixed inputs below, recorded once
# and pinned; any template or assembly drift breaks this.
GOLDEN_INSTRUCTION_SHA256 = "c1e112181b12a83f00cb32f637edbffa611381fec396d3445f4355bf11ef3d19"


@pytest.fixture
def toy_index():
    return build_knowledge_base(list(TOY_ENTRIES))


# -- instruction assembly -----------------------------------------------------


def test_instruction_contains_four_numbered_blocks_in_order():
    rendered = assemble_instruction(COPY_BYTES, GOLDEN_STRUCT, "knowledge text", "explain text")
    markers = [
        "1. Source Code:",
        "2. Control Information:",
        "3. Vulnerability Knowledge:",
        "4. Functional Explanation:",
    ]
    offsets = [rendered.find(m) for m in markers]
    assert all(o >= 0 for o in offsets)
    assert offsets == sorted(offsets)
    assert COPY_BYTES in rendered
    assert GOLDEN_STRUCT in rendered


def test_degraded_slots_render_markers():
    rendered = assemble_instruction("int f;", "", "", "")
    assert DEGRADED_CONTROL in rendered
    assert DEGRADED_KNOWLEDGE in rendered
    assert DEGRADED_EXPLAIN in rendered


def test_instruction_hash_is_pinned():
    rendered = assemble_instruction(
        COPY_BYTES,
        GOLDEN_STRUCT,
        "[CWE-787] Out-of-bounds Write\ndetails",
        "Copies len bytes.",
    )
    assert prompt_sha256(rendered) == GOLDEN_INSTRUCTION_SHA256


def test_each_slot_is_put_in_verbatim():
    placeholders = "<Code> <Control_Info> <Knowledge> <Explain>"
    slots = [f"{name}: {placeholders}" for name in ("code", "control", "knowledge", "explain")]
    rendered = assemble_instruction(*slots)
    offsets = [rendered.find(slot) for slot in slots]
    assert [rendered.count(slot) for slot in slots] == [1, 1, 1, 1]
    assert offsets == sorted(offsets)


def test_empty_code_slot_is_rejected():
    with pytest.raises(ValueError):
        assemble_instruction("", "s", "k", "e")


# -- verdict parsing ----------------------------------------------------------


def test_verdict_yes_is_vulnerable():
    assert parse_verdict("Verdict: Yes").label == "vulnerable"


def test_verdict_lowercase_no_is_benign():
    assert parse_verdict("Verdict: no").label == "benign"


def test_last_verdict_line_wins():
    text = "Verdict: Yes\nOn reflection...\nVerdict: No"
    assert parse_verdict(text).label == "benign"


def test_missing_verdict_line_raises():
    with pytest.raises(VerdictParseError):
        parse_verdict("I think maybe")


# -- triage -------------------------------------------------------------------


def test_happy_path_triage(toy_index, copy_bytes):
    client = ScriptedChatClient(rules=scripted_rules("Verdict: Yes"))
    verdict = triage(copy_bytes, toy_index, client)
    assert verdict.label == "vulnerable"
    assert verdict.degraded_paths == frozenset()
    assert not verdict.parse_failure


def test_exactly_three_model_calls_per_triage(toy_index, copy_bytes):
    client = ScriptedChatClient(rules=scripted_rules())
    triage(copy_bytes, toy_index, client)
    assert len(client.call_log) == 3
    stages = [req.tag.split(":", 1)[1] for req in client.call_log]
    # Query and explanation run together, so either may reach the model first.
    assert sorted(stages[:2]) == ["explain", "query"] and stages[2] == "judge"


class _Hooked(ChatClient):
    """Answers with ``scripted_rules()`` after ``before(stage)`` has run."""

    def __init__(self, before):
        self.inner = ScriptedChatClient(rules=scripted_rules())
        self.before = before

    def complete(self, req):
        self.before(req.tag.rsplit(":", 1)[1])
        return self.inner.complete(req)


def test_query_and_explanation_calls_are_in_flight_together(toy_index, copy_bytes):
    meeting = threading.Barrier(2, timeout=2)

    def meet(stage):
        if stage in ("query", "explain"):
            meeting.wait()

    verdict = triage(copy_bytes, toy_index, _Hooked(meet))
    assert verdict.degraded_paths == frozenset()


def test_every_model_call_sees_the_callers_context(toy_index, copy_bytes):
    caller = contextvars.ContextVar("caller")
    seen = {}

    def look(stage):
        seen[stage] = caller.get(None)

    token = caller.set("batch-7")
    try:
        triage(copy_bytes, toy_index, _Hooked(look))
    finally:
        caller.reset(token)
    assert seen == {"query": "batch-7", "explain": "batch-7", "judge": "batch-7"}


def test_a_failing_stage_leaves_triage_after_the_model_calls(monkeypatch, toy_index, copy_bytes):
    lock = threading.Lock()
    in_flight = []
    finished = []

    class Slow(ChatClient):
        def complete(self, req):
            stage = req.tag.rsplit(":", 1)[1]
            with lock:
                in_flight.append(stage)
            time.sleep(0.3 if stage == "explain" else 0.0)
            with lock:
                in_flight.remove(stage)
                finished.append(stage)
            return ChatResponse(text="Query 1: overflow\nQuery 2: N/A")

    def broken(fn, level):
        raise RuntimeError("structural stage bug")

    monkeypatch.setattr(pipeline, "generate_structural_context", broken)
    with pytest.raises(RuntimeError, match="structural stage bug") as err:
        triage(copy_bytes, toy_index, Slow())
    assert type(err.value) is RuntimeError
    assert in_flight == [] and sorted(finished) == ["explain", "query"]


def test_helper_threads_are_reused_two_per_concurrent_triage(monkeypatch, toy_index, copy_bytes):
    monkeypatch.setattr(pipeline, "_BRANCH_POOL", pipeline._BRANCH_POOL)
    pipeline._reset_branch_pool()  # count this test's helpers only
    helpers = set()

    def record(stage):
        if stage == "judge":
            time.sleep(0.01)  # every helper is idle again before the next triage
        else:
            helpers.add(threading.current_thread())
            time.sleep(0.01)

    client = _Hooked(record)

    def three_in_a_row():
        for _ in range(3):
            triage(copy_bytes, toy_index, client)

    three_in_a_row()
    assert len(helpers) == 2
    with ThreadPoolExecutor(max_workers=3) as callers:
        runs = [callers.submit(three_in_a_row) for _ in range(3)]
        for run in runs:
            run.result(timeout=30)
    assert 2 <= len(helpers) <= 6
    pipeline._BRANCH_POOL.shutdown()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_gets_its_own_helper_threads(toy_index, copy_bytes):
    client = ScriptedChatClient(rules=scripted_rules())
    triage(copy_bytes, toy_index, client)  # the parent's helpers exist now
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports by exit status only
        ok = False
        signal.alarm(10)  # a child whose helpers never run dies instead of hanging
        try:
            ok = triage(copy_bytes, toy_index, client).label == "vulnerable"
        finally:
            os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_slot_order_in_every_rendered_instruction(toy_index, copy_bytes):
    client = ScriptedChatClient(rules=scripted_rules())
    triage(copy_bytes, toy_index, client)
    judge_prompt = client.call_log[-1].prompt
    markers = [
        "1. Source Code:",
        "2. Control Information:",
        "3. Vulnerability Knowledge:",
        "4. Functional Explanation:",
    ]
    offsets = [judge_prompt.find(m) for m in markers]
    assert all(o >= 0 for o in offsets) and offsets == sorted(offsets)


def test_unparseable_source_degrades_control_only(toy_index):
    fn = SourceFunction(id="broken", code="void oops( {", label="benign")
    client = ScriptedChatClient(rules=scripted_rules("Verdict: No"))
    verdict = triage(fn, toy_index, client)
    assert verdict.label == "benign"
    assert verdict.degraded_paths == frozenset({"control"})
    judge_prompt = client.call_log[-1].prompt
    assert DEGRADED_CONTROL in judge_prompt


def test_input_too_deep_to_parse_degrades_control_only(toy_index):
    client = ScriptedChatClient(rules=scripted_rules("Verdict: No"))
    verdict = triage(nested_ifs(200), toy_index, client)
    assert verdict.label == "benign"
    assert verdict.degraded_paths == frozenset({"control"})


def test_empty_index_is_refused_before_triage():
    # The knowledge slot degrades only without an index or when the query
    # call fails; an index with nothing to retrieve cannot be built.
    with pytest.raises(CorpusFormatError, match="no entries"):
        build_knowledge_base([])


def test_explanation_timeout_degrades_semantic_only(copy_bytes, toy_index):
    rules = [
        (
            "identify at most two possible vulnerability types",
            "Query 1: buffer overflow\nQuery 2: N/A",
        ),
        ("summarize its observable functional behavior", LlmTimeoutError),
        ("Return the final prediction", "Verdict: Yes"),
    ]
    client = ScriptedChatClient(rules=rules)
    verdict = triage(copy_bytes, toy_index, client)
    assert verdict.degraded_paths == frozenset({"semantic"})
    assert DEGRADED_EXPLAIN in client.call_log[-1].prompt


def test_query_llm_failure_degrades_knowledge(copy_bytes, toy_index):
    rules = [
        ("identify at most two possible vulnerability types", LlmTransportError),
        ("summarize its observable functional behavior", "explained"),
        ("Return the final prediction", "Verdict: No"),
    ]
    client = ScriptedChatClient(rules=rules)
    verdict = triage(copy_bytes, toy_index, client)
    assert verdict.degraded_paths == frozenset({"knowledge"})


def test_judgment_failure_aborts_function(copy_bytes, toy_index):
    rules = [
        (
            "identify at most two possible vulnerability types",
            "Query 1: buffer overflow\nQuery 2: N/A",
        ),
        ("summarize its observable functional behavior", "explained"),
        ("Return the final prediction", LlmTransportError),
    ]
    client = ScriptedChatClient(rules=rules)
    with pytest.raises(TriageError):
        triage(copy_bytes, toy_index, client)


def test_unparseable_verdict_retries_once_with_reminder(copy_bytes, toy_index):
    responses = iter(["hard to say", "Verdict: Yes"])
    rules = [
        (
            "identify at most two possible vulnerability types",
            "Query 1: buffer overflow\nQuery 2: N/A",
        ),
        ("summarize its observable functional behavior", "explained"),
        ("Return the final prediction", lambda prompt: next(responses)),
    ]
    client = ScriptedChatClient(rules=rules)
    verdict = triage(copy_bytes, toy_index, client)
    assert verdict.label == "vulnerable"
    assert not verdict.parse_failure
    assert len(client.call_log) == 4
    assert client.call_log[-1].prompt.endswith(
        "Answer with exactly 'Verdict: Yes' or 'Verdict: No'."
    )


def test_persistent_parse_failure_defaults_to_benign(copy_bytes, toy_index):
    rules = [
        (
            "identify at most two possible vulnerability types",
            "Query 1: buffer overflow\nQuery 2: N/A",
        ),
        ("summarize its observable functional behavior", "explained"),
        ("Return the final prediction", "no idea, sorry"),
    ]
    client = ScriptedChatClient(rules=rules)
    verdict = triage(copy_bytes, toy_index, client)
    assert verdict.label == "benign"
    assert verdict.parse_failure


# -- batch runner -------------------------------------------------------------


def _dataset(n: int = 4) -> list[SourceFunction]:
    functions = [copy_bytes_fn()]
    for i in range(n - 1):
        functions.append(
            SourceFunction(
                id=f"fn{i}",
                code=f"int fn{i}(int a) {{ return a + {i}; }}",
                label="benign",
            )
        )
    return functions


def test_run_triage_is_byte_deterministic(tmp_path, toy_index):
    functions = _dataset()
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    for out in (out_a, out_b):
        client = ScriptedChatClient(rules=scripted_rules())
        run_triage(functions, toy_index, client, out, meta={"config_fingerprint": "x"})
    assert out_a.read_bytes() == out_b.read_bytes()


def test_worker_pool_preserves_input_order_and_output_bytes(tmp_path, toy_index):
    functions = _dataset(6)
    serial = tmp_path / "serial.jsonl"
    pooled = tmp_path / "pooled.jsonl"
    run_triage(functions, toy_index, ScriptedChatClient(rules=scripted_rules()), serial, workers=1)
    run_triage(functions, toy_index, ScriptedChatClient(rules=scripted_rules()), pooled, workers=3)
    assert serial.read_bytes() == pooled.read_bytes()


def test_run_triage_resumes_past_recorded_ids(tmp_path, toy_index):
    functions = _dataset()
    out = tmp_path / "v.jsonl"
    client = ScriptedChatClient(rules=scripted_rules())
    run_triage(functions[:2], toy_index, client, out)
    calls_before = len(client.call_log)
    summary = run_triage(functions, toy_index, client, out)
    assert summary["skipped"] == 2
    # Only the two new functions cost model calls.
    assert len(client.call_log) == calls_before + 2 * 3
    ids = [
        json.loads(line)["id"]
        for line in out.read_text().splitlines()
        if json.loads(line).get("record") == "verdict"
    ]
    assert ids == [fn.id for fn in functions]


def test_resume_cuts_a_torn_last_line(tmp_path, toy_index):
    functions = _dataset(3)
    out = tmp_path / "v.jsonl"
    meta = {"config_fingerprint": "x"}
    run_triage(functions[:2], toy_index, ScriptedChatClient(rules=scripted_rules()), out, meta=meta)
    lines = out.read_bytes().splitlines(keepends=True)
    assert len(lines) == 3  # meta, then two verdicts
    # An interrupted write: the second verdict stops halfway, with no newline.
    out.write_bytes(lines[0] + lines[1] + lines[2][: len(lines[2]) // 2])
    summary = run_triage(functions, toy_index, ScriptedChatClient(rules=scripted_rules()), out, meta=meta)
    assert summary["skipped"] == 1
    assert list(load_verdicts(out)) == [fn.id for fn in functions]
    assert out.read_bytes().startswith(lines[0] + lines[1])
    assert out.read_text().count('"record": "meta"') == 1


def test_resume_refuses_a_corrupt_complete_line(tmp_path, toy_index):
    functions = _dataset(3)
    out = tmp_path / "v.jsonl"
    meta = {"config_fingerprint": "x"}
    run_triage(functions[:2], toy_index, ScriptedChatClient(rules=scripted_rules()), out, meta=meta)
    lines = out.read_bytes().splitlines(keepends=True)
    # The second verdict line is complete but undecodable; a torn last line follows.
    corrupt = lines[0] + lines[1] + b"{not json}\n" + lines[2][:10]
    out.write_bytes(corrupt)
    client = ScriptedChatClient(rules=scripted_rules())
    with pytest.raises(DatasetFormatError, match=":3: invalid JSON"):
        run_triage(functions, toy_index, client, out, meta=meta)
    assert out.read_bytes() == corrupt
    assert client.call_log == []


@pytest.mark.parametrize(
    "field, value",
    [("prompt_hashes", [["judge", "ab"]]), ("prompt_hashes", {"judge": 5}), ("error", 7)],
)
def test_resume_refuses_a_mistyped_verdict_field(tmp_path, toy_index, field, value):
    functions = _dataset(3)
    out = tmp_path / "v.jsonl"
    meta = {"config_fingerprint": "x"}
    run_triage(functions[:2], toy_index, ScriptedChatClient(rules=scripted_rules()), out, meta=meta)
    meta_line, first, second = out.read_bytes().splitlines(keepends=True)
    damaged = meta_line + jsonl_line({**json.loads(first), field: value}).encode() + second
    out.write_bytes(damaged)
    client = ScriptedChatClient(rules=scripted_rules())
    with pytest.raises(DatasetFormatError, match=field):
        run_triage(functions, toy_index, client, out, meta=meta)
    assert out.read_bytes() == damaged
    assert client.call_log == []


def test_no_resume_starts_the_file_over(tmp_path, toy_index):
    functions = _dataset(2)
    meta = {"config_fingerprint": "x"}
    single, rerun = tmp_path / "single.jsonl", tmp_path / "rerun.jsonl"
    client = ScriptedChatClient(rules=scripted_rules())
    run_triage(functions, toy_index, client, single, meta=meta)
    for _ in range(2):
        run_triage(functions, toy_index, client, rerun, meta=meta, resume=False)
    assert rerun.read_bytes() == single.read_bytes()


def test_run_triage_records_judgment_failures_and_continues(tmp_path, toy_index):
    functions = _dataset(3)

    def judge(prompt):
        if "fn0" in prompt:
            raise LlmTransportError("backend down")
        return "Verdict: No"

    rules = [
        (
            "identify at most two possible vulnerability types",
            "Query 1: q\nQuery 2: N/A",
        ),
        ("summarize its observable functional behavior", "explained"),
        ("Return the final prediction", judge),
    ]
    client = ScriptedChatClient(rules=rules)
    out = tmp_path / "v.jsonl"
    summary = run_triage(functions, toy_index, client, out)
    assert [f["id"] for f in summary["failures"]] == ["fn0"]
    records = [json.loads(line) for line in out.read_text().splitlines()]
    failed = next(r for r in records if r.get("id") == "fn0")
    assert failed["label"] is None and "error" in failed
    ok = [r for r in records if r.get("record") == "verdict" and r["label"]]
    assert len(ok) == 2


def test_verdict_file_reads_back_to_the_records_it_was_written_from(tmp_path, toy_index):
    functions = _dataset(3)

    def judge(prompt):
        if "fn1" in prompt:
            raise LlmTransportError("backend down")
        return "no idea" if "fn0" in prompt else "Verdict: Yes"

    rules = [
        ("identify at most two possible vulnerability types", "Query 1: q\nQuery 2: N/A"),
        ("summarize its observable functional behavior", LlmTimeoutError),
        ("Return the final prediction", judge),
    ]
    out = tmp_path / "v.jsonl"
    meta = {"config_fingerprint": "x"}
    run_triage(functions, toy_index, ScriptedChatClient(rules=rules), out, meta=meta)
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)[1:]
    verdicts = load_verdicts(out)
    assert [jsonl_line(verdict_record(v)) for v in verdicts.values()] == lines
    assert verdicts["fn0"].parse_failure and verdicts["fn0"].label == "benign"
    failed = verdicts["fn1"]
    assert failed.label is None and failed.error and not failed.prompt_hashes
    assert "prompt_hashes" not in json.loads(lines[2])
