"""Per-function triage: assemble the four-slot instruction, ask, parse verdict.

One triaged function issues exactly three model calls on the happy path, in
two rounds: retrieval-query generation and functional explanation run
together on helper threads while the calling thread builds the structural
context, then the final judgment follows once both have returned.
A failure in the control, knowledge, or semantic stage degrades that slot to
a marker string and is recorded; only a failed judgment call aborts the
function.  Batch runs persist one verdict record per function, in input
order, and resume past ids already present in the output file.
"""

from __future__ import annotations

import contextvars
import os
import sys
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import ExitStack
from pathlib import Path

from .datasets import Verdict, jsonl_line, open_output, parse_verdicts, verdict_record
from .errors import (
    LlmError,
    SourceSyntaxError,
    TriageError,
    UnsupportedLanguageError,
    VerdictParseError,
)
from .graphs import SourceFunction
from .knowledge import (
    DEFAULT_ALPHA,
    DEFAULT_MAX_ENTRIES,
    DEFAULT_TOP_K,
    KnowledgeIndex,
    assemble_knowledge,
    generate_queries,
)
from .llm import ChatClient, ChatRequest, prompt_sha256
from .prompts import fill_explanation_prompt, fill_judgment_prompt, fill_query_prompt
from .semantic import generate_explanation
from .structure import Level, generate_structural_context

__all__ = [
    "DEGRADED_CONTROL",
    "DEGRADED_KNOWLEDGE",
    "DEGRADED_EXPLAIN",
    "Verdict",
    "assemble_instruction",
    "parse_verdict",
    "triage",
    "run_triage",
]

DEGRADED_CONTROL = "(structural analysis unavailable)"
DEGRADED_KNOWLEDGE = "(no knowledge retrieved)"
DEGRADED_EXPLAIN = "(no explanation available)"

_PARSE_RETRY_REMINDER = "Answer with exactly 'Verdict: Yes' or 'Verdict: No'."


def assemble_instruction(code: str, control_info: str, knowledge: str, explain: str) -> str:
    """Render the judgment prompt with its four slots in their fixed order.

    Empty augmentation slots are filled with their degradation markers; the
    code slot may not be empty.
    """
    if not code:
        raise ValueError("code slot must be non-empty")
    return fill_judgment_prompt(
        code,
        control_info or DEGRADED_CONTROL,
        knowledge or DEGRADED_KNOWLEDGE,
        explain or DEGRADED_EXPLAIN,
    )


def parse_verdict(text: str, fn_id: str = "") -> Verdict:
    """Read the last ``Verdict:`` line; Yes means vulnerable, No means benign."""
    label: str | None = None
    for line in (text or "").splitlines():
        stripped = line.strip()
        lowered = stripped.lower()
        if not lowered.startswith("verdict:"):
            continue
        value = stripped[len("verdict:") :].strip().strip("*").strip()
        first = value.split()[0].rstrip(".,!") if value.split() else ""
        if first.lower() == "yes":
            label = "vulnerable"
        elif first.lower() == "no":
            label = "benign"
    if label is None:
        raise VerdictParseError(f"no verdict line in response for {fn_id or 'function'}")
    return Verdict(fn_id, label)


# Helper threads for the query and explanation calls.  A ThreadPoolExecutor
# hands work to an idle thread and starts a thread only when every one is
# busy; with no practical cap it holds at most two threads per concurrent
# ``triage`` call and never queues a call itself, so the in-flight limit stays
# with the client (``BoundedClient``).
def _reset_branch_pool() -> None:
    global _BRANCH_POOL
    _BRANCH_POOL = ThreadPoolExecutor(
        max_workers=sys.maxsize, thread_name_prefix="vulncontext-branch"
    )


_reset_branch_pool()
# A forked child inherits the pool's bookkeeping but none of its threads.
os.register_at_fork(after_in_child=_reset_branch_pool)


def _start(call, *args) -> Future:
    """Run ``call(*args)`` on a helper thread, in a copy of the caller's context."""
    return _BRANCH_POOL.submit(contextvars.copy_context().run, call, *args)


def triage(
    fn: SourceFunction,
    index: KnowledgeIndex | None,
    llm: ChatClient,
    level: Level = Level.C,
    alpha: float = DEFAULT_ALPHA,
    k: int = DEFAULT_TOP_K,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> Verdict:
    """Triage one function in two rounds of model calls.

    The query and explanation calls depend on nothing but ``fn``, so they
    run together on helper threads while this thread builds the structural
    context; retrieval follows the query on this thread.  The judgment is
    the second round.  ``triage`` waits for both helpers before it returns
    or raises, so no call outlives it.
    """
    degraded: set[str] = set()
    hashes: dict[str, str] = {}
    query_call = None
    if index is not None:
        hashes["query"] = prompt_sha256(fill_query_prompt(fn.code))
        query_call = _start(generate_queries, fn, llm)
    hashes["explain"] = prompt_sha256(fill_explanation_prompt(fn.code))
    explain_call = _start(generate_explanation, fn, llm)
    try:
        try:
            control_info = generate_structural_context(fn, level).s
        except (SourceSyntaxError, UnsupportedLanguageError):
            degraded.add("control")
            control_info = DEGRADED_CONTROL

        knowledge_text = DEGRADED_KNOWLEDGE
        if query_call is None:
            degraded.add("knowledge")
        else:
            try:
                rankings = [index.retrieve_top_k(q, k=k, alpha=alpha) for q in query_call.result()]
                knowledge_text = assemble_knowledge(rankings, max_entries=max_entries).text
            except LlmError:
                degraded.add("knowledge")

        explanation = explain_call.result()
    finally:
        wait([call for call in (query_call, explain_call) if call is not None])
    if explanation.degraded or not explanation.text:
        degraded.add("semantic")
        explain_text = DEGRADED_EXPLAIN
    else:
        explain_text = explanation.text

    prompt = assemble_instruction(fn.code, control_info, knowledge_text, explain_text)
    hashes["judge"] = prompt_sha256(prompt)

    try:
        response = llm.complete(ChatRequest(prompt=prompt, tag=f"{fn.id}:judge"))
    except LlmError as exc:
        raise TriageError(f"final judgment failed for {fn.id}: {exc}") from exc

    parse_failure = False
    try:
        label = parse_verdict(response.text, fn.id).label
    except VerdictParseError:
        retry_prompt = prompt + "\n\n" + _PARSE_RETRY_REMINDER
        try:
            retry_response = llm.complete(
                ChatRequest(prompt=retry_prompt, tag=f"{fn.id}:judge-retry")
            )
            label = parse_verdict(retry_response.text, fn.id).label
        except (LlmError, VerdictParseError):
            # Conservative default when the model never produces the format.
            label = "benign"
            parse_failure = True

    return Verdict(fn.id, label, frozenset(degraded), parse_failure, hashes)


# ---------------------------------------------------------------------------
# Batch runner
# ---------------------------------------------------------------------------


def run_triage(
    functions: list[SourceFunction],
    index: KnowledgeIndex | None,
    llm: ChatClient,
    out_path: str | Path,
    level: Level = Level.C,
    alpha: float = DEFAULT_ALPHA,
    k: int = DEFAULT_TOP_K,
    max_entries: int = DEFAULT_MAX_ENTRIES,
    workers: int = 1,
    meta: dict | None = None,
    resume: bool = True,
) -> dict:
    """Triage every function, writing verdict records in input order.

    Already-recorded ids are skipped when resuming, so an interrupted run can
    be restarted with the same command; a partial last line left by the
    interruption is cut off first, and an unreadable complete line raises
    ``DatasetFormatError`` before anything is written.  Without ``resume`` the
    file starts over.  A failed judgment is recorded as a verdict with an
    ``error`` and no label.
    Wall-clock timing goes to the returned summary, never into the verdict
    file, which stays byte-stable for a fixed dataset, configuration, and
    backend.
    """
    out_path = Path(out_path)
    done_ids: set[str] = set()
    if resume and out_path.exists():
        data = out_path.read_bytes()
        complete = data.rfind(b"\n") + 1
        # An unreadable complete line raises here, before the file changes.
        done_ids = set(parse_verdicts(data[:complete], out_path))
        if complete < len(data):
            # An interrupted write left a partial last line; cut it so the
            # next record starts on a line of its own.
            with open(out_path, "r+b") as handle:
                handle.truncate(complete)
    fresh = not (resume and out_path.exists() and out_path.stat().st_size > 0)

    pending = [fn for fn in functions if fn.id not in done_ids]
    started = time.monotonic()
    failures: list[dict] = []

    def work(fn: SourceFunction) -> Verdict:
        try:
            return triage(
                fn, index, llm, level=level, alpha=alpha, k=k, max_entries=max_entries
            )
        except TriageError as exc:
            return Verdict(fn.id, None, error=str(exc))

    with open_output(out_path, "w" if fresh else "a") as handle, ExitStack() as stack:
        if fresh and meta is not None:
            handle.write(jsonl_line({"record": "meta", **meta}))
        # One worker stays on this thread: on glibc a pool thread allocates
        # from its own malloc arena, whose peak adds to the main arena's; on
        # the large-function benchmark workload that raised peak RSS 14-70%.
        if workers <= 1:
            verdicts = map(work, pending)
        else:
            pool = stack.enter_context(ThreadPoolExecutor(max_workers=workers))
            verdicts = pool.map(work, pending)
        for verdict in verdicts:
            handle.write(jsonl_line(verdict_record(verdict)))
            handle.flush()
            if verdict.error is not None:
                failures.append({"id": verdict.id, "error": verdict.error})

    return {
        "functions": len(functions),
        "processed": len(pending),
        "skipped": len(functions) - len(pending),
        "failures": failures,
        "elapsed_s": time.monotonic() - started,
        "out": str(out_path),
    }
