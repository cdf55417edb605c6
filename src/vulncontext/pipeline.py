"""Per-function triage: assemble the four-slot instruction, ask, parse verdict.

One triaged function issues exactly three model calls on the happy path:
retrieval-query generation, functional explanation, and the final judgment.
A failure in the control, knowledge, or semantic stage degrades that slot to
a marker string and is recorded; only a failed judgment call aborts the
function.  Batch runs persist one verdict record per function, in input
order, and resume past ids already present in the output file.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    EmptyCorpusError,
    EncoderMismatchError,
    EncoderUnavailableError,
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
    "Instruction",
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


@dataclass
class Instruction:
    """The four-slot judgment prompt: its slot values in template order."""

    slots: dict[str, str]

    @property
    def rendered(self) -> str:
        return fill_judgment_prompt(
            self.slots["code"],
            self.slots["control_info"],
            self.slots["knowledge"],
            self.slots["explain"],
        )


@dataclass
class Verdict:
    label: str  # vulnerable | benign
    raw: str
    fn_id: str = ""
    degraded_paths: frozenset[str] = frozenset()
    parse_failure: bool = False
    prompt_hashes: dict[str, str] = field(default_factory=dict)


def assemble_instruction(code: str, control_info: str, knowledge: str, explain: str) -> Instruction:
    """Fill the judgment template slots in their fixed order.

    Empty augmentation slots must arrive as their degradation markers; the
    code slot may not be empty.
    """
    if not code:
        raise ValueError("code slot must be non-empty")
    return Instruction(
        slots={
            "code": code,
            "control_info": control_info or DEGRADED_CONTROL,
            "knowledge": knowledge or DEGRADED_KNOWLEDGE,
            "explain": explain or DEGRADED_EXPLAIN,
        },
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
    return Verdict(label=label, raw=text, fn_id=fn_id)


_KNOWLEDGE_FAILURES = (
    LlmError,
    EncoderUnavailableError,
    EncoderMismatchError,
    EmptyCorpusError,
)


def triage(
    fn: SourceFunction,
    index: KnowledgeIndex | None,
    llm: ChatClient,
    level: Level = Level.C,
    alpha: float = DEFAULT_ALPHA,
    k: int = DEFAULT_TOP_K,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> Verdict:
    """Run the three context stages and the final judgment for one function."""
    degraded: set[str] = set()
    hashes: dict[str, str] = {}

    try:
        control_info = generate_structural_context(fn, level).s
    except (SourceSyntaxError, UnsupportedLanguageError):
        degraded.add("control")
        control_info = DEGRADED_CONTROL

    knowledge_text = DEGRADED_KNOWLEDGE
    if index is None:
        degraded.add("knowledge")
    else:
        hashes["query"] = prompt_sha256(fill_query_prompt(fn.code))
        try:
            queries = generate_queries(fn, llm)
            rankings = [index.retrieve_top_k(q, k=k, alpha=alpha) for q in queries]
            context = assemble_knowledge(rankings, max_entries=max_entries)
            if context.entries:
                knowledge_text = context.text
            else:
                degraded.add("knowledge")
        except _KNOWLEDGE_FAILURES:
            degraded.add("knowledge")

    hashes["explain"] = prompt_sha256(fill_explanation_prompt(fn.code))
    explanation = generate_explanation(fn, llm)
    if explanation.degraded or not explanation.text:
        degraded.add("semantic")
        explain_text = DEGRADED_EXPLAIN
    else:
        explain_text = explanation.text

    instruction = assemble_instruction(fn.code, control_info, knowledge_text, explain_text)
    prompt = instruction.rendered
    hashes["judge"] = prompt_sha256(prompt)

    try:
        response = llm.complete(ChatRequest(prompt=prompt, tag=f"{fn.id}:judge"))
    except LlmError as exc:
        raise TriageError(f"final judgment failed for {fn.id}: {exc}") from exc

    parse_failure = False
    try:
        verdict = parse_verdict(response.text, fn.id)
    except VerdictParseError:
        retry_prompt = prompt + "\n\n" + _PARSE_RETRY_REMINDER
        try:
            retry_response = llm.complete(
                ChatRequest(prompt=retry_prompt, tag=f"{fn.id}:judge-retry")
            )
            verdict = parse_verdict(retry_response.text, fn.id)
        except (LlmError, VerdictParseError):
            # Conservative default when the model never produces the format.
            verdict = Verdict(label="benign", raw=response.text, fn_id=fn.id)
            parse_failure = True

    return Verdict(
        label=verdict.label,
        raw=verdict.raw,
        fn_id=fn.id,
        degraded_paths=frozenset(degraded),
        parse_failure=parse_failure,
        prompt_hashes=hashes,
    )


# ---------------------------------------------------------------------------
# Batch runner
# ---------------------------------------------------------------------------


def verdict_record(v: Verdict) -> dict:
    return {
        "record": "verdict",
        "id": v.fn_id,
        "label": v.label,
        "degraded_paths": sorted(v.degraded_paths),
        "parse_failure": v.parse_failure,
        "prompt_hashes": dict(sorted(v.prompt_hashes.items())),
    }


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
    interruption is cut off first.  Without ``resume`` the file starts over.
    Wall-clock timing goes to the returned summary, never into the verdict
    file, which stays byte-stable for a fixed dataset, configuration, and
    backend.
    """
    out_path = Path(out_path)
    done_ids: set[str] = set()
    if resume and out_path.exists():
        data = out_path.read_bytes()
        complete = data.rfind(b"\n") + 1
        if complete < len(data):
            # An interrupted write left a partial last line; cut it so the
            # next record starts on a line of its own.
            with open(out_path, "r+b") as handle:
                handle.truncate(complete)
        for line in data[:complete].decode("utf-8").split("\n"):
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if record.get("record") == "verdict":
                done_ids.add(record["id"])
    fresh = not (resume and out_path.exists() and out_path.stat().st_size > 0)

    pending = [fn for fn in functions if fn.id not in done_ids]
    started = time.monotonic()
    failures: list[dict] = []

    def work(fn: SourceFunction):
        try:
            return triage(
                fn, index, llm, level=level, alpha=alpha, k=k, max_entries=max_entries
            )
        except TriageError as exc:
            return exc

    with open(out_path, "w" if fresh else "a", encoding="utf-8") as handle:
        if fresh and meta is not None:
            handle.write(
                json.dumps({"record": "meta", **meta}, ensure_ascii=False, sort_keys=True)
                + "\n"
            )
        # One worker stays on this thread: on glibc a pool thread allocates
        # from its own malloc arena, whose peak adds to the main arena's; on
        # the large-function benchmark workload that raised peak RSS 14-70%.
        if workers <= 1:
            outcomes = map(work, pending)
            for fn, outcome in zip(pending, outcomes):
                _emit(handle, fn, outcome, failures)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for fn, outcome in zip(pending, pool.map(work, pending)):
                    _emit(handle, fn, outcome, failures)

    return {
        "functions": len(functions),
        "processed": len(pending),
        "skipped": len(functions) - len(pending),
        "failures": failures,
        "elapsed_s": time.monotonic() - started,
        "out": str(out_path),
    }


def _emit(handle, fn: SourceFunction, outcome, failures: list[dict]) -> None:
    if isinstance(outcome, TriageError):
        record = {
            "record": "verdict",
            "id": fn.id,
            "label": None,
            "degraded_paths": [],
            "parse_failure": False,
            "error": str(outcome),
        }
        failures.append({"id": fn.id, "error": str(outcome)})
    else:
        record = verdict_record(outcome)
    handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
    handle.flush()
