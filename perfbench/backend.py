"""The benchmark's own model backend: a per-function script plus tag-derived latency."""

from __future__ import annotations

import hashlib
import threading
import time

from vulncontext.errors import LlmTransportError
from vulncontext.llm import ChatClient, ChatRequest, ChatResponse

from workloads import ScriptEntry

UNPARSEABLE_QUERY_ANSWER = "I cannot tell which weakness this code might have."
NO_VERDICT_ANSWER = "The function copies caller data; a careful review is advised."


def _verdict_line(label: str) -> str:
    return "Verdict: Yes" if label == "vulnerable" else "Verdict: No"


class ScriptBackend(ChatClient):
    """Answers each request from the script entry named by its tag.

    A tag reads ``<function id>:<call kind>``.  When ``mean_latency_s`` is
    positive every call sleeps ``mean * (0.5 + u)`` with ``u`` in [0, 1)
    derived from the tag's hash, so the latency of a call does not depend on
    prompt bytes.  Every tag lands in ``calls``, failed calls included.
    """

    def __init__(self, script: dict[str, ScriptEntry], mean_latency_s: float = 0.0):
        self.script = script
        self.mean_latency_s = mean_latency_s
        self.calls: list[str] = []
        self._lock = threading.Lock()

    def latency(self, tag: str) -> float:
        digest = hashlib.sha256(tag.encode("utf-8")).digest()
        return self.mean_latency_s * (0.5 + int.from_bytes(digest[:8], "big") / 2**64)

    def complete(self, req: ChatRequest) -> ChatResponse:
        with self._lock:
            self.calls.append(req.tag)
        fn_id, _, kind = req.tag.rpartition(":")
        entry = self.script[fn_id]
        delay = self.latency(req.tag) if self.mean_latency_s > 0 else 0.0
        if delay:
            time.sleep(delay)
        if kind == "query":
            if "query-fallback" in entry.faults:
                text = UNPARSEABLE_QUERY_ANSWER
            else:
                lines = [f"Query {k}: {q}" for k, q in enumerate(entry.queries, start=1)]
                if len(lines) == 1:
                    lines.append("Query 2: N/A")
                text = "\n".join(lines)
        elif kind == "explain":
            if "explain-error" in entry.faults:
                raise LlmTransportError(f"scripted transport failure for {req.tag!r}")
            text = f"Function {fn_id} copies caller-provided data after local bookkeeping."
        elif kind == "judge":
            if "judge-retry" in entry.faults:
                text = NO_VERDICT_ANSWER
            else:
                text = f"Reasoning over the four contexts.\n{_verdict_line(entry.label)}"
        elif kind == "judge-retry":
            text = _verdict_line(entry.label)
        else:
            raise LlmTransportError(f"script has no answer for call kind {kind!r}")
        return ChatResponse(text=text, latency=delay, model_id="perfbench-script")


def expected_kinds(entry: ScriptEntry) -> list[str]:
    """The model calls the pipeline must make for a function that gets a verdict."""
    kinds = ["query", "explain", "judge"]
    if "judge-retry" in entry.faults:
        kinds.append("judge-retry")
    return kinds
