"""Chat-completion clients and the settings every model call shares.

``LlmSettings`` is the one place the inference setup is written.  A request
carries only its prompt and a tag: the HTTP backend sends the settings'
sampling parameters and timeout, and the transcript wrapper records them as
``params``.  Transient failures are retried with exponential backoff, a
bounded wrapper caps in-flight requests, and a transcript wrapper appends
every request/response pair to a replay log.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass

from .errors import (
    LlmBadResponseError,
    LlmError,
    LlmRateLimitedError,
    LlmTimeoutError,
    LlmTransportError,
)

__all__ = [
    "LlmSettings",
    "ChatRequest",
    "ChatResponse",
    "ChatClient",
    "ScriptedChatClient",
    "HttpChatClient",
    "BoundedClient",
    "TranscribingClient",
    "RetryPolicy",
    "prompt_sha256",
    "default_offline_rules",
]


@dataclass
class LlmSettings:
    kind: str = "scripted"  # scripted | http
    model: str = "offline-script"
    endpoint: str = ""
    api_key_env: str = "VULNCONTEXT_API_KEY"
    temperature: float = 0.7
    top_p: float = 1.0
    frequency_penalty: float = 0.0
    presence_penalty: float = 0.0
    timeout: float = 300.0
    max_retries: int = 3
    backoff_s: float = 1.0
    max_in_flight: int = 4
    script_path: str | None = None


@dataclass
class ChatRequest:
    prompt: str
    tag: str = ""


@dataclass
class ChatResponse:
    text: str
    latency: float = 0.0
    model_id: str = ""


def prompt_sha256(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class ChatClient:
    """Interface: complete one chat request, raising LlmError subtypes."""

    def complete(self, req: ChatRequest) -> ChatResponse:
        raise NotImplementedError


@dataclass
class RetryPolicy:
    attempts: int
    backoff_s: float
    sleep: object = time.sleep  # injectable for tests

    def run(self, fn):
        last: LlmError | None = None
        for attempt in range(self.attempts):
            try:
                return fn(), attempt
            except (LlmTransportError, LlmRateLimitedError, LlmTimeoutError) as exc:
                last = exc
                if attempt + 1 < self.attempts:
                    self.sleep(self.backoff_s * (2**attempt))
        raise last if last is not None else LlmError("no attempts made")


class ScriptedChatClient(ChatClient):
    """Fully deterministic backend for tests and offline runs.

    Rules are (substring, outcome) pairs matched against the prompt in order;
    an outcome may be a response string, a callable of the prompt, or an
    exception to raise.  Every request lands in ``call_log``.
    """

    def __init__(
        self,
        rules: list[tuple[str, object]] | None = None,
        default: str | None = None,
        model_id: str = "scripted",
    ):
        self.rules = list(rules or [])
        self.default = default
        self.model_id = model_id
        self.call_log: list[ChatRequest] = []
        self._lock = threading.Lock()

    def complete(self, req: ChatRequest) -> ChatResponse:
        with self._lock:
            self.call_log.append(req)
        for needle, outcome in self.rules:
            if needle in req.prompt:
                return self._resolve(outcome, req)
        if self.default is not None:
            return ChatResponse(text=self.default, model_id=self.model_id)
        raise LlmBadResponseError(
            f"scripted backend has no rule for prompt tagged {req.tag!r}"
        )

    def _resolve(self, outcome, req: ChatRequest) -> ChatResponse:
        if isinstance(outcome, type) and issubclass(outcome, Exception):
            raise outcome(f"scripted failure for {req.tag!r}")
        if isinstance(outcome, Exception):
            raise outcome
        if callable(outcome):
            outcome = outcome(req.prompt)
        return ChatResponse(text=str(outcome), model_id=self.model_id)


def default_offline_rules() -> list[tuple[str, object]]:
    """Built-in script used when a run is configured offline with no script file.

    Verdicts key off simple code heuristics so demo runs stay deterministic
    while exercising both labels.
    """

    def judge(prompt: str) -> str:
        start = prompt.find("1. Source Code:")
        end = prompt.find("2. Control Information:")
        code = prompt[start:end] if 0 <= start < end else prompt
        risky = ("memcpy", "strcpy", "sprintf", "gets(", "system(", "strcat")
        return "Verdict: Yes" if any(tok in code for tok in risky) else "Verdict: No"

    return [
        (
            "identify at most two possible vulnerability types",
            "Query 1: buffer overflow via unchecked length\nQuery 2: N/A",
        ),
        (
            "summarize its observable functional behavior",
            "The function manipulates caller-provided data with bounds-dependent operations.",
        ),
        ("Return the final prediction", judge),
    ]


class HttpChatClient(ChatClient):
    """OpenAI-style chat completions over HTTP with bearer-token auth.

    Endpoint, model, sampling parameters and timeout come from ``settings``;
    the API key is read from the environment variable it names.
    """

    def __init__(self, settings: LlmSettings, retry: RetryPolicy | None = None):
        self.settings = settings
        self.retry = retry or RetryPolicy(settings.max_retries, settings.backoff_s)

    def complete(self, req: ChatRequest) -> ChatResponse:
        return self.retry.run(lambda: self._send(req))[0]

    def _send(self, req: ChatRequest) -> ChatResponse:
        s = self.settings
        api_key = os.environ.get(s.api_key_env, "")
        if not api_key:
            raise LlmTransportError(
                f"missing API key: environment variable {s.api_key_env} is unset"
            )
        body = json.dumps(
            {
                "model": s.model,
                "messages": [{"role": "user", "content": req.prompt}],
                "temperature": s.temperature,
                "top_p": s.top_p,
                "frequency_penalty": s.frequency_penalty,
                "presence_penalty": s.presence_penalty,
            }
        ).encode("utf-8")
        request = urllib.request.Request(
            s.endpoint,
            data=body,
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {api_key}",
            },
        )
        started = time.monotonic()
        try:
            with urllib.request.urlopen(request, timeout=s.timeout) as raw:
                payload = json.loads(raw.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            if exc.code == 429:
                raise LlmRateLimitedError(f"rate limited: {exc}") from exc
            raise LlmTransportError(f"HTTP {exc.code}: {exc}") from exc
        except urllib.error.URLError as exc:
            if isinstance(exc.reason, TimeoutError):
                raise LlmTimeoutError(f"request timed out after {s.timeout}s") from exc
            raise LlmTransportError(str(exc)) from exc
        except TimeoutError as exc:
            raise LlmTimeoutError(f"request timed out after {s.timeout}s") from exc
        latency = time.monotonic() - started
        try:
            text = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise LlmBadResponseError(f"malformed completion payload: {exc}") from exc
        if text is None:
            raise LlmBadResponseError("completion payload carries no text")
        return ChatResponse(
            text=text, latency=latency, model_id=payload.get("model", s.model)
        )


class BoundedClient(ChatClient):
    """Caps concurrent in-flight requests on a shared inner client."""

    def __init__(self, inner: ChatClient, max_in_flight: int):
        self.inner = inner
        self._slots = threading.BoundedSemaphore(max(1, max_in_flight))

    def complete(self, req: ChatRequest) -> ChatResponse:
        with self._slots:
            return self.inner.complete(req)


class TranscribingClient(ChatClient):
    """Appends every request/response pair to a JSONL transcript file."""

    def __init__(self, inner: ChatClient, path: str, settings: LlmSettings):
        self.inner = inner
        self.path = path
        self.settings = settings
        self._lock = threading.Lock()

    def complete(self, req: ChatRequest) -> ChatResponse:
        response = self.inner.complete(req)
        s = self.settings
        record = {
            "tag": req.tag,
            "prompt_sha256": prompt_sha256(req.prompt),
            "prompt": req.prompt,
            "response": response.text,
            "params": {
                "temperature": s.temperature,
                "top_p": s.top_p,
                "frequency_penalty": s.frequency_penalty,
                "presence_penalty": s.presence_penalty,
                "timeout": s.timeout,
            },
            "model_id": response.model_id,
            "timestamp": time.time(),
        }
        line = json.dumps(record, ensure_ascii=False)
        with self._lock, open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        return response
