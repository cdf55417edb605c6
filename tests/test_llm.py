from __future__ import annotations

import http.server
import json
import threading
import time
import urllib.request

import pytest

from vulncontext.config import build_client, load_config
from vulncontext.errors import (
    LlmBadResponseError,
    LlmTimeoutError,
    LlmTransportError,
)
from vulncontext.llm import (
    BoundedClient,
    ChatRequest,
    ChatResponse,
    HttpChatClient,
    LlmSettings,
    RetryPolicy,
    ScriptedChatClient,
    TranscribingClient,
    prompt_sha256,
)


def test_request_defaults_match_reference_inference_config(echo_port):
    client = HttpChatClient(_http_settings(echo_port))
    client.complete(ChatRequest(prompt="p"))
    [body] = _EchoHandler.bodies
    assert body["temperature"] == 0.7
    assert body["top_p"] == 1.0
    assert body["frequency_penalty"] == 0
    assert body["presence_penalty"] == 0


def test_scripted_client_is_deterministic():
    client = ScriptedChatClient(rules=[("ping", "pong")])
    first = client.complete(ChatRequest(prompt="say ping"))
    second = client.complete(ChatRequest(prompt="say ping"))
    assert first.text == second.text == "pong"
    assert len(client.call_log) == 2


def test_scripted_client_without_rule_raises():
    client = ScriptedChatClient(rules=[("nope", "x")])
    with pytest.raises(LlmBadResponseError):
        client.complete(ChatRequest(prompt="unmatched"))


def test_retry_policy_two_failures_then_success():
    attempts = {"n": 0}
    slept: list[float] = []

    def flaky():
        attempts["n"] += 1
        if attempts["n"] < 3:
            raise LlmTransportError("connection reset")
        return ChatResponse(text="ok")

    policy = RetryPolicy(attempts=3, backoff_s=1.0, sleep=slept.append)
    response, retries = policy.run(flaky)
    assert response.text == "ok"
    assert retries == 2
    assert slept == [1.0, 2.0]  # exponential backoff from 1 s


def test_retry_policy_exhaustion_reraises():
    def always_down():
        raise LlmTransportError("down")

    policy = RetryPolicy(attempts=3, backoff_s=0.0, sleep=lambda *_: None)
    with pytest.raises(LlmTransportError):
        policy.run(always_down)


class _StallingHandler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        time.sleep(3)
        self.send_response(200)
        self.end_headers()

    def log_message(self, *args):
        pass


def test_http_client_times_out_against_stalling_server(monkeypatch):
    server = http.server.HTTPServer(("127.0.0.1", 0), _StallingHandler)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    monkeypatch.setenv("TEST_LLM_KEY", "k")
    client = HttpChatClient(
        _http_settings(port, timeout=0.25),
        retry=RetryPolicy(attempts=1, backoff_s=0.0, sleep=lambda *_: None),
    )
    try:
        with pytest.raises(LlmTimeoutError):
            client.complete(ChatRequest(prompt="p"))
    finally:
        server.shutdown()


def _http_settings(port: int, **overrides) -> LlmSettings:
    return LlmSettings(
        kind="http",
        model="m",
        endpoint=f"http://127.0.0.1:{port}/v1/chat/completions",
        api_key_env="TEST_LLM_KEY",
        **overrides,
    )


class _EchoHandler(http.server.BaseHTTPRequestHandler):
    bodies: list[dict] = []  # every request body the server received

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.bodies.append(body)
        payload = {
            "model": body["model"],
            "choices": [{"message": {"content": f"echo: {body['messages'][0]['content']}"}}],
        }
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def echo_port(monkeypatch):
    server = http.server.HTTPServer(("127.0.0.1", 0), _EchoHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    monkeypatch.setenv("TEST_LLM_KEY", "k")
    _EchoHandler.bodies.clear()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()


def test_http_client_round_trip(echo_port):
    client = HttpChatClient(_http_settings(echo_port, timeout=5))
    response = client.complete(ChatRequest(prompt="hello"))
    assert response.text == "echo: hello"


def test_configured_settings_reach_the_wire_and_the_transcript(echo_port, tmp_path, monkeypatch):
    timeouts: list[float] = []
    real_urlopen = urllib.request.urlopen

    def spy(request, timeout):
        timeouts.append(timeout)
        return real_urlopen(request, timeout=timeout)

    monkeypatch.setattr(urllib.request, "urlopen", spy)
    config_path = tmp_path / "config.json"
    transcript = tmp_path / "transcript.jsonl"
    config_path.write_text(
        json.dumps(
            {
                "transcript_path": str(transcript),
                "llm": {
                    "kind": "http",
                    "model": "m",
                    "endpoint": f"http://127.0.0.1:{echo_port}/v1/chat/completions",
                    "api_key_env": "TEST_LLM_KEY",
                    "temperature": 0.2,
                    "timeout": 7,
                },
            }
        ),
        encoding="utf-8",
    )
    client = build_client(load_config(config_path))
    assert client.complete(ChatRequest(prompt="hi", tag="f:judge")).text == "echo: hi"
    [body] = _EchoHandler.bodies
    assert (body["temperature"], body["top_p"]) == (0.2, 1.0)
    assert (body["frequency_penalty"], body["presence_penalty"]) == (0, 0)
    assert timeouts == [7]
    [record] = [json.loads(line) for line in transcript.read_text().splitlines()]
    assert record["params"] == {
        "temperature": 0.2,
        "top_p": 1.0,
        "frequency_penalty": 0.0,
        "presence_penalty": 0.0,
        "timeout": 7,
    }


def test_http_client_requires_api_key(monkeypatch):
    monkeypatch.delenv("MISSING_KEY", raising=False)
    client = HttpChatClient(
        LlmSettings(
            kind="http",
            model="m",
            endpoint="http://127.0.0.1:1/x",
            api_key_env="MISSING_KEY",
            timeout=0.2,
        ),
        retry=RetryPolicy(attempts=1, backoff_s=0.0, sleep=lambda *_: None),
    )
    with pytest.raises(LlmTransportError):
        client.complete(ChatRequest(prompt="p"))


def test_bounded_client_caps_in_flight_requests():
    active = {"now": 0, "peak": 0}
    lock = threading.Lock()

    class Slow(ScriptedChatClient):
        def complete(self, req):
            with lock:
                active["now"] += 1
                active["peak"] = max(active["peak"], active["now"])
            time.sleep(0.02)
            with lock:
                active["now"] -= 1
            return ChatResponse(text="done")

    client = BoundedClient(Slow(), max_in_flight=2)
    threads = [
        threading.Thread(target=client.complete, args=(ChatRequest(prompt=str(i)),))
        for i in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert active["peak"] <= 2


def test_transcript_records_requests(tmp_path):
    path = tmp_path / "transcript.jsonl"
    inner = ScriptedChatClient(rules=[("hello", "world")])
    client = TranscribingClient(inner, str(path), LlmSettings())
    client.complete(ChatRequest(prompt="hello there", tag="fn1:judge"))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == 1
    rec = records[0]
    assert rec["tag"] == "fn1:judge"
    assert rec["prompt_sha256"] == prompt_sha256("hello there")
    assert rec["response"] == "world"
    assert rec["params"]["temperature"] == 0.7
