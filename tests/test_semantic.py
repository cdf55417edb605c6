from __future__ import annotations

from fixtures import COPY_BYTES

from vulncontext.errors import LlmTimeoutError
from vulncontext.graphs import SourceFunction
from vulncontext.llm import ScriptedChatClient
from vulncontext.prompts import EXPLANATION_TEMPLATE, fill_explanation_prompt
from vulncontext.semantic import generate_explanation


def test_explanation_is_model_text_verbatim(copy_bytes):
    client = ScriptedChatClient(default="Copies len bytes after a bound check")
    ctx = generate_explanation(copy_bytes, client)
    assert ctx.text == "Copies len bytes after a bound check"
    assert not ctx.degraded


def test_timeout_degrades_to_flagged_empty_context(copy_bytes):
    client = ScriptedChatClient(rules=[("", LlmTimeoutError)])
    ctx = generate_explanation(copy_bytes, client)
    assert ctx.degraded
    assert ctx.text == ""


def test_prompt_is_template_with_code_substituted_only(copy_bytes):
    client = ScriptedChatClient(default="ok")
    generate_explanation(copy_bytes, client)
    prompt = client.call_log[0].prompt
    assert prompt == EXPLANATION_TEMPLATE.replace("<Code>", COPY_BYTES)
    assert prompt == fill_explanation_prompt(COPY_BYTES)


def test_prompt_carries_the_five_numbered_analysis_points(copy_bytes):
    prompt = fill_explanation_prompt(copy_bytes.code)
    assert "1. The main purpose of the function." in prompt
    for number in ("1.", "2.", "3.", "4.", "5."):
        assert f"\n{number} " in prompt
    assert "Do not decide whether the code is vulnerable in this step." in prompt
