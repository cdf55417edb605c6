"""Functional-level explanation of a function, obtained from one model call."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LlmError
from .graphs import SourceFunction
from .llm import ChatClient, ChatRequest
from .prompts import fill_explanation_prompt

__all__ = ["SemanticContext", "generate_explanation"]


@dataclass
class SemanticContext:
    text: str
    degraded: bool = False


def generate_explanation(fn: SourceFunction, llm: ChatClient) -> SemanticContext:
    """Request a behavior summary of ``fn.code``; the response is kept verbatim.

    The prompt instructs the model to describe only directly observable
    behavior and to withhold any vulnerability verdict.  A failed call
    degrades to an empty, flagged context instead of raising.
    """
    prompt = fill_explanation_prompt(fn.code)
    try:
        response = llm.complete(ChatRequest(prompt=prompt, tag=f"{fn.id}:explain"))
    except LlmError:
        return SemanticContext(text="", degraded=True)
    return SemanticContext(text=response.text)
