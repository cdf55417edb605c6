"""Prompt templates for the three model calls.

Each template carries angle-bracket placeholders that are substituted
verbatim; nothing else in the template text changes at runtime.
"""

from __future__ import annotations

import re

__all__ = [
    "QUERY_GENERATION_TEMPLATE",
    "EXPLANATION_TEMPLATE",
    "JUDGMENT_TEMPLATE",
    "fill_query_prompt",
    "fill_explanation_prompt",
    "fill_judgment_prompt",
]

QUERY_GENERATION_TEMPLATE = """You are an expert software security analyst.

Given the following source code, identify at most two possible vulnerability types or weakness patterns that may be relevant to this code. Your output will be used as retrieval queries for a vulnerability knowledge base, so each query should be concise, security-specific, and written in natural language.

If the code appears unlikely to contain any vulnerability, output a generic query that can still help retrieve common vulnerability inspection knowledge.

Source Code:
<Code>

Output format:
Query 1: <a concise vulnerability description>
Query 2: <a concise vulnerability description or N/A>"""

EXPLANATION_TEMPLATE = """You are an expert program analysis assistant.

Given the following source code, summarize its observable functional behavior. Focus on what the code directly does rather than speculating about hidden intent.

Please describe:
1. The main purpose of the function.
2. Important inputs, parameters, and return values.
3. Key operations, including memory operations, pointer operations, file operations, system calls, arithmetic operations, and boundary checks if present.
4. Observable data flow from inputs to sensitive operations when applicable.
5. Any security-relevant behavior that can be inferred directly from the code.

Do not decide whether the code is vulnerable in this step. Only provide a concise functional explanation.

Source Code:
<Code>

Functional Explanation:"""

JUDGMENT_TEMPLATE = """You are an expert software security engineer.

Your task is to determine whether the given source code contains a potential vulnerability. You are provided with four types of information:

1. Source Code:
<Code>

2. Control Information:
<Control_Info>

3. Vulnerability Knowledge:
<Knowledge>

4. Functional Explanation:
<Explain>

Please analyze the code by considering:
- whether user-controlled or external data can reach sensitive operations;
- whether control-flow and data-flow dependencies indicate missing checks;
- whether the retrieved vulnerability knowledge matches the observed code behavior;
- whether the functional explanation reveals risky memory, pointer, file, arithmetic, or system-level operations;
- whether there are sufficient guards, validations, or boundary checks.

Return the final prediction using the following strict format:

Verdict: <Yes or No>"""


def fill_query_prompt(code: str) -> str:
    return QUERY_GENERATION_TEMPLATE.replace("<Code>", code)


def fill_explanation_prompt(code: str) -> str:
    return EXPLANATION_TEMPLATE.replace("<Code>", code)


_JUDGMENT_SLOT_RE = re.compile(r"<(Code|Control_Info|Knowledge|Explain)>")


def fill_judgment_prompt(code: str, control_info: str, knowledge: str, explain: str) -> str:
    # One pass over the template, so a placeholder inside a slot's text stays as written.
    slots = {"Code": code, "Control_Info": control_info, "Knowledge": knowledge, "Explain": explain}
    return _JUDGMENT_SLOT_RE.sub(lambda match: slots[match.group(1)], JUDGMENT_TEMPLATE)
