"""Hostile input shapes: each costs bounded time and leaves one verdict record.

Every shape goes through ``run_triage``, which must write exactly one record
for it and let no exception escape, and through
``generate_structural_context``, which must finish (or raise
``SourceTooDeepError``) within ten times the time it took on a 2-vCPU host.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import pytest

from fixtures import copy_bytes_fn, dead_end, nested_ifs, scripted_rules

from vulncontext.errors import SourceSyntaxError, SourceTooDeepError
from vulncontext.graphs import SourceFunction, parse
from vulncontext.llm import ScriptedChatClient
from vulncontext.pipeline import run_triage
from vulncontext.structure import generate_structural_context

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


def _long_expression(op: str, form: str, terms: int) -> SourceFunction:
    expr = f" {op} ".join(["a"] * terms)
    body = {
        "return": f"return {expr};",
        "assignment": f"a = {expr};\n    return a;",
        "condition": f"if ({expr})\n        return 1;\n    return 0;",
    }[form]
    return SourceFunction(id=f"long-{form}-{terms}", code=f"int f(int a) {{\n    {body}\n}}\n")


def _switch(cases: int) -> SourceFunction:
    arms = "".join(f"    case {i}: a = g(a, {i}); break;\n" for i in range(cases))
    code = f"int pick(int a) {{\n  switch (a) {{\n{arms}  default: a = 0;\n  }}\n  return a;\n}}\n"
    return SourceFunction(id=f"switch-{cases}", code=code)


def _parameters(count: int) -> SourceFunction:
    params = ", ".join(f"int p{i}" for i in range(count))
    return SourceFunction(id=f"params-{count}", code=f"int many({params}) {{\n    return p0 + p{count - 1};\n}}\n")


def _large(shape: str, size: int) -> SourceFunction:
    generated = workloads.large_function(random.Random(0), 0, shape, size, "benign")
    return SourceFunction(id=f"{shape}-{size}", code=generated.code)


def _innermost(tb, frames: int):
    chain = []
    while tb is not None:
        chain.append(tb)
        tb = tb.tb_next
    return chain[-frames]


def _records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


_PATH_RECURSION = pytest.mark.xfail(
    raises=RecursionError,
    strict=True,
    reason="path enumeration recurses once per CFG node until it walks an explicit stack (ROADMAP item 2 (c))",
)

# Shape, and the milliseconds ``generate_structural_context`` took for it on a
# 2-vCPU host (rounded up; at least 1).
SHAPES = [
    pytest.param(nested_ifs(130), 35, id="nested-ifs-130"),
    pytest.param(nested_ifs(200), 12, id="nested-ifs-200"),
    pytest.param(_long_expression("+", "return", 2000), 60, id="terms-2000"),
    pytest.param(SourceFunction(id="self-goto", code="void spin(void) {\n    L: goto L;\n}\n"), 1, id="self-goto"),
    pytest.param(dead_end(22), 12, id="dead-end-22"),
    pytest.param(_switch(200), 90, id="switch-200"),
    pytest.param(_parameters(50), 5, id="parameters-50"),
    pytest.param(SourceFunction(id="empty", code="void nothing(void) {}\n"), 1, id="empty-body"),
    pytest.param(_large("calls", 1200), 220, id="calls-1200", marks=_PATH_RECURSION),
    # 1500 ifs redefining one variable: each definition reaches every later use.
    pytest.param(_large("ifs", 3000), 160, id="ifs-3000", marks=_PATH_RECURSION),
]


@pytest.mark.parametrize("fn, measured_ms", SHAPES)
def test_hostile_shape_costs_bounded_time_and_leaves_one_record(fn, measured_ms, toy_index, tmp_path):
    out = tmp_path / "verdicts.jsonl"
    try:
        run_triage([fn], toy_index, ScriptedChatClient(rules=scripted_rules()), out)
    except RecursionError as exc:
        # pytest takes seconds to format a traceback a thousand frames deep;
        # the innermost frames show what recursed.
        raise exc.with_traceback(_innermost(exc.__traceback__, 20))
    assert [(r["record"], r["id"]) for r in _records(out)] == [("verdict", fn.id)]

    bound = 10 * measured_ms / 1000
    # The best of three runs, so one scheduling pause does not fail the bound.
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        try:
            generate_structural_context(fn)
        except SourceTooDeepError:
            pass
        elapsed.append(time.perf_counter() - start)
        if elapsed[-1] < bound:
            break
    assert min(elapsed) < bound, (fn.id, elapsed)


LONG_EXPRESSIONS = [
    pytest.param(op, form, terms, id=f"{name}-{form}-{terms}")
    for op, name in (("+", "plus"), ("&&", "and"))
    for form in ("return", "assignment", "condition")
    for terms in (248, 400, 2000)
]


@pytest.mark.parametrize("op, form, terms", LONG_EXPRESSIONS)
def test_long_expression_is_too_deep_and_degrades_only_its_control_slot(op, form, terms, toy_index, tmp_path):
    fn = _long_expression(op, form, terms)
    with pytest.raises(SourceTooDeepError) as err:
        parse(fn)
    assert isinstance(err.value, SourceSyntaxError)
    assert isinstance(err.value.__cause__, RecursionError)

    out = tmp_path / "verdicts.jsonl"
    run_triage([fn, copy_bytes_fn()], toy_index, ScriptedChatClient(rules=scripted_rules()), out)
    records = _records(out)
    assert [(r["record"], r["id"]) for r in records] == [("verdict", fn.id), ("verdict", "copy_bytes")]
    assert records[0]["degraded_paths"] == ["control"]
    assert records[1]["degraded_paths"] == []


def test_a_pycparser_attribute_error_is_a_syntax_error_and_degrades_only_its_control_slot(toy_index, tmp_path):
    # pycparser 3.0 raises AttributeError, not ParseError, on this body, so the
    # frontend must keep catching more than ParseError.
    fn = SourceFunction(id="enum-twice", code="int f(int a) { enum {A} enum {A}; }\n")
    with pytest.raises(SourceSyntaxError) as err:
        parse(fn)
    assert err.value.line is None
    assert isinstance(err.value.__cause__, AttributeError)

    out = tmp_path / "verdicts.jsonl"
    run_triage([fn, copy_bytes_fn()], toy_index, ScriptedChatClient(rules=scripted_rules()), out)
    records = _records(out)
    assert [(r["record"], r["id"]) for r in records] == [("verdict", fn.id), ("verdict", "copy_bytes")]
    assert records[0]["degraded_paths"] == ["control"]
    assert records[1]["degraded_paths"] == []
