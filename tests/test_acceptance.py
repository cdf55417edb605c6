"""Acceptance suite: seven deterministic criteria, one test per criterion.

Each test prints a single PASS line once its assertions hold, and enforces
its runtime bound.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction

import pytest

from fixtures import (
    COPY_BYTES,
    FIXTURE_CORPUS,
    GOLDEN_T_AST,
    GOLDEN_T_CFG,
    GOLDEN_T_DFG,
    TOY_ENTRIES,
    corpus_functions,
    scripted_rules,
)
from test_structure import brute_force_paths

from vulncontext.cli import main
from vulncontext.errors import LlmTimeoutError, LlmTransportError, TriageError
from vulncontext.evaluation import compute_metrics, mcnemar_exact
from vulncontext.graphs import parse
from vulncontext.knowledge import KnowledgeEntry, build_knowledge_base, hybrid_score
from vulncontext.llm import ScriptedChatClient
from vulncontext.pipeline import triage
from vulncontext.structure import (
    LEVEL_BUDGETS,
    Level,
    enumerate_paths,
    filter_ast,
    filter_cfg,
    filter_dfg,
    trace_chains,
)

LEVELS = [Level.A, Level.B, Level.C]


def _passed(criterion: str, started: float, budget_s: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget_s, f"{criterion} exceeded its {budget_s}s budget ({elapsed:.2f}s)"
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s)")


def _write_jsonl(path, records):
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
        encoding="utf-8",
    )


def test_criterion_1_golden_verbalization(tmp_path, capsys):
    started = time.monotonic()
    dataset = tmp_path / "fn.jsonl"
    _write_jsonl(dataset, [{"id": "copy_bytes", "code": COPY_BYTES}])
    rc = main(["extract-context", "--input", str(dataset), "--level", "C"])
    out = capsys.readouterr().out
    assert rc == 0
    assert GOLDEN_T_AST in out
    assert GOLDEN_T_CFG in out
    assert GOLDEN_T_DFG in out
    # Spot-check the load-bearing substrings byte for byte.
    assert (
        "Function copy_bytes@L1: 2 declarations, 1 assignments, 1 branches, 1 calls. "
        "Key call chain: memcpy." in out
    )
    assert "retained control points 5/9" in out
    assert "edges retained 3/4" in out
    assert "Data chain: param:len → if(len > max) → call memcpy." in out
    with capsys.disabled():
        _passed("1 golden-verbalization", started, 1.0)


def test_criterion_2_metric_identity():
    started = time.monotonic()
    full = compute_metrics(147, 207, 52, 29)
    assert full.error == 288
    for got, want in [
        (full.precision, 0.6000),
        (full.recall, 0.8138),
        (full.fpr, 0.5425),
        (full.accuracy, 0.6356),
        (full.f1, 0.6907),
    ]:
        assert abs(got - want) <= 5e-5
    subset = compute_metrics(55, 55, 18, 3)
    assert abs(subset.accuracy - 0.6985) <= 5e-5
    assert abs(subset.f1 - 0.7358) <= 5e-5
    _passed("2 metric-identity", started, 1.0)


def test_criterion_3_retrieval_oracle():
    started = time.monotonic()
    rng = random.Random(20240817)
    vocabulary = (
        "buffer overflow write read bounds pointer null dereference free use "
        "after heap stack integer wrap sign conversion format string injection "
        "command sql path traversal race toctou leak disclosure crypto random"
    ).split()
    alphas = (0.0, 0.3, 0.5, 0.7, 1.0)
    for trial in range(50):
        size = rng.randint(2, 100)
        entries = [
            KnowledgeEntry(
                f"CWE-{i + 1}",
                f"Weakness {i + 1}",
                " ".join(rng.choices(vocabulary, k=rng.randint(4, 40))),
            )
            for i in range(size)
        ]
        index = build_knowledge_base(entries)
        query = " ".join(rng.choices(vocabulary, k=rng.randint(2, 8)))
        q_dense, q_sparse = index.encoder.encode(query)
        for alpha in alphas:
            scored = sorted(
                (
                    (
                        hybrid_score(q_dense, q_sparse, index.dense[i], index.sparse[i], alpha),
                        int(e.cwe_id.split("-")[1]),
                        e.cwe_id,
                    )
                    for i, e in enumerate(index.entries)
                ),
                key=lambda t: (-t[0], t[1]),
            )
            expected = [cid for _, _, cid in scored[:5]]
            got = [e.cwe_id for e, _ in index.retrieve_top_k(query, k=5, alpha=alpha)]
            assert got == expected, (trial, alpha)
        # Endpoint properties under representation perturbation.
        i = rng.randrange(size)
        base_dense_only = hybrid_score(q_dense, q_sparse, index.dense[i], index.sparse[i], 1.0)
        assert base_dense_only == hybrid_score(
            q_dense, q_sparse, index.dense[i], {"perturbed": 9.9}, 1.0
        )
        base_sparse_only = hybrid_score(q_dense, q_sparse, index.dense[i], index.sparse[i], 0.0)
        assert base_sparse_only == hybrid_score(
            q_dense, q_sparse, index.dense[i] * -3.0, index.sparse[i], 0.0
        )
    _passed("3 retrieval-oracle", started, 10.0)


def test_criterion_4_filtering_properties():
    started = time.monotonic()
    functions = corpus_functions()
    assert len(functions) >= 30
    for fn in functions:
        bundle = parse(fn)
        # Every filtered tree is spliced from this one, so no level keeps noise.
        assert all(n.kind != "type-expansion" for n in bundle.ast.walk()), fn.id
        retained = {
            level: {n.uid for n in filter_ast(bundle.ast, level).walk()} for level in LEVELS
        }
        assert retained[Level.A] <= retained[Level.B] <= retained[Level.C], fn.id
        cfg_f = filter_cfg(bundle.cfg)
        dfg_f = filter_dfg(bundle.dfg)
        for level in LEVELS:
            budget = LEVEL_BUDGETS[level]
            paths = enumerate_paths(cfg_f, budget)
            assert len(paths) <= budget, fn.id
            for path in paths:
                assert path.nodes[0].kind == "entry" and path.nodes[-1].kind == "exit"

            for chain in trace_chains(dfg_f, budget):
                assert chain.nodes[0].kind == "param", fn.id
                if not chain.truncated:
                    assert chain.nodes[-1].kind == "sink", fn.id

        entry = cfg_f.entries()[0]
        oracle = brute_force_paths(cfg_f, entry.id, {n.id for n in cfg_f.exits()})
        if len(oracle) <= LEVEL_BUDGETS[Level.C]:
            got = [
                tuple(n.id for n in p.nodes)
                for p in enumerate_paths(cfg_f, LEVEL_BUDGETS[Level.C])
            ]
            assert got == oracle, fn.id
    _passed("4 filtering-properties", started, 30.0)


def test_criterion_5_pipeline_determinism(tmp_path):
    started = time.monotonic()
    functions = [
        {"id": name, "code": code}
        for name, code in FIXTURE_CORPUS
        if name != "empty"
    ][:10]
    assert len(functions) == 10
    dataset = tmp_path / "ds.jsonl"
    _write_jsonl(dataset, functions)

    corpus = tmp_path / "cwe.csv"
    corpus.write_text(
        "CWE-ID,Name,Description\n"
        + "".join(
            f'{e.cwe_id.split("-")[1]},"{e.name}","{e.description}"\n' for e in TOY_ENTRIES
        ),
        encoding="utf-8",
    )
    kb = tmp_path / "kb.idx"
    assert main(["build-kb", "--corpus", str(corpus), "--out", str(kb)]) == 0

    script = tmp_path / "script.json"
    script.write_text(
        json.dumps(
            {
                "rules": [
                    {
                        "match": "identify at most two possible vulnerability types",
                        "response": "Query 1: buffer overflow\nQuery 2: N/A",
                    },
                    {
                        "match": "summarize its observable functional behavior",
                        "response": "Performs arithmetic and pointer operations.",
                    },
                    {"match": "Return the final prediction", "response": "Verdict: No"},
                ]
            }
        ),
        encoding="utf-8",
    )

    outputs = []
    for run in ("a", "b"):
        out = tmp_path / f"verdicts_{run}.jsonl"
        transcript = tmp_path / f"transcript_{run}.jsonl"
        config = tmp_path / f"config_{run}.json"
        config.write_text(
            json.dumps(
                {
                    "transcript_path": str(transcript),
                    "llm": {"kind": "scripted", "script_path": str(script)},
                }
            ),
            encoding="utf-8",
        )
        rc = main(
            [
                "analyze",
                "--input",
                str(dataset),
                "--kb",
                str(kb),
                "--out",
                str(out),
                "--config",
                str(config),
            ]
        )
        assert rc == 0
        outputs.append(out)

        records = [json.loads(line) for line in transcript.read_text().splitlines()]
        by_fn: dict[str, list[dict]] = {}
        for record in records:
            fn_id, stage = record["tag"].rsplit(":", 1)
            by_fn.setdefault(fn_id, []).append(record)
        assert set(by_fn) == {f["id"] for f in functions}
        for fn_id, fn_records in by_fn.items():
            stages = [r["tag"].rsplit(":", 1)[1] for r in fn_records]
            # Exactly 3 calls: query and explanation run together, so either
            # may be recorded first; the judgment always comes after both.
            assert len(stages) == 3, fn_id
            assert sorted(stages[:2]) == ["explain", "query"] and stages[2] == "judge", fn_id
            judge_prompt = fn_records[-1]["prompt"]
            markers = [
                "1. Source Code:",
                "2. Control Information:",
                "3. Vulnerability Knowledge:",
                "4. Functional Explanation:",
            ]
            offsets = [judge_prompt.find(m) for m in markers]
            assert all(o >= 0 for o in offsets) and offsets == sorted(offsets), fn_id

    # Verdict files differ only if something nondeterministic leaked in;
    # config paths differ per run, so compare past the meta line.
    lines_a = outputs[0].read_text().splitlines()
    lines_b = outputs[1].read_text().splitlines()
    assert lines_a[1:] == lines_b[1:]
    assert len(lines_a) == 11  # meta + 10 verdicts

    # And a bitwise-identical rerun with the same paths: run a again resumed
    # off a fresh directory is covered by unit tests; here rerun in place.
    rerun = tmp_path / "verdicts_c.jsonl"
    config = tmp_path / "config_a.json"
    rc = main(
        [
            "analyze",
            "--input",
            str(dataset),
            "--kb",
            str(kb),
            "--out",
            str(rerun),
            "--config",
            str(config),
        ]
    )
    assert rc == 0
    assert rerun.read_bytes() == outputs[0].read_bytes()
    _passed("5 pipeline-determinism", started, 5.0)


def test_criterion_6_mcnemar_exactness():
    started = time.monotonic()
    half = Fraction(1, 2)
    for n in range(0, 26):
        for b in range(0, n + 1):
            c = n - b
            labels = ["vulnerable"] * n
            preds_a = ["vulnerable"] * b + ["benign"] * c
            preds_b = ["benign"] * b + ["vulnerable"] * c
            got = mcnemar_exact(preds_a, preds_b, labels)
            if n == 0:
                expected = 1.0
            else:
                tail = sum(math.comb(n, i) * half**n for i in range(min(b, c) + 1))
                expected = float(min(2 * tail, Fraction(1)))
            assert math.isclose(got, expected, rel_tol=0, abs_tol=1e-12), (b, c)

    # Significance bands on synthetic prediction vectors.
    strong_a = ["vulnerable"] * 25 + ["benign"] * 2
    strong_b = ["benign"] * 25 + ["vulnerable"] * 2
    assert mcnemar_exact(strong_a, strong_b, ["vulnerable"] * 27) < 0.001
    mild_a = ["vulnerable"] * 20 + ["benign"] * 6
    mild_b = ["benign"] * 20 + ["vulnerable"] * 6
    p = mcnemar_exact(mild_a, mild_b, ["vulnerable"] * 26)
    assert 0.001 < p < 0.05
    _passed("6 mcnemar-exactness", started, 5.0)


def test_criterion_7_degradation_matrix():
    started = time.monotonic()
    index = build_knowledge_base(list(TOY_ENTRIES))
    from vulncontext.graphs import SourceFunction

    ok_code = COPY_BYTES
    cases = []

    # Control-path fault: unparseable source.
    client = ScriptedChatClient(rules=scripted_rules("Verdict: No"))
    verdict = triage(SourceFunction(id="bad", code="void oops( {"), index, client)
    cases.append(("control", verdict))

    # Knowledge-path fault: the retrieval-query call fails.
    client = ScriptedChatClient(
        rules=[
            ("identify at most two possible vulnerability types", LlmTransportError),
            ("summarize its observable functional behavior", "fine"),
            ("Return the final prediction", "Verdict: Yes"),
        ]
    )
    verdict = triage(SourceFunction(id="cb", code=ok_code), index, client)
    cases.append(("knowledge", verdict))

    # Semantic-path fault: explanation call times out.
    client = ScriptedChatClient(
        rules=[
            (
                "identify at most two possible vulnerability types",
                "Query 1: overflow\nQuery 2: N/A",
            ),
            ("summarize its observable functional behavior", LlmTimeoutError),
            ("Return the final prediction", "Verdict: Yes"),
        ]
    )
    verdict = triage(SourceFunction(id="cb", code=ok_code), index, client)
    cases.append(("semantic", verdict))

    for expected_path, verdict in cases:
        assert verdict.label in ("vulnerable", "benign")
        assert verdict.degraded_paths == frozenset({expected_path})

    # Only a judgment failure aborts the function.
    client = ScriptedChatClient(
        rules=[
            (
                "identify at most two possible vulnerability types",
                "Query 1: overflow\nQuery 2: N/A",
            ),
            ("summarize its observable functional behavior", "fine"),
            ("Return the final prediction", LlmTransportError),
        ]
    )
    with pytest.raises(TriageError):
        triage(SourceFunction(id="cb", code=ok_code), index, client)
    _passed("7 degradation-matrix", started, 5.0)
