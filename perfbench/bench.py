"""Offline triage benchmark: generate inputs, run batches, check outputs, report.

A run drives the library's public API the way ``vulncontext analyze`` does:
load the functions and the saved knowledge index, build a bounded chat
client, and call ``run_triage`` on batches of functions until the requested
time has passed.  Load is a closed loop: each of the 1 or 2 workers waits for
its function's verdict before taking the next one.  Every output is checked
against the model script and against a brute-force retrieval oracle; a wrong
output raises :class:`BenchmarkFailure` and no number is reported.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import heapq
import json
import os
import platform
import random
import re
import resource
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy
import pycparser

import vulncontext.datasets as datasets
import vulncontext.evaluation as evaluation
import vulncontext.knowledge as knowledge
import vulncontext.pipeline as pipeline
from vulncontext.config import LlmSettings, RunConfig
from vulncontext.llm import BoundedClient

import workloads
from workloads import WORKLOADS
from backend import ScriptBackend, expected_kinds
from spans import BenchmarkFailure, Recorder, Span, covered, self_time

# 15 pairs per run_triage call, one per size stratum: the latency median and
# p90 then fall inside a stratum (7.5 and 13.5 of 15), not on a boundary.
SMALL_BATCH = 30
SMALL_POOL_BATCHES = 100
LARGE_POOL_CYCLES = 3
# One run_triage call per large function, each after a full collection:
# otherwise a collection of the garbage an earlier large function left lands,
# 70-95 ms long, in a random later function and moves the latency median.
LARGE_BATCH = 1
# The host's speed drifts over tens of seconds, and the fastest of a few
# repeats varied more from run to run than a median spread over the whole
# run.  So set-up and the build are repeated between batches all through the
# measured pass, at most once per interval, and reported as medians.
SETUP_EVERY_S = 2.0
BUILD_EVERY_S = 6.0
TRACED_REPEATS = 4  # set-ups and builds in the traced run
RESUME_SCANS = 5
EVALUATIONS = 5


@dataclass
class Inputs:
    pool: list[workloads.GeneratedFunction]
    batches: list[list[str]]  # function ids per batch
    unit: int  # consecutive batches that hold one balanced mix (stop only between units)
    script: dict[str, workloads.ScriptEntry]
    functions_path: Path
    pairs_path: Path
    cwe_path: Path
    cwe_rows: list[dict[str, str]]
    errors: dict[str, str]  # function id -> exception class it may raise today


def generate(name: str, seed: int, work: Path) -> Inputs:
    """Write the workload's files; the library sees nothing else."""
    spec = WORKLOADS[name]
    if spec.kind == "small":
        rng = random.Random(f"small:{seed}")
        pairs_per_batch = SMALL_BATCH // 2
        targets = [t for _ in range(SMALL_POOL_BATCHES) for t in workloads.small_sizes(rng, pairs_per_batch)]
        pool = [fn for k, target in enumerate(targets) for fn in workloads.small_pair(rng, k, target)]
        units = [pool[k : k + SMALL_BATCH] for k in range(0, len(pool), SMALL_BATCH)]
        batch_size = SMALL_BATCH
        pairs = [(f"pair-{k // 2}", pool[k].id, pool[k + 1].id) for k in range(0, len(pool), 2)]

        def eligible(fn):
            return True
    else:
        rng = random.Random(f"large:{seed}")
        units = [workloads.large_cycle(rng, c) for c in range(LARGE_POOL_CYCLES)]
        pool = [fn for cycle in units for fn in cycle]
        batch_size = LARGE_BATCH
        pairs = [(f"pair-{k // 2}", pool[k].id, pool[k + 1].id) for k in range(0, len(pool), 2)]

        # Scripted faults go to functions whose structural stage completes
        # today, so every model-call kind is measured in every run.
        def eligible(fn):
            return fn.shape != "calls"

    srng = random.Random(f"script:{seed}")
    zipf = workloads.query_zipf(seed)
    script: dict[str, workloads.ScriptEntry] = {}
    batches = []
    for members in units:
        script.update(workloads.script_for(srng, zipf, members, eligible))
        batches += [
            [fn.id for fn in members[k : k + batch_size]] for k in range(0, len(members), batch_size)
        ]
    unit = len(batches) // len(units)

    work.mkdir(parents=True)  # fresh, so no verdict file of an earlier run is resumed
    functions_path = work / "functions.jsonl"
    with open(functions_path, "w", encoding="utf-8") as handle:
        for fn in pool:
            record = {"id": fn.id, "code": fn.code, "label": fn.label, "language": "c"}
            handle.write(json.dumps(record) + "\n")
    pairs_path = work / "pairs.jsonl"
    with open(pairs_path, "w", encoding="utf-8") as handle:
        for pair_id, vid, bid in pairs:
            handle.write(json.dumps({"pair_id": pair_id, "vulnerable_id": vid, "benign_id": bid}) + "\n")
    cwe_rows = workloads.cwe_csv_rows(seed)
    cwe_path = work / "cwe.csv"
    with open(cwe_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(cwe_rows[0]))
        writer.writeheader()
        writer.writerows(cwe_rows)
    errors = {fn.id: fn.expected_error for fn in pool if fn.expected_error}
    return Inputs(pool, batches, unit, script, functions_path, pairs_path, cwe_path, cwe_rows, errors)


# -- set-up ---------------------------------------------------------------------


@dataclass
class Session:
    functions: dict
    index: knowledge.KnowledgeIndex
    backend: ScriptBackend
    client: BoundedClient
    config: RunConfig


def build_kb(inputs: Inputs, kb_path: Path) -> float:
    """The write side of the knowledge layer; returns its time."""
    gc.collect()  # each repeat starts from the same collector state
    started = time.perf_counter()
    entries = knowledge.load_cwe_corpus(inputs.cwe_path)
    index = knowledge.build_knowledge_base(entries)
    index.save(kb_path)
    return time.perf_counter() - started


def set_up(name: str, inputs: Inputs, kb_path: Path) -> tuple[Session, float]:
    """What ``analyze`` does before its first function, and its time."""
    spec = WORKLOADS[name]
    gc.collect()
    started = time.perf_counter()
    functions = {fn.id: fn for fn in datasets.load_functions(inputs.functions_path)}
    index = knowledge.KnowledgeIndex.load(kb_path)
    backend = ScriptBackend(inputs.script, spec.mean_latency_s)
    client = BoundedClient(backend, max_in_flight=LlmSettings().max_in_flight)
    elapsed = time.perf_counter() - started
    config = RunConfig(concurrency=spec.workers)
    return Session(functions, index, backend, client, config), elapsed


# -- the measured loop ----------------------------------------------------------


@dataclass
class Batch:
    ids: list[str]
    out: Path
    wall: float
    failed: dict[str, str]  # function id -> exception class that escaped run_triage
    calls: list[str]  # tags of the model calls the batch made


@dataclass
class Pass:
    batches: list[Batch]

    @property
    def wall(self) -> float:
        return sum(b.wall for b in self.batches)

    @property
    def attempted(self) -> int:
        return sum(len(b.ids) for b in self.batches)


def run_batch(
    session: Session, ids: list[str], out: Path, recorder: Recorder, errors: dict[str, str]
) -> Batch:
    """One ``run_triage`` call.  An exception that escapes it fails that
    function only, and the batch is resumed past it, but only where
    ``errors`` names that function and exception class; any other escaping
    exception fails the run."""
    remaining = [session.functions[i] for i in ids]
    failed: dict[str, str] = {}
    wall = 0.0
    calls_before = len(session.backend.calls)
    config = session.config
    while True:
        mark = len(recorder.spans)
        started = time.perf_counter()
        try:
            pipeline.run_triage(
                remaining,
                session.index,
                session.client,
                out,
                level=config.level_enum,
                alpha=config.alpha,
                k=config.k,
                max_entries=config.max_entries,
                workers=config.concurrency,
                meta=config.meta(),
                resume=True,
            )
        except Exception as exc:
            wall += time.perf_counter() - started
            culprits = {
                s.fn_id: s.attrs["error"]
                for s in recorder.spans[mark:]
                if s.name == "pipeline.triage" and s.attrs.get("error") not in (None, "TriageError")
            }
            if not culprits:
                raise BenchmarkFailure(f"run_triage raised {exc!r} outside any function") from exc
            unexpected = {i: cls for i, cls in culprits.items() if errors.get(i) != cls}
            if unexpected:
                raise BenchmarkFailure(f"unexpected exceptions escaped run_triage: {unexpected}") from exc
            failed.update(culprits)
            remaining = [fn for fn in remaining if fn.id not in culprits]
            continue
        wall += time.perf_counter() - started
        return Batch(ids, out, wall, failed, session.backend.calls[calls_before:])


def next_batch(session: Session, inputs: Inputs, work: Path, tag: str, recorder: Recorder, k: int) -> Batch:
    """Batch ``k`` of the pool (cycling through it)."""
    ids = inputs.batches[k % len(inputs.batches)]
    return run_batch(session, ids, work / f"{tag}-{k}.jsonl", recorder, inputs.errors)


def more_batches(k: int, unit: int, started: float, seconds: float) -> bool:
    """Whether batch ``k`` runs: always inside a unit, and at a unit boundary
    only if finishing one more unit ends nearer to ``seconds`` than stopping now."""
    if k == 0 or k % unit:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / (k // unit) / 2 < seconds


# -- output checks ------------------------------------------------------------


def sha256_files(batches: list[Batch]) -> str:
    """One digest over every verdict file of a pass, in batch order."""
    digest = hashlib.sha256()
    for batch in batches:
        digest.update(batch.out.read_bytes())
    return digest.hexdigest()


def check_batches(batches: list[Batch], inputs: Inputs) -> list[datasets.VerdictRecord]:
    """Labels, degraded slots and call counts against the script; returns
    every verdict record with a label, one per function and batch."""
    labelled: list[datasets.VerdictRecord] = []
    for batch in batches:
        if all(fn_id in batch.failed for fn_id in batch.ids):
            continue  # the file holds no verdict record
        try:
            records = datasets.load_verdicts(batch.out)
        except Exception as exc:
            raise BenchmarkFailure(f"{batch.out.name}: unreadable verdict file: {exc}") from exc
        kinds: dict[str, list[str]] = defaultdict(list)
        for tag in batch.calls:
            fn_id, _, kind = tag.rpartition(":")
            kinds[fn_id].append(kind)
        for fn_id in batch.ids:
            if fn_id in batch.failed:
                continue
            entry = inputs.script[fn_id]
            record = records.get(fn_id)
            if record is None:
                raise BenchmarkFailure(f"{fn_id}: no verdict record")
            if record.label != entry.label:
                raise BenchmarkFailure(
                    f"{fn_id}: verdict label {record.label!r}, script answered {entry.label!r}"
                )
            degraded = {"semantic"} if "explain-error" in entry.faults else set()
            if set(record.degraded_paths) != degraded or record.parse_failure:
                raise BenchmarkFailure(
                    f"{fn_id}: degraded slots {sorted(record.degraded_paths)} and parse failure "
                    f"{record.parse_failure}, script implies {sorted(degraded)} and False"
                )
            if sorted(kinds[fn_id]) != sorted(expected_kinds(entry)):
                raise BenchmarkFailure(
                    f"{fn_id}: model calls {sorted(kinds[fn_id])}, expected {sorted(expected_kinds(entry))}"
                )
            labelled.append(record)
    return labelled


def _cwe_number(cwe_id: str) -> int:
    return int(re.search(r"\d+", cwe_id).group())


def oracle_ids(index: knowledge.KnowledgeIndex, text: str, k: int, alpha: float) -> list[str]:
    """Brute-force top k: ``hybrid_score`` on every entry, ties by CWE number."""
    q_dense, q_sparse = index.encoder.encode(text)
    scored = (
        (knowledge.hybrid_score(q_dense, q_sparse, index.dense[i], index.sparse[i], alpha), _cwe_number(e.cwe_id), e.cwe_id)
        for i, e in enumerate(index.entries)
    )
    return [cid for _, _, cid in heapq.nsmallest(k, scored, key=lambda t: (-t[0], t[1]))]


def check_queries(spans: list[Span], inputs: Inputs) -> None:
    """Each function retrieved with exactly the query texts the script
    returned, or with the fallback query where the answer was unparseable."""
    issued: dict[int, list[str]] = defaultdict(list)
    for span in spans:
        if span.name != "knowledge.retrieve":
            continue
        root = span.parent
        while root is not None and root.name != "pipeline.triage":
            root = root.parent
        if root is None:
            raise BenchmarkFailure(f"retrieval for {span.attrs['text']!r} outside any triage call")
        issued[id(root)].append(span.attrs["text"])
    for root in spans:
        if root.name != "pipeline.triage" or "error" in root.attrs:
            continue
        entry = inputs.script[root.fn_id]
        expected = [knowledge.FALLBACK_QUERY_TEXT] if "query-fallback" in entry.faults else entry.queries
        if sorted(issued[id(root)]) != sorted(expected):
            raise BenchmarkFailure(
                f"{root.fn_id}: retrieved with {sorted(issued[id(root)])}, script implies {sorted(expected)}"
            )


def check_retrievals(spans: list[Span], index: knowledge.KnowledgeIndex, cache: dict) -> int:
    """Every ranking the run received equals the oracle's; returns queries checked."""
    retrievals = [s for s in spans if s.name == "knowledge.retrieve"]
    for span in retrievals:
        if "ids" not in span.attrs:  # the call raised
            continue
        key = (span.attrs["text"], span.attrs["k"], span.attrs["alpha"])
        if key not in cache:
            cache[key] = oracle_ids(index, *key)
        if span.attrs["ids"] != cache[key]:
            raise BenchmarkFailure(
                f"retrieval for {key[0]!r}: got {span.attrs['ids']}, oracle ranks {cache[key]}"
            )
    return len(retrievals)


def evaluate(inputs: Inputs, records: list, recorder: Recorder, seed: int) -> dict:
    """Pair scoring and McNemar, checked against counts from the script."""
    labelled = {r.id: r for r in records}
    pairs = [
        p for p in datasets.load_pairs(inputs.pairs_path)
        if p.vulnerable_id in labelled and p.benign_id in labelled
    ]
    if not pairs:
        raise BenchmarkFailure("no pair has both verdicts")
    truth = {fn.id: fn.label for fn in inputs.pool}
    flip = random.Random(f"baseline:{seed}")
    other = {
        i: ("benign" if lab == "vulnerable" else "vulnerable") if flip.random() < 0.1 else lab
        for i, lab in sorted((i, inputs.script[i].label) for i in labelled)
    }
    ids = [i for p in pairs for i in (p.vulnerable_id, p.benign_id)]
    for _ in range(EVALUATIONS):
        with recorder.span("evaluation.evaluate"):
            outcomes = [
                evaluation.classify_pair(labelled[p.vulnerable_id].label, labelled[p.benign_id].label)
                for p in pairs
            ]
            report = evaluation.compute_metrics(*evaluation.tally_outcomes(outcomes))
            p_value = evaluation.mcnemar_exact(
                [labelled[i].label for i in ids], [other[i] for i in ids], [truth[i] for i in ids]
            )
    expected = Counter()
    for p in pairs:
        v_ok = inputs.script[p.vulnerable_id].label == "vulnerable"
        b_ok = inputs.script[p.benign_id].label == "benign"
        expected[{(1, 1): "PC", (1, 0): "PV", (0, 1): "PB", (0, 0): "PR"}[(v_ok, b_ok)]] += 1
    got = {"PC": report.pc, "PV": report.pv, "PB": report.pb, "PR": report.pr}
    if got != {k: expected[k] for k in got}:
        raise BenchmarkFailure(f"pair counts {got}, script implies {dict(expected)}")
    if not 0.0 <= p_value <= 1.0:
        raise BenchmarkFailure(f"McNemar p-value {p_value} outside [0, 1]")
    return {"pairs": len(pairs), **got, "mcnemar_p": p_value}


# -- instrumentation --------------------------------------------------------------


def _fn_id(span, args, kwargs):
    span.fn_id = (args[0] if args else kwargs["fn"]).id


def _retrieval_query(span, args, kwargs):
    query = args[1] if len(args) > 1 else kwargs["query"]
    alpha = args[3] if len(args) > 3 else kwargs.get("alpha")
    span.attrs.update(
        text=getattr(query, "text", query),
        kind=getattr(query, "kind", "predicted"),
        k=args[2] if len(args) > 2 else kwargs.get("k", knowledge.DEFAULT_TOP_K),
        alpha=args[0].alpha if alpha is None else alpha,
    )


def _retrieval_ranking(span, args, kwargs, result):
    span.attrs["ids"] = [entry.cwe_id for entry, _ in result]


def _call_kind(span, args, kwargs):
    request = args[1] if len(args) > 1 else kwargs["req"]
    span.attrs["kind"] = request.tag.rpartition(":")[2]


def _describe_parse(span, args, kwargs, bundle):
    span.attrs.update(cfg_nodes=len(bundle.cfg.nodes), dfg_edges=len(bundle.dfg.edges))


def _describe_views(span, args, kwargs, views):
    span.attrs["truncated"] = any(v.truncated for v in views.cfg_views)


def _describe_paths(span, args, kwargs, paths):
    span.attrs["paths"] = len(paths)


def install_probes(recorder: Recorder) -> None:
    """The two wrappers the untraced run keeps: per-function latency, and the
    query texts and rankings the retrieval checks need."""
    recorder.wrap("vulncontext.pipeline.triage", "pipeline.triage", on_start=_fn_id)
    recorder.wrap(
        "vulncontext.knowledge.KnowledgeIndex.retrieve_top_k",
        "knowledge.retrieve",
        on_start=_retrieval_query,
        describe=_retrieval_ranking,
    )


# Module-level names each layer's caller looks up at call time, and the span
# each becomes.  A name that disappears fails the traced run.
LAYER_TARGETS = (
    ("vulncontext.pipeline.generate_structural_context", "structure.context", None),
    ("vulncontext.structure.parse", "graphs.parse", _describe_parse),
    ("vulncontext.graphs.CParser.parse", "graphs.pycparser", None),
    ("vulncontext.structure.filter_ast", "structure.filter", None),
    ("vulncontext.structure.filter_cfg", "structure.filter", None),
    ("vulncontext.structure.filter_dfg", "structure.filter", None),
    ("vulncontext.structure.build_salient_views", "structure.views", _describe_views),
    ("vulncontext.structure.enumerate_paths", "structure.paths", _describe_paths),
    ("vulncontext.structure.trace_chains", "structure.chains", None),
    ("vulncontext.structure.verbalize", "structure.verbalize", None),
    ("vulncontext.pipeline.assemble_knowledge", "knowledge.assemble", None),
    ("vulncontext.pipeline.generate_explanation", "semantic.explain", None),
    ("vulncontext.knowledge.KnowledgeIndex.load", "knowledge.load", None),
    ("vulncontext.knowledge.build_knowledge_base", "knowledge.build", None),
    ("vulncontext.datasets.load_functions", "datasets.load_functions", None),
    ("backend.ScriptBackend.complete", "llm.backend", None),
)


def install_layers(recorder: Recorder) -> None:
    install_probes(recorder)
    for target, name, describe in LAYER_TARGETS:
        recorder.wrap(target, name, describe=describe)
    recorder.wrap("vulncontext.llm.BoundedClient.complete", "llm.call", on_start=_call_kind)


# -- metrics --------------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    if not values:
        raise BenchmarkFailure("a metric has no samples")
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ms(spans) -> list[float]:
    return [s.duration * 1e3 for s in spans]


def layer_metrics(recorder: Recorder) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from the traced pass (timings as p50 and p95)."""
    spans = recorder.spans
    kids: dict[int, list] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[id(s.parent)].append(s)

    def root(s):
        while s is not None and s.name != "pipeline.triage":
            s = s.parent
        return s

    roots = [s for s in recorder.named("pipeline.triage") if "error" not in s.attrs]
    under: dict[int, list] = defaultdict(list)
    for s in spans:
        r = root(s.parent)
        if r is not None:
            under[id(r)].append(s)

    def per_root(name):
        return [[c for c in under[id(r)] if c.name == name] for r in roots]

    def child_sum(parent_name, child_name):
        return [
            sum(c.duration for c in kids[id(p)] if c.name == child_name) * 1e3
            for p in recorder.named(parent_name)
        ]

    out: dict[str, tuple[float, str]] = {}

    def timing(name, values):
        out[f"{name}.p50"] = (percentile(values, 50), "ms")
        out[f"{name}.p95"] = (percentile(values, 95), "ms")

    def mean(name, values, unit):
        if not values:
            raise BenchmarkFailure(f"{name} has no samples")
        out[name] = (statistics.fmean(values), unit)

    parses = [s for s in recorder.named("graphs.parse") if "error" not in s.attrs]
    timing("graphs.parse_ms", _ms(recorder.named("graphs.parse")))
    timing("graphs.pycparser_ms", _ms(recorder.named("graphs.pycparser")))
    mean("graphs.cfg_nodes", [s.attrs["cfg_nodes"] for s in parses], "count/fn")
    mean("graphs.dfg_edges", [s.attrs["dfg_edges"] for s in parses], "count/fn")

    views = recorder.named("structure.views")
    timing("structure.context_ms", _ms(recorder.named("structure.context")))
    timing("structure.filter_ms", child_sum("structure.context", "structure.filter"))
    timing("structure.paths_ms", _ms(recorder.named("structure.paths")))
    timing("structure.chains_ms", child_sum("structure.views", "structure.chains"))
    timing("structure.views_self_ms", [self_time(v, kids[id(v)]) * 1e3 for v in views])
    timing("structure.verbalize_ms", _ms(recorder.named("structure.verbalize")))
    mean("structure.paths_kept", [s.attrs["paths"] for s in recorder.named("structure.paths") if "paths" in s.attrs], "count/fn")
    done_views = [v for v in views if "truncated" in v.attrs]
    mean("structure.truncated_ratio", [float(v.attrs["truncated"]) for v in done_views], "ratio")

    retrievals = per_root("knowledge.retrieve")
    timing("knowledge.retrieve_ms", _ms(recorder.named("knowledge.retrieve")))
    mean("knowledge.queries_per_fn", [len(r) for r in retrievals], "count/fn")
    mean(
        "knowledge.fallback_ratio",
        [float(any(s.attrs.get("kind") == "fallback" for s in r)) for r in retrievals if r],
        "ratio",
    )
    timing("knowledge.assemble_ms", _ms(recorder.named("knowledge.assemble")))
    timing("knowledge.load_ms", _ms(recorder.named("knowledge.load")))
    timing("knowledge.build_ms", _ms(recorder.named("knowledge.build")))

    calls = recorder.named("llm.call")
    for kind in ("query", "explain", "judge", "judge-retry"):
        timing(f"llm.call_ms.{kind.replace('-', '_')}", _ms(c for c in calls if c.attrs.get("kind") == kind))
    per_fn_calls = per_root("llm.call")
    mean("llm.calls_per_fn", [len(r) for r in per_fn_calls], "count/fn")
    timing(
        "llm.slot_wait_ms",
        [(c.duration - sum(b.duration for b in kids[id(c)] if b.name == "llm.backend")) * 1e3 for c in calls],
    )
    mean("llm.errors", [sum("error" in c.attrs for c in r) for r in per_fn_calls], "count/fn")

    timing("semantic.explain_ms", _ms(recorder.named("semantic.explain")))

    timing("pipeline.triage_ms", _ms(roots))
    timing("pipeline.self_ms", [self_time(r, kids[id(r)]) * 1e3 for r in roots])
    overlap = []
    for r in per_fn_calls:
        union = covered([(c.start, c.end) for c in r])
        if union > 0:
            overlap.append(sum(c.duration for c in r) / union)
    mean("pipeline.model_overlap", overlap, "ratio")
    timing("pipeline.resume_scan_ms", _ms(recorder.named("pipeline.resume_scan")))
    timing("datasets.load_functions_ms", _ms(recorder.named("datasets.load_functions")))
    timing("evaluation.evaluate_ms", _ms(recorder.named("evaluation.evaluate")))
    return out


# -- workload properties and machine facts ------------------------------------------


def properties(inputs: Inputs, run: Pass) -> dict:
    attempted = [i for b in run.batches for i in b.ids]
    distinct = list(dict.fromkeys(attempted))
    by_id = {fn.id: fn for fn in inputs.pool}
    sizes = sorted(by_id[i].statements for i in distinct)
    codes = Counter(by_id[i].code for i in distinct)
    lines = [
        (line.strip(), by_id[i].family)
        for i in distinct
        for line in by_id[i].code.splitlines()
        if len(line.strip()) >= 8
    ]
    families = defaultdict(set)
    for line, family in lines:
        families[line].add(family)
    failed = Counter(cls for b in run.batches for cls in b.failed.values())
    queries = [
        q
        for i in distinct
        for q in (
            [knowledge.FALLBACK_QUERY_TEXT]
            if "query-fallback" in inputs.script[i].faults
            else inputs.script[i].queries
        )
    ]
    return {
        "functions_attempted": len(attempted),
        "distinct_functions": len(distinct),
        "pool_functions": len(inputs.pool),
        "statements": {
            "min": sizes[0],
            "p50": percentile(sizes, 50),
            "p90": percentile(sizes, 90),
            "max": sizes[-1],
        },
        "duplicate_function_share": sum(n for n in codes.values() if n > 1) / len(distinct),
        "shared_line_share": sum(len(families[line]) > 1 for line, _ in lines) / len(lines),
        "repeated_query_share": 1 - len(set(queries)) / max(len(queries), 1),
        "recursion_error_share": failed["RecursionError"] / len(attempted),
        "failures_by_class": dict(failed),
    }


def corpus_properties(rows: list[dict[str, str]]) -> dict:
    tokens = set()
    for row in rows:
        text = " ".join((row["Name"], row["Description"], row["Demonstrative Examples"]))
        tokens.update(re.findall(r"[a-z0-9]+", text.lower()))
    numeric = {t for t in tokens if t.isdigit()}
    with_example = [r for r in rows if r["Demonstrative Examples"]]
    return {
        "entries": len(rows),
        "name_chars_mean": statistics.fmean(len(r["Name"]) for r in rows),
        "description_chars_mean": statistics.fmean(len(r["Description"]) for r in rows),
        "example_share": len(with_example) / len(rows),
        "example_chars_mean": statistics.fmean(len(r["Demonstrative Examples"]) for r in with_example),
        "word_vocabulary": len(tokens - numeric),
        "numeric_tokens": len(numeric),
    }


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "pycparser": pycparser.__version__,
        "numpy": numpy.__version__,
    }


# -- one run --------------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, traced: bool, work: Path, results: Path) -> dict:
    """Run one workload in the scratch directory ``work``; returns the result
    line and the details record.  A traced run writes its spans to ``results``."""
    inputs = generate(name, seed, work)
    # The generated inputs belong to the benchmark, not to the library: keep
    # them out of the collector's scans.
    gc.freeze()
    try:
        return _run(name, seed, seconds, traced, work, results, inputs)
    finally:
        gc.unfreeze()


def _run(name, seed, seconds, traced, work, results, inputs) -> dict:
    kb_path = work / "kb.json"
    kb_times = [build_kb(inputs, kb_path)]
    session, setup_time = set_up(name, inputs, kb_path)
    setup_times = [setup_time]

    # Each batch is checked as soon as it ends, and set-up and the build are
    # repeated between batches, so that every timing samples the whole run.
    plain = Pass([])
    labelled: list[datasets.VerdictRecord] = []
    oracle_cache: dict = {}
    queries_checked = 0
    probes = Recorder()
    started = last_setup = last_build = time.perf_counter()
    try:
        install_probes(probes)
        k = 0
        while more_batches(k, inputs.unit, started, seconds):
            gc.collect()
            mark = len(probes.spans)
            batch = next_batch(session, inputs, work, "plain", probes, k)
            plain.batches.append(batch)
            labelled += check_batches([batch], inputs)
            check_queries(probes.spans[mark:], inputs)
            queries_checked += check_retrievals(probes.spans[mark:], session.index, oracle_cache)
            if time.perf_counter() - last_setup >= SETUP_EVERY_S:
                setup_times.append(set_up(name, inputs, kb_path)[1])
                last_setup = time.perf_counter()
            if time.perf_counter() - last_build >= BUILD_EVERY_S:
                kb_times.append(build_kb(inputs, kb_path))
                last_build = time.perf_counter()
            k += 1
    finally:
        probes.uninstall()
    probes.check_called()
    sha = sha256_files(plain.batches)
    latencies = _ms(s for s in probes.named("pipeline.triage") if "error" not in s.attrs)
    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "machine": machine(),
        "workers": session.config.concurrency,
        "mean_model_latency_s": WORKLOADS[name].mean_latency_s,
        "batches": len(plain.batches),
        "units": len(plain.batches) // inputs.unit,
        "setup_samples": len(setup_times),
        "build_samples": len(kb_times),
        "latency_samples": len(latencies),
        "retrievals_checked": queries_checked,
        "verdict_sha256": sha,
        "properties": properties(inputs, plain),
        "corpus": corpus_properties(inputs.cwe_rows),
    }
    plain_fn_per_s = len(labelled) / plain.wall

    if not traced:
        degraded = sum(1 for r in labelled if r.degraded_paths)
        metrics = {
            "fn_per_s": (plain_fn_per_s, "functions/s"),
            "fn_latency_p50_ms": (percentile(latencies, 50), "ms"),
            "fn_latency_p90_ms": (percentile(latencies, 90), "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "kb_build_s": (statistics.median(kb_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "verdict_ratio": (len(labelled) / plain.attempted, "ratio"),
            "intact_ratio": ((len(labelled) - degraded) / len(labelled), "ratio"),
        }
        attempted, failed = plain.attempted, plain.attempted - len(labelled)
        details["evaluation"] = evaluate(inputs, labelled, Recorder(), seed)
    else:
        recorder = Recorder()
        try:
            install_layers(recorder)
            for _ in range(TRACED_REPEATS):
                build_kb(inputs, kb_path)
                session, _ = set_up(name, inputs, kb_path)
            traced_run = Pass([])
            for k in range(len(plain.batches)):
                gc.collect()
                traced_run.batches.append(next_batch(session, inputs, work, "traced", recorder, k))
            first = next(b for b in traced_run.batches if len(b.failed) < len(b.ids))
            done = [session.functions[i] for i in first.ids if i not in first.failed]
            for _ in range(RESUME_SCANS):
                with recorder.span("pipeline.resume_scan"):
                    summary = pipeline.run_triage(done, session.index, session.client, first.out, resume=True)
                if summary["processed"]:
                    raise BenchmarkFailure(f"resume re-ran {summary['processed']} finished functions")
        finally:
            recorder.uninstall()
        recorder.check_called()
        traced_labelled = check_batches(traced_run.batches, inputs)
        check_queries(recorder.spans, inputs)
        check_retrievals(recorder.spans, session.index, oracle_cache)
        if sha256_files(traced_run.batches) != sha:
            raise BenchmarkFailure("traced verdict files differ from the untraced ones")
        evaluate(inputs, traced_labelled, recorder, seed)
        metrics = layer_metrics(recorder)
        metrics["trace.overhead"] = (len(traced_labelled) / traced_run.wall / plain_fn_per_s, "ratio")
        attempted, failed = traced_run.attempted, traced_run.attempted - len(traced_labelled)
        recorder.write(results / f"{name}-seed{seed}.spans.jsonl")

    line = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"details": details, "line": line}
