"""One digest over the structural output of a fixed set of functions.

The digest covers each unit's CFG and DFG node and edge lists as ``parse``
returns them, and its verbalized A/B/C context at budget 1 and at the level
budget.  The inputs are the fixture corpus, seeded small pairs and large
functions from the benchmark's generators, and a few multi-function units.
A refactor that must not change structural output keeps the constant; a
change that alters the output on purpose updates it and says why in
``CHANGES.md``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import astuple
from pathlib import Path

from fixtures import FIXTURE_CORPUS

from vulncontext.graphs import SourceFunction, parse
from vulncontext.structure import (
    LEVEL_BUDGETS,
    Level,
    build_salient_views,
    filter_ast,
    filter_cfg,
    filter_dfg,
    verbalize,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

STRUCTURE_SHA256 = "3722a49b38d7c9ba0f473bbdc4fb0e780981197e629c1c1c4b096bab3ac562c7"

SMALL_PAIRS = 20
LARGE_MAX_STATEMENTS = 600
UNITS = (
    ("copy_bytes", "if_else", "nested_loops"),
    ("mixed_flow", "switch_dispatch", "goto_cleanup"),
    ("straight_line", "straight_line_twin"),
)


def _inputs() -> list[SourceFunction]:
    codes = dict(FIXTURE_CORPUS)
    # A renamed copy, so one unit holds two isomorphic functions.
    codes["straight_line_twin"] = codes["straight_line"].replace("straight_line", "straight_line_twin")
    fns = [SourceFunction(id=name, code=code) for name, code in FIXTURE_CORPUS]
    rng = random.Random("equivalence:small")
    for serial, target in enumerate(workloads.small_sizes(rng, SMALL_PAIRS)):
        fns += [SourceFunction(id=g.id, code=g.code) for g in workloads.small_pair(rng, serial, target)]
    large = workloads.large_cycle(random.Random("large:901"), 0)
    fns += [SourceFunction(id=g.id, code=g.code) for g in large if g.statements <= LARGE_MAX_STATEMENTS]
    for names in UNITS:
        fns.append(SourceFunction(id="+".join(names), code="\n".join(codes[n] for n in names)))
    return fns


def _record(fn: SourceFunction) -> dict:
    bundle = parse(fn)
    contexts = []
    for level in Level:
        filtered = (filter_ast(bundle.ast, level), filter_cfg(bundle.cfg, level), filter_dfg(bundle.dfg, level))
        for budget in (1, LEVEL_BUDGETS[level]):
            views = build_salient_views(bundle, *filtered, budget)
            contexts.append([level.value, budget, *verbalize(views)])
    return {
        "id": fn.id,
        "cfg_nodes": [astuple(n) for n in bundle.cfg.nodes],
        "cfg_edges": [astuple(e) for e in bundle.cfg.edges],
        "dfg_nodes": [astuple(n) for n in bundle.dfg.nodes],
        "dfg_edges": [astuple(e) for e in bundle.dfg.edges],
        "contexts": contexts,
    }


def structure_digest(fns: list[SourceFunction]) -> str:
    digest = hashlib.sha256()
    for fn in fns:
        digest.update(json.dumps(_record(fn), ensure_ascii=False, sort_keys=True).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def test_inputs_cover_every_shape():
    fns = _inputs()
    assert len(fns) >= len(FIXTURE_CORPUS) + 2 * SMALL_PAIRS + len(UNITS)
    shapes = {fn.id.split("-", 1)[1] for fn in fns if fn.id.startswith("L")}
    assert shapes == {shape for shape, _size in workloads.LARGE_GRID}


def test_structural_output_matches_the_committed_digest():
    assert structure_digest(_inputs()) == STRUCTURE_SHA256
