from __future__ import annotations

import random
import re
import sys
import time
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (
    CONTROL_PLUMBING,
    FIXTURE_CORPUS,
    GOLDEN_T_AST,
    GOLDEN_T_CFG,
    GOLDEN_T_DFG,
    GOTO_TANGLES,
    STATEMENT_CYCLES,
    TYPE_PLUMBING,
    dead_end,
    out_edges,
)

from vulncontext.graphs import (
    AstNode,
    CategoryCounts,
    CfgEdge,
    CfgGraph,
    CfgNode,
    DfgEdge,
    DfgGraph,
    DfgNode,
    SourceFunction,
    count_ast_categories,
    parse,
)
from vulncontext import structure
from vulncontext.structure import (
    LEVEL_BUDGETS,
    RETAINED_CFG_KINDS,
    TEMPLATE_PATTERNS,
    Level,
    aggregate_ast,
    build_salient_views,
    enumerate_paths,
    filter_ast,
    filter_cfg,
    filter_dfg,
    generate_structural_context,
    matches_template,
    trace_chains,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

LEVELS = [Level.A, Level.B, Level.C]


# -- independent oracles ------------------------------------------------------


def brute_force_paths(cfg: CfgGraph, entry_id: int, exit_ids: set[int]) -> list[tuple[int, ...]]:
    """Exhaustive DFS over node-id sequences; back edges at most once each."""
    paths: list[tuple[int, ...]] = []
    adjacency = out_edges(cfg)

    def go(node, seq, used_back):
        if node in exit_ids:
            paths.append(tuple(seq))
            return
        for i, e in enumerate(sorted(adjacency[node], key=lambda e: ({"True": 0, "False": 1}.get(e.label, 2), e.dst))):
            key = (node, i)
            if e.back:
                if key in used_back:
                    continue
                go(e.dst, seq + [e.dst], used_back | {key})
            elif e.dst not in seq:
                go(e.dst, seq + [e.dst], used_back)

    go(entry_id, [entry_id], frozenset())
    return paths


def brute_force_chains(dfg: DfgGraph, min_len: int = 3) -> list[tuple[int, ...]]:
    """All simple paths from any param node to any sink node."""
    found: list[tuple[int, ...]] = []
    by_id = {n.id: n for n in dfg.nodes}
    adjacency = out_edges(dfg)

    def go(node, seq):
        if by_id[node].kind == "sink":
            if len(seq) >= min_len:
                found.append(tuple(seq))
            return
        for e in sorted(adjacency[node], key=lambda e: e.dst):
            if e.dst not in seq:
                go(e.dst, seq + [e.dst])

    for p in dfg.params():
        go(p.id, [p.id])
    return found


def splice_fold(cfg: CfgGraph) -> CfgGraph:
    """Fold plain statements one node at a time, by id, splicing edge sets.

    Each folded node's in-edges are joined to its out-edges; a joined edge
    keeps the first branch label and is a back edge if either half was.  A
    self-loop on the folded node vanishes with it.
    """
    ins: dict[int, set[tuple]] = defaultdict(set)
    outs: dict[int, set[tuple]] = defaultdict(set)
    for e in cfg.edges:
        edge = (e.src, e.dst, e.label, e.back)
        outs[e.src].add(edge)
        ins[e.dst].add(edge)
    for node_id in sorted(n.id for n in cfg.nodes if n.kind not in RETAINED_CFG_KINDS):
        incoming = ins.pop(node_id, set())
        outgoing = outs.pop(node_id, set())
        for edge in incoming:
            outs[edge[0]].discard(edge)
        for edge in outgoing:
            ins[edge[1]].discard(edge)
        for src, _, in_label, in_back in incoming - outgoing:
            for _, dst, out_label, out_back in outgoing - incoming:
                label = in_label if in_label in ("True", "False") else out_label
                edge = (src, dst, label, in_back or out_back)
                outs[src].add(edge)
                ins[dst].add(edge)
    return CfgGraph(
        nodes=[n for n in cfg.nodes if n.kind in RETAINED_CFG_KINDS],
        edges=[CfgEdge(*edge) for edge in sorted(e for es in outs.values() for e in es)],
    )


# -- golden verbalization -----------------------------------------------------


def test_golden_fragments_byte_for_byte(copy_bytes):
    ctx = generate_structural_context(copy_bytes, Level.C)
    assert ctx.t_ast == GOLDEN_T_AST
    assert ctx.t_cfg == GOLDEN_T_CFG
    assert ctx.t_dfg == GOLDEN_T_DFG
    assert ctx.s == "\n".join([GOLDEN_T_AST, GOLDEN_T_CFG, GOLDEN_T_DFG])


def test_context_is_byte_deterministic(corpus):
    for fn in corpus:
        for level in LEVELS:
            assert (
                generate_structural_context(fn, level).s
                == generate_structural_context(fn, level).s
            )


# -- AST filtering ------------------------------------------------------------


def test_copy_bytes_level_a_retains_exactly_skeleton_kinds(copy_bytes):
    bundle = parse(copy_bytes)
    filtered = filter_ast(bundle.ast, Level.A)
    kinds = {n.kind for n in filtered.walk()}
    assert kinds == {"function-def", "branch", "call", "return"}


def test_copy_bytes_level_c_returns_the_tree_unchanged(copy_bytes):
    bundle = parse(copy_bytes)
    assert filter_ast(bundle.ast, Level.C) is bundle.ast


def test_empty_function_filters_to_function_def_only():
    bundle = parse(SourceFunction(id="f", code="void f(){}"))
    for level in LEVELS:
        filtered = filter_ast(bundle.ast, level)
        assert [n.kind for n in filtered.walk()] == ["function-def"]


def test_ast_level_monotonicity(corpus):
    for fn in corpus:
        bundle = parse(fn)
        retained = {
            level: {n.uid for n in filter_ast(bundle.ast, level).walk()} for level in LEVELS
        }
        assert retained[Level.A] <= retained[Level.B] <= retained[Level.C], fn.id


def test_no_noise_kinds_survive_any_level(corpus):
    # Every level's tree is spliced from the lowered one, so checking it covers all.
    for fn in [*corpus, SourceFunction(id="type_plumbing", code=TYPE_PLUMBING)]:
        assert all(n.kind != "type-expansion" for n in parse(fn).ast.walk()), fn.id


# The filtered preorder and counts of ``TYPE_PLUMBING``, whose source is
# mostly type syntax: how the frontend drops that syntax must not change what
# any level keeps.
TYPE_PLUMBING_AST = {
    Level.A: (
        CategoryCounts(0, 0, 1, 1),
        [
            ("unit", None, 1, None), ("function-def", "pick", 1, None),
            ("branch", "if((m == ON) && (w > 0))", 9, None),
            ("return", "(k > 0) ? (twice) : (0)", 11, None), ("function-def", "apply", 14, None),
            ("return", "cb(value, (char *) 0)", 15, None), ("call", "cb", 15, None),
            ("function-def", "logf", 18, None), ("return", "fmt[0]", 19, None),
            ("function-def", "ready", 22, None), ("return", "1", 23, None),
        ],
    ),
    Level.B: (
        CategoryCounts(12, 5, 1, 1),
        [
            ("unit", None, 1, None), ("function-def", "pick", 1, None), ("declaration", "k", 1, "param"),
            ("declaration", "p", 2, None), ("declaration", "lo", 2, None), ("declaration", "hi", 2, None),
            ("assignment", "=", 2, None), ("operator", "CompoundLiteral", 2, None),
            ("operator", "InitList", 2, None), ("operator", "+", 2, None), ("declaration", "c", 3, None),
            ("declaration", "i", 3, None), ("declaration", "f", 3, None), ("declaration", "m", 4, None),
            ("assignment", "=", 4, None), ("declaration", "buf", 6, None), ("operator", "+", 6, None),
            ("operator", "sizeof", 6, None), ("declaration", "w", 7, None), ("assignment", "=", 7, None),
            ("operator", "*", 7, None), ("operator", "Cast", 7, None), ("operator", "StructRef", 7, None),
            ("operator", "sizeof", 7, None), ("assignment", "=", 8, None),
            ("operator", "StructRef", 8, None), ("branch", "if((m == ON) && (w > 0))", 9, None),
            ("operator", "&&", 9, None), ("operator", "==", 9, None), ("operator", ">", 9, None),
            ("assignment", "=", 10, None), ("operator", "ArrayRef", 10, None),
            ("operator", "Cast", 10, None), ("return", "(k > 0) ? (twice) : (0)", 11, None),
            ("operator", "TernaryOp", 11, None), ("operator", ">", 11, None),
            ("function-def", "apply", 14, None), ("declaration", "cb", 14, "param"),
            ("declaration", "n", 14, None), ("declaration", "tag", 14, None),
            ("declaration", "value", 14, "param"), ("return", "cb(value, (char *) 0)", 15, None),
            ("call", "cb", 15, None), ("operator", "Cast", 15, None), ("function-def", "logf", 18, None),
            ("declaration", "fmt", 18, "param"), ("return", "fmt[0]", 19, None),
            ("operator", "ArrayRef", 19, None), ("function-def", "ready", 22, None),
            ("return", "1", 23, None),
        ],
    ),
    Level.C: (
        CategoryCounts(12, 5, 1, 1),
        [
            ("unit", None, 1, None), ("function-def", "pick", 1, None), ("declaration", "k", 1, "param"),
            ("declaration", "p", 2, None), ("declaration", "lo", 2, None), ("declaration", "hi", 2, None),
            ("assignment", "=", 2, None), ("operator", "CompoundLiteral", 2, None),
            ("operator", "InitList", 2, None), ("identifier", "k", 2, None), ("operator", "+", 2, None),
            ("identifier", "k", 2, None), ("constant", "1", 2, None), ("declaration", "c", 3, None),
            ("declaration", "i", 3, None), ("declaration", "f", 3, None), ("declaration", "m", 4, None),
            ("constant", "2", 4, None), ("assignment", "=", 4, None), ("identifier", "ON", 4, None),
            ("declaration", "buf", 6, None), ("operator", "+", 6, None), ("operator", "sizeof", 6, None),
            ("constant", "4", 6, None), ("declaration", "w", 7, None), ("assignment", "=", 7, None),
            ("operator", "*", 7, None), ("operator", "Cast", 7, None), ("operator", "StructRef", 7, None),
            ("identifier", "p", 7, None), ("identifier", "hi", 7, None), ("operator", "sizeof", 7, None),
            ("assignment", "=", 8, None), ("operator", "StructRef", 8, None), ("identifier", "c", 8, None),
            ("identifier", "i", 8, None), ("identifier", "k", 8, None),
            ("branch", "if((m == ON) && (w > 0))", 9, None), ("operator", "&&", 9, None),
            ("operator", "==", 9, None), ("identifier", "m", 9, None), ("identifier", "ON", 9, None),
            ("operator", ">", 9, None), ("identifier", "w", 9, None), ("constant", "0", 9, None),
            ("assignment", "=", 10, None), ("operator", "ArrayRef", 10, None),
            ("identifier", "buf", 10, None), ("constant", "0", 10, None), ("operator", "Cast", 10, None),
            ("identifier", "w", 10, None), ("return", "(k > 0) ? (twice) : (0)", 11, None),
            ("operator", "TernaryOp", 11, None), ("operator", ">", 11, None), ("identifier", "k", 11, None),
            ("constant", "0", 11, None), ("identifier", "twice", 11, None), ("constant", "0", 11, None),
            ("function-def", "apply", 14, None), ("declaration", "cb", 14, "param"),
            ("declaration", "n", 14, None), ("declaration", "tag", 14, None),
            ("declaration", "value", 14, "param"), ("return", "cb(value, (char *) 0)", 15, None),
            ("call", "cb", 15, None), ("identifier", "cb", 15, None), ("identifier", "value", 15, None),
            ("operator", "Cast", 15, None), ("constant", "0", 15, None), ("function-def", "logf", 18, None),
            ("declaration", "fmt", 18, "param"), ("return", "fmt[0]", 19, None),
            ("operator", "ArrayRef", 19, None), ("identifier", "fmt", 19, None),
            ("constant", "0", 19, None), ("function-def", "ready", 22, None), ("return", "1", 23, None),
            ("constant", "1", 23, None),
        ],
    ),
}


def test_type_plumbing_filters_to_the_pinned_preorder():
    bundle = parse(SourceFunction(id="type_plumbing", code=TYPE_PLUMBING))
    for level, (counts, preorder) in TYPE_PLUMBING_AST.items():
        filtered = filter_ast(bundle.ast, level)
        assert [(n.kind, n.name, n.line, n.role) for n in filtered.walk()] == preorder, level
        assert count_ast_categories(filtered) == counts, level


def test_filter_ast_handles_a_chain_deeper_than_the_recursion_limit():
    pairs = 2500
    root = AstNode("function-def", "f", 1)
    node = root
    for kind in ["operator", "branch"] * pairs:
        node.children.append(AstNode(kind, None, 2))
        node = node.children[0]
    assert filter_ast(root, Level.C) is root
    for level, kinds in ((Level.A, ["branch"] * pairs), (Level.B, ["operator", "branch"] * pairs)):
        chain = list(filter_ast(root, level).walk())
        assert [n.kind for n in chain] == ["function-def", *kinds], level
        assert all(len(n.children) == 1 for n in chain[:-1]) and chain[-1].children == []


# -- CFG filtering ------------------------------------------------------------


def test_copy_bytes_cfg_keeps_5_of_9(copy_bytes):
    bundle = parse(copy_bytes)
    filtered = filter_cfg(bundle.cfg)
    assert len(bundle.cfg.nodes) == 9
    assert len(filtered.nodes) == 5
    assert {n.kind for n in filtered.nodes} == {"entry", "exit", "branch", "call", "return"}


def test_straight_line_folds_to_entry_exit():
    code = """void s(void) {
    int a = 1;
    int b = a;
    int c = b;
    int d = c;
}
"""
    bundle = parse(SourceFunction(id="s", code=code))
    filtered = filter_cfg(bundle.cfg)
    assert [(n.kind) for n in filtered.nodes] == ["entry", "exit"]
    assert [(e.src, e.dst, e.label) for e in filtered.edges] == [(0, 1, "seq")]


def test_loop_with_call_fold_matches_hand_fold():
    code = """void h(int n) {
    while (n > 0) {
        g();
        n--;
    }
}
"""
    bundle = parse(SourceFunction(id="h", code=code))
    assert len(bundle.cfg.nodes) == 6
    filtered = filter_cfg(bundle.cfg)
    kinds = {n.kind for n in filtered.nodes}
    assert kinds == {"entry", "loop", "call", "exit"}
    by_kind = {n.kind: n.id for n in filtered.nodes}
    edges = {(e.src, e.dst, e.label) for e in filtered.edges}
    # Hand fold: entry->loop, loop-[True]->call, call->loop (folded back
    # edge), loop-[False]->exit (folded through the implicit end node).
    assert edges == {
        (by_kind["entry"], by_kind["loop"], "seq"),
        (by_kind["loop"], by_kind["call"], "True"),
        (by_kind["call"], by_kind["loop"], "seq"),
        (by_kind["loop"], by_kind["exit"], "False"),
    }
    back = [e for e in filtered.edges if e.back]
    assert [(e.src, e.dst) for e in back] == [(by_kind["call"], by_kind["loop"])]


def test_cfg_filter_preserves_invariants(corpus):
    for fn in corpus:
        bundle = parse(fn)
        filtered = filter_cfg(bundle.cfg)
        assert len(filtered.entries()) == 1
        assert len(filtered.exits()) == 1
        entry = filtered.entries()[0]
        adjacency = out_edges(filtered)
        seen, stack = {entry.id}, [entry.id]
        while stack:
            cur = stack.pop()
            for e in adjacency[cur]:
                if e.dst not in seen:
                    seen.add(e.dst)
                    stack.append(e.dst)
        assert seen == {n.id for n in filtered.nodes}, fn.id


def test_filter_cfg_equals_the_splice_fold(corpus):
    fns = list(corpus)
    fns += [SourceFunction(id=f"code{i}", code=code) for i, code in enumerate(
        [CONTROL_PLUMBING, TYPE_PLUMBING, *GOTO_TANGLES, *STATEMENT_CYCLES]
    )]
    rng = random.Random("splice:small")
    for serial, target in enumerate(workloads.small_sizes(rng, 40)):
        fns += [SourceFunction(id=g.id, code=g.code) for g in workloads.small_pair(rng, serial, target)]
    for fn in fns:
        cfg = parse(fn).cfg
        expected = splice_fold(cfg)
        folded = filter_cfg(cfg)
        assert (folded.nodes, folded.edges) == (expected.nodes, expected.edges), fn.id


# -- DFG filtering ------------------------------------------------------------


def test_copy_bytes_dfg_keeps_3_of_4_edges_and_2_sources(copy_bytes):
    bundle = parse(copy_bytes)
    filtered = filter_dfg(bundle.dfg)
    assert len(bundle.dfg.edges) == 4
    assert len(filtered.edges) == 3
    assert sorted(p.var for p in filtered.params()) == ["len", "src"]


def test_dfg_without_params_or_cross_statement_edges_filters_empty():
    dfg = DfgGraph(
        nodes=[
            DfgNode(0, "x", "def", 1, "def:x", 5, "f"),
            DfgNode(1, "x", "use", 1, "x + 1", 5, "f"),
        ],
        edges=[DfgEdge(0, 1)],
    )
    filtered = filter_dfg(dfg)
    assert filtered.edges == []
    assert filtered.nodes == []


def test_hand_built_intra_statement_edge_is_dropped():
    # Three variables; exactly one edge stays inside statement 4.
    dfg = DfgGraph(
        nodes=[
            DfgNode(0, "p", "param", 1, "param:p", -1, "f"),
            DfgNode(1, "a", "def", 2, "def:a", 3, "f"),
            DfgNode(2, "a", "use", 3, "if(a)", 4, "f"),
            DfgNode(3, "b", "def", 3, "def:b", 4, "f"),
            DfgNode(4, "b", "sink", 4, "call g", 5, "f"),
        ],
        edges=[
            DfgEdge(0, 1),  # param feeds the definition
            DfgEdge(1, 2),  # cross-statement use
            DfgEdge(2, 3),  # same statement: dropped
            DfgEdge(3, 4),  # would survive if reachable
        ],
    )
    filtered = filter_dfg(dfg)
    kept = {(e.src, e.dst) for e in filtered.edges}
    assert (2, 3) not in kept
    assert (0, 1) in kept and (1, 2) in kept
    # The tail after the dropped hop is no longer parameter-rooted.
    assert (3, 4) not in kept


# -- AST aggregation ----------------------------------------------------------


def test_copy_bytes_aggregation(copy_bytes):
    bundle = parse(copy_bytes)
    views = aggregate_ast(filter_ast(bundle.ast, Level.C))
    assert len(views) == 1
    view = views[0]
    assert view.call_chain == ["memcpy"]
    assert view.conditions == ["if(len > max)"]
    assert view.returns == []


def test_aggregation_omits_empty_sections():
    bundle = parse(SourceFunction(id="f", code="void f(int a){int b = a;}"))
    views = aggregate_ast(filter_ast(bundle.ast, Level.C))
    view = views[0]
    assert view.call_chain == [] and view.conditions == [] and view.returns == []
    ctx = generate_structural_context(SourceFunction(id="f", code="void f(int a){int b = a;}"))
    assert "Key call chain" not in ctx.t_ast
    assert "Conditions/Loops" not in ctx.t_ast
    assert "Returns" not in ctx.t_ast


def test_byte_identical_helpers_collapse():
    code = """int add_one(int v) { return v + 1; }
int add_two(int v) { return v + 1; }
"""
    bundle = parse(SourceFunction(id="twins", code=code))
    views = aggregate_ast(filter_ast(bundle.ast, Level.C))
    assert len(views) == 1
    assert views[0].collapsed == 2
    ctx_line = generate_structural_context(SourceFunction(id="twins", code=code)).t_ast
    assert "Isomorphic functions collapsed: add_one represents 2 functions." in ctx_line


# -- path enumeration ---------------------------------------------------------


def test_copy_bytes_paths_exact(copy_bytes):
    bundle = parse(copy_bytes)
    filtered = filter_cfg(bundle.cfg)
    paths = enumerate_paths(filtered, LEVEL_BUDGETS[Level.C])
    assert len(paths) == 2
    first, second = paths
    assert [n.kind for n in first.nodes] == ["entry", "branch", "return", "exit"]
    assert first.taken[1] == "True"
    assert [n.kind for n in second.nodes] == ["entry", "branch", "call", "exit"]
    assert second.taken[1] == "False"


def test_straight_line_yields_one_path():
    bundle = parse(SourceFunction(id="s", code="void s(void){int a = 1;}"))
    filtered = filter_cfg(bundle.cfg)
    paths = enumerate_paths(filtered, 4)
    assert len(paths) == 1


def test_two_sequential_ifs_match_brute_force():
    code = """void two_ifs(int a, int b) {
    if (a) {
        f();
    }
    if (b) {
        g();
    }
    h();
}
"""
    bundle = parse(SourceFunction(id="t", code=code))
    filtered = filter_cfg(bundle.cfg)
    assert len(filtered.nodes) == 7
    paths = enumerate_paths(filtered, 10)
    assert len(paths) == 4
    entry = filtered.entries()[0]
    exits = {n.id for n in filtered.exits()}
    oracle = brute_force_paths(filtered, entry.id, exits)
    assert [tuple(n.id for n in p.nodes) for p in paths] == oracle


def test_node_revisited_through_a_back_edge_stays_on_the_path():
    # After the back edge 2->1 is walked and undone, loop node 1 is still on
    # the path from its first visit, so the later hop 3->1 is refused.
    cfg = CfgGraph()
    cfg.nodes = [
        CfgNode(0, "entry", "Entry", 1, "f"),
        CfgNode(1, "loop", "while(c)", 2, "f"),
        CfgNode(2, "call", "call g", 3, "f"),
        CfgNode(3, "call", "call h", 4, "f"),
        CfgNode(4, "exit", "Exit", 5, "f"),
    ]
    cfg.edges = [
        CfgEdge(0, 1),
        CfgEdge(1, 2, "True"),
        CfgEdge(1, 4, "False"),
        CfgEdge(2, 1, back=True),
        CfgEdge(2, 3),
        CfgEdge(3, 1),
    ]
    oracle = brute_force_paths(cfg, 0, {4})
    assert oracle == [(0, 1, 2, 1, 4), (0, 1, 4)]
    assert _ids(enumerate_paths(cfg, 10)) == oracle


def test_paths_obey_budget_and_endpoints(corpus):
    # Besides the level budget, every function is cut just below, exactly
    # at, and just above its oracle path count; the view's truncation flag
    # must say whether the budget cut any path.
    for fn in corpus:
        bundle = parse(fn)
        for level in LEVELS:
            ast_f = filter_ast(bundle.ast, level)
            filtered = filter_cfg(bundle.cfg)
            dfg_f = filter_dfg(bundle.dfg)
            entry = filtered.entries()[0]
            oracle = brute_force_paths(filtered, entry.id, {n.id for n in filtered.exits()})
            budgets = {LEVEL_BUDGETS[level], len(oracle) - 1, len(oracle), len(oracle) + 1} - {0}
            for budget in sorted(budgets):
                paths = enumerate_paths(filtered, budget)
                assert len(paths) <= budget, fn.id
                for path in paths:
                    assert path.nodes[0].kind == "entry"
                    assert path.nodes[-1].kind == "exit"
                (view,) = build_salient_views(bundle, ast_f, filtered, dfg_f, budget).cfg_views
                assert view.truncated == (len(oracle) > budget), (fn.id, level, budget)
                assert _ids(view.paths) == _ids(paths), (fn.id, level, budget)


def _ids(paths) -> list[tuple[int, ...]]:
    return [tuple(n.id for n in p.nodes) for p in paths]


def test_enumerate_matches_oracle_when_under_budget(corpus):
    for fn in corpus:
        bundle = parse(fn)
        filtered = filter_cfg(bundle.cfg)
        entry = filtered.entries()[0]
        exits = {n.id for n in filtered.exits()}
        oracle = brute_force_paths(filtered, entry.id, exits)
        if len(oracle) <= LEVEL_BUDGETS[Level.C]:
            got = [
                tuple(n.id for n in p.nodes)
                for p in enumerate_paths(filtered, LEVEL_BUDGETS[Level.C])
            ]
            assert got == oracle, fn.id


def test_budget_selection_prefers_branch_and_call_heavy_paths():
    code = """void many(int a, int b, int c) {
    if (a) { f(); }
    if (b) { g(); }
    if (c) { h(); }
}
"""
    bundle = parse(SourceFunction(id="many", code=code))
    filtered = filter_cfg(bundle.cfg)
    entry = filtered.entries()[0]
    exits = {n.id for n in filtered.exits()}
    full = brute_force_paths(filtered, entry.id, exits)
    assert len(full) == 8
    got = enumerate_paths(filtered, 3)
    assert len(got) == 3
    # The all-True path (3 branches + 3 calls) must survive the cut.
    kind = {n.id: n.kind for n in filtered.nodes}
    best = max(full, key=lambda seq: sum(1 for nid in seq if kind[nid] in ("branch", "call")))
    assert best in [tuple(n.id for n in p.nodes) for p in got]
    for path in got:
        assert path.score == sum(1 for n in path.nodes if n.kind in ("branch", "call"))


def _oracle_selection(filtered: CfgGraph, budget: int) -> tuple[int, list[tuple[int, ...]]]:
    """Path count, and the ``budget`` best of the first
    ``structure._MAX_ENUMERATED_PATHS`` paths by (-score, discovery index),
    in discovery order."""
    entry = filtered.entries()[0]
    full = brute_force_paths(filtered, entry.id, {n.id for n in filtered.exits()})
    ranked = full[: structure._MAX_ENUMERATED_PATHS]
    kind = {n.id: n.kind for n in filtered.nodes}

    def score(seq):
        return sum(1 for nid in seq if kind[nid] in ("branch", "call"))

    keep = sorted(range(len(ranked)), key=lambda i: (-score(ranked[i]), i))[:budget]
    return len(full), [ranked[i] for i in sorted(keep)]


def test_budget_selection_matches_oracle(corpus):
    for fn in corpus:
        filtered = filter_cfg(parse(fn).cfg)
        count, _ = _oracle_selection(filtered, 1)
        for budget in range(1, count):
            _, expected = _oracle_selection(filtered, budget)
            assert _ids(enumerate_paths(filtered, budget)) == expected, (fn.id, budget)


def test_paths_past_the_enumeration_cap_are_never_kept():
    # 13 sequential ifs give 8192 paths.  The first if calls only in its
    # else branch, which depth-first order takes second, so every path that
    # carries that call is found after the first 4096 and is never ranked.
    ifs = ["if (a0) { x = 1; } else { f0(); }"]
    ifs += [f"if (a{i}) {{ f{i}(); }}" for i in range(1, 13)]
    params = ", ".join(f"int a{i}" for i in range(13))
    code = f"void wide({params}) {{\n    int x = 0;\n    " + "\n    ".join(ifs) + "\n}\n"
    bundle = parse(SourceFunction(id="wide", code=code))
    ast_f = filter_ast(bundle.ast, Level.C)
    filtered = filter_cfg(bundle.cfg)
    dfg_f = filter_dfg(bundle.dfg)
    first_if = min((n for n in filtered.nodes if n.kind == "branch"), key=lambda n: n.line)
    for budget in (1, 16, 17):
        count, expected = _oracle_selection(filtered, budget)
        assert count == 8192
        paths = enumerate_paths(filtered, budget)
        assert _ids(paths) == expected, budget
        for path in paths:
            assert path.taken[[n.id for n in path.nodes].index(first_if.id)] == "True"
        (view,) = build_salient_views(bundle, ast_f, filtered, dfg_f, budget).cfg_views
        assert view.truncated
        assert _ids(view.paths) == expected, budget


def test_loop_tails_past_the_enumeration_cap_are_never_kept():
    # As above with a loop after each if: 7 ifs and 7 loops give 16384
    # paths, of which the 8192 after the first if's True branch fill the cap.
    parts = ["if (a0) { x = 1; } else { f0(); }", "while (w0) { g0(); }"]
    for i in range(1, 7):
        parts += [f"if (a{i}) {{ f{i}(); }}", f"while (w{i}) {{ g{i}(); }}"]
    params = ", ".join([f"int a{i}" for i in range(7)] + [f"int w{i}" for i in range(7)])
    code = f"void loops({params}) {{\n    int x = 0;\n    " + "\n    ".join(parts) + "\n}\n"
    filtered = filter_cfg(parse(SourceFunction(id="loops", code=code)).cfg)
    first_if = min((n for n in filtered.nodes if n.kind == "branch"), key=lambda n: n.line)
    for budget in (1, 16, 17):
        count, expected = _oracle_selection(filtered, budget)
        assert count == 16384
        paths = enumerate_paths(filtered, budget)
        assert _ids(paths) == expected, budget
        for path in paths:
            assert path.taken[[n.id for n in path.nodes].index(first_if.id)] == "True"


def test_tails_that_cannot_reach_an_exit_are_never_walked():
    filtered = filter_cfg(parse(dead_end(22)).cfg)
    start = time.perf_counter()
    assert enumerate_paths(filtered, LEVEL_BUDGETS[Level.C] + 1) == []
    assert time.perf_counter() - start < 1.0


def _walk_trace(cfg: CfgGraph, budget: int):
    """``enumerate_paths`` and the node ids on the walk's stack each time it enters a node."""
    stack: list[int] = []
    entered: list[tuple[int, ...]] = []

    def profile(frame, event, arg):
        if frame.f_code.co_name == "dfs" and frame.f_globals is vars(structure):
            if event == "call":
                stack.append(frame.f_locals["node_id"])
                entered.append(tuple(stack))
            elif event == "return":
                stack.pop()

    sys.setprofile(profile)
    try:
        paths = enumerate_paths(cfg, budget)
    finally:
        sys.setprofile(None)
    return paths, entered


def test_a_tail_that_only_ties_the_weakest_kept_path_is_skipped():
    # Budget 1.  Loop 6 is entered from branch 1 through calls 2, 3 and
    # 4-5.  Below 6 the best path adds 1 (call 10).  Through 2 (score 2) the
    # first path scores 3 and sets the floor.  Through 3 the score is 2
    # again, so 6 can only tie the floor and is not entered; through 5 it is
    # 3, so 6 is walked again and the floor becomes 4.  Back at 6 from 7 the
    # score is still 3 and 6 could again only tie, but that arrival is
    # inside 6's component, where the path above limits the walk, so it is
    # walked.
    kinds = {0: "entry", 1: "branch", 2: "call", 3: "call", 4: "call", 5: "call",
             6: "loop", 7: "return", 9: "exit", 10: "call"}
    edges = [
        (0, 1, "seq", False),
        (1, 2, "True", False), (1, 3, "False", False), (1, 4, "seq", False),
        (2, 6, "seq", False), (3, 6, "seq", False), (4, 5, "seq", False), (5, 6, "seq", False),
        (6, 10, "True", False), (10, 9, "seq", False),
        (6, 7, "False", False), (7, 6, "seq", True),
    ]
    cfg = CfgGraph(
        nodes=[CfgNode(i, kind, f"n{i}", i, "f") for i, kind in kinds.items()],
        edges=[CfgEdge(*e) for e in edges],
    )
    paths, entered = _walk_trace(cfg, 1)
    assert _ids(paths) == _oracle_selection(cfg, 1)[1] == [(0, 1, 4, 5, 6, 10, 9)]
    assert (0, 1, 3) in entered
    assert [stack for stack in entered if stack[-1] == 6] == [
        (0, 1, 2, 6), (0, 1, 2, 6, 7, 6), (0, 1, 4, 5, 6), (0, 1, 4, 5, 6, 7, 6),
    ]


def test_a_component_entered_at_two_nodes_is_walked_whole_from_each():
    # Nodes 2 and 4 form one component (4 -> 2 is no back edge).  Reached
    # from 2, node 4 cannot step back to 2 and adds nothing; reached from
    # call 3 it can, and 4 -> 2 -> 5 gives the best path.  What the walk
    # found below 4 inside the component must not stand for 4 on entry.
    kinds = {0: "entry", 1: "branch", 2: "return", 3: "call", 4: "return", 5: "call", 9: "exit"}
    edges = [
        (0, 1, "seq", False), (1, 2, "True", False), (1, 3, "False", False), (3, 4, "seq", False),
        (2, 4, "True", False), (2, 5, "False", False), (5, 9, "seq", False),
        (4, 9, "True", False), (4, 2, "False", False),
    ]
    cfg = CfgGraph(
        nodes=[CfgNode(i, kind, f"n{i}", i, "f") for i, kind in kinds.items()],
        edges=[CfgEdge(*e) for e in edges],
    )
    assert _ids(enumerate_paths(cfg, 1)) == _oracle_selection(cfg, 1)[1] == [(0, 1, 3, 4, 2, 5, 9)]


_CFG_KINDS = ("branch", "call", "loop", "return", "exit")


@st.composite
def _small_cfgs(draw) -> CfgGraph:
    """Up to 11 nodes: an entry, an exit last, any kinds between (so maybe a
    second exit), and up to 3 out-edges per node with any labels and back
    flags, self-loops included.  Half the edges go forward, so that most
    graphs have many paths; a node may have none and be a dead end."""
    size = draw(st.integers(min_value=2, max_value=11))
    kinds = ["entry"] + [draw(st.sampled_from(_CFG_KINDS)) for _ in range(size - 2)] + ["exit"]
    edges = set()
    for src in range(size - 1):
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            low = src + 1 if draw(st.booleans()) else 0
            dst = draw(st.integers(min_value=low, max_value=size - 1))
            edges.add((src, dst, draw(st.sampled_from(["True", "False", "seq"])), draw(st.booleans())))
    return CfgGraph(
        nodes=[CfgNode(i, kind, f"n{i}", i, "f") for i, kind in enumerate(kinds)],
        edges=[CfgEdge(*e) for e in sorted(edges)],
    )


@settings(max_examples=200, deadline=None)
@given(cfg=_small_cfgs())
def test_selection_matches_oracle_on_random_graphs(cfg):
    for cap in (1, 3, 7, 4096):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(structure, "_MAX_ENUMERATED_PATHS", cap)
            for budget in range(1, 6):
                expected = _oracle_selection(cfg, budget)[1]
                assert _ids(enumerate_paths(cfg, budget)) == expected, (cap, budget)


def _views_by_name(code: str, level: Level, budget: int) -> dict[str, tuple]:
    bundle = parse(SourceFunction(id="unit", code=code))
    views = build_salient_views(
        bundle,
        filter_ast(bundle.ast, level),
        filter_cfg(bundle.cfg),
        filter_dfg(bundle.dfg),
        budget,
    )
    return {
        cv.name: (
            (cv.retained, cv.total, cv.branches, cv.calls, cv.truncated),
            [n.label for n in cv.branch_nodes],
            [([n.label for n in p.nodes], p.taken) for p in cv.paths],
            (dv.edges_retained, dv.edges_total),
            [n.label for n in dv.params],
            [([n.label for n in c.nodes], c.truncated) for c in dv.chains],
        )
        for cv, dv in zip(views.cfg_views, views.dfg_views)
    }


def test_two_function_unit_views_match_each_function_alone():
    codes = dict(FIXTURE_CORPUS)
    first, second = codes["mixed_flow"], codes["switch_dispatch"]
    for level in LEVELS:
        for budget in (1, 2, 3, LEVEL_BUDGETS[level]):
            unit = _views_by_name(first + "\n" + second, level, budget)
            alone = {**_views_by_name(first, level, budget), **_views_by_name(second, level, budget)}
            assert list(unit) == list(alone)
            assert unit == alone, (level, budget)


def test_paths_are_enumerated_once_per_function(monkeypatch):
    codes = dict(FIXTURE_CORPUS)
    unit = SourceFunction(
        id="unit",
        code="\n".join(codes[name] for name in ("mixed_flow", "switch_dispatch", "goto_cleanup")),
    )
    calls = []
    original = structure._paths_for_function

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(structure, "_paths_for_function", counting)
    for level in LEVELS:
        calls.clear()
        generate_structural_context(unit, level)
        assert len(calls) == 3, level


# -- chain tracing ------------------------------------------------------------


def test_copy_bytes_chain(copy_bytes):
    bundle = parse(copy_bytes)
    filtered = filter_dfg(bundle.dfg)
    chains = trace_chains(filtered, LEVEL_BUDGETS[Level.C])
    assert len(chains) == 1
    labels = [n.label for n in chains[0].nodes]
    assert labels == ["param:len", "if(len > max)", "call memcpy"]


def test_unused_parameter_has_no_chain():
    bundle = parse(SourceFunction(id="u", code="int u(int unused, int v){return v;}"))
    filtered = filter_dfg(bundle.dfg)
    chains = trace_chains(filtered, 8)
    assert all(c.nodes[0].var != "unused" for c in chains)


def test_diamond_chain_set_matches_brute_force():
    # Six nodes, two param-to-sink routes through different definitions.
    dfg = DfgGraph(
        nodes=[
            DfgNode(0, "p", "param", 1, "param:p", -1, "f"),
            DfgNode(1, "x", "def", 2, "def:x", 3, "f"),
            DfgNode(2, "y", "def", 3, "def:y", 4, "f"),
            DfgNode(3, "x", "use", 4, "if(x)", 5, "f"),
            DfgNode(4, "y", "use", 5, "if(y)", 6, "f"),
            DfgNode(5, "z", "sink", 6, "call out", 7, "f"),
        ],
        edges=[
            DfgEdge(0, 1),
            DfgEdge(0, 2),
            DfgEdge(1, 3),
            DfgEdge(2, 4),
            DfgEdge(3, 5),
            DfgEdge(4, 5),
        ],
    )
    chains = trace_chains(dfg, 16)
    got = [tuple(n.id for n in c.nodes) for c in chains]
    assert sorted(got) == sorted(brute_force_chains(dfg))


def test_chain_head_and_tail_law(corpus):
    for fn in corpus:
        filtered = filter_dfg(parse(fn).dfg)
        for level in LEVELS:
            for chain in trace_chains(filtered, LEVEL_BUDGETS[level]):
                assert chain.nodes[0].kind == "param", fn.id
                if chain.truncated:
                    assert len(chain.nodes) == LEVEL_BUDGETS[level]
                else:
                    assert chain.nodes[-1].kind == "sink", fn.id


def test_truncated_chain_is_marked():
    nodes = [DfgNode(0, "p", "param", 1, "param:p", -1, "f")]
    edges = []
    for i in range(1, 6):
        nodes.append(DfgNode(i, f"v{i}", "def", i + 1, f"def:v{i}", i + 1, "f"))
        edges.append(DfgEdge(i - 1, i))
    dfg = DfgGraph(nodes=nodes, edges=edges)
    chains = trace_chains(dfg, 4)
    assert len(chains) == 1
    assert chains[0].truncated
    assert len(chains[0].nodes) == 4


# -- whole-context properties -------------------------------------------------


def test_empty_function_context_is_three_zero_summaries():
    ctx = generate_structural_context(SourceFunction(id="f", code="void f(){}"))
    assert ctx.s.splitlines() == [
        "Function f@L1: 0 declarations, 0 assignments, 0 branches, 0 calls.",
        "Function f: retained control points 2/2; branches 0; calls 0.",
        "Function f: edges retained 0/0; parameter sources 0; chains 0.",
    ]


def test_two_branch_fixture_cfg_section_matches_oracle():
    code = """void two(int a, int b) {
    if (a) { f(); }
    if (b) { g(); }
}
"""
    fn = SourceFunction(id="two", code=code)
    bundle = parse(fn)
    filtered = filter_cfg(bundle.cfg)
    entry = filtered.entries()[0]
    oracle = brute_force_paths(filtered, entry.id, {n.id for n in filtered.exits()})
    ctx = generate_structural_context(fn, Level.C)
    rendered_paths = re.findall(r"Path \d+:", ctx.t_cfg)
    with_interior = [seq for seq in oracle if len(seq) > 2]
    assert len(rendered_paths) == len(with_interior)


def test_every_sentence_matches_exactly_one_template(corpus):
    splitter = re.compile(
        r"(?<=\.) (?=(?:Function \S|Key call chain:|Conditions/Loops:|Returns:"
        r"|Isomorphic functions|Branch/Loop nodes:|Path \d|Parameter sources:|Data chain:))"
    )
    for fn in corpus:
        ctx = generate_structural_context(fn, Level.C)
        for fragment in (ctx.t_ast, ctx.t_cfg, ctx.t_dfg):
            for sentence in splitter.split(fragment):
                hits = [
                    name
                    for name, pattern in TEMPLATE_PATTERNS.items()
                    if re.fullmatch(pattern, sentence)
                ]
                assert len(hits) == 1, (fn.id, sentence, hits)
                assert matches_template(sentence) == hits[0]


def test_view_sizes_monotone_in_level(corpus):
    for fn in corpus:
        filtered = filter_cfg(parse(fn).cfg)
        sizes = {}
        for level in LEVELS:
            sizes[level] = len(enumerate_paths(filtered, LEVEL_BUDGETS[level]))
        assert sizes[Level.A] <= sizes[Level.B] <= sizes[Level.C], fn.id
