from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import astuple
from pathlib import Path

import pytest
from pycparser import CParser

from fixtures import (
    CONTROL_PLUMBING,
    COPY_BYTES,
    GOTO_ONLY_LABEL,
    GOTO_TANGLES,
    STATEMENT_CYCLES,
    TYPE_PLUMBING,
    nested_ifs,
    out_edges,
)
from test_hostile_inputs import SHAPES

from vulncontext import graphs
from vulncontext.errors import SourceSyntaxError, SourceTooDeepError, UnsupportedLanguageError
from vulncontext.graphs import (
    CategoryCounts,
    SourceFunction,
    count_ast_categories,
    parse,
)
from vulncontext.structure import generate_structural_context

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


def test_copy_bytes_cfg_has_labeled_branch_with_true_false_edges(copy_bytes):
    bundle = parse(copy_bytes)
    branches = [n for n in bundle.cfg.nodes if n.kind == "branch"]
    assert [b.label for b in branches] == ["if(len > max)"]
    labels = sorted(e.label for e in out_edges(bundle.cfg)[branches[0].id])
    assert labels == ["False", "True"]


def test_empty_function_graphs_are_minimal():
    bundle = parse(SourceFunction(id="f", code="void f(){}"))
    assert [n.kind for n in bundle.ast.walk()] == ["function-def"]
    assert [(n.kind) for n in bundle.cfg.nodes] == ["entry", "exit"]
    assert [(e.src, e.dst) for e in bundle.cfg.edges] == [(0, 1)]
    assert bundle.dfg.nodes == [] and bundle.dfg.edges == []
    # An empty do-while body: the back edge is a self-loop on the loop node.
    bundle = parse(SourceFunction(id="d", code="void d(int x){ do {} while (x); }"))
    assert [n.label for n in bundle.cfg.nodes] == ["Entry", "Exit", "do-while(x)", "end"]
    assert [(e.src, e.dst, e.label, e.back) for e in bundle.cfg.edges] == [
        (0, 2, "seq", False),
        (2, 2, "True", True),
        (2, 3, "False", False),
        (3, 1, "seq", False),
    ]


def test_two_statement_function_matches_hand_built_def_use_table():
    bundle = parse(SourceFunction(id="g", code="int g(int a){int b=a; return b;}"))
    nodes = {n.id: n for n in bundle.dfg.nodes}
    # Hand-built def-use table: a flows into b's definition, b flows into the
    # return sink.
    triples = [
        (nodes[e.src].kind, nodes[e.src].var, nodes[e.dst].kind, nodes[e.dst].var)
        for e in bundle.dfg.edges
    ]
    assert ("param", "a", "def", "b") in triples
    assert ("def", "b", "sink", "b") in triples
    assert len(triples) == 2
    sink = next(n for n in bundle.dfg.nodes if n.kind == "sink")
    assert sink.label == "return b"


def test_copy_bytes_category_counts(copy_bytes):
    bundle = parse(copy_bytes)
    assert count_ast_categories(bundle.ast) == CategoryCounts(2, 1, 1, 1)


def test_empty_function_category_counts():
    bundle = parse(SourceFunction(id="f", code="void f(){}"))
    assert count_ast_categories(bundle.ast) == CategoryCounts(0, 0, 0, 0)


def test_two_calls_one_if_counts_by_hand():
    code = """int m(int a) {
    if (a > 0) {
        log_value(a);
    }
    return get_default(a);
}
"""
    bundle = parse(SourceFunction(id="m", code=code))
    counts = count_ast_categories(bundle.ast)
    # Hand count: one parameter aggregate, no assignments, one if, two calls.
    assert counts == CategoryCounts(1, 0, 1, 2)


def test_parse_is_deterministic(corpus):
    for fn in corpus:
        first = parse(fn)
        second = parse(fn)
        assert [(n.kind, n.name, n.line) for n in first.ast.walk()] == [
            (n.kind, n.name, n.line) for n in second.ast.walk()
        ]
        assert first.cfg.nodes == second.cfg.nodes
        assert first.cfg.edges == second.cfg.edges
        assert first.dfg.nodes == second.dfg.nodes
        assert first.dfg.edges == second.dfg.edges


def test_cfg_invariants_across_corpus(corpus):
    for fn in corpus:
        bundle = parse(fn)
        cfg = bundle.cfg
        assert len(cfg.entries()) == 1
        assert len(cfg.exits()) == 1
        entry = cfg.entries()[0]
        adjacency = out_edges(cfg)
        reachable = {entry.id}
        frontier = [entry.id]
        while frontier:
            current = frontier.pop()
            for e in adjacency[current]:
                if e.dst not in reachable:
                    reachable.add(e.dst)
                    frontier.append(e.dst)
        assert reachable == {n.id for n in cfg.nodes}, fn.id
        for node in cfg.nodes:
            if node.kind == "branch":
                labels = [e.label for e in adjacency[node.id]]
                assert len(labels) >= 2, fn.id
                assert set(labels) <= {"True", "False"}, fn.id


def test_straight_line_cfg_orders_statements():
    code = """void s(void) {
    int a = 1;
    int b = a;
    int c = b;
}
"""
    bundle = parse(SourceFunction(id="s", code=code))
    cfg = bundle.cfg
    # Every execution-ordered statement pair is connected by a directed path.
    order = [n.id for n in cfg.nodes if n.kind == "statement"]
    adjacency = out_edges(cfg)

    def reaches(src, dst):
        seen, stack = set(), [src]
        while stack:
            cur = stack.pop()
            if cur == dst:
                return True
            for e in adjacency[cur]:
                if e.dst not in seen:
                    seen.add(e.dst)
                    stack.append(e.dst)
        return False

    for i, a in enumerate(order):
        for b in order[i + 1 :]:
            assert reaches(a, b)


def test_node_lines_stay_inside_function_range(corpus):
    # Behind blank lines, a node that took line 1 for want of a position shows.
    shifted = SourceFunction(id="type_plumbing", code="\n" * 4 + TYPE_PLUMBING)
    for fn in [*corpus, shifted]:
        bundle = parse(fn)
        first_line = len(fn.code) - len(fn.code.lstrip("\n")) + 1
        last_line = fn.code.count("\n") + 1
        for node in bundle.ast.walk():
            assert first_line <= node.line <= last_line, (fn.id, node.kind, node.line)
        for node in bundle.cfg.nodes:
            assert first_line <= node.line <= last_line, (fn.id, node.label)
        for node in bundle.dfg.nodes:
            assert first_line <= node.line <= last_line, (fn.id, node.label)


def test_cfg_statements_without_a_position_keep_their_lines():
    # pycparser gives a compound literal no coord: the expression statement
    # takes the first line inside it, the for loop's next expression the loop's.
    code = "int f(int k) {\n\n\n  (struct s){k};\n  for (;;(struct s){k}) k++;\n  return 0;\n}"
    cfg = parse(SourceFunction(id="f", code=code)).cfg
    assert [(n.kind, n.label, n.line) for n in cfg.nodes if n.kind not in ("entry", "exit")] == [
        ("statement", "(struct s){k}", 4),
        ("loop", "for(; ; (struct s){k})", 5),
        ("statement", "k++", 5),
        ("statement", "(struct s){k}", 5),
        ("return", "return 0", 6),
    ]


def test_a_label_only_a_goto_reaches_keeps_the_statement_it_marks():
    fn = SourceFunction(id="cleanup", code=GOTO_ONLY_LABEL)
    cfg = parse(fn).cfg
    by_label = {n.label: n for n in cfg.nodes}
    # Each goto lands on the first statement its label marks.
    assert [n.label for n in cfg.nodes[-2:]] == ["call free", "return -1"]
    goto_edges = {(e.src, e.dst) for e in cfg.edges}
    assert (by_label["goto fail"].id, by_label["call free"].id) in goto_edges
    assert (by_label["goto out"].id, by_label["return -1"].id) in goto_edges
    t_cfg = generate_structural_context(fn).t_cfg
    assert "branches 2; calls 3." in t_cfg
    assert "Path 2: Entry → call malloc → [False] if(!buf) → [True] if(n > 8) → call free → return -1 → Exit." in t_cfg
    # A label there whose statement builds nothing gets one anchor.
    cfg = parse(SourceFunction(id="f", code="void f(int a) { if (a) goto end; return; end: ; }")).cfg
    assert [n.label for n in cfg.nodes].count("end:") == 1


def test_a_goto_into_a_loop_keeps_the_loop():
    fn = SourceFunction(id="inside", code="void inside(int x) { goto in; while (x) { in: x--; } }")
    cfg = parse(fn).cfg
    by_label = {n.label: n for n in cfg.nodes}
    assert {"while(x)", "x--"} <= by_label.keys()
    assert (by_label["goto in"].id, by_label["x--"].id) in {(e.src, e.dst) for e in cfg.edges}
    t_cfg = generate_structural_context(fn).t_cfg
    assert "Path 1: Entry → [True] while(x) → [False] while(x) → Exit." in t_cfg
    assert "Path 2: Entry → [False] while(x) → Exit." in t_cfg


def test_a_label_before_the_first_case_keeps_its_statements():
    code = "int f(int a){ goto L; switch(a){ L: a++; case 1: a--; } return a; }"
    cfg = parse(SourceFunction(id="f", code=code)).cfg
    label = {n.id: n.label for n in cfg.nodes}
    succ = {label[e.src]: label[e.dst] for e in cfg.edges}
    assert [succ["goto L"], succ["a++"], succ["a--"], succ["join"]] == ["a++", "a--", "join", "return a"]
    # A goto to a label on the switch still enters it where the switch does.
    code = "int f(int a){ L: switch(a){ a = 3; default: a++; } if (a < 3) goto L; return a; }"
    cfg = parse(SourceFunction(id="f", code=code)).cfg
    label = {n.id: n.label for n in cfg.nodes}
    assert "a = 3" not in label.values()
    assert ("goto L", "a++") in {(label[e.src], label[e.dst]) for e in cfg.edges}


def test_every_plain_statement_has_exactly_one_seq_successor(corpus):
    # ``filter_cfg`` folds statement chains along this one successor.
    fns = list(corpus) + [shape.values[0] for shape in SHAPES]
    fns += [SourceFunction(id=f"code{i}", code=code) for i, code in enumerate(
        [CONTROL_PLUMBING, TYPE_PLUMBING, *GOTO_TANGLES, *STATEMENT_CYCLES]
    )]
    rng = random.Random("single-successor:small")
    for serial, target in enumerate(workloads.small_sizes(rng, 20)):
        fns += [SourceFunction(id=g.id, code=g.code) for g in workloads.small_pair(rng, serial, target)]
    large = workloads.large_cycle(random.Random("single-successor:large"), 0)
    fns += [SourceFunction(id=g.id, code=g.code) for g in large if g.statements <= 300]
    statements = 0
    for fn in fns:
        try:
            cfg = parse(fn).cfg
        except SourceTooDeepError:
            continue
        adjacency = out_edges(cfg)
        # ``_prune_unreachable`` keeps only what an Entry reaches, and Exit.
        stack = [n.id for n in cfg.entries()]
        reached = set(stack)
        while stack:
            for e in adjacency[stack.pop()]:
                if e.dst not in reached:
                    reached.add(e.dst)
                    stack.append(e.dst)
        for node in cfg.nodes:
            assert node.id in reached or node.kind == "exit", (fn.id, node)
            if node.kind == "statement":
                statements += 1
                assert [e.label for e in adjacency[node.id]] == ["seq"], (fn.id, node)
    assert statements > 1000


def test_dfg_anchoring_across_corpus(corpus):
    for fn in corpus:
        bundle = parse(fn)
        declared = {
            n.name for n in bundle.ast.walk() if n.kind == "declaration" and n.role == "param"
        }
        cfg_by_id = {n.id: n for n in bundle.cfg.nodes}
        for node in bundle.dfg.nodes:
            if node.kind == "param":
                assert node.var in declared, (fn.id, node.var)
            if node.kind == "sink":
                host = cfg_by_id[node.stmt]
                assert host.kind in ("call", "return"), (fn.id, node.label)


def test_syntax_error_carries_position():
    with pytest.raises(SourceSyntaxError) as err:
        parse(SourceFunction(id="bad", code="void broken( {"))
    assert err.value.line == 1
    assert err.value.column is not None


_STRAY_BRACE_PROBE = """
import json
from vulncontext.errors import SourceSyntaxError
from vulncontext.graphs import SourceFunction, parse
try:
    parse(SourceFunction(id="x", code="int f(void){ return 0; }}"))
except SourceSyntaxError as err:
    print(json.dumps([str(err), err.line, err.column]))
"""


def test_stray_closing_brace_is_the_same_error_with_or_without_asserts():
    src = Path(__file__).resolve().parent.parent / "src"
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    reports = []
    for flags in ([], ["-O"]):
        result = subprocess.run(
            [sys.executable, *flags, "-c", _STRAY_BRACE_PROBE],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        reports.append(json.loads(result.stdout))
    assert reports == [["x:1:25: before: }", 1, 25]] * 2


# -- header typedefs -----------------------------------------------------------
# The frontend seeds the parser's file scope with common typedef names instead
# of parsing a typedef prologue on every call.  That relies on two private
# names of pycparser 3.00's CParser; these tests fail if either moves.  The
# stray-brace test above covers a third, ``_pop_scope``.


def test_pycparser_still_has_the_private_names_the_frontend_seeds():
    assert callable(getattr(CParser, "_parse_translation_unit_or_empty", None))
    parser = CParser()
    assert parser._scope_stack == [{}]


def test_header_typedef_names_parse_without_their_headers():
    code = """int put_bytes(FILE *fp, const u8 *buf, size_t len, bool flush) {
    size_t i;
    for (i = 0; i < len; i++) {
        if (fputc(buf[i], fp) < 0)
            return -1;
    }
    if (flush)
        fflush(fp);
    return 0;
}"""
    cfg = parse(SourceFunction(id="put_bytes", code=code)).cfg
    # Recorded from the frontend that prepended a typedef prologue.
    assert [astuple(n)[:4] for n in cfg.nodes] == [
        (0, "entry", "Entry", 1),
        (1, "exit", "Exit", 1),
        (2, "statement", "decl size_t i", 2),
        (3, "statement", "i = 0", 3),
        (4, "loop", "for(i = 0; i < len; i++)", 3),
        (5, "branch", "if(fputc(buf[i], fp) < 0)", 4),
        (6, "return", "return -1", 5),
        (7, "statement", "join", 4),
        (8, "statement", "i++", 3),
        (9, "branch", "if(flush)", 7),
        (10, "call", "call fflush", 8),
        (11, "statement", "join", 7),
        (12, "return", "return 0", 9),
    ]
    assert [astuple(e) for e in cfg.edges] == [
        (0, 2, "seq", False),
        (2, 3, "seq", False),
        (3, 4, "seq", False),
        (4, 5, "True", False),
        (5, 6, "True", False),
        (6, 1, "seq", False),
        (5, 7, "False", False),
        (7, 8, "seq", False),
        (8, 4, "seq", True),
        (4, 9, "False", False),
        (9, 10, "True", False),
        (10, 11, "seq", False),
        (9, 11, "False", False),
        (11, 12, "seq", False),
        (12, 1, "seq", False),
    ]


def test_file_scope_redeclaration_of_a_header_typedef_is_rejected():
    with pytest.raises(SourceSyntaxError) as err:
        parse(SourceFunction(id="redecl", code="int size_t;\nint f(void) { return 0; }"))
    assert str(err.value) == (
        "redecl:1:5: Non-typedef 'size_t' previously declared as typedef in this scope"
    )
    assert (err.value.line, err.value.column) == (1, 5)


def test_a_local_variable_may_shadow_a_header_typedef():
    code = "int f(void) {\n    int u8;\n    u8 = 3;\n    return u8;\n}"
    bundle = parse(SourceFunction(id="local", code=code))
    assert [n.label for n in bundle.cfg.nodes] == ["Entry", "Exit", "decl int u8", "u8 = 3", "return u8"]
    assert len(bundle.dfg.edges) == 1


def test_input_too_deep_for_the_parser_has_its_own_cause():
    assert sum(n.kind == "branch" for n in parse(nested_ifs(100)).cfg.nodes) == 100
    with pytest.raises(SourceTooDeepError, match="nest too deeply") as err:
        parse(nested_ifs(200))
    assert isinstance(err.value, SourceSyntaxError)
    assert isinstance(err.value.__cause__, RecursionError)


def test_a_render_cut_short_by_depth_leaves_later_labels_unchanged():
    # Rendering a struct definition indents its members; the failed render
    # must not leave the next one indented.
    probe = SourceFunction(id="probe", code="int g(void) { return sizeof(struct t { int b; }); }")
    labels = [n.label for n in parse(probe).cfg.nodes]
    dimension = " + ".join(["1"] * 400)
    deep = SourceFunction(id="deep", code=f"int f(void) {{ return sizeof(struct s {{ int a[{dimension}]; }}); }}")
    with pytest.raises(SourceTooDeepError):
        parse(deep)
    assert [n.label for n in parse(probe).cfg.nodes] == labels


# Every construct whose label holds rendered source: an if, a switch and its
# cases, while, do-while and for conditions, for clauses that are also CFG
# statements, a call through an expression, and returned values.
RENDERED_LABELS = """int f(int n, int (*op)(int)) {
    int s = 0;
    if (n > 1)
        s = op(n);
    switch (n % 3) { case 0: s++; break; case 1: s--; default: s = 2; }
    while (n > 0)
        n--;
    do s += 2; while (s < 9);
    for (n = 0; n < 4; n++)
        s += n;
    for (int i = 0; i < n; i += 2)
        (*op)(i);
    if (s)
        return s * 2;
    return 0;
}
"""


def test_each_label_is_rendered_once(monkeypatch):
    rendered = []
    original = graphs._render

    def counting(node):
        rendered.append(node)
        return original(node)

    monkeypatch.setattr(graphs, "_render", counting)
    bundle = parse(SourceFunction(id="labels", code=RENDERED_LABELS))
    counts = Counter(map(id, rendered))
    assert [original(node) for node in rendered if counts[id(node)] > 1] == []
    assert {"if(n > 1)", "switch(n % 3) case 1", "do-while(s < 9)", "n++", "call *op", "return s * 2"} <= {
        n.label for n in bundle.cfg.nodes
    }


def test_declaration_only_input_is_rejected():
    with pytest.raises(SourceSyntaxError):
        parse(SourceFunction(id="decl", code="int x;"))


def test_unknown_language_is_rejected():
    with pytest.raises(UnsupportedLanguageError):
        parse(SourceFunction(id="k", code="fun main() {}", language="kotlin"))


def test_non_const_pointer_parameters_are_not_sources(copy_bytes):
    bundle = parse(copy_bytes)
    assert sorted(p.var for p in bundle.dfg.params()) == ["len", "src"]


def test_copy_bytes_prefilter_sizes(copy_bytes):
    bundle = parse(copy_bytes)
    assert len(bundle.cfg.nodes) == 9
    assert len(bundle.dfg.edges) == 4
