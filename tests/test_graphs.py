from __future__ import annotations

from dataclasses import astuple

import pytest
from pycparser import CParser

from fixtures import COPY_BYTES, nested_ifs

from vulncontext.errors import SourceSyntaxError, SourceTooDeepError, UnsupportedLanguageError
from vulncontext.graphs import (
    CategoryCounts,
    SourceFunction,
    count_ast_categories,
    parse,
)


def test_copy_bytes_cfg_has_labeled_branch_with_true_false_edges(copy_bytes):
    bundle = parse(copy_bytes)
    branches = [n for n in bundle.cfg.nodes if n.kind == "branch"]
    assert [b.label for b in branches] == ["if(len > max)"]
    labels = sorted(e.label for e in bundle.cfg.out_edges(branches[0].id))
    assert labels == ["False", "True"]


def test_empty_function_graphs_are_minimal():
    bundle = parse(SourceFunction(id="f", code="void f(){}"))
    semantic = [n for n in bundle.ast.walk() if n.kind != "type-expansion"]
    assert [n.kind for n in semantic] == ["function-def"]
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
        reachable = {entry.id}
        frontier = [entry.id]
        while frontier:
            current = frontier.pop()
            for e in cfg.out_edges(current):
                if e.dst not in reachable:
                    reachable.add(e.dst)
                    frontier.append(e.dst)
        assert reachable == {n.id for n in cfg.nodes}, fn.id
        for node in cfg.nodes:
            if node.kind == "branch":
                labels = [e.label for e in cfg.out_edges(node.id)]
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

    def reaches(src, dst):
        seen, stack = set(), [src]
        while stack:
            cur = stack.pop()
            if cur == dst:
                return True
            for e in cfg.out_edges(cur):
                if e.dst not in seen:
                    seen.add(e.dst)
                    stack.append(e.dst)
        return False

    for i, a in enumerate(order):
        for b in order[i + 1 :]:
            assert reaches(a, b)


def test_node_lines_stay_inside_function_range(corpus):
    for fn in corpus:
        bundle = parse(fn)
        last_line = fn.code.count("\n") + 1
        for node in bundle.ast.walk():
            assert 1 <= node.line <= last_line, (fn.id, node.kind, node.line)
        for node in bundle.cfg.nodes:
            assert 1 <= node.line <= last_line, (fn.id, node.label)
        for node in bundle.dfg.nodes:
            assert 1 <= node.line <= last_line, (fn.id, node.label)


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


# -- header typedefs -----------------------------------------------------------
# The frontend seeds the parser's file scope with common typedef names instead
# of parsing a typedef prologue on every call.  That relies on two private
# names of pycparser 3.00's CParser; these tests fail if either moves.


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
