"""Shared test fixtures: C sources, toy weakness corpus, scripted responses,
a reference DFG builder and a generator of C functions."""

from __future__ import annotations

import heapq
from collections import defaultdict
from unittest import mock

from hypothesis import strategies as st

from vulncontext import graphs
from vulncontext.graphs import CfgEdge, CfgNode, DfgEdge, DfgGraph, DfgNode, SourceFunction, _Refs
from vulncontext.knowledge import KnowledgeEntry

COPY_BYTES = """void copy_bytes(char *dst, const char *src, size_t len) {
    size_t max = MAX_BUF;
    if (len > max) {
        return;
    }
    memcpy(dst, src, len);
}
"""

GOLDEN_T_AST = (
    "Function copy_bytes@L1: 2 declarations, 1 assignments, 1 branches, 1 calls. "
    "Key call chain: memcpy. Conditions/Loops: if(len > max)."
)
GOLDEN_T_CFG = (
    "Function copy_bytes: retained control points 5/9; branches 1; calls 1. "
    "Path 1: Entry → [True] if(len > max) → return → Exit. "
    "Path 2: Entry → [False] if(len > max) → call memcpy → Exit."
)
GOLDEN_T_DFG = (
    "Function copy_bytes: edges retained 3/4; parameter sources 2; chains 1. "
    "Parameter sources: param:len@L1; param:src@L1. "
    "Data chain: param:len → if(len > max) → call memcpy."
)


def copy_bytes_fn(label: str | None = "vulnerable") -> SourceFunction:
    return SourceFunction(id="copy_bytes", code=COPY_BYTES, label=label)


# A small corpus of parseable C functions covering the statement forms the
# frontend supports: branches, loops of every flavor, switches, gotos,
# pointer parameters, early returns, and call-heavy bodies.
FIXTURE_CORPUS: list[tuple[str, str]] = [
    ("copy_bytes", COPY_BYTES),
    ("empty", "void empty(void) {}\n"),
    (
        "straight_line",
        """void straight_line(int a) {
    int x = a;
    int y = x + 1;
    int z = y * 2;
    int w = z - 3;
}
""",
    ),
    (
        "single_if",
        """int single_if(int a) {
    if (a > 0) {
        return 1;
    }
    return 0;
}
""",
    ),
    (
        "if_else",
        """int if_else(int a, int b) {
    int r;
    if (a < b) {
        r = a;
    } else {
        r = b;
    }
    return r;
}
""",
    ),
    (
        "two_ifs_then_call",
        """void two_ifs_then_call(int a, int b) {
    if (a) {
        first();
    }
    if (b) {
        second();
    }
    finish();
}
""",
    ),
    (
        "loop_with_call",
        """void loop_with_call(int n) {
    while (n > 0) {
        emit(n);
        n--;
    }
}
""",
    ),
    (
        "for_loop_sum",
        """int for_loop_sum(int n) {
    int total = 0;
    int i;
    for (i = 0; i < n; i++) {
        total = total + i;
    }
    return total;
}
""",
    ),
    (
        "do_while_drain",
        """void do_while_drain(int n) {
    do {
        consume(n);
        n--;
    } while (n > 0);
}
""",
    ),
    (
        "nested_loops",
        """void nested_loops(int rows, int cols) {
    int i;
    int j;
    for (i = 0; i < rows; i++) {
        for (j = 0; j < cols; j++) {
            visit(i, j);
        }
    }
}
""",
    ),
    (
        "nested_if",
        """int nested_if(int a, int b) {
    if (a > 0) {
        if (b > 0) {
            return a + b;
        }
        return a;
    }
    return 0;
}
""",
    ),
    (
        "switch_dispatch",
        """int switch_dispatch(int op, int x) {
    int r = 0;
    switch (op) {
        case 0:
            r = x + 1;
            break;
        case 1:
            r = x - 1;
            break;
        default:
            r = x;
    }
    return r;
}
""",
    ),
    (
        "early_return_guard",
        """int early_return_guard(const char *name) {
    if (!name) {
        return -1;
    }
    return validate(name);
}
""",
    ),
    (
        "break_in_loop",
        """int break_in_loop(int n, int target) {
    int i;
    for (i = 0; i < n; i++) {
        if (i == target) {
            break;
        }
    }
    return i;
}
""",
    ),
    (
        "continue_in_loop",
        """int continue_in_loop(int n) {
    int kept = 0;
    int i;
    for (i = 0; i < n; i++) {
        if (i % 2) {
            continue;
        }
        kept++;
    }
    return kept;
}
""",
    ),
    (
        "goto_cleanup",
        """int goto_cleanup(int fd, const char *path) {
    int rc = open_file(path);
    if (rc < 0) {
        goto out;
    }
    rc = read_file(fd);
out:
    close_file(fd);
    return rc;
}
""",
    ),
    (
        "unchecked_strcpy",
        """void unchecked_strcpy(char *dst, const char *src) {
    strcpy(dst, src);
}
""",
    ),
    (
        "guarded_index",
        """int guarded_index(const int *table, int idx, int limit) {
    if (idx < 0) {
        return 0;
    }
    if (idx >= limit) {
        return 0;
    }
    return table[idx];
}
""",
    ),
    (
        "pointer_walk",
        """int pointer_walk(const char *s) {
    int n = 0;
    while (*s) {
        n++;
        s++;
    }
    return n;
}
""",
    ),
    (
        "accumulate_calls",
        """int accumulate_calls(int seed) {
    int a = step_one(seed);
    int b = step_two(a);
    int c = step_three(b);
    return c;
}
""",
    ),
    (
        "diamond_flow",
        """int diamond_flow(int flag, const int *src) {
    int value;
    if (flag) {
        value = src[0];
    } else {
        value = src[1];
    }
    return use_value(value);
}
""",
    ),
    (
        "ternary_pick",
        """int ternary_pick(int a, int b) {
    int best = a > b ? a : b;
    return best;
}
""",
    ),
    (
        "unsigned_wrap",
        """unsigned unsigned_wrap(unsigned a, unsigned b) {
    unsigned total = a + b;
    if (total < a) {
        return 0;
    }
    return total;
}
""",
    ),
    (
        "null_check_deref",
        """int null_check_deref(const int *p) {
    if (p == 0) {
        return -1;
    }
    return *p;
}
""",
    ),
    (
        "loop_until_sentinel",
        """int loop_until_sentinel(const int *data) {
    int i = 0;
    while (data[i] != -1) {
        i++;
    }
    return i;
}
""",
    ),
    (
        "compound_update",
        """int compound_update(int base, int times) {
    int acc = base;
    acc += times;
    acc *= 2;
    acc -= base;
    return acc;
}
""",
    ),
    (
        "multi_return_paths",
        """int multi_return_paths(int code) {
    if (code == 0) {
        return handle_zero();
    }
    if (code < 0) {
        return handle_negative(code);
    }
    return handle_positive(code);
}
""",
    ),
    (
        "shadow_reassign",
        """int shadow_reassign(int a) {
    int x = a;
    x = x + 1;
    x = x * 2;
    return x;
}
""",
    ),
    (
        "void_logger",
        """void void_logger(const char *msg, int level) {
    if (level > 2) {
        log_warn(msg);
    } else {
        log_info(msg);
    }
}
""",
    ),
    (
        "mixed_flow",
        """int mixed_flow(int n, const int *values) {
    int total = 0;
    int i;
    for (i = 0; i < n; i++) {
        if (values[i] < 0) {
            continue;
        }
        total += values[i];
        if (total > 1000) {
            break;
        }
    }
    return total;
}
""",
    ),
]


def out_edges(graph) -> defaultdict:
    """A CFG's or DFG's out-edges by source node id, in edge order."""
    adjacency: defaultdict = defaultdict(list)
    for e in graph.edges:
        adjacency[e.src].append(e)
    return adjacency


def nested_ifs(depth: int) -> SourceFunction:
    """A function whose body is ``depth`` nested ``if`` blocks."""
    code = "int deep(int x) {\n" + "if (x) {\n" * depth + "x++;\n" + "}\n" * depth + "return x;\n}\n"
    return SourceFunction(id=f"deep{depth}", code=code)


def dead_end(ifs: int) -> SourceFunction:
    """``ifs`` if/else statements, then a loop with no way out: 2**ifs walks, no path."""
    arms = "".join(f"    if (a > {i}) g_{i}(a); else k_{i}(a);\n" for i in range(ifs))
    return SourceFunction(id=f"dead-end-{ifs}", code=f"int probe(int a) {{\n{arms}  L: a = h(a); goto L;\n}}\n")


# One unit that holds each piece of C type syntax the frontend lowers: struct,
# union and enum definitions, a typedef, casts, sizeof of a type, an array
# dimension, a compound literal, a function-pointer parameter, variadic and
# void parameter lists, and a function that returns a function pointer.
TYPE_PLUMBING = """int (*pick(int k))(int) {
    struct pair { int lo; int hi; } p = (struct pair){k, k + 1};
    union cell { int i; float f; } c;
    enum mode { OFF, ON = 2 } m = ON;
    typedef unsigned long word;
    char buf[sizeof(struct pair) + 4];
    word w = (word)p.hi * sizeof(word);
    c.i = k;
    if (m == ON && w > 0)
        buf[0] = (char)w;
    return k > 0 ? twice : 0;
}

int apply(int (*cb)(int n, char *tag), int value) {
    return cb(value, (char *)0);
}

int logf(const char *fmt, ...) {
    return fmt[0];
}

int ready(void) {
    return 1;
}
"""


# One unit that reaches each control-flow and reference shape of the frontend
# that the corpus above leaves out: ``continue`` in a ``while``, ``break`` and
# ``continue`` outside any loop, a label on an empty statement, a bare ``;``,
# an unreachable statement, ``for`` loops without an init, without a next and
# with neither, a two-declarator ``for`` init, an ``if`` whose arms both
# return, a ``switch`` with an empty body, one without ``default``, one whose
# every case returns, brace-less stacked cases, writes through ``*p``,
# ``*(p + 1)``, ``p->f`` and a non-lvalue, calls through ``(*fp)(x)`` and
# ``s.cb(x)``, and a function with an empty parameter list.
CONTROL_PLUMBING = """int loops(int n, const int *src) {
    int total = 0;
    while (n > 0) {
        n--;
        if (n == 3)
            continue;
        total += src[n];
    }
    for (; n < 4; n++)
        total++;
    for (int a = 0, b = 1; a < b;)
        a += b;
    for (;;) {
        if (total > 9)
            break;
        total++;
    }
    return total;
}

int jumps() {
    int x = level();
    if (x > 5)
        break;
    if (x > 4)
        continue;
done: ;
    ;
    if (x > 2)
        return 1;
    else
        return 2;
    x++;
}

int writes(int k, int *p, struct node *q, int (*fp)(int), struct ops s) {
    switch (k) { }
    switch (k) {
    case 1:
        k++;
        break;
    case 2:
        k--;
    }
    switch (k)
        case 3: case 4: k = 0;
    *p = k;
    *(p + 1) = k;
    q->f = k;
    f()++;
    k = (*fp)(k);
    s.cb(k);
    switch (k) {
    case 5:
        return 1;
    default:
        return 2;
    }
}
"""


# The goto-cleanup idiom with a label that only a goto reaches: ``fail:``
# follows a ``return``, so only ``goto fail`` enters its ``free(buf)``.
GOTO_ONLY_LABEL = """int cleanup(int n, const char *src) {
  char *buf = malloc(n);
  if (!buf) goto out;
  if (n > 8) goto fail;
  memcpy(buf, src, n);
  return 0;
fail:
  free(buf);
out:
  return -1;
}
"""

# Jumps across, into and out of other constructs.
GOTO_TANGLES: list[str] = [
    GOTO_ONLY_LABEL,
    "int back(int n) {\n again: n--;\n if (n > 0) goto again;\n return n;\n}\n",
    "int cross(int a) {\n if (a) goto B;\n A: a++;\n goto C;\n B: a--;\n goto A;\n C: return a;\n}\n",
    "int leave(int a) {\n while (a) {\n if (a > 3) goto done;\n a--;\n }\n done: return a;\n}\n",
    "int stacked(int a) {\n goto L2;\n L1: L2: a = a + 1;\n if (a < 9) goto L1;\n return a;\n}\n",
    "int hop(int a) {\n switch (a) {\n case 1: goto two;\n case 2: two: a = 5; break;\n"
    " default: goto end;\n }\n a = g(a);\n end: return a;\n}\n",
    "void inside(int x) {\n goto in;\n while (x) {\n in: x--;\n }\n}\n",
]

# Cycles made only of plain statements: nothing leaves them.
STATEMENT_CYCLES: list[str] = [
    "void spin(void) {\n    L: goto L;\n}\n",
    "int stuck(int a) {\n if (a) {\n L: a = a + 1;\n goto L;\n }\n return a;\n}\n",
]


# -- reference data flow --------------------------------------------------------

# The data-flow builder in its plainest form: it lists every use each
# definition site reaches, which is simple, and quadratic in memory on code
# that redefines a variable under many conditions.  ``graphs._build_dfg``
# must give the same nodes and edges, in the same order.
def reference_dfg(
    nodes: list[CfgNode],
    edges: list[CfgEdge],
    refs: dict[int, _Refs],
    params: list[tuple[str, int]],
    dfg: DfgGraph,
) -> None:
    """Reaching-definitions data flow over one function's CFG.

    Each definition site links its reached uses in statement order, so a
    value's journey reads as a chain: definition, first use, next use, and so
    on.  A use inside a defining statement collapses onto that statement's
    definition node, which is how assignments relabel a flow from one
    variable to the next.
    """
    entry = nodes[0]
    by_id = {n.id: n for n in nodes}
    param_lines = dict(params)

    # Definition sites (var, cfg node id), indexed by position: parameters
    # sit on entry, then each node's definitions in statement order.
    sites = [(name, entry.id) for name, _line in params]
    for n in nodes:
        sites.extend((var, n.id) for var in sorted(refs[n.id].defs))
    sites_by_var: dict[str, set[int]] = {}
    gen: dict[int, set[int]] = {nid: set() for nid in by_id}
    for sid, (var, nid) in enumerate(sites):
        sites_by_var.setdefault(var, set()).add(sid)
        gen[nid].add(sid)

    preds: dict[int, list[int]] = {nid: [] for nid in by_id}
    succs: dict[int, list[int]] = {nid: [] for nid in by_id}
    for e in edges:
        preds[e.dst].append(e.src)
        succs[e.src].append(e.dst)

    # A node's definitions kill every other site of the variables it defines.
    # The lowest id goes first: ids follow statement order, so what a back
    # edge brings to a loop joins the sweep under way instead of starting one.
    in_sets: dict[int, set[int]] = {nid: set() for nid in by_id}
    out_sets = {nid: set(g) for nid, g in gen.items()}
    worklist = list(by_id)  # ascending, so already a heap
    queued = set(by_id)
    while worklist:
        nid = heapq.heappop(worklist)
        queued.discard(nid)
        new_in: set[int] = set()
        for p in preds[nid]:
            new_in |= out_sets[p]
        new_out = new_in.difference(*[sites_by_var[var] for var in refs[nid].defs]) | gen[nid]
        if new_in != in_sets[nid] or new_out != out_sets[nid]:
            in_sets[nid] = new_in
            out_sets[nid] = new_out
            for s in succs[nid]:
                if s not in queued:
                    queued.add(s)
                    heapq.heappush(worklist, s)

    # Each site's reached uses, in statement order.
    reached: list[list[int]] = [[] for _ in sites]
    for nid in by_id:
        for var in refs[nid].uses:
            for sid in in_sets[nid].intersection(sites_by_var.get(var, ())):
                reached[sid].append(nid)

    # DFG nodes are named as edges first demand them.
    dfg_ids: dict[tuple[str, str, int], int] = {}

    def dfg_id(var: str, kind: str, line: int, label: str, stmt: int) -> int:
        key = (var, kind, stmt)
        i = dfg_ids.get(key)
        if i is None:
            i = dfg_ids[key] = len(dfg.nodes)
            dfg.nodes.append(DfgNode(i, var, kind, line, label, stmt, entry.fn))
        return i

    targets: dict[tuple[int, str], list[int]] = {}
    edge_set: set[tuple[int, int]] = set()
    for (var, def_nid), uses in zip(sites, reached):
        if not uses:
            continue
        if def_nid == entry.id:
            prev = dfg_id(var, "param", param_lines[var], f"param:{var}", -1)
        else:
            prev = dfg_id(var, "def", by_id[def_nid].line, f"def:{var}", def_nid)
        for nid in uses:
            to = targets.get((nid, var))
            if to is None:
                cfg_node = by_id[nid]
                defs = sorted(refs[nid].defs)
                if defs:
                    to = [dfg_id(w, "def", cfg_node.line, f"def:{w}", nid) for w in defs]
                else:
                    kind = "sink" if cfg_node.kind in ("call", "return") else "use"
                    to = [dfg_id(var, kind, cfg_node.line, cfg_node.label, nid)]
                targets[(nid, var)] = to
            for dst in to:
                if dst != prev and (prev, dst) not in edge_set:
                    edge_set.add((prev, dst))
                    dfg.edges.append(DfgEdge(prev, dst))
            prev = to[0]


def reference_parse(fn: SourceFunction) -> graphs.GraphBundle:
    """``graphs.parse`` with the data-flow graph built by ``reference_dfg``."""
    with mock.patch.object(graphs, "_build_dfg", reference_dfg):
        return graphs.parse(fn)


# -- generated C functions --------------------------------------------------------

GEN_VARS = ("a", "b", "c", "d")
GEN_LABELS = ("L0", "L1", "L2")


@st.composite
def c_functions(draw, max_depth: int = 3) -> SourceFunction:
    """A C function over 3-4 shared ints and a struct, drawn by hypothesis.

    Bodies nest if/else, while, do-while, for, and switch with fallthrough
    and default, up to ``max_depth`` deep, around assignments, compound
    assignments, increments, calls that take ``&x``, and member writes.
    ``break`` and ``continue`` appear inside loops and switches, and gotos
    jump to labels placed anywhere, before or after them, inside loops or
    not; a label no statement took is placed at the end.
    """
    names = GEN_VARS[: draw(st.integers(3, 4))]
    unplaced = list(GEN_LABELS)

    def var() -> str:
        return draw(st.sampled_from(names))

    def expr() -> str:
        form = draw(st.integers(0, 7))
        if form == 0:
            return str(draw(st.integers(0, 9)))
        if form == 1:
            return f"{var()} + {var()}"
        if form == 2:
            return f"{var()} * {draw(st.integers(2, 5))}"
        if form == 3:
            return "s.n"
        if form == 4:
            return f"g({var()}, &{var()})"
        if form == 5:
            return f"q[{var()}]"
        if form == 6:
            return f"{var()}++"
        return var()

    def cond() -> str:
        return f"{var()} {draw(st.sampled_from(('<', '>', '!=')))} {expr()}"

    def simple(loop: bool, switch: bool) -> str:
        form = draw(st.integers(0, 12))
        if form <= 2:
            return f"{var()} = {expr()};"
        if form == 3:
            return f"{var()} {draw(st.sampled_from(('+=', '-=', '*=', '|=')))} {expr()};"
        if form == 4:
            return draw(st.sampled_from((f"{var()}++;", f"--{var()};")))
        if form == 5:
            return f"s.n = {expr()};"
        if form == 6:
            return f"h(&{var()}, {var()});"
        if form == 7:
            return f"{var()} = f({expr()});"
        if form == 8:
            return f"goto {draw(st.sampled_from(GEN_LABELS))};"
        if form == 9 and (loop or switch):
            return "break;"
        if form == 10 and loop:
            return "continue;"
        if form == 11:
            return f"return {expr()};"
        return f"{var()} = {var()};"

    def block(depth: int, loop: bool, switch: bool) -> str:
        count = draw(st.integers(1, 3))
        return " ".join(statement(depth, loop, switch) for _ in range(count))

    def statement(depth: int, loop: bool, switch: bool) -> str:
        form = draw(st.integers(0, 9)) if depth > 0 else 0
        if form == 1:
            text = f"if ({cond()}) {{ {block(depth - 1, loop, switch)} }}"
            if draw(st.booleans()):
                text += f" else {{ {block(depth - 1, loop, switch)} }}"
        elif form == 2:
            text = f"while ({cond()}) {{ {block(depth - 1, True, switch)} }}"
        elif form == 3:
            text = f"do {{ {block(depth - 1, True, switch)} }} while ({cond()});"
        elif form == 4:
            v = var()
            text = f"for ({v} = 0; {v} < {expr()}; {v}++) {{ {block(depth - 1, True, switch)} }}"
        elif form == 5:
            arms = []
            for k in range(draw(st.integers(1, 3))):
                arm = f"case {k}: {block(depth - 1, loop, True)}"
                arms.append(arm + (" break;" if draw(st.booleans()) else ""))
            if draw(st.booleans()):
                arms.append(f"default: {block(depth - 1, loop, True)}")
            text = f"switch ({var()}) {{ {' '.join(arms)} }}"
        else:
            text = simple(loop, switch)
        if unplaced and draw(st.integers(0, 5)) == 0:
            text = f"{unplaced.pop(draw(st.integers(0, len(unplaced) - 1)))}: {text}"
        return text

    body = block(max_depth, False, False)
    tail = " ".join(f"{label}: ;" for label in unplaced)
    code = (
        "int gen(int a, int b, const int *q) {\n"
        "    int c = 0;\n    int d = 1;\n    struct box s;\n"
        f"    {body}\n    {tail}\n    return a;\n}}\n"
    )
    return SourceFunction(id="gen", code=code)


def corpus_functions() -> list[SourceFunction]:
    return [SourceFunction(id=name, code=code) for name, code in FIXTURE_CORPUS]


TOY_ENTRIES = [
    KnowledgeEntry(
        "CWE-787",
        "Out-of-bounds Write",
        "The product writes data past the end, or before the beginning, of the intended buffer.",
        "memcpy(dest, src, returned_length);",
    ),
    KnowledgeEntry(
        "CWE-476",
        "NULL Pointer Dereference",
        "The product dereferences a pointer that it expects to be valid but is NULL.",
        "if (item) {} value = item->data;",
    ),
    KnowledgeEntry(
        "CWE-190",
        "Integer Overflow or Wraparound",
        "The product performs a calculation that can produce an integer overflow or wraparound.",
        "total = count * size;",
    ),
    KnowledgeEntry(
        "CWE-416",
        "Use After Free",
        "Referencing memory after it has been freed can cause the product to crash or execute code.",
        "free(buf); buf[0] = 1;",
    ),
    KnowledgeEntry(
        "CWE-134",
        "Uncontrolled Format String",
        "The product uses a function that accepts a format string from an external source.",
        "printf(user_supplied);",
    ),
]


def scripted_rules(verdict: str = "Verdict: Yes") -> list[tuple[str, object]]:
    return [
        (
            "identify at most two possible vulnerability types",
            "Query 1: out of bounds write via unchecked length\nQuery 2: N/A",
        ),
        (
            "summarize its observable functional behavior",
            "Copies len bytes from src to dst after a boundary check.",
        ),
        ("Return the final prediction", verdict),
    ]
