"""Granularity filtering, salient-view extraction, and template verbalization.

Turns a GraphBundle into a compact natural-language structural context made
of three fragments, always concatenated in AST, CFG, DFG order.  The AST
filter is parameterized by a granularity level; the CFG and DFG filters are
the same at every level:

* level A keeps only skeleton kinds (function definitions, branches, loops,
  calls, returns);
* level B additionally keeps assignments, declarations, and operators;
* level C keeps the whole lowered tree.

A shared size budget scales with the level: it bounds both the number of
CFG paths kept per function and the length of traced DFG chains; the kept
paths are the best of the first ``_MAX_ENUMERATED_PATHS`` found.
Degenerate views (an entry-to-exit path with no interior node, a parameter
that feeds a sink directly with no intermediate hop) are not verbalized;
the per-function summary sentence already accounts for them.

The CFG filter folds each statement chain along its single successor; the
DFG filter keeps what a walk from the parameters reaches.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum

from .errors import MissingPlaceholderError
from .graphs import (
    AstNode,
    CategoryCounts,
    CfgEdge,
    CfgGraph,
    CfgNode,
    DfgGraph,
    DfgNode,
    GraphBundle,
    SourceFunction,
    parse,
)

__all__ = [
    "Level",
    "LEVEL_BUDGETS",
    "RETAINED_AST_KINDS",
    "RETAINED_CFG_KINDS",
    "AstFunctionView",
    "CfgPath",
    "CfgFunctionView",
    "DfgChain",
    "DfgFunctionView",
    "SalientViews",
    "StructuralContext",
    "filter_ast",
    "filter_cfg",
    "filter_dfg",
    "aggregate_ast",
    "enumerate_paths",
    "trace_chains",
    "build_salient_views",
    "verbalize",
    "generate_structural_context",
    "TEMPLATE_PATTERNS",
]


class Level(str, Enum):
    A = "A"
    B = "B"
    C = "C"


# Path-count and chain-length budget per level.  Chosen to scale with the
# level while keeping the rendered context within a few hundred tokens.
LEVEL_BUDGETS: dict[Level, int] = {Level.A: 4, Level.B: 8, Level.C: 16}

_SKELETON_KINDS = {"function-def", "branch", "loop", "call", "return"}
RETAINED_AST_KINDS: dict[Level, set[str] | None] = {
    Level.A: set(_SKELETON_KINDS),
    Level.B: _SKELETON_KINDS | {"assignment", "declaration", "operator"},
    Level.C: None,  # every kind
}

RETAINED_CFG_KINDS = {"entry", "exit", "branch", "loop", "call", "return"}

# Which paths are ranked: only the first this many entry-to-exit paths in
# depth-first order compete for a function's budget.
_MAX_ENUMERATED_PATHS = 4096


# ---------------------------------------------------------------------------
# Filtering
# ---------------------------------------------------------------------------


def filter_ast(ast: AstNode, level: Level) -> AstNode:
    """Prune the AST to the node kinds retained at ``level``.

    Children of pruned nodes are spliced up to the nearest retained ancestor,
    so the result is still a tree with the same root, a function definition
    or unit.  Level C retains every kind and returns ``ast`` itself.
    """
    retained = RETAINED_AST_KINDS[level]
    if retained is None:
        return ast
    root = AstNode(ast.kind, ast.name, ast.line, role=ast.role, uid=ast.uid)
    # Preorder.  Each entry pairs the children still to visit with the child
    # list of their nearest kept ancestor's clone.
    stack = [(iter(ast.children), root.children)]
    while stack:
        children, out = stack[-1]
        for node in children:
            kept = out
            if node.kind in retained:
                clone = AstNode(node.kind, node.name, node.line, role=node.role, uid=node.uid)
                out.append(clone)
                kept = clone.children
            if node.children:
                stack.append((iter(node.children), kept))
                break
        else:
            stack.pop()
    return root


def filter_cfg(cfg: CfgGraph) -> CfgGraph:
    """Fold each chain of plain statement nodes into a single edge.

    Entry/exit, branch, loop, call, and return nodes survive.  Each out-edge
    of a kept node is followed through the one successor of every plain
    statement until it reaches a kept node; the folded edge keeps the label
    of the edge that entered the chain and is a back edge if any hop was
    one.  An edge into a cycle made only of statements is dropped.
    """
    kept = {n.id for n in cfg.nodes if n.kind in RETAINED_CFG_KINDS}
    # The one out-edge of each plain statement (see ``graphs``).
    step = {e.src: e for e in cfg.edges if e.src not in kept}
    folded: set[tuple[int, int, str, bool]] = set()
    for e in cfg.edges:
        if e.src not in kept:
            continue
        dst, back, chain = e.dst, e.back, set()
        while dst not in kept and dst not in chain:
            chain.add(dst)
            hop = step[dst]
            dst, back = hop.dst, back or hop.back
        if dst in kept:
            folded.add((e.src, dst, e.label, back))

    out = CfgGraph()
    out.nodes = [n for n in cfg.nodes if n.id in kept]
    out.edges = [CfgEdge(*edge) for edge in sorted(folded)]
    return out


def filter_dfg(dfg: DfgGraph) -> DfgGraph:
    """Keep what a walk from the parameters reaches over cross-statement edges.

    The kept nodes are the ones the walk reaches, parameters included; the
    kept edges are the cross-statement edges that leave them.  Edges inside
    a single statement are dropped, as are flows that originate at a local
    definition with no parameter upstream.
    """
    by_id = {n.id: n for n in dfg.nodes}
    # Every edge joins two nodes of one function.
    cross = [e for e in dfg.edges if by_id[e.src].stmt != by_id[e.dst].stmt]
    adj: dict[int, list[int]] = {}
    for e in cross:
        adj.setdefault(e.src, []).append(e.dst)

    reached: set[int] = set()
    stack = [n.id for n in dfg.nodes if n.kind == "param"]
    while stack:
        current = stack.pop()
        if current in reached:
            continue
        reached.add(current)
        stack.extend(adj.get(current, ()))

    out = DfgGraph()
    out.nodes = [n for n in dfg.nodes if n.id in reached]
    out.edges = [e for e in cross if e.src in reached]
    return out


# ---------------------------------------------------------------------------
# Salient views
# ---------------------------------------------------------------------------


@dataclass
class AstFunctionView:
    name: str
    line: int
    counts: CategoryCounts
    call_chain: list[str]
    conditions: list[str]
    returns: list[str]
    collapsed: int = 1


@dataclass
class CfgPath:
    nodes: list[CfgNode]
    taken: list[str | None]  # edge label leaving nodes[i]; None for the last
    score: int  # branch and call nodes on the path, repeats included


@dataclass
class CfgFunctionView:
    name: str
    retained: int
    total: int
    branches: int
    calls: int
    paths: list[CfgPath]
    truncated: bool
    branch_nodes: list[CfgNode] = field(default_factory=list)


@dataclass
class DfgChain:
    nodes: list[DfgNode]
    truncated: bool = False


@dataclass
class DfgFunctionView:
    name: str
    edges_retained: int
    edges_total: int
    params: list[DfgNode]
    chains: list[DfgChain]


@dataclass
class SalientViews:
    ast_views: list[AstFunctionView]
    cfg_views: list[CfgFunctionView]
    dfg_views: list[DfgFunctionView]


@dataclass
class StructuralContext:
    t_ast: str
    t_cfg: str
    t_dfg: str

    @property
    def s(self) -> str:
        return "\n".join(part for part in (self.t_ast, self.t_cfg, self.t_dfg) if part)


def aggregate_ast(ast: AstNode) -> list[AstFunctionView]:
    """Summarize each function in a filtered AST.

    Structurally isomorphic functions (same preorder kind sequence, names
    ignored) collapse to one representative view carrying the group size.
    One walk per function gives its kind sequence, its named calls,
    conditions and returns, and its category counts.
    """
    roots = [ast] if ast.kind == "function-def" else [
        child for child in ast.children if child.kind == "function-def"
    ]
    views: list[AstFunctionView] = []
    shapes: dict[tuple, int] = {}
    for root in roots:
        if root.name is None:
            raise MissingPlaceholderError("function definition without a name")
        kinds: list[str] = []
        params = 0
        call_chain: list[str] = []
        conditions: list[str] = []
        returns: list[str] = []
        for node in root.walk():
            kinds.append(node.kind)
            if node.kind == "call" and node.name:
                call_chain.append(node.name)
            elif node.kind in ("branch", "loop") and node.name:
                conditions.append(node.name)
            elif node.kind == "return" and node.name:
                returns.append(node.name)
            elif node.role == "param":
                params += 1
        shape = tuple(kinds)
        if shape in shapes:
            views[shapes[shape]].collapsed += 1
            continue
        shapes[shape] = len(views)
        views.append(
            AstFunctionView(
                name=root.name,
                line=root.line,
                counts=CategoryCounts.tally(kinds, params),
                call_chain=call_chain,
                conditions=conditions,
                returns=returns,
            )
        )
    return views


def _edge_order(edge: CfgEdge) -> tuple[int, int]:
    rank = {"True": 0, "False": 1}.get(edge.label, 2)
    return (rank, edge.dst)


def enumerate_paths(cfg: CfgGraph, budget: int) -> list[CfgPath]:
    """Enumerate entry-to-exit paths, at most ``budget`` per function.

    Depth-first discovery takes True edges before False edges before
    sequential ones; each back edge is traversed at most once per path, so a
    loop contributes its zero- and one-iteration shapes.  When more paths
    exist than the budget allows, the paths that carry the most branch and
    call nodes are kept, the earlier one on ties; only the first
    ``_MAX_ENUMERATED_PATHS`` paths in discovery order are ranked.  The
    returned list preserves discovery order.

    Nodes that cannot reach an exit are never entered.  Once ``budget``
    paths are kept, a part of the graph whose best path cannot beat the
    weakest kept one is skipped, but its paths still count toward the
    ``_MAX_ENUMERATED_PATHS`` cap.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    by_id = {n.id: n for n in cfg.nodes}
    out: dict[int, list[CfgEdge]] = defaultdict(list)
    for e in sorted(cfg.edges, key=_edge_order):  # stable: ties keep edge order
        out[e.src].append(e)
    exit_ids: dict[str, set[int]] = defaultdict(set)
    for n in cfg.exits():
        exit_ids[n.fn].add(n.id)
    results: list[CfgPath] = []
    for entry in cfg.entries():
        results.extend(_paths_for_function(entry, exit_ids[entry.fn], by_id, out, budget))
    return results


def _paths_for_function(
    entry: CfgNode,
    exit_ids: set[int],
    by_id: dict[int, CfgNode],
    out: dict[int, list[CfgEdge]],
    budget: int,
) -> list[CfgPath]:
    steps = _walk_steps(entry.id, exit_ids, by_id, out)
    # One path, extended before each descent and cut back after it.  A node
    # reached again through a back edge is already on the path, so only the
    # step that put a node on the path takes it off.
    kept: list[CfgPath] = []
    found = 0
    floor = -1  # the weakest kept score once ``budget`` are kept; below every score before
    node_seq = [entry.id]
    label_seq: list[str | None] = []
    on_path = {entry.id}
    used_back: set[tuple[int, int]] = set()
    # What ``dfs`` returned for a component entry reached from outside its
    # component: the walk below it is the same on every such arrival.  Only
    # a walk cut by the cap returns less, and after the cap nothing is kept.
    below_entry: dict[int, tuple[int, int]] = {}

    def dfs(node_id: int, score: int) -> tuple[int, int]:
        """The most score an exit path from ``node_id`` adds, and the number of such paths."""
        nonlocal found, floor
        if found >= _MAX_ENUMERATED_PATHS:
            return -1, 0
        if node_id in exit_ids:
            found += 1
            if score > floor:
                kept.append(CfgPath([by_id[i] for i in node_seq], label_seq + [None], score))
                if len(kept) > budget:
                    _drop_weakest(kept)
                if len(kept) == budget:
                    floor = min(p.score for p in kept)
            return 0, 1
        best, count = -1, 0
        for idx, (dst, label, back, gain, cross) in enumerate(steps[node_id]):
            below = below_entry.get(dst) if cross else None
            if below is not None and score + gain + below[0] <= floor:
                found += below[1]  # no path below can be kept; only count them
            else:
                new = dst not in on_path
                if back:
                    if (node_id, idx) in used_back:
                        continue
                    used_back.add((node_id, idx))
                elif not new:
                    continue
                node_seq.append(dst)
                label_seq.append(label)
                on_path.add(dst)
                below = dfs(dst, score + gain)
                node_seq.pop()
                label_seq.pop()
                if new:
                    on_path.discard(dst)
                if back:
                    used_back.discard((node_id, idx))
                if cross:
                    below_entry[dst] = below
            if below[1]:
                count += below[1]
                if gain + below[0] > best:
                    best = gain + below[0]
        return best, count

    if steps:
        dfs(entry.id, 0)
    return kept


def _walk_steps(
    entry_id: int,
    exit_ids: set[int],
    by_id: dict[int, CfgNode],
    out: dict[int, list[CfgEdge]],
) -> dict[int, list[tuple[int, str | None, bool, int, bool]]]:
    """The path walk's moves: per node, ``(dst, label, back, gain, cross)`` in edge order.

    Only nodes that reach an exit get moves, and only moves to such nodes;
    the result is empty if the entry reaches none.  ``gain`` is 1 for a
    branch or call ``dst``.  ``cross`` marks an edge between two strongly
    connected components: nothing the path above has used can be reached
    from ``dst``, since any such node would share its component.

    One iterative pass of Tarjan's algorithm over the nodes the walk can
    reach (it stops at an exit) closes sink components first, so every edge
    out of a closing component goes to a node already decided.
    """
    steps: dict[int, list[tuple[int, str | None, bool, int, bool]]] = {}
    index = {entry_id: 0}
    low = {entry_id: 0}  # a closed component's members get one tag above every index
    tag = len(by_id)
    open_nodes = [entry_id]
    work = [(entry_id, iter(() if entry_id in exit_ids else out.get(entry_id, ())))]
    while work:
        node_id, pending = work[-1]
        for e in pending:
            if e.dst not in index:
                index[e.dst] = low[e.dst] = len(index)
                open_nodes.append(e.dst)
                work.append((e.dst, iter(() if e.dst in exit_ids else out.get(e.dst, ()))))
                break
            if low[e.dst] < low[node_id]:
                low[node_id] = low[e.dst]
        else:
            work.pop()
            if work and low[node_id] < low[work[-1][0]]:
                low[work[-1][0]] = low[node_id]
            if low[node_id] != index[node_id]:
                continue
            members = [open_nodes.pop()]
            while members[-1] != node_id:
                members.append(open_nodes.pop())
            tag += 1
            for n in members:
                low[n] = tag
            rows: dict[int, list[tuple[int, str | None, bool, int, bool]]] = {}
            live = node_id in exit_ids
            for n in members:
                row = rows[n] = []
                for e in () if n in exit_ids else out.get(n, ()):
                    cross = low[e.dst] != tag
                    if cross and e.dst not in steps:
                        continue  # no exit past it
                    live = live or cross
                    row.append((e.dst, e.label, e.back, int(by_id[e.dst].kind in ("branch", "call")), cross))
            if live:
                steps.update(rows)
    return steps


def _drop_weakest(paths: list[CfgPath]) -> None:
    """Remove the lowest-scoring path; of equal scores, the latest one."""
    del paths[min(range(len(paths)), key=lambda i: (paths[i].score, -i))]


def _ordered_params(dfg: DfgGraph) -> list[DfgNode]:
    """Parameters by the statement of their first use (unused ones last), then name."""
    stmt_of = {n.id: n.stmt for n in dfg.nodes}
    unused = 1 << 30
    first_use: dict[int, int] = {}
    for e in dfg.edges:
        first_use[e.src] = min(first_use.get(e.src, unused), stmt_of[e.dst])
    return sorted(dfg.params(), key=lambda p: (first_use.get(p.id, unused), p.var))


def trace_chains(dfg: DfgGraph, budget: int) -> list[DfgChain]:
    """Trace def-use chains from each parameter source to a call/return sink.

    A chain longer than the budget is cut and marked truncated.  Chains with
    no intermediate hop between the parameter and the sink are omitted; the
    parameter listing already carries that information.
    """
    by_id = {n.id: n for n in dfg.nodes}
    out: dict[int, list[int]] = {}
    for e in dfg.edges:
        out.setdefault(e.src, []).append(e.dst)
    for dsts in out.values():
        dsts.sort()

    chains: list[DfgChain] = []

    def walk(node_id: int, path: list[int]):
        node = by_id[node_id]
        if node.kind == "sink":
            if len(path) >= 3:
                chains.append(DfgChain(nodes=[by_id[i] for i in path]))
            return
        if len(path) >= budget:
            chains.append(DfgChain(nodes=[by_id[i] for i in path], truncated=True))
            return
        for dst in out.get(node_id, ()):
            if dst not in path:
                walk(dst, path + [dst])

    for param in _ordered_params(dfg):
        walk(param.id, [param.id])
    return chains


def _by_fn(items, fn_of=lambda item: item.fn) -> defaultdict:
    groups: defaultdict = defaultdict(list)
    for item in items:
        groups[fn_of(item)].append(item)
    return groups


def _edges_by_fn(dfg: DfgGraph) -> Counter:
    fn_of = {n.id: n.fn for n in dfg.nodes}
    return Counter(fn_of[e.src] or fn_of[e.dst] for e in dfg.edges)


def build_salient_views(
    bundle: GraphBundle,
    ast_filtered: AstNode,
    cfg_filtered: CfgGraph,
    dfg_filtered: DfgGraph,
    budget: int,
) -> SalientViews:
    """Assemble per-function views from the filtered graphs.

    Paths are enumerated and chains traced once for the whole unit, then
    grouped by function.  Paths are enumerated with ``budget + 1``: a
    function is truncated iff it has more than ``budget`` paths, and
    dropping the weakest of its best ``budget + 1`` leaves its best
    ``budget`` overall, since both selections rank by score and then
    discovery order.
    """
    ast_views = aggregate_ast(ast_filtered)
    fn_names = [v.name for v in ast_views] + [n.fn for n in bundle.cfg.entries()]
    fn_names = list(dict.fromkeys(fn_names))  # first occurrence of each name

    paths = _by_fn(enumerate_paths(cfg_filtered, budget + 1), lambda p: p.nodes[0].fn)
    chains = _by_fn(trace_chains(dfg_filtered, budget), lambda c: c.nodes[0].fn)
    params = _by_fn(_ordered_params(dfg_filtered))
    post_nodes = _by_fn(cfg_filtered.nodes)
    pre_counts = Counter(n.fn for n in bundle.cfg.nodes)
    edges_total = _edges_by_fn(bundle.dfg)
    edges_retained = _edges_by_fn(dfg_filtered)

    cfg_views: list[CfgFunctionView] = []
    dfg_views: list[DfgFunctionView] = []
    for fn in fn_names:
        nodes = post_nodes[fn]
        truncated = len(paths[fn]) > budget
        if truncated:
            _drop_weakest(paths[fn])
        cfg_views.append(
            CfgFunctionView(
                name=fn,
                retained=len(nodes),
                total=pre_counts[fn],
                branches=sum(1 for n in nodes if n.kind == "branch"),
                calls=sum(1 for n in nodes if n.kind == "call"),
                paths=paths[fn],
                truncated=truncated,
                branch_nodes=[n for n in nodes if n.kind in ("branch", "loop")],
            )
        )
        dfg_views.append(
            DfgFunctionView(
                name=fn,
                edges_retained=edges_retained[fn],
                edges_total=edges_total[fn],
                params=params[fn],
                chains=chains[fn],
            )
        )
    return SalientViews(ast_views=ast_views, cfg_views=cfg_views, dfg_views=dfg_views)


# ---------------------------------------------------------------------------
# Verbalization
# ---------------------------------------------------------------------------

# Regular skeletons of the rendered sentences; every sentence of a fragment
# matches exactly one of these.
TEMPLATE_PATTERNS: dict[str, str] = {
    "ast_summary": r"Function \S+@L\d+: \d+ declarations, \d+ assignments, \d+ branches, \d+ calls\.",
    "ast_call_chain": r"Key call chain: .+\.",
    "ast_conditions": r"Conditions/Loops: .+(; .+)*\.",
    "ast_returns": r"Returns: .+(; .+)*\.",
    "ast_isomorphic": r"Isomorphic functions collapsed: \S+ represents \d+ functions\.",
    "cfg_summary": r"Function \S+: retained control points \d+/\d+; branches \d+; calls \d+\.",
    "cfg_branches": r"Branch/Loop nodes: .+@L\d+(; .+@L\d+)*\.",
    "cfg_path": r"Path \d+: Entry( → .+)? → Exit\.",
    "dfg_summary": r"Function \S+: edges retained \d+/\d+; parameter sources \d+; chains \d+\.",
    "dfg_params": r"Parameter sources: param:\S+@L\d+(; param:\S+@L\d+)*\.",
    "dfg_chain": r"Data chain: param:\S+( → .+)+( \[truncated\])?\.",
}


def _render_ast_view(view: AstFunctionView) -> list[str]:
    c = view.counts
    sentences = [
        f"Function {view.name}@L{view.line}: {c.declarations} declarations, "
        f"{c.assignments} assignments, {c.branches} branches, {c.calls} calls."
    ]
    if view.call_chain:
        sentences.append(f"Key call chain: {', '.join(view.call_chain)}.")
    if view.conditions:
        sentences.append(f"Conditions/Loops: {'; '.join(view.conditions)}.")
    if view.returns:
        sentences.append(f"Returns: {'; '.join(view.returns)}.")
    if view.collapsed > 1:
        sentences.append(
            f"Isomorphic functions collapsed: {view.name} represents {view.collapsed} functions."
        )
    return sentences


_ARROW = " → "


def _render_path(index: int, path: CfgPath) -> str:
    parts: list[str] = []
    for node, taken in zip(path.nodes, path.taken):
        if node.kind == "entry":
            parts.append("Entry")
        elif node.kind == "exit":
            parts.append("Exit")
        elif node.kind in ("branch", "loop") and taken in ("True", "False"):
            parts.append(f"[{taken}] {node.label}")
        else:
            parts.append(node.label)
    rendered = _ARROW.join(parts)
    return f"Path {index}: {rendered}."


def _render_cfg_view(view: CfgFunctionView) -> list[str]:
    sentences = [
        f"Function {view.name}: retained control points {view.retained}/{view.total}; "
        f"branches {view.branches}; calls {view.calls}."
    ]
    if view.truncated and view.branch_nodes:
        listing = "; ".join(f"{n.label}@L{n.line}" for n in view.branch_nodes)
        sentences.append(f"Branch/Loop nodes: {listing}.")
    index = 0
    for path in view.paths:
        if len(path.nodes) <= 2:
            continue  # an interior-free path adds nothing over the summary
        index += 1
        sentences.append(_render_path(index, path))
    return sentences


def _render_dfg_view(view: DfgFunctionView) -> list[str]:
    sentences = [
        f"Function {view.name}: edges retained {view.edges_retained}/{view.edges_total}; "
        f"parameter sources {len(view.params)}; chains {len(view.chains)}."
    ]
    if view.params:
        listing = "; ".join(f"{p.label}@L{p.line}" for p in view.params)
        sentences.append(f"Parameter sources: {listing}.")
    for chain in view.chains:
        body = _ARROW.join(n.label for n in chain.nodes)
        suffix = " [truncated]" if chain.truncated else ""
        sentences.append(f"Data chain: {body}{suffix}.")
    return sentences


def verbalize(views: SalientViews) -> tuple[str, str, str]:
    """Render the three natural-language fragments from the salient views."""
    t_ast = " ".join(
        sentence for view in views.ast_views for sentence in _render_ast_view(view)
    )
    t_cfg = " ".join(
        sentence for view in views.cfg_views for sentence in _render_cfg_view(view)
    )
    t_dfg = " ".join(
        sentence for view in views.dfg_views for sentence in _render_dfg_view(view)
    )
    return t_ast, t_cfg, t_dfg


def generate_structural_context(
    fn: SourceFunction, level: Level = Level.C
) -> StructuralContext:
    """Full pipeline: parse, filter, extract salient views, verbalize.

    Propagates SourceSyntaxError; callers that must keep going on malformed
    input catch it and substitute a degraded context.
    """
    bundle = parse(fn)
    budget = LEVEL_BUDGETS[level]
    ast_f = filter_ast(bundle.ast, level)
    cfg_f = filter_cfg(bundle.cfg)
    dfg_f = filter_dfg(bundle.dfg)
    views = build_salient_views(bundle, ast_f, cfg_f, dfg_f, budget)
    t_ast, t_cfg, t_dfg = verbalize(views)
    return StructuralContext(t_ast=t_ast, t_cfg=t_cfg, t_dfg=t_dfg)


def matches_template(sentence: str) -> str | None:
    """Name of the template a sentence instantiates, or None."""
    for name, pattern in TEMPLATE_PATTERNS.items():
        if re.fullmatch(pattern, sentence):
            return name
    return None
