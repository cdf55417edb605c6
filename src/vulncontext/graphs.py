"""C source frontend: one parse produces the AST, CFG, and DFG of a function.

C is the only language; any other raises ``UnsupportedLanguageError``.  Input
that nests deeper than pycparser's recursion allows raises
``SourceTooDeepError``, any other rejected input ``SourceSyntaxError``.

The abstract syntax tree is a lowering of pycparser's concrete tree onto a
small set of semantic node kinds; grammar plumbing such as ``TypeDecl`` and
``PtrDecl`` survives as ``type-expansion`` nodes so later filtering stages can
strip it.  The finished tree is numbered once, in preorder.  The control-flow
graph allocates one node per statement or condition, with explicit join nodes
after branch constructs and an implicit end-of-body node for functions whose
control can fall off the closing brace.  One walk over each statement finds
the names it reads and writes and its first call; a statement that holds a
call becomes a call node.  The data-flow graph links each definition to its
subsequent uses (reaching definitions, intraprocedural, by variable name).

Counting rules are fixed module constants, calibrated so that a bounded-copy
function with three parameters, one guarded length check, and one memcpy call
reports exactly 2 declarations / 1 assignment / 1 branch / 1 call, a 9-node
CFG, and a 4-edge DFG:

* a declaration with an initializer counts as one declaration and one
  assignment, and lowers to separate declaration and initialization CFG nodes;
* the parameter list counts as a single declaration aggregate;
* non-const pointer parameters are treated as output destinations, not data
  sources, so they contribute no DFG source node;
* pointer aliasing and the preprocessor are not modeled; unexpanded macro
  identifiers behave as opaque constants.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field

from pycparser import CParser, c_ast, c_generator

from .errors import SourceSyntaxError, SourceTooDeepError, UnsupportedLanguageError

__all__ = [
    "SourceFunction",
    "AstNode",
    "CfgNode",
    "CfgEdge",
    "CfgGraph",
    "DfgNode",
    "DfgEdge",
    "DfgGraph",
    "GraphBundle",
    "CategoryCounts",
    "parse",
    "count_ast_categories",
]

VALID_LABELS = ("vulnerable", "benign")


@dataclass(frozen=True)
class SourceFunction:
    """One source-level function to analyze."""

    id: str
    code: str
    language: str = "c"
    label: str | None = None

    def __post_init__(self):
        if not isinstance(self.code, str) or not isinstance(self.language, str):
            raise ValueError("SourceFunction.code and language must be strings")
        if not self.code.strip():
            raise ValueError("SourceFunction.code must be non-empty")
        if self.label is not None and self.label not in VALID_LABELS:
            raise ValueError(f"label must be one of {VALID_LABELS}, got {self.label!r}")


@dataclass
class AstNode:
    """Lowered syntax-tree node.

    ``kind`` is one of: function-def, declaration, assignment, branch, loop,
    call, return, operator, identifier, constant, type-expansion, and a few
    statement-level kinds (break, continue, goto, label, statement, unit).
    ``role`` distinguishes parameter declarations from body declarations;
    ``uid`` is the node's preorder index in the parsed tree.
    """

    kind: str
    name: str | None
    line: int
    children: list["AstNode"] = field(default_factory=list)
    role: str | None = None
    uid: int = -1

    def walk(self):
        """Yield this node and its descendants in preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


@dataclass(frozen=True)
class CfgNode:
    id: int
    kind: str  # entry | exit | branch | loop | call | return | statement
    label: str
    line: int
    fn: str


@dataclass(frozen=True)
class CfgEdge:
    src: int
    dst: int
    label: str = "seq"  # True | False | seq
    back: bool = False


@dataclass
class CfgGraph:
    nodes: list[CfgNode] = field(default_factory=list)
    edges: list[CfgEdge] = field(default_factory=list)

    def out_edges(self, node_id: int) -> list[CfgEdge]:
        return [e for e in self.edges if e.src == node_id]

    def entries(self) -> list[CfgNode]:
        return [n for n in self.nodes if n.kind == "entry"]

    def exits(self) -> list[CfgNode]:
        return [n for n in self.nodes if n.kind == "exit"]


@dataclass(frozen=True)
class DfgNode:
    id: int
    var: str
    kind: str  # param | def | use | sink
    line: int
    label: str
    stmt: int  # id of the hosting CFG node; -1 for parameters
    fn: str = ""


@dataclass(frozen=True)
class DfgEdge:
    src: int
    dst: int


@dataclass
class DfgGraph:
    nodes: list[DfgNode] = field(default_factory=list)
    edges: list[DfgEdge] = field(default_factory=list)

    def out_edges(self, node_id: int) -> list[DfgEdge]:
        return [e for e in self.edges if e.src == node_id]

    def params(self) -> list[DfgNode]:
        return [n for n in self.nodes if n.kind == "param"]


@dataclass
class GraphBundle:
    """The three structural graphs derived from one source text."""

    ast: AstNode
    cfg: CfgGraph
    dfg: DfgGraph
    source: SourceFunction


@dataclass(frozen=True)
class CategoryCounts:
    declarations: int
    assignments: int
    branches: int
    calls: int


# ---------------------------------------------------------------------------
# Parsing front door
# ---------------------------------------------------------------------------

# Typedef names common headers declare, so single functions parse without
# their headers: each maps to True, the parser's scope entry for a type name.
_HEADER_TYPEDEFS = dict.fromkeys(
    (
        "size_t", "ssize_t", "ptrdiff_t", "wchar_t", "intptr_t", "uintptr_t",
        "int8_t", "int16_t", "int32_t", "int64_t",
        "uint8_t", "uint16_t", "uint32_t", "uint64_t",
        "u8", "u16", "u32", "u64",
        "off_t", "time_t", "pid_t", "mode_t",
        "FILE", "uintmax_t", "intmax_t", "bool",
    ),
    True,
)


class _HeaderTypedefParser(CParser):
    """A ``CParser`` whose file scope starts with ``_HEADER_TYPEDEFS`` declared.

    ``CParser.parse`` resets the scope stack and then parses the translation
    unit; seeding the file scope there gives the scope a typedef prologue
    would leave, without lexing and parsing one on every call.  A file-scope
    redeclaration of one of the names is still an error.
    """

    def _parse_translation_unit_or_empty(self):
        self._scope_stack[0].update(_HEADER_TYPEDEFS)
        return super()._parse_translation_unit_or_empty()


def parse(fn: SourceFunction) -> GraphBundle:
    """Parse one source function into its AST, CFG, and DFG.

    Raises SourceSyntaxError when the grammar rejects the input (its
    SourceTooDeepError subclass when the input nests too deeply to parse) and
    UnsupportedLanguageError when ``fn.language`` is not C.
    """
    if fn.language.lower() != "c":
        raise UnsupportedLanguageError(f"only C is supported, not {fn.language!r}")
    return _parse_c(fn)


def count_ast_categories(ast: AstNode) -> CategoryCounts:
    """Count declarations, assignments, branches, and calls under a function root.

    The parameter list counts as one declaration aggregate; a declaration
    with an initializer contributes to both the declaration and assignment
    counts (the initializer lowers to an assignment child node).
    """
    decls = assigns = branches = calls = 0
    has_params = False
    for node in ast.walk():
        if node.kind == "declaration":
            if node.role == "param":
                has_params = True
            else:
                decls += 1
        elif node.kind == "assignment":
            assigns += 1
        elif node.kind == "branch":
            branches += 1
        elif node.kind == "call":
            calls += 1
    if has_params:
        decls += 1
    return CategoryCounts(decls, assigns, branches, calls)


# ---------------------------------------------------------------------------
# C frontend
# ---------------------------------------------------------------------------

_PARSE_ERROR_RE = re.compile(r":(\d+):(\d+):")


def _parse_c(fn: SourceFunction) -> GraphBundle:
    try:
        unit = _HeaderTypedefParser().parse(fn.code, filename=_safe_name(fn.id))
    except RecursionError as exc:
        raise SourceTooDeepError("statements or expressions nest too deeply to parse") from exc
    except Exception as exc:  # pycparser raises plyparser.ParseError
        message = str(exc)
        match = _PARSE_ERROR_RE.search(message)
        line = int(match.group(1)) if match else None
        column = int(match.group(2)) if match else None
        raise SourceSyntaxError(message, line=line, column=column) from exc

    func_defs = [ext for ext in unit.ext if isinstance(ext, c_ast.FuncDef)]
    if not func_defs:
        raise SourceSyntaxError("input contains no function definition")

    roots = [_lower_funcdef(fd) for fd in func_defs]
    if len(roots) == 1:
        ast_root = roots[0]
    else:
        ast_root = AstNode(kind="unit", name=None, line=roots[0].line, children=roots)
    for uid, node in enumerate(ast_root.walk()):
        node.uid = uid

    cfg = CfgGraph()
    dfg = DfgGraph()
    cfg_builder = _CfgBuilder()
    next_id = 0
    for fd in func_defs:
        fn_nodes, fn_edges, refs, params = cfg_builder.build_function(fd, start_id=next_id)
        cfg.nodes.extend(fn_nodes)
        cfg.edges.extend(fn_edges)
        next_id = max(n.id for n in fn_nodes) + 1
        _build_dfg(fn_nodes, fn_edges, refs, params, dfg)
    return GraphBundle(ast=ast_root, cfg=cfg, dfg=dfg, source=fn)


def _safe_name(name: str) -> str:
    return re.sub(r"[^\w.-]", "_", name) or "input"


_GEN = c_generator.CGenerator()


def _render(node) -> str:
    if node is None:
        return ""
    return _GEN.visit(node)


def _line_of(node, fallback: int = 1) -> int:
    coord = getattr(node, "coord", None)
    return coord.line if coord is not None and coord.line else fallback


# -- AST lowering -----------------------------------------------------------

_TYPE_EXPANSION = (
    c_ast.TypeDecl,
    c_ast.PtrDecl,
    c_ast.ArrayDecl,
    c_ast.FuncDecl,
    c_ast.IdentifierType,
    c_ast.Typename,
    c_ast.EllipsisParam,
    c_ast.Struct,
    c_ast.Union,
    c_ast.Enum,
    c_ast.Enumerator,
    c_ast.EnumeratorList,
    c_ast.Typedef,
)

_OPERATOR_NODES = (
    c_ast.BinaryOp,
    c_ast.UnaryOp,
    c_ast.Cast,
    c_ast.TernaryOp,
    c_ast.StructRef,
    c_ast.ArrayRef,
    c_ast.InitList,
    c_ast.CompoundLiteral,
    c_ast.NamedInitializer,
)

_SPLICE_NODES = (c_ast.Compound, c_ast.DeclList, c_ast.ParamList, c_ast.ExprList)


def _lower_funcdef(fd: c_ast.FuncDef) -> AstNode:
    line = _line_of(fd)
    root = AstNode(kind="function-def", name=fd.decl.name, line=line)
    func_decl = fd.decl.type
    if isinstance(func_decl, c_ast.FuncDecl) and func_decl.args is not None:
        for param in func_decl.args.params:
            if isinstance(param, c_ast.Decl) and param.name:
                root.children.append(_lower_decl(param, role="param"))
            else:
                root.children.extend(_lower(param))
    # Return-type machinery is grammar noise.
    return_type = AstNode("type-expansion", type(func_decl).__name__, _line_of(func_decl, line))
    root.children.append(return_type)
    if fd.body is not None:
        root.children.extend(_lower(fd.body))
    return root


def _lower_decl(decl: c_ast.Decl, role: str | None = None) -> AstNode:
    line = _line_of(decl)
    node = AstNode(kind="declaration", name=decl.name, line=line, role=role)
    node.children.extend(_lower_type_chain(decl.type, line))
    if decl.init is not None:
        node.children.append(AstNode("assignment", "=", line, children=_lower(decl.init)))
    return node


def _lower_type_chain(tnode, line: int) -> list[AstNode]:
    if tnode is None:
        return []
    if isinstance(tnode, _TYPE_EXPANSION):
        out = AstNode(kind="type-expansion", name=type(tnode).__name__, line=_line_of(tnode, line))
        for _, child in tnode.children():
            out.children.extend(_lower_type_chain(child, line))
        return [out]
    return _lower(tnode)


def _lower(node) -> list[AstNode]:
    """Lower an arbitrary pycparser node to zero or more AstNodes."""
    if node is None:
        return []
    if isinstance(node, _SPLICE_NODES):
        out: list[AstNode] = []
        for _, child in node.children():
            out.extend(_lower(child))
        return out
    if isinstance(node, c_ast.Decl):
        return [_lower_decl(node)]
    if isinstance(node, c_ast.FuncDef):
        return [_lower_funcdef(node)]
    kind, name = _classify(node)
    lowered = AstNode(kind=kind, name=name, line=_line_of(node))
    for _, child in node.children():
        lowered.children.extend(_lower(child))
    return [lowered]


def _classify(node) -> tuple[str, str | None]:
    if isinstance(node, c_ast.Assignment):
        return "assignment", node.op
    if isinstance(node, (c_ast.If, c_ast.Switch)):
        return "branch", _branch_label(node)
    if isinstance(node, (c_ast.While, c_ast.DoWhile, c_ast.For)):
        return "loop", _loop_label(node)
    if isinstance(node, c_ast.FuncCall):
        return "call", _callee_name(node)
    if isinstance(node, c_ast.Return):
        return "return", _render(node.expr) if node.expr is not None else None
    if isinstance(node, _TYPE_EXPANSION):
        return "type-expansion", type(node).__name__
    if isinstance(node, c_ast.ID):
        return "identifier", node.name
    if isinstance(node, c_ast.Constant):
        return "constant", node.value
    if isinstance(node, c_ast.Break):
        return "break", None
    if isinstance(node, c_ast.Continue):
        return "continue", None
    if isinstance(node, c_ast.Goto):
        return "goto", node.name
    if isinstance(node, c_ast.Label):
        return "label", node.name
    if isinstance(node, (c_ast.Case, c_ast.Default)):
        return "case", None
    if isinstance(node, _OPERATOR_NODES):
        op = getattr(node, "op", None)
        return "operator", op if isinstance(op, str) else type(node).__name__
    return "statement", type(node).__name__


def _callee_name(call: c_ast.FuncCall) -> str:
    if isinstance(call.name, c_ast.ID):
        return call.name.name
    return _render(call.name)


def _branch_label(node) -> str:
    if isinstance(node, c_ast.If):
        return f"if({_render(node.cond)})"
    return f"switch({_render(node.cond)})"


def _loop_label(node) -> str:
    if isinstance(node, c_ast.While):
        return f"while({_render(node.cond)})"
    if isinstance(node, c_ast.DoWhile):
        return f"do-while({_render(node.cond)})"
    init = _render(node.init) if node.init is not None else ""
    cond = _render(node.cond) if node.cond is not None else ""
    nxt = _render(node.next) if node.next is not None else ""
    return f"for({init}; {cond}; {nxt})"


# -- variable reference extraction ------------------------------------------


class _Refs:
    """The names a statement writes and reads, and the first call it makes."""

    __slots__ = ("defs", "uses", "call")

    def __init__(self):
        self.defs: set[str] = set()
        self.uses: set[str] = set()
        self.call: c_ast.FuncCall | None = None


def _collect_uses(expr, refs: _Refs) -> None:
    """Record every identifier read by ``expr``, and its first call.

    Children are visited in source order, so the first call met is the
    first one in a preorder walk of ``expr``.
    """
    if expr is None:
        return
    if isinstance(expr, c_ast.ID):
        refs.uses.add(expr.name)
        return
    if isinstance(expr, c_ast.Assignment):
        _collect_write_target(expr.lvalue, refs, also_use=(expr.op != "="))
        _collect_uses(expr.rvalue, refs)
        return
    if isinstance(expr, c_ast.UnaryOp) and expr.op in ("p++", "p--", "++", "--"):
        _collect_write_target(expr.expr, refs, also_use=True)
        return
    if isinstance(expr, c_ast.FuncCall):
        if refs.call is None:
            refs.call = expr
        # The callee designator is not a data read unless it is an expression.
        if not isinstance(expr.name, c_ast.ID):
            _collect_uses(expr.name, refs)
        _collect_uses(expr.args, refs)
        return
    for _, child in expr.children():
        _collect_uses(child, refs)


def _collect_write_target(lvalue, refs: _Refs, also_use: bool) -> None:
    """Classify an lvalue: plain names and member writes define the base name;
    pointer-dereference and arrow writes only read the pointer."""
    if isinstance(lvalue, c_ast.ID):
        refs.defs.add(lvalue.name)
        if also_use:
            refs.uses.add(lvalue.name)
    elif isinstance(lvalue, c_ast.ArrayRef):
        _collect_write_target(lvalue.name, refs, also_use)
        _collect_uses(lvalue.subscript, refs)
    elif isinstance(lvalue, c_ast.StructRef):
        if lvalue.type == "->":
            _collect_uses(lvalue.name, refs)
        else:
            _collect_write_target(lvalue.name, refs, also_use)
    elif isinstance(lvalue, c_ast.UnaryOp) and lvalue.op == "*":
        _collect_uses(lvalue.expr, refs)
    else:
        _collect_uses(lvalue, refs)


def _stmt_refs(*exprs) -> _Refs:
    """One walk over ``exprs`` in order: their defs, uses and first call."""
    refs = _Refs()
    for expr in exprs:
        _collect_uses(expr, refs)
    return refs


# -- CFG construction ---------------------------------------------------------


class _ContinueCtx:
    __slots__ = ("target", "deferred")

    def __init__(self, target: int | None):
        self.target = target
        self.deferred: list[tuple[int, str]] = []


class _CfgBuilder:
    """Builds one statement-level CFG per function definition.

    Frontier discipline: ``self.frontier`` holds dangling (node, edge label)
    pairs awaiting their successor.  An empty frontier means the current
    program point is unreachable; unreachable statements produce no nodes
    (labels are the exception since a goto may resurrect them).
    """

    def build_function(self, fd: c_ast.FuncDef, start_id: int = 0):
        self.nodes: list[CfgNode] = []
        self.edges: list[CfgEdge] = []
        self.refs: dict[int, _Refs] = {}
        self.fn_name = fd.decl.name
        self._next_id = start_id
        self.frontier: list[tuple[int, str]] = []
        self.break_stack: list[list[tuple[int, str]]] = []
        self.continue_stack: list[_ContinueCtx] = []
        self.labels: dict[str, int] = {}
        self.pending_gotos: list[tuple[int, str]] = []

        entry = self._node("entry", "Entry", _line_of(fd))
        exit_node = self._node("exit", "Exit", _line_of(fd))
        self.exit_id = exit_node.id
        self.frontier = [(entry.id, "seq")]

        body_items = fd.body.block_items or [] if fd.body is not None else []
        body_start_count = len(self.nodes)
        for stmt in body_items:
            self._build_stmt(stmt)
        body_nonempty = len(self.nodes) > body_start_count

        if self.frontier:
            if body_nonempty:
                # Implicit return point at the closing brace.
                end = self._node("statement", "end", _line_of(fd))
                self._wire(self.frontier, end.id)
                self.frontier = [(end.id, "seq")]
            self._wire(self.frontier, self.exit_id)
            self.frontier = []

        for goto_id, label_name in self.pending_gotos:
            target = self.labels.get(label_name, self.exit_id)
            self.edges.append(CfgEdge(goto_id, target))

        self._prune_unreachable(entry.id)

        params = self._source_params(fd)
        return self.nodes, self.edges, self.refs, params

    # node / edge helpers

    def _node(self, kind: str, label: str, line: int, refs: _Refs | None = None) -> CfgNode:
        node = CfgNode(self._next_id, kind, label, line, self.fn_name)
        self._next_id += 1
        self.nodes.append(node)
        self.refs[node.id] = refs if refs is not None else _Refs()
        return node

    def _wire(self, sources: list[tuple[int, str]], dst: int, back: bool = False) -> None:
        for src, label in sources:
            self.edges.append(CfgEdge(src, dst, label, back))

    def _attach(self, kind: str, label: str, line: int, refs: _Refs | None = None) -> CfgNode:
        node = self._node(kind, label, line, refs)
        self._wire(self.frontier, node.id)
        self.frontier = [(node.id, "seq")]
        return node

    # statement dispatch

    def _build_stmt(self, stmt) -> None:
        if stmt is None:
            return
        if not self.frontier and not isinstance(stmt, c_ast.Label):
            return  # unreachable

        if isinstance(stmt, c_ast.Compound):
            for item in stmt.block_items or []:
                self._build_stmt(item)
        elif isinstance(stmt, c_ast.Decl):
            self._build_decl(stmt)
        elif isinstance(stmt, c_ast.DeclList):
            for decl in stmt.decls or []:
                self._build_decl(decl)
        elif isinstance(stmt, c_ast.If):
            self._build_if(stmt)
        elif isinstance(stmt, c_ast.While):
            self._build_while(stmt)
        elif isinstance(stmt, c_ast.DoWhile):
            self._build_dowhile(stmt)
        elif isinstance(stmt, c_ast.For):
            self._build_for(stmt)
        elif isinstance(stmt, c_ast.Switch):
            self._build_switch(stmt)
        elif isinstance(stmt, c_ast.Return):
            label = "return" if stmt.expr is None else f"return {_render(stmt.expr)}"
            self._attach("return", label, _line_of(stmt), _stmt_refs(stmt))
            self._wire(self.frontier, self.exit_id)
            self.frontier = []
        elif isinstance(stmt, c_ast.Break):
            node = self._attach("statement", "break", _line_of(stmt))
            if self.break_stack:
                self.break_stack[-1].append((node.id, "seq"))
            else:
                self._wire([(node.id, "seq")], self.exit_id)
            self.frontier = []
        elif isinstance(stmt, c_ast.Continue):
            node = self._attach("statement", "continue", _line_of(stmt))
            ctx = self.continue_stack[-1] if self.continue_stack else None
            if ctx is None:
                self._wire([(node.id, "seq")], self.exit_id)
            elif ctx.target is None:
                ctx.deferred.append((node.id, "seq"))
            else:
                self._wire([(node.id, "seq")], ctx.target, back=True)
            self.frontier = []
        elif isinstance(stmt, c_ast.Goto):
            node = self._attach("statement", f"goto {stmt.name}", _line_of(stmt))
            self.pending_gotos.append((node.id, stmt.name))
            self.frontier = []
        elif isinstance(stmt, c_ast.Label):
            before = self._next_id
            self._build_stmt(stmt.stmt)
            if self._next_id > before:
                self.labels[stmt.name] = before
            else:
                anchor = self._attach("statement", f"{stmt.name}:", _line_of(stmt))
                self.labels[stmt.name] = anchor.id
        elif isinstance(stmt, c_ast.EmptyStatement):
            pass
        else:
            self._build_effect(stmt, _line_of(stmt))

    def _build_effect(self, expr, line: int, target: str | None = None) -> None:
        """One node for an expression statement, or for the initializer of
        ``target``: a call node when it holds a call, else a statement node."""
        refs = _stmt_refs(expr)
        if target is not None:
            refs.defs.add(target)
        if refs.call is not None:
            self._attach("call", f"call {_callee_name(refs.call)}", line, refs)
        else:
            label = _render(expr) if target is None else f"{target} = {_render(expr)}"
            self._attach("statement", label, line, refs)

    def _build_decl(self, decl: c_ast.Decl) -> None:
        line = _line_of(decl)
        type_text = " ".join(_decl_type_names(decl))
        self._attach("statement", f"decl {type_text} {decl.name}".strip(), line)
        if decl.init is not None:
            self._build_effect(decl.init, line, target=decl.name)

    def _build_if(self, node: c_ast.If) -> None:
        branch = self._attach("branch", _branch_label(node), _line_of(node), _stmt_refs(node.cond))

        self.frontier = [(branch.id, "True")]
        self._build_stmt(node.iftrue)
        then_exits = self.frontier

        if node.iffalse is not None:
            self.frontier = [(branch.id, "False")]
            self._build_stmt(node.iffalse)
            else_exits = self.frontier
        else:
            else_exits = [(branch.id, "False")]

        merged = then_exits + else_exits
        if merged:
            join = self._node("statement", "join", _line_of(node))
            self._wire(merged, join.id)
            self.frontier = [(join.id, "seq")]
        else:
            self.frontier = []

    def _loop_body(self, stmt, cont: _ContinueCtx) -> list[tuple[int, str]]:
        """Build a loop body from the current frontier; return its breaks."""
        breaks: list[tuple[int, str]] = []
        self.break_stack.append(breaks)
        self.continue_stack.append(cont)
        self._build_stmt(stmt)
        self.break_stack.pop()
        self.continue_stack.pop()
        return breaks

    def _build_while(self, node: c_ast.While) -> None:
        loop = self._attach("loop", _loop_label(node), _line_of(node), _stmt_refs(node.cond))
        self.frontier = [(loop.id, "True")]
        breaks = self._loop_body(node.stmt, _ContinueCtx(target=loop.id))
        self._wire(self.frontier, loop.id, back=True)
        self.frontier = [(loop.id, "False")] + breaks

    def _build_dowhile(self, node: c_ast.DoWhile) -> None:
        body_start = self._next_id
        cont = _ContinueCtx(target=None)
        # The entry frontier flows straight into the body.
        breaks = self._loop_body(node.stmt, cont)
        loop = self._node("loop", _loop_label(node), _line_of(node), _stmt_refs(node.cond))
        self._wire(self.frontier, loop.id)
        self._wire(cont.deferred, loop.id)
        # An empty body leaves the loop node itself with id body_start: a self-loop.
        self.edges.append(CfgEdge(loop.id, body_start, "True", back=True))
        self.frontier = [(loop.id, "False")] + breaks

    def _build_for(self, node: c_ast.For) -> None:
        self._build_stmt(node.init)
        loop = self._attach("loop", _loop_label(node), _line_of(node), _stmt_refs(node.cond))
        cont = _ContinueCtx(target=None)
        self.frontier = [(loop.id, "True")]
        breaks = self._loop_body(node.stmt, cont)
        body_exits = self.frontier

        if node.next is not None:
            nrefs = _stmt_refs(node.next)
            nxt = self._node("statement", _render(node.next), _line_of(node.next), nrefs)
            self._wire(body_exits, nxt.id)
            self._wire(cont.deferred, nxt.id)
            self.edges.append(CfgEdge(nxt.id, loop.id, "seq", back=True))
        else:
            self._wire(body_exits, loop.id, back=True)
            self._wire(cont.deferred, loop.id, back=True)

        if node.cond is not None or not breaks:
            # A condition-free loop with no break still gets a never-taken
            # exit edge so the graph keeps a reachable exit node.
            self.frontier = [(loop.id, "False")] + breaks
        else:
            self.frontier = list(breaks)

    def _build_switch(self, node: c_ast.Switch) -> None:
        cond_text = _render(node.cond)
        cases = _flatten_cases(node.stmt)
        if not cases:
            return

        # Comparison chain: one branch node per case value, linked by False
        # edges; the final False edge reaches the default body or the join.
        branch_ids: list[int] = []
        incoming = self.frontier
        for case_expr, _ in cases:
            if case_expr is None:
                continue
            refs = _stmt_refs(node.cond, case_expr)
            label = f"switch({cond_text}) case {_render(case_expr)}"
            b = self._node("branch", label, _line_of(case_expr, _line_of(node)), refs)
            self._wire(incoming, b.id)
            incoming = [(b.id, "False")]
            branch_ids.append(b.id)

        breaks: list[tuple[int, str]] = []
        self.break_stack.append(breaks)
        fallthrough: list[tuple[int, str]] = []
        incoming_used = False
        bi = 0
        for case_expr, stmts in cases:
            sources = list(fallthrough)
            if case_expr is None:
                sources.extend(incoming)
                incoming_used = True
            else:
                sources.append((branch_ids[bi], "True"))
                bi += 1
            self.frontier = sources
            for s in stmts:
                self._build_stmt(s)
            fallthrough = self.frontier
        self.break_stack.pop()

        exits = list(fallthrough) + breaks
        if not incoming_used:
            exits.extend(incoming)
        if exits:
            join = self._node("statement", "join", _line_of(node))
            self._wire(exits, join.id)
            self.frontier = [(join.id, "seq")]
        else:
            self.frontier = []

    def _prune_unreachable(self, entry_id: int) -> None:
        reachable = {entry_id}
        stack = [entry_id]
        out: dict[int, list[CfgEdge]] = {}
        for e in self.edges:
            out.setdefault(e.src, []).append(e)
        while stack:
            current = stack.pop()
            for e in out.get(current, ()):
                if e.dst not in reachable:
                    reachable.add(e.dst)
                    stack.append(e.dst)
        reachable.add(self.exit_id)
        self.nodes = [n for n in self.nodes if n.id in reachable]
        self.edges = [e for e in self.edges if e.src in reachable and e.dst in reachable]

    def _source_params(self, fd: c_ast.FuncDef) -> list[tuple[str, int]]:
        """Parameters usable as data sources: values and pointers to const.

        Non-const pointer parameters are output destinations under this
        model and contribute no source node.
        """
        func_decl = fd.decl.type
        params: list[tuple[str, int]] = []
        if not isinstance(func_decl, c_ast.FuncDecl) or func_decl.args is None:
            return params
        for p in func_decl.args.params:
            if not isinstance(p, c_ast.Decl) or not p.name:
                continue
            if isinstance(p.type, (c_ast.PtrDecl, c_ast.ArrayDecl)):
                quals = set(p.quals or [])
                inner = getattr(p.type, "type", None)
                quals.update(getattr(inner, "quals", []) or [])
                if "const" not in quals:
                    continue
            params.append((p.name, _line_of(p, _line_of(fd))))
        return params


def _decl_type_names(decl: c_ast.Decl) -> list[str]:
    node = decl.type
    while node is not None and not isinstance(node, c_ast.IdentifierType):
        node = getattr(node, "type", None)
        if isinstance(node, (c_ast.Struct, c_ast.Union, c_ast.Enum)):
            return [node.name or type(node).__name__.lower()]
    return list(node.names) if isinstance(node, c_ast.IdentifierType) else []


def _flatten_cases(stmt) -> list[tuple[object, list]]:
    """Flatten a switch body into (case expression | None for default, stmts)."""
    items = stmt.block_items or [] if isinstance(stmt, c_ast.Compound) else [stmt]
    cases: list[tuple[object, list]] = []
    for item in items:
        current = item
        while isinstance(current, (c_ast.Case, c_ast.Default)):
            expr = current.expr if isinstance(current, c_ast.Case) else None
            stmts = list(current.stmts or [])
            nested = None
            if stmts and isinstance(stmts[0], (c_ast.Case, c_ast.Default)):
                nested = stmts[0]
                stmts = []
            cases.append((expr, stmts))
            current = nested
        if not isinstance(item, (c_ast.Case, c_ast.Default)) and cases:
            cases[-1][1].append(item)
    return cases


# -- DFG construction ---------------------------------------------------------


def _build_dfg(
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
