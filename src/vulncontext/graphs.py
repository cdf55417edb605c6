"""C source frontend: one parse produces the AST, CFG, and DFG of a function.

C is the only language; any other raises ``UnsupportedLanguageError``.  Input
too deep for any frontend walk raises ``SourceTooDeepError``, any other
rejected input ``SourceSyntaxError``.  Called near the top of the stack,
``parse`` takes 138 nested ``if``s and 247 terms in one expression, and
refuses 139 and 248; a deeper caller lowers both limits, by one ``if`` per
seven frames and one term per four.

pycparser's parser reads its tokens from ``_FastLexer``, which lexes
identifiers, keywords, plain decimal integers and most punctuators with one
regex match; its tokens equal ``CLexer``'s, token for token, and every other
token is ``CLexer``'s own work.

The abstract syntax tree is a lowering of pycparser's concrete tree onto a
small set of semantic node kinds; grammar plumbing (blocks, lists, and type
syntax such as ``TypeDecl`` and ``PtrDecl``) is spliced away at lowering, its
children lowered in its place.  The lowering dispatches on each pycparser
node's type and numbers each node in preorder as it makes it.  Branch, loop
and return labels, callee expressions and ``for`` clauses are rendered once,
by the lowering; the CFG builder reuses that text.  The control-flow graph
allocates one node per statement or condition, with explicit join nodes after
branch constructs and an implicit end-of-body node for functions whose
control can fall off the closing brace.
Every statement is built; what Entry cannot reach is pruned once, so a goto
into dead code keeps its target.  Only branch and loop nodes fork: every plain
``statement`` node has exactly one out-edge, labelled ``seq``.
One walk over each statement finds the names it reads and writes and its
first call; a statement that holds a call becomes a call node.  The data-flow
graph links each definition to its subsequent uses (reaching definitions,
intraprocedural, by variable name).  Its sets of definitions are bitsets, and
no definition's list of reached uses is ever built: a sweep over each
variable's uses finds the steps that add nodes and edges, so the cost follows
the number of DFG edges rather than the number of (definition, reached use)
pairs.

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
import itertools
import re
from dataclasses import dataclass, field

from pycparser import CParser, c_ast, c_generator
from pycparser.c_lexer import CLexer, _fixed_tokens, _keyword_map, _Token

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
    call, return, operator, identifier, constant, and a few statement-level
    kinds (break, continue, goto, label, case, statement, unit).
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
        yield self
        # One iterator per open ancestor: a node's children are visited in
        # place, and the tree's depth costs no recursion.
        stack = [iter(self.children)]
        while stack:
            for node in stack[-1]:
                yield node
                if node.children:
                    stack.append(iter(node.children))
                    break
            else:
                stack.pop()


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

    def params(self) -> list[DfgNode]:
        return [n for n in self.nodes if n.kind == "param"]


@dataclass
class GraphBundle:
    """The three structural graphs derived from one source text."""

    ast: AstNode
    cfg: CfgGraph
    dfg: DfgGraph


@dataclass(frozen=True)
class CategoryCounts:
    declarations: int
    assignments: int
    branches: int
    calls: int

    @classmethod
    def tally(cls, kinds: list[str], params: int) -> CategoryCounts:
        """The counts of a function from the kinds of its AST nodes and its
        number of parameter declarations, which count as one aggregate."""
        declarations = kinds.count("declaration") - params + (1 if params else 0)
        return cls(declarations, kinds.count("assignment"), kinds.count("branch"), kinds.count("call"))


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


# Blanks and newlines, then at most one of the three token shapes that make up
# most of a C body, each where ``CLexer`` would lex exactly the same token: an
# identifier or keyword (not a prefix of a longer one, nor of a ``L"..."``-style
# literal), a decimal integer without suffix, exponent or fraction, and a
# punctuator that no comment, float or ellipsis can begin, longest first.
# Group 1 ends at the last newline skipped.
_FAST_TOKEN_RE = re.compile(
    r"((?:[ \t]*\n)*)[ \t]*(?:"
    r"(?P<ID>[A-Za-z_$][0-9A-Za-z_$]*)(?![0-9A-Za-z_$'\"])"
    r"|(?P<INT_CONST_DEC>[1-9][0-9]*)(?![0-9A-Za-z_$.'])"
    r"|(?P<FIXED>"
    + "|".join(
        re.escape(fixed.literal)
        for fixed in sorted(_fixed_tokens, key=lambda fixed: -len(fixed.literal))
        if fixed.literal[0] not in "/."
    )
    + "))?"
)
# Keywords and punctuators by their text; no identifier is a punctuator.
_FIXED_TYPES = {**_keyword_map, **{fixed.literal: fixed.tok_type for fixed in _fixed_tokens}}


class _FastLexer(CLexer):
    """``CLexer`` with identifiers, plain decimal integers and most
    punctuators lexed by one regex match.

    The tokens, their lines and columns, and the brace callbacks are
    ``CLexer``'s own, token for token; every other token is lexed by
    ``CLexer``'s own code.  Lexing stays lazy: ``TYPEID`` depends on the
    scopes the parser and the brace callbacks keep.
    """

    def token(self):
        if self._pending_tok is not None:
            return super().token()
        text = self._lexdata
        m = _FAST_TOKEN_RE.match(text, self._pos)
        line_start = m.end(1)
        if line_start != self._pos:
            self._lineno += text.count("\n", self._pos, line_start)
            self._line_start = line_start
        tok_type = m.lastgroup
        if tok_type is None:
            # Past the blanks ``CLexer.token`` would skip.  Its
            # ``_match_token`` is called from here, as ``CLexer.token`` calls
            # it, so a token lexes no deeper than under ``CLexer``; only a
            # directive and the token after it, a pending pragma string, the
            # token after an error and the end of input take one frame more.
            self._pos = m.end()
            if self._pos < len(text) and text[self._pos] != "#" and (tok := self._match_token()) is not None:
                return tok
            return super().token()
        start, self._pos = m.span(tok_type)
        value = text[start : self._pos]
        if tok_type != "INT_CONST_DEC":
            tok_type = _FIXED_TYPES.get(value, "ID")
            if tok_type == "ID" and self.type_lookup_func(value):
                tok_type = "TYPEID"
            elif tok_type == "LBRACE":
                self.on_lbrace_func()
            elif tok_type == "RBRACE":
                self.on_rbrace_func()
        return _Token(tok_type, value, self._lineno, start - self._line_start + 1)


class _HeaderTypedefParser(CParser):
    """A ``CParser`` whose file scope starts with ``_HEADER_TYPEDEFS`` declared,
    lexed by ``_FastLexer``.

    ``CParser.parse`` resets the scope stack and then parses the translation
    unit; seeding the file scope there gives the scope a typedef prologue
    would leave, without lexing and parsing one on every call.  A file-scope
    redeclaration of one of the names is still an error.
    """

    def __init__(self, lexer=_FastLexer):
        super().__init__(lexer=lexer)

    def _parse_translation_unit_or_empty(self):
        self._scope_stack[0].update(_HEADER_TYPEDEFS)
        return super()._parse_translation_unit_or_empty()

    def _pop_scope(self):
        # A stray closing brace asks to pop the file scope.  ``CParser``
        # asserts against that, which ``python -O`` skips; keeping the file
        # scope instead lets the grammar report the brace either way.
        if len(self._scope_stack) > 1:
            self._scope_stack.pop()


def parse(fn: SourceFunction) -> GraphBundle:
    """Parse one source function into its AST, CFG, and DFG.

    Raises SourceSyntaxError when the grammar rejects the input (its
    SourceTooDeepError subclass when the input nests too deeply for any
    frontend walk) and UnsupportedLanguageError when ``fn.language`` is not C.
    """
    if fn.language.lower() != "c":
        raise UnsupportedLanguageError(f"only C is supported, not {fn.language!r}")
    try:
        return _parse_c(fn)
    except RecursionError as exc:
        raise SourceTooDeepError("statements or expressions nest too deeply to analyze") from exc


def count_ast_categories(ast: AstNode) -> CategoryCounts:
    """Count declarations, assignments, branches, and calls under a function root.

    The parameter list counts as one declaration aggregate; a declaration
    with an initializer contributes to both the declaration and assignment
    counts (the initializer lowers to an assignment child node).
    """
    kinds: list[str] = []
    params = 0
    for node in ast.walk():
        kinds.append(node.kind)
        if node.role == "param":
            params += 1
    return CategoryCounts.tally(kinds, params)


# ---------------------------------------------------------------------------
# C frontend
# ---------------------------------------------------------------------------

_PARSE_ERROR_RE = re.compile(r":(\d+):(\d+):")


def _parse_c(fn: SourceFunction) -> GraphBundle:
    try:
        unit = _HeaderTypedefParser().parse(fn.code, filename=_safe_name(fn.id))
    except RecursionError:
        raise  # ``parse`` maps it, from here or any later walk, to SourceTooDeepError
    except Exception as exc:
        # pycparser raises ``c_parser.ParseError``, and ``AttributeError`` on
        # some malformed declarations (``enum {A} enum {A};`` in a body).
        message = str(exc)
        match = _PARSE_ERROR_RE.search(message)
        line = int(match.group(1)) if match else None
        column = int(match.group(2)) if match else None
        raise SourceSyntaxError(message, line=line, column=column) from exc

    func_defs = [ext for ext in unit.ext if isinstance(ext, c_ast.FuncDef)]
    if not func_defs:
        raise SourceSyntaxError("input contains no function definition")

    lowering = _Lowering()
    if len(func_defs) == 1:
        ast_root = lowering.funcdef(func_defs[0])
    else:
        ast_root = lowering.node("unit", None, _line_of(func_defs[0]))
        ast_root.children.extend(lowering.funcdef(fd) for fd in func_defs)

    cfg = CfgGraph()
    dfg = DfgGraph()
    cfg_builder = _CfgBuilder(lowering.rendered)
    next_id = 0
    for fd in func_defs:
        fn_nodes, fn_edges, refs, params = cfg_builder.build_function(fd, start_id=next_id)
        cfg.nodes.extend(fn_nodes)
        cfg.edges.extend(fn_edges)
        next_id = max(n.id for n in fn_nodes) + 1
        _build_dfg(fn_nodes, fn_edges, refs, params, dfg)
    return GraphBundle(ast=ast_root, cfg=cfg, dfg=dfg)


def _safe_name(name: str) -> str:
    return re.sub(r"[^\w.-]", "_", name) or "input"


def _render(node) -> str:
    # A name or a constant renders as itself, as ``CGenerator`` renders it.
    t = type(node)
    if t is c_ast.ID:
        return node.name
    if t is c_ast.Constant:
        return node.value
    # A generator per call: each keeps an indent level, which a RecursionError
    # leaves raised and which concurrent calls would share.
    return c_generator.CGenerator().visit(node)


def _line_of(node, fallback: int = 1) -> int:
    coord = node.coord
    return coord.line if coord is not None and coord.line else fallback


def _first_line(node) -> int:
    """The line of ``node``, or else the first line found inside it (preorder)."""
    stack = [node]
    while stack:
        current = stack.pop()
        line = _line_of(current, 0)
        if line:
            return line
        stack.extend(child for _, child in reversed(current.children()))
    return 1


# -- AST lowering -----------------------------------------------------------

# Grammar plumbing: blocks, lists, and type syntax.  Each is replaced by its
# lowered children.
_SPLICE_TYPES = frozenset(
    (
        c_ast.Compound,
        c_ast.DeclList,
        c_ast.ParamList,
        c_ast.ExprList,
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
)

# Kinds whose name does not depend on the node.  Operators without an ``op``
# are named by their type.
_FIXED_KINDS: dict[type, tuple[str, str | None]] = {
    c_ast.Break: ("break", None),
    c_ast.Continue: ("continue", None),
    c_ast.Case: ("case", None),
    c_ast.Default: ("case", None),
    **{
        t: ("operator", t.__name__)
        for t in (
            c_ast.Cast,
            c_ast.TernaryOp,
            c_ast.StructRef,
            c_ast.ArrayRef,
            c_ast.InitList,
            c_ast.CompoundLiteral,
            c_ast.NamedInitializer,
        )
    },
}


class _Lowering:
    """The lowering of one parse.

    Each ``AstNode`` takes the next preorder ``uid`` as it is made, before
    its children are lowered.  ``rendered`` keeps, by pycparser node, each
    branch and loop label and each returned value, callee expression and
    ``for`` init and step that the lowering renders, so the CFG builder
    reuses the text instead of rendering it again.
    """

    __slots__ = ("_uids", "rendered")

    def __init__(self):
        self._uids = itertools.count()
        self.rendered: dict[c_ast.Node, str] = {}

    def node(self, kind: str, name: str | None, line: int, role: str | None = None) -> AstNode:
        return AstNode(kind, name, line, [], role, next(self._uids))

    def keep(self, node, text: str) -> str:
        """Record ``text`` as what ``node`` renders to, for the CFG builder."""
        self.rendered[node] = text
        return text

    def funcdef(self, fd: c_ast.FuncDef) -> AstNode:
        line = _line_of(fd)
        root = self.node("function-def", fd.decl.name, line)
        out = root.children
        func_decl = fd.decl.type
        if type(func_decl) is c_ast.FuncDecl and func_decl.args is not None:
            for param in func_decl.args.params:
                if type(param) is c_ast.Decl and param.name:
                    out.append(self.decl(param, role="param"))
                else:
                    self.lower(param, line, out)
        self.lower(fd.body, line, out)
        return root

    def decl(self, decl: c_ast.Decl, role: str | None = None) -> AstNode:
        line = _line_of(decl)
        node = self.node("declaration", decl.name, line, role)
        self.lower(decl.type, line, node.children)
        if decl.init is not None:
            assign = self.node("assignment", "=", line)
            node.children.append(assign)
            self.lower(decl.init, line, assign.children)
        return node

    def lower(self, node, line: int, out: list[AstNode]) -> None:
        """Append the lowering of ``node`` to ``out``: one AstNode, or the
        lowerings of its children for grammar plumbing.  A node without a
        position (a compound literal) takes ``line``, its nearest ancestor's."""
        coord = node.coord
        if coord is not None and coord.line:
            line = coord.line
        t = type(node)
        # ``AstNode`` is built in place here, the hottest path, not by ``node``.
        if t is c_ast.ID:
            out.append(AstNode("identifier", node.name, line, [], None, next(self._uids)))
            return
        if t is c_ast.Constant:
            out.append(AstNode("constant", node.value, line, [], None, next(self._uids)))
            return
        if t in _SPLICE_TYPES:
            for child in node:
                self.lower(child, line, out)
            return
        if t is c_ast.Decl:
            out.append(self.decl(node))
            return
        kind, name = self.classify(node, t)
        lowered = AstNode(kind, name, line, [], None, next(self._uids))
        out.append(lowered)
        children = lowered.children
        for child in node:
            self.lower(child, line, children)

    def classify(self, node, t: type) -> tuple[str, str | None]:
        if t is c_ast.BinaryOp or t is c_ast.UnaryOp:
            return "operator", node.op
        if t is c_ast.Assignment:
            return "assignment", node.op
        if t is c_ast.FuncCall:
            callee = node.name
            return "call", callee.name if type(callee) is c_ast.ID else self.keep(callee, _render(callee))
        if t is c_ast.If:
            return "branch", self.keep(node, f"if({_render(node.cond)})")
        if t is c_ast.Switch:
            return "branch", self.keep(node, f"switch({_render(node.cond)})")
        if t is c_ast.Return:
            return "return", None if node.expr is None else self.keep(node.expr, _render(node.expr))
        if t is c_ast.While:
            return "loop", self.keep(node, f"while({_render(node.cond)})")
        if t is c_ast.DoWhile:
            return "loop", self.keep(node, f"do-while({_render(node.cond)})")
        if t is c_ast.For:
            init = "" if node.init is None else self.keep(node.init, _render(node.init))
            cond = "" if node.cond is None else _render(node.cond)
            nxt = "" if node.next is None else self.keep(node.next, _render(node.next))
            return "loop", self.keep(node, f"for({init}; {cond}; {nxt})")
        if t is c_ast.Goto:
            return "goto", node.name
        if t is c_ast.Label:
            return "label", node.name
        return _FIXED_KINDS.get(t) or ("statement", t.__name__)


# -- variable reference extraction ------------------------------------------


class _Refs:
    """The names a statement writes and reads, and the first call it makes."""

    __slots__ = ("defs", "uses", "call")

    def __init__(self):
        self.defs: set[str] = set()
        self.uses: set[str] = set()
        self.call: c_ast.FuncCall | None = None


# The references of every node that reads and writes nothing.  Never mutated.
_NO_REFS = _Refs()


def _collect_uses(expr, refs: _Refs) -> None:
    """Record every identifier read by ``expr``, and its first call.

    Children are visited in source order, so the first call met is the
    first one in a preorder walk of ``expr``.
    """
    t = type(expr)
    if t is c_ast.ID:
        refs.uses.add(expr.name)
    elif t is c_ast.Constant or expr is None:
        pass
    elif t is c_ast.BinaryOp:
        _collect_uses(expr.left, refs)
        _collect_uses(expr.right, refs)
    elif t is c_ast.Assignment:
        _collect_write_target(expr.lvalue, refs, also_use=(expr.op != "="))
        _collect_uses(expr.rvalue, refs)
    elif t is c_ast.UnaryOp and expr.op in ("p++", "p--", "++", "--"):
        _collect_write_target(expr.expr, refs, also_use=True)
    elif t is c_ast.FuncCall:
        if refs.call is None:
            refs.call = expr
        # The callee designator is not a data read unless it is an expression.
        if type(expr.name) is not c_ast.ID:
            _collect_uses(expr.name, refs)
        _collect_uses(expr.args, refs)
    else:
        for child in expr:
            _collect_uses(child, refs)


def _collect_write_target(lvalue, refs: _Refs, also_use: bool) -> None:
    """Classify an lvalue: plain names and member writes define the base name;
    pointer-dereference and arrow writes only read the pointer."""
    t = type(lvalue)
    if t is c_ast.ID:
        refs.defs.add(lvalue.name)
        if also_use:
            refs.uses.add(lvalue.name)
    elif t is c_ast.ArrayRef:
        _collect_write_target(lvalue.name, refs, also_use)
        _collect_uses(lvalue.subscript, refs)
    elif t is c_ast.StructRef:
        if lvalue.type == "->":
            _collect_uses(lvalue.name, refs)
        else:
            _collect_write_target(lvalue.name, refs, also_use)
    elif t is c_ast.UnaryOp and lvalue.op == "*":
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


# The statement types ``_CfgBuilder`` builds by their own rule; any other
# statement is an expression.
_STATEMENT_TYPES = frozenset(
    (
        c_ast.Compound,
        c_ast.Decl,
        c_ast.DeclList,
        c_ast.If,
        c_ast.While,
        c_ast.DoWhile,
        c_ast.For,
        c_ast.Switch,
        c_ast.Return,
        c_ast.Break,
        c_ast.Continue,
        c_ast.Goto,
        c_ast.Label,
        c_ast.EmptyStatement,
        type(None),
    )
)


class _CfgBuilder:
    """Builds one statement-level CFG per function definition.

    Frontier discipline: ``self.frontier`` holds dangling (node, edge label)
    pairs awaiting their successor.  An empty frontier only means nothing
    flows in: the next statement is built all the same, without an in-edge,
    and ``_prune_unreachable`` drops it unless a goto reaches it.

    Labels reuse the text the lowering rendered for the same pycparser node
    (``rendered``); only what it did not render is rendered here.
    """

    def __init__(self, rendered: dict[c_ast.Node, str]):
        self.rendered = rendered

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

        entry_id = self._node("entry", "Entry", _line_of(fd))
        self.exit_id = self._node("exit", "Exit", _line_of(fd))
        self.frontier = [(entry_id, "seq")]

        body_start = self._next_id
        for stmt in fd.body.block_items or []:
            self._build_stmt(stmt)
        if self._next_id > body_start:
            self._attach("statement", "end", _line_of(fd))  # implicit return at the closing brace
        self._wire(self.frontier, self.exit_id)

        for goto_id, label_name in self.pending_gotos:
            target = self.labels.get(label_name, self.exit_id)
            self.edges.append(CfgEdge(goto_id, target))

        self._prune_unreachable(entry_id)

        params = self._source_params(fd)
        return self.nodes, self.edges, self.refs, params

    # node / edge helpers

    def _node(self, kind: str, label: str, line: int, refs: _Refs = _NO_REFS) -> int:
        nid = self._next_id
        self._next_id = nid + 1
        self.nodes.append(CfgNode(nid, kind, label, line, self.fn_name))
        self.refs[nid] = refs
        return nid

    def _wire(self, sources: list[tuple[int, str]], dst: int, back: bool = False) -> None:
        for src, label in sources:
            self.edges.append(CfgEdge(src, dst, label, back))

    def _attach(self, kind: str, label: str, line: int, refs: _Refs = _NO_REFS) -> int:
        nid = self._node(kind, label, line, refs)
        self._wire(self.frontier, nid)
        self.frontier = [(nid, "seq")]
        return nid

    # statement dispatch

    def _build_stmt(self, stmt) -> None:
        t = type(stmt)
        if t not in _STATEMENT_TYPES:
            # An expression statement.  A compound literal has no coord.
            coord = stmt.coord
            self._build_effect(stmt, coord.line if coord is not None and coord.line else _first_line(stmt))
        elif t is c_ast.Compound:
            for item in stmt.block_items or []:
                self._build_stmt(item)
        elif t is c_ast.Decl:
            self._build_decl(stmt)
        elif t is c_ast.DeclList:
            for decl in stmt.decls or []:
                self._build_decl(decl)
        elif t is c_ast.If:
            self._build_if(stmt)
        elif t is c_ast.While:
            self._build_while(stmt)
        elif t is c_ast.DoWhile:
            self._build_dowhile(stmt)
        elif t is c_ast.For:
            self._build_for(stmt)
        elif t is c_ast.Switch:
            self._build_switch(stmt)
        elif t is c_ast.Return:
            label = "return" if stmt.expr is None else f"return {self._text(stmt.expr)}"
            self._attach("return", label, _line_of(stmt), _stmt_refs(stmt))
            self._wire(self.frontier, self.exit_id)
            self.frontier = []
        elif t is c_ast.Break:
            nid = self._attach("statement", "break", _line_of(stmt))
            if self.break_stack:
                self.break_stack[-1].append((nid, "seq"))
            else:
                self._wire([(nid, "seq")], self.exit_id)
            self.frontier = []
        elif t is c_ast.Continue:
            nid = self._attach("statement", "continue", _line_of(stmt))
            ctx = self.continue_stack[-1] if self.continue_stack else None
            if ctx is None:
                self._wire([(nid, "seq")], self.exit_id)
            elif ctx.target is None:
                ctx.deferred.append((nid, "seq"))
            else:
                self._wire([(nid, "seq")], ctx.target, back=True)
            self.frontier = []
        elif t is c_ast.Goto:
            nid = self._attach("statement", f"goto {stmt.name}", _line_of(stmt))
            self.pending_gotos.append((nid, stmt.name))
            self.frontier = []
        elif t is c_ast.Label:
            # A goto jumps to the first node built here; a statement that
            # builds nothing leaves a ``name:`` anchor to jump to.
            first = self._next_id
            self._build_stmt(stmt.stmt)
            if self._next_id == first:  # the statement built nothing
                self._attach("statement", f"{stmt.name}:", _line_of(stmt))
            self.labels[stmt.name] = first
        # An empty statement, or a missing one, builds nothing.

    def _build_effect(self, expr, line: int, target: str | None = None) -> None:
        """One node for an expression statement, or for the initializer of
        ``target``: a call node when it holds a call, else a statement node."""
        refs = _stmt_refs(expr)
        if target is not None:
            refs.defs.add(target)
        call = refs.call
        if call is not None:
            name = call.name.name if type(call.name) is c_ast.ID else self._text(call.name)
            self._attach("call", f"call {name}", line, refs)
        else:
            label = self._text(expr) if target is None else f"{target} = {_render(expr)}"
            self._attach("statement", label, line, refs)

    def _text(self, expr) -> str:
        text = self.rendered.get(expr)
        return _render(expr) if text is None else text

    def _build_decl(self, decl: c_ast.Decl) -> None:
        line = _line_of(decl)
        type_text = " ".join(_decl_type_names(decl))
        self._attach("statement", f"decl {type_text} {decl.name}".strip(), line)
        if decl.init is not None:
            self._build_effect(decl.init, line, target=decl.name)

    def _build_if(self, node: c_ast.If) -> None:
        branch = self._attach("branch", self.rendered[node], _line_of(node), _stmt_refs(node.cond))

        self.frontier = [(branch, "True")]
        self._build_stmt(node.iftrue)
        then_exits = self.frontier

        if node.iffalse is not None:
            self.frontier = [(branch, "False")]
            self._build_stmt(node.iffalse)
            else_exits = self.frontier
        else:
            else_exits = [(branch, "False")]

        join = self._node("statement", "join", _line_of(node))
        self._wire(then_exits + else_exits, join)
        self.frontier = [(join, "seq")]

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
        loop = self._attach("loop", self.rendered[node], _line_of(node), _stmt_refs(node.cond))
        self.frontier = [(loop, "True")]
        breaks = self._loop_body(node.stmt, _ContinueCtx(target=loop))
        self._wire(self.frontier, loop, back=True)
        self.frontier = [(loop, "False")] + breaks

    def _build_dowhile(self, node: c_ast.DoWhile) -> None:
        body_start = self._next_id
        cont = _ContinueCtx(target=None)
        # The entry frontier flows straight into the body.
        breaks = self._loop_body(node.stmt, cont)
        loop = self._node("loop", self.rendered[node], _line_of(node), _stmt_refs(node.cond))
        self._wire(self.frontier, loop)
        self._wire(cont.deferred, loop)
        # An empty body leaves the loop node itself with id body_start: a self-loop.
        self.edges.append(CfgEdge(loop, body_start, "True", back=True))
        self.frontier = [(loop, "False")] + breaks

    def _build_for(self, node: c_ast.For) -> None:
        self._build_stmt(node.init)
        loop = self._attach("loop", self.rendered[node], _line_of(node), _stmt_refs(node.cond))
        cont = _ContinueCtx(target=None)
        self.frontier = [(loop, "True")]
        breaks = self._loop_body(node.stmt, cont)
        body_exits = self.frontier

        if node.next is not None:
            nrefs = _stmt_refs(node.next)
            line = _line_of(node.next, _line_of(node))
            nxt = self._node("statement", self._text(node.next), line, nrefs)
            self._wire(body_exits, nxt)
            self._wire(cont.deferred, nxt)
            self.edges.append(CfgEdge(nxt, loop, "seq", back=True))
        else:
            self._wire(body_exits, loop, back=True)
            self._wire(cont.deferred, loop, back=True)

        if node.cond is not None or not breaks:
            # A condition-free loop whose body holds no break, dead or live,
            # gets a never-taken exit edge, so the function keeps an
            # Entry-to-Exit path.
            self.frontier = [(loop, "False")] + breaks
        else:
            self.frontier = list(breaks)

    def _build_switch(self, node: c_ast.Switch) -> None:
        leading, cases = _flatten_cases(node.stmt)
        if not cases:
            return
        head = self.rendered[node]  # switch(cond)

        # Comparison chain: one branch node per case value, linked by False
        # edges; the final False edge reaches the default body or the join.
        branch_ids: list[int] = []
        incoming = self.frontier
        for case_expr, _ in cases:
            if case_expr is None:
                continue
            refs = _stmt_refs(node.cond, case_expr)
            label = f"{head} case {_render(case_expr)}"
            b = self._node("branch", label, _line_of(case_expr, _line_of(node)), refs)
            self._wire(incoming, b)
            incoming = [(b, "False")]
            branch_ids.append(b)

        breaks: list[tuple[int, str]] = []
        self.break_stack.append(breaks)
        cases_start = self._next_id
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

        exits = fallthrough + breaks
        if not incoming_used:
            exits.extend(incoming)
        join = self._node("statement", "join", _line_of(node))
        self._wire(exits, join)

        # Statements before the first case are built last, so the switch's
        # first node stays its entry, where a goto to its label lands.  Only
        # a goto enters them; they fall through to ``cases_start``, the first
        # node the cases built, or the join when they built none.
        self.frontier = []
        breaks.clear()
        for s in leading:
            self._build_stmt(s)
        self.break_stack.pop()
        self._wire(self.frontier, cases_start)
        self._wire(breaks, join)
        self.frontier = [(join, "seq")]

    def _prune_unreachable(self, entry_id: int) -> None:
        succs: dict[int, list[int]] = {}
        for e in self.edges:
            succs.setdefault(e.src, []).append(e.dst)
        reachable = {entry_id, self.exit_id}
        stack = [entry_id]
        while stack:
            for dst in succs.get(stack.pop(), ()):
                if dst not in reachable:
                    reachable.add(dst)
                    stack.append(dst)
        if len(reachable) < len(self.nodes):
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


def _flatten_cases(stmt) -> tuple[list, list[tuple[object, list]]]:
    """Split a switch body into the statements before its first case label and
    its cases, each a (case expression | None for default, stmts) pair.

    pycparser moves every statement after a case label into its case, so
    every other item precedes the first label.
    """
    items = stmt.block_items or [] if isinstance(stmt, c_ast.Compound) else [stmt]
    leading: list = []
    cases: list[tuple[object, list]] = []
    for item in items:
        if not isinstance(item, (c_ast.Case, c_ast.Default)):
            leading.append(item)
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
    return leading, cases


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

    No site's list of reached uses is built.  Walking those lists site by
    site adds to the graph only at one step per edge: from a site to its
    first reached use, and between two consecutive reached uses at the lowest
    site whose list holds that pair.  A site's own node is named at its first
    step, and a use's nodes at the step of the lowest site reaching it.  A
    backward and a forward sweep over each variable's uses find those steps,
    and replaying them in site order gives the same nodes and edges in the
    same order.  The cost follows the number of DFG edges, not the number of
    (site, reached use) pairs, except that a site is renamed when a use
    splits the group of sites it shares its last use with, or merges that
    group into a larger one.
    """
    entry_id = nodes[0].id
    by_id = {n.id: n for n in nodes}
    param_lines = dict(params)

    # Definition sites, indexed by position: parameters sit on entry, then
    # each node's definitions in statement order.  A set of sites is an int
    # whose bit i is site i: each variable has the mask of its sites, and
    # each defining node generates the run of its own sites, its definitions
    # in sorted order.
    site_var = [name for name, _line in params]
    site_nid = [entry_id] * len(site_var)
    runs: dict[int, tuple[int, int]] = {entry_id: (0, len(site_var))} if site_var else {}
    for n in nodes:
        defs = refs[n.id].defs
        if defs:
            runs[n.id] = (len(site_var), len(defs))
            site_var += sorted(defs)
            site_nid += [n.id] * len(defs)
    masks: dict[str, int] = {}
    for sid, var in enumerate(site_var):
        masks[var] = masks.get(var, 0) | 1 << sid

    preds: dict[int, list[int]] = {nid: [] for nid in by_id}
    succs: dict[int, list[int]] = {nid: [] for nid in by_id}
    for e in edges:
        preds[e.dst].append(e.src)
        succs[e.src].append(e.dst)

    gens = {nid: ((1 << count) - 1) << first for nid, (first, count) in runs.items()}
    out = dict.fromkeys(by_id, 0)
    out.update(gens)

    def reach_in(nid: int) -> int:
        ps = preds[nid]
        reach = out[ps[0]] if ps else 0
        for p in ps[1:]:
            reach |= out[p]
        return reach

    # A node's definitions kill every other site of the variables it defines.
    # The lowest id goes first: ids follow statement order, so what a back
    # edge brings to a loop joins the sweep under way instead of starting one.
    # Masks span the whole function, so they are only ever and-ed with a
    # reaching set, which costs the width of the set.  A node's last visit
    # sees its final reaching set: a later change to a predecessor would
    # visit it again.
    reaching: dict[int, int] = {}
    worklist = list(by_id)  # ascending, so already a heap
    queued = set(by_id)
    while worklist:
        nid = heapq.heappop(worklist)
        queued.discard(nid)
        reach = reaching[nid] = reach_in(nid)
        gen = gens.get(nid)
        if gen is not None:
            killed = 0
            for var in refs[nid].defs:
                killed |= reach & masks[var]
            reach = reach ^ killed | gen
        if reach != out[nid]:
            out[nid] = reach
            for s in succs[nid]:
                if s not in queued:
                    queued.add(s)
                    heapq.heappush(worklist, s)

    # Each variable's uses, in statement order.  The out-sets are not needed
    # past this point.
    del out
    uses_by_var: dict[str, list[int]] = {}
    for nid in by_id:
        for var in refs[nid].uses:
            if var in masks:
                uses_by_var.setdefault(var, []).append(nid)

    # Steps are edges to a use: from a site's own node to its first reached
    # use, or between consecutive reached uses at the lowest site that has
    # them.  Each step is packed into one int, so that sorting orders the
    # steps by (site, use node); the low bits hold the previous use plus one,
    # 0 for an edge from the site's own node.
    width = (max(by_id) + 1).bit_length()
    node_mask = (1 << width) - 1
    steps: list[int] = []

    # Sites with a use still ahead form groups that share their last reached
    # use.  Each such site names its group, so a use finds the groups it
    # carries on through its own sites.  A group that moves on whole keeps
    # its name; where a use splits a group or merges several, the smaller
    # side is renamed.  Variables have disjoint sites, so they share these.
    owner: dict[int, int] = {}
    live: dict[int, int] = {}  # group -> its sites
    last: dict[int, int] = {}  # group -> their last reached use
    next_group = 0

    def rename(sites: int, group: int) -> None:
        while sites:
            bit = sites & -sites
            owner[bit.bit_length() - 1] = group
            sites ^= bit

    for var, uses in uses_by_var.items():
        mask = masks[var]
        # Backward: the sites whose last reached use each use is, shifted
        # down to the lowest of them, so that no stored set is wider than
        # its span.
        ends: dict[int, tuple[int, int]] = {}
        later = 0
        for nid in reversed(uses):
            reach = reaching[nid] & mask
            last_here = reach ^ (reach & later)
            if last_here:
                low = (last_here & -last_here).bit_length() - 1
                ends[nid] = (low, last_here >> low)
                later |= last_here
        # Forward: the sites of a use not yet ``seen`` reach their first use
        # there; the others carry on from their group's last use.
        seen = 0
        for nid in uses:
            reach = reaching[nid] & mask
            if not reach:
                continue
            carried = reach & seen
            loose = reach ^ carried
            if loose:
                seen |= loose
                fresh = loose
                while fresh:
                    bit = fresh & -fresh
                    steps.append(((bit.bit_length() - 1) << width | nid) << width)
                    fresh ^= bit
            moved = []
            while carried:
                sid = (carried & -carried).bit_length() - 1
                group = owner[sid]
                sites = live[group]
                hit = sites & carried
                carried ^= hit
                steps.append((sid << width | nid) << width | last[group] + 1)
                rest = sites ^ hit
                if not rest:
                    moved.append(group)
                elif hit.bit_count() <= rest.bit_count():
                    live[group] = rest
                    loose |= hit
                else:  # the smaller rest stays behind under a new name
                    live[group] = hit
                    moved.append(group)
                    live[next_group] = rest
                    last[next_group] = last[group]
                    rename(rest, next_group)
                    next_group += 1
            # Every site reaching this use now has it as its last use, and
            # those reaching no later use leave the groups.
            end = ends.get(nid)
            keep = reach ^ (end[1] << end[0]) if end else reach
            if moved:
                home = max(moved, key=lambda g: live[g].bit_count()) if len(moved) > 1 else moved[0]
                for group in moved:
                    if group != home:
                        rename(live.pop(group) & keep, home)
                        del last[group]
            elif keep:
                home = next_group
                next_group += 1
            else:
                continue
            if keep:
                rename(loose & keep, home)
                live[home] = keep
                last[home] = nid
            else:
                del live[home], last[home]
    steps.sort()

    # DFG nodes are named as edges first demand them: a site's own node at
    # its first step, a use's nodes at the step of the lowest site reaching
    # it.  A use in a defining statement reaches that statement's definition
    # nodes, which are its sites' nodes; any other use has one node per
    # variable.  A repeated parameter name names one node.
    fn_name = nodes[0].fn
    dfg_nodes = dfg.nodes
    site_ids = [-1] * len(site_var)
    param_ids: dict[str, int] = {}
    use_ids: dict[tuple[int, str], int] = {}

    def site_id(sid: int) -> int:
        i = site_ids[sid]
        if i < 0:
            var, nid = site_var[sid], site_nid[sid]
            if nid == entry_id:
                i = param_ids.get(var, -1)
                if i < 0:
                    i = param_ids[var] = len(dfg_nodes)
                    dfg_nodes.append(DfgNode(i, var, "param", param_lines[var], f"param:{var}", -1, fn_name))
            else:
                i = len(dfg_nodes)
                dfg_nodes.append(DfgNode(i, var, "def", by_id[nid].line, f"def:{var}", nid, fn_name))
            site_ids[sid] = i
        return i

    def use_id(nid: int, var: str) -> int:
        i = use_ids.get((nid, var), -1)
        if i < 0:
            cfg_node = by_id[nid]
            kind = "sink" if cfg_node.kind in ("call", "return") else "use"
            i = use_ids[(nid, var)] = len(dfg_nodes)
            dfg_nodes.append(DfgNode(i, var, kind, cfg_node.line, cfg_node.label, nid, fn_name))
        return i

    edge_set: set[int] = set()  # src << 32 | dst
    for packed in steps:
        prev = (packed & node_mask) - 1
        packed >>= width
        nid = packed & node_mask
        sid = packed >> width
        if prev < 0:  # a site's first step: its own node comes first
            src = site_id(sid)
        else:  # the previous use's first node, named at an earlier step
            run = runs.get(prev)
            src = site_id(run[0]) if run is not None else use_id(prev, site_var[sid])
        run = runs.get(nid)
        if run is None:
            to: tuple[int, ...] | list[int] = (use_id(nid, site_var[sid]),)
        elif run[1] == 1:
            to = (site_id(run[0]),)
        else:
            to = [site_id(s) for s in range(run[0], run[0] + run[1])]
        for dst in to:
            key = src << 32 | dst
            if dst != src and key not in edge_set:
                edge_set.add(key)
                dfg.edges.append(DfgEdge(src, dst))
