"""Walk through the structural context pipeline on one C function.

Run: python demos/01_structural_context.py
"""

from vulncontext import SourceFunction, count_ast_categories, parse
from vulncontext.structure import (
    LEVEL_BUDGETS,
    Level,
    filter_ast,
    filter_cfg,
    filter_dfg,
    generate_structural_context,
)

code = """int read_packet(char *out, const char *wire, size_t n, size_t cap) {
    size_t i = 0;
    if (n > cap) {
        return -1;
    }
    while (i < n) {
        out[i] = wire[i];
        i++;
    }
    return checksum(out, n);
}
"""

fn = SourceFunction(id="read_packet", code=code)

# One parse produces all three graphs.
bundle = parse(fn)
print("category counts:", count_ast_categories(bundle.ast))
print("cfg nodes:", len(bundle.cfg.nodes), "| dfg edges:", len(bundle.dfg.edges))
print()

# Only the AST filter and the path/chain budget depend on the level.  The CFG
# filter folds plain statement runs; the DFG filter keeps parameter-rooted flows.
cfg_kept = len(filter_cfg(bundle.cfg).nodes)
dfg_kept = len(filter_dfg(bundle.dfg).edges)
print(f"filtered: cfg nodes {cfg_kept}, dfg edges {dfg_kept}")
for level in (Level.A, Level.B, Level.C):
    ast_kept = sum(1 for _ in filter_ast(bundle.ast, level).walk())
    print(f"level {level.value}: ast nodes {ast_kept:2d}, budget {LEVEL_BUDGETS[level]}")
print()

# The verbalized context is three one-line fragments: AST, CFG, DFG order.
ctx = generate_structural_context(fn, Level.C)
for fragment in (ctx.t_ast, ctx.t_cfg, ctx.t_dfg):
    print(fragment)
