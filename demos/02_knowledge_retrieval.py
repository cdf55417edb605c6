"""Build a small weakness index and explore hybrid dense/sparse retrieval.

Run: python demos/02_knowledge_retrieval.py
"""

import tempfile
from pathlib import Path

from vulncontext import KnowledgeEntry, KnowledgeIndex, build_knowledge_base
from vulncontext.knowledge import assemble_knowledge

entries = [
    KnowledgeEntry(
        "CWE-787",
        "Out-of-bounds Write",
        "The product writes data past the end, or before the beginning, of the intended buffer.",
        "memcpy(dest, src, attacker_length);",
    ),
    KnowledgeEntry(
        "CWE-476",
        "NULL Pointer Dereference",
        "The product dereferences a pointer that it expects to be valid but is NULL.",
        "value = record->field;",
    ),
    KnowledgeEntry(
        "CWE-190",
        "Integer Overflow or Wraparound",
        "The product performs a calculation that can produce an integer overflow.",
        "total = count * element_size;",
    ),
    KnowledgeEntry(
        "CWE-134",
        "Uncontrolled Format String",
        "A format string from an external source reaches a printf-family call.",
        "printf(user_input);",
    ),
]

index = build_knowledge_base(entries)
print(f"indexed {len(index)} passages, dense shape {index.dense.shape}")
print()

query = "unchecked copy length allows writing past buffer end"

# The fusion weight slides between pure lexical overlap (0) and pure
# semantic similarity (1).
for alpha in (0.0, 0.5, 1.0):
    ranked = index.retrieve_top_k(query, k=4, alpha=alpha)
    line = ", ".join(f"{e.cwe_id}:{score:.3f}" for e, score in ranked)
    print(f"alpha={alpha:.1f}  {line}")
print()

# The index file is a one-line JSON header followed by numpy blocks; a
# reloaded index ranks exactly as the one that was saved.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "kb.idx"
    index.save(path)
    reloaded = KnowledgeIndex.load(path)
    before = index.retrieve_top_k(query, k=4, alpha=0.5)
    after = reloaded.retrieve_top_k(query, k=4, alpha=0.5)
    if after != before:
        raise SystemExit("the reloaded index ranks differently")
    line = ", ".join(f"{e.cwe_id}:{score:.3f}" for e, score in after)
    print(f"reloaded from {path.stat().st_size} bytes, alpha=0.5  {line}")
print()

# Per-query rankings merge in order, deduplicate, and respect the entry cap.
first = index.retrieve_top_k(query, k=2, alpha=0.5)
second = index.retrieve_top_k("missing null check before dereference", k=2, alpha=0.5)
context = assemble_knowledge([first, second], max_entries=2)
print("assembled knowledge context:")
print(context.text)
