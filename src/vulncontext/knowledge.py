"""CWE knowledge base: corpus ingestion, hybrid scoring, retrieval, assembly.

Every indexed passage concatenates a weakness entry's name, description, and
demonstrative code example.  Two representations are computed per text: a
unit-normalized dense vector for semantic similarity and a sparse term-weight
map for lexical overlap.  Query/passage similarity is the convex combination

    alpha * cos(dense_q, dense_d) + (1 - alpha) * sum_t sparse_q[t] * sparse_d[t]

over shared terms t.  A dense vector sums its terms' weighted directions in
the order of its sparse map and is divided by its own norm.  An index build
does this for all passages at once, one term position at a time, and never
by an axis reduction, which would sum in another order: every row is
bit-identical to encoding its passage alone.  A build also seeds every
vocabulary term's direction in one pass, with numpy's ``SeedSequence``
mixing run on all seeds at once; each direction has the bits of the
per-term ``default_rng(seed).standard_normal(dim)`` that a query draws, as
long as numpy keeps the ``SeedSequence`` and ``PCG64`` streams that NEP 19
fixes.

Retrieval scores the whole corpus per query with one matrix-vector product
for the dense side and, for the sparse side, the posting lists of the
query's terms (built in memory from the stored term-id and weight arrays
when the index is built or loaded).  The few entries within a small margin
of the k-th best score are then re-scored as ``hybrid_score`` computes them
and ranked, so rankings and scores equal exhaustive scoring exactly.

An index file (format version 2) is one line of JSON header (magic, format
version, build metadata, encoder, fingerprint, passages, and the vocabulary
in term-id order), a newline, and four ``.npy`` blocks: the ``(n, dim)``
dense matrix ``<f8``, per-entry ``offsets`` ``<i8`` of length n + 1, and the
``term_ids`` ``<i4`` and ``weights`` ``<f8`` of every entry's terms in their
original order.  The index holds these same four arrays in memory, so saving
writes them as they are and loading keeps the blocks it reads; a file of any
other format version is refused.  The header's encoder spec (name, dim, seed)
fixes the encoder completely: loading builds it from the spec, and a header
whose encoder name or fingerprint disagrees with that encoder is damaged.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import os
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CorpusFormatError
from .graphs import SourceFunction
from .llm import ChatClient, ChatRequest
from .prompts import fill_query_prompt

__all__ = [
    "KnowledgeEntry",
    "RetrievalQuery",
    "KnowledgeContext",
    "ReferenceEncoder",
    "KnowledgeIndex",
    "FALLBACK_QUERY_TEXT",
    "hybrid_score",
    "load_cwe_corpus",
    "build_knowledge_base",
    "generate_queries",
    "assemble_knowledge",
]

FALLBACK_QUERY_TEXT = "common software vulnerability patterns requiring further inspection"

INDEX_MAGIC = "VCKB"
INDEX_FORMAT_VERSION = 2

DEFAULT_ALPHA = 0.5
DEFAULT_TOP_K = 2
DEFAULT_MAX_ENTRIES = 2
DEFAULT_EXAMPLE_CHAR_BUDGET = 1200


@dataclass(frozen=True)
class KnowledgeEntry:
    """One indexable weakness passage."""

    cwe_id: str
    name: str
    description: str
    example: str = ""

    @property
    def passage(self) -> str:
        parts = [p for p in (self.name, self.description, self.example) if p]
        return "\n".join(parts)


@dataclass(frozen=True)
class RetrievalQuery:
    text: str
    kind: str = "predicted"  # predicted | fallback


@dataclass
class KnowledgeContext:
    entries: list[KnowledgeEntry]
    text: str


def _cwe_sort_key(cwe_id: str) -> tuple[int, str]:
    match = re.search(r"(\d+)", cwe_id)
    return (int(match.group(1)) if match else 1 << 31, cwe_id)


# ---------------------------------------------------------------------------
# Encoders
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# Query-term directions cached per encoder before the cache is emptied:
# model-written queries add terms without end.  An index build draws its
# whole vocabulary into one matrix instead and leaves the cache alone.
_TERM_CACHE_LIMIT = 1 << 14

# numpy's SeedSequence and PCG64 seeding constants.  NEP 19 keeps both streams
# fixed across numpy versions; tests/test_knowledge.py checks them against
# numpy itself.
_HASH_INIT_A = 0x43B0D7E5
_HASH_MULT_A = 0x931E8875
_HASH_INIT_B = 0x8B51F9DD
_HASH_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1


def _seed_sequence_words(seeds: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` for every
    uint64 seed s, as the rows of an ``(n, 4)`` uint64 array.

    This is numpy's ``mix_entropy`` and ``generate_state`` on a pool of four
    uint32 words, one vector step for all seeds at a time.  The hash constants
    do not depend on the data, so they stay Python ints; uint32 arrays wrap
    silently.
    """
    hash_const = _HASH_INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _HASH_MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    # A seed's entropy is its little-endian uint32 words, and the pool hashes
    # a zero for each word the entropy lacks, so every seed below 2**64 reads
    # as (low, high, 0, 0).
    low = (seeds & _MASK32).astype(np.uint32)
    zero = np.zeros_like(low)
    pool = [hashmix(word) for word in (low, (seeds >> 32).astype(np.uint32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    out = np.empty((len(seeds), 8), np.uint32)
    hash_const = _HASH_INIT_B
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _HASH_MULT_B & _MASK32
        value *= np.uint32(hash_const)
        out[:, i] = value ^ (value >> 16)
    # Pairs of words are read as little-endian uint64, as generate_state does.
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _pcg64_state(initstate: int, initseq: int) -> tuple[int, int]:
    """PCG64's ``(state, inc)`` after PCG's srandom step.  PCG64 seeds from
    ``generate_state`` words w0..w3 with initstate ``w0:w1`` and initseq
    ``w2:w3``, the first word of each pair the high one."""
    inc = (initseq << 1 | 1) & _MASK128
    state = ((initstate + inc) * _PCG64_MULT + inc) & _MASK128
    return state, inc


class ReferenceEncoder:
    """Deterministic offline encoder.

    Sparse weights are within-document term frequencies normalized by token
    count, over lowercase alphanumeric tokens.  The dense vector is a seeded
    random projection of the sparse vector onto ``dim`` dimensions,
    unit-normalized.  The per-term projection directions derive from a stable
    hash, so identical text encodes identically on every platform and run:
    term t's direction is ``default_rng(_term_seed(t)).standard_normal(dim)``.
    A query draws each new term that way (``_draw``); an index build seeds
    its whole vocabulary in one pass (``_directions``), to the same bits.

    A dense row is summed term by term in the order of its sparse map, from
    zeros, and divided by its own ``np.linalg.norm``; ``_unit_rows`` does this
    for many rows at once by adding term position j of every row in one
    elementwise step.  Axis reductions (``np.add.reduce`` over terms,
    ``np.linalg.norm(rows, axis=1)``) would sum in another order and move the
    last bit of stored vectors and scores.
    """

    name = "reference-tf-randproj"

    def __init__(self, dim: int = 64, seed: int = 0):
        self.dim = dim
        self.seed = seed
        self._term_cache: dict[str, np.ndarray] = {}

    @property
    def fingerprint(self) -> str:
        payload = json.dumps(
            {"name": self.name, "dim": self.dim, "seed": self.seed}, sort_keys=True
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def sparse(self, text: str) -> dict[str, float]:
        tokens = _TOKEN_RE.findall(text.lower())
        if not tokens:
            return {}
        weight = 1.0 / len(tokens)
        out: dict[str, float] = {}
        for token in tokens:
            out[token] = out.get(token, 0.0) + weight
        return out

    def _term_seed(self, term: str) -> int:
        """The 64-bit seed of ``term``'s direction: a stable hash of it."""
        digest = hashlib.sha256(f"{self.seed}:{term}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def _draw(self, term: str) -> np.ndarray:
        """``term``'s projection direction, the reference ``_directions`` matches."""
        return np.random.default_rng(self._term_seed(term)).standard_normal(self.dim)

    def _term_direction(self, term: str) -> np.ndarray:
        cached = self._term_cache.get(term)
        if cached is None:
            if len(self._term_cache) >= _TERM_CACHE_LIMIT:
                self._term_cache.clear()
            cached = self._term_cache[term] = self._draw(term)
        return cached

    def _directions(self, terms: list[str]) -> np.ndarray:
        """A ``(len(terms), dim)`` matrix whose row i is ``_draw(terms[i])``.

        All seeds go through ``SeedSequence`` at once; each row then loads
        its PCG64 state into one generator, made here and never shared.
        """
        seeds = np.fromiter(map(self._term_seed, terms), np.uint64, len(terms))
        directions = np.empty((len(terms), self.dim))
        bit_generator = np.random.PCG64()
        normal = np.random.Generator(bit_generator).standard_normal
        # Row i of the words is term i's initstate and initseq, each 16 bytes
        # big-endian; read one pair at a time, they cost no list of ints.
        packed = _seed_sequence_words(seeds).astype(">u8").tobytes()
        for row, at in zip(directions, range(0, len(packed), 32)):
            state, inc = _pcg64_state(
                int.from_bytes(packed[at : at + 16], "big"),
                int.from_bytes(packed[at + 16 : at + 32], "big"),
            )
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            normal(self.dim, out=row)
        return directions

    def _unit_rows(
        self,
        directions: np.ndarray,
        offsets: np.ndarray,
        term_ids: np.ndarray,
        weights: np.ndarray,
    ) -> np.ndarray:
        """Row i is the sum of ``weights[p] * directions[term_ids[p]]`` for p in
        ``offsets[i]:offsets[i + 1]``, in that order, over its own norm."""
        lengths = np.diff(offsets)
        order = np.argsort(-lengths, kind="stable")  # longest first
        starts = offsets[:-1][order]
        sums = np.zeros((len(lengths), self.dim))
        # Rows with a term at position j are the first have[j] of ``order``.
        have = len(lengths) - np.cumsum(np.bincount(lengths))
        for j, k in enumerate(have[:-1].tolist()):
            at = starts[:k] + j
            sums[:k] += weights.take(at)[:, None] * directions.take(term_ids.take(at), axis=0)
        rows = np.empty_like(sums)
        rows[order] = sums
        for row in rows:
            norm = np.linalg.norm(row)
            if norm > 0:
                row /= norm
        return rows

    def dense(self, text: str, sparse: dict[str, float] | None = None) -> np.ndarray:
        weights = self.sparse(text) if sparse is None else sparse
        m = len(weights)
        directions = np.array([self._term_direction(t) for t in weights]).reshape(m, self.dim)
        return self._unit_rows(
            directions, np.array([0, m]), np.arange(m), np.fromiter(weights.values(), float, m)
        )[0]

    def encode(self, text: str) -> tuple[np.ndarray, dict[str, float]]:
        sparse = self.sparse(text)
        return self.dense(text, sparse), sparse


def hybrid_score(
    query_dense: np.ndarray,
    query_sparse: dict[str, float],
    entry_dense: np.ndarray,
    entry_sparse: dict[str, float],
    alpha: float,
) -> float:
    """Convex fusion of cosine similarity and sparse term overlap."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    dense_term = float(np.dot(query_dense, entry_dense))
    # Fixed summation order keeps scores bit-identical across processes, and
    # a plain left-to-right loop adds as retrieval's overlap does (builtin
    # ``sum`` compensates float rounding from Python 3.12 on).
    sparse_term = 0.0
    for t in sorted(query_sparse.keys() & entry_sparse.keys()):
        sparse_term += query_sparse[t] * entry_sparse[t]
    return alpha * dense_term + (1.0 - alpha) * sparse_term


# ---------------------------------------------------------------------------
# Corpus loading
# ---------------------------------------------------------------------------


def load_cwe_corpus(path: str | Path) -> list[KnowledgeEntry]:
    """Load a CWE list export, XML or CSV flavor.

    Required fields: ID, Name, Description; the demonstrative example code is
    used when present.  Entries with an empty description are skipped.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise CorpusFormatError(f"cannot read corpus {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("<"):
        entries = _load_cwe_xml(text)
    else:
        entries = _load_cwe_csv(text)
    if not entries:
        raise CorpusFormatError(f"no usable weakness entries found in {path}")
    entries.sort(key=lambda e: _cwe_sort_key(e.cwe_id))
    return entries


def _element_text(element) -> str:
    return " ".join("".join(element.itertext()).split())


def _local_name(tag: str) -> str:
    return tag.split("}")[-1]


def _load_cwe_xml(text: str) -> list[KnowledgeEntry]:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise CorpusFormatError(f"invalid XML: {exc}") from exc
    entries: list[KnowledgeEntry] = []
    for element in root.iter():
        if _local_name(element.tag) != "Weakness":
            continue
        raw_id = element.get("ID", "")
        name = element.get("Name", "")
        if not raw_id:
            continue
        description = ""
        example_parts: list[str] = []
        for child in element.iter():
            local = _local_name(child.tag)
            if local == "Description" and not description:
                description = _element_text(child)
            elif local == "Example_Code":
                code = "".join(child.itertext()).strip()
                if code:
                    example_parts.append(code)
        if not description:
            continue
        entries.append(
            KnowledgeEntry(
                cwe_id=f"CWE-{raw_id}",
                name=name,
                description=description,
                example="\n".join(example_parts),
            )
        )
    return entries


_CSV_ID_COLUMNS = ("CWE-ID", "ID", "cwe_id", "id")
_CSV_NAME_COLUMNS = ("Name", "name")
_CSV_DESC_COLUMNS = ("Description", "description")
_CSV_EXAMPLE_COLUMNS = (
    "Demonstrative Examples",
    "Example Code",
    "example",
    "Example",
)


def _pick_column(row: dict, candidates: tuple[str, ...]) -> str | None:
    for column in candidates:
        if column in row:
            return column
    return None


def _load_cwe_csv(text: str) -> list[KnowledgeEntry]:
    # csv keeps a line break inside a quoted field only if the line it reads
    # ends with one.  ``read_text`` has turned every line ending into "\n";
    # str.splitlines would also split at form feeds and U+2028, and
    # io.StringIO would copy the text into a buffer of 4 bytes a character.
    reader = csv.DictReader(line + "\n" for line in text.split("\n"))
    if reader.fieldnames is None:
        raise CorpusFormatError("CSV export has no header row")
    entries: list[KnowledgeEntry] = []
    id_col = name_col = desc_col = example_col = None
    for row in reader:
        if id_col is None:
            id_col = _pick_column(row, _CSV_ID_COLUMNS)
            name_col = _pick_column(row, _CSV_NAME_COLUMNS)
            desc_col = _pick_column(row, _CSV_DESC_COLUMNS)
            example_col = _pick_column(row, _CSV_EXAMPLE_COLUMNS)
            if id_col is None or name_col is None or desc_col is None:
                raise CorpusFormatError(
                    "CSV export must carry ID, Name, and Description columns; "
                    f"found {reader.fieldnames}"
                )
        raw_id = (row.get(id_col) or "").strip()
        description = (row.get(desc_col) or "").strip()
        if not raw_id or not description:
            continue
        cwe_id = raw_id if raw_id.upper().startswith("CWE-") else f"CWE-{raw_id}"
        entries.append(
            KnowledgeEntry(
                cwe_id=cwe_id,
                name=(row.get(name_col) or "").strip(),
                description=description,
                example=(row.get(example_col) or "").strip() if example_col else "",
            )
        )
    return entries


# ---------------------------------------------------------------------------
# Index
# ---------------------------------------------------------------------------


# Approximate scores differ from ``hybrid_score`` only in the dense term: the
# mat-vec may sum a row in another order than ``np.dot``, while the sparse
# term adds the same products in the same sorted term order, left to right
# from 0.0, and is bit-identical.  Dense
# rows and the query vector have unit norm, so by Cauchy-Schwarz either way
# of summing a length-d dot product lands within about d * 2**-53 of the exact
# value, and the two differ by at most about 2 * d * 2**-53 (1.4e-14 for
# d = 64).  Term-frequency weights sum to 1, so each part of the score is at
# most 1 and the fusion adds only a few ulps of 1.  If every score is off by
# at most e, the k-th best approximate score is at most e above the k-th best
# exact one, so every exact top-k entry scores within 2e of it.  The margin
# covers 2e about 10**4 times over; the exact re-score decides the ranking.
_SHORTLIST_MARGIN = 1e-9


@dataclass
class KnowledgeIndex:
    """Immutable-after-build retrieval index with both encodings precomputed.

    The sparse side is the index file's arrays: entry i holds the terms
    ``terms[term_ids[j]]`` with weights ``weights[j]`` for j in
    ``offsets[i]:offsets[i + 1]``, in the order the encoder produced them.
    ``encoder`` built the passages and encodes every query; the index file
    stores its spec and fingerprint, and ``load`` rebuilds it from them.
    An index holds at least one entry, however it is made.
    """

    entries: list[KnowledgeEntry]
    dense: np.ndarray  # shape (n, dim)
    terms: list[str]  # the vocabulary in term-id order
    offsets: np.ndarray  # <i8, shape (n + 1,)
    term_ids: np.ndarray  # <i4
    weights: np.ndarray  # <f8, at the positions of term_ids
    encoder: ReferenceEncoder
    # Term-major postings: the entries holding term id t are
    # _posting_entries[_posting_offsets[t]:_posting_offsets[t + 1]] in
    # ascending order, with their weights at the same positions.
    _term_ids: dict[str, int] = field(init=False, compare=False, repr=False)
    _posting_offsets: np.ndarray = field(init=False, compare=False, repr=False)
    _posting_entries: np.ndarray = field(init=False, compare=False, repr=False)
    _posting_weights: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.entries:
            raise CorpusFormatError("the knowledge index has no entries to retrieve from")
        self._term_ids = dict(zip(self.terms, range(len(self.terms))))
        n = len(self.entries)
        entry_of = np.repeat(np.arange(n), np.diff(self.offsets))
        # Sorting the (term, entry) keys gives the stable order of term_ids,
        # at about a third of a stable sort's cost on the benchmark corpus.
        order = np.argsort(self.term_ids.astype(np.int64) * n + entry_of)
        counts = np.bincount(self.term_ids, minlength=len(self.terms))
        self._posting_offsets = np.concatenate(([0], np.cumsum(counts)))
        self._posting_entries = entry_of[order]
        self._posting_weights = self.weights[order]

    def __len__(self) -> int:
        return len(self.entries)

    @functools.cached_property
    def sparse(self) -> list[dict[str, float]]:
        """Every entry's term-weight map, in the order its terms were encoded,
        made on first use; retrieval never reads it."""
        names = [self.terms[t] for t in self.term_ids.tolist()]
        weights = self.weights.tolist()
        bounds = self.offsets.tolist()
        return [dict(zip(names[a:b], weights[a:b])) for a, b in zip(bounds, bounds[1:])]

    def retrieve_top_k(
        self,
        query: RetrievalQuery | str,
        k: int = DEFAULT_TOP_K,
        alpha: float = DEFAULT_ALPHA,
    ) -> list[tuple[KnowledgeEntry, float]]:
        """The k best entries by ``hybrid_score``; descending score, CWE id breaks ties."""
        if k < 1:
            raise ValueError("k must be at least 1")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        text = query.text if isinstance(query, RetrievalQuery) else query
        q_dense, q_sparse = self.encoder.encode(text)
        overlap = np.zeros(len(self.entries))
        for term in sorted(q_sparse):  # hybrid_score's summation order
            tid = self._term_ids.get(term)
            if tid is not None:
                span = slice(self._posting_offsets[tid], self._posting_offsets[tid + 1])
                overlap[self._posting_entries[span]] += q_sparse[term] * self._posting_weights[span]
        approx = alpha * (self.dense @ q_dense) + (1.0 - alpha) * overlap
        n = len(approx)
        if k < n:
            kth = np.partition(approx, n - k)[n - k]
            shortlist = np.flatnonzero(approx >= kth - _SHORTLIST_MARGIN)
        else:
            shortlist = range(n)
        # ``overlap[i]`` is already ``hybrid_score``'s sparse sum, term for
        # term in its order from 0.0; only the dense product is redone exactly.
        scored = [
            (
                self.entries[i],
                alpha * float(np.dot(q_dense, self.dense[i])) + (1.0 - alpha) * float(overlap[i]),
            )
            for i in shortlist
        ]
        scored.sort(key=lambda pair: (-pair[1], _cwe_sort_key(pair[0].cwe_id)))
        return scored[:k]

    # -- persistence --------------------------------------------------------

    def save(self, path: str | Path, meta: dict | None = None) -> None:
        """Write the index file: one line of JSON header, then the numeric blocks.

        The file is written under a temporary name in the target's directory
        and then moved over ``path``, so an interrupted save leaves an earlier
        index whole.  Failing to write is a ``CorpusFormatError``.
        """
        path = Path(path)
        arrays = (self.dense, self.offsets, self.term_ids, self.weights)
        header = {
            "magic": INDEX_MAGIC,
            "format_version": INDEX_FORMAT_VERSION,
            "meta": meta or {},
            "encoder": {
                "name": self.encoder.name,
                "dim": self.encoder.dim,
                "seed": self.encoder.seed,
            },
            "fingerprint": self.encoder.fingerprint,
            "entries": [dataclasses.asdict(e) for e in self.entries],
            "terms": self.terms,
        }
        # JSON escapes every newline inside a string, so the first one ends the header.
        line = json.dumps(header, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
        temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(temp, "wb") as handle:
                handle.write(line.encode("utf-8") + b"\n")
                for (_, dtype), array in zip(_INDEX_BLOCKS, arrays):
                    np.save(handle, np.asarray(array, dtype=dtype), allow_pickle=False)
            os.replace(temp, path)
        except OSError as exc:
            raise CorpusFormatError(f"cannot write index {path}: {exc}") from exc
        finally:
            temp.unlink(missing_ok=True)

    @classmethod
    def load(cls, path: str | Path) -> "KnowledgeIndex":
        try:
            raw = Path(path).read_bytes()
        except OSError as exc:
            raise CorpusFormatError(f"cannot read index {path}: {exc}") from exc
        newline = raw.find(b"\n")
        line = raw if newline < 0 else raw[:newline]
        try:
            header = json.loads(line)
        except ValueError as exc:
            raise CorpusFormatError(f"cannot read index {path}: {exc}") from exc
        if not isinstance(header, dict) or header.get("magic") != INDEX_MAGIC:
            raise CorpusFormatError(f"{path} is not a knowledge index (bad magic)")
        version = header.get("format_version")
        if version != INDEX_FORMAT_VERSION:
            raise CorpusFormatError(
                f"index {path} has format version {version!r}, but only version "
                f"{INDEX_FORMAT_VERSION} can be read; rebuild it with `vulncontext build-kb`"
            )
        spec = header.get("encoder")
        if not (
            isinstance(spec, dict)
            and spec.get("name") == ReferenceEncoder.name
            and type(spec.get("dim")) is int  # not a bool
            and spec["dim"] >= 1
            and type(spec.get("seed")) is int
        ):
            raise CorpusFormatError(
                f"index {path}: encoder needs the name {ReferenceEncoder.name!r}, "
                "an integer dim >= 1 and an integer seed"
            )
        encoder = ReferenceEncoder(dim=spec["dim"], seed=spec["seed"])
        if header.get("fingerprint") != encoder.fingerprint:
            raise CorpusFormatError(
                f"index {path}: fingerprint {header.get('fingerprint')!r} does not match "
                f"its encoder's {encoder.fingerprint!r}"
            )
        entries = _index_entries(header.get("entries"))
        if entries is None:
            raise CorpusFormatError(f"index {path}: entries must be objects with string fields")
        terms = header.get("terms")
        if not (isinstance(terms, list) and set(map(type, terms)) <= {str}):
            raise CorpusFormatError(f"index {path}: terms must be a list of strings")
        dense, offsets, term_ids, weights = _read_blocks(raw, len(line) + 1, path)
        n, dim = len(entries), spec["dim"]
        if dense.shape != (n, dim) or not np.isfinite(dense).all():
            raise CorpusFormatError(
                f"index {path}: dense must hold {n} rows of {dim} finite numbers"
            )
        pairs = len(term_ids)
        if not (
            offsets.shape == (n + 1,)
            and offsets[0] == 0
            and offsets[-1] == pairs
            and (np.diff(offsets) >= 0).all()
        ):
            raise CorpusFormatError(
                f"index {path}: offsets must hold {n + 1} non-decreasing bounds from 0 to {pairs}"
            )
        if term_ids.ndim != 1 or (pairs and not 0 <= term_ids.min() <= term_ids.max() < len(terms)):
            raise CorpusFormatError(f"index {path}: term ids must index the {len(terms)} terms")
        if weights.shape != (pairs,) or not np.isfinite(weights).all():
            raise CorpusFormatError(f"index {path}: weights must hold {pairs} finite numbers")
        index = cls(entries, dense, terms, offsets, term_ids, weights, encoder)
        if len(index._term_ids) != len(terms):
            raise CorpusFormatError(f"index {path}: a term repeats in the vocabulary")
        # A term's postings list its entries in ascending order, so a term held
        # twice by one entry shows as two equal neighbours within its span.
        posting_terms = np.repeat(np.arange(len(terms)), np.diff(index._posting_offsets))
        if ((np.diff(posting_terms) == 0) & (np.diff(index._posting_entries) == 0)).any():
            raise CorpusFormatError(f"index {path}: a term repeats within one entry")
        return index


# The numeric blocks that follow the header line, in file order, with the
# little-endian dtype each must carry.
_INDEX_BLOCKS = (("dense", "<f8"), ("offsets", "<i8"), ("term_ids", "<i4"), ("weights", "<f8"))


def _read_blocks(raw: bytes, start: int, path) -> list[np.ndarray]:
    """The ``.npy`` blocks stored from byte ``start`` to the end of ``raw``."""
    stream = io.BytesIO(raw)
    stream.seek(start)
    blocks = []
    for name, dtype in _INDEX_BLOCKS:
        try:
            block = np.lib.format.read_array(stream, allow_pickle=False)
        except (ValueError, MemoryError) as exc:  # a cut, pickled or oversized block
            raise CorpusFormatError(f"index {path}: cannot read the {name} block: {exc}") from exc
        if block.dtype != np.dtype(dtype):
            raise CorpusFormatError(
                f"index {path}: the {name} block must be {dtype}, not {block.dtype}"
            )
        blocks.append(block)
    extra = len(raw) - stream.tell()
    if extra:
        raise CorpusFormatError(f"index {path}: {extra} bytes after the last block")
    return blocks


def _index_entries(records) -> list[KnowledgeEntry] | None:
    """The stored passages, or None unless each is an object of string fields."""
    if not isinstance(records, list):
        return None
    try:
        entries = [KnowledgeEntry(**record) for record in records]
    except TypeError:  # not an object, or a missing or unknown field
        return None
    values = itertools.chain.from_iterable(map(dict.values, records))
    return entries if set(map(type, values)) <= {str} else None


def build_knowledge_base(
    entries: list[KnowledgeEntry],
    encoder: ReferenceEncoder | None = None,
) -> KnowledgeIndex:
    """Encode every passage with both representations and build the index."""
    encoder = encoder or ReferenceEncoder()
    term_ids: dict[str, int] = {}  # in order of first appearance
    lengths, ids, weights = [0], [], []
    for entry in entries:
        sparse = encoder.sparse(entry.passage)
        lengths.append(len(sparse))
        ids.extend(term_ids.setdefault(term, len(term_ids)) for term in sparse)
        weights.extend(sparse.values())
    terms = list(term_ids)
    offsets = np.cumsum(lengths, dtype=np.int64)
    ids_array = np.array(ids, dtype=np.int32)
    weights_array = np.array(weights, dtype=np.float64)
    return KnowledgeIndex(
        entries=list(entries),
        dense=encoder._unit_rows(encoder._directions(terms), offsets, ids_array, weights_array),
        terms=terms,
        offsets=offsets,
        term_ids=ids_array,
        weights=weights_array,
        encoder=encoder,
    )


# ---------------------------------------------------------------------------
# Query generation and assembly
# ---------------------------------------------------------------------------

_QUERY_LINE_RE = re.compile(r"^\s*Query\s*([12])\s*:\s*(.+?)\s*$", re.IGNORECASE | re.MULTILINE)


def parse_query_response(text: str) -> list[RetrievalQuery]:
    """Extract the 'Query 1:' / 'Query 2:' lines; N/A entries are dropped.

    A response with no such line gives the generic fallback query.
    """
    queries: list[RetrievalQuery] = []
    for match in _QUERY_LINE_RE.finditer(text or ""):
        candidate = match.group(2).strip()
        if not candidate or candidate.rstrip(".").upper() == "N/A":
            continue
        queries.append(RetrievalQuery(text=candidate, kind="predicted"))
    return queries[:2] or [RetrievalQuery(text=FALLBACK_QUERY_TEXT, kind="fallback")]


def generate_queries(fn: SourceFunction, llm: ChatClient) -> list[RetrievalQuery]:
    """Ask the model for up to two vulnerability descriptions to retrieve with.

    An unparseable response degrades to the generic fallback query; transport
    errors propagate for the caller to handle.
    """
    prompt = fill_query_prompt(fn.code)
    response = llm.complete(ChatRequest(prompt=prompt, tag=f"{fn.id}:query"))
    return parse_query_response(response.text)


def assemble_knowledge(
    results_per_query: list[list[tuple[KnowledgeEntry, float]]],
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> KnowledgeContext:
    """Merge per-query rankings in (query order, rank order), dedupe, cap.

    The first occurrence of a CWE id wins; the rendered passage carries each
    entry's name, description, and example, with the example cut to
    ``DEFAULT_EXAMPLE_CHAR_BUDGET`` characters.
    """
    if max_entries < 1:
        raise ValueError("max_entries must be at least 1")
    chosen: list[KnowledgeEntry] = []
    seen: set[str] = set()
    for ranking in results_per_query:
        for entry, _score in ranking:
            if entry.cwe_id in seen:
                continue
            seen.add(entry.cwe_id)
            chosen.append(entry)
    chosen = chosen[:max_entries]
    return KnowledgeContext(entries=chosen, text=render_knowledge(chosen))


def render_knowledge(entries: list[KnowledgeEntry]) -> str:
    blocks: list[str] = []
    for entry in entries:
        lines = [f"[{entry.cwe_id}] {entry.name}".rstrip(), entry.description]
        if entry.example:
            example = entry.example
            if len(example) > DEFAULT_EXAMPLE_CHAR_BUDGET:
                example = example[:DEFAULT_EXAMPLE_CHAR_BUDGET] + " [...]"
            lines.append("Example:")
            lines.append(example)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
