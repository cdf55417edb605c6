from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import TOY_ENTRIES

from vulncontext import knowledge
from vulncontext.errors import CorpusFormatError
from vulncontext.graphs import SourceFunction
from vulncontext.knowledge import (
    DEFAULT_EXAMPLE_CHAR_BUDGET,
    FALLBACK_QUERY_TEXT,
    KnowledgeEntry,
    KnowledgeIndex,
    ReferenceEncoder,
    RetrievalQuery,
    assemble_knowledge,
    build_knowledge_base,
    generate_queries,
    hybrid_score,
    load_cwe_corpus,
    parse_query_response,
)
from vulncontext.llm import ScriptedChatClient

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

# sha256 of ``build_knowledge_base(TOY_ENTRIES).save()`` bytes: the index file
# format.  Recompute it only with a deliberate format change (last: format
# version 2, the JSON header line followed by numpy blocks).
TOY_INDEX_SHA256 = "3a30acdc3aa4bc74bf0a297c3afb60ac1ff30c1da0e7f97aead3f6e09d5d645c"

# sha256 of ``bench_index.save()`` bytes: every bit of the 1000 benchmark rows,
# which the 6 toy entries cannot show.  A change to how rows are summed or
# normalised moves it (last: the CSV reader keeping the line breaks inside
# quoted example fields, which changed the stored passages and no block).
BENCH_INDEX_SHA256 = "8d1876b19dedb63b80739064a5971fe8ac9acdf8198607a43b3b379d7d83fc5c"

CWE_XML = """<?xml version="1.0" encoding="UTF-8"?>
<Weakness_Catalog xmlns="http://cwe.mitre.org/cwe-7" Version="4.14">
  <Weaknesses>
    <Weakness ID="787" Name="Out-of-bounds Write" Abstraction="Base" Status="Stable">
      <Description>The product writes data past the end of the intended buffer.</Description>
      <Demonstrative_Examples>
        <Demonstrative_Example>
          <Example_Code Nature="Bad" Language="C">memcpy(dest, src, n);</Example_Code>
        </Demonstrative_Example>
      </Demonstrative_Examples>
    </Weakness>
    <Weakness ID="476" Name="NULL Pointer Dereference" Abstraction="Base" Status="Stable">
      <Description>The product dereferences a NULL pointer.</Description>
    </Weakness>
    <Weakness ID="999" Name="Empty Description Entry" Abstraction="Base" Status="Draft">
      <Description></Description>
    </Weakness>
  </Weaknesses>
</Weakness_Catalog>
"""

CWE_CSV = (
    'CWE-ID,Name,Description,Demonstrative Examples\n'
    '79,"Improper Neutralization of Input During Web Page Generation",'
    '"The product does not neutralize user-controllable input before placing it in output.",'
    '"echo $_GET[name];"\n'
    '89,"SQL Injection","The product constructs SQL using externally-influenced input.",\n'
    '22,"Path Traversal","",\n'
)


def brute_force_rank(index: KnowledgeIndex, query: str, alpha: float):
    q_dense, q_sparse = index.encoder.encode(query)
    scored = []
    for i, entry in enumerate(index.entries):
        score = hybrid_score(q_dense, q_sparse, index.dense[i], index.sparse[i], alpha)
        scored.append((entry.cwe_id, score))
    scored.sort(key=lambda t: (-t[1], int(t[0].split("-")[1])))
    return scored


# -- corpus loading -----------------------------------------------------------


def test_xml_corpus_counts_only_described_entries(tmp_path):
    path = tmp_path / "cwe.xml"
    path.write_text(CWE_XML, encoding="utf-8")
    entries = load_cwe_corpus(path)
    # Hand count: the export holds 3 weaknesses, 2 with non-empty descriptions.
    assert [e.cwe_id for e in entries] == ["CWE-476", "CWE-787"]
    by_id = {e.cwe_id: e for e in entries}
    assert by_id["CWE-787"].example == "memcpy(dest, src, n);"
    assert "writes data past the end" in by_id["CWE-787"].description


def test_csv_corpus_loads_required_fields(tmp_path):
    path = tmp_path / "cwe.csv"
    path.write_text(CWE_CSV, encoding="utf-8")
    entries = load_cwe_corpus(path)
    assert [e.cwe_id for e in entries] == ["CWE-79", "CWE-89"]
    assert entries[0].example == "echo $_GET[name];"


def test_csv_fields_keep_their_line_breaks(tmp_path):
    # Form feed and U+2028 end a line for str.splitlines, but no CSV row.
    description = "Reads past the end\x0cof a buffer\u2028inside a loop."
    path = tmp_path / "cwe.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)  # ends every row with \r\n
        writer.writerow(["CWE-ID", "Name", "Description", "Example"])
        writer.writerow(["125", "Out-of-bounds Read", description, "int a;\nfoo(a);"])
        writer.writerow(["787", "Out-of-bounds Write", "Writes past the end.", "int b;\r\nbar(b);"])
    read, write = load_cwe_corpus(path)
    assert read.description == description
    assert read.example == "int a;\nfoo(a);"
    # The corpus is read with universal newlines, so a quoted \r\n arrives as \n.
    assert write.example == "int b;\nbar(b);"


def test_csv_missing_columns_is_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("Weird,Columns\n1,2\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError):
        load_cwe_corpus(path)


def test_malformed_xml_is_rejected(tmp_path):
    path = tmp_path / "bad.xml"
    path.write_text("<unclosed>", encoding="utf-8")
    with pytest.raises(CorpusFormatError):
        load_cwe_corpus(path)


# -- index construction and persistence ---------------------------------------


def test_toy_index_bookkeeping():
    index = build_knowledge_base(TOY_ENTRIES[:3])
    assert len(index) == 3
    assert index.dense.shape == (3, 64)
    assert len(index.sparse) == 3
    assert all(w >= 0 for row in index.sparse for w in row.values())
    for row in index.dense:
        assert abs(np.linalg.norm(row) - 1.0) <= 1e-6


def test_reindexing_is_byte_identical(tmp_path):
    first = tmp_path / "a.idx"
    second = tmp_path / "b.idx"
    build_knowledge_base(TOY_ENTRIES).save(first)
    build_knowledge_base(TOY_ENTRIES).save(second)
    assert first.read_bytes() == second.read_bytes()


def test_index_file_bytes_are_unchanged(tmp_path):
    path = tmp_path / "kb.idx"
    build_knowledge_base(TOY_ENTRIES).save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TOY_INDEX_SHA256


def test_round_trip_preserves_scores(tmp_path, toy_index):
    path = tmp_path / "kb.idx"
    toy_index.save(path)
    reloaded = KnowledgeIndex.load(path)
    for query in ("buffer overflow write", "null pointer dereference", "format string"):
        for alpha in (0.0, 0.3, 1.0):
            before = [s for _, s in toy_index.retrieve_top_k(query, k=5, alpha=alpha)]
            after = [s for _, s in reloaded.retrieve_top_k(query, k=5, alpha=alpha)]
            assert all(abs(a - b) <= 1e-9 for a, b in zip(before, after))


def test_index_with_stored_alpha_still_loads(tmp_path, toy_index):
    # Older indexes stored a fusion weight that retrieval never read; an
    # extra header key is ignored.
    path = tmp_path / "kb.idx"
    toy_index.save(path)
    line, _, blocks = path.read_bytes().partition(b"\n")
    header = json.loads(line)
    assert "alpha" not in header
    path.write_bytes(json.dumps({**header, "alpha": 0.9}).encode("utf-8") + b"\n" + blocks)
    reloaded = KnowledgeIndex.load(path)
    query = "buffer overflow write"
    assert reloaded.retrieve_top_k(query, k=5) == toy_index.retrieve_top_k(query, k=5)


def test_encoder_mismatch_is_detected(tmp_path, toy_index):
    # The stored fingerprint no longer matches the encoder the header names.
    path = tmp_path / "kb.idx"
    toy_index.save(path)
    line, _, blocks = path.read_bytes().partition(b"\n")
    header = json.loads(line)
    header["encoder"]["seed"] = 99
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blocks)
    with pytest.raises(CorpusFormatError, match="fingerprint"):
        KnowledgeIndex.load(path)


@pytest.mark.parametrize("interrupt", [OSError(28, "No space left on device"), KeyboardInterrupt()])
def test_failed_save_keeps_the_old_index(tmp_path, toy_index, monkeypatch, interrupt):
    path = tmp_path / "kb.idx"
    toy_index.save(path)
    before = path.read_bytes()
    real_save = np.save
    written = []

    def save_then_fail(file, array, **kwargs):
        if written:  # the header and the first block are already written
            raise interrupt
        written.append(array)
        real_save(file, array, **kwargs)

    monkeypatch.setattr(np, "save", save_then_fail)
    expected = CorpusFormatError if isinstance(interrupt, OSError) else KeyboardInterrupt
    with pytest.raises(expected):
        build_knowledge_base(TOY_ENTRIES[:2]).save(path)
    assert written
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_sparse_view_is_the_encoders_term_maps(tmp_path, toy_index):
    path = tmp_path / "kb.idx"
    toy_index.save(path)
    for index in (toy_index, KnowledgeIndex.load(path)):
        assert [list(row.items()) for row in index.sparse] == [
            list(index.encoder.sparse(e.passage).items()) for e in index.entries
        ]


def test_saved_blocks_are_the_held_arrays(tmp_path, toy_index):
    path = tmp_path / "kb.idx"
    toy_index.save(path)
    line, _, rest = path.read_bytes().partition(b"\n")
    assert json.loads(line)["terms"] == toy_index.terms
    stream = io.BytesIO(rest)
    for name in ("dense", "offsets", "term_ids", "weights"):
        block = np.load(stream)
        assert block.dtype == getattr(toy_index, name).dtype, name
        assert block.tobytes() == getattr(toy_index, name).tobytes(), name


def test_load_and_retrieval_make_no_term_maps(tmp_path, toy_index):
    path = tmp_path / "kb.idx"
    toy_index.save(path)
    reloaded = KnowledgeIndex.load(path)
    reloaded.retrieve_top_k("buffer overflow write", k=len(reloaded))
    assert "sparse" not in vars(reloaded)


@pytest.mark.parametrize("size", [0, 1])
def test_round_trip_of_tiny_index(tmp_path, size):
    if not size:  # nothing could be retrieved from it, so it is never built
        with pytest.raises(CorpusFormatError, match="no entries"):
            build_knowledge_base(TOY_ENTRIES[:size])
        return
    index = build_knowledge_base(TOY_ENTRIES[:size])
    path = tmp_path / "kb.idx"
    index.save(path)
    reloaded = KnowledgeIndex.load(path)
    assert reloaded.entries == index.entries
    assert reloaded.dense.shape == (size, 64)
    assert reloaded.dense.tobytes() == index.dense.tobytes()
    assert [list(row.items()) for row in reloaded.sparse] == [
        list(row.items()) for row in index.sparse
    ]
    query = TOY_ENTRIES[0].name
    assert reloaded.retrieve_top_k(query, k=1) == index.retrieve_top_k(query, k=1)


def test_index_rejects_foreign_files(tmp_path):
    path = tmp_path / "not_an_index.json"
    path.write_text(json.dumps({"magic": "nope"}), encoding="utf-8")
    with pytest.raises(CorpusFormatError):
        KnowledgeIndex.load(path)


# -- scoring ------------------------------------------------------------------


def test_identical_texts_score_one_at_alpha_one(toy_index):
    for i, entry in enumerate(toy_index.entries):
        q_dense, q_sparse = toy_index.encoder.encode(entry.passage)
        score = hybrid_score(q_dense, q_sparse, toy_index.dense[i], toy_index.sparse[i], alpha=1.0)
        assert abs(score - 1.0) <= 1e-6


def test_disjoint_terms_score_zero_at_alpha_zero(toy_index):
    score = hybrid_score(
        np.zeros(64), {"alpha": 0.5}, np.zeros(64), {"beta": 0.7}, alpha=0.0
    )
    assert score == 0.0


def test_hand_computed_fusion():
    # Dense cosine 0.8 with unit vectors; sparse overlap on one term:
    # 0.5 * 0.8 + 0.5 * (0.5 * 0.4) = 0.5.
    q_dense = np.zeros(64)
    d_dense = np.zeros(64)
    q_dense[0] = 1.0
    d_dense[0] = 0.8
    d_dense[1] = 0.6
    score = hybrid_score(q_dense, {"overflow": 0.5}, d_dense, {"overflow": 0.4}, alpha=0.5)
    assert abs(score - 0.5) <= 1e-12


def test_sparse_term_adds_left_to_right_in_term_order():
    # Retrieval's overlap adds each term's product in sorted term order with
    # plain float additions; each 1e-16 is under half an ulp of 1.0, so both
    # vanish.  A compensated sum would give 1.0000000000000002.
    zero = np.zeros(4)
    query = {"a": 1.0, "b": 1e-16, "c": 1e-16}
    assert hybrid_score(zero, query, zero, {"a": 1.0, "b": 1.0, "c": 1.0}, alpha=0.0) == 1.0


def test_alpha_one_ignores_sparse_perturbation(toy_index):
    q = "unchecked buffer write overflow"
    q_dense, q_sparse = toy_index.encoder.encode(q)
    for i in range(len(toy_index)):
        base = hybrid_score(q_dense, q_sparse, toy_index.dense[i], toy_index.sparse[i], 1.0)
        perturbed_sparse = {t: w * 7.5 + 1 for t, w in toy_index.sparse[i].items()}
        perturbed_sparse["unrelated"] = 42.0
        after = hybrid_score(q_dense, q_sparse, toy_index.dense[i], perturbed_sparse, 1.0)
        assert base == after


def test_alpha_zero_ignores_dense_perturbation(toy_index):
    q = "null pointer check"
    q_dense, q_sparse = toy_index.encoder.encode(q)
    rng = np.random.default_rng(7)
    for i in range(len(toy_index)):
        base = hybrid_score(q_dense, q_sparse, toy_index.dense[i], toy_index.sparse[i], 0.0)
        noise = rng.standard_normal(64)
        after = hybrid_score(q_dense, q_sparse, noise, toy_index.sparse[i], 0.0)
        assert base == after


@settings(max_examples=50, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=1.0),
    dense_sim=st.floats(min_value=-1.0, max_value=1.0),
    overlap=st.floats(min_value=0.0, max_value=2.0),
)
def test_score_is_affine_in_alpha(alpha, dense_sim, overlap):
    q_dense = np.zeros(4)
    d_dense = np.zeros(4)
    q_dense[0] = 1.0
    d_dense[0] = dense_sim
    q_sparse = {"t": 1.0}
    d_sparse = {"t": overlap}
    def at(a):
        return hybrid_score(q_dense, q_sparse, d_dense, d_sparse, a)
    expected = at(0.0) + alpha * (at(1.0) - at(0.0))
    assert math.isclose(at(alpha), expected, rel_tol=0, abs_tol=1e-12)


def test_score_rejects_alpha_outside_unit_interval():
    with pytest.raises(ValueError):
        hybrid_score(np.zeros(2), {}, np.zeros(2), {}, alpha=1.5)


# -- retrieval ----------------------------------------------------------------


def test_top_k_matches_brute_force_on_toy_corpus(toy_index):
    query = "buffer overflow out of bounds write"
    got = toy_index.retrieve_top_k(query, k=2, alpha=0.5)
    expected = brute_force_rank(toy_index, query, 0.5)[:2]
    assert [(e.cwe_id, round(s, 12)) for e, s in got] == [
        (cid, round(s, 12)) for cid, s in expected
    ]


def test_k_larger_than_corpus_returns_everything(toy_index):
    got = toy_index.retrieve_top_k("anything at all", k=50, alpha=0.5)
    assert len(got) == len(toy_index)


def test_self_query_ranks_first(toy_index):
    for entry in toy_index.entries:
        top = toy_index.retrieve_top_k(entry.passage, k=1, alpha=1.0)[0][0]
        assert top.cwe_id == entry.cwe_id


def test_ties_break_by_ascending_cwe_number():
    entries = [
        KnowledgeEntry("CWE-300", "Same Name", "identical text"),
        KnowledgeEntry("CWE-79", "Same Name", "identical text"),
        KnowledgeEntry("CWE-125", "Same Name", "identical text"),
    ]
    index = build_knowledge_base(entries)
    ranked = index.retrieve_top_k("identical text", k=3, alpha=1.0)
    assert [e.cwe_id for e, _ in ranked] == ["CWE-79", "CWE-125", "CWE-300"]


def test_empty_corpus_cannot_be_indexed():
    with pytest.raises(CorpusFormatError, match="no entries"):
        build_knowledge_base([])


def test_randomized_corpora_match_brute_force():
    rng = random.Random(1234)
    words = (
        "buffer overflow pointer null free use heap stack format string integer "
        "wrap bounds check validation injection query path traversal race signed"
    ).split()
    for trial in range(10):
        size = rng.randint(2, 40)
        entries = [
            KnowledgeEntry(
                f"CWE-{i + 1}",
                f"Weakness {i}",
                " ".join(rng.choices(words, k=rng.randint(3, 30))),
            )
            for i in range(size)
        ]
        index = build_knowledge_base(entries)
        query = " ".join(rng.choices(words, k=5))
        for alpha in (0.0, 0.3, 0.5, 0.7, 1.0):
            got = index.retrieve_top_k(query, k=3, alpha=alpha)
            expected = brute_force_rank(index, query, alpha)[:3]
            assert [e.cwe_id for e, _ in got] == [cid for cid, _ in expected], (trial, alpha)


@pytest.fixture(scope="module")
def bench_entries(tmp_path_factory):
    """The benchmark's 1000-entry synthetic corpus, read as the benchmark reads it."""
    rows = workloads.cwe_csv_rows(901)
    path = tmp_path_factory.mktemp("corpus") / "cwe.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return load_cwe_corpus(path)


@pytest.fixture(scope="module")
def bench_index(bench_entries):
    return build_knowledge_base(bench_entries)


def bench_queries() -> list[str]:
    """60 seeded benchmark-vocabulary queries, the fallback query, and one
    query sharing no term with the benchmark corpus."""
    zipf = workloads.query_zipf(901)
    rng = random.Random("retrieval-oracle")
    queries = [" ".join(zipf.draw(rng.randint(3, 8))) for _ in range(60)]
    return queries + [FALLBACK_QUERY_TEXT, "qqxj zzvw"]


def test_top_k_matches_brute_force_at_benchmark_scale(bench_index):
    queries = bench_queries()
    corpus_terms = set().union(*bench_index.sparse)
    assert not bench_index.encoder.sparse(queries[-1]).keys() & corpus_terms
    n = len(bench_index)
    for serial, query in enumerate(queries):
        # A k past the corpus re-scores every entry, so it runs on every
        # fourth query and the last two to keep the test short.
        ks = (1, 2, 5, n + 5) if serial % 4 == 0 or serial >= 60 else (1, 2, 5)
        for alpha in (0.0, 0.5, 1.0):
            expected = brute_force_rank(bench_index, query, alpha)
            for k in ks:
                got = bench_index.retrieve_top_k(query, k=k, alpha=alpha)
                assert [(e.cwe_id, s) for e, s in got] == expected[:k], (query, alpha, k)
    # With no shared term, alpha 0 ties every entry at 0: CWE number decides.
    ranked = bench_index.retrieve_top_k(queries[-1], k=n, alpha=0.0)
    assert {s for _, s in ranked} == {0.0}
    with pytest.raises(ValueError):
        bench_index.retrieve_top_k(queries[0], k=0)
    with pytest.raises(ValueError):
        bench_index.retrieve_top_k(queries[0], k=2, alpha=1.5)


def test_round_trip_is_exact_at_benchmark_scale(tmp_path, bench_index):
    path = tmp_path / "kb.idx"
    bench_index.save(path)
    reloaded = KnowledgeIndex.load(path)
    assert reloaded.dense.tobytes() == bench_index.dense.tobytes()
    assert reloaded.terms == bench_index.terms
    for name in ("offsets", "term_ids", "weights"):
        assert getattr(reloaded, name).tobytes() == getattr(bench_index, name).tobytes(), name
    assert [list(row.items()) for row in reloaded.sparse] == [
        list(row.items()) for row in bench_index.sparse
    ]
    assert list(reloaded._term_ids.items()) == list(bench_index._term_ids.items())
    for name in ("_posting_offsets", "_posting_entries", "_posting_weights"):
        assert np.array_equal(getattr(reloaded, name), getattr(bench_index, name)), name
    for query in bench_queries():
        for alpha in (0.0, 0.5, 1.0):
            for k in (1, 2, 5):
                before = bench_index.retrieve_top_k(query, k=k, alpha=alpha)
                after = reloaded.retrieve_top_k(query, k=k, alpha=alpha)
                assert [(e.cwe_id, s.hex()) for e, s in after] == [
                    (e.cwe_id, s.hex()) for e, s in before
                ], (query, alpha, k)


def test_benchmark_index_file_bytes_are_unchanged(tmp_path, bench_index):
    path = tmp_path / "kb.idx"
    bench_index.save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BENCH_INDEX_SHA256


def loop_rows(passages: list[str], dim: int) -> list[np.ndarray]:
    """Each passage's dense row summed term by term, then over its own norm."""
    encoder = ReferenceEncoder(dim=dim)
    rows = []
    for passage in passages:
        vec = np.zeros(dim)
        for term, w in encoder.sparse(passage).items():
            digest = hashlib.sha256(f"0:{term}".encode("utf-8")).digest()
            d = np.random.default_rng(int.from_bytes(digest[:8], "big")).standard_normal(dim)
            vec += w * d
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec = vec / norm
        rows.append(vec)
    return rows


_FEW_WORDS = ["buffer", "overflow", "free", "null", "x", "len", "copy", "bounds"]


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from((1, 2, 64)),
    passages=st.lists(
        st.lists(st.sampled_from(_FEW_WORDS), max_size=60).map(" ".join), max_size=6
    ),
)
def test_built_rows_and_dense_equal_a_term_by_term_loop(dim, passages):
    # Dimension 1 is where any other order of summing shows most often.
    passages = passages + ["free " * 40 + "null " * 7 + "len", "overflow", "!!! -- ::", ""]
    encoder = ReferenceEncoder(dim=dim)
    index = build_knowledge_base(
        [KnowledgeEntry(f"CWE-{i}", p, "") for i, p in enumerate(passages)], encoder
    )
    expected = loop_rows(passages, dim)
    assert index.dense.shape == (len(passages), dim)
    for i, passage in enumerate(passages):
        assert index.dense[i].tobytes() == expected[i].tobytes(), (dim, passage)
        assert encoder.dense(passage).tobytes() == expected[i].tobytes(), (dim, passage)
    assert not index.dense[-2:].any()  # no tokens: the row stays zero
    with pytest.raises(CorpusFormatError, match="no entries"):
        build_knowledge_base([], ReferenceEncoder(dim=dim))


def test_build_draws_each_vocabulary_term_once(monkeypatch):
    # More distinct terms than the query cache holds, with the first terms
    # repeated after it would have been emptied.  The build seeds the whole
    # vocabulary in one batch and never takes the per-term query path.
    chunks = [" ".join(f"fresh{i}" for i in range(s, s + 500)) for s in range(0, 17_000, 500)]
    entries = [KnowledgeEntry(f"CWE-{i}", f"buffer overflow {c}", "") for i, c in enumerate(chunks)]
    encoder = ReferenceEncoder()
    batches = []
    directions = ReferenceEncoder._directions
    monkeypatch.setattr(
        ReferenceEncoder,
        "_directions",
        lambda self, terms: batches.append(list(terms)) or directions(self, terms),
    )

    def refuse(*args, **kwargs):
        raise AssertionError("the build drew a term one at a time")

    monkeypatch.setattr(ReferenceEncoder, "_draw", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    index = build_knowledge_base(entries, encoder)
    assert len(index.terms) == 17_002 > knowledge._TERM_CACHE_LIMIT
    assert batches == [index.terms]
    assert encoder._term_cache == {}


def test_seeding_matches_numpys_seed_sequence_and_pcg64():
    # Seeds of one and two entropy words, at both ends of each, then random ones.
    rng = random.Random("seed-words")
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + [rng.getrandbits(64) for _ in range(2000)]
    words = knowledge._seed_sequence_words(np.array(seeds, dtype=np.uint64))
    assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
    for seed, row in zip(seeds, words.tolist()):
        assert row == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist(), seed
        state = np.random.PCG64(seed).state["state"]
        initstate, initseq = row[0] << 64 | row[1], row[2] << 64 | row[3]
        assert knowledge._pcg64_state(initstate, initseq) == (state["state"], state["inc"]), seed


def test_batch_directions_are_the_single_draws():
    terms = ["", "buffer", "naïve", "überlauf", "缓冲区溢出", "x" * 300, "free", "buffer"]
    for dim, seed in ((64, 0), (1, 7), (5, -3)):
        encoder = ReferenceEncoder(dim=dim, seed=seed)
        batch = encoder._directions(terms)
        assert batch.shape == (len(terms), dim)
        for row, term in zip(batch, terms):
            assert row.tobytes() == encoder._draw(term).tobytes(), (dim, seed, term)
    assert ReferenceEncoder()._directions([]).shape == (0, 64)


def test_concurrent_builds_and_queries_share_one_encoder(tmp_path, bench_entries):
    # Builds and query encodings on one encoder at once; a generator or a
    # buffer shared between them would mix their draws.
    encoder = ReferenceEncoder()
    queries = bench_queries()
    expected = [ReferenceEncoder().dense(q).tobytes() for q in queries]
    builders, encoders = 4, 2
    start = threading.Barrier(builders + encoders)
    done = threading.Event()

    def build() -> KnowledgeIndex:
        start.wait(timeout=60)
        return build_knowledge_base(bench_entries, encoder)

    def encode() -> None:
        start.wait(timeout=60)
        while True:  # at least one pass, then until every build is done
            for query, want in zip(queries, expected):
                assert encoder.encode(query)[0].tobytes() == want, query
            if done.is_set():
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # switch threads often, mid-build
    try:
        with ThreadPoolExecutor(max_workers=builders + encoders) as pool:
            encoding = [pool.submit(encode) for _ in range(encoders)]
            building = [pool.submit(build) for _ in range(builders)]
            try:
                indexes = [future.result(timeout=120) for future in building]
            finally:
                done.set()
            for future in encoding:
                future.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    for slot, index in enumerate(indexes):
        path = tmp_path / f"kb{slot}.idx"
        index.save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == BENCH_INDEX_SHA256, slot


def test_term_cache_stays_bounded_and_exact():
    encoder = ReferenceEncoder()
    text = "buffer overflow writes past the end"
    before = encoder.dense(text)
    largest = 0
    for start in range(0, 20_000, 500):
        encoder.encode(" ".join(f"fresh{i}" for i in range(start, start + 500)))
        largest = max(largest, len(encoder._term_cache))
    assert largest <= knowledge._TERM_CACHE_LIMIT < 20_000
    assert "buffer" not in encoder._term_cache  # dropped by a clear
    assert encoder.dense(text).tobytes() == before.tobytes()


# -- query generation ---------------------------------------------------------


def test_single_query_with_na_second():
    queries = parse_query_response(
        "Query 1: buffer overflow via unchecked length\nQuery 2: N/A"
    )
    assert len(queries) == 1
    assert queries[0].kind == "predicted"
    assert queries[0].text == "buffer overflow via unchecked length"


def test_two_predicted_queries():
    queries = parse_query_response(
        "Query 1: out-of-bounds write\nQuery 2: missing null check"
    )
    assert [q.text for q in queries] == ["out-of-bounds write", "missing null check"]
    assert all(q.kind == "predicted" for q in queries)


def test_unparseable_response_gives_fallback_query():
    assert parse_query_response("the code appears safe") == [
        RetrievalQuery(text=FALLBACK_QUERY_TEXT, kind="fallback")
    ]


def test_generate_queries_degrades_to_fallback():
    client = ScriptedChatClient(default="the code appears safe")
    fn = SourceFunction(id="x", code="void f(){}")
    queries = generate_queries(fn, client)
    assert len(queries) == 1
    assert queries[0].kind == "fallback"
    assert queries[0].text == FALLBACK_QUERY_TEXT


# -- assembly -----------------------------------------------------------------


def test_duplicate_retrievals_dedupe(toy_index):
    ranking = toy_index.retrieve_top_k("out of bounds write", k=1, alpha=0.5)
    context = assemble_knowledge([ranking, ranking])
    assert len(context.entries) == 1


def test_disjoint_retrievals_capped_at_two():
    e1 = KnowledgeEntry("CWE-787", "Out-of-bounds Write", "desc a")
    e2 = KnowledgeEntry("CWE-476", "NULL Pointer Dereference", "desc b")
    e3 = KnowledgeEntry("CWE-190", "Integer Overflow", "desc c")
    context = assemble_knowledge([[(e1, 0.9)], [(e2, 0.8), (e3, 0.7)]])
    assert [e.cwe_id for e in context.entries] == ["CWE-787", "CWE-476"]
    assert "CWE-190" not in context.text
    with pytest.raises(ValueError):
        assemble_knowledge([[(e1, 0.9)]], max_entries=0)


def test_fallback_only_path_yields_generic_top_entry(toy_index):
    fallback = RetrievalQuery(text=FALLBACK_QUERY_TEXT, kind="fallback")
    ranking = toy_index.retrieve_top_k(fallback, k=2, alpha=0.5)
    context = assemble_knowledge([ranking])
    assert context.entries
    assert context.entries[0].cwe_id == ranking[0][0].cwe_id
    assert context.entries[0].name in context.text


def test_rendered_context_carries_name_description_example(toy_index):
    ranking = toy_index.retrieve_top_k("use after free", k=2, alpha=0.5)
    context = assemble_knowledge([ranking])
    for entry in context.entries:
        assert f"[{entry.cwe_id}] {entry.name}" in context.text
        assert entry.description in context.text


def test_long_examples_are_cut_to_budget():
    budget = DEFAULT_EXAMPLE_CHAR_BUDGET
    entry = KnowledgeEntry("CWE-1", "Big", "desc", example="x" * (budget + 500))
    context = assemble_knowledge([[(entry, 1.0)]])
    assert "x" * budget + " [...]" in context.text
    assert "x" * (budget + 1) not in context.text


@settings(max_examples=60, deadline=None)
@given(
    rankings=st.lists(
        st.lists(st.integers(min_value=1, max_value=12), min_size=0, max_size=6),
        min_size=1,
        max_size=4,
    ),
    cap=st.integers(min_value=1, max_value=4),
)
def test_assembled_context_respects_cap_and_never_repeats(rankings, cap):
    as_entries = [
        [(KnowledgeEntry(f"CWE-{n}", f"W{n}", f"weakness {n}"), 1.0 / (i + 1)) for i, n in enumerate(ranking)]
        for ranking in rankings
    ]
    context = assemble_knowledge(as_entries, max_entries=cap)
    ids = [e.cwe_id for e in context.entries]
    assert len(ids) <= cap
    assert len(ids) == len(set(ids))
