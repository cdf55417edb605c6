from __future__ import annotations

import io
import json

import numpy as np
import pytest

from fixtures import COPY_BYTES, GOLDEN_T_AST, GOLDEN_T_CFG, GOLDEN_T_DFG

from vulncontext.cli import main
from vulncontext.datasets import load_functions, load_pairs, load_verdicts
from vulncontext.config import load_config
from vulncontext.errors import ConfigError, DatasetFormatError

CWE_XML = """<?xml version="1.0"?>
<Weakness_Catalog xmlns="http://cwe.mitre.org/cwe-7">
  <Weaknesses>
    <Weakness ID="787" Name="Out-of-bounds Write">
      <Description>The product writes data past the end of the intended buffer.</Description>
      <Demonstrative_Examples>
        <Demonstrative_Example>
          <Example_Code Nature="Bad">memcpy(dest, src, n);</Example_Code>
        </Demonstrative_Example>
      </Demonstrative_Examples>
    </Weakness>
    <Weakness ID="476" Name="NULL Pointer Dereference">
      <Description>The product dereferences a NULL pointer.</Description>
    </Weakness>
    <Weakness ID="134" Name="Uncontrolled Format String">
      <Description>Externally-controlled format strings reach printf-family calls.</Description>
    </Weakness>
  </Weaknesses>
</Weakness_Catalog>
"""


INDEX_BLOCKS = ("dense", "offsets", "term_ids", "weights")


def split_index(raw):
    """An index file's JSON header and its numeric blocks by name."""
    line, _, rest = raw.partition(b"\n")
    stream = io.BytesIO(rest)
    return json.loads(line), {name: np.load(stream) for name in INDEX_BLOCKS}


def join_index(header, blocks):
    stream = io.BytesIO()
    stream.write(json.dumps(header).encode("utf-8") + b"\n")
    for name in INDEX_BLOCKS:
        np.save(stream, blocks[name])
    return stream.getvalue()


def write_jsonl(path, records):
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
        encoding="utf-8",
    )


@pytest.fixture
def kb_path(tmp_path):
    corpus = tmp_path / "cwe.xml"
    corpus.write_text(CWE_XML, encoding="utf-8")
    out = tmp_path / "kb.idx"
    assert main(["build-kb", "--corpus", str(corpus), "--out", str(out)]) == 0
    return out


@pytest.fixture
def dataset_path(tmp_path):
    path = tmp_path / "functions.jsonl"
    write_jsonl(
        path,
        [
            {"id": "copy_bytes", "code": COPY_BYTES, "label": "vulnerable"},
            {"id": "safe_add", "code": "int safe_add(int a, int b){return a + b;}", "label": "benign"},
        ],
    )
    return path


# -- dataset loading ----------------------------------------------------------


def test_function_and_pair_round_trip(tmp_path, dataset_path):
    functions = load_functions(dataset_path)
    assert [fn.id for fn in functions] == ["copy_bytes", "safe_add"]
    pairs_path = tmp_path / "pairs.jsonl"
    write_jsonl(pairs_path, [{"pair_id": "p1", "vulnerable_id": "copy_bytes", "benign_id": "safe_add"}])
    pairs = load_pairs(pairs_path)
    assert pairs[0].vulnerable_id == "copy_bytes"


def test_duplicate_function_ids_are_rejected(tmp_path):
    path = tmp_path / "dupe.jsonl"
    write_jsonl(path, [{"id": "a", "code": "int a;"}, {"id": "a", "code": "int b;"}])
    with pytest.raises(DatasetFormatError):
        load_functions(path)


def test_malformed_jsonl_is_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{not json}\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError):
        load_functions(path)


# -- build-kb -----------------------------------------------------------------


def test_build_kb_writes_versioned_index(kb_path):
    header, blocks = split_index(kb_path.read_bytes())
    assert header["magic"] == "VCKB"
    assert header["format_version"] == 2
    assert header["fingerprint"]
    assert header["meta"]["tool_version"]
    assert len(header["entries"]) == 3
    assert blocks["dense"].shape == (3, 64)
    assert len(blocks["offsets"]) == 4


def test_build_kb_unwritable_out_is_data_error(tmp_path, capsys):
    corpus = tmp_path / "cwe.xml"
    corpus.write_text(CWE_XML, encoding="utf-8")
    out = tmp_path / "missing" / "kb.idx"
    assert main(["build-kb", "--corpus", str(corpus), "--out", str(out)]) == 2
    assert "cannot write index" in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize("command", ["extract-context", "analyze", "evaluate"])
def test_unwritable_out_is_data_error(tmp_path, kb_path, dataset_path, capsys, command):
    pairs, verdicts = tmp_path / "pairs.jsonl", tmp_path / "v.jsonl"
    write_jsonl(pairs, [{"pair_id": "p1", "vulnerable_id": "copy_bytes", "benign_id": "safe_add"}])
    write_jsonl(
        verdicts,
        [
            {"record": "verdict", "id": "copy_bytes", "label": "vulnerable"},
            {"record": "verdict", "id": "safe_add", "label": "benign"},
        ],
    )
    inputs = {
        "extract-context": ["--input", str(dataset_path)],
        "analyze": ["--input", str(dataset_path), "--kb", str(kb_path)],
        "evaluate": ["--predictions", str(verdicts), "--dataset", str(dataset_path), "--pairs", str(pairs)],
    }
    out = tmp_path / "missing" / "out"
    assert main([command, *inputs[command], "--out", str(out)]) == 2
    assert "cannot write" in capsys.readouterr().err
    assert not out.parent.exists()


def test_build_kb_missing_corpus_exits_with_data_error(tmp_path, capsys):
    rc = main(["build-kb", "--corpus", str(tmp_path / "nope.xml"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("dim", ["0", "-3"])
def test_build_kb_rejects_encoder_dim_below_one_before_reading(tmp_path, capsys, dim):
    # The corpus does not exist: reading it first would be a data error (exit 2).
    argv = ["build-kb", "--corpus", str(tmp_path / "nope.xml"), "--out", str(tmp_path / "kb.idx")]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--encoder-dim", dim])
    assert exc.value.code == 1
    assert "--encoder-dim" in capsys.readouterr().err
    assert not (tmp_path / "kb.idx").exists()


@pytest.mark.parametrize("fraction", ["0", "1.5", "nan", "-0.5", "half"])
def test_evaluate_rejects_sample_fraction_outside_unit_interval(tmp_path, dataset_path, capsys, fraction):
    argv = ["evaluate", "--predictions", str(tmp_path / "v.jsonl"), "--dataset", str(dataset_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--pairs", str(tmp_path / "p.jsonl"), "--sample-fraction", fraction])
    assert exc.value.code == 1
    assert "--sample-fraction" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-2", "two"])
def test_analyze_rejects_workers_below_one(tmp_path, kb_path, dataset_path, capsys, workers):
    out = tmp_path / "v.jsonl"
    argv = ["analyze", "--input", str(dataset_path), "--kb", str(kb_path), "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--workers", workers])
    assert exc.value.code == 1
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


def test_config_concurrency_below_one_is_data_error(tmp_path, kb_path, dataset_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"concurrency": 0}), encoding="utf-8")
    out = tmp_path / "v.jsonl"
    argv = ["analyze", "--input", str(dataset_path), "--kb", str(kb_path), "--out", str(out)]
    assert main(argv + ["--config", str(config_path)]) == 2
    assert "concurrency" in capsys.readouterr().err


# -- extract-context ----------------------------------------------------------


def test_extract_context_prints_golden_fragments(dataset_path, capsys):
    rc = main(["extract-context", "--input", str(dataset_path), "--level", "C"])
    assert rc == 0
    out = capsys.readouterr().out
    assert GOLDEN_T_AST in out
    assert GOLDEN_T_CFG in out
    assert GOLDEN_T_DFG in out


def test_extract_context_jsonl_framing(dataset_path, tmp_path):
    out_path = tmp_path / "ctx.jsonl"
    rc = main(
        ["extract-context", "--input", str(dataset_path), "--jsonl", "--out", str(out_path)]
    )
    assert rc == 0
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert records[0]["record"] == "meta"
    assert records[0]["config_fingerprint"]
    contexts = {r["id"]: r for r in records if r["record"] == "context"}
    assert contexts["copy_bytes"]["context"] == "\n".join(
        [GOLDEN_T_AST, GOLDEN_T_CFG, GOLDEN_T_DFG]
    )
    assert contexts["copy_bytes"]["level"] == "C"


def test_extract_context_reports_parse_failures_with_data_exit(tmp_path, capsys):
    path = tmp_path / "broken.jsonl"
    write_jsonl(path, [{"id": "bad", "code": "void oops( {"}])
    rc = main(["extract-context", "--input", str(path)])
    assert rc == 2
    assert "error" in capsys.readouterr().out


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_no_subcommand_is_usage_error():
    assert main([]) == 1


# -- analyze ------------------------------------------------------------------


def test_analyze_runs_offline_and_is_deterministic(tmp_path, kb_path, dataset_path):
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    for out in (out_a, out_b):
        rc = main(
            [
                "analyze",
                "--input",
                str(dataset_path),
                "--kb",
                str(kb_path),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    verdicts = load_verdicts(out_a)
    assert set(verdicts) == {"copy_bytes", "safe_add"}
    assert verdicts["copy_bytes"].label == "vulnerable"  # offline heuristic script
    assert verdicts["safe_add"].label == "benign"
    runinfo = json.loads((tmp_path / "a.jsonl.runinfo.json").read_text())
    assert "elapsed_s" in runinfo and runinfo["config_fingerprint"]


def test_failed_judgments_exit_3_through_the_summary(tmp_path, kb_path, dataset_path, capsys):
    # The script answers the query and explanation prompts only, and has no
    # default, so every judgment call fails and every function is recorded
    # as a failure; that is the one way ``analyze`` exits 3.
    script_path = tmp_path / "script.json"
    script = {
        "rules": [
            {
                "match": "identify at most two possible vulnerability types",
                "response": "Query 1: out-of-bounds write\nQuery 2: N/A",
            },
            {
                "match": "summarize its observable functional behavior",
                "response": "The function copies bytes.",
            },
        ]
    }
    script_path.write_text(json.dumps(script), encoding="utf-8")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"llm": {"script_path": str(script_path)}}), encoding="utf-8")
    out = tmp_path / "v.jsonl"
    argv = ["analyze", "--input", str(dataset_path), "--kb", str(kb_path), "--out", str(out)]
    assert main(argv + ["--config", str(config_path)]) == 3
    summary = json.loads((tmp_path / "v.jsonl.runinfo.json").read_text())
    assert [f["id"] for f in summary["failures"]] == ["copy_bytes", "safe_add"]
    verdicts = load_verdicts(out)
    assert all(v.label is None and v.error for v in verdicts.values())
    err = capsys.readouterr().err
    assert "judgment failed for copy_bytes" in err and "backend error" not in err


def test_analyze_missing_kb_is_data_error(tmp_path, dataset_path, capsys):
    rc = main(
        [
            "analyze",
            "--input",
            str(dataset_path),
            "--kb",
            str(tmp_path / "missing.idx"),
            "--out",
            str(tmp_path / "v.jsonl"),
        ]
    )
    assert rc == 2


def _drop_encoder(header, blocks):
    del header["encoder"]


def _foreign_encoder_name(header, blocks):
    header["encoder"]["name"] = "service-embedder"


def _edited_encoder_seed(header, blocks):
    header["encoder"]["seed"] += 1


def _term_repeated_in_vocabulary(header, blocks):
    # The last passage does not hold the first term, so no passage repeats it.
    assert 0 not in blocks["term_ids"][blocks["offsets"][-2] :]
    header["terms"][-1] = header["terms"][0]


def _short_dense_row(header, blocks):
    blocks["dense"] = blocks["dense"][:, :-1]


def _short_sparse(header, blocks):
    blocks["offsets"] = blocks["offsets"][:-1]


def _string_entries(header, blocks):
    header["entries"] = [e["cwe_id"] for e in header["entries"]]


def _list_payload(header, blocks):
    return join_index([header], blocks)


def _string_weight(header, blocks):
    blocks["weights"] = blocks["weights"].astype(str)


def _cut_inside_block(header, blocks):
    return join_index(header, blocks)[:-5]


def _trailing_bytes(header, blocks):
    return join_index(header, blocks) + bytes(8)


def _term_id_past_terms(header, blocks):
    blocks["term_ids"][0] = len(header["terms"])


def _decreasing_offsets(header, blocks):
    blocks["offsets"][1] = blocks["offsets"][2] + 1


def _term_repeated_in_entry(header, blocks):
    assert blocks["offsets"][1] >= 2
    blocks["term_ids"][1] = blocks["term_ids"][0]


def _nan_dense(header, blocks):
    blocks["dense"][0, 0] = float("nan")


def _pickled_block(header, blocks):
    blocks["weights"] = blocks["weights"].astype(object)


def _no_entries(header, blocks):
    # Well formed, but with no entries: nothing could be retrieved from it.
    header["entries"], header["terms"] = [], []
    blocks["dense"] = blocks["dense"][:0]
    blocks["offsets"] = blocks["offsets"][:1]
    blocks["term_ids"] = blocks["term_ids"][:0]
    blocks["weights"] = blocks["weights"][:0]


@pytest.mark.parametrize(
    "damage",
    [
        _drop_encoder,
        _foreign_encoder_name,
        _edited_encoder_seed,
        _short_dense_row,
        _short_sparse,
        _string_entries,
        _list_payload,
        _string_weight,
        _cut_inside_block,
        _trailing_bytes,
        _term_id_past_terms,
        _decreasing_offsets,
        _term_repeated_in_entry,
        _term_repeated_in_vocabulary,
        _nan_dense,
        _pickled_block,
        _no_entries,
    ],
)
def test_analyze_malformed_index_is_data_error(tmp_path, kb_path, dataset_path, capsys, damage):
    header, blocks = split_index(kb_path.read_bytes())
    kb_path.write_bytes(damage(header, blocks) or join_index(header, blocks))
    out = tmp_path / "v.jsonl"
    argv = ["analyze", "--input", str(dataset_path), "--kb", str(kb_path), "--out", str(out)]
    assert main(argv) == 2
    assert "data error" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_version_1_index_asks_for_rebuild(tmp_path, kb_path, dataset_path, capsys):
    # Version 1 stored everything as JSON, the dense rows and term maps included.
    header, blocks = split_index(kb_path.read_bytes())
    payload = {**header, "format_version": 1, "dense": blocks["dense"].tolist()}
    payload["sparse"] = [{} for _ in payload["entries"]]
    kb_path.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "v.jsonl"
    argv = ["analyze", "--input", str(dataset_path), "--kb", str(kb_path), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "version 1" in err and "build-kb" in err
    assert not out.exists()


# -- evaluate -----------------------------------------------------------------


def brute_force_report(records, pairs, labels):
    tp = fp = tn = fn = 0
    pc = pv = pb = pr = 0
    for vul_id, ben_id in pairs:
        pv_pred = records[vul_id]
        pb_pred = records[ben_id]
        v_ok = pv_pred == "vulnerable"
        b_ok = pb_pred == "benign"
        pc += v_ok and b_ok
        pv += pv_pred == "vulnerable" and pb_pred == "vulnerable"
        pb += pv_pred == "benign" and pb_pred == "benign"
        pr += (not v_ok) and (not b_ok)
        tp += v_ok
        fn += not v_ok
        fp += not b_ok
        tn += b_ok
    del labels
    return {
        "P-C": pc,
        "P-V": pv,
        "P-B": pb,
        "P-R": pr,
        "P": tp / (tp + fp),
        "R": tp / (tp + fn),
        "FPR": fp / (fp + tn),
        "Acc": (tp + tn) / (tp + fp + tn + fn),
    }


def test_evaluate_matches_brute_force_oracle(tmp_path, capsys):
    functions = []
    pairs = []
    verdicts = []
    predictions = {}
    # Synthetic verdict pattern cycling through the four outcomes.
    pattern = [
        ("vulnerable", "benign"),
        ("vulnerable", "vulnerable"),
        ("benign", "benign"),
        ("benign", "vulnerable"),
        ("vulnerable", "benign"),
    ]
    for i, (pv_pred, pb_pred) in enumerate(pattern):
        vid, bid = f"v{i}", f"b{i}"
        functions += [
            {"id": vid, "code": f"int f{i}(void){{return {i};}}", "label": "vulnerable"},
            {"id": bid, "code": f"int g{i}(void){{return {i};}}", "label": "benign"},
        ]
        pairs.append({"pair_id": f"p{i}", "vulnerable_id": vid, "benign_id": bid})
        verdicts += [
            {"record": "verdict", "id": vid, "label": pv_pred},
            {"record": "verdict", "id": bid, "label": pb_pred},
        ]
        predictions[vid] = pv_pred
        predictions[bid] = pb_pred

    ds = tmp_path / "ds.jsonl"
    pr = tmp_path / "pairs.jsonl"
    vd = tmp_path / "verdicts.jsonl"
    report_path = tmp_path / "report.json"
    write_jsonl(ds, functions)
    write_jsonl(pr, pairs)
    write_jsonl(vd, verdicts)

    rc = main(
        [
            "evaluate",
            "--predictions",
            str(vd),
            "--dataset",
            str(ds),
            "--pairs",
            str(pr),
            "--out",
            str(report_path),
        ]
    )
    assert rc == 0
    report = json.loads(report_path.read_text())
    oracle = brute_force_report(
        predictions, [(p["vulnerable_id"], p["benign_id"]) for p in pairs], None
    )
    for key, expected in oracle.items():
        got = report["metrics"][key]
        assert got == pytest.approx(expected, abs=1e-12), key


def test_evaluate_with_baseline_reports_mcnemar(tmp_path, capsys):
    functions, pairs, verdicts_a, verdicts_b = [], [], [], []
    for i in range(8):
        vid, bid = f"v{i}", f"b{i}"
        functions += [
            {"id": vid, "code": "int x(void){return 0;}".replace("x", f"x{i}"), "label": "vulnerable"},
            {"id": bid, "code": "int y(void){return 0;}".replace("y", f"y{i}"), "label": "benign"},
        ]
        pairs.append({"pair_id": f"p{i}", "vulnerable_id": vid, "benign_id": bid})
        verdicts_a += [
            {"record": "verdict", "id": vid, "label": "vulnerable"},
            {"record": "verdict", "id": bid, "label": "benign"},
        ]
        verdicts_b += [
            {"record": "verdict", "id": vid, "label": "benign"},
            {"record": "verdict", "id": bid, "label": "benign"},
        ]
    ds, pr = tmp_path / "ds.jsonl", tmp_path / "pairs.jsonl"
    va, vb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    report_path = tmp_path / "report.json"
    for path, recs in ((ds, functions), (pr, pairs), (va, verdicts_a), (vb, verdicts_b)):
        write_jsonl(path, recs)
    rc = main(
        [
            "evaluate",
            "--predictions",
            str(va),
            "--dataset",
            str(ds),
            "--pairs",
            str(pr),
            "--baseline",
            str(vb),
            "--out",
            str(report_path),
        ]
    )
    assert rc == 0
    report = json.loads(report_path.read_text())
    # A beats B on the 8 vulnerable members, ties elsewhere: b=8, c=0.
    assert report["mcnemar"]["p_value"] == pytest.approx(2 * 0.5**8)
    assert "p<0.05" in report["mcnemar"]["significant_bands"]


def test_evaluate_rejects_mislabeled_pair_members(tmp_path, dataset_path):
    pairs_path = tmp_path / "pairs.jsonl"
    # copy_bytes is the vulnerable member but listed on the benign side.
    write_jsonl(
        pairs_path,
        [{"pair_id": "p", "vulnerable_id": "safe_add", "benign_id": "copy_bytes"}],
    )
    verdicts_path = tmp_path / "v.jsonl"
    write_jsonl(
        verdicts_path,
        [
            {"record": "verdict", "id": "copy_bytes", "label": "vulnerable"},
            {"record": "verdict", "id": "safe_add", "label": "benign"},
        ],
    )
    rc = main(
        [
            "evaluate",
            "--predictions",
            str(verdicts_path),
            "--dataset",
            str(dataset_path),
            "--pairs",
            str(pairs_path),
        ]
    )
    assert rc == 2


def test_evaluate_missing_prediction_is_data_error(tmp_path, dataset_path, capsys):
    pairs_path = tmp_path / "pairs.jsonl"
    write_jsonl(pairs_path, [{"pair_id": "p", "vulnerable_id": "copy_bytes", "benign_id": "ghost"}])
    verdicts_path = tmp_path / "v.jsonl"
    write_jsonl(verdicts_path, [{"record": "verdict", "id": "copy_bytes", "label": "vulnerable"}])
    rc = main(
        [
            "evaluate",
            "--predictions",
            str(verdicts_path),
            "--dataset",
            str(dataset_path),
            "--pairs",
            str(pairs_path),
        ]
    )
    assert rc == 2


def test_evaluate_baseline_missing_a_sampled_id_is_data_error(tmp_path, dataset_path, capsys):
    pairs_path = tmp_path / "pairs.jsonl"
    write_jsonl(pairs_path, [{"pair_id": "p", "vulnerable_id": "copy_bytes", "benign_id": "safe_add"}])
    verdicts_path = tmp_path / "v.jsonl"
    write_jsonl(
        verdicts_path,
        [
            {"record": "verdict", "id": "copy_bytes", "label": "vulnerable"},
            {"record": "verdict", "id": "safe_add", "label": "benign"},
        ],
    )
    baseline_path = tmp_path / "baseline.jsonl"
    write_jsonl(baseline_path, [{"record": "verdict", "id": "copy_bytes", "label": "benign"}])
    argv = ["evaluate", "--predictions", str(verdicts_path), "--dataset", str(dataset_path)]
    assert main(argv + ["--pairs", str(pairs_path), "--baseline", str(baseline_path)]) == 2
    assert "baseline lacks a prediction for 'safe_add'" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["maybe", "Vulnerable", 1])
def test_unknown_verdict_label_is_data_error(tmp_path, dataset_path, capsys, label):
    pairs_path = tmp_path / "pairs.jsonl"
    write_jsonl(pairs_path, [{"pair_id": "p", "vulnerable_id": "copy_bytes", "benign_id": "safe_add"}])
    verdicts_path = tmp_path / "v.jsonl"
    write_jsonl(
        verdicts_path,
        [
            {"record": "verdict", "id": "copy_bytes", "label": label},
            {"record": "verdict", "id": "safe_add", "label": "benign"},
        ],
    )
    with pytest.raises(DatasetFormatError, match="label"):
        load_verdicts(verdicts_path)
    argv = ["evaluate", "--predictions", str(verdicts_path), "--dataset", str(dataset_path)]
    assert main(argv + ["--pairs", str(pairs_path)]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("degraded_paths", "control"),
        ("degraded_paths", [1]),
        ("parse_failure", "false"),
        ("parse_failure", 0),
        ("prompt_hashes", [["judge", "ab"]]),
        ("prompt_hashes", {"judge": 5}),
        ("error", 7),
    ],
)
def test_mistyped_verdict_field_is_data_error(tmp_path, dataset_path, capsys, field, value):
    pairs_path = tmp_path / "pairs.jsonl"
    write_jsonl(pairs_path, [{"pair_id": "p", "vulnerable_id": "copy_bytes", "benign_id": "safe_add"}])
    verdicts_path = tmp_path / "v.jsonl"
    write_jsonl(
        verdicts_path,
        [
            {"record": "verdict", "id": "copy_bytes", "label": "vulnerable", field: value},
            {"record": "verdict", "id": "safe_add", "label": "benign"},
        ],
    )
    with pytest.raises(DatasetFormatError, match=field):
        load_verdicts(verdicts_path)
    argv = ["evaluate", "--predictions", str(verdicts_path), "--dataset", str(dataset_path)]
    assert main(argv + ["--pairs", str(pairs_path)]) == 2
    assert "data error" in capsys.readouterr().err


def test_resume_refuses_an_unknown_verdict_label(tmp_path, kb_path, dataset_path):
    out = tmp_path / "v.jsonl"
    argv = ["analyze", "--input", str(dataset_path), "--kb", str(kb_path), "--out", str(out)]
    assert main(argv) == 0
    data = out.read_bytes()
    assert data.count(b'"label": "benign"') == 1
    out.write_bytes(data.replace(b'"label": "benign"', b'"label": "maybe"'))
    before = out.read_bytes()
    assert main(argv) == 2
    assert out.read_bytes() == before


# -- config precedence --------------------------------------------------------


def test_flag_overrides_config_file_overrides_default(tmp_path, dataset_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"level": "B"}), encoding="utf-8")
    out = tmp_path / "ctx.jsonl"
    # File wins over the default C.
    main(
        [
            "extract-context",
            "--input",
            str(dataset_path),
            "--config",
            str(config_path),
            "--jsonl",
            "--out",
            str(out),
        ]
    )
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records[1]["level"] == "B"
    # Flag wins over the file.
    main(
        [
            "extract-context",
            "--input",
            str(dataset_path),
            "--config",
            str(config_path),
            "--level",
            "A",
            "--jsonl",
            "--out",
            str(out),
        ]
    )
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records[1]["level"] == "A"


def test_invalid_config_is_data_error(tmp_path, dataset_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"alpha": 3.0}), encoding="utf-8")
    rc = main(
        ["extract-context", "--input", str(dataset_path), "--config", str(config_path)]
    )
    assert rc == 2


@pytest.mark.parametrize(
    "payload",
    [
        {"k": "2"},
        {"validate": 1},
        {"fingerprint": "x"},
        {"alpha": True},
        {"llm": {"temperature": "0.7"}},
        {"llm": {"script_path": 3}},
    ],
    ids=["str-for-int", "method-name", "method-name-str", "bool-for-float", "str-for-float", "int-for-path"],
)
def test_wrong_type_or_name_in_config_is_data_error(tmp_path, dataset_path, capsys, payload):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(payload), encoding="utf-8")
    rc = main(["extract-context", "--input", str(dataset_path), "--config", str(config_path)])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "llm",
    [
        {"timeout": 0},
        {"timeout": -1},
        {"max_retries": 0},
        {"backoff_s": -0.5},
        {"max_in_flight": 0},
    ],
    ids=["zero-timeout", "negative-timeout", "no-retries", "negative-backoff", "no-in-flight"],
)
def test_out_of_range_llm_setting_is_data_error(tmp_path, dataset_path, capsys, llm):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"llm": llm}), encoding="utf-8")
    rc = main(["extract-context", "--input", str(dataset_path), "--config", str(config_path)])
    assert rc == 2
    assert f"llm.{next(iter(llm))}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "script",
    [
        [1, 2],
        {"rules": {"match": "x"}},
        {"rules": [{"response": "x"}]},
        {"rules": [{"match": "x"}]},
        {"rules": ["x"]},
    ],
    ids=["not-object", "rules-not-list", "no-match", "no-response", "rule-not-object"],
)
def test_malformed_script_file_is_data_error(tmp_path, kb_path, dataset_path, capsys, script):
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(script), encoding="utf-8")
    config_path = tmp_path / "config.json"
    config = {"llm": {"script_path": str(script_path)}}
    config_path.write_text(json.dumps(config), encoding="utf-8")
    rc = main(
        [
            "analyze",
            "--input",
            str(dataset_path),
            "--kb",
            str(kb_path),
            "--out",
            str(tmp_path / "v.jsonl"),
            "--config",
            str(config_path),
        ]
    )
    assert rc == 2
    assert str(script_path) in capsys.readouterr().err


def test_int_for_float_setting_still_loads(tmp_path, dataset_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"alpha": 1}), encoding="utf-8")
    out = tmp_path / "ctx.jsonl"
    argv = ["extract-context", "--input", str(dataset_path), "--config", str(config_path)]
    assert main(argv + ["--jsonl", "--out", str(out)]) == 0
    meta = json.loads(out.read_text().splitlines()[0])
    assert meta["config"]["alpha"] == 1


def test_equal_float_settings_fingerprint_equally(tmp_path):
    path = tmp_path / "config.json"

    def fingerprint(payload):
        path.write_text(json.dumps(payload), encoding="utf-8")
        return load_config(path).fingerprint()

    assert fingerprint({"alpha": 1}) == fingerprint({"alpha": 1.0})
    assert fingerprint({"llm": {"timeout": 300}}) == load_config().fingerprint()
    with pytest.raises(ConfigError, match="wrong type"):  # past the largest float
        fingerprint({"llm": {"timeout": 10**400}})


@pytest.mark.parametrize("field", [{"code": 123}, {"language": 7}], ids=["code", "language"])
def test_wrong_type_in_dataset_record_is_data_error(tmp_path, capsys, field):
    path = tmp_path / "functions.jsonl"
    write_jsonl(path, [{"id": "f", "code": "void f(){}", **field}])
    assert main(["extract-context", "--input", str(path)]) == 2
    assert "data error" in capsys.readouterr().err


def test_line_separator_inside_a_string_stays_in_its_record(tmp_path):
    path = tmp_path / "functions.jsonl"
    code = "int f(void) { /* a\u2028b */ return 0; }"  # U+2028 LINE SEPARATOR
    write_jsonl(path, [{"id": "f", "code": code}])
    assert [fn.code for fn in load_functions(path)] == [code]
