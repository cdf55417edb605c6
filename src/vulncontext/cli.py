"""Command-line interface: build-kb, extract-context, analyze, evaluate.

Exit codes: 0 success, 1 usage error, 2 data error, 3 backend error (a
function whose judgment call failed, recorded by ``analyze``).
Every machine-readable output artifact embeds the tool version and a
fingerprint of the effective configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .config import RunConfig, build_client, load_config
from .datasets import jsonl_line, load_functions, load_pairs, load_verdicts, open_output
from .errors import (
    ConfigError,
    CorpusFormatError,
    DatasetFormatError,
    MissingPredictionError,
    SourceSyntaxError,
    UnsupportedLanguageError,
    VulnContextError,
)
from .evaluation import (
    classify_pair,
    compute_metrics,
    mcnemar_exact,
    sample_pairs,
    tally_outcomes,
)
from .knowledge import KnowledgeIndex, ReferenceEncoder, build_knowledge_base, load_cwe_corpus
from .pipeline import run_triage
from .structure import generate_structural_context

USAGE_EXIT = 1
DATA_EXIT = 2
BACKEND_EXIT = 3

_DATA_ERRORS = (
    DatasetFormatError,
    CorpusFormatError,
    ConfigError,
    MissingPredictionError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def _fraction(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value <= 1:  # also false for nan
        raise argparse.ArgumentTypeError(f"expected a number in (0, 1], got {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="vulncontext",
        description="Context-augmented LLM vulnerability triage pipeline.",
    )
    parser.add_argument("--version", action="version", version=f"vulncontext {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    kb = sub.add_parser(
        "build-kb",
        parents=[],
        help="index a CWE export for retrieval",
        description="Parse a CWE list export (XML or CSV) and build the retrieval index.",
    )
    kb.add_argument("--corpus", required=True, help="path to the CWE export file")
    kb.add_argument("--out", required=True, help="path for the index file")
    kb.add_argument(
        "--encoder-dim", type=_positive_int, default=64, help="dense vector dimension"
    )
    kb.add_argument("--encoder-seed", type=int, default=0, help="encoder projection seed")
    kb.add_argument("--config", default=None, help="JSON config file")

    ec = sub.add_parser(
        "extract-context",
        help="verbalize structural context for each function",
        description=(
            "Emit one structural context per input function. Default output is "
            "human-readable blocks; --jsonl switches to one JSON record per line."
        ),
    )
    ec.add_argument("--input", required=True, help="JSONL dataset of function records")
    ec.add_argument("--level", choices=["A", "B", "C"], default=None, help="granularity level")
    ec.add_argument("--out", default=None, help="output path (default stdout)")
    ec.add_argument("--jsonl", action="store_true", help="machine-readable framing")
    ec.add_argument("--config", default=None, help="JSON config file")

    an = sub.add_parser(
        "analyze",
        help="run the full triage pipeline over a dataset",
        description="Produce one verdict record per function (JSONL, resumable).",
    )
    an.add_argument("--input", required=True, help="JSONL dataset of function records")
    an.add_argument("--kb", required=True, help="knowledge index path")
    an.add_argument("--out", required=True, help="verdicts output path (JSONL)")
    an.add_argument("--level", choices=["A", "B", "C"], default=None)
    an.add_argument("--config", default=None, help="JSON config file")
    an.add_argument("--workers", type=_positive_int, default=None, help="concurrent functions")
    an.add_argument(
        "--no-resume", action="store_true", help="start the output file over instead of resuming"
    )

    ev = sub.add_parser(
        "evaluate",
        help="score verdicts against a paired dataset",
        description="Compute pair outcomes and the derived metric table.",
    )
    ev.add_argument("--predictions", required=True, help="verdicts file from analyze")
    ev.add_argument("--dataset", required=True, help="JSONL dataset with ground-truth labels")
    ev.add_argument("--pairs", required=True, help="pair manifest (JSONL)")
    ev.add_argument("--baseline", default=None, help="second verdicts file for McNemar")
    ev.add_argument("--out", default=None, help="write the machine-readable report here")
    ev.add_argument(
        "--sample-fraction", type=_fraction, default=1.0, help="seeded pair sampling, in (0, 1]"
    )
    ev.add_argument("--seed", type=int, default=None, help="sampling seed")
    ev.add_argument("--config", default=None, help="JSON config file")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return USAGE_EXIT
    try:
        handler = {
            "build-kb": _cmd_build_kb,
            "extract-context": _cmd_extract_context,
            "analyze": _cmd_analyze,
            "evaluate": _cmd_evaluate,
        }[args.command]
        return handler(args)
    except _DATA_ERRORS as exc:
        print(f"vulncontext: data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except VulnContextError as exc:
        print(f"vulncontext: error: {exc}", file=sys.stderr)
        return DATA_EXIT


def _config_from(args, **overrides) -> RunConfig:
    return load_config(getattr(args, "config", None), overrides=overrides)


def _cmd_build_kb(args) -> int:
    config = _config_from(args)
    entries = load_cwe_corpus(args.corpus)
    encoder = ReferenceEncoder(dim=args.encoder_dim, seed=args.encoder_seed)
    index = build_knowledge_base(entries, encoder=encoder)
    index.save(args.out, meta=config.meta())
    print(f"indexed {len(index)} weakness entries -> {args.out}")
    return 0


def _cmd_extract_context(args) -> int:
    config = _config_from(args, level=args.level)
    functions = load_functions(args.input)
    level = config.level_enum

    out_handle = open_output(args.out) if args.out else sys.stdout
    had_errors = False
    try:
        if args.jsonl:
            out_handle.write(jsonl_line({"record": "meta", **config.meta()}))
        for fn in functions:
            record = {"record": "context", "id": fn.id, "level": level.value}
            try:
                context = generate_structural_context(fn, level)
                record.update(
                    t_ast=context.t_ast,
                    t_cfg=context.t_cfg,
                    t_dfg=context.t_dfg,
                    context=context.s,
                )
            except (SourceSyntaxError, UnsupportedLanguageError) as exc:
                had_errors = True
                record["error"] = str(exc)
            if args.jsonl:
                out_handle.write(jsonl_line(record))
            else:
                body = f"error: {record['error']}" if "error" in record else record["context"]
                out_handle.write(f"=== {fn.id} (level {level.value}) ===\n{body}\n\n")
    finally:
        if args.out:
            out_handle.close()
    return DATA_EXIT if had_errors else 0


def _cmd_analyze(args) -> int:
    config = _config_from(args, level=args.level, concurrency=args.workers)
    functions = load_functions(args.input)
    index = KnowledgeIndex.load(args.kb)
    client = build_client(config)
    summary = run_triage(
        functions,
        index,
        client,
        out_path=args.out,
        level=config.level_enum,
        alpha=config.alpha,
        k=config.k,
        max_entries=config.max_entries,
        workers=config.concurrency,
        meta=config.meta(),
        resume=not args.no_resume,
    )
    runinfo_path = Path(args.out).with_suffix(Path(args.out).suffix + ".runinfo.json")
    with open_output(runinfo_path) as handle:
        handle.write(
            json.dumps({**config.meta(), **summary}, ensure_ascii=False, sort_keys=True, indent=2)
        )
    print(
        f"analyzed {summary['processed']} functions "
        f"({summary['skipped']} resumed, {len(summary['failures'])} failures) -> {args.out}"
    )
    if summary["failures"]:
        for failure in summary["failures"]:
            print(f"  judgment failed for {failure['id']}: {failure['error']}", file=sys.stderr)
        return BACKEND_EXIT
    return 0


def _fmt(value: float | None) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "n/a"
    return f"{value:.4f}"


def _cmd_evaluate(args) -> int:
    config = _config_from(args, seed=args.seed)
    verdicts = load_verdicts(args.predictions)
    functions = {fn.id: fn for fn in load_functions(args.dataset)}
    pairs = load_pairs(args.pairs)

    sampled = sample_pairs(pairs, args.sample_fraction, config.seed)

    for pair in sampled:
        for fid, expected in (
            (pair.vulnerable_id, "vulnerable"),
            (pair.benign_id, "benign"),
        ):
            fn = functions.get(fid)
            if fn is None:
                raise DatasetFormatError(f"pair {pair.pair_id}: unknown function {fid!r}")
            if fn.label != expected:
                raise DatasetFormatError(
                    f"pair {pair.pair_id}: {fid!r} is labeled {fn.label!r}, expected {expected!r}"
                )

    outcomes = []
    flagged: list[dict] = []
    scored: list[tuple[str, str, str]] = []  # (id, effective label, truth) per pair member
    for pair in sampled:
        record_v = verdicts.get(pair.vulnerable_id)
        record_b = verdicts.get(pair.benign_id)
        if record_v is None or record_b is None:
            missing = pair.vulnerable_id if record_v is None else pair.benign_id
            raise MissingPredictionError(f"no prediction recorded for {missing!r}")
        pred_v, flag_v = _effective_label(record_v)
        pred_b, flag_b = _effective_label(record_b)
        if flag_v or flag_b:
            flagged.append(
                {
                    "pair_id": pair.pair_id,
                    "reasons": sorted(set(flag_v + flag_b)),
                }
            )
        outcomes.append(classify_pair(pred_v, pred_b))
        scored += [(pair.vulnerable_id, pred_v, "vulnerable"), (pair.benign_id, pred_b, "benign")]

    pc, pv, pb, pr = tally_outcomes(outcomes)
    report = compute_metrics(pc, pv, pb, pr)

    table = report.as_dict()
    header = "  ".join(f"{k:>6}" for k in table)
    values = "  ".join(
        f"{v:>6}" if isinstance(v, int) else f"{_fmt(v):>6}" for v in table.values()
    )
    print(f"pairs evaluated: {report.pairs} (of {len(pairs)})")
    print(header)
    print(values)
    if flagged:
        print(f"flagged pairs (degraded or failed predictions): {len(flagged)}")

    payload = {
        **config.meta(),
        "pairs_total": len(pairs),
        "pairs_evaluated": report.pairs,
        "sample_fraction": args.sample_fraction,
        "sample_seed": config.seed,
        "metrics": table,
        "flagged_pairs": flagged,
    }

    if args.baseline:
        baseline = load_verdicts(args.baseline)
        preds_b = []
        for fid, _, _ in scored:
            if fid not in baseline:
                raise MissingPredictionError(f"baseline lacks a prediction for {fid!r}")
            preds_b.append(_effective_label(baseline[fid])[0])
        p_value = mcnemar_exact([pred for _, pred, _ in scored], preds_b, [truth for _, _, truth in scored])
        bands = [band for band, cut in (("p<0.001", 1e-3), ("p<0.05", 0.05)) if p_value < cut]
        print(f"McNemar exact p-value vs baseline: {p_value:.6g}" + (f" ({bands[0]})" if bands else ""))
        payload["mcnemar"] = {"p_value": p_value, "significant_bands": bands}

    if args.out:
        with open_output(args.out) as handle:
            handle.write(json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2))
    return 0


def _effective_label(record) -> tuple[str, list[str]]:
    """Resolve a verdict record to a label, flagging degraded forms.

    Parse failures and outright judgment failures count as benign, the
    conservative default, and mark the pair in the report.
    """
    flags: list[str] = []
    if record.error:
        flags.append("judgment-failed")
    if record.parse_failure:
        flags.append("verdict-parse-failure")
    return record.label or "benign", flags


if __name__ == "__main__":
    sys.exit(main())
