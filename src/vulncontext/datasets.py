"""Line-delimited file formats: function records, pair manifests, verdicts.

A dataset file carries one JSON object per line with fields ``id``, ``code``,
and optionally ``label`` (vulnerable | benign) and ``language`` (default c).
A pair manifest lists ``pair_id``, ``vulnerable_id``, ``benign_id`` per line,
making the pairing explicit and auditable.  Verdict files are produced by the
analyze step: a leading meta record, then one record per function.  This
module owns the verdict format: the ``Verdict`` type, its record, and the
reader that ``evaluate`` and resume share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DatasetFormatError
from .evaluation import PairRecord
from .graphs import VALID_LABELS, SourceFunction

__all__ = [
    "Verdict",
    "jsonl_line",
    "load_functions",
    "load_pairs",
    "load_verdicts",
    "open_output",
    "parse_verdicts",
    "verdict_record",
]


@dataclass
class Verdict:
    """One function's verdict; a failed judgment has no label and an error."""

    id: str
    label: str | None  # vulnerable | benign
    degraded_paths: frozenset[str] = frozenset()
    parse_failure: bool = False
    prompt_hashes: dict[str, str] = field(default_factory=dict)
    error: str | None = None


def verdict_record(v: Verdict) -> dict:
    """The verdict-file record: a failure carries ``error``, not ``prompt_hashes``."""
    record = {
        "record": "verdict",
        "id": v.id,
        "label": v.label,
        "degraded_paths": sorted(v.degraded_paths),
        "parse_failure": v.parse_failure,
    }
    if v.error is None:
        record["prompt_hashes"] = dict(v.prompt_hashes)
    else:
        record["error"] = v.error
    return record


def jsonl_line(record: dict) -> str:
    """One record as a line of the repository's byte-stable JSONL framing."""
    return json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n"


def _read_bytes(path: str | Path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}") from exc


def open_output(path: str | Path, mode: str = "w"):
    """Open an output file for UTF-8 text; failing to is a ``DatasetFormatError``."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise DatasetFormatError(f"cannot write {path}: {exc}") from exc


def _parse_jsonl(data: bytes, path: str | Path) -> list[dict]:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not UTF-8: {exc}") from exc
    records = []
    # Split on newlines only: str.splitlines would also break a line at an
    # unescaped U+2028 inside a string.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise DatasetFormatError(f"{path}:{lineno}: expected an object per line")
        records.append(record)
    return records


def _read_jsonl(path: str | Path) -> list[dict]:
    return _parse_jsonl(_read_bytes(path), path)


def load_functions(path: str | Path) -> list[SourceFunction]:
    functions: list[SourceFunction] = []
    seen: set[str] = set()
    for record in _read_jsonl(path):
        if record.get("record") == "meta":
            continue
        try:
            fn = SourceFunction(
                id=str(record["id"]),
                code=record["code"],
                language=record.get("language", "c"),
                label=record.get("label"),
            )
        except (KeyError, ValueError) as exc:
            raise DatasetFormatError(f"{path}: bad function record: {exc}") from exc
        if fn.id in seen:
            raise DatasetFormatError(f"{path}: duplicate function id {fn.id!r}")
        seen.add(fn.id)
        functions.append(fn)
    if not functions:
        raise DatasetFormatError(f"{path}: no function records")
    return functions


def load_pairs(path: str | Path) -> list[PairRecord]:
    pairs: list[PairRecord] = []
    for record in _read_jsonl(path):
        if record.get("record") == "meta":
            continue
        try:
            pairs.append(
                PairRecord(
                    pair_id=str(record["pair_id"]),
                    vulnerable_id=str(record["vulnerable_id"]),
                    benign_id=str(record["benign_id"]),
                )
            )
        except KeyError as exc:
            raise DatasetFormatError(f"{path}: bad pair record: missing {exc}") from exc
    if not pairs:
        raise DatasetFormatError(f"{path}: no pair records")
    return pairs


def parse_verdicts(data: bytes, path: str | Path) -> dict[str, Verdict]:
    """The verdict records in ``data`` (the bytes of ``path``), by id."""
    verdicts: dict[str, Verdict] = {}
    for record in _parse_jsonl(data, path):
        if record.get("record") not in (None, "verdict"):
            continue
        degraded = record.get("degraded_paths", [])
        if not (isinstance(degraded, list) and set(map(type, degraded)) <= {str}):
            raise DatasetFormatError(f"{path}: verdict degraded_paths must be a list of strings")
        parse_failure = record.get("parse_failure", False)
        if type(parse_failure) is not bool:
            raise DatasetFormatError(f"{path}: verdict parse_failure must be true or false")
        hashes = record.get("prompt_hashes", {})
        if not (isinstance(hashes, dict) and set(map(type, hashes.values())) <= {str}):
            raise DatasetFormatError(f"{path}: verdict prompt_hashes must be an object of strings")
        error = record.get("error")
        if not (error is None or isinstance(error, str)):
            raise DatasetFormatError(f"{path}: verdict error must be a string or null")
        try:
            verdict = Verdict(
                id=str(record["id"]),
                label=record.get("label"),
                degraded_paths=frozenset(degraded),
                parse_failure=parse_failure,
                prompt_hashes=hashes,
                error=error,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetFormatError(f"{path}: bad verdict record: {exc!r}") from exc
        if verdict.label is not None and verdict.label not in VALID_LABELS:
            raise DatasetFormatError(f"{path}: verdict {verdict.id!r} has unknown label {verdict.label!r}")
        verdicts[verdict.id] = verdict
    return verdicts


def load_verdicts(path: str | Path) -> dict[str, Verdict]:
    verdicts = parse_verdicts(_read_bytes(path), path)
    if not verdicts:
        raise DatasetFormatError(f"{path}: no verdict records")
    return verdicts
