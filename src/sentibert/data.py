"""Labeled sentiment records, dataset file ingestion, and corpus I/O."""

import csv
import json
from dataclasses import dataclass

from .errors import DataError, is_int
from .fileio import parse_json, read_text, write_file

LABELS = ("negative", "neutral", "positive")
LABEL_TO_INDEX = {name: i for i, name in enumerate(LABELS)}
NUM_CLASSES = len(LABELS)


@dataclass(frozen=True)
class LabeledExample:
    text: str
    label: int  # index into LABELS

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise DataError(f'"text" must be a string, got {type(self.text).__name__}')
        if not is_int(self.label) or not 0 <= self.label < NUM_CLASSES:
            raise DataError(f"label index {self.label!r} outside 0..{NUM_CLASSES - 1}")


def _parse_label(raw, line_no: int) -> int:
    # labels are case-sensitive on purpose; "Positive" is a data bug, not a synonym
    if not isinstance(raw, str) or raw not in LABEL_TO_INDEX:  # a list or dict label is unhashable
        raise DataError(f"line {line_no}: unknown label {raw!r} (expected one of {list(LABELS)})")
    return LABEL_TO_INDEX[raw]


def _ingest_jsonl(fh) -> list[LabeledExample]:
    examples = []
    for line_no, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        record = parse_json(line, f"line {line_no}")
        if not isinstance(record, dict) or "text" not in record or "label" not in record:
            raise DataError(f'line {line_no}: record must be an object with "text" and "label"')
        if not isinstance(record["text"], str):
            raise DataError(f'line {line_no}: "text" must be a string')
        try:
            record["text"].encode("utf-8")
        except UnicodeEncodeError as exc:  # a lone surrogate escape such as "\ud800"
            raise DataError(f'line {line_no}: "text" is not valid Unicode ({exc.reason})') from exc
        examples.append(LabeledExample(record["text"], _parse_label(record["label"], line_no)))
    return examples


def _ingest_csv(fh) -> list[LabeledExample]:
    reader = csv.reader(fh)
    try:  # each row with the number of the line it ends on
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:  # a field longer than csv.field_size_limit(), say
        raise DataError(f"line {reader.line_num}: {exc}") from exc
    if not rows:
        return []
    if rows[0][1] != ["text", "label"]:
        raise DataError(f"line 1: expected CSV header 'text,label', got {','.join(rows[0][1])!r}")
    examples = []
    for line_no, row in rows[1:]:
        if not row:
            continue
        if len(row) != 2:
            raise DataError(f"line {line_no}: expected 2 fields, got {len(row)}")
        examples.append(LabeledExample(row[0], _parse_label(row[1], line_no)))
    return examples


# dataset format name -> its reader
FORMATS = {"jsonl": _ingest_jsonl, "csv": _ingest_csv}


def ingest(path: str, fmt: str) -> list[LabeledExample]:
    """Read a labeled dataset from a jsonl or csv file; empty datasets are errors."""
    if fmt not in FORMATS:
        raise DataError(f"unknown dataset format {fmt!r} (expected {' or '.join(map(repr, FORMATS))})")
    fh = read_text(path, newline="")
    try:
        examples = FORMATS[fmt](fh)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if not examples:
        raise DataError(f"{path}: no records found (empty dataset)")
    return examples


def write_jsonl(examples: list[LabeledExample], path: str) -> None:
    lines = (json.dumps({"text": ex.text, "label": LABELS[ex.label]}, sort_keys=True) + "\n" for ex in examples)
    write_file(path, "".join(lines))


def read_corpus(path: str) -> list[list[str]]:
    """Pretraining corpus: one sentence per line, blank line separates documents."""
    documents: list[list[str]] = []
    current: list[str] = []
    for line in read_text(path):
        sentence = line.strip()
        if sentence:
            current.append(sentence)
        elif current:
            documents.append(current)
            current = []
    if current:
        documents.append(current)
    if not documents:
        raise DataError(f"{path}: no sentences found (empty corpus)")
    return documents


def write_corpus(documents: list[list[str]], path: str) -> None:
    write_file(path, "\n\n".join("\n".join(doc) for doc in documents) + "\n")
