"""Labeled sentiment records, dataset file ingestion, and corpus I/O."""

import csv
import io
import json
from dataclasses import dataclass

from .errors import DataError
from .fileio import atomic_open, read_text

LABELS = ("negative", "neutral", "positive")
LABEL_TO_INDEX = {name: i for i, name in enumerate(LABELS)}
NUM_CLASSES = len(LABELS)


@dataclass(frozen=True)
class LabeledExample:
    text: str
    label: int  # index into LABELS

    def __post_init__(self):
        if not 0 <= self.label < NUM_CLASSES:
            raise DataError(f"label index {self.label} outside 0..{NUM_CLASSES - 1}")


def _parse_label(raw, line_no: int) -> int:
    # labels are case-sensitive on purpose; "Positive" is a data bug, not a synonym
    if raw not in LABEL_TO_INDEX:
        raise DataError(f"line {line_no}: unknown label {raw!r} (expected one of {list(LABELS)})")
    return LABEL_TO_INDEX[raw]


def _ingest_jsonl(fh) -> list[LabeledExample]:
    examples = []
    for line_no, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
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
    try:
        header = next(reader)
    except StopIteration:
        return []
    if header != ["text", "label"]:
        raise DataError(f"line 1: expected CSV header 'text,label', got {','.join(header)!r}")
    examples = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise DataError(f"line {line_no}: expected 2 fields, got {len(row)}")
        examples.append(LabeledExample(row[0], _parse_label(row[1], line_no)))
    return examples


def ingest(path: str, fmt: str) -> list[LabeledExample]:
    """Read a labeled dataset from a jsonl or csv file; empty datasets are errors."""
    if fmt not in ("jsonl", "csv"):
        raise DataError(f"unknown dataset format {fmt!r} (expected 'jsonl' or 'csv')")
    fh = read_text(path, newline="")
    try:
        examples = _ingest_jsonl(fh) if fmt == "jsonl" else _ingest_csv(fh)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if not examples:
        raise DataError(f"{path}: no records found (empty dataset)")
    return examples


def write_jsonl(examples: list[LabeledExample], path: str) -> None:
    with atomic_open(path) as fh:
        for ex in examples:
            fh.write(json.dumps({"text": ex.text, "label": LABELS[ex.label]}, sort_keys=True))
            fh.write("\n")


def dataset_to_csv(examples: list[LabeledExample]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["text", "label"])
    for ex in examples:
        writer.writerow([ex.text, LABELS[ex.label]])
    return buf.getvalue()


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
    with atomic_open(path) as fh:
        fh.write("\n\n".join("\n".join(doc) for doc in documents))
        fh.write("\n")
