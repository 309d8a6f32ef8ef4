import json
import re

import numpy as np
import pytest

from sentibert.data import (
    LABELS,
    LabeledExample,
    ingest,
    read_corpus,
    write_corpus,
    write_jsonl,
)
from sentibert.errors import DataError


class TestJsonlIngest:
    def test_two_line_fixture(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            '{"text": "great stay", "label": "positive"}\n'
            '{"text": "never again", "label": "negative"}\n',
            encoding="utf-8",
        )
        got = ingest(str(path), "jsonl")
        assert got == [LabeledExample("great stay", 2), LabeledExample("never again", 0)]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="empty"):
            ingest(str(path), "jsonl")

    def test_wrong_case_label_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            '{"text": "ok", "label": "neutral"}\n{"text": "bad case", "label": "Positive"}\n',
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="line 2"):
            ingest(str(path), "jsonl")

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"text": "ok", "label": "neutral"}\nnot json\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            ingest(str(path), "jsonl")

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"text": "no label"}\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 1"):
            ingest(str(path), "jsonl")

    @pytest.mark.parametrize("label", ['["positive"]', '{"x": 1}', "2", "true", "null"])
    def test_label_that_is_not_a_string_names_line(self, tmp_path, label):
        path = tmp_path / "data.jsonl"
        lines = ['{"text": "ok", "label": "neutral"}', '{"text": "nice room", "label": %s}' % label]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"{path}: line 2: unknown label"):
            ingest(str(path), "jsonl")

    def test_text_that_is_a_number_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"text": "ok", "label": "neutral"}\n{"text": 5, "label": "neutral"}\n', encoding="utf-8")
        with pytest.raises(DataError, match='line 2: "text" must be a string'):
            ingest(str(path), "jsonl")

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        lines = ["", '{"text": "fine", "label": "positive"}', "  ", "", '{"text": "meh", "label": "neutral"}']
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert ingest(str(path), "jsonl") == [LabeledExample("fine", 2), LabeledExample("meh", 1)]

    def test_round_trip(self, tmp_path):
        examples = [LabeledExample("a, quoted \"text\"", 0), LabeledExample("", 1)]
        path = tmp_path / "out.jsonl"
        write_jsonl(examples, str(path))
        assert ingest(str(path), "jsonl") == examples


class TestCsvIngest:
    def test_basic(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('text,label\n"room, with comma",neutral\nfine,positive\n', encoding="utf-8")
        got = ingest(str(path), "csv")
        assert got == [LabeledExample("room, with comma", 1), LabeledExample("fine", 2)]

    def test_blank_rows_are_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("text,label\n\nfine,positive\n\n\nmeh,neutral\n", encoding="utf-8")
        assert ingest(str(path), "csv") == [LabeledExample("fine", 2), LabeledExample("meh", 1)]

    def test_header_only_file_has_no_records(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("text,label\n\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: no records found (empty dataset)")):
            ingest(str(path), "csv")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("body,sentiment\nx,positive\n", encoding="utf-8")
        with pytest.raises(DataError, match="header"):
            ingest(str(path), "csv")

    def test_unknown_label_names_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("text,label\nfine,positive\nx,meh\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 3"):
            ingest(str(path), "csv")

    def test_round_trip_through_csv_text(self, tmp_path):
        examples = [LabeledExample('tricky, "quoted"', 0), LabeledExample("plain", 2)]
        path = tmp_path / "out.csv"
        path.write_text('text,label\n"tricky, ""quoted""",negative\nplain,positive\n', encoding="utf-8")
        assert ingest(str(path), "csv") == examples

    def test_line_numbers_count_the_lines_of_quoted_newlines(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('text,label\n"two\nlines",positive\nx,meh\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 4: unknown label"):
            ingest(str(path), "csv")

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "data.xml"
        path.write_text("x", encoding="utf-8")
        with pytest.raises(DataError, match="format"):
            ingest(str(path), "xml")


class TestCorpus:
    def test_documents_split_on_blank_lines(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("a one\na two\n\nb one\nb two\nb three\n", encoding="utf-8")
        assert read_corpus(str(path)) == [["a one", "a two"], ["b one", "b two", "b three"]]

    def test_round_trip(self, tmp_path):
        docs = [["first doc s1", "first doc s2"], ["second s1", "second s2"]]
        path = tmp_path / "corpus.txt"
        write_corpus(docs, str(path))
        assert read_corpus(str(path)) == docs

    def test_empty_corpus(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("\n\n\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_corpus(str(path))


def test_label_universe():
    assert LABELS == ("negative", "neutral", "positive")
    with pytest.raises(DataError):
        LabeledExample("x", 3)


@pytest.mark.parametrize("text", [5, None, b"bytes", ["a list"]])
def test_text_that_is_not_a_string_rejected_naming_the_field(text):
    with pytest.raises(DataError, match=f'"text" must be a string, got {type(text).__name__}'):
        LabeledExample(text, 1)


@pytest.mark.parametrize("label", [1.5, 1.0, "1", True])
def test_label_that_is_not_an_integer_rejected_naming_it(label):
    with pytest.raises(DataError, match=re.escape(f"label index {label!r} outside 0..2")):
        LabeledExample("x", label)
    assert LabeledExample("x", np.int64(1)).label == 1
