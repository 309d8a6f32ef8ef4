import os
import re
from pathlib import Path

import numpy as np
import pytest

from sentibert.checkpoint import save_checkpoint
from sentibert.data import LabeledExample, write_jsonl
from sentibert.encoder import EncoderConfig
from sentibert.errors import DataError
from sentibert.fileio import parse_json, write_file
from sentibert.model import SentimentModel
from sentibert.tokenizer import build_vocab


def _only_file(directory):
    assert os.listdir(directory) == ["out"], "a temp file was left behind"


class TestAtomicOpen:
    """write_file: the atomic open-write-replace that every output goes through."""

    def test_replaces_content_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out"
        path.write_bytes(b"old")
        write_file(str(path), "new\r\n\u00e9\n")  # UTF-8, newlines as given
        assert path.read_bytes() == b"new\r\n\xc3\xa9\n"
        _only_file(tmp_path)

    def test_creates_missing_file(self, tmp_path):
        write_file(str(tmp_path / "out"), b"\x00\x01")
        assert (tmp_path / "out").read_bytes() == b"\x00\x01"
        _only_file(tmp_path)

    def test_raise_mid_write_keeps_previous_bytes(self, tmp_path, monkeypatch):
        path = tmp_path / "out"
        path.write_bytes(b"previous")
        with pytest.raises(UnicodeEncodeError):  # a payload that cannot be encoded touches no file
            write_file(str(path), "bad \ud800")

        def interrupted(src, dst):
            assert Path(src).read_bytes() == b"partial"  # the temp file was written, then is dropped
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            write_file(str(path), b"partial")
        assert path.read_bytes() == b"previous"
        _only_file(tmp_path)

    def test_failure_names_the_target_not_the_temp_file(self, tmp_path):
        missing = str(tmp_path / "no" / "out")
        with pytest.raises(FileNotFoundError) as info:
            write_file(missing, "")
        assert info.value.filename == missing and ".tmp" not in str(info.value)
        with pytest.raises(IsADirectoryError) as info:  # replacing a directory fails after the write
            write_file(str(tmp_path), "x")
        assert info.value.filename == str(tmp_path) and ".tmp" not in str(info.value)
        assert not list(tmp_path.parent.glob(f".{tmp_path.name}.*.tmp")), "a temp file was left behind"


def test_parse_json_names_where_and_catches_deep_nesting():
    assert parse_json('{"a": [1]}', "f") == {"a": [1]}
    with pytest.raises(DataError, match=r"^f: line 3: invalid JSON \(Expecting value"):
        parse_json("[1, ", "f: line 3")
    with pytest.raises(DataError, match=r"^f: invalid JSON \(Exceeds the limit"):
        parse_json("1" * 5000, "f")  # past int()'s digit limit: a ValueError that is no JSONDecodeError
    with pytest.raises(DataError, match=r"^f: JSON nested too deeply to parse$"):
        parse_json("[" * 100_000, "f")


def test_write_jsonl_failing_mid_way_keeps_previous_file(tmp_path):
    path = tmp_path / "out"
    path.write_bytes(b"previous")
    bad = LabeledExample("not JSON", 0)
    object.__setattr__(bad, "text", object())  # past the constructor's str check: the second record is not JSON
    records = [LabeledExample("fine", 1), bad]
    with pytest.raises(TypeError):
        write_jsonl(records, str(path))
    assert path.read_bytes() == b"previous"
    _only_file(tmp_path)


def test_save_checkpoint_failing_mid_way_keeps_previous_file(tmp_path):
    config = EncoderConfig(num_layers=1, num_heads=1, d_model=4, d_ff=4, max_len=6)
    model = SentimentModel.init(build_vocab(["a b"], 10), config, seed=0)
    path = tmp_path / "out"
    path.write_bytes(b"previous")
    model.params["nsp.bias"].data = np.array(["x", "y"])  # written after the header and the other tensors
    with pytest.raises(ValueError):
        save_checkpoint(model, str(path))
    assert path.read_bytes() == b"previous"
    _only_file(tmp_path)


def test_only_fileio_writes_files():
    """Every file the package writes goes through fileio.write_file: no other
    module opens a file to write, append or create, or writes one another way."""
    package = Path(__file__).resolve().parents[1] / "src" / "sentibert"
    writing_open = re.compile(r"\bopen\([^)]*[\"'][rbt]*[wxa+][rwxabt+]*[\"']")  # a mode that writes
    found = []
    for source in sorted(package.glob("*.py")):
        if source.name == "fileio.py":
            continue
        for line_no, line in enumerate(source.read_text(encoding="utf-8").splitlines(), start=1):
            if writing_open.search(line) or re.search(r"\.write_(text|bytes)\(|atomic_open", line):
                found.append(f"{source.name}:{line_no}: {line.strip()}")
    assert not found, "\n".join(found)
