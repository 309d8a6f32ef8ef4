import os

import numpy as np
import pytest

from sentibert.checkpoint import save_checkpoint
from sentibert.data import LabeledExample, write_jsonl
from sentibert.encoder import EncoderConfig
from sentibert.errors import DataError
from sentibert.fileio import atomic_open, parse_json
from sentibert.model import SentimentModel
from sentibert.tokenizer import build_vocab


def _only_file(directory):
    assert os.listdir(directory) == ["out"], "a temp file was left behind"


class TestAtomicOpen:
    def test_replaces_content_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out"
        path.write_bytes(b"old")
        with atomic_open(str(path)) as fh:
            fh.write("new\n")
        assert path.read_bytes() == b"new\n"
        _only_file(tmp_path)

    def test_creates_missing_file(self, tmp_path):
        with atomic_open(str(tmp_path / "out"), binary=True) as fh:
            fh.write(b"\x00\x01")
        assert (tmp_path / "out").read_bytes() == b"\x00\x01"
        _only_file(tmp_path)

    def test_raise_mid_write_keeps_previous_bytes(self, tmp_path):
        path = tmp_path / "out"
        path.write_bytes(b"previous")
        with pytest.raises(RuntimeError):
            with atomic_open(str(path)) as fh:
                fh.write("partial")
                fh.flush()
                raise RuntimeError("interrupted")
        assert path.read_bytes() == b"previous"
        _only_file(tmp_path)

    def test_failure_names_the_target_not_the_temp_file(self, tmp_path):
        missing = str(tmp_path / "no" / "out")
        with pytest.raises(FileNotFoundError) as info:
            with atomic_open(missing):
                pass
        assert info.value.filename == missing and ".tmp" not in str(info.value)
        with pytest.raises(IsADirectoryError) as info:  # replacing a directory fails after the write
            with atomic_open(str(tmp_path)) as fh:
                fh.write("x")
        assert info.value.filename == str(tmp_path) and ".tmp" not in str(info.value)
        assert not list(tmp_path.parent.glob(f".{tmp_path.name}.*.tmp")), "a temp file was left behind"


def test_parse_json_names_where_and_catches_deep_nesting():
    assert parse_json('{"a": [1]}', "f") == {"a": [1]}
    with pytest.raises(DataError, match=r"^f: line 3: invalid JSON \(Expecting value"):
        parse_json("[1, ", "f: line 3")
    with pytest.raises(DataError, match=r"^f: JSON nested too deeply to parse$"):
        parse_json("[" * 100_000, "f")


def test_write_jsonl_failing_mid_way_keeps_previous_file(tmp_path):
    path = tmp_path / "out"
    path.write_bytes(b"previous")
    records = [LabeledExample("fine", 1), LabeledExample(object(), 0)]  # the second is not JSON
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
