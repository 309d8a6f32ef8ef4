import os

import numpy as np
import pytest

from sentibert.checkpoint import save_checkpoint
from sentibert.data import LabeledExample, write_jsonl
from sentibert.encoder import EncoderConfig
from sentibert.fileio import atomic_open
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
    model.nsp_b.data = np.array(["x", "y"])  # written after the header and the other tensors
    with pytest.raises(ValueError):
        save_checkpoint(model, str(path))
    assert path.read_bytes() == b"previous"
    _only_file(tmp_path)
