import json
import struct

import numpy as np
import pytest

from sentibert.checkpoint import load_checkpoint, save_checkpoint
from sentibert.classify import evaluate, predict_batch
from sentibert.encoder import EncoderConfig
from sentibert.errors import CheckpointError
from sentibert.model import SentimentModel
from sentibert.synthetic import generate_dataset
from sentibert.tokenizer import build_vocab

CONFIG = EncoderConfig(num_layers=1, num_heads=2, d_model=16, d_ff=32, max_len=12, dropout_rate=0.1)


@pytest.fixture(scope="module")
def model():
    data = generate_dataset((10, 10, 10), seed=2)
    vocab = build_vocab([ex.text for ex in data], 300)
    return SentimentModel.init(vocab, CONFIG, seed=5)


def _rewrite_header(path, mutate):
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<I", blob[:4])
    header = json.loads(blob[4 : 4 + header_len])
    mutate(header)
    new_header = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(struct.pack("<I", len(new_header)) + new_header + blob[4 + header_len :])


class TestRoundTrip:
    def test_parameters_within_float32_step(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, str(path))
        loaded = load_checkpoint(str(path))
        for name, t in model.named_parameters().items():
            other = loaded.named_parameters()[name]
            assert np.max(np.abs(t.data - other.data)) < 1e-6, name

    def test_vocab_and_config_survive(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, str(path))
        loaded = load_checkpoint(str(path))
        assert loaded.vocab.tokens() == model.vocab.tokens()
        assert loaded.config == model.config
        assert loaded.seed == model.seed
        assert loaded.labels == model.labels

    def test_save_is_deterministic(self, model, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, str(a))
        save_checkpoint(model, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_evaluation_drift_under_1e4(self, model, tmp_path):
        data = generate_dataset((15, 15, 15), seed=4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, str(path))
        loaded = load_checkpoint(str(path))
        rep_a, _ = evaluate(model, data)
        rep_b, _ = evaluate(loaded, data)
        assert abs(rep_a.accuracy - rep_b.accuracy) < 1e-4
        assert abs(rep_a.log_loss - rep_b.log_loss) < 1e-4


def _write_v1(model, path):
    """A format-1 file: each layer's wqkv stored as per-head wq/wk/wv."""
    cfg = model.config
    arrays = {}
    for name, t in model.named_parameters().items():
        if not name.endswith(".wqkv"):
            arrays[name] = t.data
            continue
        prefix = name.removesuffix(".wqkv")
        for p, part in enumerate("qkv"):
            for h in range(cfg.num_heads):
                first = p * cfg.d_model + h * cfg.d_k
                arrays[f"{prefix}.head{h}.w{part}"] = t.data[:, first : first + cfg.d_k]
    index, offset = [], 0
    for name in sorted(arrays):
        nbytes = arrays[name].size * 4
        index.append({"name": name, "shape": list(arrays[name].shape), "offset": offset, "nbytes": nbytes})
        offset += nbytes
    header = {
        "format_version": 1,
        "config": cfg.to_dict(),
        "labels": list(model.labels),
        "seed": model.seed,
        "vocab_tokens": model.vocab.tokens(),
        "vocab_hash": model.vocab.content_hash(),
        "tensors": index,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = b"".join(np.ascontiguousarray(arrays[e["name"]], dtype="<f4").tobytes() for e in index)
    path.write_bytes(struct.pack("<I", len(header_bytes)) + header_bytes + payload)


class TestVersions:
    def test_v1_loads_and_predicts_like_its_v2_resave(self, model, tmp_path):
        _write_v1(model, tmp_path / "v1.ckpt")
        from_v1 = load_checkpoint(str(tmp_path / "v1.ckpt"))
        # the fold restores the fused column order exactly, up to the float32 payload
        np.testing.assert_array_equal(
            from_v1.layers[0].wqkv.data, model.layers[0].wqkv.data.astype(np.float32).astype(np.float64)
        )
        save_checkpoint(from_v1, str(tmp_path / "v2.ckpt"))
        from_v2 = load_checkpoint(str(tmp_path / "v2.ckpt"))
        texts = [ex.text for ex in generate_dataset((5, 5, 5), seed=3)]
        for (label_a, probs_a), (label_b, probs_b) in zip(predict_batch(texts, from_v1), predict_batch(texts, from_v2)):
            assert label_a == label_b
            np.testing.assert_array_equal(probs_a, probs_b)

    def test_load_runs_no_random_init(self, model, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, str(path))

        def no_init(*args, **kwargs):
            raise AssertionError("load_checkpoint ran a random initialization")

        monkeypatch.setattr(SentimentModel, "init", no_init)
        assert load_checkpoint(str(path)).named_parameters().keys() == model.named_parameters().keys()


class TestCorruption:
    def test_truncated_payload(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:-1])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(path))

    def test_truncated_header(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, str(path))
        path.write_bytes(path.read_bytes()[:3])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_version_mismatch(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, str(path))
        _rewrite_header(path, lambda h: h.update(format_version=99))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(str(path))

    def test_wrong_d_model_names_first_bad_tensor(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, str(path))
        _rewrite_header(path, lambda h: h["config"].update(d_model=8))
        with pytest.raises(CheckpointError, match="classifier.weight"):
            load_checkpoint(str(path))

    def test_vocab_hash_mismatch(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, str(path))

        def swap_tokens(h):
            h["vocab_tokens"][-1] = h["vocab_tokens"][-1] + "x"

        _rewrite_header(path, swap_tokens)
        with pytest.raises(CheckpointError, match="hash"):
            load_checkpoint(str(path))

    def test_missing_tensor(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, str(path))
        _rewrite_header(path, lambda h: h["tensors"].pop())
        with pytest.raises(CheckpointError, match="missing"):
            load_checkpoint(str(path))

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"\xff\xff\xff\xff not a checkpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))
