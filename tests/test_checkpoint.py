import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sentibert.checkpoint import load_checkpoint, save_checkpoint
from sentibert.classify import evaluate, predict_batch
from sentibert.data import LABELS
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

    def test_loaded_weights_are_the_stored_float32_values_as_writeable_float64(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, str(path))
        loaded = load_checkpoint(str(path))
        for name, t in model.named_parameters().items():
            got = loaded.named_parameters()[name].data
            assert got.dtype == np.float64 and got.flags.writeable and got.flags.c_contiguous, name
            np.testing.assert_array_equal(got, t.data.astype(np.float32).astype(np.float64), err_msg=name)
            got += 1.0  # each weight owns its array

    def test_vocab_and_config_survive(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, str(path))
        loaded = load_checkpoint(str(path))
        assert loaded.vocab.tokens() == model.vocab.tokens()
        assert loaded.config == model.config
        assert loaded.seed == model.seed
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<I", blob[:4])
        assert json.loads(blob[4 : 4 + header_len])["labels"] == list(LABELS)

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


class TestVersions:
    @pytest.mark.parametrize("sizes", [{"num_layers": 50}])
    def test_config_implying_more_tensors_than_stored_is_rejected_first(self, model, tmp_path, monkeypatch, sizes):
        # a crafted header must not make the loader build 50 layers
        def reached(*args, **kwargs):
            raise AssertionError("per-layer work ran before the tensor count was checked")

        path = tmp_path / "model.ckpt"
        save_checkpoint(model, str(path))
        _rewrite_header(path, lambda h: h["config"].update(sizes))
        monkeypatch.setattr(SentimentModel, "from_arrays", reached)
        with pytest.raises(CheckpointError, match="at least"):
            load_checkpoint(str(path))

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
        # a format-1 file (per-head wq/wk/wv) fails loudly, never loads as a wrong model
        for version in (1, 99):
            path = tmp_path / f"v{version}.ckpt"
            save_checkpoint(model, str(path))
            _rewrite_header(path, lambda h: h.update(format_version=version))
            with pytest.raises(CheckpointError, match=f"version {version}"):
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


def _poison_first_tensor(path):
    """Overwrite the first payload value of the first tensor with NaN."""
    blob = bytearray(path.read_bytes())
    (header_len,) = struct.unpack("<I", blob[:4])
    first = json.loads(blob[4 : 4 + header_len])["tensors"][0]
    start = 4 + header_len + first["offset"]
    blob[start : start + 4] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(blob))
    return first["name"]


def _replace_header(path, header):
    """Put header, a JSON value or the raw header bytes, in place of the file's header."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<I", blob[:4])
    raw = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
    path.write_bytes(struct.pack("<I", len(raw)) + raw + blob[4 + header_len :])


def _set_entry(key, value):
    return lambda h: h["tensors"][0].update({key: value})


def _same_shaped(header):
    """Positions of two index entries of one shape, the first such pair."""
    shapes = [entry["shape"] for entry in header["tensors"]]
    return next((i, j) for i in range(len(shapes)) for j in range(i + 1, len(shapes)) if shapes[i] == shapes[j])


def _swap_offsets(header):
    i, j = _same_shaped(header)
    entries = header["tensors"]
    entries[i]["offset"], entries[j]["offset"] = entries[j]["offset"], entries[i]["offset"]


def _share_offset(header):
    i, j = _same_shaped(header)
    header["tensors"][j]["offset"] = header["tensors"][i]["offset"]


MALFORMED = {
    "header is a list": (lambda p: _replace_header(p, [1, 2]), "JSON object"),
    "header is a string": (lambda p: _replace_header(p, "model"), "JSON object"),
    "header nests 100,000 lists": (
        lambda p: _replace_header(p, b"[" * 100_000),
        "^checkpoint header: JSON nested too deeply",
    ),
    "header holds an integer past int()'s digit limit": (
        lambda p: _replace_header(p, b'{"seed": ' + b"1" * 5000 + b"}"),
        "^checkpoint header: invalid JSON",
    ),
    "tensor entry is not an object": (lambda p: _rewrite_header(p, lambda h: h["tensors"].__setitem__(0, 7)), "entry 0"),
    "string offset": (lambda p: _rewrite_header(p, _set_entry("offset", "0")), "offset"),
    "negative shape": (lambda p: _rewrite_header(p, lambda h: h["tensors"][0].update(shape=[-2, 3], nbytes=-24)), "shape"),
    "negative nbytes": (lambda p: _rewrite_header(p, _set_entry("nbytes", -4)), "nbytes"),
    "empty shape numpy cannot hold": (
        lambda p: _rewrite_header(p, lambda h: h["tensors"][0].update(shape=[0, 10**20], nbytes=0)),
        "shape",
    ),
    "NaN payload": (_poison_first_tensor, "non-finite"),
    # offsets must be the ones the writer derives, so no index can map a payload onto another tensor
    "two same-shaped tensors' offsets swapped": (
        lambda p: _rewrite_header(p, _swap_offsets),
        r"entry \d+ is \{.*\}, expected \{",
    ),
    "two entries share one offset": (lambda p: _rewrite_header(p, _share_offset), r"entry \d+ is \{.*\}, expected \{"),
    "entry 0 repeated": (
        lambda p: _rewrite_header(p, lambda h: h["tensors"].insert(1, dict(h["tensors"][0]))),
        "entry 1",
    ),
    "offset is false": (lambda p: _rewrite_header(p, _set_entry("offset", False)), r'offset"?:? [Ff]alse'),
    "shape of floats": (lambda p: _rewrite_header(p, _set_entry("shape", [3.0])), r'shape"?:? \[3\.0\]'),
    "header has no seed field": (lambda p: _rewrite_header(p, lambda h: h.pop("seed")), "no 'seed' field"),
    "seed is not a number": (lambda p: _rewrite_header(p, lambda h: h.update(seed="x")), "'seed'"),
    "seed is a numeric string": (lambda p: _rewrite_header(p, lambda h: h.update(seed="12")), "'seed'"),
    "seed is a fraction": (lambda p: _rewrite_header(p, lambda h: h.update(seed=3.7)), "'seed'"),
    "seed is a bool": (lambda p: _rewrite_header(p, lambda h: h.update(seed=True)), "'seed'"),
    "seed is negative": (lambda p: _rewrite_header(p, lambda h: h.update(seed=-4)), "'seed'"),
    "config has an unknown key": (lambda p: _rewrite_header(p, lambda h: h["config"].update(num_layer=9)), "'config'"),
    "labels in another order": (
        lambda p: _rewrite_header(p, lambda h: h.update(labels=["positive", "neutral", "negative"])),
        "'labels'",
    ),
    "labels is a string": (lambda p: _rewrite_header(p, lambda h: h.update(labels="xyz")), "'labels'"),
    "vocab tokens are not strings": (lambda p: _rewrite_header(p, lambda h: h["vocab_tokens"].append(5)), "vocab_tokens"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_checkpoint_raises_checkpoint_error(model, tmp_path, case):
    corrupt, names = MALFORMED[case]
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    corrupt(path)
    with pytest.raises(CheckpointError, match=names):
        load_checkpoint(str(path))


TINY = EncoderConfig(num_layers=1, num_heads=1, d_model=4, d_ff=4, max_len=6, dropout_rate=0.0)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """The bytes of a tiny checkpoint and the arrays it loads as."""
    path = tmp_path_factory.mktemp("tiny") / "tiny.ckpt"
    save_checkpoint(SentimentModel.init(build_vocab(["a b c"], 10), TINY, seed=1), str(path))
    return path.read_bytes(), load_checkpoint(str(path)).snapshot()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


HEADER_DAMAGE = ("header value", "entry value", "shared offset")  # the payload bytes stay as written


@st.composite
def damaged(draw, blob):
    """(kind, damaged copy of blob)."""
    kind = draw(st.sampled_from(["bytes", "flip", "truncate", *HEADER_DAMAGE]))
    if kind == "bytes":
        return kind, draw(st.binary(max_size=200))
    if kind == "flip":
        out = bytearray(blob)
        for i in draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=4)):
            out[i] = draw(st.integers(0, 255))
        return kind, bytes(out)
    if kind == "truncate":
        return kind, blob[: draw(st.integers(0, len(blob) - 1))]
    (header_len,) = struct.unpack("<I", blob[:4])
    header = json.loads(blob[4 : 4 + header_len])
    entries = header["tensors"]
    if kind == "shared offset":
        source, target = draw(st.lists(st.integers(0, len(entries) - 1), min_size=2, max_size=2, unique=True))
        entries[target]["offset"] = entries[source]["offset"]
    else:
        target = header if kind == "header value" else entries[draw(st.integers(0, len(entries) - 1))]
        target[draw(st.sampled_from(sorted(target)))] = draw(json_values)
    raw = json.dumps(header).encode("utf-8")
    return kind, struct.pack("<I", len(raw)) + raw + blob[4 + header_len :]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_checkpoints_load_or_raise_checkpoint_error(tiny, tmp_path, data):
    tiny_blob, tiny_arrays = tiny
    kind, blob = data.draw(damaged(tiny_blob))
    path = tmp_path / "damaged.ckpt"
    path.write_bytes(blob)
    try:
        model = load_checkpoint(str(path))
    except CheckpointError:
        return
    assert all(np.isfinite(t.data).all() for t in model.named_parameters().values())
    if kind in HEADER_DAMAGE:  # a header that still loads reads every payload where it was written
        for name, array in model.snapshot().items():
            np.testing.assert_array_equal(array, tiny_arrays[name], err_msg=name)
