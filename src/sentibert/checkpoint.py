"""Versioned binary checkpoint: a JSON header (config, labels, vocab,
seed, tensor index) followed by named little-endian float32 payloads.

Layout: 4-byte little-endian header length, the UTF-8 header JSON, then the
tensor payloads back to back in index order. In-memory math is float64, so
a round trip perturbs parameters by at most the float32 quantization step
(< 1e-6 absolute for desk-scale weight magnitudes).

Version 2 stores one fused `encoder.{i}.wqkv` per layer. Version 1 stored
per-head `encoder.{i}.head{h}.wq/wk/wv`; the reader folds them into wqkv.
"""

import json
import math
import struct

import numpy as np

from .data import LABELS
from .encoder import EncoderConfig
from .errors import CheckpointError, ConfigError
from .fileio import atomic_open
from .model import SentimentModel
from .tokenizer import Vocab

FORMAT_VERSION = 2
READABLE_VERSIONS = (1, 2)


def save_checkpoint(model: SentimentModel, path: str) -> None:
    params = model.named_parameters()
    index = []
    offset = 0
    for name in sorted(params):
        shape = list(params[name].data.shape)
        nbytes = int(np.prod(shape)) * 4
        index.append({"name": name, "shape": shape, "offset": offset, "nbytes": nbytes})
        offset += nbytes
    header = {
        "format_version": FORMAT_VERSION,
        "config": model.config.to_dict(),
        "labels": list(model.labels),
        "seed": model.seed,
        "vocab_tokens": model.vocab.tokens(),
        "vocab_hash": model.vocab.content_hash(),
        "tensors": index,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, binary=True) as fh:
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for entry in index:
            fh.write(np.ascontiguousarray(params[entry["name"]].data, dtype="<f4").tobytes())


def _read_header(blob: bytes) -> tuple[dict, bytes]:
    if len(blob) < 4:
        raise CheckpointError("checkpoint too short to hold a header length")
    (header_len,) = struct.unpack("<I", blob[:4])
    if len(blob) < 4 + header_len:
        raise CheckpointError("checkpoint header is truncated")
    try:
        header = json.loads(blob[4 : 4 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"checkpoint header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"checkpoint header must be a JSON object, got {type(header).__name__}")
    return header, blob[4 + header_len :]


def _header_field(header: dict, key: str, parse):
    """parse(header[key]), or CheckpointError naming the key."""
    if key not in header:
        raise CheckpointError(f"checkpoint header has no {key!r} field")
    try:
        return parse(header[key])
    except (TypeError, ValueError, OverflowError, ConfigError) as exc:
        raise CheckpointError(f"checkpoint header field {key!r} is invalid: {exc}") from exc


def _labels(raw) -> tuple[str, ...]:
    """The class names, which must be data.LABELS in order: classify and the
    CLI name prediction indices by LABELS, whatever a file says."""
    if raw != list(LABELS):
        raise ValueError(f"expected {list(LABELS)}, got {raw!r}")
    return LABELS


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _read_tensor(entry, position: int, payload: bytes) -> tuple[str, np.ndarray]:
    """Name and float64 array of one tensor index entry, after checking its
    fields, its payload bounds and that every value is finite."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise CheckpointError(f"checkpoint tensor entry {position} is not an object with a string name")
    name, shape = entry["name"], entry.get("shape")
    if not isinstance(shape, list) or not all(_is_count(n) for n in shape):
        raise CheckpointError(f"checkpoint tensor {name!r} has shape {shape!r}, not a list of nonnegative integers")
    for key in ("offset", "nbytes"):
        if not _is_count(entry.get(key)):
            raise CheckpointError(f"checkpoint tensor {name!r} has {key} {entry.get(key)!r}, not a nonnegative integer")
    nbytes = math.prod(shape) * 4
    if entry["nbytes"] != nbytes:
        raise CheckpointError(f"checkpoint tensor {name!r} declares {entry['nbytes']} bytes, expected {nbytes}")
    start = entry["offset"]
    if start + nbytes > len(payload):
        raise CheckpointError(f"checkpoint payload is truncated at tensor {name!r}")
    try:
        array = np.frombuffer(payload[start : start + nbytes], dtype="<f4").reshape(shape).astype(np.float64)
    except ValueError as exc:  # e.g. an empty shape with a dimension numpy cannot hold
        raise CheckpointError(f"checkpoint tensor {name!r} has shape {shape}: {exc}") from exc
    if not np.isfinite(array).all():
        raise CheckpointError(f"checkpoint tensor {name!r} holds non-finite values")
    return name, array


def _fold_v1(arrays: dict[str, np.ndarray], config: EncoderConfig) -> dict[str, np.ndarray]:
    """Concatenate each layer's v1 head projections in the column order the
    fused attention reads: every head's wq, then every wk, then every wv."""
    for i in range(config.num_layers):
        heads = [f"encoder.{i}.head{h}.w{part}" for part in "qkv" for h in range(config.num_heads)]
        if all(name in arrays for name in heads):  # else the parameter check names what is missing
            arrays[f"encoder.{i}.wqkv"] = np.hstack([arrays.pop(name) for name in heads])
    return arrays


def load_checkpoint(path: str) -> SentimentModel:
    """Rebuild a model straight from the stored arrays, verifying version,
    header fields, payload bounds, finite values, and every tensor name and
    shape. Any fault in the file raises CheckpointError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header, payload = _read_header(blob)

    version = header.get("format_version")
    if version not in READABLE_VERSIONS:
        raise CheckpointError(
            f"unsupported checkpoint format version {version!r} (reader supports {READABLE_VERSIONS})"
        )
    vocab = _header_field(header, "vocab_tokens", Vocab)
    config = _header_field(header, "config", EncoderConfig.from_dict)
    seed = _header_field(header, "seed", int)
    labels = _header_field(header, "labels", _labels)
    index = _header_field(header, "tensors", list)
    if vocab.content_hash() != header.get("vocab_hash"):
        raise CheckpointError("vocab hash in header does not match the embedded vocabulary")
    # the fewest tensors the config implies, checked before any per-layer or per-head work
    least = config.num_layers * (3 * config.num_heads if version == 1 else 1)
    if least > len(index):
        raise CheckpointError(f"checkpoint config implies at least {least} tensors, the file holds {len(index)}")

    arrays = dict(_read_tensor(entry, i, payload) for i, entry in enumerate(index))
    try:
        if version == 1:
            arrays = _fold_v1(arrays, config)
        return SentimentModel.from_arrays(vocab, config, arrays, seed, labels)
    except (ConfigError, ValueError) as exc:  # ValueError: v1 heads that do not stack
        raise CheckpointError(f"checkpoint tensors do not fit its config: {exc}") from exc
