"""Versioned binary checkpoint: a JSON header (config, labels, vocab,
seed, tensor index) followed by named little-endian float32 payloads.

Layout: 4-byte little-endian header length, the UTF-8 header JSON, then the
tensor payloads back to back in index order. In-memory math is float64, so
a round trip perturbs parameters by at most the float32 quantization step
(< 1e-6 absolute for desk-scale weight magnitudes).

Version 2, the only one read or written, stores one fused
`encoder.{i}.wqkv` per layer.
"""

import json
import math
import struct
from dataclasses import asdict

import numpy as np

from .data import LABELS
from .encoder import EncoderConfig
from .errors import CheckpointError, ConfigError, DataError
from .fileio import parse_json, write_file
from .model import SentimentModel
from .tokenizer import Vocab

FORMAT_VERSION = 2


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
        "config": asdict(model.config),
        "labels": list(LABELS),
        "seed": model.seed,
        "vocab_tokens": model.vocab.tokens(),
        "vocab_hash": model.vocab.content_hash(),
        "tensors": index,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    tensors = [np.ascontiguousarray(params[entry["name"]].data, dtype="<f4") for entry in index]
    write_file(path, b"".join([struct.pack("<I", len(header_bytes)), header_bytes, *tensors]))


def _read_header(blob: bytes) -> tuple[dict, memoryview]:
    if len(blob) < 4:
        raise CheckpointError("checkpoint too short to hold a header length")
    (header_len,) = struct.unpack("<I", blob[:4])
    if len(blob) < 4 + header_len:
        raise CheckpointError("checkpoint header is truncated")
    try:
        header = parse_json(blob[4 : 4 + header_len].decode("utf-8"), "checkpoint header")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"checkpoint header is not valid JSON: {exc}") from exc
    except DataError as exc:
        raise CheckpointError(str(exc)) from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"checkpoint header must be a JSON object, got {type(header).__name__}")
    return header, memoryview(blob)[4 + header_len :]


def _header_field(header: dict, key: str, parse):
    """parse(header[key]), or CheckpointError naming the key."""
    if key not in header:
        raise CheckpointError(f"checkpoint header has no {key!r} field")
    try:
        return parse(header[key])
    except (TypeError, ValueError, OverflowError, ConfigError) as exc:
        raise CheckpointError(f"checkpoint header field {key!r} is invalid: {exc}") from exc


def _check_labels(raw) -> None:
    """The class names must be data.LABELS in order: classify and the CLI
    name prediction indices by LABELS, whatever a file says."""
    if raw != list(LABELS):
        raise ValueError(f"expected {list(LABELS)}, got {raw!r}")


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_seed(raw) -> int:
    """The seed as stored, so a re-save writes the same header."""
    if not _is_count(raw):
        raise ValueError(f"expected a nonnegative integer, got {raw!r}")
    return raw


def _read_tensor(entry, position: int, payload: memoryview) -> tuple[str, np.ndarray]:
    """Name and read-only float32 view into payload of one tensor index entry,
    after checking its fields, its payload bounds and that every value is
    finite."""
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
        array = np.frombuffer(payload[start : start + nbytes], dtype="<f4").reshape(shape)
    except ValueError as exc:  # e.g. an empty shape with a dimension numpy cannot hold
        raise CheckpointError(f"checkpoint tensor {name!r} has shape {shape}: {exc}") from exc
    if not np.isfinite(array).all():
        raise CheckpointError(f"checkpoint tensor {name!r} holds non-finite values")
    return name, array


def load_checkpoint(path: str) -> SentimentModel:
    """Rebuild a model straight from the stored arrays, verifying version,
    header fields, payload bounds, finite values, and every tensor name and
    shape. Any fault in the file raises CheckpointError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header, payload = _read_header(blob)

    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format version {version!r} (reader supports {FORMAT_VERSION})")
    vocab = _header_field(header, "vocab_tokens", Vocab)
    config = _header_field(header, "config", EncoderConfig.from_dict)
    seed = _header_field(header, "seed", _check_seed)
    _header_field(header, "labels", _check_labels)
    index = _header_field(header, "tensors", list)
    if vocab.content_hash() != header.get("vocab_hash"):
        raise CheckpointError("vocab hash in header does not match the embedded vocabulary")
    if config.num_layers > len(index):  # one wqkv per layer at least; checked before any per-layer work
        raise CheckpointError(
            f"checkpoint config implies at least {config.num_layers} tensors, the file holds {len(index)}"
        )

    arrays = dict(_read_tensor(entry, i, payload) for i, entry in enumerate(index))
    try:
        return SentimentModel.from_arrays(vocab, config, arrays, seed)
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint tensors do not fit its config: {exc}") from exc
