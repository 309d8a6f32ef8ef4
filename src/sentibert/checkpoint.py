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
import struct

import numpy as np

from .encoder import EncoderConfig
from .errors import CheckpointError, ConfigError
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
    with open(path, "wb") as fh:
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
    return header, blob[4 + header_len :]


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
    payload bounds, and every tensor name and shape."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header, payload = _read_header(blob)

    version = header.get("format_version")
    if version not in READABLE_VERSIONS:
        raise CheckpointError(
            f"unsupported checkpoint format version {version!r} (reader supports {READABLE_VERSIONS})"
        )
    try:
        vocab = Vocab(header["vocab_tokens"])
        config = EncoderConfig.from_dict(header["config"])
        seed = int(header["seed"])
        labels = tuple(header["labels"])
        index = header["tensors"]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"checkpoint header is missing required fields: {exc}") from exc
    if vocab.content_hash() != header.get("vocab_hash"):
        raise CheckpointError("vocab hash in header does not match the embedded vocabulary")

    arrays: dict[str, np.ndarray] = {}
    for entry in index:
        name, shape = entry["name"], tuple(entry["shape"])
        nbytes = int(np.prod(shape)) * 4
        if entry["nbytes"] != nbytes:
            raise CheckpointError(f"checkpoint tensor {name!r} declares {entry['nbytes']} bytes, expected {nbytes}")
        start, end = entry["offset"], entry["offset"] + nbytes
        if start < 0 or end > len(payload):
            raise CheckpointError(f"checkpoint payload is truncated at tensor {name!r}")
        arrays[name] = np.frombuffer(payload[start:end], dtype="<f4").reshape(shape).astype(np.float64)
    try:
        if version == 1:
            arrays = _fold_v1(arrays, config)
        return SentimentModel.from_arrays(vocab, config, arrays, seed, labels)
    except (ConfigError, ValueError) as exc:  # ValueError: v1 heads that do not stack
        raise CheckpointError(f"checkpoint tensors do not fit its config: {exc}") from exc
