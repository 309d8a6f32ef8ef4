"""Versioned binary checkpoint: a JSON header (config, labels, vocab,
seed, tensor index) followed by named little-endian float32 payloads.

Layout: 4-byte little-endian header length, the UTF-8 header JSON, then the
tensor payloads back to back in index order. In-memory math is float64, so
a round trip perturbs parameters by at most the float32 quantization step
(< 1e-6 absolute for desk-scale weight magnitudes).

Version 2, the only one read or written, stores one fused
`encoder.{i}.wqkv` per layer. The labels, vocab_hash and tensor index are
derived from the vocab and config, and the reader requires the stored ones
to equal them: a swapped, shared or repeated offset never loads.
"""

import json
import math
import struct
from dataclasses import asdict

import numpy as np

from .data import LABELS
from .encoder import EncoderConfig
from .errors import CheckpointError, ConfigError, DataError, is_int
from .fileio import parse_json, write_file
from .model import SentimentModel, parameter_shapes
from .tokenizer import Vocab

FORMAT_VERSION = 2


def _derived_fields(vocab: Vocab, shapes: dict[str, tuple[int, ...]]) -> dict:
    """The header fields that follow from the vocab and config: the class
    names, the vocab's hash, and the tensor index, one entry per name of
    shapes (the config's parameter_shapes) sorted by name, float32 payloads
    back to back."""
    index, offset = [], 0
    for name in sorted(shapes):
        nbytes = 4 * math.prod(shapes[name])
        index.append({"name": name, "shape": list(shapes[name]), "offset": offset, "nbytes": nbytes})
        offset += nbytes
    return {"labels": list(LABELS), "vocab_hash": vocab.content_hash(), "tensors": index}


def save_checkpoint(model: SentimentModel, path: str) -> None:
    derived = _derived_fields(model.vocab, parameter_shapes(len(model.vocab), model.config))
    header = {
        "format_version": FORMAT_VERSION,
        "config": asdict(model.config),
        "seed": model.seed,
        "vocab_tokens": model.vocab.tokens(),
        **derived,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    tensors = [np.ascontiguousarray(model.params[entry["name"]].data, dtype="<f4") for entry in derived["tensors"]]
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


def _check_seed(raw) -> int:
    """The seed as stored, so a re-save writes the same header."""
    if not is_int(raw) or raw < 0:
        raise ValueError(f"expected a nonnegative integer, got {raw!r}")
    return raw


def _json(value) -> str:
    return json.dumps(value, sort_keys=True)


def _same_types(got, want) -> bool:
    """Whether got, equal to want, also has want's type at every level."""
    if type(want) is dict:
        return all([_same_types(got[key], value) for key, value in want.items()])
    if type(want) is list:
        return all(map(_same_types, got, want))
    return type(got) is type(want)


def _check_derived(header: dict, key: str, want) -> None:
    """CheckpointError unless header[key] is want, the value derived from the
    vocab and config, with want's types: == alone takes JSON's false for 0
    and 16.0 for 16, which the writer never writes. A list names its first
    bad entry, showing both sides as the JSON text the writer produces."""
    got = _header_field(header, key, lambda raw: raw)
    if got == want and _same_types(got, want):
        return
    if isinstance(got, list) and isinstance(want, list):
        for i in range(max(len(got), len(want))):
            found, expected = (_json(v[i]) if i < len(v) else "missing" for v in (got, want))
            if found != expected:
                raise CheckpointError(f"checkpoint header field {key!r} entry {i} is {found}, expected {expected}")
    raise CheckpointError(f"checkpoint header field {key!r} is {_json(got)}, expected {_json(want)}")


def load_checkpoint(path: str) -> SentimentModel:
    """Rebuild a model straight from the stored arrays: after the version,
    the vocab, config and seed are read, every derived field must equal its
    stored value, and each tensor, read at its derived offset, must be
    finite. Any fault in the file raises CheckpointError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header, payload = _read_header(blob)

    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format version {version!r} (reader supports {FORMAT_VERSION})")
    vocab = _header_field(header, "vocab_tokens", Vocab)
    config = _header_field(header, "config", EncoderConfig.from_dict)
    seed = _header_field(header, "seed", _check_seed)
    stored = _header_field(header, "tensors", len)
    if config.num_layers > stored:  # one wqkv per layer at least; checked before any per-layer work
        raise CheckpointError(
            f"checkpoint config implies at least {config.num_layers} tensors, the file holds {stored}"
        )
    shapes = parameter_shapes(len(vocab), config)
    derived = _derived_fields(vocab, shapes)
    for key, want in derived.items():
        _check_derived(header, key, want)

    arrays = {}
    for entry in derived["tensors"]:
        name, start, end = entry["name"], entry["offset"], entry["offset"] + entry["nbytes"]
        if end > len(payload):
            raise CheckpointError(f"checkpoint payload is truncated at tensor {name!r}")
        arrays[name] = np.frombuffer(payload[start:end], dtype="<f4").reshape(entry["shape"])
        if not np.isfinite(arrays[name]).all():
            raise CheckpointError(f"checkpoint tensor {name!r} holds non-finite values")
    return SentimentModel.from_arrays(vocab, config, arrays, seed, shapes)
