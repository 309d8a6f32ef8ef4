"""Full model assembly: embeddings, encoder stack, and the task heads.

A forward runs a whole batch at once on packed rows: each sequence's
tokens, back to back in batch order. Sequences carry no padding, so
embedding, projections, feed-forward, layer norm and dropout do no padding
work; only the attention op pads, internally, and masks the padded keys.
Eval-mode callers run length-sorted chunks of EVAL_CHUNK sequences
(eval_chunks), so a chunk pads little.
"""

import copy
from dataclasses import dataclass, field

import numpy as np

from .data import LABELS
from .embedding import INIT_STD, EmbeddingTables, _init_tables, embed
from .encoder import EncoderConfig, EncoderLayerParams, encode, init_layer_params
from .errors import ConfigError
from .tensor import Tensor, add_bias, gather_rows, matmul, parameter, transpose
from .tokenizer import EncodedSequence, Vocab

NUM_SENTIMENTS = len(LABELS)
EVAL_CHUNK = 16  # sequences per eval-mode forward


def parameter_shapes(vocab_size: int, config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every learnable tensor, as named_parameters names them."""
    d, dff = config.d_model, config.d_ff
    layer = {"wqkv": (d, 3 * d), "wo": (d, d), "ffn.w1": (d, dff), "ffn.b1": (dff,), "ffn.w2": (dff, d), "ffn.b2": (d,)}
    layer.update({f"ln{i}.{p}": (d,) for i in (1, 2) for p in ("gamma", "beta")})
    shapes = {
        "embeddings.token": (vocab_size, d),
        "embeddings.segment": (2, d),
        "embeddings.position": (config.max_len, d),
    }
    shapes.update({f"encoder.{i}.{name}": shape for i in range(config.num_layers) for name, shape in layer.items()})
    shapes.update({"classifier.weight": (d, NUM_SENTIMENTS), "classifier.bias": (NUM_SENTIMENTS,)})
    shapes.update({"nsp.weight": (d, 2), "nsp.bias": (2,)})
    return shapes


def row_starts(seqs: list[EncodedSequence]) -> list[int]:
    """Packed row of each sequence's [CLS] (its first row) in hidden_states output."""
    return np.cumsum([0] + [s.real_length() for s in seqs])[:-1].tolist()


def eval_chunks(seqs: list[EncodedSequence]) -> list[np.ndarray]:
    """Input indices in length-sorted chunks of EVAL_CHUNK: the batches of an
    eval-mode pass. Callers put each chunk's results back at its indices."""
    order = np.argsort([s.real_length() for s in seqs], kind="stable")
    return [order[i : i + EVAL_CHUNK] for i in range(0, len(order), EVAL_CHUNK)]


@dataclass
class SentimentModel:
    """Every learnable weight plus the vocabulary and shape configuration."""

    vocab: Vocab
    config: EncoderConfig
    tables: EmbeddingTables
    layers: list[EncoderLayerParams]
    cls_w: Tensor  # [d_model x 3]
    cls_b: Tensor  # [3]
    nsp_w: Tensor  # [d_model x 2]
    nsp_b: Tensor  # [2]
    seed: int = 0
    labels: tuple[str, ...] = field(default=LABELS)

    @classmethod
    def init(cls, vocab: Vocab, config: EncoderConfig, seed: int) -> "SentimentModel":
        """Random initialization, deterministic per seed."""
        rng = np.random.default_rng(seed)
        d = config.d_model
        return cls(
            vocab=vocab,
            config=config,
            tables=_init_tables(len(vocab), d, config.max_len, rng),
            layers=[init_layer_params(config, rng) for _ in range(config.num_layers)],
            cls_w=parameter(rng.normal(0.0, INIT_STD, (d, NUM_SENTIMENTS))),
            cls_b=parameter(np.zeros(NUM_SENTIMENTS)),
            nsp_w=parameter(rng.normal(0.0, INIT_STD, (d, 2))),
            nsp_b=parameter(np.zeros(2)),
            seed=seed,
        )

    @classmethod
    def from_arrays(
        cls, vocab: Vocab, config: EncoderConfig, arrays: dict[str, np.ndarray], seed: int, labels: tuple[str, ...]
    ) -> "SentimentModel":
        """Model holding float64 copies of named arrays whose names and shapes
        match parameter_shapes exactly; no random initialization."""
        _check_arrays(parameter_shapes(len(vocab), config), arrays)
        t = {name: parameter(np.array(a, dtype=np.float64), name=name) for name, a in arrays.items()}
        return cls(
            vocab=vocab,
            config=config,
            tables=EmbeddingTables(t["embeddings.token"], t["embeddings.segment"], t["embeddings.position"]),
            layers=[EncoderLayerParams.from_named(t, f"encoder.{i}") for i in range(config.num_layers)],
            cls_w=t["classifier.weight"],
            cls_b=t["classifier.bias"],
            nsp_w=t["nsp.weight"],
            nsp_b=t["nsp.bias"],
            seed=seed,
            labels=tuple(labels),
        )

    def named_parameters(self) -> dict[str, Tensor]:
        out = {
            "embeddings.token": self.tables.token,
            "embeddings.segment": self.tables.segment,
            "embeddings.position": self.tables.position,
        }
        for i, layer in enumerate(self.layers):
            out.update(layer.named(f"encoder.{i}"))
        out["classifier.weight"] = self.cls_w
        out["classifier.bias"] = self.cls_b
        out["nsp.weight"] = self.nsp_w
        out["nsp.bias"] = self.nsp_b
        return out

    def encoder_parameters(self) -> dict[str, Tensor]:
        """Embeddings + encoder stack, without the task heads."""
        return {
            name: t
            for name, t in self.named_parameters().items()
            if not name.startswith(("classifier.", "nsp."))
        }

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named_parameters().items()}

    def load_snapshot(self, arrays: dict[str, np.ndarray]) -> None:
        params = self.named_parameters()
        _check_arrays({name: t.data.shape for name, t in params.items()}, arrays)
        for name, t in params.items():
            t.data = np.ascontiguousarray(arrays[name], dtype=np.float64)
            t.grad = None

    def clone(self) -> "SentimentModel":
        return SentimentModel.from_arrays(
            self.vocab, copy.deepcopy(self.config), self.snapshot(), self.seed, self.labels
        )

    # -- forward helpers ----------------------------------------------------

    def hidden_states(
        self,
        seqs: list[EncodedSequence],
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Encoder output [N x d] of a batch: each sequence's rows, back to
        back in batch order (see row_starts)."""
        lengths = [s.real_length() for s in seqs]
        return encode(embed(seqs, self.tables), self.config, self.layers, lengths, training, rng)

    def class_logits(
        self,
        seqs: list[EncodedSequence],
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Sentiment logits [B x 3] from each sequence's [CLS] hidden state."""
        hidden = self.hidden_states(seqs, training, rng)
        return add_bias(matmul(gather_rows(hidden, row_starts(seqs)), self.cls_w), self.cls_b)

    def nsp_logits(self, hidden: Tensor, starts: list[int]) -> Tensor:
        """Next-sentence logits [B x 2] from the [CLS] hidden states at rows starts."""
        return add_bias(matmul(gather_rows(hidden, starts), self.nsp_w), self.nsp_b)

    def mlm_logits(self, hidden: Tensor, rows: list[int]) -> Tensor:
        """Masked-token logits [n x V] at packed rows, via the transposed token table (tied weights)."""
        return matmul(gather_rows(hidden, rows), transpose(self.tables.token))


def _check_arrays(shapes: dict[str, tuple[int, ...]], arrays: dict[str, np.ndarray]) -> None:
    missing, unexpected = sorted(set(shapes) - set(arrays)), sorted(set(arrays) - set(shapes))
    if missing or unexpected:
        raise ConfigError(f"tensors missing: {missing}; not model parameters: {unexpected}")
    for name in sorted(shapes):  # sorted: the first mismatch in checkpoint index order
        if arrays[name].shape != shapes[name]:
            raise ConfigError(f"tensor {name!r} has shape {arrays[name].shape}, expected {shapes[name]}")
