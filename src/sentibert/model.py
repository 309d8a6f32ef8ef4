"""Full model assembly: embeddings, encoder stack, and the task heads.

A forward runs a whole batch at once on packed rows: each sequence's
tokens, back to back in batch order. Sequences carry no padding, so
embedding, projections, feed-forward, layer norm and dropout do no padding
work; only the attention op pads, internally, and masks the padded keys.
Eval-mode callers run length-sorted chunks of EVAL_CHUNK sequences
(eval_chunks), so a chunk pads little.
"""

import copy

import numpy as np

from .data import LABELS
from .embedding import embed
from .encoder import EncoderConfig, encode
from .errors import ConfigError, ContractError
from .tensor import Tensor, add_bias, gather_rows, matmul, parameter, transpose
from .tokenizer import EncodedSequence, Vocab

NUM_SENTIMENTS = len(LABELS)
EVAL_CHUNK = 16  # sequences per eval-mode forward
INIT_STD = 0.02  # scale of the normal-initialized weights
HEADS = ("classifier", "nsp")  # task heads: fine-tuning, next-sentence prediction


def parameter_shapes(vocab_size: int, config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every learnable tensor, in the order init draws them:
    the one list of the model's weights, as named_parameters names them."""
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


def initial_array(name: str, shape: tuple[int, ...], config: EncoderConfig, rng: np.random.Generator) -> np.ndarray:
    """Initial value of one parameter. Projections are Xavier-scaled (a fixed
    0.02 starves narrow desk-scale widths): wqkv is one draw per head and
    projection at fan_out d_k, in the order Q heads, K heads, V heads.
    Embedding tables and head weights are normal(0, 0.02^2), layer-norm gains
    ones, everything else zeros."""
    if name.endswith(".wqkv"):
        return np.hstack([_xavier(rng, shape[0], config.d_k) for _ in range(3 * config.num_heads)])
    if name.endswith((".wo", ".w1", ".w2")):
        return _xavier(rng, *shape)
    if name.startswith("embeddings.") or name.endswith(".weight"):
        return rng.normal(0.0, INIT_STD, shape)
    return np.ones(shape) if name.endswith(".gamma") else np.zeros(shape)


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / (fan_in + fan_out)), (fan_in, fan_out))


class SentimentModel:
    """Every learnable weight, stored once by name in parameter_shapes order,
    plus the vocabulary and shape configuration. The forward reads params by name."""

    def __init__(self, vocab: Vocab, config: EncoderConfig, params: dict[str, Tensor], seed: int = 0):
        shapes = parameter_shapes(len(vocab), config)
        _check_arrays(shapes, params)
        self.vocab, self.config, self.seed = vocab, config, seed
        self.params = {name: params[name] for name in shapes}

    @classmethod
    def init(cls, vocab: Vocab, config: EncoderConfig, seed: int) -> "SentimentModel":
        """Random initialization, deterministic per seed: initial_array for
        each parameter in parameter_shapes order, from one generator."""
        rng = np.random.default_rng(seed)
        shapes = parameter_shapes(len(vocab), config)
        params = {n: parameter(initial_array(n, s, config, rng), name=n) for n, s in shapes.items()}
        return cls(vocab, config, params, seed)

    @classmethod
    def from_arrays(
        cls, vocab: Vocab, config: EncoderConfig, arrays: dict[str, np.ndarray], seed: int
    ) -> "SentimentModel":
        """Model holding float64 copies of named arrays whose names and shapes
        match parameter_shapes exactly; no random initialization."""
        return cls(vocab, config, {n: parameter(np.array(a, np.float64), name=n) for n, a in arrays.items()}, seed)

    def named_parameters(self, head: str | None = None) -> dict[str, Tensor]:
        """Every parameter by name; given one of HEADS, only the embeddings,
        the encoder stack and that head: the set its task trains."""
        if head is None:
            return dict(self.params)
        if head not in HEADS:
            raise ContractError(f"head must be one of {HEADS}, got {head!r}")
        return {name: t for name, t in self.params.items() if name.split(".", 1)[0] in ("embeddings", "encoder", head)}

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}

    def load_snapshot(self, arrays: dict[str, np.ndarray]) -> None:
        _check_arrays({name: t.shape for name, t in self.params.items()}, arrays)
        for name, t in self.params.items():
            t.data = np.ascontiguousarray(arrays[name], dtype=np.float64)
            t.grad = None

    def clone(self) -> "SentimentModel":
        return SentimentModel.from_arrays(self.vocab, copy.deepcopy(self.config), self.snapshot(), self.seed)

    # -- forward helpers ----------------------------------------------------

    def hidden_states(
        self,
        seqs: list[EncodedSequence],
        training: bool = False,
        rng: np.random.Generator | None = None,
        rows: list[int] | None = None,
    ) -> Tensor:
        """Encoder output [N x d] of a batch: each sequence's rows, back to
        back in batch order (see row_starts). Given rows, only those packed
        rows, in that order; the last encoder layer computes nothing else."""
        lengths = [s.real_length() for s in seqs]
        return encode(embed(seqs, self.params), self.config, self.params, lengths, training, rng, rows)

    def class_logits(
        self,
        seqs: list[EncodedSequence],
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Sentiment logits [B x 3] from each sequence's [CLS] hidden state."""
        hidden, p = self.hidden_states(seqs, training, rng, rows=row_starts(seqs)), self.params
        return add_bias(matmul(hidden, p["classifier.weight"]), p["classifier.bias"])

    def nsp_logits(self, hidden: Tensor, starts: list[int]) -> Tensor:
        """Next-sentence logits [B x 2] from the [CLS] hidden states at rows starts."""
        return add_bias(matmul(gather_rows((hidden, starts)), self.params["nsp.weight"]), self.params["nsp.bias"])

    def mlm_logits(self, hidden: Tensor, rows: list[int]) -> Tensor:
        """Masked-token logits [n x V] at packed rows, via the transposed token table (tied weights)."""
        return matmul(gather_rows((hidden, rows)), transpose(self.params["embeddings.token"]))


def _check_arrays(shapes: dict[str, tuple[int, ...]], arrays: dict) -> None:
    """ConfigError unless arrays (numpy arrays or tensors) have exactly these names and shapes."""
    missing, unexpected = sorted(set(shapes) - set(arrays)), sorted(set(arrays) - set(shapes))
    if missing or unexpected:
        raise ConfigError(f"tensors missing: {missing}; not model parameters: {unexpected}")
    for name in sorted(shapes):  # sorted: the first mismatch in checkpoint index order
        if arrays[name].shape != shapes[name]:
            raise ConfigError(f"tensor {name!r} has shape {arrays[name].shape}, expected {shapes[name]}")
