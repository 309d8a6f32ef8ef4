"""Stacked Transformer encoder: scaled dot-product multi-head attention,
post-norm residuals, and a position-wise ReLU feed-forward block.

Every function works on packed rows: the real (unpadded) rows of a batch of
sequences back to back, under the batch's plan (tensor.batch_layout of each
sequence's row count). Only the attention ops pad, internally.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, check_field_types
from .tensor import Tensor, attend, attention, check_dropout_rate, dropout, ffn, gather_rows, layer_norm

LAYER_NORM_EPS = 1e-5


@dataclass
class EncoderConfig:
    num_layers: int = 2
    num_heads: int = 2
    d_model: int = 64
    d_ff: int = 256
    max_len: int = 64
    dropout_rate: float = 0.1

    def __post_init__(self):
        check_field_types(self)
        if self.num_layers < 0:  # 0 layers = identity stack, allowed for probing
            raise ConfigError(f"num_layers must be nonnegative, got {self.num_layers}")
        for name in ("num_heads", "d_model", "d_ff"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.max_len < 3:  # room for [CLS], one token and [SEP]
            raise ConfigError(f"max_len must be at least 3, got {self.max_len}")
        if self.d_model % self.num_heads != 0:
            raise ConfigError(f"d_model ({self.d_model}) must be divisible by num_heads ({self.num_heads})")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    @property
    def d_k(self) -> int:
        return self.d_model // self.num_heads

    @classmethod
    def from_dict(cls, raw: dict) -> "EncoderConfig":
        """Inverse of dataclasses.asdict: every field and nothing else."""
        keys = {f.name for f in fields(cls)}
        if set(raw) != keys:
            raise ConfigError(f"encoder config needs exactly the keys {sorted(keys)}, got {sorted(raw)}")
        return cls(**raw)


LAYER_WEIGHTS = ("wqkv", "wo", "ln1.gamma", "ln1.beta", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2", "ln2.gamma", "ln2.beta")


def layer_weights(params: dict[str, Tensor], prefix: str) -> tuple[Tensor, ...]:
    """The tensors named prefix + "." + suffix in params, for each suffix of
    LAYER_WEIGHTS in order: one layer's weights, bound once, so that a
    forward reads no weight by name. A missing one is a ConfigError naming it."""
    try:
        return tuple([params[f"{prefix}.{suffix}"] for suffix in LAYER_WEIGHTS])
    except KeyError as exc:
        raise ConfigError(f"encoder: no parameter named {exc.args[0]}") from None


def stack_weights(params: dict[str, Tensor], config: EncoderConfig) -> tuple[tuple[Tensor, ...], ...]:
    """layer_weights of encoder.0 .. encoder.{num_layers-1}, in order."""
    return tuple(layer_weights(params, f"encoder.{i}") for i in range(config.num_layers))


def multi_head(x: Tensor, wqkv: Tensor, wo: Tensor, plan, num_heads: int, rows=None) -> Tensor:
    """The attention sublayer on the packed rows as one op, which projects x
    by wqkv (Q heads, then K heads, then V heads, d_k columns each) and
    applies W^O: one output row per row (tensor.attention), or given rows,
    per wanted row, in their order (tensor.attend, which projects no row to
    a key or a value). plan is the batch's tensor.batch_layout."""
    if rows is None:
        return attention(x, wqkv, wo, plan, num_heads)
    return attend(x, wqkv, wo, plan, num_heads, rows)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """max(0, x W_1 + b_1) W_2 + b_2, one fused op."""
    return ffn(x, w1, b1, w2, b2)


def encoder_layer(
    x: Tensor,
    weights: tuple[Tensor, ...],
    plan,
    num_heads: int,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    training: bool = False,
    rows=None,
) -> Tensor:
    """Post-norm block on one layer's weights (layer_weights): y =
    LayerNorm(x + attn), then LayerNorm(y + FFN(y)), each sub-layer output
    under its own dropout mask. Given rows, the block computes outputs only
    at those packed rows, in that order: they still attend to every row of
    their sequence, and both dropout masks are drawn, in turn, at the full
    [N x d] shape and then indexed, so the rng stream does not depend on rows."""
    check_dropout_rate(dropout_rate)  # in eval mode too, where no mask is drawn
    wqkv, wo, gamma1, beta1, w1, b1, w2, b2, gamma2, beta2 = weights
    attended = multi_head(x, wqkv, wo, plan, num_heads, rows)  # checks rows before they index the masks
    keep = (None, None)
    if training and dropout_rate > 0.0:
        if rng is None:
            raise ConfigError("encoder_layer: training with dropout needs an rng")
        keep = [dropout(x, dropout_rate, rng, True) for _ in range(2)]
        if rows is not None:
            keep = [mask[rows] for mask in keep]
    y = layer_norm(x, attended, gamma1, beta1, keep[0], rate=dropout_rate, eps=LAYER_NORM_EPS, rows=rows)
    return layer_norm(y, feed_forward(y, w1, b1, w2, b2), gamma2, beta2, keep[1], rate=dropout_rate, eps=LAYER_NORM_EPS)


def encode(
    x: Tensor,
    config: EncoderConfig,
    layers: tuple[tuple[Tensor, ...], ...],
    plan,
    training: bool = False,
    rng: np.random.Generator | None = None,
    rows=None,
) -> Tensor:
    """Apply layers, each one's layer_weights (stack_weights), in turn; an
    empty stack is the identity. plan is the batch's tensor.batch_layout,
    which a forward looks up once for every layer. Given rows, the output
    holds only those packed rows, in that order: the last layer computes
    nothing else."""
    if not layers:
        return x if rows is None else gather_rows((x, rows))
    last = len(layers) - 1
    for i, weights in enumerate(layers):
        x = encoder_layer(
            x, weights, plan, config.num_heads, config.dropout_rate, rng, training, rows if i == last else None
        )
    return x
