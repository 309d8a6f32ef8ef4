"""Stacked Transformer encoder: scaled dot-product multi-head attention,
post-norm residuals, and a position-wise ReLU feed-forward block.

Every function works on packed rows: the real (unpadded) rows of a batch of
sequences back to back, with `lengths` giving each sequence's row count.
Only the attention ops pad, internally.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, ShapeError, check_field_types
from .tensor import Tensor, attend, attention, check_dropout_rate, dropout, ffn, gather_rows, layer_norm, linear

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


def multi_head(x: Tensor, wqkv: Tensor, wo: Tensor, lengths, num_heads: int, rows=None) -> Tensor:
    """Attention on the packed rows' fused projection x wqkv (Q heads, then K
    heads, then V heads, d_k columns each), projected by W^O: one output row
    per row (tensor.attention), or given rows, per wanted row, in their order
    (tensor.attend, which projects no row to a key or a value)."""
    if x.data.shape[1] != wo.data.shape[0]:
        raise ShapeError(f"multi_head: input width {x.data.shape[1]} != d_model {wo.data.shape[0]}")
    if rows is None:
        return linear(attention(linear(x, wqkv), lengths, num_heads), wo)
    return linear(attend(x, wqkv, lengths, num_heads, rows), wo)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """max(0, x W_1 + b_1) W_2 + b_2, one fused op."""
    return ffn(x, w1, b1, w2, b2)


def encoder_layer(
    x: Tensor,
    params: dict[str, Tensor],
    prefix: str,
    lengths,
    num_heads: int,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    training: bool = False,
    rows=None,
) -> Tensor:
    """Post-norm block on the weights named prefix + "." + suffix in params:
    y = LayerNorm(x + attn), then LayerNorm(y + FFN(y)), each sub-layer output
    under its own dropout mask. Given rows, the block computes outputs only at
    those packed rows, in that order: they still attend to every row of their
    sequence, and both dropout masks are drawn at the full [N x d] shape and
    then indexed, so the rng stream does not depend on rows."""
    check_dropout_rate(dropout_rate)  # in eval mode too, where no mask is drawn
    masked = training and dropout_rate > 0.0
    if masked and rng is None:
        raise ConfigError("encoder_layer: training with dropout needs an rng")

    def p(suffix: str) -> Tensor:
        try:
            return params[f"{prefix}.{suffix}"]
        except KeyError:
            raise ConfigError(f"encoder_layer: no parameter named {prefix}.{suffix}") from None

    def keep() -> np.ndarray | None:
        mask = dropout(x, dropout_rate, rng, True) if masked else None
        return mask if mask is None or rows is None else mask[rows]

    attn = multi_head(x, p("wqkv"), p("wo"), lengths, num_heads, rows)
    y = layer_norm(x, attn, p("ln1.gamma"), p("ln1.beta"), keep(), LAYER_NORM_EPS, rows)
    sub = feed_forward(y, p("ffn.w1"), p("ffn.b1"), p("ffn.w2"), p("ffn.b2"))
    return layer_norm(y, sub, p("ln2.gamma"), p("ln2.beta"), keep(), LAYER_NORM_EPS)


def encode(
    x: Tensor,
    config: EncoderConfig,
    params: dict[str, Tensor],
    lengths,
    training: bool = False,
    rng: np.random.Generator | None = None,
    rows=None,
) -> Tensor:
    """Apply layers encoder.0 .. encoder.{num_layers-1} of params in turn;
    an empty stack is the identity. Given rows, the output holds only those
    packed rows, in that order: the last layer computes nothing else. A
    missing layer weight is a ConfigError."""
    if config.num_layers == 0:
        return x if rows is None else gather_rows((x, rows))
    hidden = x
    for i in range(config.num_layers):
        layer_rows = rows if i == config.num_layers - 1 else None
        hidden = encoder_layer(
            hidden, params, f"encoder.{i}", lengths, config.num_heads, config.dropout_rate, rng, training, layer_rows
        )
    return hidden
