"""Stacked Transformer encoder: scaled dot-product multi-head attention,
post-norm residuals, and a position-wise ReLU feed-forward block.

Every function works on packed rows: the real (unpadded) rows of a batch of
sequences back to back, with `lengths` giving each sequence's row count.
Only the fused attention op pads, internally.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, check_field_types
from .tensor import Tensor, add, attention, dropout, ffn, layer_norm, matmul, parameter

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

    def to_dict(self) -> dict:
        return {
            "num_layers": self.num_layers,
            "num_heads": self.num_heads,
            "d_model": self.d_model,
            "d_ff": self.d_ff,
            "max_len": self.max_len,
            "dropout_rate": self.dropout_rate,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "EncoderConfig":
        """Inverse of to_dict: every field and nothing else."""
        if set(raw) != set(cls().to_dict()):
            raise ConfigError(f"encoder config needs exactly the keys {sorted(cls().to_dict())}, got {sorted(raw)}")
        return cls(**raw)


# dataclass field -> parameter name suffix, as in checkpoints
PARAM_NAMES = {
    "wqkv": "wqkv",
    "wo": "wo",
    "w1": "ffn.w1",
    "b1": "ffn.b1",
    "w2": "ffn.w2",
    "b2": "ffn.b2",
    "ln1_gamma": "ln1.gamma",
    "ln1_beta": "ln1.beta",
    "ln2_gamma": "ln2.gamma",
    "ln2_beta": "ln2.beta",
}


@dataclass
class EncoderLayerParams:
    wqkv: Tensor  # [d_model x 3 d_model]: Q heads, then K heads, then V heads, d_k columns each
    wo: Tensor  # [d_model x d_model]
    w1: Tensor  # [d_model x d_ff]
    b1: Tensor  # [d_ff]
    w2: Tensor  # [d_ff x d_model]
    b2: Tensor  # [d_model]
    ln1_gamma: Tensor
    ln1_beta: Tensor
    ln2_gamma: Tensor
    ln2_beta: Tensor

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.{suffix}": getattr(self, field) for field, suffix in PARAM_NAMES.items()}

    @classmethod
    def from_named(cls, tensors: dict[str, Tensor], prefix: str) -> "EncoderLayerParams":
        return cls(**{field: tensors[f"{prefix}.{suffix}"] for field, suffix in PARAM_NAMES.items()})


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / (fan_in + fan_out)), (fan_in, fan_out))


def init_layer_params(config: EncoderConfig, rng: np.random.Generator) -> EncoderLayerParams:
    """Xavier-scaled projections (a fixed 0.02 starves narrow desk-scale
    widths); biases zero; layer-norm at identity. wqkv is one Xavier draw per
    head and projection at fan_out d_k, in the order Q heads, K heads, V heads."""
    d, dk, dff = config.d_model, config.d_k, config.d_ff
    return EncoderLayerParams(
        wqkv=parameter(np.hstack([_xavier(rng, d, dk) for _ in range(3 * config.num_heads)])),
        wo=parameter(_xavier(rng, d, d)),
        w1=parameter(_xavier(rng, d, dff)),
        b1=parameter(np.zeros(dff)),
        w2=parameter(_xavier(rng, dff, d)),
        b2=parameter(np.zeros(d)),
        ln1_gamma=parameter(np.ones(d)),
        ln1_beta=parameter(np.zeros(d)),
        ln2_gamma=parameter(np.ones(d)),
        ln2_beta=parameter(np.zeros(d)),
    )


def multi_head(x: Tensor, params: EncoderLayerParams, lengths, num_heads: int) -> Tensor:
    """Attention on the fused Q/K/V projection of the packed rows, projected by W^O."""
    if x.data.shape[1] != params.wo.data.shape[0]:
        raise ShapeError(f"multi_head: input width {x.data.shape[1]} != d_model {params.wo.data.shape[0]}")
    return matmul(attention(matmul(x, params.wqkv), lengths, num_heads), params.wo)


def feed_forward(x: Tensor, params: EncoderLayerParams) -> Tensor:
    """max(0, x W_1 + b_1) W_2 + b_2, one fused op."""
    return ffn(x, params.w1, params.b1, params.w2, params.b2)


def encoder_layer(
    x: Tensor,
    params: EncoderLayerParams,
    lengths,
    num_heads: int,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> Tensor:
    """Post-norm block: LayerNorm(x + attn), then LayerNorm(y + FFN(y))."""
    if training and dropout_rate > 0.0 and rng is None:
        raise ConfigError("encoder_layer: training with dropout needs an rng")
    attn = dropout(multi_head(x, params, lengths, num_heads), dropout_rate, rng, training)
    y = layer_norm(add(x, attn), params.ln1_gamma, params.ln1_beta, LAYER_NORM_EPS)
    ffn = dropout(feed_forward(y, params), dropout_rate, rng, training)
    return layer_norm(add(y, ffn), params.ln2_gamma, params.ln2_beta, LAYER_NORM_EPS)


def encode(
    x: Tensor,
    config: EncoderConfig,
    layers: list[EncoderLayerParams],
    lengths,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Apply the layer stack sequentially; empty stack is the identity."""
    if len(layers) != config.num_layers:
        raise ConfigError(f"encode: got {len(layers)} layer params for num_layers={config.num_layers}")
    hidden = x
    for params in layers:
        hidden = encoder_layer(hidden, params, lengths, config.num_heads, config.dropout_rate, rng, training)
    return hidden
