"""Desk-scale sentiment classification: from-scratch autodiff tensors, a
Transformer encoder, toy MLM/NSP pretraining, three-class fine-tuning, a
class-imbalance toolkit, and a full evaluation suite.
"""

from .balance import ClassHistogram, class_weights, imbalance_ratio, oversample, undersample
from .checkpoint import load_checkpoint, save_checkpoint
from .classify import TrainConfig, evaluate, forward_classify, predict_batch, train
from .data import LABELS, LabeledExample, ingest
from .embedding import EmbeddingTables, embed, init_tables
from .encoder import EncoderConfig, attention, encode, encoder_layer, multi_head
from .metrics import MetricsReport, accuracy, confusion, f1_class, log_loss, precision_class, recall_class, report
from .model import SentimentModel
from .optim import Adam, OptimizerConfig, SGD
from .pretrain import PretrainConfig, mask_tokens, nsp_pairs, pretrain_step, run_pretraining
from .tensor import Graph, Tensor, cross_entropy, layer_norm, matmul
from .tokenizer import EncodedSequence, Vocab, build_vocab, decode, encode_pair, tokenize

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "ClassHistogram",
    "EmbeddingTables",
    "EncodedSequence",
    "EncoderConfig",
    "Graph",
    "LABELS",
    "LabeledExample",
    "MetricsReport",
    "OptimizerConfig",
    "PretrainConfig",
    "SGD",
    "SentimentModel",
    "Tensor",
    "TrainConfig",
    "Vocab",
    "accuracy",
    "attention",
    "build_vocab",
    "class_weights",
    "confusion",
    "cross_entropy",
    "decode",
    "embed",
    "encode",
    "encode_pair",
    "encoder_layer",
    "evaluate",
    "f1_class",
    "forward_classify",
    "imbalance_ratio",
    "ingest",
    "init_tables",
    "layer_norm",
    "load_checkpoint",
    "log_loss",
    "mask_tokens",
    "matmul",
    "multi_head",
    "nsp_pairs",
    "oversample",
    "precision_class",
    "predict_batch",
    "pretrain_step",
    "recall_class",
    "report",
    "run_pretraining",
    "save_checkpoint",
    "tokenize",
    "train",
    "undersample",
]
