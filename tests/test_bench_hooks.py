"""The benchmark's span wrappers replace attributes by name; every one of
them must still exist where the benchmark looks for it, and the layer spans
must still record calls when the program runs."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from sentibert import checkpoint, classify, cli, encoder, model, optim, pretrain, tensor
from sentibert.data import LabeledExample
from sentibert.tokenizer import build_vocab, encode_pair

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
SB = SimpleNamespace(
    checkpoint=checkpoint,
    classify=classify,
    cli=cli,
    encoder=encoder,
    model=model,
    optim=optim,
    pretrain=pretrain,
    tensor=tensor,
)
LAYER_SPANS = (
    "embedding.embed",
    "encoder.multi_head",
    "encoder.attention",
    "encoder.feed_forward",
    "encoder.layer_norm",
    "model.hidden_states",
    "tensor.backward",
    "optim.step",
)


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_boundary_exists():
    targets = _spans_module().targets(SB)
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr, _, _ in targets if attr not in owner.__dict__]
    assert not missing, f"wrapped boundaries the program no longer has: {missing}"


def test_layer_spans_record_calls_in_training_and_eval():
    # a name left defined but no longer called would leave its span empty
    spans = _spans_module()
    data = [LabeledExample(text, label) for text, label in (("awful room", 0), ("plain room", 1), ("lovely room", 2))]
    vocab = build_vocab([ex.text for ex in data], 50)
    config = encoder.EncoderConfig(num_layers=1, num_heads=2, d_model=8, d_ff=16, max_len=8, dropout_rate=0.1)
    net = model.SentimentModel.init(vocab, config, seed=0)
    recorder = spans.Recorder()
    with spans.instrumented(recorder, SB):
        classify.train(data * 2, classify.TrainConfig(epochs=1, batch_size=4, val_split=0.5), net)
        net.hidden_states([encode_pair("lovely room", None, vocab, config.max_len)])
    by_name = spans.summary(recorder.spans)
    silent = [name for name in LAYER_SPANS if by_name.get(name, {"calls": 0})["calls"] < 1]
    assert not silent, f"spans that recorded no call: {silent}"
    forwards = [sp[4] for sp in recorder.spans if sp[0] == "model.hidden_states"]
    assert 1 in forwards and 0 in forwards  # training and eval-mode forwards both pass the hook
    assert not hasattr(model.SentimentModel.hidden_states, "__wrapped__")  # restored afterwards
