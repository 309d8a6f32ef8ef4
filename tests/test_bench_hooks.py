"""The benchmark's span wrappers replace attributes by name; every one of
them must still exist where the benchmark looks for it, the layer spans
must still record calls when the program runs, and the forward hook must
still read the training flag where the benchmark looks for it."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from sentibert import checkpoint, classify, cli, encoder, model, optim, pretrain, tensor
from sentibert.data import LabeledExample
from sentibert.synthetic import generate_documents
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
    assert not hasattr(model.SentimentModel.hidden_states, "__wrapped__")  # restored afterwards


def test_forward_hook_records_each_forwards_training_flag():
    # the benchmark reads hidden_states' training flag from its second
    # argument and counts flagged forwards per optimizer step; a query-row
    # list passed in that slot would flag eval-mode forwards as training
    spans = _spans_module()
    data = [LabeledExample(text, label) for text, label in (("awful room", 0), ("plain room", 1), ("lovely room", 2))]
    corpus = generate_documents(n_docs=3, sentences_per_doc=3, seed=1)
    vocab = build_vocab([ex.text for ex in data] + [s for doc in corpus for s in doc], 100)
    config = encoder.EncoderConfig(num_layers=2, num_heads=2, d_model=8, d_ff=16, max_len=16, dropout_rate=0.1)
    net = model.SentimentModel.init(vocab, config, seed=0)
    recorder = spans.Recorder()
    with spans.instrumented(recorder, SB):
        cli.train(data * 2, classify.TrainConfig(epochs=2, batch_size=4, val_split=0.5), net)  # the wrapped name
        classify.predict_batch(["lovely room", "awful room"], net)
        pretrain.run_pretraining(corpus, net, pretrain.PretrainConfig(epochs=1, batch_size=2))
    recorded = recorder.spans
    forwards = [i for i, sp in enumerate(recorded) if sp[0] == "model.hidden_states"]

    def under(name):
        return [i for i in forwards if spans.has_ancestor(recorded, i, name)]

    rescoring, pretrain_eval = under("classify.rescore"), under("pretrain.eval_losses")
    training = [i for i in under("classify.train") if i not in rescoring] + under("pretrain.pretrain_step")
    predicting = [i for i in forwards if recorded[i][3] == -1]  # predict_batch: no enclosing span
    assert rescoring and pretrain_eval and training and predicting
    assert sorted(training + rescoring + pretrain_eval + predicting) == forwards
    assert [recorded[i][4] for i in training] == [1] * len(training)
    assert [recorded[i][4] for i in rescoring + pretrain_eval + predicting] == [0] * (len(forwards) - len(training))
    assert len(training) == sum(1 for sp in recorded if sp[0] == "optim.step")  # one forward per step


def test_a_single_text_forward_records_its_layer_spans_once_per_layer():
    # the benchmark's per-layer figures divide by these counts; a forward that
    # called a wrapped name twice, or bypassed it, would skew them silently
    spans = _spans_module()
    vocab = build_vocab(["lovely room", "awful room"], 50)
    config = encoder.EncoderConfig(num_layers=2, num_heads=2, d_model=8, d_ff=16, max_len=8)
    net = model.SentimentModel.init(vocab, config, seed=0)
    recorder = spans.Recorder()
    with spans.instrumented(recorder, SB):
        for text in ("lovely room", "awful"):
            classify.forward_classify(text, net)
    calls = {name: row["calls"] for name, row in spans.summary(recorder.spans).items()}
    per_forward = {"model.hidden_states": 1, "embedding.embed": 1, "encoder.attention": 1}
    per_forward.update({"encoder.multi_head": 2, "encoder.feed_forward": 2, "encoder.layer_norm": 4})
    assert calls == {"tokenizer.encode_pair": 2, **{name: 2 * count for name, count in per_forward.items()}}
