"""Eval-mode chunks on worker threads (model.map_chunks): every pooled result
is byte-identical to the caller's one-worker loop, errors and numpy's error
state cross the thread boundary, and the one-thread BLAS the pool relies on
is in place after import."""

import ctypes
import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from sentibert import classify, model, tensor
from sentibert.classify import TrainConfig, _probs_for, evaluate, predict_batch, train
from sentibert.data import LabeledExample
from sentibert.encoder import EncoderConfig
from sentibert.errors import ConfigError, ShapeError
from sentibert.model import SentimentModel, eval_chunks
from sentibert.pretrain import build_masked_batch, eval_losses, nsp_pairs
from sentibert.synthetic import generate_documents, make_sentence
from sentibert.tokenizer import EncodedSequence, build_vocab, encode_pair

CONFIG = EncoderConfig(num_layers=2, num_heads=2, d_model=16, d_ff=32, max_len=64, dropout_rate=0.1)
POOLED = max(3, len(os.sched_getaffinity(0)) + 1)  # more workers than cores


def _reviews(n: int, seed: int) -> list[LabeledExample]:
    """Reviews of 1-7 same-label sentences: 8 to 64 tokens, so a pass cuts several chunks."""
    rng = np.random.default_rng(seed)
    return [
        LabeledExample(", and also ".join(make_sentence(i % 3, rng) for _ in range(1 + i % 7)) + " .", i % 3)
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def reviews():
    return _reviews(60, seed=4)


@pytest.fixture(scope="module")
def net(reviews):
    return SentimentModel.init(build_vocab([ex.text for ex in reviews], 4000), CONFIG, seed=2)


@pytest.fixture
def workers(monkeypatch):
    """workers(n) runs what follows on a fresh pool of n threads (1: the
    caller's loop), under a short switch interval so that threads interleave
    often; the pool is shut down afterwards."""
    interval = sys.getswitchinterval()

    def use(n: int) -> None:
        if model._pool is not None and model._pool is not original:
            model._pool.shutdown()
        monkeypatch.setattr(model, "EVAL_WORKERS", n)
        monkeypatch.setattr(model, "_pool", None)
        sys.setswitchinterval(1e-5)

    original = model._pool
    try:
        yield use
    finally:
        sys.setswitchinterval(interval)
        if model._pool is not None and model._pool is not original:
            model._pool.shutdown()


def _pooled_and_alone(workers, run):
    workers(POOLED)
    pooled = run()
    workers(1)
    return pooled, run()


def test_predict_batch_is_byte_identical_on_the_pool(workers, net, reviews):
    texts = [ex.text for ex in reviews]
    assert len(eval_chunks([encode_pair(t, None, net.vocab, CONFIG.max_len) for t in texts])) >= 3
    pooled, alone = _pooled_and_alone(workers, lambda: predict_batch(texts, net))
    assert [label for label, _ in pooled] == [label for label, _ in alone]
    assert np.stack([p for _, p in pooled]).tobytes() == np.stack([p for _, p in alone]).tobytes()


def test_evaluate_is_byte_identical_on_the_pool(workers, net, reviews):
    (pooled, pooled_cm), (alone, alone_cm) = _pooled_and_alone(workers, lambda: evaluate(net, reviews))
    assert repr(pooled) == repr(alone)
    assert pooled_cm.tobytes() == alone_cm.tobytes()


def test_train_keeps_the_same_curve_and_weights_on_the_pool(workers, reviews, monkeypatch):
    vocab = build_vocab([ex.text for ex in reviews], 4000)

    def run():
        config = TrainConfig(epochs=3, batch_size=8, seed=5, val_split=0.5, keep_best=True)
        trained, curve = train(reviews, config, SentimentModel.init(vocab, CONFIG, seed=3))
        return curve, trained.snapshot()

    chunks = []
    monkeypatch.setattr(classify, "eval_chunks", lambda seqs: chunks.append(eval_chunks(seqs)) or chunks[-1])
    (pooled_curve, pooled_weights), (curve, weights) = _pooled_and_alone(workers, run)
    assert min(map(len, chunks)) >= 2  # every validation re-score ran on the pool
    assert pooled_curve == curve
    assert {name: w.tobytes() for name, w in pooled_weights.items()} == {name: w.tobytes() for name, w in weights.items()}


def test_eval_losses_are_byte_identical_on_the_pool(workers):
    corpus = generate_documents(n_docs=30, sentences_per_doc=4, seed=8)
    vocab = build_vocab([s for doc in corpus for s in doc], 500)
    batch = build_masked_batch(nsp_pairs(corpus, np.random.default_rng(1)), vocab, 64, 0.15, np.random.default_rng(2))
    assert len(eval_chunks(batch.sequences)) >= 3
    net = SentimentModel.init(vocab, CONFIG, seed=6)
    pooled, alone = _pooled_and_alone(workers, lambda: eval_losses(batch, net))
    assert list(pooled) == list(alone)
    assert np.array(list(pooled.values())).tobytes() == np.array(list(alone.values())).tobytes()


def test_a_shape_error_in_a_worker_reaches_the_caller_unchanged(workers, net, reviews):
    seqs = [encode_pair(ex.text, None, net.vocab, CONFIG.max_len) for ex in reviews]
    seqs[7] = EncodedSequence([], [])  # sorts first, into a multi-sequence chunk
    assert len(eval_chunks(seqs)) >= 3 and len(eval_chunks(seqs)[0]) > 1
    messages = []
    for n in (POOLED, 1):
        workers(n)
        with pytest.raises(ShapeError) as caught:
            _probs_for(seqs, net)
        messages.append(str(caught.value))
    assert messages[0] == messages[1] and "batch_layout: lengths (0," in messages[0]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_scores_on_a_pool_of_its_own(workers, net, reviews):
    # the child has none of the parent's worker threads: their pool would take chunks and never run them
    texts = [ex.text for ex in reviews]
    workers(POOLED)
    expected = np.stack([probs for _, probs in predict_batch(texts, net)]).tobytes()  # the parent's pool is up
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork in a process with threads (Python 3.12+)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if np.stack([probs for _, probs in predict_batch(texts, net)]).tobytes() == expected else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if status[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert status[0] == pid, "the forked child did not finish within 60 s"
    assert os.waitstatus_to_exitcode(status[1]) == 0


def _overflowing(net: SentimentModel) -> SentimentModel:
    broken = net.clone()
    broken.params["encoder.0.ffn.w1"].data[:] = 1e300  # layer norm squares the overflow
    return broken


def test_workers_run_under_the_callers_numpy_error_state(workers, net, reviews):
    # tier-1 turns warnings into errors: a worker outside the caller's errstate would raise one
    texts = [ex.text for ex in reviews]
    broken = _overflowing(net)
    workers(POOLED)
    with pytest.warns(RuntimeWarning, match="overflow"):
        predict_batch(texts, broken)
    with np.errstate(all="ignore"):
        results = predict_batch(texts, broken)
    assert len(results) == len(texts)


def test_a_diverging_validation_re_score_on_the_pool_is_a_config_error(workers, reviews, monkeypatch):
    # the one step is finite; the weights it leaves overflow in the workers (silenced by
    # run_epochs' errstate) and make the re-scored validation loss nan
    vocab = build_vocab([ex.text for ex in reviews], 4000)
    step = classify.descend

    def diverge(optimizer, where, loss_fn):
        value = step(optimizer, where, loss_fn)
        optimizer.params["encoder.0.ffn.w1"].data[:] = 1e300
        optimizer.params["classifier.bias"].data[:] = np.nan
        return value

    monkeypatch.setattr(classify, "descend", diverge)
    workers(POOLED)
    config = TrainConfig(epochs=1, batch_size=len(reviews), seed=5, val_split=0.5)
    with pytest.raises(ConfigError, match=r"^epoch 1, after step 1, re-scored validation partition: loss is nan"):
        train(reviews, config, SentimentModel.init(vocab, CONFIG, seed=3))


def _blas_thread_count():
    """numpy's OpenBLAS thread count, read through the thread functions tensor pins it with."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for _, get_name in tensor.BLAS_THREAD_FUNCTIONS:
        get_threads = getattr(lib, get_name, None)
        if get_threads is not None:
            get_threads.restype = ctypes.c_int
            return get_threads()
    return None


@pytest.mark.skipif(
    "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"].lower(),
    reason="numpy's BLAS is not OpenBLAS",
)
def test_import_pins_openblas_to_one_thread_and_sizes_the_pool_per_cpu(monkeypatch):
    # a lookup that silently failed would leave BLAS threads contending with a one-worker pool
    assert _blas_thread_count() == 1
    assert tensor.BLAS_ONE_THREAD is True
    assert model.EVAL_WORKERS == len(os.sched_getaffinity(0))
    monkeypatch.setattr(tensor, "BLAS_THREAD_FUNCTIONS", (("no_such_set_threads", "no_such_get_threads"),))
    assert model.eval_workers(tensor._one_blas_thread()) == 1


def test_the_pool_runs_chunks_on_its_threads_in_chunk_order(workers):
    workers(POOLED)
    names = model.map_chunks(lambda chunk: (chunk, threading.current_thread().name), list(range(20)))
    assert [chunk for chunk, _ in names] == list(range(20))
    assert all(name.startswith("sentibert-eval") for _, name in names)
    workers(1)
    assert model.map_chunks(lambda chunk: threading.current_thread().name, [0, 1]) == [threading.current_thread().name] * 2


def test_an_error_returns_once_the_running_chunks_end_and_drops_the_rest(workers):
    workers(2)
    lock, running, started = threading.Lock(), [0], []

    def fn(chunk):
        with lock:
            running[0] += 1
            started.append(chunk)
        try:
            time.sleep(0.02)
            if chunk == 1:
                raise ValueError("chunk 1")
            return chunk
        finally:
            with lock:
                running[0] -= 1

    with pytest.raises(ValueError, match="^chunk 1$"):
        model.map_chunks(fn, list(range(200)))
    assert running[0] == 0  # no chunk still computes once the caller has the error
    assert len(started) < 200  # chunks queued behind the error never ran
