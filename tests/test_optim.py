import dataclasses
import re
import warnings

import numpy as np
import pytest

from gradcheck import traced_peak
from sentibert.classify import TrainConfig
from sentibert.encoder import EncoderConfig
from sentibert.errors import ConfigError
from sentibert.model import SentimentModel
from sentibert.optim import SGD, Adam, LoopConfig, run_epochs
from sentibert.pretrain import PretrainConfig
from sentibert.tensor import parameter
from sentibert.tokenizer import SPECIAL_TOKENS, Vocab


def test_run_epochs_slices_one_permutation_per_epoch():
    calls = []

    def step(where, idx):
        calls.append((where, list(idx)))
        return float(len(idx))

    def end_epoch(where, losses):
        calls.append((where, losses))
        return {"last": where, "losses": losses}

    records = run_epochs(LoopConfig(epochs=2, batch_size=4), 10, np.random.default_rng(5), step, end_epoch)

    expected = np.random.default_rng(5)
    for epoch in (1, 2):
        order = list(expected.permutation(10))
        epoch_calls = calls[4 * (epoch - 1) : 4 * epoch]
        assert epoch_calls == [
            (f"epoch {epoch}, step 1", order[0:4]),
            (f"epoch {epoch}, step 2", order[4:8]),
            (f"epoch {epoch}, step 3", order[8:10]),
            (f"epoch {epoch}, after step 3", [4.0, 4.0, 2.0]),
        ]
    assert len(calls) == 8
    assert records == [
        {"epoch": 1, "last": "epoch 1, after step 3", "losses": [4.0, 4.0, 2.0]},
        {"epoch": 2, "last": "epoch 2, after step 3", "losses": [4.0, 4.0, 2.0]},
    ]
    assert [list(r) for r in records] == [["epoch", "last", "losses"]] * 2


def test_run_epochs_with_no_examples_still_ends_each_epoch():
    # the task's end_epoch decides what an empty set means (pretraining's
    # held-out scoring raises ContractError on it)
    calls = []
    records = run_epochs(LoopConfig(epochs=1), 0, np.random.default_rng(0), None, lambda *args: calls.append(args) or {})
    assert calls == [("epoch 1, after step 0", [])]
    assert records == [{"epoch": 1}]


def test_run_epochs_silences_numpy_warnings():
    # a diverging run fails on its non-finite loss, not on a numpy warning
    def step(where, idx):
        return float(np.float64(1.0) / np.float64(0.0))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = run_epochs(LoopConfig(epochs=1), 3, np.random.default_rng(0), step, lambda where, losses: {})
    assert records == [{"epoch": 1}]


@pytest.mark.parametrize("config_cls", [TrainConfig, PretrainConfig])
@pytest.mark.parametrize(
    "field, value, message",
    [
        ("epochs", 0, "epochs must be at least 1, got 0"),
        ("batch_size", 0, "batch_size must be at least 1, got 0"),
        ("seed", -1, "seed must be nonnegative, got -1"),
        ("lr", float("nan"), "lr must be a finite nonnegative number, got nan"),
        ("epochs", 2.0, "epochs must be int, got 2.0"),
    ],
)
def test_both_task_configs_check_the_loop_fields(config_cls, field, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        config_cls(**{field: value})


@pytest.mark.parametrize("config_cls", [EncoderConfig, TrainConfig, PretrainConfig])
def test_every_config_field_is_a_scalar_check_field_types_checks(config_cls):
    # one rule for every config value: check_field_types covers exactly these kinds
    for f in dataclasses.fields(config_cls):
        assert f.type in (int, float, bool, str), f"{config_cls.__name__}.{f.name} is {f.type}"


def _step_peak(optimizer_cls) -> tuple[int, int]:
    """The traced allocation peak of one step, after two warm-up steps, of
    optimizer_cls on the default model's classifier set; and its largest tensor's bytes."""
    vocab = Vocab(list(SPECIAL_TOKENS) + ["good", "bad"])
    params = SentimentModel.init(vocab, EncoderConfig(), seed=0).named_parameters("classifier")
    largest = max(p.data.nbytes for p in params.values())
    rng = np.random.default_rng(0)
    grads = {name: rng.normal(size=p.data.shape) for name, p in params.items()}
    opt = optimizer_cls(params)
    for warm_up in (True, True, False):
        for name, p in params.items():
            p.grad = grads[name]
        if warm_up:
            opt.step()
    return traced_peak(opt.step), largest


def test_adam_step_allocates_nothing_in_proportion_to_the_weights():
    peak, largest = _step_peak(Adam)
    assert largest == 64 * 256 * 8
    assert peak < largest, f"one step peaked at {peak} B, the largest tensor is {largest} B"


def test_sgd_step_allocates_nothing_in_proportion_to_the_weights():
    peak, largest = _step_peak(SGD)
    assert largest == 64 * 256 * 8
    assert peak < largest, f"one step peaked at {peak} B, the largest tensor is {largest} B"


def test_sgd_step_is_the_textbook_update_bit_for_bit():
    rng = np.random.default_rng(1)
    params = {"a": parameter(rng.normal(size=(3, 4))), "b": parameter(rng.normal(size=5))}
    grads = {name: rng.normal(size=p.data.shape) for name, p in params.items()}
    expected = {name: p.data - 0.3 * grads[name] for name, p in params.items()}
    for name, p in params.items():
        p.grad = grads[name]
    SGD(params, lr=0.3).step()
    for name, p in params.items():
        np.testing.assert_array_equal(p.data, expected[name])
        assert p.grad is None
