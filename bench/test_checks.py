"""Self-tests of the benchmark's checks and span arithmetic.

Each check must accept a correct input and reject a deliberately wrong one.
Run with:  python3 -m pytest bench/test_checks.py -q
"""

import json
import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import spans

SRC = Path(__file__).resolve().parent.parent / "src"


def test_exit_code():
    checks.exit_code("train", 0)
    with pytest.raises(checks.CheckFailed, match="exited 2"):
        checks.exit_code("train", 2, '{"error": "data"}')


def test_strictly_falling_rejects_flat_and_rising_curves():
    checks.strictly_falling([1.1, 0.9, 0.5], "loss")
    for bad in ([1.1, 1.1, 0.5], [1.1, 0.9, 0.95], [0.7]):
        with pytest.raises(checks.CheckFailed):
            checks.strictly_falling(bad, "loss")


def test_curve_losses_read_the_train_column():
    csv_text = "epoch,train_loss,train_acc,val_loss,val_acc\n1,0.9,0.5,1.0,0.4\n2,0.8,0.6,0.95,0.5\n"
    assert checks.curve_train_losses(csv_text) == [0.9, 0.8]


def test_accuracy_floor():
    checks.at_least(0.95, 0.90, "accuracy")
    with pytest.raises(checks.CheckFailed):
        checks.at_least(0.89, 0.90, "accuracy")


CONFUSION = ",negative,neutral,positive\nnegative,5,1,0\nneutral,0,6,0\npositive,1,0,7\n"


def test_accuracy_must_be_confusion_trace_over_sum():
    assert checks.accuracy_is_confusion_trace(json.dumps({"accuracy": 18 / 20}), CONFUSION) == 0.9
    with pytest.raises(checks.CheckFailed):
        checks.accuracy_is_confusion_trace(json.dumps({"accuracy": 0.85}), CONFUSION)


def _fake_checkpoint(path, payload_floats):
    header = json.dumps({"format_version": 1}).encode()
    path.write_bytes(struct.pack("<I", len(header)) + header + b"\0" * (4 * payload_floats))


CONFIG = {"num_layers": 2, "num_heads": 2, "d_model": 64, "d_ff": 256, "max_len": 64, "dropout_rate": 0.1}


def test_checkpoint_size_rejects_a_payload_of_the_wrong_length(tmp_path):
    n = checks.parameter_count(CONFIG, 50)
    good, short = tmp_path / "good.ckpt", tmp_path / "short.ckpt"
    _fake_checkpoint(good, n)
    _fake_checkpoint(short, n - 1)
    checks.checkpoint_size(str(good), CONFIG, 50)
    with pytest.raises(checks.CheckFailed):
        checks.checkpoint_size(str(short), CONFIG, 50)
    with pytest.raises(checks.CheckFailed):
        checks.checkpoint_size(str(good), CONFIG, 51)  # one more vocab row is d_model more floats


@pytest.mark.skipif(not SRC.is_dir(), reason="needs the program's src/")
def test_parameter_count_matches_a_real_model():
    sys.path.insert(0, str(SRC))
    from sentibert import EncoderConfig, SentimentModel, build_vocab

    vocab = build_vocab(["the room was quiet", "rude staff overall"], 100)
    for config in (CONFIG, {**CONFIG, "num_layers": 1, "num_heads": 4, "d_model": 32, "d_ff": 48}):
        model = SentimentModel.init(vocab, EncoderConfig(**config), seed=0)
        count = sum(t.data.size for t in model.named_parameters().values())
        assert checks.parameter_count(config, len(vocab)) == count


def test_probability_rows():
    checks.probability_rows([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
    for bad in (
        [[0.2, 0.3, 0.5 + 1e-9]],  # does not sum to 1 within 1e-12
        [[1.2, -0.2, 0.0]],  # negative entry
        [[math.nan, 0.5, 0.5]],
        [[0.5, 0.5]],  # wrong class count
    ):
        with pytest.raises(checks.CheckFailed):
            checks.probability_rows(bad)


def test_rows_agree_rejects_a_batch_dependent_prediction():
    alone = np.array([[0.1, 0.2, 0.7]])
    checks.rows_agree(alone, alone + 1e-12, "pad isolation")
    with pytest.raises(checks.CheckFailed):
        checks.rows_agree(alone, alone + np.array([[1e-7, -1e-7, 0.0]]), "pad isolation")
    with pytest.raises(checks.CheckFailed):
        checks.rows_agree(alone, np.vstack([alone, alone]), "pad isolation")


def test_accuracy_from_labels():
    checks.accuracy_from_labels(0.75, [0, 1, 2, 2], [0, 1, 2, 1])
    with pytest.raises(checks.CheckFailed):
        checks.accuracy_from_labels(1.0, [0, 1, 2, 2], [0, 1, 2, 1])


def test_initial_loss_near_uniform():
    checks.near(4.0, math.log(60), "initial MLM loss")
    with pytest.raises(checks.CheckFailed):
        checks.near(3.0, math.log(60), "initial MLM loss")
    with pytest.raises(checks.CheckFailed):
        checks.near(0.85, math.log(2), "initial NSP loss")


def test_all_finite():
    checks.all_finite([1.0, 0.5], "losses")
    for bad in ([1.0, math.nan], [math.inf]):
        with pytest.raises(checks.CheckFailed):
            checks.all_finite(bad, "losses")


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; root > child [5, 9]
    recorded = [
        ("root", 0.0, 10.0, -1, None),
        ("child", 1.0, 4.0, 0, None),
        ("grandchild", 2.0, 3.0, 1, None),
        ("child", 5.0, 9.0, 0, None),
    ]
    assert spans.self_times(recorded) == [3.0, 2.0, 1.0, 4.0]
    assert spans.summary(recorded)["child"] == {"calls": 2, "total_s": 7.0, "self_s": 6.0}


def test_recorder_nests_and_pauses():
    rec = spans.Recorder()
    inner = rec.wrap(lambda x: x + 1, "inner")
    outer = rec.wrap(lambda x: inner(x) * 2, "outer")
    assert outer(1) == 4
    with rec.paused():
        assert outer(1) == 4
    names = [(s[0], s[3]) for s in rec.spans]
    assert names == [("outer", -1), ("inner", 0)]


def test_step_counts_come_from_fine_tune_steps_only():
    def sp(name, parent, value=None):
        return (name, 0.0, 0.0, parent, value)

    recorded = [
        sp("classify.train", -1),
        sp("model.hidden_states", 0, 1),
        sp("model.hidden_states", 0, 1),
        sp("tensor.backward", 0, 100),
        sp("model.hidden_states", 0, 0),  # eval-mode rescoring: not a training forward
        sp("pretrain.pretrain_step", -1),
        sp("model.hidden_states", 5, 1),
        sp("tensor.backward", 5, 7),  # pretraining tape: excluded
    ]
    metrics = spans.layer_metrics(recorded)
    assert metrics["tensor.tape_nodes_per_step"] == 100
    assert metrics["model.forwards_per_step"] == 2
    assert metrics["model.hidden_states_calls"] == 4
