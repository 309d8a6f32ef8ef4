"""In-memory span recorder and the wrappers that feed it.

A span is (name, start, end, parent, value): parent is the index of the
enclosing span or -1, value an optional count attached by the wrapper (tape
nodes for a backward walk, bytes for a checkpoint save). Spans stay in
memory; the caller writes them out once at the end of a run.

Instrumentation replaces public functions in the namespace of each module
that calls them (for example ``sentibert.classify.encode_pair``), so the
program's own code is untouched, and restores the originals afterwards.
"""

import os
import time
from contextlib import contextmanager


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.active = True

    @contextmanager
    def paused(self):
        """Calls made inside the block (the benchmark's own checks) record nothing."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    @contextmanager
    def span(self, name: str):
        idx = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start, None)

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float, value) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, value)

    def wrap(self, fn, name: str, value_fn=None):
        """Return fn recording one span per call; value_fn(args, kwargs) sets its value."""
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            idx = recorder._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                value = value_fn(args, kwargs) if value_fn is not None else None
                recorder._close(idx, name, start, value)

        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def has_ancestor(spans: list[tuple], idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


# Leaf layers report self time; phase spans, whose work is mostly their
# children, report their whole duration.
SELF_TIMED = (
    "data.ingest",
    "checkpoint.save",
    "checkpoint.load",
    "tokenizer.build_vocab",
    "tokenizer.encode_pair",
    "embedding.embed",
    "encoder.multi_head",
    "encoder.attention",
    "encoder.feed_forward",
    "encoder.layer_norm",
    "tensor.backward",
    "tensor.cross_entropy",
    "optim.step",
    "metrics.report",
)
TOTAL_TIMED = (
    "cli.build_vocab",
    "cli.train",
    "cli.evaluate",
    "classify.rescore",
    "pretrain.build_masked_batch",
    "pretrain.pretrain_step",
    "pretrain.eval_losses",
)
CALL_COUNTS = {
    "tokenizer.encode_pair_calls": "tokenizer.encode_pair",
    "embedding.embed_calls": "embedding.embed",
    "encoder.attention_calls": "encoder.attention",
    "model.hidden_states_calls": "model.hidden_states",
    "optim.steps": "optim.step",
}


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer figures for one round of spans."""
    by_name = summary(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out = {f"{name}_s": by_name.get(name, empty)["self_s"] for name in SELF_TIMED}
    out.update({f"{name}_s": by_name.get(name, empty)["total_s"] for name in TOTAL_TIMED})
    out.update({metric: by_name.get(name, empty)["calls"] for metric, name in CALL_COUNTS.items()})

    # fine-tuning steps only: pretraining tapes vary with how many tokens get masked
    steps = [
        i for i, sp in enumerate(spans) if sp[0] == "tensor.backward" and has_ancestor(spans, i, "classify.train")
    ]
    forwards = sum(
        1
        for i, sp in enumerate(spans)
        if sp[0] == "model.hidden_states" and sp[4] == 1 and has_ancestor(spans, i, "classify.train")
    )
    out["tensor.tape_nodes_per_step"] = sum(spans[i][4] for i in steps) / len(steps) if steps else 0.0
    out["model.forwards_per_step"] = forwards / len(steps) if steps else 0.0
    sizes = sorted(sp[4] for sp in spans if sp[0] == "checkpoint.save" and sp[4] is not None)
    out["checkpoint.bytes"] = sizes[len(sizes) // 2] if sizes else 0
    return out


def summary(spans: list[tuple]) -> dict[str, dict]:
    """Per span name: calls, total seconds and self seconds."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own[i]
    return out


def _training_flag(args, kwargs):
    # SentimentModel.hidden_states(self, seq, training=False, rng=None)
    return 1 if kwargs.get("training", args[2] if len(args) > 2 else False) else 0


def _tape_nodes(args, kwargs):
    return len(args[0])  # Graph.backward(self, loss): nodes recorded on this tape


def _file_bytes(args, kwargs):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return os.path.getsize(path) if path and os.path.exists(path) else None


def targets(sb) -> list[tuple]:
    """(owner, attribute, span name, value_fn) for every wrapped boundary.

    sb is a namespace holding the imported sentibert modules.
    """
    return [
        (sb.cli, "ingest", "data.ingest", None),
        (sb.cli, "build_vocab", "tokenizer.build_vocab", None),
        (sb.cli, "train", "classify.train", None),
        (sb.cli, "save_checkpoint", "checkpoint.save", _file_bytes),
        (sb.cli, "load_checkpoint", "checkpoint.load", None),
        (sb.checkpoint, "load_checkpoint", "checkpoint.load", None),
        (sb.classify, "encode_pair", "tokenizer.encode_pair", None),
        (sb.pretrain, "encode_pair", "tokenizer.encode_pair", None),
        (sb.classify, "_partition_scores", "classify.rescore", None),
        (sb.classify, "report", "metrics.report", None),
        (sb.classify, "cross_entropy", "tensor.cross_entropy", None),
        (sb.pretrain, "cross_entropy", "tensor.cross_entropy", None),
        (sb.model.SentimentModel, "hidden_states", "model.hidden_states", _training_flag),
        (sb.model, "embed", "embedding.embed", None),
        (sb.encoder, "multi_head", "encoder.multi_head", None),
        (sb.encoder, "attention", "encoder.attention", None),
        (sb.encoder, "feed_forward", "encoder.feed_forward", None),
        (sb.encoder, "layer_norm", "encoder.layer_norm", None),
        (sb.tensor.Graph, "backward", "tensor.backward", _tape_nodes),
        (sb.optim.Adam, "step", "optim.step", None),
        (sb.optim.SGD, "step", "optim.step", None),
        (sb.pretrain, "build_masked_batch", "pretrain.build_masked_batch", None),
        (sb.pretrain, "pretrain_step", "pretrain.pretrain_step", None),
        (sb.pretrain, "eval_losses", "pretrain.eval_losses", None),
    ]


@contextmanager
def instrumented(recorder: Recorder, sb):
    """Install every wrapper for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, value_fn in targets(sb):
            original = owner.__dict__[attr]  # KeyError names a boundary the program no longer has
            setattr(owner, attr, recorder.wrap(original, name, value_fn))
            saved.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
