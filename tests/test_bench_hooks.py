"""The benchmark's span wrappers replace attributes by name; every one of
them must still exist where the benchmark looks for it."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from sentibert import checkpoint, classify, cli, encoder, model, optim, pretrain, tensor

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_boundary_exists():
    sb = SimpleNamespace(
        checkpoint=checkpoint,
        classify=classify,
        cli=cli,
        encoder=encoder,
        model=model,
        optim=optim,
        pretrain=pretrain,
        tensor=tensor,
    )
    targets = _spans_module().targets(sb)
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr, _, _ in targets if attr not in owner.__dict__]
    assert not missing, f"wrapped boundaries the program no longer has: {missing}"
