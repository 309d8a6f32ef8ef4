#!/usr/bin/env python3
"""Benchmark for sentibert: runs one workload against the program built from
this checkout's ``src/`` and prints one JSON result as the last line.

    python3 bench/run.py --workload finetune-short --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one table
    python3 bench/run.py --describe --seed 1       # measured make-up of the inputs

With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
holds the per-layer metrics from alternate traced rounds, plus the tracing
overhead measured against the untraced rounds between them. See README.md.
"""

import argparse
import gzip
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import spans  # no numpy: safe before the BLAS environment is set

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("finetune-short", "infer-varlen", "pretrain-pairs")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 900

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cli_chain_s": "s",
    "train_examples_per_s": "examples/s",
    "predict_seq_per_s": "seq/s",
    "eval_seq_per_s": "seq/s",
    "classify_latency_ms_p50": "ms",
    "classify_latency_ms_tail": "ms",
    "pretrain_pairs_per_s": "pairs/s",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="measurement time after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=None, help="default: nproc")
    parser.add_argument("--describe", action="store_true", help="print the input make-up and exit")
    return parser.parse_args(argv)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _import_program() -> SimpleNamespace:
    """Import sentibert from this checkout's src/, never from anywhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import sentibert
    from sentibert import (
        checkpoint,
        classify,
        cli,
        data,
        encoder,
        model,
        optim,
        pretrain,
        synthetic,
        tensor,
        tokenizer,
    )

    if not Path(sentibert.__file__).resolve().is_relative_to(src):
        raise ImportError(f"sentibert was imported from {sentibert.__file__}, not from {src}")
    return SimpleNamespace(
        checkpoint=checkpoint,
        classify=classify,
        cli=cli,
        data=data,
        encoder=encoder,
        model=model,
        optim=optim,
        pretrain=pretrain,
        synthetic=synthetic,
        tensor=tensor,
        tokenizer=tokenizer,
    )


def _machine(blas_threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
    }


def _result(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> dict:
    def value(x):
        return x if math.isfinite(x) else None  # JSON has no NaN

    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value(metrics[name]), "unit": units[name]} for name in units},
    }


def run_workload(args) -> int:
    threads = args.blas_threads or _nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)  # before numpy is first imported
    start = time.perf_counter()
    try:
        sb = _import_program()
    except ImportError as exc:
        print(f"cannot import sentibert from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start

    import speed
    import workloads

    import_s *= speed.scale(speed.calibrate(), speed.calibrate())
    machine = _machine(threads)
    print("machine: " + json.dumps(machine, sort_keys=True))
    meter = speed.Meter()
    model_cls = sb.model.SentimentModel
    forward = model_cls.__dict__["hidden_states"]

    def hidden_states(*args, **kwargs):
        meter.tick()  # sample host speed during long operations
        return forward(*args, **kwargs)

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    model_cls.hidden_states = hidden_states
    try:
        workload = workloads.Workload(args.workload, args.seed, sb)
        setup_times = []
        for k in range(SETUP_REPEATS):
            meter.start()
            state = workload.setup(workdir / f"setup{k}")
            setup_times.append(meter.stop()[0])

        tally = workloads.Tally()
        rounds: list[tuple[bool, object, object]] = []
        begin = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 0
            recorder = spans.Recorder() if traced else None
            meter.sampling = not traced
            before = speed.calibrate()
            if traced:
                with spans.instrumented(recorder, sb):
                    r = workload.run_round(state, tally, meter, recorder)
            else:
                r = workload.run_round(state, tally, meter)
            r.speed_scale = speed.scale(before, speed.calibrate())
            rounds.append((traced, r, recorder))
            enough = not args.trace or len(rounds) >= 2
            if enough and time.perf_counter() - begin >= args.seconds:
                break
    finally:
        model_cls.hidden_states = forward
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    for message in tally.check_failures + tally.errors:
        print(f"failed: {message}", file=sys.stderr)
    print(f"rounds: {len(rounds)}  speed scale per round: {[round(r.speed_scale, 3) for _, r, _ in rounds]}")

    if args.trace:
        per_round = [
            {k: v * r.speed_scale if k.endswith("_s") else v for k, v in spans.layer_metrics(rec.spans).items()}
            for traced, r, rec in rounds
            if traced
        ]
        metrics = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
        traced_s = statistics.median(r.op_s for traced, r, _ in rounds if traced)
        plain_s = statistics.median(r.op_s for traced, r, _ in rounds if not traced)
        metrics["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
        units = {name: _layer_unit(name) for name in metrics}
        _write_trace(args, machine, [rec.spans for traced, _, rec in rounds if traced])
    else:
        metrics = workloads.summarize([r for _, r, _ in rounds])
        metrics["setup_s"] = import_s + statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
    finite = all(math.isfinite(metrics[name]) for name in units)
    for name, unit in units.items():
        print(f"  {name:<34} {metrics[name]:>14.6g} {unit}")
    correct = not tally.check_failures and finite
    print(json.dumps(_result(correct, tally.attempted, tally.failed, metrics, units)))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "trace.overhead_pct":
        return "%"
    if name == "checkpoint.bytes":
        return "bytes"
    return "count"


def _write_trace(args, machine: dict, traced_rounds: list[list[tuple]]) -> None:
    """Write every span of the run once, at the end."""
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json.gz"
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine,
        "span_fields": ["name", "start", "end", "parent", "value"],
        "rounds": [{"summary": spans.summary(s), "spans": s} for s in traced_rounds],
    }
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(payload, fh)
    print(f"spans written to {path.relative_to(ROOT)}")


def run_all(args) -> int:
    """Every workload in its own process, then one table of every metric."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.blas_threads:
            cmd += ["--blas-threads", str(args.blas_threads)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            return proc.returncode or 1
        if not results:
            print(lines[0])  # machine info
        results[name] = json.loads(lines[-1])
    first = next(iter(results.values()))
    print(f"{'metric':<34} {'unit':<11}" + "".join(f"{n:>16}" for n in results))
    for metric, entry in first["metrics"].items():
        row = "".join(f"{r['metrics'][metric]['value']:>16.6g}" for r in results.values())
        print(f"{metric:<34} {entry['unit']:<11}{row}")
    print(f"{'attempted':<46}" + "".join(f"{r['attempted']:>16}" for r in results.values()))
    print(f"{'failed':<46}" + "".join(f"{r['failed']:>16}" for r in results.values()))
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


def describe(args) -> int:
    try:
        sb = _import_program()
    except ImportError as exc:
        print(f"cannot import sentibert from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads

    for name in WORKLOADS:
        for row in workloads.describe(name, args.seed, sb):
            print(json.dumps(row))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.describe:
        return describe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
