"""Benchmark of cubeiso: one workload per run, checked end to end.

Run from the repository root::

    python3 perfbench/run.py --workload classify_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` times whole rounds of the workload's operations for at least
``--seconds`` and reports the end-to-end metrics.  ``--trace 1`` runs two
rounds untraced and one round with spans around every layer call, and
reports the per-layer metrics.  Every output is checked after timing.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs each
workload in its own process, one after the other.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import checker
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("classify_grid", "classify_rational", "lattice")
LAYERS = (
    "geometry", "symmetrize", "variation", "classify", "enclosure",
    "search", "exhaustive", "formats", "cli",
)
SETUP_REPEATS = 5
TAIL_PERCENTILE = 90
# A timed run makes at least this many operations, so that ten or more lie
# beyond the 90th percentile that op_tail_ms reports.
MIN_OPS = 100
CHILD_TIMEOUT_S = 900


def import_program() -> SimpleNamespace:
    """Import cubeiso afresh from this checkout's ``src`` directory."""
    for name in [n for n in sys.modules if n == "cubeiso" or n.startswith("cubeiso.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {layer: importlib.import_module(f"cubeiso.{layer}") for layer in LAYERS}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"cubeiso was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def set_up(workload: str, seed: int, workdir: Path):
    """Import, generate and write the inputs, and warm up, several times;
    returns the last workload and the median set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        mods = import_program()
        wl = workloads.BY_NAME[workload](mods, seed, workdir)
        wl.warm_up()
        times.append(time.perf_counter() - t0)
    return mods, wl, statistics.median(times)


def run_rounds(ops, *, seconds=0.0, min_ops=0, rounds=None, tracer=None):
    """Time whole rounds of ``ops``: a given number of rounds, or until both
    ``seconds`` have passed and ``min_ops`` operations were made.

    Returns the wall time of each round, per-operation ``(index, latency or
    None)``, the raw outputs per operation index and the errors.
    """
    samples, outputs, errors, walls = [], [[] for _ in ops], [], []
    done = 0
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                out = tracer.op(op.kind, op.run) if tracer else op.run()
            except Exception as exc:  # an operation that fails counts in "failed"
                samples.append((i, None))
                errors.append(f"{op.kind}[{i}]: {type(exc).__name__}: {exc}")
                continue
            samples.append((i, time.perf_counter() - t0))
            outputs[i].append(out)
        done += 1
        walls.append(time.perf_counter() - t_round)
        if rounds is not None:
            if done >= rounds:
                break
        elif time.perf_counter() - t_start >= seconds and len(samples) >= min_ops:
            break
    return walls, samples, outputs, errors


def check_outputs(ops, outputs) -> list:
    """Check each distinct output of every operation; returns the failures."""
    failures = []
    for i, op in enumerate(ops):
        seen = set()
        for raw in outputs[i]:
            frozen = op.freeze(raw)
            if frozen in seen:
                continue
            seen.add(frozen)
            try:
                op.check(frozen)
            except (checker.CheckError, ValueError, KeyError, TypeError) as exc:
                failures.append(f"{op.kind}[{i}]: {type(exc).__name__}: {exc}")
    return failures


def nearest_rank(sorted_values, percentile: float):
    return sorted_values[max(0, math.ceil(percentile / 100 * len(sorted_values)) - 1)]


def end_to_end(walls, samples, setup_s: float) -> dict:
    """The five end-to-end metrics; ``ops_per_s`` is the median over rounds
    of the operations a round completed per second of its wall time."""
    latencies = sorted(lat for _, lat in samples if lat is not None)
    per_round = len(samples) // len(walls)
    rates = [
        sum(lat is not None for _, lat in samples[r * per_round:(r + 1) * per_round]) / wall
        for r, wall in enumerate(walls)
    ]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "ops_per_s": (statistics.median(rates), "ops/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3 if latencies else 0.0, "ms"),
        "op_tail_ms": (nearest_rank(latencies, TAIL_PERCENTILE) * 1e3 if latencies else 0.0, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def by_kind(samples, ops) -> dict:
    kinds: dict = {}
    for i, lat in samples:
        kinds.setdefault(ops[i].kind, []).append(lat)
    return {
        kind: {
            "ops": len(lats),
            "failed": sum(lat is None for lat in lats),
            "median_ms": statistics.median([x for x in lats if x is not None] or [0.0]) * 1e3,
        }
        for kind, lats in sorted(kinds.items())
    }


def run_one(args) -> int:
    if not (SRC / "cubeiso" / "__init__.py").is_file():
        print(f"error: no cubeiso sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    workdir = OUT / f"inputs-{stem}-{os.getpid()}"
    try:
        mods, wl, setup_s = set_up(args.workload, args.seed, workdir)
        if args.trace:
            result, report = traced_run(mods, wl, stem)
        else:
            walls, samples, outputs, errors = run_rounds(wl.ops, seconds=args.seconds, min_ops=MIN_OPS)
            failures = check_outputs(wl.ops, outputs)
            result = {
                "correct": not failures and len(samples) > len(errors),
                "attempted": len(samples),
                "failed": len(errors),
                "metrics": end_to_end(walls, samples, setup_s),
            }
            report = {
                "round_wall_s": walls,
                "ops_per_round": len(wl.ops),
                "by_kind": by_kind(samples, wl.ops),
                "errors": errors[:20],
                "check_failures": failures[:20],
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.update(workload=args.workload, seed=args.seed, result=result)
    (OUT / f"{'trace' if args.trace else 'result'}-{stem}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8"
    )
    for line in sorted(set(report["errors"])) + report["check_failures"]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


def traced_run(mods, wl, stem: str):
    """Untraced rounds, then one round with spans; per-layer metrics.

    The first untraced round settles what the warm-up leaves unsettled, such
    as the allocator's reuse of the large audit buffers; the second is the
    base of ``trace.overhead_ratio``.
    """
    import tracing  # untraced runs load no wrapper

    walls, samples, outputs, errors = run_rounds(wl.ops, rounds=2)
    wall_plain = walls[-1]
    tracer = tracing.Tracer()
    tracer.install(vars(mods))
    try:
        walls, t_samples, t_outputs, t_errors = run_rounds(wl.ops, rounds=1, tracer=tracer)
    finally:
        tracer.uninstall()
    wall_traced = walls[0]
    failures = check_outputs(wl.ops, [a + b for a, b in zip(outputs, t_outputs)])
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = {"value": wall_traced / wall_plain, "unit": "ratio"}
    n_spans = tracer.write_spans(OUT / f"spans-{stem}.csv")
    errors += t_errors
    attempted = len(samples) + len(t_samples)
    result = {
        "correct": not failures and attempted > len(errors),
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
    }
    report = {
        "untraced_wall_s": wall_plain,
        "traced_wall_s": wall_traced,
        "spans": n_spans,
        "by_function": tracer.by_function,
        "errors": errors[:20],
        "check_failures": failures[:20],
    }
    return result, report


def run_all(args) -> int:
    """Each workload in a process of its own; a table, then one JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
            combined["metrics"][f"{workload}.{name}"] = m
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
