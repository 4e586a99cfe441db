#!/usr/bin/env python3
"""Benchmark of the bilag engine, one closed-loop client in one process.

    python3 perfbench/run.py --workload scenes --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
thread sends the next op only after the previous one has finished, and
full passes over the workload's fixed op list repeat until ``--seconds``
have gone by (at least one pass).  Every op's output is checked against a
known answer; an op that raises or answers wrongly counts as failed.
Reported times are scaled to a reference speed that ``reference.py``
measures around every op; the raw times are printed as ``raw_*``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
untraced and one pass with every public ``bilag`` function of the layer
list in ``tracing.py`` wrapped from outside, and prints per-layer calls,
self and total time and outcome ratios; the spans go to
``perfbench/out/spans-<workload>-<seed>.tsv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

import reference
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 15
WORKLOADS = ("scenes", "ladder", "transport")


def import_fresh():
    """Forget bilag and the workload module, then import both again."""
    for name in list(sys.modules):
        if name in ("bilag", "workloads") or name.startswith("bilag."):
            del sys.modules[name]
    wl = importlib.import_module("workloads")
    pkg = os.path.dirname(os.path.abspath(sys.modules["bilag"].__file__))
    if os.path.dirname(pkg) != SRC:
        raise ImportError(f"bilag was imported from {pkg}, not from {SRC}")
    return wl


def setup(workload: str, seed: int, workdir: str):
    """Import plus input building, repeated.

    Returns (module, ops, median scaled seconds, median raw seconds).
    """
    raw, scaled = [], []
    before = reference.sample()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl = import_fresh()
        ops = wl.build_ops(workload, seed, workdir)
        elapsed = time.perf_counter() - start
        after = reference.sample()
        raw.append(elapsed)
        scaled.append(reference.scaled(elapsed, before, after))
        before = after
    return wl, ops, statistics.median(scaled), statistics.median(raw)


class Pass:
    """Per-op samples of one or more full passes, scaled and raw."""

    def __init__(self, ops):
        self.labels = [op.label for op in ops]
        self.seconds = [[] for _ in ops]  # at the reference speed
        self.raw_seconds = [[] for _ in ops]
        self.flat_seconds = [[] for _ in ops]  # at the reference speed
        self.reference = []
        self.attempted = 0
        self.problems = []

    @property
    def failed(self) -> int:
        return len(self.problems)

    def wall_s(self, raw: bool = False) -> float:
        """One pass: the sum over ops of each op's median time."""
        return sum(statistics.median(s) for s in (self.raw_seconds if raw else self.seconds))

    def raw_samples(self) -> list:
        return [t for s in self.raw_seconds for t in s]

    def typical_seconds(self) -> list:
        """Every sample replaced by its op's median: the op mix, without jitter."""
        return [statistics.median(s) for s in self.seconds for _ in s]


def measure(wl, ops, seed: int, seconds: float, passes=None, tracer=None) -> Pass:
    """Closed loop over full passes until `seconds` are up (or `passes` done)."""
    out = Pass(ops)
    start = time.perf_counter()
    done = 0
    before = reference.sample()
    while True:
        for index, op in enumerate(ops):
            gc.collect()
            if tracer is not None:
                tracer.op = index
            op_seed = wl.op_seed(seed, index)
            elapsed, result, problem = wl.run_op(op, op_seed)
            after = reference.sample()
            out.reference.append(after)
            if problem is None:
                if tracer is not None:
                    tracer.enabled = False
                problem = wl.check_op(op, result, op_seed)
                if tracer is not None:
                    tracer.enabled = True
            out.attempted += 1
            out.raw_seconds[index].append(elapsed)
            out.seconds[index].append(reference.scaled(elapsed, before, after))
            if isinstance(result, dict) and "flat_s" in result:
                out.flat_seconds[index].append(reference.scaled(result["flat_s"], before, after))
            if problem is not None:
                out.problems.append(f"{op.label}: {problem}")
            del result
            before = after
        done += 1
        if done == passes or (passes is None and time.perf_counter() - start >= seconds):
            return out


def percentile(values, q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run: Pass, setup_s: float, raw_setup_s: float) -> tuple:
    """(metrics for the JSON line, extra lines for the table)."""
    wall = run.wall_s()
    typical = run.typical_seconds()
    raw = run.raw_samples()
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (len(run.labels) / wall, "1/s"),
        "op_p50_ms": (percentile(typical, 50) * 1000, "ms"),
        "op_p90_ms": (percentile(typical, 90) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {"fail_ratio": (run.failed / run.attempted, "ratio"),
             "op_samples": (len(raw), "count"),
             "raw_setup_s": (raw_setup_s, "s"),
             "raw_wall_s": (run.wall_s(raw=True), "s"),
             "raw_op_p50_ms": (percentile(raw, 50) * 1000, "ms"),
             "raw_op_p90_ms": (percentile(raw, 90) * 1000, "ms"),
             "reference_ms": (statistics.median(run.reference) * 1000, "ms")}
    top = [statistics.median(f) for label, f in zip(run.labels, run.flat_seconds)
           if f and label.endswith("-dim8")]
    if top:
        extra["flat_top_s"] = (sum(top), "s")
    return metrics, extra


def per_layer(tracer, wl, traced: Pass, untraced: Pass) -> dict:
    """Calls, self and total time per traced function, plus outcome ratios."""
    self_s, total_s = tracer.times()
    metrics = {}
    for name, n, own, total in zip(tracer.names, tracer.calls(), self_s, total_s):
        metrics[f"{name}.calls"] = (n, "count")
        metrics[f"{name}.self_s"] = (own, "s")
        metrics[f"{name}.total_s"] = (total, "s")

    def share(count, name):
        total = metrics[f"{name}.calls"][0]
        return (count / total if total else 0.0, "ratio")

    metrics["symexpr.normal.cache_hit_ratio"] = share(tracer.normal_hits, "symexpr.Expr.normal")
    metrics["symexpr.poly_gcd.trivial_ratio"] = share(tracer.gcd_trivial, "symexpr.poly_gcd")
    metrics["symexpr.equal_zero.nonzero_ratio"] = share(tracer.zero_nonzero, "symexpr.equal_zero")
    metrics["calculus.elim.self_s"] = (
        sum(metrics[f"calculus.{name}.self_s"][0] for name in tracing.ELIMINATION), "s")
    metrics["structures.christoffels.nonzero_ratio"] = (
        wl.nonzero_ratio(tracer.kept_connections, 3), "ratio")
    metrics["structures.curvature.nonzero_ratio"] = (
        wl.nonzero_ratio(tracer.kept_curvatures, 4), "ratio")
    metrics["trace.overhead_ratio"] = (traced.wall_s() / untraced.wall_s(), "ratio")
    return metrics


def print_table(title: str, metrics: dict):
    print(title)
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:<{width}}  {shown:>12} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        wl, ops, setup_s, raw_setup_s = setup(args.workload, args.seed, workdir)
    except ImportError as exc:
        print(f"perfbench: cannot import the package under {SRC}: {exc}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            untraced = measure(wl, ops, args.seed, args.seconds, passes=1)
            tracer = tracing.Tracer()
            with tracer:
                traced = measure(wl, ops, args.seed, args.seconds, passes=1, tracer=tracer)
            runs = (untraced, traced)
            metrics = per_layer(tracer, wl, traced, untraced)
            os.makedirs(OUT, exist_ok=True)
            tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.tsv"))
            extra = {"trace.spans": (len(tracer.starts), "count")}
        else:
            run = measure(wl, ops, args.seed, args.seconds)
            runs = (run,)
            metrics, extra = end_to_end(run, setup_s, raw_setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    problems = [p for r in runs for p in r.problems]
    for problem in problems:
        print(f"perfbench: failed op {problem}", file=sys.stderr)
    passes = len(runs[-1].seconds[0])
    print_table(f"{args.workload} seed={args.seed} trace={args.trace} "
                f"passes={passes} ops/pass={len(ops)} attempted={attempted} "
                f"failed={len(problems)}", {**metrics, **extra})
    print_table("median per op, at the reference speed", {
        f"{index} {label}": (statistics.median(s) * 1000, "ms")
        for index, (label, s) in enumerate(zip(runs[-1].labels, runs[-1].seconds))})
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
