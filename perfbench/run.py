"""Ranking-engine benchmark: one command, two workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold-mix --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``):

- ``cold-mix`` -- an operation asks seven queries in turn (UTop-Rank,
  PT-k, UTop-Prefix, UTop-Set, Rank-Agg), each of a freshly loaded
  table in a fresh engine.
- ``serve-edits`` -- over HTTP, commit a one-record edit to the live
  table behind a warm service (``POST /mutate``), then ask it a query
  (``POST /query``); client and service share this process.

The engine is imported from ``src/`` next to this directory; there is
nothing to build. Set-up runs four times before the measured window
and three times after it, and the median of its times is reported. Numeric libraries
are held to one thread, so the program and its single client are all
that run.
With ``--trace 0`` the program runs untouched and the last line of
standard output carries the end-to-end metrics; with ``--trace 1``
timing wrappers are installed around the engine's layers (``layers.py``)
and the line carries the per-layer metrics instead. Answers are checked
in every run; ``correct`` reports the outcome.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

SRC = Path(__file__).resolve().parent.parent / "src"
#: Set-up runs this many times before the measured window and this many
#: after it, so its times sample the host at both ends of the run.
SETUP_BEFORE = 4
SETUP_AFTER = 3
WORKLOAD_NAMES = ("cold-mix", "serve-edits")

#: Layers whose self time is reported, in milliseconds per operation.
TIMED_LAYERS = (
    "table",
    "validate",
    "fingerprint",
    "prune",
    "sample",
    "cache",
    "mcmc",
    "oracle",
    "engine",
)
#: Program counters reported per run: metric name -> registry counter.
COUNTERS = {
    "samples_drawn": "samples_drawn_total",
    "mcmc_steps": "mcmc_steps_total",
    "cache_hits": "cache_hits_total",
    "cache_misses": "cache_misses_total",
    "cache_topups": "cache_topups_total",
    "cache_migrations": "cache_migrations_total",
    "pairwise_carried": "cache_carried_entries_total",
}


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(latencies_s: List[float], setup_times: List[float]) -> dict:
    # On a shared two-vCPU host the processor runs in a fast or a ~1.5x
    # slower state for seconds to minutes at a time. A run's median lands
    # in whichever state held half of it, so it jumps between runs
    # (21-24% spread across ten seeds), and so do the mean and
    # throughput; p90 sits in the slow state in every run in which the
    # slow state holds at least a tenth of it (5-13% spread).
    ms = [1000.0 * x for x in latencies_s]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
    return {
        "latency_p90_ms": _metric(p90, "ms"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
    }


def per_layer(latencies_s: List[float], tracer, counters: Dict[str, float]) -> dict:
    ops = len(latencies_s)
    metrics = {
        f"{layer}_ms": _metric(1000.0 * tracer.self_seconds[layer] / ops, "ms")
        for layer in TIMED_LAYERS
    }
    # Everything an operation spends outside RankingEngine.query: table
    # load and engine construction in cold-mix, the HTTP stack and the
    # mutation commit in serve-edits.
    outside = sum(latencies_s) - tracer.total_seconds["engine"]
    metrics["outside_query_ms"] = _metric(1000.0 * outside / ops, "ms")
    metrics["ops"] = _metric(ops, "count")
    # Work counts per operation, so they compare across run lengths.
    counts = dict(counters)
    counts["engine_queries"] = tracer.calls["engine"]
    counts["oracle_calls"] = tracer.calls["oracle"]
    counts["pairwise_integrals"] = tracer.calls["pairwise"]
    for name, value in counts.items():
        metrics[name] = _metric(value / ops, "count/op")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: ranking engine sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Before numpy loads: idle BLAS threads spinning on a two-core host
    # would compete with the one thread doing the work.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

    from layers import LayerTracer
    from repro.core.metrics import global_registry
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    setup_times: List[float] = []

    def set_up(times: int) -> None:
        for _ in range(times):
            workload.close()
            # Collect the previous repetition's garbage outside the timer.
            gc.collect()
            started = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - started)

    try:
        set_up(SETUP_BEFORE)

        tracer = LayerTracer()
        registries = (workload.registry, global_registry())

        def counts() -> Dict[str, float]:
            # Table refreshes run before a query installs the engine's
            # registry, so migration counters land in the global one.
            return {
                k: sum(r.counter_total(c) for r in registries)
                for k, c in COUNTERS.items()
            }

        before = counts()
        if args.trace:
            with tracer:
                outcome = workload.measure(args.seconds)
        else:
            outcome = workload.measure(args.seconds)
        after = counts()
        counters = {k: after[k] - before[k] for k in COUNTERS}
        workload.verify()
        set_up(SETUP_AFTER)
    finally:
        workload.close()

    if not outcome.latencies_s:
        print("error: no operation completed", file=sys.stderr)
        for problem in outcome.problems[:5]:
            print(problem, file=sys.stderr)
        return 1
    for problem in outcome.problems[:5]:
        print(f"problem: {problem}", file=sys.stderr)
    print(
        "set-up seconds: " + " ".join(f"{t:.4f}" for t in setup_times),
        file=sys.stderr,
    )
    if args.trace:
        metrics = per_layer(outcome.latencies_s, tracer, counters)
    else:
        metrics = end_to_end(outcome.latencies_s, setup_times)
    print(
        json.dumps(
            {
                "correct": not outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
