"""Machine-readable benchmark emission.

``pytest-benchmark``'s own JSON output tracks per-call timings, but the
perf trajectories we care about across PRs — sampling-backend
throughput, serving-layer latency, planner wall-clock — are written as
small stable-schema JSON files at the repository root
(``BENCH_sampling.json``, ``BENCH_serve.json``, ``BENCH_planner.json``),
regenerated by their benchmarks and committed, so any PR that regresses
them shows up in the diff.

Every report shares the schema-2 envelope: a ``schema`` version and the
uniform ``host`` block from :func:`repro.experiments.host.host_block`
(``cpu_count``, platform, python version), because the numbers only
mean something relative to the machine that produced them.

Sampling schema::

    {
      "schema": 2,
      "unit": "samples_per_second",
      "host": {"cpu_count": ..., "platform": ..., ...},
      "results": [
        {"n": 1000, "backend": "columnar", "samples": ...,
         "seconds": ..., "samples_per_second": ...,
         "speedup_vs_serial": ...},
        ...
      ]
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

from repro.experiments.host import BENCH_SCHEMA, host_block

#: The sampling-throughput report, kept at the repository root next to
#: ROADMAP.md so the perf trajectory is visible without running anything.
SAMPLING_REPORT = Path(__file__).resolve().parent.parent / "BENCH_sampling.json"

#: The serving-layer latency report (p50/p99/QPS per concurrency level,
#: coalesced vs not), regenerated by ``bench_serve.py`` and committed.
SERVE_REPORT = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

#: The adaptive-planner report (planner vs static ladders on the mixed
#: workload), regenerated by ``bench_planner.py`` and committed.
PLANNER_REPORT = Path(__file__).resolve().parent.parent / "BENCH_planner.json"

#: The streaming-update report (update→fresh-answer latency vs cold
#: rebuild across database sizes), regenerated by
#: ``bench_streaming.py`` and committed.
STREAMING_REPORT = (
    Path(__file__).resolve().parent.parent / "BENCH_streaming.json"
)


def write_serve_report(results: List[Dict], deadline_ms: float) -> Path:
    """Write ``BENCH_serve.json`` from service latency rows.

    Each row needs ``concurrency``, ``coalesce``, ``requests``,
    ``seconds``, ``p50_ms``, ``p99_ms``, and ``sampling_runs``; QPS is
    derived here. ``deadline_ms`` is the per-request SLO every row was
    measured under — the benchmark asserts ``p99_ms`` stays below it.
    """
    enriched = []
    for row in results:
        seconds = float(row["seconds"])
        enriched.append(
            {
                "concurrency": int(row["concurrency"]),
                "coalesce": bool(row["coalesce"]),
                "requests": int(row["requests"]),
                "seconds": seconds,
                "p50_ms": float(row["p50_ms"]),
                "p99_ms": float(row["p99_ms"]),
                "qps": (
                    row["requests"] / seconds if seconds > 0 else float("inf")
                ),
                "sampling_runs": int(row["sampling_runs"]),
            }
        )
    payload = {
        "schema": BENCH_SCHEMA,
        "unit": "milliseconds",
        "deadline_ms": float(deadline_ms),
        "host": host_block(),
        "results": enriched,
    }
    SERVE_REPORT.write_text(json.dumps(payload, indent=2) + "\n")
    return SERVE_REPORT


def write_sampling_report(results: List[Dict]) -> Path:
    """Write ``BENCH_sampling.json`` from backend throughput rows.

    Each row needs ``n``, ``backend``, ``samples``, and ``seconds``;
    derived fields (throughput, speedup vs the serial backend at the
    same ``n``) are filled in here so callers only measure.
    """
    serial_seconds = {
        row["n"]: row["seconds"]
        for row in results
        if row["backend"] == "serial"
    }
    enriched = []
    for row in results:
        seconds = float(row["seconds"])
        out = {
            "n": int(row["n"]),
            "backend": str(row["backend"]),
            "samples": int(row["samples"]),
            "seconds": seconds,
            "samples_per_second": (
                row["samples"] / seconds if seconds > 0 else float("inf")
            ),
        }
        base = serial_seconds.get(row["n"])
        if base is not None and seconds > 0:
            out["speedup_vs_serial"] = base / seconds
        enriched.append(out)
    payload = {
        "schema": BENCH_SCHEMA,
        "unit": "samples_per_second",
        "host": host_block(),
        "results": enriched,
    }
    SAMPLING_REPORT.write_text(json.dumps(payload, indent=2) + "\n")
    return SAMPLING_REPORT


def write_streaming_report(payload: Dict[str, Any]) -> Path:
    """Write ``BENCH_streaming.json`` from the streaming bench payload.

    The payload (built by :mod:`repro.experiments.streaming_bench`)
    carries per-size update/cold latencies, reuse fractions, and the
    identity + sublinearity audits; this writer only stamps the shared
    schema envelope.
    """
    payload = dict(payload)
    payload["schema"] = BENCH_SCHEMA
    payload["host"] = host_block()
    STREAMING_REPORT.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return STREAMING_REPORT


def write_planner_report(payload: Dict[str, Any]) -> Path:
    """Write ``BENCH_planner.json`` from the planner benchmark payload.

    The payload (built by :mod:`repro.experiments.planner_bench`)
    carries per-strategy wall-clock totals and the identity/confidence
    audits; this writer only stamps the shared schema envelope.
    """
    payload = dict(payload)
    payload["schema"] = BENCH_SCHEMA
    payload["host"] = host_block()
    PLANNER_REPORT.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return PLANNER_REPORT
