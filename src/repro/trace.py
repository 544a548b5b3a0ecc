"""Pretty-print a saved query trace: ``python -m repro.trace [FILE]``.

Reads a JSON document that is either a span tree exported by
:meth:`repro.core.trace.Span.to_dict`, a full
``QueryResult.to_dict()`` / ``to_json()`` dump, or a serving-layer
``/query`` response (the ``"trace"`` key is extracted, looking through
the ``"result"`` wrapper when present), and renders one line per span:
name, wall milliseconds, share of the root's wall time, CPU
milliseconds, and the span's attributes. With no ``FILE`` (or ``-``)
the document is read from stdin, so server responses pipe straight in:
``curl -sd '{"kind":...,"trace":true}' $HOST/query | python -m
repro.trace``.

Example
-------
.. code-block:: console

   $ python - <<'PY' > trace.json
   from repro import uniform, certain
   from repro.core.engine import RankingEngine
   db = [certain("a", 9.0), uniform("b", 5.0, 8.0)]
   print(RankingEngine(db).utop_rank(1, 1, trace=True).to_json())
   PY
   $ python -m repro.trace trace.json
   query      1.234 ms 100.0%  cpu    1.100 ms  [kind=utop_rank ...]
     prune    0.040 ms   3.2%  cpu    0.039 ms  [level=1]
     exact    1.100 ms  89.1%  cpu    1.000 ms  [outcome=ok]
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from .core.trace import render_trace, stage_durations, summarize_stages

__all__ = ["main", "render_stats"]


def _load(path: str) -> Any:
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _extract_span(document: Any) -> Dict[str, Any]:
    """The span tree inside ``document``, whatever wrapper it came in."""
    if not isinstance(document, dict):
        raise ValueError("trace document must be a JSON object")
    if "wall_seconds" in document and "name" in document:
        return document
    trace = document.get("trace")
    if isinstance(trace, dict):
        return trace
    # A serving-layer response wraps the QueryResult under "result".
    result = document.get("result")
    if isinstance(result, dict) and isinstance(result.get("trace"), dict):
        return result["trace"]
    raise ValueError(
        "no span tree found: expected a Span.to_dict() export, a "
        "QueryResult dump, or a /query response with a non-null "
        "'trace' key (was the query run with trace=True?)"
    )


def render_stats(node: Dict[str, Any]) -> str:
    """Per-stage duration summary of one span tree, as a table.

    Aggregates every span's wall time by span name —
    count / total / p50 / max — with
    :func:`repro.core.trace.stage_durations` and
    :func:`repro.core.trace.summarize_stages`, sorted by total
    descending so the dominant stage leads.
    """
    summary = summarize_stages(stage_durations(node))
    header = (
        f"{'stage':<20} {'count':>5} {'total ms':>12} "
        f"{'p50 ms':>12} {'max ms':>12}"
    )
    lines = [header, "-" * len(header)]
    for stats in sorted(
        summary.values(),
        key=lambda s: (-s.total_seconds, s.name),
    ):
        lines.append(
            f"{stats.name:<20} {stats.count:>5} "
            f"{stats.total_seconds * 1000.0:>12.3f} "
            f"{stats.p50_seconds * 1000.0:>12.3f} "
            f"{stats.max_seconds * 1000.0:>12.3f}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description=(
            "Pretty-print a saved query trace (Span.to_dict() JSON or a "
            "QueryResult dump containing one)."
        ),
    )
    parser.add_argument(
        "path",
        nargs="?",
        default="-",
        help=(
            "path to the JSON trace file; omit (or pass '-') to read "
            "stdin, e.g. piping a /query response from the server"
        ),
    )
    parser.add_argument(
        "--indent",
        default="  ",
        help="indentation unit per tree level (default: two spaces)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help=(
            "summarize per-stage durations across the trace "
            "(count/total/p50/max per span name) instead of printing "
            "the tree"
        ),
    )
    args = parser.parse_args(argv)
    try:
        document = _load(args.path)
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {args.path} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        node = _extract_span(document)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.stats:
        print(render_stats(node))
    else:
        print(render_trace(node, indent=args.indent))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
