"""Process-wide query metrics: counters, gauges, labelled histograms.

The tracing subsystem (:mod:`repro.core.trace`) answers "where did
*this* query spend its time"; this module answers the aggregate
questions — how many queries ran, how many samples were drawn, how
often the cache hit, how often a budget denied work. It is a
zero-dependency, thread-safe metrics registry in the Prometheus idiom:

- **Counters** (monotone sums), **gauges** (last-write-wins values),
  and **fixed-bucket histograms** (cumulative bucket counts plus
  sum/count), each keyed by a metric name and an optional label set —
  e.g. ``query_duration_seconds{query="utop_rank", method="exact"}``.
- A lazily created **global registry** (:func:`global_registry`) plus a
  **contextvar-carried active registry**: the engine installs its own
  registry for the duration of a query (:func:`use_registry`) and every
  emission point below it — cache, budget, samplers, MCMC — writes to
  :func:`active_registry` through the module-level :func:`inc` /
  :func:`observe` / :func:`set_gauge` helpers, so no signatures change
  below the engine. Contextvars do not flow into worker threads; the
  dispatching code in :mod:`repro.core.parallel` and
  :mod:`repro.core.mcmc` re-installs the captured registry inside each
  worker.
- **JSON export** via :meth:`MetricsRegistry.snapshot`.

Metric names emitted by the engine stack are catalogued in
``docs/DEVELOPMENT.md`` ("Observability architecture").
"""

from __future__ import annotations

import contextvars
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "active_registry",
    "global_registry",
    "inc",
    "observe",
    "set_gauge",
    "use_registry",
]

#: Default histogram bucket upper bounds (seconds), chosen for query
#: latencies: sub-millisecond cache hits through multi-second MCMC walks.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Canonical (sorted, stringified) label items used as dict keys.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_value(value: Any) -> str:
    """One metric value in exposition format (integers without ``.0``)."""
    number = float(value)
    if number.is_integer() and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(labels: Mapping[str, Any]) -> str:
    """``{k="v",...}`` with exposition-format escaping; empty set → ``""``."""
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape_label(str(val))}"'
        for key, val in sorted(labels.items())
    )
    return "{" + body + "}"


class _Histogram:
    """One labelled histogram series: bucket counts plus sum/count."""

    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, n_buckets: int) -> None:
        # One slot per finite bucket plus the +Inf overflow slot.
        self.bucket_counts = [0] * (n_buckets + 1)
        self.total = 0.0
        self.count = 0


class MetricsRegistry:
    """Thread-safe store of labelled counters, gauges, and histograms.

    The process-wide instance (:func:`global_registry`) is the default
    sink; tests and engines wanting isolated accounting construct their
    own and install it per query via :func:`use_registry` (the
    ``RankingEngine(metrics=...)`` knob does exactly that).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Dict[LabelKey, float]] = {}
        self._gauges: Dict[str, Dict[LabelKey, float]] = {}
        self._histograms: Dict[
            str, Tuple[Tuple[float, ...], Dict[LabelKey, _Histogram]]
        ] = {}

    # -- emission ------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` to the counter ``name{labels}``.

        Counters are monotone by convention; negative increments raise
        so a buggy call site cannot silently un-count events.
        """
        if amount < 0:
            raise ValueError(
                f"counter increment must be non-negative, got {amount!r}"
            )
        key = _label_key(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[key] = series.get(key, 0.0) + float(amount)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set the gauge ``name{labels}`` to ``value`` (last write wins)."""
        key = _label_key(labels)
        with self._lock:
            self._gauges.setdefault(name, {})[key] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Optional[Tuple[float, ...]] = None,
        **labels: Any,
    ) -> None:
        """Record ``value`` into the histogram ``name{labels}``.

        Bucket bounds are fixed at the metric's first observation
        (``buckets`` defaults to :data:`DEFAULT_BUCKETS`); later calls
        reuse the stored bounds so one metric's series stay comparable.
        """
        key = _label_key(labels)
        with self._lock:
            entry = self._histograms.get(name)
            if entry is None:
                bounds = tuple(
                    sorted(buckets if buckets is not None else DEFAULT_BUCKETS)
                )
                entry = (bounds, {})
                self._histograms[name] = entry
            bounds, series = entry
            histogram = series.get(key)
            if histogram is None:
                histogram = _Histogram(len(bounds))
                series[key] = histogram
            slot = len(bounds)
            for index, bound in enumerate(bounds):
                if value <= bound:
                    slot = index
                    break
            histogram.bucket_counts[slot] += 1
            histogram.total += float(value)
            histogram.count += 1

    # -- reading -------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> float:
        """The counter's value for one exact label set (0.0 if unseen)."""
        key = _label_key(labels)
        with self._lock:
            return self._counters.get(name, {}).get(key, 0.0)

    def counter_total(self, name: str) -> float:
        """The counter's value summed across every label set."""
        with self._lock:
            return float(sum(self._counters.get(name, {}).values()))

    def gauge_value(self, name: str, **labels: Any) -> Optional[float]:
        """The gauge's current value (``None`` if never set)."""
        key = _label_key(labels)
        with self._lock:
            return self._gauges.get(name, {}).get(key)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable dump of every metric series.

        Histogram buckets are exported cumulatively (Prometheus style):
        each entry counts observations ``<= le``, ending with the
        ``"+Inf"`` bucket equal to the total observation count.
        """
        with self._lock:
            counters = {
                name: [
                    {"labels": dict(key), "value": value}
                    for key, value in sorted(series.items())
                ]
                for name, series in sorted(self._counters.items())
            }
            gauges = {
                name: [
                    {"labels": dict(key), "value": value}
                    for key, value in sorted(series.items())
                ]
                for name, series in sorted(self._gauges.items())
            }
            histograms: Dict[str, List[Dict[str, Any]]] = {}
            for name, (bounds, series) in sorted(self._histograms.items()):
                rows: List[Dict[str, Any]] = []
                for key, histogram in sorted(series.items()):
                    cumulative = 0
                    buckets: List[Dict[str, Any]] = []
                    for bound, count in zip(
                        bounds, histogram.bucket_counts
                    ):
                        cumulative += count
                        buckets.append({"le": bound, "count": cumulative})
                    buckets.append(
                        {"le": "+Inf", "count": histogram.count}
                    )
                    rows.append(
                        {
                            "labels": dict(key),
                            "buckets": buckets,
                            "sum": histogram.total,
                            "count": histogram.count,
                        }
                    )
                histograms[name] = rows
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def to_prometheus(self) -> str:
        """Render every series in the Prometheus text exposition format.

        This is the payload behind the serving layer's ``/metrics``
        endpoint: ``# TYPE`` headers per metric, one sample line per
        label set, histograms as cumulative ``_bucket`` series ending in
        ``le="+Inf"`` plus ``_sum``/``_count``. Built from
        :meth:`snapshot` so the JSON and text exports can never drift.
        """
        snap = self.snapshot()
        lines: List[str] = []
        for name, rows in snap["counters"].items():
            lines.append(f"# TYPE {name} counter")
            for row in rows:
                lines.append(
                    f"{name}{_format_labels(row['labels'])} "
                    f"{_format_value(row['value'])}"
                )
        for name, rows in snap["gauges"].items():
            lines.append(f"# TYPE {name} gauge")
            for row in rows:
                lines.append(
                    f"{name}{_format_labels(row['labels'])} "
                    f"{_format_value(row['value'])}"
                )
        for name, rows in snap["histograms"].items():
            lines.append(f"# TYPE {name} histogram")
            for row in rows:
                for bucket in row["buckets"]:
                    bound = bucket["le"]
                    le = bound if bound == "+Inf" else _format_value(bound)
                    labels = dict(row["labels"])
                    labels["le"] = le
                    lines.append(
                        f"{name}_bucket{_format_labels(labels)} "
                        f"{bucket['count']}"
                    )
                base = _format_labels(row["labels"])
                lines.append(f"{name}_sum{base} {_format_value(row['sum'])}")
                lines.append(f"{name}_count{base} {row['count']}")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Drop every series (primarily for tests on the global registry)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


# ----------------------------------------------------------------------
# global + active registry plumbing
# ----------------------------------------------------------------------

_GLOBAL_LOCK = threading.Lock()
_GLOBAL: Optional[MetricsRegistry] = None

_ACTIVE_REGISTRY: "contextvars.ContextVar[Optional[MetricsRegistry]]" = (
    contextvars.ContextVar("repro_metrics_registry", default=None)
)


def global_registry() -> MetricsRegistry:
    """The lazily created process-wide registry (the default sink)."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is None:
            _GLOBAL = MetricsRegistry()
        return _GLOBAL


def active_registry() -> MetricsRegistry:
    """The registry emissions should target in this context.

    The contextvar-installed registry when inside
    :func:`use_registry`, the global registry otherwise. Worker threads
    start with a fresh context, so pool dispatchers capture this value
    and re-install it inside each worker.
    """
    registry = _ACTIVE_REGISTRY.get()
    return registry if registry is not None else global_registry()


@contextmanager
def use_registry(
    registry: Optional[MetricsRegistry],
) -> Iterator[MetricsRegistry]:
    """Install ``registry`` as the active sink for the duration.

    ``None`` re-installs the currently active registry (useful for
    propagating whatever is active across a thread hop).
    """
    resolved = registry if registry is not None else active_registry()
    token = _ACTIVE_REGISTRY.set(resolved)
    try:
        yield resolved
    finally:
        _ACTIVE_REGISTRY.reset(token)


def inc(name: str, amount: float = 1.0, **labels: Any) -> None:
    """Increment a counter on the active registry."""
    active_registry().inc(name, amount, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    """Observe a histogram value on the active registry."""
    active_registry().observe(name, value, **labels)


def set_gauge(name: str, value: float, **labels: Any) -> None:
    """Set a gauge on the active registry."""
    active_registry().set_gauge(name, value, **labels)
