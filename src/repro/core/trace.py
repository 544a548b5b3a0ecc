"""Zero-dependency query tracing: nested spans with wall/CPU timings.

The engine's query paths cross four evaluation methods, parallel
sample blocks, MCMC chains, and a shared computation cache; when a query is
slow or degrades, ``elapsed`` alone cannot say *where* the time went.
This module provides the span tree every query path emits into:

- :class:`Span` — one timed region with a name, structured attributes,
  monotonic wall-clock (``time.perf_counter``) and thread CPU
  timings, and thread-safe child spans, so
  parallel sample blocks and MCMC chains can attach children
  concurrently.
- A **contextvar-carried active span**: :func:`span` opens a child of
  whatever span is active in the current context and makes it active
  for the duration, so instrumented code below the engine needs no
  signature changes. When no span is active every helper is a no-op,
  which is what keeps the cost of disabled tracing at roughly one
  contextvar read per call site.
- **Cross-thread propagation**: contextvars do not flow into worker
  threads, so dispatching code captures :func:`current_span` *before*
  handing work to a pool and opens children with :func:`span_under`
  (or :func:`activate`) inside the worker.
- **JSON export** (:meth:`Span.to_dict`) rendered by
  :func:`render_trace` and the ``python -m repro.trace`` CLI.

Span CPU timings use the CPU clock of the thread that opened the span,
read at the end even when another thread ends it. Spans whose work runs
concurrently (blocks, chains) therefore each report their own thread's
CPU, not their neighbours'. Work a span's thread hands to other threads
is counted only in spans those threads open, or in CPU the worker
credits back to the span (:meth:`Span.credit_cpu`, as MCMC chains do).
"""

from __future__ import annotations

import contextvars
import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
)

__all__ = [
    "Span",
    "StageStats",
    "accumulate",
    "activate",
    "annotate",
    "current_span",
    "render_trace",
    "set_span_start_hook",
    "span",
    "span_under",
    "stage_durations",
    "summarize_stages",
    "walk_spans",
]

# Called (with the new span) at every span start when installed. The
# determinism sanitizer (``python -m repro.lint.sanitize``) uses this to
# inject scheduling jitter at span boundaries — the natural preemption
# points between evaluation stages — without instrumenting call sites.
_SPAN_START_HOOK: Optional[Any] = None


def set_span_start_hook(hook: Optional[Any]) -> Optional[Any]:
    """Install (or clear, with ``None``) the global span-start hook.

    Returns the previously installed hook so callers can restore it.
    The hook runs inside ``Span.__init__`` on whatever thread opens the
    span; it must be cheap, thread-safe, and must not raise.
    """
    global _SPAN_START_HOOK
    previous = _SPAN_START_HOOK
    _SPAN_START_HOOK = hook
    return previous


def _thread_cpu_clock() -> Callable[[], float]:
    """A reader of the calling thread's CPU clock, callable from any thread."""
    try:
        clock = time.pthread_getcpuclockid(threading.get_ident())
    except (AttributeError, OSError):  # no per-thread clock ids here
        return time.thread_time
    return functools.partial(time.clock_gettime, clock)


class Span:
    """One timed region of query evaluation, with children.

    Starts its clocks at construction; :meth:`end` (idempotent) stops
    them. Children are appended under a per-span lock so concurrent
    workers can attach spans to a shared parent; attributes are plain
    JSON-able values updated via :meth:`set` / :meth:`add`.
    """

    __slots__ = (
        "name",
        "attributes",
        "children",
        "_lock",
        "_start_wall",
        "_start_cpu",
        "_end_wall",
        "_end_cpu",
        "_cpu_clock",
        "_credited_cpu",
    )

    def __init__(self, name: str, **attributes: Any) -> None:
        self.name = name
        self.attributes: Dict[str, Any] = dict(attributes)
        self.children: List["Span"] = []
        self._lock = threading.Lock()
        hook = _SPAN_START_HOOK
        if hook is not None:
            # Before the clocks start, so injected jitter perturbs the
            # schedule without inflating this span's own timings.
            hook(self)
        self._cpu_clock = _thread_cpu_clock()
        self._start_wall = time.perf_counter()
        self._start_cpu = self._cpu_clock()
        self._end_wall: Optional[float] = None
        self._end_cpu: Optional[float] = None
        self._credited_cpu: Optional[float] = None

    # -- lifecycle -----------------------------------------------------

    def end(self) -> None:
        """Stop the clocks (idempotent: the first call wins)."""
        with self._lock:
            if self._end_wall is None:
                self._end_wall = time.perf_counter()
                self._end_cpu = self._cpu_clock()

    @property
    def ended(self) -> bool:
        """Whether :meth:`end` has been called."""
        return self._end_wall is not None

    @property
    def wall(self) -> float:
        """Wall-clock seconds covered (live value while still open)."""
        end = self._end_wall
        return (end if end is not None else time.perf_counter()) - (
            self._start_wall
        )

    @property
    def cpu(self) -> float:
        """CPU seconds the opening thread burned while the span was open.

        A span credited with :meth:`credit_cpu` reports the credited
        total instead.
        """
        credited = self._credited_cpu
        if credited is not None:
            return credited
        end = self._end_cpu
        return (end if end is not None else self._cpu_clock()) - (
            self._start_cpu
        )

    def credit_cpu(self, seconds: float) -> None:
        """Count CPU seconds a worker thread spent on this span's work.

        For a span opened by a dispatcher whose work runs on pool
        threads: each worker measures its own thread's CPU around the
        work and credits it here, and :attr:`cpu` then reports the
        credited total rather than the dispatcher's clock.
        """
        with self._lock:
            self._credited_cpu = (self._credited_cpu or 0.0) + seconds

    # -- structure -----------------------------------------------------

    def child(self, name: str, **attributes: Any) -> "Span":
        """Open (and attach) a child span; safe from any thread."""
        node = Span(name, **attributes)
        with self._lock:
            self.children.append(node)
        return node

    def set(self, **attributes: Any) -> None:
        """Merge attributes into the span (last write wins per key)."""
        with self._lock:
            self.attributes.update(attributes)

    def add(self, key: str, amount: float = 1.0) -> None:
        """Accumulate a numeric attribute (creating it at zero)."""
        with self._lock:
            current = self.attributes.get(key, 0)
            self.attributes[key] = current + amount

    # -- export --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable span tree (see ``python -m repro.trace``).

        Schema, per node: ``name`` (str), ``wall_seconds`` /
        ``cpu_seconds`` (floats), ``attributes`` (flat dict), and
        ``children`` (list of nodes).
        """
        with self._lock:
            children = list(self.children)
            attributes = dict(self.attributes)
        return {
            "name": self.name,
            "wall_seconds": self.wall,
            "cpu_seconds": self.cpu,
            "attributes": attributes,
            "children": [node.to_dict() for node in children],
        }

    def __repr__(self) -> str:
        state = "ended" if self.ended else "open"
        return (
            f"Span({self.name!r}, {state}, wall={self.wall:.6f}s, "
            f"children={len(self.children)})"
        )


# ----------------------------------------------------------------------
# active-span plumbing
# ----------------------------------------------------------------------

_ACTIVE_SPAN: "contextvars.ContextVar[Optional[Span]]" = (
    contextvars.ContextVar("repro_active_span", default=None)
)


def current_span() -> Optional[Span]:
    """The span active in this context, or ``None`` when tracing is off.

    Worker threads start with a fresh context: capture this value in
    the dispatching thread and pass it to :func:`span_under` /
    :func:`activate` inside the worker.
    """
    return _ACTIVE_SPAN.get()


@contextmanager
def activate(root: Optional[Span]) -> Iterator[Optional[Span]]:
    """Make ``root`` the active span for the duration (no-op on ``None``).

    Does *not* end the span on exit — use this to install a root span
    (or re-install a captured parent inside a worker thread) whose
    lifetime is managed by the caller.
    """
    if root is None:
        yield None
        return
    token = _ACTIVE_SPAN.set(root)
    try:
        yield root
    finally:
        _ACTIVE_SPAN.reset(token)


@contextmanager
def span_under(
    parent: Optional[Span], name: str, **attributes: Any
) -> Iterator[Optional[Span]]:
    """A child span under an explicitly captured parent.

    The cross-thread form of :func:`span`: the dispatching thread
    captures :func:`current_span` and the worker opens its child here.
    No-ops (yields ``None``) when ``parent`` is ``None``; otherwise the
    child is active within the block and ended on exit.
    """
    if parent is None:
        yield None
        return
    child = parent.child(name, **attributes)
    token = _ACTIVE_SPAN.set(child)
    try:
        yield child
    finally:
        _ACTIVE_SPAN.reset(token)
        child.end()


@contextmanager
def span(name: str, **attributes: Any) -> Iterator[Optional[Span]]:
    """A child span of the currently active span (no-op when inactive).

    The workhorse instrumentation point: wraps one evaluation stage,
    yielding the new :class:`Span` (or ``None`` when tracing is off) and
    ending it on exit.
    """
    with span_under(current_span(), name, **attributes) as child:
        yield child


def annotate(**attributes: Any) -> None:
    """Set attributes on the active span, if any (no-op otherwise)."""
    active = _ACTIVE_SPAN.get()
    if active is not None:
        active.set(**attributes)


def accumulate(key: str, amount: float = 1.0) -> None:
    """Add to a numeric attribute of the active span, if any."""
    active = _ACTIVE_SPAN.get()
    if active is not None:
        active.add(key, amount)


# ----------------------------------------------------------------------
# span-tree feature extraction
# ----------------------------------------------------------------------

def walk_spans(node: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    """Depth-first iterator over an exported span tree.

    Accepts the :meth:`Span.to_dict` shape (``name`` / ``wall_seconds``
    / ``children``) and yields every node, root first.
    """
    yield node
    for child in node.get("children") or []:
        yield from walk_spans(child)


def stage_durations(node: Dict[str, Any]) -> Dict[str, List[float]]:
    """Per-stage wall-clock durations across one exported span tree.

    Groups every span's ``wall_seconds`` by span name, preserving
    encounter order within a name: the raw material for
    :func:`summarize_stages` and ``python -m repro.trace --stats``.
    """
    grouped: Dict[str, List[float]] = {}
    for current in walk_spans(node):
        name = str(current.get("name", "?"))
        grouped.setdefault(name, []).append(
            float(current.get("wall_seconds") or 0.0)
        )
    return grouped


@dataclass(frozen=True)
class StageStats:
    """Count / total / p50 / max of one stage's observed durations."""

    name: str
    count: int
    total_seconds: float
    p50_seconds: float
    max_seconds: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "count": self.count,
            "total_seconds": self.total_seconds,
            "p50_seconds": self.p50_seconds,
            "max_seconds": self.max_seconds,
        }


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def summarize_stages(
    durations: Mapping[str, Sequence[float]]
) -> Dict[str, StageStats]:
    """Aggregate per-stage duration lists into :class:`StageStats`."""
    summary: Dict[str, StageStats] = {}
    for name, values in durations.items():
        if not values:
            continue
        summary[name] = StageStats(
            name=name,
            count=len(values),
            total_seconds=float(sum(values)),
            p50_seconds=float(_median(values)),
            max_seconds=float(max(values)),
        )
    return summary


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def render_trace(node: Dict[str, Any], indent: str = "  ") -> str:
    """Pretty-print an exported span tree (:meth:`Span.to_dict`).

    One line per span: name, wall milliseconds, share of the root's
    wall time, CPU milliseconds, and compact ``key=value`` attributes.
    """
    root_wall = float(node.get("wall_seconds") or 0.0)
    lines: List[str] = []

    def fmt_attrs(attributes: Dict[str, Any]) -> str:
        if not attributes:
            return ""
        parts = []
        for key in sorted(attributes):
            value = attributes[key]
            if isinstance(value, float):
                parts.append(f"{key}={value:.4g}")
            else:
                parts.append(f"{key}={value}")
        return "  [" + " ".join(parts) + "]"

    def walk(current: Dict[str, Any], depth: int) -> None:
        wall = float(current.get("wall_seconds") or 0.0)
        cpu = float(current.get("cpu_seconds") or 0.0)
        share = (
            f"{100.0 * wall / root_wall:5.1f}%"
            if root_wall > 0
            else "    -"
        )
        lines.append(
            f"{indent * depth}{current.get('name', '?')}"
            f"  {wall * 1000.0:9.3f} ms  {share}"
            f"  cpu {cpu * 1000.0:8.3f} ms"
            + fmt_attrs(dict(current.get("attributes") or {}))
        )
        for node_child in current.get("children") or []:
            walk(node_child, depth + 1)

    walk(node, 0)
    return "\n".join(lines)
