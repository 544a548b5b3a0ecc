"""Deterministic fault injection for the robustness test harness.

The degradation ladder (:mod:`repro.core.engine`), block retry
(:mod:`repro.core.parallel`), and oracle retry (:mod:`repro.core.mcmc`)
paths exist to survive real-world failures: NaN scores from corrupt
inputs, slow or crashing distribution kernels, flaky sampling oracles,
and worker faults. Those paths must be *exercised*, not trusted on
faith — this module provides seeded, schedulable fault injectors so
every retry and fallback is covered by deterministic tests.

Design rules:

- Every schedule is **deterministic**: faults fire on explicit call
  indices (``calls=``), a modulus (``every=``), or a seeded Bernoulli
  draw (``rate=`` + ``seed=``). Two runs with the same schedule and the
  same call sequence inject the same faults.
- Injected failures raise :class:`~repro.core.errors.InjectedFault`, a
  distinct :class:`~repro.core.errors.EvaluationError` subtype, so
  tests can assert that the *scheduled* fault — not a genuine bug —
  drove the recovery path.
- Wrappers preserve the wrapped object's sampling semantics on
  non-faulting calls, so a fault-free schedule is a transparent proxy.

Beyond the engine-level injectors, the module carries *service-level*
faults for the serving layer's soak tests: a slow client that dribbles
its request below the server's read timeout
(:func:`slow_client_request`), a client that disconnects mid-request
(:func:`disconnecting_request`), and a request whose deadline is
already expired on arrival (:func:`deadline_expired_body`). They are
plain asyncio clients with every wait bounded, so a hung server fails
the test instead of hanging it.

Note on threading: schedule counters are shared across threads, so
*which block* observes call number ``k`` depends on scheduling. Raising
faults still preserve bit-identical results (the retried block
recomputes deterministically from its own seed); value-corrupting modes
(``"nan"``/``"inf"``) are scheduling-dependent under ``workers > 1``
and are intended for serial determinism tests and ingest validation.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .distributions import ArrayLike, FloatOrArray, ScoreDistribution, SizeArg
from .errors import InjectedFault
from .records import UncertainRecord

logger = logging.getLogger(__name__)

__all__ = [
    "FaultSchedule",
    "FaultyDistribution",
    "FaultyOracle",
    "FaultInjector",
    "crashing_evaluator",
    "deadline_expired_body",
    "disconnecting_request",
    "format_http_request",
    "slow_client_request",
]


class FaultSchedule:
    """Decides, deterministically, which calls fault.

    Parameters
    ----------
    calls:
        Explicit zero-based call indices that fault (e.g. ``{0, 3}``).
    every:
        Fault every ``every``-th call (call indices ``every-1``,
        ``2*every-1``, ...).
    rate:
        Bernoulli fault probability per call, drawn from a private
        seeded generator — deterministic for a fixed call sequence.
    seed:
        Seed for the ``rate`` draws.
    limit:
        Maximum number of faults to inject in total (``None`` =
        unlimited). Lets a test inject exactly one crash and then
        behave cleanly so the retry succeeds.

    The call counter is shared and thread-safe; see the module
    docstring for what that means under concurrency.
    """

    def __init__(
        self,
        calls: Optional[Iterable[int]] = None,
        every: Optional[int] = None,
        rate: float = 0.0,
        seed: int = 0,
        limit: Optional[int] = None,
    ) -> None:
        if every is not None and every < 1:
            raise ValueError(f"every must be >= 1, got {every!r}")
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate!r}")
        self.calls = frozenset(int(c) for c in (calls or ()))
        self.every = every
        self.rate = rate
        self.limit = limit
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()
        self._count = 0
        self._fired = 0

    def fire(self) -> bool:
        """Advance the call counter; report whether this call faults."""
        with self._lock:
            index = self._count
            self._count += 1
            if self.limit is not None and self._fired >= self.limit:
                return False
            fault = index in self.calls
            if not fault and self.every is not None:
                fault = (index + 1) % self.every == 0
            if not fault and self.rate > 0.0:
                fault = bool(self._rng.random() < self.rate)
            if fault:
                self._fired += 1
            return fault

    @property
    def calls_seen(self) -> int:
        """Total calls routed through this schedule."""
        with self._lock:
            return self._count

    @property
    def faults_fired(self) -> int:
        """Total faults injected so far."""
        with self._lock:
            return self._fired


class FaultyDistribution(ScoreDistribution):
    """A delegating distribution wrapper with scheduled faults.

    Wraps a real :class:`ScoreDistribution` and injects faults on
    ``sample`` / ``cdf`` / ``ppf`` calls according to ``schedule``:

    - ``mode="raise"`` — raise :class:`InjectedFault`;
    - ``mode="nan"`` / ``mode="inf"`` — corrupt the returned values;
    - ``mode="slow"`` — sleep ``delay`` seconds before answering
      (exercises deadline budgets).

    Because this class is not a known family, ``build_sampling_plan``
    routes it to the generic per-record batch — injected faults
    propagate into the columnar samplers and the parallel sample
    blocks, which is exactly the point.
    """

    _MODES = ("raise", "nan", "inf", "slow")

    def __init__(
        self,
        inner: ScoreDistribution,
        schedule: FaultSchedule,
        mode: str = "raise",
        methods: Sequence[str] = ("sample",),
        delay: float = 0.01,
    ) -> None:
        if mode not in self._MODES:
            raise ValueError(f"mode must be one of {self._MODES}, got {mode!r}")
        unknown = set(methods) - {"sample", "cdf", "ppf"}
        if unknown:
            raise ValueError(f"unknown faultable methods: {sorted(unknown)}")
        self.inner = inner
        self.schedule = schedule
        self.mode = mode
        self.methods = frozenset(methods)
        self.delay = delay
        self.lower = inner.lower
        self.upper = inner.upper

    def _maybe_fault(self, method: str, value: FloatOrArray) -> FloatOrArray:
        if method not in self.methods or not self.schedule.fire():
            return value
        if self.mode == "raise":
            raise InjectedFault(
                f"scheduled fault in {type(self.inner).__name__}.{method}"
            )
        if self.mode == "slow":
            time.sleep(self.delay)
            return value
        corrupt = np.nan if self.mode == "nan" else np.inf
        if np.isscalar(value) or np.ndim(value) == 0:
            return float(corrupt)
        out = np.array(value, dtype=float)
        out.flat[0] = corrupt
        return out

    def pdf(self, x: ArrayLike) -> FloatOrArray:
        return self.inner.pdf(x)

    def cdf(self, x: ArrayLike) -> FloatOrArray:
        return self._maybe_fault("cdf", self.inner.cdf(x))

    def ppf(self, q: ArrayLike) -> FloatOrArray:
        return self._maybe_fault("ppf", self.inner.ppf(q))

    def mean(self) -> float:
        return self.inner.mean()

    def sample(
        self, rng: np.random.Generator, size: SizeArg = None
    ) -> FloatOrArray:
        return self._maybe_fault("sample", self.inner.sample(rng, size))

    def __repr__(self) -> str:
        return (
            f"FaultyDistribution({self.inner!r}, mode={self.mode!r}, "
            f"methods={sorted(self.methods)})"
        )


class FaultyOracle:
    """A callable proxy that makes a sampling oracle flaky.

    Wraps any ``oracle(state) -> float`` (the MCMC state-probability
    oracles) and raises :class:`InjectedFault` on scheduled calls.
    Oracle answers on clean calls pass through untouched, so a retry
    after a scheduled fault reproduces the true value.
    """

    def __init__(
        self, inner: Callable[..., float], schedule: FaultSchedule
    ) -> None:
        self.inner = inner
        self.schedule = schedule

    def __call__(self, *args: object, **kwargs: object) -> float:
        if self.schedule.fire():
            raise InjectedFault("scheduled oracle fault")
        return self.inner(*args, **kwargs)


class _CrashingEvaluator:
    """Attribute proxy that crashes scheduled estimator-method calls.

    Stands in for the ``MonteCarloEvaluator`` whose sample blocks the
    rank-count store draws: attribute lookups return bound-method
    wrappers that consult the shared schedule before delegating,
    simulating a worker crash mid-block.
    """

    def __init__(self, inner: object, schedule: FaultSchedule) -> None:
        self._inner = inner
        self._schedule = schedule

    def __getattr__(self, name: str) -> object:
        value = getattr(self._inner, name)
        if not callable(value) or name.startswith("_"):
            return value

        def crashing(*args: object, **kwargs: object) -> object:
            if self._schedule.fire():
                raise InjectedFault(f"scheduled block crash in {name}")
            return value(*args, **kwargs)

        return crashing


def crashing_evaluator(evaluator: object, schedule: FaultSchedule) -> object:
    """Wrap one evaluator so scheduled estimator calls crash.

    Each estimator-method call consults ``schedule``; scheduled calls
    raise :class:`InjectedFault` exactly as a crashed worker would
    surface. With ``limit=1`` the retried block (same seed, clean call)
    reproduces the original answer bit-for-bit.
    """
    return _CrashingEvaluator(evaluator, schedule)


class FaultInjector:
    """Facade for building deterministic fault harnesses in tests.

    Collects an injection log (what was wrapped, with which schedule)
    and hands out wrappers whose faults are reproducible from
    ``(seed, schedule parameters)`` alone.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._wrap_count = 0
        self.log: List[Tuple[str, str]] = []

    def schedule(
        self,
        calls: Optional[Iterable[int]] = None,
        every: Optional[int] = None,
        rate: float = 0.0,
        limit: Optional[int] = None,
    ) -> FaultSchedule:
        """Build a :class:`FaultSchedule` seeded from this injector.

        Each schedule derives its seed from ``(injector seed, creation
        index)`` so multiple schedules from one injector are mutually
        independent yet jointly reproducible.
        """
        self._wrap_count += 1
        return FaultSchedule(
            calls=calls,
            every=every,
            rate=rate,
            seed=self.seed * 1_000_003 + self._wrap_count,
            limit=limit,
        )

    def wrap_distribution(
        self,
        dist: ScoreDistribution,
        schedule: FaultSchedule,
        mode: str = "raise",
        methods: Sequence[str] = ("sample",),
        delay: float = 0.01,
    ) -> FaultyDistribution:
        """Wrap one distribution with scheduled faults."""
        self.log.append(("distribution", mode))
        return FaultyDistribution(
            dist, schedule, mode=mode, methods=methods, delay=delay
        )

    def wrap_records(
        self,
        records: Sequence[UncertainRecord],
        schedule: FaultSchedule,
        mode: str = "raise",
        methods: Sequence[str] = ("sample",),
        record_ids: Optional[Iterable[str]] = None,
        delay: float = 0.01,
    ) -> List[UncertainRecord]:
        """Wrap the scores of selected records (default: all of them)."""
        targets = None if record_ids is None else frozenset(record_ids)
        out: List[UncertainRecord] = []
        for rec in records:
            if targets is not None and rec.record_id not in targets:
                out.append(rec)
                continue
            out.append(
                UncertainRecord(
                    record_id=rec.record_id,
                    score=self.wrap_distribution(
                        rec.score, schedule, mode=mode, methods=methods,
                        delay=delay,
                    ),
                    payload=rec.payload,
                )
            )
        return out


# ----------------------------------------------------------------------
# service-level fault injectors (for the serving-layer soak tests)
# ----------------------------------------------------------------------


def format_http_request(
    method: str,
    path: str,
    body: bytes = b"",
    host: str = "localhost",
) -> bytes:
    """Raw HTTP/1.1 request bytes for the service-level injectors."""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


def deadline_expired_body(kind: str = "utop_rank", **fields: object) -> bytes:
    """A ``/query`` JSON body whose deadline is already spent on arrival.

    The service must map this onto a born-expired budget and answer
    with a flagged degraded result — never a 504 (see
    ``Budget.for_deadline``).
    """
    payload: dict = {"kind": kind, "deadline_ms": 0}
    payload.update(fields)
    return json.dumps(payload).encode("utf-8")


async def slow_client_request(
    host: str,
    port: int,
    raw: bytes,
    chunk_size: int = 16,
    delay: float = 0.05,
    response_timeout: float = 10.0,
) -> bytes:
    """Dribble ``raw`` to the server one small chunk at a time.

    The slow-client fault: a peer whose request arrives slower than the
    service's read timeout. A robust server must bound the read and
    close (or 408) the connection instead of pinning a handler forever.
    Returns whatever response bytes the server produced — possibly
    empty when it hung up first, which is the expected outcome for a
    sufficiently slow client.
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), response_timeout
    )
    data = b""
    try:
        for start in range(0, len(raw), chunk_size):
            writer.write(raw[start : start + chunk_size])
            await asyncio.wait_for(writer.drain(), response_timeout)
            await asyncio.sleep(delay)
        data = await asyncio.wait_for(reader.read(-1), response_timeout)
    except (ConnectionError, asyncio.TimeoutError, TimeoutError) as exc:
        # The server hung up on us mid-dribble: exactly the defensive
        # behaviour the fault exists to provoke.
        logger.debug("slow client cut off by the server: %r", exc)
    finally:
        writer.close()
        try:
            await asyncio.wait_for(writer.wait_closed(), 1.0)
        except (ConnectionError, asyncio.TimeoutError, TimeoutError) as exc:
            logger.debug("slow-client close raced the server: %r", exc)
    return data


async def disconnecting_request(
    host: str,
    port: int,
    raw: bytes,
    send_bytes: int = 64,
    connect_timeout: float = 10.0,
) -> None:
    """Send only a prefix of ``raw`` and vanish (mid-request disconnect).

    The server sees an incomplete request followed by EOF; it must
    close the connection quietly rather than error or leak the handler.
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), connect_timeout
    )
    try:
        writer.write(raw[: max(0, send_bytes)])
        await asyncio.wait_for(writer.drain(), connect_timeout)
    except ConnectionError as exc:
        logger.debug("disconnect fault raced the server: %r", exc)
    finally:
        writer.close()
        try:
            await asyncio.wait_for(writer.wait_closed(), 1.0)
        except (ConnectionError, asyncio.TimeoutError, TimeoutError) as exc:
            logger.debug("disconnect close raced the server: %r", exc)
