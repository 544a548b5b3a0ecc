"""The resilient async ranking service.

:class:`RankingService` fronts one :class:`~repro.core.engine.
RankingEngine` with a zero-dependency asyncio HTTP server. Its contract
is the paper's contract lifted to the serving tier: a request *always*
gets a ranked answer within its deadline — possibly degraded, always
flagged — never a 504.

Request path, in order:

1. **Deadline mapping** — every ``/query`` carries (or inherits) a
   ``deadline_ms``; the remaining time at execution becomes a
   :meth:`~repro.core.budget.Budget.for_deadline` budget, so the
   engine's degradation ladder (exact → MC/MCMC → baseline) *is* the
   SLO mechanism. An already-expired deadline yields a born-expired
   budget and a flagged baseline answer.
2. **Circuit breaker** — per table fingerprint; repeated deadline
   misses pin the table to the baseline method for a cooldown
   (``serve.pinned`` in the response), with a half-open probe after.
3. **Coalescing** — concurrent identical queries (same fingerprint and
   answer-determining spec fields) share one execution; a cold burst on
   one table is one sampling run. Followers bound their wait by their
   own deadline and fall back to a direct degraded run on expiry. A
   warm repeat coalesces like any other request; with no concurrent
   twin it simply runs as its own leader against the cached blocks.
4. **Admission control** — a bounded queue ahead of a bounded executor;
   overflow is shed with ``429`` + ``Retry-After``; queue waits that
   outlive the deadline are admitted with an expired budget instead of
   being dropped.

Endpoints: ``POST /query``, ``POST /mutate``, ``GET /explain``,
``GET /metrics`` (Prometheus text), ``GET /healthz``, ``GET /readyz``,
``GET /``.

``POST /mutate`` applies one batched edit set (append/update/delete)
through the subscribed table's :meth:`~repro.db.table.UncertainTable.
mutate` API, so the service stays warm across edits: the engine's
delta-aware refresh migrates surviving cache artifacts to the new
fingerprint instead of starting cold (see
:meth:`~repro.core.cache.ComputationCache.migrate`).
"""

from __future__ import annotations

import asyncio
import functools
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

from ..core.budget import Budget
from ..core.engine import RankingEngine
from ..core.errors import EvaluationError, ModelError, QueryError
from ..core.metrics import use_registry
from ..core.queries import Query, QueryResult
from .admission import AdmissionController, AdmissionDenied, CircuitBreaker
from .coalescer import Coalescer
from .router import (
    MAX_HEADER_BYTES,
    HttpError,
    Request,
    Response,
    Router,
    read_request,
)

__all__ = ["RankingService", "ServiceConfig"]

logger = logging.getLogger(__name__)

#: Spec fields (beyond ``kind``) accepted in a ``/query`` body and
#: forwarded to :class:`~repro.core.queries.Query`.
_SPEC_FIELDS = (
    "i",
    "j",
    "k",
    "l",
    "threshold",
    "method",
    "samples",
    "seed",
)


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`RankingService`.

    ``deadline_ms`` is the default per-request SLO; requests may carry
    their own. ``overshoot_grace_ms`` is how far past the deadline the
    service waits for a budgeted query to wind down cooperatively (the
    ladder stops at chunk boundaries, so it normally beats the grace by
    a wide margin) before answering with an empty flagged partial.
    """

    deadline_ms: float = 1000.0
    overshoot_grace_ms: float = 2000.0
    max_concurrency: int = 4
    max_queue: int = 32
    retry_after_seconds: float = 1.0
    breaker_threshold: int = 4
    breaker_cooldown_seconds: float = 5.0
    coalesce: bool = True
    read_timeout_seconds: float = 5.0
    write_timeout_seconds: float = 5.0
    drain_timeout_seconds: float = 10.0


class RankingService:
    """An asyncio HTTP server over one :class:`RankingEngine`."""

    def __init__(
        self,
        engine: RankingEngine,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.engine = engine
        self.config = config if config is not None else ServiceConfig()
        self.metrics = engine.metrics
        self._admission = AdmissionController(
            max_concurrency=self.config.max_concurrency,
            max_queue=self.config.max_queue,
            retry_after=self.config.retry_after_seconds,
            metrics=self.metrics,
        )
        self._coalescer = Coalescer(metrics=self.metrics)
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_concurrency,
            thread_name_prefix="repro-serve",
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._state = "starting"
        self._port: Optional[int] = None
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        # Mutation batches are serialized: the lock is taken inside the
        # executor (blocking a worker thread briefly), never awaited on
        # the event loop, so serve-path awaits stay deadline-bounded.
        self._mutate_lock = threading.Lock()
        self._router = Router()
        self._router.route("POST", "/query", self._handle_query)
        self._router.route("POST", "/mutate", self._handle_mutate)
        self._router.route("GET", "/explain", self._handle_explain)
        self._router.route("GET", "/metrics", self._handle_metrics)
        self._router.route("GET", "/healthz", self._handle_healthz)
        self._router.route("GET", "/readyz", self._handle_readyz)
        self._router.route("GET", "/", self._handle_index)

    # -- lifecycle -----------------------------------------------------

    @property
    def state(self) -> str:
        """``starting`` / ``ready`` / ``draining`` / ``stopped``."""
        return self._state

    @property
    def port(self) -> Optional[int]:
        """The bound port once :meth:`start` has run."""
        return self._port

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind and start accepting; returns the bound port."""
        self._server = await asyncio.start_server(
            self._on_connection, host, port, limit=MAX_HEADER_BYTES
        )
        self._port = self._server.sockets[0].getsockname()[1]
        self._state = "ready"
        logger.info("ranking service listening on %s:%d", host, self._port)
        return self._port

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, close engine.

        Idempotent. The in-flight wait is bounded by
        ``drain_timeout_seconds``; stragglers are abandoned (their
        budgets are cooperative, so they wind down on their own) and the
        engine is closed regardless so its sampler pools never outlive
        the service.
        """
        if self._state == "stopped":
            return
        self._state = "draining"
        if self._server is not None:
            self._server.close()
            try:
                await asyncio.wait_for(self._server.wait_closed(), 5.0)
            except (asyncio.TimeoutError, TimeoutError):
                logger.warning("listener close timed out; continuing drain")
        if self._inflight:
            try:
                await asyncio.wait_for(
                    self._idle.wait(), self.config.drain_timeout_seconds
                )
            except (asyncio.TimeoutError, TimeoutError):
                self.metrics.inc("serve_drain_timeouts_total")
                logger.warning(
                    "drain timed out with %d request(s) in flight",
                    self._inflight,
                )
        self._executor.shutdown(wait=True, cancel_futures=True)
        self.engine.close()
        self._state = "stopped"

    # -- connection handling -------------------------------------------

    async def _on_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        response: Optional[Response] = None
        try:
            request = await read_request(
                reader, timeout=self.config.read_timeout_seconds
            )
        except (asyncio.TimeoutError, TimeoutError):
            self.metrics.inc("serve_slow_clients_total")
            response = Response.json(
                {"error": "request read timed out"}, status=408
            )
            request = None
        except HttpError as exc:
            response = Response.json(
                {"error": exc.reason}, status=exc.status
            )
            request = None
        else:
            if request is None:
                # Mid-request disconnect: nothing to answer.
                self.metrics.inc("serve_disconnects_total")
            else:
                response = await self._dispatch(request)
        if response is not None:
            try:
                writer.write(response.encode())
                await asyncio.wait_for(
                    writer.drain(), self.config.write_timeout_seconds
                )
            except (
                asyncio.TimeoutError,
                TimeoutError,
                ConnectionError,
            ) as exc:
                self.metrics.inc("serve_write_failures_total")
                logger.debug("response write failed: %s", exc)
        writer.close()
        try:
            await asyncio.wait_for(writer.wait_closed(), 1.0)
        except (
            asyncio.TimeoutError,
            TimeoutError,
            ConnectionError,
        ) as exc:
            logger.debug("connection close failed: %s", exc)

    async def _dispatch(self, request: Request) -> Response:
        """Route one request; every failure becomes a JSON response."""
        self._inflight += 1
        self._idle.clear()
        started = time.monotonic()
        status = 500
        try:
            if self._state != "ready" and request.path not in (
                "/healthz",
                "/readyz",
                "/metrics",
            ):
                response = Response.json(
                    {"error": "service is draining"}, status=503
                )
            else:
                handler = self._router.resolve(request)
                response = await handler(request)
        except HttpError as exc:
            response = Response.json({"error": exc.reason}, status=exc.status)
        except AdmissionDenied as exc:
            response = Response.json(
                {"error": str(exc)},
                status=429,
                **{"Retry-After": f"{exc.retry_after:.0f}"},
            )
        except QueryError as exc:
            response = Response.json({"error": str(exc)}, status=400)
        except EvaluationError as exc:
            response = Response.json({"error": str(exc)}, status=500)
        except Exception as exc:
            logger.exception("unhandled error serving %s", request.path)
            response = Response.json({"error": repr(exc)}, status=500)
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()
        status = response.status
        self.metrics.inc(
            "serve_requests_total", path=request.path, status=status
        )
        self.metrics.observe(
            "serve_request_seconds",
            time.monotonic() - started,
            path=request.path,
        )
        return response

    # -- handlers ------------------------------------------------------

    async def _handle_healthz(self, request: Request) -> Response:
        return Response.text("ok")

    async def _handle_readyz(self, request: Request) -> Response:
        if self._state == "ready":
            return Response.text("ready")
        return Response.text(self._state, status=503)

    async def _handle_index(self, request: Request) -> Response:
        return Response.json(
            {
                "service": "repro.serve",
                "state": self._state,
                "records": len(self.engine.records),
                "fingerprint": self.engine.database_fingerprint,
                "endpoints": {
                    "POST /query": "run a ranking query "
                    "(kind, i, j, k, l, threshold, method, samples, seed, "
                    "trace, deadline_ms, max_samples)",
                    "POST /mutate": "apply one batched table edit set "
                    "(append: [row...], update: [{key, column, value}...], "
                    "delete: [key...]) with delta-aware cache migration",
                    "GET /explain?query=<kind>&k=<k>": "evaluation plan",
                    "GET /metrics": "Prometheus text exposition",
                    "GET /healthz": "liveness",
                    "GET /readyz": "readiness (503 while draining)",
                },
            }
        )

    async def _handle_metrics(self, request: Request) -> Response:
        self.metrics.set_gauge(
            "serve_breakers_open",
            float(
                sum(
                    1
                    for breaker in self._breakers.values()
                    if breaker.state != "closed"
                )
            ),
        )
        return Response.text(
            self.metrics.to_prometheus(),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    async def _handle_explain(self, request: Request) -> Response:
        kind = request.query.get("query", "utop_prefix")
        try:
            k = int(request.query.get("k", "1"))
        except ValueError as exc:
            raise HttpError(400, f"bad k: {request.query.get('k')!r}") from exc
        # deadline_ms flows into the ladder's deadline check so the plan
        # block shows exactly what a /query with the same deadline would
        # run.
        raw_deadline = request.query.get("deadline_ms")
        deadline_ms: Optional[float] = None
        if raw_deadline is not None:
            try:
                deadline_ms = float(raw_deadline)
            except ValueError as exc:
                raise HttpError(
                    400, f"bad deadline_ms: {raw_deadline!r}"
                ) from exc
        loop = asyncio.get_running_loop()
        plan = await asyncio.wait_for(
            loop.run_in_executor(
                self._executor,
                functools.partial(
                    self.engine.explain, kind, k, deadline_ms=deadline_ms
                ),
            ),
            self.config.overshoot_grace_ms / 1000.0
            + self.config.deadline_ms / 1000.0,
        )
        return Response.json(plan)

    async def _handle_query(self, request: Request) -> Response:
        arrival = time.monotonic()
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "query body must be a JSON object")
        deadline_s = float(
            body.get("deadline_ms", self.config.deadline_ms)
        ) / 1000.0
        deadline_at = arrival + deadline_s
        grace = self.config.overshoot_grace_ms / 1000.0

        kind = body.get("kind")
        if not isinstance(kind, str):
            raise HttpError(400, "query body requires a string 'kind'")
        spec_kwargs: Dict[str, Any] = {"kind": kind}
        for name in _SPEC_FIELDS:
            if name in body and body[name] is not None:
                spec_kwargs[name] = body[name]
        trace = body.get("trace")
        if trace is not None:
            spec_kwargs["trace"] = bool(trace)
        max_samples = body.get("max_samples")
        if max_samples is not None:
            max_samples = int(max_samples)

        fingerprint = self.engine.database_fingerprint
        breaker = self._breaker_for(fingerprint)
        pinned = not breaker.allow_full()
        if pinned:
            spec_kwargs["method"] = "baseline"
            self.metrics.inc("serve_breaker_pinned_total")

        # Validate the spec up front (cheap, budget-free) so malformed
        # requests 400 before touching admission or coalescing.
        try:
            Query(**spec_kwargs)
        except TypeError as exc:
            raise HttpError(400, f"bad query field: {exc}") from exc

        overran = False

        async def execute() -> QueryResult:
            nonlocal overran
            acquired = await self._admission.admit(
                max(0.0, deadline_at - time.monotonic())
            )
            try:
                remaining = (
                    deadline_at - time.monotonic() if acquired else 0.0
                )
                with use_registry(self.metrics):
                    budget = Budget.for_deadline(
                        remaining, max_samples=max_samples
                    )
                spec = Query(budget=budget, **spec_kwargs)
                loop = asyncio.get_running_loop()
                try:
                    result = await asyncio.wait_for(
                        loop.run_in_executor(
                            self._executor, self.engine.query, spec
                        ),
                        max(0.0, deadline_at - time.monotonic()) + grace,
                    )
                except (asyncio.TimeoutError, TimeoutError):
                    # The budgeted run overshot even the grace window
                    # (a pathologically slow kernel chunk). Ask it to
                    # wind down and answer with an empty flagged
                    # partial; the thread finishes in the background.
                    budget.token.cancel()
                    overran = True
                    self.metrics.inc("serve_overruns_total")
                    result = _overrun_result(
                        spec_kwargs, len(self.engine.records)
                    )
                missed = overran or time.monotonic() > deadline_at
                breaker.record(missed)
                return result
            finally:
                if acquired:
                    self._admission.release()

        key = self._coalesce_key(fingerprint, spec_kwargs, body)
        try:
            result, role = await self._coalescer.run(
                key, execute, wait_timeout=deadline_s + grace
            )
        except (asyncio.TimeoutError, TimeoutError):
            # Follower outlived its own deadline waiting on a leader:
            # degrade directly instead of failing the request.
            self.metrics.inc("serve_coalesce_timeouts_total")
            with use_registry(self.metrics):
                budget = Budget.for_deadline(0.0, max_samples=max_samples)
            spec = Query(budget=budget, **spec_kwargs)
            loop = asyncio.get_running_loop()
            result = await asyncio.wait_for(
                loop.run_in_executor(
                    self._executor, self.engine.query, spec
                ),
                grace,
            )
            role = "follower-degraded"

        elapsed_ms = (time.monotonic() - arrival) * 1000.0
        payload = {
            "result": result.to_dict(),
            "serve": {
                "deadline_ms": deadline_s * 1000.0,
                "elapsed_ms": elapsed_ms,
                "role": role,
                "coalesced": role.startswith("follower"),
                "pinned": pinned,
                "breaker": breaker.state,
                "overrun": overran,
                "degraded": bool(result.degradation) or result.partial,
            },
        }
        self.metrics.inc("serve_queries_total", kind=kind, role=role)
        return Response.json(payload)

    async def _handle_mutate(self, request: Request) -> Response:
        """Apply one batched edit set to the subscribed table.

        Body shape::

            {"append": [{...row...}, ...],
             "update": [{"key": ..., "column": ..., "value": ...}, ...],
             "delete": [key, ...]}

        Deletes apply first, then updates, then appends — all inside a
        single ``table.mutate()`` batch, so the whole request is one
        fingerprint transition (or none, when every edit is
        byte-identical). The response reports the committed delta and
        the cache migration outcome, so callers can see how much warm
        state survived their edit.
        """
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "mutate body must be a JSON object")
        table = self.engine.table
        if table is None or not hasattr(table, "mutate"):
            raise HttpError(
                400,
                "engine is not table-backed; /mutate requires "
                "RankingEngine.from_table over an UncertainTable",
            )
        appends = body.get("append") or []
        updates = body.get("update") or []
        deletes = body.get("delete") or []
        if not isinstance(appends, list) or not all(
            isinstance(row, dict) for row in appends
        ):
            raise HttpError(400, "append must be a list of row objects")
        if not isinstance(updates, list) or not all(
            isinstance(spec, dict) and {"key", "column", "value"} <= set(spec)
            for spec in updates
        ):
            raise HttpError(
                400, "update must be a list of {key, column, value} objects"
            )
        if not isinstance(deletes, list):
            raise HttpError(400, "delete must be a list of keys")
        if not (appends or updates or deletes):
            raise HttpError(400, "mutate body carries no edits")

        def apply_batch() -> Dict[str, Any]:
            with self._mutate_lock:
                before_fp = self.engine.database_fingerprint
                before_version = table.changes_since(None).version
                before_report = self.engine.last_migration
                with table.mutate() as batch:
                    for key_value in deletes:
                        batch.delete(key_value)
                    for spec in updates:
                        value = spec["value"]
                        if isinstance(value, list):
                            value = tuple(value)
                        batch.update(spec["key"], spec["column"], value)
                    for row in appends:
                        batch.append(row)
                after_fp = self.engine.database_fingerprint
                changes = table.changes_since(before_version)
                deltas: List[Dict[str, Any]] = [
                    delta.to_dict() for delta in (changes.deltas or ())
                ]
                report = self.engine.last_migration
                migrated = (
                    report.to_dict()
                    if report is not None and report is not before_report
                    else None
                )
                return {
                    "fingerprint": after_fp,
                    "changed": after_fp != before_fp,
                    "records": len(self.engine.records),
                    "deltas": deltas,
                    "migration": migrated,
                }

        loop = asyncio.get_running_loop()
        try:
            payload = await asyncio.wait_for(
                loop.run_in_executor(self._executor, apply_batch),
                self.config.overshoot_grace_ms / 1000.0
                + self.config.deadline_ms / 1000.0,
            )
        except ModelError as exc:
            raise HttpError(400, f"mutation rejected: {exc}") from exc
        self.metrics.inc("serve_mutations_total")
        return Response.json(payload)

    # -- internals -----------------------------------------------------

    def _breaker_for(self, fingerprint: str) -> CircuitBreaker:
        breaker = self._breakers.get(fingerprint)
        if breaker is None:
            breaker = CircuitBreaker(
                threshold=self.config.breaker_threshold,
                cooldown=self.config.breaker_cooldown_seconds,
                metrics=self.metrics,
            )
            self._breakers[fingerprint] = breaker
        return breaker

    def _coalesce_key(
        self,
        fingerprint: str,
        spec_kwargs: Dict[str, Any],
        body: Dict[str, Any],
    ) -> Optional[Hashable]:
        """The single-flight identity for a query, or ``None`` to bypass.

        Deadlines and sample *caps* are excluded on purpose: they bound
        resources, not the answer, and followers bound their own waits.
        Budget-capped requests (``max_samples``) are never coalesced —
        their results can legitimately differ from an uncapped run.
        """
        if not self.config.coalesce:
            return None
        if body.get("max_samples") is not None:
            return None
        items: Tuple[Tuple[str, Any], ...] = tuple(
            sorted(spec_kwargs.items())
        )
        return (fingerprint, items)


def _overrun_result(
    spec_kwargs: Dict[str, Any], database_size: int
) -> QueryResult:
    """The flagged empty answer for a run that overshot even the grace."""
    return QueryResult(
        answers=[],
        method=str(spec_kwargs.get("method", "auto")),
        elapsed=0.0,
        database_size=database_size,
        pruned_size=database_size,
        partial=True,
        diagnostics={"serve": "deadline overshoot past grace window"},
    )
