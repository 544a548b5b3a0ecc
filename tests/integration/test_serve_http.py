"""Tier-1 smoke and robustness tests for the asyncio ranking service.

Everything runs against an in-process server on an ephemeral port with
a real TCP client (``asyncio.open_connection``) — no mocked transport.
The ``serve``-marked smoke covers one query per query kind plus
explain/metrics/health; the remaining tests pin down the coalescing,
shedding, and drain contracts from the issue's acceptance criteria.
"""

from __future__ import annotations

import asyncio
import io
import json
import threading

import pytest

from repro.core.engine import RankingEngine
from repro.core.metrics import MetricsRegistry
from repro.serve import RankingService, ServiceConfig
from repro.serve.lifecycle import synthetic_records
from repro.serve.router import read_response
from repro.trace import main as trace_main


def make_engine(**kwargs):
    """A test engine with a private metrics registry (the engine default
    is the process-global registry, which would let counters leak
    between tests) and a private cache."""
    kwargs.setdefault("metrics", MetricsRegistry())
    return RankingEngine(synthetic_records(40), seed=7, **kwargs)


async def http_request(
    port: int,
    method: str,
    path: str,
    body: object = None,
    timeout: float = 30.0,
):
    """One HTTP exchange; returns (status, headers, parsed-or-raw body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = b""
        if body is not None:
            payload = json.dumps(body).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: localhost\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Content-Type: application/json\r\n"
            f"\r\n"
        ).encode()
        writer.write(head + payload)
        await asyncio.wait_for(writer.drain(), timeout)
        status, headers, body_blob = await read_response(reader, timeout)
    finally:
        writer.close()
        try:
            await asyncio.wait_for(writer.wait_closed(), 5.0)
        except (asyncio.TimeoutError, TimeoutError, ConnectionError) as exc:
            del exc  # best-effort close; response already read
    if headers.get("content-type", "").startswith("application/json"):
        return status, headers, json.loads(body_blob)
    return status, headers, body_blob.decode()


def parse_prometheus(text):
    """Prometheus exposition text -> {line-without-value: float}."""
    values = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        values[name] = float(value)
    return values


@pytest.mark.serve
class TestServeSmoke:
    """One in-process server, one query per kind, observability checked."""

    def test_full_service_pass(self, capsys):
        asyncio.run(self._scenario(capsys))

    async def _scenario(self, capsys):
        engine = make_engine(samples=300)
        service = RankingService(
            engine, ServiceConfig(deadline_ms=30_000.0)
        )
        port = await service.start(port=0)
        try:
            status, _, ready = await http_request(port, "GET", "/readyz")
            assert (status, ready) == (200, "ready")
            status, _, health = await http_request(port, "GET", "/healthz")
            assert (status, health) == (200, "ok")
            status, _, index = await http_request(port, "GET", "/")
            assert status == 200
            assert index["records"] == 40

            specs = [
                {"kind": "utop_rank", "i": 1, "j": 3},
                {"kind": "utop_prefix", "k": 2},
                {"kind": "utop_set", "k": 2},
                {"kind": "rank_aggregation", "k": 3},
                {"kind": "threshold_topk", "k": 2, "threshold": 0.1},
            ]
            for spec in specs:
                status, _, payload = await http_request(
                    port, "POST", "/query", body=spec
                )
                assert status == 200, payload
                result = payload["result"]
                assert result["answers"], spec
                assert result["method"]
                assert payload["serve"]["role"] in ("leader", "solo")
                assert payload["serve"]["deadline_ms"] == 30_000.0
                assert not payload["serve"]["overrun"]

            # A traced response pipes straight into `python -m repro.trace`.
            status, _, traced = await http_request(
                port,
                "POST",
                "/query",
                body={"kind": "utop_rank", "i": 1, "j": 2, "trace": True},
            )
            assert status == 200
            assert trace_main_from(traced, capsys) == 0

            # explain() rides the same executor.
            status, _, plan = await http_request(
                port, "GET", "/explain?query=utop_prefix&k=2"
            )
            assert status == 200
            assert plan

            # A sample-capped query drives budget denial counters that
            # /metrics must surface.
            status, _, capped = await http_request(
                port,
                "POST",
                "/query",
                body={
                    "kind": "utop_rank",
                    "i": 1,
                    "j": 2,
                    "method": "montecarlo",
                    "samples": 500,
                    "max_samples": 40,
                },
            )
            assert status == 200
            assert capped["result"]["partial"]

            status, _, metrics_text = await http_request(
                port, "GET", "/metrics"
            )
            assert status == 200
            values = parse_prometheus(metrics_text)
            assert (
                values['budget_denials_total{resource="samples"}'] >= 1
            )
            assert (
                values['budget_sample_grants_total{resource="samples"}'] > 0
            )
            assert (
                values[
                    'serve_requests_total{path="/query",status="200"}'
                ]
                == 7
            )
            assert values["serve_admitted_total"] >= 7
            assert "serve_request_seconds_bucket" in metrics_text
            assert values["serve_breakers_open"] == 0

            # Bad requests are 400s, unknown paths 404s -- never hangs.
            status, _, _ = await http_request(
                port, "POST", "/query", body={"kind": "nope"}
            )
            assert status == 400
            status, _, _ = await http_request(
                port, "POST", "/query", body={"kind": "utop_rank"}
            )
            assert status == 400
            status, _, _ = await http_request(port, "GET", "/missing")
            assert status == 404
        finally:
            await service.shutdown()
        assert service.state == "stopped"

    def test_expired_deadline_degrades_instead_of_504(self):
        async def scenario():
            engine = make_engine(samples=300)
            service = RankingService(engine)
            port = await service.start(port=0)
            try:
                status, _, payload = await http_request(
                    port,
                    "POST",
                    "/query",
                    body={
                        "kind": "utop_prefix",
                        "k": 2,
                        "deadline_ms": 0,
                    },
                )
                assert status == 200
                assert payload["serve"]["degraded"]
                assert payload["result"]["degradation"]
                assert payload["result"]["answers"]
            finally:
                await service.shutdown()

        asyncio.run(scenario())

    def test_open_breaker_pins_every_kind_to_baseline(self):
        async def scenario():
            engine = make_engine(samples=300)
            service = RankingService(
                engine,
                ServiceConfig(
                    breaker_threshold=1, breaker_cooldown_seconds=600.0
                ),
            )
            port = await service.start(port=0)
            try:
                # One recorded deadline miss opens the table's breaker.
                service._breaker_for(engine.database_fingerprint).record(
                    deadline_missed=True
                )
                for spec in [
                    {"kind": "utop_rank", "i": 1, "j": 3},
                    {"kind": "utop_prefix", "k": 2},
                    {"kind": "utop_set", "k": 2},
                    {"kind": "rank_aggregation"},
                    {"kind": "threshold_topk", "k": 2, "threshold": 0.1},
                ]:
                    status, _, payload = await http_request(
                        port, "POST", "/query", body=spec
                    )
                    assert status == 200, (spec, payload)
                    assert payload["result"]["method"] == "baseline"
                    assert payload["result"]["answers"], spec
                    assert payload["serve"]["breaker"] == "open"
            finally:
                await service.shutdown()

        asyncio.run(scenario())


def trace_main_from(response_payload, capsys):
    """Feed a /query response to the trace CLI exactly like a pipe."""
    import sys

    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(response_payload))
    try:
        code = trace_main([])
    finally:
        sys.stdin = stdin
    out = capsys.readouterr().out
    assert out.startswith("query")
    return code


@pytest.mark.serve
class TestCoalescing:
    """The issue's acceptance criterion: a 64-burst of identical queries
    costs at most 2 sampling runs and matches uncoalesced output
    byte-for-byte."""

    BURST = 64
    SPEC = {
        "kind": "utop_rank",
        "i": 1,
        "j": 3,
        "method": "montecarlo",
        "samples": 400,
    }

    @staticmethod
    def strip_volatile(payload):
        """Drop timing/cache fields that legitimately vary per run."""
        result = dict(payload["result"])
        result.pop("elapsed", None)
        result.pop("cache", None)
        return result

    def test_burst_is_two_sampling_runs_and_byte_identical(self):
        async def scenario():
            engine = make_engine(samples=400)
            service = RankingService(
                engine, ServiceConfig(deadline_ms=60_000.0)
            )
            port = await service.start(port=0)
            try:
                responses = await asyncio.gather(
                    *[
                        http_request(
                            port, "POST", "/query", body=dict(self.SPEC)
                        )
                        for _ in range(self.BURST)
                    ]
                )
                assert all(status == 200 for status, _, _ in responses)
                roles = [p["serve"]["role"] for _, _, p in responses]
                assert roles.count("leader") == 1
                assert roles.count("follower") == self.BURST - 1

                runs = sampling_runs(service.metrics)
                assert runs <= 2, f"burst cost {runs} sampling runs"

                payloads = {
                    json.dumps(self.strip_volatile(p), sort_keys=True)
                    for _, _, p in responses
                }
                assert len(payloads) == 1
            finally:
                await service.shutdown()

            # Reference: the same query, uncoalesced, on a *private*
            # cache (sharing the process-wide cache would make the
            # comparison vacuous).
            reference_engine = make_engine(samples=400)
            reference = RankingService(
                reference_engine,
                ServiceConfig(deadline_ms=60_000.0, coalesce=False),
            )
            ref_port = await reference.start(port=0)
            try:
                status, _, ref_payload = await http_request(
                    ref_port, "POST", "/query", body=dict(self.SPEC)
                )
                assert status == 200
                assert ref_payload["serve"]["role"] == "solo"
                assert json.dumps(
                    self.strip_volatile(ref_payload), sort_keys=True
                ) in payloads
            finally:
                await reference.shutdown()

        asyncio.run(scenario())

    def test_warm_repeat_coalesces_and_hits(self):
        async def scenario():
            engine = make_engine(samples=400)
            service = RankingService(
                engine, ServiceConfig(deadline_ms=60_000.0)
            )
            port = await service.start(port=0)
            try:
                first = await http_request(
                    port, "POST", "/query", body=dict(self.SPEC)
                )
                assert first[0] == 200
                # A warm repeat with no concurrent twin leads its own
                # flight and is served from the cached blocks.
                again = await http_request(
                    port, "POST", "/query", body=dict(self.SPEC)
                )
                assert again[0] == 200
                assert again[2]["serve"]["role"] == "leader"
                assert not again[2]["serve"]["coalesced"]
                cache = again[2]["result"]["cache"]
                assert (cache["misses"], cache["topups"]) == (0, 0)
                assert cache["hits"] > 0
                assert self.strip_volatile(again[2]) == self.strip_volatile(
                    first[2]
                )
            finally:
                await service.shutdown()

        asyncio.run(scenario())


@pytest.mark.serve
class TestAdmissionOverHttp:
    def test_queue_overflow_sheds_with_retry_after(self):
        async def scenario():
            engine = make_engine(samples=200)
            service = RankingService(
                engine,
                ServiceConfig(
                    deadline_ms=2_000.0,
                    max_concurrency=1,
                    max_queue=0,
                    retry_after_seconds=3.0,
                    coalesce=False,
                ),
            )
            port = await service.start(port=0)
            release = threading.Event()
            try:
                # Deterministically occupy the single executor worker so
                # the first query admits (slot held) but cannot finish.
                blocker = service._executor.submit(release.wait, 10.0)
                stuck = asyncio.ensure_future(
                    http_request(
                        port,
                        "POST",
                        "/query",
                        body={"kind": "utop_prefix", "k": 2},
                    )
                )
                await asyncio.sleep(0.2)  # let it claim the slot
                status, headers, payload = await http_request(
                    port,
                    "POST",
                    "/query",
                    body={"kind": "utop_set", "k": 2},
                )
                assert status == 429, payload
                assert headers.get("retry-after") == "3"
                assert "queue full" in payload["error"]
                release.set()
                blocker.result(10.0)
                status, _, payload = await asyncio.wait_for(stuck, 30.0)
                # The stalled request still answered (degraded at worst).
                assert status == 200
                assert payload["result"]["answers"]
            finally:
                release.set()
                await service.shutdown()
            assert (
                service.metrics.counter_total("serve_shed_total") == 1.0
            )

        asyncio.run(scenario())


@pytest.mark.serve
class TestDrain:
    def test_draining_rejects_queries_but_answers_health(self):
        async def scenario():
            engine = make_engine()
            service = RankingService(engine)
            port = await service.start(port=0)
            try:
                service._state = "draining"
                status, _, body = await http_request(port, "GET", "/readyz")
                assert (status, body) == (503, "draining")
                status, _, _ = await http_request(port, "GET", "/healthz")
                assert status == 200
                status, _, _ = await http_request(port, "GET", "/metrics")
                assert status == 200
                status, _, payload = await http_request(
                    port, "POST", "/query", body={"kind": "utop_prefix", "k": 1}
                )
                assert status == 503
                assert "draining" in payload["error"]
            finally:
                service._state = "ready"
                await service.shutdown()

        asyncio.run(scenario())

    def test_shutdown_is_idempotent_and_releases_resources(self):
        async def scenario():
            engine = make_engine(workers=2)
            service = RankingService(engine)
            await service.start(port=0)
            await service.shutdown()
            assert service.state == "stopped"
            await service.shutdown()  # second call is a no-op
            assert service.state == "stopped"

        asyncio.run(scenario())


def sampling_runs(registry):
    """Count sampling runs: rank-count cache misses + top-ups."""
    return registry.counter_value(
        "cache_misses_total", kind="rank-counts"
    ) + registry.counter_value("cache_topups_total", kind="rank-counts")


def make_table_service_parts(**kwargs):
    """A table-backed engine (private metrics) plus its table."""
    from repro.db.scoring import AttributeScore
    from repro.db.table import UncertainTable

    rows = [
        {"id": "a", "score": (8.0, 10.0)},
        {"id": "b", "score": (5.0, 7.0)},
        {"id": "c", "score": (1.0, 3.0)},
        {"id": "d", "score": 4.0},
    ]
    table = UncertainTable("served", ["id", "score"], rows)
    kwargs.setdefault("metrics", MetricsRegistry())
    engine = RankingEngine.from_table(
        table, AttributeScore("score", domain=(0.0, 16.0), scale=16.0),
        seed=7, **kwargs
    )
    return table, engine


@pytest.mark.serve
class TestMutateEndpoint:
    """POST /mutate: batched edits land as one delta, warm state reported."""

    def test_mutation_roundtrip(self):
        async def scenario():
            table, engine = make_table_service_parts(samples=300)
            service = RankingService(engine)
            port = await service.start(port=0)
            try:
                status, _, before = await http_request(
                    port, "POST", "/query",
                    body={"kind": "utop_rank", "i": 1, "j": 1, "method": "exact"},
                )
                assert status == 200
                assert before["result"]["answers"][0]["record_id"] == "a"
                before_fp = engine.database_fingerprint

                status, _, payload = await http_request(
                    port, "POST", "/mutate",
                    body={
                        "update": [
                            {"key": "c", "column": "score", "value": [12.0, 14.0]}
                        ],
                        "delete": ["d"],
                    },
                )
                assert status == 200
                assert payload["changed"]
                assert payload["fingerprint"] != before_fp
                assert payload["records"] == 3
                (delta,) = payload["deltas"]
                assert delta["updated"] == ["c"]
                assert delta["deleted"] == ["d"]
                # The engine consumed the delta: it migrated instead of
                # invalidating wholesale.
                assert payload["migration"] is not None
                assert payload["migration"]["noop"] is False

                status, _, after = await http_request(
                    port, "POST", "/query",
                    body={"kind": "utop_rank", "i": 1, "j": 1, "method": "exact"},
                )
                assert status == 200
                assert after["result"]["answers"][0]["record_id"] == "c"
                metrics = engine.metrics.counter_value("serve_mutations_total")
                assert metrics == 1.0
            finally:
                await service.shutdown()

        asyncio.run(scenario())

    def test_byte_identical_edit_changes_nothing(self):
        async def scenario():
            table, engine = make_table_service_parts(samples=300)
            service = RankingService(engine)
            port = await service.start(port=0)
            try:
                status, _, payload = await http_request(
                    port, "POST", "/mutate",
                    body={
                        "update": [
                            {"key": "d", "column": "score", "value": 4.0}
                        ]
                    },
                )
                assert status == 200
                assert payload["changed"] is False
                assert payload["deltas"] == []
                assert payload["migration"] is None
            finally:
                await service.shutdown()

        asyncio.run(scenario())

    def test_rejections(self):
        async def scenario():
            table, engine = make_table_service_parts(samples=300)
            service = RankingService(engine)
            port = await service.start(port=0)
            try:
                status, _, payload = await http_request(
                    port, "POST", "/mutate", body={}
                )
                assert status == 400
                assert "no edits" in payload["error"]

                status, _, payload = await http_request(
                    port, "POST", "/mutate", body={"delete": ["zz"]}
                )
                assert status == 400
                assert "mutation rejected" in payload["error"]
                # The rejected batch was atomic: nothing changed.
                assert len(table.rows) == 4
            finally:
                await service.shutdown()

            plain = make_engine(samples=300)
            service = RankingService(plain)
            port = await service.start(port=0)
            try:
                status, _, payload = await http_request(
                    port, "POST", "/mutate", body={"delete": ["a"]}
                )
                assert status == 400
                assert "table-backed" in payload["error"]
            finally:
                await service.shutdown()

        asyncio.run(scenario())
