"""The two workloads of the ranking-engine benchmark.

Every workload has the same shape: ``setup()`` builds the inputs from
the seed and runs a warm-up pass, ``measure()`` runs operations in a
closed loop (one client) for the given number of seconds and records
each one's latency, and ``verify()`` checks the answers the loop
produced, outside the timed window.

Databases are uniform score intervals with evenly spaced centers and
seeded widths within 0.15 spacings of ``ratio`` spacings. A half-integer
``ratio`` keeps every top record's k-dominance test clear of its
boundary, so every seed keeps the same number of records after pruning
and therefore yields the same cost per query. The paper's 10,000-sample
Monte-Carlo default is used throughout; MCMC runs 4 chains of 300 steps
(the library default of 10 x 3,000 takes seconds per cold query, which
would leave too few operations per run for stable percentiles).
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.core.cache import ComputationCache
from repro.core.engine import RankingEngine
from repro.core.metrics import MetricsRegistry
from repro.core.queries import Query, QueryResult
from repro.db.scoring import AttributeScore
from repro.db.table import UncertainTable
from repro.serve import RankingService, ServiceConfig

COLUMNS = ["id", "score"]
#: A power-of-two scale keeps AttributeScore exact on the raw bounds.
SCORING = AttributeScore("score", (0.0, 128.0), scale=128.0)
ENGINE = {"seed": 0, "samples": 10_000, "mcmc_chains": 4, "mcmc_steps": 300}
#: The computation cache's default entry cap.
CACHE_ENTRIES = ComputationCache().max_entries
SPAN = 100.0

Row = Dict[str, object]


def interval_rows(
    rng: np.random.Generator, n: int, ratio: float
) -> List[Row]:
    """``n`` overlapping intervals; ``ratio`` = width / center spacing."""
    step = SPAN / n
    centers = (np.arange(n) + 0.5) * step
    widths = (ratio + rng.uniform(-0.15, 0.15, n)) * step
    return [
        {
            "id": f"r{i:04d}",
            "score": (float(c - w / 2.0), float(c + w / 2.0)),
        }
        for i, (c, w) in enumerate(zip(centers, widths))
    ]


def canonical(result: QueryResult) -> str:
    """The answer-determining part of a result (timing and cache removed)."""
    payload = result.to_dict()
    for volatile in ("elapsed", "cache", "trace"):
        payload.pop(volatile, None)
    diagnostics = payload.get("diagnostics")
    if isinstance(diagnostics, dict):
        diagnostics.pop("plan", None)
    return json.dumps(payload, sort_keys=True, default=str)


def answers_json(result: QueryResult) -> str:
    return json.dumps(result.to_dict()["answers"], sort_keys=True)


@dataclass
class Outcome:
    """What one measured window produced."""

    latencies_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)


class Workload:
    """Base: a seeded workload with a per-run metrics registry."""

    #: Entry cap of each engine's private computation cache.
    cache_entries = CACHE_ENTRIES

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.registry = MetricsRegistry()
        self.outcome = Outcome()

    def setup(self) -> None:
        raise NotImplementedError

    def _op(self, index: int) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``setup`` built; nothing, unless overridden."""

    def _engine(self, table: UncertainTable) -> RankingEngine:
        return RankingEngine.from_table(
            table,
            SCORING,
            metrics=self.registry,
            cache=ComputationCache(max_entries=self.cache_entries),
            **ENGINE,
        )

    def measure(self, seconds: float) -> Outcome:
        """Run ``_op`` back to back (one closed-loop client)."""
        out = self.outcome
        stop_at = time.perf_counter() + seconds
        index = 0
        while time.perf_counter() < stop_at:
            out.attempted += 1
            begun = time.perf_counter()
            try:
                self._op(index)
            except Exception as exc:  # counted, reported, loop goes on
                out.failed += 1
                out.problems.append(f"op {index}: {exc!r}")
            else:
                out.latencies_s.append(time.perf_counter() - begun)
            index += 1
        return out


# ----------------------------------------------------------------------
# cold-mix
# ----------------------------------------------------------------------

#: One operation of the cold mix: (database family, query spec). The
#: seven cold queries together make one operation, so every operation
#: does the same work and its latency has one mode, not seven.
COLD_CYCLE: Tuple[Tuple[str, Dict[str, object]], ...] = (
    ("wide", {"kind": "utop_rank", "i": 1, "j": 5, "method": "montecarlo"}),
    ("narrow", {"kind": "utop_prefix", "k": 2, "method": "mcmc"}),
    (
        "wide",
        {"kind": "threshold_topk", "k": 5, "threshold": 0.5,
         "method": "montecarlo"},
    ),
    ("narrow", {"kind": "utop_set", "k": 2, "method": "mcmc"}),
    ("wide", {"kind": "utop_rank", "i": 2, "j": 10, "method": "montecarlo"}),
    ("small", {"kind": "rank_aggregation", "method": "montecarlo"}),
    (
        "narrow",
        {"kind": "utop_rank", "i": 1, "j": 5, "l": 3, "method": "montecarlo"},
    ),
)
#: family -> (records, width/spacing ratio). "wide" keeps ~40 records
#: after pruning at depth 5, "narrow" ~10, "small" is never pruned
#: (rank aggregation needs every rank).
COLD_FAMILIES = {"wide": (400, 36.5), "narrow": (400, 6.5), "small": (120, 6.5)}
COLD_DATABASES = 3
#: ``l`` that returns every (pruned) record's probability.
SPAN_ALL = 10_000


class ColdMix(Workload):
    """Each query loads a table, builds a fresh engine and asks once; an
    operation asks the whole mix in turn."""

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.pool = {
            family: [interval_rows(rng, n, ratio) for _ in range(COLD_DATABASES)]
            for family, (n, ratio) in COLD_FAMILIES.items()
        }
        self.answers: Dict[Tuple[int, int], str] = {}
        # Warm-up: every query kind once, so lazy imports and first-call
        # set-up land here and not in the first timed operations.
        self._op(0)

    def _op(self, index: int) -> None:
        db = index % COLD_DATABASES
        for item, (family, spec) in enumerate(COLD_CYCLE):
            table = UncertainTable("cold", COLUMNS, self.pool[family][db])
            engine = self._engine(table)
            try:
                result = engine.query(Query(**spec))
            finally:
                engine.close()
            # Cold runs of one (database, query) must agree byte for byte.
            seen = self.answers.setdefault((item, db), canonical(result))
            if seen != canonical(result):
                self.outcome.problems.append(f"cold answer changed: {spec}")

    def verify(self) -> None:
        """Sampled answers must agree with the exact evaluator."""
        table = UncertainTable("check", COLUMNS, self.pool["narrow"][0])
        engine = self._engine(table)
        spec = {"kind": "utop_rank", "i": 1, "j": 5}
        try:
            sampled = engine.query(Query(method="montecarlo", l=3, **spec))
            exact = engine.query(Query(method="exact", l=SPAN_ALL, **spec))
        finally:
            engine.close()
        truth = {a.record_id: a.probability for a in exact.answers}
        for answer in sampled.answers:
            # 10,000 samples: the standard error is below 0.005.
            if abs(truth.get(answer.record_id, 0.0) - answer.probability) > 0.03:
                self.outcome.problems.append(
                    f"sampled {answer} far from exact {truth}"
                )


# ----------------------------------------------------------------------
# serve-edits
# ----------------------------------------------------------------------

EDIT_RECORDS = 400
EDIT_RATIO = 6.5
#: Edited rows: the top of the score range, which pruning always keeps,
#: so every edit moves the pruned fingerprint and the answer.
EDIT_ROWS = 12
EDIT_QUERY: Dict[str, object] = {
    "kind": "utop_rank", "i": 1, "j": 5, "method": "montecarlo",
}
#: Generous enough that no request degrades: served answers must equal
#: an unbudgeted cold engine's.
EDIT_DEADLINE_MS = 60_000.0
#: Every this many operations the table and the served answer are kept
#: for comparison with a cold engine after the window.
EDIT_CHECK_EVERY = 50
#: Operations run in set-up; each adds a few cache entries, so this
#: fills the workload's 256-entry cache.
EDIT_WARMUP = 60
REQUEST_TIMEOUT_S = 60.0


async def _post(port: int, path: str, body: dict) -> dict:
    """One HTTP/1.1 request; the service closes the connection after it."""
    payload = json.dumps(body).encode()
    head = (
        f"POST {path} HTTP/1.1\r\nHost: localhost\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    ).encode()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(head + payload)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    head_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    status = int(head_blob.split(b" ", 2)[1])
    if status != 200:
        raise RuntimeError(f"{path}: HTTP {status} {body_blob[:200]!r}")
    return json.loads(body_blob)


class ServeEdits(Workload):
    """One client edits a live table over HTTP and asks again each time.

    The service and its client share one event loop in this process
    (the service runs engine calls on its executor thread), so no
    second interpreter competes for the two cores the benchmark gets.
    """

    # Every edit adds cache entries for its new fingerprints, and the
    # cache's bookkeeping walks every entry on each query, so latency
    # climbs until the cap is reached. A small cap, filled in set-up,
    # puts the whole window in steady state.
    cache_entries = 256

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        rows = interval_rows(rng, EDIT_RECORDS, EDIT_RATIO)
        self.base = {row["id"]: row["score"] for row in rows}
        self.raw = dict(self.base)
        self.edited = [row["id"] for row in rows[-EDIT_ROWS:]]
        self.table = UncertainTable("serve", COLUMNS, rows)
        self.engine = self._engine(self.table)
        self.edits = np.random.default_rng([self.seed, 1])
        self.loop = asyncio.new_event_loop()
        self.service = RankingService(
            self.engine,
            ServiceConfig(
                deadline_ms=EDIT_DEADLINE_MS, max_concurrency=1, max_queue=4
            ),
        )
        self.port = self.loop.run_until_complete(self.service.start(port=0))
        self.checks: List[Tuple[Dict[str, Tuple], str]] = []
        for index in range(EDIT_WARMUP):
            self._op(index)
        self.checks.clear()

    def close(self) -> None:
        loop = getattr(self, "loop", None)
        if loop is None:
            return
        # Shutting the service down closes its engine.
        loop.run_until_complete(self.service.shutdown())
        loop.close()
        self.loop = self.engine = None

    def _op(self, index: int) -> None:
        self.loop.run_until_complete(
            asyncio.wait_for(self._edit_then_ask(index), REQUEST_TIMEOUT_S)
        )

    async def _edit_then_ask(self, index: int) -> None:
        key = self.edited[int(self.edits.integers(len(self.edited)))]
        lo, hi = self.base[key]
        step = SPAN / EDIT_RECORDS
        shift = float(self.edits.uniform(-0.5, 0.5)) * step
        half = (hi - lo) / 2.0 * float(self.edits.uniform(0.9, 1.1))
        center = (lo + hi) / 2.0 + shift
        value = (center - half, center + half)
        edit = {"key": key, "column": "score", "value": list(value)}
        reply = await _post(self.port, "/mutate", {"update": [edit]})
        if not reply["changed"]:
            raise RuntimeError(f"edit of {key} changed nothing")
        self.raw[key] = value
        reply = await _post(
            self.port, "/query", dict(EDIT_QUERY, deadline_ms=EDIT_DEADLINE_MS)
        )
        if reply["result"].get("partial") or reply["serve"].get("degraded"):
            raise RuntimeError("served answer degraded")
        if index % EDIT_CHECK_EVERY == 0:
            answers = json.dumps(reply["result"]["answers"], sort_keys=True)
            self.checks.append((dict(self.raw), answers))

    def verify(self) -> None:
        """Served answers after edits must equal a cold recompute."""
        for raw, served in self.checks:
            rows = [{"id": key, "score": score} for key, score in raw.items()]
            engine = self._engine(UncertainTable("check", COLUMNS, rows))
            try:
                cold = answers_json(engine.query(Query(**EDIT_QUERY)))
            finally:
                engine.close()
            if cold != served:
                self.outcome.problems.append("served != cold after an edit")
        if not self.checks:
            self.outcome.problems.append("no edit was checked")


WORKLOADS = {
    "cold-mix": ColdMix,
    "serve-edits": ServeEdits,
}
