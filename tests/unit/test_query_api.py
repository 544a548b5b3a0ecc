"""Contract tests for the unified ``Query``/``query()`` dispatcher API.

Three families of guarantees:

- the thin wrapper methods (``utop_rank`` and friends) are byte-
  identical to ``query(spec)`` for the same parameters and seed;
- the observability layer is faithful — traces appear exactly per the
  ``trace=`` knobs, top-level stage spans account for the root's wall
  time, and the metrics counters reconcile with the engine's own
  ``CacheStats``, the per-query cache counts and the span tree's cache
  counters, and the sample accounting over a mixed workload;
- engines subscribe to table versions (``from_table``) and per-query
  seeds override constructor seeds.
"""

import numpy as np
import pytest

from repro.core.cache import ComputationCache
from repro.core.engine import RankingEngine
from repro.core.errors import QueryError
from repro.core.metrics import MetricsRegistry
from repro.core.queries import Query, QueryResult, RecordAnswer
from repro.core.records import uniform
from repro.core.trace import walk_spans
from repro.db.attributes import IntervalValue
from repro.db.scoring import AttributeScore
from repro.db.table import UncertainTable


def _records(n=24, seed=1, spread=30.0, width=2.0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, spread, size=n)
    return [
        uniform(f"r{i:02d}", float(c - width), float(c + width))
        for i, c in enumerate(centers)
    ]


def _engine(**kw):
    kw.setdefault("seed", 0)
    kw.setdefault("samples", 2_000)
    kw.setdefault("mcmc_chains", 3)
    kw.setdefault("mcmc_steps", 200)
    return RankingEngine(_records(), **kw)


class TestQueryValidation:
    def test_unknown_kind(self):
        with pytest.raises(QueryError):
            Query(kind="nope")

    def test_utop_rank_requires_bounds(self):
        with pytest.raises(QueryError):
            Query(kind="utop_rank")
        with pytest.raises(QueryError):
            Query(kind="utop_rank", i=3, j=2)

    def test_topk_requires_k(self):
        with pytest.raises(QueryError):
            Query(kind="utop_prefix")
        with pytest.raises(QueryError):
            Query(kind="utop_set", k=0)

    def test_threshold_range(self):
        with pytest.raises(QueryError):
            Query(kind="threshold_topk", k=3, threshold=0.0)
        with pytest.raises(QueryError):
            Query(kind="threshold_topk", k=3, threshold=1.5)

    def test_l_and_samples_positive(self):
        with pytest.raises(QueryError):
            Query(kind="rank_aggregation", l=0)
        with pytest.raises(QueryError):
            Query(kind="utop_rank", i=1, j=2, samples=0)

    def test_spec_is_frozen(self):
        spec = Query(kind="utop_rank", i=1, j=2)
        with pytest.raises(AttributeError):
            spec.l = 3  # type: ignore[misc]

    def test_dispatcher_rejects_unknown_kind(self):
        spec = Query(kind="utop_rank", i=1, j=2)
        object.__setattr__(spec, "kind", "mystery")
        with pytest.raises(QueryError):
            _engine().query(spec)


class TestWrapperEquivalence:
    """Wrappers and ``query(spec)`` must agree byte for byte."""

    CASES = [
        (
            "utop_rank",
            lambda e: e.utop_rank(1, 4, l=2, method="exact"),
            Query(kind="utop_rank", i=1, j=4, l=2, method="exact"),
        ),
        (
            "utop_rank-mc",
            lambda e: e.utop_rank(1, 4, l=2, method="montecarlo"),
            Query(kind="utop_rank", i=1, j=4, l=2, method="montecarlo"),
        ),
        (
            "utop_prefix",
            lambda e: e.utop_prefix(3, l=2, method="exact"),
            Query(kind="utop_prefix", k=3, l=2, method="exact"),
        ),
        (
            "utop_prefix-mcmc",
            lambda e: e.utop_prefix(3, method="mcmc"),
            Query(kind="utop_prefix", k=3, method="mcmc"),
        ),
        (
            "utop_set",
            lambda e: e.utop_set(3, l=2, method="montecarlo"),
            Query(kind="utop_set", k=3, l=2, method="montecarlo"),
        ),
        (
            "rank_aggregation",
            lambda e: e.rank_aggregation(method="montecarlo"),
            Query(kind="rank_aggregation", method="montecarlo"),
        ),
        (
            "threshold_topk",
            lambda e: e.threshold_topk(4, 0.05, method="exact"),
            Query(
                kind="threshold_topk", k=4, threshold=0.05, method="exact"
            ),
        ),
    ]

    @staticmethod
    def _blob(result):
        payload = result.to_dict()
        payload.pop("elapsed", None)
        payload.pop("cache", None)
        return payload

    @pytest.mark.parametrize(
        "label, wrapper, spec", CASES, ids=[c[0] for c in CASES]
    )
    def test_wrapper_matches_spec(self, label, wrapper, spec):
        via_wrapper = self._blob(wrapper(_engine()))
        via_spec = self._blob(_engine().query(spec))
        assert via_wrapper == via_spec


class TestTraceKnob:
    def test_off_by_default(self):
        result = _engine().utop_rank(1, 3)
        assert result.trace is None
        assert result.to_dict()["trace"] is None

    def test_engine_level_enable(self):
        result = _engine(trace=True).utop_rank(1, 3)
        assert result.trace is not None
        assert result.trace.name == "query"
        assert result.trace.ended

    def test_per_query_override_wins(self):
        traced_engine = _engine(trace=True)
        assert traced_engine.utop_rank(1, 3, trace=False).trace is None
        plain_engine = _engine()
        assert plain_engine.utop_rank(1, 3, trace=True).trace is not None

    def test_tracing_does_not_change_answers(self):
        plain = _engine().utop_rank(1, 4, method="montecarlo")
        traced = _engine(trace=True).utop_rank(1, 4, method="montecarlo")
        assert plain.answers == traced.answers
        assert plain.method == traced.method

    def test_root_span_attributes(self):
        result = _engine(trace=True).utop_rank(1, 3, method="exact")
        attrs = result.trace.attributes
        assert attrs["kind"] == "utop_rank"
        assert attrs["method_used"] == "exact"
        assert attrs["database_size"] == 24
        assert attrs["pruned_size"] == result.pruned_size


class TestSpanAccounting:
    """Top-level stage spans must account for the root's wall time."""

    PATHS = [
        ("exact", lambda e: e.utop_rank(1, 4, method="exact")),
        ("montecarlo", lambda e: e.utop_rank(1, 4, method="montecarlo")),
        ("mcmc", lambda e: e.utop_prefix(3, method="mcmc")),
        ("pt-k", lambda e: e.threshold_topk(3, 0.2, method="exact")),
        ("rank-agg-exact", lambda e: e.rank_aggregation(method="exact")),
        (
            "rank-agg-montecarlo",
            lambda e: e.rank_aggregation(method="montecarlo"),
        ),
    ]

    @pytest.mark.parametrize(
        "label, call", PATHS, ids=[p[0] for p in PATHS]
    )
    def test_stage_walls_sum_to_root(self, label, call):
        engine = _engine(trace=True, samples=10_000, mcmc_steps=500)
        tree = call(engine).trace.to_dict()
        root_wall = tree["wall_seconds"]
        stage_wall = sum(c["wall_seconds"] for c in tree["children"])
        assert root_wall > 0
        # Acceptance criterion: stages account for the root within 10%.
        assert stage_wall <= root_wall * 1.001
        assert stage_wall >= root_wall * 0.9, (
            f"{label}: stages cover only "
            f"{stage_wall / root_wall:.1%} of the root span"
        )


class TestMetricsReconciliation:
    def _mixed_workload(self, engine):
        """20 mixed queries cycling families and parameters."""
        for q in range(20):
            kind = q % 5
            if kind == 0:
                engine.utop_rank(1 + q % 2, 3 + q % 3, l=1 + q % 2)
            elif kind == 1:
                engine.utop_prefix(2 + q % 2)
            elif kind == 2:
                engine.utop_set(2 + q % 2)
            elif kind == 3:
                engine.utop_rank(1, 4, method="montecarlo")
            else:
                engine.rank_aggregation()

    def test_counters_match_cache_stats(self):
        registry = MetricsRegistry()
        engine = _engine(metrics=registry, cache=ComputationCache())
        self._mixed_workload(engine)
        stats = engine.cache_stats()
        assert registry.counter_total("queries_total") == 20.0
        assert registry.counter_total("cache_hits_total") == stats.hits
        assert registry.counter_total("cache_misses_total") == stats.misses
        assert registry.counter_total("cache_topups_total") == stats.topups
        snap = registry.snapshot()
        histogram_rows = snap["histograms"]["query_duration_seconds"]
        assert sum(r["count"] for r in histogram_rows) == 20
        kinds = {
            entry["labels"]["query"]
            for entry in snap["counters"]["queries_total"]
        }
        assert kinds == {
            "utop_rank",
            "utop_prefix",
            "utop_set",
            "rank_aggregation",
        }

    @pytest.mark.parametrize(
        "call",
        [
            lambda e: e.utop_rank(1, 4, method="montecarlo"),
            lambda e: e.utop_prefix(3),
            lambda e: e.utop_set(2, method="mcmc"),
            lambda e: e.rank_aggregation(),
        ],
        ids=["utop_rank-mc", "utop_prefix", "utop_set-mcmc", "rank_agg"],
    )
    def test_per_query_counts_match_span_counters(self, call):
        # One count, two views: the result's cache hits/misses/top-ups
        # equal the cache_* attributes summed over its span tree, cold
        # and warm alike.
        engine = _engine(trace=True, cache=ComputationCache())
        results = [call(engine), call(engine)]
        for result in results:
            spans = list(walk_spans(result.trace.to_dict()))
            for event in ("hits", "misses", "topups"):
                total = sum(
                    node["attributes"].get(f"cache_{event}", 0.0)
                    for node in spans
                )
                assert total == result.cache[event], event
        cold, warm = results
        assert cold.cache["misses"] > 0
        assert warm.cache["misses"] == 0 and warm.cache["hits"] > 0

    def test_delta_migrations_count_into_the_engine_registry(self):
        rows = [
            {"id": f"k{i}", "score": IntervalValue(float(i), i + 4.0)}
            for i in range(6)
        ]
        table = UncertainTable("t", ["id", "score"], rows)
        registry = MetricsRegistry()
        engine = RankingEngine.from_table(
            table,
            AttributeScore("score", domain=(0.0, 20.0)),
            seed=0,
            samples=500,
            mcmc_chains=2,
            mcmc_steps=60,
            prune=False,
            metrics=registry,
        )
        # The MCMC walk fills the database's pairwise memo, which the
        # migration then carries.
        engine.utop_prefix(2, method="mcmc")
        with table.mutate() as batch:
            batch.update("k3", "score", IntervalValue(8.0, 12.0))
        result = engine.utop_rank(1, 2)
        carried = engine.last_migration.pairwise_carried
        assert carried > 0
        assert registry.counter_total("cache_migrations_total") == 1.0
        assert registry.counter_total(
            "cache_carried_entries_total"
        ) == float(carried)
        # The refresh runs before the query's window opens.
        assert result.cache["migrations"] == 0

    def test_samples_drawn_reconcile_with_topup(self):
        registry = MetricsRegistry()
        engine = _engine(metrics=registry, cache=ComputationCache())

        engine.utop_rank(1, 3, method="montecarlo", samples=5_000)
        cold = registry.counter_total("samples_drawn_total")
        assert cold == 5_000.0

        # Identical repeat: fully served from the cached blocks.
        engine.utop_rank(1, 3, method="montecarlo", samples=5_000)
        assert registry.counter_total("samples_drawn_total") == cold

        # A larger request tops up: only the uncovered tail is drawn
        # (5000 rounds up to two 4096-blocks = 8192 cached samples,
        # leaving 8000 + 4096 - 8192 = 3904 fresh draws).
        engine.utop_rank(1, 3, method="montecarlo", samples=8_000)
        total = registry.counter_total("samples_drawn_total")
        assert total == cold + 3_904.0
        assert engine.cache_stats().topups == 1

    def test_query_errors_counted(self):
        registry = MetricsRegistry()
        engine = _engine(metrics=registry)
        with pytest.raises(QueryError):
            engine.utop_rank(1, 3, method="warp-drive")
        assert registry.counter_value(
            "query_errors_total", query="utop_rank"
        ) == 1.0

    def test_private_registry_isolates_accounting(self):
        mine = MetricsRegistry()
        other = MetricsRegistry()
        _engine(metrics=mine).utop_rank(1, 3)
        assert mine.counter_total("queries_total") == 1.0
        assert other.counter_total("queries_total") == 0.0


class TestPerQuerySeed:
    def test_engines_with_different_seeds_agree_on_query_seed(self):
        a = RankingEngine(_records(), seed=1, samples=2_000)
        b = RankingEngine(_records(), seed=2, samples=2_000)
        ra = a.utop_rank(1, 4, method="montecarlo", seed=77)
        rb = b.utop_rank(1, 4, method="montecarlo", seed=77)
        assert ra.answers == rb.answers
        # ... while their default sampling streams genuinely differ.
        assert a._sampler_seed != b._sampler_seed

    def test_seed_is_reproducible_on_one_engine(self):
        engine = _engine()
        first = engine.utop_rank(1, 4, method="montecarlo", seed=5)
        second = engine.utop_rank(1, 4, method="montecarlo", seed=5)
        assert first.answers == second.answers


class TestFromTable:
    def _table(self):
        rows = [
            {"id": "a", "score": IntervalValue(8.0, 10.0)},
            {"id": "b", "score": IntervalValue(5.0, 7.0)},
            {"id": "c", "score": IntervalValue(1.0, 3.0)},
        ]
        return UncertainTable("t", ["id", "score"], rows)

    def test_engine_follows_table_deltas(self):
        table = self._table()
        engine = RankingEngine.from_table(
            table, AttributeScore("score", domain=(0.0, 30.0)), seed=0
        )
        before = engine.utop_rank(1, 1, method="exact")
        assert before.top.record_id == "a"
        # Mutate the table: c jumps to the top; the next query consumes
        # the committed delta and re-scores.
        with table.mutate() as batch:
            batch.update("c", "score", IntervalValue(20.0, 22.0))
        after = engine.utop_rank(1, 1, method="exact")
        assert after.top.record_id == "c"
        # The engine saw a delta naming exactly the touched key, so the
        # refresh migrated instead of invalidating wholesale.
        migration = engine.last_migration
        assert migration is not None and not migration.noop

    def test_unchanged_table_is_not_reextracted(self):
        table = self._table()
        engine = RankingEngine.from_table(
            table, AttributeScore("score", domain=(0.0, 30.0)), seed=0
        )
        engine.utop_rank(1, 1)
        records_before = engine.records
        engine.utop_rank(1, 2)
        assert engine.records is records_before


class TestQueryResultSerialization:
    def test_positional_construction_raises(self):
        with pytest.raises(TypeError, match="keyword"):
            QueryResult([RecordAnswer("a", 1.0)], "exact", 0.1, 3, 2)

    def test_keyword_construction_is_silent(self, recwarn):
        QueryResult(
            answers=[],
            method="exact",
            elapsed=0.0,
            database_size=1,
            pruned_size=1,
        )
        assert not [
            w for w in recwarn if w.category is DeprecationWarning
        ]

    def test_unknown_and_missing_keywords_raise(self):
        with pytest.raises(TypeError):
            QueryResult(
                answers=[],
                method="exact",
                elapsed=0.0,
                database_size=1,
                pruned_size=1,
                wat=True,
            )
        with pytest.raises(TypeError):
            QueryResult(answers=[], method="exact")

    def test_to_json_round_trips(self):
        import json

        result = _engine(trace=True).utop_rank(1, 3, method="montecarlo")
        payload = json.loads(result.to_json())
        assert payload["method"] == "montecarlo"
        assert payload["trace"]["name"] == "query"
        assert payload["answers"][0]["record_id"]
