"""Unit tests for the session-scoped computation cache (repro.core.cache).

Covers the four pillars of the cache design:

- content-addressed fingerprints (records and tables);
- generic artifact memoization with LRU/byte eviction and stats;
- block-structured Monte-Carlo rank counts with *deterministic top-up*
  (extending a cached run is bit-identical to a cold run at the larger
  budget, serially or on a block pool of any width, and under an
  active Budget);
- engine-level wiring: repeated queries hit, mutations miss, and the
  per-query ``QueryResult.cache`` counts report each query's own events,
  even while another engine works on the same cache.
"""

import threading
from collections import Counter

import numpy as np
import pytest

from repro import certain, uniform
from repro.core.budget import Budget, CancellationToken
from repro.core.cache import (
    CacheStats,
    ComputationCache,
    RankCountStore,
    fingerprint_records,
    query_events,
    shared_cache,
)
from repro.core.chaos import FaultSchedule, FaultyDistribution
from repro.core.engine import RankingEngine
from repro.core.errors import QueryError
from repro.core.montecarlo import MonteCarloEvaluator
from repro.core.parallel import BlockPool
from repro.core.records import UncertainRecord
from repro.db.scoring import AttributeScore
from repro.db.table import UncertainTable


def small_db(n=12, seed=7):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        center = float(rng.uniform(0.0, 10.0))
        records.append(uniform(f"s{i:02d}", center, center + 2.0))
    return records


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------


class TestFingerprintRecords:
    def test_content_addressed(self):
        a = [certain("t1", 6.0), uniform("t2", 4.0, 8.0)]
        b = [certain("t1", 6.0), uniform("t2", 4.0, 8.0)]
        assert fingerprint_records(a) == fingerprint_records(b)

    def test_sensitive_to_id_bounds_and_family(self):
        base = [certain("t1", 6.0), uniform("t2", 4.0, 8.0)]
        fp = fingerprint_records(base)
        renamed = [certain("tX", 6.0), uniform("t2", 4.0, 8.0)]
        moved = [certain("t1", 6.0), uniform("t2", 4.0, 8.5)]
        refamilied = [certain("t1", 6.0), certain("t2", 6.0)]
        assert fingerprint_records(renamed) != fp
        assert fingerprint_records(moved) != fp
        assert fingerprint_records(refamilied) != fp

    def test_order_sensitive(self):
        a = [certain("t1", 6.0), certain("t2", 5.0)]
        assert fingerprint_records(a) != fingerprint_records(a[::-1])

    def test_unknown_family_never_aliases(self):
        # FaultyDistribution is not a registered family: it gets the
        # identity fallback, so two structurally equal wrappers must NOT
        # share a fingerprint (conservative: no stale-entry aliasing).
        inner = uniform("x", 0.0, 1.0).score
        schedule = FaultSchedule(calls=())
        rec_a = [UncertainRecord("x", FaultyDistribution(inner, schedule))]
        rec_b = [UncertainRecord("x", FaultyDistribution(inner, schedule))]
        assert fingerprint_records(rec_a) != fingerprint_records(rec_b)


class TestTableFingerprint:
    @pytest.fixture
    def table(self):
        rows = [
            {"id": "a", "rent": 600.0},
            {"id": "b", "rent": (650.0, 1100.0)},
        ]
        return UncertainTable("apts", ["id", "rent"], rows, key="id")

    def test_add_row_bumps(self, table):
        fp = table.fingerprint()
        with table.mutate() as batch:
            batch.append({"id": "c", "rent": 700.0})
        assert table.fingerprint() != fp

    def test_remove_row_bumps(self, table):
        fp = table.fingerprint()
        with table.mutate() as batch:
            batch.delete("b")
        assert table.fingerprint() != fp

    def test_update_cell_bumps(self, table):
        fp = table.fingerprint()
        with table.mutate() as batch:
            batch.update("a", "rent", 601.0)
        assert table.fingerprint() != fp

    def test_roundtrip_mutation_restores_fingerprint(self, table):
        # The fingerprint is content-addressed at record granularity:
        # editing a cell and editing it back restores the exact
        # fingerprint, so caches keyed on it may serve warm artifacts
        # again — the content IS the identity, not the edit history.
        fp = table.fingerprint()
        with table.mutate() as batch:
            batch.update("a", "rent", 999.0)
        assert table.fingerprint() != fp
        with table.mutate() as batch:
            batch.update("a", "rent", 600.0)
        assert table.fingerprint() == fp

    def test_name_not_part_of_fingerprint(self, table):
        # Regression: the fingerprint once hashed ``self.name``, so two
        # tables with identical content but different names produced
        # different cache identities and defeated artifact sharing.
        same_rows = [dict(row) for row in table.rows]
        renamed = UncertainTable(
            "apts-renamed", ["id", "rent"], same_rows, key="id"
        )
        assert renamed.fingerprint() == table.fingerprint()

    def test_to_records_validate_roundtrip_consistent(self, table):
        scoring = AttributeScore("rent", domain=(0.0, 2000.0))
        before = fingerprint_records(table.to_records(scoring))
        again = fingerprint_records(
            table.to_records(scoring, validate=True)
        )
        assert before == again
        with table.mutate() as batch:
            batch.update("a", "rent", 650.0)
        after = fingerprint_records(
            table.to_records(scoring, validate=True)
        )
        assert after != before


# ----------------------------------------------------------------------
# stats and generic artifacts
# ----------------------------------------------------------------------


class TestCacheStats:
    def test_delta(self):
        # A query's tally holds only the events inside its block; the
        # cache's totals keep counting across blocks.
        cache = ComputationCache(max_entries=2)
        cache.artifact("k", 0, lambda: 0)
        with query_events() as tally:
            cache.artifact("k", 0, lambda: 0)
            cache.artifact("k", 1, lambda: 1)
            cache.artifact("k", 2, lambda: 2)  # evicts entry 0
            with query_events() as inner:
                cache.artifact("k", 2, lambda: 2)
        cache.artifact("k", 3, lambda: 3)
        assert tally == Counter(hits=1, misses=2, evictions=1)
        assert inner == Counter(hits=1)
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (2, 4, 2)
        assert stats.entries == 2

    def test_to_dict_keys(self):
        keys = set(CacheStats().to_dict())
        assert keys == {
            "hits", "misses", "evictions", "bytes", "topups", "entries",
            "migrations", "carried",
        }


class TestArtifact:
    def test_builds_once_then_hits(self):
        cache = ComputationCache()
        calls = []
        for _ in range(3):
            value = cache.artifact("k", "x", lambda: calls.append(1) or 41)
        assert value == 41
        assert len(calls) == 1
        stats = cache.stats()
        assert stats.hits == 2 and stats.misses == 1

    def test_distinct_keys_distinct_values(self):
        cache = ComputationCache()
        assert cache.artifact("k", 1, lambda: "a") == "a"
        assert cache.artifact("k", 2, lambda: "b") == "b"
        assert cache.artifact("other", 1, lambda: "c") == "c"

    def test_contains_does_not_touch_lru(self):
        cache = ComputationCache(max_entries=2)
        cache.artifact("k", 1, lambda: "a")
        cache.artifact("k", 2, lambda: "b")
        assert cache.contains("k", 1)
        assert not cache.contains("k", 3)
        cache.artifact("k", 3, lambda: "c")
        # The probe left entry 1 least recently used, so it went first.
        assert not cache.contains("k", 1)
        assert cache.contains("k", 2) and cache.contains("k", 3)

    def test_lru_eviction_by_entries(self):
        cache = ComputationCache(max_entries=3)
        for i in range(5):
            cache.artifact("k", i, lambda i=i: i)
        stats = cache.stats()
        assert stats.entries == 3
        assert stats.evictions == 2
        assert not cache.contains("k", 0) and not cache.contains("k", 1)
        assert cache.contains("k", 4)

    def test_lru_eviction_by_bytes(self):
        cache = ComputationCache(max_bytes=4 * 80)
        for i in range(5):
            cache.artifact("arr", i, lambda: np.zeros(10))  # 80 bytes each
        stats = cache.stats()
        assert stats.evictions >= 1
        assert cache.contains("arr", 4)

    def test_recent_touch_protects_from_eviction(self):
        cache = ComputationCache(max_entries=2)
        cache.artifact("k", "a", lambda: 1)
        cache.artifact("k", "b", lambda: 2)
        cache.artifact("k", "a", lambda: 1)  # touch: now "b" is LRU
        cache.artifact("k", "c", lambda: 3)
        assert cache.contains("k", "a") and cache.contains("k", "c")
        assert not cache.contains("k", "b")

    def test_oversized_newest_entry_survives(self):
        cache = ComputationCache(max_bytes=8)
        value = cache.artifact("arr", 0, lambda: np.zeros(1000))
        assert value.nbytes > cache.max_bytes
        assert cache.contains("arr", 0)

    def test_exact_evaluator_is_sized_by_its_node_grid(self):
        from repro.core.exact import ExactEvaluator

        records = [uniform(f"r{i}", float(i), i + 2.5) for i in range(6)]
        cache = ComputationCache()
        evaluator = cache.artifact(
            "exact", "fp", lambda: ExactEvaluator(records)
        )
        assert cache.stats().bytes == 256  # no grid yet
        evaluator.prefix_probability(["r5", "r4"])
        assert cache.stats().bytes > 256
        assert cache.stats().bytes == evaluator.nbytes

    def test_shared_cache_is_singleton(self):
        assert shared_cache() is shared_cache()


# ----------------------------------------------------------------------
# rank-count store: deterministic top-up
# ----------------------------------------------------------------------


def fresh_counts(make_sampler, samples, limit, block):
    """A cold serial run at ``samples`` through a fresh store (the reference)."""
    store = RankCountStore(block=block)
    sc, covered = store.counts_for(make_sampler(), samples, limit)
    assert covered == 0
    assert sc.done == samples
    return sc.counts


class TestRankCountStoreTopUp:
    BLOCK = 64

    def test_piece_decomposition(self):
        store = RankCountStore(block=64)
        assert store.pieces(64) == [(0, 64)]
        assert store.pieces(65) == [(0, 64), (1, 1)]
        assert store.pieces(200) == [(0, 64), (1, 64), (2, 64), (3, 8)]
        with pytest.raises(QueryError):
            store.pieces(0)
        with pytest.raises(QueryError, match="block size"):
            RankCountStore(block=0)

    @pytest.mark.parametrize("workers", [None, 1, 2, 3])
    def test_topup_bit_identical_to_cold(self, workers):
        # ``None`` draws without a pool (inline); the reference is
        # always the serial cold run.
        db = small_db()

        def make_sampler():
            return MonteCarloEvaluator(db, seed=5)

        pool = None if workers is None else BlockPool(workers)
        limit = len(db)
        reference = fresh_counts(make_sampler, 230, limit, self.BLOCK)
        store = RankCountStore(block=self.BLOCK)
        sampler = make_sampler()
        first, covered = store.counts_for(sampler, 100, limit, pool=pool)
        assert covered == 0 and first.done == 100
        extended, covered = store.counts_for(sampler, 230, limit, pool=pool)
        assert covered == 64  # block 0 is reusable; the 36-tail is not
        assert extended.done == 230
        assert np.array_equal(extended.counts, reference)

    def test_worker_counts_share_results(self):
        db = small_db()
        limit = len(db)
        outs = []
        for workers in (1, 2, 4):
            store = RankCountStore(block=self.BLOCK)
            sampler = MonteCarloEvaluator(db, seed=5)
            with_pool = BlockPool(workers)
            store.counts_for(sampler, 100, limit, pool=with_pool)
            sc, _ = store.counts_for(sampler, 230, limit, pool=with_pool)
            with_pool.close()
            outs.append(sc.counts)
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])

    def test_deep_pieces_serve_shallow_queries(self):
        db = small_db()
        store = RankCountStore(block=self.BLOCK)
        sampler = MonteCarloEvaluator(db, seed=5)
        deep, _ = store.counts_for(sampler, 128, len(db))
        shallow, covered = store.counts_for(sampler, 128, 3)
        assert covered == 128  # served entirely by slicing
        reference = MonteCarloEvaluator(db, seed=5).rank_counts(
            64, max_rank=3, seed=0
        ).counts + MonteCarloEvaluator(db, seed=5).rank_counts(
            64, max_rank=3, seed=1
        ).counts
        assert np.array_equal(shallow.counts, reference)
        assert np.array_equal(shallow.counts, deep.counts[:, :3])

    def test_shallow_then_deep_redraws_deterministically(self):
        db = small_db()
        store = RankCountStore(block=self.BLOCK)
        sampler = MonteCarloEvaluator(db, seed=5)
        store.counts_for(sampler, 128, 3)
        deep, covered = store.counts_for(sampler, 128, len(db))
        assert covered == 0  # shallow pieces cannot serve a deeper ask
        reference = fresh_counts(
            lambda: MonteCarloEvaluator(db, seed=5), 128, len(db), self.BLOCK
        )
        assert np.array_equal(deep.counts, reference)

    def test_tally_pieces_top_up_and_count_bytes(self):
        db = small_db()
        reference, _ = RankCountStore(block=self.BLOCK).counts_for(
            MonteCarloEvaluator(db, seed=5), 230, 3, tally=True
        )
        store = RankCountStore(block=self.BLOCK)
        sampler = MonteCarloEvaluator(db, seed=5)
        store.counts_for(sampler, 128, 3)
        ranks_only = store.nbytes
        first, covered = store.counts_for(sampler, 100, 3, tally=True)
        assert covered == 0  # rank pieces do not serve a tally
        assert store.nbytes > ranks_only
        extended, covered = store.counts_for(sampler, 230, 3, tally=True)
        assert covered == 64
        assert extended.done == 230
        assert extended.counts == reference.counts
        _, covered = store.counts_for(sampler, 230, 2, tally=True)
        assert covered == 0  # tally pieces are keyed by their k

    def test_topup_under_budget_charges_only_new_samples(self):
        db = small_db()
        store = RankCountStore(block=self.BLOCK)
        sampler = MonteCarloEvaluator(db, seed=5)
        store.counts_for(sampler, 128, len(db))
        budget = Budget(max_samples=1_000)
        sc, covered = store.counts_for(
            sampler, 230, len(db), budget=budget
        )
        assert covered == 128
        assert budget.samples_used == 230 - 128
        reference = fresh_counts(
            lambda: MonteCarloEvaluator(db, seed=5), 230, len(db), self.BLOCK
        )
        assert np.array_equal(sc.counts, reference)

    def test_budget_clip_then_retry_is_bit_identical(self):
        db = small_db()
        store = RankCountStore(block=self.BLOCK)
        sampler = MonteCarloEvaluator(db, seed=5)
        tight = Budget(max_samples=80)
        clipped, _ = store.counts_for(sampler, 230, len(db), budget=tight)
        assert clipped.partial and clipped.done == 80
        assert clipped.reason is not None
        # The clean 64-block and the clipped 16-piece are both cached;
        # a retry with fresh budget completes to the cold-run counts.
        retry, covered = store.counts_for(
            sampler, 230, len(db), budget=Budget(max_samples=1_000)
        )
        assert retry.done == 230
        assert covered == 64  # only canonical pieces count as coverage
        reference = fresh_counts(
            lambda: MonteCarloEvaluator(db, seed=5), 230, len(db), self.BLOCK
        )
        assert np.array_equal(retry.counts, reference)

    def test_cache_rank_counts_accounting(self):
        db = small_db()
        cache = ComputationCache(block=self.BLOCK)
        sampler = MonteCarloEvaluator(db, seed=5)
        fp, backend = "fp", ("mc", 5)
        cache.rank_counts(fp, backend, sampler, 100)
        cache.rank_counts(fp, backend, sampler, 100)
        cache.rank_counts(fp, backend, sampler, 230)
        stats = cache.stats()
        assert stats.misses == 1 and stats.hits == 1 and stats.topups == 1
        with pytest.raises(QueryError):
            cache.rank_counts(fp, backend, sampler, 0)


# ----------------------------------------------------------------------
# engine wiring
# ----------------------------------------------------------------------


class TestEngineCache:
    def test_default_cache_is_private(self, paper_db):
        a = RankingEngine(paper_db)
        b = RankingEngine(paper_db)
        assert a.cache is not b.cache

    def test_shared_and_explicit_cache(self, paper_db):
        assert RankingEngine(paper_db, cache="shared").cache is shared_cache()
        cache = ComputationCache()
        assert RankingEngine(paper_db, cache=cache).cache is cache
        with pytest.raises(QueryError):
            RankingEngine(paper_db, cache="bogus")

    def test_repeat_query_hits(self, paper_db):
        engine = RankingEngine(paper_db)
        first = engine.utop_rank(1, 2)
        second = engine.utop_rank(1, 2)
        assert second.answers == first.answers
        assert first.cache["misses"] > 0
        assert second.cache["misses"] == 0
        assert second.cache["hits"] > 0

    def test_montecarlo_repeat_and_topup(self):
        # block=64 so the 500 -> 1200 extension reuses the seven full
        # blocks of the first run (the canonical decomposition is part
        # of the determinism contract, so the cold reference engine
        # must use the same block size).
        db = small_db(30)
        engine = RankingEngine(
            db, samples=500, cache=ComputationCache(block=64)
        )
        first = engine.utop_rank(1, 3, method="montecarlo")
        again = engine.utop_rank(1, 3, method="montecarlo")
        assert again.answers == first.answers
        assert again.cache["misses"] == 0
        bigger = engine.utop_rank(
            1, 3, method="montecarlo", samples=1_200
        )
        assert bigger.cache["topups"] == 1
        # and the topped-up estimate matches a cold engine at 1200
        cold = RankingEngine(
            db, samples=500, cache=ComputationCache(block=64)
        ).utop_rank(1, 3, method="montecarlo", samples=1_200)
        assert bigger.answers == cold.answers

    def test_cross_engine_sharing_preserves_answers(self):
        db = small_db(30)
        cache = ComputationCache()
        cold = RankingEngine(db, samples=500, cache=cache).utop_rank(
            1, 3, method="montecarlo"
        )
        warm = RankingEngine(db, samples=500, cache=cache).utop_rank(
            1, 3, method="montecarlo"
        )
        solo = RankingEngine(db, samples=500).utop_rank(
            1, 3, method="montecarlo"
        )
        assert warm.answers == cold.answers == solo.answers
        assert warm.cache["misses"] == 0 and warm.cache["hits"] > 0

    def test_worker_invariance_shares_counts(self):
        db = small_db(30)
        cache = ComputationCache()
        serial = RankingEngine(
            db, samples=500, workers=1, cache=cache
        ).utop_rank(1, 3, method="montecarlo")
        wide = RankingEngine(
            db, samples=500, workers=3, cache=cache
        ).utop_rank(1, 3, method="montecarlo")
        assert wide.answers == serial.answers
        # the second engine's evaluator and rank counts are both
        # served from cache: the worker count is not part of any key
        assert wide.cache["topups"] == 0
        assert wide.cache["misses"] == 0

    def test_mutation_changes_fingerprint_no_stale_reuse(self):
        db = small_db(30)
        cache = ComputationCache()
        before = RankingEngine(db, samples=500, cache=cache).utop_rank(
            1, 3, method="montecarlo"
        )
        edited = list(db)
        edited[0] = uniform(db[0].record_id, db[0].lower, db[0].upper + 0.5)
        after = RankingEngine(edited, samples=500, cache=cache).utop_rank(
            1, 3, method="montecarlo"
        )
        # the edited database must not be served the stale counts
        assert after.cache["misses"] > 0
        reference = RankingEngine(edited, samples=500).utop_rank(
            1, 3, method="montecarlo"
        )
        assert after.answers == reference.answers

    def test_cache_stats_and_explain_report(self, paper_db):
        engine = RankingEngine(paper_db)
        engine.utop_rank(1, 2)
        stats = engine.cache_stats()
        assert stats.misses > 0 and stats.entries > 0
        plan = engine.explain("utop_prefix", 3)
        assert "fingerprint" in plan
        assert set(plan["cache"]) == set(CacheStats().to_dict())

    def test_result_to_dict_carries_cache(self, paper_db):
        result = RankingEngine(paper_db).utop_rank(1, 2)
        payload = result.to_dict()
        assert payload["cache"]["misses"] == result.cache["misses"]

    def test_rank_aggregation_shares_pairwise_and_hits(self, paper_db):
        engine = RankingEngine(paper_db)
        first = engine.rank_aggregation()
        second = engine.rank_aggregation()
        assert second.answers == first.answers
        assert second.cache["misses"] == 0 and second.cache["hits"] > 0

    def test_budgeted_query_unaffected_by_warm_mcmc_artifacts(self):
        # Budgeted evaluations must reflect their own budget state: the
        # sample *blocks* are served from cache (free), but enumeration
        # and MCMC artifacts are neither read nor written under a budget.
        db = small_db(30)
        engine = RankingEngine(
            db, samples=500, cache=ComputationCache(block=64)
        )
        engine.utop_rank(1, 3, method="montecarlo")  # warm the blocks
        budget = Budget(max_samples=200)
        clipped = engine.utop_rank(
            1, 3, method="montecarlo", samples=1_200, budget=budget
        )
        # The seven full warm blocks (448 samples) are free; the budget
        # caps the 752-sample extension at 200 fresh draws.
        assert budget.samples_used == 200
        assert clipped.partial

    def test_concurrent_query_counts_only_its_own_events(
        self, monkeypatch
    ):
        # Engine A's warm repeat is held inside its evaluator while
        # engine B runs a cold query on the same cache: B's misses must
        # not show up in A's per-query counts.
        import repro.core.engine as engine_module

        cache = ComputationCache()
        warm = RankingEngine(small_db(20, seed=1), samples=500, cache=cache)
        cold = RankingEngine(small_db(20, seed=2), samples=500, cache=cache)
        warm.utop_rank(1, 3, method="montecarlo")
        paused, resume = threading.Event(), threading.Event()
        select = engine_module.select_top_rank_candidates

        def held(*args, **kwargs):
            if threading.current_thread() is thread:
                paused.set()
                assert resume.wait(30.0)
            return select(*args, **kwargs)

        monkeypatch.setattr(engine_module, "select_top_rank_candidates", held)
        results = {}
        thread = threading.Thread(
            target=lambda: results.setdefault(
                "warm", warm.utop_rank(1, 3, method="montecarlo")
            )
        )
        thread.start()
        try:
            assert paused.wait(30.0)
            other = cold.utop_rank(1, 3, method="montecarlo")
        finally:
            resume.set()
            thread.join(30.0)
        assert other.cache["misses"] > 0
        assert results["warm"].cache["misses"] == 0
        assert results["warm"].cache["topups"] == 0
        assert results["warm"].cache["hits"] > 0


class _StallingBlockZero(MonteCarloEvaluator):
    """Block 0 draws one 16-row chunk, then stalls until block 1 is done.

    Once block 1 has returned, block 0 cancels the query's budget, so it
    stops at its next chunk boundary: block 0 is interrupted, block 1
    complete.
    """

    def __init__(self, records, token):
        super().__init__(records, seed=5)
        self._MAX_MATRIX_CELLS = 16 * len(records)
        self.token = token
        self.block_one_done = threading.Event()
        self._local = threading.local()

    def rank_counts(
        self, samples, max_rank=None, seed=None, budget=None, tally=False
    ):
        self._local.stall = seed == 0
        result = super().rank_counts(samples, max_rank, seed, budget, tally)
        if seed == 1:
            self.block_one_done.set()
        return result

    def _draw(self, rng, samples):
        scores = super()._draw(rng, samples)
        if self._local.stall:
            self._local.stall = False
            assert self.block_one_done.wait(10)
            self.token.cancel()
        return scores


class TestInterruptedBlock:
    def test_only_in_order_prefix_is_merged_and_cached(self):
        db = small_db()
        limit = len(db)
        token = CancellationToken()
        sampler = _StallingBlockZero(db, token)
        store = RankCountStore(block=64)
        pool = BlockPool(2)
        try:
            sc, covered = store.counts_for(
                sampler, 128, limit, budget=Budget(token=token), pool=pool
            )
        finally:
            pool.close()
        assert sampler.block_one_done.is_set()
        assert covered == 0
        assert sc.done == 16 and sc.reason == "cancelled"
        # Block 0's first chunk is merged; the complete block 1 is not.
        first_chunk = MonteCarloEvaluator(db, seed=5).rank_counts(16, seed=0)
        np.testing.assert_array_equal(sc.counts, first_chunk.counts)
        # Nothing is cached: a serial run stops at block 0, and a
        # partial block is not addressable.
        assert store.coverage(128, limit) == 0
        assert store.nbytes == 0
        rerun, covered = store.counts_for(
            MonteCarloEvaluator(db, seed=5), 128, limit
        )
        assert covered == 0 and rerun.done == 128
        reference = fresh_counts(
            lambda: MonteCarloEvaluator(db, seed=5), 128, limit, 64
        )
        np.testing.assert_array_equal(rerun.counts, reference)


@pytest.mark.chaos
class TestCacheChaos:
    def test_faulty_shard_retry_merges_bit_identical(self):
        """A fault during a top-up draw must not corrupt merged counts.

        One record's distribution raises exactly once, inside the
        extension draw of a warm store. The block pool's retry redraws
        the same seed stream, so the merged counts must equal the
        counts from an identical database that never faults.
        """

        block = 64

        def run(schedule):
            db = small_db(10)
            faulty = FaultyDistribution(
                db[0].score, schedule, mode="raise", methods=("sample",)
            )
            records = [UncertainRecord(db[0].record_id, faulty), *db[1:]]
            store = RankCountStore(block=block)
            sampler = MonteCarloEvaluator(records, seed=5)
            pool = BlockPool(2)
            store.counts_for(sampler, 100, len(records), pool=pool)
            warm_calls = schedule.calls_seen
            sc, covered = store.counts_for(
                sampler, 230, len(records), pool=pool
            )
            pool.close()
            assert covered == 64
            assert sc.done == 230
            return sc.counts, warm_calls

        clean, warm_calls = run(FaultSchedule(calls=()))
        # Fire on the first sample call of the top-up draw (the warm
        # pass makes exactly ``warm_calls`` calls in both runs), with
        # limit=1 so the block retry then succeeds.
        schedule = FaultSchedule(calls={warm_calls}, limit=1)
        faulted, _ = run(schedule)
        assert schedule.faults_fired == 1
        assert np.array_equal(faulted, clean)
