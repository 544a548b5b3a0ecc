"""Unit tests for the block pool (`BlockPool`) and worker resolution.

The load-bearing property is worker-count invariance: the rank-count
store splits every request into fixed sample blocks, block ``i`` is
always drawn with seed ``i``, and the pool hands results back in block
order, so every merged result must be bit-identical whether the blocks
run on one thread or five. Accuracy itself is inherited from
`MonteCarloEvaluator` and covered by its own tests; here we pin the
pool (ordering, retry, context propagation, lifecycle), the block
layout as the store draws it, and knob validation.
"""

import logging
import os
import sys

import numpy as np
import pytest

import repro.core.parallel as parallel_mod
from repro.core.cache import SAMPLE_BLOCK, RankCountStore
from repro.core.engine import RankingEngine
from repro.core.errors import EvaluationError, QueryError
from repro.core.exact import ExactEvaluator
from repro.core.metrics import MetricsRegistry, use_registry
from repro.core.montecarlo import (
    MonteCarloEvaluator,
    select_top_rank_candidates,
)
from repro.core.parallel import BlockPool, resolve_workers
from repro.core.trace import Span, activate

BLOCK = 256


@pytest.fixture
def db(paper_db):
    return paper_db


def block_counts(db, samples, workers, max_rank=None, block=BLOCK):
    """Rank counts for ``samples`` draws, blocks run on a ``workers`` pool."""
    limit = len(db) if max_rank is None else max_rank
    pool = BlockPool(workers)
    try:
        sc, _ = RankCountStore(block=block).counts_for(
            MonteCarloEvaluator(db, seed=42), samples, limit, pool=pool
        )
    finally:
        pool.close()
    return sc


class TestResolveWorkers:
    def test_none_is_serial(self):
        assert resolve_workers(None) == 1

    def test_auto_is_positive_and_capped(self):
        assert 1 <= resolve_workers("auto") <= 8

    def test_explicit_integer(self):
        assert resolve_workers(3) == 3

    def test_tasks_cap(self):
        assert resolve_workers(16, tasks=4) == 4

    def test_unknown_string_rejected(self):
        with pytest.raises(QueryError, match="unknown workers"):
            resolve_workers("turbo")

    def test_nonpositive_rejected(self):
        with pytest.raises(QueryError, match="positive"):
            resolve_workers(0)


class TestResolveWorkersEnvironment:
    def test_auto_honours_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers("auto") == 3

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(2) == 2

    def test_env_ignored_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert 1 <= resolve_workers("auto") <= 8

    @pytest.mark.parametrize("value", ["zero", "-1", "0"])
    def test_invalid_env_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_WORKERS", value)
        with pytest.raises(QueryError, match="REPRO_WORKERS"):
            resolve_workers("auto")

    def test_oversubscription_warns_once_per_process(
        self, monkeypatch, caplog
    ):
        monkeypatch.setattr(parallel_mod, "_oversub_warned", False)
        cpus = os.cpu_count() or 1
        with caplog.at_level(logging.WARNING, logger="repro.core.parallel"):
            resolve_workers(cpus + 7)
            resolve_workers(cpus + 7)
        warnings = [
            record
            for record in caplog.records
            if "exceeds os.cpu_count" in record.getMessage()
        ]
        assert len(warnings) == 1


class TestBlockPool:
    def test_results_come_back_in_block_order(self):
        blocks = [(i, 10 * i) for i in range(8)]
        pool = BlockPool(4)
        try:
            assert pool.map(lambda b, s: (b, s), blocks) == blocks
        finally:
            pool.close()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_failed_block_is_retried_once(self, workers):
        calls = []

        def flaky(block, samples):
            calls.append(block)
            if block == 2 and calls.count(2) == 1:
                raise RuntimeError("transient")
            return block

        registry = MetricsRegistry()
        pool = BlockPool(workers)
        try:
            with use_registry(registry):
                out = pool.map(flaky, [(i, 1) for i in range(4)])
        finally:
            pool.close()
        assert out == [0, 1, 2, 3]
        assert calls.count(2) == 2
        assert registry.counter_value("block_retries_total") == 1.0

    def test_second_failure_surfaces_evaluation_error(self):
        def broken(block, samples):
            raise RuntimeError("persistent")

        with pytest.raises(EvaluationError, match="block 0 failed twice"):
            BlockPool(1).map(broken, [(0, 1)])

    def test_query_errors_are_not_retried(self):
        calls = []

        def invalid(block, samples):
            calls.append(block)
            raise QueryError("bad argument")

        with pytest.raises(QueryError):
            BlockPool(1).map(invalid, [(0, 1)])
        assert calls == [0]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_last_keeps_the_in_order_prefix(self, workers):
        pool = BlockPool(workers)
        try:
            out = pool.map(
                lambda b, s: b, [(i, 1) for i in range(6)], last=lambda r: r == 2
            )
        finally:
            pool.close()
        assert out == [0, 1, 2]

    def test_each_block_gets_a_span_under_the_caller(self):
        root = Span("sample")
        pool = BlockPool(2)
        try:
            with activate(root):
                pool.map(lambda b, s: None, [(0, 5), (1, 7)])
        finally:
            pool.close()
        root.end()
        children = root.to_dict()["children"]
        assert sorted(
            (c["name"], c["attributes"]["block"], c["attributes"]["samples"])
            for c in children
        ) == [("block", 0, 5), ("block", 1, 7)]


    def test_stress_more_workers_than_cores(self, db):
        # Blocks share the evaluator, the metrics registry and the span
        # tree; a lost update in any of them breaks one of the totals.
        workers = 4 * (os.cpu_count() or 1)
        registry = MetricsRegistry()
        root = Span("sample")
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with use_registry(registry), activate(root):
                sc = block_counts(db, 40 * 64, workers, block=64)
        finally:
            sys.setswitchinterval(previous)
        root.end()
        assert sc.done == 40 * 64
        assert registry.counter_value("samples_drawn_total") == 40 * 64
        assert len(root.to_dict()["children"]) == 40
        serial = block_counts(db, 40 * 64, 1, block=64)
        np.testing.assert_array_equal(sc.counts, serial.counts)


class TestWorkerCountInvariance:
    """Identical results for any worker count, given the block layout."""

    def test_sample_scores(self, db):
        evaluator = MonteCarloEvaluator(db, seed=42)
        blocks = [(i, 250) for i in range(4)]
        drawn = []
        for workers in (1, 2, 5):
            pool = BlockPool(workers)
            parts = pool.map(
                lambda b, s: evaluator.sample_scores(s, seed=b), blocks
            )
            pool.close()
            drawn.append(np.vstack(parts))
        assert np.array_equal(drawn[0], drawn[1])
        assert np.array_equal(drawn[0], drawn[2])

    def test_rank_count_matrix(self, db):
        counts = [block_counts(db, 2_000, w).counts for w in (1, 2, 5)]
        assert np.array_equal(counts[0], counts[1])
        assert np.array_equal(counts[0], counts[2])
        assert counts[0].sum() == pytest.approx(2_000 * len(db))

    def test_empirical_distributions(self, db):
        def answers(kind, workers):
            with RankingEngine(
                db, seed=42, workers=workers, samples=2 * SAMPLE_BLOCK + 500
            ) as engine:
                result = getattr(engine, kind)(2, l=3, method="montecarlo")
            return result.answers

        for kind in ("utop_prefix", "utop_set"):
            tables = [answers(kind, w) for w in (1, 2, 5)]
            assert tables[0] == tables[1] == tables[2]

    def test_per_call_seed_isolation(self, db):
        evaluator = MonteCarloEvaluator(db, seed=42)
        first = evaluator.sample_scores(500, seed=9)
        pool = BlockPool(2)
        pool.map(  # interleaved draws of other blocks on other threads
            lambda b, s: evaluator.rank_counts(s, seed=b),
            [(0, 1_000), (1, 1_000)],
        )
        pool.close()
        again = evaluator.sample_scores(500, seed=9)
        assert np.array_equal(first, again)
        different = evaluator.sample_scores(500, seed=10)
        assert not np.array_equal(first, different)

    def test_blocks_draw_distinct_streams(self, db):
        evaluator = MonteCarloEvaluator(db, seed=42)
        zero = evaluator.rank_counts(BLOCK, seed=0).counts
        one = evaluator.rank_counts(BLOCK, seed=1).counts
        assert not np.array_equal(zero, one)


class TestAccuracy:
    """Merged estimates converge to the exact answers."""

    def test_rank_probability_matrix(self, db):
        estimate = block_counts(db, 60_000, workers=2).counts / 60_000
        exact = ExactEvaluator(db).rank_probability_matrix()
        assert np.allclose(estimate, exact, atol=0.02)

    def test_prefix_probability(self, db):
        # Paper's worked example: P(t5, t1, t2 prefix) = 7/16.
        with RankingEngine(db, seed=0, workers=2, samples=60_000) as engine:
            result = engine.utop_prefix(3, l=1, method="montecarlo")
        top = result.answers[0]
        assert tuple(top.prefix) == ("t5", "t1", "t2")
        assert top.probability == pytest.approx(0.4375, abs=0.02)

    def test_top_rank_candidates_match_serial_selection(self, db):
        matrix = block_counts(db, 40_000, workers=3, max_rank=2).counts
        ranked = select_top_rank_candidates(db, matrix / 40_000, 1, 2, 3)
        assert ranked[0][0].record_id == "t5"
        assert ranked[0][1] == pytest.approx(1.0, abs=0.02)
        probs = [p for _rec, p in ranked]
        assert probs == sorted(probs, reverse=True)


class TestLifecycle:
    def test_close_releases_pool_and_sampler_stays_usable(self, db):
        engine = RankingEngine(db, seed=42, workers=2)
        engine.utop_rank(1, 2, method="montecarlo", samples=9_000)
        assert engine._pool._pool is not None
        engine.close()
        assert engine._pool._pool is None
        # Closed is not terminal: the pool is lazily re-created.
        again = engine.utop_rank(1, 3, method="montecarlo", samples=9_000)
        assert engine._pool._pool is not None
        engine.close()
        engine.close()  # idempotent
        fresh = RankingEngine(db, seed=42, workers=2)
        assert fresh.utop_rank(
            1, 3, method="montecarlo", samples=9_000
        ).answers == again.answers
