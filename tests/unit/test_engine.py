"""Unit tests for the RankingEngine facade."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.budget import Budget
from repro.core.distributions import TruncatedGaussianScore
from repro.core.engine import RankingEngine
from repro.core.errors import EvaluationError, QueryError
from repro.core.montecarlo import MonteCarloEvaluator
from repro.core.records import UncertainRecord, certain, uniform
from repro.lint.sanitizer import (
    build_records,
    build_workload,
    encode_canonical,
)


@pytest.fixture
def engine(paper_db):
    return RankingEngine(paper_db, seed=99)


class TestUTopRank:
    def test_exact_path_matches_paper(self, engine):
        result = engine.utop_rank(1, 2, l=3)
        assert result.method == "exact"
        assert result.top.record_id == "t5"
        assert result.top.probability == pytest.approx(1.0)

    def test_montecarlo_path_agrees(self, engine):
        exact = engine.utop_rank(1, 2, l=6, method="exact")
        mc = engine.utop_rank(1, 2, l=6, method="montecarlo", samples=40_000)
        exact_by_id = {a.record_id: a.probability for a in exact.answers}
        for answer in mc.answers:
            assert answer.probability == pytest.approx(
                exact_by_id[answer.record_id], abs=0.02
            )

    def test_pruning_reported(self, engine):
        result = engine.utop_rank(1, 2)
        assert result.database_size == 6
        assert result.pruned_size == 3  # t3, t4, t6 are 2-dominated

    def test_pruning_disabled(self, paper_db):
        engine = RankingEngine(paper_db, seed=1, prune=False)
        result = engine.utop_rank(1, 2)
        assert result.pruned_size == 6
        assert result.top.record_id == "t5"

    def test_invalid_arguments(self, engine):
        with pytest.raises(QueryError):
            engine.utop_rank(0, 1)
        with pytest.raises(QueryError):
            engine.utop_rank(2, 1)
        with pytest.raises(QueryError):
            engine.utop_rank(1, 2, l=0)
        with pytest.raises(QueryError):
            engine.utop_rank(1, 2, method="bogus")


class TestUTopPrefix:
    def test_exact_path_matches_paper(self, engine):
        result = engine.utop_prefix(3, l=3)
        assert result.method == "exact"
        assert result.top.prefix == ("t5", "t1", "t2")
        assert result.top.probability == pytest.approx(0.4375)

    def test_mcmc_path_agrees(self, engine):
        result = engine.utop_prefix(3, l=1, method="mcmc")
        assert result.method == "mcmc"
        assert result.top.prefix == ("t5", "t1", "t2")
        assert result.top.probability == pytest.approx(0.4375, abs=1e-9)
        assert result.error_bound is not None
        assert "acceptance_rate" in result.diagnostics

    def test_montecarlo_path_agrees(self, engine):
        result = engine.utop_prefix(3, l=1, method="montecarlo")
        assert result.top.prefix == ("t5", "t1", "t2")
        assert result.top.probability == pytest.approx(0.4375, abs=0.03)

    def test_invalid_arguments(self, engine):
        with pytest.raises(QueryError):
            engine.utop_prefix(0)
        with pytest.raises(QueryError):
            engine.utop_prefix(3, l=0)
        with pytest.raises(QueryError):
            engine.utop_prefix(3, method="bogus")


class TestUTopSet:
    def test_exact_path_matches_paper(self, engine):
        result = engine.utop_set(3, l=2)
        assert result.method == "exact"
        assert result.top.members == frozenset({"t1", "t2", "t5"})
        assert result.top.probability == pytest.approx(0.9375)

    def test_mcmc_path_agrees(self, engine):
        result = engine.utop_set(3, l=1, method="mcmc")
        assert result.top.members == frozenset({"t1", "t2", "t5"})
        assert result.top.probability == pytest.approx(0.9375, abs=1e-9)

    def test_montecarlo_path_agrees(self, engine):
        result = engine.utop_set(3, l=1, method="montecarlo")
        assert result.top.members == frozenset({"t1", "t2", "t5"})
        assert result.top.probability == pytest.approx(0.9375, abs=0.03)

    def test_mcmc_diagnostics_match_prefix_schema(self, engine):
        prefix = engine.utop_prefix(3, l=1, method="mcmc")
        top_set = engine.utop_set(3, l=1, method="mcmc")
        assert set(top_set.diagnostics) == set(prefix.diagnostics)
        assert top_set.diagnostics["psrf"] is not None


def overlapping_uniforms(count=30):
    return [uniform(f"u{i:02d}", i * 0.2, i * 0.2 + 3.0) for i in range(count)]


def mixed_table():
    records = []
    for i in range(12):
        if i % 3 == 0:
            records.append(certain(f"c{i:02d}", 2.0))  # tied points
        elif i % 3 == 1:
            score = TruncatedGaussianScore(1.0 + 0.15 * i, 0.6, 0.0, 4.0)
            records.append(UncertainRecord(f"g{i:02d}", score))
        else:
            records.append(uniform(f"u{i:02d}", 0.1 * i, 0.1 * i + 2.5))
    return records


class TestMonteCarloTopK:
    """The TOP-k rung tallies prefixes on the rank-count blocks."""

    @pytest.mark.parametrize("kind", ["utop_rank", "utop_prefix", "utop_set"])
    def test_non_finite_draws_raise(self, monkeypatch, kind):
        draw = MonteCarloEvaluator._draw

        def corrupt(self, rng, samples):
            scores = draw(self, rng, samples)
            scores[::7, 0] = np.nan
            return scores

        monkeypatch.setattr(MonteCarloEvaluator, "_draw", corrupt)
        engine = RankingEngine(overlapping_uniforms(), samples=2_000)
        args = (1, 3) if kind == "utop_rank" else (3,)
        with pytest.raises(EvaluationError):
            getattr(engine, kind)(*args, method="montecarlo")

    def test_same_worlds_answer_both_families(self):
        # 10,000 samples: three blocks, drawn once for both families.
        engine = RankingEngine(overlapping_uniforms(), samples=10_000)
        prefix = engine.utop_prefix(1, l=5, method="montecarlo")
        rank = engine.utop_rank(1, 1, l=5, method="montecarlo")
        assert [(a.prefix, a.probability) for a in prefix.answers] == [
            ((a.record_id,), a.probability) for a in rank.answers
        ]
        sets = engine.utop_set(3, l=10**6, method="montecarlo")
        top3 = engine.utop_rank(1, 3, l=10**6, method="montecarlo")
        member_sums = dict.fromkeys((a.record_id for a in top3.answers), 0.0)
        for answer in sets.answers:
            for member in answer.members:
                member_sums[member] += answer.probability
        for answer in top3.answers:
            assert member_sums[answer.record_id] == pytest.approx(
                answer.probability, abs=1e-12
            )

    @pytest.mark.parametrize("table", [overlapping_uniforms, mixed_table])
    @pytest.mark.parametrize("kind", ["utop_prefix", "utop_set"])
    def test_budget_clips_between_blocks_then_tops_up(self, table, kind):
        engine = RankingEngine(table(), samples=10_000)
        clipped = getattr(engine, kind)(
            3, l=5, method="montecarlo", budget=Budget(max_samples=5_000)
        )
        assert clipped.partial
        fresh = getattr(RankingEngine(table(), samples=5_000), kind)(
            3, l=5, method="montecarlo"
        )
        assert clipped.answers == fresh.answers
        full = getattr(engine, kind)(3, l=5, method="montecarlo")
        assert not full.partial
        assert full.cache["topups"] == 1
        assert full.cache["misses"] == 0
        cold = getattr(RankingEngine(table(), samples=10_000), kind)(
            3, l=5, method="montecarlo"
        )
        assert full.answers == cold.answers


class TestRankAggregation:
    def test_exact_consensus(self, engine):
        result = engine.rank_aggregation()
        assert result.method == "exact"
        ranking = result.top.ranking
        # t5 and t1 occupy the first two places; t6 is always last.
        assert ranking[0] == "t5"
        assert ranking[-1] == "t6"

    def test_montecarlo_consensus_agrees(self, engine):
        exact = engine.rank_aggregation(method="exact").top
        mc = engine.rank_aggregation(
            method="montecarlo", samples=60_000
        ).top
        assert mc.ranking == exact.ranking

    def test_never_pruned(self, engine):
        result = engine.rank_aggregation()
        assert result.pruned_size == result.database_size


class TestMethodSelection:
    def test_large_antichain_falls_back_to_mcmc(self):
        records = [uniform(f"r{i:03d}", 0.0, 10.0) for i in range(30)]
        engine = RankingEngine(
            records, seed=0, prefix_enumeration_limit=100, mcmc_steps=200
        )
        result = engine.utop_prefix(5)
        assert result.method == "mcmc"

    def test_exact_limit_controls_rank_queries(self, paper_db):
        engine = RankingEngine(paper_db, seed=0, exact_record_limit=2)
        result = engine.utop_rank(1, 2)
        assert result.method == "montecarlo"

    def test_empty_database_rejected(self):
        with pytest.raises(QueryError):
            RankingEngine([])

    def test_k_larger_than_database(self, paper_db):
        engine = RankingEngine(paper_db, seed=0)
        result = engine.utop_prefix(50)
        assert len(result.top.prefix) == 6


class TestThresholdTopK:
    def test_threshold_filters_answers(self, engine):
        full = engine.utop_rank(1, 2, l=6)
        expected = {
            a.record_id for a in full.answers if a.probability >= 0.5
        }
        result = engine.threshold_topk(2, threshold=0.5)
        assert {a.record_id for a in result.answers} == expected
        assert "t5" in expected  # t5 is in the top 2 with certainty
        assert all(a.probability >= 0.5 for a in result.answers)

    def test_low_threshold_returns_everything_in_range(self, engine):
        result = engine.threshold_topk(2, threshold=1e-9)
        assert {a.record_id for a in result.answers} == {"t5", "t1", "t2"}

    def test_answer_size_is_data_dependent(self, engine):
        # Tightening the threshold can only shrink the answer set.
        sizes = [
            len(engine.threshold_topk(2, threshold=t).answers)
            for t in (1e-9, 0.5, 1.0)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_invalid_k(self, engine):
        with pytest.raises(QueryError):
            engine.threshold_topk(0, threshold=0.5)
        with pytest.raises(QueryError):
            engine.threshold_topk(-3, threshold=0.5)

    def test_threshold_out_of_range(self, engine):
        with pytest.raises(QueryError):
            engine.threshold_topk(2, threshold=0.0)
        with pytest.raises(QueryError):
            engine.threshold_topk(2, threshold=1.5)
        with pytest.raises(QueryError):
            engine.threshold_topk(2, threshold=-0.1)

    def test_unknown_method(self, engine):
        with pytest.raises(QueryError):
            engine.threshold_topk(2, threshold=0.5, method="bogus")


class TestExplain:
    def test_plan_for_rank_query(self, engine):
        plan = engine.explain("utop_rank", 2)
        assert plan["query"] == "utop_rank"
        assert plan["database_size"] == 6
        assert plan["pruned_size"] == 3
        assert plan["exact_densities"] is True
        assert plan["method"] == "exact"

    def test_plan_for_prefix_query(self, engine):
        plan = engine.explain("utop_prefix", 3)
        assert plan["method"] in ("exact", "mcmc")
        assert plan["prefix_space"] is not None
        assert plan["prefix_space"] >= 1

    def test_plan_respects_exact_limit(self, paper_db):
        engine = RankingEngine(paper_db, seed=0, exact_record_limit=2)
        plan = engine.explain("utop_rank", 2)
        assert plan["method"] == "montecarlo"

    def test_unknown_query_kind(self, engine):
        with pytest.raises(QueryError):
            engine.explain("bogus", 2)
        with pytest.raises(QueryError):
            engine.explain("", 2)

    def test_invalid_k(self, engine):
        with pytest.raises(QueryError):
            engine.explain("utop_rank", 0)
        with pytest.raises(QueryError):
            engine.explain("utop_prefix", -1)

    def test_empty_record_set_rejected_at_construction(self):
        with pytest.raises(QueryError):
            RankingEngine([])


class TestReproducibility:
    def test_reproducible_by_default(self, paper_db):
        # No seed argument at all: two runs must still agree (seed
        # defaults to 0 rather than OS entropy).
        a = RankingEngine(paper_db).utop_rank(1, 3, l=4, method="montecarlo")
        b = RankingEngine(paper_db).utop_rank(1, 3, l=4, method="montecarlo")
        assert [
            (x.record_id, x.probability) for x in a.answers
        ] == [(x.record_id, x.probability) for x in b.answers]

    def test_same_seed_same_answers(self, paper_db):
        a = RankingEngine(paper_db, seed=42).utop_rank(
            1, 3, l=4, method="montecarlo"
        )
        b = RankingEngine(paper_db, seed=42).utop_rank(
            1, 3, l=4, method="montecarlo"
        )
        assert [
            (x.record_id, x.probability) for x in a.answers
        ] == [(x.record_id, x.probability) for x in b.answers]

    def test_utop_set_independent_of_hash_seed(self):
        # Frozenset iteration follows PYTHONHASHSEED; neither the exact
        # set probabilities nor MCMC's tie-break may. The three
        # identical u-records tie {t5, u_a, u_b} across the l=3 cut,
        # and a salted summation order moves the exact last ulp.
        script = (
            "from repro.core.engine import RankingEngine\n"
            "from repro.core.records import uniform\n"
            "db = [uniform(f't{i}', 0.5 * i, 0.5 * i + 3.0 + 0.37 * (i % 4))"
            " for i in range(6)]\n"
            "db += [uniform(f'u{i}', 5.0, 6.0) for i in range(3)]\n"
            "for method in ('exact', 'mcmc'):\n"
            "    result = RankingEngine(db, seed=0).utop_set("
            "3, l=3, method=method)\n"
            "    for a in result.answers:\n"
            "        print(method, sorted(a.members), a.probability.hex())\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.append(run.stdout)
        assert outputs[0].count("\n") == 6
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


class TestWorkersKnob:
    """`workers=` spreads sample blocks and MCMC chains over threads
    without changing any answer; `None` (the default) means 1."""

    @staticmethod
    def _rank_answers(engine):
        result = engine.utop_rank(1, 3, l=4, method="montecarlo")
        return [(a.record_id, a.probability) for a in result.answers]

    def test_worker_count_does_not_change_rank_answers(self, paper_db):
        one = RankingEngine(paper_db, seed=42, workers=1)
        four = RankingEngine(paper_db, seed=42, workers=4)
        assert self._rank_answers(one) == self._rank_answers(four)

    def test_worker_count_does_not_change_mcmc_answers(self, paper_db):
        one = RankingEngine(paper_db, seed=42, workers=1)
        four = RankingEngine(paper_db, seed=42, workers=4)
        a = one.utop_prefix(3, l=2, method="mcmc")
        b = four.utop_prefix(3, l=2, method="mcmc")
        assert [(x.prefix, x.probability) for x in a.answers] == [
            (x.prefix, x.probability) for x in b.answers
        ]

    def test_parallel_agrees_with_exact(self, paper_db):
        engine = RankingEngine(paper_db, seed=7, workers=2)
        exact = engine.utop_rank(1, 2, l=6, method="exact")
        mc = engine.utop_rank(1, 2, l=6, method="montecarlo", samples=40_000)
        exact_by_id = {a.record_id: a.probability for a in exact.answers}
        for answer in mc.answers:
            assert answer.probability == pytest.approx(
                exact_by_id[answer.record_id], abs=0.02
            )

    def test_worker_grid_matches_serial_baseline_cold_and_warm(self):
        # All five query kinds, cold then warm cache; unlike the
        # sanitizer this keeps the cache statistics in the comparison.
        records = build_records(10)
        queries = build_workload(k=3)

        def run(workers):
            with RankingEngine(
                records,
                seed=7,
                workers=workers,
                samples=500,
                mcmc_chains=2,
                mcmc_steps=50,
            ) as engine:
                out = []
                for query in queries * 2:
                    data = engine.query(query).to_dict()
                    data.pop("elapsed", None)
                    data.pop("trace", None)
                    out.append(encode_canonical(data))
                return out

        baseline = run(1)
        for workers in (None, 2, 4):
            assert run(workers) == baseline, f"workers={workers}"

    def test_workers_reported_in_plan(self, paper_db):
        engine = RankingEngine(paper_db, seed=0, workers=2)
        assert engine.explain("utop_rank", 2)["workers"] == 2
        assert RankingEngine(paper_db, seed=0).explain(
            "utop_rank", 2
        )["workers"] == 1

    def test_invalid_workers_rejected(self, paper_db):
        with pytest.raises(QueryError):
            RankingEngine(paper_db, workers=0)
        with pytest.raises(QueryError):
            RankingEngine(paper_db, workers="warp")
