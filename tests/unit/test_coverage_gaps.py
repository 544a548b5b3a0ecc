"""Targeted tests for behaviours not covered elsewhere."""

import numpy as np
import pytest

from repro.core.engine import RankingEngine
from repro.core.errors import (
    ConvergenceError,
    EvaluationError,
    ModelError,
    QueryError,
    ReproError,
)
from repro.core.exact import ExactEvaluator
from repro.core.linext import build_tree, count_prefixes
from repro.core.ppo import ProbabilisticPartialOrder
from repro.core.records import certain, uniform


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc_type in (ModelError, QueryError, EvaluationError,
                         ConvergenceError):
            assert issubclass(exc_type, ReproError)

    def test_convergence_is_evaluation_error(self):
        assert issubclass(ConvergenceError, EvaluationError)

    def test_catchable_as_base(self, paper_db):
        engine = RankingEngine(paper_db, seed=0)
        with pytest.raises(ReproError):
            engine.utop_rank(0, 1)


class TestEngineRankDistribution:
    def test_exact_distribution(self, paper_db):
        engine = RankingEngine(paper_db, seed=0)
        dist = engine.rank_distribution("t5")
        assert dist.shape == (6,)
        assert dist.sum() == pytest.approx(1.0)
        truth = ExactEvaluator(paper_db).rank_probabilities("t5")
        assert np.allclose(dist, truth)

    def test_montecarlo_distribution(self, paper_db):
        engine = RankingEngine(paper_db, seed=0)
        dist = engine.rank_distribution(
            "t2", method="montecarlo", samples=40_000
        )
        truth = ExactEvaluator(paper_db).rank_probabilities("t2")
        assert np.allclose(dist, truth, atol=0.02)

    def test_max_rank_truncation(self, paper_db):
        engine = RankingEngine(paper_db, seed=0)
        dist = engine.rank_distribution("t5", max_rank=2)
        assert dist.shape == (2,)
        assert dist.sum() == pytest.approx(1.0)

    def test_unknown_record(self, paper_db):
        engine = RankingEngine(paper_db, seed=0)
        with pytest.raises(QueryError):
            engine.rank_distribution("zz")
        with pytest.raises(QueryError):
            engine.rank_distribution("t1", method="bogus")

    @pytest.mark.parametrize("method", ["exact", "montecarlo"])
    @pytest.mark.parametrize(
        "kwargs",
        [{"max_rank": 0}, {"max_rank": -1}, {"max_rank": -2}, {"samples": 0}],
        ids=["max_rank=0", "max_rank=-1", "max_rank=-2", "samples=0"],
    )
    def test_nonpositive_arguments_rejected(self, paper_db, method, kwargs):
        engine = RankingEngine(paper_db, seed=0)
        with pytest.raises(QueryError, match="must be positive"):
            engine.rank_distribution("t5", method=method, **kwargs)


class TestTreePaths:
    def test_paths_enumerate_all_leaves(self, paper_db):
        ppo = ProbabilisticPartialOrder(paper_db)
        root = build_tree(ppo, depth=2)
        paths = list(root.paths())
        assert all(len(p) == 2 for p in paths)
        assert len(paths) == count_prefixes(ppo, 2)

    def test_single_record_tree(self):
        ppo = ProbabilisticPartialOrder([certain("only", 1.0)])
        root = build_tree(ppo)
        assert root.node_count() == 1
        assert [tuple(r.record_id for r in p) for p in root.paths()] == [
            ("only",)
        ]


class TestBaselineDepthParameter:
    def test_utop_rank_with_explicit_depth(self, paper_db):
        from repro.core.baseline import BaselineAlgorithm

        baseline = BaselineAlgorithm(paper_db)
        shallow = baseline.utop_rank(1, 2, l=3)
        deep = baseline.utop_rank(1, 2, l=3, depth=4)
        assert [r.record_id for r, _p in shallow] == [
            r.record_id for r, _p in deep
        ]
        for (_r1, p1), (_r2, p2) in zip(shallow, deep):
            assert p1 == pytest.approx(p2, abs=1e-9)


class TestSeededDeterminism:
    def test_mcmc_repeatable(self, paper_db):
        from repro.core.mcmc import TopKSimulation

        runs = []
        for _ in range(2):
            sim = TopKSimulation(
                paper_db, k=3, n_chains=3, rng=np.random.default_rng(99)
            )
            result = sim.run(max_steps=200)
            runs.append(
                (result.answers, result.total_steps, result.states_visited)
            )
        assert runs[0] == runs[1]

    def test_engine_full_query_suite_repeatable(self, paper_db):
        outputs = []
        for _ in range(2):
            engine = RankingEngine(paper_db, seed=123)
            outputs.append(
                (
                    engine.utop_rank(1, 3, l=6, method="montecarlo").to_dict(),
                    engine.utop_prefix(3, method="mcmc").to_dict(),
                    engine.rank_aggregation(method="montecarlo").to_dict(),
                )
            )
        # Strip wall-clock fields before comparing.
        def strip(d):
            d = dict(d)
            d.pop("elapsed", None)
            return d

        for a, b in zip(outputs[0], outputs[1]):
            assert strip(a) == strip(b)


class TestAnalysisWithMonteCarloMatrix:
    def test_statistics_from_sampled_matrix(self, paper_db):
        from repro.core.analysis import expected_ranks, rank_entropies
        from repro.core.montecarlo import MonteCarloEvaluator

        matrix = MonteCarloEvaluator(
            paper_db, rng=np.random.default_rng(7)
        ).rank_probability_matrix(40_000)
        exact = ExactEvaluator(paper_db).rank_probability_matrix()
        assert np.allclose(
            expected_ranks(matrix), expected_ranks(exact), atol=0.05
        )
        assert np.allclose(
            rank_entropies(matrix), rank_entropies(exact), atol=0.05
        )


class TestEmptyAndDegenerateInputs:
    def test_single_record_queries(self):
        engine = RankingEngine([uniform("solo", 0.0, 1.0)], seed=0)
        assert engine.utop_rank(1, 1).top.probability == pytest.approx(1.0)
        assert engine.utop_prefix(1).top.prefix == ("solo",)
        assert engine.utop_set(1).top.probability == pytest.approx(1.0)
        agg = engine.rank_aggregation().top
        assert agg.ranking == ("solo",)
        assert agg.expected_distance == pytest.approx(0.0)

    def test_two_identical_intervals(self):
        db = [uniform("a", 0.0, 1.0), uniform("b", 0.0, 1.0)]
        engine = RankingEngine(db, seed=0)
        result = engine.utop_prefix(2, l=2)
        assert result.top.probability == pytest.approx(0.5)
        assert len(result.answers) == 2
