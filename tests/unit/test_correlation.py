"""Unit tests for the Gaussian-copula correlation extension."""

import numpy as np
import pytest

from repro.core.correlation import (
    CorrelatedMonteCarloEvaluator,
    GaussianCopula,
)
from repro.core.errors import ModelError, QueryError
from repro.core.exact import ExactEvaluator
from repro.core.records import certain, uniform


@pytest.fixture
def records():
    return [
        uniform("a", 0.0, 10.0),
        uniform("b", 2.0, 8.0),
        uniform("c", 1.0, 9.0),
    ]


class TestGaussianCopula:
    def test_identity_is_independence(self):
        copula = GaussianCopula(np.eye(4))
        u = copula.sample_uniforms(np.random.default_rng(0), 50_000)
        assert u.shape == (50_000, 4)
        # Uniform marginals and near-zero sample correlation.
        assert np.allclose(u.mean(axis=0), 0.5, atol=0.01)
        corr = np.corrcoef(u.T)
        off_diag = corr[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off_diag) < 0.02)

    def test_positive_correlation_couples_uniforms(self):
        copula = GaussianCopula.exchangeable(2, 0.9)
        u = copula.sample_uniforms(np.random.default_rng(1), 50_000)
        assert np.corrcoef(u.T)[0, 1] > 0.8

    def test_perfect_correlation_supported(self):
        copula = GaussianCopula.exchangeable(3, 1.0)
        u = copula.sample_uniforms(np.random.default_rng(2), 100)
        assert np.allclose(u[:, 0], u[:, 1], atol=1e-12)

    def test_marginals_preserved(self):
        copula = GaussianCopula.exchangeable(2, 0.7)
        u = copula.sample_uniforms(np.random.default_rng(3), 50_000)
        for col in range(2):
            hist, _edges = np.histogram(u[:, col], bins=10, range=(0, 1))
            assert np.all(np.abs(hist / 50_000 - 0.1) < 0.01)

    def test_validation(self):
        with pytest.raises(ModelError):
            GaussianCopula(np.ones((2, 3)))
        with pytest.raises(ModelError):
            GaussianCopula(np.array([[1.0, 0.5], [0.4, 1.0]]))
        with pytest.raises(ModelError):
            GaussianCopula(np.array([[2.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ModelError):
            GaussianCopula(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ModelError):
            GaussianCopula.exchangeable(3, -0.9)


class TestCorrelatedEvaluator:
    def test_zero_correlation_matches_independent(self, records):
        exact = ExactEvaluator(records).rank_probability_matrix()
        evaluator = CorrelatedMonteCarloEvaluator(
            records,
            GaussianCopula(np.eye(3)),
            rng=np.random.default_rng(4),
        )
        estimate = evaluator.rank_probability_matrix(60_000)
        assert np.allclose(estimate, exact, atol=0.02)

    def test_correlation_changes_ranking_probabilities(self, records):
        independent = ExactEvaluator(records)
        correlated = CorrelatedMonteCarloEvaluator(
            records,
            GaussianCopula.exchangeable(3, 1.0),
            rng=np.random.default_rng(5),
        )
        # Under perfect correlation all records share one quantile u, so
        # "a" ([0,10]) tops exactly when 10u > 2+6u and 10u > 1+8u, i.e.
        # u > 0.5: probability 0.5 versus 0.38125 under independence.
        p_ind = independent.rank_probabilities("a", max_rank=1)[0]
        matrix = correlated.rank_probability_matrix(60_000, max_rank=1)
        p_corr = matrix[0, 0]
        assert p_ind == pytest.approx(0.38125, abs=1e-9)
        assert p_corr == pytest.approx(0.5, abs=0.01)

    def test_marginals_unchanged(self, records):
        evaluator = CorrelatedMonteCarloEvaluator(
            records,
            GaussianCopula.exchangeable(3, 0.8),
            rng=np.random.default_rng(6),
        )
        scores = evaluator.sample_scores(50_000)
        for i, rec in enumerate(records):
            assert scores[:, i].min() >= rec.lower - 1e-9
            assert scores[:, i].max() <= rec.upper + 1e-9
            assert scores[:, i].mean() == pytest.approx(
                rec.score.mean(), abs=0.05
            )

    def test_deterministic_records_fixed(self):
        records = [certain("p", 5.0), uniform("u", 0.0, 10.0)]
        evaluator = CorrelatedMonteCarloEvaluator(
            records,
            GaussianCopula.exchangeable(2, 0.5),
            rng=np.random.default_rng(7),
        )
        scores = evaluator.sample_scores(100)
        assert np.all(scores[:, 0] == 5.0)

    def test_independence_only_estimators_refused(self, records):
        evaluator = CorrelatedMonteCarloEvaluator(
            records, GaussianCopula(np.eye(3)), rng=np.random.default_rng(8)
        )
        with pytest.raises(QueryError):
            evaluator.prefix_probability_sis(["a", "b"], 100)
        with pytest.raises(QueryError):
            evaluator.top_set_probability_cdf(["a", "b"], 100)

    def test_indicator_estimators_still_work(self, records):
        evaluator = CorrelatedMonteCarloEvaluator(
            records,
            GaussianCopula.exchangeable(3, 0.5),
            rng=np.random.default_rng(9),
        )
        p = evaluator.prefix_probability(["a", "b", "c"], 20_000)
        assert 0.0 <= p <= 1.0
        s = evaluator.top_set_probability(["a", "b"], 20_000)
        assert 0.0 <= s <= 1.0

    def test_dimension_mismatch(self, records):
        with pytest.raises(ModelError):
            CorrelatedMonteCarloEvaluator(
                records, GaussianCopula(np.eye(2))
            )


class TestEngineIntegration:
    def test_copula_engine_full_correlation(self, records):
        from repro.core.engine import RankingEngine

        engine = RankingEngine(
            records, seed=0, copula=GaussianCopula.exchangeable(3, 1.0)
        )
        result = engine.utop_rank(1, 1, l=3)
        assert result.method == "montecarlo"
        probs = {a.record_id: a.probability for a in result.answers}
        # Shared quantile u: 'a' tops iff u > 0.5, 'b' iff u < 0.5,
        # 'c' never.
        assert probs["a"] == pytest.approx(0.5, abs=0.02)
        assert probs["b"] == pytest.approx(0.5, abs=0.02)
        assert probs["c"] == pytest.approx(0.0, abs=0.01)

    def test_copula_forces_sampling_methods(self, records):
        from repro.core.engine import RankingEngine

        engine = RankingEngine(
            records, seed=0, copula=GaussianCopula(np.eye(3))
        )
        assert engine.utop_prefix(2).method == "montecarlo"
        assert engine.rank_aggregation().method == "montecarlo"
        with pytest.raises(QueryError):
            engine.utop_rank(1, 1, method="exact")
        with pytest.raises(QueryError):
            engine.utop_prefix(2, method="mcmc")

    def test_copula_dimension_checked(self, records):
        from repro.core.engine import RankingEngine

        with pytest.raises(QueryError):
            RankingEngine(records, copula=GaussianCopula(np.eye(2)))

    def test_identity_copula_engine_matches_independent(self, records):
        from repro.core.engine import RankingEngine

        with_copula = RankingEngine(
            records, seed=3, copula=GaussianCopula(np.eye(3)),
            samples=60_000,
        ).utop_rank(1, 1, l=3)
        independent = RankingEngine(records, seed=3).utop_rank(
            1, 1, l=3, method="exact"
        )
        ind = {a.record_id: a.probability for a in independent.answers}
        for answer in with_copula.answers:
            assert answer.probability == pytest.approx(
                ind[answer.record_id], abs=0.02
            )

    def test_pruning_under_copula(self):
        from repro.core.engine import RankingEngine

        records = [
            uniform("top1", 8.0, 10.0),
            uniform("top2", 7.0, 9.0),
            certain("low", 1.0),  # dominated; must be prunable
        ]
        engine = RankingEngine(
            records, seed=1, copula=GaussianCopula.exchangeable(3, 0.5)
        )
        result = engine.utop_rank(1, 1, l=2)
        assert result.pruned_size == 2
        assert {a.record_id for a in result.answers} == {"top1", "top2"}
