"""Unit tests for the Metropolis-Hastings TOP-k simulation (§VI-D)."""

import numpy as np
import pytest

from repro.core.distributions import DiscreteScore
from repro.core.errors import QueryError
from repro.core.exact import ExactEvaluator
from repro.core.linext import is_linear_extension
from repro.core.mcmc import (
    MetropolisHastingsChain,
    TopKSimulation,
    prefix_probability_upper_bound,
    set_probability_upper_bound,
)
from repro.core.ppo import ProbabilisticPartialOrder
from repro.core.records import UncertainRecord, certain, uniform


class TestUpperBounds:
    def test_prefix_bound_dominates_true_maximum(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        matrix = evaluator.rank_probability_matrix()
        bound = prefix_probability_upper_bound(matrix, 3)
        assert bound + 1e-9 >= evaluator.prefix_probability(
            ["t5", "t1", "t2"]
        )

    def test_set_bound_dominates_true_maximum(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        matrix = evaluator.rank_probability_matrix()
        bound = set_probability_upper_bound(matrix, 3)
        assert bound + 1e-9 >= evaluator.top_set_probability(
            ["t1", "t2", "t5"]
        )

    def test_bounds_capped_at_one(self, paper_db):
        matrix = ExactEvaluator(paper_db).rank_probability_matrix()
        assert set_probability_upper_bound(matrix, 1) <= 1.0

    def test_invalid_k(self, paper_db):
        matrix = ExactEvaluator(paper_db).rank_probability_matrix()
        with pytest.raises(QueryError):
            prefix_probability_upper_bound(matrix, 0)
        with pytest.raises(QueryError):
            set_probability_upper_bound(matrix, 99)


class TestProposal:
    def _chain(self, paper_db, seed=0):
        sim = TopKSimulation(
            paper_db, k=3, n_chains=2, rng=np.random.default_rng(seed)
        )
        rng = np.random.default_rng(seed)
        return MetropolisHastingsChain(
            sim.records,
            3,
            "prefix",
            sim._cached_pi,
            sim._pairwise,
            rng,
            sim._initial_state(rng),
        )

    def test_proposals_stay_valid_extensions(self, paper_db):
        chain = self._chain(paper_db)
        ppo = ProbabilisticPartialOrder(paper_db)
        for _ in range(200):
            proposal = chain.propose()
            ranking = [chain.records[i] for i in proposal.state]
            assert is_linear_extension(ppo, ranking)
            chain.step()

    def test_proposal_densities_positive_when_changed(self, paper_db):
        chain = self._chain(paper_db, seed=3)
        for _ in range(100):
            proposal = chain.propose()
            if proposal.changed:
                assert proposal.forward > 0.0
                assert proposal.reverse > 0.0

    def test_chain_tracks_visited_states(self, paper_db):
        chain = self._chain(paper_db, seed=4)
        chain.run(100)
        assert chain.steps == 100
        assert len(chain.trace) == 101
        assert chain.visited  # at least the initial state


class TestSimulation:
    def test_finds_paper_prefix_answer(self, paper_db):
        sim = TopKSimulation(
            paper_db, k=3, target="prefix", n_chains=4,
            rng=np.random.default_rng(1),
        )
        result = sim.run(max_steps=400, top_l=2)
        best_key, best_prob = result.answers[0]
        assert best_key == ("t5", "t1", "t2")
        assert best_prob == pytest.approx(0.4375, abs=1e-9)

    def test_finds_paper_set_answer(self, paper_db):
        sim = TopKSimulation(
            paper_db, k=3, target="set", n_chains=4,
            rng=np.random.default_rng(2),
        )
        result = sim.run(max_steps=400)
        best_key, best_prob = result.answers[0]
        assert best_key == frozenset({"t1", "t2", "t5"})
        assert best_prob == pytest.approx(0.9375, abs=1e-9)

    def test_error_estimate_uses_upper_bound(self, paper_db):
        matrix = ExactEvaluator(paper_db).rank_probability_matrix()
        sim = TopKSimulation(
            paper_db, k=3, n_chains=4, rng=np.random.default_rng(3)
        )
        result = sim.run(max_steps=300, rank_matrix=matrix)
        assert result.upper_bound is not None
        assert result.error_estimate is not None
        assert result.error_estimate >= 0.0

    def test_acceptance_rate_in_unit_interval(self, paper_db):
        sim = TopKSimulation(
            paper_db, k=3, n_chains=3, rng=np.random.default_rng(4)
        )
        result = sim.run(max_steps=200)
        assert 0.0 <= result.acceptance_rate <= 1.0
        assert result.total_steps == 3 * 200 or result.converged

    def test_montecarlo_oracle(self, paper_db):
        sim = TopKSimulation(
            paper_db, k=3, n_chains=3, rng=np.random.default_rng(5),
            oracle="montecarlo", pi_samples=4000,
        )
        result = sim.run(max_steps=300)
        assert result.answers[0][0] == ("t5", "t1", "t2")
        assert result.answers[0][1] == pytest.approx(0.4375, abs=0.05)

    def test_pairwise_cache_collects_stats(self, paper_db):
        sim = TopKSimulation(
            paper_db, k=3, n_chains=3, rng=np.random.default_rng(6)
        )
        sim.run(max_steps=100)
        hits, misses = sim.pairwise_cache_stats
        assert misses >= 1
        assert hits > misses  # reuse dominates after warm-up

    def test_cache_disabled(self, paper_db):
        sim = TopKSimulation(
            paper_db, k=3, n_chains=3, rng=np.random.default_rng(7),
            use_pairwise_cache=False,
        )
        assert sim.pairwise_cache_stats is None
        result = sim.run(max_steps=100)
        assert result.answers

    def test_convergence_trace_recorded(self, paper_db):
        sim = TopKSimulation(
            paper_db, k=3, n_chains=4, rng=np.random.default_rng(8)
        )
        result = sim.run(max_steps=300, epoch=50)
        assert result.trace.steps
        assert len(result.trace.steps) == len(result.trace.psrf)
        assert all(e >= 0 for e in result.trace.elapsed)

    def test_validation(self, paper_db):
        with pytest.raises(QueryError):
            TopKSimulation(paper_db, k=0)
        with pytest.raises(QueryError):
            TopKSimulation(paper_db, k=99)
        with pytest.raises(QueryError):
            TopKSimulation(paper_db, k=2, n_chains=1)
        with pytest.raises(QueryError):
            TopKSimulation(paper_db, k=2, target="bogus")
        with pytest.raises(QueryError):
            TopKSimulation(paper_db, k=2, oracle="bogus")


class TestVisitFrequencies:
    def test_frequencies_normalized(self, paper_db):
        sim = TopKSimulation(
            paper_db, k=3, n_chains=4, rng=np.random.default_rng(31)
        )
        result = sim.run(max_steps=500)
        total = sum(result.visit_frequencies.values())
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_frequencies_track_probabilities(self, paper_db):
        """The paper's §III estimator: visit frequency ~ pi(x)."""
        sim = TopKSimulation(
            paper_db, k=3, n_chains=6, rng=np.random.default_rng(32)
        )
        result = sim.run(max_steps=4000, psrf_threshold=0.0)
        freq = result.visit_frequencies
        exact = dict(result.answers)
        # Compare on the two dominant prefixes; the frequency estimator
        # converges slowly, so use generous tolerances.
        top = ("t5", "t1", "t2")
        runner_up = ("t5", "t2", "t1")
        assert freq.get(top, 0.0) > freq.get(runner_up, 0.0)
        assert freq.get(top, 0.0) == pytest.approx(0.4375, abs=0.12)


class TestProbabilityMass:
    def test_mass_discovered_bounded_and_substantial(self, paper_db):
        sim = TopKSimulation(
            paper_db, k=3, n_chains=4, rng=np.random.default_rng(21)
        )
        result = sim.run(max_steps=400)
        assert 0.0 < result.probability_mass <= 1.0
        # Only four 3-prefixes exist; the walk should find nearly all.
        assert result.probability_mass == pytest.approx(1.0, abs=1e-6)


class TestAntichainMixing:
    def test_uniform_antichain_visits_many_states(self):
        records = [uniform(f"r{i}", 0.0, 10.0) for i in range(6)]
        sim = TopKSimulation(
            records, k=2, n_chains=4, rng=np.random.default_rng(9)
        )
        result = sim.run(max_steps=400)
        # 6*5 = 30 possible 2-prefixes, all equally likely (1/30); the
        # walk should discover a good share of them.
        assert result.states_visited >= 15
        assert result.answers[0][1] == pytest.approx(1 / 30, abs=1e-9)


class TestParallelChains:
    """Deterministic multi-chain execution via the ``workers`` knob."""

    @staticmethod
    def _run(paper_db, workers, oracle="exact"):
        kwargs = {}
        if oracle == "montecarlo":
            kwargs = {"oracle": "montecarlo", "pi_samples": 1_500}
        sim = TopKSimulation(
            paper_db, k=3, n_chains=4, rng=np.random.default_rng(6),
            workers=workers, **kwargs,
        )
        return sim.run(max_steps=300, epoch=50)

    def test_worker_count_does_not_change_answers(self, paper_db):
        serial = self._run(paper_db, workers=1)
        threaded = self._run(paper_db, workers=3)
        assert serial.answers == threaded.answers
        assert serial.total_steps == threaded.total_steps
        assert serial.trace.psrf == threaded.trace.psrf

    def test_worker_count_invariant_with_montecarlo_oracle(self, paper_db):
        # The per-state blake2b seeds make the oracle a pure function of
        # the state, so even sampled oracle answers are scheduling-proof.
        serial = self._run(paper_db, workers=1, oracle="montecarlo")
        threaded = self._run(paper_db, workers=3, oracle="montecarlo")
        assert serial.answers == threaded.answers
        assert serial.trace.psrf == threaded.trace.psrf

    def test_parallel_chains_produce_finite_psrf(self, paper_db):
        result = self._run(paper_db, workers=3)
        assert result.trace.psrf
        assert all(np.isfinite(p) for p in result.trace.psrf)

    def test_tied_scores_repeat_at_two_workers(self):
        # Discrete scores sharing atoms with point scores: which chain
        # first asks a pair's Eq. 1 probability, and in which order,
        # varies from run to run, and must not change an answer bit.
        records = []
        for i in range(9):
            rid = f"d{i}"
            if i % 3 == 0:
                score = DiscreteScore([1.0, 2.0, 3.0], [1.0, 2.0, 1.0])
                records.append(UncertainRecord(rid, score))
            elif i % 3 == 1:
                records.append(certain(rid, float(1 + i % 2)))
            else:
                records.append(uniform(rid, 0.5 + 0.1 * i, 3.0))
        outcomes = set()
        for _ in range(6):
            sim = TopKSimulation(
                records, k=2, target="set", n_chains=4, seed=5, workers=2,
                oracle="montecarlo", pi_samples=500,
            )
            result = sim.run(max_steps=300, epoch=100)
            outcomes.add(
                repr([(sorted(key), p) for key, p in result.answers])
                + repr(result.acceptance_rate)
            )
        assert len(outcomes) == 1

    def test_auto_workers_accepted(self, paper_db):
        sim = TopKSimulation(
            paper_db, k=3, n_chains=4, rng=np.random.default_rng(6),
            workers="auto",
        )
        assert 1 <= sim.workers <= 4
        result = sim.run(max_steps=100)
        assert result.answers
