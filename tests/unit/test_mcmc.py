"""Unit tests for the Metropolis-Hastings TOP-k simulation (§VI-D)."""

import numpy as np
import pytest

from repro.core.distributions import DiscreteScore
from repro.core.engine import RankingEngine
from repro.core.errors import QueryError
from repro.core.exact import ExactEvaluator
from repro.core.linext import is_linear_extension
from repro.core import mcmc
from repro.core.mcmc import (
    MetropolisHastingsChain,
    TopKSimulation,
    prefix_probability_upper_bound,
    set_probability_upper_bound,
)
from repro.core.pairwise import probability_greater
from repro.core.ppo import ProbabilisticPartialOrder
from repro.core.queries import Query
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
    def _chain(self, paper_db, seed=0, state_probability=None, pairwise=None):
        sim = TopKSimulation(
            paper_db, k=3, n_chains=2, rng=np.random.default_rng(seed)
        )
        rng = np.random.default_rng(seed)
        return MetropolisHastingsChain(
            sim.records,
            3,
            "prefix",
            state_probability or sim._cached_pi,
            pairwise or sim._pairwise,
            rng,
            sim._initial_state(rng),
        )

    def test_proposals_stay_valid_extensions(self, paper_db):
        # A zero target density accepts every changed proposal (pi <= 0
        # gives alpha = 1), so each step's state is its proposal.
        chain = self._chain(paper_db, state_probability=lambda key: 0.0)
        ppo = ProbabilisticPartialOrder(paper_db)
        for _ in range(200):
            chain.step()
            ranking = [chain.records[i] for i in chain.state]
            assert is_linear_extension(ppo, ranking)
        assert chain.accepted > 0

    def test_proposal_densities_positive_when_changed(self, paper_db):
        # The forward density multiplies committed swap probabilities
        # and the reverse density their complements. A swap commits only
        # when its uniform falls below its probability, so forward > 0;
        # reverse > 0 as long as no swap the walk reads has Pr = 1. The
        # chain's matrix serves repeats, so ``read`` sees every value.
        sim = TopKSimulation(paper_db, k=3, n_chains=2, seed=3)
        read = []

        def pairwise(a, b):
            read.append(sim._pairwise(a, b))
            return read[-1]

        chain = self._chain(paper_db, seed=3, pairwise=pairwise)
        chain.run(100)
        assert chain.accepted > 0
        assert read and all(p < 1.0 for p in read)

    def test_chain_tracks_visited_states(self, paper_db):
        chain = self._chain(paper_db, seed=4)
        chain.run(100)
        assert chain.steps == 100
        assert len(chain.trace) == 101
        assert chain.visited  # at least the initial state


class _ConstantStream:
    """Stand-in walk stream whose every uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


def _overlapping_records(n):
    return [uniform(f"r{i:04d}", 0.01 * i, 0.01 * i + 10.0) for i in range(n)]


class TestWalkKernel:
    """The fused step loop of :class:`MetropolisHastingsChain`."""

    @staticmethod
    def _chain(records, k, target, rng, state_probability=None, pairwise=None):
        sim = TopKSimulation(records, k=k, target=target, n_chains=2)
        initial = sim._initial_state(np.random.default_rng(1))
        return MetropolisHastingsChain(
            sim.records,
            k,
            target,
            state_probability or sim._cached_pi,
            pairwise or sim._pairwise,
            rng,
            initial,
        )

    @pytest.mark.parametrize("target", ["prefix", "set"])
    def test_run_splits_into_any_step_counts(self, target):
        records = _overlapping_records(8)
        chains = [
            self._chain(records, 2, target, np.random.default_rng(7))
            for _ in range(3)
        ]
        chains[0].run(300)
        for _ in range(300):
            chains[1].run(1)
        for _ in range(6):
            chains[2].run(50)
        first = chains[0]
        assert first.accepted > 0
        for other in chains[1:]:
            assert other.state == first.state
            assert other.trace == first.trace
            assert other.visited == first.visited
            assert other.visit_counts == first.visit_counts
            assert other.accepted == first.accepted

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 1000])
    @pytest.mark.parametrize(
        "u, last", [(np.nextafter(1.0, 0.0), True), (0.0, False)]
    )
    def test_uniform_extremes_map_to_end_ranks(self, n, u, last):
        # z = 1 + floor(u k) records move, each from rank r = floor(u n).
        # No swap commits (Pr = 0), so each move reads one pair — the
        # picked record and its neighbour — or none past either end.
        records = _overlapping_records(n)
        k = max(1, min(3, n - 1))
        read = []

        def pairwise(a, b):
            read.append((a.record_id, b.record_id))
            return 0.0

        chain = MetropolisHastingsChain(
            records, k, "prefix", lambda key: 1.0, pairwise,
            _ConstantStream(u), tuple(range(n)),
        )
        chain.run(1)
        ids = [rec.record_id for rec in records]
        if n == 1:
            assert read == []
        elif last:
            # r = n - 1 sits below the top k and moves up past n - 2,
            # z = k times; the matrix serves the repeats.
            assert read == [(ids[n - 1], ids[n - 2])]
            assert chain.matrix_hits == k - 1
        else:
            # r = 0 sits inside the top k and moves down past rank 1,
            # once (z = 1).
            assert read == [(ids[1], ids[0])]
            assert chain.matrix_hits == 0
        assert chain.state == tuple(range(n))

    @staticmethod
    def _dominance_table():
        # Tied certain scores (tau orients them: Pr 0 / 1), certain
        # scores inside and outside intervals, disjoint intervals.
        return [
            certain("a", 5.0),
            certain("b", 5.0),
            uniform("c", 4.0, 6.0),
            certain("d", 3.0),
            uniform("e", 0.5, 4.5),
            uniform("f", 0.0, 1.0),
            uniform("g", 2.0, 5.5),
            certain("h", 0.75),
        ]

    @pytest.mark.parametrize(
        "rng", [np.random.default_rng(11), _ConstantStream(0.0)],
        ids=["walk-stream", "u=0"],
    )
    def test_every_state_is_a_linear_extension(self, rng):
        # A zero target density accepts every changed proposal, and
        # u = 0 commits every swap with positive probability: only a
        # commit-0 swap (one that would break dominance) may stop it.
        records = self._dominance_table()
        ppo = ProbabilisticPartialOrder(records)
        chain = self._chain(
            records, 3, "prefix", rng, state_probability=lambda key: 0.0
        )
        for _ in range(300):
            chain.run(1)
            ranking = [chain.records[i] for i in chain.state]
            assert is_linear_extension(ppo, ranking)
        assert len(chain.visit_counts) > 1


class TestFindsExactAnswer:
    """MCMC's best prefix and set equal the exact rung's best answer."""

    @pytest.mark.parametrize("kind", ["utop_prefix", "utop_set"])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_best_answer_matches_exact(self, kind, seed):
        # Eight overlapping uniforms: k=2 pruning keeps all of them, and
        # the best prefix (0.142) leads the next (0.108) by little.
        records = [uniform(f"r{i}", 1.0 * i, 1.0 * i + 10.0) for i in range(8)]
        engine = RankingEngine(records, mcmc_chains=4, mcmc_steps=300)
        exact = engine.query(Query(kind=kind, k=2, method="exact"))
        walked = engine.query(Query(kind=kind, k=2, method="mcmc", seed=seed))
        assert walked.answers[0] == exact.answers[0]


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

    def test_cache_counts_every_proposal_lookup(self, paper_db, monkeypatch):
        # Off, every swap attempt integrates Eq. 1 afresh; on, every
        # attempt is a hit (shared memo or chain matrix) or a miss. The
        # paper database's pairwise probabilities are dyadic, so their
        # complements are exact and both runs walk the same path.
        calls = []

        def counting(a, b):
            calls.append((a.record_id, b.record_id))
            return probability_greater(a, b)

        monkeypatch.setattr(mcmc, "probability_greater", counting)
        off = TopKSimulation(
            paper_db, k=3, n_chains=3, seed=6, use_pairwise_cache=False
        ).run(max_steps=100)
        sim = TopKSimulation(paper_db, k=3, n_chains=3, seed=6)
        on = sim.run(max_steps=100)
        hits, misses = sim.pairwise_cache_stats
        assert on.acceptance_rate == off.acceptance_rate > 0.0
        assert on.answers == off.answers
        assert hits + misses == len(calls)

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
