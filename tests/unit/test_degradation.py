"""Degradation-ladder and robustness acceptance tests.

The acceptance criteria live here: under injected sample-block
crashes and flaky oracles, a budgeted :class:`RankingEngine` query must
return a partial-or-degraded :class:`QueryResult` — never an unhandled
exception — and rerunning with the same seeds must be bit-identical for
``workers=1`` and ``workers=4``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import certain, uniform
from repro.core.budget import Budget
from repro.core.chaos import FaultInjector, FaultyOracle
from repro.core.engine import RankingEngine
from repro.core.errors import ConvergenceError, EvaluationError
from repro.core.mcmc import TopKSimulation
from repro.core.queries import DegradationEvent, Query


@pytest.fixture
def db():
    return [
        certain("t1", 6.0),
        uniform("t2", 4.0, 8.0),
        uniform("t3", 3.0, 5.0),
        uniform("t4", 2.0, 3.5),
        certain("t5", 7.0),
        certain("t6", 1.0),
    ]


def faulty_records(db, seed=3, **kwargs):
    """`db` with raise-mode sampling faults on a fresh, fixed schedule."""
    injector = FaultInjector(seed=seed)
    schedule = injector.schedule(**kwargs)
    return injector.wrap_records(db, schedule, mode="raise"), schedule


class TestLadderUTopRank:
    def test_budgetless_behaviour_unchanged(self, db):
        engine = RankingEngine(db, seed=7, samples=400)
        result = engine.utop_rank(1, 2, l=2)
        assert result.method == "exact"
        assert not result.partial
        assert not result.truncated
        assert result.degradation == []
        assert result.confidence_half_width is None

    def test_sample_cap_yields_partial_with_half_width(self, db):
        budget = Budget(max_samples=200)
        engine = RankingEngine(
            db, seed=7, samples=400, exact_record_limit=0, workers=1
        )
        result = engine.utop_rank(1, 2, l=2, budget=budget)
        assert result.method == "montecarlo"
        assert result.partial
        assert result.confidence_half_width is not None
        assert 0.0 < result.confidence_half_width
        assert any(e.action == "clipped" for e in result.degradation)
        assert budget.samples_used == 200

    def test_zero_sample_budget_falls_back_to_baseline(self, db):
        budget = Budget(max_samples=0)
        engine = RankingEngine(
            db, seed=7, samples=400, exact_record_limit=0, workers=1
        )
        result = engine.utop_rank(1, 2, l=2, budget=budget)
        assert result.method == "baseline"
        stages = [(e.stage, e.action) for e in result.degradation]
        assert ("montecarlo", "skipped") in stages
        assert ("baseline", "fallback") in stages
        # The median-collapse floor keeps the two top-median records
        # (both at probability 1.0; ties sort by record id).
        assert {a.record_id for a in result.answers} == {"t1", "t5"}

    def test_expired_deadline_skips_to_baseline(self, db):
        budget = Budget(deadline=0.0)
        engine = RankingEngine(db, seed=7, samples=400, workers=1)
        result = engine.utop_rank(1, 2, l=2, budget=budget)
        assert result.method == "baseline"
        assert all(isinstance(e, DegradationEvent) for e in result.degradation)

    def test_explicit_method_errors_propagate(self, db):
        wrapped, _ = faulty_records(db, every=1)  # every sample call faults
        engine = RankingEngine(
            wrapped, seed=7, samples=200, exact_record_limit=0, workers=1
        )
        with pytest.raises(EvaluationError):
            engine.utop_rank(
                1, 2, l=2, method="montecarlo", budget=Budget(max_samples=200)
            )

    def test_baseline_method_is_directly_addressable(self, db):
        engine = RankingEngine(db, seed=7)
        result = engine.utop_rank(1, 2, l=2, method="baseline")
        assert result.method == "baseline"
        assert {a.record_id for a in result.answers} == {"t1", "t5"}


class TestLadderRankAggregation:
    def test_sample_cap_clips_montecarlo(self, db):
        budget = Budget(max_samples=200)
        engine = RankingEngine(
            db, seed=7, samples=400, exact_record_limit=0, workers=1
        )
        result = engine.query(Query(kind="rank_aggregation", budget=budget))
        assert result.method == "montecarlo"
        assert result.partial
        assert ("montecarlo", "clipped") in [
            (e.stage, e.action) for e in result.degradation
        ]
        assert budget.samples_used == 200
        # The clipped consensus is not cached: an unbudgeted repeat
        # answers from the full sample count, like a fresh engine.
        full = engine.rank_aggregation()
        assert not full.partial
        fresh = RankingEngine(
            db, seed=7, samples=400, exact_record_limit=0, workers=1
        )
        assert full.answers == fresh.rank_aggregation().answers

    def test_expired_deadline_falls_back_to_baseline(self, db):
        engine = RankingEngine(db, seed=7, samples=400, workers=1)
        result = engine.query(
            Query(kind="rank_aggregation", budget=Budget(deadline=0.0))
        )
        assert result.method == "baseline"
        stages = [(e.stage, e.action) for e in result.degradation]
        assert ("exact", "skipped") in stages
        assert ("montecarlo", "skipped") in stages
        assert ("baseline", "fallback") in stages
        # The median ranking, at distance 0 from the collapsed database.
        (answer,) = result.answers
        assert answer.ranking == ("t5", "t1", "t2", "t3", "t4", "t6")
        assert answer.expected_distance == 0.0

    @pytest.mark.parametrize("method", ["exact", "montecarlo"])
    def test_unbudgeted_repeat_solves_footrule_once(
        self, db, method, monkeypatch
    ):
        import repro.core.engine as engine_mod

        calls = []
        solve = engine_mod.optimal_rank_aggregation

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "optimal_rank_aggregation", counting)
        engine = RankingEngine(db, seed=7, samples=400, workers=1)
        first = engine.rank_aggregation(method=method)
        second = engine.rank_aggregation(method=method)
        assert second.answers == first.answers
        assert len(calls) == 1


@pytest.mark.chaos
class TestFaultAcceptance:
    def run_faulted(self, db, workers, **schedule_kwargs):
        wrapped, schedule = faulty_records(db, **schedule_kwargs)
        engine = RankingEngine(
            wrapped,
            seed=42,
            samples=400,
            exact_record_limit=0,
            workers=workers,
        )
        result = engine.utop_rank(
            1, 3, l=3, budget=Budget(max_samples=4000)
        )
        return result, schedule

    def test_single_shard_crash_is_recovered(self, db):
        result, schedule = self.run_faulted(db, workers=4, calls={0}, limit=1)
        assert schedule.faults_fired == 1
        assert result.method == "montecarlo"
        assert len(result.answers) == 3

    def test_persistent_faults_degrade_to_baseline(self, db):
        result, schedule = self.run_faulted(db, workers=4, every=1)
        assert result.method == "baseline"
        assert any(e.action == "failed" for e in result.degradation)
        assert len(result.answers) == 3

    def test_worker_count_never_changes_answers(self, db):
        serial, _ = self.run_faulted(db, workers=1, calls={0}, limit=1)
        threaded, _ = self.run_faulted(db, workers=4, calls={0}, limit=1)
        assert serial.method == threaded.method == "montecarlo"
        assert [
            (a.record_id, a.probability) for a in serial.answers
        ] == [(a.record_id, a.probability) for a in threaded.answers]

    def test_faulted_run_matches_fault_free_schedule(self, db):
        # The clean reference wraps the records identically but with a
        # schedule that never fires: wrapping switches sampling to the
        # generic per-record kernels, so only a wrapped-vs-wrapped
        # comparison isolates the effect of the injected crash itself.
        faulted, schedule = self.run_faulted(db, workers=4, calls={0}, limit=1)
        assert schedule.faults_fired == 1
        clean, clean_schedule = self.run_faulted(db, workers=4, calls=set())
        assert clean_schedule.faults_fired == 0
        assert [
            (a.record_id, a.probability) for a in faulted.answers
        ] == [(a.record_id, a.probability) for a in clean.answers]


class TestPrefixAndSetLadder:
    def test_prefix_enumeration_cap_marks_truncated(self, db):
        engine = RankingEngine(db, seed=7, prefix_enumeration_limit=2)
        result = engine.utop_prefix(3, l=1, method="exact")
        assert result.truncated
        assert any(
            e.stage == "exact" and e.action == "clipped"
            for e in result.degradation
        )

    @pytest.mark.parametrize("kind", ["utop_prefix", "utop_set"])
    def test_prefix_budget_clips_enumeration(self, db, kind):
        budget = Budget(max_enumeration=1)
        engine = RankingEngine(db, seed=7)
        result = engine.query(
            Query(kind=kind, k=3, l=1, method="exact", budget=budget)
        )
        assert result.truncated
        assert result.partial
        assert len(result.answers) == 1
        assert ("exact", "clipped") in [
            (e.stage, e.action) for e in result.degradation
        ]

    @pytest.mark.parametrize("kind", ["utop_prefix", "utop_set"])
    def test_montecarlo_sample_cap(self, db, kind):
        engine = RankingEngine(db, seed=7, samples=400, workers=1)
        clipped = engine.query(
            Query(
                kind=kind, k=3, l=1, method="montecarlo",
                budget=Budget(max_samples=200),
            )
        )
        assert clipped.method == "montecarlo"
        assert clipped.partial
        assert clipped.confidence_half_width is not None
        assert ("montecarlo", "clipped") in [
            (e.stage, e.action) for e in clipped.degradation
        ]
        # Every sampling stage failing or starved, auto falls through
        # the Monte-Carlo rung (skipped: no samples) to the baseline.
        wrapped, _ = faulty_records(db, every=1)
        starved = RankingEngine(wrapped, seed=7, samples=400, workers=1)
        result = starved.query(
            Query(kind=kind, k=3, l=1, budget=Budget(max_samples=0))
        )
        assert result.method == "baseline"
        stages = [(e.stage, e.action) for e in result.degradation]
        assert ("montecarlo", "skipped") in stages
        assert ("baseline", "fallback") in stages

    def test_set_enumeration_cap_marks_truncated(self, db):
        engine = RankingEngine(db, seed=7, prefix_enumeration_limit=1)
        result = engine.utop_set(3, l=1, method="exact")
        assert result.truncated

    def test_prefix_auto_unbudgeted_unchanged(self, db):
        engine = RankingEngine(db, seed=7)
        result = engine.utop_prefix(3, l=1)
        assert result.method == "exact"
        assert result.answers[0].prefix == ("t5", "t1", "t2")
        assert not result.truncated

    def test_explain_reports_truncation_plan(self, db):
        engine = RankingEngine(db, seed=7, prefix_enumeration_limit=2)
        plan = engine.explain("utop_prefix", 3)
        assert plan["enumeration_limit"] == 2
        assert plan["truncated"] is True
        assert plan["method"] == "mcmc"
        wide = RankingEngine(db, seed=7)
        assert wide.explain("utop_prefix", 3)["truncated"] is False


class TestOracleRetry:
    def make_sim(self, db, oracle=None, retries=2):
        return TopKSimulation(
            db,
            3,
            target="prefix",
            n_chains=4,
            rng=np.random.default_rng(11),
            state_probability=oracle,
            oracle_retries=retries,
            retry_backoff=0.0,
        )

    @pytest.mark.chaos
    def test_transient_oracle_fault_is_retried(self, db):
        reference = self.make_sim(db)
        expected = reference.run(max_steps=200, top_l=2)

        injector = FaultInjector(seed=5)
        flaky = FaultyOracle(
            self.make_sim(db)._oracle, injector.schedule(calls={0, 5})
        )
        sim = self.make_sim(db, oracle=flaky)
        result = sim.run(max_steps=200, top_l=2)
        assert result.answers == expected.answers

    @pytest.mark.chaos
    def test_exhausted_retries_raise_convergence_error(self, db):
        injector = FaultInjector(seed=5)
        always = FaultyOracle(
            self.make_sim(db)._oracle, injector.schedule(every=1)
        )
        sim = self.make_sim(db, oracle=always, retries=1)
        with pytest.raises(ConvergenceError, match="oracle failed"):
            sim.run(max_steps=200, top_l=2)

    def test_unconverged_walk_raises_deterministically(self, db):
        def message(seed):
            sim = TopKSimulation(
                db,
                3,
                target="prefix",
                n_chains=4,
                rng=np.random.default_rng(seed),
                retry_backoff=0.0,
            )
            with pytest.raises(ConvergenceError) as info:
                sim.run(
                    max_steps=100,
                    psrf_threshold=0.1,  # PSRF cannot go below 1.0
                    require_convergence=True,
                )
            return str(info.value)

        first = message(13)
        second = message(13)
        assert first == second
        assert "failed to converge" in first

    def test_budget_stop_returns_partial_not_error(self, db):
        budget = Budget(deadline=0.0)
        sim = TopKSimulation(
            db,
            3,
            target="prefix",
            n_chains=4,
            rng=np.random.default_rng(11),
            retry_backoff=0.0,
        )
        result = sim.run(
            max_steps=200,
            budget=budget,
            require_convergence=True,  # budget stop still wins
        )
        assert result.partial
        assert result.stop_reason == "deadline"
        assert result.answers
