"""Unit tests for the cost model and adaptive query planner.

Covers the three layers of the planning stack:

- ``repro.core.costmodel`` — work-unit formulas, overlap density,
  online rate fitting (first-observation replacement, EW blending,
  geometric escalation on incomplete stages), stage summaries;
- ``repro.core.planner`` — plan construction: annotation-only without
  a live budget, deadline/enumeration pruning under one, the
  never-prune floor (Monte-Carlo / baseline), covered-block sample
  reduction, last-resort choice, misprediction feedback, determinism;
- engine integration — unbudgeted byte-identity planner-on vs -off,
  doomed-stage skipping under deadlines, covered-block serving,
  ``diagnostics["plan"]``, ``explain()``'s plan block, and the
  ``planner_*`` metrics.

Plus the read-only coverage probes the planner consumes
(``RankingEngine.sampling_coverage`` /
``ComputationCache.rank_count_coverage``): empty caches, partial-block
coverage straddling a top-up boundary, and version-bumped fingerprints
after a table mutation.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.budget import Budget
from repro.core.cache import SAMPLE_BLOCK, ComputationCache
from repro.core.correlation import GaussianCopula
from repro.core.costmodel import (
    DEFAULT_UNIT_COSTS,
    CostModel,
    PlanFeatures,
    overlap_density,
    stage_key,
    stage_units,
    summarize_stages,
)
from repro.core.engine import RankingEngine
from repro.core.errors import QueryError
from repro.core.metrics import MetricsRegistry
from repro.core.planner import QueryPlanner
from repro.core.queries import Query
from repro.core.records import uniform
from repro.db.attributes import IntervalValue
from repro.db.scoring import AttributeScore
from repro.db.table import UncertainTable


def make_features(**overrides):
    base = dict(
        kind="utop_rank",
        n=20,
        depth=5,
        requested_samples=10_000,
        covered_samples=0,
        overlap_density=1.0,
        exact_supported=True,
    )
    base.update(overrides)
    return PlanFeatures(**base)


def overlapping_db(n=14, lo=0.0, width=30.0):
    """``n`` records whose intervals all overlap (pruning keeps all)."""
    return [
        uniform(f"r{i:03d}", lo + 0.1 * i, lo + 0.1 * i + width)
        for i in range(n)
    ]


def disjoint_db(n=8):
    return [uniform(f"d{i}", 10.0 * i, 10.0 * i + 2.0) for i in range(n)]


class TestStageUnits:
    def test_exact_rank_dp(self):
        f = make_features()
        assert stage_units(f, "exact") == pytest.approx(20 * 20 * 5)

    def test_exact_scales_with_overlap_density(self):
        dense = make_features(overlap_density=1.0)
        sparse = make_features(overlap_density=0.0)
        assert stage_units(sparse, "exact") == pytest.approx(
            0.1 * stage_units(dense, "exact")
        )

    def test_exact_prefix_uses_enumeration_space(self):
        f = make_features(kind="utop_prefix", prefix_space=100)
        assert stage_units(f, "exact") == pytest.approx(100 * 20)

    def test_exact_prefix_unbounded_space_is_huge(self):
        f = make_features(kind="utop_prefix", prefix_space=None)
        assert stage_units(f, "exact") >= 1e9

    def test_mcmc_units(self):
        f = make_features(mcmc_chains=4, mcmc_steps=100)
        assert stage_units(f, "mcmc") == pytest.approx(4 * 100 * 20)

    def test_montecarlo_counts_fresh_samples_only(self):
        f = make_features(requested_samples=10_000, covered_samples=4_096)
        assert stage_units(f, "montecarlo") == pytest.approx(
            (10_000 - 4_096) * 20 + 20 * 5
        )

    def test_fully_covered_montecarlo_still_pays_aggregation(self):
        f = make_features(requested_samples=10_000, covered_samples=4_096)
        assert stage_units(f, "montecarlo", planned_samples=4_096) == (
            pytest.approx(20 * 5)
        )

    def test_baseline_is_linear(self):
        assert stage_units(make_features(), "baseline") == pytest.approx(20)


class TestOverlapDensity:
    def test_disjoint_database(self):
        assert overlap_density(disjoint_db()) == pytest.approx(0.0)

    def test_fully_overlapping_database(self):
        assert overlap_density(overlapping_db(10)) == pytest.approx(1.0)

    def test_degenerate_sizes(self):
        assert overlap_density([]) == 0.0
        assert overlap_density(disjoint_db(1)) == 0.0


class TestSummarizeStages:
    def test_summary_fields(self):
        stats = summarize_stages(
            {"montecarlo": [0.3, 0.1, 0.2], "prune": [0.05]}
        )
        mc = stats["montecarlo"]
        assert mc.count == 3
        assert mc.total_seconds == pytest.approx(0.6)
        assert mc.p50_seconds == pytest.approx(0.2)
        assert mc.max_seconds == pytest.approx(0.3)
        assert stats["prune"].count == 1


class TestCostModel:
    KEY = stage_key("utop_rank", "exact")

    def test_cold_prediction_uses_prior(self):
        model = CostModel()
        assert model.predict(self.KEY, 1_000) == pytest.approx(
            DEFAULT_UNIT_COSTS["exact"] * 1_000
        )

    def test_first_completed_observation_replaces_prior(self):
        model = CostModel()
        model.observe(self.KEY, 1_000, 0.1)
        assert model.rate(self.KEY) == pytest.approx(1e-4)
        assert model.observations(self.KEY) == 1

    def test_later_observations_blend_exponentially(self):
        model = CostModel()
        model.observe(self.KEY, 1_000, 0.1)
        model.observe(self.KEY, 1_000, 0.2)
        expected = 1e-4 + CostModel.ALPHA * (2e-4 - 1e-4)
        assert model.rate(self.KEY) == pytest.approx(expected)

    def test_incomplete_observation_escalates_geometrically(self):
        model = CostModel()
        prior = model.rate(self.KEY)
        # The measured burn is far below the true cost (the budget
        # killed the stage early): the rate must still double.
        model.observe(self.KEY, 1_000_000, 0.001, completed=False)
        assert model.rate(self.KEY) == pytest.approx(prior * 2.0)
        model.observe(self.KEY, 1_000_000, 0.001, completed=False)
        assert model.rate(self.KEY) == pytest.approx(prior * 4.0)
        assert model.observations(self.KEY) == 0  # not "fit"

    def test_incomplete_observation_is_a_lower_bound(self):
        model = CostModel()
        model.observe(self.KEY, 10, 100.0, completed=False)
        # observed 10 s/unit dwarfs prior*2: keep the larger.
        assert model.rate(self.KEY) == pytest.approx(10.0)

    def test_nonpositive_seconds_ignored(self):
        model = CostModel()
        model.observe(self.KEY, 1_000, 0.0)
        model.observe(self.KEY, 1_000, -1.0)
        assert model.observations(self.KEY) == 0
        assert model.rate(self.KEY) == pytest.approx(
            DEFAULT_UNIT_COSTS["exact"]
        )

    def test_observed_stats(self):
        model = CostModel()
        assert model.observed_stats(self.KEY) is None
        model.observe(self.KEY, 1_000, 0.1)
        model.observe(self.KEY, 1_000, 0.3)
        stats = model.observed_stats(self.KEY)
        assert stats["count"] == 2
        assert stats["total_seconds"] == pytest.approx(0.4)
        assert stats["mean_seconds"] == pytest.approx(0.2)

    def test_kind_stage_prior_wins_over_stage_prior(self):
        model = CostModel()
        assert model.rate(self.KEY) == DEFAULT_UNIT_COSTS["exact"]
        for kind in ("utop_prefix", "utop_set"):
            key = stage_key(kind, "exact")
            assert model.rate(key) == DEFAULT_UNIT_COSTS[key]
            assert model.rate(key) != DEFAULT_UNIT_COSTS["exact"]

    def test_exact_topk_is_priced_as_enumeration(self):
        # Eight records survive pruning at k=2, and exact TOP-k over them
        # runs in milliseconds. Priced at the rank DP's per-unit prior
        # it was predicted at 0.233 s, enough to skip it under a deadline.
        step = 100.0 / 400
        engine = RankingEngine(
            [
                uniform(f"r{i:04d}", (i - 2.75) * step, (i + 3.75) * step)
                for i in range(400)
            ],
            seed=0,
        )
        for kind in ("utop_prefix", "utop_set"):
            explained = engine.explain(kind, 2)
            assert explained["pruned_size"] == 8
            stages = {s["stage"]: s for s in explained["plan"]["stages"]}
            assert stages["exact"]["predicted_seconds"] < 0.05

    def test_exact_eta_is_priced_as_the_node_grid(self):
        # The node-grid eta matrix over 16 overlapping records at depth
        # 8 runs in about 10 ms. The symbolic DP's prior (7e-4 s per
        # unit) predicted 1.43 s, enough to skip it under a deadline.
        engine = RankingEngine(overlapping_db(16), seed=0)
        explained = engine.explain("utop_rank", 8)
        assert explained["pruned_size"] == 16
        stages = {s["stage"]: s for s in explained["plan"]["stages"]}
        assert stages["exact"]["predicted_seconds"] < 0.05

    def test_units_floor_at_one(self):
        model = CostModel()
        assert model.predict(self.KEY, 0) == pytest.approx(
            DEFAULT_UNIT_COSTS["exact"]
        )


LADDER = ("exact", "montecarlo", "baseline")


class TestQueryPlanner:
    def test_no_budget_is_annotation_only(self):
        plan = QueryPlanner().plan(CostModel(), make_features(), LADDER)
        assert not plan.budgeted
        assert plan.chosen == "exact"
        assert [s.decision for s in plan.stages] == [
            "chosen", "fallback", "fallback",
        ]
        assert plan.planned_samples is None

    def test_deadline_prunes_doomed_exact(self):
        # Prior predicts the n=200 depth=50 exact DP at ~10 s.
        budget = Budget.for_deadline(0.1)
        plan = QueryPlanner().plan(
            CostModel(),
            make_features(n=200, depth=50),
            LADDER,
            budget=budget,
        )
        assert plan.budgeted
        assert plan.chosen == "montecarlo"
        exact = plan.stage_named("exact")
        assert exact.decision == "skipped"
        assert "allowance" in exact.reason
        assert plan.stage_named("baseline").decision == "fallback"

    def test_montecarlo_and_baseline_never_pruned(self):
        # Make even Monte-Carlo predicted far over the allowance.
        features = make_features(n=100_000, requested_samples=10_000_000)
        budget = Budget.for_deadline(0.001)
        plan = QueryPlanner().plan(
            CostModel(), features, LADDER, budget=budget
        )
        assert plan.chosen == "montecarlo"
        assert plan.stage_named("montecarlo").decision == "chosen"

    def test_last_resort_when_everything_is_doomed(self):
        budget = Budget.for_deadline(0.001)
        plan = QueryPlanner().plan(
            CostModel(),
            make_features(mcmc_chains=10, mcmc_steps=3_000),
            ("exact", "mcmc"),
            budget=budget,
        )
        assert plan.chosen == "mcmc"
        tail = plan.stage_named("mcmc")
        assert tail.decision == "chosen"
        assert "last resort" in tail.reason

    def test_enumeration_budget_prunes_exact_prefix(self):
        features = make_features(kind="utop_prefix", prefix_space=None)
        budget = Budget(max_enumeration=50)
        plan = QueryPlanner().plan(
            CostModel(), features, LADDER, budget=budget
        )
        exact = plan.stage_named("exact")
        assert exact.decision == "skipped"
        assert "enumeration allowance" in exact.reason

    def test_bounded_prefix_space_within_allowance_survives(self):
        features = make_features(
            kind="utop_prefix", prefix_space=10, n=4, depth=2
        )
        budget = Budget(max_enumeration=50)
        plan = QueryPlanner().plan(
            CostModel(), features, LADDER, budget=budget
        )
        assert plan.stage_named("exact").decision == "chosen"

    def test_covered_block_reduces_planned_samples(self):
        features = make_features(covered_samples=5_000)
        plan = QueryPlanner().plan(
            CostModel(), features, LADDER, budget=Budget(max_samples=500)
        )
        assert plan.planned_samples == 5_000
        assert plan.stage_named("montecarlo").planned_samples == 5_000

    def test_small_covered_block_not_worth_serving(self):
        features = make_features(covered_samples=500)
        plan = QueryPlanner().plan(
            CostModel(), features, LADDER, budget=Budget(max_samples=500)
        )
        assert plan.planned_samples is None

    def test_no_reduction_without_live_budget(self):
        plan = QueryPlanner().plan(
            CostModel(), make_features(covered_samples=5_000), LADDER
        )
        assert plan.planned_samples is None

    def test_born_expired_budget_left_to_reactive_ladder(self):
        budget = Budget.for_deadline(-1.0)
        assert budget.expired()
        plan = QueryPlanner().plan(
            CostModel(), make_features(), LADDER, budget=budget
        )
        assert not plan.budgeted
        assert all(s.decision != "skipped" for s in plan.stages)

    def test_plan_is_deterministic(self):
        model = CostModel()
        model.observe(stage_key("utop_rank", "exact"), 2_000, 1.0)
        plans = [
            QueryPlanner().plan(
                model, make_features(), LADDER,
                budget=Budget(max_samples=100),
            ).to_dict()
            for _ in range(2)
        ]
        assert json.dumps(plans[0], sort_keys=True) == json.dumps(
            plans[1], sort_keys=True
        )

    def test_feedback_records_misprediction(self):
        model = CostModel()
        planner = QueryPlanner()
        features = make_features(n=4, depth=2)  # exact predicted cheap
        plan = planner.plan(
            model, features, LADDER, budget=Budget.for_deadline(60.0)
        )
        assert plan.chosen == "exact"
        mispredicted = planner.feedback(
            model, plan, {"exact": 0.5, "montecarlo": 0.01}, "montecarlo"
        )
        assert mispredicted and plan.mispredicted
        exact = plan.stage_named("exact")
        assert exact.actual_seconds == pytest.approx(0.5)
        assert exact.completed is False
        # The failed stage escalates; the completed stage fits.
        assert model.rate(stage_key("utop_rank", "exact")) >= (
            2.0 * DEFAULT_UNIT_COSTS["exact"]
        )
        assert model.observations(stage_key("utop_rank", "montecarlo")) == 1

    def test_feedback_without_misprediction(self):
        model = CostModel()
        planner = QueryPlanner()
        plan = planner.plan(
            model, make_features(n=4, depth=2), LADDER,
            budget=Budget.for_deadline(60.0),
        )
        assert not planner.feedback(model, plan, {"exact": 0.01}, "exact")
        assert plan.stage_named("exact").completed is True

    def test_headroom_validation(self):
        with pytest.raises(ValueError):
            QueryPlanner(headroom=0.0)
        with pytest.raises(ValueError):
            QueryPlanner(headroom=1.5)


def canonical(result):
    payload = result.to_dict()
    for volatile in ("elapsed", "cache", "trace"):
        payload.pop(volatile, None)
    diagnostics = payload.get("diagnostics")
    if isinstance(diagnostics, dict):
        diagnostics.pop("plan", None)
    return json.dumps(payload, sort_keys=True)


class TestEngineIntegration:
    def test_unbudgeted_answers_identical_planner_on_vs_off(self):
        db = overlapping_db(10)
        on = RankingEngine(db, seed=3, samples=1_000, planner=True)
        off = RankingEngine(db, seed=3, samples=1_000, planner=False)
        for run in (
            lambda e: e.utop_rank(1, 3, l=2),
            lambda e: e.utop_prefix(2, l=1),
            lambda e: e.rank_aggregation(),
        ):
            assert canonical(run(on)) == canonical(run(off))

    def test_plan_diagnostics_only_with_planner(self):
        db = overlapping_db(10)
        on = RankingEngine(db, seed=3, samples=500, planner=True)
        off = RankingEngine(db, seed=3, samples=500, planner=False)
        planned = on.utop_rank(1, 3).diagnostics["plan"]
        assert planned["chosen"] in ("exact", "montecarlo")
        assert {s["stage"] for s in planned["stages"]} >= {
            "montecarlo", "baseline",
        }
        assert "plan" not in off.utop_rank(1, 3).diagnostics

    def test_doomed_exact_skipped_under_deadline(self):
        # UTop-Prefix(3) over 16 overlapping records enumerates 3,360
        # prefixes: predicted at about 0.54 s, and about 0.25 s
        # unbudgeted, so a 0.1-s deadline dooms the exact rung.
        engine = RankingEngine(
            overlapping_db(16), seed=3, samples=2_000, planner=True
        )
        result = engine.utop_prefix(3, budget=Budget.for_deadline(0.1))
        assert result.method == "montecarlo"
        assert not result.partial
        skip = next(
            e for e in result.degradation
            if e.stage == "exact" and e.action == "skipped"
        )
        assert skip.reason.startswith("planner:")
        plan = result.diagnostics["plan"]
        exact = next(
            s for s in plan["stages"] if s["stage"] == "exact"
        )
        assert exact["decision"] == "skipped"
        mc = next(
            s for s in plan["stages"] if s["stage"] == "montecarlo"
        )
        assert mc["decision"] == "chosen"
        assert mc["actual_seconds"] is not None
        # Without the planner the same deadline burns on the doomed
        # exact enumeration, so the reactive ladder returns a clipped
        # answer or one from a lower rung.
        reactive = RankingEngine(
            overlapping_db(16), seed=3, samples=2_000, planner=False
        ).utop_prefix(3, budget=Budget.for_deadline(0.1))
        assert reactive.partial or reactive.method != "exact"

    def test_covered_block_served_at_reduced_count(self):
        engine = RankingEngine(
            overlapping_db(30), seed=3, planner=True
        )
        seeded = 2 * SAMPLE_BLOCK
        engine.utop_rank(1, 5, method="montecarlo", samples=seeded)
        assert engine.sampling_coverage(seeded, max_rank=5) == seeded
        result = engine.utop_rank(
            1, 5, samples=100_000, budget=Budget(max_samples=500)
        )
        assert result.method == "montecarlo"
        assert result.partial
        assert result.confidence_half_width is not None
        event = next(
            e for e in result.degradation
            if "covered block" in e.reason
        )
        assert f"{seeded}/100000" in event.reason
        # Serving the block drew nothing new: coverage is unchanged.
        assert engine.sampling_coverage(seeded, max_rank=5) == seeded

    def test_explain_reports_plan_and_observed_stats(self):
        engine = RankingEngine(
            overlapping_db(16), seed=3, samples=1_000, planner=True
        )
        # Exact UTop-Prefix(3) enumerates 3,360 prefixes: doomed.
        plan = engine.explain("utop_prefix", 3, deadline_ms=150)["plan"]
        assert plan["budgeted"] and plan["deadline_ms"] == 150
        stages = {s["stage"]: s for s in plan["stages"]}
        assert stages["exact"]["decision"] == "skipped"
        assert plan["chosen"] == "montecarlo"
        assert stages["montecarlo"]["observed"] is None
        # Forced methods bypass the planner; only an auto dispatch
        # feeds measured stage timings back into the cost model.
        engine.utop_prefix(3, budget=Budget.for_deadline(0.15))
        after = engine.explain("utop_prefix", 3, deadline_ms=150)["plan"]
        observed = {
            s["stage"]: s["observed"] for s in after["stages"]
        }["montecarlo"]
        assert observed is not None and observed["count"] >= 1

    def test_explain_plan_absent_with_planner_off(self):
        engine = RankingEngine(overlapping_db(8), seed=3, planner=False)
        assert engine.explain("utop_rank", 3)["plan"] is None

    def test_planner_metrics_emitted(self):
        registry = MetricsRegistry()
        engine = RankingEngine(
            overlapping_db(16), seed=3, samples=1_000,
            planner=True, metrics=registry,
        )
        engine.utop_prefix(3, budget=Budget.for_deadline(0.2))
        counters = registry.snapshot()["counters"]
        assert "planner_plans_total" in counters
        assert "planner_stage_skips_total" in counters
        skipped = {
            entry["labels"]["stage"]
            for entry in counters["planner_stage_skips_total"]
        }
        assert "exact" in skipped

    def test_fitted_model_shared_through_cache(self):
        db = overlapping_db(16)
        cache = ComputationCache()
        first = RankingEngine(
            db, seed=3, samples=1_000, cache=cache, planner=True
        )
        first.utop_rank(1, 6, budget=Budget.for_deadline(0.15))
        fp = first.database_fingerprint
        key = stage_key("utop_rank", "exact")
        assert cache.cost_model(fp).observations(key) >= 1
        second = RankingEngine(
            db, seed=3, samples=1_000, cache=cache, planner=True
        )
        plan = second.explain("utop_rank", 6)["plan"]
        observed = {
            s["stage"]: s["observed"] for s in plan["stages"]
        }["exact"]
        assert observed is not None and observed["count"] >= 1


    @pytest.mark.parametrize(
        "kind, depth",
        [
            ("utop_rank", 3),
            ("utop_rank", 10),
            ("utop_prefix", 3),
            ("utop_prefix", 10),
            ("utop_set", 3),
            ("utop_set", 10),
        ],
    )
    def test_explain_plans_the_query_it_explains(self, kind, depth):
        # explain() must predict exactly what a fresh engine's first
        # auto query plans — including j (or k) beyond the pruned size.
        db = overlapping_db(6)
        explained = RankingEngine(db, seed=3, samples=1_000).explain(
            kind, depth
        )["plan"]
        spec = (
            Query(kind=kind, i=1, j=depth)
            if kind == "utop_rank"
            else Query(kind=kind, k=depth)
        )
        ran = RankingEngine(db, seed=3, samples=1_000).query(spec)
        planned = ran.diagnostics["plan"]
        assert explained["chosen"] == planned["chosen"] == ran.method
        assert [
            (s["stage"], s["predicted_seconds"])
            for s in explained["stages"]
        ] == [
            (s["stage"], s["predicted_seconds"])
            for s in planned["stages"]
        ]

    @pytest.mark.parametrize("kind", ["utop_rank", "utop_prefix", "utop_set"])
    def test_explain_under_copula_reports_the_sampled_method(self, kind):
        engine = RankingEngine(
            overlapping_db(6), seed=3, samples=1_000,
            copula=GaussianCopula(np.eye(6)),
        )
        explained = engine.explain(kind, 2)
        assert explained["method"] == "montecarlo"
        assert explained["plan"] is None
        spec = (
            Query(kind=kind, i=1, j=2)
            if kind == "utop_rank"
            else Query(kind=kind, k=2)
        )
        result = engine.query(spec)
        assert result.method == "montecarlo"
        assert "plan" not in result.diagnostics
        with pytest.raises(QueryError):
            engine.query(replace(spec, method="exact"))


class TestCoverageProbes:
    """The read-only probes behind covered-block planning."""

    def test_empty_cache_has_zero_coverage(self):
        engine = RankingEngine(overlapping_db(10), seed=3)
        assert engine.sampling_coverage(1_000) == 0
        assert engine.sampling_coverage(1_000, max_rank=3) == 0
        cache = ComputationCache()
        assert cache.rank_count_coverage("no-such-fp", "b", 1_000, 3) == 0
        assert cache.rank_count_coverage("no-such-fp", "b", 0, 3) == 0

    def test_partial_block_straddles_topup_boundary(self):
        engine = RankingEngine(overlapping_db(10), seed=3)
        first = SAMPLE_BLOCK + 100
        engine.utop_rank(1, 3, method="montecarlo", samples=first)
        # The exact decomposition drawn is covered in full...
        assert engine.sampling_coverage(first, max_rank=3) == first
        # ...but a larger request straddles the remainder piece: only
        # the full block serves; the (1, 200) remainder is missing.
        assert (
            engine.sampling_coverage(first + 100, max_rank=3)
            == SAMPLE_BLOCK
        )
        assert (
            engine.sampling_coverage(2 * SAMPLE_BLOCK, max_rank=3)
            == SAMPLE_BLOCK
        )
        # Topping up to two full blocks keeps the old remainder piece:
        # both decompositions now serve from cache.
        engine.utop_rank(
            1, 3, method="montecarlo", samples=2 * SAMPLE_BLOCK
        )
        assert (
            engine.sampling_coverage(2 * SAMPLE_BLOCK, max_rank=3)
            == 2 * SAMPLE_BLOCK
        )
        assert engine.sampling_coverage(first, max_rank=3) == first

    def test_deeper_rank_probe_misses_shallow_pieces(self):
        engine = RankingEngine(overlapping_db(10), seed=3)
        engine.utop_rank(1, 3, method="montecarlo", samples=SAMPLE_BLOCK)
        assert (
            engine.sampling_coverage(SAMPLE_BLOCK, max_rank=3)
            == SAMPLE_BLOCK
        )
        # Pieces were stored at rank depth 3; a depth-5 probe cannot be
        # served by slicing and must report cold.
        assert engine.sampling_coverage(SAMPLE_BLOCK, max_rank=5) == 0

    def test_table_mutation_bumps_fingerprint_and_resets_coverage(self):
        rows = [
            {"id": "a", "score": IntervalValue(6.0, 10.0)},
            {"id": "b", "score": IntervalValue(5.0, 9.0)},
            {"id": "c", "score": IntervalValue(4.0, 8.0)},
        ]
        table = UncertainTable("t", ["id", "score"], rows)
        engine = RankingEngine.from_table(
            table, AttributeScore("score", domain=(0.0, 20.0)), seed=0
        )
        engine.utop_rank(1, 2, method="montecarlo", samples=SAMPLE_BLOCK)
        old_fp = engine.database_fingerprint
        assert (
            engine.sampling_coverage(SAMPLE_BLOCK, max_rank=2)
            == SAMPLE_BLOCK
        )
        with table.mutate() as batch:
            batch.update("c", "score", IntervalValue(15.0, 19.0))
        # The probe re-extracts: new fingerprint, cold store — rank
        # counts are deliberately not migrated (the sampling plan
        # couples the RNG layout to the full record subset), so
        # coverage features must see the cold store, not a stale block.
        assert engine.database_fingerprint != old_fp
        assert engine.sampling_coverage(SAMPLE_BLOCK, max_rank=2) == 0
        # Re-drawing under the new fingerprint warms it back up.
        engine.utop_rank(1, 2, method="montecarlo", samples=SAMPLE_BLOCK)
        assert (
            engine.sampling_coverage(SAMPLE_BLOCK, max_rank=2)
            == SAMPLE_BLOCK
        )
