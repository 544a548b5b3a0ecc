"""Unit tests for query planning: the ladder's static deadline check.

Covers the two layers of planning a budgeted ``method="auto"`` query:

- ``repro.core.costmodel`` — work-unit formulas, overlap density and
  the fixed per-unit prices a rung is checked against;
- ``RankingEngine._ladder`` under a budget — deadline and enumeration
  drops, the never-dropped floor (Monte-Carlo / baseline), expired
  budgets left to the reactive ladder, and parity with every decision
  of the online cost-model planner it replaced
  (``data/ladder_admission.json``);
- engine integration — doomed-rung skipping, the covered rank-count
  block under a sample cap, and ``explain()``'s plan block, which
  queries run before cannot change.

Plus rank-count block coverage as queries see it, through their own
cache counts (hits, top-ups, misses), the ``sample`` span's counters
and ``RankCountStore.coverage``: empty caches, partial-block coverage
straddling a top-up boundary, depth, and version-bumped fingerprints
after a table mutation.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.budget import Budget
from repro.core.cache import SAMPLE_BLOCK, RankCountStore
from repro.core.correlation import GaussianCopula
from repro.core.costmodel import (
    DEADLINE_HEADROOM,
    DEFAULT_UNIT_COSTS,
    overlap_density,
    stage_seconds,
    stage_units,
)
from repro.core.engine import RankingEngine
from repro.core.errors import QueryError
from repro.core.metrics import MetricsRegistry
from repro.core.queries import Query
from repro.core.records import uniform
from repro.core.trace import walk_spans
from repro.db.attributes import IntervalValue
from repro.db.scoring import AttributeScore
from repro.db.table import UncertainTable

FIXTURE = Path(__file__).parent / "data" / "ladder_admission.json"


def overlapping_db(n=14, lo=0.0, width=30.0):
    """``n`` records whose intervals all overlap (pruning keeps all)."""
    return [
        uniform(f"r{i:03d}", lo + 0.1 * i, lo + 0.1 * i + width)
        for i in range(n)
    ]


def disjoint_db(n=8):
    return [uniform(f"d{i}", 10.0 * i, 10.0 * i + 2.0) for i in range(n)]


def frozen_budget(deadline_ms=None, **caps):
    """A budget whose clock never advances: the whole deadline remains."""
    if deadline_ms is None:
        return Budget(clock=lambda: 0.0, **caps)
    return Budget.for_deadline(
        deadline_ms / 1000.0, clock=lambda: 0.0, **caps
    )


def ladder(engine, kind, depth, budget=None):
    """``(kept names, skipped)`` of the auto ladder the query would run.

    Resolves the pruned subset and depth exactly as the query does:
    UTop-Rank keeps ``j``, TOP-k clamps ``k`` to the pruned size, and
    Rank-Agg ranks every record.
    """
    if kind == "rank_aggregation":
        subset, fp = engine.records, engine.database_fingerprint
        depth = len(subset)
    else:
        subset, fp = engine._pruned_entry(depth)
        if kind != "utop_rank":
            depth = min(depth, len(subset))
    _, names, skipped = engine._ladder(
        kind, "auto", subset, fp, depth, budget
    )
    return names, skipped


class TestStageUnits:
    def test_exact_rank_dp(self):
        assert stage_units("utop_rank", "exact", 20, 5) == pytest.approx(
            20 * 20 * 5
        )

    def test_exact_scales_with_overlap_density(self):
        dense = stage_units("utop_rank", "exact", 20, 5, density=1.0)
        sparse = stage_units("utop_rank", "exact", 20, 5, density=0.0)
        assert sparse == pytest.approx(0.1 * dense)

    def test_exact_prefix_uses_enumeration_space(self):
        units = stage_units("utop_prefix", "exact", 20, 5, prefix_space=100)
        assert units == pytest.approx(100 * 20)

    def test_exact_prefix_unbounded_space_is_huge(self):
        units = stage_units("utop_prefix", "exact", 20, 5, prefix_space=None)
        assert units >= 1e9

    def test_mcmc_units(self):
        units = stage_units("utop_prefix", "mcmc", 20, 5, chains=4, steps=100)
        assert units == pytest.approx(4 * 100 * 20)

    def test_montecarlo_prices_every_requested_sample(self):
        # Cache coverage is not consulted: a price depends on nothing
        # the engine ran before. The aggregation pass is paid on top.
        units = stage_units("utop_rank", "montecarlo", 20, 5, samples=10_000)
        assert units == pytest.approx(10_000 * 20 + 20 * 5)

    def test_baseline_is_linear(self):
        assert stage_units("utop_rank", "baseline", 20, 5) == pytest.approx(
            20
        )


class TestOverlapDensity:
    def test_disjoint_database(self):
        assert overlap_density(disjoint_db()) == pytest.approx(0.0)

    def test_fully_overlapping_database(self):
        assert overlap_density(overlapping_db(10)) == pytest.approx(1.0)

    def test_degenerate_sizes(self):
        assert overlap_density([]) == 0.0
        assert overlap_density(disjoint_db(1)) == 0.0


class TestCostModel:
    def test_cold_prediction_uses_prior(self):
        assert stage_seconds("utop_rank", "exact", 1_000) == pytest.approx(
            DEFAULT_UNIT_COSTS["exact"] * 1_000
        )

    def test_kind_stage_prior_wins_over_stage_prior(self):
        exact = stage_seconds("utop_rank", "exact", 1)
        assert exact == DEFAULT_UNIT_COSTS["exact"]
        for kind in ("utop_prefix", "utop_set"):
            rate = stage_seconds(kind, "exact", 1)
            assert rate == DEFAULT_UNIT_COSTS[f"{kind}:exact"]
            assert rate != DEFAULT_UNIT_COSTS["exact"]

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
        assert stage_seconds("utop_rank", "exact", 0) == pytest.approx(
            DEFAULT_UNIT_COSTS["exact"]
        )


class TestQueryPlanner:
    """``_ladder``'s deadline check: which rungs a budgeted query skips."""

    def test_no_budget_is_annotation_only(self):
        engine = RankingEngine(overlapping_db(16), seed=0)
        names, skipped = ladder(engine, "utop_prefix", 3)
        assert names == ["exact", "mcmc", "montecarlo", "baseline"]
        assert skipped == {}
        # explain() still prices every rung; nothing is dropped.
        plan = engine.explain("utop_prefix", 3)["plan"]
        assert plan["deadline_ms"] is None
        assert [s["decision"] for s in plan["stages"]] == ["kept"] * 4
        assert all(s["predicted_seconds"] > 0 for s in plan["stages"])

    def test_deadline_prunes_doomed_exact(self):
        # The depth-8 eta rung over 16 records is priced at ~10 ms,
        # over 0.8 of a 5-ms deadline.
        engine = RankingEngine(overlapping_db(16), seed=0)
        names, skipped = ladder(
            engine, "utop_rank", 8, frozen_budget(deadline_ms=5)
        )
        assert names == ["montecarlo", "baseline"]
        assert list(skipped) == ["exact"]
        assert "allowance" in skipped["exact"]

    def test_montecarlo_and_baseline_never_pruned(self):
        # Make even Monte-Carlo priced far over the allowance.
        engine = RankingEngine(
            overlapping_db(16), seed=0, samples=10_000_000
        )
        explained = engine.explain("utop_prefix", 3, deadline_ms=1)
        stages = {s["stage"]: s for s in explained["plan"]["stages"]}
        assert stages["montecarlo"]["predicted_seconds"] > 0.001
        assert stages["montecarlo"]["decision"] == "kept"
        assert stages["baseline"]["decision"] == "kept"
        assert explained["method"] == "montecarlo"

    def test_last_resort_when_everything_is_doomed(self):
        # Under 1 ms neither the 3,360-prefix enumeration nor the MCMC
        # walk fits: Monte-Carlo is the first rung left.
        engine = RankingEngine(overlapping_db(16), seed=0)
        names, skipped = ladder(
            engine, "utop_prefix", 3, frozen_budget(deadline_ms=1)
        )
        assert list(skipped) == ["exact", "mcmc"]
        assert names == ["montecarlo", "baseline"]

    def test_headroom_validation(self):
        # The depth-8 eta rung over 16 records is priced at 10.24 ms: it
        # fits 0.8 of 12.9 ms (10.32 ms) and not 0.8 of 12.7 ms.
        assert 0.0 < DEADLINE_HEADROOM < 1.0
        engine = RankingEngine(overlapping_db(16), seed=0)
        kept, _ = ladder(
            engine, "utop_rank", 8, frozen_budget(deadline_ms=12.9)
        )
        assert kept[0] == "exact"
        _, skipped = ladder(
            engine, "utop_rank", 8, frozen_budget(deadline_ms=12.7)
        )
        assert list(skipped) == ["exact"]

    def test_no_reduction_without_live_budget(self):
        # A covered block never shrinks an unbudgeted request: the rung
        # tops the cached block up to the full count, and the answer is
        # the cold engine's.
        db = overlapping_db(30)
        engine = RankingEngine(db, seed=3)
        engine.utop_rank(1, 5, method="montecarlo", samples=SAMPLE_BLOCK)
        warm = engine.utop_rank(1, 5, samples=3 * SAMPLE_BLOCK, trace=True)
        cold = RankingEngine(db, seed=3).utop_rank(
            1, 5, samples=3 * SAMPLE_BLOCK
        )
        assert warm.method == "montecarlo"
        assert not warm.partial
        sample = next(
            node for node in walk_spans(warm.trace.to_dict())
            if node["name"] == "sample"
        )
        assert sample["attributes"]["done"] == 3 * SAMPLE_BLOCK
        assert warm.answers == cold.answers

    def test_enumeration_budget_prunes_exact_prefix(self):
        # UTop-Prefix(3) over 16 overlapping records has 3,360 prefixes.
        engine = RankingEngine(overlapping_db(16), seed=0)
        names, skipped = ladder(
            engine, "utop_prefix", 3, frozen_budget(max_enumeration=50)
        )
        assert list(skipped) == ["exact"]
        assert "enumeration allowance 50" in skipped["exact"]
        # No deadline: the MCMC rung is not priced, so it runs first.
        assert names[0] == "mcmc"

    def test_bounded_prefix_space_within_allowance_survives(self):
        engine = RankingEngine(overlapping_db(4), seed=0)
        names, skipped = ladder(
            engine, "utop_prefix", 2, frozen_budget(max_enumeration=50)
        )
        assert skipped == {}
        assert names[0] == "exact"

    def test_born_expired_budget_left_to_reactive_ladder(self):
        budget = Budget.for_deadline(-1.0)
        assert budget.expired()
        engine = RankingEngine(overlapping_db(16), seed=0)
        names, skipped = ladder(engine, "utop_rank", 8, budget)
        assert skipped == {}
        assert names == ["exact", "montecarlo", "baseline"]
        # _run_stages skips the rungs that need time, for the deadline.
        result = engine.utop_rank(1, 8, budget=Budget.for_deadline(-1.0))
        assert result.method == "baseline"
        assert [(e.stage, e.action, e.reason) for e in result.degradation][
            :2
        ] == [
            ("exact", "skipped", "deadline"),
            ("montecarlo", "skipped", "deadline"),
        ]

    def test_plan_is_deterministic(self):
        plans = [
            json.dumps(
                RankingEngine(overlapping_db(16), seed=0).explain(
                    kind, 3, deadline_ms=30
                )["plan"],
                sort_keys=True,
            )
            for kind in ("utop_rank", "utop_set", "utop_rank", "utop_set")
        ]
        assert plans[0] == plans[2]
        assert plans[1] == plans[3]


class TestLadderParity:
    """The static check against the online planner's cold decisions."""

    TABLES = {
        "overlapping_db(6)": lambda: overlapping_db(6),
        "overlapping_db(12)": lambda: overlapping_db(12),
        "overlapping_db(16)": lambda: overlapping_db(16),
        "disjoint_db(8)": lambda: disjoint_db(8),
    }

    def test_static_check_reproduces_every_planner_cell(self):
        cells = json.loads(FIXTURE.read_text())["cells"]
        engines = {
            table: RankingEngine(build(), seed=0)
            for table, build in self.TABLES.items()
        }
        kinds = {cell["kind"] for cell in cells}
        assert kinds == {
            "utop_rank", "utop_prefix", "utop_set", "rank_aggregation",
        }
        assert {cell["table"] for cell in cells} == set(self.TABLES)
        mismatches = []
        for cell in cells:
            budget = frozen_budget(**cell["budget"])
            names, skipped = ladder(
                engines[cell["table"]], cell["kind"], cell["depth"], budget
            )
            if (list(skipped) + names, list(skipped)) != (
                cell["ladder"], cell["skipped"]
            ):
                mismatches.append((cell, names, list(skipped)))
        assert mismatches == []
        # The grid exercises both drop reasons and the keep path.
        assert any(cell["skipped"] for cell in cells)
        assert any(not cell["skipped"] for cell in cells)


class TestEngineIntegration:
    def test_doomed_exact_skipped_under_deadline(self):
        # UTop-Prefix(3) over 16 overlapping records enumerates 3,360
        # prefixes: priced at about 0.54 s, and about 0.25 s
        # unbudgeted, so a 0.1-s deadline dooms the exact rung.
        engine = RankingEngine(overlapping_db(16), seed=3, samples=2_000)
        result = engine.utop_prefix(3, budget=Budget.for_deadline(0.1))
        assert result.method == "montecarlo"
        assert not result.partial
        skip = next(
            e for e in result.degradation
            if e.stage == "exact" and e.action == "skipped"
        )
        assert skip.reason.startswith("predicted 0.5376s exceeds")
        assert "plan" not in result.diagnostics

    def test_planner_metrics_emitted(self):
        # A skipped rung reaches /metrics as a degradation event; there
        # are no planner-specific counters.
        registry = MetricsRegistry()
        engine = RankingEngine(
            overlapping_db(16), seed=3, samples=1_000, metrics=registry,
        )
        engine.utop_prefix(3, budget=Budget.for_deadline(0.2))
        counters = registry.snapshot()["counters"]
        events = {
            (entry["labels"]["stage"], entry["labels"]["action"])
            for entry in counters["degradation_events_total"]
        }
        assert ("exact", "skipped") in events
        assert not any(name.startswith("planner_") for name in counters)

    def test_covered_block_served_at_reduced_count(self):
        engine = RankingEngine(overlapping_db(30), seed=3)
        seeded = 2 * SAMPLE_BLOCK
        engine.utop_rank(1, 5, method="montecarlo", samples=seeded)
        result = engine.utop_rank(
            1, 5, samples=100_000, budget=Budget(max_samples=500),
            trace=True,
        )
        assert result.method == "montecarlo"
        assert result.cache["topups"] == 1
        assert result.partial
        assert result.confidence_half_width is not None
        sample = next(
            node for node in walk_spans(result.trace.to_dict())
            if node["name"] == "sample"
        )
        done = sample["attributes"]["done"]
        assert done >= seeded
        # The covered blocks are served free of the sample cap, and the
        # cap's whole grant is drawn fresh on top of them.
        assert done == seeded + 500
        # The grant-clipped piece is cached under its drawn size, so a
        # request for exactly ``done`` samples is served whole.
        again = engine.utop_rank(1, 5, method="montecarlo", samples=done)
        assert (again.cache["misses"], again.cache["topups"]) == (0, 0)

    @pytest.mark.parametrize(
        "kind, depth",
        [("utop_rank", 8), ("utop_prefix", 3), ("utop_set", 3)],
    )
    def test_explain_plan_is_independent_of_history(self, kind, depth):
        engine = RankingEngine(overlapping_db(16), seed=3, samples=1_000)
        before = engine.explain(kind, depth, deadline_ms=100)["plan"]
        spec = (
            Query(kind=kind, i=1, j=depth)
            if kind == "utop_rank"
            else Query(kind=kind, k=depth)
        )
        engine.query(replace(spec, budget=Budget.for_deadline(0.1)))
        engine.query(spec)
        after = engine.explain(kind, depth, deadline_ms=100)["plan"]
        assert after == before

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
        # explain() must name the rung a fresh engine's first auto query
        # runs — including j (or k) beyond the pruned size.
        db = overlapping_db(6)
        explained = RankingEngine(db, seed=3, samples=1_000).explain(
            kind, depth
        )
        spec = (
            Query(kind=kind, i=1, j=depth)
            if kind == "utop_rank"
            else Query(kind=kind, k=depth)
        )
        ran = RankingEngine(db, seed=3, samples=1_000).query(spec)
        kept = [
            s["stage"] for s in explained["plan"]["stages"]
            if s["decision"] == "kept"
        ]
        assert explained["method"] == kept[0] == ran.method

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


def _sample_counts(result):
    """The ``cache_*`` counters of a traced result's ``sample`` span."""
    node = next(
        node for node in walk_spans(result.trace.to_dict())
        if node["name"] == "sample"
    )
    return {
        key: value for key, value in node["attributes"].items()
        if key.startswith("cache_")
    }


class TestCoverageProbes:
    """Rank-count block coverage, as each query's own counts report it."""

    def test_empty_cache_has_zero_coverage(self):
        assert RankCountStore().coverage(1_000, 3) == 0
        assert RankCountStore().coverage(1_000, 3, tally=True) == 0
        engine = RankingEngine(overlapping_db(10), seed=3)
        for kind in ("utop_rank", "utop_prefix"):
            spec = (
                Query(kind=kind, i=1, j=3, method="montecarlo")
                if kind == "utop_rank"
                else Query(kind=kind, k=3, method="montecarlo")
            )
            first = engine.query(replace(spec, samples=1_000, trace=True))
            assert first.cache["topups"] == 0
            assert _sample_counts(first) == {"cache_misses": 1.0}

    def test_partial_block_straddles_topup_boundary(self):
        registry = MetricsRegistry()
        engine = RankingEngine(overlapping_db(10), seed=3, metrics=registry)
        first = SAMPLE_BLOCK + 100

        def run(samples):
            before = registry.counter_total("samples_drawn_total")
            result = engine.utop_rank(
                1, 3, method="montecarlo", samples=samples
            )
            fresh = registry.counter_total("samples_drawn_total") - before
            return result.cache, fresh

        cache, fresh = run(first)
        assert cache["misses"] > 0 and fresh == first
        # A larger request straddles the remainder piece: only the full
        # block serves; the (1, 200) remainder is drawn.
        cache, fresh = run(first + 100)
        assert (cache["misses"], cache["topups"], fresh) == (0, 1, 200)
        cache, fresh = run(2 * SAMPLE_BLOCK)
        assert (cache["misses"], cache["topups"]) == (0, 1)
        assert fresh == SAMPLE_BLOCK
        # Topping up to two full blocks keeps the old remainder pieces:
        # every decomposition drawn so far now serves from cache.
        for samples in (2 * SAMPLE_BLOCK, first, first + 100):
            cache, fresh = run(samples)
            assert (cache["misses"], cache["topups"], fresh) == (0, 0, 0)

    def test_deeper_rank_probe_misses_shallow_pieces(self):
        engine = RankingEngine(overlapping_db(10), seed=3, trace=True)

        def counts(j):
            return _sample_counts(
                engine.utop_rank(
                    1, j, method="montecarlo", samples=SAMPLE_BLOCK
                )
            )

        assert counts(3) == {"cache_misses": 1.0}
        # Pieces were stored at rank depth 3; a depth-5 request cannot
        # be served by slicing and must draw cold...
        assert counts(5) == {"cache_misses": 1.0}
        # ...after which the deeper pieces serve both depths.
        assert counts(5) == {"cache_hits": 1.0}
        assert counts(3) == {"cache_hits": 1.0}

    def test_table_mutation_bumps_fingerprint_and_resets_coverage(self):
        rows = [
            {"id": "a", "score": IntervalValue(6.0, 10.0)},
            {"id": "b", "score": IntervalValue(5.0, 9.0)},
            {"id": "c", "score": IntervalValue(4.0, 8.0)},
        ]
        table = UncertainTable("t", ["id", "score"], rows)
        engine = RankingEngine.from_table(
            table, AttributeScore("score", domain=(0.0, 20.0)), seed=0,
            trace=True,
        )

        def counts():
            return _sample_counts(
                engine.utop_rank(
                    1, 2, method="montecarlo", samples=SAMPLE_BLOCK
                )
            )

        assert counts() == {"cache_misses": 1.0}
        assert counts() == {"cache_hits": 1.0}
        old_fp = engine.database_fingerprint
        with table.mutate() as batch:
            batch.update("c", "score", IntervalValue(15.0, 19.0))
        # The query re-extracts: new fingerprint, cold store — rank
        # counts are deliberately not migrated (the sampling plan
        # couples the RNG layout to the full record subset), so the
        # query must draw afresh, not read a stale block.
        assert engine.database_fingerprint != old_fp
        assert counts() == {"cache_misses": 1.0}
        # Re-drawing under the new fingerprint warms it back up.
        assert counts() == {"cache_hits": 1.0}
