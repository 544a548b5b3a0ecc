"""Cost-model-driven adaptive query planner for ``method="auto"``.

Inverts the reactive degradation ladder: instead of starting the most
expensive eligible stage and falling back as the budget drains, the
planner predicts each candidate stage's wall-clock from the fitted
cost model (:mod:`repro.core.costmodel`) and skips stages that cannot
finish inside the remaining deadline *before* any time is burned on
them. The existing ladder semantics stay intact as the fallback: a
planned stage that still misses its budget degrades exactly as before,
and the misprediction is fed back into the model so the next plan
learns from it.

Determinism contract:

- **Without a live budget the planner never alters execution.** It
  annotates the plan (predicted costs, chosen stage) but runs the
  ladder unchanged, so unbudgeted answers are byte-identical with
  planning on or off, and a planned answer is never lower-confidence
  than the reactive ladder's answer for the same inputs.
- **Under a budget the plan is a pure function of features** — the
  query spec, database fingerprint state, cache coverage, fitted
  coefficients, and the budget's remaining allowances — never of
  wall-clock measurements taken *during* the plan. Fixed inputs give a
  fixed plan.
- The planner only ever *skips* stages the ladder would have attempted
  and failed; it never reorders the ladder and never skips the
  Monte-Carlo or baseline stages (a partial Monte-Carlo answer always
  beats the baseline it would otherwise degrade to).

The one place a plan changes stage *inputs* rather than stage choice:
when the rank-count cache already covers a block of at least
``min_planned_samples`` samples but fewer than the requested count, a
deadline-constrained plan may serve straight from the covered block at
the reduced sample count instead of drawing a fresh top-up. The result
is flagged partial with its Wilson half-width, exactly like a
budget-clipped run of the same count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from .budget import Budget
from .costmodel import CostModel, PlanFeatures, stage_key, stage_units

__all__ = ["PlannedStage", "QueryPlan", "QueryPlanner"]

#: Fraction of the remaining deadline a stage's prediction must fit in.
#: Below 1.0 so that near-miss predictions (the model is coarse) fail
#: closed: better to skip a stage that might have just fit than to burn
#: the whole deadline discovering it did not.
DEFAULT_HEADROOM = 0.8

#: Smallest covered block worth serving in place of a fresh top-up.
#: Below this, a reduced-count answer is too noisy to be a useful
#: substitute for drawing the samples the caller asked for.
DEFAULT_MIN_PLANNED_SAMPLES = 1000


@dataclass
class PlannedStage:
    """One ladder stage as the planner saw it before execution."""

    stage: str
    units: float
    predicted_seconds: float
    decision: str  # "chosen" | "fallback" | "skipped"
    reason: str
    planned_samples: Optional[int] = None
    actual_seconds: Optional[float] = None
    completed: Optional[bool] = None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "stage": self.stage,
            "units": self.units,
            "predicted_seconds": self.predicted_seconds,
            "decision": self.decision,
            "reason": self.reason,
        }
        if self.planned_samples is not None:
            payload["planned_samples"] = self.planned_samples
        if self.actual_seconds is not None:
            payload["actual_seconds"] = self.actual_seconds
        if self.completed is not None:
            payload["completed"] = self.completed
        return payload


@dataclass
class QueryPlan:
    """The full plan for one query: per-stage predictions + decisions.

    ``stages`` preserves ladder order. ``chosen`` is the first stage
    the planner expects to run to completion; under a budget, stages
    before it carry ``decision="skipped"`` and are pruned from the
    ladder, stages after it remain as fallbacks. ``planned_samples``
    is the covered-block sample reduction, when one applies.
    """

    kind: str
    features: PlanFeatures
    stages: List[PlannedStage] = field(default_factory=list)
    chosen: Optional[str] = None
    planned_samples: Optional[int] = None
    budgeted: bool = False
    mispredicted: bool = False

    def stage_named(self, name: str) -> Optional[PlannedStage]:
        for entry in self.stages:
            if entry.stage == name:
                return entry
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "features": self.features.to_dict(),
            "stages": [entry.to_dict() for entry in self.stages],
            "chosen": self.chosen,
            "planned_samples": self.planned_samples,
            "budgeted": self.budgeted,
            "mispredicted": self.mispredicted,
        }

    def diagnostics_dict(self) -> Dict[str, Any]:
        """The schedule-invariant subset safe for result diagnostics.

        Restricted to fields that are identical for a fixed spec seed
        and cache state regardless of worker count or timing:
        the chosen stage and each stage's decision/reason. Predicted
        and actual seconds ride along under timing-named keys, which
        the determinism sanitizer strips like every other timing.
        """
        return {
            "chosen": self.chosen,
            "stages": [
                {
                    "stage": entry.stage,
                    "decision": entry.decision,
                    "reason": entry.reason,
                    "predicted_seconds": entry.predicted_seconds,
                    "actual_seconds": entry.actual_seconds,
                }
                for entry in self.stages
            ],
        }


class QueryPlanner:
    """Predicts the cheapest ladder stage that fits the budget.

    Stateless apart from tunables; all fitted state lives in the
    :class:`~repro.core.costmodel.CostModel` (persisted per database
    fingerprint in the computation cache), which is what makes plans a
    pure function of (features, model state, budget allowances).
    """

    def __init__(
        self,
        headroom: float = DEFAULT_HEADROOM,
        min_planned_samples: int = DEFAULT_MIN_PLANNED_SAMPLES,
    ) -> None:
        if not 0.0 < headroom <= 1.0:
            raise ValueError("headroom must be in (0, 1]")
        self.headroom = headroom
        self.min_planned_samples = max(1, int(min_planned_samples))

    # -- planning ------------------------------------------------------

    def plan(
        self,
        model: CostModel,
        features: PlanFeatures,
        stage_names: Sequence[str],
        budget: Optional[Budget] = None,
    ) -> QueryPlan:
        """Build the plan for one ``method="auto"`` ladder.

        ``stage_names`` is the reactive ladder in order. With no live
        budget (or a born-expired one) the plan is annotation-only:
        the first stage is ``chosen``, the rest are fallbacks, and the
        ladder runs unchanged. Under a live budget, stages predicted
        to exceed ``headroom × time_remaining`` — or whose enumeration
        space exceeds the budget's enumeration allowance — are marked
        ``skipped`` so the engine never starts them.
        """
        plan = QueryPlan(kind=features.kind, features=features)
        remaining = budget.time_remaining() if budget is not None else None
        enum_remaining = (
            budget.enumeration_remaining() if budget is not None else None
        )
        # A born-expired budget is left entirely to the reactive
        # ladder: _run_stages already emits the canonical
        # "budget-expired" skip events, and pruning here would only
        # change their wording.
        live = (
            budget is not None
            and not budget.expired()
            and (remaining is None or remaining > 0.0)
        )
        plan.budgeted = live

        planned_samples = self._planned_samples(features, live)
        plan.planned_samples = planned_samples

        allowance = (
            None
            if not live or remaining is None
            else remaining * self.headroom
        )

        for name in stage_names:
            units = stage_units(
                features,
                name,
                planned_samples if name == "montecarlo" else None,
            )
            predicted = model.predict(stage_key(features.kind, name), units)
            entry = PlannedStage(
                stage=name,
                units=units,
                predicted_seconds=predicted,
                decision="fallback",
                reason="",
            )
            if name == "montecarlo" and planned_samples is not None:
                entry.planned_samples = planned_samples

            skip_reason = self._skip_reason(
                name, features, predicted, allowance, enum_remaining, live
            )
            if skip_reason is not None and plan.chosen is None:
                entry.decision = "skipped"
                entry.reason = skip_reason
            elif plan.chosen is None:
                entry.decision = "chosen"
                entry.reason = (
                    "predicted to fit budget"
                    if live
                    else "first ladder stage (no live budget)"
                )
                plan.chosen = name
            else:
                entry.reason = "retained as fallback"
            plan.stages.append(entry)

        if plan.chosen is None and plan.stages:
            # Every stage was predicted over budget; the last ladder
            # stage (baseline, free) still runs rather than nothing.
            tail = plan.stages[-1]
            tail.decision = "chosen"
            tail.reason = "last resort: all stages predicted over budget"
            plan.chosen = tail.stage
        return plan

    def _planned_samples(
        self, features: PlanFeatures, live: bool
    ) -> Optional[int]:
        """Covered-block sample reduction, when one is worthwhile.

        Only under a live budget (never changing unbudgeted answers),
        and only when the cache holds a covered block that is smaller
        than the request but at least ``min_planned_samples``: serving
        it avoids the fresh top-up draw entirely.
        """
        if not live:
            return None
        covered = features.covered_samples
        requested = features.requested_samples
        if 0 < covered < requested and covered >= self.min_planned_samples:
            return covered
        return None

    def _skip_reason(
        self,
        name: str,
        features: PlanFeatures,
        predicted: float,
        allowance: Optional[float],
        enum_remaining: Optional[int],
        live: bool,
    ) -> Optional[str]:
        """Why a stage should be pruned, or ``None`` to keep it.

        Monte-Carlo and baseline are never pruned: Monte-Carlo clips
        gracefully to a flagged partial that always beats the baseline
        it would degrade to, and the baseline is the free floor.
        """
        if not live or name in ("montecarlo", "baseline"):
            return None
        if (
            name == "exact"
            and enum_remaining is not None
            and features.kind in ("utop_prefix", "utop_set")
        ):
            space = features.prefix_space
            if space is None or space > enum_remaining:
                return (
                    "prefix space "
                    f"{'unbounded' if space is None else space} exceeds "
                    f"enumeration allowance {enum_remaining}"
                )
        if allowance is not None and predicted > allowance:
            return (
                f"predicted {predicted:.4f}s exceeds "
                f"{allowance:.4f}s allowance"
            )
        return None

    # -- feedback ------------------------------------------------------

    def feedback(
        self,
        model: CostModel,
        plan: QueryPlan,
        stage_seconds: Dict[str, float],
        used: Optional[str],
    ) -> bool:
        """Fold measured stage timings back into the cost model.

        ``stage_seconds`` maps executed stage name → wall seconds (from
        the engine's stage attempts); ``used`` is the stage whose
        answer was returned. Every executed stage updates the model: a
        stage that ran but was not the one used (it failed or was
        skipped mid-run) counts as incomplete, raising its fitted rate
        geometrically. Returns ``True`` when the plan mispredicted —
        its chosen stage executed but did not produce the answer.
        """
        mispredicted = False
        for entry in plan.stages:
            seconds = stage_seconds.get(entry.stage)
            if seconds is None:
                continue
            completed = entry.stage == used
            entry.actual_seconds = seconds
            entry.completed = completed
            model.observe(
                stage_key(plan.kind, entry.stage),
                entry.units,
                seconds,
                completed=completed,
            )
            if (
                not completed
                and plan.budgeted
                and entry.decision == "chosen"
            ):
                mispredicted = True
        plan.mispredicted = mispredicted
        return mispredicted
