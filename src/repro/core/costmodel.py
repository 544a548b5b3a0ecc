"""Empirical per-stage cost model backing the adaptive query planner.

The degradation ladder (:mod:`repro.core.engine`) is reactive: under a
budget it *starts* the most expensive eligible method and falls down
the ladder only as the budget drains, so a query that was always going
to end in Monte-Carlo first burns wall-clock on a doomed exact attempt.
This module supplies the predictive half of the fix: a small cost model
that maps the features the engine already knows *before* running — the
pruned database size, interval-overlap density, requested rank depth,
sample budget, and rank-count cache coverage — to a predicted
wall-clock cost per ladder stage, fit online from the same per-stage
durations the span trees record.

Design constraints, in order:

1. **Determinism of answers.** Predictions gate only *which* stage runs
   (and only under a budget); they never leak into the numbers a stage
   computes. Fitted state is keyed per database fingerprint and stored
   in the :class:`~repro.core.cache.ComputationCache`, so for a fixed
   cache state the plan is a pure function of features.
2. **Useful when cold.** Per-unit priors (:data:`DEFAULT_UNIT_COSTS`,
   calibrated on commodity hardware) give order-of-magnitude
   predictions before the first observation; online fitting replaces
   them from the first completed stage onward.
3. **Mispredictions self-correct.** A stage that was chosen and then
   failed its budget reports ``completed=False``: the observed burn is
   a *lower bound* on the true cost, so the fitted rate is bumped
   geometrically until the planner stops choosing the stage.

The unit formulas (:func:`stage_units`) are deliberately coarse —
``n^2 * depth`` for the exact rank DP, ``space * n`` for prefix
enumeration, ``chains * steps * n`` for MCMC, ``fresh_samples * n`` for
Monte-Carlo — because the model only has to order stages and compare
them against a deadline, not forecast milliseconds exactly.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence

__all__ = [
    "DEFAULT_UNIT_COSTS",
    "CostModel",
    "PlanFeatures",
    "StageStats",
    "overlap_density",
    "stage_key",
    "stage_units",
    "summarize_stages",
]

#: Per-unit wall-clock priors (seconds per work unit), keyed by ladder
#: stage or, where one query family's stage runs a different algorithm,
#: by its ``kind:stage`` key (which wins over the stage's own prior).
#: Calibrated empirically on a 2-core host: exact η (the node-grid
#: rank DP) runs at ~2e-6 to ~7e-6 s per ``n^2 * depth`` unit on 11 to
#: 20 overlapping uniforms, the small end paying the grid build; exact
#: TOP-k enumeration at ~1e-5 s per ``space * n`` unit for
#: prefixes (one quadrature ``prefix_probability`` per enumerated
#: prefix) and ~3e-6 for sets, MCMC at ~3e-5 s per
#: ``chains * steps * n`` unit, and columnar Monte-Carlo at ~1.5e-8 s
#: per ``samples * n`` unit. Online fitting replaces these after the
#: first completed observation per (kind, stage).
DEFAULT_UNIT_COSTS: Dict[str, float] = {
    "exact": 5e-6,
    "utop_prefix:exact": 1e-5,
    "utop_set:exact": 3e-6,
    "mcmc": 3e-5,
    "montecarlo": 1.5e-8,
    "baseline": 2e-6,
}

#: Fraction of overlap density below which structure discounts apply:
#: exact and MCMC costs scale with how entangled the partial order is,
#: so a mostly-disjoint database gets a proportionally cheaper estimate.
_DENSITY_FLOOR = 0.1


@dataclass(frozen=True)
class StageStats:
    """Count / total / p50 / max of one stage's observed durations.

    The aggregation shared by ``python -m repro.trace --stats`` and the
    cost-model fitter: both summarize the per-stage duration lists that
    :func:`repro.core.trace.stage_durations` extracts from a span tree.
    """

    name: str
    count: int
    total_seconds: float
    p50_seconds: float
    max_seconds: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "count": self.count,
            "total_seconds": self.total_seconds,
            "p50_seconds": self.p50_seconds,
            "max_seconds": self.max_seconds,
        }


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def summarize_stages(
    durations: Mapping[str, Sequence[float]]
) -> Dict[str, StageStats]:
    """Aggregate per-stage duration lists into :class:`StageStats`."""
    summary: Dict[str, StageStats] = {}
    for name, values in durations.items():
        if not values:
            continue
        summary[name] = StageStats(
            name=name,
            count=len(values),
            total_seconds=float(sum(values)),
            p50_seconds=float(_median(values)),
            max_seconds=float(max(values)),
        )
    return summary


def overlap_density(records: Sequence[Any]) -> float:
    """Fraction of record pairs whose score intervals overlap.

    The cheap O(n log n) stand-in for PPO edge density: a pair whose
    intervals are disjoint is a certain dominance edge (no probability
    integral, no DP entanglement), while overlapping pairs are what the
    exact and MCMC methods pay for. Counted by sorting interval bounds:
    a pair is disjoint exactly when one record's upper bound lies
    strictly below the other's lower bound.
    """
    n = len(records)
    if n < 2:
        return 0.0
    uppers = sorted(float(rec.upper) for rec in records)
    disjoint = sum(
        bisect.bisect_left(uppers, float(rec.lower)) for rec in records
    )
    total = n * (n - 1) // 2
    return max(0.0, min(1.0, (total - disjoint) / total))


@dataclass(frozen=True)
class PlanFeatures:
    """Everything the planner may consult before running a query.

    A pure function of (records, query spec, cache state) — never of
    wall-clock measurements taken during the query — which is what
    keeps the plan choice deterministic for a fixed cache state.
    """

    kind: str
    n: int
    depth: int
    requested_samples: int
    covered_samples: int
    overlap_density: float
    exact_supported: bool
    prefix_space: Optional[int] = None
    mcmc_chains: int = 0
    mcmc_steps: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "n": self.n,
            "depth": self.depth,
            "requested_samples": self.requested_samples,
            "covered_samples": self.covered_samples,
            "overlap_density": self.overlap_density,
            "exact_supported": self.exact_supported,
            "prefix_space": self.prefix_space,
            "mcmc_chains": self.mcmc_chains,
            "mcmc_steps": self.mcmc_steps,
        }


def stage_key(kind: str, stage: str) -> str:
    """The fitted-rate key: stage costs differ per query family."""
    return f"{kind}:{stage}"


def _structure_factor(features: PlanFeatures) -> float:
    """Discount for sparse partial orders (cheap dominance structure)."""
    return _DENSITY_FLOOR + (1.0 - _DENSITY_FLOOR) * max(
        0.0, min(1.0, features.overlap_density)
    )


def stage_units(
    features: PlanFeatures,
    stage: str,
    planned_samples: Optional[int] = None,
) -> float:
    """Work units for one ladder stage under ``features``.

    ``planned_samples`` overrides the Monte-Carlo sample count (the
    planner's covered-block reduction); everything else derives from
    the feature vector alone, so units are deterministic plan inputs.
    """
    n = max(1, features.n)
    depth = max(1, features.depth)
    if stage == "exact":
        if features.kind in ("utop_prefix", "utop_set"):
            space = (
                float(features.prefix_space)
                if features.prefix_space is not None
                else 1e9
            )
            return max(1.0, space * n * _structure_factor(features))
        return float(n * n * depth) * _structure_factor(features)
    if stage == "mcmc":
        chains = max(1, features.mcmc_chains)
        steps = max(1, features.mcmc_steps)
        return float(chains * steps * n)
    if stage == "montecarlo":
        samples = (
            features.requested_samples
            if planned_samples is None
            else planned_samples
        )
        fresh = max(0, samples - features.covered_samples)
        # A fully covered request still pays the aggregation pass.
        return float(max(fresh, 0) * n + n * depth)
    if stage == "baseline":
        return float(n)
    return float(n)


class CostModel:
    """Online-fitted per-unit stage costs for one database fingerprint.

    Thread-safe; persisted in the computation cache via
    :meth:`repro.core.cache.ComputationCache.cost_model`, so the fitted
    coefficients survive across engines sharing a cache (the same
    lifetime as the sampled artifacts the predictions are about).
    """

    #: Exponential-moving weight of each new completed observation.
    ALPHA = 0.4

    def __init__(
        self, priors: Optional[Mapping[str, float]] = None
    ) -> None:
        self._priors: Dict[str, float] = dict(
            DEFAULT_UNIT_COSTS if priors is None else priors
        )
        self._rates: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}
        self._total_seconds: Dict[str, float] = {}
        self._lock = threading.Lock()

    def _prior_for(self, key: str) -> float:
        prior = self._priors.get(key)
        if prior is not None:
            return prior
        stage = key.rsplit(":", 1)[-1]
        return self._priors.get(stage, self._priors.get("baseline", 1e-6))

    def rate(self, key: str) -> float:
        """Fitted seconds-per-unit for ``key`` (prior when unobserved)."""
        with self._lock:
            fitted = self._rates.get(key)
        return self._prior_for(key) if fitted is None else fitted

    def predict(self, key: str, units: float) -> float:
        """Predicted wall-clock seconds for ``units`` work at ``key``."""
        return self.rate(key) * max(1.0, float(units))

    def observe(
        self,
        key: str,
        units: float,
        seconds: float,
        completed: bool = True,
    ) -> None:
        """Feed one measured stage execution back into the model.

        A completed stage updates the rate as an exponential moving
        average (first observation replaces the prior outright). An
        incomplete stage — chosen, then killed by its budget — only
        yields a *lower bound* on the true rate, so the fitted rate is
        raised to at least double its prior value; repeated
        mispredictions therefore escalate geometrically until the
        planner stops selecting the stage.
        """
        units = max(1.0, float(units))
        seconds = float(seconds)
        if seconds <= 0.0:
            return
        observed = seconds / units
        with self._lock:
            current = self._rates.get(key)
            if completed:
                if current is None or self._counts.get(key, 0) == 0:
                    updated = observed
                else:
                    updated = current + self.ALPHA * (observed - current)
                self._counts[key] = self._counts.get(key, 0) + 1
                self._total_seconds[key] = (
                    self._total_seconds.get(key, 0.0) + seconds
                )
            else:
                base = (
                    self._prior_for(key) if current is None else current
                )
                updated = max(observed, base * 2.0)
            self._rates[key] = updated

    def observations(self, key: str) -> int:
        """How many completed executions have been fit for ``key``."""
        with self._lock:
            return self._counts.get(key, 0)

    def observed_stats(self, key: str) -> Optional[Dict[str, float]]:
        """Observed actual-cost summary for ``key`` (None when unfit)."""
        with self._lock:
            count = self._counts.get(key, 0)
            if count == 0:
                return None
            total = self._total_seconds.get(key, 0.0)
            return {
                "count": float(count),
                "total_seconds": total,
                "mean_seconds": total / count,
            }

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Fitted state per key, for ``explain()`` and debugging."""
        with self._lock:
            keys = set(self._rates) | set(self._counts)
            return {
                key: {
                    "rate": self._rates.get(
                        key, self._prior_for(key)
                    ),
                    "count": float(self._counts.get(key, 0)),
                    "total_seconds": self._total_seconds.get(key, 0.0),
                }
                for key in sorted(keys)
            }
