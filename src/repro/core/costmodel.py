"""Static per-rung prices for the degradation ladder's deadline check.

Under a live budget, :meth:`repro.core.engine.RankingEngine._ladder`
drops an exact or MCMC rung that cannot finish in time *before* any
wall-clock is burned on it. This module supplies the price it compares
against the remaining deadline: work units from the features the
engine knows before running — the pruned database size,
interval-overlap density, rank depth, sample count, enumeration space
and MCMC parameters — times a fixed per-unit cost.

Prices depend on nothing the engine has run before, so the ladder a
budgeted query runs, and the ladder :meth:`~repro.core.engine.
RankingEngine.explain` reports, are pure functions of (query spec,
pruned records, budget).

The unit formulas (:func:`stage_units`) are deliberately coarse —
``n^2 * depth`` for the exact rank DP, ``space * n`` for prefix
enumeration, ``chains * steps * n`` for MCMC, ``samples * n`` for
Monte-Carlo — because a price only has to be compared against a
deadline, not forecast milliseconds exactly.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Optional, Sequence

__all__ = [
    "DEADLINE_HEADROOM",
    "DEFAULT_UNIT_COSTS",
    "overlap_density",
    "stage_seconds",
    "stage_units",
]

#: Per-unit wall-clock costs (seconds per work unit), keyed by ladder
#: stage or, where one query family's stage runs a different algorithm,
#: by its ``kind:stage`` key (which wins over the stage's own cost).
#: Measured on a 2-core host: exact η (the node-grid rank DP) runs at
#: ~2e-6 to ~7e-6 s per ``n^2 * depth`` unit on 11 to 20 overlapping
#: uniforms, the small end paying the grid build; exact TOP-k
#: enumeration at ~1e-5 s per ``space * n`` unit for prefixes (one
#: quadrature ``prefix_probability`` per enumerated prefix) and ~3e-6
#: for sets, MCMC at ~1e-6 s per ``chains * steps * n`` unit (4 chains
#: of 300 steps over 8 overlapping uniforms, oracle included: 0.6e-6 to
#: 1.6e-6 across the host's fast and slow states; the walk before the
#: fused step loop ran at ~2.5e-6 to ~3.5e-6), and columnar Monte-Carlo
#: at ~1.5e-8 s per ``samples * n`` unit. They are fixed: a slower host
#: skips fewer doomed rungs, never changes an unbudgeted answer. The
#: ``"mcmc"`` price stays at 3e-5, an older and slower walk's cost,
#: because ``tests/unit/data/ladder_admission.json`` pins the admission
#: decisions made with it.
DEFAULT_UNIT_COSTS: Dict[str, float] = {
    "exact": 5e-6,
    "utop_prefix:exact": 1e-5,
    "utop_set:exact": 3e-6,
    "mcmc": 3e-5,
    "montecarlo": 1.5e-8,
    "baseline": 2e-6,
}

#: Fraction of the remaining deadline a rung's price must fit in.
#: Below 1.0 so that near-miss prices (the units are coarse) fail
#: closed: better to skip a rung that might have just fit than to burn
#: the whole deadline discovering it did not.
DEADLINE_HEADROOM = 0.8

#: Fraction of overlap density below which structure discounts apply:
#: exact costs scale with how entangled the partial order is, so a
#: mostly-disjoint database gets a proportionally cheaper estimate.
_DENSITY_FLOOR = 0.1


def overlap_density(records: Sequence[Any]) -> float:
    """Fraction of record pairs whose score intervals overlap.

    The cheap O(n log n) stand-in for PPO edge density: a pair whose
    intervals are disjoint is a certain dominance edge (no probability
    integral, no DP entanglement), while overlapping pairs are what the
    exact method pays for. Counted by sorting interval bounds: a pair
    is disjoint exactly when one record's upper bound lies strictly
    below the other's lower bound.
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


def stage_units(
    kind: str,
    stage: str,
    n: int,
    depth: int,
    *,
    density: float = 1.0,
    prefix_space: Optional[int] = None,
    samples: int = 0,
    chains: int = 0,
    steps: int = 0,
) -> float:
    """Work units for one ladder stage of a ``kind`` query.

    ``n`` is the pruned database size and ``depth`` the rank depth the
    query evaluates; ``density`` (:func:`overlap_density`) discounts
    the exact rung, ``prefix_space`` sizes TOP-k enumeration (``None``:
    too large to count), ``samples`` the Monte-Carlo draw, and
    ``chains``/``steps`` the MCMC walk.
    """
    n = max(1, n)
    depth = max(1, depth)
    if stage == "exact":
        structure = _DENSITY_FLOOR + (1.0 - _DENSITY_FLOOR) * max(
            0.0, min(1.0, density)
        )
        if kind in ("utop_prefix", "utop_set"):
            space = float(prefix_space) if prefix_space is not None else 1e9
            return max(1.0, space * n * structure)
        return float(n * n * depth) * structure
    if stage == "mcmc":
        return float(max(1, chains) * max(1, steps) * n)
    if stage == "montecarlo":
        # The aggregation pass is paid on top of the draw.
        return float(max(0, samples) * n + n * depth)
    return float(n)


def stage_seconds(kind: str, stage: str, units: float) -> float:
    """Predicted wall-clock seconds for ``units`` of work at one stage."""
    rate = DEFAULT_UNIT_COSTS.get(
        f"{kind}:{stage}", DEFAULT_UNIT_COSTS[stage]
    )
    return rate * max(1.0, float(units))
