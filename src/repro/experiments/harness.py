"""Shared utilities for the experiment runners.

Keeps dataset construction, timing, and plain-text table rendering in
one place so every ``figXX`` module stays focused on its measurement.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.budget import Budget
from ..core.cache import ComputationCache
from ..core.engine import RankingEngine
from ..core.records import UncertainRecord
from ..datasets.synthetic import paper_dataset_suite

__all__ = [
    "paper_suite",
    "make_engine",
    "time_call",
    "format_table",
    "DEFAULT_SUITE_SIZE",
]

#: Default per-dataset record count for experiments. The paper uses
#: 100k synthetic / 33k+10k real records; the shapes it measures are
#: already stable at this laptop-friendly scale, and every runner takes
#: a ``size`` parameter for full-scale runs.
DEFAULT_SUITE_SIZE = 20_000


def paper_suite(
    size: int = DEFAULT_SUITE_SIZE, seed: int = 20090107
) -> Dict[str, List[UncertainRecord]]:
    """The five evaluation datasets keyed by their paper names."""
    return paper_dataset_suite(size=size, seed=seed)


def make_engine(
    source: Union[Sequence[UncertainRecord], object],
    seed: int = 0,
    workers: Union[int, str, None] = None,
    time_limit: Optional[float] = None,
    max_samples: Optional[int] = None,
    cache: Union[ComputationCache, str, None] = None,
    scoring: Optional[object] = None,
    **engine_kwargs: object,
) -> RankingEngine:
    """A :class:`RankingEngine` with an optional resource budget.

    ``source`` is either a sequence of records or an
    :class:`~repro.db.table.UncertainTable`; a table requires a
    ``scoring`` function and is wired up through
    :meth:`~repro.core.engine.RankingEngine.from_table`, so the engine
    follows the table's version counter across mutations.

    ``time_limit`` (seconds) and ``max_samples`` become a
    :class:`~repro.core.budget.Budget` installed as the engine default,
    so every query degrades along the exact → Monte-Carlo → baseline
    ladder instead of overrunning — the configuration an experiment
    measuring anytime behaviour wants. With both limits ``None`` the
    engine is unbudgeted (legacy behaviour).

    ``cache`` selects the computation cache: ``None`` for a private
    per-engine cache (isolated timing, the default an experiment
    usually wants), ``"shared"`` for the process-wide cache, or an
    explicit :class:`~repro.core.cache.ComputationCache` to share one
    cache across a fleet of measured engines (the query-cache
    benchmark's warm passes do exactly that).
    """
    budget = None
    if time_limit is not None or max_samples is not None:
        budget = Budget(deadline=time_limit, max_samples=max_samples)
    shared = dict(
        seed=seed,
        workers=workers,
        budget=budget,
        cache=cache,
        **engine_kwargs,
    )
    if hasattr(source, "to_records") and hasattr(source, "version"):
        if scoring is None:
            raise TypeError(
                "make_engine needs a scoring= function when source is "
                "an UncertainTable"
            )
        return RankingEngine.from_table(source, scoring, **shared)
    if scoring is not None:
        raise TypeError(
            "scoring= only applies when source is an UncertainTable"
        )
    return RankingEngine(source, **shared)


def time_call(fn: Callable, *args, **kwargs) -> Tuple[object, float]:
    """Call ``fn`` and return ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render rows as an aligned plain-text table."""
    table = [[str(h) for h in headers]]
    for row in rows:
        table.append(
            [
                f"{cell:.4g}" if isinstance(cell, float) else str(cell)
                for cell in row
            ]
        )
    widths = [max(len(r[c]) for r in table) for c in range(len(headers))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
