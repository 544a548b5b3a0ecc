"""Figure 12 — time to draw and rank 10,000 score samples.

The paper isolates the sampling component of UTop-Rank evaluation: the
time to draw 10,000 score vectors from the (k-dominance-pruned) database
and rank each of them. Differences between datasets track the pruned
database sizes produced by the k-dominance criterion.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.montecarlo import MonteCarloEvaluator
from ..core.pruning import shrink_database
from ..core.records import UncertainRecord
from .fig11_utoprank_time import K_VALUES
from .harness import (
    DEFAULT_SUITE_SIZE,
    format_table,
    paper_suite,
    time_call,
)

__all__ = ["run", "main"]


def run(
    datasets: Optional[Dict[str, List[UncertainRecord]]] = None,
    k_values: Sequence[int] = K_VALUES,
    samples: int = 10_000,
    size: int = DEFAULT_SUITE_SIZE,
    seed: int = 7,
) -> List[dict]:
    """One row per (dataset, k): sampling-and-ranking time."""
    datasets = datasets if datasets is not None else paper_suite(size)
    rows = []
    for name, records in datasets.items():
        for k in k_values:
            if k > len(records):
                continue
            kept = shrink_database(records, k).kept
            sampler = MonteCarloEvaluator(kept, seed=seed)
            _rankings, elapsed = time_call(sampler.sample_rankings, samples)
            rows.append(
                {
                    "dataset": name,
                    "k": k,
                    "pruned_size": len(kept),
                    "samples": samples,
                    "seconds": elapsed,
                }
            )
    return rows


def main(size: int = DEFAULT_SUITE_SIZE) -> None:
    """Print the Figure 12 table."""
    rows = run(size=size)
    print("Figure 12 — sampling time (10,000 samples)")
    print(
        format_table(
            ["dataset", "k", "pruned size", "seconds"],
            [
                (r["dataset"], r["k"], r["pruned_size"], r["seconds"])
                for r in rows
            ],
        )
    )


if __name__ == "__main__":
    main()
