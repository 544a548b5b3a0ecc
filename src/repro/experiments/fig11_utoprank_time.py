"""Figure 11 — UTop-Rank(1, k) query evaluation time.

The paper evaluates UTop-Rank(1, k) with Monte-Carlo integration (10,000
samples) for k in {5, 10, 20, 50, 100} on all five datasets. Expected
shape: time grows mildly with k ("query evaluation time doubled when k
increased by 20 times"), with per-dataset differences tracking the size
of the pruned database.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from ..core.records import UncertainRecord
from .harness import (
    DEFAULT_SUITE_SIZE,
    format_table,
    make_engine,
    paper_suite,
)

__all__ = ["K_VALUES", "run", "main"]

#: The paper's k sweep.
K_VALUES = (5, 10, 20, 50, 100)


def run(
    datasets: Optional[Dict[str, List[UncertainRecord]]] = None,
    k_values: Sequence[int] = K_VALUES,
    samples: int = 10_000,
    size: int = DEFAULT_SUITE_SIZE,
    seed: int = 7,
    workers: Union[int, str, None] = None,
) -> List[dict]:
    """One row per (dataset, k): UTop-Rank(1, k) evaluation time.

    ``workers`` sets how many threads draw the engine's sample blocks;
    answers are identical for every value, only ``seconds`` moves.
    """
    datasets = datasets if datasets is not None else paper_suite(size)
    rows = []
    for name, records in datasets.items():
        engine = make_engine(
            records, seed=seed, samples=samples, workers=workers
        )
        for k in k_values:
            if k > len(records):
                continue
            result = engine.utop_rank(1, k, method="montecarlo")
            rows.append(
                {
                    "dataset": name,
                    "k": k,
                    "samples": samples,
                    "workers": engine.workers,
                    "pruned_size": result.pruned_size,
                    "seconds": result.elapsed,
                    "top_record": result.top.record_id,
                }
            )
    return rows


def main(size: int = DEFAULT_SUITE_SIZE) -> None:
    """Print the Figure 11 table."""
    rows = run(size=size)
    print("Figure 11 — UTop-Rank(1, k) evaluation time (10,000 samples)")
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
