"""CLI for the runtime determinism sanitizer.

Usage::

    python -m repro.lint.sanitize --repeats 3
    python -m repro.lint.sanitize --workers 1,2,4 --jitter 500 --json
    python -m repro.lint.sanitize --mutate off,on

Exit code 0 when every perturbed run is byte-identical to the
unperturbed serial baseline, 1 on any divergence. See
:mod:`repro.lint.sanitizer` for what is compared and how.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .sanitizer import DEFAULT_WORKER_GRID, run_sanitizer

__all__ = ["main"]


def _parse_mutate(raw: str) -> List[str]:
    grid = [part.strip() for part in raw.split(",") if part.strip()]
    if not grid:
        raise argparse.ArgumentTypeError(
            "mutate must contain at least one of off/on"
        )
    for name in grid:
        if name not in ("on", "off"):
            raise argparse.ArgumentTypeError(
                f"unknown mutate setting {name!r} (expected on/off)"
            )
    return grid


def _parse_workers(raw: str) -> List[int]:
    try:
        grid = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workers must be a comma-separated list of ints, got {raw!r}"
        )
    if not grid or any(w < 1 for w in grid):
        raise argparse.ArgumentTypeError(
            "workers must contain at least one positive int"
        )
    return grid


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint.sanitize",
        description=(
            "Replay a seeded mixed-query workload under thread-"
            "scheduling perturbation and across worker/cache settings, "
            "diffing results byte-for-byte against the serial baseline."
        ),
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="perturbed replays beyond the baseline (default: 3)",
    )
    parser.add_argument(
        "--records",
        type=int,
        default=12,
        help="size of the deterministic workload database (default: 12)",
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=2000,
        help="Monte-Carlo samples per stochastic query (default: 2000)",
    )
    parser.add_argument(
        "--workers",
        type=_parse_workers,
        default=list(DEFAULT_WORKER_GRID),
        help="comma-separated worker grid (default: 1,2,4)",
    )
    parser.add_argument(
        "--mutate",
        type=_parse_mutate,
        default=["off", "on"],
        help="comma-separated mutation grid; 'on' cells build the "
        "engine over a stale UncertainTable and restore canonical "
        "content through one table.mutate() batch, asserting delta-"
        "aware cache migration is byte-identical to the direct-"
        "records baseline (default: off,on)",
    )
    parser.add_argument(
        "--jitter",
        type=int,
        default=200,
        help="max injected sleep per span start, microseconds "
        "(default: 200; 0 disables perturbation)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="jitter stream seed (default: 0)",
    )
    parser.add_argument(
        "--mcmc-steps",
        type=int,
        default=150,
        help="MCMC steps per chain in the workload (default: 150)",
    )
    parser.add_argument(
        "--chains",
        type=int,
        default=4,
        help="MCMC chains in the workload (default: 4)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report instead of text",
    )
    args = parser.parse_args(argv)

    report = run_sanitizer(
        repeats=args.repeats,
        records=args.records,
        samples=args.samples,
        worker_grid=args.workers,
        mutate_grid=args.mutate,
        jitter_us=args.jitter,
        seed=args.seed,
        mcmc_steps=args.mcmc_steps,
        mcmc_chains=args.chains,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
