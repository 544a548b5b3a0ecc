"""Process lifecycle: signal-driven graceful drain and the CLI runner.

``python -m repro.serve`` stands up a demo service over a synthetic
uncertain table. The interesting part is the exit path: SIGTERM (or
SIGINT) flips a stop event, after which :meth:`RankingService.shutdown`
stops accepting, waits out in-flight requests (bounded), and closes the
engine so its sampler thread pools are torn down before the process
exits.
"""

from __future__ import annotations

import argparse
import asyncio
import logging
import signal
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.distributions import UniformScore
from ..core.engine import RankingEngine
from ..core.records import UncertainRecord
from ..db.scoring import AttributeScore
from ..db.table import UncertainTable
from .app import RankingService, ServiceConfig

__all__ = ["main", "run_service", "synthetic_records", "synthetic_table"]

logger = logging.getLogger(__name__)


def synthetic_records(n: int, seed: int = 20090329) -> List[UncertainRecord]:
    """A seeded synthetic uncertain table for the demo server."""
    rng = np.random.default_rng(seed)
    lows = rng.uniform(0.0, 100.0, size=n)
    widths = rng.uniform(0.5, 25.0, size=n)
    return [
        UncertainRecord(
            f"r{index}",
            UniformScore(float(low), float(low + width)),
        )
        for index, (low, width) in enumerate(zip(lows, widths))
    ]


def synthetic_table(
    n: int, seed: int = 20090329
) -> Tuple[UncertainTable, AttributeScore]:
    """The same synthetic population as a mutable ``UncertainTable``.

    The demo server builds its engine from this table (via
    ``RankingEngine.from_table``) so ``POST /mutate`` works out of the
    box. The scoring domain spans ``(0, 128)`` with ``scale=128`` —
    a power-of-two scale keeps ``score_value`` bit-exact, so answers
    match an engine built over the raw interval bounds.
    """
    rng = np.random.default_rng(seed)
    lows = rng.uniform(0.0, 100.0, size=n)
    widths = rng.uniform(0.5, 25.0, size=n)
    rows = [
        {
            "id": f"r{index}",
            "score": (float(low), float(low + width)),
        }
        for index, (low, width) in enumerate(zip(lows, widths))
    ]
    table = UncertainTable("serve-demo", ["id", "score"], rows, key="id")
    scoring = AttributeScore("score", domain=(0.0, 128.0), scale=128.0)
    return table, scoring


async def run_service(
    service: RankingService,
    host: str = "127.0.0.1",
    port: int = 8080,
    install_signals: bool = True,
) -> None:
    """Serve until SIGTERM/SIGINT, then drain gracefully."""
    await service.start(host, port)
    stop = asyncio.Event()
    if install_signals:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
    try:
        await stop.wait()  # reprolint: disable=ROB003 -- run-until-signal: this wait is the server's lifetime, ended by SIGTERM/SIGINT
        logger.info("stop signal received; draining")
    finally:
        await service.shutdown()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point for the demo ranking service."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description=(
            "serve ranking queries over a synthetic uncertain table "
            "(see DEVELOPMENT.md, 'Serving architecture')"
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument(
        "--records", type=int, default=100, help="synthetic table size"
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=1000.0,
        help="default per-request SLO",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="engine sampling workers (default: serial)",
    )
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    table, scoring = synthetic_table(args.records)
    engine = RankingEngine.from_table(
        table,
        scoring,
        seed=20090329,
        workers=args.workers,
        cache="shared",
    )
    service = RankingService(
        engine, ServiceConfig(deadline_ms=args.deadline_ms)
    )
    try:
        asyncio.run(run_service(service, args.host, args.port))
    except KeyboardInterrupt as exc:  # pragma: no cover - direct ^C race
        logger.info("interrupted before drain completed: %r", exc)
    return 0
