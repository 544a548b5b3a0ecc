"""Worker-count resolution and the thread pool that runs sample blocks.

Sampling-based answers are embarrassingly parallel: the §VI-C error
bound ``O(1 / sqrt(s))`` does not care which worker drew which sample.
Naive parallelism would still destroy reproducibility, because results
would depend on thread scheduling. The engine therefore parallelizes
over a layout that never depends on the worker count: the rank-count
store (:class:`~repro.core.cache.RankCountStore`) splits every request
into ``SAMPLE_BLOCK`` pieces, and piece ``i`` is always drawn by the
same evaluator with per-call seed ``i``. :class:`BlockPool` runs those
pieces and hands the results back in block order. Consequences:

- Every merged count is **bit-identical for any worker count**;
  workers only decide which thread happens to draw a block, never what
  the block contains.
- ``workers=1`` (the engine default) draws the blocks inline, in
  order, on the query thread, so serial and parallel engines share
  every cached block.

Blocks run on a lazily created, reusable
:class:`~concurrent.futures.ThreadPoolExecutor`. The columnar kernels
spend their time inside NumPy, which releases the GIL, and worker
threads share the one evaluator without pickling the database.
See docs/DEVELOPMENT.md, "Performance architecture".
"""

from __future__ import annotations

import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar, Union

from . import metrics
from .errors import EvaluationError, QueryError
from .metrics import active_registry, use_registry
from .trace import current_span, span_under

__all__ = [
    "BlockPool",
    "resolve_workers",
]

logger = logging.getLogger(__name__)

_T = TypeVar("_T")

#: ``workers="auto"`` never claims more threads than this; sampling
#: saturates memory bandwidth well before high core counts pay off.
_AUTO_WORKER_CAP = 8

_OVERSUB_LOCK = threading.Lock()
_oversub_warned = False


def _warn_oversubscribed(resolved: int, cpus: int) -> None:
    """Warn (once per process) when the worker count exceeds the cores."""
    global _oversub_warned
    with _OVERSUB_LOCK:
        if _oversub_warned:
            return
        _oversub_warned = True
    logger.warning(
        "workers=%d exceeds os.cpu_count()=%d; results are unaffected "
        "but the extra workers only add scheduling overhead",
        resolved,
        cpus,
    )


def resolve_workers(
    workers: Union[int, str, None] = "auto",
    tasks: Optional[int] = None,
) -> int:
    """Turn a ``workers`` knob value into a concrete worker count.

    Precedence: an explicit argument beats the ``REPRO_WORKERS``
    environment variable, which beats the CPU count. Concretely:
    ``None`` and ``1`` mean serial; an explicit positive integer is
    taken as-is; ``"auto"`` (the default) uses ``REPRO_WORKERS`` when
    set, otherwise ``os.cpu_count()`` capped at ``_AUTO_WORKER_CAP``.
    ``tasks`` optionally caps the result at the available parallelism
    (no point spawning more workers than tasks). A resolution above
    the machine's core count logs a one-time warning — results never
    change, only scheduling overhead.
    """
    if workers is None:
        resolved = 1
    elif isinstance(workers, str):
        if workers != "auto":
            raise QueryError(f"unknown workers value {workers!r}")
        env = os.environ.get("REPRO_WORKERS", "").strip()
        if env:
            try:
                resolved = int(env)
            except ValueError:
                raise QueryError(
                    f"REPRO_WORKERS must be a positive integer, got {env!r}"
                )
            if resolved < 1:
                raise QueryError(
                    f"REPRO_WORKERS must be a positive integer, got {env!r}"
                )
        else:
            resolved = max(1, min(os.cpu_count() or 1, _AUTO_WORKER_CAP))
    else:
        resolved = int(workers)
        if resolved < 1:
            raise QueryError("workers must be a positive integer")
    cpus = os.cpu_count() or 1
    if resolved > cpus:
        _warn_oversubscribed(resolved, cpus)
    if tasks is not None:
        resolved = max(1, min(resolved, tasks))
    return resolved


class BlockPool:
    """Runs sample blocks in block order, on a lazily created thread pool.

    Parameters
    ----------
    workers:
        Resolved worker count (see :func:`resolve_workers`). With ``1``
        every block runs inline on the calling thread and no pool is
        ever created.

    Lifecycle
    ---------
    The executor is created on the first concurrent :meth:`map` and
    reused afterwards; :meth:`close` releases it. A closed pool stays
    usable: the executor is re-created on the next concurrent call.
    """

    def __init__(self, workers: int = 1) -> None:
        self.workers = int(workers)
        self._lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        """The reusable block executor, created on first use."""
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-block",
                )
            return self._pool

    def close(self) -> None:
        """Tear down the executor. Idempotent and not terminal."""
        with self._lock:
            pool = self._pool
            self._pool = None
        if pool is not None:
            pool.shutdown(wait=True)

    def map(
        self,
        fn: Callable[[int, int], _T],
        blocks: Sequence[Tuple[int, int]],
        last: Optional[Callable[[_T], bool]] = None,
    ) -> List[_T]:
        """``fn(block, samples)`` for each ``(block, samples)``, in order.

        Results come back in the order of ``blocks`` whichever worker
        ran them. When ``last`` is given, the result list ends at the
        first result for which ``last(result)`` holds: later blocks are
        not started on the serial path, and on the concurrent path
        their results and errors are waited for and dropped. The
        rank-count store uses this to keep only the in-order prefix up
        to a deadline-interrupted block, which is exactly what a serial
        run would have drawn.

        Each block runs in its own ``block`` span under the caller's
        active span, with the caller's metrics registry installed
        (worker threads start with a fresh context).

        Fault tolerance: a block that raises is retried **once** with
        the same arguments, so the same evaluator draws it from the
        same seed stream; a transient worker fault never changes what
        the block computes, only when. A second failure surfaces as
        :class:`~repro.core.errors.EvaluationError`. A
        :class:`~repro.core.errors.QueryError` (invalid arguments)
        would fail identically on retry and is raised unchanged.
        """
        parent = current_span()
        registry = active_registry()

        def attempt(task: Tuple[int, int]) -> _T:
            block, samples = task
            with use_registry(registry):
                with span_under(
                    parent, "block", block=block, samples=samples
                ) as block_span:
                    try:
                        return fn(block, samples)
                    except QueryError:
                        raise
                    except Exception as exc:
                        logger.warning(
                            "block %d failed (%s: %s); retrying once with "
                            "the same seed stream",
                            block,
                            type(exc).__name__,
                            exc,
                        )
                        metrics.inc("block_retries_total")
                        if block_span is not None:
                            block_span.set(retried=True)
                        try:
                            return fn(block, samples)
                        except Exception as retry_exc:
                            raise EvaluationError(
                                f"block {block} failed twice: {retry_exc}"
                            ) from retry_exc

        results: List[_T] = []
        if self.workers == 1 or len(blocks) <= 1:
            for task in blocks:
                results.append(attempt(task))
                if last is not None and last(results[-1]):
                    break
            return results
        pool = self._ensure_pool()
        futures = [pool.submit(attempt, task) for task in blocks]
        try:
            for future in futures:
                results.append(future.result())
                if last is not None and last(results[-1]):
                    break
        finally:
            # Never return while a dropped block is still drawing: it
            # would keep emitting into this query's span and registry.
            rest = futures[len(results):]
            for future in rest:
                future.cancel()
            wait(rest)
        return results
