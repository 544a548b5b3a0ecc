"""Deterministic sharded execution of Monte-Carlo estimators.

Sampling-based answers are embarrassingly parallel — the §VI-C error
bound ``O(1 / sqrt(s))`` does not care which worker drew which sample —
but naive parallelism destroys reproducibility: results would depend on
thread scheduling. This module shards a sample budget over a **fixed**
number of shards, gives each shard its own :class:`numpy.random.Generator`
derived from a root :class:`numpy.random.SeedSequence` (child seeds
depend only on the root seed and the shard index), and merges partial
results in shard order. Consequences:

- For a given ``(seed, shards)`` pair the merged counts and estimates
  are **bit-identical for any worker count** — workers only decide
  which thread happens to execute a shard, never what the shard
  computes.
- Shard evaluators are plain :class:`~repro.core.montecarlo.
  MonteCarloEvaluator` instances (or copula-aware subclasses via the
  ``factory`` hook). The sampler merges only what its callers use:
  score draws and rankings (the Fig. 12 samplers), rank counts (the
  rank-count store behind UTop-Rank, PT-k and Rank-Agg), and top-k
  frequencies (the Monte-Carlo TOP-k rung).

Shards run on a lazily created, reusable
:class:`~concurrent.futures.ThreadPoolExecutor`. The columnar kernels
spend their time inside NumPy, which releases the GIL, and worker
threads share the per-shard evaluators without pickling the database.
See docs/DEVELOPMENT.md, "Performance architecture".
"""

from __future__ import annotations

import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

from . import metrics
from .budget import Budget, SampleCounts
from .errors import EvaluationError, QueryError
from .metrics import active_registry, use_registry
from .montecarlo import MonteCarloEvaluator
from .trace import current_span, span_under
from .records import UncertainRecord

__all__ = [
    "ParallelSampler",
    "resolve_workers",
    "DEFAULT_SHARDS",
]

logger = logging.getLogger(__name__)

_T = TypeVar("_T")

#: Fixed default shard count. Shards — not workers — define the RNG
#: stream layout, so this must stay constant for results to be
#: comparable across machines with different core counts.
DEFAULT_SHARDS = 8

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
    (no point spawning more workers than shards). A resolution above
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


class ParallelSampler:
    """Sharded, deterministic front-end over per-shard evaluators.

    Parameters
    ----------
    records:
        The database (after any pruning); used by the default factory
        and, through its length, by the rank-count store.
    seed:
        Root seed. Shard ``i`` receives the ``i``-th child of
        ``SeedSequence(seed)``, so shard streams are independent and
        reproducible.
    workers:
        Worker count, ``"auto"``, or ``None``/1 for serial execution.
        Changing it never changes any result, only wall-clock time.
    shards:
        Number of sample shards (default :data:`DEFAULT_SHARDS`).
        Changing it *does* change the RNG stream layout and therefore
        the sampled values (not their distribution).
    factory:
        Optional ``(seed) -> MonteCarloEvaluator`` constructor for the
        per-shard evaluators; inject a copula-aware builder, or one
        that shares a precompiled sampling plan across shards, here.

    Determinism contract
    --------------------
    Every public method takes an optional ``seed`` (default 0) that is
    forwarded as the per-call seed of each shard evaluator, so results
    depend only on ``(constructor seed, shards, method, arguments)`` —
    never on call order, worker count, or thread scheduling.

    Lifecycle
    ---------
    The worker pool is created lazily and reused across calls;
    :meth:`close` (or the context-manager form) releases it. A closed
    sampler stays usable — the pool is re-created on the next call — so
    a shared computation cache may hand one sampler to several engines.
    """

    def __init__(
        self,
        records: Sequence[UncertainRecord],
        seed: int = 0,
        workers: Union[int, str, None] = "auto",
        shards: int = DEFAULT_SHARDS,
        factory: Optional[Callable[[int], MonteCarloEvaluator]] = None,
    ) -> None:
        if shards < 1:
            raise QueryError("shards must be a positive integer")
        self.records = list(records)
        self.shards = int(shards)
        self.workers = resolve_workers(workers, tasks=self.shards)
        self._seed_seq = np.random.SeedSequence(seed)
        if factory is None:
            factory = lambda s: MonteCarloEvaluator(self.records, seed=s)
        # Child seeds depend only on (seed, shard index): hash the
        # spawned child sequences down to ints so each shard evaluator
        # owns a full SeedSequence root for its per-call streams.
        child_seeds = [
            int(child.generate_state(1, dtype=np.uint64)[0])
            for child in self._seed_seq.spawn(self.shards)
        ]
        self._evaluators: List[MonteCarloEvaluator] = [
            factory(s) for s in child_seeds
        ]
        self._pool_lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------

    def _ensure_pool(self) -> ThreadPoolExecutor:
        """The reusable shard thread pool, created on first use."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=min(self.workers, self.shards),
                    thread_name_prefix="repro-shard",
                )
            return self._pool

    def close(self) -> None:
        """Tear down the worker pool. Idempotent.

        The sampler remains usable afterwards: the pool is re-created
        lazily on the next call.
        """
        with self._pool_lock:
            pool = self._pool
            self._pool = None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ParallelSampler":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # shard plumbing
    # ------------------------------------------------------------------

    def shard_sizes(self, samples: int) -> List[int]:
        """Deterministic near-even split of ``samples`` across shards."""
        if samples < 1:
            raise QueryError("need at least one sample")
        base, extra = divmod(samples, self.shards)
        return [base + (1 if i < extra else 0) for i in range(self.shards)]

    def _map_shards(
        self,
        fn: Callable[[int, int], _T],
        samples: int,
    ) -> List[Tuple[int, _T]]:
        """Run ``fn(shard_index, shard_samples)`` over all busy shards.

        Results come back in shard order regardless of which worker ran
        which shard; empty shards (budget smaller than the shard count)
        are skipped deterministically.

        Fault tolerance: a shard that raises is retried **once** with
        the same shard index — and therefore the same evaluator and the
        same ``SeedSequence`` child — so a transient worker fault never
        changes what the shard computes, only when. Because per-call
        streams are derived from ``(shard seed, call seed)`` alone, the
        retry reproduces the crashed attempt bit-for-bit. A second
        failure surfaces as :class:`~repro.core.errors.EvaluationError`.
        """
        tasks = [
            (idx, size)
            for idx, size in enumerate(self.shard_sizes(samples))
            if size > 0
        ]
        # Worker threads start with a fresh context: capture the active
        # span and metrics registry here, in the dispatching thread, and
        # re-install them inside each shard so per-shard spans land on
        # this query's trace and emissions hit this engine's registry.
        parent = current_span()
        registry = active_registry()

        def attempt(idx: int, size: int) -> _T:
            with use_registry(registry):
                with span_under(
                    parent, "shard", shard=idx, samples=size
                ) as shard_span:
                    try:
                        return fn(idx, size)
                    except QueryError:
                        # Invalid arguments fail identically on retry;
                        # surface them unchanged.
                        raise
                    except Exception as exc:
                        logger.warning(
                            "shard %d failed (%s: %s); retrying once with "
                            "the same seed stream",
                            idx,
                            type(exc).__name__,
                            exc,
                        )
                        metrics.inc("shard_retries_total")
                        if shard_span is not None:
                            shard_span.set(retried=True)
                        try:
                            return fn(idx, size)
                        except Exception as retry_exc:
                            raise EvaluationError(
                                f"shard {idx} failed twice: {retry_exc}"
                            ) from retry_exc

        if self.workers == 1 or len(tasks) <= 1:
            return [(idx, attempt(idx, size)) for idx, size in tasks]
        pool = self._ensure_pool()
        results = list(pool.map(lambda t: attempt(t[0], t[1]), tasks))
        return [(idx, result) for (idx, _), result in zip(tasks, results)]

    # ------------------------------------------------------------------
    # merged estimators
    # ------------------------------------------------------------------

    def sample_scores(self, samples: int, seed: int = 0) -> np.ndarray:
        """Draw ``(samples, n)`` scores, shards stacked in shard order."""

        def draw(idx: int, size: int) -> np.ndarray:
            return self._evaluators[idx].sample_scores(size, seed=seed)

        parts = self._map_shards(draw, samples)
        return np.vstack([part for _, part in parts])

    def sample_rankings(self, samples: int, seed: int = 0) -> np.ndarray:
        """Ranked sample rows (record indices by rank), shards stacked."""
        scores = self.sample_scores(samples, seed=seed)
        return np.argsort(-scores, axis=1, kind="stable")

    def rank_counts(
        self,
        samples: int,
        max_rank: Optional[int] = None,
        seed: int = 0,
        budget: Optional[Budget] = None,
    ) -> SampleCounts:
        """Merged budget-aware rank counts across all shards.

        Each shard checks the shared ``budget`` (deadline/cancellation)
        at its own chunk boundaries; merged ``done``/``requested``
        tallies report how much of the total request completed. Sample
        caps should be enforced by the *caller* granting an exact
        sample count via :meth:`Budget.take_samples` before calling —
        shards racing on a shared sample cap would make the grant split
        scheduling-dependent.
        """

        def count(idx: int, size: int) -> SampleCounts:
            return self._evaluators[idx].rank_counts(
                size, max_rank=max_rank, seed=seed, budget=budget
            )

        parts = self._map_shards(count, samples)
        merged = parts[0][1]
        for _, part in parts[1:]:
            merged = merged.merge(part)
        return merged

    # ------------------------------------------------------------------
    # empirical state distributions
    # ------------------------------------------------------------------

    def empirical_top_frequencies(
        self, k: int, samples: int, target: str = "prefix", seed: int = 0
    ) -> Dict[Hashable, float]:
        """Merged frequencies of observed top-k prefixes or sets."""

        def count(idx: int, size: int) -> Dict[Hashable, int]:
            return self._evaluators[idx].empirical_top_counts(
                k, size, target, seed=seed
            )

        merged: Dict[Hashable, int] = {}
        for _, part in self._map_shards(count, samples):
            for key, value in part.items():
                merged[key] = merged.get(key, 0) + value
        return {key: value / samples for key, value in merged.items()}
