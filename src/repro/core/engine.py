"""`RankingEngine` — the library's main entry point.

Ties the pieces of the paper together the way its evaluation does:

1. **Prune** the database with k-dominance (Algorithm 2) at the level the
   query allows (``j`` for UTop-Rank(i, j), ``k`` for TOP-k queries;
   rank aggregation needs all ranks and is never pruned).
2. **Pick an evaluation method**: exact (piecewise-polynomial integrals)
   when the densities allow it and the answer space is small enough to
   enumerate; Monte-Carlo integration for RECORD-RANK queries (the
   paper's §VI-C choice); multi-chain MCMC for TOP-k queries over large
   spaces (§VI-D).
3. **Return** typed answers with probabilities and execution metadata.

Every query family funnels through one dispatcher,
:meth:`RankingEngine.query`, which takes a frozen
:class:`~repro.core.queries.Query` spec; the public ``utop_rank`` /
``utop_prefix`` / ``utop_set`` / ``rank_aggregation`` /
``threshold_topk`` methods are thin wrappers that build specs. The
dispatcher owns the cross-cutting bookkeeping — timing, the cache
delta, degradation events, the optional per-query trace
(:mod:`repro.core.trace`), and metrics (:mod:`repro.core.metrics`) —
so it lives in exactly one place.

Example
-------
>>> from repro import uniform, certain
>>> from repro.core.engine import RankingEngine
>>> db = [certain("a1", 9.0), uniform("a2", 5.0, 8.0), certain("a3", 7.0)]
>>> engine = RankingEngine(db, seed=7)
>>> engine.utop_rank(1, 1).top.record_id
'a1'
"""

from __future__ import annotations

import hashlib
import logging
import math
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .budget import Budget, SampleCounts
from .cache import (
    CacheStats,
    ComputationCache,
    MigrationReport,
    fingerprint_records,
    query_events,
    shared_cache,
)
from .costmodel import (
    DEADLINE_HEADROOM,
    overlap_density,
    stage_seconds,
    stage_units,
)
from .errors import EvaluationError, QueryError
from .exact import ExactEvaluator, supports_exact
from .linext import count_prefixes, enumerate_prefixes
from .mcmc import TopKSimulation
from .metrics import MetricsRegistry, global_registry, use_registry
from .montecarlo import (
    MonteCarloEvaluator,
    compile_plan,
    select_top_rank_candidates,
)
from .numeric import wilson_half_width
from .parallel import BlockPool, resolve_workers
from .ppo import ProbabilisticPartialOrder
from .pruning import shrink_database
from .queries import (
    DegradationEvent,
    PrefixAnswer,
    Query,
    QueryResult,
    RankAggAnswer,
    RecordAnswer,
    SetAnswer,
)
from .rank_agg import optimal_rank_aggregation
from .records import UncertainRecord
from .trace import Span, activate, span
from .validation import validate_records

__all__ = ["RankingEngine"]

logger = logging.getLogger(__name__)


class _StageSkipped(EvaluationError):
    """A ladder stage declined to run (typically: budget already drained)."""


@dataclass(frozen=True)
class _TopK:
    """How one TOP-k family reads the shared k-prefix space.

    UTop-Set(k) is UTop-Prefix(k) with order ignored (§II-B): both are
    answered by enumerating, sampling, or walking k-prefixes, and differ
    only in how a prefix's record ids become an answer key.
    """

    #: MCMC target, empirical projection, and cache-artifact suffix.
    target: str
    #: Record ids (in rank order) -> answer key.
    key: Callable[[Iterable[str]], Hashable]
    #: ``(key, probability)`` -> answer object.
    answer: Callable[[Any, float], Any]
    #: :class:`ExactEvaluator` method scoring one key, looked up per call.
    scorer: str
    #: Canonical tie-break among equally probable keys.
    order: Callable[[Any], Any]
    #: What a budget-starved enumeration reports it never reached.
    noun: str


_TOPK: Dict[str, _TopK] = {
    "utop_prefix": _TopK(
        "prefix", tuple, PrefixAnswer, "prefix_probability",
        lambda key: key, "prefix",
    ),
    "utop_set": _TopK(
        "set", frozenset, SetAnswer, "top_set_probability",
        sorted, "candidate set",
    ),
}

#: kind -> (label for errors, its stages in ladder order). ``auto`` runs
#: the ladder minus the stages :meth:`RankingEngine._ladder` rules out;
#: any other method runs its one stage.
_STAGES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "utop_rank": ("UTop-Rank", ("exact", "montecarlo", "baseline")),
    "utop_prefix": (
        "UTop-Prefix", ("exact", "mcmc", "montecarlo", "baseline"),
    ),
    "utop_set": ("UTop-Set", ("exact", "mcmc", "montecarlo", "baseline")),
    "rank_aggregation": ("Rank-Agg", ("exact", "montecarlo", "baseline")),
    "rank_distribution": ("rank distributions", ("exact", "montecarlo")),
}


@dataclass
class _EvalContext:
    """Mutable per-query state shared between the dispatcher and evaluators.

    Replaces the per-method ``nonlocal`` bookkeeping the wrapper era
    copy-pasted: evaluators record degradation events, partial/truncated
    flags, confidence bounds, and diagnostics here, and
    :meth:`RankingEngine.query` folds the fields into the
    :class:`QueryResult` exactly once.
    """

    budget: Optional[Budget]
    method: str
    sampler_seed: int
    mcmc_seed: int
    events: List[DegradationEvent] = field(default_factory=list)
    partial: bool = False
    truncated: bool = False
    half_width: Optional[float] = None
    error_bound: Optional[float] = None
    diagnostics: Dict[str, Any] = field(default_factory=dict)
    pruned_size: int = 0
    used: str = ""


class RankingEngine:
    """High-level evaluator for ranking queries over uncertain scores.

    Parameters
    ----------
    records:
        The database ``D`` of :class:`UncertainRecord`.
    seed:
        Seed for all randomized evaluation (Monte-Carlo, MCMC). The
        default ``0`` makes every run reproducible out of the box; pass
        ``None`` to opt into OS entropy explicitly.
    prune:
        Whether to apply k-dominance pruning ahead of evaluation.
    exact_record_limit:
        Maximum (pruned) database size for which exact per-rank
        probabilities are computed; larger inputs use Monte-Carlo.
    prefix_enumeration_limit:
        Maximum number of distinct k-prefixes that the exact TOP-k path
        will enumerate; larger spaces switch to MCMC.
    samples:
        Default Monte-Carlo sample count (the paper's experiments use
        10,000).
    mcmc_chains / mcmc_steps / psrf_threshold:
        Multi-chain simulation parameters for TOP-k queries.
    copula:
        Optional :class:`~repro.core.correlation.GaussianCopula` over
        the records (in database order) modelling score correlation.
        When set, evaluation is restricted to the sampling-based methods
        that remain valid without independence: UTop-Rank, rank
        distributions, and rank aggregation count ranks, and
        UTop-Prefix/UTop-Set tally top-k prefixes, over the same
        correlated sample blocks (``method="montecarlo"``); exact and
        MCMC paths are refused.
        k-dominance pruning stays sound because dominance is a
        support-containment property that holds on every joint sample.
    workers:
        Threads for rank-count sample blocks and MCMC chains: an
        integer, ``"auto"``, or ``None`` (default), which means ``1``.
        The rank-count store splits every request into fixed
        ``SAMPLE_BLOCK`` pieces and block ``i`` is always drawn with
        seed ``i``; workers only decide which thread draws a block
        (:class:`~repro.core.parallel.BlockPool`). Every result is
        therefore identical for every worker count, and engines that
        differ only in ``workers`` share cached blocks; the knob only
        changes wall-clock time.
    budget:
        Optional default :class:`~repro.core.budget.Budget` applied to
        every query (a per-query ``budget=`` argument overrides it).
        With a budget in force, ``method="auto"`` degrades along the
        ladder exact → (MCMC, for TOP-k) → Monte-Carlo → score-median
        baseline instead of raising, recording a
        :class:`DegradationEvent` per sacrificed stage on the result;
        exact and MCMC rungs whose static price does not fit the
        remaining deadline are skipped before they start (see
        :meth:`_ladder`), and Monte-Carlo stages return best-so-far
        partial estimates with a Wilson confidence half-width when the
        budget drains mid-run.
    cache:
        The computation cache backing this engine (see
        :mod:`repro.core.cache`). ``None`` (default) gives the engine a
        private cache: every compiled plan, evaluator, pairwise
        integral, and Monte-Carlo sample block is reused across this
        engine's queries, with no coupling to other engines.
        ``"shared"`` joins the process-wide :func:`~repro.core.cache.
        shared_cache`, so engines over content-identical databases
        serve each other's work. Passing a
        :class:`~repro.core.cache.ComputationCache` instance shares
        exactly with whoever else holds it. Answers are unaffected by
        the choice — cached sample blocks reproduce cold runs bit for
        bit — only time and memory change; budgeted queries charge
        their budget only for samples the cache cannot supply.
    trace:
        When ``True``, every query opens a root :class:`~repro.core.
        trace.Span` with child spans per evaluation stage and attaches
        the tree to ``QueryResult.trace``. Off (the default) the span
        helpers are no-ops and answers are byte-identical to untraced
        runs; a per-query ``trace=`` argument overrides this default in
        either direction.
    metrics:
        The :class:`~repro.core.metrics.MetricsRegistry` this engine's
        queries emit into (counters such as ``queries_total`` and
        ``samples_drawn_total``, plus ``query_duration_seconds``
        histograms). ``None`` (default) uses the process-wide
        :func:`~repro.core.metrics.global_registry`; pass a private
        registry for isolated accounting. Metrics are always on — their
        cost is a few dictionary increments per query.
    """

    def __init__(
        self,
        records: Sequence[UncertainRecord],
        seed: Optional[int] = 0,
        prune: bool = True,
        exact_record_limit: int = 20,
        prefix_enumeration_limit: int = 20_000,
        samples: int = 10_000,
        mcmc_chains: int = 10,
        mcmc_steps: int = 3_000,
        psrf_threshold: float = 1.05,
        copula=None,
        workers: Union[int, str, None] = None,
        budget: Optional[Budget] = None,
        cache: Union[ComputationCache, str, None] = None,
        trace: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not records:
            raise QueryError("cannot rank an empty database")
        self.records = list(records)
        self.rng = np.random.default_rng(seed)
        # Resolve eagerly so a bad value fails at construction, not at
        # the first query.
        self.workers = resolve_workers(workers)
        # The block pool is per engine, not per cached evaluator, so a
        # shared cache never decides another engine's parallelism.
        self._pool = BlockPool(self.workers)
        self.prune = prune
        self.exact_record_limit = exact_record_limit
        self.prefix_enumeration_limit = prefix_enumeration_limit
        self.samples = samples
        self.mcmc_chains = mcmc_chains
        self.mcmc_steps = mcmc_steps
        self.psrf_threshold = psrf_threshold
        self.budget = budget
        self.copula = copula
        self.trace = trace
        self._metrics = metrics if metrics is not None else global_registry()
        if copula is not None and copula.dimension != len(self.records):
            raise QueryError(
                f"copula dimension {copula.dimension} does not match "
                f"database size {len(self.records)}"
            )
        if cache is None:
            self.cache: ComputationCache = ComputationCache()
        elif isinstance(cache, str):
            if cache != "shared":
                raise QueryError(f"unknown cache setting {cache!r}")
            self.cache = shared_cache()
        else:
            self.cache = cache
        # Stable per-engine stream roots, drawn once: queries become
        # pure functions of (records, constructor seed, query args), so
        # their sampled artifacts are addressable across queries — the
        # old per-call rng draws made every call a fresh stream and
        # therefore uncacheable. Two engines with equal seeds still
        # agree, and different seeds still diverge.
        self._sampler_seed = int(self.rng.integers(2**63))
        self._mcmc_seed = int(self.rng.integers(2**63))
        self._db_fp = fingerprint_records(self.records)
        if copula is None:
            self._copula_token: Optional[str] = None
        else:
            digest = hashlib.blake2b(
                np.ascontiguousarray(
                    copula.correlation, dtype=float
                ).tobytes(),
                digest_size=12,
            )
            self._copula_token = digest.hexdigest()
        # from_table() subscription state: when bound to a table, the
        # engine consumes its mutation deltas (changes_since) and
        # re-extracts records whenever a batch committed, migrating
        # delta-surviving cache artifacts (see _refresh_table).
        self._table: Optional[Any] = None
        self._table_scoring: Any = None
        self._table_payload: Optional[List[str]] = None
        self._table_version: Optional[int] = None
        self._refresh_lock = threading.Lock()
        self._last_migration: Optional[MigrationReport] = None

    # ------------------------------------------------------------------
    # construction from a table
    # ------------------------------------------------------------------

    @classmethod
    def from_table(
        cls,
        table: Any,
        scoring: Any,
        payload_columns: Optional[Sequence[str]] = None,
        **engine_kwargs: Any,
    ) -> "RankingEngine":
        """Build an engine directly over an ``UncertainTable``.

        Extracts records with ``table.to_records(..., validate=True)``
        and *subscribes to the table's mutation deltas*: every committed
        ``table.mutate()`` batch is delivered through
        ``table.changes_since`` at the next query, so answers always
        reflect the live table without hand-wired ``to_records``
        plumbing at every call site — and because the deltas name
        exactly which record keys changed, the engine migrates
        delta-surviving cache artifacts (pairwise integrals, the fitted
        cost model) to the new fingerprint instead of discarding them
        (:meth:`~repro.core.cache.ComputationCache.migrate`).

        Parameters
        ----------
        table:
            An :class:`~repro.db.table.UncertainTable` (duck-typed:
            anything with ``to_records`` and the ``changes_since``
            delta API).
        scoring:
            The scoring spec forwarded to ``to_records``.
        payload_columns:
            Optional payload columns forwarded to ``to_records``.
        **engine_kwargs:
            Any :class:`RankingEngine` constructor argument
            (``seed=``, ``workers=``, ``trace=``, ...).
        """
        records = table.to_records(
            scoring, payload_columns=payload_columns, validate=True
        )
        engine = cls(records, **engine_kwargs)
        engine._table = table
        engine._table_scoring = scoring
        engine._table_payload = (
            list(payload_columns) if payload_columns is not None else None
        )
        engine._table_version = table.changes_since(None).version
        return engine

    def _refresh_table(self) -> None:
        """Re-extract records if the subscribed table has moved on.

        When the table delivers deltas for the gap, cached artifacts
        untouched by them are migrated to the new fingerprint; when it
        cannot (a delta log that no longer reaches back to this
        engine's subscription point), the refresh falls back to
        wholesale invalidation — recompute, never a wrong answer. The
        refresh emits into this engine's registry, like its queries.
        """
        if self._table is None:
            return
        with self._refresh_lock, use_registry(self._metrics):
            changes = self._table.changes_since(self._table_version)
            if changes.version == self._table_version:
                return
            dirty: set = set()
            if changes.deltas is not None:
                for delta in changes.deltas:
                    dirty |= delta.touched
            # Validation is the O(n)-with-a-big-constant part of a
            # refresh. When the delta names exactly which keys moved,
            # records outside it are byte-unchanged since the validated
            # subscription snapshot, so only the dirty ones need
            # re-checking; without deltas, validate wholesale.
            records = self._table.to_records(
                self._table_scoring,
                payload_columns=self._table_payload,
                validate=changes.deltas is None,
            )
            if changes.deltas is not None and dirty:
                touched = [r for r in records if r.record_id in dirty]
                if touched:
                    validate_records(touched, raise_on_issue=True)
            if not records:
                raise QueryError("cannot rank an empty database")
            if self.copula is not None and self.copula.dimension != len(
                records
            ):
                raise QueryError(
                    f"copula dimension {self.copula.dimension} does not "
                    f"match database size {len(records)}"
                )
            old_fp = self._db_fp
            self.records = list(records)
            self._db_fp = fingerprint_records(self.records)
            self._table_version = changes.version
            if self._db_fp == old_fp or changes.deltas is None:
                return
            self._last_migration = self.cache.migrate(
                old_fp, self._db_fp, dirty
            )

    @property
    def table(self) -> Optional[Any]:
        """The subscribed table when built via :meth:`from_table`."""
        return self._table

    @property
    def last_migration(self) -> Optional[MigrationReport]:
        """The most recent delta-aware cache migration, if any."""
        return self._last_migration

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    @property
    def database_fingerprint(self) -> str:
        """Content fingerprint of the ranked records (cache identity).

        Stable across engines holding identical records; the serving
        layer keys request coalescing and circuit breakers on it.
        """
        self._refresh_table()
        return self._db_fp

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry this engine's queries emit into."""
        return self._metrics

    def ppo(self) -> ProbabilisticPartialOrder:
        """The partial order induced by the full database (cached)."""
        return self._ppo(self._db_fp, self.records)

    def _pairwise_cache(self):
        """The per-database Eq. 1 memo shared by exact/MCMC/rank-agg."""
        return self.cache.pairwise(self._db_fp)

    def _ppo(
        self, fp: str, subset: Sequence[UncertainRecord]
    ) -> ProbabilisticPartialOrder:
        def build() -> ProbabilisticPartialOrder:
            with span("pairwise", records=len(subset)):
                return ProbabilisticPartialOrder(
                    subset, cache=self._pairwise_cache()
                )

        return self.cache.artifact("ppo", fp, build)

    def _pruned_entry(
        self, level: int
    ) -> Tuple[List[UncertainRecord], str]:
        """``(pruned records, their fingerprint)`` for a dominance level."""
        if not self.prune or level >= len(self.records):
            return self.records, self._db_fp

        def build() -> Tuple[List[UncertainRecord], str]:
            kept = shrink_database(self.records, level).kept
            return kept, fingerprint_records(kept)

        return self.cache.artifact("prune", (self._db_fp, level), build)

    def _plan_for(self, fp: str, subset: Sequence[UncertainRecord]):
        """The compiled sampling plan for ``subset``, by fingerprint."""

        def build():
            with span("plan-compile", records=len(subset)):
                return compile_plan(subset)

        return self.cache.artifact("plan", fp, build)

    def _exact(
        self, fp: str, subset: Sequence[UncertainRecord]
    ) -> ExactEvaluator:
        """The (memoizing) exact evaluator for ``subset``, by fingerprint."""
        return self.cache.artifact("exact", fp, lambda: ExactEvaluator(subset))

    def _stream_seeds(self, seed: Optional[int]) -> Tuple[int, int]:
        """``(sampler root, mcmc root)`` for a per-query seed override.

        ``None`` keeps the engine's constructor-derived streams (the
        cache-addressable default). An explicit override is hashed into
        the same 63-bit space, independently of the constructor seed:
        two engines built with different seeds still agree on a query
        carrying the same ``seed=``, which is what makes per-query
        seeds a cross-engine reproducibility handle.
        """
        if seed is None:
            return self._sampler_seed, self._mcmc_seed
        digest = hashlib.blake2b(
            f"query-seed:{int(seed)}".encode("utf-8"), digest_size=16
        ).digest()
        return (
            int.from_bytes(digest[:8], "big") % (2**63),
            int.from_bytes(digest[8:], "big") % (2**63),
        )

    def _backend_key(self, sampler_seed: Optional[int] = None) -> Tuple:
        """Identity of this engine's sampling stream.

        Keys every sampled artifact together with the database
        fingerprint: the sampler seed (the engine's, or a per-query
        override) and the copula. The worker count is deliberately
        absent: results are worker-invariant by contract, so engines
        that differ only in ``workers`` share sampled artifacts.
        """
        seed = self._sampler_seed if sampler_seed is None else sampler_seed
        base: Tuple = ("mc", seed)
        if self._copula_token is not None:
            base = base + ("copula", self._copula_token)
        return base

    def _mcmc_call_seed(
        self,
        target: str,
        k: int,
        l: int,
        mcmc_seed: Optional[int] = None,
    ) -> int:
        """Deterministic per-query MCMC seed (stable across repeats)."""
        root = self._mcmc_seed if mcmc_seed is None else mcmc_seed
        token = (
            f"{root}:{target}:{k}:{l}:"
            f"{self.mcmc_chains}:{self.mcmc_steps}"
        )
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8)
        return int.from_bytes(digest.digest(), "big")

    def _sampler(
        self,
        subset: Sequence[UncertainRecord],
        fp: str,
        sampler_seed: Optional[int] = None,
    ) -> MonteCarloEvaluator:
        """Monte-Carlo evaluator over ``subset``, cached by fingerprint.

        Built on the shared compiled sampling plan for ``subset``. A
        Gaussian copula marginalizes to any record subset by taking the
        corresponding correlation submatrix, so pruned databases keep
        exactly the joint distribution of the surviving records.
        """
        seed = self._sampler_seed if sampler_seed is None else sampler_seed

        def build() -> MonteCarloEvaluator:
            plan = self._plan_for(fp, subset)
            if self.copula is None:
                return MonteCarloEvaluator(subset, seed=seed, plan=plan)
            from .correlation import (
                CorrelatedMonteCarloEvaluator,
                GaussianCopula,
            )

            wanted = {rec.record_id for rec in subset}
            idx = [
                i
                for i, rec in enumerate(self.records)
                if rec.record_id in wanted
            ]
            sub = self.copula.correlation[np.ix_(idx, idx)]
            return CorrelatedMonteCarloEvaluator(
                subset, GaussianCopula(sub), seed=seed, plan=plan
            )

        return self.cache.artifact(
            "sampler", (fp, self._backend_key(sampler_seed)), build
        )

    def _rank_counts(
        self,
        fp: str,
        sampler: MonteCarloEvaluator,
        samples: int,
        max_rank: Optional[int] = None,
        budget: Optional[Budget] = None,
        sampler_seed: Optional[int] = None,
        tally: bool = False,
    ) -> SampleCounts:
        """Memoized rank counts with deterministic top-up (see cache).

        Missing sample blocks run on this engine's block pool.
        """
        return self.cache.rank_counts(
            fp,
            self._backend_key(sampler_seed),
            sampler,
            samples,
            max_rank=max_rank,
            budget=budget,
            pool=self._pool,
            tally=tally,
        )

    def _sampled_counts(
        self,
        ctx: _EvalContext,
        subset: Sequence[UncertainRecord],
        fp: str,
        requested: int,
        depth: int,
        tally: bool = False,
    ) -> SampleCounts:
        """A Monte-Carlo rung's counts (or top-``depth`` tally) from the store.

        Skips the rung when no sample is granted, and flags
        ``ctx.partial`` with a ``clipped`` event when fewer than
        ``requested`` were drawn.
        """
        sampler = self._sampler(subset, fp, ctx.sampler_seed)
        # The cache — not the block threads — takes the sample grant for
        # whatever cached blocks cannot cover, so the number of fresh
        # samples drawn is a pure function of budget state and cache
        # contents, never of scheduling (the determinism-under-budget
        # contract).
        with span("sample", requested=requested) as sample_span:
            sc = self._rank_counts(
                fp,
                sampler,
                requested,
                max_rank=depth,
                budget=ctx.budget,
                sampler_seed=ctx.sampler_seed,
                tally=tally,
            )
            if sample_span is not None:
                sample_span.set(done=sc.done)
        if sc.done == 0:
            raise _StageSkipped(
                f"sample budget exhausted ({sc.reason or 'samples'})"
            )
        if sc.partial:
            ctx.partial = True
            ctx.events.append(
                DegradationEvent(
                    "montecarlo",
                    "clipped",
                    sc.reason or f"sample cap granted {sc.done}/{requested}",
                )
            )
        return sc

    def _guard_copula(self, method: str) -> str:
        """Map/refuse methods that assume independence under a copula."""
        if self.copula is None:
            return method
        if method == "auto":
            return "montecarlo"
        if method in ("exact", "mcmc"):
            raise QueryError(
                f"method {method!r} assumes independent scores and is "
                "invalid when a copula is set; use 'montecarlo'"
            )
        return method

    def _ladder(
        self,
        kind: str,
        method: str,
        subset: Sequence[UncertainRecord],
        fp: str,
        depth: Optional[int],
        budget: Optional[Budget] = None,
    ) -> Tuple[str, List[str], Dict[str, str]]:
        """``(method, stage names, skipped)`` of ``method`` for ``kind``.

        The one place the ladder policy lives: the copula guard, the
        exact rung's admission test (densities plus the record limit,
        or — for TOP-k — a prefix space within the enumeration limit),
        method validation, and the deadline check. ``auto`` (after the
        copula guard) yields the ladder in order; any other method
        yields its single stage.

        Under a live ``budget``, ``auto`` also drops the leading exact
        and MCMC rungs that cannot finish: one whose static price
        (:meth:`_price`) exceeds ``DEADLINE_HEADROOM`` of the remaining
        time, or an exact TOP-k rung whose prefix space exceeds the
        budget's enumeration allowance. ``skipped`` maps each dropped
        rung, in ladder order, to the reason; all of them precede the
        returned names. Dropping stops at the first rung that fits, the
        rest being its fallbacks, so Monte-Carlo and the baseline are
        never dropped. An expired budget drops nothing here: its rungs
        are skipped by :meth:`_run_stages`.
        """
        method = self._guard_copula(method)
        label, stages = _STAGES[kind]
        if method != "auto":
            if method not in stages:
                raise QueryError(f"unknown method {method!r} for {label}")
            return method, [method], {}
        exact = supports_exact(subset)
        space: Optional[int] = None
        if exact and kind in _TOPK:
            space = self._prefix_space(fp, subset, depth)
            exact = (
                space is not None and space <= self.prefix_enumeration_limit
            )
        elif exact:
            exact = len(subset) <= self.exact_record_limit
        names = [name for name in stages if exact or name != "exact"]
        skipped: Dict[str, str] = {}
        if budget is None or budget.expired():
            return method, names, skipped
        remaining = budget.time_remaining()
        enumerable = budget.enumeration_remaining()
        for name in names:
            if name not in ("exact", "mcmc"):
                break
            if (
                name == "exact"
                and space is not None
                and enumerable is not None
                and space > enumerable
            ):
                skipped[name] = (
                    f"prefix space {space} exceeds enumeration "
                    f"allowance {enumerable}"
                )
                continue
            if remaining is None:
                break
            predicted = self._price(kind, name, subset, fp, depth)
            allowance = DEADLINE_HEADROOM * remaining
            if predicted <= allowance:
                break
            skipped[name] = (
                f"predicted {predicted:.4f}s exceeds "
                f"{allowance:.4f}s allowance"
            )
        return method, names[len(skipped):], skipped

    def _price(
        self,
        kind: str,
        stage: str,
        subset: Sequence[UncertainRecord],
        fp: str,
        depth: int,
    ) -> float:
        """Static predicted seconds of one ``kind`` rung over ``subset``.

        A pure function of the records, the depth and the engine's
        settings (:mod:`repro.core.costmodel`), so the deadline check
        never depends on what this engine ran before.
        """
        space = (
            self._prefix_space(fp, subset, depth)
            if stage == "exact" and kind in _TOPK
            else None
        )
        units = stage_units(
            kind,
            stage,
            len(subset),
            depth,
            density=overlap_density(subset),
            prefix_space=space,
            samples=self.samples,
            chains=self.mcmc_chains,
            steps=self.mcmc_steps,
        )
        return stage_seconds(kind, stage, units)

    def _dispatch(
        self,
        kind: str,
        ctx: _EvalContext,
        subset: Sequence[UncertainRecord],
        fp: str,
        depth: int,
        runners: Dict[str, Callable[[], List]],
    ) -> List:
        """Run ``ctx.method``'s stages for ``kind``; record dropped rungs."""
        _, names, skipped = self._ladder(
            kind, ctx.method, subset, fp, depth, ctx.budget
        )
        for name, reason in skipped.items():
            ctx.events.append(DegradationEvent(name, "skipped", reason))
        ctx.used, answers = self._run_stages(
            [(name, runners[name]) for name in names], ctx.budget, ctx.events
        )
        return answers

    def _effective_budget(self, budget: Optional[Budget]) -> Optional[Budget]:
        """Per-query budget override, falling back to the engine default."""
        return budget if budget is not None else self.budget

    def cache_stats(self) -> CacheStats:
        """Live counters of this engine's computation cache.

        Hits, misses, LRU evictions, retained bytes, and top-up
        extensions (rank-count requests partially served from cached
        sample blocks). For a ``"shared"`` cache the counters cover all
        participating engines.
        """
        return self.cache.stats()

    def _median_ranking(
        self, subset: Sequence[UncertainRecord]
    ) -> List[UncertainRecord]:
        """Deterministic ranking by median score (the degradation floor).

        Collapses each record's score distribution to its median
        (``ppf(0.5)``; the point value for deterministic records) and
        sorts descending with the record-id tie-breaker. A quantile
        that fails with :class:`EvaluationError` — or comes back
        non-finite — falls back to the interval midpoint with a logged
        warning, so the floor stays available for any record that
        passed model validation; genuinely unexpected errors propagate
        instead of being silently swallowed.
        """

        def median(rec: UncertainRecord) -> float:
            if rec.is_deterministic:
                return rec.lower
            try:
                value = float(rec.score.ppf(0.5))
            except EvaluationError as exc:
                logger.warning(
                    "median of record %r failed (%s: %s); using the "
                    "interval midpoint",
                    rec.record_id,
                    type(exc).__name__,
                    exc,
                )
                return 0.5 * (rec.lower + rec.upper)
            if not math.isfinite(value):
                return 0.5 * (rec.lower + rec.upper)
            return value

        return sorted(
            subset, key=lambda rec: (-median(rec), rec.record_id)
        )

    def _run_stages(
        self,
        stages: Sequence[Tuple[str, Callable[[], List]]],
        budget: Optional[Budget],
        events: List[DegradationEvent],
    ) -> Tuple[str, List]:
        """Drive the degradation ladder over ``stages`` in order.

        Each stage is a ``(name, thunk)`` pair; the first thunk that
        returns supplies the answers. A stage that raises
        :class:`EvaluationError` (or declines via ``_StageSkipped``) is
        recorded as a :class:`DegradationEvent` and the ladder falls
        through to the next rung — unless it is the *only* stage
        (an explicitly requested method), in which case the error
        propagates unchanged. Expensive stages are skipped outright
        when the budget is already expired; the baseline rung is free
        and always allowed to run. Each attempted stage runs under a
        child span named after it, so traces show degraded attempts
        alongside the rung that finally answered.
        """

        def attempt(name: str, thunk: Callable[[], List]) -> List:
            with span(name) as stage_span:
                try:
                    answers = thunk()
                except EvaluationError:
                    if stage_span is not None:
                        stage_span.set(outcome="degraded")
                    raise
                if stage_span is not None:
                    stage_span.set(outcome="ok")
                return answers

        total = len(stages)
        last_error: Optional[EvaluationError] = None
        for index, (name, thunk) in enumerate(stages):
            if (
                budget is not None
                and name != "baseline"
                and budget.expired()
            ):
                reason = budget.exhausted_reason() or "deadline"
                events.append(DegradationEvent(name, "skipped", reason))
                last_error = EvaluationError(
                    f"budget exhausted before the {name} stage ({reason})"
                )
                continue
            try:
                answers = attempt(name, thunk)
            except _StageSkipped as skip:
                events.append(DegradationEvent(name, "skipped", str(skip)))
                last_error = skip
                continue
            except EvaluationError as exc:
                if total == 1:
                    raise
                events.append(
                    DegradationEvent(
                        name, "failed", f"{type(exc).__name__}: {exc}"
                    )
                )
                last_error = exc
                continue
            if index > 0:
                events.append(
                    DegradationEvent(
                        name, "fallback", "earlier stages degraded"
                    )
                )
            return name, answers
        if last_error is not None:
            raise last_error
        raise EvaluationError("no evaluation stage available")

    # ------------------------------------------------------------------
    # the query dispatcher
    # ------------------------------------------------------------------

    #: kind -> bound evaluator method name (one entry per QUERY_KINDS).
    _EVAL: Dict[str, str] = {
        "utop_rank": "_eval_top_rank",
        "utop_prefix": "_eval_topk",
        "utop_set": "_eval_topk",
        "rank_aggregation": "_eval_rank_aggregation",
        "threshold_topk": "_eval_top_rank",
    }

    def query(self, spec: Query) -> QueryResult:
        """Evaluate one frozen :class:`Query` spec.

        The single dispatch point every query family funnels through:
        it refreshes a subscribed table, resolves the per-query seed
        and budget, opens the root trace span (honoring the engine's
        ``trace`` default and the spec's override), installs this
        engine's metrics registry for every emission point below, runs
        the evaluator for ``spec.kind``, and folds the bookkeeping —
        elapsed time, the query's own cache events, degradation
        events, diagnostics, the span tree — into one
        keyword-constructed :class:`QueryResult`.
        """
        evaluator_name = self._EVAL.get(spec.kind)
        if evaluator_name is None:
            raise QueryError(f"unknown query kind {spec.kind!r}")
        self._refresh_table()
        start = time.perf_counter()
        sampler_seed, mcmc_seed = self._stream_seeds(spec.seed)
        ctx = _EvalContext(
            budget=self._effective_budget(spec.budget),
            method=self._guard_copula(spec.method),
            sampler_seed=sampler_seed,
            mcmc_seed=mcmc_seed,
        )
        enabled = self.trace if spec.trace is None else spec.trace
        root: Optional[Span] = (
            Span(
                "query",
                kind=spec.kind,
                method=ctx.method,
                database_size=len(self.records),
            )
            if enabled
            else None
        )
        evaluate = getattr(self, evaluator_name)
        try:
            with (
                query_events() as cache_events,
                use_registry(self._metrics),
                activate(root),
            ):
                answers = evaluate(spec, ctx)
        except Exception as exc:
            if root is not None:
                root.end()
            self._metrics.inc("query_errors_total", query=spec.kind)
            logger.debug(
                "query %s failed (%s: %s)",
                spec.kind,
                type(exc).__name__,
                exc,
            )
            raise
        if root is not None:
            root.set(method_used=ctx.used, pruned_size=ctx.pruned_size)
            root.end()
        elapsed = time.perf_counter() - start
        self._metrics.inc("queries_total", query=spec.kind, method=ctx.used)
        self._metrics.observe(
            "query_duration_seconds",
            elapsed,
            query=spec.kind,
            method=ctx.used,
        )
        for event in ctx.events:
            self._metrics.inc(
                "degradation_events_total",
                stage=event.stage,
                action=event.action,
            )
        now = self.cache.stats()
        return QueryResult(
            answers=answers,
            method=ctx.used,
            elapsed=elapsed,
            database_size=len(self.records),
            pruned_size=ctx.pruned_size,
            error_bound=ctx.error_bound,
            diagnostics=ctx.diagnostics,
            partial=ctx.partial,
            truncated=ctx.truncated,
            confidence_half_width=ctx.half_width,
            degradation=ctx.events,
            cache=CacheStats(
                bytes=now.bytes, entries=now.entries, **cache_events
            ).to_dict(),
            trace=root,
        )

    # ------------------------------------------------------------------
    # RECORD-RANK queries (Def. 4)
    # ------------------------------------------------------------------

    def utop_rank(
        self,
        i: int,
        j: int,
        l: int = 1,
        method: str = "auto",
        samples: Optional[int] = None,
        budget: Optional[Budget] = None,
        seed: Optional[int] = None,
        trace: Optional[bool] = None,
    ) -> QueryResult:
        """Evaluate l-UTop-Rank(i, j).

        ``method`` is ``"auto"``, ``"exact"``, ``"montecarlo"``, or
        ``"baseline"`` (the median-score collapse). Under ``"auto"``
        with a resource ``budget``, evaluation degrades along
        exact → Monte-Carlo → baseline instead of raising; the result
        records the ladder steps taken, carries ``partial=True`` for
        clipped Monte-Carlo estimates, and reports a Wilson confidence
        half-width for the top answer of a partial estimate. ``seed``
        overrides the engine's sampling streams for this query only;
        ``trace`` overrides the engine's tracing default.
        """
        return self.query(
            Query(
                kind="utop_rank",
                i=i,
                j=j,
                l=l,
                method=method,
                samples=samples,
                budget=budget,
                seed=seed,
                trace=trace,
            )
        )

    def _eta(
        self,
        kind: str,
        ctx: _EvalContext,
        subset: Sequence[UncertainRecord],
        fp: str,
        depth: int,
        requested: int,
        project: Callable[[np.ndarray, Optional[int]], List],
    ) -> List:
        """Build ``eta[t, r] = Pr(rank(t) = r + 1)`` on the ladder; project it.

        The one stage behind every RECORD-RANK-style answer (Eq. 7):
        each rung builds the ``(len(subset), depth)`` matrix its own way
        — the exact DP, the rank-count store, or the median-collapsed
        database's permutation matrix — and returns
        ``project(matrix, samples)``. ``samples`` is the draw count
        behind a sampled matrix, ``None`` for the exact one, and ``0``
        for the baseline's. A clipped Monte-Carlo rung flags
        ``ctx.partial`` before it projects, so the projection can
        attach a confidence half-width.
        """
        budget = ctx.budget

        def run_exact() -> List:
            evaluator = self._exact(fp, subset)
            with span("dp", records=len(subset), max_rank=depth):
                matrix = evaluator.rank_probability_matrix(
                    max_rank=depth, budget=budget
                )
            with span("aggregate"):
                return project(matrix, None)

        def run_montecarlo() -> List:
            sc = self._sampled_counts(ctx, subset, fp, requested, depth)
            with span("aggregate"):
                return project(sc.counts / sc.done, sc.done)

        def run_baseline() -> List:
            # Under the median collapse every record holds its median's
            # rank with certainty: eta is a (truncated) permutation.
            position = {
                rec.record_id: rank
                for rank, rec in enumerate(self._median_ranking(subset))
            }
            matrix = np.zeros((len(subset), min(depth, len(subset))))
            for t, rec in enumerate(subset):
                if position[rec.record_id] < matrix.shape[1]:
                    matrix[t, position[rec.record_id]] = 1.0
            return project(matrix, 0)

        runners = {
            "exact": run_exact,
            "montecarlo": run_montecarlo,
            "baseline": run_baseline,
        }
        return self._dispatch(kind, ctx, subset, fp, depth, runners)

    def _eval_top_rank(
        self, spec: Query, ctx: _EvalContext
    ) -> List[RecordAnswer]:
        """UTop-Rank(i, j) and PT-k: a column-window sum over eta.

        PT-k is UTop-Rank(1, k) over every pruned record, cut at the
        threshold instead of at ``l``; both plan and fit costs as
        ``utop_rank``.
        """
        if spec.kind == "threshold_topk":
            i, j, threshold = 1, spec.k, spec.threshold
        else:
            i, j, threshold = spec.i, spec.j, None
        with span("prune", level=j):
            pruned, fp = self._pruned_entry(j)
        ctx.pruned_size = len(pruned)
        l = spec.l if threshold is None else len(pruned)
        requested = spec.samples or self.samples

        def project(matrix: np.ndarray, samples: Optional[int]) -> List:
            pairs = select_top_rank_candidates(pruned, matrix, i, j, l)
            if ctx.partial and pairs:
                ctx.half_width = wilson_half_width(pairs[0][1], samples)
            return [
                RecordAnswer(rec.record_id, prob)
                for rec, prob in pairs
                if threshold is None or prob >= threshold
            ]

        return self._eta("utop_rank", ctx, pruned, fp, j, requested, project)

    def rank_distribution(
        self,
        record_id: str,
        max_rank: Optional[int] = None,
        method: str = "auto",
        samples: Optional[int] = None,
    ) -> np.ndarray:
        """Full rank distribution ``eta_r(t)`` of one record.

        Returns a vector of length ``max_rank`` (default: the database
        size) whose ``r``-th entry is the probability that the record
        occupies rank ``r + 1`` across linear extensions. Exact when the
        densities allow it and the database is small; Monte-Carlo
        otherwise.
        """
        if max_rank is not None and max_rank < 1:
            raise QueryError("max_rank must be positive")
        if samples is not None and samples < 1:
            raise QueryError("samples must be positive")
        self._refresh_table()
        if all(rec.record_id != record_id for rec in self.records):
            raise QueryError(f"record {record_id!r} is not in this database")
        _, (method, *_), _ = self._ladder(
            "rank_distribution", method, self.records, self._db_fp, None
        )
        if method == "exact":
            return self._exact(self._db_fp, self.records).rank_probabilities(
                record_id, max_rank=max_rank
            )
        with use_registry(self._metrics):
            sampler = self._sampler(self.records, self._db_fp)
            sc = self._rank_counts(
                self._db_fp,
                sampler,
                samples or self.samples,
                max_rank=max_rank,
            )
        matrix = sc.counts / sc.done
        index = next(
            i
            for i, rec in enumerate(self.records)
            if rec.record_id == record_id
        )
        return matrix[index]

    # ------------------------------------------------------------------
    # related-work semantics expressed in the paper's model
    # ------------------------------------------------------------------

    def global_topk(
        self,
        k: int,
        method: str = "auto",
        budget: Optional[Budget] = None,
        seed: Optional[int] = None,
        trace: Optional[bool] = None,
    ) -> QueryResult:
        """Global-Top-k semantics under score uncertainty.

        The analog of Zhang & Chomicki's Global-Top-k [16] in the
        paper's model: the ``k`` records with the highest probability of
        ranking in the top ``k`` — exactly ``k``-UTop-Rank(1, k).
        """
        if k < 1:
            raise QueryError("k must be positive")
        return self.utop_rank(
            1, k, l=k, method=method, budget=budget, seed=seed, trace=trace
        )

    def threshold_topk(
        self,
        k: int,
        threshold: float,
        method: str = "auto",
        budget: Optional[Budget] = None,
        seed: Optional[int] = None,
        trace: Optional[bool] = None,
    ) -> QueryResult:
        """PT-k semantics under score uncertainty (Hua et al. [17]).

        All records whose probability of ranking in the top ``k``
        reaches ``threshold``; the answer size is data-dependent
        (possibly empty, possibly larger than ``k``).
        """
        return self.query(
            Query(
                kind="threshold_topk",
                k=k,
                threshold=threshold,
                method=method,
                budget=budget,
                seed=seed,
                trace=trace,
            )
        )

    # ------------------------------------------------------------------
    # TOP-k queries (Defs. 5 and 6)
    # ------------------------------------------------------------------

    def _prefix_space(
        self, fp: str, subset: Sequence[UncertainRecord], k: int
    ) -> Optional[int]:
        """Cached ``count_prefixes`` over the (cached) partial order.

        ``None`` means the space exceeds the counting cap — cached too,
        so an uncountably large order is not re-walked on every query.
        """

        def build() -> Optional[int]:
            try:
                return count_prefixes(
                    self._ppo(fp, subset), k, max_states=200_000
                )
            except EvaluationError:
                return None

        return self.cache.artifact("prefix-space", (fp, k), build)

    def _enumerate_topk(
        self,
        shape: _TopK,
        fp: str,
        subset: Sequence[UncertainRecord],
        k: int,
        budget: Optional[Budget] = None,
    ) -> Tuple[List[Tuple[Hashable, float]], Optional[str]]:
        """Scored answer keys, best-first, plus why enumeration stopped.

        One pass over the k-prefixes of ``subset``. Each step checks the
        cap on distinct keys, then charges ``budget`` (when given) one
        enumeration state, then scores the prefix's key the first time
        it is seen. The stop reason is ``None`` (space exhausted),
        ``"cap"`` (``prefix_enumeration_limit`` distinct keys reached),
        or the budget's exhausted reason. Independent of ``l`` (answers
        are a slice of the sorted list), so one unbudgeted enumeration
        serves every follow-up ``l``.
        """
        score = getattr(self._exact(fp, subset), shape.scorer)
        ppo = self._ppo(fp, subset)
        scored: Dict[Hashable, float] = {}
        stop: Optional[str] = None
        attributes: Dict[str, Any] = {"k": k}
        if budget is not None:
            attributes["budgeted"] = True
        with span("enumerate", **attributes) as enum_span:
            for prefix in enumerate_prefixes(ppo, k):
                if len(scored) >= self.prefix_enumeration_limit:
                    stop = "cap"
                    break
                if budget is not None and not budget.consume_enumeration():
                    stop = budget.exhausted_reason() or "enumeration"
                    break
                key = shape.key(rec.record_id for rec in prefix)
                if key not in scored:
                    scored[key] = score(key)
            if enum_span is not None and budget is None:
                enum_span.set(enumerated=len(scored), clipped=stop is not None)
        ranked = sorted(
            scored.items(), key=lambda kv: (-kv[1], shape.order(kv[0]))
        )
        return ranked, stop

    def utop_prefix(
        self,
        k: int,
        l: int = 1,
        method: str = "auto",
        budget: Optional[Budget] = None,
        seed: Optional[int] = None,
        trace: Optional[bool] = None,
    ) -> QueryResult:
        """Evaluate l-UTop-Prefix(k).

        ``method``: ``"auto"``, ``"exact"`` (enumerate + integrate),
        ``"mcmc"`` (multi-chain simulation), ``"montecarlo"``
        (empirical frequencies over sampled rankings), or ``"baseline"``
        (median-score collapse). Under ``"auto"`` the ladder is
        exact → MCMC → Monte-Carlo → baseline; a clipped enumeration
        marks the result ``truncated=True``, and budget-stopped stages
        return best-so-far answers with ``partial=True``.
        """
        return self.query(
            Query(
                kind="utop_prefix",
                k=k,
                l=l,
                method=method,
                budget=budget,
                seed=seed,
                trace=trace,
            )
        )

    def utop_set(
        self,
        k: int,
        l: int = 1,
        method: str = "auto",
        budget: Optional[Budget] = None,
        seed: Optional[int] = None,
        trace: Optional[bool] = None,
    ) -> QueryResult:
        """Evaluate l-UTop-Set(k); methods and ladder as in :meth:`utop_prefix`."""
        return self.query(
            Query(
                kind="utop_set",
                k=k,
                l=l,
                method=method,
                budget=budget,
                seed=seed,
                trace=trace,
            )
        )

    def _eval_topk(self, spec: Query, ctx: _EvalContext) -> List:
        """UTop-Prefix and UTop-Set: one evaluator over k-prefixes."""
        shape = _TOPK[spec.kind]
        target = shape.target
        k, l = spec.k, spec.l
        budget = ctx.budget
        with span("prune", level=k):
            pruned, fp = self._pruned_entry(k)
        ctx.pruned_size = len(pruned)
        k_eff = min(k, len(pruned))
        base_samples = spec.samples or self.samples

        def run_exact() -> List:
            if budget is None:
                scored, stop = self.cache.artifact(  # reprolint: disable=CACHE002 -- shape is fixed by the artifact kind exact-<target>, and (kind, key) is the cache identity
                    f"exact-{target}",
                    (fp, k_eff, self.prefix_enumeration_limit),
                    lambda: self._enumerate_topk(shape, fp, pruned, k_eff),
                )
            else:
                # Budgeted enumeration is driven (and charged) live — a
                # budget-truncated answer set must never be cached, and
                # the cache must not silently bypass the enumeration
                # meter.
                scored, stop = self._enumerate_topk(
                    shape, fp, pruned, k_eff, budget
                )
            if stop is not None:
                # Enumeration stopped early: the answer space was
                # clipped, and the best answer may lie outside it. A
                # budget stop also makes the answers best-so-far.
                ctx.truncated = True
                if stop == "cap":
                    stop = (
                        f"enumeration cap "
                        f"{self.prefix_enumeration_limit} reached"
                    )
                else:
                    ctx.partial = True
                ctx.events.append(DegradationEvent("exact", "clipped", stop))
            if budget is not None and not scored:
                raise _StageSkipped(
                    f"budget exhausted before any {shape.noun} was "
                    "enumerated"
                )
            return [shape.answer(key, prob) for key, prob in scored[:l]]

        def run_mcmc() -> List:
            sampler = self._sampler(pruned, fp, ctx.sampler_seed)
            matrix_samples = max(2000, base_samples // 5)
            rank_matrix: Optional[np.ndarray] = None
            with span("sample", requested=matrix_samples) as sample_span:
                sc = self._rank_counts(
                    fp,
                    sampler,
                    matrix_samples,
                    max_rank=k_eff,
                    budget=budget,
                    sampler_seed=ctx.sampler_seed,
                )
                if sample_span is not None:
                    sample_span.set(done=sc.done)
            if sc.done > 0:
                rank_matrix = sc.counts / sc.done

            def simulate():
                with span("walk", chains=self.mcmc_chains, target=target):
                    sim = TopKSimulation(
                        pruned,
                        k_eff,
                        target=target,
                        n_chains=self.mcmc_chains,
                        seed=self._mcmc_call_seed(
                            target, k_eff, l, ctx.mcmc_seed
                        ),
                        workers=self.workers,
                        plan=self._plan_for(fp, pruned),
                        pairwise_cache=self._pairwise_cache(),
                    )
                    return sim.run(
                        max_steps=self.mcmc_steps,
                        psrf_threshold=self.psrf_threshold,
                        top_l=l,
                        rank_matrix=rank_matrix,
                        budget=budget,
                    )

            if budget is None:
                result = self.cache.artifact(
                    "mcmc",
                    (
                        fp,
                        self._backend_key(ctx.sampler_seed),
                        target,
                        k_eff,
                        l,
                        matrix_samples,
                        self.mcmc_chains,
                        self.mcmc_steps,
                        self.psrf_threshold,
                        ctx.mcmc_seed,
                    ),
                    simulate,
                )
            else:
                # A budgeted walk reflects *this* query's budget state;
                # neither read nor write the cache for it.
                result = simulate()
            if result.partial:
                ctx.partial = True
                ctx.events.append(
                    DegradationEvent(
                        "mcmc", "clipped", result.stop_reason or "deadline"
                    )
                )
            ctx.error_bound = result.error_estimate
            ctx.diagnostics = {
                "converged": result.converged,
                "total_steps": result.total_steps,
                "acceptance_rate": result.acceptance_rate,
                "states_visited": result.states_visited,
                "psrf": result.trace.psrf[-1] if result.trace.psrf else None,
            }
            return [
                shape.answer(shape.key(key), prob)
                for key, prob in result.answers
            ]

        def run_montecarlo() -> List:
            sc = self._sampled_counts(
                ctx, pruned, fp, base_samples, k_eff, tally=True
            )
            with span("aggregate"):
                # Prefix tallies re-keyed by answer: a UTop-Set key sums
                # the prefixes that order its members.
                ids = [rec.record_id for rec in pruned]
                tally: Counter = Counter()
                for top, count in sc.counts.items():
                    tally[shape.key(ids[t] for t in top)] += count
                ranked = sorted(
                    tally.items(), key=lambda kv: (-kv[1], shape.order(kv[0]))
                )
            if ctx.partial and ranked:
                ctx.half_width = wilson_half_width(
                    ranked[0][1] / sc.done, sc.done
                )
            return [shape.answer(key, c / sc.done) for key, c in ranked[:l]]

        def run_baseline() -> List:
            order = self._median_ranking(pruned)
            # Probability 1.0 under the median-collapsed (deterministic)
            # database — the method label marks the fidelity loss.
            key = shape.key(rec.record_id for rec in order[:k_eff])
            return [shape.answer(key, 1.0)]

        return self._dispatch(
            spec.kind,
            ctx,
            pruned,
            fp,
            k_eff,
            {
                "exact": run_exact,
                "mcmc": run_mcmc,
                "montecarlo": run_montecarlo,
                "baseline": run_baseline,
            },
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release this engine's block thread pool.

        Idempotent, and not terminal: the pool is re-created lazily, so
        an engine can keep answering queries after ``close()``.
        """
        self._pool.close()

    def __enter__(self) -> "RankingEngine":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def explain(
        self, query: str, k: int, deadline_ms: Optional[float] = None
    ) -> dict:
        """Explain the evaluation plan for a query without running it.

        Parameters
        ----------
        query:
            ``"utop_rank"``, ``"utop_prefix"``, or ``"utop_set"`` (for
            UTop-Rank, ``k`` is the upper rank ``j``).
        k:
            The query's dominance level.
        deadline_ms:
            Optional deadline to check the ladder against, in
            milliseconds — the same value the serving layer passes per
            request. With a deadline, ``method`` and the ``plan`` block
            show the rungs a query starting with that much time left
            would skip.

        Returns
        -------
        dict
            Pruning outcome, whether the densities allow exact
            evaluation, the (capped) size of the enumeration space,
            the method the ``"auto"`` policy would select, an
            ``observability`` block (tracing default plus a metrics
            snapshot), and a ``plan`` block listing every rung of the
            ``auto`` ladder (:meth:`_ladder`) with its static predicted
            seconds and why it is kept or skipped. The plan block is a
            pure function of the records, the query and the deadline:
            queries this engine ran before do not change it.
        """
        if query not in ("utop_rank", "utop_prefix", "utop_set"):
            raise QueryError(f"unknown query kind {query!r}")
        if k < 1:
            raise QueryError("k must be positive")
        self._refresh_table()
        pruned, fp = self._pruned_entry(k)
        # The depth the query itself plans with: UTop-Rank keeps its j,
        # TOP-k queries clamp k to the pruned size.
        depth = k if query == "utop_rank" else min(k, len(pruned))
        plan = {
            "query": query,
            "k": k,
            "database_size": len(self.records),
            "pruned_size": len(pruned),
            "pruning_enabled": self.prune,
            "exact_densities": supports_exact(pruned),
            "workers": self.workers,
            "fingerprint": fp,
            "cache": self.cache.stats().to_dict(),
            "observability": {
                "trace_enabled": self.trace,
                "metrics": self._metrics.snapshot(),
            },
        }
        if query != "utop_rank":
            space = self._prefix_space(fp, pruned, depth)
            plan["prefix_space"] = space
            plan["enumeration_limit"] = self.prefix_enumeration_limit
            plan["truncated"] = (
                space is None or space > self.prefix_enumeration_limit
            )
        # A clock that never advances: the whole deadline remains, as at
        # the start of a query, however long explaining takes.
        budget = (
            Budget.for_deadline(deadline_ms / 1000.0, clock=lambda: 0.0)
            if deadline_ms is not None
            else None
        )
        method, names, skipped = self._ladder(
            query, "auto", pruned, fp, depth, budget
        )
        plan["method"] = names[0]
        if query == "utop_rank":
            plan["samples"] = self.samples
        elif names[0] == "mcmc":
            plan["mcmc_chains"] = self.mcmc_chains
            plan["mcmc_steps"] = self.mcmc_steps
        # The copula maps auto onto one forced stage: no ladder to show.
        plan["plan"] = (
            {
                "deadline_ms": deadline_ms,
                "stages": [
                    {
                        "stage": name,
                        "predicted_seconds": self._price(
                            query, name, pruned, fp, depth
                        ),
                        "decision": "skipped" if name in skipped else "kept",
                        "reason": skipped.get(name)
                        or ("runs first" if name == names[0] else "fallback"),
                    }
                    for name in [*skipped, *names]
                ],
            }
            if method == "auto"
            else None
        )
        return plan

    # ------------------------------------------------------------------
    # RANK-AGGREGATION queries (Def. 7)
    # ------------------------------------------------------------------

    def rank_aggregation(
        self,
        method: str = "auto",
        samples: Optional[int] = None,
        seed: Optional[int] = None,
        trace: Optional[bool] = None,
    ) -> QueryResult:
        """Evaluate Rank-Agg under the footrule distance (Theorem 2).

        Never pruned: the consensus ranking needs every rank's
        probabilities. ``method``: ``"auto"``, ``"exact"``,
        ``"montecarlo"``, or ``"baseline"`` (selects how the ``eta``
        matrix is obtained). The baseline consensus is the median
        ranking, at expected distance 0.0 under the collapsed database.
        """
        return self.query(
            Query(
                kind="rank_aggregation",
                method=method,
                samples=samples,
                seed=seed,
                trace=trace,
            )
        )

    def _eval_rank_aggregation(
        self, spec: Query, ctx: _EvalContext
    ) -> List[RankAggAnswer]:
        records, fp = self.records, self._db_fp
        n = ctx.pruned_size = len(records)
        requested = spec.samples or self.samples

        def project(matrix: np.ndarray, samples: Optional[int]) -> List:
            def solve() -> Tuple[Tuple[str, ...], float]:
                # Sampling noise perturbs footrule costs by roughly
                # n / sqrt(samples); ties inside that band canonicalize
                # to the expected-rank order so the Monte-Carlo
                # consensus agrees with the exact one on tied optima.
                tolerance = n / math.sqrt(samples) if samples else 1e-9
                ranking, cost = optimal_rank_aggregation(
                    matrix, records, tie_tolerance=tolerance
                )
                return tuple(rec.record_id for rec in ranking), cost

            # Only a complete answer is cached: a partial or baseline
            # one reflects this query's budget, not the database.
            if ctx.partial or samples == 0:
                ranking_ids, cost = solve()
            else:
                key: Tuple = (
                    (fp, "exact")
                    if samples is None
                    else (fp, self._backend_key(ctx.sampler_seed), requested)
                )
                ranking_ids, cost = self.cache.artifact(  # reprolint: disable=CACHE002 -- a complete eta is a function of the key: the exact matrix of fp, or `requested` draws of this sampling stream
                    "rank-agg", key, solve
                )
            return [
                RankAggAnswer(ranking=ranking_ids, expected_distance=cost)
            ]

        return self._eta(
            "rank_aggregation", ctx, records, fp, n, requested, project
        )
