"""Session-scoped shared computation cache (paper §VI-D, generalized).

The paper's own evaluation leans on caching: §VI-D computes the Eq. 1
pairwise integrals "once per unordered pair" and shares them across all
MCMC states. This module generalizes that observation to every compiled
or sampled artifact the query engine produces, so repeated query traffic
over the same database is served from memoized work instead of cold
starts:

- **Content-addressed fingerprints** (:func:`fingerprint_records`):
  a blake2b digest over record ids, interval bounds, and distribution
  family + canonical parameters (the tie-breaker is the record id, which
  is part of the digest). Two separately constructed but identical
  databases share one fingerprint; any mutation changes it, so a stale
  entry can never be addressed again.
- **Compiled artifacts by fingerprint**: sampling plans, evaluators,
  partial orders, pruning results, and one :class:`~repro.core.pairwise.
  PairwiseCache` per database shared by the exact, MCMC, and rank-
  aggregation paths (:meth:`ComputationCache.pairwise`).
- **Cross-query rank-count reuse with deterministic top-up**
  (:class:`RankCountStore`): Monte-Carlo rank counts and top-k prefix
  tallies are stored in fixed-size sample blocks, each drawn under a
  per-block call seed through the evaluator's spawn-key determinism
  contract. Blocks are also the unit of parallel work
  (:class:`~repro.core.parallel.BlockPool`). Any requested
  sample count decomposes into blocks, so a later query needing more
  samples reuses every cached block and only draws the missing suffix —
  and the merged counts are bit-identical to a cold run at the larger
  budget, because each block is a pure function of ``(sampler seed,
  block index, block size)`` and block counts are exact integers in
  float64 (addition order cannot change the bits).
- **LRU eviction with byte accounting** plus :class:`CacheStats`
  (hits, misses, evictions, bytes, top-up extensions) so cache behavior
  is observable (``RankingEngine.cache_stats()``) rather than inferred.
  Each event is counted once, where it happens, into the cache's
  totals, the metrics registry, the active trace span and the running
  query's own tally (:func:`query_events`).

Depth is handled the same way: blocks are stored at the deepest
``max_rank`` ever requested and shallower queries are served by column
slicing, which is exact because rankings do not depend on the reported
rank window and the per-cell counts are integral.
"""

from __future__ import annotations

import contextvars
import hashlib
import struct
import threading
from collections import Counter, OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from . import metrics
from .budget import Budget, SampleCounts
from .errors import QueryError
from .montecarlo import MonteCarloEvaluator
from .pairwise import PairwiseCache
from .parallel import BlockPool
from .records import UncertainRecord
from .trace import accumulate

__all__ = [
    "SAMPLE_BLOCK",
    "CacheStats",
    "ComputationCache",
    "MigrationReport",
    "RankCountStore",
    "fingerprint_records",
    "query_events",
    "shared_cache",
]

#: Canonical sample-block size for the rank-count store. Every request
#: is decomposed into full blocks of this size plus one remainder piece;
#: block ``i`` is always drawn under call seed ``i``, which is what makes
#: warm results bit-identical to cold runs at any budget.
SAMPLE_BLOCK = 4096

#: Registry counter of each cache event (the keys of :class:`CacheStats`
#: that count rather than measure).
_METRIC = {
    "hits": "cache_hits_total",
    "misses": "cache_misses_total",
    "topups": "cache_topups_total",
    "evictions": "cache_evictions_total",
    "migrations": "cache_migrations_total",
    "carried": "cache_carried_entries_total",
}

_QUERY_EVENTS: "contextvars.ContextVar[Optional[Counter]]" = (
    contextvars.ContextVar("repro_cache_events", default=None)
)


@contextmanager
def query_events() -> Iterator[Counter]:
    """Tally the cache events caused in this context, for one query.

    ``RankingEngine.query`` runs its evaluator inside this block, so the
    yielded :class:`~collections.Counter` holds exactly that query's
    hits, misses, top-ups, evictions, migrations and carried entries —
    never those of another thread sharing the cache. Cache events happen
    only on the querying thread (block threads only draw samples).
    """
    tally: Counter = Counter()
    token = _QUERY_EVENTS.set(tally)
    try:
        yield tally
    finally:
        _QUERY_EVENTS.reset(token)


def fingerprint_records(records: Sequence[UncertainRecord]) -> str:
    """Content digest of a record list (order-sensitive, blake2b).

    Covers, per record: the record id (also the paper's tie-breaker
    ``tau``), the interval bounds, and the distribution's canonical
    parameter token (:meth:`~repro.core.distributions.ScoreDistribution.
    fingerprint`). Unknown distribution families fall back to an
    identity-based token, which keeps the digest conservative: such
    databases never alias a cache entry they did not themselves create.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(b"records-v1")
    for rec in records:
        h.update(rec.record_id.encode("utf-8"))
        h.update(b"\x00")
        h.update(struct.pack("<dd", rec.lower, rec.upper))
        h.update(rec.score.fingerprint().encode("utf-8"))
        h.update(b"\x01")
    return h.hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """Event counters plus retained ``bytes`` and ``entries``.

    :meth:`ComputationCache.stats` fills the counters with the cache's
    totals; ``QueryResult.cache`` with one query's own events.
    ``topups`` counts rank-count requests that were *partially* covered
    by cached sample blocks and extended deterministically, as opposed
    to full ``hits`` and cold ``misses``.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes: int = 0
    topups: int = 0
    entries: int = 0
    migrations: int = 0
    carried: int = 0

    def to_dict(self) -> dict:
        """JSON-friendly rendition (used by ``explain()`` and results)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "bytes": self.bytes,
            "topups": self.topups,
            "entries": self.entries,
            "migrations": self.migrations,
            "carried": self.carried,
        }


@dataclass(frozen=True)
class MigrationReport:
    """Outcome of one :meth:`ComputationCache.migrate` call.

    ``pairwise_carried``/``pairwise_dropped`` count ordered Eq. 1 memo
    entries moved to (resp. excluded from) the post-mutation
    fingerprint. ``noop`` marks a migration where the fingerprints were
    already equal (a byte-identical mutation batch).
    """

    pairwise_carried: int = 0
    pairwise_dropped: int = 0
    noop: bool = False

    @property
    def reuse_fraction(self) -> float:
        """Fraction of pairwise entries that survived the delta."""
        total = self.pairwise_carried + self.pairwise_dropped
        if total == 0:
            return 1.0 if self.noop else 0.0
        return self.pairwise_carried / total

    def to_dict(self) -> dict:
        """JSON-friendly rendition (used by the ``/mutate`` endpoint)."""
        return {
            "pairwise_carried": self.pairwise_carried,
            "pairwise_dropped": self.pairwise_dropped,
            "reuse_fraction": self.reuse_fraction,
            "noop": self.noop,
        }


class RankCountStore:
    """Block-structured Monte-Carlo rank counts for one sampler stream.

    One store exists per ``(database fingerprint, sampling stream)``
    pair. Counts are kept in pieces keyed ``(block index, piece size)``;
    piece ``(i, s)`` always holds the counts of
    ``sampler.rank_counts(s, seed=i)``, so its content is a pure
    function of the key and the stream — never of request history or
    of which worker drew it. Top-k tallies of the same draws
    (``rank_counts(s, max_rank=k, seed=i, tally=True)``) are pieces
    keyed ``(i, s, k)``, served by the same routine.
    Requests for ``N`` samples decompose into full :data:`SAMPLE_BLOCK`
    pieces plus one remainder piece, which is exactly how a cold run at
    ``N`` would be drawn; serving cached pieces therefore reproduces the
    cold result bit for bit.

    Rank pieces are stored at the deepest ``max_rank`` seen so far and
    served by column slicing (counts are exact integers, so a slice of a
    deep count matrix equals a directly computed shallow one).
    """

    def __init__(self, block: int = SAMPLE_BLOCK) -> None:
        if block < 1:
            raise QueryError("block size must be positive")
        self.block = int(block)
        self._pieces: Dict[Tuple[int, ...], Tuple[int, Any]] = {}

    @property
    def nbytes(self) -> int:
        """Approximate retained bytes across all cached pieces.

        A tally piece is charged per distinct prefix: its tuple of ``k``
        indices, its count and its dict slot, about ``8k + 160`` bytes.
        """
        return sum(
            counts.nbytes + 64
            if isinstance(counts, np.ndarray)
            else len(counts) * (8 * limit + 160) + 64
            for limit, counts in self._pieces.values()
        )

    def pieces(self, samples: int) -> List[Tuple[int, int]]:
        """The canonical ``(block index, size)`` decomposition of a request."""
        if samples < 1:
            raise QueryError("need at least one sample")
        full, rest = divmod(samples, self.block)
        out = [(idx, self.block) for idx in range(full)]
        if rest:
            out.append((full, rest))
        return out

    def _cached(self, idx: int, size: int, limit: int, tally: bool) -> Any:
        """Piece ``(idx, size)``'s counts at depth ``limit``, or ``None``."""
        cached = self._pieces.get((idx, size, limit) if tally else (idx, size))
        if cached is None or cached[0] < limit:
            return None
        return cached[1] if tally else cached[1][:, :limit]

    def coverage(self, samples: int, limit: int, tally: bool = False) -> int:
        """How many of ``samples`` are already served by cached pieces."""
        return sum(
            size
            for idx, size in self.pieces(samples)
            if self._cached(idx, size, limit, tally) is not None
        )

    def counts_for(
        self,
        sampler: MonteCarloEvaluator,
        samples: int,
        limit: int,
        budget: Optional[Budget] = None,
        pool: Optional[BlockPool] = None,
        tally: bool = False,
    ) -> Tuple[SampleCounts, int]:
        """Merged counts for ``samples`` draws at rank depth ``limit``.

        Returns ``(counts, covered)`` where ``covered`` is the number of
        samples served from cache. Missing pieces are drawn through
        ``sampler.rank_counts(size, seed=block_index, tally=tally)`` on
        ``pool`` (serially when omitted); the spawn-key contract makes
        each piece independent of call order and thread. Results merge
        in piece order, and clean pieces are cached. Under a ``budget``,
        only the *new* samples are charged via
        :meth:`Budget.take_samples`; cached coverage is free, and the
        grant is split over the missing pieces in order before any is
        drawn. A grant-clipped piece is cached under its actual size,
        so a later request re-extends deterministically. A piece that
        a deadline or cancellation interrupts is merged but not
        cached, and every later fresh piece is dropped: the store then
        holds what a serial run would have drawn.
        """
        merged: Any = (
            Counter() if tally else np.zeros((len(sampler.records), limit))
        )
        covered = 0
        missing: List[Tuple[int, int]] = []
        for idx, size in self.pieces(samples):
            cached = self._cached(idx, size, limit, tally)
            if cached is not None:
                merged += cached
                covered += size
            else:
                missing.append((idx, size))
        done = covered
        reason: Optional[str] = None
        to_draw = sum(size for _, size in missing)
        grant = to_draw
        if budget is not None and to_draw:
            grant = budget.take_samples(to_draw)
            if grant < to_draw:
                reason = budget.exhausted_reason() or "samples"
        draws: List[Tuple[int, int]] = []
        for idx, size in missing:
            if grant <= 0:
                break
            take = min(size, grant)
            grant -= take
            draws.append((idx, take))

        def draw(idx: int, take: int) -> SampleCounts:
            return sampler.rank_counts(
                take, max_rank=limit, seed=idx, budget=budget, tally=tally
            )

        parts = (pool or BlockPool()).map(
            draw, draws, last=lambda sc: sc.partial
        )
        for (idx, take), sc in zip(draws, parts):
            merged += sc.counts
            done += sc.done
            if sc.partial:
                # Interrupted mid-piece (deadline or cancellation): the
                # counts are a usable prefix but not addressable.
                reason = sc.reason or reason
            else:
                # A clean piece — full or grant-clipped to ``take`` — is
                # a pure function of (stream, idx, take): cache it.
                key = (idx, take, limit) if tally else (idx, take)
                self._pieces[key] = (limit, sc.counts)  # reprolint: disable=CON001 -- externally synchronized: every caller reaches counts_for through ComputationCache.rank_counts, which holds self._lock (RLock); block threads only draw, the merge runs on the calling thread
        return (
            SampleCounts(
                counts=merged, done=done, requested=samples, reason=reason
            ),
            covered,
        )


@dataclass
class _Entry:
    value: Any
    size_fn: Callable[[], int]
    nbytes: int = 0


def _default_size(value: Any) -> int:
    """Rough byte estimate for values without an explicit size hook."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, (int, np.integer)):
        return int(nbytes)
    return 256


class ComputationCache:
    """LRU, byte-accounted store of fingerprint-keyed computations.

    Each :class:`~repro.core.engine.RankingEngine` gets a private
    instance by default; pass ``cache="shared"`` (the process-wide
    :func:`shared_cache`) or one explicit instance to several engines to
    serve repeated query traffic across engines. All methods are thread-safe behind one reentrant lock;
    cached values themselves are treated as immutable once stored
    (rank-count stores mutate only under the lock via :meth:`rank_counts`).

    Parameters
    ----------
    max_bytes:
        Eviction threshold for the summed byte estimates of all
        entries. Least-recently-used entries are dropped first; the
        most recent entry always survives even when it alone exceeds
        the limit (evicting it would make the cache useless).
    max_entries:
        Hard cap on the entry count, independent of size.
    block:
        Sample-block size handed to new :class:`RankCountStore` entries.
    """

    def __init__(
        self,
        max_bytes: int = 256 * 1024 * 1024,
        max_entries: int = 4096,
        block: int = SAMPLE_BLOCK,
    ) -> None:
        if max_bytes < 1:
            raise QueryError("max_bytes must be positive")
        if max_entries < 1:
            raise QueryError("max_entries must be positive")
        self.max_bytes = int(max_bytes)
        self.max_entries = int(max_entries)
        self.block = int(block)
        self._entries: "OrderedDict[Tuple[str, Hashable], _Entry]" = (
            OrderedDict()
        )
        self._lock = threading.RLock()
        self._counts: Counter = Counter()

    def _count(
        self, event: str, amount: int = 1, kind: Optional[str] = None
    ) -> None:
        """Record one cache event in every book that keeps it.

        The cache's own totals, the registry counter, the running
        query's tally (:func:`query_events`) and, for lookups labelled
        with an artifact ``kind``, the active span's ``cache_<event>``.
        """
        with self._lock:
            self._counts[event] += amount
        tally = _QUERY_EVENTS.get()
        if tally is not None:
            tally[event] += amount
        if kind is None:
            metrics.inc(_METRIC[event], float(amount))
        else:
            metrics.inc(_METRIC[event], float(amount), kind=kind)
            accumulate(f"cache_{event}", float(amount))

    # ------------------------------------------------------------------
    # generic artifacts
    # ------------------------------------------------------------------

    def artifact(
        self,
        kind: str,
        key: Hashable,
        builder: Callable[[], Any],
        size_fn: Optional[Callable[[], int]] = None,
        count: bool = True,
    ) -> Any:
        """The cached value for ``(kind, key)``, building it on a miss.

        ``size_fn`` supplies the byte estimate (re-evaluated on every
        eviction pass, so growing values stay honestly accounted);
        ``count=False`` suppresses hit/miss accounting for internal
        lookups whose cost is accounted elsewhere.
        """
        full_key = (kind, key)
        with self._lock:
            entry = self._entries.get(full_key)
            if entry is not None:
                self._entries.move_to_end(full_key)
                if count:
                    self._count("hits", kind=kind)
                return entry.value
            value = builder()
            if count:
                self._count("misses", kind=kind)
            fn = size_fn if size_fn is not None else (
                lambda: _default_size(value)
            )
            self._entries[full_key] = _Entry(value=value, size_fn=fn)
            self._evict()
            return value

    def contains(self, kind: str, key: Hashable) -> bool:
        """Whether ``(kind, key)`` is currently cached (no LRU touch)."""
        with self._lock:
            return (kind, key) in self._entries

    # ------------------------------------------------------------------
    # pairwise integrals (paper §VI-D)
    # ------------------------------------------------------------------

    def pairwise(self, fingerprint: str) -> PairwiseCache:
        """The shared Eq. 1 memo for one database fingerprint.

        Keyed by fingerprint because :class:`PairwiseCache` stores by
        record-id pair: sharing across *different* databases could
        alias ids, while sharing across subsets of the same database is
        sound (``Pr(a > b)`` depends only on the two records). The
        exact, MCMC, and rank-aggregation paths all draw from this one
        memo.
        """
        return self.artifact("pairwise", fingerprint, PairwiseCache)

    # ------------------------------------------------------------------
    # delta-aware migration (incremental maintenance)
    # ------------------------------------------------------------------

    def migrate(
        self,
        old_fingerprint: str,
        new_fingerprint: str,
        dirty: AbstractSet[str],
    ) -> MigrationReport:
        """Carry delta-surviving artifacts across a fingerprint change.

        Called by the engine's ``from_table`` subscription when a
        mutation batch moves the database fingerprint and the
        :class:`~repro.db.table.TableDelta` names exactly which record
        keys changed (``dirty``). Only artifacts whose values are
        *provably* unchanged by the delta are re-keyed:

        - **Pairwise integrals** (and with them the PPO's edges, which
          are lazily rebuilt from this memo): ``Pr(a > b)`` depends only
          on the two records, so every entry with both endpoints outside
          ``dirty`` is copied into a fresh memo under the new
          fingerprint (:meth:`~repro.core.pairwise.PairwiseCache.
          carry_forward`). A single-record edit at ``n`` records keeps
          ``(n-1)(n-2)`` of the ``n(n-1)`` ordered entries — the ≥90%
          reuse the streaming benchmark measures.

        **Rank-count blocks are deliberately not re-keyed.** A block is
        a pure function of ``(fingerprint, backend, block index)`` and
        the columnar :class:`~repro.core.distributions.SamplingPlan`
        couples the RNG consumption layout to the full record subset, so
        any content change redraws different variates for *every*
        record — a patched block could not be bit-identical to a cold
        recompute. Blocks over pruned subsets the delta did not touch
        stay addressable through their own (unchanged) pruned
        fingerprints, which is where warm rank-count reuse actually
        comes from; everything else falls back to recompute, never to a
        wrong answer.

        Idempotent and conservative: existing entries under the new
        fingerprint are never overwritten, and equal fingerprints (a
        byte-identical batch) are a no-op.
        """
        if old_fingerprint == new_fingerprint:
            return MigrationReport(noop=True)
        dirty = frozenset(dirty)
        with self._lock:
            carried = 0
            dropped = 0
            entry = self._entries.get(("pairwise", old_fingerprint))
            if entry is not None and not self.contains(
                "pairwise", new_fingerprint
            ):
                fresh, carried, dropped = entry.value.carry_forward(dirty)
                self._entries[("pairwise", new_fingerprint)] = _Entry(
                    value=fresh, size_fn=lambda v=fresh: v.nbytes
                )
            self._count("migrations")
            self._count("carried", carried)
            self._evict()
            return MigrationReport(
                pairwise_carried=carried,
                pairwise_dropped=dropped,
            )

    # ------------------------------------------------------------------
    # rank counts (Eq. 7) with deterministic top-up
    # ------------------------------------------------------------------

    def rank_counts(
        self,
        fingerprint: str,
        backend: Hashable,
        sampler: MonteCarloEvaluator,
        samples: int,
        max_rank: Optional[int] = None,
        budget: Optional[Budget] = None,
        pool: Optional[BlockPool] = None,
        tally: bool = False,
    ) -> SampleCounts:
        """Memoized ``rank_counts`` with cross-query deterministic top-up.

        ``backend`` must identify everything besides the fingerprint
        that affects sampled values: the sampler seed and any
        correlation model. Under a ``budget``, cached coverage is free
        and only missing samples are charged. Missing pieces run on
        ``pool`` (see :meth:`RankCountStore.counts_for`). The returned
        counts (or, with ``tally=True``, top-``max_rank`` prefix
        tallies) are bit-identical to ``sampler.rank_counts`` run cold
        piece by piece at the same total, whatever mixture of cache,
        fresh drawing and worker threads produced them.
        """
        if samples < 1:
            raise QueryError("need at least one sample")
        n = len(sampler.records)
        limit = n if max_rank is None else max(1, min(int(max_rank), n))
        with self._lock:
            store: RankCountStore = self.artifact(
                "rank-counts",
                (fingerprint, backend),
                lambda: RankCountStore(block=self.block),
                count=False,
            )
            covered = store.coverage(samples, limit, tally)
            event = (
                "hits" if covered >= samples
                else "topups" if covered
                else "misses"
            )
            self._count(event, kind="rank-counts")
            result, _ = store.counts_for(
                sampler, samples, limit, budget=budget, pool=pool, tally=tally
            )
            self._evict()
            return result

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def stats(self) -> CacheStats:
        """Snapshot of the live counters, retained bytes and entries."""
        with self._lock:
            return CacheStats(
                bytes=self._refresh_bytes(),
                entries=len(self._entries),
                **self._counts,
            )

    def _refresh_bytes(self) -> int:
        total = 0
        for entry in self._entries.values():
            entry.nbytes = max(0, int(entry.size_fn()))
            total += entry.nbytes
        return total

    def _evict(self) -> None:  # reprolint: disable-scope=CON001 -- externally synchronized: _evict is only called from artifact()/put paths that already hold self._lock (RLock)
        """Drop LRU entries until both the byte and entry caps hold."""
        total = self._refresh_bytes()
        while len(self._entries) > 1 and (
            total > self.max_bytes or len(self._entries) > self.max_entries
        ):
            _, entry = self._entries.popitem(last=False)
            total -= entry.nbytes
            self._count("evictions")


_SHARED_LOCK = threading.Lock()
_SHARED: Optional[ComputationCache] = None


def shared_cache() -> ComputationCache:
    """The process-wide cache engines opt into with ``cache="shared"``.

    Created lazily on first use; every engine constructed with
    ``cache="shared"`` joins it, which is what lets one engine's
    sampling work answer another engine's queries over content-identical
    data. (Engines default to a private cache so tests and benchmarks
    stay isolated unless they ask to share.)
    """
    global _SHARED
    with _SHARED_LOCK:
        if _SHARED is None:
            _SHARED = ComputationCache()
        return _SHARED
