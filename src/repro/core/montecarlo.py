"""Monte-Carlo integration over the score hypercube (paper §VI-C).

The paper's key insight for RECORD-RANK queries is to transform the
combinatorial space of linear extensions into the continuous hypercube
``Omega = [lo_1, up_1] x ... x [lo_n, up_n]`` of score combinations, which
can be sampled independently: draw one concrete score per record, rank the
draw, and read off where each record landed. The relative frequency of
"record ``t`` landed at a rank in ``[i, j]``" estimates Eq. 7 with error
``O(1 / sqrt(s))`` independent of the space size.

The same sampler estimates prefix probabilities (Eq. 6), top-k set
probabilities, and complete-extension probabilities (Eq. 4). Its one
chunked draw-and-rank loop (:meth:`MonteCarloEvaluator.rank_counts`)
reduces each ranked chunk either to Eq. 7 rank counts or to a tally of
the sampled top-k prefixes, which answers the Monte-Carlo UTop-Prefix
and UTop-Set rung.

Everything is **columnar**: at construction the database is compiled
into a :class:`~repro.core.distributions.SamplingPlan` that groups
records by distribution family, so drawing an ``(s, n)`` score matrix
and evaluating the CDF products of Eq. 6 cost a constant number of
NumPy calls per family group instead of one Python call per record.
Draws are ranked by :func:`rank_order`, one in-place value sort of
packed ``(score, column)`` keys, over row slices small enough to stay
in cache (:data:`RANK_SLICE_CELLS`).
For multi-worker rank counting (sample blocks drawn on a thread pool)
see :mod:`repro.core.parallel` and :class:`~repro.core.cache.
RankCountStore`.
"""

from __future__ import annotations

import heapq
import threading
from collections import Counter
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from . import metrics
from .budget import Budget, SampleCounts
from .distributions import SamplingPlan, build_sampling_plan
from .errors import EvaluationError, QueryError
from .exact import _tie_perturbations
from .numeric import clamp_probability
from .records import UncertainRecord
from .trace import accumulate

__all__ = [
    "RANK_SLICE_CELLS",
    "MonteCarloEvaluator",
    "compile_plan",
    "rank_order",
    "select_top_rank_candidates",
]

#: Cells per row slice that :meth:`MonteCarloEvaluator.rank_counts`
#: ranks at once: 512 KiB per float64 temporary, so a slice's working
#: set stays in L2 and its temporaries are small enough for the
#: allocator to reuse in place instead of returning them to the OS and
#: page-faulting them back in on the next slice.
RANK_SLICE_CELLS = 65_536

#: Packed keys of ``-inf`` and ``+inf`` (see :func:`rank_order`).
_KEY_NEG_INF = np.uint64(0x000F_FFFF_FFFF_FFFF)
_KEY_POS_INF = np.uint64(0xFFF0_0000_0000_0000)


def rank_order(
    scores: np.ndarray, limit: int, tau: Optional[np.ndarray] = None
) -> np.ndarray:
    """Record indices of the ``limit`` best scores in each row, best first.

    Equal scores rank by the paper's tie-breaker τ
    (:func:`~repro.core.records.tie_break`): ``tau`` lists the columns
    in τ order, and ``None`` means database order. The result equals
    ``tau[np.argsort(-scores[:, tau], axis=1, kind="stable")[:, :limit]]``.

    Each negated score is mapped to an order-preserving ``uint64`` key
    whose low ``b = (n - 1).bit_length()`` bits are replaced by the
    column's τ position, and the keys are sorted in place by value (no
    ``argsort``); the position is read back from the low bits. Truncating
    those bits can merge distinct scores, so a row is exact only when
    every adjacent pair among its first ``min(limit + 1, n)`` sorted
    keys differs by more than the index mask: such keys cannot share
    their value bits, so the order of the head and the set it holds
    are the scores' own. The other rows (exact ties, near ties, and
    rows holding a NaN or an infinity) are re-sorted stably in τ order.
    """
    n = scores.shape[1]
    if n == 0:
        return np.empty((scores.shape[0], 0), dtype=np.intp)
    mask = np.uint64((1 << (n - 1).bit_length()) - 1)
    positions = np.arange(n, dtype=np.uint64)
    if tau is not None:
        positions[tau] = positions.copy()  # column tau[p] has position p
    # ``0.0 - x`` maps -0.0 to +0.0, so signed zeros share one key and
    # tie, as they compare equal in ``argsort``.
    keys = np.subtract(0.0, scores, dtype=np.float64).view(np.int64)
    # Negative floats flip every bit, the others only the sign bit.
    keys ^= (keys >> 63) | np.int64(-(2**63))
    keys = keys.view(np.uint64)
    keys &= ~mask
    keys |= positions
    keys.sort(axis=1)
    head = keys[:, : min(limit + 1, n)]
    inexact = np.any(np.diff(head, axis=1) <= mask, axis=1)
    # NaN keys lie beyond the infinities' keys, at the ends of a row.
    inexact |= keys[:, 0] <= _KEY_NEG_INF
    inexact |= keys[:, -1] >= _KEY_POS_INF
    order = (keys[:, :limit] & mask).astype(np.intp)
    if inexact.any():
        tied = scores[inexact] if tau is None else scores[inexact][:, tau]
        order[inexact] = np.argsort(-tied, axis=1, kind="stable")[:, :limit]
    return order if tau is None else tau[order]


def _ranks_above(
    x: np.ndarray, x_pos: np.ndarray, y: np.ndarray, y_pos: np.ndarray
) -> np.ndarray:
    """Whether draw ``x`` ranks above ``y``: higher, or equal and first in τ.

    ``x_pos`` and ``y_pos`` are the records' τ positions, so the
    indicator estimators count a tied draw for exactly one ordering, the
    one :func:`rank_order` gives it.
    """
    return (x > y) | ((x == y) & (x_pos < y_pos))


def compile_plan(records: Sequence[UncertainRecord]) -> SamplingPlan:
    """Compile the columnar sampling plan for a database.

    This is exactly the plan :class:`MonteCarloEvaluator` builds at
    construction — family-grouped columns with tie-breaker perturbations
    applied to duplicated deterministic scores — exposed as a module
    function so the computation cache can compile once per database
    fingerprint and hand the shared plan to every evaluator
    (``MonteCarloEvaluator(records, plan=...)``).
    """
    recs = list(records)
    tie_values = _tie_perturbations(recs)
    overrides = {
        i: tie_values[rec.record_id]
        for i, rec in enumerate(recs)
        if rec.record_id in tie_values
    }
    return build_sampling_plan(
        [rec.score for rec in recs], sample_overrides=overrides
    )


def select_top_rank_candidates(
    records: Sequence[UncertainRecord],
    matrix: np.ndarray,
    i: int,
    j: int,
    l: int,
) -> List[Tuple[UncertainRecord, float]]:
    """The ``l`` best records by ``Pr(rank in [i, j])`` from an eta matrix.

    Keeps an l-sized answer heap (``heapq.nsmallest`` over the
    ``(-probability, record_id)`` key), mirroring the §VI-C complexity
    analysis: selection is ``O(n log l)``, not a full sort. Every
    UTop-Rank and PT-k answer is selected here, whichever ladder rung
    built the matrix.
    """
    if l < 1:
        raise QueryError("l must be positive")
    probs = matrix[:, i - 1 : j].sum(axis=1)
    best = heapq.nsmallest(
        l,
        range(len(records)),
        key=lambda t: (-probs[t], records[t].record_id),
    )
    return [(records[t], float(probs[t])) for t in best]


class MonteCarloEvaluator:
    """Sampling-based probability estimator over a fixed database.

    Parameters
    ----------
    records:
        The database ``D`` (after any k-dominance pruning).
    rng:
        Numpy random generator; pass a seeded generator for reproducible
        estimates.
    seed:
        Seed used to build the generator when ``rng`` is not given;
        defaults to ``0`` so estimates are reproducible by default. Also
        the root of the evaluator's :class:`numpy.random.SeedSequence`,
        from which per-call streams are spawned (below).
    plan:
        Optional precompiled :func:`compile_plan` result for the same
        records; skips the per-evaluator plan build so one compiled
        plan can serve many evaluators (the computation cache relies
        on this). The plan carries no random state, so sharing it does
        not couple the evaluators' streams.

    Determinism contract
    --------------------
    Every public estimator accepts an optional ``seed`` argument:

    - ``seed=None`` (default) draws from the evaluator's shared stream,
      so results are reproducible for a fixed seed *and call order* —
      two estimator calls consume the same underlying stream, and
      swapping them changes both estimates.
    - ``seed=<int>`` derives a private generator from the evaluator's
      root ``SeedSequence`` via spawn keys. The estimate then depends
      only on ``(records, constructor seed, call seed, samples)`` — not
      on any other call made before or after — which is what makes
      concurrent use (parallel MCMC chains querying one oracle) and
      cached results well-defined.

    Notes
    -----
    Identical deterministic scores are separated by an infinitesimal,
    tie-breaker-ordered perturbation (the same device the exact evaluator
    uses), so sampled rankings respect the paper's tie semantics. Other
    exact ties in a draw (equal atoms of discrete scores) go to the
    record first in the tie-breaker τ, as in pairwise Eq. 1.
    """

    def __init__(
        self,
        records: Sequence[UncertainRecord],
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
        plan: Optional[SamplingPlan] = None,
    ) -> None:
        self.records = list(records)
        self._seed_seq = np.random.SeedSequence(seed)
        self.rng = (
            rng if rng is not None else np.random.default_rng(self._seed_seq)
        )
        self._index: Dict[str, int] = {
            rec.record_id: i for i, rec in enumerate(self.records)
        }
        if len(self._index) != len(self.records):
            raise QueryError("duplicate record ids in database")
        # The tie-breaker τ orders by record id: ``_tau`` lists the
        # columns in τ order (``None`` when that is database order) and
        # ``_tau_position`` is each column's place in it.
        tau = np.array(
            [self._index[rid] for rid in sorted(self._index)], dtype=np.intp
        )
        self._tau_position = np.empty_like(tau)
        self._tau_position[tau] = np.arange(tau.size)
        self._tau = (
            None if np.array_equal(tau, np.arange(tau.size)) else tau
        )
        self._tie_values = _tie_perturbations(self.records)
        overrides = {
            i: self._tie_values[rec.record_id]
            for i, rec in enumerate(self.records)
            if rec.record_id in self._tie_values
        }
        if plan is not None:
            # A precompiled plan (``compile_plan`` over the same records,
            # typically via the computation cache) — sharing it skips the
            # per-evaluator compile. Plans are immutable after build, so
            # sharing one across evaluators is safe.
            self._plan: SamplingPlan = plan
        else:
            self._plan = build_sampling_plan(
                [rec.score for rec in self.records],
                sample_overrides=overrides,
            )
        self._subplans: Dict[Tuple[int, ...], SamplingPlan] = {}
        # One evaluator is shared across concurrent MCMC chain workers
        # (oracle calls), so the subset-plan memo needs a lock.
        self._subplans_lock = threading.Lock()

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def _stream(self, seed: Optional[int]) -> np.random.Generator:
        """The RNG for one estimator call (see the determinism contract)."""
        if seed is None:
            return self.rng
        root = self._seed_seq
        return np.random.default_rng(
            np.random.SeedSequence(
                entropy=root.entropy,
                spawn_key=(*root.spawn_key, int(seed)),
            )
        )

    def _subplan(self, idxs: Sequence[int]) -> SamplingPlan:
        """Columnar plan over a record subset, in the order given."""
        key = tuple(idxs)
        with self._subplans_lock:
            plan = self._subplans.get(key)
        if plan is None:
            overrides = {}
            for col, i in enumerate(key):
                rec = self.records[i]
                if rec.record_id in self._tie_values:
                    overrides[col] = self._tie_values[rec.record_id]
            # Built outside the lock: plan compilation is deterministic
            # for a given key, so a racing duplicate build is wasted
            # work, not a correctness problem.
            plan = build_sampling_plan(
                [self.records[i].score for i in key],
                sample_overrides=overrides,
            )
            with self._subplans_lock:
                plan = self._subplans.setdefault(key, plan)
        return plan

    def _draw(self, rng: np.random.Generator, samples: int) -> np.ndarray:
        """One ``(samples, n)`` score draw from ``rng``.

        The single point subclasses override to change the joint
        (e.g. copula-correlated sampling); every estimator and the
        chunked count loop funnel through here.
        """
        return self._plan.sample(rng, samples)

    def sample_scores(
        self, samples: int, seed: Optional[int] = None
    ) -> np.ndarray:
        """Draw an ``(samples, n)`` matrix of concrete score vectors."""
        if samples < 1:
            raise QueryError("need at least one sample")
        scores = self._draw(self._stream(seed), samples)
        metrics.inc("samples_drawn_total", float(samples))
        accumulate("samples_drawn", samples)
        return scores

    def sample_rankings(
        self, samples: int, seed: Optional[int] = None
    ) -> np.ndarray:
        """Draw sampled rankings: row ``r`` lists record indices by rank.

        ``result[r, 0]`` is the index of the top-ranked record in sample
        ``r``. Per Theorem 1 each row is a valid linear extension drawn
        from the PPO's ranking distribution.
        """
        scores = self.sample_scores(samples, seed=seed)
        return rank_order(scores, scores.shape[1], self._tau)

    def _resolve(self, rec_or_id: Union[UncertainRecord, str]) -> int:
        rid = (
            rec_or_id.record_id
            if isinstance(rec_or_id, UncertainRecord)
            else rec_or_id
        )
        idx = self._index.get(rid)
        if idx is None:
            raise QueryError(f"record {rid!r} is not in this database")
        return idx

    # ------------------------------------------------------------------
    # rank probabilities (Eq. 7)
    # ------------------------------------------------------------------

    #: Cap on score-matrix cells materialized at once; larger requests
    #: are processed in sample chunks so memory stays bounded (~160 MB)
    #: even for paper-scale databases.
    _MAX_MATRIX_CELLS = 20_000_000

    def rank_probability_matrix(
        self,
        samples: int,
        max_rank: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> np.ndarray:
        """Estimate ``eta_r(t)`` for every record and rank simultaneously.

        Returns an ``(n, max_rank)`` matrix whose rows follow the database
        order; a single batch of samples is shared across all records,
        which is how the UTop-Rank evaluator amortizes sampling cost.
        Large requests are processed in chunks to bound peak memory, and
        each chunk's hits land in the count matrix with one
        ``np.bincount`` over the flattened ``(record, rank)`` cells.
        """
        counts = self.rank_counts(samples, max_rank=max_rank, seed=seed)
        return counts.counts / samples

    def rank_counts(
        self,
        samples: int,
        max_rank: Optional[int] = None,
        seed: Optional[int] = None,
        budget: Optional[Budget] = None,
        tally: bool = False,
    ) -> SampleCounts:
        """Budget-aware chunked accumulation of the Eq. 7 counts.

        Draws ``samples`` score vectors in bounded-memory chunks,
        checking ``budget`` (deadline/cancellation) at every chunk
        boundary. On budget exhaustion the counts accumulated so far
        are returned with ``done < requested`` (``partial=True``) and
        the stop reason — never an exception. For a fixed ``seed`` the
        draws per chunk are identical whether or not a budget is
        supplied, so a clipped run is a strict prefix of the full run.

        Each chunk is drawn with one :meth:`_draw` call, so the RNG
        stream does not depend on how the chunk is ranked. It is then
        ranked by :func:`rank_order` (only the top ``max_rank``
        positions are ordered exactly) in row slices of at most
        :data:`RANK_SLICE_CELLS` cells, each counted with one
        ``np.bincount`` over ``record * limit + rank`` into an integer
        tally. The tally adds exactly into the float matrix once per
        chunk, so the result equals one ``+1.0`` per ``(record, rank)``
        hit.

        With ``tally=True`` the same ranked chunks are reduced instead
        to a :class:`~collections.Counter` of their top-``max_rank``
        prefixes: record-index tuples, best first, found with one
        ``np.unique(axis=0)`` pass per chunk.

        Raises :class:`~repro.core.errors.EvaluationError` when a drawn
        score is NaN/inf — rankings over non-finite scores are
        meaningless, and a corrupt model must not masquerade as data.
        """
        if samples < 1:
            raise QueryError("need at least one sample")
        n = len(self.records)
        limit = n if max_rank is None else min(max_rank, n)
        chunk = max(1, min(samples, self._MAX_MATRIX_CELLS // max(n, 1)))
        rows = max(1, RANK_SLICE_CELLS // max(n, 1))
        counts: Union[np.ndarray, Counter] = (
            Counter() if tally else np.zeros((n, limit))
        )
        rank_cols = np.arange(limit)
        rng = self._stream(seed)
        done = 0
        reason: Optional[str] = None
        while done < samples:
            if budget is not None and budget.expired():
                reason = budget.exhausted_reason()
                break
            batch = min(chunk, samples - done)
            scores = self._draw(rng, batch)
            hits = np.zeros(n * limit, dtype=np.int64)
            tops: List[np.ndarray] = []
            for start in range(0, batch, rows):
                block = scores[start : start + rows]
                if not np.all(np.isfinite(block)):
                    raise EvaluationError(
                        "sampled scores contain non-finite values; the "
                        "score model is corrupt (see "
                        "core.validation.validate_records)"
                    )
                top = rank_order(block, limit, self._tau)
                if tally:
                    tops.append(top)
                else:
                    top *= limit  # in place: no slice-sized temporaries
                    top += rank_cols
                    hits += np.bincount(top.ravel(), minlength=n * limit)
            if tally:
                keys, seen = np.unique(
                    np.concatenate(tops), axis=0, return_counts=True
                )
                counts.update(
                    dict(zip(map(tuple, keys.tolist()), seen.tolist()))
                )
            else:
                counts += hits.reshape(n, limit)
            done += batch
        if done > 0:
            metrics.inc("samples_drawn_total", float(done))
            accumulate("samples_drawn", done)
        return SampleCounts(
            counts=counts, done=done, requested=samples, reason=reason
        )

    # ------------------------------------------------------------------
    # prefix / set / extension probabilities
    # ------------------------------------------------------------------

    def prefix_probability(
        self, prefix: Sequence, samples: int, seed: Optional[int] = None
    ) -> float:
        """Estimate the top-k prefix probability (Eq. 6) by sampling."""
        idxs = [self._resolve(r) for r in prefix]
        if len(set(idxs)) != len(idxs):
            raise QueryError("prefix contains duplicate records")
        if not idxs:
            return 1.0
        scores = self.sample_scores(samples, seed=seed)
        ok = self._in_order(scores, idxs) & self._above_rest(scores, idxs)
        return clamp_probability(float(ok.mean()))

    def top_set_probability(
        self, record_set: Iterable, samples: int, seed: Optional[int] = None
    ) -> float:
        """Estimate the top-k set probability by sampling."""
        idxs = [self._resolve(r) for r in record_set]
        if len(set(idxs)) != len(idxs):
            raise QueryError("record set contains duplicates")
        if not idxs:
            return 1.0
        scores = self.sample_scores(samples, seed=seed)
        ok = self._above_rest(scores, idxs)
        return clamp_probability(float(ok.mean()))

    def prefix_probability_sis(
        self, prefix: Sequence, samples: int, seed: Optional[int] = None
    ) -> float:
        """Sequential-importance-sampling estimator for Eq. 6.

        Goes beyond the paper's plain Monte-Carlo integration: scores
        are drawn *conditionally* top-down — ``x_1 ~ f_1``, then
        ``x_2 ~ f_2 | x_2 < x_1`` with weight factor ``F_2(x_1)``, and so
        on — finishing with the CDF-product factor over the remaining
        records. Every draw contributes a positive weight whenever the
        prefix is feasible, so the estimator has dramatically lower
        variance than indicator counting for long prefixes; it is
        unbiased by the usual importance-sampling telescoping argument.
        Used as the default MCMC state-probability oracle on databases
        too large for exact integration. The top-down loop is inherently
        sequential over the ``k`` prefix records (each draw conditions
        on the previous one); the O(n) CDF product over the remaining
        records is columnar.
        """
        idxs = [self._resolve(r) for r in prefix]
        if len(set(idxs)) != len(idxs):
            raise QueryError("prefix contains duplicate records")
        if not idxs:
            return 1.0
        rng = self._stream(seed)
        weights = np.ones(samples)
        prev = np.full(samples, np.inf)
        for i in idxs:  # reprolint: disable=PERF001 -- conditional draws chain through `prev`; the loop spans the k-record prefix, not the database
            rec = self.records[i]
            if rec.is_deterministic:
                value = self._tie_values.get(rec.record_id, rec.lower)
                weights = np.where(prev > value, weights, 0.0)
                prev = np.where(weights > 0.0, value, prev)
                continue
            cap = np.asarray(rec.score.cdf(np.minimum(prev, rec.upper)))
            weights = weights * cap
            # Draw from the score distribution truncated below ``prev``;
            # samples whose weight already collapsed to zero are inert.
            u = rng.random(samples) * np.where(cap > 0.0, cap, 1.0)
            prev = np.asarray(rec.score.ppf(u))
        weights = weights * self._plan.cdf_product(prev, exclude=idxs)
        return clamp_probability(float(weights.mean()))

    def top_set_probability_cdf(
        self, record_set: Iterable, samples: int, seed: Optional[int] = None
    ) -> float:
        """Low-variance top-k set estimator via the CDF product.

        Samples only the set members' scores and weights each draw by
        ``prod_{rest} F_j(min of members)``; both stages are columnar.
        """
        idxs = [self._resolve(r) for r in record_set]
        if len(set(idxs)) != len(idxs):
            raise QueryError("record set contains duplicates")
        if not idxs:
            return 1.0
        rng = self._stream(seed)
        members = self._subplan(idxs).sample(rng, samples)
        inside_min = np.min(members, axis=1)
        weights = self._plan.cdf_product(inside_min, exclude=idxs)
        return clamp_probability(float(weights.mean()))

    def extension_probability(
        self, order: Sequence, samples: int, seed: Optional[int] = None
    ) -> float:
        """Estimate a complete linear extension's probability (Eq. 4)."""
        idxs = [self._resolve(r) for r in order]
        if len(idxs) != len(self.records) or len(set(idxs)) != len(idxs):
            raise QueryError(
                "extension_probability needs a permutation of the database"
            )
        scores = self.sample_scores(samples, seed=seed)
        return clamp_probability(float(self._in_order(scores, idxs).mean()))

    def _in_order(self, scores: np.ndarray, idxs: List[int]) -> np.ndarray:
        """Rows where the records ``idxs`` rank in the order given."""
        ordered, pos = scores[:, idxs], self._tau_position[idxs]
        return np.all(
            _ranks_above(ordered[:, :-1], pos[:-1], ordered[:, 1:], pos[1:]),
            axis=1,
        )

    def _above_rest(self, scores: np.ndarray, idxs: List[int]) -> np.ndarray:
        """Rows where every record in ``idxs`` ranks above all others.

        Compares the lowest-ranked member with the highest-ranked other
        record, each found with its τ position.
        """
        rest = np.setdiff1d(np.arange(len(self.records)), idxs)
        if rest.size == 0:
            return np.ones(scores.shape[0], dtype=bool)
        inside, outside = scores[:, idxs], scores[:, rest]
        low, high = inside.min(axis=1), outside.max(axis=1)
        low_pos = np.where(
            inside == low[:, None], self._tau_position[idxs], -1
        ).max(axis=1)
        high_pos = np.where(
            outside == high[:, None], self._tau_position[rest], scores.shape[1]
        ).min(axis=1)
        return _ranks_above(low, low_pos, high, high_pos)
