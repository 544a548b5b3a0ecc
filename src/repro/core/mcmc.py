"""Markov-chain Monte-Carlo evaluation of TOP-k queries (paper §VI-D).

The answer spaces of UTop-Prefix and UTop-Set are exponential in the
database size, so the paper simulates the top-k prefix/set distribution
with a Metropolis–Hastings random walk over linear extensions:

- **States** are linear extensions; the target density ``pi(omega)`` is
  the probability of the state's top-k prefix (or set).
- **Proposal**: pick ``z <= k`` random ranks; move each picked record
  upward (if below the top-k region) or downward (if inside it) by
  successive record swaps, where a swap of adjacent records commits with
  the pairwise probability of the *new* orientation (Eq. 1) and the walk
  of one record stops at its first uncommitted swap. Because a swap that
  would violate dominance has commit probability zero, proposals always
  remain valid linear extensions.
- **Multiple chains** from independently sampled starting extensions are
  run until the Gelman–Rubin statistic signals mixing; the ``l`` most
  probable states visited across chains approximate the query answer
  (paper §VI-D, "Computing Query Answers").
- **Caching** (paper §VI-D, "Caching"): pairwise probabilities and state
  probabilities are memoized across steps and across chains.

The module also provides the paper's probability upper bounds used to
report an approximation-error estimate for the best state found.
"""

from __future__ import annotations

import hashlib
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from . import metrics
from .budget import Budget
from .diagnostics import ConvergenceTrace, gelman_rubin
from .distributions import SamplingPlan, build_sampling_plan
from .errors import ConvergenceError, EvaluationError, QueryError
from .exact import ExactEvaluator, supports_exact
from .montecarlo import MonteCarloEvaluator
from .pairwise import PairwiseCache, probability_greater
from .metrics import active_registry, use_registry
from .parallel import resolve_workers
from .records import UncertainRecord
from .trace import Span, activate, current_span

logger = logging.getLogger(__name__)

#: Largest database for which ``oracle="auto"`` scores states with the
#: exact (quadrature) oracle rather than the Monte-Carlo one.
EXACT_ORACLE_RECORDS = 60

__all__ = [
    "BLOCK",
    "MetropolisHastingsChain",
    "TopKSimulation",
    "MCMCResult",
    "prefix_probability_upper_bound",
    "set_probability_upper_bound",
]


def _state_seed(ids: Sequence[str]) -> int:
    """Stable per-state seed for the Monte-Carlo oracle.

    Derived from the record ids with a cryptographic hash so it is
    reproducible across processes (Python's ``hash()`` is salted per
    interpreter) and independent of which chain — or which worker
    thread — asks first.
    """
    digest = hashlib.blake2b(
        "\x1f".join(ids).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def prefix_probability_upper_bound(rank_matrix: np.ndarray, k: int) -> float:
    """Upper bound on any top-k *prefix* probability (paper §VI-D).

    The prefix event requires record occurrences at ranks ``1..k``
    simultaneously, so its probability cannot exceed
    ``min_{i<=k} max_t eta_i(t)``.
    """
    if k < 1 or k > rank_matrix.shape[1]:
        raise QueryError(f"k={k} outside the rank matrix width")
    return float(rank_matrix[:, :k].max(axis=0).min())


def set_probability_upper_bound(rank_matrix: np.ndarray, k: int) -> float:
    """Upper bound on any top-k *set* probability (paper §VI-D).

    A top-k set needs ``k`` records simultaneously inside ranks
    ``1..k``, so its probability cannot exceed the k-th largest
    ``eta_{1..k}(t)`` value.
    """
    if k < 1 or k > rank_matrix.shape[1]:
        raise QueryError(f"k={k} outside the rank matrix width")
    mass = np.sort(rank_matrix[:, :k].sum(axis=1))[::-1]
    return float(min(mass[k - 1], 1.0))


#: Uniforms a chain draws from its walk stream per refill. Each step
#: reads, in order: ``z``, then per moved record its rank ``r`` and one
#: uniform per swap attempt, then (for a changed proposal) the
#: acceptance uniform. Unread uniforms carry over to the next step.
BLOCK = 1024


def _uniforms(rng: np.random.Generator) -> Iterator[float]:
    """Endless stream of ``[0, 1)`` uniforms, drawn ``BLOCK`` at a time."""
    while True:  # reprolint: disable=ROB001,ROB002 -- endless generator: the chain reads only what its steps consume
        yield from rng.random(BLOCK).tolist()


class MetropolisHastingsChain:  # reprolint: disable-scope=CON001 -- thread-confined: each chain worker owns exactly one instance, with its pairwise matrix and state memo; state never crosses threads until the serial merge in TopKSimulation.run
    """A single M-H chain over linear extensions.

    States are tuples of record indices; a state's key is the index
    tuple (prefix target) or frozenset (set target) of its top ``k``.
    ``visited``, ``visit_counts`` and the chain's state memo are keyed
    by these index keys; record ids appear only in oracle calls.

    Parameters
    ----------
    records:
        Database order used to interpret state indices.
    k:
        Size of the top-k region driving the target density.
    target:
        ``"prefix"`` or ``"set"``; selects what ``pi`` measures.
    state_probability:
        Callable mapping a record-id state key (tuple of record ids for
        prefixes, frozenset for sets) to its probability.
    pairwise:
        Callable ``(record_a, record_b) -> Pr(a > b)`` used by the
        proposal; inject a cached version to enable §VI-D caching.
    rng:
        Chain-private random generator (the walk stream).
    initial:
        Starting state as a tuple of record indices (a valid extension).
    memoize_pairwise:
        Keep each Eq. 1 value the chain reads in its ``n x n`` matrix;
        off, every swap attempt calls ``pairwise``.
    """

    def __init__(
        self,
        records: Sequence[UncertainRecord],
        k: int,
        target: str,
        state_probability: Callable[[Hashable], float],
        pairwise: Callable[[UncertainRecord, UncertainRecord], float],
        rng: np.random.Generator,
        initial: Tuple[int, ...],
        memoize_pairwise: bool = True,
    ) -> None:
        self.records = records
        self.k = k
        self.target = target
        self._pi_of_key = state_probability
        self._pairwise = pairwise
        self._memoize_pairwise = memoize_pairwise
        n = len(records)
        #: ``_matrix[a][b]`` is Pr(records[a] > records[b]) once read.
        self._matrix: List[List[Optional[float]]] = [
            [None] * n for _ in range(n)
        ]
        #: Swap attempts served from ``_matrix`` (§VI-D cache hits).
        self.matrix_hits = 0
        self.rng = rng
        self._draw = _uniforms(rng).__next__
        self.state = tuple(initial)
        self._current = self._key(self.state)
        #: Probability of every state the chain has scored — its initial
        #: state and each changed proposal — by index key. This is both
        #: the per-chain memo in front of ``state_probability`` and the
        #: set of states the answer is picked from.
        self.visited: Dict[Hashable, float] = {}
        self.pi = self._pi(self._current)
        self.trace: List[float] = [self.pi]
        #: How many steps the chain spent at each state key. Per the
        #: paper (§III), at stationarity the relative visit frequency
        #: estimates pi(x) — an alternative estimator to the exact
        #: per-state probabilities in ``visited``.
        self.visit_counts: Dict[Hashable, int] = {self._current: 1}
        self.accepted = 0
        self.steps = 0

    def _key(self, state: Sequence[int]) -> Hashable:
        top = state[: self.k]
        return tuple(top) if self.target == "prefix" else frozenset(top)

    def _pi(self, key: Hashable) -> float:
        """Probability of an index key, through the chain's memo."""
        value = self.visited.get(key)
        if value is None:
            ids = (self.records[i].record_id for i in key)
            value = self._pi_of_key(
                tuple(ids) if self.target == "prefix" else frozenset(ids)
            )
            self.visited[key] = value
        return value

    def step(self) -> bool:
        """Advance one M-H step; returns whether the move was accepted."""
        accepted = self.accepted
        self.run(1)
        return self.accepted > accepted

    def run(self, steps: int) -> None:
        """Advance the chain ``steps`` M-H steps (paper §VI-D).

        Proposal ("Sampling Space"): pick ``z <= k`` ranks; move each
        picked record downward if it sits inside the top-k region and
        upward otherwise, by adjacent swaps that commit with the
        pairwise probability of the *new* orientation (Eq. 1). The walk
        of one record stops at its first uncommitted swap or the end of
        the extension. A swap that would violate dominance commits with
        probability zero, so every state is a linear extension.
        """
        k = self.k
        state = list(self.state)
        n = len(state)
        records = self.records
        matrix = self._matrix
        pairwise = self._pairwise
        memoize = self._memoize_pairwise
        draw = self._draw
        key_of = self._key
        pi_of = self._pi
        counts = self.visit_counts
        trace = self.trace
        current = self._current
        pi = self.pi
        hits = 0
        accepted = 0
        for _ in range(steps):
            candidate = state[:]
            forward = 1.0
            reverse = 1.0
            changed = False
            for _ in range(1 + int(draw() * k)):
                pos = int(draw() * n)
                direction = 1 if pos < k else -1
                mover = candidate[pos]
                m = pos + direction
                while 0 <= m < n:  # reprolint: disable=ROB001,ROB002 -- bounded: the walk exits at the array ends or at the first uncommitted swap
                    other = candidate[m]
                    # Moving down, the neighbour ends above the mover
                    # with Pr(other > mover); moving up, the mover
                    # overtakes it with Pr(mover > other).
                    if direction == 1:
                        above, below = other, mover
                    else:
                        above, below = mover, other
                    row = matrix[above]
                    commit = row[below]
                    if commit is None:
                        commit = pairwise(records[above], records[below])
                        if memoize:
                            row[below] = commit
                    else:
                        hits += 1
                    if draw() >= commit:
                        break  # first uncommitted swap stops this record
                    candidate[pos] = other
                    candidate[m] = mover
                    forward *= commit
                    # Undoing this swap restores the original
                    # orientation, which the reverse move commits with
                    # the complement.
                    reverse *= 1.0 - commit
                    changed = True
                    pos = m
                    m += direction
            if changed:
                key = key_of(candidate)
                pi_new = pi_of(key)
                # u < 1, so u < min(ratio, 1) exactly when u < ratio.
                u = draw()
                if pi <= 0.0 or u < (pi_new * reverse) / (pi * forward):
                    state = candidate
                    current = key
                    pi = pi_new
                    accepted += 1
            trace.append(pi)
            counts[current] = counts.get(current, 0) + 1
        self.state = tuple(state)
        self._current = current
        self.pi = pi
        self.steps += steps
        self.accepted += accepted
        self.matrix_hits += hits


@dataclass
class MCMCResult:
    """Outcome of a multi-chain top-k simulation.

    Attributes
    ----------
    answers:
        The ``l`` most probable states discovered, as ``(key,
        probability)`` pairs; keys are record-id tuples for prefix
        targets and frozensets for set targets.
    trace:
        Gelman–Rubin observations per epoch.
    converged:
        Whether the PSRF threshold was reached before the step budget.
    total_steps / acceptance_rate / elapsed:
        Aggregate simulation statistics.
    upper_bound:
        The paper's probability upper bound for any state, when the
        caller supplied a rank-probability matrix; ``None`` otherwise.
    partial:
        ``True`` when a resource budget stopped the walk before its
        step budget or convergence; the answers are best-so-far (chains
        record their initial states at construction, so the answer list
        is never empty).
    stop_reason:
        Why the budget stopped the walk (``"cancelled"``/``"deadline"``)
        or ``None`` for a clean run.
    """

    answers: List[Tuple[Hashable, float]]
    trace: ConvergenceTrace
    converged: bool
    total_steps: int
    acceptance_rate: float
    elapsed: float
    upper_bound: Optional[float] = None
    partial: bool = False
    stop_reason: Optional[str] = None
    states_visited: int = 0
    #: Total probability of the distinct states visited. Prefix (and
    #: set) events are mutually exclusive, so this is the share of the
    #: whole answer space the walk has covered — 1.0 means the chains
    #: have seen every state that matters.
    probability_mass: float = 0.0
    #: Relative visit frequency per state across all chains — the
    #: paper's §III estimator of pi(x); converges to the normalized
    #: state probabilities at stationarity.
    visit_frequencies: Dict[Hashable, float] = field(default_factory=dict)

    @property
    def error_estimate(self) -> Optional[float]:
        """Paper's approximation-error estimate: bound minus best found."""
        if self.upper_bound is None or not self.answers:
            return None
        return max(self.upper_bound - self.answers[0][1], 0.0)


class TopKSimulation:
    """Multi-chain Metropolis–Hastings driver for TOP-k queries.

    Parameters
    ----------
    records:
        The (pruned) database.
    k:
        Answer length.
    target:
        ``"prefix"`` for UTop-Prefix, ``"set"`` for UTop-Set.
    n_chains:
        Number of independent chains (paper recommends dispersed starts;
        Fig. 14 sweeps 20-80).
    rng:
        Seed generator; chains receive independent child generators.
    seed:
        Seed used to build the generator when ``rng`` is not given;
        defaults to ``0`` so simulations are reproducible by default.
    state_probability:
        Optional override for the state-probability oracle.
    oracle:
        ``"auto"`` (exact when densities allow it and the database has
        at most :data:`EXACT_ORACLE_RECORDS` records, Monte-Carlo
        otherwise), ``"exact"``, or ``"montecarlo"``. Ignored when
        ``state_probability`` is given.
    pi_samples:
        Sample count for the Monte-Carlo oracle.
    use_pairwise_cache:
        Toggle for the §VI-D pairwise-integral cache (the caching
        ablation benchmark switches this off).
    workers:
        Thread count (or ``"auto"``/``None``) for running chains in
        parallel within each epoch. Chains are independent walks and
        the state/pairwise oracles are deterministic per key, so the
        simulation result is identical for every worker count.
    oracle_retries:
        How many times a failed state-probability oracle call is
        retried (with exponential backoff) before the failure surfaces
        as :class:`~repro.core.errors.ConvergenceError`. The oracle is
        a pure function of the state key, so a retry after a transient
        fault reproduces the exact value the clean call would have
        returned.
    retry_backoff:
        Base sleep in seconds before the ``i``-th oracle retry
        (``retry_backoff * 2**i``); set to 0 in tests.
    plan:
        Optional precompiled sampling plan for the same records (used
        only to draw initial chain states); lets the computation cache
        share one compiled plan across simulations.
    pairwise_cache:
        Optional externally owned Eq. 1 memo. When given (and
        ``use_pairwise_cache`` is on) the simulation reads and feeds
        this shared cache instead of a private one, so pairwise
        integrals are shared with the exact and rank-aggregation
        paths.
    """

    def __init__(
        self,
        records: Sequence[UncertainRecord],
        k: int,
        target: str = "prefix",
        n_chains: int = 10,
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
        state_probability: Optional[Callable[[Hashable], float]] = None,
        oracle: str = "auto",
        pi_samples: int = 5000,
        use_pairwise_cache: bool = True,
        workers: Union[int, str, None] = None,
        oracle_retries: int = 2,
        retry_backoff: float = 0.05,
        plan: Optional[SamplingPlan] = None,
        pairwise_cache: Optional[PairwiseCache] = None,
    ) -> None:
        if target not in ("prefix", "set"):
            raise QueryError(f"unknown simulation target {target!r}")
        if k < 1 or k > len(records):
            raise QueryError(f"invalid k={k} for database of {len(records)}")
        if n_chains < 2:
            raise QueryError("need at least two chains for convergence checks")
        self.records = list(records)
        self.k = k
        self.target = target
        self.n_chains = n_chains
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.workers = resolve_workers(workers, tasks=n_chains)
        self._by_id = {rec.record_id: rec for rec in self.records}
        if plan is not None:
            # A shared precompiled plan (typically the engine cache's
            # compile_plan result). It only seeds initial chain states,
            # so tie-perturbed shared plans are fine — if anything they
            # respect the tie semantics better than a bare rebuild.
            self._plan: SamplingPlan = plan
        else:
            self._plan = build_sampling_plan(
                [rec.score for rec in self.records]
            )
        if oracle_retries < 0:
            raise QueryError("oracle_retries must be non-negative")
        self.oracle_retries = oracle_retries
        self.retry_backoff = retry_backoff
        self._state_cache: Dict[Hashable, float] = {}
        # The state-probability memo is shared across chain worker
        # threads (paper §VI-D "Caching"), so reads/writes take a lock.
        self._state_lock = threading.Lock()
        self._oracle = state_probability or self._build_oracle(
            oracle, pi_samples
        )
        if use_pairwise_cache:
            # An injected cache (the engine's per-database Eq. 1 memo)
            # lets MCMC proposals reuse integrals computed by the exact
            # and rank-aggregation paths, and vice versa.
            if pairwise_cache is None:
                pairwise_cache = PairwiseCache()
            self._pairwise_cache: Optional[PairwiseCache] = pairwise_cache
            self._pairwise = self._pairwise_cache.probability
        else:
            self._pairwise_cache = None
            self._pairwise = probability_greater

    # ------------------------------------------------------------------
    # oracles
    # ------------------------------------------------------------------

    def _build_oracle(
        self, oracle: str, pi_samples: int
    ) -> Callable[[Hashable], float]:
        if oracle == "auto":
            use_exact = (
                supports_exact(self.records)
                and len(self.records) <= EXACT_ORACLE_RECORDS
            )
            oracle = "exact" if use_exact else "montecarlo"
        if oracle == "exact":
            evaluator = ExactEvaluator(self.records)
            if self.target == "prefix":
                return lambda key: evaluator.prefix_probability(list(key))
            return lambda key: evaluator.top_set_probability(list(key))
        if oracle != "montecarlo":
            raise QueryError(f"unknown state-probability oracle {oracle!r}")
        sampler = MonteCarloEvaluator(
            self.records, seed=int(self.rng.integers(2**63))
        )

        # Sequential importance sampling (prefixes) and the CDF-product
        # estimator (sets) are unbiased and strictly positive for
        # feasible states, unlike plain indicator frequencies, so the
        # walk never sees spurious zeros. Each state is estimated under
        # its own id-derived seed stream, so the oracle is a pure
        # function of the state key: chains can query it concurrently
        # (or in any order) without changing any estimate.
        if self.target == "prefix":

            def prefix_oracle(key: Hashable) -> float:
                ids = list(key)
                return sampler.prefix_probability_sis(
                    ids, pi_samples, seed=_state_seed(ids)
                )

            return prefix_oracle

        def set_oracle(key: Hashable) -> float:
            # Sort the frozenset's ids: iteration order is salted by
            # PYTHONHASHSEED, and both the seed and the sub-plan sample
            # order must not depend on it.
            ids = sorted(key)
            return sampler.top_set_probability_cdf(
                ids, pi_samples, seed=_state_seed(ids)
            )

        return set_oracle

    def _call_oracle(self, key: Hashable) -> float:
        """One oracle evaluation with bounded retry-with-backoff.

        A transient oracle failure (flaky sampling backend, injected
        fault) is retried up to ``oracle_retries`` times; because the
        oracle is a pure function of ``key`` — Monte-Carlo oracles seed
        from a hash of the state's record ids — a successful retry
        yields exactly the value the clean call would have. Persistent
        failure surfaces as :class:`ConvergenceError` with the original
        exception chained.
        """
        attempts = self.oracle_retries + 1
        for attempt in range(1, attempts + 1):
            try:
                return self._oracle(key)
            except QueryError:
                # Invalid state keys fail identically forever.
                raise
            except Exception as exc:
                if attempt >= attempts:
                    raise ConvergenceError(
                        f"state-probability oracle failed {attempts} "
                        f"time(s) for state {key!r}: {exc}"
                    ) from exc
                logger.warning(
                    "oracle failed for state %r (%s: %s); retry %d/%d",
                    key,
                    type(exc).__name__,
                    exc,
                    attempt,
                    self.oracle_retries,
                )
                metrics.inc("mcmc_oracle_retries_total")
                if self.retry_backoff > 0.0:
                    time.sleep(self.retry_backoff * (2.0 ** (attempt - 1)))
        raise ConvergenceError(  # pragma: no cover - loop returns/raises
            f"oracle produced no value for state {key!r}"
        )

    def _cached_pi(self, key: Hashable) -> float:
        with self._state_lock:
            value = self._state_cache.get(key)
        if value is None:
            # Oracle calls run outside the lock (they can be expensive);
            # the oracle is deterministic per key, so two chains racing
            # on the same state store the same value.
            value = self._call_oracle(key)
            with self._state_lock:
                value = self._state_cache.setdefault(key, value)
        return value

    def _initial_state(self, rng: np.random.Generator) -> Tuple[int, ...]:
        """Sample a starting extension by drawing and ranking scores."""
        scores = self._plan.sample(rng, 1)[0]
        order = sorted(
            range(len(self.records)),
            key=lambda i: (-scores[i], self.records[i].record_id),
        )
        return tuple(order)

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------

    def _run_epochs(
        self,
        chains: List[MetropolisHastingsChain],
        pool: Optional[ThreadPoolExecutor],
        trace: ConvergenceTrace,
        start: float,
        max_steps: int,
        epoch: int,
        psrf_threshold: float,
        min_epochs: int,
        advance: Callable[[int, int], None],
        budget: Optional[Budget] = None,
    ) -> Tuple[bool, int, Optional[str]]:
        """Advance all chains epoch by epoch until mixing or the budget.

        ``advance(index, steps)`` runs chain ``index`` for ``steps``
        steps.

        With a thread pool, each chain advances on its own worker; a
        chain only touches its private generator and the shared
        memoization caches, whose entries are pure functions of their
        keys, so any interleaving produces the same chains.

        A resource ``budget`` is consulted at epoch boundaries: when it
        expires, the walk stops where it stands and the caller reports
        a best-so-far partial result (the third return element carries
        the stop reason).
        """
        converged = False
        done = 0
        stop_reason: Optional[str] = None
        while done < max_steps:
            if budget is not None and budget.expired():
                stop_reason = budget.exhausted_reason()
                break
            todo = min(epoch, max_steps - done)
            if pool is not None:
                list(
                    pool.map(
                        lambda index: advance(index, todo),
                        range(len(chains)),
                    )
                )
            else:
                for index in range(len(chains)):
                    advance(index, todo)
            done += todo
            metrics.inc("mcmc_steps_total", float(todo * len(chains)))
            try:
                # Summarize states by log-probability: pi is heavy-tailed
                # across the walk, and the PSRF of the raw values would
                # be dominated by rare high-probability excursions.
                summaries = [
                    np.log(np.maximum(np.asarray(c.trace), 1e-300))
                    for c in chains
                ]
                psrf = gelman_rubin(summaries)
            except EvaluationError as exc:
                # Chains too short for a PSRF yet (tiny epoch budgets);
                # keep running and try again next epoch.
                logger.warning(
                    "Gelman-Rubin unavailable at step %d: %s", done, exc
                )
                psrf = float("inf")
            trace.steps.append(done)
            trace.psrf.append(psrf)
            trace.elapsed.append(time.perf_counter() - start)
            if len(trace.steps) >= min_epochs and psrf <= psrf_threshold:
                converged = True
                break
        return converged, done, stop_reason

    def run(
        self,
        max_steps: int = 5000,
        epoch: int = 50,
        psrf_threshold: float = 1.05,
        top_l: int = 1,
        rank_matrix: Optional[np.ndarray] = None,
        min_epochs: int = 2,
        budget: Optional[Budget] = None,
        require_convergence: bool = False,
    ) -> MCMCResult:
        """Run all chains until mixing or the per-chain step budget.

        Parameters
        ----------
        max_steps:
            Per-chain step budget.
        epoch:
            Steps between Gelman–Rubin evaluations.
        psrf_threshold:
            PSRF value that declares convergence (1.0 is perfect mixing).
        top_l:
            Number of best states to report.
        rank_matrix:
            Optional ``eta`` matrix enabling the probability upper bound
            / error estimate of §VI-D.
        min_epochs:
            Minimum epochs before convergence may be declared.
        budget:
            Optional resource :class:`~repro.core.budget.Budget`
            checked at epoch boundaries; on expiry the best states
            found so far are returned with ``partial=True``.
        require_convergence:
            When ``True``, a walk that finishes its step budget without
            reaching ``psrf_threshold`` raises
            :class:`~repro.core.errors.ConvergenceError` instead of
            returning an unconverged result. (A budget-stopped walk
            still returns partial answers — running out of resources is
            a degradation, not a failure.)
        """
        start = time.perf_counter()
        # One root per run() call (consumed from self.rng, so repeated
        # runs explore fresh trajectories); each chain gets two spawned
        # child streams — walk randomness and starting state — that are
        # independent of every other chain by SeedSequence construction.
        root = np.random.SeedSequence(int(self.rng.integers(2**63)))
        streams = root.spawn(2 * self.n_chains)
        chains = [
            MetropolisHastingsChain(
                self.records,
                self.k,
                self.target,
                self._cached_pi,
                self._pairwise,
                np.random.default_rng(streams[2 * c]),
                self._initial_state(np.random.default_rng(streams[2 * c + 1])),
                memoize_pairwise=self._pairwise_cache is not None,
            )
            for c in range(self.n_chains)
        ]
        pool = (
            ThreadPoolExecutor(max_workers=self.workers)
            if self.workers > 1
            else None
        )
        # Chains may advance on worker threads, which start with a
        # fresh context: capture the active span and metrics registry
        # here and re-install both around every chain advancement, so
        # per-chain spans attach to the query's trace and oracle-retry
        # counters hit the query's registry. The chain span is opened
        # here, so the CPU of the thread that steps the chain is
        # credited to it explicitly.
        parent = current_span()
        registry = active_registry()
        chain_spans: Optional[List[Span]] = (
            None
            if parent is None
            else [
                parent.child("chain", chain=c)
                for c in range(self.n_chains)
            ]
        )

        def advance(index: int, steps: int) -> None:
            with use_registry(registry):
                if chain_spans is None:
                    chains[index].run(steps)
                else:
                    begun = time.thread_time()
                    with activate(chain_spans[index]):
                        chains[index].run(steps)
                    chain_spans[index].credit_cpu(
                        time.thread_time() - begun
                    )

        trace = ConvergenceTrace(steps=[], psrf=[], elapsed=[])
        converged = False
        done = 0
        stop_reason: Optional[str] = None
        try:
            converged, done, stop_reason = self._run_epochs(
                chains, pool, trace, start, max_steps, epoch,
                psrf_threshold, min_epochs, budget=budget,
                advance=advance,
            )
        finally:
            if pool is not None:
                pool.shutdown(wait=True)
            if self._pairwise_cache is not None:
                # A matrix read is a §VI-D cache hit the shared memo
                # never saw.
                self._pairwise_cache.credit_hits(
                    sum(c.matrix_hits for c in chains)
                )
            if chain_spans is not None:
                for chain_span, chain in zip(chain_spans, chains):
                    chain_span.set(
                        steps=done, states_visited=len(chain.visited)
                    )
                    chain_span.end()
        if require_convergence and not converged and stop_reason is None:
            last_psrf = trace.psrf[-1] if trace.psrf else float("inf")
            raise ConvergenceError(
                f"MCMC failed to converge: PSRF {last_psrf:.4f} > "
                f"{psrf_threshold} after {done} steps per chain "
                f"({self.n_chains} chains)"
            )

        # Chains key states by record index; the oracle is a pure
        # function of the state, so every chain holds the same value
        # for a shared key. Answers are keyed by record ids.
        ids = [rec.record_id for rec in self.records]
        if self.target == "prefix":
            as_ids = lambda key: tuple(ids[i] for i in key)
        else:
            as_ids = lambda key: frozenset(ids[i] for i in key)
        by_index: Dict[Hashable, float] = {}
        index_visits: Dict[Hashable, int] = {}
        for chain in chains:
            by_index.update(chain.visited)
            for key, count in chain.visit_counts.items():
                index_visits[key] = index_visits.get(key, 0) + count
        merged = {as_ids(key): value for key, value in by_index.items()}
        visit_totals = {
            as_ids(key): count for key, count in index_visits.items()
        }
        total_visits = sum(visit_totals.values())
        visit_frequencies = {
            key: count / total_visits for key, count in visit_totals.items()
        } if total_visits else {}
        # Break ties by the engine's canonical key order (ids in rank
        # order for prefixes, sorted ids for sets), never by ``str`` of
        # a frozenset, whose order follows the hash salt: ``top_l``
        # truncates before the engine re-sorts.
        order = (lambda key: key) if self.target == "prefix" else sorted
        ranked = sorted(merged.items(), key=lambda kv: (-kv[1], order(kv[0])))
        bound = None
        if rank_matrix is not None:
            bound = (
                prefix_probability_upper_bound(rank_matrix, self.k)
                if self.target == "prefix"
                else set_probability_upper_bound(rank_matrix, self.k)
            )
        total_steps = sum(c.steps for c in chains)
        accepted = sum(c.accepted for c in chains)
        return MCMCResult(
            answers=ranked[:top_l],
            trace=trace,
            converged=converged,
            total_steps=total_steps,
            acceptance_rate=accepted / total_steps if total_steps else 0.0,
            elapsed=time.perf_counter() - start,
            upper_bound=bound,
            partial=stop_reason is not None,
            stop_reason=stop_reason,
            states_visited=len(merged),
            probability_mass=min(sum(merged.values()), 1.0),
            visit_frequencies=visit_frequencies,
        )

    @property
    def pairwise_cache_stats(self) -> Optional[Tuple[int, int]]:
        """(hits, misses) of the pairwise cache, if caching is enabled."""
        if self._pairwise_cache is None:
            return None
        return (self._pairwise_cache.hits, self._pairwise_cache.misses)

