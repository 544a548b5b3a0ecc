"""Exact probability computation over the linear-extension space.

The paper evaluates its nested integrals (Eq. 4 for complete rankings,
Eq. 6 for k-length prefixes) with Monte-Carlo integration, including the
BASELINE algorithm it uses as ground truth. For the density families the
paper actually experiments with (uniform intervals and deterministic
scores), those integrals are *exactly computable*: every density and CDF
is a piecewise polynomial, and the backward recursion

    h_n+1(x) = 1  (or the CDF product of Eq. 6)
    h_j(x)   = int_{-inf}^{x} f_j(y) * h_j+1(y) dy

stays inside the piecewise-polynomial algebra of
:mod:`repro.core.piecewise`. This module implements that recursion plus
exact top-k set probabilities and exact per-rank probabilities (a
Poisson-binomial dynamic program over piecewise polynomials), giving the
reproduction a stronger ground truth than the paper had for its own
accuracy experiments (Fig. 9).

Deterministic scores are Dirac masses and are special-cased: identical
deterministic scores are separated by an infinitesimal perturbation
ordered by the tie-breaker ``tau``, which realizes the paper's tie
semantics as a limit.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .budget import Budget
from .errors import EvaluationError, QueryError
from .piecewise import PiecewisePolynomial
from .records import UncertainRecord

__all__ = ["supports_exact", "ExactEvaluator"]

#: Most entries each :class:`ExactEvaluator` memo keeps. A full memo
#: stops inserting: answers are unchanged, later states just recompute.
#: The cap bounds a cached evaluator's footprint, which the computation
#: cache accounts at a flat estimate. A cold MCMC query over ~8 records
#: creates ~40 product entries.
MEMO_ENTRIES = 512


def supports_exact(records: Iterable[UncertainRecord]) -> bool:
    """Whether every record's density is exactly piecewise polynomial."""
    return all(
        rec.is_deterministic or rec.score.supports_exact for rec in records
    )


def _tie_perturbations(records: Sequence[UncertainRecord]) -> Dict[str, float]:
    """Perturbed values for deterministic records with equal scores.

    Groups of identical deterministic scores are spread over an
    infinitesimal ladder ordered by the tie-breaker (smaller record id
    ranks higher, hence receives the larger perturbed value). The ladder
    width is far below the smallest distinct gap in the data, so no other
    ordering relationship can flip. When that gap is below the float
    resolution at the tied value (e.g. bounds ``0`` and ``1e-105`` next to
    a tie at ``1.0``), the ladder steps by one ulp instead, so the
    perturbed values stay distinct.
    """
    groups: Dict[float, List[UncertainRecord]] = {}
    for rec in records:
        if rec.is_deterministic:
            groups.setdefault(rec.lower, []).append(rec)
    ties = {v: g for v, g in groups.items() if len(g) >= 2}
    if not ties:
        return {}
    bounds = sorted(
        {b for rec in records for b in (rec.lower, rec.upper)}
    )
    gaps = [b2 - b1 for b1, b2 in zip(bounds, bounds[1:]) if b2 > b1]
    scale = min(gaps) if gaps else max(1.0, abs(bounds[0]))
    out: Dict[str, float] = {}
    for value, group in ties.items():
        step = scale * 1e-7 / len(group)
        if value + step == value:
            step = float(np.spacing(abs(value)))
        ordered = sorted(group, key=lambda r: r.record_id)  # tau order
        for pos, rec in enumerate(ordered):
            out[rec.record_id] = value + step * (len(group) - 1 - pos)
    return out


class ExactEvaluator:
    """Exact query-probability engine for piecewise-polynomial densities.

    Parameters
    ----------
    records:
        The database ``D``. Every record must either be deterministic or
        carry a density with an exact piecewise-polynomial form
        (:class:`~repro.core.distributions.UniformScore`,
        :class:`~repro.core.distributions.HistogramScore`,
        :class:`~repro.core.distributions.TriangularScore`, exact
        mixtures); otherwise construction raises
        :class:`~repro.core.errors.EvaluationError`. Smooth families can
        opt in via ``piecewise_approximation``.
    """

    def __init__(self, records: Sequence[UncertainRecord]) -> None:
        self.records = list(records)
        if not supports_exact(self.records):
            raise EvaluationError(
                "exact evaluation needs piecewise-polynomial densities; "
                "approximate smooth families first or use the Monte-Carlo "
                "evaluators"
            )
        self._by_id: Dict[str, UncertainRecord] = {}
        for rec in self.records:
            if rec.record_id in self._by_id:
                raise EvaluationError(
                    f"duplicate record id {rec.record_id!r}"
                )
            self._by_id[rec.record_id] = rec
        self._point_value = _tie_perturbations(self.records)
        # Deepest-seen eta matrix memo; see rank_probability_matrix.
        self._matrix: Optional[np.ndarray] = None
        self._pdf: Dict[str, Optional[PiecewisePolynomial]] = {}
        self._cdf: Dict[str, PiecewisePolynomial] = {}
        for rec in self.records:
            if rec.is_deterministic:
                self._pdf[rec.record_id] = None
                self._cdf[rec.record_id] = PiecewisePolynomial.step(
                    self._point(rec), 1.0
                )
            else:
                pdf = rec.score.pdf_piecewise()
                self._pdf[rec.record_id] = pdf
                self._cdf[rec.record_id] = pdf.antiderivative()
        # MCMC chains query one evaluator from pool threads, so both
        # memos sit behind one lock. Values are built outside it: a
        # racing duplicate build computes the same function, so it is
        # wasted work, not a different answer.
        self._memo_lock = threading.Lock()
        # Tuple of record ids multiplied so far (database order) -> the
        # running CDF product after them; see _complement_product.
        self._products: Dict[Tuple[str, ...], PiecewisePolynomial] = {}
        # Record id -> survival function ``1.0 - F``.
        self._survival: Dict[str, PiecewisePolynomial] = {}

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _point(self, rec: UncertainRecord) -> float:
        """Effective (tie-perturbed) value of a deterministic record."""
        return self._point_value.get(rec.record_id, rec.lower)

    def _complement_product(self, ids: set) -> PiecewisePolynomial:
        """``prod F_j`` over the records not in ``ids``, in database order.

        Each partial product is memoised under the tuple of record ids
        multiplied so far, so states sharing a complement prefix share
        its products. Every partial is the same floating-point
        computation, ``((1 * F_a) * F_b) * ...``, a cold call makes, so a
        memoised answer is bit-identical to a fresh one.
        """
        key: Tuple[str, ...] = ()
        h = PiecewisePolynomial.constant(1.0)
        for rec in self.records:
            rid = rec.record_id
            if rid in ids:
                continue
            key = key + (rid,)
            with self._memo_lock:
                cached = self._products.get(key)
            if cached is None:
                cached = h * self._cdf[rid]
                with self._memo_lock:
                    if len(self._products) < MEMO_ENTRIES:
                        self._products[key] = cached
            h = cached
        return h

    def _survival_of(self, rec: UncertainRecord) -> PiecewisePolynomial:
        """The memoised survival function ``1.0 - F`` of ``rec``."""
        rid = rec.record_id
        with self._memo_lock:
            surv = self._survival.get(rid)
        if surv is None:
            surv = 1.0 - self._cdf[rid]
            with self._memo_lock:
                if len(self._survival) < MEMO_ENTRIES:
                    self._survival[rid] = surv
        return surv

    def _resolve(self, rec_or_id) -> UncertainRecord:
        if isinstance(rec_or_id, UncertainRecord):
            rec = self._by_id.get(rec_or_id.record_id)
            if rec is None:
                raise QueryError(
                    f"record {rec_or_id.record_id!r} is not in this database"
                )
            return rec
        rec = self._by_id.get(rec_or_id)
        if rec is None:
            raise QueryError(f"record {rec_or_id!r} is not in this database")
        return rec

    def _push_through(
        self, rec: UncertainRecord, h: PiecewisePolynomial
    ) -> PiecewisePolynomial:
        """One backward-recursion step: ``h'(x) = int^x f(y) h(y) dy``."""
        if rec.is_deterministic:
            value = self._point(rec)
            return PiecewisePolynomial.step(value, max(h(value), 0.0))
        pdf = self._pdf[rec.record_id]
        assert pdf is not None
        return (pdf * h).antiderivative()

    # ------------------------------------------------------------------
    # linear-extension and prefix probabilities
    # ------------------------------------------------------------------

    def extension_probability(self, order: Sequence) -> float:
        """Probability of a complete linear extension (paper Eq. 4).

        ``order`` lists records (or ids) from top rank to bottom and must
        contain every record exactly once.
        """
        ordered = [self._resolve(r) for r in order]
        if len(ordered) != len(self.records) or len(
            {r.record_id for r in ordered}
        ) != len(self.records):
            raise QueryError(
                "extension_probability needs a permutation of the database"
            )
        h = PiecewisePolynomial.constant(1.0)
        for rec in reversed(ordered):
            if h.breakpoints.size == 0:
                # Constant h: seed the recursion with the record's CDF
                # scaled by the constant.
                h = self._cdf[rec.record_id] * h.right
            else:
                h = self._push_through(rec, self._compactify(h, rec))
        return min(max(h.right, 0.0), 1.0)

    def _compactify(
        self, h: PiecewisePolynomial, rec: UncertainRecord
    ) -> PiecewisePolynomial:
        """Make ``h`` usable by :meth:`_push_through` for ``rec``.

        ``h`` produced by previous steps has ``right`` equal to a constant
        plateau; multiplying by a pdf keeps compact support, so ``h`` can
        be used as-is. This hook exists to restrict very wide ``h`` to the
        record's support for efficiency.
        """
        if rec.is_deterministic:
            return h
        lo, up = rec.lower, rec.upper
        if h.breakpoints.size and (
            h.breakpoints[0] < lo or h.breakpoints[-1] > up
        ):
            restricted = h.restrict(lo, up)
            # Preserve the plateau value for x >= up: the pdf is zero
            # there, so only the in-window values matter to the product,
            # but the step-through for deterministic records evaluates at
            # points, which stay inside the window by construction.
            return restricted
        return h

    def prefix_probability(self, prefix: Sequence) -> float:
        """Probability of a k-length prefix (paper Eq. 6).

        ``prefix`` lists the top-k records in order; the CDF product of
        all remaining records forms the innermost factor.
        """
        ordered = [self._resolve(r) for r in prefix]
        ids = {r.record_id for r in ordered}
        if len(ids) != len(ordered):
            raise QueryError("prefix contains duplicate records")
        if not ordered:
            return 1.0
        h = self._complement_product(ids)
        for rec in reversed(ordered):
            if h.breakpoints.size == 0:
                h = self._cdf[rec.record_id] * h.right
            else:
                h = self._push_through(rec, h)
        return min(max(h.right, 0.0), 1.0)

    # ------------------------------------------------------------------
    # top-k set probability
    # ------------------------------------------------------------------

    def top_set_probability(self, record_set: Iterable) -> float:
        """Probability that ``record_set`` is exactly the top-k set.

        Equals ``Pr(min of the set > max of the rest)``; computed by
        integrating the density of the set's minimum against the CDF
        product of the complement.
        """
        members = [self._resolve(r) for r in record_set]
        ids = {r.record_id for r in members}
        if len(ids) != len(members):
            raise QueryError("record set contains duplicates")
        if not members:
            return 1.0
        # Iterate members in database order, not in the caller's: a
        # frozenset's order follows the hash salt, and the products and
        # the sum below must not.
        members = [r for r in self.records if r.record_id in ids]
        outside = self._complement_product(ids)

        total = 0.0
        for rec in members:
            survival_product = PiecewisePolynomial.constant(1.0)
            for other in members:
                if other is rec:
                    continue
                survival_product = survival_product * self._survival_of(
                    other
                )
            if rec.is_deterministic:
                value = self._point(rec)
                total += max(survival_product(value), 0.0) * max(
                    outside(value), 0.0
                )
            else:
                pdf = self._pdf[rec.record_id]
                assert pdf is not None
                integrand = pdf * survival_product * outside
                total += integrand.integral()
        return min(max(total, 0.0), 1.0)

    # ------------------------------------------------------------------
    # per-rank probabilities (Poisson-binomial dynamic program)
    # ------------------------------------------------------------------

    def rank_probabilities(
        self,
        record: Union[UncertainRecord, str],
        max_rank: Optional[int] = None,
    ) -> np.ndarray:
        """``eta_r(t)`` for ``r = 1 .. max_rank`` (default: all ranks).

        ``eta_r(t)`` is the probability that exactly ``r - 1`` other
        records score above ``t``. Computed with a Poisson-binomial DP:
        processing the other records one by one, ``C[m](x)`` tracks the
        probability (as a function of ``t``'s score ``x``) that exactly
        ``m`` of the processed records exceed ``x``.
        """
        rec = self._resolve(record)
        n = len(self.records)
        limit = n if max_rank is None else min(max_rank, n)
        others = [r for r in self.records if r.record_id != rec.record_id]

        if rec.is_deterministic:
            # Scalar Poisson-binomial DP at the point score; mass moving
            # past rank ``limit`` simply leaves the reported window.
            x0 = self._point(rec)
            dp = np.zeros(limit)
            dp[0] = 1.0
            for other in others:
                win = float(
                    min(max(1.0 - self._cdf[other.record_id](x0), 0.0), 1.0)
                )
                new = dp * (1.0 - win)
                new[1:] += dp[:-1] * win
                dp = new
            return dp

        lo, up = rec.lower, rec.upper
        one = PiecewisePolynomial.box(lo, up, 1.0)
        dp: List[PiecewisePolynomial] = [one]
        zero = PiecewisePolynomial.zero()
        for other in others:
            cdf = self._cdf[other.record_id].restrict(lo, up)
            surv = one - cdf
            new: List[PiecewisePolynomial] = []
            width = min(len(dp) + 1, limit)
            for m in range(width):
                term = zero
                if m < len(dp):
                    term = term + dp[m] * cdf
                if 0 <= m - 1 < len(dp):
                    term = term + dp[m - 1] * surv
                new.append(term)
            dp = new
        pdf = self._pdf[rec.record_id]
        assert pdf is not None
        out = np.zeros(limit)
        for m, c_m in enumerate(dp):
            out[m] = max((pdf * c_m).integral(), 0.0)
        return out

    def rank_range_probability(
        self, record: Union[UncertainRecord, str], i: int, j: int
    ) -> float:
        """``Pr(t at rank in [i, j])`` — the exact Eq. 7 quantity."""
        if i < 1 or j < i:
            raise QueryError(f"invalid rank range [{i}, {j}]")
        probs = self.rank_probabilities(record, max_rank=j)
        return float(min(max(probs[i - 1 : j].sum(), 0.0), 1.0))

    def rank_probability_matrix(
        self,
        max_rank: Optional[int] = None,
        budget: Optional[Budget] = None,
    ) -> np.ndarray:
        """Matrix ``M[t, r-1] = eta_r(t)`` over all records.

        Rows follow the database order of ``self.records``. This is the
        summary that drives exact rank aggregation (paper Theorem 2).

        The budget is polled between record rows. A half-computed exact
        matrix would misrepresent the remaining records, so exhaustion
        raises :class:`EvaluationError` (feeding the degradation ladder)
        rather than returning a partial answer.

        Unbudgeted calls memoize the matrix at the deepest ``max_rank``
        requested so far and serve shallower requests as column slices,
        which is exact: the Poisson-binomial recurrence fills entry
        ``m`` identically whatever the requested ``max_rank >= m + 1``
        is, so the sliced deep matrix is bit-identical to a directly
        computed shallow one. The memo is *not* eagerly full-depth —
        the DP cost grows with the rank window, and top-k queries only
        ever need a few columns. Budgeted calls bypass the memo both
        ways — they must poll the budget row by row, and a
        budget-truncated run must not poison later queries.
        """
        n = len(self.records)
        limit = n if max_rank is None else min(max_rank, n)
        if budget is None:
            if self._matrix is None or self._matrix.shape[1] < limit:
                stored = np.zeros((n, limit))
                for idx, rec in enumerate(self.records):
                    stored[idx] = self.rank_probabilities(
                        rec, max_rank=limit
                    )
                self._matrix = stored
            return self._matrix[:, :limit].copy()
        out = np.zeros((n, limit))
        for idx, rec in enumerate(self.records):
            if budget.expired():
                raise EvaluationError(
                    f"budget {budget.exhausted_reason()} after "
                    f"{idx} of {n} exact rank rows"
                )
            out[idx] = self.rank_probabilities(rec, max_rank=limit)
        return out

    # ------------------------------------------------------------------
    # pairwise probability (consistency entry point)
    # ------------------------------------------------------------------

    def probability_greater(
        self,
        a: Union[UncertainRecord, str],
        b: Union[UncertainRecord, str],
    ) -> float:
        """Exact ``Pr(a > b)`` via the piecewise algebra (Eq. 1)."""
        rec_a = self._resolve(a)
        rec_b = self._resolve(b)
        if rec_a.is_deterministic:
            value = self._point(rec_a)
            if rec_b.is_deterministic:
                return 1.0 if value > self._point(rec_b) else 0.0
            return float(
                min(max(self._cdf[rec_b.record_id](value), 0.0), 1.0)
            )
        if rec_b.is_deterministic:
            value = self._point(rec_b)
            return float(
                min(max(1.0 - self._cdf[rec_a.record_id](value), 0.0), 1.0)
            )
        pdf_a = self._pdf[rec_a.record_id]
        assert pdf_a is not None
        product = pdf_a * self._cdf[rec_b.record_id]
        return min(max(product.integral(), 0.0), 1.0)
