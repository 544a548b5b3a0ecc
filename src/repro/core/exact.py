"""Exact probability computation over the linear-extension space.

The paper evaluates its nested integrals (Eq. 4 for complete rankings,
Eq. 6 for k-length prefixes) with Monte-Carlo integration, including the
BASELINE algorithm it uses as ground truth. For the density families the
paper actually experiments with (uniform intervals and deterministic
scores), those integrals are *exactly computable*: every density and CDF
is a piecewise polynomial, giving the reproduction a stronger ground
truth than the paper had for its own accuracy experiments (Fig. 9).

Every probability here is a Gauss–Legendre quadrature on one node grid.
Between consecutive breakpoints of all records every integrand is one
polynomial, so enough nodes per segment integrate it exactly up to
rounding. A prefix (Eq. 6, and Eq. 4 as a full-length prefix) runs the
backward recursion ``h_j(x) = int^x f_j h_j+1``, seeded with the CDF
product of the records outside it, on the node values. A top-k set
``S`` sums ``int f_s prod_{S-s} (1 - F) prod_{not S} F`` over its
members. Per-rank probabilities (Eq. 7) integrate ``f_t`` against the
coefficients of ``prod_{j != t} (F_j + (1 - F_j) z)``, a
Poisson-binomial dynamic program run on the node values. Both are the
generating-function form of Li, Saha and Deshpande. Eq. 1 is
``int f_a F_b``.

Deterministic scores are Dirac masses and are special-cased: identical
deterministic scores are separated by an infinitesimal perturbation
ordered by the tie-breaker ``tau``, which realizes the paper's tie
semantics as a limit. Each perturbed value is a breakpoint of the node
grid, where a point score reads the rest of the integrand.
"""

from __future__ import annotations

import bisect
import threading
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.polynomial import legendre

from .budget import Budget
from .errors import EvaluationError, ModelError, QueryError
from .piecewise import PiecewisePolynomial, _polyval_local
from .records import UncertainRecord

__all__ = ["supports_exact", "ExactEvaluator"]


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
    a tie at ``1.0``), the ladder steps by one ulp instead, upward while
    it stays below the next distinct bound and otherwise downward above
    the previous one. A tie with no room on either side raises
    :class:`~repro.core.errors.ModelError` naming the records.
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
        at = bisect.bisect_left(bounds, value)
        below = bounds[at - 1] if at > 0 else -np.inf
        above = bounds[at + 1] if at + 1 < len(bounds) else np.inf
        size = len(group)
        # Best first, as the tau order below.
        ladder = value + scale * 1e-7 / size * np.arange(size - 1, -1, -1)
        if not _fits(ladder, below, above):
            ladder = _ulp_ladder(value, size, np.inf)[::-1]
        if not _fits(ladder, below, above):
            ladder = _ulp_ladder(value, size, -np.inf)
        if not _fits(ladder, below, above):
            ids = sorted(rec.record_id for rec in group)
            raise ModelError(
                f"records {ids} tie at {value!r} with no float between "
                "them and the neighbouring scores to break the tie"
            )
        ordered = sorted(group, key=lambda r: r.record_id)  # tau order
        for rec, perturbed in zip(ordered, ladder):
            out[rec.record_id] = float(perturbed)
    return out


def _ulp_ladder(value: float, size: int, toward: float) -> np.ndarray:
    """``value`` and the ``size - 1`` floats after it toward ``toward``."""
    ladder = [value]
    for _ in range(size - 1):
        ladder.append(float(np.nextafter(ladder[-1], toward)))
    return np.array(ladder)


def _fits(ladder: np.ndarray, below: float, above: float) -> bool:
    """Whether a best-first ladder strictly decreases inside the gap."""
    decreasing = bool(np.all(np.diff(ladder) < 0))
    return decreasing and ladder[0] < above and ladder[-1] > below


@lru_cache(maxsize=128)
def _legendre_rule(m: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes ``t``, weights ``w`` and integration matrix on ``[-1, 1]``.

    ``integ[i, j] = int_{-1}^{t_i} L_j(t) dt`` for the Lagrange basis
    ``L_j`` of the ``m`` nodes, so ``integ @ v`` is the running integral
    of the degree-``m - 1`` interpolant of the node values ``v``. The
    interpolant's Legendre coefficients come from the discrete
    orthogonality of Gauss nodes, which is exact at that degree.
    """
    t, w = legendre.leggauss(m)
    basis = legendre.legvander(t, m - 1)  # basis[i, k] = P_k(t_i)
    scale = (2.0 * np.arange(m) + 1.0) / 2.0
    project = scale[:, None] * (basis * w[:, None]).T
    running = legendre.legvander(t, m) @ legendre.legint(
        np.eye(m), lbnd=-1.0, axis=0
    )
    rule = (t, w, running @ project)
    for array in rule:  # shared by every grid with this m
        array.setflags(write=False)
    return rule


class _NodeGrid:
    """Every record's density and CDF at Gauss–Legendre nodes.

    Breakpoints are the union of all records' (point scores at their
    tie-perturbed values). With ``D`` the largest sum over records of
    their CDF degree on one segment, every segment gets ``m = D - 1``
    nodes (at least one). A whole-segment integrand (one density times
    CDFs, plus one degree per antiderivative of a prefix member) has
    degree below ``D``, which Gauss integrates exactly. A running
    integral inside a segment is only read by a higher prefix member
    whose density is nonzero there, so its integrand has degree at most
    ``D - 2``, which ``m`` node values determine exactly.
    ``pdf``/``cdf``/``survival`` are ``(records, segments, m)``,
    ``cdf_at`` the right-continuous CDFs at the breakpoints. Values come
    from each record's piece covering the segment, at offsets from its
    left end, so segments below float resolution still see the right
    piece. Record ``r``'s CDF rises on segments ``first[r]`` to
    ``stop[r] - 1``; it is 0 before them and at its final value after.
    """

    def __init__(self, evaluator: "ExactEvaluator") -> None:
        pdfs = [
            None if rec.is_deterministic else rec.score.pdf_piecewise()
            for rec in evaluator.records
        ]
        cdfs = [
            PiecewisePolynomial.step(evaluator._point(rec), 1.0)
            if pdf is None
            else pdf.antiderivative()
            for rec, pdf in zip(evaluator.records, pdfs)
        ]
        self.breakpoints = np.unique(
            np.concatenate([cdf.breakpoints for cdf in cdfs])
        )
        starts = self.breakpoints[:-1]
        pieces = [
            np.searchsorted(cdf.breakpoints, starts, side="right") - 1
            for cdf in cdfs
        ]
        degree = np.zeros(starts.size, dtype=int)
        for cdf, pdf, piece in zip(cdfs, pdfs, pieces):
            if pdf is not None:
                per_piece = [
                    max(c.size - 1, d.size)
                    for c, d in zip(cdf.coeffs, pdf.coeffs)
                ]
                # Outside the record's pieces (index -1 or past the
                # end) its CDF is constant: degree 0.
                degree += np.take(per_piece + [0], piece)
        self.m = max(1, int(degree.max(initial=0)) - 1)
        t, self.w, self.integ = _legendre_rule(self.m)
        self.half = np.diff(self.breakpoints) / 2.0
        # Column 0 is the segment's left end, columns 1.. its nodes.
        offsets = self.half[:, None] * (np.concatenate(([-1.0], t)) + 1.0)
        shape = (len(cdfs), starts.size, self.m)
        self.pdf, self.cdf = np.zeros(shape), np.empty(shape)
        self.cdf_at = np.empty((len(cdfs), starts.size + 1))
        for row, (cdf, pdf, piece) in enumerate(zip(cdfs, pdfs, pieces)):
            values = _piece_values(cdf, piece, starts, offsets)
            self.cdf[row] = values[:, 1:]
            self.cdf_at[row] = np.append(values[:, 0], cdf.right)
            if pdf is not None:
                values = _piece_values(pdf, piece, starts, offsets)
                self.pdf[row] = values[:, 1:]
        self.survival = 1.0 - self.cdf
        ends = np.array([cdf.breakpoints[[0, -1]] for cdf in cdfs])
        self.first, self.stop = np.searchsorted(self.breakpoints, ends).T
        self.nbytes = sum(
            v.nbytes for v in vars(self).values() if isinstance(v, np.ndarray)
        )


def _piece_values(
    poly: PiecewisePolynomial,
    piece: np.ndarray,
    starts: np.ndarray,
    offsets: np.ndarray,
) -> np.ndarray:
    """``poly`` at ``starts[:, None] + offsets``, one piece per segment."""
    out = np.empty(offsets.shape)
    out[piece < 0] = poly.left
    out[piece >= len(poly.coeffs)] = poly.right
    for j, coeffs in enumerate(poly.coeffs):
        mask = piece == j
        if np.any(mask):
            local = offsets[mask] + (starts[mask] - poly.breakpoints[j])[
                :, None
            ]
            out[mask] = _polyval_local(coeffs, local)
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
        self._row: Dict[str, int] = {}
        for row, rec in enumerate(self.records):
            if rec.record_id in self._by_id:
                raise EvaluationError(
                    f"duplicate record id {rec.record_id!r}"
                )
            self._by_id[rec.record_id] = rec
            self._row[rec.record_id] = row
        self._point_value = _tie_perturbations(self.records)
        # Deepest-seen eta matrix memo; see rank_probability_matrix.
        self._matrix: Optional[np.ndarray] = None
        # The node grid, built by the first query. MCMC chains query
        # from pool threads, so the build is locked; the built grid is
        # read-only.
        self._grid_lock = threading.Lock()
        self._grid: Optional[_NodeGrid] = None

    @property
    def nbytes(self) -> int:
        """Retained size: the node grid and the eta memo, once built."""
        parts = (self._grid, self._matrix)
        return 256 + sum(p.nbytes for p in parts if p is not None)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _point(self, rec: UncertainRecord) -> float:
        """Effective (tie-perturbed) value of a deterministic record."""
        return self._point_value.get(rec.record_id, rec.lower)

    def _nodes(self) -> _NodeGrid:
        """The node grid, built on first use."""
        with self._grid_lock:
            if self._grid is None:
                self._grid = _NodeGrid(self)
            return self._grid

    def _at(self, grid: _NodeGrid, rec: UncertainRecord) -> int:
        """Breakpoint index of a deterministic record's value."""
        return int(np.searchsorted(grid.breakpoints, self._point(rec)))

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

    def _outside(self, ids: set) -> List[int]:
        """Rows of the records not in ``ids``, in database order."""
        return [
            row
            for row, rec in enumerate(self.records)
            if rec.record_id not in ids
        ]

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
        return self.prefix_probability(ordered)

    def prefix_probability(self, prefix: Sequence) -> float:
        """Probability of a k-length prefix (paper Eq. 6).

        ``prefix`` lists the top-k records in order; the CDF product of
        all remaining records forms the innermost factor, which each
        member from the bottom up integrates against its density.
        """
        ordered = [self._resolve(r) for r in prefix]
        ids = {r.record_id for r in ordered}
        if len(ids) != len(ordered):
            raise QueryError("prefix contains duplicate records")
        if not ordered:
            return 1.0
        grid = self._nodes()
        outside = self._outside(ids)
        # h at the nodes and, right-continuous, at the breakpoints.
        h = np.prod(grid.cdf[outside], axis=0)
        h_at = np.prod(grid.cdf_at[outside], axis=0)
        for rec in reversed(ordered[1:]):
            if rec.is_deterministic:
                # A step at the point: constant on every segment.
                at = self._at(grid, rec)
                h_at = np.where(
                    np.arange(h_at.size) >= at, max(h_at[at], 0.0), 0.0
                )
                h = np.repeat(h_at[:-1, None], grid.m, axis=1)
                continue
            integrand = grid.pdf[self._row[rec.record_id]] * h
            h_at = np.concatenate(
                ([0.0], np.cumsum((integrand @ grid.w) * grid.half))
            )
            h = h_at[:-1, None] + grid.half[:, None] * (
                integrand @ grid.integ.T
            )
        top = ordered[0]
        if top.is_deterministic:
            total = float(h_at[self._at(grid, top)])
        else:
            integrand = grid.pdf[self._row[top.record_id]] * h
            total = float((integrand @ grid.w) @ grid.half)
        return min(max(total, 0.0), 1.0)

    # ------------------------------------------------------------------
    # top-k set probability
    # ------------------------------------------------------------------

    def top_set_probability(self, record_set: Iterable) -> float:
        """Probability that ``record_set`` is exactly the top-k set.

        Equals ``Pr(min of the set > max of the rest)``: the sum over
        members ``s`` of the density of ``s`` integrated against the
        other members' survival functions and the complement's CDFs.
        """
        members = [self._resolve(r) for r in record_set]
        ids = {r.record_id for r in members}
        if len(ids) != len(members):
            raise QueryError("record set contains duplicates")
        if not members:
            return 1.0
        grid = self._nodes()
        # Members and products in database order, not in the caller's:
        # a frozenset's order follows the hash salt, and the sums must
        # not.
        rows = [
            row
            for row, rec in enumerate(self.records)
            if rec.record_id in ids
        ]
        outside = self._outside(ids)
        below = np.prod(grid.cdf[outside], axis=0)
        total = 0.0
        for pos, row in enumerate(rows):
            others = rows[:pos] + rows[pos + 1:]
            rec = self.records[row]
            if rec.is_deterministic:
                at = self._at(grid, rec)
                total += max(
                    float(
                        np.prod(1.0 - grid.cdf_at[others, at])
                        * np.prod(grid.cdf_at[outside, at])
                    ),
                    0.0,
                )
            else:
                integrand = (
                    grid.pdf[row]
                    * np.prod(grid.survival[others], axis=0)
                    * below
                )
                total += float((integrand @ grid.w) @ grid.half)
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
        records score above ``t``: one row of
        :meth:`rank_probability_matrix`.
        """
        row = self._row[self._resolve(record).record_id]
        return self.rank_probability_matrix(max_rank)[row]

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

        On each grid segment, a record whose CDF is 0 there (it scores
        above every point of the segment) contributes a factor ``z``
        and one whose CDF has risen to its end contributes 1, so only
        the records straddling the segment need polynomial work. Their
        factors ``F + (1 - F) z`` are multiplied into prefix and suffix
        products at the nodes, truncated to the rank window (each factor
        only moves mass to higher coefficients, so truncation is exact
        and needs no division). Record ``t``'s row is
        ``prefix[t] * suffix[t + 1]`` integrated against its density.
        Segments with ``max_rank`` or more records surely above are
        skipped (the k-dominance cut). A point score's row is the same
        product, read at its tie-perturbed breakpoint.

        The budget is polled between segments. A half-computed exact
        matrix would misrepresent the remaining records, so exhaustion
        raises :class:`EvaluationError` (feeding the degradation ladder)
        rather than returning a partial answer.

        Entry ``r`` is computed by the same operations whatever the
        requested ``max_rank >= r + 1`` is, so a column slice of a deep
        matrix is bit-identical to a directly computed shallow one.
        Unbudgeted calls therefore memoize the matrix at the deepest
        ``max_rank`` requested so far and serve shallower requests as
        column slices. Budgeted calls bypass the memo both ways — a
        budget-truncated run must not poison later queries.
        """
        n = len(self.records)
        limit = n if max_rank is None else min(max_rank, n)
        if budget is not None:
            return self._rank_matrix(limit, budget)
        if self._matrix is None or self._matrix.shape[1] < limit:
            self._matrix = self._rank_matrix(limit, None)
        return self._matrix[:, :limit].copy()

    def _rank_matrix(self, limit: int, budget: Optional[Budget]) -> np.ndarray:
        """The first ``limit`` columns of the eta matrix, computed anew."""
        out = np.zeros((len(self.records), limit))
        if not self.records or limit < 1:
            return out
        grid = self._nodes()
        segments = grid.half.size
        for seg in range(segments):
            if budget is not None and budget.expired():
                raise EvaluationError(
                    f"budget {budget.exhausted_reason()} after "
                    f"{seg} of {segments} exact rank segments"
                )
            above = int(np.count_nonzero(grid.first > seg))
            width = limit - above
            rows = np.flatnonzero((grid.first <= seg) & (seg < grid.stop))
            if width < 1 or rows.size == 0:
                continue
            count = rows.size
            cdf, survival = grid.cdf[rows, seg], grid.survival[rows, seg]
            prefix = np.zeros((count + 1, width, grid.m))
            suffix = np.zeros_like(prefix)
            prefix[0, 0] = suffix[count, 0] = 1.0
            for i in range(count):
                prefix[i + 1] = prefix[i] * cdf[i]
                prefix[i + 1, 1:] += prefix[i, :-1] * survival[i]
                j = count - 1 - i
                suffix[j] = suffix[j + 1] * cdf[j]
                suffix[j, 1:] += suffix[j + 1, :-1] * survival[j]
            # Coefficient c of prefix[t] * suffix[t + 1], summed over
            # a = 0 .. c in that order whatever the width.
            product = np.zeros((count, width, grid.m))
            for a in range(width):
                product[:, a:] += (
                    prefix[:count, a, None] * suffix[1:, : width - a]
                )
            weight = grid.pdf[rows, seg] * grid.w
            out[rows, above:] += (product * weight[:, None, :]).sum(
                axis=2
            ) * grid.half[seg]
        points = [
            row for row, rec in enumerate(self.records) if rec.is_deterministic
        ]
        if points:
            at = [self._at(grid, self.records[row]) for row in points]
            # A point's own CDF is 1 at its value, so it never wins.
            wins = np.clip(1.0 - grid.cdf_at[:, at], 0.0, 1.0)
            dp = np.zeros((len(points), limit))
            dp[:, 0] = 1.0
            for win in wins:
                step = dp * (1.0 - win)[:, None]
                step[:, 1:] += dp[:, :-1] * win[:, None]
                dp = step
            out[points] = dp
        return np.maximum(out, 0.0, out=out)

    # ------------------------------------------------------------------
    # pairwise probability (consistency entry point)
    # ------------------------------------------------------------------

    def probability_greater(
        self,
        a: Union[UncertainRecord, str],
        b: Union[UncertainRecord, str],
    ) -> float:
        """Exact ``Pr(a > b) = int f_a F_b`` (Eq. 1) on the node grid."""
        rec_a = self._resolve(a)
        rec_b = self._resolve(b)
        if rec_a.is_deterministic and rec_b.is_deterministic:
            return 1.0 if self._point(rec_a) > self._point(rec_b) else 0.0
        grid = self._nodes()
        row_a, row_b = self._row[rec_a.record_id], self._row[rec_b.record_id]
        if rec_a.is_deterministic:
            value = grid.cdf_at[row_b, self._at(grid, rec_a)]
        elif rec_b.is_deterministic:
            value = 1.0 - grid.cdf_at[row_a, self._at(grid, rec_b)]
        else:
            integrand = grid.pdf[row_a] * grid.cdf[row_b]
            value = (integrand @ grid.w) @ grid.half
        return min(max(float(value), 0.0), 1.0)
