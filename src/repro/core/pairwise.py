"""Pairwise ranking probabilities ``Pr(t_i > t_j)`` (paper Eq. 1).

For records with independent score densities,

    Pr(t_i > t_j) = int f_i(x) * F_j(x) dx

where ``F_j`` is the CDF of ``t_j``. This module evaluates that integral:

- in closed form for uniform/uniform and point/any pairs,
- as a sum over atoms when either score is a multi-atom
  :class:`~repro.core.distributions.DiscreteScore`,
- exactly through the piecewise-polynomial algebra when both densities are
  piecewise polynomials,
- by adaptive numeric quadrature otherwise,

and provides the memo cache the paper calls out in §VI-D ("Caching"): the
2-D integrals are shared among many MCMC states, so they are computed once
per unordered pair.

Scores that tie with positive probability (shared atoms) are resolved by
the tie-breaker ``tau``, as for identical deterministic scores, so
``Pr(a > b) + Pr(b > a) = 1`` for every pair.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Optional, Tuple

import numpy as np
from scipy import integrate

from .distributions import DiscreteScore, PointScore, UniformScore
from .records import UncertainRecord, tie_break

__all__ = ["probability_greater", "PairwiseCache"]


def _uniform_uniform_probability(x: UniformScore, y: UniformScore) -> float:
    """Closed-form ``Pr(X > Y)`` for independent uniforms.

    Integrates ``F_Y`` against the constant density of ``X`` segment by
    segment; ``F_Y`` is 0 below ``y.lower``, linear on ``[y.lower,
    y.upper]``, and 1 above.
    """
    a, b = x.lower, x.upper
    c, d = y.lower, y.upper
    density = 1.0 / (b - a)
    total = 0.0
    # Segment of [a, b] where F_Y is linear.
    lo = max(a, c)
    hi = min(b, d)
    if hi > lo:
        # integral of (t - c) / (d - c) dt over [lo, hi], with the
        # difference of squares kept factored: the expanded form
        # (hi-c)^2 - (lo-c)^2 cancels catastrophically when [c, d] is
        # much narrower than its magnitude, breaking the complement
        # identity Pr(X>Y) + Pr(Y>X) = 1 by ~1e-8.
        total += (
            (hi - lo) * ((hi - c) + (lo - c)) / (2.0 * (d - c)) * density
        )
    # Segment of [a, b] above d, where F_Y == 1.
    if b > d:
        total += (b - max(a, d)) * density
    return min(max(total, 0.0), 1.0)


def _generic_probability(a: UncertainRecord, b: UncertainRecord) -> float:
    """Numeric quadrature fallback for arbitrary continuous densities."""
    lo = max(a.lower, b.lower)
    up = a.upper
    if up <= lo:
        # a's entire support lies below b's: only the region above b.lower
        # could contribute, and there is none.
        return 0.0
    # full_output suppresses convergence warnings for integrands with
    # kinks (e.g. grid-interpolated convolution CDFs); the achieved
    # accuracy is far below the tolerances used downstream either way.
    result = integrate.quad(
        lambda t: a.score.pdf(t) * b.score.cdf(t),
        lo,
        up,
        limit=200,
        full_output=1,
    )
    value = result[0]
    # Mass of a below b's support wins nothing; mass above b's support wins
    # with probability 1 and is already included because F_b == 1 there.
    # Add the part of a's support in [a.lower, lo) only if F_b > 0 there,
    # which cannot happen since lo >= b.lower.
    return min(max(value, 0.0), 1.0)


def _atoms(rec: UncertainRecord) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(values, masses)`` of an atomic score, ``None`` for densities."""
    if isinstance(rec.score, DiscreteScore):
        return rec.score.values, rec.score.weights
    if rec.is_deterministic:
        return np.array([rec.lower]), np.ones(1)
    return None


def _atomic_probability(a: UncertainRecord, b: UncertainRecord) -> float:
    """``Pr(a > b)`` when either score is discrete; ties go by ``tau``."""
    atoms_a, atoms_b = _atoms(a), _atoms(b)
    if atoms_a is None:
        return min(max(1.0 - _atomic_probability(b, a), 0.0), 1.0)
    values, masses = atoms_a
    if atoms_b is None:
        below = b.score.cdf(values)
    else:
        # b's mass strictly below each atom, plus on it for the tau winner.
        side = "right" if tie_break(a, b) else "left"
        cumulative = np.concatenate(([0.0], np.cumsum(atoms_b[1])))
        below = cumulative[np.searchsorted(atoms_b[0], values, side=side)]
    return min(max(float(np.dot(masses, below)), 0.0), 1.0)


def probability_greater(a: UncertainRecord, b: UncertainRecord) -> float:
    """``Pr(a > b)`` under independent scores (paper Eq. 1).

    Dominance yields 0 or 1; identical deterministic scores are resolved
    by the deterministic tie-breaker ``tau``.
    """
    if a.is_deterministic and b.is_deterministic:
        if a.lower > b.lower:
            return 1.0
        if a.lower < b.lower:
            return 0.0
        return 1.0 if tie_break(a, b) else 0.0
    if isinstance(a.score, DiscreteScore) or isinstance(
        b.score, DiscreteScore
    ):
        return _atomic_probability(a, b)
    if a.lower >= b.upper:
        return 1.0
    if b.lower >= a.upper:
        return 0.0

    sa, sb = a.score, b.score
    if isinstance(sa, PointScore):
        return float(min(max(sb.cdf(sa.value), 0.0), 1.0))
    if isinstance(sb, PointScore):
        return float(min(max(1.0 - sa.cdf(sb.value), 0.0), 1.0))
    if isinstance(sa, UniformScore) and isinstance(sb, UniformScore):
        return _uniform_uniform_probability(sa, sb)
    if sa.supports_exact and sb.supports_exact:
        product = sa.pdf_piecewise() * sb.cdf_piecewise()
        return min(max(product.integral(), 0.0), 1.0)
    return _generic_probability(a, b)


class PairwiseCache:
    """Memo cache for pairwise probabilities (paper §VI-D, "Caching").

    Computes one probability per unordered record pair and serves the
    complement for the reversed order, which is exact because ties are
    resolved by ``tau``. The computed orientation is fixed (the ``tau``
    winner on the left), so each stored value is a pure function of the
    pair, whichever order callers ask first. Hit/miss counters support
    the caching ablation benchmark.
    """

    def __init__(self) -> None:
        self._store: Dict[Tuple[str, str], float] = {}
        self.hits = 0
        self.misses = 0

    def probability(self, a: UncertainRecord, b: UncertainRecord) -> float:
        """``Pr(a > b)``, computed once per unordered pair."""
        key = (a.record_id, b.record_id)
        cached = self._store.get(key)
        if cached is not None:
            self.hits += 1
            # The store only ever holds already-clamped probabilities;
            # re-clamping on the cache-hit hot path is wasted work.
            return cached  # reprolint: disable=PRB001
        first, second = (b, a) if tie_break(b, a) else (a, b)
        value = probability_greater(first, second)
        self.misses += 1
        self._store[(first.record_id, second.record_id)] = value
        self._store[(second.record_id, first.record_id)] = 1.0 - value
        return self._store[key]  # reprolint: disable=PRB001

    def credit_hits(self, count: int) -> None:
        """Count ``count`` lookups a caller served from its own copy of
        entries read through :meth:`probability` (an MCMC chain's
        pairwise matrix), so ``hits`` covers every Eq. 1 lookup."""
        self.hits += count  # reprolint: disable=CON001 -- diagnostic counter, like probability()'s own unlocked hit count; TopKSimulation.run credits once per walk, after its chain pool has shut down

    def __len__(self) -> int:
        return len(self._store)

    def snapshot(self) -> List[Tuple[Tuple[str, str], float]]:
        """Every cached ``((a_id, b_id), Pr(a > b))`` entry, oldest first."""
        return list(self._store.items())

    def carry_forward(
        self, dirty: AbstractSet[str]
    ) -> Tuple["PairwiseCache", int, int]:
        """A new memo holding every entry untouched by ``dirty`` ids.

        The Eq. 1 integrals are pure functions of the two records, so
        after a mutation batch every cached entry whose *both* endpoint
        records are outside the delta's touched-key set is still exact
        for the new database state. Returns ``(fresh_cache, carried,
        dropped)`` counting *ordered* entries; the delta-aware cache
        migration (:meth:`repro.core.cache.ComputationCache.migrate`)
        registers the fresh memo under the post-mutation fingerprint.
        """
        fresh = PairwiseCache()
        dropped = 0
        for key, value in self._store.items():
            if key[0] in dirty or key[1] in dirty:
                dropped += 1
            else:
                fresh._store[key] = value
        return fresh, len(fresh._store), dropped

    @property
    def nbytes(self) -> int:
        """Rough retained size: two keyed floats per unordered pair."""
        return 120 * len(self._store)

    def clear(self) -> None:
        """Drop all cached entries and reset counters."""
        self._store.clear()  # reprolint: disable=CON001 -- invalidation API: clear() is called by the owning engine between queries, never while worker threads are live
        self.hits = 0
        self.misses = 0
