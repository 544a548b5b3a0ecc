"""Unit tests for pairwise ranking probabilities (paper Eq. 1)."""

import numpy as np
import pytest

from repro.core.distributions import (
    DiscreteScore,
    HistogramScore,
    TruncatedGaussianScore,
    UniformScore,
)
from repro.core.pairwise import PairwiseCache, probability_greater
from repro.core.records import UncertainRecord, certain, uniform


class TestDominantCases:
    def test_disjoint_intervals(self):
        a, b = uniform("a", 5.0, 8.0), uniform("b", 1.0, 4.0)
        assert probability_greater(a, b) == 1.0
        assert probability_greater(b, a) == 0.0

    def test_touching_intervals(self):
        a, b = uniform("a", 4.0, 8.0), uniform("b", 1.0, 4.0)
        assert probability_greater(a, b) == 1.0

    def test_deterministic_ordering(self):
        a, b = certain("a", 3.0), certain("b", 2.0)
        assert probability_greater(a, b) == 1.0
        assert probability_greater(b, a) == 0.0

    def test_deterministic_tie_uses_tau(self):
        a, b = certain("a", 2.0), certain("b", 2.0)
        assert probability_greater(a, b) == 1.0  # 'a' < 'b' wins
        assert probability_greater(b, a) == 0.0


class TestClosedForms:
    def test_identical_uniforms_are_even(self):
        a, b = uniform("a", 0.0, 1.0), uniform("b", 0.0, 1.0)
        assert probability_greater(a, b) == pytest.approx(0.5)

    def test_paper_values(self, paper_db):
        by_id = {r.record_id: r for r in paper_db}
        assert probability_greater(by_id["t1"], by_id["t2"]) == pytest.approx(0.5)
        assert probability_greater(by_id["t2"], by_id["t3"]) == pytest.approx(0.9375)
        assert probability_greater(by_id["t3"], by_id["t4"]) == pytest.approx(
            0.9583, abs=1e-4
        )
        assert probability_greater(by_id["t2"], by_id["t5"]) == pytest.approx(0.25)

    def test_nested_uniforms(self):
        # Y entirely inside X's interval: Pr(X > Y) from geometry.
        a, b = uniform("a", 0.0, 100.0), uniform("b", 40.0, 60.0)
        # Pr(X > Y) = Pr(X > 60) + Pr(40 < X < 60) * 1/2 = 0.4 + 0.1
        assert probability_greater(a, b) == pytest.approx(0.5)

    def test_point_vs_interval(self):
        point = certain("p", 5.0)
        interval = uniform("i", 4.0, 8.0)
        assert probability_greater(point, interval) == pytest.approx(0.25)
        assert probability_greater(interval, point) == pytest.approx(0.75)

    def test_complement_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            lo1, lo2 = rng.uniform(0, 10, 2)
            a = uniform("a", lo1, lo1 + rng.uniform(0.1, 5))
            b = uniform("b", lo2, lo2 + rng.uniform(0.1, 5))
            total = probability_greater(a, b) + probability_greater(b, a)
            assert total == pytest.approx(1.0, abs=1e-12)


class TestGenericDensities:
    def test_histogram_vs_uniform_matches_sampling(self):
        a = UncertainRecord("a", HistogramScore([0, 2, 4], [0.7, 0.3]))
        b = uniform("b", 1.0, 3.0)
        exact = probability_greater(a, b)
        rng = np.random.default_rng(0)
        sa = a.score.sample(rng, 200_000)
        sb = b.score.sample(rng, 200_000)
        assert exact == pytest.approx(float(np.mean(sa > sb)), abs=5e-3)

    def test_gaussian_pair_quadrature(self):
        a = UncertainRecord("a", TruncatedGaussianScore(5.0, 1.0, 2.0, 8.0))
        b = UncertainRecord("b", TruncatedGaussianScore(4.0, 1.0, 1.0, 7.0))
        p = probability_greater(a, b)
        assert 0.5 < p < 1.0
        rng = np.random.default_rng(1)
        sa = a.score.sample(rng, 200_000)
        sb = b.score.sample(rng, 200_000)
        assert p == pytest.approx(float(np.mean(sa > sb)), abs=5e-3)

    def test_symmetric_gaussians_are_even(self):
        a = UncertainRecord("a", TruncatedGaussianScore(0.0, 1.0, -2.0, 2.0))
        b = UncertainRecord("b", TruncatedGaussianScore(0.0, 1.0, -2.0, 2.0))
        assert probability_greater(a, b) == pytest.approx(0.5, abs=1e-6)


class TestPairwiseCache:
    def test_hit_after_miss(self):
        cache = PairwiseCache()
        a, b = uniform("a", 0, 2), uniform("b", 1, 3)
        first = cache.probability(a, b)
        assert cache.misses == 1 and cache.hits == 0
        second = cache.probability(a, b)
        assert second == first
        assert cache.hits == 1

    def test_complement_served_from_cache(self):
        cache = PairwiseCache()
        a, b = uniform("a", 0, 2), uniform("b", 1, 3)
        p_ab = cache.probability(a, b)
        p_ba = cache.probability(b, a)
        assert p_ab + p_ba == pytest.approx(1.0)
        assert cache.misses == 1 and cache.hits == 1

    def test_len_and_clear(self):
        cache = PairwiseCache()
        cache.probability(uniform("a", 0, 2), uniform("b", 1, 3))
        assert len(cache) == 2  # both orientations stored
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == cache.misses == 0


class TestAtomicScores:
    """Discrete scores: exact atom sums, ties resolved by ``tau``."""

    @staticmethod
    def _records():
        return [
            UncertainRecord("a", DiscreteScore([1.0, 2.0], [1.0, 1.0])),
            UncertainRecord("b", DiscreteScore([2.0, 3.0], [1.0, 3.0])),
            certain("c", 2.0),
            uniform("d", 0.0, 3.0),
        ]

    def test_values(self):
        a, b, c, d = self._records()
        # Tie at 2 (mass 1/2 * 1/4) goes to 'a', the tau winner.
        assert probability_greater(a, b) == pytest.approx(0.125)
        assert probability_greater(a, c) == pytest.approx(0.5)
        assert probability_greater(b, c) == pytest.approx(1.0)
        assert probability_greater(a, d) == pytest.approx(0.5)
        assert probability_greater(d, b) == pytest.approx(1.0 / 12.0)

    def test_complements_sum_to_one(self):
        records = self._records()
        for x in records:
            for y in records:
                if x is not y:
                    total = probability_greater(x, y) + probability_greater(
                        y, x
                    )
                    assert total == pytest.approx(1.0, abs=1e-12)

    def test_cache_is_independent_of_asking_order(self):
        records = self._records()
        pairs = [(x, y) for x in records for y in records if x is not y]
        forward, backward = PairwiseCache(), PairwiseCache()
        for x, y in pairs:
            forward.probability(x, y)
        for x, y in reversed(pairs):
            backward.probability(x, y)
        assert dict(forward.snapshot()) == dict(backward.snapshot())
        assert forward.misses == backward.misses == len(pairs) // 2


class TestCarryForward:
    @staticmethod
    def _warm_cache():
        cache = PairwiseCache()
        records = [uniform(f"r{i}", float(i), float(i) + 2.0) for i in range(4)]
        for i, a in enumerate(records):
            for b in records[i + 1:]:
                cache.probability(a, b)
        return cache, records

    def test_carries_untouched_pairs_only(self):
        cache, records = self._warm_cache()
        fresh, carried, dropped = cache.carry_forward({"r1"})
        # 4 records -> 12 ordered entries; r1 participates in 6.
        assert (carried, dropped) == (6, 6)
        assert len(fresh) == 6
        for (left, right), _value in fresh.snapshot():
            assert "r1" not in (left, right)

    def test_carried_values_are_identical(self):
        cache, records = self._warm_cache()
        fresh, _carried, _dropped = cache.carry_forward({"r0"})
        before = dict(cache.snapshot())
        for key, value in fresh.snapshot():
            assert before[key] == value

    def test_empty_dirty_set_copies_everything(self):
        cache, _records = self._warm_cache()
        fresh, carried, dropped = cache.carry_forward(frozenset())
        assert dropped == 0
        assert carried == len(cache) == len(fresh)

    def test_original_cache_is_untouched(self):
        cache, _records = self._warm_cache()
        size = len(cache)
        cache.carry_forward({"r0", "r2"})
        assert len(cache) == size
