"""Unit tests for the Monte-Carlo evaluation engine (paper §VI-C)."""

import itertools
import platform
import sys

import numpy as np
import pytest

from repro.core.distributions import (
    DiscreteScore,
    TruncatedGaussianScore,
    UniformScore,
)
from repro.core.engine import RankingEngine
from repro.core.errors import EvaluationError, QueryError
from repro.core.exact import ExactEvaluator
from repro.core.montecarlo import (
    RANK_SLICE_CELLS,
    MonteCarloEvaluator,
    rank_order,
    select_top_rank_candidates,
)
from repro.core.pairwise import probability_greater
from repro.core.records import UncertainRecord, certain, uniform

SAMPLES = 60_000
TOL = 0.02


@pytest.fixture
def sampler(paper_db):
    return MonteCarloEvaluator(paper_db, rng=np.random.default_rng(777))


@pytest.fixture
def exact(paper_db):
    return ExactEvaluator(paper_db)


class TestSampling:
    def test_sample_scores_shape_and_support(self, sampler, paper_db):
        scores = sampler.sample_scores(500)
        assert scores.shape == (500, len(paper_db))
        for i, rec in enumerate(paper_db):
            assert scores[:, i].min() >= rec.lower - 1e-9
            assert scores[:, i].max() <= rec.upper + 1e-9

    def test_sample_rankings_are_permutations(self, sampler, paper_db):
        rankings = sampler.sample_rankings(200)
        n = len(paper_db)
        for row in rankings:
            assert sorted(row) == list(range(n))

    def test_seeded_reproducibility(self, paper_db):
        a = MonteCarloEvaluator(paper_db, rng=np.random.default_rng(5))
        b = MonteCarloEvaluator(paper_db, rng=np.random.default_rng(5))
        assert np.array_equal(a.sample_scores(100), b.sample_scores(100))

    def test_zero_samples_rejected(self, sampler):
        with pytest.raises(QueryError):
            sampler.sample_scores(0)


class TestRankProbabilities:
    def test_matrix_matches_exact(self, sampler, exact):
        estimate = sampler.rank_probability_matrix(SAMPLES)
        truth = exact.rank_probability_matrix()
        assert np.allclose(estimate, truth, atol=TOL)

    def test_matrix_rows_sum_to_one(self, sampler):
        matrix = sampler.rank_probability_matrix(5000)
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_top_rank_candidates_order(self, sampler, paper_db):
        matrix = sampler.rank_probability_matrix(SAMPLES, max_rank=2)
        answers = select_top_rank_candidates(paper_db, matrix, 1, 2, 3)
        assert answers[0][0].record_id == "t5"
        assert answers[0][1] == pytest.approx(1.0, abs=TOL)
        probs = [p for _r, p in answers]
        assert probs == sorted(probs, reverse=True)

    def test_top_rank_requires_positive_l(self, sampler, paper_db):
        matrix = sampler.rank_probability_matrix(100, max_rank=2)
        with pytest.raises(QueryError):
            select_top_rank_candidates(paper_db, matrix, 1, 2, 0)


def _tie_heavy_scores(width):
    """Seeded score matrices, from tie-free to every row one value."""
    rng = np.random.default_rng(width)
    base = rng.normal(size=(300, width))
    duplicated = base.copy()
    duplicated[:, 1::2] = base[:, : width // 2]
    rows_equal = base.copy()
    rows_equal[::3] = 0.5
    signed_zeros = rng.choice([0.0, -0.0, 1.0], size=(300, width))
    signed_zeros[:, 0] = -0.0
    non_finite = base.copy()
    cells = rng.random(size=base.shape)
    non_finite[cells < 0.05] = np.nan
    non_finite[(cells >= 0.05) & (cells < 0.08)] = -np.nan
    non_finite[(cells >= 0.08) & (cells < 0.12)] = np.inf
    non_finite[(cells >= 0.12) & (cells < 0.16)] = -np.inf
    # The two best scores differ only in the lowest mantissa bit, which
    # the packed keys give to the column index: only the stable
    # fallback can order them.
    truncated = rng.uniform(size=(300, width))
    truncated[:, 0] = 1.0
    truncated[:, -1] = np.nextafter(1.0, 2.0)
    return {
        "continuous": base,
        "rounded": np.round(base, 1),
        "duplicated-columns": duplicated,
        "rows-equal": rows_equal,
        "signed-zeros": signed_zeros,
        "non-finite": non_finite,
        "truncated-bits": truncated,
    }


# Widths 1, 2, 300 and 1025 put the packed index-bit count on both
# sides of powers of two; at 300 and 1025 the 300-row batches are not a
# multiple of the rows in one rank slice, and at 120 and below they are
# smaller than one slice.
KERNEL_CASES = [
    (width, limit, name)
    for width in (1, 2, 8, 16, 17, 41, 120, 300, 1025)
    for limit in sorted({1, max(1, width // 2), width})
    for name in _tie_heavy_scores(width)
]


class TestRankOrder:
    """``rank_order`` is the stable full sort's top ``limit`` columns."""

    def test_tested_widths_straddle_the_crossover(self):
        widths = sorted({width for width, _, _ in KERNEL_CASES})
        batch = _tie_heavy_scores(1)["continuous"].shape[0]
        slice_rows = {w: max(1, RANK_SLICE_CELLS // w) for w in widths}
        # Some batches fit in one rank slice, others span several with a
        # partial last slice.
        assert any(batch <= slice_rows[w] for w in widths)
        assert any(
            batch > slice_rows[w] and batch % slice_rows[w] != 0
            for w in widths
        )
        # The packed index-bit count b = (n - 1).bit_length() is tested
        # at 0 and 1, at an exact power of two and just past one, and at
        # a width above 1024.
        bits = {(w - 1).bit_length() for w in widths}
        assert {0, 1}.issubset(bits)
        assert any(w & (w - 1) == 0 and w + 1 in widths for w in widths)
        assert max(widths) > 1024

    @pytest.mark.parametrize("width,limit,name", KERNEL_CASES)
    def test_equals_stable_argsort(self, width, limit, name):
        # Ties go to the column first in tau: database order by default,
        # or any order given (here a seeded shuffle).
        scores = _tie_heavy_scores(width)[name]
        expected = np.argsort(-scores, axis=1, kind="stable")[:, :limit]
        got = rank_order(scores, limit)
        assert got.shape == (scores.shape[0], limit)
        assert np.array_equal(got, expected)
        tau = np.random.default_rng(width).permutation(width)
        expected = tau[np.argsort(-scores[:, tau], axis=1, kind="stable")]
        assert np.array_equal(rank_order(scores, limit, tau), expected[:, :limit])

    @pytest.mark.parametrize("width,limit,name", KERNEL_CASES)
    def test_rank_counts_equal_add_at_scatter(self, width, limit, name):
        scores = _tie_heavy_scores(width)[name]
        sampler = MonteCarloEvaluator(
            [uniform(f"u{i:04d}", 0.0, 1.0) for i in range(width)]
        )
        sampler._draw = lambda rng, batch: scores[:batch]
        if name == "non-finite":
            with pytest.raises(EvaluationError):
                sampler.rank_counts(scores.shape[0], max_rank=limit)
            return
        got = sampler.rank_counts(scores.shape[0], max_rank=limit)
        expected = np.zeros((width, limit))
        rankings = np.argsort(-scores, axis=1, kind="stable")
        np.add.at(
            expected, (rankings[:, :limit], np.arange(limit)[None, :]), 1.0
        )
        assert got.counts.dtype == expected.dtype
        assert np.array_equal(got.counts, expected)

    def test_rank_counts_draw_once_per_chunk(self):
        # Uniform, Gaussian and tied point columns make a multi-family
        # plan, whose stream depends on the row count of each draw: the
        # counts must come from one draw per memory chunk, however the
        # chunk is then sliced for ranking.
        records = (
            [uniform(f"u{i:03d}", i * 0.1, i * 0.1 + 3.0) for i in range(60)]
            + [
                UncertainRecord(
                    f"g{i:03d}",
                    TruncatedGaussianScore(mu, 1.0, mu - 3.0, mu + 3.0),
                )
                for i, mu in enumerate(np.arange(60) * 0.1)
            ]
            + [certain(f"p{i:03d}", 2.0 + i // 2) for i in range(10)]
        )
        n, limit, samples = len(records), 40, 2_500
        rows = RANK_SLICE_CELLS // n
        sampler = MonteCarloEvaluator(records, seed=11)
        sampler._MAX_MATRIX_CELLS = n * (2 * rows + 92)
        got = sampler.rank_counts(samples, max_rank=limit, seed=4)

        reference = MonteCarloEvaluator(records, seed=11)
        rng = reference._stream(4)
        chunk = 2 * rows + 92
        draws = [
            reference._draw(rng, min(chunk, samples - done))
            for done in range(0, samples, chunk)
        ]
        rankings = np.argsort(-np.vstack(draws), axis=1, kind="stable")
        expected = np.zeros((n, limit))
        np.add.at(
            expected, (rankings[:, :limit], np.arange(limit)[None, :]), 1.0
        )
        assert len(draws) == 3 and samples % chunk != 0
        assert np.array_equal(got.counts, expected)

    @pytest.mark.skipif(
        not sys.platform.startswith("linux")
        or platform.libc_ver()[0] != "glibc",
        reason="minor-fault accounting of glibc's heap trimming",
    )
    def test_wide_rank_counts_reuse_their_memory(self):
        import resource

        # Ranking a 4096 x 120 chunk whole used to free four ~4 MB
        # temporaries at once; glibc returned them to the OS and the
        # next call faulted every page back in (~4,855 minor faults).
        sampler = MonteCarloEvaluator(
            [uniform(f"u{i:03d}", i * 0.1, i * 0.1 + 5.0) for i in range(120)]
        )
        sampler.rank_counts(4096, max_rank=120)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(5):
            sampler.rank_counts(4096, max_rank=120)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert (after - before) / 5 < 100

    @pytest.mark.skipif(
        not sys.platform.startswith("linux")
        or platform.libc_ver()[0] != "glibc",
        reason="minor-fault accounting of glibc's heap trimming",
    )
    def test_top_k_tallies_reuse_their_memory(self):
        import resource

        # Ranking a whole 10,000 x 120 draw at full width in one call
        # faulted ~2,700 pages back in on every call; a tally block is
        # ranked in the same row slices as the rank counts.
        sampler = MonteCarloEvaluator(
            [uniform(f"u{i:03d}", i * 0.1, i * 0.1 + 5.0) for i in range(120)]
        )
        sampler.rank_counts(4096, max_rank=3, tally=True)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(5):
            sampler.rank_counts(4096, max_rank=3, tally=True)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert (after - before) / 5 < 100

    def test_sample_rankings_are_stable_full_rankings(self):
        records = [
            UncertainRecord(f"d{i:02d}", DiscreteScore([1.0, 2.0], [1, 1]))
            for i in range(24)
        ]
        sampler = MonteCarloEvaluator(records, seed=3)
        rankings = sampler.sample_rankings(500, seed=1)
        scores = MonteCarloEvaluator(records, seed=3).sample_scores(
            500, seed=1
        )
        assert np.array_equal(
            rankings, np.argsort(-scores, axis=1, kind="stable")
        )


class TestTauTieBreak:
    """Tied draws rank by the tie-breaker tau (record id), as Eq. 1 does.

    The records are stored against id order, so database order would
    give the opposite answers.
    """

    @pytest.fixture
    def tied(self):
        return [
            UncertainRecord("b", DiscreteScore([1, 2], [1, 1])),
            UncertainRecord("a", DiscreteScore([1, 2], [1, 1])),
            UncertainRecord("c", UniformScore(0, 3)),
        ]

    def test_rank_counts_rank_ties_by_tau(self, tied):
        samples = 20_000
        counts = MonteCarloEvaluator(tied).rank_counts(samples, seed=7).counts
        scores = MonteCarloEvaluator(tied).sample_scores(samples, seed=7)
        tau = np.array([1, 0, 2])
        rankings = tau[np.argsort(-scores[:, tau], axis=1, kind="stable")]
        expected = np.zeros((3, 3))
        np.add.at(expected, (rankings, np.arange(3)[None, :]), 1.0)
        assert np.array_equal(counts, expected)
        # a ranks first whenever it beats c, a tie with b included
        # (1/2 * 2/3 + 1/4 * 1/3); b must beat a outright (1/4 * 2/3).
        assert counts[1, 0] / samples == pytest.approx(5 / 12, abs=0.015)
        assert counts[0, 0] / samples == pytest.approx(1 / 6, abs=0.015)

    def test_indicator_estimators_count_a_tie_once(self, tied):
        b, a = tied[:2]
        sampler = MonteCarloEvaluator([b, a])
        samples = 20_000
        prefixes = [
            sampler.prefix_probability(order, samples, seed=3)
            for order in (["a", "b"], ["b", "a"])
        ]
        assert sum(prefixes) == pytest.approx(1.0, abs=1e-12)
        assert prefixes[0] == pytest.approx(
            probability_greater(a, b), abs=0.015
        )
        assert sampler.extension_probability(
            ["a", "b"], samples, seed=3
        ) == prefixes[0]
        assert sampler.top_set_probability(["a"], samples, seed=3) == (
            prefixes[0]
        )
        everyone = MonteCarloEvaluator(tied)
        total = sum(
            everyone.prefix_probability(list(order), samples, seed=5)
            for order in itertools.permutations("abc")
        )
        assert total == pytest.approx(1.0, abs=1e-12)
        sets = sum(
            everyone.top_set_probability(list(pair), samples, seed=5)
            for pair in itertools.combinations("abc", 2)
        )
        assert sets == pytest.approx(1.0, abs=1e-12)

    def test_engine_answers_by_tau(self, tied):
        result = RankingEngine(tied[:2], seed=0).utop_rank(
            1, 1, method="montecarlo"
        )
        assert result.answers[0].record_id == "a"
        assert result.answers[0].probability == pytest.approx(0.75, abs=0.02)


class TestPrefixEstimators:
    PREFIX = ["t5", "t1", "t2"]
    TRUTH = 0.4375

    def test_indicator_estimator(self, sampler):
        assert sampler.prefix_probability(
            self.PREFIX, SAMPLES
        ) == pytest.approx(self.TRUTH, abs=TOL)

    def test_sis_estimator(self, sampler):
        assert sampler.prefix_probability_sis(
            self.PREFIX, SAMPLES
        ) == pytest.approx(self.TRUTH, abs=TOL)

    def test_sis_handles_full_extension(self, sampler, exact, paper_db):
        order = ["t5", "t1", "t2", "t3", "t4", "t6"]
        truth = exact.extension_probability(order)
        assert sampler.prefix_probability_sis(
            order, SAMPLES
        ) == pytest.approx(truth, abs=TOL)

    def test_estimators_agree_on_low_probability_prefix(self, paper_db):
        exact = ExactEvaluator(paper_db)
        prefix = ["t2", "t5", "t1"]
        truth = exact.prefix_probability(prefix)
        sampler = MonteCarloEvaluator(
            paper_db, rng=np.random.default_rng(123)
        )
        sis = sampler.prefix_probability_sis(prefix, SAMPLES)
        indicator = sampler.prefix_probability(prefix, SAMPLES)
        assert sis == pytest.approx(truth, abs=TOL)
        assert indicator == pytest.approx(truth, abs=TOL)

    def test_sis_variance_lower_than_indicator(self, paper_db):
        # For a fixed small sample budget, SIS should deviate less from
        # the truth than indicator counting, averaged over repetitions.
        truth = ExactEvaluator(paper_db).prefix_probability(
            ["t5", "t1", "t2"]
        )
        errors_ind, errors_sis = [], []
        for seed in range(20):
            s = MonteCarloEvaluator(paper_db, rng=np.random.default_rng(seed))
            errors_ind.append(
                abs(s.prefix_probability(["t5", "t1", "t2"], 300) - truth)
            )
            s = MonteCarloEvaluator(paper_db, rng=np.random.default_rng(seed))
            errors_sis.append(
                abs(s.prefix_probability_sis(["t5", "t1", "t2"], 300) - truth)
            )
        assert np.mean(errors_sis) <= np.mean(errors_ind)

    def test_empty_prefix(self, sampler):
        assert sampler.prefix_probability([], 100) == 1.0
        assert sampler.prefix_probability_sis([], 100) == 1.0

    def test_duplicates_rejected(self, sampler):
        with pytest.raises(QueryError):
            sampler.prefix_probability(["t1", "t1"], 100)
        with pytest.raises(QueryError):
            sampler.prefix_probability_sis(["t1", "t1"], 100)


class TestSetEstimators:
    MEMBERS = ["t1", "t2", "t5"]
    TRUTH = 0.9375

    def test_indicator_estimator(self, sampler):
        assert sampler.top_set_probability(
            self.MEMBERS, SAMPLES
        ) == pytest.approx(self.TRUTH, abs=TOL)

    def test_cdf_estimator(self, sampler):
        assert sampler.top_set_probability_cdf(
            self.MEMBERS, SAMPLES
        ) == pytest.approx(self.TRUTH, abs=TOL)

    def test_whole_database(self, sampler, paper_db):
        ids = [r.record_id for r in paper_db]
        assert sampler.top_set_probability(ids, 1000) == 1.0

    def test_duplicates_rejected(self, sampler):
        with pytest.raises(QueryError):
            sampler.top_set_probability(["t1", "t1"], 100)


class TestExtensionProbability:
    def test_matches_exact(self, sampler, exact):
        order = ["t5", "t1", "t2", "t3", "t4", "t6"]
        truth = exact.extension_probability(order)
        assert sampler.extension_probability(
            order, SAMPLES
        ) == pytest.approx(truth, abs=TOL)

    def test_requires_permutation(self, sampler):
        with pytest.raises(QueryError):
            sampler.extension_probability(["t1", "t2"], 100)


def top_frequencies(sampler, k, samples, make=tuple):
    """Sampled top-k prefix (``make=frozenset``: set) frequencies by id."""
    sc = sampler.rank_counts(samples, max_rank=k, tally=True)
    ids = [rec.record_id for rec in sampler.records]
    freq = {}
    for top, count in sc.counts.items():
        key = make(ids[t] for t in top)
        freq[key] = freq.get(key, 0) + count / sc.done
    return freq


class TestEmpiricalStateDistributions:
    def test_prefix_frequencies_sum_to_one(self, sampler):
        freq = top_frequencies(sampler, 3, 5000)
        assert sum(freq.values()) == pytest.approx(1.0)

    def test_prefix_frequencies_match_exact(self, sampler, exact):
        freq = top_frequencies(sampler, 3, SAMPLES)
        best = max(freq, key=freq.get)
        assert best == ("t5", "t1", "t2")
        assert freq[best] == pytest.approx(0.4375, abs=TOL)

    def test_set_frequencies_match_exact(self, sampler):
        freq = top_frequencies(sampler, 3, SAMPLES, make=frozenset)
        best = max(freq, key=freq.get)
        assert best == frozenset({"t1", "t2", "t5"})
        assert freq[best] == pytest.approx(0.9375, abs=TOL)

    def test_deterministic_tie_handling(self):
        records = [certain("a", 5.0), certain("b", 5.0), uniform("u", 0, 1)]
        sampler = MonteCarloEvaluator(records, rng=np.random.default_rng(0))
        freq = top_frequencies(sampler, 2, 1000)
        # Tie-break puts 'a' above 'b' in every sample.
        assert freq == {("a", "b"): 1.0}

    def test_tally_ranks_the_rank_count_draws(self, sampler):
        # One draw-and-rank loop: the tally's first column is the
        # rank-1 column of the rank counts drawn from the same seed.
        tally = sampler.rank_counts(3000, max_rank=2, seed=4, tally=True)
        counts = sampler.rank_counts(3000, max_rank=2, seed=4).counts
        top1 = np.zeros(len(sampler.records))
        for top, count in tally.counts.items():
            top1[top[0]] += count
        assert tally.done == 3000
        assert np.array_equal(top1, counts[:, 0])

    def test_tally_rejects_non_finite_draws(self, sampler, monkeypatch):
        draw = MonteCarloEvaluator._draw

        def corrupt(self, rng, samples):
            scores = draw(self, rng, samples)
            scores[::7, 0] = np.nan
            return scores

        monkeypatch.setattr(MonteCarloEvaluator, "_draw", corrupt)
        with pytest.raises(EvaluationError):
            sampler.rank_counts(100, max_rank=3, tally=True)


class TestSISEdgeCases:
    """Boundary behavior of the SIS estimator (conditional-draw chain)."""

    @pytest.fixture
    def mixed_db(self):
        from repro.core.distributions import TruncatedGaussianScore
        from repro.core.records import UncertainRecord

        return [
            uniform("u1", 0.0, 2.0),
            UncertainRecord("g1", TruncatedGaussianScore(1.2, 0.4, 0.0, 2.4)),
            uniform("u2", 0.5, 1.5),
            UncertainRecord("g2", TruncatedGaussianScore(0.8, 0.3, 0.0, 1.6)),
            certain("c1", 1.0),
        ]

    def test_deterministic_record_mid_prefix(self, paper_db):
        # paper_db's t3 and t4 are deterministic; a prefix threading
        # through t3 exercises the point-mass branch (no draw, weight
        # gated on prev > value) between two continuous records.
        exact = ExactEvaluator(paper_db)
        prefix = ["t5", "t1", "t2", "t3"]
        truth = exact.prefix_probability(prefix)
        sampler = MonteCarloEvaluator(paper_db, seed=31)
        assert sampler.prefix_probability_sis(
            prefix, SAMPLES
        ) == pytest.approx(truth, abs=TOL)

    def test_infeasible_deterministic_prefix_is_zero(self):
        # c_high is certain at 5.0; requiring it *below* c_low (3.0)
        # zeroes every weight through the deterministic branch.
        records = [certain("c_low", 3.0), certain("c_high", 5.0),
                   uniform("u", 0.0, 1.0)]
        sampler = MonteCarloEvaluator(records, seed=1)
        assert sampler.prefix_probability_sis(["c_low", "c_high"], 500) == 0.0

    def test_cap_zero_branch_yields_zero_not_nan(self):
        # b's support lies entirely above a's, so F_b(prev) == 0 for
        # every draw: the cap<=0 guard must keep ppf inputs valid and
        # return exactly 0, not NaN.
        records = [uniform("a", 0.0, 1.0), uniform("b", 2.0, 3.0)]
        sampler = MonteCarloEvaluator(records, seed=2)
        value = sampler.prefix_probability_sis(["a", "b"], 1_000)
        assert value == 0.0

    def test_partial_cap_zero_keeps_feasible_mass(self):
        # Overlapping supports: some draws of `a` land below b's lower
        # bound (cap 0), others above (cap > 0); the estimate must only
        # count the feasible mass. Truth from the exact engine.
        records = [uniform("a", 0.0, 2.0), uniform("b", 1.0, 1.5),
                   uniform("u", 0.0, 0.5)]
        truth = ExactEvaluator(records).prefix_probability(["a", "b"])
        sampler = MonteCarloEvaluator(records, seed=3)
        assert sampler.prefix_probability_sis(
            ["a", "b"], SAMPLES
        ) == pytest.approx(truth, abs=TOL)

    def test_agrees_with_indicator_estimator_on_mixed_families(
        self, mixed_db
    ):
        sampler = MonteCarloEvaluator(mixed_db, seed=17)
        for prefix in (["u1"], ["g1", "u1"], ["u1", "g1", "c1"]):
            sis = sampler.prefix_probability_sis(prefix, SAMPLES, seed=4)
            indicator = sampler.prefix_probability(prefix, SAMPLES, seed=4)
            assert sis == pytest.approx(indicator, abs=TOL), prefix


class TestPerCallSeeds:
    """The documented determinism contract of per-call seed streams."""

    def test_seeded_calls_are_order_independent(self, paper_db):
        a = MonteCarloEvaluator(paper_db, seed=9)
        first = a.prefix_probability_sis(["t5", "t1"], 2_000, seed=5)
        b = MonteCarloEvaluator(paper_db, seed=9)
        b.rank_probability_matrix(1_000, seed=8)  # interleaved call
        b.sample_scores(300, seed=2)
        second = b.prefix_probability_sis(["t5", "t1"], 2_000, seed=5)
        assert first == second

    def test_unseeded_calls_share_the_evaluator_stream(self, paper_db):
        a = MonteCarloEvaluator(paper_db, seed=9)
        first = a.sample_scores(100)
        again = a.sample_scores(100)
        assert not np.array_equal(first, again)  # stream advanced

    def test_distinct_call_seeds_give_distinct_streams(self, paper_db):
        sampler = MonteCarloEvaluator(paper_db, seed=9)
        assert not np.array_equal(
            sampler.sample_scores(100, seed=1),
            sampler.sample_scores(100, seed=2),
        )

    def test_constructor_seed_still_matters(self, paper_db):
        assert not np.array_equal(
            MonteCarloEvaluator(paper_db, seed=1).sample_scores(100, seed=7),
            MonteCarloEvaluator(paper_db, seed=2).sample_scores(100, seed=7),
        )
