"""Unit tests for the columnar sampling layer (`SamplingPlan`).

The plan is the backend of every Monte-Carlo estimator, so these tests
pin its two contracts: (1) grouping — records land in the right family
kernel and scatter back to database column order; (2) kernel fidelity —
batch kernels agree with the scalar `ScoreDistribution` methods they
replace, column by column.
"""

import numpy as np
import pytest

from repro.core.distributions import (
    DiscreteScore,
    HistogramScore,
    MixtureScore,
    PointScore,
    SamplingPlan,
    TriangularScore,
    TruncatedExponentialScore,
    TruncatedGaussianScore,
    UniformScore,
    build_sampling_plan,
)

MIXED = [
    UniformScore(0.0, 2.0),
    PointScore(1.5),
    TruncatedGaussianScore(1.0, 0.5, 0.0, 2.0),
    UniformScore(3.0, 5.0),
    TriangularScore(0.0, 1.0, 4.0),
    TruncatedExponentialScore(0.7, 0.0, 3.0),
    HistogramScore([0.0, 1.0, 2.0], [0.25, 0.75]),
    DiscreteScore([0.5, 1.5, 2.5], [0.2, 0.5, 0.3]),
    MixtureScore(
        [UniformScore(0.0, 1.0), UniformScore(2.0, 3.0)], [0.4, 0.6]
    ),
]


class TestGrouping:
    def test_family_counts(self):
        plan = build_sampling_plan(MIXED)
        assert plan.family_counts == {
            "uniform": 2,
            "point": 1,
            "gaussian": 1,
            "triangular": 1,
            "exponential": 1,
            "histogram": 1,
            "discrete": 1,
            "generic": 1,
        }

    def test_columns_partition_database(self):
        plan = build_sampling_plan(MIXED)
        indices = np.concatenate([g.indices for g in plan.groups])
        assert sorted(indices.tolist()) == list(range(len(MIXED)))

    def test_deterministic_scores_join_point_group(self):
        # A single-atom discrete score is deterministic and must be
        # treated as a point mass, not routed to the discrete kernel.
        plan = build_sampling_plan(
            [DiscreteScore([2.0], [1.0]), PointScore(1.0)]
        )
        assert plan.family_counts == {"point": 2}

    def test_sample_overrides_only_affect_sampling(self):
        plan = build_sampling_plan(
            [PointScore(1.0)], sample_overrides={0: 1.25}
        )
        rng = np.random.default_rng(0)
        assert np.all(plan.sample(rng, 4) == 1.25)
        # CDF keeps the true step at 1.0: F(1.1) = 1, not 0.
        assert plan.cdf([1.1])[0, 0] == pytest.approx(1.0)

    def test_identity_fast_path_flag(self):
        homogeneous = build_sampling_plan(
            [UniformScore(float(i), float(i) + 1.0) for i in range(5)]
        )
        assert homogeneous._identity
        mixed = build_sampling_plan(MIXED)
        assert not mixed._identity


class TestKernelFidelity:
    """Batch kernels match the scalar distribution methods."""

    @pytest.fixture(scope="class")
    def plan(self):
        return build_sampling_plan(MIXED)

    def test_cdf_matches_scalar(self, plan):
        xs = np.linspace(-0.5, 5.5, 13)
        matrix = plan.cdf(xs)
        assert matrix.shape == (xs.size, len(MIXED))
        for j, dist in enumerate(MIXED):
            expected = [float(dist.cdf(x)) for x in xs]
            assert np.allclose(matrix[:, j], expected, atol=1e-12)

    def test_ppf_matches_scalar(self, plan):
        qs = np.linspace(0.01, 0.99, 9)
        uniforms = np.tile(qs[:, None], (1, len(MIXED)))
        matrix = plan.ppf(uniforms)
        for j, dist in enumerate(MIXED):
            expected = [float(dist.ppf(q)) for q in qs]
            assert np.allclose(matrix[:, j], expected, atol=1e-9)

    def test_samples_stay_in_support(self, plan):
        rng = np.random.default_rng(7)
        draws = plan.sample(rng, 2_000)
        assert draws.shape == (2_000, len(MIXED))
        for j, dist in enumerate(MIXED):
            assert np.all(draws[:, j] >= dist.lower - 1e-12)
            assert np.all(draws[:, j] <= dist.upper + 1e-12)

    def test_sample_moments_match_ppf(self, plan):
        # Inverse-transform the same uniforms through scalar ppf and
        # compare moments of direct kernel draws against them.
        rng = np.random.default_rng(11)
        draws = plan.sample(rng, 20_000)
        qs = np.random.default_rng(12).random((20_000, len(MIXED)))
        reference = plan.ppf(qs)
        assert np.allclose(
            draws.mean(axis=0), reference.mean(axis=0), atol=0.05
        )
        assert np.allclose(
            draws.std(axis=0), reference.std(axis=0), atol=0.05
        )

    def test_identity_path_matches_scatter_path(self):
        dists = [UniformScore(float(i), float(i) + 2.0) for i in range(6)]
        fast = build_sampling_plan(dists)
        assert fast._identity
        slow = SamplingPlan(fast.groups, len(dists))
        slow._identity = False
        assert np.array_equal(
            fast.sample(np.random.default_rng(3), 50),
            slow.sample(np.random.default_rng(3), 50),
        )
        xs = np.linspace(0.0, 8.0, 9)
        assert np.array_equal(fast.cdf(xs), slow.cdf(xs))
        us = np.random.default_rng(4).random((20, len(dists)))
        assert np.array_equal(fast.ppf(us), slow.ppf(us))


FAMILY_MEMBERS = {
    "uniform": [
        UniformScore(0.0, 2.0),
        UniformScore(-3.0, 5.5),
        UniformScore(1e-3, 2e-3),
    ],
    "triangular": [
        TriangularScore(0.0, 1.0, 4.0),
        TriangularScore(0.0, 0.0, 1.0),
        TriangularScore(0.0, 1.0, 1.0),
        TriangularScore(-2.0, 0.3, 7.0),
    ],
    "gaussian": [
        TruncatedGaussianScore(1.0, 0.5, 0.0, 2.0),
        TruncatedGaussianScore(10.0, 1.0, 0.0, 3.0),
        TruncatedGaussianScore(-1.0, 3.0, -0.5, 9.0),
    ],
    "exponential": [
        TruncatedExponentialScore(0.7, 0.0, 3.0),
        TruncatedExponentialScore(5.0, 1.0, 9.0),
        TruncatedExponentialScore(0.01, -2.0, 2.0),
    ],
}


class TestOneDefinitionPerFamily:
    """A closed-form family's plan column *is* its scalar method."""

    @pytest.mark.parametrize("family", sorted(FAMILY_MEMBERS))
    def test_plan_columns_equal_the_scalar_methods(self, family):
        members = FAMILY_MEMBERS[family]
        plan = build_sampling_plan(members)
        assert plan.family_counts == {family: len(members)}
        xs = np.linspace(-4.0, 10.0, 1_001)
        us = np.random.default_rng(5).random((1_001, len(members)))
        us[:3] = [[0.0], [0.5], [1.0 - 2.0**-53]]  # rng.random's range
        cdf, ppf = plan.cdf(xs), plan.ppf(us)
        for j, member in enumerate(members):
            assert np.array_equal(cdf[:, j], member.cdf(xs))
            assert np.array_equal(ppf[:, j], member.ppf(us[:, j]))
            draw = build_sampling_plan([member]).sample(
                np.random.default_rng(j), 500
            )
            expected = member.sample(np.random.default_rng(j), 500)
            assert np.array_equal(draw[:, 0], expected)

    def test_subclass_is_drawn_through_its_own_methods(self):
        class RampScore(UniformScore):
            """Density ``2 (x - lo) / w**2``: a subclass's own math."""

            def cdf(self, x):
                t = (np.asarray(x, dtype=float) - self.lower) / self.width
                return np.clip(t, 0.0, 1.0) ** 2

            def ppf(self, q):
                return self.lower + self.width * np.sqrt(q)

            def sample(self, rng, size=None):
                return self.ppf(rng.random(size))

        ramp = RampScore(0.0, 1.0)
        plan = build_sampling_plan([ramp, UniformScore(0.0, 1.0)])
        assert plan.family_counts == {"generic": 1, "uniform": 1}
        draws = plan.sample(np.random.default_rng(3), 20_000)
        expected = ramp.sample(np.random.default_rng(3), 20_000)
        assert np.array_equal(draws[:, 0], expected)
        assert draws[:, 0].mean() == pytest.approx(2.0 / 3.0, abs=0.01)
        us = np.random.default_rng(4).random((50, 2))
        assert np.array_equal(plan.ppf(us)[:, 0], ramp.ppf(us[:, 0]))
        xs = np.linspace(-0.5, 1.5, 21)
        assert np.array_equal(plan.cdf(xs)[:, 0], ramp.cdf(xs))


class TestCdfProduct:
    def test_matches_manual_product(self):
        plan = build_sampling_plan(MIXED)
        xs = np.linspace(0.0, 5.0, 7)
        expected = np.ones_like(xs)
        for dist in MIXED:
            expected *= np.array([float(dist.cdf(x)) for x in xs])
        assert np.allclose(plan.cdf_product(xs), expected, atol=1e-12)

    def test_exclude_drops_columns(self):
        plan = build_sampling_plan(MIXED)
        xs = np.array([1.0, 2.5])
        keep = [j for j in range(len(MIXED)) if j not in (0, 4, 8)]
        expected = np.ones_like(xs)
        for j in keep:
            expected *= np.array([float(MIXED[j].cdf(x)) for x in xs])
        assert np.allclose(
            plan.cdf_product(xs, exclude=[0, 4, 8]), expected, atol=1e-12
        )

    def test_exclude_everything_gives_one(self):
        plan = build_sampling_plan(MIXED[:3])
        result = plan.cdf_product([0.5], exclude=[0, 1, 2])
        assert np.allclose(result, 1.0)
