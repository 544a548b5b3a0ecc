"""Unit tests for the score-distribution families."""

import numpy as np
import pytest

from repro.core.distributions import (
    DiscreteScore,
    HistogramScore,
    MixtureScore,
    PointScore,
    TriangularScore,
    TruncatedExponentialScore,
    TruncatedGaussianScore,
    UniformScore,
)
from repro.core.errors import EvaluationError, ModelError

RNG = np.random.default_rng(12345)

ALL_CONTINUOUS = [
    UniformScore(2.0, 5.0),
    HistogramScore([0.0, 1.0, 3.0], [0.25, 0.75]),
    TriangularScore(0.0, 2.0, 6.0),
    TruncatedGaussianScore(1.0, 2.0, -1.0, 4.0),
    TruncatedExponentialScore(0.5, 0.0, 6.0),
    MixtureScore([UniformScore(0.0, 1.0), UniformScore(2.0, 3.0)], [1.0, 3.0]),
]


@pytest.mark.parametrize("dist", ALL_CONTINUOUS, ids=lambda d: type(d).__name__)
class TestContinuousFamilies:
    def test_cdf_monotone_and_normalized(self, dist):
        xs = np.linspace(dist.lower - 1, dist.upper + 1, 201)
        cdf = dist.cdf(xs)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert dist.cdf(dist.lower - 1e-9) == pytest.approx(0.0, abs=1e-9)
        assert dist.cdf(dist.upper + 1e-9) == pytest.approx(1.0, abs=1e-9)

    def test_pdf_nonnegative_and_supported(self, dist):
        xs = np.linspace(dist.lower - 1, dist.upper + 1, 201)
        pdf = dist.pdf(xs)
        assert np.all(pdf >= 0.0)
        assert dist.pdf(dist.lower - 0.5) == 0.0
        assert dist.pdf(dist.upper + 0.5) == 0.0

    def test_pdf_integrates_to_one(self, dist):
        xs = np.linspace(dist.lower, dist.upper, 20001)
        total = np.trapezoid(dist.pdf(xs), xs)
        assert total == pytest.approx(1.0, abs=5e-3)

    def test_ppf_inverts_cdf(self, dist):
        qs = np.linspace(0.01, 0.99, 25)
        xs = dist.ppf(qs)
        assert np.allclose(dist.cdf(xs), qs, atol=1e-6)

    def test_sampling_matches_cdf(self, dist):
        samples = np.atleast_1d(dist.sample(RNG, 20000))
        assert samples.min() >= dist.lower - 1e-9
        assert samples.max() <= dist.upper + 1e-9
        mid = 0.5 * (dist.lower + dist.upper)
        assert np.mean(samples <= mid) == pytest.approx(
            dist.cdf(mid), abs=0.02
        )

    def test_mean_matches_samples(self, dist):
        samples = np.atleast_1d(dist.sample(RNG, 50000))
        assert dist.mean() == pytest.approx(
            float(samples.mean()), abs=0.05 * max(1.0, dist.width)
        )

    def test_not_deterministic(self, dist):
        assert not dist.is_deterministic

    def test_piecewise_approximation_matches_cdf(self, dist):
        approx = dist.piecewise_approximation(segments=256)
        xs = np.linspace(dist.lower, dist.upper, 41)
        assert np.allclose(approx.cdf(xs), dist.cdf(xs), atol=0.02)


class TestPointScore:
    def test_basic(self):
        p = PointScore(3.0)
        assert p.is_deterministic
        assert p.lower == p.upper == 3.0
        assert p.mean() == 3.0
        assert p.cdf(2.999) == 0.0
        assert p.cdf(3.0) == 1.0

    def test_sampling_is_constant(self):
        p = PointScore(-1.5)
        assert np.all(p.sample(RNG, 10) == -1.5)

    def test_cdf_piecewise_is_step(self):
        step = PointScore(2.0).cdf_piecewise()
        assert step(1.9) == 0.0
        assert step(2.1) == 1.0

    def test_pdf_piecewise_rejected(self):
        with pytest.raises(EvaluationError):
            PointScore(1.0).pdf_piecewise()

    def test_nonfinite_rejected(self):
        with pytest.raises(ModelError):
            PointScore(float("nan"))
        with pytest.raises(ModelError):
            PointScore(float("inf"))


class TestUniformScore:
    def test_exact_piecewise_forms(self):
        u = UniformScore(1.0, 3.0)
        assert u.supports_exact
        assert u.pdf_piecewise()(2.0) == pytest.approx(0.5)
        assert u.cdf_piecewise()(2.0) == pytest.approx(0.5)

    def test_degenerate_rejected(self):
        with pytest.raises(ModelError):
            UniformScore(2.0, 2.0)
        with pytest.raises(ModelError):
            UniformScore(3.0, 2.0)


class TestHistogramScore:
    def test_masses_normalized(self):
        h = HistogramScore([0, 1, 2], [2.0, 6.0])
        assert h.cdf(1.0) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ModelError):
            HistogramScore([0.0], [])
        with pytest.raises(ModelError):
            HistogramScore([0.0, 0.0], [1.0])
        with pytest.raises(ModelError):
            HistogramScore([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ModelError):
            HistogramScore([0.0, 1.0], [-1.0])
        with pytest.raises(ModelError):
            HistogramScore([0.0, 1.0], [0.0])

    def test_exact_piecewise_matches_pdf(self):
        h = HistogramScore([0.0, 1.0, 4.0], [0.5, 0.5])
        xs = np.array([0.5, 2.0, 3.9])
        assert np.allclose(h.pdf_piecewise()(xs), h.pdf(xs))


class TestTriangularScore:
    def test_mean_formula(self):
        assert TriangularScore(0.0, 2.0, 6.0).mean() == pytest.approx(8 / 3)

    def test_exact_piecewise_matches(self):
        t = TriangularScore(1.0, 3.0, 4.0)
        xs = np.linspace(0.5, 4.5, 101)
        assert t.supports_exact
        assert np.allclose(t.pdf_piecewise()(xs), t.pdf(xs), atol=1e-12)
        assert np.allclose(t.cdf_piecewise()(xs), t.cdf(xs), atol=1e-12)

    def test_boundary_modes(self):
        left = TriangularScore(0.0, 0.0, 4.0)
        right = TriangularScore(0.0, 4.0, 4.0)
        # Avoid the exact support endpoints: the piecewise form is
        # right-continuous while pdf() closes the upper end.
        xs = np.linspace(-0.45, 4.45, 99)
        xs = xs[(xs != 0.0) & (xs != 4.0)]
        assert np.allclose(left.pdf_piecewise()(xs), left.pdf(xs), atol=1e-12)
        assert np.allclose(right.pdf_piecewise()(xs), right.pdf(xs), atol=1e-12)
        assert left.cdf(0.0) == 0.0
        assert right.cdf(4.0) == 1.0

    def test_validation(self):
        with pytest.raises(ModelError):
            TriangularScore(0.0, 5.0, 4.0)
        with pytest.raises(ModelError):
            TriangularScore(2.0, 2.0, 2.0)
        with pytest.raises(ModelError):
            TriangularScore(0.0, -1.0, 4.0)

    def test_exact_engine_integration(self):
        from repro.core.exact import ExactEvaluator
        from repro.core.records import UncertainRecord, certain

        records = [
            UncertainRecord("t", TriangularScore(0.0, 3.0, 6.0)),
            certain("c", 3.0),
        ]
        evaluator = ExactEvaluator(records)
        p = evaluator.probability_greater("t", "c")
        # Pr(T > 3) = 1 - F(3) = 1 - 9/18 = 0.5 for this symmetric case.
        assert p == pytest.approx(0.5)
        matrix = evaluator.rank_probability_matrix()
        assert np.allclose(matrix.sum(axis=1), 1.0)


class TestTruncatedFamilies:
    def test_gaussian_validation(self):
        with pytest.raises(ModelError):
            TruncatedGaussianScore(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ModelError):
            TruncatedGaussianScore(0.0, 1.0, 2.0, 2.0)

    def test_gaussian_mean_inside_support(self):
        g = TruncatedGaussianScore(10.0, 3.0, 0.0, 8.0)
        assert 0.0 < g.mean() < 8.0

    def test_exponential_validation(self):
        with pytest.raises(ModelError):
            TruncatedExponentialScore(0.0, 0.0, 1.0)
        with pytest.raises(ModelError):
            TruncatedExponentialScore(1.0, 1.0, 1.0)

    def test_exponential_skews_low(self):
        e = TruncatedExponentialScore(1.0, 0.0, 10.0)
        assert e.mean() < 5.0

    def test_no_exact_piecewise(self):
        g = TruncatedGaussianScore(0.0, 1.0, -1.0, 1.0)
        assert not g.supports_exact
        with pytest.raises(EvaluationError):
            g.pdf_piecewise()


class TestDiscreteScore:
    def test_cdf_steps(self):
        d = DiscreteScore([1.0, 3.0], [0.4, 0.6])
        assert d.cdf(0.9) == 0.0
        assert d.cdf(1.0) == pytest.approx(0.4)
        assert d.cdf(2.9) == pytest.approx(0.4)
        assert d.cdf(3.0) == pytest.approx(1.0)

    def test_single_atom_is_deterministic(self):
        d = DiscreteScore([2.0], [1.0])
        assert d.is_deterministic
        assert d.supports_exact

    def test_multi_atom_not_exact(self):
        d = DiscreteScore([1.0, 2.0], [0.5, 0.5])
        assert not d.supports_exact

    def test_cdf_piecewise_matches(self):
        d = DiscreteScore([1.0, 2.0, 4.0], [0.2, 0.3, 0.5])
        xs = np.array([0.5, 1.5, 2.5, 4.5])
        assert np.allclose(d.cdf_piecewise()(xs), d.cdf(xs))

    def test_sampling_frequencies(self):
        d = DiscreteScore([0.0, 1.0], [0.25, 0.75])
        samples = d.sample(RNG, 20000)
        assert np.mean(samples == 1.0) == pytest.approx(0.75, abs=0.02)

    def test_validation(self):
        with pytest.raises(ModelError):
            DiscreteScore([], [])
        with pytest.raises(ModelError):
            DiscreteScore([1.0, 1.0], [0.5, 0.5])
        with pytest.raises(ModelError):
            DiscreteScore([1.0], [0.0])
        with pytest.raises(ModelError):
            DiscreteScore([1.0, 2.0], [1.0])


class TestMixtureScore:
    def test_validation(self):
        with pytest.raises(ModelError):
            MixtureScore([], [])
        with pytest.raises(ModelError):
            MixtureScore([UniformScore(0, 1)], [1.0, 2.0])
        with pytest.raises(ModelError):
            MixtureScore([UniformScore(0, 1)], [0.0])

    def test_exact_piecewise_when_components_exact(self):
        m = MixtureScore(
            [UniformScore(0.0, 1.0), UniformScore(0.5, 2.0)], [1.0, 1.0]
        )
        assert m.supports_exact
        # Stay clear of segment boundaries: the piecewise form is
        # right-continuous while pdf() includes the closed upper end.
        xs = np.linspace(-0.45, 2.45, 30)
        assert np.allclose(m.pdf_piecewise()(xs), m.pdf(xs))

    def test_mean_is_weighted_average(self):
        m = MixtureScore(
            [UniformScore(0.0, 2.0), UniformScore(4.0, 6.0)], [3.0, 1.0]
        )
        assert m.mean() == pytest.approx(0.75 * 1.0 + 0.25 * 5.0)

    @pytest.mark.parametrize(
        "components, weights",
        [
            ([UniformScore(0.0, 1.0), UniformScore(0.5, 2.0)], [1.0, 2.0]),
            (
                [
                    TruncatedGaussianScore(1.0, 0.3, 0.0, 2.0),
                    TriangularScore(0.5, 1.0, 3.0),
                ],
                [0.3, 0.7],
            ),
            (
                [
                    TruncatedExponentialScore(2.0, 0.0, 3.0),
                    HistogramScore([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 2.0]),
                ],
                [1.0, 1.0],
            ),
        ],
        ids=["uniforms", "gaussian-triangular", "exponential-histogram"],
    )
    def test_ppf_bisects_every_quantile_at_once(self, components, weights):
        class Counting(MixtureScore):
            calls = 0

            def cdf(self, x):
                Counting.calls += 1
                return super().cdf(x)

        def scalar_bisection(m, qi):
            lo, hi = m.lower, m.upper
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if MixtureScore.cdf(m, mid) < qi:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        m = Counting(components, weights)
        q = np.concatenate(
            [[0.0, 0.5, 1.0], np.random.default_rng(3).random(4_997)]
        )
        out = m.ppf(q)
        # One batched CDF call per halving, not one per quantile.
        assert Counting.calls <= 60
        # Each quantile's halvings are elementwise, so a sample of them
        # pins the whole batch to the one-at-a-time reference, bit for
        # bit (0, 0.5 and 1 included).
        picked = np.r_[0:3, 3:len(q):50]
        expected = np.array([scalar_bisection(m, qi) for qi in q[picked]])
        assert np.array_equal(out[picked], expected)
        scalar = m.ppf(0.25)
        assert isinstance(scalar, float)
        assert scalar == scalar_bisection(m, 0.25)
