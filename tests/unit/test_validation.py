"""Unit tests for model validation (failure injection)."""

import numpy as np
import pytest

from repro.core import validation
from repro.core.distributions import (
    DiscreteScore,
    HistogramScore,
    MixtureScore,
    PointScore,
    ScoreDistribution,
    TriangularScore,
    TruncatedExponentialScore,
    TruncatedGaussianScore,
    UniformScore,
)
from repro.core.errors import ModelError
from repro.core.records import UncertainRecord, certain, uniform
from repro.core.validation import validate_distribution, validate_records


class _BrokenDistribution(ScoreDistribution):
    """A configurable malicious distribution for failure injection."""

    def __init__(self, bug: str) -> None:
        self.bug = bug
        self.lower, self.upper = 0.0, 1.0

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.bug == "negative-pdf":
            return np.where((x >= 0) & (x <= 1), -1.0, 0.0)
        if self.bug == "wrong-mass":
            return np.where((x >= 0) & (x <= 1), 3.0, 0.0)
        if self.bug == "pdf-cdf":
            # Integrates to 1, but to x**2 rather than to the cdf x.
            return np.where((x >= 0) & (x <= 1), 2.0 * x, 0.0)
        return np.where((x >= 0) & (x <= 1), 1.0, 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.bug == "non-monotone":
            return np.clip(np.sin(4.0 * np.pi * x) * 0.5 + x, 0.0, 1.0)
        if self.bug == "bad-left":
            return np.clip(x + 0.3, 0.0, 1.0)
        if self.bug == "bad-right":
            return np.clip(x * 0.5, 0.0, 1.0)
        return np.clip(x, 0.0, 1.0)

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        if self.bug == "ppf-outside":
            return q + 5.0
        return np.clip(q, 0.0, 1.0)

    def sample(self, rng, size=None):
        if self.bug == "sample-outside":
            return rng.uniform(2.0, 3.0, size)
        return rng.uniform(0.0, 1.0, size)

    def mean(self):
        return 0.5


class TestValidateDistribution:
    @pytest.mark.parametrize(
        "dist",
        [
            PointScore(2.0),
            UniformScore(0.0, 5.0),
            HistogramScore([0, 1, 2], [0.5, 0.5]),
            TriangularScore(0.0, 1.0, 3.0),
            TruncatedGaussianScore(0.0, 1.0, -2.0, 2.0),
        ],
        ids=lambda d: type(d).__name__,
    )
    def test_library_families_are_clean(self, dist):
        assert validate_distribution(dist) == []

    @pytest.mark.parametrize(
        "bug,expected_code",
        [
            ("non-monotone", "cdf-monotone"),
            ("bad-left", "cdf-left"),
            ("bad-right", "cdf-right"),
            ("negative-pdf", "pdf-negative"),
            ("wrong-mass", "pdf-mass"),
            ("pdf-cdf", "pdf-cdf"),
            ("ppf-outside", "ppf-range"),
            ("sample-outside", "sample-support"),
        ],
    )
    def test_injected_failures_detected(self, bug, expected_code):
        issues = validate_distribution(_BrokenDistribution(bug))
        codes = {issue.code for issue in issues}
        assert expected_code in codes

    def test_issue_rendering(self):
        issues = validate_distribution(_BrokenDistribution("bad-left"))
        assert "[cdf-left]" in str(issues[0])


    def test_custom_deterministic_score_far_from_zero(self):
        # 0.01 below 1e15 rounds back to 1e15, so the boundary probes
        # must step out by at least one ulp.
        assert validate_distribution(_FarPoint(1e15)) == []

    def test_generalized_inverse_accepts_atoms(self):
        mixed = MixtureScore(
            [DiscreteScore([1, 2], [1, 1]), UniformScore(0, 3)], [1, 1]
        )
        codes = {issue.code for issue in validate_distribution(mixed)}
        assert "ppf-inverse" not in codes

    def test_density_jump_inside_a_grid_cell(self):
        gapped = MixtureScore(
            [UniformScore(0, 1), UniformScore(2, 3)], [1, 1]
        )
        assert validate_distribution(gapped) == []


class _FarPoint(ScoreDistribution):
    """A user-defined certain score, far from zero."""

    def __init__(self, value):
        self.lower = self.upper = value

    def pdf(self, x):
        return np.where(np.asarray(x) == self.lower, np.inf, 0.0)

    def cdf(self, x):
        return np.where(np.asarray(x, dtype=float) >= self.lower, 1.0, 0.0)

    def ppf(self, q):
        return np.full_like(np.asarray(q, dtype=float), self.lower)

    def mean(self):
        return self.lower


class TestValidateRecords:
    def test_clean_database(self, paper_db):
        assert validate_records(paper_db) == {}

    def test_duplicate_ids_reported(self):
        records = [certain("a", 1.0), certain("a", 2.0)]
        report = validate_records(records)
        assert "*" in report
        assert report["*"][0].code == "duplicate-ids"

    def test_issues_keyed_by_record(self):
        records = [
            uniform("good", 0.0, 1.0),
            UncertainRecord("bad", _BrokenDistribution("non-monotone")),
        ]
        report = validate_records(records)
        assert set(report) == {"bad"}

    def test_raise_on_issue(self):
        records = [UncertainRecord("bad", _BrokenDistribution("bad-left"))]
        with pytest.raises(ModelError):
            validate_records(records, raise_on_issue=True)


def _constructed(rng, family):
    """One random parameterisation of ``family``; None if rejected."""
    scale = 10.0 ** rng.integers(-3, 16)
    lo = float(rng.normal(0.0, scale))
    width = float(rng.exponential(scale)) * rng.choice([1e-9, 1.0])
    up = lo + width
    try:
        if family is PointScore:
            return PointScore(lo)
        if family is UniformScore:
            return UniformScore(lo, up)
        if family is TriangularScore:
            return TriangularScore(lo, lo + rng.random() * width, up)
        if family is TruncatedGaussianScore:
            mu = lo + rng.normal(0.5, 2.0) * width
            return TruncatedGaussianScore(mu, rng.exponential(width), lo, up)
        if family is TruncatedExponentialScore:
            return TruncatedExponentialScore(
                rng.exponential(50.0) / max(width, 1e-300), lo, up
            )
        bins = int(rng.integers(1, 8))
        points = np.sort(lo + width * rng.random(bins + 1))
        weights = rng.random(bins + 1) * rng.choice([0.0, 1.0], bins + 1)
        if family is HistogramScore:
            return HistogramScore(points, weights[:-1] + 1e-3)
        return DiscreteScore(points, weights + 1e-3)
    except ModelError:
        return None


_FAMILIES = [
    PointScore,
    UniformScore,
    TriangularScore,
    TruncatedGaussianScore,
    TruncatedExponentialScore,
    HistogramScore,
    DiscreteScore,
]


def _edited(score, **fields):
    """``score`` with fields overwritten after construction."""
    for name, value in fields.items():
        setattr(score, name, value)
    return score


class TestBuiltInInvariants:
    """Built-in families are checked by invariants, not sampled."""

    @pytest.mark.parametrize("family", _FAMILIES, ids=lambda f: f.__name__)
    def test_constructor_accepted_instances_are_clean(self, family):
        rng = np.random.default_rng(1234)
        scores = [_constructed(rng, family) for _ in range(300)]
        scores = [s for s in scores if s is not None]
        assert len(scores) > 100
        records = [UncertainRecord(f"r{i}", s) for i, s in enumerate(scores)]
        assert validate_records(records, raise_on_issue=True) == {}
        assert all(validate_distribution(s) == [] for s in scores[:20])

    @pytest.mark.parametrize(
        "score",
        [
            HistogramScore([0, 0.01, 10], [0.5, 0.5]),
            PointScore(1e15),
            TruncatedExponentialScore(2.64, 0.0, 398.0),
            DiscreteScore([1.0, 2.0, 5.0], [1, 2, 3]),
        ],
        ids=repr,
    )
    def test_valid_models_the_sampled_check_rejected(self, score):
        records = [UncertainRecord("a", score)]
        assert validate_records(records, raise_on_issue=True) == {}

    @pytest.mark.parametrize(
        "score,code",
        [
            (_edited(PointScore(2.0), upper=3.0), "support"),
            (_edited(UniformScore(0, 1), upper=-1.0), "support"),
            (_edited(UniformScore(0, 1), lower=np.nan), "support"),
            (_edited(UniformScore(0, 1), upper=np.inf), "support"),
            (_edited(UniformScore(0, 1), _density=5.0), "cached-field"),
            (_edited(TriangularScore(0, 1, 2), mode=3.0), "parameter"),
            (_edited(TriangularScore(0, 1, 2), _peak=1.5), "cached-field"),
            (
                _edited(TruncatedGaussianScore(0, 1, -2, 2), sigma=0.0),
                "parameter",
            ),
            (
                _edited(TruncatedGaussianScore(0, 1, -2, 2), _z=0.0),
                "cached-field",
            ),
            (
                _edited(TruncatedGaussianScore(0, 1, -2, 2), mu=5.0),
                "cached-field",
            ),
            (
                _edited(TruncatedExponentialScore(1, 0, 2), rate=-1.0),
                "parameter",
            ),
            (
                _edited(TruncatedExponentialScore(1, 0, 2), upper=9.0),
                "cached-field",
            ),
            (
                _edited(HistogramScore([0, 1, 2], [1, 1]),
                    masses=np.array([0.7, 0.5]),
                ),
                "parameter",
            ),
            (
                _edited(HistogramScore([0, 1, 2], [1, 1]),
                    edges=np.array([0.0, 3.0, 2.0]),
                ),
                "parameter",
            ),
            (
                _edited(HistogramScore([0, 1, 2], [1, 1]),
                    _cum=np.array([0.0, 0.2, 1.0]),
                ),
                "cached-field",
            ),
            (
                _edited(HistogramScore([0, 1, 2], [1, 1]),
                    masses=np.array([1.0]),
                ),
                "support",
            ),
            (
                _edited(DiscreteScore([1, 2], [1, 1]),
                    values=np.array([1.0, 1.0]),
                ),
                "parameter",
            ),
            (
                _edited(DiscreteScore([1, 2], [1, 1]),
                    weights=np.array([1.5, -0.5]),
                ),
                "parameter",
            ),
            (
                _edited(DiscreteScore([1, 2], [1, 1]),
                    _cum=np.array([0.9, 1.0]),
                ),
                "cached-field",
            ),
        ],
        ids=lambda v: v if isinstance(v, str) else repr(v),
    )
    def test_edited_instance_rejected(self, score, code):
        assert code in {issue.code for issue in validate_distribution(score)}
        records = [uniform("fine", 0.0, 1.0), UncertainRecord("edited", score)]
        report = validate_records(records)
        assert set(report) == {"edited"}
        assert code in {issue.code for issue in report["edited"]}
        with pytest.raises(ModelError, match="record 'edited'"):
            validate_records(records, raise_on_issue=True)

    def test_first_problem_in_record_order_is_raised(self):
        records = [uniform(f"r{i}", i, i + 1.0) for i in range(10)]
        records[3] = UncertainRecord("r3", _BrokenDistribution("bad-left"))
        records[7].score.upper = -1.0
        with pytest.raises(ModelError, match="record 'r3'"):
            validate_records(records, raise_on_issue=True)
        assert list(validate_records(records)) == ["r3", "r7"]

    def test_built_in_records_skip_the_sampled_check(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("sampled check reached")

        monkeypatch.setattr(validation, "_sampled_check", forbidden)
        rng = np.random.default_rng(7)
        scores = [
            _constructed(rng, _FAMILIES[i % len(_FAMILIES)])
            for i in range(1_000)
        ]
        records = [
            UncertainRecord(f"r{i}", score or PointScore(float(i)))
            for i, score in enumerate(scores)
        ]
        assert validate_records(records) == {}
        assert validate_distribution(UniformScore(0, 1)) == []

    def test_built_in_subclass_takes_the_sampled_check(self, monkeypatch):
        class NaNSamplingScore(UniformScore):
            def sample(self, rng, size=None):
                out = np.asarray(super().sample(rng, size), dtype=float)
                out[0] = np.nan
                return out

        checked = []
        sampled = validation._sampled_check

        def spy(dist, *args, **kwargs):
            checked.append(dist)
            return sampled(dist, *args, **kwargs)

        monkeypatch.setattr(validation, "_sampled_check", spy)
        odd = NaNSamplingScore(0.0, 1.0)
        records = [uniform("plain", 0.0, 1.0), UncertainRecord("odd", odd)]
        report = validate_records(records)
        assert checked == [odd]
        assert [issue.code for issue in report["odd"]] == ["sample-finite"]
