"""Validation of user-supplied score models.

The evaluators trust that every :class:`ScoreDistribution` is a proper
probability distribution on its declared interval. A buggy ``cdf``
silently corrupts every probability downstream, so this module provides
the checks a database runs at ingestion time. How a score is checked
depends on its *exact* type:

- **Built-in families** (:class:`PointScore`, :class:`UniformScore`,
  :class:`TriangularScore`, :class:`TruncatedGaussianScore`,
  :class:`TruncatedExponentialScore`, :class:`HistogramScore`,
  :class:`DiscreteScore`) are checked by *invariants*. Their
  constructors reject every invalid parameterisation, so validation
  re-checks, column-wise over all records of one family, the state a
  constructor establishes: finite ordered bounds, positive scales,
  ordered edges and values, normalised masses and weights, and every
  cached field a kernel reads re-derived from the public parameters. An
  instance edited after construction is still caught; no ``cdf``,
  ``ppf`` or ``sample`` call is made.
- **Everything else** — mixtures, convolutions, user subclasses
  (including subclasses of a built-in family) and fault-injection
  wrappers — gets the *sampled* spot-check: support declaration, CDF
  boundary values, monotonicity, pdf/cdf consistency, generalized ppf
  inversion and sampling support. These checks are numeric (grid- and
  sample-based), so they are probabilistic guarantees, not proofs;
  tolerances are explicit parameters.

:func:`validate_distribution` checks one score and
:func:`validate_records` a whole database, plus database-level checks
(duplicate ids). Both dispatch on the exact type the same way, so they
share one definition of validity. Every problem is reported as a named
:class:`ValidationIssue`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple, Union

import numpy as np

from .distributions import (
    DiscreteScore,
    HistogramScore,
    PointScore,
    ScoreDistribution,
    TriangularScore,
    TruncatedExponentialScore,
    TruncatedGaussianScore,
    UniformScore,
    _norm_cdf,
)
from .errors import ModelError
from .records import UncertainRecord

__all__ = ["ValidationIssue", "validate_distribution", "validate_records"]


@dataclass(frozen=True)
class ValidationIssue:
    """One detected problem: a machine-readable code plus a message."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


# ----------------------------------------------------------------------
# Built-in families: column-wise invariant checks
# ----------------------------------------------------------------------

#: Relative tolerance between a cached field and its re-derived value.
#: The constructor computes both with the same arithmetic, so any real
#: disagreement is an edit, not rounding.
_RTOL = 1e-9
#: Absolute tolerance on probabilities: masses and weights summing to
#: one, and cumulative tables whose steps are those masses.
_PTOL = 1e-9

#: An issue message, or a function of the row index that formats one.
_Message = Union[str, Callable[[int], str]]


def _agrees(
    cached: np.ndarray, expected: np.ndarray, atol: float = 0.0
) -> np.ndarray:
    """Elementwise agreement of a cached field; NaN never agrees."""
    return np.abs(cached - expected) <= _RTOL * np.abs(expected) + atol


def _column(members: Sequence[ScoreDistribution], name: str) -> np.ndarray:
    return np.array([getattr(m, name) for m in members], dtype=float)


class _Flat:
    """One array field of many rows, laid end to end."""

    def __init__(self, arrays: Sequence[np.ndarray]) -> None:
        sizes = np.array([a.size for a in arrays], dtype=np.intp)
        self.n = sizes.size
        self.values = np.concatenate(arrays) if arrays else np.empty(0)
        self.row = np.repeat(np.arange(self.n), sizes)
        self.first = np.cumsum(sizes) - sizes
        self.last = self.first + sizes - 1
        # Steps of np.diff(values) that stay inside one row.
        self.inner = self.row[1:] == self.row[:-1]

    def steps(self) -> np.ndarray:
        """Within-row differences, aligned with :meth:`tail`."""
        return np.diff(self.values)[self.inner]

    def tail(self) -> np.ndarray:
        """Every value except each row's first."""
        return self.values[1:][self.inner]

    def any(self, bad: np.ndarray) -> np.ndarray:
        """Per row: does ``bad`` (aligned with ``values``) hold anywhere?"""
        return np.bincount(self.row[bad], minlength=self.n) > 0

    def any_tail(self, bad: np.ndarray) -> np.ndarray:
        """Per row: does ``bad`` (aligned with :meth:`tail`) hold anywhere?"""
        return np.bincount(self.row[1:][self.inner][bad], minlength=self.n) > 0

    def sums(self) -> np.ndarray:
        """Per row: the sum of its values."""
        return np.bincount(self.row, weights=self.values, minlength=self.n)


class _Report:
    """Issue lists for the rows of one family group.

    A row that fails a ``support`` check gets no further issues, as the
    sampled check stops at a bad support declaration.
    """

    def __init__(self, n: int) -> None:
        self.issues: List[List[ValidationIssue]] = [[] for _ in range(n)]
        self.stopped = np.zeros(n, dtype=bool)

    def flag(
        self,
        code: str,
        bad: np.ndarray,
        message: _Message,
        rows: np.ndarray | None = None,
    ) -> None:
        """Report ``code`` on each row where ``bad`` holds.

        ``bad`` is aligned with ``rows`` when given (a subset of the
        group), else with the whole group.
        """
        hits = np.flatnonzero(bad)
        if rows is not None:
            hits = rows[hits]
        for i in hits:
            if self.stopped[i]:
                continue
            text = message(i) if callable(message) else message
            self.issues[i].append(ValidationIssue(code, text))
            if code == "support":
                self.stopped[i] = True

    def cached(
        self,
        name: str,
        cached: np.ndarray,
        expected: np.ndarray,
        rows: np.ndarray | None = None,
    ) -> None:
        """Report a cached field that disagrees with its derivation."""
        self.flag(
            "cached-field",
            ~_agrees(cached, expected),
            f"{name} disagrees with the value derived from the parameters",
            rows,
        )

    def live(self) -> np.ndarray:
        """Indices of the rows not stopped by a support failure."""
        return np.flatnonzero(~self.stopped)


def _bounds(
    members: Sequence[ScoreDistribution], report: _Report, continuous: bool
) -> Tuple[np.ndarray, np.ndarray]:
    lo, up = _column(members, "lower"), _column(members, "upper")
    report.flag(
        "support",
        ~(np.isfinite(lo) & np.isfinite(up)),
        "support bounds must be finite",
    )
    report.flag(
        "support", lo > up, lambda i: f"lower {lo[i]} exceeds upper {up[i]}"
    )
    if continuous:
        report.flag(
            "support",
            ~(lo < up) | ~np.isfinite(up - lo),
            lambda i: f"a continuous family needs a finite interval with "
            f"lower < upper, got [{lo[i]}, {up[i]}]",
        )
    return lo, up


def _point_issues(members: Sequence[PointScore], report: _Report) -> None:
    lo, up = _bounds(members, report, continuous=False)
    report.flag(
        "support",
        lo != up,
        lambda i: f"a point score spans [{lo[i]}, {up[i]}]",
    )


def _uniform_issues(members: Sequence[UniformScore], report: _Report) -> None:
    lo, up = _bounds(members, report, continuous=True)
    report.cached("_density", _column(members, "_density"), 1.0 / (up - lo))


def _triangular_issues(
    members: Sequence[TriangularScore], report: _Report
) -> None:
    lo, up = _bounds(members, report, continuous=True)
    mode = _column(members, "mode")
    report.flag(
        "parameter",
        ~((lo <= mode) & (mode <= up)),
        lambda i: f"mode {mode[i]} outside [{lo[i]}, {up[i]}]",
    )
    report.cached("_peak", _column(members, "_peak"), 2.0 / (up - lo))


def _gaussian_issues(
    members: Sequence[TruncatedGaussianScore], report: _Report
) -> None:
    lo, up = _bounds(members, report, continuous=True)
    mu, sigma = _column(members, "mu"), _column(members, "sigma")
    report.flag("parameter", ~np.isfinite(mu), "mu must be finite")
    report.flag(
        "parameter",
        ~((sigma > 0) & np.isfinite(sigma)),
        lambda i: f"sigma {sigma[i]} must be positive and finite",
    )
    alpha, beta = (lo - mu) / sigma, (up - mu) / sigma
    z = _norm_cdf(beta) - _norm_cdf(alpha)
    report.flag(
        "parameter", ~(z > 0), "truncation interval carries no Gaussian mass"
    )
    report.cached("_alpha", _column(members, "_alpha"), alpha)
    report.cached("_beta", _column(members, "_beta"), beta)
    report.cached("_z", _column(members, "_z"), z)


def _exponential_issues(
    members: Sequence[TruncatedExponentialScore], report: _Report
) -> None:
    lo, up = _bounds(members, report, continuous=True)
    rate = _column(members, "rate")
    report.flag(
        "parameter",
        ~((rate > 0) & np.isfinite(rate)),
        lambda i: f"rate {rate[i]} must be positive and finite",
    )
    z = 1.0 - np.exp(-rate * (up - lo))
    report.flag(
        "parameter",
        ~(z > 0),
        "truncation interval carries no exponential mass",
    )
    report.cached("_z", _column(members, "_z"), z)


def _arrays(
    members: Sequence[ScoreDistribution], name: str
) -> List[np.ndarray]:
    return [np.asarray(getattr(m, name), dtype=float) for m in members]


def _histogram_issues(
    members: Sequence[HistogramScore], report: _Report
) -> None:
    lo, up = _bounds(members, report, continuous=True)
    edges, masses = _arrays(members, "edges"), _arrays(members, "masses")
    dens, cum = _arrays(members, "_densities"), _arrays(members, "_cum")
    report.flag(
        "support",
        np.array(
            [
                e.ndim != 1
                or e.size < 2
                or m.shape != (e.size - 1,)
                or d.shape != m.shape
                or c.shape != e.shape
                for e, m, d, c in zip(edges, masses, dens, cum)
            ],
            dtype=bool,
        ),
        "histogram needs edges, one mass and density per bin, and one "
        "cumulative value per edge",
    )
    rows = report.live()
    if not rows.size:
        return
    # Bin j of a row is the step from its edge j to edge j + 1, so
    # masses, densities and cumulative steps all align with the edge
    # steps.
    e = _Flat([edges[i] for i in rows])
    m = _Flat([masses[i] for i in rows])
    c = _Flat([cum[i] for i in rows])
    widths = e.steps()
    report.flag(
        "parameter",
        e.any(~np.isfinite(e.values)) | e.any_tail(~(widths > 0)),
        "histogram edges must be finite and strictly increasing",
        rows,
    )
    report.flag(
        "parameter",
        m.any(~(m.values >= 0)) | ~(np.abs(m.sums() - 1.0) <= _PTOL),
        "bin masses must be non-negative and sum to 1",
        rows,
    )
    report.cached("lower", lo[rows], e.values[e.first], rows)
    report.cached("upper", up[rows], e.values[e.last], rows)
    expected = m.values / widths
    report.flag(
        "cached-field",
        m.any(~_agrees(np.concatenate([dens[i] for i in rows]), expected)),
        "_densities disagrees with the value derived from the parameters",
        rows,
    )
    report.flag(
        "cached-field",
        ~_agrees(c.values[c.first], np.zeros(rows.size), _PTOL)
        | ~_agrees(c.values[c.last], np.ones(rows.size), _PTOL)
        | c.any_tail(~_agrees(c.steps(), m.values, _PTOL)),
        "_cum disagrees with the value derived from the parameters",
        rows,
    )


def _discrete_issues(
    members: Sequence[DiscreteScore], report: _Report
) -> None:
    lo, up = _bounds(members, report, continuous=False)
    values, weights = _arrays(members, "values"), _arrays(members, "weights")
    cum = _arrays(members, "_cum")
    report.flag(
        "support",
        np.array(
            [
                v.ndim != 1
                or v.size < 1
                or w.shape != v.shape
                or c.shape != v.shape
                for v, w, c in zip(values, weights, cum)
            ],
            dtype=bool,
        ),
        "discrete score needs values, one weight per value, and one "
        "cumulative weight per value",
    )
    rows = report.live()
    if not rows.size:
        return
    v = _Flat([values[i] for i in rows])
    w = _Flat([weights[i] for i in rows])
    c = _Flat([cum[i] for i in rows])
    report.flag(
        "parameter",
        v.any(~np.isfinite(v.values)) | v.any_tail(~(v.steps() > 0)),
        "discrete values must be finite, sorted and distinct",
        rows,
    )
    report.flag(
        "parameter",
        w.any(~(w.values > 0)) | ~(np.abs(w.sums() - 1.0) <= _PTOL),
        "weights must be positive and sum to 1",
        rows,
    )
    report.cached("lower", lo[rows], v.values[v.first], rows)
    report.cached("upper", up[rows], v.values[v.last], rows)
    report.flag(
        "cached-field",
        ~_agrees(c.values[c.first], w.values[w.first], _PTOL)
        | ~_agrees(c.values[c.last], np.ones(rows.size), _PTOL)
        | c.any_tail(~_agrees(c.steps(), w.tail(), _PTOL)),
        "_cum disagrees with the value derived from the parameters",
        rows,
    )


#: Exact built-in type -> its column-wise invariant check. Subclasses
#: are deliberately absent: an override can break what the invariants
#: assume, so they take the sampled check.
_INVARIANTS: Dict[type, Callable[[Sequence, _Report], None]] = {
    PointScore: _point_issues,
    UniformScore: _uniform_issues,
    TriangularScore: _triangular_issues,
    TruncatedGaussianScore: _gaussian_issues,
    TruncatedExponentialScore: _exponential_issues,
    HistogramScore: _histogram_issues,
    DiscreteScore: _discrete_issues,
}


def _invariant_check(
    kind: type, members: Sequence[ScoreDistribution]
) -> List[List[ValidationIssue]]:
    """Issue lists for ``members``, all of exact built-in type ``kind``."""
    report = _Report(len(members))
    with np.errstate(all="ignore"):
        _INVARIANTS[kind](members, report)
    return report.issues


# ----------------------------------------------------------------------
# Everything else: the sampled spot-check
# ----------------------------------------------------------------------


def _sampled_check(
    dist: ScoreDistribution,
    grid_points: int = 257,
    samples: int = 2_000,
    tolerance: float = 1e-6,
    rng: np.random.Generator | None = None,
) -> List[ValidationIssue]:
    """Grid-, quantile- and sample-based check of one distribution."""
    issues: List[ValidationIssue] = []
    lo, up = dist.lower, dist.upper
    if not (np.isfinite(lo) and np.isfinite(up)):
        issues.append(
            ValidationIssue("support", "support bounds must be finite")
        )
        return issues
    if lo > up:
        issues.append(
            ValidationIssue("support", f"lower {lo} exceeds upper {up}")
        )
        return issues

    span = max(up - lo, 1.0)
    # Probe just outside the support; nextafter keeps the probe off the
    # support where the relative offset rounds away (scores near 1e15).
    below = float(min(lo - 0.01 * span, np.nextafter(lo, -np.inf)))
    above = float(max(up + 0.01 * span, np.nextafter(up, np.inf)))
    if dist.cdf(below) > tolerance:
        issues.append(
            ValidationIssue(
                "cdf-left", f"cdf({below}) = {dist.cdf(below)} != 0 below support"
            )
        )
    if abs(dist.cdf(above) - 1.0) > tolerance:
        issues.append(
            ValidationIssue(
                "cdf-right",
                f"cdf({above}) = {dist.cdf(above)} != 1 above support",
            )
        )

    if not dist.is_deterministic:
        xs = np.linspace(lo, up, grid_points)
        cdf = np.asarray(dist.cdf(xs), dtype=float)
        if np.any(np.diff(cdf) < -tolerance):
            issues.append(
                ValidationIssue("cdf-monotone", "cdf decreases on its support")
            )
        if np.any(cdf < -tolerance) or np.any(cdf > 1.0 + tolerance):
            issues.append(
                ValidationIssue("cdf-range", "cdf leaves the [0, 1] range")
            )
        pdf = np.asarray(dist.pdf(xs), dtype=float)
        if np.any(pdf < -tolerance):
            issues.append(
                ValidationIssue("pdf-negative", "pdf takes negative values")
            )
        if np.all(np.isfinite(pdf)):
            # Running trapezoid integral of the pdf: its end should be
            # ~1, and along the way it should track the cdf. Comparing
            # integrals, not midpoint densities, tolerates a density
            # that jumps inside a grid cell.
            running = np.concatenate(
                ([0.0], np.cumsum(np.diff(xs) * (pdf[:-1] + pdf[1:]) / 2.0))
            )
            total = float(running[-1])
            if abs(total - 1.0) > 0.05:
                issues.append(
                    ValidationIssue(
                        "pdf-mass",
                        f"pdf integrates to {total:.4f}, expected ~1",
                    )
                )
            if np.any(np.abs(running - (cdf - cdf[0])) > 0.05):
                issues.append(
                    ValidationIssue(
                        "pdf-cdf",
                        "integrated pdf is inconsistent with the cdf",
                    )
                )

        qs = np.linspace(0.01, 0.99, 25)
        ppf = np.asarray(dist.ppf(qs), dtype=float)
        if np.any(ppf < lo - tolerance * span) or np.any(
            ppf > up + tolerance * span
        ):
            issues.append(
                ValidationIssue("ppf-range", "ppf leaves the support")
            )
        # Generalized inverse: x = ppf(q) is the smallest x with
        # cdf(x) >= q, so the cdf reaches q at x but not just before it.
        # Atoms make cdf(x) overshoot q, which this allows.
        before = np.minimum(ppf - tolerance * span, np.nextafter(ppf, -np.inf))
        reached = np.asarray(dist.cdf(ppf), dtype=float)
        short = np.asarray(dist.cdf(before), dtype=float)
        if np.any(reached < qs - 0.02) or np.any(short > qs + 0.02):
            issues.append(
                ValidationIssue(
                    "ppf-inverse", "ppf is not the generalized inverse of cdf"
                )
            )

    generator = rng if rng is not None else np.random.default_rng(0)  # reprolint: disable=DET002 -- fixed probe seed: validation draws a deterministic spot-check sample and never feeds query estimators
    try:
        drawn = np.atleast_1d(dist.sample(generator, samples))
    except Exception as exc:  # pragma: no cover - defensive
        issues.append(
            ValidationIssue("sample-error", f"sampling raised {exc!r}")
        )
        return issues
    if drawn.size != samples:
        issues.append(
            ValidationIssue(
                "sample-shape",
                f"requested {samples} samples, got {drawn.size}",
            )
        )
    if drawn.size and not np.all(np.isfinite(drawn)):
        bad = int(np.count_nonzero(~np.isfinite(np.asarray(drawn, float))))
        issues.append(
            ValidationIssue(
                "sample-finite",
                f"{bad} of {drawn.size} samples are NaN or infinite",
            )
        )
        return issues
    if drawn.size and (
        drawn.min() < lo - tolerance * span
        or drawn.max() > up + tolerance * span
    ):
        issues.append(
            ValidationIssue(
                "sample-support", "samples fall outside the support"
            )
        )
    return issues


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def validate_distribution(
    dist: ScoreDistribution,
    grid_points: int = 257,
    samples: int = 2_000,
    tolerance: float = 1e-6,
    rng: np.random.Generator | None = None,
) -> List[ValidationIssue]:
    """Check one distribution; returns the (possibly empty) issue list.

    A built-in family instance gets the invariant check, which takes no
    parameters; anything else the sampled check, with ``grid_points``
    cdf/pdf grid points, ``samples`` draws from ``rng`` (a fixed seed by
    default) and ``tolerance`` on cdf and support values.
    """
    kind = type(dist)
    if kind in _INVARIANTS:
        return _invariant_check(kind, [dist])[0]
    return _sampled_check(dist, grid_points, samples, tolerance, rng)


def validate_records(
    records: Sequence[UncertainRecord],
    raise_on_issue: bool = False,
    **kwargs: object,
) -> dict[str, List[ValidationIssue]]:
    """Validate a whole database; returns issues keyed by record id.

    Records are grouped by the exact type of their score: each built-in
    family is checked column-wise in one pass, every other score by the
    sampled check (``kwargs`` are passed to it). Database-level problems
    (duplicate ids) are keyed under ``"*"``. With
    ``raise_on_issue=True`` the first problem, in record order, raises
    :class:`~repro.core.errors.ModelError` naming the record.
    """
    report: dict[str, List[ValidationIssue]] = {}
    seen: set[str] = set()
    duplicates: List[str] = []
    groups: Dict[type, List[int]] = {}
    for i, rec in enumerate(records):
        if rec.record_id in seen:
            duplicates.append(rec.record_id)
        seen.add(rec.record_id)
        groups.setdefault(type(rec.score), []).append(i)
    if duplicates:
        report["*"] = [
            ValidationIssue(
                "duplicate-ids", f"duplicate record ids: {sorted(duplicates)}"
            )
        ]
    found: Dict[int, List[ValidationIssue]] = {}
    for kind, rows in groups.items():
        if kind in _INVARIANTS:
            batch = _invariant_check(kind, [records[i].score for i in rows])
        else:
            batch = [_sampled_check(records[i].score, **kwargs) for i in rows]
        found.update((i, issues) for i, issues in zip(rows, batch) if issues)
    for i in sorted(found):
        report[records[i].record_id] = found[i]
    if report and raise_on_issue:
        rid, issues = next(iter(report.items()))
        raise ModelError(f"record {rid!r}: {issues[0]}")
    return report
