"""Score distributions for records with uncertain scores.

The paper (§II-A) models the score of record ``t_i`` as a probability
density ``f_i`` on an interval ``[lo_i, up_i]``; a deterministic score is a
point interval with probability one. This module provides the density
families used throughout the reproduction:

- :class:`PointScore` — deterministic score.
- :class:`UniformScore` — ``f_i = 1 / (up_i - lo_i)``, the paper's default.
- :class:`HistogramScore` — piecewise-constant density (multiple
  imputations, discretized sensor models).
- :class:`TruncatedGaussianScore` and :class:`TruncatedExponentialScore` —
  smooth families used by the Syn-g / Syn-e synthetic workloads.
- :class:`MixtureScore` — finite mixtures of the above.

Every distribution exposes ``pdf``/``cdf``/``ppf``/``sample``/``mean``.
Families whose pdf is exactly a piecewise polynomial additionally expose
``pdf_piecewise``/``cdf_piecewise``, which is what enables the exact
evaluator in :mod:`repro.core.exact`; smooth families provide
``piecewise_approximation`` to opt into exact evaluation at a chosen
resolution.

The uniform, triangular, truncated-Gaussian and truncated-exponential
families write their CDF, quantile and draw once, as functions of a
parameter tuple that broadcasts over arrays (:class:`_ClosedForm`).

For databases of many records, :func:`build_sampling_plan` compiles a
**columnar batch plan**: records are grouped by *exact* type and each
group exposes vectorized ``batch_sample`` / ``batch_cdf`` /
``batch_ppf`` kernels, so a single RNG/NumPy call replaces one
Python-level call per record. The four closed-form families share one
:class:`StackedBatch`, which calls the family's own functions on the
members' parameter tuples stacked column-wise, so a plan column is bit
for bit its member's scalar method. Deterministic scores form a
:class:`PointBatch` (tie-perturbed sample values, true CDF steps);
histograms and multi-atom discrete scores a :class:`ColumnwiseBatch`;
everything else, subclasses of the built-in families included, a
:class:`GenericBatch` that calls each record's own methods. The Monte-
Carlo and MCMC evaluators are built on these plans (see
``docs/DEVELOPMENT.md``, "Performance architecture").
"""

from __future__ import annotations

import hashlib
import math
from abc import ABC, abstractmethod
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import special

from .errors import EvaluationError, ModelError
from .piecewise import PiecewisePolynomial

#: Scalar-or-array input accepted by the vectorized distribution methods.
ArrayLike = Union[float, Sequence[float], np.ndarray]
#: Scalar-in/scalar-out, array-in/array-out result of those methods.
FloatOrArray = Union[float, np.ndarray]
#: numpy-style ``size`` argument for ``sample``.
SizeArg = Optional[Union[int, Tuple[int, ...]]]

__all__ = [
    "ScoreDistribution",
    "ArrayLike",
    "FloatOrArray",
    "PointScore",
    "UniformScore",
    "HistogramScore",
    "DiscreteScore",
    "TriangularScore",
    "TruncatedGaussianScore",
    "TruncatedExponentialScore",
    "MixtureScore",
    "ConvolutionScore",
    "FamilyBatch",
    "SamplingPlan",
    "build_sampling_plan",
]


class ScoreDistribution(ABC):
    """A probability distribution for one record's uncertain score."""

    #: Inclusive lower bound of the support (``lo_i`` in the paper).
    lower: float
    #: Inclusive upper bound of the support (``up_i`` in the paper).
    upper: float

    @property
    def is_deterministic(self) -> bool:
        """Whether the score is certain (a point interval)."""
        return self.lower == self.upper

    @property
    def width(self) -> float:
        """Length of the score interval."""
        return self.upper - self.lower

    @abstractmethod
    def pdf(self, x: ArrayLike) -> FloatOrArray:
        """Probability density at ``x`` (vectorized)."""

    @abstractmethod
    def cdf(self, x: ArrayLike) -> FloatOrArray:
        """Cumulative probability ``Pr(score <= x)`` (vectorized)."""

    @abstractmethod
    def ppf(self, q: ArrayLike) -> FloatOrArray:
        """Quantile function: smallest ``x`` with ``cdf(x) >= q``."""

    @abstractmethod
    def mean(self) -> float:
        """Expected score."""

    def sample(
        self, rng: np.random.Generator, size: SizeArg = None
    ) -> FloatOrArray:
        """Draw samples via inverse-transform sampling."""
        return self.ppf(rng.random(size))

    @property
    def supports_exact(self) -> bool:
        """Whether the pdf is exactly piecewise polynomial."""
        return False

    def pdf_piecewise(self) -> PiecewisePolynomial:
        """Exact piecewise-polynomial pdf, if the family supports one."""
        raise EvaluationError(
            f"{type(self).__name__} has no exact piecewise-polynomial pdf; "
            "use piecewise_approximation() first"
        )

    def cdf_piecewise(self) -> PiecewisePolynomial:
        """Exact piecewise-polynomial CDF, if the family supports one."""
        return self.pdf_piecewise().antiderivative()

    def piecewise_approximation(self, segments: int = 32) -> "HistogramScore":
        """Histogram approximation with equal-width bins over the support.

        Bin masses are exact CDF increments, so the approximation preserves
        total mass and the support; it converges as ``segments`` grows.
        """
        if self.is_deterministic:
            raise ModelError("a deterministic score needs no approximation")
        edges = np.linspace(self.lower, self.upper, segments + 1)
        masses = np.diff(self.cdf(edges))
        return HistogramScore(edges, masses)

    def fingerprint(self) -> str:
        """Stable content token used in computation-cache keys.

        Families with canonical parameters override this so that two
        parameter-identical instances produce the same token (letting
        the :mod:`repro.core.cache` layer share compiled artifacts
        across separately constructed databases). The fallback is
        identity-based: conservative — it never aliases two different
        models — but unique per instance, so unknown families (custom
        subclasses, fault-injection wrappers) simply never share cache
        entries.
        """
        return f"{type(self).__name__}@{id(self):x}"

    def _check_interval(self) -> None:
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ModelError("score interval bounds must be finite")
        if self.lower > self.upper:
            raise ModelError(
                f"invalid score interval [{self.lower}, {self.upper}]"
            )


def _digest_arrays(label: str, *arrays: np.ndarray) -> str:
    """Blake2b token over raw float buffers (histogram/discrete params)."""
    h = hashlib.blake2b(digest_size=12)
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return f"{label}:{h.hexdigest()}"


def _scalar_or_array(out: ArrayLike) -> FloatOrArray:
    """A float for 0-d results, the array otherwise."""
    return float(out) if np.ndim(out) == 0 else out


class _ClosedForm(ScoreDistribution):
    """A family whose CDF, quantile and draw are closed-form functions.

    ``_cdf``, ``_ppf`` and ``_draw`` take the family's parameter tuple,
    whose entries broadcast against the input. The scalar methods pass
    the instance's own :meth:`_params`; :class:`StackedBatch` passes the
    same tuples of many records stacked column-wise, so a plan column is
    bit for bit its member's ``cdf``/``ppf``/``sample``.
    """

    def _params(self) -> Tuple[float, ...]:
        """The parameter tuple, derived from validated fields only."""
        raise NotImplementedError

    @staticmethod
    def _cdf(p: Tuple, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def _ppf(p: Tuple, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @classmethod
    def _draw(
        cls, p: Tuple, rng: np.random.Generator, size: SizeArg
    ) -> FloatOrArray:
        """Inverse-transform draw: the quantiles of one uniform block."""
        return cls._ppf(p, rng.random(size))

    def cdf(self, x: ArrayLike) -> FloatOrArray:
        x = np.asarray(x, dtype=float)
        return _scalar_or_array(self._cdf(self._params(), x))

    def ppf(self, q: ArrayLike) -> FloatOrArray:
        q = np.asarray(q, dtype=float)
        return _scalar_or_array(self._ppf(self._params(), q))


class PointScore(ScoreDistribution):
    """A deterministic (certain) score: all mass at a single value."""

    def __init__(self, value: float) -> None:
        self.lower = self.upper = float(value)
        self._check_interval()

    @property
    def value(self) -> float:
        """The deterministic score."""
        return self.lower

    def pdf(self, x: ArrayLike) -> FloatOrArray:
        # The density is a Dirac impulse; by convention we report +inf at
        # the point and 0 elsewhere. Exact algorithms special-case points.
        x = np.asarray(x, dtype=float)
        out = np.where(x == self.value, np.inf, 0.0)
        return float(out) if out.ndim == 0 else out

    def cdf(self, x: ArrayLike) -> FloatOrArray:
        x = np.asarray(x, dtype=float)
        out = np.where(x >= self.value, 1.0, 0.0)
        return float(out) if out.ndim == 0 else out

    def ppf(self, q: ArrayLike) -> FloatOrArray:
        q = np.asarray(q, dtype=float)
        out = np.full_like(q, self.value)
        return float(out) if out.ndim == 0 else out

    def mean(self) -> float:
        return self.value

    @property
    def supports_exact(self) -> bool:
        return True

    def pdf_piecewise(self) -> PiecewisePolynomial:
        raise EvaluationError(
            "a point mass has no density function; exact algorithms must "
            "special-case deterministic scores"
        )

    def cdf_piecewise(self) -> PiecewisePolynomial:
        return PiecewisePolynomial.step(self.value, 1.0)

    def fingerprint(self) -> str:
        return f"point:{self.value!r}"

    def __repr__(self) -> str:
        return f"PointScore({self.value})"


class UniformScore(_ClosedForm):
    """Uniform density on ``[lo, up]`` — the paper's default model."""

    def __init__(self, lower: float, upper: float) -> None:
        self.lower = float(lower)
        self.upper = float(upper)
        self._check_interval()
        if self.lower == self.upper:
            raise ModelError(
                "degenerate uniform interval; use PointScore instead"
            )
        self._density = 1.0 / (self.upper - self.lower)

    def _params(self) -> Tuple[float, ...]:
        return (self.lower, self.upper - self.lower, self._density)

    @staticmethod
    def _cdf(p: Tuple, x: np.ndarray) -> np.ndarray:
        lower, _span, density = p
        return np.clip((x - lower) * density, 0.0, 1.0)

    @staticmethod
    def _ppf(p: Tuple, u: np.ndarray) -> np.ndarray:
        lower, span, _density = p
        return lower + u * span

    @staticmethod
    def _draw(
        p: Tuple, rng: np.random.Generator, size: SizeArg
    ) -> FloatOrArray:
        # The same variates as ``rng.uniform(lower, upper, size)``, but
        # the in-place affine allocates no temporaries and runs ~2.5x
        # faster with array bounds.
        lower, span, _density = p
        out = rng.random(size)
        out *= span
        out += lower
        return out

    def pdf(self, x: ArrayLike) -> FloatOrArray:
        x = np.asarray(x, dtype=float)
        out = np.where((x >= self.lower) & (x <= self.upper), self._density, 0.0)
        return float(out) if out.ndim == 0 else out

    def sample(
        self, rng: np.random.Generator, size: SizeArg = None
    ) -> FloatOrArray:
        return _scalar_or_array(self._draw(self._params(), rng, size))

    def mean(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def supports_exact(self) -> bool:
        return True

    def pdf_piecewise(self) -> PiecewisePolynomial:
        return PiecewisePolynomial.box(self.lower, self.upper, self._density)

    def cdf_piecewise(self) -> PiecewisePolynomial:
        return PiecewisePolynomial.ramp(self.lower, self.upper)

    def fingerprint(self) -> str:
        return f"uniform:{self.lower!r}:{self.upper!r}"

    def __repr__(self) -> str:
        return f"UniformScore({self.lower}, {self.upper})"


class HistogramScore(ScoreDistribution):
    """Piecewise-constant density defined by bin edges and bin masses."""

    def __init__(self, edges: Sequence[float], masses: Sequence[float]) -> None:
        edges_arr = np.asarray(edges, dtype=float)
        masses_arr = np.asarray(masses, dtype=float)
        if edges_arr.ndim != 1 or edges_arr.size < 2:
            raise ModelError("histogram needs at least two bin edges")
        if np.any(np.diff(edges_arr) <= 0):
            raise ModelError("histogram edges must be strictly increasing")
        if masses_arr.size != edges_arr.size - 1:
            raise ModelError("need one mass per bin")
        if np.any(masses_arr < 0):
            raise ModelError("bin masses must be non-negative")
        total = masses_arr.sum()
        if total <= 0:
            raise ModelError("histogram must carry positive mass")
        self.edges = edges_arr
        self.masses = masses_arr / total
        self.lower = float(edges_arr[0])
        self.upper = float(edges_arr[-1])
        self._check_interval()
        widths = np.diff(edges_arr)
        self._densities = self.masses / widths
        self._cum = np.concatenate(([0.0], np.cumsum(self.masses)))
        # Guard against floating drift in the final cumulative value.
        self._cum[-1] = 1.0

    def pdf(self, x: ArrayLike) -> FloatOrArray:
        x = np.asarray(x, dtype=float)
        idx = np.clip(
            np.searchsorted(self.edges, x, side="right") - 1,
            0,
            self.masses.size - 1,
        )
        out = np.where(
            (x >= self.lower) & (x <= self.upper), self._densities[idx], 0.0
        )
        return float(out) if out.ndim == 0 else out

    def cdf(self, x: ArrayLike) -> FloatOrArray:
        x = np.asarray(x, dtype=float)
        idx = np.clip(
            np.searchsorted(self.edges, x, side="right") - 1,
            0,
            self.masses.size - 1,
        )
        within = (x - self.edges[idx]) * self._densities[idx]
        out = np.clip(self._cum[idx] + within, 0.0, 1.0)
        out = np.where(x < self.lower, 0.0, np.where(x > self.upper, 1.0, out))
        return float(out) if out.ndim == 0 else out

    def ppf(self, q: ArrayLike) -> FloatOrArray:
        q = np.asarray(q, dtype=float)
        idx = np.clip(
            np.searchsorted(self._cum, q, side="right") - 1,
            0,
            self.masses.size - 1,
        )
        remaining = q - self._cum[idx]
        dens = self._densities[idx]
        offset = np.where(dens > 0, remaining / np.where(dens > 0, dens, 1.0), 0.0)
        out = np.clip(self.edges[idx] + offset, self.lower, self.upper)
        return float(out) if out.ndim == 0 else out

    def mean(self) -> float:
        mids = 0.5 * (self.edges[:-1] + self.edges[1:])
        return float(np.dot(mids, self.masses))

    @property
    def supports_exact(self) -> bool:
        return True

    def pdf_piecewise(self) -> PiecewisePolynomial:
        return PiecewisePolynomial(
            self.edges, [[d] for d in self._densities], left=0.0, right=0.0
        )

    def fingerprint(self) -> str:
        return _digest_arrays("hist", self.edges, self.masses)

    def __repr__(self) -> str:
        return f"HistogramScore({self.masses.size} bins on [{self.lower}, {self.upper}])"


def _norm_cdf(z: ArrayLike) -> np.ndarray:
    return 0.5 * (1.0 + special.erf(np.asarray(z, dtype=float) / math.sqrt(2.0)))


def _norm_ppf(q: ArrayLike) -> np.ndarray:
    return math.sqrt(2.0) * special.erfinv(2.0 * np.asarray(q, dtype=float) - 1.0)


class TruncatedGaussianScore(_ClosedForm):
    """Gaussian density truncated (and renormalized) to ``[lo, up]``."""

    def __init__(self, mu: float, sigma: float, lower: float, upper: float) -> None:
        if sigma <= 0:
            raise ModelError("sigma must be positive")
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.lower = float(lower)
        self.upper = float(upper)
        self._check_interval()
        if self.lower == self.upper:
            raise ModelError(
                "degenerate truncation interval; use PointScore instead"
            )
        self._alpha = (self.lower - self.mu) / self.sigma
        self._beta = (self.upper - self.mu) / self.sigma
        self._z = float(_norm_cdf(self._beta) - _norm_cdf(self._alpha))
        if self._z <= 0:
            raise ModelError("truncation interval carries no Gaussian mass")

    def pdf(self, x: ArrayLike) -> FloatOrArray:
        x = np.asarray(x, dtype=float)
        z = (x - self.mu) / self.sigma
        phi = np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))
        out = np.where((x >= self.lower) & (x <= self.upper), phi / self._z, 0.0)
        return float(out) if out.ndim == 0 else out

    def _params(self) -> Tuple[float, ...]:
        return (
            self.mu, self.sigma, self.lower, self.upper, self._alpha, self._z
        )

    @staticmethod
    def _cdf(p: Tuple, x: np.ndarray) -> np.ndarray:
        mu, sigma, lower, upper, alpha, z = p
        raw = (_norm_cdf((x - mu) / sigma) - _norm_cdf(alpha)) / z
        out = np.clip(raw, 0.0, 1.0)
        return np.where(x < lower, 0.0, np.where(x > upper, 1.0, out))

    @staticmethod
    def _ppf(p: Tuple, u: np.ndarray) -> np.ndarray:
        mu, sigma, lower, upper, alpha, z = p
        out = mu + sigma * _norm_ppf(_norm_cdf(alpha) + u * z)
        return np.clip(out, lower, upper)

    def mean(self) -> float:
        phi_a = math.exp(-0.5 * self._alpha**2) / math.sqrt(2.0 * math.pi)
        phi_b = math.exp(-0.5 * self._beta**2) / math.sqrt(2.0 * math.pi)
        return self.mu + self.sigma * (phi_a - phi_b) / self._z

    def fingerprint(self) -> str:
        return (
            f"gauss:{self.mu!r}:{self.sigma!r}:{self.lower!r}:{self.upper!r}"
        )

    def __repr__(self) -> str:
        return (
            f"TruncatedGaussianScore(mu={self.mu}, sigma={self.sigma}, "
            f"[{self.lower}, {self.upper}])"
        )


class TruncatedExponentialScore(_ClosedForm):
    """Exponential density (rate ``lam``, origin ``lo``) truncated to ``[lo, up]``."""

    def __init__(self, rate: float, lower: float, upper: float) -> None:
        if rate <= 0:
            raise ModelError("rate must be positive")
        self.rate = float(rate)
        self.lower = float(lower)
        self.upper = float(upper)
        self._check_interval()
        if self.lower == self.upper:
            raise ModelError(
                "degenerate truncation interval; use PointScore instead"
            )
        self._z = 1.0 - math.exp(-self.rate * (self.upper - self.lower))

    def pdf(self, x: ArrayLike) -> FloatOrArray:
        x = np.asarray(x, dtype=float)
        raw = self.rate * np.exp(-self.rate * (x - self.lower)) / self._z
        out = np.where((x >= self.lower) & (x <= self.upper), raw, 0.0)
        return float(out) if out.ndim == 0 else out

    def _params(self) -> Tuple[float, ...]:
        return (self.rate, self.lower, self.upper, self._z)

    @staticmethod
    def _cdf(p: Tuple, x: np.ndarray) -> np.ndarray:
        rate, lower, upper, z = p
        out = np.clip((1.0 - np.exp(-rate * (x - lower))) / z, 0.0, 1.0)
        return np.where(x < lower, 0.0, np.where(x > upper, 1.0, out))

    @staticmethod
    def _ppf(p: Tuple, u: np.ndarray) -> np.ndarray:
        rate, lower, upper, z = p
        return np.clip(lower - np.log1p(-u * z) / rate, lower, upper)

    def mean(self) -> float:
        width = self.upper - self.lower
        expw = math.exp(-self.rate * width)
        return self.lower + (1.0 / self.rate) - width * expw / self._z

    def fingerprint(self) -> str:
        return f"exp:{self.rate!r}:{self.lower!r}:{self.upper!r}"

    def __repr__(self) -> str:
        return (
            f"TruncatedExponentialScore(rate={self.rate}, "
            f"[{self.lower}, {self.upper}])"
        )


class TriangularScore(_ClosedForm):
    """Triangular density on ``[lo, up]`` with mode ``mode``.

    The standard elicitation model for "most likely value plus a range"
    (e.g. an expert's rent estimate). Piecewise linear, so it is fully
    supported by the exact evaluator.
    """

    def __init__(self, lower: float, mode: float, upper: float) -> None:
        self.lower = float(lower)
        self.upper = float(upper)
        self.mode = float(mode)
        self._check_interval()
        if self.lower == self.upper:
            raise ModelError(
                "degenerate triangular interval; use PointScore instead"
            )
        if not self.lower <= self.mode <= self.upper:
            raise ModelError(
                f"mode {self.mode} outside [{self.lower}, {self.upper}]"
            )
        self._peak = 2.0 / (self.upper - self.lower)

    def pdf(self, x: ArrayLike) -> FloatOrArray:
        x = np.asarray(x, dtype=float)
        lo, mo, up = self.lower, self.mode, self.upper
        left = np.zeros_like(x)
        if mo > lo:
            left = self._peak * (x - lo) / (mo - lo)
        right = np.zeros_like(x)
        if up > mo:
            right = self._peak * (up - x) / (up - mo)
        out = np.where(
            (x >= lo) & (x <= mo) & (mo > lo),
            left,
            np.where((x > mo) & (x <= up), right, 0.0),
        )
        if mo == lo:
            out = np.where((x >= lo) & (x <= up), right, 0.0)
        return float(out) if out.ndim == 0 else out

    def _params(self) -> Tuple[float, ...]:
        # The areas under the rising and falling ramps (1 for an empty
        # ramp, so its unused branch divides safely).
        lo, mo, up = self.lower, self.mode, self.upper
        rise_area = (up - lo) * (mo - lo) if mo > lo else 1.0
        fall_area = (up - lo) * (up - mo) if up > mo else 1.0
        return (lo, mo, up, rise_area, fall_area)

    @staticmethod
    def _cdf(p: Tuple, x: np.ndarray) -> np.ndarray:
        lo, mo, up, rise_area, fall_area = p
        rising = (x - lo) ** 2 / rise_area
        falling = 1.0 - (up - x) ** 2 / fall_area
        mid = np.where((x <= mo) & (mo > lo), rising, falling)
        return np.where(x < lo, 0.0, np.where(x > up, 1.0, mid))

    @staticmethod
    def _ppf(p: Tuple, u: np.ndarray) -> np.ndarray:
        lo, mo, up, rise_area, fall_area = p
        rising = lo + np.sqrt(np.maximum(u, 0.0) * rise_area)
        falling = up - np.sqrt(np.maximum(1.0 - u, 0.0) * fall_area)
        out = np.where(u <= (mo - lo) / (up - lo), rising, falling)
        return np.clip(out, lo, up)

    def mean(self) -> float:
        return (self.lower + self.mode + self.upper) / 3.0

    @property
    def supports_exact(self) -> bool:
        return True

    def pdf_piecewise(self) -> PiecewisePolynomial:
        lo, mo, up = self.lower, self.mode, self.upper
        if mo == lo:
            # Pure descending ramp: p(x) = peak * (up - x) / (up - lo).
            slope = -self._peak / (up - lo)
            return PiecewisePolynomial(
                [lo, up], [[self._peak, slope]], left=0.0, right=0.0
            )
        if mo == up:
            slope = self._peak / (up - lo)
            return PiecewisePolynomial(
                [lo, up], [[0.0, slope]], left=0.0, right=0.0
            )
        rise = self._peak / (mo - lo)
        fall = -self._peak / (up - mo)
        return PiecewisePolynomial(
            [lo, mo, up],
            [[0.0, rise], [self._peak, fall]],
            left=0.0,
            right=0.0,
        )

    def fingerprint(self) -> str:
        return f"tri:{self.lower!r}:{self.mode!r}:{self.upper!r}"

    def __repr__(self) -> str:
        return (
            f"TriangularScore({self.lower}, mode={self.mode}, {self.upper})"
        )


class DiscreteScore(ScoreDistribution):
    """Finitely many candidate scores with weights (multiple imputations).

    Models the machine-learning imputation scenario the paper cites
    (§II-A): a missing attribute filled in with a weighted set of
    candidate values. With a single atom this degenerates to a
    deterministic score.
    """

    def __init__(self, values: Sequence[float], weights: Sequence[float]) -> None:
        vals = np.asarray(values, dtype=float)
        w = np.asarray(weights, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ModelError("discrete score needs at least one value")
        if w.size != vals.size:
            raise ModelError("need one weight per value")
        if np.any(w <= 0):
            raise ModelError("weights must be positive")
        order = np.argsort(vals)
        vals = vals[order]
        w = w[order]
        if np.any(np.diff(vals) == 0):
            raise ModelError("discrete score values must be distinct")
        self.values = vals
        self.weights = w / w.sum()
        self.lower = float(vals[0])
        self.upper = float(vals[-1])
        self._check_interval()
        self._cum = np.cumsum(self.weights)
        self._cum[-1] = 1.0

    @property
    def is_deterministic(self) -> bool:
        return self.values.size == 1

    def pdf(self, x: ArrayLike) -> FloatOrArray:
        x = np.asarray(x, dtype=float)
        out = np.where(np.isin(x, self.values), np.inf, 0.0)
        return float(out) if out.ndim == 0 else out

    def cdf(self, x: ArrayLike) -> FloatOrArray:
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.values, x, side="right")
        cum = np.concatenate(([0.0], self._cum))
        out = cum[idx]
        return float(out) if out.ndim == 0 else out

    def ppf(self, q: ArrayLike) -> FloatOrArray:
        q = np.asarray(q, dtype=float)
        idx = np.clip(
            np.searchsorted(self._cum, q, side="left"), 0, self.values.size - 1
        )
        out = self.values[idx]
        return float(out) if out.ndim == 0 else out

    def sample(
        self, rng: np.random.Generator, size: SizeArg = None
    ) -> FloatOrArray:
        return rng.choice(self.values, size=size, p=self.weights)

    def mean(self) -> float:
        return float(np.dot(self.values, self.weights))

    @property
    def supports_exact(self) -> bool:
        # Multi-atom densities are sums of Dirac impulses; only the
        # single-atom (deterministic) case is handled exactly.
        return self.is_deterministic

    def cdf_piecewise(self) -> PiecewisePolynomial:
        out = PiecewisePolynomial.zero()
        for value, weight in zip(self.values, self.weights):
            out = out + PiecewisePolynomial.step(float(value), float(weight))
        return out

    def fingerprint(self) -> str:
        return _digest_arrays("disc", self.values, self.weights)

    def __repr__(self) -> str:
        return f"DiscreteScore({self.values.size} atoms on [{self.lower}, {self.upper}])"


class ConvolutionScore(ScoreDistribution):
    """The distribution of a weighted sum of independent scores.

    The paper defines scoring functions "on one or more scoring
    predicates"; when several predicates are uncertain, the record's
    total score is a sum of independent uncertain terms, whose
    distribution is the convolution of the components.

    Sampling is exact (sum of component samples). ``pdf``/``cdf``/``ppf``
    are computed once on a fine FFT grid and interpolated; accuracy is
    controlled by ``grid_points``. The family is not exactly piecewise
    polynomial (``supports_exact`` is ``False``), but
    ``piecewise_approximation`` bridges to the exact engine.
    """

    def __init__(
        self,
        components: Sequence[ScoreDistribution],
        weights: Optional[Sequence[float]] = None,
        grid_points: int = 4096,
    ) -> None:
        if not components:
            raise ModelError("convolution needs at least one component")
        if weights is None:
            weights = [1.0] * len(components)
        if len(weights) != len(components):
            raise ModelError("need one weight per component")
        w = np.asarray(weights, dtype=float)
        if np.any(w == 0.0):  # reprolint: disable=NUM001 -- exact zero-weight sentinel
            raise ModelError("convolution weights must be non-zero")
        if grid_points < 16:
            raise ModelError("grid_points must be at least 16")
        self.components = list(components)
        self.weights = w
        lows = []
        highs = []
        for comp, weight in zip(self.components, w):
            a, b = weight * comp.lower, weight * comp.upper
            lows.append(min(a, b))
            highs.append(max(a, b))
        self.lower = float(sum(lows))
        self.upper = float(sum(highs))
        self._check_interval()
        if self.lower == self.upper:
            raise ModelError(
                "degenerate convolution; use PointScore instead"
            )
        self._build_grid(grid_points)

    def _build_grid(self, grid_points: int) -> None:
        """Tabulate the sum's CDF by FFT convolution of component PMFs."""
        span = self.upper - self.lower
        # Padded grid to avoid circular-convolution wrap-around.
        step = span / (grid_points - 1)
        pmf = None
        size = 2 * grid_points
        for comp, weight in zip(self.components, self.weights):
            if comp.is_deterministic:
                # A certain term is a pure shift, already folded into
                # ``self.lower`` — no discretization needed.
                continue
            # Component contribution on its own axis, discretized by
            # exact CDF increments so no mass is lost.
            edges = np.arange(size + 1) * step
            if weight >= 0:
                values = np.asarray(comp.cdf(comp.lower + edges / weight))
            else:
                values = 1.0 - np.asarray(
                    comp.cdf(comp.upper + edges / weight)
                )
            values = np.clip(values, 0.0, 1.0)
            # The leftmost edge is the support's start: no mass below it.
            values[0] = 0.0
            masses = np.maximum(np.diff(values), 0.0)
            if masses.sum() > 0:
                masses = masses / masses.sum()
            pmf = masses if pmf is None else np.convolve(pmf, masses)[:size]
        if pmf is None:
            # All components deterministic: excluded by the degenerate
            # check in __init__, but keep a defensive uniform spike.
            pmf = np.zeros(size)
            pmf[0] = 1.0
        cum = np.cumsum(pmf)
        cum = np.clip(cum / cum[-1], 0.0, 1.0)
        self._grid_x = self.lower + np.arange(cum.size) * step
        self._grid_cdf = cum
        self._step = step

    def pdf(self, x: ArrayLike) -> FloatOrArray:
        x = np.asarray(x, dtype=float)
        eps = self._step
        out = (self.cdf(x + eps / 2) - self.cdf(x - eps / 2)) / eps
        out = np.where((x >= self.lower) & (x <= self.upper), out, 0.0)
        return float(out) if out.ndim == 0 else out

    def cdf(self, x: ArrayLike) -> FloatOrArray:
        x = np.asarray(x, dtype=float)
        out = np.interp(
            x, self._grid_x, self._grid_cdf, left=0.0, right=1.0
        )
        return float(out) if out.ndim == 0 else out

    def ppf(self, q: ArrayLike) -> FloatOrArray:
        q = np.asarray(q, dtype=float)
        out = np.interp(q, self._grid_cdf, self._grid_x)
        out = np.clip(out, self.lower, self.upper)
        return float(out) if out.ndim == 0 else out

    def sample(
        self, rng: np.random.Generator, size: SizeArg = None
    ) -> FloatOrArray:
        total = None
        for comp, weight in zip(self.components, self.weights):
            draw = np.asarray(comp.sample(rng, size), dtype=float) * weight
            total = draw if total is None else total + draw
        return total if size is not None else float(total)

    def mean(self) -> float:
        return float(
            sum(w * c.mean() for w, c in zip(self.weights, self.components))
        )

    def fingerprint(self) -> str:
        inner = ",".join(c.fingerprint() for c in self.components)
        weights = _digest_arrays("w", self.weights)
        return f"conv:[{inner}]:{weights}:g{self._grid_x.size}"

    def __repr__(self) -> str:
        return (
            f"ConvolutionScore({len(self.components)} components on "
            f"[{self.lower:.4g}, {self.upper:.4g}])"
        )


class MixtureScore(ScoreDistribution):
    """Finite mixture of score distributions with positive weights."""

    def __init__(
        self,
        components: Sequence[ScoreDistribution],
        weights: Sequence[float],
    ) -> None:
        if not components:
            raise ModelError("mixture needs at least one component")
        if len(components) != len(weights):
            raise ModelError("need one weight per component")
        w = np.asarray(weights, dtype=float)
        if np.any(w <= 0):
            raise ModelError("mixture weights must be positive")
        self.components = list(components)
        self.weights = w / w.sum()
        self.lower = min(c.lower for c in components)
        self.upper = max(c.upper for c in components)
        self._check_interval()

    def pdf(self, x: ArrayLike) -> FloatOrArray:
        x = np.asarray(x, dtype=float)
        out = sum(
            w * c.pdf(x) for w, c in zip(self.weights, self.components)
        )
        return float(out) if np.ndim(out) == 0 else np.asarray(out)

    def cdf(self, x: ArrayLike) -> FloatOrArray:
        x = np.asarray(x, dtype=float)
        out = sum(
            w * c.cdf(x) for w, c in zip(self.weights, self.components)
        )
        return float(out) if np.ndim(out) == 0 else np.asarray(out)

    def ppf(self, q: ArrayLike) -> FloatOrArray:
        q_arr = np.asarray(q, dtype=float)
        lo = np.full(q_arr.shape, float(self.lower))
        hi = np.full(q_arr.shape, float(self.upper))
        # Bisection against the mixture CDF, every quantile at once: 60
        # halvings give ~1e-18 relative bracketing, far below any
        # downstream tolerance.
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            below = self.cdf(mid) < q_arr
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        out = 0.5 * (lo + hi)
        return float(out) if np.ndim(q) == 0 else out

    def sample(
        self, rng: np.random.Generator, size: SizeArg = None
    ) -> FloatOrArray:
        if size is None:
            idx = rng.choice(len(self.components), p=self.weights)
            return self.components[idx].sample(rng)
        n = int(np.prod(size))
        idx = rng.choice(len(self.components), size=n, p=self.weights)
        out = np.empty(n)
        for j, comp in enumerate(self.components):
            mask = idx == j
            count = int(mask.sum())
            if count:
                out[mask] = np.atleast_1d(comp.sample(rng, count))
        return out.reshape(size)

    def mean(self) -> float:
        return float(
            sum(w * c.mean() for w, c in zip(self.weights, self.components))
        )

    @property
    def supports_exact(self) -> bool:
        return all(
            c.supports_exact and not c.is_deterministic for c in self.components
        )

    def pdf_piecewise(self) -> PiecewisePolynomial:
        if not self.supports_exact:
            return super().pdf_piecewise()
        out = PiecewisePolynomial.zero()
        for w, comp in zip(self.weights, self.components):
            out = out + comp.pdf_piecewise() * float(w)
        return out

    def fingerprint(self) -> str:
        inner = ",".join(c.fingerprint() for c in self.components)
        return f"mix:[{inner}]:{_digest_arrays('w', self.weights)}"

    def __repr__(self) -> str:
        return f"MixtureScore({len(self.components)} components)"


# ----------------------------------------------------------------------
# Columnar batch plans
# ----------------------------------------------------------------------


class FamilyBatch(ABC):
    """Vectorized kernels for one group of same-family score densities.

    A batch owns the stacked parameters of ``m`` distributions plus the
    database columns they occupy, and evaluates all of them with a
    constant number of NumPy calls. ``x`` inputs to :meth:`batch_cdf`
    are one threshold per sample row (shape ``(s,)``); uniform draws to
    :meth:`batch_ppf` are per sample *and* record (shape ``(s, m)``).
    """

    #: Family key used for grouping and introspection.
    family: str = ""

    def __init__(self, indices: Sequence[int]) -> None:
        self.indices = np.asarray(indices, dtype=np.intp)

    def __len__(self) -> int:
        return int(self.indices.size)

    @abstractmethod
    def batch_sample(self, rng: np.random.Generator, s: int) -> np.ndarray:
        """Draw an ``(s, m)`` matrix of scores, one column per member."""

    @abstractmethod
    def batch_cdf(self, x: np.ndarray) -> np.ndarray:
        """``(s, m)`` matrix ``F_j(x_i)`` for thresholds ``x`` of shape ``(s,)``."""

    @abstractmethod
    def batch_ppf(self, u: np.ndarray) -> np.ndarray:
        """Map ``(s, m)`` uniforms through each member's quantile function."""


class PointBatch(FamilyBatch):
    """Deterministic scores: samples are constants, CDFs are steps.

    ``sample_values`` may differ from ``cdf_values`` — the Monte-Carlo
    evaluator substitutes tie-perturbed values on the sampling side while
    the CDF side keeps the true step location (matching the per-record
    reference semantics).
    """

    family = "point"

    def __init__(
        self,
        indices: Sequence[int],
        sample_values: Sequence[float],
        cdf_values: Sequence[float],
    ) -> None:
        super().__init__(indices)
        self.sample_values = np.asarray(sample_values, dtype=float)
        self.cdf_values = np.asarray(cdf_values, dtype=float)

    def batch_sample(self, rng: np.random.Generator, s: int) -> np.ndarray:
        return np.broadcast_to(self.sample_values, (s, len(self))).copy()

    def batch_cdf(self, x: np.ndarray) -> np.ndarray:
        return (x[:, None] >= self.cdf_values[None, :]).astype(float)

    def batch_ppf(self, u: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.sample_values, u.shape).copy()


class StackedBatch(FamilyBatch):
    """Stacked records of one closed-form family (:class:`_ClosedForm`).

    Holds the members' :meth:`~_ClosedForm._params` tuples stacked
    column-wise and calls the family's own ``_cdf``/``_ppf``/``_draw``
    on them, so each column is bit for bit its member's scalar method.
    """

    def __init__(
        self,
        family: str,
        indices: Sequence[int],
        members: Sequence[_ClosedForm],
    ) -> None:
        super().__init__(indices)
        self.family = family
        self.kind = type(members[0])
        self.params = tuple(
            np.array(column) for column in zip(*(m._params() for m in members))
        )

    def batch_sample(self, rng: np.random.Generator, s: int) -> np.ndarray:
        return self.kind._draw(self.params, rng, (s, len(self)))

    def batch_cdf(self, x: np.ndarray) -> np.ndarray:
        return self.kind._cdf(self.params, x[:, None])

    def batch_ppf(self, u: np.ndarray) -> np.ndarray:
        return self.kind._ppf(self.params, u)


class ColumnwiseBatch(FamilyBatch):
    """Families evaluated column by column (histograms, discrete scores).

    One uniform block is drawn with a single RNG call and pushed through
    each member's (internally vectorized) quantile function; the Python
    loop is over group members only, never over samples.
    """

    def __init__(
        self,
        family: str,
        indices: Sequence[int],
        members: Sequence[ScoreDistribution],
    ) -> None:
        super().__init__(indices)
        self.family = family
        self.members = list(members)

    def batch_sample(self, rng: np.random.Generator, s: int) -> np.ndarray:
        return self.batch_ppf(rng.random((s, len(self))))

    def batch_cdf(self, x: np.ndarray) -> np.ndarray:
        out = np.empty((x.size, len(self)))
        for j, member in enumerate(self.members):
            out[:, j] = np.asarray(member.cdf(x))
        return out

    def batch_ppf(self, u: np.ndarray) -> np.ndarray:
        out = np.empty_like(u)
        for j, member in enumerate(self.members):
            out[:, j] = np.asarray(member.ppf(u[:, j]))
        return out


class GenericBatch(ColumnwiseBatch):
    """Fallback for every other type, each record through its own methods.

    Mixtures, convolutions and subclasses of the built-in families land
    here. Mixtures and convolutions sample far faster through their
    native ``sample`` (component selection / sum of draws) than through
    their numeric quantile functions, and a subclass's overrides must be
    the ones that run, so ``batch_sample`` delegates per record.
    """

    def __init__(
        self, indices: Sequence[int], members: Sequence[ScoreDistribution]
    ) -> None:
        super().__init__("generic", indices, members)

    def batch_sample(self, rng: np.random.Generator, s: int) -> np.ndarray:
        out = np.empty((s, len(self)))
        for j, member in enumerate(self.members):
            out[:, j] = np.asarray(member.sample(rng, s))
        return out


class SamplingPlan:
    """A compiled columnar view of a database's score distributions.

    Groups the ``n`` distributions by family (see
    :func:`build_sampling_plan`) and evaluates each group with one
    vectorized kernel call. For a fixed database order the grouping —
    and therefore the RNG consumption pattern of :meth:`sample` — is
    deterministic, so a seeded generator reproduces draws exactly.
    """

    def __init__(self, groups: Sequence[FamilyBatch], n: int) -> None:
        self.groups = list(groups)
        self.n = int(n)
        # Single-family databases (the common benchmark/oracle case)
        # need no scatter: the lone group already covers every column
        # in database order, so kernels can write straight through.
        self._identity = (
            len(self.groups) == 1
            and np.array_equal(
                self.groups[0].indices, np.arange(self.n, dtype=np.intp)
            )
        )

    @property
    def family_counts(self) -> Dict[str, int]:
        """Number of records per family group (introspection/tests)."""
        counts: Dict[str, int] = {}
        for group in self.groups:
            counts[group.family] = counts.get(group.family, 0) + len(group)
        return counts

    def sample(self, rng: np.random.Generator, samples: int) -> np.ndarray:
        """Draw an ``(samples, n)`` score matrix in database column order."""
        if self._identity:
            return self.groups[0].batch_sample(rng, samples)
        out = np.empty((samples, self.n))
        for group in self.groups:
            out[:, group.indices] = group.batch_sample(rng, samples)
        return out

    def ppf(self, uniforms: np.ndarray) -> np.ndarray:
        """Push an ``(s, n)`` uniform matrix through all quantile kernels."""
        if self._identity:
            return self.groups[0].batch_ppf(uniforms)
        out = np.empty_like(uniforms)
        for group in self.groups:
            out[:, group.indices] = group.batch_ppf(
                uniforms[:, group.indices]
            )
        return out

    def cdf(self, x: ArrayLike) -> np.ndarray:
        """``(s, n)`` matrix ``F_j(x_i)`` for thresholds ``x`` of shape ``(s,)``."""
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        if self._identity:
            return self.groups[0].batch_cdf(x_arr)
        out = np.empty((x_arr.size, self.n))
        for group in self.groups:
            out[:, group.indices] = group.batch_cdf(x_arr)
        return out

    def cdf_product(
        self, x: ArrayLike, exclude: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """``prod_j F_j(x_i)`` over all columns not listed in ``exclude``.

        The workhorse of the CDF-product estimators (paper §VI-D): one
        call evaluates every remaining record's CDF at each sampled
        threshold and reduces along records.
        """
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        excluded = (
            np.zeros(self.n, dtype=bool)
            if exclude is None
            else np.isin(np.arange(self.n), np.asarray(exclude, dtype=np.intp))
        )
        out = np.ones(x_arr.size)
        for group in self.groups:
            keep = ~excluded[group.indices]
            if not np.any(keep):
                continue
            values = group.batch_cdf(x_arr)
            out *= np.prod(values[:, keep], axis=1)
        return out


#: Family key of each built-in type, matched by *exact* type as in
#: :mod:`repro.core.validation`: a subclass may override any method, so
#: it takes the generic batch, which calls its own.
_FAMILIES: Dict[type, str] = {
    UniformScore: "uniform",
    TriangularScore: "triangular",
    TruncatedGaussianScore: "gaussian",
    TruncatedExponentialScore: "exponential",
    HistogramScore: "histogram",
    DiscreteScore: "discrete",
}


def build_sampling_plan(
    distributions: Sequence[ScoreDistribution],
    sample_overrides: Optional[Mapping[int, float]] = None,
) -> SamplingPlan:
    """Compile distributions into a columnar :class:`SamplingPlan`.

    Parameters
    ----------
    distributions:
        The database's score densities in column order.
    sample_overrides:
        Optional ``{column: value}`` replacements applied on the
        *sampling* side of deterministic records (the Monte-Carlo
        evaluator's tie perturbations); CDF evaluation keeps the true
        step location.

    Grouping: deterministic scores (of any family) form the point
    group. The other records are grouped by exact type (``_FAMILIES``):
    uniform, triangular, truncated-Gaussian and truncated-exponential
    records form a :class:`StackedBatch` that runs the family's own
    closed-form functions; histograms and multi-atom discrete scores
    share one RNG block with column-wise transforms; every other type
    (mixtures, convolutions, subclasses) falls back to the per-record
    :class:`GenericBatch`. Groups are ordered by first appearance, so
    the plan is deterministic for a given database order.
    """
    overrides = dict(sample_overrides or {})
    buckets: Dict[str, Tuple[List[int], List[ScoreDistribution]]] = {}
    for col, dist in enumerate(distributions):
        key = (
            "point"
            if dist.is_deterministic
            else _FAMILIES.get(type(dist), "generic")
        )
        indices, members = buckets.setdefault(key, ([], []))
        indices.append(col)
        members.append(dist)

    groups: List[FamilyBatch] = []
    for key, (indices, members) in buckets.items():
        if key == "point":
            cdf_values = [d.lower for d in members]
            sample_values = [
                overrides.get(col, d.lower)
                for col, d in zip(indices, members)
            ]
            groups.append(PointBatch(indices, sample_values, cdf_values))
        elif key == "generic":
            groups.append(GenericBatch(indices, members))
        elif key in ("histogram", "discrete"):
            groups.append(ColumnwiseBatch(key, indices, members))
        else:
            groups.append(StackedBatch(key, indices, members))
    return SamplingPlan(groups, len(distributions))
