"""Correlated score sampling (extension beyond the paper).

The paper assumes independent score densities (§II-A), which makes
Eq. 1 and the CDF-product shortcuts valid. Real uncertain data is often
correlated — neighbouring sensors drift together, listings in one
building share a pricing error — and correlation changes ranking
probabilities even when every marginal stays fixed.

This module adds a Gaussian-copula model on top of the existing
marginals: sample a correlated Gaussian vector, map it through the
standard normal CDF to correlated uniforms, and push those through each
record's quantile function. Marginals are preserved exactly; only the
joint is altered.

Only estimators that never exploit independence remain valid, so
:class:`CorrelatedMonteCarloEvaluator` keeps the indicator-based
estimators (rank probabilities, prefix/set/extension indicators) and
refuses the CDF-product and sequential-importance shortcuts.
"""

from __future__ import annotations

import math
from typing import Iterable, NoReturn, Optional, Sequence

import numpy as np
from scipy import special

from .distributions import SamplingPlan
from .errors import ModelError, QueryError
from .montecarlo import MonteCarloEvaluator
from .records import UncertainRecord

__all__ = ["GaussianCopula", "CorrelatedMonteCarloEvaluator"]


class GaussianCopula:
    """A Gaussian copula over ``n`` uncertain scores.

    Parameters
    ----------
    correlation:
        Symmetric positive semi-definite ``(n, n)`` matrix with unit
        diagonal. The identity recovers independence.
    """

    def __init__(self, correlation: np.ndarray) -> None:
        matrix = np.asarray(correlation, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ModelError("correlation must be a square matrix")
        if not np.allclose(matrix, matrix.T, atol=1e-12):
            raise ModelError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(matrix), 1.0, atol=1e-12):
            raise ModelError("correlation matrix needs a unit diagonal")
        # Eigen-decomposition tolerates the semi-definite case
        # (e.g. perfect correlation), unlike Cholesky.
        eigenvalues, eigenvectors = np.linalg.eigh(matrix)
        if eigenvalues.min() < -1e-10:
            raise ModelError("correlation matrix must be positive semi-definite")
        scale = np.sqrt(np.clip(eigenvalues, 0.0, None))
        self._transform = eigenvectors * scale
        self.correlation = matrix

    @property
    def dimension(self) -> int:
        """Number of coordinates the copula couples."""
        return self.correlation.shape[0]

    def sample_uniforms(
        self, rng: np.random.Generator, samples: int
    ) -> np.ndarray:
        """Draw ``(samples, n)`` correlated uniforms on ``(0, 1)``."""
        z = rng.standard_normal((samples, self.dimension))
        correlated = z @ self._transform.T
        u = 0.5 * (1.0 + special.erf(correlated / math.sqrt(2.0)))
        # Keep strictly inside (0, 1) so ppf never sees the endpoints.
        eps = np.finfo(float).tiny
        return np.clip(u, eps, 1.0 - eps)

    @classmethod
    def exchangeable(cls, n: int, rho: float) -> "GaussianCopula":
        """Equi-correlated copula: every pair shares correlation ``rho``.

        Positive semi-definiteness requires ``-1/(n-1) <= rho <= 1``.
        """
        if n < 1:
            raise ModelError("dimension must be positive")
        if n > 1 and not (-1.0 / (n - 1) - 1e-12 <= rho <= 1.0):
            raise ModelError(
                f"rho={rho} is not feasible for an exchangeable copula "
                f"of dimension {n}"
            )
        matrix = np.full((n, n), float(rho))
        np.fill_diagonal(matrix, 1.0)
        return cls(matrix)


class CorrelatedMonteCarloEvaluator(MonteCarloEvaluator):
    """Monte-Carlo evaluation under copula-correlated scores.

    Indicator-based estimators (rank probabilities, prefix/set/extension
    frequencies) remain unbiased because they only need joint samples.
    The CDF-product and sequential-importance estimators factor the
    joint into marginals and are therefore disabled.
    """

    def __init__(
        self,
        records: Sequence[UncertainRecord],
        copula: GaussianCopula,
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
        plan: Optional[SamplingPlan] = None,
    ) -> None:
        super().__init__(records, rng=rng, seed=seed, plan=plan)
        if copula.dimension != len(self.records):
            raise ModelError(
                f"copula dimension {copula.dimension} does not match "
                f"{len(self.records)} records"
            )
        self.copula = copula

    def _draw(self, rng: np.random.Generator, samples: int) -> np.ndarray:
        """Correlated score vectors via the copula.

        The copula produces an ``(s, n)`` matrix of correlated uniforms
        and the columnar plan pushes each family group through its
        quantile function in one batched call. Overriding ``_draw``
        (rather than individual estimators) routes every indicator-based
        estimator through the correlated joint.
        """
        uniforms = self.copula.sample_uniforms(rng, samples)
        return self._plan.ppf(uniforms)

    def _independence_only(self, name: str) -> NoReturn:
        raise QueryError(
            f"{name} exploits score independence and is invalid under a "
            "copula; use the indicator-based estimators instead"
        )

    def prefix_probability_sis(
        self, prefix: Sequence, samples: int, seed: Optional[int] = None
    ) -> NoReturn:  # noqa: D102
        self._independence_only("prefix_probability_sis")

    def top_set_probability_cdf(
        self, record_set: Iterable, samples: int, seed: Optional[int] = None
    ) -> NoReturn:  # noqa: D102
        self._independence_only("top_set_probability_cdf")
