"""Piecewise-polynomial function algebra.

Score families with an exact piecewise-polynomial density describe it in
this algebra (point masses, uniforms, histograms, triangulars and
mixtures thereof). :mod:`repro.core.exact` reads the densities and their
antiderivatives at its Gauss–Legendre nodes, and the exact branch of
:func:`repro.core.pairwise.probability_greater` integrates ``f_a F_b``
here.

A :class:`PiecewisePolynomial` represents a function on the whole real
line:

- constant ``left`` value for ``x < breakpoints[0]``,
- a polynomial per segment ``[breakpoints[j], breakpoints[j + 1])``
  expressed in the *local* coordinate ``x - breakpoints[j]`` (local
  coordinates keep the arithmetic well conditioned away from the origin),
- constant ``right`` value for ``x >= breakpoints[-1]``.

Functions are right-continuous at breakpoints. Jumps are allowed, which
lets step functions (the CDFs of deterministic scores) participate in the
same algebra as smooth pieces.

Supported operations: evaluation, addition, multiplication (also by a
scalar), antiderivatives of compactly supported functions, and definite
integrals. Products and sums align breakpoints automatically.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Sequence

import numpy as np

from .errors import EvaluationError

__all__ = ["PiecewisePolynomial"]

# Trailing polynomial coefficients with magnitude below this threshold
# (relative to the largest coefficient on the segment) are trimmed.
_TRIM_RTOL = 1e-14


def _trim(coeffs: np.ndarray, width: float = 1.0) -> np.ndarray:
    """Drop negligible trailing coefficients, keeping at least degree 0.

    Negligibility is judged by each term's maximum *contribution* on the
    segment, ``|c_d| * width**d``, not by the raw coefficient: on wide
    segments high-degree coefficients are numerically small yet carry
    large values. Contributions are compared in log space to avoid
    overflow for extreme widths/degrees.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size == 0:
        return np.zeros(1)
    if coeffs.size == 1:
        # Constant segment: nothing to trim. The exact test matches the
        # general path below, which zeroes NaN and -0.0 segments too.
        return coeffs.copy() if abs(coeffs[0]) > 0.0 else np.zeros(1)
    magnitudes = np.abs(coeffs)
    if not np.any(magnitudes > 0.0):
        return np.zeros(1)
    degrees = np.arange(coeffs.size, dtype=float)
    log_width = np.log(width) if width > 0.0 else 0.0
    with np.errstate(divide="ignore"):
        log_contrib = np.where(
            magnitudes > 0.0, np.log(magnitudes), -np.inf
        ) + degrees * log_width
    threshold = log_contrib.max() + np.log(_TRIM_RTOL)
    keep = coeffs.size
    while keep > 1 and log_contrib[keep - 1] <= threshold:
        keep -= 1
    return coeffs[:keep].copy()


def _shift(coeffs: np.ndarray, delta: float) -> np.ndarray:
    """Re-express ``p(t)`` as a polynomial in ``u`` where ``t = u + delta``.

    If ``p`` has coefficients in the local coordinate anchored at ``a``,
    the result has coefficients anchored at ``a + delta``.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.size
    # IEEE-exact sentinel: a zero shift means coefficients are already
    # anchored; any nonzero delta must go through the expansion.
    if n == 1 or delta == 0.0:  # reprolint: disable=NUM001
        return coeffs.copy()
    out = np.zeros(n)
    # Binomial expansion of sum_e c_e (u + delta)^e.
    powers = np.ones(n)
    for e in range(1, n):
        powers[e] = powers[e - 1] * delta
    for e in range(n):
        c = coeffs[e]
        # Exact-zero coefficients contribute nothing; skipping them is
        # a pure optimization, never a tolerance decision.
        if c == 0.0:  # reprolint: disable=NUM001
            continue
        for d in range(e + 1):
            out[d] += c * comb(e, d) * powers[e - d]
    return out


def _polyval_local(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Evaluate a local-coordinate polynomial at offsets ``u`` (Horner)."""
    result = np.full_like(u, coeffs[-1], dtype=float)
    for c in coeffs[-2::-1]:
        result = result * u + c
    return result


class PiecewisePolynomial:
    """A piecewise-polynomial function over the real line.

    Parameters
    ----------
    breakpoints:
        Strictly increasing sequence of segment boundaries. May contain a
        single point (a pure step function) or be empty together with
        ``left == right`` (a constant function).
    coeffs:
        One coefficient array per segment, ``coeffs[j][d]`` being the
        coefficient of ``(x - breakpoints[j]) ** d``.
    left, right:
        Constant values taken outside the breakpoint range.
    """

    __slots__ = ("breakpoints", "coeffs", "left", "right")

    def __init__(
        self,
        breakpoints: Sequence[float],
        coeffs: Iterable[Sequence[float]],
        left: float = 0.0,
        right: float = 0.0,
    ) -> None:
        bps = np.asarray(breakpoints, dtype=float)
        widths = np.diff(bps) if bps.size >= 2 else np.array([])
        segs = [
            _trim(
                np.asarray(c, dtype=float),
                float(widths[j]) if j < widths.size else 1.0,
            )
            for j, c in enumerate(coeffs)
        ]
        if bps.size == 0:
            if segs:
                raise ValueError("segments given without breakpoints")
            if left != right:
                raise ValueError("a breakpoint-free function must be constant")
        else:
            if np.any(np.diff(bps) <= 0):
                raise ValueError("breakpoints must be strictly increasing")
            if len(segs) != bps.size - 1:
                raise ValueError(
                    f"expected {bps.size - 1} segments, got {len(segs)}"
                )
        self.breakpoints = bps
        self.coeffs = segs
        self.left = float(left)
        self.right = float(right)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "PiecewisePolynomial":
        """The constant function ``x -> value``."""
        return cls([], [], left=value, right=value)

    @classmethod
    def zero(cls) -> "PiecewisePolynomial":
        """The zero function."""
        return cls.constant(0.0)

    @classmethod
    def step(cls, at: float, height: float) -> "PiecewisePolynomial":
        """A right-continuous step: 0 for ``x < at``, ``height`` after."""
        return cls([at], [], left=0.0, right=height)

    @classmethod
    def box(cls, lo: float, up: float, height: float) -> "PiecewisePolynomial":
        """A box function: ``height`` on ``[lo, up)``, zero elsewhere."""
        if up <= lo:
            raise ValueError("box requires lo < up")
        return cls([lo, up], [[height]], left=0.0, right=0.0)

    @classmethod
    def ramp(cls, lo: float, up: float) -> "PiecewisePolynomial":
        """The CDF of a uniform distribution on ``[lo, up]``."""
        if up <= lo:
            raise ValueError("ramp requires lo < up")
        return cls([lo, up], [[0.0, 1.0 / (up - lo)]], left=0.0, right=1.0)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def __call__(self, x):
        x_arr = np.asarray(x, dtype=float)
        scalar = x_arr.ndim == 0
        x_arr = np.atleast_1d(x_arr)
        out = np.empty_like(x_arr)
        bps = self.breakpoints
        if bps.size == 0:
            out[:] = self.left
        else:
            idx = np.searchsorted(bps, x_arr, side="right") - 1
            out[idx < 0] = self.left
            out[idx >= len(self.coeffs)] = self.right
            for j, seg in enumerate(self.coeffs):
                mask = idx == j
                if np.any(mask):
                    out[mask] = _polyval_local(seg, x_arr[mask] - bps[j])
        return float(out[0]) if scalar else out

    # ------------------------------------------------------------------
    # alignment and arithmetic
    # ------------------------------------------------------------------

    def _segments_on(self, grid: np.ndarray) -> list[np.ndarray]:
        """Express this function as one polynomial per segment of ``grid``.

        ``grid`` must contain all of this function's breakpoints.
        """
        segs: list[np.ndarray] = []
        bps = self.breakpoints
        for j in range(grid.size - 1):
            start = grid[j]
            if bps.size == 0 or start < bps[0]:
                segs.append(np.array([self.left]))
            elif start >= bps[-1]:
                segs.append(np.array([self.right]))
            else:
                k = int(np.searchsorted(bps, start, side="right") - 1)
                segs.append(_shift(self.coeffs[k], start - bps[k]))
        return segs

    @staticmethod
    def _merged_grid(
        a: "PiecewisePolynomial", b: "PiecewisePolynomial"
    ) -> np.ndarray:
        return np.union1d(a.breakpoints, b.breakpoints)

    def _binary(self, other, op) -> "PiecewisePolynomial":
        if not isinstance(other, PiecewisePolynomial):
            other = PiecewisePolynomial.constant(float(other))
        grid = self._merged_grid(self, other)
        if grid.size == 0:
            value = op(np.array([self.left]), np.array([other.left]))
            return PiecewisePolynomial.constant(float(value[0]))
        mine = self._segments_on(grid)
        theirs = other._segments_on(grid)
        coeffs = [op(m, t) for m, t in zip(mine, theirs)]
        left = float(op(np.array([self.left]), np.array([other.left]))[0])
        right = float(op(np.array([self.right]), np.array([other.right]))[0])
        return PiecewisePolynomial(grid, coeffs, left=left, right=right)

    @staticmethod
    def _op_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        n = max(a.size, b.size)
        out = np.zeros(n)
        out[: a.size] += a
        out[: b.size] += b
        return out

    @staticmethod
    def _op_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.convolve(a, b)

    def __add__(self, other) -> "PiecewisePolynomial":
        return self._binary(other, self._op_add)

    __radd__ = __add__

    def __mul__(self, other) -> "PiecewisePolynomial":
        if isinstance(other, (int, float)):
            factor = float(other)
            return PiecewisePolynomial(
                self.breakpoints,
                [c * factor for c in self.coeffs],
                left=self.left * factor,
                right=self.right * factor,
            )
        return self._binary(other, self._op_mul)

    __rmul__ = __mul__

    # ------------------------------------------------------------------
    # calculus
    # ------------------------------------------------------------------

    def antiderivative(self) -> "PiecewisePolynomial":
        """The antiderivative ``H(x) = integral_{-inf}^{x} h(t) dt``.

        Requires the function to vanish outside its breakpoint range
        (``left == right == 0``), otherwise the integral diverges and an
        :class:`EvaluationError` is raised. The result is continuous, zero
        to the left, and constant (the total integral) to the right.
        """
        # Compact support is a structural property set at construction
        # (exactly 0.0), not a computed float.
        if self.left != 0.0 or self.right != 0.0:  # reprolint: disable=NUM001
            raise EvaluationError(
                "antiderivative requires a compactly supported function "
                f"(left={self.left}, right={self.right})"
            )
        bps = self.breakpoints
        if bps.size == 0:
            return PiecewisePolynomial.zero()
        if bps.size == 1:
            # A function that is zero everywhere except (possibly) a jump
            # value at one point: integral is zero.
            return PiecewisePolynomial.zero()
        coeffs = []
        running = 0.0
        for j, seg in enumerate(self.coeffs):
            degrees = np.arange(1, seg.size + 1, dtype=float)
            integ = np.concatenate(([running], seg / degrees))
            coeffs.append(integ)
            width = bps[j + 1] - bps[j]
            running = float(_polyval_local(integ, np.array([width]))[0])
        return PiecewisePolynomial(bps, coeffs, left=0.0, right=running)

    def integral(self) -> float:
        """Total integral over the real line (function must be compact)."""
        return self.antiderivative().right

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n = len(self.coeffs)
        return (
            f"PiecewisePolynomial({n} segments, "
            f"left={self.left}, right={self.right})"
        )
