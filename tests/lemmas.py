"""Numerical companions of the analysis's lemmas, used only by the tests.

The Fourier expansion of |sin|, geometric sums, oscillatory integrals and
their constant, and two direct bound checks.  No command of the package
reaches them; they check the elementary estimates the convergence argument
rests on.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from dseries.criterion import FDescriptor
from dseries.errors import DSeriesError

_EPS = 2.0 ** -52
# The two nested Gauss-Legendre rules of osc_integral: nodes and weights.
_GL12 = np.polynomial.legendre.leggauss(12)
_GL24 = np.polynomial.legendre.leggauss(24)


def fourier_abs_sin(x: float, K: int) -> Tuple[float, float]:
    """Truncated cosine expansion of |sin(pi x)| with its tail bound.

    |sin(pi x)| = 2/pi - (4/pi) sum_{k>=1} cos(2 pi k x)/(4k^2 - 1); the
    truncation after K terms is off by at most 2/(pi (2K+1)).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    ks = np.arange(1, K + 1, dtype=np.float64)
    series = float(np.sum(np.cos((2.0 * math.pi * x) * ks) / (4.0 * ks * ks - 1.0)))
    value = 2.0 / math.pi - (4.0 / math.pi) * series
    return value, 2.0 / (math.pi * (2 * K + 1))


def geometric_sum(alpha: float, N: int) -> Tuple[complex, float]:
    """Sum of exp(2 pi i n alpha) for n = 0..N-1, with the standard bound.

    The bound min(N, 1/(2 ||alpha||)) always dominates |value|.  Integer
    alpha is rejected: the closed form is singular and the sum is just N.
    """
    if N < 1:
        raise ValueError("N must be positive")
    fracpart = alpha - math.floor(alpha)
    dist = min(fracpart, 1.0 - fracpart)
    if dist == 0.0:
        raise ValueError("alpha must not be an integer (sum degenerates to N)")
    # value = e(alpha (N-1)/2) * sin(pi N alpha) / sin(pi alpha)
    num = math.sin(math.pi * math.fmod(N * alpha, 2.0))
    den = math.sin(math.pi * fracpart)
    phase = cmath.exp(1j * math.pi * (N - 1) * alpha)
    value = phase * (num / den)
    bound = min(float(N), 1.0 / (2.0 * dist))
    return value, bound


def _gl_panels(p: float, a: np.ndarray, b: np.ndarray, rule) -> np.ndarray:
    """One Gauss rule applied to t^(-p) cos(t) on every panel [a_i, b_i]."""
    xs, ws = rule
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    t = mid[:, None] + half[:, None] * xs
    return half * ((t ** -p * np.cos(t)) @ ws)


@dataclass(frozen=True)
class OscIntegralResult:
    value: float
    lemma_bound: float
    quad_error: float


def osc_integral(
    p: float, nu: float, mu: float = math.inf, *, tol: float = 1.0e-9
) -> OscIntegralResult:
    """Integral of t^(-p) cos(t) over [nu, mu] with certified-size panels.

    Panels are geometric below 1 (integrable singularity at 0) and at most
    pi/4 wide above; all of them are evaluated in one pass with nested
    Gauss rules whose difference estimates the error.  For mu = infinity
    the integral beyond a cutoff T is replaced by four steps of partial
    integration; the remainder is at most 2 p(p+1)(p+2)(p+3) T^(-p-4),
    which at T = 2000 stays below 2e-15 for every p in (0,1).
    lemma_bound = 2 nu^(-p) dominates |value| up to quad_error.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("exponent p must lie strictly between 0 and 1")
    if nu <= 0 or mu < nu:
        raise ValueError("need 0 < nu <= mu")
    lemma = 2.0 * nu ** (-p)
    if mu == nu:
        return OscIntegralResult(0.0, lemma, 0.0)
    if math.isinf(mu):
        cutoff = max(nu, 2000.0)
        s, c = math.sin(cutoff), math.cos(cutoff)
        tail_value = -(cutoff ** -p) * s + p * cutoff ** (-p - 1.0) * c
        tail_value -= p * (p + 1.0) * (
            -(cutoff ** (-p - 2.0)) * s + (p + 2.0) * cutoff ** (-p - 3.0) * c
        )
        tail_err = (
            2.0 * p * (p + 1.0) * (p + 2.0) * (p + 3.0) * cutoff ** (-p - 4.0)
        )
    else:
        cutoff = mu
        tail_value = 0.0
        tail_err = 0.0
    ends = [nu]
    while ends[-1] < min(1.0, cutoff):
        ends.append(min(2.0 * ends[-1], 1.0, cutoff))
    if ends[-1] < cutoff:
        # steps of pi/4 added one at a time, as a running sum would
        steps = np.full(int((cutoff - ends[-1]) / (math.pi / 4.0)) + 2, math.pi / 4.0)
        steps[0] = ends[-1]
        wide = np.cumsum(steps)
        ends.extend(wide[1:][wide[1:] < cutoff].tolist())
        ends.append(cutoff)
    ends = np.array(ends)
    coarse = _gl_panels(p, ends[:-1], ends[1:], _GL12)
    fine = _gl_panels(p, ends[:-1], ends[1:], _GL24)
    value = tail_value + float(np.sum(fine))
    err = tail_err + float(np.sum(np.abs(fine - coarse)))
    if err > max(tol, 64 * _EPS * (abs(value) + 1.0)):
        raise DSeriesError(
            f"oscillatory quadrature error estimate {err:.3g} exceeds tolerance {tol:.3g}"
        )
    return OscIntegralResult(value=value, lemma_bound=lemma, quad_error=err)


@dataclass(frozen=True)
class ApConstant:
    closed_form: float
    quadrature: float
    lower_bound: float


def a_p_constant(p: float) -> ApConstant:
    """The constant integral of t^(-p) cos t over (0, infinity), two ways.

    closed_form = Gamma(1-p) sin(pi p / 2); the quadrature path integrates
    from a small nu upward, approximating the head piece on (0, nu) by
    nu^(1-p)/(1-p), which is off by at most nu^(3-p)/(2(3-p)).  The closed
    form always exceeds p/(1-p), which is asserted.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("exponent p must lie strictly between 0 and 1")
    closed = math.gamma(1.0 - p) * math.sin(math.pi * p / 2.0)
    nu = 1.0e-8
    head = nu ** (1.0 - p) / (1.0 - p)
    rest = osc_integral(p, nu, math.inf)
    quadrature = head + rest.value
    lower = p / (1.0 - p)
    if not closed > lower:
        raise AssertionError(
            f"closed form {closed:.12g} fails its lower bound {lower:.12g}"
        )
    return ApConstant(closed_form=closed, quadrature=quadrature, lower_bound=lower)


def progression_sum_bound_check(q: int, r: int) -> Tuple[float, float]:
    """Sum of 1/(k^2 - 1) over k = q, 3q, 5q, ... up to r, with bound 2/q^2.

    The terms are k = q (mod 2q); the bound is strict for every q >= 3.
    """
    if not (isinstance(q, int) and isinstance(r, int)):
        raise TypeError("q and r must be integers")
    if not 3 <= q <= r:
        raise ValueError("need 3 <= q <= r")
    ks = np.arange(q, r + 1, 2 * q, dtype=np.float64)
    total = float(np.sum(1.0 / (ks * ks - 1.0)))
    bound = 2.0 / (q * q)
    if not total < bound:
        raise AssertionError(
            f"progression sum {total:.12g} reached its bound {bound:.12g}"
        )
    return total, bound


def alternating_tail_check(f: FDescriptor, X: float, Y: float) -> Tuple[float, float]:
    """|sum of (-1)^n f(n) over integers n in [X, Y]| against the bound f(X).

    The alternating-series device: consecutive terms of a decreasing f
    telescope, so the block never exceeds its first weight.
    """
    if X < 1 or Y < X:
        raise ValueError("need 1 <= X <= Y")
    lo = math.ceil(X)
    hi = math.floor(Y)
    bound = float(X) ** -float(f.p)
    if lo > hi:
        return 0.0, bound
    ns = np.arange(lo, hi + 1, dtype=np.int64)
    fv = np.power(ns.astype(np.float64), -float(f.p))
    total = float(np.sum((1.0 - 2.0 * (ns & 1)) * fv))
    slack = 1e-12 * bound + 1e-300
    if not abs(total) <= bound + slack:
        raise AssertionError(
            f"alternating block {total:.12g} exceeds its bound {bound:.12g}"
        )
    return total, bound
