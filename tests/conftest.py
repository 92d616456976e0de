"""Shared oracles for the test suite.

Everything here is computed independently of the package code paths: pi via
a Machin formula in exact rational arithmetic, square roots via isqrt, e
via its factorial series, continued fractions via the Euclidean algorithm,
and reference sums via mpmath at high working precision or, for long
rational windows, a float64 brute-force running sum.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import List, Tuple

import mpmath
import numpy as np
import pytest


def arctan_inv_fraction(x: int, digits: int) -> Fraction:
    """atan(1/x) as a Fraction with error below 10^-digits (alternating tail)."""
    tol = Fraction(1, 10 ** (digits + 1))
    total = Fraction(0)
    k = 0
    while True:
        term = Fraction(1, (2 * k + 1) * x ** (2 * k + 1))
        total += -term if k % 2 else term
        if term < tol:
            return total
        k += 1


def pi_fraction(digits: int) -> Fraction:
    """Machin: pi = 16 atan(1/5) - 4 atan(1/239), error < 10^-digits."""
    return 16 * arctan_inv_fraction(5, digits + 2) - 4 * arctan_inv_fraction(239, digits + 2)


def sqrt_fraction(d: int, digits: int) -> Fraction:
    """Lower rational approximation of sqrt(d), within 10^-digits."""
    scale = 10 ** digits
    return Fraction(math.isqrt(d * scale * scale), scale)


def e_fraction(digits: int) -> Fraction:
    total = Fraction(0)
    term = Fraction(1)
    k = 0
    while term >= Fraction(1, 10 ** (digits + 1)):
        total += term
        k += 1
        term /= k
    return total


def ends(iv) -> Tuple[Fraction, Fraction]:
    """The exact ends lo_m 2^-exp and hi_m 2^-exp of a DyadicInterval."""
    return Fraction(iv.lo_m, 1 << iv.exp), Fraction(iv.hi_m, 1 << iv.exp)


def euclid_cf(x: Fraction, limit: int = 10 ** 6) -> List[int]:
    """Canonical continued fraction of a rational via the Euclidean algorithm."""
    out = []
    for _ in range(limit):
        a = math.floor(x)
        out.append(a)
        frac = x - a
        if frac == 0:
            return out
        x = 1 / frac
    raise AssertionError("rational expansion did not terminate")


def cf_convergents(pqs: List[int]) -> List[Tuple[int, int]]:
    p_prev, p = 1, pqs[0]
    q_prev, q = 0, 1
    out = [(p, q)]
    for a in pqs[1:]:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        out.append((p, q))
    return out


def record_points_fraction(alpha: Fraction, q_max: int) -> List[Tuple[int, int]]:
    """Strict records (p, q) of |q*alpha - p| over q = 1..q_max, with p the
    nearest integer to q*alpha.

    Exact integer arithmetic on residues: with alpha = num/den and
    r = q*num mod den, |q*alpha - p| = min(r, den - r)/den, and p rounds up
    when 2r > den."""
    num, den = alpha.numerator, alpha.denominator
    records = []
    best = None
    for q in range(1, q_max + 1):
        r = q * num % den
        d = min(r, den - r)
        if best is None or d < best:
            records.append(((q * num - r) // den + (2 * r > den), q))
            best = d
            if d == 0:
                break
    return records


def mp_prefix_sums(alpha, p: float, N: int, M: int, dps: int = 60) -> List[float]:
    """Reference running sums of (-1)^n n^-p |sin(n pi alpha)|, for the first
    m = 1..M terms after index N.

    alpha is an exact Fraction, whose n*alpha is reduced modulo 1 exactly
    before the working precision takes over, or an mpmath number that is
    exact at dps digits (computed at that precision or more, or a constant
    such as mpmath.pi).
    """
    with mpmath.workdps(dps):
        if not isinstance(alpha, Fraction):
            alpha = mpmath.mpf(alpha)
        total = mpmath.mpf(0)
        sums = []
        for n in range(N + 1, N + M + 1):
            if isinstance(alpha, Fraction):
                x = n * alpha % 1
                x = mpmath.mpf(x.numerator) / x.denominator
            else:
                x = n * alpha
            term = abs(mpmath.sin(mpmath.pi * x)) / mpmath.mpf(n) ** p
            total += -term if n % 2 else term
            sums.append(float(total))
        return sums


def mp_partial_sum(alpha, p: float, N: int, M: int, dps: int = 60) -> float:
    """Reference sum of (-1)^n n^-p |sin(n pi alpha)| over n = N+1..N+M."""
    return mp_prefix_sums(alpha, p, N, M, dps)[-1]


def max_abs_running_sum(a: int, q: int, p: float, N: int, M: int) -> float:
    """Largest |S(m)| over m = 1..M for alpha = a/q, S(m) the sum of
    (-1)^n n^-p |sin(n pi a/q)| over n = N+1..N+m: a brute-force running
    sum in float64, with n*a reduced modulo q exactly and numpy's sine."""
    best, offset = 0.0, 0.0
    for lo in range(N + 1, N + M + 1, 1 << 20):
        n = np.arange(lo, min(lo + (1 << 20), N + M + 1), dtype=np.int64)
        terms = np.abs(np.sin(np.pi * (n * a % q) / q)) * n.astype(np.float64) ** -p
        terms[n % 2 == 1] *= -1.0
        run = offset + np.cumsum(terms)
        best, offset = max(best, float(np.max(np.abs(run)))), float(run[-1])
    return best


@pytest.fixture(scope="session")
def pi_oracle() -> Fraction:
    return pi_fraction(120)


@pytest.fixture(scope="session")
def sqrt2_oracle() -> Fraction:
    return sqrt_fraction(2, 120)


@pytest.fixture(scope="session")
def e_oracle() -> Fraction:
    return e_fraction(120)


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made while the test runs, one entry each."""
    calls, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(None) or fork())
    return calls
