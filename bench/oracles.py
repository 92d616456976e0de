"""Independent references for the benchmark's correctness checks.

Nothing here imports dseries.  Numbers are described by small tuples:

    ("rat", a, q)          a/q
    ("surd", p, r, d, s)   (p + r*sqrt(d))/s with s > 0, d not a square
    ("const", name)        name in pi, invpi, e
    ("liouville", sched)   sum of 10^-e_k, e_k = k! or e_1 = 1, e_{k+1} = 100^e_k

Large sums reduce n*alpha mod 1 exactly in 32-bit limbs (the program uses a
floating-point Dekker split), accumulate in extended precision and carry a
worst-case bound.  Short sums use mpmath at 60 digits.  Continued fractions
come from exact integer Euclid on a certified interval, or from the PQa
recurrence for surds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

import mpmath
import numpy as np

_U53 = 2.0 ** -53
_LD_EPS = float(np.finfo(np.longdouble).eps)
_CHUNK = 1 << 16
# Per-term error of a reference term, in units of f(n): the reduced argument
# is within 2^-53 of frac(n*alpha) (uint64 -> double rounding; the dropped
# limbs and the 2^-128 truncation of alpha are far smaller), pi*x adds about
# 3 ulp, sin at most 4 ulp, f(n) and the product 2 ulp more.
_TERM_ERR = 3.0e-15


# -- alpha as exact intervals ---------------------------------------------------


def alpha_fixed(spec: tuple, K: int) -> Tuple[int, int]:
    """Integers (lo, hi) with lo / 2^K <= alpha <= hi / 2^K."""
    kind = spec[0]
    if kind == "rat":
        _, a, q = spec
        lo = (a << K) // q
        return lo, lo + 1
    if kind == "surd":
        _, p, r, d, s = spec
        t = math.isqrt(d * r * r << (2 * K))  # floor(|r| sqrt(d) 2^K), never exact
        base = p << K
        num_lo, num_hi = (base + t, base + t + 1) if r > 0 else (base - t - 1, base - t)
        return num_lo // s, -(-num_hi // s)
    if kind == "const":
        with mpmath.workprec(K + 64):
            v = {"pi": mpmath.pi, "invpi": 1 / mpmath.pi, "e": mpmath.e}[spec[1]]
            mid = int(mpmath.floor(v * mpmath.mpf(2) ** K))
        return mid - 1, mid + 2
    raise ValueError(f"no fixed-point form for {spec!r}")


def liouville_levels(schedule: str, max_digits: int) -> List[int]:
    """Exponents e_1, e_2, ... that do not exceed max_digits."""
    out: List[int] = []
    k, e = 1, 1
    while e <= max_digits:
        out.append(e)
        k += 1
        if schedule == "factorial":
            e *= k
        elif 2 * e > len(str(max_digits)) + 1:
            break  # 100^e has more than max_digits digits
        else:
            e = 100 ** e
    return out


def liouville_interval(schedule: str, max_digits: int = 20000) -> Tuple[Fraction, Fraction]:
    """Exact interval holding the digit-1 staircase number of the schedule.

    Digits are at most 3 and exponents strictly increase, so the omitted tail
    is below (10/3) 10^-(max_digits + 1).
    """
    lam = sum(Fraction(1, 10 ** e) for e in liouville_levels(schedule, max_digits))
    return lam, lam + Fraction(10, 3 * 10 ** (max_digits + 1))


# -- continued fractions ----------------------------------------------------------


def _fixed_ends(spec: tuple, K: int) -> Tuple[int, int, int, int]:
    lo, hi = alpha_fixed(spec, K)
    return lo, 1 << K, hi, 1 << K


def common_pqs(x0: int, y0: int, x1: int, y1: int, limit: int) -> List[int]:
    """Partial quotients shared by every point of [x0/y0, x1/y1], y0, y1 > 0."""
    out: List[int] = []
    while len(out) < limit:
        a0, a1 = x0 // y0, x1 // y1
        if a0 != a1:
            break
        out.append(a0)
        r0, r1 = x0 - a0 * y0, x1 - a1 * y1
        if r0 == 0 or r1 == 0:
            break
        x0, y0, x1, y1 = y1, r1, y0, r0
    return out


def surd_pqs(spec: tuple, count: int) -> List[int]:
    """Exact partial quotients of (p + r sqrt(d))/s by the PQa recurrence."""
    _, p, r, d, s = spec
    D = d * r * r * s * s
    P, Q = (p * s, s * s) if r > 0 else (-p * s, -s * s)
    root = math.isqrt(D)
    out: List[int] = []
    for _ in range(count):
        a = (P + root) // Q if Q > 0 else -((P + root) // -Q) - 1
        out.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
    return out


def convergents(pqs: Sequence[int]) -> List[Tuple[int, int]]:
    out: List[Tuple[int, int]] = []
    p1, q1, p2, q2 = 1, 0, 0, 1
    for a in pqs:
        p1, p2 = a * p1 + p2, p1
        q1, q2 = a * q1 + q2, q1
        out.append((p1, q1))
    return out


class CfOracle:
    """Partial quotients of alpha plus an exact interval [lo, hi] holding it."""

    def __init__(self, spec: tuple, count: int):
        if spec[0] == "liouville":
            self.lo, self.hi = liouville_interval(spec[1])
            self.pqs = common_pqs(
                self.lo.numerator, self.lo.denominator,
                self.hi.numerator, self.hi.denominator, count,
            )
            return
        if spec[0] == "surd":
            self.pqs = surd_pqs(spec, count)
        else:
            K = 4096
            while len(pqs := common_pqs(*_fixed_ends(spec, K), count)) < count:
                K *= 2
            self.pqs = pqs
        # Distances |q alpha - a| need about twice the bits of the last q.
        K = 2 * convergents(self.pqs)[-1][1].bit_length() + 64
        lo, hi = alpha_fixed(spec, K)
        self.lo, self.hi = Fraction(lo, 1 << K), Fraction(hi, 1 << K)

    def denominators(self) -> List[int]:
        return [q for _, q in convergents(self.pqs)]

    def dist_range(self, a: int, q: int) -> Tuple[Fraction, Fraction]:
        """Exact enclosure of |q alpha - a|."""
        x0, x1 = q * self.lo - a, q * self.hi - a
        if x0 >= 0:
            return x0, x1
        if x1 <= 0:
            return -x1, -x0
        return Fraction(0), max(-x0, x1)


def criterion_log10(q: int, q_next: int, p: Fraction) -> float:
    """log10 of (1/q^2) * integral of x^-p over [1, q_next]."""
    with mpmath.workdps(40):
        if p == 1:
            v = mpmath.log(q_next) / (mpmath.mpf(q) ** 2)
        else:
            c = 1 - mpmath.mpf(p.numerator) / p.denominator
            v = (mpmath.mpf(q_next) ** c - 1) / (c * mpmath.mpf(q) ** 2)
        return float(mpmath.log10(v))


# -- partial sums -------------------------------------------------------------------


def _f_values(nf: np.ndarray, p: Fraction) -> np.ndarray:
    if p == 1:
        return 1.0 / nf
    if p == Fraction(1, 2):
        return 1.0 / np.sqrt(nf)
    raise ValueError(f"reference sums support pow:1 and pow:1/2, not {p}")


class _Weights:
    """|sin(pi frac(n alpha))| for a rational or irrational alpha."""

    def __init__(self, spec: tuple):
        self.spec = spec
        if spec[0] == "rat":
            self.a, self.q = spec[1] % spec[2], spec[2]
        else:
            A = alpha_fixed(spec, 128)[0] % (1 << 128)
            self.limbs = [np.uint64((A >> (32 * i)) & 0xFFFFFFFF) for i in range(4)]

    def __call__(self, lo: int, hi: int) -> np.ndarray:
        if self.spec[0] == "rat":
            if hi * self.q >= 1 << 62:
                raise ValueError("rational reference needs n*q below 2^62")
            n = np.arange(lo, hi, dtype=np.int64)
            x = ((n * self.a) % self.q).astype(np.float64) / self.q
        else:
            if hi >= 1 << 32:
                raise ValueError("limb reference needs n below 2^32")
            n = np.arange(lo, hi, dtype=np.uint64)
            m32, s32 = np.uint64(0xFFFFFFFF), np.uint64(32)
            carry = (n * self.limbs[0]) >> s32
            carry = (n * self.limbs[1] + carry) >> s32
            p2 = n * self.limbs[2] + carry
            p3 = n * self.limbs[3] + (p2 >> s32)
            top = ((p3 & m32) << s32) | (p2 & m32)  # floor(frac(n A / 2^128) 2^64)
            x = top.astype(np.float64) * 2.0 ** -64
        return np.abs(np.sin(np.pi * x))


def reference_sums(
    spec: tuple, p: Fraction, N: int, M: int, marks: Iterable[int] = ()
) -> Dict[int, Tuple[float, float, float]]:
    """{m: (S(m), bound, mass)} for m in marks and M, where S(m) sums n = N+1..N+m.

    bound covers the reference's own error; mass is the sum of |terms|.
    """
    weights = _Weights(spec)
    stops = sorted(set(int(m) for m in marks if 1 <= m <= M) | {M})
    total = np.longdouble(0)
    mass = f_mass = 0.0
    count = 0
    out: Dict[int, Tuple[float, float, float]] = {}
    pos = N + 1
    for m in stops:
        while pos <= N + m:
            hi = min(pos + _CHUNK, N + m + 1)
            nf = np.arange(pos, hi, dtype=np.float64)
            fv = _f_values(nf, p)
            terms = fv * weights(pos, hi)
            terms[(np.arange(pos, hi) & 1) == 1] *= -1.0
            total += np.sum(terms, dtype=np.longdouble)
            mass += float(np.sum(np.abs(terms)))
            f_mass += float(np.sum(fv))
            count += 1
            pos = hi
        value = float(total)
        # Per chunk, numpy's pairwise sum (8-way unrolled leaves of 128) errs
        # by under 2*17 units of the extended epsilon times the chunk's mass;
        # the running total adds one unit per chunk; float() rounds once.
        bound = (
            _TERM_ERR * f_mass * (1 + 1e-12)
            + (2 * _CHUNK.bit_length() + count + 8) * _LD_EPS * mass
            + _U53 * abs(value)
        )
        out[m] = (value, bound, mass)
    return out


def mp_sum(spec: tuple, p: Fraction, N: int, M: int) -> float:
    """sum_{n=N+1}^{N+M} (-1)^n n^-p |sin(n pi alpha)| at 60+ digits (small M)."""
    digits = 60 + len(str(N + M))
    with mpmath.workdps(digits):
        if spec[0] == "rat":
            _, a, q = spec
            frac_of = lambda n: mpmath.mpf(n * a % q) / q
        else:
            K = 4 * digits + 64
            lo = alpha_fixed(spec, K)[0]
            frac_of = lambda n: mpmath.mpf(n * lo % (1 << K)) / mpmath.mpf(2) ** K
        pe = mpmath.mpf(p.numerator) / p.denominator
        total = mpmath.mpf(0)
        for n in range(N + 1, N + M + 1):
            term = mpmath.mpf(n) ** (-pe) * abs(mpmath.sin(mpmath.pi * frac_of(n)))
            total += -term if n & 1 else term
        return float(total)
