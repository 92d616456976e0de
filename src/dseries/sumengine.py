"""Numerical evaluation of the alternating sine-weighted partial sums.

S(alpha; M, N) = sum over n = N+1 .. N+M of (-1)^n f(n) |sin(n pi alpha)|.

The direct path writes alpha mod 1 exactly as num/den (a/q for a rational,
the certified enclosure midpoint otherwise) and splits each index as
n = g + k, with g on a grid of step 2^15 fixed by N.  By angle addition,
|sin(pi n alpha)| = |S[k] cos(pi B_g) + C[k] sin(pi B_g)|, where
S[k] = sin(pi T_k) and C[k] = cos(pi T_k) with T_k = k*num/den.  Every
sine and cosine there comes once per call from exact integers in fixed
point, each sequence of them (the grid points', and those of a few hundred
rows and columns with k = row + column, from which one more angle addition
builds the two tables) from one start and one step rotated in integers.
So a weight costs two products, an add and an abs, no term is reduced
modulo 1 on its own, no weight accumulates O(M) rounding drift, and each
is within 9.7e-16 of its exact value.  Nothing depends on the platform's
sine.  A term divides the weight by n^p: by n itself for p = 1 and by the
correctly rounded sqrt(n) for p = 1/2, so for both every step is a
correctly rounded IEEE operation.  Windows ending past 2^53 are refused,
since n is then no longer exact in float64.

A rational a/q with q + 2^15 <= 2^20 over at least 2(q + 2^15) terms
reuses one period of these weights: (-1)^n |sin(pi n a/q)| repeats with
period q up to the sign (-1)^q, so the signed weights of n = N+1 .. N+q
are computed once, before any worker forks, and copied times (-1)^q per
period up to q + 2^15 entries (8 MiB at most).  A batch then divides a
slice of that table by n^p.  Each entry is the weight of some n' = n
mod q, within 9.7e-16 of the same exact value, so the bound is unchanged.

The periodic path exploits a rational alpha = a/q further: (-1)^n times
the weight of n depends on n mod L alone (L = q for even q, 2q for odd q),
so the window is one weighted sum per residue class, each weight from a
correctly rounded argument through an odd polynomial with a proven
relative error bound, and each class sum of n^-p term by term up to 32
terms and past that in closed form by Euler-Maclaurin with a proven
remainder.  Its cost grows with min(L, M), not with M, and each block of
weighted class sums is added without rounding error.  The drift
prediction for even q carries an allowance proven by Abel summation over
one period.

The direct sum and the checkpoint scan run through one loop: terms are
summed pairwise in chunks of 2^14 on the grid N + 1 + j*2^14, fixed by N
alone, and the chunk sums are added exactly, so no result depends on the
worker count.  A checkpoint inside a chunk reads that chunk's prefix
instead of cutting it, so a scan row does not depend on the other
checkpoints and a scan's final result is the direct sum.  A window of
several million terms is split into contiguous blocks of chunks, one per
worker: the calling process evaluates the first and a forked child process
each other (see _run_blocks), so the workers share no interpreter lock.
Each evaluates its chunks two at a time in the two work rows (512 KiB)
that its evaluator allocates once, so the kernel runs in cache and
allocates nothing per chunk.  Every result carries an explicit worst-case
rounding bound, whose summation part follows the depth of numpy's pairwise
summation tree, times the chunk's mass: an upper bound of the sum of n^-p
over it in closed form, by Hermite-Hadamard, so no pass over f(n) is made.
"""

from __future__ import annotations

import marshal
import math
import os
import signal
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import BinaryIO, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .criterion import FDescriptor
from .errors import TermLimitError
from .realsource import RealSource, Kind, _pi_floor

__all__ = [
    "PartialSumResult",
    "DriftPrediction",
    "TraceRow",
    "SumTrace",
    "partial_sum_direct",
    "partial_sum_periodic",
    "scan_partial_sums",
    "geometric_checkpoints",
    "drift_predict",
]

DEFAULT_MAX_TERMS = 10 ** 9
_EPS = 2.0 ** -52
_U = 2.0 ** -53  # unit roundoff of float64
# Terms per summation chunk: each chunk is summed pairwise on its own and
# its error enters the bound through the depth of numpy's summation tree.
_CHUNK = 1 << 14
# Terms evaluated per batch of consecutive chunks (elementwise, so batching
# never changes a term), and the step of the reduction grid: two float64
# work rows of 2^15 entries (512 KiB) stay in a 2 MiB L2 cache, and each
# ufunc call does enough work to amortise its Python overhead.
_BATCH = 2 * _CHUNK
_INDEX = np.arange(_BATCH, dtype=np.float64)
# Fewest terms per worker for which a sum forks: on a 2-vCPU x86-64 host a
# fork and its wait cost about 4 ms, and 2^20 terms about 5 ms.
_FORK_TERMS = 1 << 20
_MAX_INDEX = 2 ** 53  # largest window end whose indices are exact in float64
# Most entries (8 MiB) of a rational direct sum's table of signed weights
# (see _make_term_fn).
_PERIOD_TABLE_MAX = 1 << 20
# Tables indexed by k = i*_TABLE_ROW + j are assembled from one value per row
# i and one per column j: the direct path's sines and cosines, and the
# periodic path's residues.
_TABLE_ROW = 1 << 8
# sin(pi y) ~ y * sum_i c_i (y^2)^i on [0, 1/2]: minimax in y^2 with the
# coefficients rounded to doubles one at a time (c_0 = fl(pi)), each later one
# refitted; _SINPI_ERR is its proven relative error (see _sinpi).
_SINPI_COEFFS = (
    3.141592653589793,
    -5.167712780049823,
    2.5501640398634895,
    -0.5992645288562669,
    0.08214587911988085,
    -0.007370365912127231,
    0.00046599122654690967,
    -2.1138095589715847e-05,
)
_SINPI_ERR = 1.0e-15
# Fractional bits of the fixed-point sines and cosines behind the direct
# weights (see _sincospi and _rotation).
_SCALAR_BITS = 160
# Absolute error of a direct weight against |sin(pi n num/den)| (derived in
# _make_term_fn).
_WEIGHT_ERR = 9.7e-16
# Integers n below this have n + 1/2 exact in float64 (see _masses).
_HALF_EXACT = 2 ** 52

# Relative error of a class weight of the periodic path (see _class_weights).
_CLASS_WEIGHT_ERR = 2.0e-15
# Assumed error of np.log1p and np.expm1: one ulp, a relative 2u (see
# _power_integral; the test suite samples both against mpmath).
_LIBM_ERR = 2.0 ** -52
# A class sum of at most _EM_MIN terms adds them one by one, _EM_HEAD at a
# time; a longer one adds its first _EM_HEAD terms one by one and the rest by
# Euler-Maclaurin with _EM_ORDER correction terms (see _class_sums).  Past
# about 30 terms the Euler-Maclaurin tail, a few dozen passes over the
# classes, costs less than the terms it replaces.
_EM_MIN = 32
_EM_HEAD = 8
_EM_ORDER = 12
# Classes per block of the periodic path.
_CLASS_BLOCK = 1 << 14
_HEAD_STEPS = np.arange(_EM_HEAD, dtype=np.float64)[:, None]
# The Bernoulli numbers B_2, B_4, ..., B_24.
_BERNOULLI = tuple(
    Fraction(n, d)
    for n, d in (
        (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
        (-3617, 510), (43867, 798), (-174611, 330), (854513, 138), (-236364091, 2730),
    )
)


@dataclass(frozen=True)
class PartialSumResult:
    value: float
    rounding_bound: float
    terms: int
    mode: str


@dataclass(frozen=True)
class DriftPrediction:
    """Predicted secular term of S(a/q; M, N) for even q, and an allowance
    that bounds the true sum's distance from it (see drift_predict).

    (-1)^n |sin(pi n a/q)| sums to -tan(pi/2q) over every period, so the
    drift is negative wherever the window starts.
    """

    magnitude: float
    sign: int
    error_allowance: float

    @property
    def predicted(self) -> float:
        return self.sign * self.magnitude


@dataclass(frozen=True)
class TraceRow:
    m: int
    value: float
    rounding_bound: float


@dataclass(frozen=True)
class SumTrace:
    rows: Tuple[TraceRow, ...]
    final: PartialSumResult


def _require_range(N: int, M: int, max_terms: int) -> None:
    if N < 0 or M < 1:
        raise ValueError("need N >= 0 and M >= 1")
    if N + M > max_terms:
        raise TermLimitError(
            f"N + M = {N + M} exceeds the configured term limit {max_terms}"
        )
    if N + M > _MAX_INDEX:
        raise TermLimitError(
            f"N + M = {N + M} exceeds 2^53 = {_MAX_INDEX}: past it neither n nor "
            "float(lo), the start of each row of n, is exact in float64"
        )


def _apply_signs(terms: np.ndarray, lo: int) -> np.ndarray:
    """Multiply by (-1)^n for n = lo, lo+1, ...: negate the odd-n positions."""
    odd = terms[(lo + 1) & 1 :: 2]
    np.negative(odd, out=odd)
    return terms


def _sinpi(y: np.ndarray) -> np.ndarray:
    """sin(pi*y) for y in [0, 1/2], in a new array.

    The value is P(y) = y*Q(y^2) with Q(t) = sum_{i<=7} c_i t^i and the
    double coefficients c_i of _SINPI_COEFFS, evaluated by Horner in
    t = fl(y*y).  For every such y the result s satisfies

        |s - sin(pi y)| <= _SINPI_ERR * sin(pi y) <= _SINPI_ERR = 1e-15,

    a relative bound, hence also an absolute one.  Derivation, with
    g(t) = sin(pi sqrt(t))/sqrt(t), so sin(pi y) = y*g(y^2), and g >= 2 on
    [0, 1/4] because sin(pi y) >= 2y on [0, 1/2] (concavity):

    * Approximation: |P(y) - sin(pi y)| / sin(pi y) = |Q(t) - g(t)| / g(t)
      <= max|Q - g| / 2 <= 1.9e-16; max|Q - g| over [0, 1/4] is bounded by
      3.8e-16 in exact arithmetic (the test suite re-derives it).
    * Rounding (Higham, Accuracy and Stability of Numerical Algorithms,
      ch. 3 and 5): c_i reaches the result through i roundings in t^i, 2i+1
      in the Horner steps from its own addition on, and one in the final
      product with y, so |s - P(y)| <= sum_i gamma_{3i+2} |c_i| y^(2i+1),
      gamma_n = n u / (1 - n u), u = 2^-53.  Dividing by sin(pi y) >= 2y and
      using y <= 1/2 gives the relative bound
      sum_i gamma_{3i+2} |c_i| 2^-(2i+1) <= 7.9e-16.
    * The two sum to at most 9.8e-16 <= 1e-15; the margin also covers the
      roundings of the bound arithmetic itself.  The analysis assumes no
      underflow, which needs y < 2^-511: there Q(t) evaluates to c_0
      exactly and s = fl(c_0 y), within 2^-52 of pi y relatively as long
      as c_0 y is normal, and within 2^-1074 absolutely otherwise.
    """
    c = _SINPI_COEFFS
    z = np.multiply(y, y)
    out = np.multiply(z, c[-1])
    for ci in c[-2:0:-1]:
        out += ci
        out *= z
    out += c[0]
    out *= y
    return out


def _reduced_args(num: int, den: int, start: int, length: int) -> np.ndarray:
    """y = min(r, den - r)/den, correctly rounded to a double, for the
    residues r = (start + k*num) mod den, k < length: the distance of r/den
    to the nearest integer, so sin(pi r/den) = sin(pi y) with y in [0, 1/2].

    For den <= 2^53, r is the sum of the residues of start + i*_TABLE_ROW*num
    and j*num, k = i*_TABLE_ROW + j, each exact in float64, so only a few
    hundred residues come from Python ints.  With the first less den, the
    sum is r - den, an integer in [-den, den) and so exact; its magnitude t
    is den - r for r < den and r mod den otherwise, and min(t, den - t) is
    min(r, den - r) with r reduced mod den.  One IEEE division rounds each
    quotient correctly.  A larger den is a periodic
    sum's q > 2^53 > N + M, so the window is shorter than q and no class
    repeats: the residue steps by num with one conditional subtraction, and
    each quotient is one correctly rounded division of Python ints.
    """
    if den > _MAX_INDEX:
        num, r, half = num % den, start % den, den >> 1
        quotients = []
        for _ in range(length):
            quotients.append((r if r <= half else den - r) / den)
            r += num
            if r >= den:
                r -= den
        return np.array(quotients, np.float64)
    rows = -(-length // _TABLE_ROW)
    r_row = np.array([(start + i * _TABLE_ROW * num) % den - den for i in range(rows)], np.float64)
    r_col = (np.arange(_TABLE_ROW, dtype=np.int64) * num % den).astype(np.float64)
    r = np.add.outer(r_row, r_col).ravel()[:length]
    np.abs(r, out=r)
    np.minimum(r, den - r, out=r)
    return np.divide(r, den, out=r)


def _sincospi(r: int, den: int) -> Tuple[int, int]:
    """sin(pi r/den) and cos(pi r/den) for integers r and den > 0, in fixed
    point with _SCALAR_BITS = 160 fractional bits, each within 2^7 units
    (2^-153) of its exact value.

    With r = t + m*den and t in [-den/2, den/2], the angle pi |t|/den lies in
    [0, pi/2], and x = pi |t|/den or pi/2 - pi |t|/den = pi (den - 2|t|)/(2 den),
    whichever is at most pi/4, gives the pair (sin, cos) or (cos, sin); t's
    sign goes to the sine, and an odd m turns both signs.  x is taken in
    fixed point within 1.5 units (from floor(pi 2^160) and one floor
    division).  The terms x^n/n! follow one from the next by a product, a
    shift and a division by n, each floored, and are summed into the two
    Taylor series until one vanishes, which takes at most 38 terms.  A term
    is within 2 units of x^n/n! for the computed x (its two floors cost
    1 + 1/n, and the error of the term before shrinks by x/n <= pi/4), the
    tail from the vanishing term on is below 4 units, and the 1.5 units of
    x move each sum by at most 1.5 e^x < 3.3: under 38*2 + 4 + 3.3 < 2^7.
    """
    t = r % den
    if 2 * t > den:
        t -= den
    swap = 4 * abs(t) > den
    one = 1 << _SCALAR_BITS
    if swap:
        x = _pi_floor(_SCALAR_BITS) * (den - 2 * abs(t)) // (2 * den)
    else:
        x = _pi_floor(_SCALAR_BITS) * abs(t) // den
    sums = [one, 0]  # cos x, sin x
    term, n = one, 0
    while term:
        n += 1
        term = (term * x >> _SCALAR_BITS) // n
        sums[n & 1] += -term if n & 2 else term
    cos_v, sin_v = sums[swap], sums[not swap]
    if t < 0:
        sin_v = -sin_v
    if (r - t) // den % 2:
        sin_v, cos_v = -sin_v, -cos_v
    return sin_v, cos_v


def _rotation(r0: int, step: int, den: int, count: int) -> np.ndarray:
    """The pairs (sin, cos) of pi (r0 + k*step)/den for k < count, as rows
    of a float64 array, each entry within 2^-88 of its exact value before
    its one rounding to a double, for every count up to 2^38 + 1.

    The pairs of r0 and of step come from _sincospi, each entry within
    2^-153.  Each next pair is the one before rotated by the step's,
    (s, c) -> (s c_1 + c s_1, c c_1 - s s_1), each exact sum of products
    floored to _SCALAR_BITS = 160 bits.  As vectors in the plane, with v_k
    the computed pair and w_k the exact one: the computed step acts as
    R + D, R the exact rotation and D a multiple of a rotation with
    |D| <= sqrt(2) 2^-153, and the floors add under sqrt(2) 2^-160, so

        |v_{k+1} - w_{k+1}| <= |v_k - w_k| + |D| |v_k| + sqrt(2) 2^-160.

    While |v_k - w_k| <= 1, |v_k| <= 2 and each step adds under 2^-151, as
    the start does: |v_K - w_K| < (K + 1) 2^-151, below 2^-112 for every
    K <= 2^38, the most grid points that a window ending at 2^53 has.  Each
    entry then rounds once: float() of a Python integer is correctly
    rounded, and the scaling by 2^-160 is exact.
    """
    s, c = _sincospi(r0, den)
    s1, c1 = _sincospi(step, den)
    entries = []
    append = entries.append
    for _ in range(count):
        append(s)
        append(c)
        s, c = (s * c1 + c * s1) >> _SCALAR_BITS, (c * c1 - s * s1) >> _SCALAR_BITS
    pairs = np.fromiter(map(float, entries), np.float64, 2 * count).reshape(count, 2)
    return pairs * 2.0 ** -_SCALAR_BITS


def _root(f: FDescriptor, n_max: int) -> Tuple[Callable[[np.ndarray], np.ndarray], float]:
    """The in-place map n -> n^p on float64 rows of 0 < n <= n_max, and the
    relative error bound of the values it writes.

    p = 1 leaves n as it is, exactly, and p = 1/2 is np.sqrt, correctly
    rounded: u = 2^-53.  Other p call np.power with the double fl(p), whose
    result is assumed within one ulp of n^fl(p): a relative 2u (the test
    suite samples it against mpmath).  A p that is no double adds the factor
    exp(|p - fl(p)| ln n) between n^fl(p) and n^p, to first order
    |p - fl(p)| ln(n_max).
    """
    if f.p == 1:
        return (lambda nf: nf), 0.0
    if f.p == Fraction(1, 2):
        return (lambda nf: np.sqrt(nf, out=nf)), _U
    p = float(f.p)
    return (lambda nf: np.power(nf, p, out=nf)), 2 * _U + _p_err(f, n_max)


def _power(f: FDescriptor, n_max: int) -> Tuple[Callable[[np.ndarray], np.ndarray], float]:
    """The in-place map n -> f(n) = n^-p on float64 rows of 0 < n <= n_max,
    and the relative error bound of the values it writes.

    p = 1 and p = 1/2 divide 1 by _root's n^p: one or two correctly rounded
    steps, u and 2u with u = 2^-53.  Other p call np.power with the double
    -fl(p), whose result is assumed within one ulp of n^-fl(p), a relative
    2u (against mpmath, on 40 000 sampled n for each of p = 1/4, 1/3 and
    3/4, the largest error seen was 0.68 ulp, numpy 2.4 on x86-64), plus
    _root's |p - fl(p)| ln(n_max) for a p that is no double.
    """
    if f.p == 1 or f.p == Fraction(1, 2):
        root, root_err = _root(f, n_max)
        return (lambda nf: np.divide(1.0, root(nf), out=nf)), root_err + _U
    neg_p = -float(f.p)
    return (lambda nf: np.power(nf, neg_p, out=nf)), 2 * _U + _p_err(f, n_max)


def _p_err(f: FDescriptor, n_max: int) -> float:
    """|p - fl(p)| ln(n_max): to first order, the relative gap between n^-p
    and n^-fl(p) for every n <= n_max (0 when p is a double)."""
    return float(abs(f.p + Fraction(-float(f.p)))) * math.log(n_max)


def _make_term_fn(
    source: RealSource, f: FDescriptor, N: int, M: int
) -> Tuple[Callable[[int, int], np.ndarray], float]:
    """Build the evaluator of the terms with n in [lo, hi), hi - lo <= _BATCH;
    returns it plus the per-term error coefficient, which multiplies f(n) in
    the bound (_chunk_bound adds the rounding of the division and of the
    summation).  The evaluator returns the terms as a view of its own two
    work rows, allocated once here, valid until this evaluator's next call.

    alpha mod 1 is taken exactly as num/den: a/q for a rational, the
    enclosure midpoint (lo_m + hi_m) 2^-(exp+1) otherwise, whose distance to
    alpha moves n*alpha by at most arg_err = (N + M)(hi_m - lo_m) 2^-(exp+1)
    and the weight by at most pi*arg_err.  Each n is
    written as g + k with g on the grid N + 1 + j*_BATCH.  With
    T = k*num/den and B = g*num/den (an integer added to either only flips
    the sign that |.| drops), the weight |sin(pi n num/den)| is |a + b| with
    a = sin(pi T) cos(pi B) and b = cos(pi T) sin(pi B).  Every sine and
    cosine comes from _rotation, all before the first batch: those of pi B
    at each grid point, and those of pi R_i and pi G_j, with
    R_i = i*_TABLE_ROW*num/den and G_j = j*num/den, for at most 128 rows
    and _TABLE_ROW columns.  For k = i*_TABLE_ROW + j < min(M, _BATCH), one
    more angle addition gives the tables of sin(pi T) and cos(pi T),
    S[k] = fl(fl(s_i c_j) + fl(c_i s_j)) and C[k] = fl(fl(c_i c_j) - fl(s_i s_j)),
    with (s_i, c_i) the scalars of R_i and (s_j, c_j) those of G_j.  A batch
    computes the weight w = |fl(fl(S cos(pi B)) + fl(C sin(pi B)))| and the
    term fl((-1)^n w / r), r = n^p from _root, which is (-1)^n fl(w / r)
    since IEEE division is symmetric in sign.  Its error, with u = 2^-53
    and to first order in u:

    * Each scalar: within 2^-88 before one rounding (relative u).
    * S and C: with P1 and P2 the two exact products, the four roundings
      (two scalars, the product, the sum) cost 4u (|P1| + |P2|), and the
      scalars' 2^-88 at most (|s_i| + |c_i| + |s_j| + |c_j|) 2^-88
      <= 2 sqrt(2) 2^-88 < 2^-86.  |P1| + |P2| is the largest of
      |sin pi(R_i + G_j)| and |sin pi(R_i - G_j)| for S, of the cosines
      for C, so at most 1: each entry is within 4u + 2^-86.
    * The weight: the entries' errors reach it times |cos(pi B)| and
      |sin(pi B)|, whose sum is at most sqrt(2); the grid scalars' 2^-88
      times |S| + |C| <= sqrt(2); and the roundings of the grid scalars,
      the two products and the sum, u each, relative to |a|, |b| and
      |a| + |b| = max(|sin pi(T + B)|, |sin pi(T - B)|) <= 1.
    * The division: r is n^p within _root's relative error, so w / r is
      within that much of w f(n), and the division rounds once more (u).
      For p = 1 (r = n, exact) and p = 1/2 (r = fl(sqrt(n))) every step is
      a correctly rounded IEEE operation, so nothing here rests on a
      library's accuracy.

    So the weight is within (4 sqrt(2) + 3) u + sqrt(2) (2^-86 + 2^-88)
    = 9.611e-16 of its value; the second-order terms are below 1e-29, so
    _WEIGHT_ERR = 9.7e-16 covers it, and the term is within
    (_WEIGHT_ERR + root_err + u) f(n).  The bound is absolute only, unlike
    _sinpi's relative one, which the direct bound does not need.  A
    term depends on n alone for given (source, N, M).

    A rational a/q with 2 (q + _BATCH) <= M and q + _BATCH <= _PERIOD_TABLE_MAX
    (8 MiB of doubles) takes a table instead, chosen by q and M alone.  The
    signed weights (-1)^n w_n of n = N+1 .. N+q come from the weights above
    in batches, once; since w_(n+q) = |sin(pi n a/q + pi a)| = w_n exactly,
    the entries past q are copies of those times (-1)^q, in a few doubling
    steps, so no weight is computed twice and the table does not depend on
    how the window is later split among workers.  The term of n is
    fl(table[o + i] / r), o = (lo - N - 1) mod q, negated when q is odd and
    lo - N - 1 lies in an odd period.  Each entry is the computed weight of
    some n' = n mod q, within _WEIGHT_ERR of |sin(pi n' a/q)| = |sin(pi n a/q)|,
    and a negation is exact, so the per-term coefficient is unchanged.
    """
    if source.kind is Kind.RATIONAL:
        num, den, arg_err = source.a % source.q, source.q, 0.0
    else:
        interval = source.approximate((N + M).bit_length() + 64)
        den = 1 << (interval.exp + 1)
        num = (interval.lo_m + interval.hi_m) % den
        arg_err = (N + M) * (interval.hi_m - interval.lo_m) / (1 << (interval.exp + 1))
    tabled = source.kind is Kind.RATIONAL and 2 * (den + _BATCH) <= M and den + _BATCH <= _PERIOD_TABLE_MAX
    span = den if tabled else M  # the n - N whose weights are computed
    length = min(span, _BATCH)
    rows = np.empty((2, _BATCH))  # this evaluator's work rows
    sin_i, cos_i = _rotation(0, _TABLE_ROW * num, den, -(-length // _TABLE_ROW)).T
    sin_j, cos_j = _rotation(0, num, den, min(length, _TABLE_ROW)).T
    product = rows[0, : len(sin_i) * len(sin_j)].reshape(len(sin_i), len(sin_j))
    sin_t = np.multiply.outer(sin_i, cos_j)
    sin_t += np.multiply.outer(cos_i, sin_j, out=product)
    cos_t = np.multiply.outer(cos_i, cos_j)
    cos_t -= np.multiply.outer(sin_i, sin_j, out=product)
    sin_t, cos_t = sin_t.ravel()[:length], cos_t.ravel()[:length]
    scalars = _rotation((N + 1) * num, _BATCH * num, den, -(-span // _BATCH)).tolist()
    root, root_err = _root(f, N + M)
    coeff = math.pi * arg_err + _WEIGHT_ERR + root_err

    def signed_weights(lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """Write the signed weights (-1)^n w_n of n in [lo, hi) into out and
        return it; each grid segment takes its scratch from the second row."""
        for g in range(lo - (lo - N - 1) % _BATCH, hi, _BATCH):
            a, b = max(lo, g), min(hi, g + _BATCH)
            sin_b, cos_b = scalars[(g - N - 1) // _BATCH]
            w, t = out[a - lo : b - lo], rows[1, : b - a]
            np.multiply(sin_t[a - g : b - g], cos_b, out=w)
            np.multiply(cos_t[a - g : b - g], sin_b, out=t)
            w += t
        np.abs(out, out=out)
        return _apply_signs(out, lo)

    if tabled:
        # The signed weights of the first period, n = N + 1 .. N + q, then
        # copies of them times (-1)^q per period, in doubling steps.
        table = np.empty(den + _BATCH)
        signed_weights(N + 1, N + 1 + den, table[:den])
        filled, sign = den, -1.0 if den & 1 else 1.0
        while filled < len(table):
            k = min(filled, len(table) - filled)
            np.multiply(table[:k], sign, out=table[filled : filled + k])
            filled, sign = filled + k, 1.0

    def batch(lo: int, hi: int) -> np.ndarray:
        k = hi - lo
        out, z = rows[:, :k]
        if tabled:
            period, o = divmod(lo - N - 1, den)
            signed, odd = table[o : o + k], den & period & 1
        else:
            signed, odd = signed_weights(lo, hi, out), 0
        np.divide(signed, root(np.add(_INDEX[:k], float(lo), out=z)), out=out)
        if odd:
            np.negative(out, out=out)
        return out

    return batch, coeff


@lru_cache(maxsize=None)
def _pairwise_depth(n: int) -> int:
    """The most roundings that any of n addends goes through in numpy's
    pairwise sum (np.add.reduce of a contiguous float64 row, which the test
    suite checks bit for bit against a model of it).  Below 8 addends it is
    a running sum from 0.0; up to 128, eight interleaved running sums added
    as a tree of depth 3, then the rest one at a time; above that, the sum
    of the two halves, the first cut to a multiple of 8, summed alike."""
    if n < 8:
        return max(n - 1, 0)
    if n <= 128:
        return n // 8 + 2 + n % 8
    half = n // 2 - n // 2 % 8
    return 1 + max(_pairwise_depth(half), _pairwise_depth(n - half))


def _masses(f: FDescriptor, firsts: Sequence[int], lasts: Sequence[int]) -> np.ndarray:
    """Upper bounds of sum_{a <= n <= b} n^-p, one per pair a = firsts[i],
    b = lasts[i] of integers with 1 <= a <= b <= 2^53 and b - a < _CHUNK.

    n^-p is convex and decreasing, so by Hermite-Hadamard it is at most its
    mean over [n - 1/2, n + 1/2], and the sum is at most
    a^-p + int_{a + 1/2}^{b + 1/2} t^-p dt: the first term is kept apart,
    as the integral over its own interval would overshoot it by 10% at
    a = 1.  Past 2^52 a half-integer is no double, so where b reaches 2^52
    the interval moves left by 1/2 to [a, b], which only raises the
    integral of a decreasing function and, as t^-p is nearly flat there,
    by under a relative 2^-52.  Either way both ends and their difference
    b - a are exact, as _power_integral needs.  The first terms come from
    _power within f_err, and the integral from _power_integral within its
    bound, at fl(p): a p that is no double moves it by at most
    p_err <= f_err relatively, over t <= max(lasts) + 1.  So the exact sum
    is at most (first + integral + bound)(1 + f_err) to first order; the
    two additions and the product round by at most 4u, and the factor
    1 + f_err + 8u covers them and every second-order term.
    """
    first = np.array(firsts, np.float64)
    last = np.array(lasts, np.float64)
    shift = np.where(last < _HALF_EXACT, 0.5, 0.0)
    lo, hi = first + shift, last + shift
    power, f_err = _power(f, max(lasts) + 1)
    integral, err = _power_integral(lo, hi, power(lo.copy()), power(hi.copy()), -float(f.p), f_err)
    return (power(first) + integral + err) * (1 + f_err + 8 * _U)


def _chunk_bound(mass: float, length: int, coeff: float) -> float:
    """Rounding bound of one pairwise sum of `length` terms, given mass, an
    upper bound of the sum of f(n) over them (from _masses).

    Each term is the rounded quotient x of a weight and n^p, within
    (coeff + u) f(n) of the exact term (see _make_term_fn), so the terms are
    within mass * (coeff + u) of the exact ones; the pairwise sum adds at
    most D u sum|x| <= D u mass, to first order, with
    D = _pairwise_depth(length) (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 4).  One more u * mass covers every
    second-order term and the arithmetic of this bound.
    """
    return mass * (coeff + (_pairwise_depth(length) + 2) * _U)


def _sum(
    source: RealSource, f: FDescriptor, N: int, M: int, cps: Sequence[int], workers: int
) -> SumTrace:
    """The one chunk loop behind the direct sum and the checkpoint scan.

    Chunks sit on the grid N + 1 + j*_CHUNK, fixed by N alone.  The window
    is split into one contiguous block of them per worker: as many as
    `workers` allows with at least _FORK_TERMS terms each, and one where
    os.fork is missing.  _run_blocks evaluates the blocks, two chunks per
    call of _make_term_fn's evaluator.  A checkpoint m (cps is ascending)
    inside a chunk reads that chunk's prefix: the sum of the terms up to
    n = N + m, added to the exact running sums of the whole chunks before
    it, so a row depends on neither the other checkpoints nor the worker
    count.  The bounds of the chunks and of the prefixes come from their
    masses, all from one _masses call before the first term.  The whole
    chunks are folded in index order, adding the sums and the bounds
    exactly, and their fold is the result.
    """
    term_fn, coeff = _make_term_fn(source, f, N, M)
    firsts = list(range(N + 1, N + M + 1, _CHUNK))
    lasts = [min(n + _CHUNK - 1, N + M) for n in firsts]
    chunks = len(firsts)
    firsts += [N + 1 + (m - 1) // _CHUNK * _CHUNK for m in cps]
    lasts += [N + m for m in cps]
    masses = _masses(f, firsts, lasts).tolist()
    bounds = [_chunk_bound(w, b - a + 1, coeff) for w, a, b in zip(masses, firsts, lasts)]
    prefix_bounds = dict(zip(cps, bounds[chunks:]))

    def eval_block(first: int, last: int) -> list:
        records = []  # (chunk sum, [(m, prefix sum) per checkpoint in the chunk])
        for start in range(first, last, _BATCH):
            stop = min(start + _BATCH, last)
            terms = term_fn(start, stop)
            for lo in range(start, stop, _CHUNK):
                hi = min(lo + _CHUNK, stop)
                in_chunk = cps[bisect_left(cps, lo - N) : bisect_right(cps, hi - 1 - N)]
                reads = [(m, float(np.sum(terms[lo - start : N + m + 1 - start]))) for m in in_chunk]
                records.append((float(np.sum(terms[lo - start : hi - start])), reads))
        return records

    nblocks = max(1, min(workers, M // _FORK_TERMS)) if hasattr(os, "fork") else 1
    grid = [min(N + 1 + chunks * i // nblocks * _CHUNK, N + M + 1) for i in range(nblocks + 1)]
    records = _run_blocks(eval_block, grid)

    sums: List[float] = []  # the chunk sums so far, added exactly by math.fsum
    done: List[float] = []  # the chunk bounds so far
    rows: List[TraceRow] = []
    for (chunk_sum, reads), chunk_bound in zip(records, bounds[:chunks]):
        for m, s in reads:
            value = math.fsum(sums + [s])
            rows.append(TraceRow(m, value, math.fsum(done + [prefix_bounds[m]]) + 2 * _EPS * abs(value)))
        sums.append(chunk_sum)
        done.append(chunk_bound)
    value = math.fsum(sums)
    bound = math.fsum(done) + 2 * _EPS * abs(value)
    return SumTrace(tuple(rows), PartialSumResult(value, bound, terms=M, mode="direct"))


def _run_blocks(eval_block: Callable[[int, int], list], grid: Sequence[int]) -> list:
    """The records of eval_block over the blocks [grid[i], grid[i+1]), in
    index order: the first block in this process and each other in a forked
    child, so that the blocks run on separate CPUs, never waiting on one
    interpreter lock.

    A child inherits eval_block and its tables from the fork, computes its
    block, writes the records to a pipe by marshal, which keeps every float
    bit for bit, and ends with os._exit (see _serve_block).  The parent
    reads each pipe to its end, then reaps that child.  A child that fails
    raises RuntimeError here with its reason; on that and every other error
    path, the children not yet reaped are killed and reaped before the
    exception leaves, so no child outlives the call.  A child runs only
    numpy's elementwise kernels and reductions and objects this thread made:
    nothing takes a lock that another thread of the parent, such as numpy's
    idle BLAS pool, could hold at the fork.  (Python 3.12 and later warn
    about any fork of a process with threads, by a DeprecationWarning that
    is hidden by default.)
    """
    children: List[Tuple[int, BinaryIO]] = []  # (pid, read end of its pipe)
    try:
        for first, last in zip(grid[1:-1], grid[2:]):
            read, write = os.pipe()
            pipe = open(read, "rb")
            with open(write, "wb") as out:  # the parent's copy closes after the fork
                try:
                    pid = os.fork()
                except BaseException:
                    pipe.close()
                    raise
                if pid == 0:
                    _serve_block(eval_block, first, last, out)
            children.append((pid, pipe))
        records = eval_block(grid[0], grid[1])
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if status:
                reason = marshal.loads(data) if data else f"status {os.waitstatus_to_exitcode(status)}"
                raise RuntimeError(f"a sum worker failed: {reason}")
            records += marshal.loads(data)
        return records
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _serve_block(eval_block: Callable[[int, int], list], first: int, last: int, out: BinaryIO) -> None:
    """In a forked child: write the marshalled records of eval_block(first,
    last), or on an exception its text, to out, and end the process with
    status 0 or 1.  It never returns, so the child never runs its parent's
    code past the fork, whatever is raised."""
    code = 1
    try:
        try:
            data, code = marshal.dumps(eval_block(first, last)), 0
        except Exception as exc:
            data = marshal.dumps(f"{type(exc).__name__}: {exc}")
        out.write(data)
        out.flush()
    finally:
        os._exit(code)


def partial_sum_direct(
    source: RealSource,
    f: FDescriptor,
    N: int,
    M: int,
    *,
    max_terms: int = DEFAULT_MAX_TERMS,
    workers: int = 1,
) -> PartialSumResult:
    """Sum the M terms after index N straight from an enclosure of alpha.

    The result is deterministic for fixed inputs regardless of `workers`:
    chunk boundaries do not depend on it, each worker process takes a
    contiguous block of chunks, and the chunk sums are always combined in
    index order with exact accumulation.  More workers only split a window
    of at least 2^21 terms (see _sum).
    """
    _require_range(N, M, max_terms)
    return _sum(source, f, N, M, [], workers).final


def _class_weights(a: int, q: int, n0: int, length: int) -> np.ndarray:
    """|sin(pi n a/q)| for n = n0, ..., n0 + length - 1: exactly 0 where q
    divides n, and otherwise within a relative _CLASS_WEIGHT_ERR = 2e-15.

    With k = a n mod q, a weight is _sinpi(min(k, q - k)/q), the
    argument from _reduced_args: the quotient is correctly rounded (relative
    error at most 2^-53, which moves sin(pi y) by at most that relatively,
    since pi y cot(pi y) <= 1 on (0, 1/2]), and the polynomial adds a
    relative 1e-15.  y = 0 exactly when k = 0, and the polynomial maps it
    to 0.
    """
    return _sinpi(_reduced_args(a % q, q, a * n0 % q, length))


@lru_cache(maxsize=None)
def _em_coeffs(p: float, order: int) -> Tuple[Tuple[float, ...], float, float]:
    """The Euler-Maclaurin coefficients b_j = B_2j/(2j)! * p(p+1)...(p+2j-2),
    j = 1, ..., order, each the correctly rounded double of its exact value
    for the double p; and, with K = _EM_HEAD and J = order, the constants
    sum_j |b_j| K^(2-2j) and |b_J| K^(2-2J), rounded up, by which r < 1/K
    turns sum_j |b_j| r^(2j-1) and |b_J| r^(2J-1) into multiples of r."""
    coeffs, rising, x = [], Fraction(p), Fraction(p)
    for j, bernoulli in enumerate(_BERNOULLI[:order], 1):
        coeffs.append(bernoulli / math.factorial(2 * j) * rising)
        rising *= (x + 2 * j - 1) * (x + 2 * j)
    scale = [Fraction(1, _EM_HEAD ** (2 * j)) for j in range(order)]
    total = sum(abs(b) * s for b, s in zip(coeffs, scale))
    return (
        tuple(float(b) for b in coeffs),
        float(total) * (1 + 4 * _U),
        float(abs(coeffs[-1]) * scale[-1]) * (1 + 4 * _U),
    )


def _power_integral(
    lo: np.ndarray, hi: np.ndarray, lo_f: np.ndarray, hi_f: np.ndarray, neg_p: float, f_err: float
) -> Tuple[np.ndarray, np.ndarray]:
    """The integral of t^neg_p over [lo, hi] elementwise, and bounds of the
    errors of the values returned.

    lo and hi are float64 rows with 1 <= lo <= hi whose differences
    hi - lo are exact (integers up to 2^53, or the ends of _masses), and
    lo_f, hi_f hold lo^neg_p and hi^neg_p within a relative f_err.
    ell = log1p((hi - lo)/lo) is ln(hi/lo) within a relative u + _LIBM_ERR:
    the quotient rounds once, and log1p's condition number
    t/((1 + t) log1p t) is at most 1.  For neg_p = -1 the integral is ell.
    Otherwise, with c = fl(1 + neg_p) (within u of 1 - p) and x = fl(c ell),
    it is (hi^c - lo^c)/c, evaluated two ways, to first order in u:

    * expm1 form, lo lo_f expm1(x)/c, in which nothing cancels: lo_f, the
      two products, the division and c in it cost f_err + 4u, expm1 its
      _LIBM_ERR, and the relative error of x (u + _LIBM_ERR from ell, u
      from the product, u from c) is multiplied by expm1's condition number
      x e^x/(e^x - 1) <= 1 + x.
    * difference form, (hi hi_f - lo lo_f)/c: each product is within
      f_err + u of hi^c or lo^c, and the subtraction, c and the division
      add u each relative to the value.  Once hi^c/lo^c is far from 1 this
      is the tighter: the expm1 bound grows with x, this one falls to
      f_err + 4u.

    Each element takes the form with the smaller bound.
    """
    ell = np.log1p((hi - lo) / lo)
    if neg_p == -1.0:
        return ell, ell * (_U + _LIBM_ERR)
    c = 1.0 + neg_p
    x = c * ell
    lo_c, hi_c = lo * lo_f, hi * hi_f
    by_expm1 = lo_c * np.expm1(x) / c
    expm1_err = by_expm1 * (f_err + 4 * _U + _LIBM_ERR + (1 + x) * (3 * _U + _LIBM_ERR))
    by_diff = (hi_c - lo_c) / c
    diff_err = (f_err + _U) * (hi_c + lo_c) / c + 3 * _U * np.abs(by_diff)
    pick = expm1_err <= diff_err
    return np.where(pick, by_expm1, by_diff), np.where(pick, expm1_err, diff_err)


def _em_tail(
    n: np.ndarray, cnt: int, step: float, f: FDescriptor, n_max: int
) -> Tuple[np.ndarray, np.ndarray]:
    """sum_{_EM_HEAD <= k < cnt} (n + k step)^-p per class by
    Euler-Maclaurin, for cnt > _EM_HEAD + 1 and the conditions of
    _class_sums, and bounds of the absolute errors of the values returned.

    The terms are sum_{i <= m} h(i) with h(x) = (A + step x)^-p,
    A = n + _EM_HEAD step, m = cnt - 1 - _EM_HEAD, B = A + m step.  With
    alpha = A^-p, beta = B^-p, r_A = step/A and r_B = step/B,
    Euler-Maclaurin (DLMF 2.10.1; Apostol, "An elementary view of Euler's
    summation formula", Amer. Math. Monthly 106 (1999)) gives

        sum = (1/step) int_A^B t^-p dt + (alpha + beta)/2
              + sum_{j <= J} b_j (alpha r_A^(2j-1) - beta r_B^(2j-1)) + R,

    J = _EM_ORDER = 12, b_j from _em_coeffs, since
    h^(2j-1)(x) = -p(p+1)...(p+2j-2) step^(2j-1) (A + step x)^(-p-2j+1).
    h is completely monotone, so h^(2J) > 0 and, as |B~_2J(x)| <= |B_2J|,
    |R| <= |B_2J|/(2J)! int |h^(2J)| = 2 zeta(2J)/(2 pi)^(2J)
    |h^(2J-1)(m) - h^(2J-1)(0)| <= |b_J| alpha r_A^(2J-1).  As
    r_B <= r_A < 1/8, that is below |b_J| 8^(2-2J) alpha r_A < 7e-18 alpha
    for p <= 1, under 0.01 u of the class sum.  The corrections are
    alpha r_A P(r_A^2) - beta r_B P(r_B^2), P(y) = sum_j b_j y^(j-1) by
    Horner.  The error, to first order in u:

    * the integral: _power_integral's bound over step, plus u for that
      division;
    * the halves: f_err + u of (alpha + beta)/2;
    * the corrections: alpha r_A carries f_err + 2u, r_A^2 3u, which
      y^(j-1) turns into 3(j-1)u, Horner adds 2(J-1)u (Higham, ch. 5) and
      the rounded b_j u, and the product and the difference u each: within
      (f_err + 5J u) mag, mag = sum_j |b_j| (alpha r_A^(2j-1) + beta
      r_B^(2j-1)) <= sum_j |b_j| 8^(2-2j) (alpha r_A + beta r_B);
    * R, within |b_J| 8^(2-2J) alpha r_A;
    * the additions halves + corrections and + integral, u each of their
      results;
    * the tail is evaluated at the double fl(p): p_err times the tail.
    """
    power, f_err = _power(f, n_max)
    lo = n + _EM_HEAD * step
    hi = lo + (cnt - 1 - _EM_HEAD) * step
    lo_f, hi_f = power(lo.copy()), power(hi.copy())
    integral, integral_err = _power_integral(lo, hi, lo_f, hi_f, -float(f.p), f_err)
    integral /= step
    half = (lo_f + hi_f) * 0.5
    r_lo, r_hi = step / lo, step / hi
    t_lo, t_hi = lo_f * r_lo, hi_f * r_hi
    coeffs, mag_coeff, rem_coeff = _em_coeffs(float(f.p), _EM_ORDER)
    sq_lo, sq_hi = r_lo * r_lo, r_hi * r_hi
    poly_lo, poly_hi = np.full_like(lo, coeffs[-1]), np.full_like(lo, coeffs[-1])
    for b in coeffs[-2::-1]:
        poly_lo *= sq_lo
        poly_lo += b
        poly_hi *= sq_hi
        poly_hi += b
    rest = half + (t_lo * poly_lo - t_hi * poly_hi)
    tail = integral + rest
    return tail, (
        integral_err / step
        + _U * integral
        + (f_err + _U) * half
        + (f_err + 5 * _EM_ORDER * _U) * mag_coeff * (t_lo + t_hi)
        + rem_coeff * t_lo
        + _U * (np.abs(rest) + tail)
        + _p_err(f, n_max) * tail
    )


def _class_sums(
    n: np.ndarray, cnt: int, step: float, f: FDescriptor, n_max: int
) -> Tuple[np.ndarray, Union[float, np.ndarray]]:
    """T = sum_{k < cnt} (n + k step)^-p per class, for a float64 row n of
    first indices, each class of cnt >= 1 terms, n + (cnt - 1) step <=
    n_max <= 2^53; and bounds of the relative errors of the values returned,
    one float for every class when cnt <= _EM_MIN.  Cost and memory are
    O(len(n)), whatever cnt.  f(n) comes from _power, within a relative
    f_err.

    The head, all cnt terms when cnt <= _EM_MIN = 32 and the first
    _EM_HEAD = 8 otherwise, is evaluated term by term, 8 rows at a time.
    Within a group of h rows the last half is added onto the first until
    one row is left, ceil(log2 h) <= 3 additions per term, and the groups
    are added in turn: each term goes through at most
    ceil(log2 min(h, 8)) + ceil(h/8) - 1 additions, so the head is within
    f_err plus that many u relatively.  The rest comes from _em_tail with
    its bound, _CLASS_BLOCK/4 classes at a time so that its few dozen
    temporaries stay small, and head + tail rounds once more: u of the
    result.
    """
    power, f_err = _power(f, n_max)
    head = cnt if cnt <= _EM_MIN else _EM_HEAD
    group, total = np.empty((min(head, _EM_HEAD), len(n))), None
    for k0 in range(0, head, _EM_HEAD):
        rows = group[: head - k0]
        power(np.add(n, step * (k0 + _HEAD_STEPS[: len(rows)]), out=rows))
        while len(rows) > 1:
            half = len(rows) // 2
            rows[:half] += rows[-half:]
            rows = rows[:-half]
        if total is None:  # the next group overwrites rows
            total = rows[0] if head <= _EM_HEAD else rows[0].copy()
        else:
            total += rows[0]
    rel = f_err + ((min(head, _EM_HEAD) - 1).bit_length() + (head - 1) // _EM_HEAD) * _U
    if head == cnt:
        return total, rel
    err = total * rel
    for i in range(0, len(n), _CLASS_BLOCK // 4):
        part = slice(i, i + _CLASS_BLOCK // 4)
        tail, tail_err = _em_tail(n[part], cnt, step, f, n_max)
        total[part] += tail
        err[part] += tail_err + _U * total[part]
    return total, err / total


def _split_sum(x: np.ndarray, s: float) -> Tuple[float, float]:
    """Two floats whose exact sum is within 4e-10 u s of the exact sum of
    x, a float64 row of at most 2^14 entries with sum |x_j| <= 2s; x is
    overwritten.

    After Rump, Ogita and Oishi, "Accurate floating-point summation part I",
    SIAM J. Sci. Comput. 31 (2008) (ExtractVector): sigma = 2^k is the power
    of 2 in (4s, 8s], so every sigma + x_j lies in [sigma/2, 3 sigma/2] and
    its rounding in [sigma/2, 2 sigma]; high_j = fl(sigma + x_j) - sigma is
    then exact (Sterbenz), a multiple of u sigma and within u sigma of x_j,
    and x_j - high_j is exact, the rounding error of that addition.  The
    high_j and their partial sums are multiples of u sigma, below
    2s + n u sigma < sigma in magnitude, so numpy adds them exactly in any
    order.  The rest, each at most u sigma, are summed with an error below
    D n u^2 sigma <= 8 D n u (u s), D = _pairwise_depth(n) <= 25: under
    4e-10 u s.
    """
    sigma = math.ldexp(1.0, math.frexp(s)[1] + 2)
    high = x + sigma
    high -= sigma
    x -= high
    return float(np.sum(high)), float(np.sum(x))


def partial_sum_periodic(
    a: int,
    q: int,
    f: FDescriptor,
    N: int,
    M: int,
    *,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> PartialSumResult:
    """S(a/q; M, N) as one weighted class sum per residue class: O(min(q, M))
    work whatever M, and memory for _CLASS_BLOCK classes at a time.

    (-1)^n |sin(pi n a/q)| depends on n mod L alone, L = q for even q and
    2q for odd q, so the window is the sum over its C = min(L, M) classes
    j < C, of first index n_j = N + 1 + j, of (-1)^(n_j) w_j T_j, with w_j
    from _class_weights and T_j the class sum of n^-p from _class_sums.
    With M = c L + e, 0 <= e < L, class j holds c + 1 terms for j < e and c
    for j >= e.  The classes of weight 0, where q divides n_j, are at most
    two, and the runs of equal count between them leave them out, so no f
    is evaluated for them.  For odd q, class j + q has the weight of class
    j and the opposite sign, so the weights of j < min(q, C) serve every
    class.  Each run is taken _CLASS_BLOCK classes at a time.

    A block's products x_j = fl(w_j T_j) are added by _split_sum, with s
    the computed sum of |w_j| T_j, a dot product within a relative
    n u <= 2^-39 of the exact one, so sum |x_j| <= 2s; the pairs of all
    blocks are combined by math.fsum, which rounds once.  The error, to
    first order in u:

    * each class: w_j times T_j's bound, plus w_j T_j times the weight's
      2e-15 and u for the product;
    * u of the result, from math.fsum;
    * one more u times sum w_j T_j covers every second-order term, the
      4e-10 u s of each _split_sum and the arithmetic of the bound itself.
    """
    if q < 1:
        raise ValueError("q must be positive")
    if math.gcd(a, q) != 1:
        raise ValueError("a/q must be in lowest terms")
    _require_range(N, M, max_terms)
    period = q if q % 2 == 0 else 2 * q
    classes = min(period, M)
    c, e = divmod(M, period)
    runs, start = [], 0  # (first, end, count) of the classes of nonzero weight
    for stop in [*range(-(N + 1) % q, classes, q), classes]:
        runs += [(start, min(stop, e), c + 1), (max(start, e), stop, c)]
        start = stop + 1
    parts, bound, magnitude = [], 0.0, 0.0
    width = min(q, classes)
    for j0 in range(0, width, _CLASS_BLOCK):
        w = _apply_signs(_class_weights(a, q, N + 1 + j0, min(_CLASS_BLOCK, width - j0)), N + 1 + j0)
        aw = np.abs(w)
        for shift in range(0, classes, q):  # and, for odd q, the classes q on
            sign = -1.0 if shift else 1.0
            for first, end, cnt in runs:
                lo, hi = max(first, j0 + shift), min(end, j0 + shift + len(w))
                if lo >= hi:
                    continue
                part = slice(lo - j0 - shift, hi - j0 - shift)
                total, rel = _class_sums(
                    float(N + 1 + lo) + _INDEX[: hi - lo], cnt, float(period), f, N + M
                )
                s = float(aw[part] @ total)
                parts += [sign * x for x in _split_sum(w[part] * total, s)]
                err = rel * s if np.isscalar(rel) else float((aw[part] * total) @ rel)
                bound += err + (_CLASS_WEIGHT_ERR + _U) * s
                magnitude += s
    value = math.fsum(parts)
    bound += _U * (magnitude + abs(value))
    return PartialSumResult(value, bound, terms=M, mode="periodic")


def geometric_checkpoints(M: int) -> List[int]:
    """Checkpoints ceil(M / 2^j), deduplicated, ascending, ending at M."""
    if M < 1:
        raise ValueError("M must be positive")
    cps = set()
    m = M
    while True:
        cps.add(m)
        if m == 1:
            break
        m = -(-m // 2)
    return sorted(cps)


def scan_partial_sums(
    source: RealSource,
    f: FDescriptor,
    N: int,
    M: int,
    checkpoints: Optional[Sequence[int]] = None,
    *,
    max_terms: int = DEFAULT_MAX_TERMS,
    workers: int = 1,
) -> SumTrace:
    """Single pass over the terms recording running sums at checkpoints.

    The chunk grid is partial_sum_direct's, fixed by N alone; a checkpoint
    inside a chunk reads the chunk's prefix.  So the final result equals
    partial_sum_direct over the same window bit for bit, and a row at m
    depends on neither `workers` nor the other checkpoints.
    """
    _require_range(N, M, max_terms)
    if checkpoints is None:
        cps = geometric_checkpoints(M)
    else:
        cps = sorted(set(int(c) for c in checkpoints))
        if cps and (cps[0] < 1 or cps[-1] > M):
            raise ValueError("checkpoints must lie in [1, M]")
    return _sum(source, f, N, M, cps, workers)


def drift_predict(
    a: int, q: int, f: FDescriptor, N: int, M: int, *, max_terms: int = DEFAULT_MAX_TERMS
) -> DriftPrediction:
    """Secular drift of S(a/q; M, N) for even q and any N >= 1: magnitude,
    sign, and an allowance that bounds |S - predicted|.

    a is odd, so n -> a n mod q permutes the residues and keeps the parity,
    and s_n w_n = (-1)^n |sin(pi n a/q)| has period q and sums over one
    period to sum_k (-1)^k sin(pi k/q) = Im 2/(1 + e^(i pi/q)) = -tan(pi/2q).
    So s_n w_n = mu + z_n with mu = -tan(pi/2q)/q and z of period q and
    mean 0, and S = mu sum f(n) + sum z_n f(n) over N < n <= N + M:

    * f decreases, so sum f(n) lies between F(N+M+1) - F(N+1) and
      F(N+M) - F(N), F' = f, and is within F(N+1) - F(N) <= f(N) of the
      latter: the prediction is mu (F(N+M) - F(N)), negative whatever N.
    * With Z_m = sum_{N < n <= N+m} z_n, Abel summation gives
      sum z_n f(n) = Z_M f(N+M) + sum_{m<M} Z_m (f(N+m) - f(N+m+1)), at
      most max|Z_m| f(N+1) as f decreases; Z has period q in m, so the
      max runs over m <= min(M, q), computed in blocks of _CHUNK.

    error_allowance = max|Z| f(N+1) + |mu| f(N) plus the rounding of the
    prediction, to first order in u:

    * Z: each z_n within 2e-15 (its weight) + 8u (mu's and its own
      rounding), and each partial sum through at most 2m roundings (the
      running sum within a block, and the carries of the blocks before),
      each within 2u times the largest |Z| seen;
    * F(N+M) - F(N) from _power_integral with its bound, and for a p that
      is no double p_err relatively, as it is evaluated at fl(p);
      |mu| is within 7u: fl(pi)/(2q) within 2u, tan's condition number
      at most pi/2 there, its own ulp, and the division by q;
    * every other factor is within a relative 2^-45 of its value, and the
      factor 1 + 2^-40 covers them and the arithmetic of the sum.
    """
    if q < 2 or q % 2 != 0:
        raise ValueError("drift law requires even q >= 2 (odd q stays bounded)")
    if math.gcd(a, q) != 1:
        raise ValueError("a/q must be in lowest terms")
    if N < 1:
        raise ValueError("N must be >= 1: the allowance needs f(N)")
    _require_range(N, M, max_terms)
    mu = math.tan(math.pi / (2 * q)) / q
    run, z_max, span = 0.0, 0.0, min(M, q)
    for j0 in range(0, span, _CHUNK):
        z = _apply_signs(_class_weights(a, q, N + 1 + j0, min(_CHUNK, span - j0)), N + 1 + j0)
        z += mu
        z = np.cumsum(z)
        z += run
        run, z_max = float(z[-1]), max(z_max, float(np.max(np.abs(z))))
    z_max += span * (_CLASS_WEIGHT_ERR + 8 * _U + 4 * _U * z_max)
    power, f_err = _power(f, N + M)
    f_n, f_next, f_end = power(np.array([N, N + 1, N + M], dtype=np.float64))
    integral, integral_err = _power_integral(
        np.array([N], np.float64), np.array([N + M], np.float64), f_n, f_end, -float(f.p), f_err
    )
    magnitude = mu * float(integral[0])
    rounding = mu * float(integral_err[0]) + magnitude * (8 * _U + _p_err(f, N + M))
    allowance = (z_max * f_next + mu * f_n + rounding) * (1 + 2.0 ** -40)
    return DriftPrediction(magnitude=magnitude, sign=-1, error_allowance=float(allowance))
