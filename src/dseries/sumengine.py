"""Numerical evaluation of the alternating sine-weighted partial sums.

S(alpha; M, N) = sum over n = N+1 .. N+M of (-1)^n f(n) |sin(n pi alpha)|.

The direct path writes alpha mod 1 exactly as num/den (a/q for a rational,
the certified enclosure midpoint otherwise) and splits each index as
n = g + k, with g on a grid of step 2^15 fixed by N.  By angle addition,
|sin(pi n alpha)| = |S[k] cos(pi B_g) + C[k] sin(pi B_g)|, where
S[k] = sin(pi T_k) and C[k] = cos(pi T_k) with T_k = k*num/den.  Every
sine and cosine there comes once per call from exact integers in fixed
point: those of each grid point, and those of a few hundred rows and
columns with k = row + column, from which one more angle addition builds
the two tables.  So a weight costs two products, an add and an abs, no
term is reduced modulo 1 on its own, no weight accumulates O(M) rounding
drift, and each is within 9.7e-16 of its exact value.  The periodic path
exploits a rational alpha = a/q instead: the weight of n depends on n mod q
alone, so it reads a table of one weight per residue class that occurs in
the window, from correctly rounded arguments through an odd polynomial
with a proven relative error bound.  Nothing depends on the platform's
sine.  Windows ending past 2^53 are refused, since n is then no longer
exact in float64.  Every sum (direct, periodic, checkpoint scan) runs
through one loop: terms are summed pairwise in chunks of 2^14 on the grid
N + 1 + j*2^14, fixed by N alone, and the chunk sums are added exactly, so
no result depends on the worker count.  A checkpoint inside a chunk reads
that chunk's prefix instead of cutting it, so a scan row does not depend on
the other checkpoints and a scan's final result is the direct sum.  Each
worker thread evaluates its contiguous block of chunks two at a time in its
own three reused work rows (768 KiB), so the kernel runs in cache and
allocates nothing per chunk.  Every result carries an explicit worst-case
rounding bound, whose summation part follows the depth of numpy's pairwise
summation tree.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

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
# never changes a term), and the step of the reduction grid: three float64
# work rows of 2^15 entries (768 KiB) stay in a 2 MiB L2 cache, and each
# ufunc call does enough work that two worker threads rarely wait on each
# other for the interpreter lock.
_BATCH = 2 * _CHUNK
_INDEX = np.arange(_BATCH, dtype=np.float64)
_BUFFERS = threading.local()
_MAX_INDEX = 2 ** 53  # largest window end whose indices are exact in float64
# Tables indexed by k = i*_TABLE_ROW + j are assembled from one value per row
# i and one per column j: the direct path's sines and cosines, and the
# periodic path's residues.
_TABLE_ROW = 1 << 8
# sin(pi y) ~ y * sum_i c_i (y^2)^i on [0, 1/2]: minimax in y^2 with the
# coefficients rounded to doubles one at a time (c_0 = fl(pi)), each later one
# refitted; _SINPI_ERR is its proven relative error (see _sinpi_into).
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
# Fractional bits of the fixed-point sine and cosine of a grid point.
_SCALAR_BITS = 96
# Absolute error of a direct weight against |sin(pi n num/den)| (derived in
# _make_term_fn).
_WEIGHT_ERR = 9.7e-16

# Allowance multiplier for the O(q f(N)) remainder of the drift law;
# calibrated against direct summation on the acceptance grid.
DRIFT_ALLOWANCE_FACTOR = 4.0


@dataclass(frozen=True)
class PartialSumResult:
    value: float
    rounding_bound: float
    terms: int
    mode: str


@dataclass(frozen=True)
class DriftPrediction:
    """Predicted secular term of S(a/q; M, N) for even q.

    The sign follows the numerically verified convention (-1)^(N+1): the
    weight pattern sums to -tan(pi/2q) over one period, so an even starting
    index N drives the sum negative.
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
            "float(lo), the start of each f(n) row, is exact in float64"
        )


def _work_buffers(k: int) -> np.ndarray:
    """The calling thread's three float64 work rows, cut to length k.

    Allocated once per thread and reused by every batch it evaluates, so a
    batch allocates nothing of its own size."""
    block = getattr(_BUFFERS, "block", None)
    if block is None:
        block = _BUFFERS.block = np.empty((3, _BATCH), dtype=np.float64)
    return block[:, :k]


def _apply_signs(terms: np.ndarray, lo: int) -> np.ndarray:
    """Multiply by (-1)^n for n = lo, lo+1, ...: negate the odd-n positions."""
    odd = terms[(lo + 1) & 1 :: 2]
    np.negative(odd, out=odd)
    return terms


def _sinpi_into(y: np.ndarray, out: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Write sin(pi*y) into out for y in [0, 1/2]; z is scratch of y's length.

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
    np.multiply(y, y, out=z)
    np.multiply(z, c[-1], out=out)
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

    For den <= 2^53, r is the sum of the exact int64 residues of
    start + i*_TABLE_ROW*num and j*num, k = i*_TABLE_ROW + j, reduced once,
    so only a few hundred residues come from Python ints, and one IEEE
    division rounds each quotient correctly.  A larger den is a periodic
    sum's q > 2^53 > N + M, so the window is shorter than q and no class
    repeats: each quotient is one correctly rounded division of Python ints.
    """
    if den > _MAX_INDEX:
        residues = ((start + k * num) % den for k in range(length))
        return np.fromiter((min(r, den - r) / den for r in residues), np.float64, length)
    rows = -(-length // _TABLE_ROW)
    r_row = [(start + i * _TABLE_ROW * num) % den for i in range(rows)]
    r_col = [j * num % den for j in range(_TABLE_ROW)]
    r = np.add.outer(np.array(r_row, np.int64), np.array(r_col, np.int64)).ravel()[:length]
    np.subtract(r, den, out=r, where=r >= den)
    return np.minimum(r, den - r) / float(den)


def _sincospi(r: int, den: int) -> Tuple[float, float]:
    """sin(pi r/den) and cos(pi r/den) for integers r and den > 0, each
    within 2^-88 of its exact value before its one rounding to a double.

    With r = t + m*den and t in [-den/2, den/2], the angle pi |t|/den lies in
    [0, pi/2], and x = pi |t|/den or pi/2 - pi |t|/den = pi (den - 2|t|)/(2 den),
    whichever is at most pi/4, gives the pair (sin, cos) or (cos, sin); t's
    sign goes to the sine, and an odd m turns both signs.  x is taken in
    fixed point with _SCALAR_BITS = 96 fractional bits, within 1.5 units
    (from floor(pi 2^96) and one floor division).  The terms x^n/n! follow
    one from the next by a product, a shift and a division by n, each
    floored, and are summed into the two Taylor series until one vanishes,
    which takes fewer than 30 terms.  A unit of error in x moves each sum by
    at most e^x < 2.2 units, each step's two floors cost two units that the
    later terms carry on with factors x/n, and the tail after the vanishing
    term is below 4 units: the error stays below 200 units, under 2^-88.
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
    cos_v, sin_v = sums[swap] / one, sums[not swap] / one
    flip = -1.0 if (r - t) // den % 2 else 1.0
    return flip * math.copysign(sin_v, t), flip * cos_v


def _power(f: FDescriptor, n_max: int) -> Tuple[Callable[[np.ndarray], np.ndarray], float]:
    """The in-place map n -> f(n) = n^-p on float64 rows of n <= n_max, and
    the relative error bound of the values it writes.

    p = 1 is one IEEE division, correctly rounded: u = 2^-53.  Other p call
    np.power with the double -fl(p), whose result is assumed within one ulp
    of n^-fl(p): a relative 2u.  (Against mpmath, on 40 000 sampled n for
    each of p = 1/4, 1/3, 1/2 and 3/4, the largest error seen was 0.68 ulp,
    numpy 2.4 on x86-64.)  A p that is no double adds the factor
    exp(|p - fl(p)| ln n) between n^-fl(p) and n^-p, to first order
    |p - fl(p)| ln(n_max).
    """
    if f.p == 1:
        return (lambda nf: np.divide(1.0, nf, out=nf)), _U
    neg_p = -float(f.p)
    p_err = float(abs(f.p + Fraction(neg_p))) * math.log(n_max)
    return (lambda nf: np.power(nf, neg_p, out=nf)), 2 * _U + p_err


def _make_term_fn(
    source: RealSource, f: FDescriptor, N: int, M: int
) -> Tuple[Callable[[int, int], Tuple[np.ndarray, np.ndarray]], float]:
    """Build the evaluator of the terms with n in [lo, hi), hi - lo <= _BATCH;
    returns it plus the per-term error coefficient of the weight and of f(n)
    (it multiplies f(n) in the bound; _chunk_bound adds the roundings of the
    product and of the summation).  The evaluator returns the terms and the
    f(n) values as views of the calling thread's work rows, valid until that
    thread's next call.

    alpha mod 1 is taken exactly as num/den: a/q for a rational, the
    enclosure midpoint otherwise, whose distance to alpha moves n*alpha by
    at most arg_err and the weight by at most pi*arg_err.  Each n is
    written as g + k with g on the grid N + 1 + j*_BATCH.  With
    T = k*num/den and B = g*num/den (an integer added to either only flips
    the sign that |.| drops), the weight |sin(pi n num/den)| is |a + b| with
    a = sin(pi T) cos(pi B) and b = cos(pi T) sin(pi B).  Every sine and
    cosine comes from _sincospi, all before the first batch: those of pi B
    at each grid point, and those of pi R_i and pi G_j, with
    R_i = i*_TABLE_ROW*num/den and G_j = j*num/den, for at most 128 rows
    and _TABLE_ROW columns.  For k = i*_TABLE_ROW + j < min(M, _BATCH), one
    more angle addition gives the tables of sin(pi T) and cos(pi T),
    S[k] = fl(fl(s_i c_j) + fl(c_i s_j)) and C[k] = fl(fl(c_i c_j) - fl(s_i s_j)),
    with (s_i, c_i) the scalars of R_i and (s_j, c_j) those of G_j.  A batch
    computes |fl(fl(S cos(pi B)) + fl(C sin(pi B)))|.  Its error, with
    u = 2^-53 and to first order in u:

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

    So the weight is within (4 sqrt(2) + 3) u + sqrt(2) (2^-86 + 2^-88)
    = 9.611e-16 of its value; the second-order terms are below 1e-29, so
    _WEIGHT_ERR = 9.7e-16 covers it.  The bound is absolute only, unlike
    _sinpi_into's relative one, which the direct bound does not need.  A
    term depends on n alone for given (source, N, M).
    """
    if source.kind is Kind.RATIONAL:
        num, den, arg_err = source.a % source.q, source.q, 0.0
    else:
        interval = source.approximate((N + M).bit_length() + 64)
        den = 1 << (interval.exp + 1)
        num = (interval.lo_m + interval.hi_m) % den
        arg_err = float((N + M) * interval.width / 2)
    length = min(M, _BATCH)
    rows = [_sincospi(i * _TABLE_ROW * num, den) for i in range(-(-length // _TABLE_ROW))]
    cols = [_sincospi(j * num, den) for j in range(min(length, _TABLE_ROW))]
    (sin_i, cos_i), (sin_j, cos_j) = np.array(rows).T, np.array(cols).T
    sin_t = np.multiply.outer(sin_i, cos_j)
    sin_t += np.multiply.outer(cos_i, sin_j)
    cos_t = np.multiply.outer(cos_i, cos_j)
    cos_t -= np.multiply.outer(sin_i, sin_j)
    sin_t, cos_t = sin_t.ravel()[:length], cos_t.ravel()[:length]
    scalars = [_sincospi(g * num, den) for g in range(N + 1, N + M + 1, _BATCH)]
    power, f_err = _power(f, N + M)

    def batch(lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        k = hi - lo
        out, fv, z = _work_buffers(k)
        for g in range(lo - (lo - N - 1) % _BATCH, hi, _BATCH):
            a, b = max(lo, g), min(hi, g + _BATCH)
            sin_b, cos_b = scalars[(g - N - 1) // _BATCH]
            w, t = out[a - lo : b - lo], z[a - lo : b - lo]
            np.multiply(sin_t[a - g : b - g], cos_b, out=w)
            np.multiply(cos_t[a - g : b - g], sin_b, out=t)
            w += t
        np.abs(out, out=out)
        np.add(_INDEX[:k], float(lo), out=fv)
        out *= power(fv)
        return _apply_signs(out, lo), fv

    return batch, math.pi * arg_err + _WEIGHT_ERR + f_err


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


def _chunk_bound(absf: float, length: int, coeff: float) -> float:
    """Rounding bound of one pairwise sum of `length` terms, given absf, the
    computed sum of the magnitudes that coeff multiplies.

    Each term is the rounded product x of a weight and an f(n) that are
    within coeff times the magnitude of their exact product, so the terms
    are within absf * (coeff + u) of the exact ones; the pairwise sum adds
    at most D u sum|x| with D = _pairwise_depth(length) (Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 4).  One more u * absf
    covers every second-order term, the rounding of absf itself and the
    arithmetic of this bound.
    """
    return absf * (coeff + (_pairwise_depth(length) + 2) * _U)


def _sum(
    term_fn: Callable[[int, int], Tuple[np.ndarray, np.ndarray]],
    coeff: float,
    N: int,
    M: int,
    cps: Sequence[int],
    workers: int,
) -> SumTrace:
    """The one chunk loop behind every sum: direct, scan and periodic.

    term_fn(lo, hi) returns the signed terms for n in [lo, hi) and the
    magnitudes that coeff multiplies in the bound (f(n) on the direct path,
    w*f(n) on the periodic one).  Chunks sit on the grid N + 1 + j*_CHUNK,
    fixed by N alone.  Each worker evaluates a contiguous block of them, two
    per term_fn call.  A checkpoint m (cps is ascending) inside a chunk
    reads that chunk's prefix: the sum and the bound of the terms up to m,
    added to the exact running sums of the whole chunks before it, so a row
    depends on neither the other checkpoints nor the worker count.  The
    whole chunks are folded in index order, adding the sums and the bounds
    exactly, and their fold is the result.
    """

    def eval_block(first: int, last: int) -> list:
        records = []  # (chunk sum, chunk bound, prefix reads)
        for start in range(first, last, _BATCH):
            stop = min(start + _BATCH, last)
            terms, fv = term_fn(start, stop)
            for lo in range(start, stop, _CHUNK):
                hi = min(lo + _CHUNK, stop)
                part = slice(lo - start, hi - start)
                reads = []  # (m, prefix sum, prefix bound) per checkpoint in the chunk
                m0 = lo - N  # the chunk's first term count
                for m in cps[bisect_left(cps, m0) : bisect_right(cps, hi - 1 - N)]:
                    k = m - m0 + 1  # the chunk's terms up to m
                    head = slice(part.start, part.start + k)
                    prefix_bound = _chunk_bound(float(np.sum(fv[head])), k, coeff)
                    reads.append((m, float(np.sum(terms[head])), prefix_bound))
                bound = _chunk_bound(float(np.sum(fv[part])), hi - lo, coeff)
                records.append((float(np.sum(terms[part])), bound, reads))
        return records

    chunks = -(-M // _CHUNK)
    nblocks = max(1, min(workers, chunks))
    grid = [min(N + 1 + chunks * i // nblocks * _CHUNK, N + M + 1) for i in range(nblocks + 1)]
    if nblocks > 1:
        with ThreadPoolExecutor(max_workers=nblocks) as pool:
            blocks = pool.map(eval_block, grid, grid[1:])
            records = [r for block in blocks for r in block]
    else:
        records = eval_block(*grid)

    sums: List[float] = []  # the chunk sums so far, added exactly by math.fsum
    bounds: List[float] = []  # the chunk bounds so far
    rows: List[TraceRow] = []
    for chunk_sum, chunk_bound, reads in records:
        for m, s, b in reads:
            value = math.fsum(sums + [s])
            rows.append(TraceRow(m, value, math.fsum(bounds + [b]) + 2 * _EPS * abs(value)))
        sums.append(chunk_sum)
        bounds.append(chunk_bound)
    value = math.fsum(sums)
    bound = math.fsum(bounds) + 2 * _EPS * abs(value)
    return SumTrace(tuple(rows), PartialSumResult(value, bound, terms=M, mode="direct"))


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
    chunk boundaries do not depend on it, each worker takes a contiguous
    block of chunks, and the chunk sums are always combined in index order
    with exact accumulation.
    """
    _require_range(N, M, max_terms)
    return _sum(*_make_term_fn(source, f, N, M), N, M, [], workers).final


def partial_sum_periodic(
    a: int,
    q: int,
    f: FDescriptor,
    N: int,
    M: int,
    *,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> PartialSumResult:
    """S(a/q; M, N) from one sine weight per residue class of n mod q.

    The weight of n depends on n mod q alone, so the weights of the first
    min(q, M) terms form a table, repeated cyclically to cover every batch:
    a batch from lo reads the contiguous slice starting at (lo - N - 1) mod q.
    With k = a n mod q, a weight is _sinpi_into(min(k, q - k) / q), the
    argument from _reduced_args: the quotient is correctly rounded (relative
    error at most 2^-53, which moves sin(pi y) by at most that relatively,
    since pi y cot(pi y) <= 1 on (0, 1/2]), and the polynomial adds a
    relative 1e-15, so 2e-15 covers a weight's relative error.  The terms
    w*f(n), signed, run through the chunk loop of the direct path, with
    w*f(n) as the magnitudes that this relative error and f(n)'s multiply.
    """
    if q < 1:
        raise ValueError("q must be positive")
    if math.gcd(a, q) != 1:
        raise ValueError("a/q must be in lowest terms")
    _require_range(N, M, max_terms)
    y = _reduced_args(a % q, q, a * (N + 1) % q, min(q, M))
    weights = np.resize(_sinpi_into(y, np.empty_like(y), np.empty_like(y)), min(M, q + _BATCH))
    power, f_err = _power(f, N + M)

    def batch(lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        k = hi - lo
        wf, out = _work_buffers(k)[:2]
        np.add(_INDEX[:k], float(lo), out=wf)
        power(wf)
        offset = (lo - N - 1) % q
        wf *= weights[offset : offset + k]
        np.copyto(out, wf)
        return _apply_signs(out, lo), wf

    return replace(_sum(batch, 2.0e-15 + f_err, N, M, [], 1).final, mode="periodic")


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
    return _sum(*_make_term_fn(source, f, N, M), N, M, cps, workers)


def drift_predict(
    a: int, q: int, f: FDescriptor, N: int, M: int
) -> DriftPrediction:
    """Secular drift of S(a/q; M, N) for even q: magnitude, sign, allowance.

    magnitude = (tan(pi/2q)/q) * (F(N+M) - F(N)); the residual is of order
    q f(N), covered by error_allowance = 4 q f(N).
    """
    if q < 2 or q % 2 != 0:
        raise ValueError("drift law requires even q >= 2 (odd q stays bounded)")
    if math.gcd(a, q) != 1:
        raise ValueError("a/q must be in lowest terms")
    if N < 2 or N % 2 != 0:
        raise ValueError("N must be even and >= 2 (sign convention anchor)")
    if M < 1:
        raise ValueError("M must be positive")
    magnitude = (
        math.tan(math.pi / (2 * q))
        / q
        * (f.antiderivative(float(N + M)) - f.antiderivative(float(N)))
    )
    return DriftPrediction(
        magnitude=magnitude,
        sign=-1,
        error_allowance=DRIFT_ALLOWANCE_FACTOR * q * f.eval(float(N)),
    )

