"""Numerical evaluation of the alternating sine-weighted partial sums.

S(alpha; M, N) = sum over n = N+1 .. N+M of (-1)^n f(n) |sin(n pi alpha)|.

The direct path writes alpha mod 1 exactly as num/den (a/q for a rational,
the certified enclosure midpoint otherwise) and reduces n*alpha modulo 1 by
table lookup: n = g + k with g on a grid of step 2^15 fixed by N, and
frac(n*num/den) = T[k] + B_g, where both parts are correctly rounded from
exact integer residues, so the reduced argument never accumulates O(M)
rounding drift.  The periodic path exploits a rational alpha = a/q instead:
the weight of n depends on n mod q alone, so it reads a table of one weight
per residue class that occurs in the window.  One odd polynomial with a
proven error bound gives |sin(pi y)| for every term and every class
weight, so nothing depends on the platform's sine.  Windows ending past
2^53 are refused, since n is then no longer exact in float64.  Every sum
(direct, periodic, checkpoint scan) runs through one loop: terms are
summed pairwise in chunks of 2^14 on the grid N + 1 + j*2^14, fixed by N
alone, and the chunk sums are added exactly, so no result depends on the
worker count.  A checkpoint inside a chunk reads that chunk's prefix
instead of cutting it, so a scan row does not depend on the other
checkpoints and a scan's final result is the direct sum.  Each worker
thread evaluates its contiguous block of chunks two at a time in its own
four reused work rows (1 MiB), so the kernel runs in cache and allocates
nothing per chunk.  Every result carries an explicit worst-case rounding
bound.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .criterion import FDescriptor
from .errors import TermLimitError
from .realsource import RealSource, Kind

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
# Terms per summation chunk: each chunk is summed pairwise on its own and
# its error enters the bound through log2 of its length.
_CHUNK = 1 << 14
# Terms evaluated per batch of consecutive chunks (elementwise, so batching
# never changes a term), and the step of the reduction grid: four float64
# work rows of 2^15 entries (1 MiB) stay in a 2 MiB L2 cache, and each ufunc
# call does enough work that two worker threads rarely wait on each other for
# the interpreter lock.
_BATCH = 2 * _CHUNK
_INDEX = np.arange(_BATCH, dtype=np.float64)
_BUFFERS = threading.local()
_MAX_INDEX = 2 ** 53  # largest window end whose indices are exact in float64
# The reduction table frac(k*num/den), k < _BATCH, is assembled from rows of
# this many exact residues.
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
# Absolute error of the reduced argument y against dist(n*num/den, Z): each
# correctly rounded part is within 2^-54 (half an ulp below 1), and their
# rounded sum (below 2) adds at most 2^-53.
_ARG_ERR = 2.0 ** -52

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
            f"N + M = {N + M} exceeds 2^53 = {_MAX_INDEX}: past it the index n "
            "is not exact in float64 and the reduction of n*alpha is not error-free"
        )


def _work_buffers(k: int) -> np.ndarray:
    """The calling thread's four float64 work rows, cut to length k.

    Allocated once per thread and reused by every batch it evaluates, so a
    batch allocates nothing of its own size."""
    block = getattr(_BUFFERS, "block", None)
    if block is None:
        block = _BUFFERS.block = np.empty((4, _BATCH), dtype=np.float64)
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


def _double_double(residues: Sequence[int], den: int) -> Tuple[np.ndarray, np.ndarray]:
    """hi + lo for each r/den: both correctly rounded from Python ints, so
    |r/den - hi - lo| <= 2^-106 r/den (for normal lo)."""
    hi = [r / den for r in residues]
    lo = []
    for r, h in zip(residues, hi):
        n, d = h.as_integer_ratio()
        lo.append((r * d - n * den) / (den * d))
    return np.array(hi), np.array(lo)


def _frac_table(num: int, den: int, length: int) -> np.ndarray:
    """frac(k*num/den), correctly rounded to a double, for k < length.

    With k = i*_TABLE_ROW + j, the residue of k*num is the sum of the exact
    residues of i*_TABLE_ROW*num and j*num, reduced once, so only a few
    hundred residues come from Python ints.  For den <= 2^53 they are exact in
    int64 and one IEEE division rounds each quotient correctly.  Otherwise
    each residue quotient is a double-double, the pairs are added with
    error-free transformations, and an entry is recomputed from Python ints
    whenever the uncertainty left could move its rounding, or its sum lies
    within 2^-40 of 1.  Of the uncertainty, each double-double leaves
    2^-106 of its quotient, and the two rounded additions of the low parts
    at most 3 * 2^-106 of the sum.
    """
    rows = -(-length // _TABLE_ROW)
    r_row = [i * _TABLE_ROW * num % den for i in range(rows)]
    r_col = [j * num % den for j in range(_TABLE_ROW)]
    if den <= _MAX_INDEX:
        res = np.add.outer(np.array(r_row, np.int64), np.array(r_col, np.int64))
        np.subtract(res, den, out=res, where=res >= den)
        return res.ravel()[:length] / float(den)
    h1, l1 = _double_double(r_row, den)
    h2, l2 = _double_double(r_col, den)
    h1, l1 = h1[:, None], l1[:, None]
    s = h1 + h2
    t = s - h1
    e = s - t
    np.subtract(h1, e, out=e)
    t -= h2
    e -= t  # h1 + h2 = s + e exactly (TwoSum)
    np.add(l1, l2, out=t)
    e += t
    # within 2^-40 of 1 the wrap below may be wrong and s - 1 may cancel
    suspect = np.abs(s - 1.0) < 2.0 ** -40
    # 2^-100 of the sum is 16 times what the steps above can leave
    slack = np.multiply(s, 2.0 ** -100, out=t)
    s -= s >= 1.0  # exact for s in [1, 2)
    r = s + e
    np.subtract(r, s, out=s)
    e -= s  # s + e = r + e exactly (Fast2Sum, as |s| >= |e|)
    # the exact quotient lies within slack of r + e: it rounds to r unless
    # one end of that interval rounds elsewhere
    for sign in (1.0, -1.0):
        np.multiply(slack, sign, out=s)
        s += e
        s += r
        suspect |= s != r
    table = r.ravel()[:length]
    for k in np.flatnonzero(suspect.ravel()[:length]).tolist():
        table[k] = k * num % den / den
    return table


def _make_term_fn(
    source: RealSource, f: FDescriptor, N: int, M: int
) -> Tuple[Callable[[int, int], Tuple[np.ndarray, np.ndarray]], float]:
    """Build the evaluator of the terms with n in [lo, hi), hi - lo <= _BATCH;
    returns it plus the per-term absolute error coefficient (multiplies f(n)
    in the bound).  The evaluator returns the terms and the f(n) values as
    views of the calling thread's work rows, valid until that thread's next
    call.

    alpha mod 1 is taken exactly as num/den: a/q for a rational, the
    enclosure midpoint otherwise.  Each n is written as g + k with g on the
    grid N + 1 + j*_BATCH, and n*alpha mod 1 as T[k] + B_g, both correctly
    rounded: T = _frac_table(num, den, ...) is built once per call, B_g from
    Python ints once per segment.  Then y = |x - rint(x)| is exact and lies
    within 2^-52 of the distance of n*num/den to the nearest integer, so a
    term depends on n alone for given (source, N, M).
    """
    if source.kind is Kind.RATIONAL:
        num, den, arg_err = source.a % source.q, source.q, 0.0
    else:
        interval = source.approximate((N + M).bit_length() + 64)
        den = 1 << (interval.exp + 1)
        num = (interval.lo_m + interval.hi_m) % den
        arg_err = float((N + M) * interval.width / 2)
    table = _frac_table(num, den, min(M, _BATCH))
    neg_p = -float(f.p)

    def batch(lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        k = hi - lo
        nf, x, z, out = _work_buffers(k)
        np.add(_INDEX[:k], float(lo), out=nf)
        for g in range(lo - (lo - N - 1) % _BATCH, hi, _BATCH):
            a, b = max(lo, g), min(hi, g + _BATCH)
            np.add(table[a - g : b - g], g * num % den / den, out=x[a - lo : b - lo])
        np.rint(x, out=z)
        x -= z
        np.abs(x, out=x)
        _sinpi_into(x, out, z)
        fv = np.power(nf, neg_p, out=nf)
        out *= fv
        return _apply_signs(out, lo), fv

    return batch, math.pi * (arg_err + _ARG_ERR) + _SINPI_ERR


def _chunk_bound(absf: float, length: int, coeff: float) -> float:
    pairwise = _EPS * (math.log2(max(length, 2)) + 3.0)
    return absf * (coeff + pairwise)


def _fsum_add(partials: List[float], x: float) -> None:
    """Add x to an exact running sum kept as Shewchuk's non-overlapping
    partials, so math.fsum(partials) is the correctly rounded total."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


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

    partials: List[float] = []  # exact running sum of the chunk sums
    bounds: List[float] = []  # exact running sum of the chunk bounds
    rows: List[TraceRow] = []
    for chunk_sum, chunk_bound, reads in records:
        for m, s, b in reads:
            value = math.fsum(partials + [s])
            rows.append(TraceRow(m, value, math.fsum(bounds + [b]) + 2 * _EPS * abs(value)))
        _fsum_add(partials, chunk_sum)
        _fsum_add(bounds, chunk_bound)
    value = math.fsum(partials)
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
    With k = a n mod q, a weight is _sinpi_into(min(k, q - k) / q): the
    quotient is correctly rounded (relative error at most 2^-53, which moves
    sin(pi y) by at most that relatively, since pi y cot(pi y) <= 1 on
    (0, 1/2]), and the polynomial adds a relative 1e-15, so 2e-15 covers a
    weight's relative error.  The terms w*f(n), signed, run through the
    chunk loop of the direct path, with w*f(n) as the magnitudes that this
    relative error multiplies.
    """
    if q < 1:
        raise ValueError("q must be positive")
    if math.gcd(a, q) != 1:
        raise ValueError("a/q must be in lowest terms")
    _require_range(N, M, max_terms)
    y = np.array([min(k, q - k) / q for k in (a * n % q for n in range(N + 1, N + 1 + min(q, M)))])
    weights = np.resize(_sinpi_into(y, np.empty_like(y), np.empty_like(y)), min(M, q + _BATCH))
    neg_p = -float(f.p)

    def batch(lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        k = hi - lo
        wf, out = _work_buffers(k)[:2]
        np.add(_INDEX[:k], float(lo), out=wf)
        np.power(wf, neg_p, out=wf)
        offset = (lo - N - 1) % q
        wf *= weights[offset : offset + k]
        np.copyto(out, wf)
        return _apply_signs(out, lo), wf

    return replace(_sum(batch, 2.0e-15, N, M, [], 1).final, mode="periodic")


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

