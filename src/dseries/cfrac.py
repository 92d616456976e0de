"""Continued-fraction expansion and best rational approximations.

expand() turns a RealSource into its sequence of best approximations
(record minimizers of ||q * alpha||) along one path for every source: Euclid
on both ends of an enclosure [lo_n, hi_n] / den accepts a partial quotient
only when every point of the enclosure shares it, and one emission loop
builds the convergents with their distance enclosures.  A rational a/q is
the degenerate enclosure [a, a] / q; a `cf:` prefix encloses the reals that
share it; any other source escalates its enclosure precision, each round
resuming Euclid where the one before stopped.  q_alpha() extracts the
subsequence of even denominators whose successor is at least twice as
large, which drives the convergence criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import PrecisionLimitError
from .realsource import (
    DyadicInterval,
    Kind,
    RealSource,
    _prefix_convergents,
    _prefix_interval,
    _recurrence,
)

__all__ = [
    "Convergent",
    "QAlphaEntry",
    "Expansion",
    "expand",
    "q_alpha",
]


class Convergent(NamedTuple):
    """One best rational approximation a/q of the source value.

    n is the 1-based position in the emitted sequence.  dist encloses
    ||q * alpha||.  A named tuple, so it compares equal to the plain
    (n, a, q, partial_quotient, dist).
    """

    n: int
    a: int
    q: int
    partial_quotient: int
    dist: DyadicInterval


@dataclass(frozen=True)
class QAlphaEntry:
    """An even denominator q_n whose successor satisfies q_{n+1} >= 2 q_n."""

    n: int
    q: int
    q_next: int

    def __post_init__(self) -> None:
        if self.q % 2 != 0:
            raise ValueError("entry denominator must be even")
        if self.q_next < 2 * self.q:
            raise ValueError("successor must be at least twice the denominator")


@dataclass(frozen=True)
class Expansion:
    convergents: Tuple[Convergent, ...]
    partial_quotients: Tuple[int, ...]
    exact: bool
    capped: bool
    cap_reason: Optional[str] = None
    bits_used: int = 0


def _common_pqs(
    n_lo: int,
    n_hi: int,
    den: int,
    limit: int,
    known: Sequence[int] = (),
    rec: Sequence[Tuple[int, int]] = (),
) -> List[int]:
    """Partial quotients shared by every point of [n_lo, n_hi] / den.

    Runs Euclid's algorithm on both endpoints x = n / den in step and stops
    at the first quotient on which they differ.  A rational a/q is the
    interval [a, a] / q, on which this is plain Euclid.

    Euclid may resume after `known`, quotients common to an enclosure that
    contains this one, with `rec` their _recurrence(): the reals whose
    first k quotients are a_0..a_{k-1} (each remainder but the last
    nonzero) form an interval, so when it holds both ends of the coarser
    enclosure it holds the finer one, and Euclid on the finer ends passes
    through the same k steps.  Its remainders there are the residuals
    r_j = |q_j x - p_j| den (r_{-1} = den), so it continues from
    (r_{k-2}, r_{k-1}) at each end with the same output as from scratch."""
    out = list(known[:limit])
    k = len(out)
    if k == limit:
        return out
    if k:
        (p2, q2), (p1, q1) = ((1, 0), rec[0]) if k == 1 else rec[k - 2 : k]
        n_lo, d_lo = abs(q2 * n_lo - p2 * den), abs(q1 * n_lo - p1 * den)
        n_hi, d_hi = abs(q2 * n_hi - p2 * den), abs(q1 * n_hi - p1 * den)
        if d_lo == 0 or d_hi == 0:
            return out
    else:
        d_lo = d_hi = den
    while len(out) < limit:
        f, r_lo = divmod(n_lo, d_lo)
        f_hi, r_hi = divmod(n_hi, d_hi)
        if f != f_hi:
            break
        out.append(f)
        if r_lo == 0 or r_hi == 0:
            break
        n_lo, d_lo, n_hi, d_hi = d_lo, r_lo, d_hi, r_hi
    return out


def _emit_start(pqs: Sequence[int]) -> int:
    # With a_1 = 1 the integer part a_0/1 is not the nearest integer, so the
    # record sequence starts at p_1/q_1 = (a_0+1)/1 instead.
    return 1 if len(pqs) >= 2 and pqs[1] == 1 else 0


def _dist_grid_bits(q_last: int) -> int:
    return max(64, 2 * q_last.bit_length() + 16)


def _emit(
    pqs: Sequence[int],
    rec: Sequence[Tuple[int, int]],
    lo_n: int,
    hi_n: int,
    den: int,
    grid: int,
    count: int,
) -> Tuple[Convergent, ...]:
    """The first `count` record convergents of pqs, whose (p_k, q_k) are
    rec, each with ||q_k x|| over x in [lo_n, hi_n] / den enclosed on the
    grid 2^-grid.

    One loop runs the residuals (q_k x - p_k) den at both endpoints by the
    recurrence of (p_k, q_k), from k = -2 (x den) and k = -1 (-den).  The
    residuals shrink like den / q_{k+1}, so no step multiplies two long
    integers.  They are rounded outward onto the grid unless den is 2^grid,
    where they already are its mantissas.
    """
    start = _emit_start(pqs)
    on_grid = den == 1 << grid
    lo1 = hi1 = -den
    lo2, hi2 = lo_n, hi_n
    out: List[Convergent] = []
    for idx, a in enumerate(pqs[: start + count]):
        lo1, lo2 = a * lo1 + lo2, lo1
        hi1, hi2 = a * hi1 + hi2, hi1
        if idx < start:
            continue
        p1, q1 = rec[idx]
        # |q_k x - p_k|: q_k > 0, so lo1 <= hi1
        lo, hi = (lo1, hi1) if lo1 >= 0 else (-hi1, -lo1) if hi1 <= 0 else (0, max(-lo1, hi1))
        if not on_grid:
            lo, hi = (lo << grid) // den, -((-hi << grid) // den)
        # positional: keywords make a named tuple about two thirds slower to build
        out.append(Convergent(idx - start + 1, p1, q1, a, DyadicInterval(lo, hi, grid)))
    return tuple(out)


def _certified_count(
    pqs: Sequence[int], rec: Sequence[Tuple[int, int]], width: int, den: int, count: int
) -> int:
    """Largest m <= count convergents whose distance enclosures stay tight.

    Emitting m entries needs the (m+1)-th record denominator, read from the
    quotients' _recurrence() rec, as the tightness reference: the enclosure
    width (width / den) times q_ref^2 must clear a 2^25 margin.
    """
    start = _emit_start(pqs)
    for m in range(min(count, len(rec) - start - 1), 0, -1):
        q_ref = rec[start + m][1]
        if width * (q_ref * q_ref << 25) <= den:
            return m
    return 0


def expand(source: RealSource, count: int) -> Expansion:
    """First `count` best approximations of the source value.

    Every source runs the same two steps: Euclid on both ends of an
    enclosure [lo_n, hi_n] / den, then one emission loop for the
    convergents and their distance enclosures.  A rational a/q is the
    degenerate enclosure [a, a] / q: it terminates exactly (possibly with
    fewer entries) with the canonical last partial quotient >= 2.  A `cf:`
    prefix encloses the reals that share it.  Any other source doubles its
    enclosure precision from 128 bits until each emitted convergent is
    certified and its distance enclosure is tight relative to the next
    denominator.  The source's enclosures nest as precision grows, so each
    round resumes Euclid and the (p, q) recurrence after the quotients of
    the round before (see _common_pqs) instead of starting again.  If a
    prefix or the source's precision cap, its max_bits, runs out first, the
    certified prefix is returned with capped=True and cap_reason set.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if source.kind is Kind.RATIONAL:
        a, q = source.a, source.q
        # Euclid's remainders fall strictly below q: at most q + 1 quotients.
        pqs = _common_pqs(a, a, q, q + 1)
        return Expansion(
            convergents=_emit(pqs, _recurrence(pqs[: count + 1]), a, a, q, _dist_grid_bits(q), count),
            partial_quotients=tuple(pqs),
            exact=len(pqs) - _emit_start(pqs) <= count,
            capped=False,
        )
    if source.kind is Kind.PQ_STREAM:
        # The prefix pins down the convergents but not the value; the final
        # convergent's distance range touches zero, so it is never emitted.
        pqs = source.pqs
        convs = _prefix_convergents(pqs)
        (_, q_k), (_, q_k1) = convs
        grid = _dist_grid_bits(q_k + q_k1)
        lo, hi = _prefix_interval(convs, grid)
        rec = _recurrence(pqs)
        m = _certified_count(pqs, rec, hi - lo, 1 << grid, count)
        known, used = len(pqs), 0
        reason = (
            f"partial-quotient prefix of {len(pqs)} quotients certifies "
            f"only {m} of {count} convergents"
        )
    else:
        cap = source.max_bits
        bits, used = min(128, cap), 0
        pqs, rec = [], []
        while True:
            try:
                iv = source.approximate(bits)
            except PrecisionLimitError as exc:
                if not used:
                    raise
                reason = str(exc)
                break
            lo, hi, grid, used = iv.lo_m, iv.hi_m, iv.exp, bits
            # the enclosures nest, so Euclid resumes after the last round's quotients
            pqs = _common_pqs(lo, hi, 1 << grid, count + 4, pqs, rec)
            _recurrence(pqs, rec)
            m = _certified_count(pqs, rec, hi - lo, 1 << grid, count)
            if m == count or bits >= cap:
                reason = f"precision cap {cap} bits reached"
                break
            bits = min(bits * 2, cap)
        known = _emit_start(pqs) + m
        reason = f"{reason}; emitted {m} of {count}"
    capped = m < count
    return Expansion(
        convergents=_emit(pqs, rec, lo, hi, 1 << grid, grid, m),
        partial_quotients=tuple(pqs[:known]),
        exact=False,
        capped=capped,
        cap_reason=reason if capped else None,
        bits_used=used,
    )


def q_alpha(convergents: Sequence[Convergent]) -> List[QAlphaEntry]:
    """Entries (q_n, q_{n+1}) with q_n even and q_{n+1} >= 2 q_n.

    Only consecutive pairs present in the input are considered; the last
    convergent has no successor and cannot produce an entry.  For n >= 2 the
    ratio condition is equivalent to the next partial quotient being >= 2.
    """
    entries: List[QAlphaEntry] = []
    for cur, nxt in zip(convergents, convergents[1:]):
        if cur.q % 2 == 0 and nxt.q >= 2 * cur.q:
            entries.append(QAlphaEntry(n=cur.n, q=cur.q, q_next=nxt.q))
    return entries
