"""Continued-fraction expansion and best rational approximations.

expand() turns a RealSource into its sequence of best approximations
(record minimizers of ||q * alpha||) along one path for every source: Euclid
on both ends of an enclosure [lo_n, hi_n] / den accepts a partial quotient
only when every point of the enclosure shares it, and one emission loop
builds the convergents with their distance enclosures.  A rational a/q is
the degenerate enclosure [a, a] / q; a `cf:` prefix encloses the reals that
share it; any other source escalates its enclosure precision.  q_alpha()
extracts the subsequence of even denominators whose successor is at least
twice as large, which drives the convergence criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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


@dataclass(frozen=True)
class Convergent:
    """One best rational approximation a/q of the source value.

    n is the 1-based position in the emitted sequence.  dist encloses
    ||q * alpha||.
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


def _common_pqs(n_lo: int, n_hi: int, den: int, limit: int) -> List[int]:
    """Partial quotients shared by every point of [n_lo, n_hi] / den.

    Runs Euclid's algorithm on both endpoints, lo = n_lo / d_lo and
    hi = n_hi / d_hi, in step; the reciprocal of the remainder swaps which
    endpoint is the lower one.  A rational a/q is the interval [a, a] / q,
    on which this is plain Euclid."""
    d_lo = d_hi = den
    out: List[int] = []
    while len(out) < limit:
        f, r_lo = divmod(n_lo, d_lo)
        f_hi, r_hi = divmod(n_hi, d_hi)
        if f != f_hi:
            break
        out.append(f)
        if r_lo == 0 or r_hi == 0:
            break
        n_lo, d_lo, n_hi, d_hi = d_hi, r_hi, d_lo, r_lo
    return out


def _emit_start(pqs: Sequence[int]) -> int:
    # With a_1 = 1 the integer part a_0/1 is not the nearest integer, so the
    # record sequence starts at p_1/q_1 = (a_0+1)/1 instead.
    return 1 if len(pqs) >= 2 and pqs[1] == 1 else 0


def _dist_grid_bits(q_last: int) -> int:
    return max(64, 2 * q_last.bit_length() + 16)


def _emit(
    pqs: Sequence[int], lo_n: int, hi_n: int, den: int, grid: int, count: int
) -> Tuple[Convergent, ...]:
    """The first `count` record convergents of pqs, each with ||q_k x|| over
    x in [lo_n, hi_n] / den enclosed on the grid 2^-grid.

    One loop runs the (p_k, q_k) recurrence and, by the same recurrence,
    the residuals (q_k x - p_k) den at both endpoints, from k = -2 (x den)
    and k = -1 (-den).  The residuals shrink like den / q_{k+1}, so no step
    multiplies two long integers.  They are rounded outward onto the grid
    unless den is 2^grid, where they already are its mantissas.
    """
    start = _emit_start(pqs)
    on_grid = den == 1 << grid
    p1, p2, q1, q2 = 1, 0, 0, 1
    lo1 = hi1 = -den
    lo2, hi2 = lo_n, hi_n
    out: List[Convergent] = []
    for idx, a in enumerate(pqs[: start + count]):
        p1, p2 = a * p1 + p2, p1
        q1, q2 = a * q1 + q2, q1
        lo1, lo2 = a * lo1 + lo2, lo1
        hi1, hi2 = a * hi1 + hi2, hi1
        if idx < start:
            continue
        # |q_k x - p_k|: q_k > 0, so lo1 <= hi1
        lo, hi = (lo1, hi1) if lo1 >= 0 else (-hi1, -lo1) if hi1 <= 0 else (0, max(-lo1, hi1))
        if not on_grid:
            lo, hi = (lo << grid) // den, -((-hi << grid) // den)
        out.append(
            Convergent(
                n=idx - start + 1, a=p1, q=q1, partial_quotient=a, dist=DyadicInterval(lo, hi, grid)
            )
        )
    return tuple(out)


def _certified_count(pqs: Sequence[int], width: int, den: int, count: int) -> int:
    """Largest m <= count convergents whose distance enclosures stay tight.

    Emitting m entries needs the (m+1)-th record denominator as the
    tightness reference: the enclosure width (width / den) times q_ref^2
    must clear a 2^25 margin.
    """
    start = _emit_start(pqs)
    rec = _recurrence(pqs[: start + count + 1])
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
    prefix encloses the reals that share it.  Any other source escalates
    its enclosure precision until each emitted convergent is certified and
    its distance enclosure is tight relative to the next denominator.  If a
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
            convergents=_emit(pqs, a, a, q, _dist_grid_bits(q), count),
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
        m = _certified_count(pqs, hi - lo, 1 << grid, count)
        known, used = len(pqs), 0
        reason = (
            f"partial-quotient prefix of {len(pqs)} quotients certifies "
            f"only {m} of {count} convergents"
        )
    else:
        cap = source.max_bits
        bits, used = min(128, cap), 0
        while True:
            try:
                iv = source.approximate(bits)
            except PrecisionLimitError as exc:
                if not used:
                    raise
                reason = str(exc)
                break
            lo, hi, grid, used = iv.lo_m, iv.hi_m, iv.exp, bits
            pqs = _common_pqs(lo, hi, 1 << grid, count + 4)
            m = _certified_count(pqs, hi - lo, 1 << grid, count)
            if m == count or bits >= cap:
                reason = f"precision cap {cap} bits reached"
                break
            bits = min(bits * 2, cap)
        known = _emit_start(pqs) + m
        reason = f"{reason}; emitted {m} of {count}"
    capped = m < count
    return Expansion(
        convergents=_emit(pqs, lo, hi, 1 << grid, grid, m),
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
