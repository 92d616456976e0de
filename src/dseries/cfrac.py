"""Continued-fraction expansion and best rational approximations.

expand() turns a RealSource into its sequence of best approximations
(record minimizers of ||q * alpha||), working on certified enclosures: a
partial quotient is accepted only when it is shared by every point of the
current enclosure, with automatic precision escalation.  q_alpha() extracts
the subsequence of even denominators whose successor is at least twice as
large, which drives the convergence criterion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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


def _common_pqs(interval: DyadicInterval, limit: int) -> List[int]:
    """Partial quotients shared by every point of the interval.

    Runs Euclid's algorithm on both endpoints, lo = n_lo / d_lo and
    hi = n_hi / d_hi, in step; the reciprocal of the remainder swaps which
    endpoint is the lower one."""
    n_lo, n_hi = interval.lo_m, interval.hi_m
    d_lo = d_hi = 1 << interval.exp
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


def _expand_rational(source: RealSource, count: int) -> Expansion:
    a, q = source.a, source.q
    pqs: List[int] = []
    x, y = a, q
    while y:
        d = x // y
        pqs.append(d)
        x, y = y, x - d * y
    convs = _recurrence(pqs)
    start = _emit_start(pqs)
    grid = _dist_grid_bits(q)
    emitted: List[Convergent] = []
    for n, idx in enumerate(range(start, len(convs)), start=1):
        p_n, q_n = convs[idx]
        r = abs(q_n * a - p_n * q) << grid  # ||q_n alpha|| = r / (q 2^grid)
        emitted.append(
            Convergent(
                n=n,
                a=p_n,
                q=q_n,
                partial_quotient=pqs[idx],
                dist=DyadicInterval(r // q, -(-r // q), grid),
            )
        )
    exact = len(emitted) <= count
    return Expansion(
        convergents=tuple(emitted[:count]),
        partial_quotients=tuple(pqs),
        exact=exact,
        capped=False,
        bits_used=0,
    )


def _build_irrational(
    pqs: Sequence[int],
    interval: DyadicInterval,
    count: int,
    bits: int,
    capped: bool,
    cap_reason: Optional[str],
) -> Expansion:
    convs = _recurrence(pqs)
    start = _emit_start(pqs)
    # q_k x - p_k at both endpoints, on the mantissas, by the recurrence
    # that builds (p_k, q_k): from k = -2 (x) and k = -1 (-1).  The values
    # shrink like 2^exp / q_{k+1}, so no step multiplies two long integers.
    lo1 = hi1 = -(1 << interval.exp)
    lo2, hi2 = interval.lo_m, interval.hi_m
    emitted: List[Convergent] = []
    for idx in range(min(len(convs), start + count)):
        a = pqs[idx]
        lo1, lo2 = a * lo1 + lo2, lo1
        hi1, hi2 = a * hi1 + hi2, hi1
        if idx < start:
            continue
        p_n, q_n = convs[idx]
        # |q_k x - p_k|: q_k > 0, so lo1 <= hi1
        lo, hi = (lo1, hi1) if lo1 >= 0 else (-hi1, -lo1) if hi1 <= 0 else (0, max(-lo1, hi1))
        emitted.append(
            Convergent(
                n=idx - start + 1,
                a=p_n,
                q=q_n,
                partial_quotient=a,
                dist=DyadicInterval(lo, hi, interval.exp),
            )
        )
    return Expansion(
        convergents=tuple(emitted),
        partial_quotients=tuple(pqs[: start + len(emitted)]),
        exact=False,
        capped=capped,
        cap_reason=cap_reason,
        bits_used=bits,
    )


def _tight(interval: DyadicInterval, q_ref: int) -> bool:
    """width * q_ref^2 * 2^25 <= 1."""
    return (interval.hi_m - interval.lo_m) * (q_ref * q_ref << 25) <= 1 << interval.exp


def _certified_emit_count(
    pqs: Sequence[int], interval: DyadicInterval, count: int
) -> int:
    """Largest m <= count convergents whose distance enclosures stay tight.

    Emitting m entries needs the (m+1)-th recurrence denominator as the
    tightness reference: interval width * q_ref^2 must clear a 2^25 margin.
    """
    rec = _recurrence(pqs)
    start = _emit_start(pqs)
    limit = min(count, max(len(pqs) - start - 1, 0))
    for m in range(limit, 0, -1):
        q_ref = rec[start + m][1]
        if _tight(interval, q_ref):
            return m
    return 0


def _capped_expansion(
    pqs: Sequence[int],
    interval: DyadicInterval,
    count: int,
    bits: int,
    reason: str,
) -> Expansion:
    m = _certified_emit_count(pqs, interval, count)
    return _build_irrational(
        pqs, interval, m, bits, capped=True, cap_reason=f"{reason}; emitted {m} of {count}"
    )


def _expand_prefix(source: RealSource, count: int) -> Expansion:
    """Expansion of an explicit finite quotient prefix.

    The prefix pins down the convergent list but not the value, so distance
    enclosures come from the exact interval of reals sharing the prefix and
    the final convergent (whose distance range touches zero) is never
    emitted.
    """
    pqs = source.pqs
    convs = _prefix_convergents(pqs)
    (_, q_k), (_, q_k1) = convs
    grid = _dist_grid_bits(q_k + q_k1)
    interval = DyadicInterval(*_prefix_interval(convs, grid), grid)
    m = _certified_emit_count(pqs, interval, count)
    reason = None
    if m < count:
        reason = (
            f"partial-quotient prefix of {len(pqs)} quotients certifies "
            f"only {m} of {count} convergents"
        )
    exp = _build_irrational(pqs, interval, m, 0, capped=m < count, cap_reason=reason)
    return replace(exp, partial_quotients=pqs)


def expand(source: RealSource, count: int) -> Expansion:
    """First `count` best approximations of the source value.

    Rational sources terminate exactly (possibly with fewer entries) with
    the canonical last partial quotient >= 2.  Other sources escalate the
    enclosure precision until each emitted convergent is certified and its
    distance enclosure is tight relative to the next denominator.  If the
    source's precision cap, its max_bits, is reached first, the certified
    prefix is returned with capped=True and cap_reason set.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if source.kind is Kind.RATIONAL:
        return _expand_rational(source, count)
    if source.kind is Kind.PQ_STREAM:
        return _expand_prefix(source, count)

    cap = source.max_bits
    bits = min(128, cap)
    last_good: Optional[Tuple[List[int], DyadicInterval, int]] = None
    while True:
        try:
            interval = source.approximate(bits)
        except PrecisionLimitError as exc:
            if last_good is None:
                raise
            pqs, interval, used = last_good
            return _capped_expansion(pqs, interval, count, used, str(exc))
        pqs = _common_pqs(interval, limit=count + 4)
        last_good = (pqs, interval, bits)
        start = _emit_start(pqs)
        have = len(pqs) - start
        if have >= count + 1:
            q_ref = _recurrence(pqs)[start + count][1]
            if _tight(interval, q_ref):
                return _build_irrational(
                    pqs, interval, count, bits, capped=False, cap_reason=None
                )
        if bits >= cap:
            return _capped_expansion(
                pqs,
                interval,
                count,
                bits,
                f"precision cap {cap} bits reached",
            )
        bits = min(bits * 2, cap)


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
