"""Certified real-number sources.

A RealSource describes one real number alpha and can produce arbitrarily
tight two-sided dyadic enclosures of it on demand.  Enclosures are certified
(alpha always lies inside), nested as precision grows, and deterministic for
a given (source, bits) pair.  Supported kinds:

* exact rationals a/q,
* quadratic surds (p + r*sqrt(d))/s with d not a perfect square,
* the named constants pi, 1/pi and e,
* lacunary decimal ("Liouville-type") numbers a/q + sum d_k 10^(-e_k)
  with digits d_k in {1, 3} and a factorial or tower exponent schedule,
* finite partial-quotient prefixes, and prefixes followed by an all-ones
  tail, which are quadratic surds.

This module does not implement general real arithmetic; the only operations
are construction and refinement of a single number's enclosure.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import PrecisionLimitError

__all__ = [
    "DEFAULT_MAX_BITS",
    "Kind",
    "Constant",
    "Schedule",
    "DyadicInterval",
    "LiouvilleSpec",
    "RealSource",
    "make_rational",
    "make_surd",
    "make_constant",
    "make_liouville",
    "make_pq_stream",
]

DEFAULT_MAX_BITS = 1 << 20

# approximate(bits) computes each enclosure once, on the 2^-(bits + 32) grid;
# it is a few grid units wide, far below 2^-bits.
_GRID_GUARD = 32

_LOG10_2 = math.log10(2.0)

# log2(10) lies strictly between _LOG2_10_LO / _LOG2_10_DEN and
# _LOG2_10_HI / _LOG2_10_DEN (45 significant digits).
_LOG2_10_LO = 332192809488736234787031942948939017586483139
_LOG2_10_HI = _LOG2_10_LO + 1
_LOG2_10_DEN = 10 ** 44


class Kind(Enum):
    RATIONAL = "rational"
    QUADRATIC_SURD = "surd"
    NAMED_CONSTANT = "const"
    LIOUVILLE = "liouville"
    PQ_STREAM = "cf"


class Constant(Enum):
    PI = "pi"
    INV_PI = "invpi"
    E = "e"


class Schedule(Enum):
    FACTORIAL = "factorial"
    TOWER100 = "tower100"


class DyadicInterval(NamedTuple):
    """Closed interval [lo_m, hi_m] * 2^-exp with integer mantissas
    lo_m <= hi_m and exp >= 0; an exact end is Fraction(lo_m, 1 << exp).
    A named tuple, so it compares equal to the plain (lo_m, hi_m, exp)."""

    lo_m: int
    hi_m: int
    exp: int


@dataclass(frozen=True)
class LiouvilleSpec:
    """Parameters of a lacunary decimal number
    base + sum_{k >= start} d_k 10^(-e_k).

    digits is a repeating pattern cycled over k; every entry must be 1 or 3.
    The factorial schedule uses e_k = k!, the tower schedule e_1 = 1 and
    e_{k+1} = 100^{e_k}.
    """

    base_num: int = 0
    base_den: int = 1
    digits: Tuple[int, ...] = (1,)
    start: int = 1
    schedule: Schedule = Schedule.FACTORIAL

    def __post_init__(self) -> None:
        if self.base_den <= 0:
            raise ValueError("base denominator must be positive")
        if math.gcd(self.base_num, self.base_den) != 1:
            raise ValueError("base must be in lowest terms")
        if not self.digits or any(d not in (1, 3) for d in self.digits):
            raise ValueError("digits must be a nonempty pattern over {1, 3}")
        if self.start < 1:
            raise ValueError("start index must be >= 1")

    def digit(self, k: int) -> int:
        return self.digits[(k - self.start) % len(self.digits)]

    def exponent(self, k: int, limit: int) -> Optional[int]:
        """e_k, or None when it exceeds `limit` (possibly without being
        representable at all)."""
        if k < 1:
            raise ValueError("exponent index must be >= 1")
        if self.schedule is Schedule.FACTORIAL:
            e = 1
            for j in range(2, k + 1):
                e *= j
                if e > limit:
                    return None
            return e if e <= limit else None
        e = 1
        for _ in range(k - 1):
            # e_{k+1} = 100^{e_k} = 10^(2 e_k) exceeds 2^(6 e_k); refuse to
            # materialize it once that provably exceeds the limit.
            if 6 * e >= limit.bit_length():
                return None
            e = 100 ** e
            if e > limit:
                return None
        return e

    def last_level(self, limit: int) -> int:
        """The largest level whose exponent is at most `limit`, or start - 1
        when there is none."""
        k = self.start
        while self.exponent(k, limit) is not None:
            k += 1
        return k - 1

    def truncation(self, level: int) -> Tuple[int, int]:
        """lambda_level = base + sum_{start <= k <= level} d_k 10^-e_k as an
        exact (num, den) with den = base_den * 10^e_level, not reduced; levels
        below start give the base.  Raises PrecisionLimitError when an
        exponent exceeds 10^9."""
        # Exponents increase, so the top one decides before anything is built.
        if level >= self.start and self.exponent(level, 10 ** 9) is None:
            raise PrecisionLimitError(f"exponent e_{level} is not representable")
        num, den = self.base_num, self.base_den
        last_e = 0
        for k in range(self.start, level + 1):
            e = self.exponent(k, 10 ** 9)
            step = 10 ** (e - last_e)
            num = num * step + self.digit(k) * self.base_den
            den *= step
            last_e = e
        return num, den


@dataclass(eq=False)
class RealSource:
    """One real number with a certified enclosure generator.

    Payload fields depend on kind; use the make_* constructors.  The
    enclosure cache tolerates concurrent readers: refinement is guarded by a
    per-source lock and results for a given precision level never change.
    """

    kind: Kind
    a: int = 0
    q: int = 1
    p: int = 0
    r: int = 0
    d: int = 0
    s: int = 1
    const: Optional[Constant] = None
    liouville: Optional[LiouvilleSpec] = None
    # a cf: prefix: all of a PQ_STREAM, or a surd's prefix before its tail of 1s
    pqs: Tuple[int, ...] = ()
    max_bits: int = DEFAULT_MAX_BITS
    _cache: dict = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    # -- enclosure machinery -------------------------------------------------

    def approximate(self, bits: int) -> DyadicInterval:
        """Certified dyadic enclosure of the value with width <= 2^-bits.

        Deterministic for a given (source, bits); enclosures at increasing
        bits are nested.  Raises PrecisionLimitError beyond max_bits or when
        the source cannot be refined that far.
        """
        if bits < 1:
            raise ValueError("bits must be >= 1")
        if bits > self.max_bits:
            raise PrecisionLimitError(
                f"requested {bits} bits exceeds the configured cap of {self.max_bits}"
            )
        grid = bits + _GRID_GUARD
        with self._lock:
            out = self._cache.get(grid)
            if out is None:
                out = self._cache[grid] = DyadicInterval(*self._raw(grid), grid)
        assert out.hi_m - out.lo_m <= 1 << _GRID_GUARD
        return out

    def _raw(self, level: int) -> Tuple[int, int]:
        """Certified enclosure [lo, hi] * 2^-level: the floor and the ceiling
        at scale 2^level of exact endpoints at most 2^-level apart.

        Each kind's exact endpoints only tighten as the level grows, so the
        enclosures nest; a rational's are the exact value itself."""
        if self.kind is Kind.RATIONAL:
            return (self.a << level) // self.q, _ceil_div(self.a << level, self.q)
        if self.kind is Kind.QUADRATIC_SURD:
            return self._raw_surd(level)
        if self.kind is Kind.NAMED_CONSTANT:
            return self._raw_constant(level)
        if self.kind is Kind.LIOUVILLE:
            return self._raw_liouville(level)
        if self.kind is Kind.PQ_STREAM:
            return self._raw_stream(level)
        raise AssertionError(f"unhandled kind {self.kind}")

    def _raw_surd(self, level: int) -> Tuple[int, int]:
        """Nested: the isqrt bracket of sqrt(d) tightens as t grows."""
        # sqrt(d) lies in [m, m + 1] * 2^-t; s > 0 after normalization.
        t = level + abs(self.r).bit_length() + 2
        m = math.isqrt(self.d << (2 * t))
        lo_root, hi_root = (m, m + 1) if self.r > 0 else (m + 1, m)
        den = self.s << (t - level)
        return (
            ((self.p << t) + self.r * lo_root) // den,
            _ceil_div((self.p << t) + self.r * hi_root, den),
        )

    def _raw_constant(self, level: int) -> Tuple[int, int]:
        """Nested: pi and 1/pi come from floor(pi 2^(level+6)), and e's partial
        sum only rises while its tail bound only falls (see _e_series)."""
        if self.const is Constant.E:
            return _e_series(level)
        # pi lies strictly between f and f + 1 at scale 2^(level + 6).
        f = _pi_floor(level + 6)
        if self.const is Constant.PI:
            return f >> 6, (f >> 6) + 1
        # 1/pi: exact reciprocal of a positive interval swaps the endpoints.
        return (1 << (2 * level + 6)) // (f + 1), _ceil_div(1 << (2 * level + 6), f)

    def _raw_liouville(self, level: int) -> Tuple[int, int]:
        """Nested: the truncation only rises with the level, and it plus the
        tail bound, at most (10/3) 10^-e_{K+1}, only falls."""
        spec = self.liouville
        assert spec is not None
        dec = _liouville_places(level)
        last = spec.last_level(dec)
        num, den = spec.truncation(last)
        # Tail bound: digits <= 3 and exponents strictly increase, so
        # sum_{k > K} d_k 10^-e_k < (10/3) * 10^-e_{K+1} <= (10/3) * 10^-(dec+1).
        # The bound is bound_num / (bound_coef * 10^bound_pow).
        e_next = spec.exponent(last + 1, 8 * dec)
        if e_next is not None:
            bound_num, bound_coef, bound_pow = 10, 3, e_next
        else:
            bound_num, bound_coef, bound_pow = 1, 1, dec + 1
        lo, rem = divmod(num << level, den)
        # The tail is below 2^-(level+2), so the ceiling of (truncation + tail)
        # is ceil(truncation) or one more: one more exactly when the tail
        # exceeds the gap (ceil(truncation) - truncation) = gap / den.
        gap = den - rem if rem else 0
        hi = lo + (rem > 0)
        if _exceeds_power_multiple((bound_num * den) << level, bound_coef * gap, bound_pow):
            hi += 1
        return lo, hi

    def _raw_stream(self, level: int) -> Tuple[int, int]:
        """Nested: the prefix interval is fixed."""
        convs = _prefix_convergents(self.pqs)
        (_, qk), (_, qk1) = convs
        if qk * (qk + qk1) < 1 << level:
            raise PrecisionLimitError(
                "partial-quotient prefix exhausted: cannot certify "
                f"{level} bits from {len(self.pqs)} quotients"
            )
        return _prefix_interval(convs, level)


def _liouville_places(level: int) -> int:
    """Decimal places a Liouville truncation keeps at a level, so
    that its tail bound, at most (10/3) 10^-(places+1), is below 2^-(level+2)."""
    return int(math.ceil((level + 2) * _LOG10_2)) + 3


def _recurrence(
    pqs: Sequence[int], convs: Optional[List[Tuple[int, int]]] = None
) -> List[Tuple[int, int]]:
    """(p_n, q_n) of every prefix a_0..a_n of the partial quotients.

    Given convs, those of a shorter prefix of pqs, it appends the rest to
    convs and returns it."""
    convs = [] if convs is None else convs
    (pm2, qm2), (pm1, qm1) = ([(0, 1), (1, 0)] + convs[-2:])[-2:]
    for a in pqs[len(convs):]:
        pm1, pm2 = a * pm1 + pm2, pm1
        qm1, qm2 = a * qm1 + qm2, qm1
        convs.append((pm1, qm1))
    return convs


def _prefix_convergents(pqs: Tuple[int, ...]) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """(p_k, q_k) and (p_{k-1}, q_{k-1}) of a partial-quotient prefix."""
    convs = [(1, 0)] + _recurrence(pqs)
    return convs[-1], convs[-2]


def _prefix_interval(
    convs: Tuple[Tuple[int, int], Tuple[int, int]], level: int
) -> Tuple[int, int]:
    """Floor and ceiling at scale 2^level of the ends of the set of reals
    whose expansion starts with a prefix, given its _prefix_convergents.

    That set is the closed interval between the last convergent and its
    mediant with the one before; its width is 1 / (q_k (q_k + q_{k-1})).
    """
    (pk, qk), (pk1, qk1) = convs
    ends = ((pk << level, qk), ((pk + pk1) << level, qk + qk1))
    return min(n // d for n, d in ends), max(_ceil_div(n, d) for n, d in ends)


def _ceil_div(n: int, d: int) -> int:
    return -(-n // d)


def _exceeds_power_multiple(lhs: int, rhs: int, n: int) -> bool:
    """lhs > rhs * 10^n for lhs > 0, rhs >= 0 and n >= 0.

    10^n is never a power of two for n >= 1, so its bit length is
    floor(n log2 10) + 1; the product's bit length is then known to within
    one, which settles the comparison unless the two sides' bit lengths
    nearly agree.  Only then, or when the bracket of log2 10 cannot fix
    floor(n log2 10), is 10^n built.
    """
    if rhs == 0:
        return True
    if lhs.bit_length() <= 3 * n:
        return False  # lhs < 8^n <= 10^n
    pow_bits = n * _LOG2_10_LO // _LOG2_10_DEN
    if pow_bits == n * _LOG2_10_HI // _LOG2_10_DEN:
        # rhs * 10^n has bit length rbits or rbits + 1
        lbits, rbits = lhs.bit_length(), rhs.bit_length() + pow_bits
        if lbits > rbits + 1:
            return True
        if lbits < rbits:
            return False
    return lhs > rhs * 10 ** n


_CHUD_A, _CHUD_B = 13591409, 545140134
_CHUD_Q = 640320 ** 3 // 24

# The most precise floor(pi * 2^bits) computed so far, as (bits, floor);
# lower precisions are shifts of it.
_pi_cache: Tuple[int, int] = (0, 3)
_pi_lock = threading.Lock()


def _pi_floor(bits: int) -> int:
    """floor(pi * 2^bits), computed once at the highest precision asked."""
    global _pi_cache
    with _pi_lock:
        if _pi_cache[0] < bits:
            _pi_cache = (bits, _chudnovsky_pi_floor(bits))
        cached_bits, f = _pi_cache
    return f >> (cached_bits - bits)


def _chudnovsky_pi_floor(bits: int) -> int:
    """floor(pi * 2^bits) from Chudnovsky's series
    pi = 426880 sqrt(10005) / S,  S = sum_k a_k,
    a_k = (-1)^k (6k)! (A + B k) / ((3k)! (k!)^3 640320^(3k)),
    summed by binary splitting (about 47.1 bits per term)."""
    guard = 32
    while True:
        w = bits + guard
        n = w // 47 + 2
        while True:
            p, q, t = _chudnovsky_split(0, n)
            # The terms alternate and shrink, so S * q lies within e of t
            # with e = |a_{n-1}| q; ask for e / t <= 2^-(w+4).
            e = p * (_CHUD_A + _CHUD_B * (n - 1))
            if e << (w + 4) <= t:
                break
            n += 1
        # sqrt(10005) 2^w lies in [r, r + 1).  With x = floor(426880 r q / t),
        # the relative errors of r (below 2^-(w+6)) and of t (below
        # 2^-(w+4)) move pi 2^w < 2^(w+2) by less than one unit, so
        # x - 1 < pi 2^w < x + 2.
        r = math.isqrt(10005 << (2 * w))
        x = 426880 * r * q // t
        if (x - 1) >> guard == (x + 1) >> guard:
            return (x - 1) >> guard
        guard *= 2


def _chudnovsky_split(a: int, b: int) -> Tuple[int, int, int]:
    """(P, Q, T) of terms a <= k < b: P and Q are the products of the term
    ratios' numerators and denominators, and T / Q = sum_{a <= k < b} a_k / c_a,
    where c_a = P(0, a) / Q(0, a) (so c_0 = 1)."""
    if b - a == 1:
        if a == 0:
            p = q = 1
        else:
            p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
            q = a * a * a * _CHUD_Q
        t = p * (_CHUD_A + _CHUD_B * a)
        return p, q, -t if a & 1 else t
    m = (a + b) // 2
    p1, q1, t1 = _chudnovsky_split(a, m)
    p2, q2, t2 = _chudnovsky_split(m, b)
    return p1 * p2, q1 * q2, q2 * t1 + p1 * t2


def _e_series(level: int) -> Tuple[int, int]:
    # sum_{j <= k} 1/j! = P_k / k! with P_k = k P_{k-1} + 1, and the tail
    # after term k is below (k+2) / ((k+1)^2 k!).  The k chosen only grows
    # with the level, and 1/(k+1)! plus the next tail bound is below this
    # one, so the partial sum only rises and the upper end only falls.
    p, fact, k = 2, 1, 1
    while True:
        k += 1
        fact *= k
        p = k * p + 1
        tail_den = (k + 1) * (k + 1) * fact
        if (k + 2) << (level + 2) <= tail_den:
            return (p << level) // fact, _ceil_div((p * (k + 1) * (k + 1) + k + 2) << level, tail_den)


def make_rational(a: int, q: int, *, max_bits: int = DEFAULT_MAX_BITS) -> RealSource:
    """Exact rational a/q, reduced to lowest terms with q > 0."""
    if q == 0:
        raise ValueError("denominator must be nonzero")
    if q < 0:
        a, q = -a, -q
    g = math.gcd(a, q)
    return RealSource(Kind.RATIONAL, a=a // g, q=q // g, max_bits=max_bits)


def make_surd(p: int, r: int, d: int, s: int, *, max_bits: int = DEFAULT_MAX_BITS) -> RealSource:
    """Quadratic surd (p + r*sqrt(d))/s.

    d must be >= 2 and not a perfect square, and r nonzero, so the value is
    irrational.  Its partial quotients are not declared: a surd known to end
    in 1s comes from make_pq_stream, which records the prefix before them.
    """
    if s == 0:
        raise ValueError("denominator must be nonzero")
    if r == 0:
        raise ValueError("r = 0 would make the value rational; use make_rational")
    if d < 2 or math.isqrt(d) ** 2 == d:
        raise ValueError("d must be >= 2 and not a perfect square")
    if s < 0:
        p, r, s = -p, -r, -s
    return RealSource(Kind.QUADRATIC_SURD, p=p, r=r, d=d, s=s, max_bits=max_bits)


def make_constant(name, *, max_bits: int = DEFAULT_MAX_BITS) -> RealSource:
    """Named constant: pi, 1/pi or e."""
    if isinstance(name, str):
        try:
            name = Constant(name.lower())
        except ValueError:
            raise ValueError(f"unknown constant {name!r}; choose pi, invpi or e") from None
    return RealSource(Kind.NAMED_CONSTANT, const=name, max_bits=max_bits)


def make_liouville(spec: LiouvilleSpec, *, max_bits: int = DEFAULT_MAX_BITS) -> RealSource:
    return RealSource(Kind.LIOUVILLE, liouville=spec, max_bits=max_bits)


def make_pq_stream(
    pqs,
    *,
    all_ones_tail: bool = False,
    max_bits: int = DEFAULT_MAX_BITS,
) -> RealSource:
    """Source defined by a finite partial-quotient prefix [a0; a1, ...].

    Without a declared tail the refinement depth is limited by the prefix.
    With all_ones_tail, the cf:[a0; a1, ..., ...] spelling, every quotient
    after the prefix is 1: the value is the prefix composed with the golden
    ratio, an exact quadratic surd in sqrt(5), whose pqs is the prefix.
    """
    pqs = tuple(int(a) for a in pqs)
    if not pqs:
        raise ValueError("at least the integer part a0 is required")
    if any(a < 1 for a in pqs[1:]):
        raise ValueError("partial quotients after a0 must be >= 1")
    if all_ones_tail:
        (pk, qk), (pk1, qk1) = _prefix_convergents(pqs)
        # value = (p_k*phi + p_{k-1}) / (q_k*phi + q_{k-1}) with phi = (1+sqrt5)/2,
        # rationalized to the form (num + coef*sqrt(5)) / den.
        A, B = pk + 2 * pk1, pk
        C, D = qk + 2 * qk1, qk
        den = C * C - 5 * D * D
        num = A * C - 5 * B * D
        coef = B * C - A * D  # 2 (p_k q_{k-1} - p_{k-1} q_k) = +-2
        if den < 0:
            num, coef, den = -num, -coef, -den
        return RealSource(Kind.QUADRATIC_SURD, p=num, r=coef, d=5, s=den, pqs=pqs, max_bits=max_bits)
    return RealSource(Kind.PQ_STREAM, pqs=pqs, max_bits=max_bits)

