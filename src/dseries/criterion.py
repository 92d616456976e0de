"""The power weight x^-p and the convergence classifier.

The series under study is sum of (-1)^n f(n) |sin(n pi alpha)|.  Its
behavior is decided by the auxiliary series over the even-denominator
entries (q, q_next): sum of (1/q^2) * integral of f from 1 to q_next.
This module evaluates that series, bounds its tail under a denominator
growth certificate q_next <= C * q^(mu-1), and classifies sources through
an explicit decision ladder that refuses to extrapolate: anything not
settled by exact structure or a certificate comes back Inconclusive.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import cfrac
from .cfrac import Expansion, QAlphaEntry
from .errors import CertificateError, PrecisionLimitError
from .realsource import Constant, Kind, RealSource, Schedule, _exceeds_power_multiple

__all__ = [
    "FDescriptor",
    "CriterionTerm",
    "CriterionSeries",
    "MeasureCertificate",
    "Outcome",
    "VerdictCertificate",
    "Verdict",
    "make_power_f",
    "criterion_partial_sum",
    "measure_tail_bound",
    "CERTIFICATES",
    "classify",
    "StaircaseLevel",
    "staircase_levels",
]

@dataclass(frozen=True)
class FDescriptor:
    """The weight f(x) = x^(-p) on [1, oo), with 0 < p <= 1.

    Build descriptors with make_power_f, which checks the range of p.
    """

    p: Fraction


def make_power_f(p: Union[Fraction, float, int, str]) -> FDescriptor:
    """Descriptor for f(x) = x^(-p) with 0 < p <= 1.

    p > 1 is rejected: the series then converges absolutely by comparison
    with sum of n^(-p), so nothing here applies.  p <= 0 gives a weight
    that does not decrease to zero.
    """
    p = Fraction(p)
    if not 0 < p <= 1:
        raise ValueError(
            "power exponent must satisfy 0 < p <= 1 "
            "(p > 1 converges absolutely, p <= 0 is not a vanishing weight)"
        )
    return FDescriptor(p)


@dataclass(frozen=True)
class CriterionTerm:
    """One term (1/q^2) * (F(q_next) - F(1)) of the criterion series, F' = f.

    value is the double-precision magnitude (inf if above float range);
    log10_value is always finite and is the reliable representation for
    astronomically large denominators.
    """

    n: int
    q: int
    q_next: int
    value: float
    log10_value: float


def _power_term(p: Fraction, entry: QAlphaEntry) -> CriterionTerm:
    q, q_next = entry.q, entry.q_next
    lg_q = math.log10(q)
    lg_next = math.log10(q_next)
    if p == 1:
        ln_next = lg_next * math.log(10.0)
        lg_val = math.log10(ln_next) - 2 * lg_q
    else:
        c = float(1 - p)
        lg_val = c * lg_next - math.log10(c) - 2 * lg_q
        # correction for the "- 1" in Y^(1-p) - 1, negligible for large Y
        head = c * lg_next
        if head < 300:
            lg_val += math.log10(1.0 - 10.0 ** (-head)) if head > 1e-15 else 0.0
    value = 10.0 ** lg_val if lg_val < 308 else math.inf
    return CriterionTerm(n=entry.n, q=q, q_next=q_next, value=value, log10_value=lg_val)


@dataclass(frozen=True)
class CriterionSeries:
    terms: Tuple[CriterionTerm, ...]
    total: float


def criterion_partial_sum(
    entries: Sequence[QAlphaEntry], f: FDescriptor
) -> CriterionSeries:
    """Evaluate the criterion terms for the given entries, and their sum
    accumulated in entry order."""
    terms = tuple(_power_term(f.p, entry) for entry in entries)
    total = 0.0
    for term in terms:  # not sum(), which compensates from Python 3.12
        total += term.value
    return CriterionSeries(terms=terms, total=total)


@dataclass(frozen=True)
class MeasureCertificate:
    """A proven denominator growth law q_next <= C * q^(mu - 1), named by
    label in CERTIFICATES, the only certificates classify takes.

    eventual certificates allow finitely many exceptions; tail bounds are
    then only applied from the caller-supplied threshold onward.
    """

    mu: float
    C: float
    label: str
    eventual: bool = False

    def check_applicable(self, source: RealSource) -> None:
        if self.label == "mahler":
            ok = source.kind is Kind.NAMED_CONSTANT and source.const in (
                Constant.PI,
                Constant.INV_PI,
            )
            if not ok:
                raise CertificateError(
                    "the transcendence-measure certificate applies only to "
                    "the circle constant and its reciprocal"
                )
        elif source.kind is not Kind.QUADRATIC_SURD:
            raise CertificateError(
                "the algebraic-number certificate requires a declared "
                "quadratic surd source"
            )


# The growth laws classify may apply, by name.
# * mahler: q_next <= q^41 for every convergent a/q, q >= 2, of pi or 1/pi.
#   Mahler (1953) proves |pi - a/b| > b^-42 for all integers a and b >= 2,
#   and a convergent a/q of alpha satisfies |alpha - a/q| < 1/(q q_next).
#   - pi: the two give q^-42 < 1/(q q_next), so q_next < q^41.
#   - 1/pi: multiplying by q pi gives |q - a pi| < pi/q_next <= pi, hence
#     a < (q + pi)/pi.  If a >= 2, Mahler's bound for q/a gives
#     a^-42 < pi/(a q_next), so q_next < pi a^41 < q^41 (1 + pi/q)^41 / pi^40
#     <= q^41, as (1 + pi/q)^41 <= (1 + pi/2)^41 < e^39 < pi^40 for q >= 2.
#     If a = 1, |q - pi| >= pi - 3 gives q_next < pi/(pi - 3) < 23 < q^41.
#   So the law holds with mu = 42 and C = 1, and nothing is eventual.
# * roth: quadratic surds, mu = 2.5 with C = 1 from a threshold on.  Roth's
#   theorem gives no such constant, so this law is not effective.
CERTIFICATES: Dict[str, MeasureCertificate] = {
    cert.label: cert
    for cert in (
        MeasureCertificate(mu=42.0, C=1.0, label="mahler"),
        MeasureCertificate(mu=2.5, C=1.0, label="roth", eventual=True),
    )
}


def _times_power(x: float, q: int, beta: Fraction) -> float:
    """An upper bound of x * q^-beta for a float x > 0, an integer q >= 1
    and beta > 0, never 0, with neither q nor a power of it converted to a
    float, so q may exceed 10^308.

    With e = max(bitlen(q) - 53, 0), m = q >> e is an exact double and
    q >= m 2^e, so q^-beta <= m^-beta 2^(f - k) with k = ceil(beta e) and
    f = k - beta e in [0, 1), both exact.  A relative 2^-40 covers the
    roundings of the product and those of x, of a few ulps each, and a
    result below the smallest normal double, which ldexp may round down,
    moves up to the next double.
    """
    e = max(q.bit_length() - 53, 0)
    k = math.ceil(beta * e)
    v = x * (q >> e) ** -float(beta) * 2.0 ** float(k - beta * e) * (1 + 2.0 ** -40)
    v = math.ldexp(v, -k)
    return v if v >= 2.0 ** -1022 else math.nextafter(v, math.inf)


def measure_tail_bound(
    mu: float,
    C: float,
    p: Union[Fraction, float, str],
    from_q: int = 2,
) -> Optional[float]:
    """Upper bound on the criterion tail over entries with q >= from_q.

    Uses the geometric floor q_k >= from_q * 2^(k/2) (denominators at least
    double every second step) together with q_next <= C * q^(mu - 1).
    Returns None when the exponent condition (mu - 1)(1 - p) < 2 fails, in
    which case the certificate says nothing about convergence.  from_q may
    have any size: the power of it goes through _times_power, and the
    result is never 0.
    """
    p = Fraction(p)
    if not 0 < p <= 1:
        raise ValueError("exponent p must lie in (0, 1]")
    if not 2 < mu < math.inf or C <= 0 or from_q < 1:
        raise ValueError("need a finite mu > 2, C > 0, from_q >= 1")
    c_eff = max(C, 1.0)  # enlarging C only weakens the bound, keeps logs >= 0
    if p == 1:
        # term(q) <= (ln C + (mu-1) ln q) / q^2, summed over q_k = from_q * 2^(k/2):
        # sum 2^-k = 2 and sum k 2^-k = 2.
        base = math.log(c_eff) + (mu - 1) * math.log(from_q)
        return _times_power(2.0 * base + (mu - 1) * math.log(2.0), from_q, Fraction(2))
    beta = 2 - (Fraction(mu) - 1) * (1 - p)
    if beta <= 0:
        return None
    one_minus = float(1 - p)
    lead = c_eff ** one_minus / one_minus
    # 1 - 2^(-beta/2), without cancellation for a small beta; 0 when a
    # beta below about 1e-323 underflows, and then the bound is inf
    ratio = -math.expm1(-float(beta) * math.log(2.0) / 2)
    return _times_power(lead / ratio, from_q, beta) if ratio else math.inf


class Outcome(str, Enum):
    CONVERGES = "Converges"
    DIVERGES = "Diverges"
    INCONCLUSIVE = "Inconclusive"


class VerdictCertificate(str, Enum):
    RATIONAL_ODD_Q = "RationalOddQ"
    RATIONAL_EVEN_Q = "RationalEvenQ"
    CRITERION_BOUNDED = "CriterionBounded"
    LIOUVILLE_FAMILY = "LiouvilleFamily"
    QALPHA_EMPTY_STRUCTURAL = "QAlphaEmptyStructural"
    EVIDENCE = "Evidence"


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    certificate: VerdictCertificate
    parameters: Dict[str, object]
    evidence: Tuple[CriterionTerm, ...] = ()
    evidence_partial_sum: float = 0.0
    notes: Tuple[str, ...] = ()


def _liouville_divergence(source: RealSource, p: Fraction) -> Optional[str]:
    """Reason string when the staircase family forces divergence, else None.

    The exponent jumps e_k drive the criterion terms: at the level-k
    convergent, log10(term) grows like (1-p) e_{k+1} - 2 e_k.  For the
    factorial schedule that tends to infinity exactly when p < 1 (at p = 1
    the terms decay and this test is silent).  For the doubly exponential
    schedule (e_{k+1} = 100^{e_k} = 10^{2 e_k}) the p = 1 terms approach
    the constant ln 10, so the series still diverges for every p <= 1.
    """
    spec = source.liouville
    assert spec is not None
    if spec.schedule is Schedule.FACTORIAL:
        if p < 1:
            return (
                "factorial exponent schedule: log10 of the level-k criterion "
                "term grows like k! ((1-p)(k+1) - 2), unbounded for p < 1"
            )
        return None
    if spec.schedule is Schedule.TOWER100:
        if p < 1:
            return (
                "doubly exponential schedule: (1-p) e_{k+1} - 2 e_k tends to "
                "infinity, criterion terms unbounded"
            )
        return (
            "doubly exponential schedule at p = 1: criterion terms approach "
            "ln 10 > 0, so the criterion series diverges by the term test"
        )
    return None


def _expansion_evidence(
    source: RealSource, f: FDescriptor, budget: int
) -> Tuple[Tuple[QAlphaEntry, ...], CriterionSeries, Tuple[str, ...]]:
    notes: List[str] = []
    try:
        exp = cfrac.expand(source, budget)
    except PrecisionLimitError as exc:
        return (), CriterionSeries((), 0.0), (f"expansion unavailable: {exc}",)
    if exp.capped:
        notes.append(f"expansion capped: {exp.cap_reason}")
    entries = tuple(cfrac.q_alpha(exp.convergents))
    return entries, criterion_partial_sum(entries, f), tuple(notes)


def classify(
    source: RealSource,
    f: FDescriptor,
    budget: int = 24,
    certs: Sequence[str] = (),
) -> Verdict:
    """Decision ladder for the alternating sine-weighted series.

    1. Rational a/q: exact parity decision (odd q converges, even diverges).
    2. A surd declared by a cf: prefix with an all-ones tail (its pqs): the
       entry set is provably finite, so the criterion sum is finite and the
       series converges.
    3. Growth certificates, named from CERTIFICATES: if q_next <= C q^(mu-1)
       applies to this source and measure_tail_bound gives a finite bound,
       the criterion series is bounded and the series converges.
    4. Staircase (Liouville-type) sources whose criterion terms are
       provably unbounded: diverges.
    5. Otherwise Inconclusive, carrying computed partial sums as evidence.
    """
    for name in certs:
        if name not in CERTIFICATES:
            raise ValueError(f"unknown certificate {name!r}; choose from {', '.join(CERTIFICATES)}")
        CERTIFICATES[name].check_applicable(source)
    # every rung below that reads the expansion shares one
    evidence = functools.cache(lambda: _expansion_evidence(source, f, budget))

    def with_evidence(outcome, certificate, parameters, *reasons):
        _, series, notes = evidence()
        return Verdict(outcome, certificate, parameters, series.terms, series.total, notes + reasons)

    if source.kind is Kind.RATIONAL:
        q = source.q
        if q % 2 == 1:
            return Verdict(
                outcome=Outcome.CONVERGES,
                certificate=VerdictCertificate.RATIONAL_ODD_Q,
                parameters={"a": source.a, "q": q},
                notes=("partial sums stay within q*f(N) of one another; exact parity rule",),
            )
        return Verdict(
            outcome=Outcome.DIVERGES,
            certificate=VerdictCertificate.RATIONAL_EVEN_Q,
            parameters={"a": source.a, "q": q},
            notes=("even denominator forces secular drift of size tan(pi/2q)/q * integral of f",),
        )

    if source.kind is Kind.QUADRATIC_SURD and source.pqs:
        return with_evidence(
            Outcome.CONVERGES,
            VerdictCertificate.QALPHA_EMPTY_STRUCTURAL,
            {"entries_found": len(evidence()[0])},
            "all partial quotients are eventually 1, so only finitely many "
            "denominators can double; the criterion sum is finite",
        )

    p = f.p
    for name in certs:
        cert = CERTIFICATES[name]
        if measure_tail_bound(cert.mu, cert.C, p) is None:
            continue  # the law says nothing at this p
        entries, series, _ = evidence()
        from_q = 2 * entries[-1].q if entries else 2
        tail = measure_tail_bound(cert.mu, cert.C, p, from_q)
        if not math.isfinite(tail):
            continue
        return with_evidence(
            Outcome.CONVERGES,
            VerdictCertificate.CRITERION_BOUNDED,
            {
                "measure": cert.label,
                "mu": cert.mu,
                "C": cert.C,
                "eventual": cert.eventual,
                "tail_from_q": from_q,
                "tail_bound": tail,
                "series_bound": series.total + tail,
            },
        )

    if source.kind is Kind.LIOUVILLE:
        reason = _liouville_divergence(source, p)
        if reason is not None:
            return Verdict(
                outcome=Outcome.DIVERGES,
                certificate=VerdictCertificate.LIOUVILLE_FAMILY,
                parameters={"schedule": source.liouville.schedule.value, "p": float(p)},
                notes=(reason,),
            )

    return with_evidence(
        Outcome.INCONCLUSIVE,
        VerdictCertificate.EVIDENCE,
        {"entries_found": len(evidence()[0]), "budget_convergents": budget},
        "no exact structure or growth certificate applies; the computed "
        "partial sums are evidence only",
    )


_LOG10_20_3 = math.log10(20.0 / 3.0)


@dataclass(frozen=True)
class StaircaseLevel:
    """One level of a staircase number: lam = lambda_level (denominator q),
    log10 lower bounds for the next denominator q_next and for the criterion
    term (1/q^2) F(q_next), either possibly inf, and how lam was shown to be
    a convergent: "expansion", "gap_bound" or None (not shown).
    """

    level: int
    exponent: int
    lam: Fraction
    q_next_log10_lower: float
    criterion_term_log10_lower: float
    verification: Optional[str]


def staircase_levels(
    source: RealSource, f: FDescriptor, terms: int
) -> Tuple[Tuple[StaircaseLevel, ...], Expansion, Optional[str]]:
    """The first `terms` levels of a staircase source, from its start level.

    Returns the levels, the expansion that verified them (24 convergents,
    doubled up to 384 until it reaches the top level's denominator), and an
    error message when a level's exponent is not representable; the levels
    below it are still reported.
    """
    spec = source.liouville
    if spec is None:
        raise ValueError("staircase levels need a liouville: source")
    levels: List[StaircaseLevel] = []
    error: Optional[str] = None
    for level in range(spec.start, spec.start + terms):
        e_here = spec.exponent(level, 10 ** 9)
        if e_here is None:
            error = (
                f"exponent e_{level} of the {spec.schedule.value} schedule is not "
                f"representable; reporting levels below {level} only"
            )
            break
        lam = Fraction(*spec.truncation(level))
        q = lam.denominator
        lg_q = math.log10(q)
        # e_next is exact, or None (read as inf) beyond float range.
        e_next = spec.exponent(level + 1, 10 ** 307)
        if e_next is None:
            q_next_lg = term_lg = math.inf
        else:
            q_next_lg = e_next - lg_q - _LOG10_20_3
            if f.p == 1:
                term_lg = math.log10(q_next_lg * math.log(10.0)) - 2 * lg_q
            else:
                term_lg = float(1 - f.p) * q_next_lg - 2 * lg_q
        # Legendre gap certificate: the remaining tail is < 4*10^-e_next, so
        # 8 q^2 < 10^e_next forces lambda to be a convergent of alpha.
        gap_ok = e_next is None or not _exceeds_power_multiple(8 * q * q + 1, 1, e_next)
        verification = "gap_bound" if gap_ok else None
        levels.append(StaircaseLevel(level, e_here, lam, q_next_lg, term_lg, verification))
    top_den = levels[-1].lam.denominator if levels else None
    count = 24
    while True:
        exp = cfrac.expand(source, count)
        reached = exp.convergents and top_den and exp.convergents[-1].q >= top_den
        if exp.capped or reached or count >= 384:
            break
        count *= 2
    convergents = {(c.a, c.q) for c in exp.convergents}
    for i, lv in enumerate(levels):
        if (lv.lam.numerator, lv.lam.denominator) in convergents:
            levels[i] = replace(lv, verification="expansion")
    return tuple(levels), exp, error
