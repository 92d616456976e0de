"""Partial-sum engine: accuracy against mpmath references, bound honesty."""

import math
import os
import random
import signal
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import dseries as ds
import lemmas
from dseries import realsource, sumengine
from dseries.realsource import Kind
from conftest import ends, mp_partial_sum, mp_prefix_sums

CHUNK = sumengine._CHUNK
BATCH = sumengine._BATCH


def test_alpha_half_first_four_terms_exact():
    # |sin(n pi / 2)| kills even n: S = -1 - 1/3 = -4/3
    r = ds.partial_sum_direct(ds.make_rational(1, 2), ds.make_power_f(1), 0, 4)
    assert r.value == pytest.approx(-4.0 / 3.0, abs=1e-14)
    assert abs(r.value + 4.0 / 3.0) <= r.rounding_bound


def test_alpha_third_matches_closed_form():
    # -sqrt(3)/4
    r = ds.partial_sum_direct(ds.make_rational(1, 3), ds.make_power_f(1), 0, 3)
    assert r.value == pytest.approx(-math.sqrt(3.0) / 4.0, abs=1e-14)


def test_direct_matches_mpmath_for_sqrt2():
    src = ds.make_surd(0, 1, 2, 1)
    r = ds.partial_sum_direct(src, ds.make_power_f(1), 0, 1500)
    with mpmath.workdps(60):
        oracle = mp_partial_sum(mpmath.sqrt(2), 1.0, 0, 1500)
    assert abs(r.value - oracle) <= r.rounding_bound + 1e-15


def test_direct_matches_mpmath_for_pi_window():
    src = ds.make_constant("pi")
    r = ds.partial_sum_direct(src, ds.make_power_f(Fraction(1, 2)), 50, 1200)
    with mpmath.workdps(60):
        oracle = mp_partial_sum(mpmath.pi, 0.5, 50, 1200)
    assert abs(r.value - oracle) <= r.rounding_bound + 1e-15


def test_periodic_equals_direct_for_rationals():
    f = ds.make_power_f(1)
    for a, q in [(1, 3), (2, 5), (1, 2), (3, 8), (5, 12)]:
        src = ds.make_rational(a, q)
        d = ds.partial_sum_direct(src, f, 7, 5000)
        p = ds.partial_sum_periodic(a, q, f, 7, 5000)
        assert abs(d.value - p.value) <= d.rounding_bound + p.rounding_bound


@pytest.mark.parametrize(
    "a, q, N, M",
    [
        (7, 13, 5, 10),  # wraps past 13
        (7, 13, 0, 12),
        (7, 13, 25, 13),  # M = q
        (7, 13, 3, 500),
        (1, 2, 0, 1),
        (3, 8, 6, 5),  # wraps past 8, even q
        (5, 12, 100, 11),
        (2, 1, 4, 3),
        (5, 97, 90, 60),  # wraps past 97
        (12345, 700001, 700000 * 3 - 20, 45),
        (12345, 2 ** 60 + 33, 10 ** 6, 50),  # q > 2^53: residues from Python ints
    ],
)
def test_periodic_matches_mpmath_within_bound(a, q, N, M):
    for p in (1, Fraction(1, 2)):
        r = ds.partial_sum_periodic(a, q, ds.make_power_f(p), N, M)
        oracle = mp_partial_sum(Fraction(a, q), float(p), N, M)
        assert abs(r.value - oracle) <= r.rounding_bound + math.ulp(oracle) / 2


def test_periodic_weight_table_wraps_across_batches():
    # q < M, and q is no multiple of the batch length: each batch starts at
    # its own offset of the class-weight table, repeated cyclically to cover it
    q, N, M = 100001, 12345, 10 ** 6
    f = ds.make_power_f(1)
    p = ds.partial_sum_periodic(1, q, f, N, M)
    d = ds.partial_sum_direct(ds.make_rational(1, q), f, N, M)
    assert abs(p.value - d.value) <= p.rounding_bound + d.rounding_bound


def test_periodic_huge_q_visits_only_window_classes():
    q = 10 ** 12 + 1
    f = ds.make_power_f(Fraction(1, 2))
    r = ds.partial_sum_periodic(1, q, f, 0, 10)
    oracle = mp_partial_sum(Fraction(1, q), 0.5, 0, 10)
    assert abs(r.value - oracle) <= r.rounding_bound


def test_periodic_bound_holds_when_window_wraps_near_multiple_of_q():
    # weights |sin(pi k/q)| with k near q come from min(k, q - k)/q, so they
    # keep their relative accuracy
    for q in (10 ** 6 + 1, 10 ** 12 + 1):
        N = q - 5
        r = ds.partial_sum_periodic(1, q, ds.make_power_f(Fraction(1, 2)), N, 10, max_terms=2 ** 53)
        oracle = mp_partial_sum(Fraction(1, q), 0.5, N, 10)
        assert abs(r.value - oracle) <= r.rounding_bound


def test_periodic_requires_reduced_fraction():
    with pytest.raises(ValueError):
        ds.partial_sum_periodic(2, 4, ds.make_power_f(1), 0, 10)


_P_VALUES = [
    Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4), Fraction(1, 7), Fraction(999, 1000)
]


def hurwitz_periodic_sum(a, q, p, N, M):
    """S(a/q; M, N) at 60 digits, one residue class of n mod L at a time
    (L = q for even q, 2q for odd q): the class of first index n and cnt
    terms sums to L^-p (zeta(p, n/L) - zeta(p, n/L + cnt)), or to
    (psi(n/L + cnt) - psi(n/L))/L at p = 1; a class of at most 16 terms is
    summed term by term."""
    L = q if q % 2 == 0 else 2 * q
    with mpmath.workdps(60):
        s = mpmath.mpf(p.numerator) / p.denominator
        total = mpmath.mpf(0)
        for j in range(min(L, M)):
            n, cnt = N + 1 + j, (M - 1 - j) // L + 1
            if n * a % q == 0:
                continue
            if cnt <= 16:
                t = mpmath.fsum(mpmath.mpf(n + i * L) ** -s for i in range(cnt))
            elif p == 1:
                x = mpmath.mpf(n) / L
                t = (mpmath.digamma(x + cnt) - mpmath.digamma(x)) / L
            else:
                x = mpmath.mpf(n) / L
                t = mpmath.mpf(L) ** -s * (mpmath.zeta(s, x) - mpmath.zeta(s, x + cnt))
            total += (-1) ** n * mpmath.sinpi(mpmath.mpf(n * a % q) / q) * t
        return total


def _coprime_to(a, q):
    while math.gcd(a, q) != 1:
        a += 1
    return a


def _log_uniform(lo, hi):
    """Integers in [lo, hi] with every order of magnitude drawn alike."""
    digits = st.integers(len(str(lo)), len(str(hi)))
    return digits.flatmap(lambda d: st.integers(max(lo, 10 ** (d - 1)), min(hi, 10 ** d - 1)))


@st.composite
def _periodic_windows(draw):
    if draw(st.booleans()):  # any q up to 10^4, in windows of at most 400 terms
        q, M = draw(_log_uniform(1, 10 ** 4)), draw(st.integers(1, 400))
    else:  # windows up to 10^9 terms, over few enough classes for mpmath
        q, M = draw(st.integers(1, 30)), draw(_log_uniform(1, 10 ** 9))
    N = draw(_log_uniform(1, 10 ** 9 - M + 1)) - 1
    return _coprime_to(draw(st.integers(1, 2 * q)), q), q, N, M


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(window=_periodic_windows(), p=st.sampled_from(_P_VALUES))
def test_periodic_matches_hurwitz_zeta_within_bound(window, p):
    a, q, N, M = window
    r = ds.partial_sum_periodic(a, q, ds.make_power_f(p), N, M)
    ref = hurwitz_periodic_sum(a, q, p, N, M)
    assert abs(r.value - ref) <= r.rounding_bound + math.ulp(ref) / 2


def _exact_class_sum(n, step, cnt, p):
    with mpmath.workdps(50):
        s = mpmath.mpf(p.numerator) / p.denominator
        return mpmath.fsum(mpmath.mpf(n + k * step) ** -s for k in range(cnt))


def _class_sum_and_bound(n, step, cnt, p, n_max):
    """_class_sums of the classes with first indices n, and the absolute
    error bound of each."""
    total, rel = sumengine._class_sums(np.array(n, np.float64), cnt, float(step), ds.make_power_f(p), n_max)
    return total, rel * total


@pytest.mark.parametrize("order", [1, 2, 3, 12])
@pytest.mark.parametrize("p", [Fraction(1), Fraction(1, 2), Fraction(1, 3)])
def test_class_sum_bound_holds_at_every_euler_maclaurin_order(monkeypatch, order, p):
    # below order 12 the truncation remainder dominates the bound, so a
    # bound without it fails here
    monkeypatch.setattr(sumengine, "_EM_ORDER", order)
    rng = random.Random(order)
    step = rng.randrange(1, 500)
    for cnt in rng.sample(range(sumengine._EM_MIN + 1, 80), 3):
        n = [rng.randrange(1, 10 ** 5) for _ in range(10)]
        total, err = _class_sum_and_bound(n, step, cnt, p, 10 ** 6)
        for i in range(10):
            assert abs(total[i] - _exact_class_sum(n[i], step, cnt, p)) <= err[i], (n[i], step, cnt)


@pytest.mark.parametrize("p", [Fraction(1), Fraction(1, 2), Fraction(1, 3)])
def test_direct_class_sums_within_bound(p):
    # every count up to _EM_MIN is summed term by term, in groups of 8
    rng = random.Random(7)
    step = rng.randrange(1, 5000)
    for cnt in range(1, sumengine._EM_MIN + 1):
        n = [rng.randrange(1, 10 ** 6) for _ in range(4)]
        total, err = _class_sum_and_bound(n, step, cnt, p, 10 ** 7)
        for i in range(4):
            assert abs(total[i] - _exact_class_sum(n[i], step, cnt, p)) <= err[i], (n[i], step, cnt)


def test_euler_maclaurin_remainder_bound_covers_the_omitted_tail():
    """For small classes, in mpmath at the double p the class sums use: the
    exact tail against integral + halves + the first J corrections, for
    every order J, within |b_J| alpha r_A^(2J-1) and within the
    |b_J| 8^(2-2J) alpha r_A that _class_sums charges."""
    with mpmath.workdps(50):
        for p in (1.0, 0.5, float(Fraction(1, 3))):
            s = mpmath.mpf(p)
            for A, step, m in ((9, 1, 1), (17, 2, 5), (801, 100, 30), (12345, 1000, 7)):
                B = A + m * step
                exact = mpmath.fsum(mpmath.mpf(A + i * step) ** -s for i in range(m + 1))
                if p == 1.0:
                    integral = mpmath.log(mpmath.mpf(B) / A) / step
                else:
                    integral = (mpmath.mpf(B) ** (1 - s) - mpmath.mpf(A) ** (1 - s)) / ((1 - s) * step)
                alpha, beta = mpmath.mpf(A) ** -s, mpmath.mpf(B) ** -s
                r_a, r_b = mpmath.mpf(step) / A, mpmath.mpf(step) / B
                approx = integral + (alpha + beta) / 2
                rising = s
                for J in range(1, sumengine._EM_ORDER + 1):
                    bern = sumengine._BERNOULLI[J - 1]
                    assert Fraction(*mpmath.bernfrac(2 * J)) == bern
                    b = mpmath.mpf(bern.numerator) / bern.denominator / mpmath.factorial(2 * J) * rising
                    approx += b * (alpha * r_a ** (2 * J - 1) - beta * r_b ** (2 * J - 1))
                    rising *= (s + 2 * J - 1) * (s + 2 * J)
                    remainder = abs(exact - approx)
                    assert remainder <= abs(b) * alpha * r_a ** (2 * J - 1), (p, A, step, m, J)
                    coeffs, _, rem_coeff = sumengine._em_coeffs(p, J)
                    assert remainder <= rem_coeff * alpha * r_a, (p, A, step, m, J)
                    assert abs(coeffs[-1] - b) <= abs(b) * 2.0 ** -53


# (n, step, cnt) where the bound of a class sum of 1/n is tightest, among
# random classes with a head of one group of rows, of two, and with a tail.
_SHARP_HEADS = [(8135696, 2450, 8), (5941181, 2551, 6), (3225717, 143, 7), (1020384, 1750, 8)]
_SHARP_GROUPS = [(1018536, 2001, 9), (8245325, 522, 9), (8245447, 1107, 10)]
_SHARP_TAILS = [(4777231, 2491, 50), (2202326, 1459, 36)]


def test_class_sum_bound_is_sharp_within_a_factor_of_two():
    # 1/n is one IEEE division, so these sums are the same on every platform;
    # halving the class-sum bound fails on every kind of class
    for picks in (_SHARP_HEADS, _SHARP_GROUPS, _SHARP_TAILS):
        worst = 0
        for n, step, cnt in picks:
            total, err = _class_sum_and_bound([n], step, cnt, Fraction(1), 2 ** 40)
            exact = sum(Fraction(1, n + k * step) for k in range(cnt))
            ratio = abs(Fraction(float(total[0])) - exact) / Fraction(float(err[0]))
            assert ratio <= 1, (n, step, cnt)
            worst = max(worst, ratio)
        assert worst > Fraction(1, 2)


def test_split_sum_is_exact_but_for_a_tiny_rest():
    # terms over 20 orders of magnitude with both signs, so a plain
    # pairwise sum is off in some of these cases
    rng = np.random.default_rng(5)
    plain_off = False
    for n in (1, 2, 7, 1000, 2 ** 14):
        for _ in range(3):
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-20, 0, n)
            s = float(np.sum(np.abs(x)))
            exact = sum(map(Fraction, x.tolist()))
            plain_off |= Fraction(float(np.sum(x))) != exact
            high, rest = sumengine._split_sum(x.copy(), s)
            assert abs(Fraction(high) + Fraction(rest) - exact) <= Fraction(4e-10) * Fraction(s) / 2 ** 53
    assert plain_off


@pytest.mark.parametrize("p", [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(999, 1000)])
def test_power_integral_within_its_bound(p):
    f = ds.make_power_f(p)
    power, f_err = sumengine._power(f, 2 ** 53)
    pairs = [
        (1, 1), (1, 2), (7, 8), (10 ** 8, 10 ** 8 + 1), (10 ** 8, 10 ** 8 + 10 ** 7), (9001, 10 ** 9),
        (3, 2 ** 53), (2 ** 52, 2 ** 53), (10 ** 15, 10 ** 15 + 12345),
    ]
    lo = np.array([x for x, _ in pairs], np.float64)
    hi = np.array([y for _, y in pairs], np.float64)
    value, err = sumengine._power_integral(lo, hi, power(lo.copy()), power(hi.copy()), -float(p), f_err)
    with mpmath.workdps(60):
        s = mpmath.mpf(float(p))
        for (x, y), v, e in zip(pairs, value.tolist(), err.tolist()):
            if s == 1:
                exact = mpmath.log(mpmath.mpf(y) / x)
            else:
                exact = (mpmath.mpf(y) ** (1 - s) - mpmath.mpf(x) ** (1 - s)) / (1 - s)
            assert abs(v - exact) <= e, (x, y)


def _exact_mass(p, first, last):
    """sum_{first <= n <= last} n^-p at 60 digits: term by term below 64
    terms, otherwise from the Hurwitz zeta function (digamma at p = 1)."""
    with mpmath.workdps(60):
        s = mpmath.mpf(p.numerator) / p.denominator
        if last - first < 63:
            return mpmath.fsum(mpmath.mpf(n) ** -s for n in range(first, last + 1))
        if p == 1:
            return mpmath.digamma(last + 1) - mpmath.digamma(first)
        return mpmath.zeta(s, first) - mpmath.zeta(s, last + 1)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    p=st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)]),
    first=_log_uniform(1, 2 ** 53),
    length=_log_uniform(1, CHUNK),
)
def test_chunk_mass_bounds_the_exact_sum(p, first, length):
    # the chunk bounds scale with these masses in place of a sum of f(n):
    # never below the exact mass, and close to it once a chunk is not tiny
    first = min(first, 2 ** 53 - length + 1)
    last = first + length - 1
    mass = mpmath.mpf(float(sumengine._masses(ds.make_power_f(p), [first], [last])[0]))
    exact = _exact_mass(p, first, last)
    assert mass >= exact, (first, last)
    if length >= 64:
        assert mass <= exact * mpmath.mpf(1.02), (first, last)


def test_log1p_and_expm1_stay_within_the_assumed_ulp():
    # _power_integral assumes np.log1p and np.expm1 within one ulp (_LIBM_ERR)
    rng = np.random.default_rng(13)
    x = np.concatenate([10.0 ** rng.uniform(-16, 0, 1000), rng.uniform(0, 37, 1000)])
    with mpmath.workdps(40):
        for fn, ref in ((np.log1p, mpmath.log1p), (np.expm1, mpmath.expm1)):
            for xi, g in zip(x.tolist(), fn(x).tolist()):
                assert abs(mpmath.mpf(g) - ref(mpmath.mpf(xi))) <= mpmath.mpf(math.ulp(g))
    assert sumengine._LIBM_ERR == 2.0 ** -52


def test_class_weight_error_constant_is_derived():
    # a class weight: the polynomial's relative _SINPI_ERR, plus u from its
    # correctly rounded argument
    assert Fraction(sumengine._SINPI_ERR) + Fraction(1, 1 << 53) <= Fraction(sumengine._CLASS_WEIGHT_ERR)


def _counting_power(monkeypatch):
    """Count the f(n) values the periodic path evaluates."""
    counted = [0]
    real = sumengine._power

    def power(f, n_max):
        fn, err = real(f, n_max)

        def counting(nf):
            counted[0] += nf.size
            return fn(nf)

        return counting, err

    monkeypatch.setattr(sumengine, "_power", power)
    return counted


def test_periodic_work_does_not_grow_with_the_window(monkeypatch):
    counted = _counting_power(monkeypatch)
    f = ds.make_power_f(Fraction(1, 2))
    for M in (10 ** 5, 10 ** 7, 10 ** 9 - 1):
        counted[0] = 0
        ds.partial_sum_periodic(377, 1000, f, 1, M)
        # 999 classes of nonzero weight: a head of 8 terms and two ends each
        assert counted[0] == 999 * 10, M


def test_zero_weight_classes_evaluate_no_f(monkeypatch):
    # q = 2: only odd n have a nonzero weight, so one class is summed
    counted = _counting_power(monkeypatch)
    assert ds.partial_sum_periodic(1, 2, ds.make_power_f(1), 10 ** 4, 990000).value < 0
    assert counted[0] == 10
    # q = 1: every weight is 0
    counted[0] = 0
    r = ds.partial_sum_periodic(1, 1, ds.make_power_f(1), 0, 10 ** 6)
    assert r == ds.PartialSumResult(0.0, 0.0)
    assert counted[0] == 0


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    half_q=st.integers(1, 10),
    a=st.integers(1, 40),
    N=_log_uniform(1, 8 * 10 ** 8),
    M=_log_uniform(1, 2 * 10 ** 8),
    p=st.sampled_from(_P_VALUES),
)
# q = 2 windows of one term with a weight of 0, after an odd N: the sum is
# then furthest from mu times the integral, and an allowance without its
# |mu| f(N) term fails on them
@example(half_q=1, a=1, N=1, M=1, p=Fraction(1))
@example(half_q=1, a=1, N=3, M=1, p=Fraction(1, 2))
@example(half_q=1, a=1, N=5, M=1, p=Fraction(1, 3))
def test_drift_allowance_bounds_the_true_gap(half_q, a, N, M, p):
    q = 2 * half_q
    a = _coprime_to(a, q)
    pred = ds.drift_predict(a, q, ds.make_power_f(p), N, M)
    exact = hurwitz_periodic_sum(a, q, p, N, M)
    assert abs(exact - -pred.magnitude) <= pred.error_allowance


def test_workers_do_not_change_the_bits(monkeypatch, forks):
    # with the fork threshold at one chunk, 4 workers take 4 blocks of 1 or 2 chunks
    monkeypatch.setattr(sumengine, "_FORK_TERMS", CHUNK)
    src = ds.make_constant("pi")
    f = ds.make_power_f(1)
    M = 5 * CHUNK + 20000
    r1 = ds.partial_sum_direct(src, f, 0, M, workers=1)
    r4 = ds.partial_sum_direct(src, f, 0, M, workers=4)
    assert r1.value == r4.value
    assert r1.rounding_bound == r4.rounding_bound
    assert len(forks) == 3


def reversed_chunk_sum(source, f, N, M):
    """The direct sum with each chunk's terms added backwards and the chunk
    sums added exactly: a second summation order that the forward rounding
    bound must also cover."""
    term_fn, _ = sumengine._make_term_fn(source, f, N, M)
    sums = []
    for lo in range(N + 1, N + M + 1, CHUNK):
        terms = term_fn(lo, min(lo + CHUNK, N + M + 1))
        sums.append(float(np.sum(terms[::-1])))
    return math.fsum(sums)


def test_reverse_summation_agrees_within_bounds():
    src = ds.make_constant("invpi")
    f = ds.make_power_f(1)
    fwd = ds.partial_sum_direct(src, f, 0, 30000)
    assert abs(fwd.value - reversed_chunk_sum(src, f, 0, 30000)) <= fwd.rounding_bound


def test_workers_do_not_change_the_bits_across_many_chunks(monkeypatch, forks):
    monkeypatch.setattr(sumengine, "_FORK_TERMS", CHUNK)
    src = ds.make_constant("pi")
    f = ds.make_power_f(Fraction(1, 2))
    M = 8 * CHUNK + 123
    runs = [ds.partial_sum_direct(src, f, 5, M, workers=w) for w in (1, 2, 4)]
    assert len({r.value for r in runs}) == 1
    assert len({r.rounding_bound for r in runs}) == 1
    assert len(forks) == 1 + 3


def test_reverse_summation_agrees_within_bounds_across_many_chunks(monkeypatch, forks):
    monkeypatch.setattr(sumengine, "_FORK_TERMS", CHUNK)
    src = ds.make_constant("invpi")
    f = ds.make_power_f(1)
    M = 8 * CHUNK + 123
    fwd = ds.partial_sum_direct(src, f, 5, M, workers=2)
    assert abs(fwd.value - reversed_chunk_sum(src, f, 5, M)) <= fwd.rounding_bound
    assert len(forks) == 1


@lru_cache(maxsize=None)
def _mp_sincospi(r, den):
    """sin and cos of pi r/den from mpmath at 40 digits, each rounded once."""
    with mpmath.workdps(40):
        x = mpmath.mpf(r % den) / den
        return float(mpmath.sinpi(x)), float(mpmath.cospi(x))


def takes_table(q, M):
    """Whether a rational direct sum of denominator q over M terms divides
    a cached period of signed weights."""
    return 2 * (q + BATCH) <= M and q + BATCH <= sumengine._PERIOD_TABLE_MAX


def reference_terms(source, f, N, M, lo, hi):
    """Terms for n in [lo, hi), one scalar at a time by the kernel's formula:
    n = g + k with g on the grid N + 1 + j*BATCH and k = i*256 + j, the sine
    and cosine of pi k alpha by angle addition from those of pi i*256 alpha
    and pi j alpha, and those three pairs, like the pair of pi g alpha, from
    mpmath at 40 digits, with alpha the rational itself or the enclosure
    midpoint; the weight divided by n^p (n itself for p = 1, its correctly
    rounded square root for p = 1/2, np.power otherwise).  On the table path
    of a rational a/q, the weight of n is that of N + 1 + ((n - N - 1) mod q)
    and the sign is (-1)^n.  The buffered kernel must reproduce every bit."""
    if source.kind is Kind.RATIONAL:
        alpha = Fraction(source.a, source.q)
    else:
        alpha = sum(ends(source.approximate((N + M).bit_length() + 64))) / 2
    num, den = alpha.numerator, alpha.denominator
    tabled = source.kind is Kind.RATIONAL and takes_table(den, M)
    n_all = np.arange(lo, hi, dtype=np.float64)
    if f.p == 1:
        roots = n_all.tolist()
    elif f.p == Fraction(1, 2):
        roots = [math.sqrt(n) for n in n_all.tolist()]
    else:
        roots = np.power(n_all, float(f.p)).tolist()
    terms = []
    for n, root in zip(range(lo, hi), roots):
        m = N + 1 + (n - N - 1) % den if tabled else n
        k = (m - N - 1) % BATCH
        sin_b, cos_b = _mp_sincospi((m - k) * num, den)
        sin_i, cos_i = _mp_sincospi((k - k % 256) * num, den)
        sin_j, cos_j = _mp_sincospi(k % 256 * num, den)
        sin_t = sin_i * cos_j + cos_i * sin_j
        cos_t = cos_i * cos_j - sin_i * sin_j
        t = abs(sin_t * cos_b + cos_t * sin_b) / root
        terms.append(-t if n % 2 else t)
    return np.array(terms)


KERNEL_WINDOWS = [
    (ds.make_constant("pi"), 1, 0, 100000),
    (ds.make_surd(0, 1, 2, 1), Fraction(1, 2), 10 ** 8 + 6, 3 * CHUNK + 777),
    (ds.make_constant("e"), Fraction(1, 3), 2 ** 53 - 5001, 5001),
    (ds.make_rational(12345, 700001), Fraction(1, 2), 54321, 3 * CHUNK + 11),
    (ds.make_rational(3, 8), 1, 0, 1000),
]


@pytest.mark.parametrize("source, p, N, M", KERNEL_WINDOWS)
def test_kernel_terms_match_reference_bit_for_bit(source, p, N, M):
    f = ds.make_power_f(p)
    term_fn, _ = sumengine._make_term_fn(source, f, N, M)
    for lo in (N + 1, N + 2):
        hi = min(lo + sumengine._BATCH, N + M + 1)
        terms = term_fn(lo, hi)
        ref = reference_terms(source, f, N, M, lo, hi)
        assert terms.tobytes() == ref.tobytes()


# Rational windows of the table path: an odd q above 2^15, an even q below
# it, and q = 3, with M at least 2 (q + 2^15).
TABLE_WINDOWS = [
    (ds.make_rational(12345, 100003), Fraction(1, 2), 777, 2 * (100003 + BATCH) + 29),
    (ds.make_rational(5, 1002), 1, 5, 4 * CHUNK + 2 * 1002 + 9),
    (ds.make_rational(1, 3), Fraction(1, 3), 10 ** 8 + 1, 4 * CHUNK + 17),
]


@pytest.mark.parametrize("source, p, N, M", TABLE_WINDOWS)
def test_table_terms_match_reference_bit_for_bit(source, p, N, M):
    # batches at the first term, at a chunk in, across the end of the first
    # period into the second (odd) one, and inside the second
    q = source.q
    assert takes_table(q, M)
    assert not any(takes_table(s.q, m) for s, _, _, m in KERNEL_WINDOWS if s.kind is Kind.RATIONAL)
    f = ds.make_power_f(p)
    term_fn, _ = sumengine._make_term_fn(source, f, N, M)
    for lo in sorted({N + 1, N + 1 + CHUNK, max(N + 1, N + 1 + q - CHUNK), N + 1 + q + CHUNK}):
        hi = min(lo + BATCH, N + M + 1)
        terms = term_fn(lo, hi)
        ref = reference_terms(source, f, N, M, lo, hi)
        assert terms.tobytes() == ref.tobytes()


def test_each_evaluator_owns_its_work_rows():
    # terms are a view of their own evaluator's rows: a batch of another
    # evaluator, computed or tabled, leaves them as they were
    N, M = 5, 4 * CHUNK + 2 * 1002 + 9
    assert takes_table(1002, M)
    surd, _ = sumengine._make_term_fn(ds.make_surd(0, 1, 2, 1), ds.make_power_f(Fraction(1, 2)), N, M)
    rational, _ = sumengine._make_term_fn(ds.make_rational(5, 1002), ds.make_power_f(1), N, M)
    lo, hi = N + 1, N + 1 + BATCH
    for first, second in ((surd, rational), (rational, surd)):
        terms = first(lo, hi)
        before = terms.copy()
        second(lo, hi)
        assert terms.tobytes() == before.tobytes()


@pytest.mark.parametrize("source, p, N, M", TABLE_WINDOWS)
def test_table_path_keeps_the_bound_of_angle_addition(monkeypatch, forks, source, p, N, M):
    monkeypatch.setattr(sumengine, "_FORK_TERMS", CHUNK)
    f = ds.make_power_f(p)
    runs = [ds.partial_sum_direct(source, f, N, M, workers=w) for w in (1, 2, 3)]
    assert len({(r.value, r.rounding_bound) for r in runs}) == 1
    assert len(forks) == 1 + 2
    scan = ds.scan_partial_sums(source, f, N, M)
    assert (scan.rows[-1].value, scan.rows[-1].rounding_bound) == (runs[0].value, runs[0].rounding_bound)
    assert repr(scan.final) == repr(runs[0])
    monkeypatch.setattr(sumengine, "_PERIOD_TABLE_MAX", 0)
    rotated = ds.partial_sum_direct(source, f, N, M)
    assert rotated.rounding_bound == runs[0].rounding_bound
    assert abs(rotated.value - runs[0].value) <= runs[0].rounding_bound


@pytest.mark.parametrize("source, p, N, M", KERNEL_WINDOWS + TABLE_WINDOWS[1:])
def test_direct_sum_is_exact_sum_of_reference_chunk_sums(source, p, N, M):
    # only the grouping into chunks can move the value: each chunk is one
    # numpy pairwise sum and the chunk sums are added exactly
    f = ds.make_power_f(p)
    ref = reference_terms(source, f, N, M, N + 1, N + M + 1)
    expected = math.fsum(float(np.sum(ref[j : j + CHUNK])) for j in range(0, M, CHUNK))
    for workers in (1, 2):
        r = ds.partial_sum_direct(source, f, N, M, workers=workers, max_terms=2 ** 53)
        assert r.value == expected


def test_sinpi_error_constant_is_proven():
    """Re-derive _SINPI_ERR in exact arithmetic; no library sine is consulted.

    With t = y^2, sin(pi y) = y g(t), g(t) = sum_k (-1)^k pi^(2k+1) t^k / (2k+1)!,
    and the kernel evaluates y Q(t).  To bound e = Q - g on [0, 1/4]: g is cut
    after t^K (its Taylor remainder is below the first omitted term, as the
    terms alternate and decrease for t <= 1/4); pi is replaced by a 256-bit
    lower bound, which moves term k by at most
    (pi_hi - pi_lo) pi_hi^(2k) t^k / (2k)!; the coefficients of the exact
    polynomial are rounded to the grid 2^-P; and on each subinterval the
    polynomial is re-expanded about the midpoint, so the sum of its
    coefficient magnitudes bounds it there.  g >= 2 turns that into the
    relative bound max|e| / 2, to which the Horner rounding term of
    _sinpi is added.
    """
    c = [Fraction(x) for x in sumengine._SINPI_COEFFS]
    K, P, m = 24, 320, 12  # subintervals [w - 1, w + 1] / 2^m, odd w < 2^(m-2)
    pi_lo = Fraction(realsource._pi_floor(256), 1 << 256)
    pi_hi = pi_lo + Fraction(1, 1 << 256)
    quarter = Fraction(1, 4)
    scaled = []  # 2^P e_K(t), rounded, with t = w / 2^m and the powers of 2^m cleared
    for k in range(K + 1):
        ek = (c[k] if k < len(c) else 0) - (-1) ** k * pi_lo ** (2 * k + 1) / math.factorial(2 * k + 1)
        scaled.append(round(ek * (1 << P)) << (m * (K - k)))
    slack = Fraction(K + 1, 2) / (1 << P)
    slack += pi_hi ** (2 * K + 3) / math.factorial(2 * K + 3) * quarter ** (K + 1)
    slack += (pi_hi - pi_lo) * sum(
        pi_hi ** (2 * k) / math.factorial(2 * k) * quarter ** k for k in range(K + 1)
    )
    worst = 0
    for w in range(1, 1 << (m - 2), 2):
        b = scaled[:]  # Taylor shift: coefficients of the polynomial in u = (w' - w)
        for i in range(K):
            for j in range(K - 1, i - 1, -1):
                b[j] += w * b[j + 1]
        worst = max(worst, sum(abs(x) for x in b))
    max_e = Fraction(worst, 1 << (P + m * K)) + slack
    assert max_e < Fraction(38, 10 ** 17)
    u = Fraction(1, 1 << 53)
    horner = sum(
        (3 * i + 2) * u / (1 - (3 * i + 2) * u) * abs(ci) / (1 << (2 * i + 1))
        for i, ci in enumerate(c)
    )
    assert max_e / 2 + horner <= Fraction(sumengine._SINPI_ERR)


def test_weight_error_constant_is_derived():
    """Re-derive _WEIGHT_ERR (see _make_term_fn) in exact arithmetic: every
    table entry is within 4u + 2^-86, and a weight within
    (4 sqrt(2) + 3) u + sqrt(2) (2^-86 + 2^-88), here with a rational upper
    bound r of sqrt(2)."""
    r = Fraction(99, 70)
    assert r * r >= 2
    u = Fraction(1, 1 << 53)
    derived = (4 * r + 3) * u + r * (Fraction(1, 1 << 86) + Fraction(1, 1 << 88))
    assert derived <= Fraction(sumengine._WEIGHT_ERR)


def test_reduction_table_is_correctly_rounded():
    cases = [(12345, 700001), (1, 3), (0, 1), (10 ** 12, 10 ** 12 + 1), (2 ** 53 - 1, 2 ** 53)]
    # den > 2^53, residues from Python ints: enclosure midpoints, a huge
    # rational, and residues onto 0 or 1/2 exactly or within 2^-60 of an integer
    for src in (ds.make_constant("pi"), ds.make_constant("e"), ds.make_surd(0, 1, 2, 1)):
        mid = sum(ends(src.approximate(118))) / 2 % 1
        cases.append((mid.numerator, mid.denominator))
    cases += [
        (10 ** 19 + 7, 10 ** 20 + 1),
        (1, 10 ** 30),
        (2 ** 150, 2 ** 151),
        (2 ** 150 + 1, 2 ** 151),
        (3 * 2 ** 149 - 1, 2 ** 151),
        (2 ** 151 - 1, 2 ** 151),
        (2 ** 150 + 2 ** 97 + 2, 2 ** 151),
        # y = 1/4 + 2^-55 + 2^-150: just above a tie
        (2 ** 149 + 2 ** 96 + 2, 2 ** 151),
        (2 ** 149 - 2 ** 96 - 2, 2 ** 151),
    ]
    rng = random.Random(3)
    for _ in range(5):
        den = rng.randrange(2 ** 54, 2 ** 200)
        cases.append((rng.randrange(den), den))
    for num, den in cases:
        # the periodic path's tables start at an offset
        for start, length in ((0, BATCH), (den // 3, 1000), (den - 1, 1)):
            y = sumengine._reduced_args(num, den, start, length)
            residues = [(start + k * num) % den for k in range(length)]
            assert y.tolist() == [min(r, den - r) / den for r in residues], (num, den)


def numpy_pairwise_model(xs):
    """(sum, depth): numpy's pairwise summation of the floats xs, step by
    step, and the most roundings any addend goes through."""
    n = len(xs)
    if n < 8:
        res = 0.0
        for x in xs:
            res += x
        return res, max(n - 1, 0)
    if n <= 128:
        m = n - n % 8
        r = xs[:8]
        for i in range(8, m, 8):
            r = [a + b for a, b in zip(r, xs[i : i + 8])]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in xs[m:]:
            res += x
        return res, m // 8 - 1 + 3 + n - m
    half = n // 2 - n // 2 % 8
    (a, da), (b, db) = numpy_pairwise_model(xs[:half]), numpy_pairwise_model(xs[half:])
    return a + b, 1 + max(da, db)


def test_pairwise_depth_follows_numpys_summation_tree():
    # the chunk bound charges _pairwise_depth(L) roundings to every term of a
    # sum of L terms: the model must be numpy's own tree, bit for bit
    rng = np.random.default_rng(7)
    for n in list(range(1, 301)) + [1000, 4097, 5760, 9999, 16383, CHUNK]:
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
        value, depth = numpy_pairwise_model(x.tolist())
        # the kernel sums slices of its longer work rows
        assert value == float(np.add.reduce(x)) == float(np.sum(np.append(x, 1e300)[:n])), n
        assert depth == sumengine._pairwise_depth(n), n
        # every term's share: the tree's roundings and its own product's
        assert sumengine._chunk_bound(1.0, n, 0.0) >= (depth + 1) * 2.0 ** -53, n
    assert sumengine._pairwise_depth(127) == 24 and sumengine._pairwise_depth(CHUNK) == 25


@pytest.mark.parametrize("den", [7, 2 ** 20, 10 ** 12 + 1, 2 ** 118, 3 ** 80])
def test_grid_scalars_are_within_their_bound(den):
    # r near 0, den/4, den/2 and den, where sin or cos vanishes or the two meet
    rs = {0, 1, 2, 3 * den // 4, den - 2, den - 1, den, den + 1}
    rs |= {den // 4 + d for d in (-1, 0, 1)} | {den // 2 + d for d in (-1, 0, 1)}
    one = mpmath.mpf(1 << sumengine._SCALAR_BITS)
    with mpmath.workdps(60):
        for r in rs:
            x = mpmath.mpf(r) / den
            for got, exact in zip(sumengine._sincospi(r, den), (mpmath.sinpi(x), mpmath.cospi(x))):
                assert abs(got / one - exact) <= mpmath.mpf(2) ** -153, (r, den)
        # the rotation helper's pairs up to 2^16 steps on: after k steps,
        # within (k + 1) 2^-151 before their one rounding
        steps = 1 << 16
        for r0, step in ((den // 4 + 1, den // 3 + 1), (den - 1, 12345), (0, den // 2 - 1)):
            pairs = sumengine._rotation(r0, step, den, steps + 1)
            for k in list(range(0, steps + 1, 997)) + list(range(steps - 15, steps + 1)):
                x = mpmath.mpf(r0 + k * step) / den
                for got, exact in zip(pairs[k].tolist(), (mpmath.sinpi(x), mpmath.cospi(x))):
                    err = abs(mpmath.mpf(got) - exact)
                    bound = mpmath.mpf(math.ulp(got)) / 2 + (k + 1) * mpmath.mpf(2) ** -151
                    assert err <= bound, (r0, step, k, den)


def test_power_stays_within_the_assumed_ulp():
    # p = 1 and p = 1/2 are correctly rounded steps: n itself or sqrt(n),
    # then 1/. for _power, so they are held to the relative bound that
    # _power returns, 2u at p = 1/2; other p assume np.power within one ulp
    # of n^-fl(p) and n^fl(p)
    rng = np.random.default_rng(11)
    n = np.concatenate([rng.integers(1, 10 ** 6, 500), rng.integers(1, 2 ** 53, 1500)]).astype(np.float64)
    for p in (Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(1, 3)):
        f = ds.make_power_f(p)
        power, err = sumengine._power(f, 2 ** 53)
        root, root_err = sumengine._root(f, 2 ** 53)
        got, got_root = power(n.copy()), root(n.copy())
        with mpmath.workdps(40):
            s = mpmath.mpf(float(p))
            for x, g, r in zip(n.tolist(), got.tolist(), got_root.tolist()):
                exact, exact_root = mpmath.mpf(x) ** -s, mpmath.mpf(x) ** s
                if p == 1:
                    assert abs(mpmath.mpf(g) - exact) <= mpmath.mpf(math.ulp(g)) / 2 and r == x
                elif p == Fraction(1, 2):
                    assert abs(mpmath.mpf(g) - exact) <= err * exact
                    assert abs(mpmath.mpf(r) - exact_root) <= mpmath.mpf(math.ulp(r)) / 2
                else:
                    assert abs(mpmath.mpf(g) - exact) <= mpmath.mpf(math.ulp(g))
                    assert abs(mpmath.mpf(r) - exact_root) <= mpmath.mpf(math.ulp(r))
        p_err = float(abs(p - Fraction(float(p)))) * math.log(2 ** 53)
        u = 2.0 ** -53
        assert (err, root_err) == {
            Fraction(1): (u, 0.0), Fraction(1, 2): (2 * u, u)
        }.get(p, (2 * u + p_err, 2 * u + p_err))


@st.composite
def _weight_windows(draw):
    kind = draw(st.sampled_from(["midpoint", "near_rational", "rational"]))
    if kind == "midpoint":  # an enclosure midpoint: a power-of-two denominator
        den = 2 ** draw(st.integers(54, 130))
        num = draw(st.integers(1, den - 1))
    elif kind == "near_rational":  # within about 10^-10 of a/q
        a, q, scale = draw(st.integers(0, 1000)), draw(st.integers(1, 1000)), 10 ** draw(st.integers(10, 25))
        num, den = a * scale + draw(st.integers(-1000, 1000)), q * scale
    else:
        den = draw(st.integers(1, 2 ** 53))
        num = draw(st.integers(0, den - 1))
    M = draw(st.integers(1, 3 * BATCH))
    N = draw(st.one_of(st.integers(0, 10 ** 6), st.integers(0, 2 ** 53 - M)))
    return ds.make_rational(num, den), N, M


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(window=_weight_windows(), picks=st.lists(st.integers(0, 3 * BATCH), min_size=1, max_size=8))
def test_weight_error_stays_within_the_derived_coefficient(window, picks):
    source, N, M = window
    term_fn, coeff = sumengine._make_term_fn(source, ds.make_power_f(1), N, M)
    # a rational carries no argument error, and for p = 1 the kernel divides
    # by n itself, exactly: the weight's error is the whole coefficient
    assert coeff == sumengine._WEIGHT_ERR
    assert sumengine._make_term_fn(source, ds.make_power_f(Fraction(1, 2)), N, M)[1] == coeff + 2.0 ** -53
    for pick in picks:
        n = N + 1 + pick % M
        term = float(term_fn(n, n + 1)[0])
        with mpmath.workdps(40):
            weight = abs(mpmath.sinpi(mpmath.mpf(n * source.a % source.q) / source.q))
            # |term| is fl(w / n) for the computed weight w
            err = abs(abs(mpmath.mpf(term)) - weight / n)
            assert err <= sumengine._WEIGHT_ERR / mpmath.mpf(n) + mpmath.mpf(math.ulp(term)) / 2
        assert term == 0 or math.copysign(1, term) == (-1) ** n


# (num, den, N, k): windows of _BATCH terms and the picks n = N + 1 + k at
# which the direct weight's error comes nearest to _WEIGHT_ERR, from a scan
# of every table entry of 150 random rational windows.
_WORST_WEIGHT_PICKS = [
    (83830, 188291, 320468, 3248),
    (135251, 414934, 509380, 19060),
    (674485, 896692, 878983, 10479),
    (5971096933915362, 7340062725252671, 878568, 7253),
    (16009, 271339, 3626286511096998, 19982),
    (688266306191401, 4791726421911691, 361358901374698, 22622),
]


def test_weight_error_reaches_a_third_of_the_derived_coefficient():
    # the largest error over table-worst picks: a _WEIGHT_ERR a quarter of
    # its derived value fails this, or the hypothesis test above
    worst = 0
    for num, den, N, k in _WORST_WEIGHT_PICKS:
        term_fn, _ = sumengine._make_term_fn(ds.make_rational(num, den), ds.make_power_f(1), N, BATCH)
        n = N + 1 + k
        term = float(term_fn(n, n + 1)[0])
        with mpmath.workdps(40):
            weight = abs(mpmath.sinpi(mpmath.mpf(n * num % den) / den))
            # the weight's own error, net of the division's rounding
            err = abs(abs(mpmath.mpf(term)) - weight / n) - mpmath.mpf(math.ulp(term)) / 2
        worst = max(worst, err * n)
    assert worst <= sumengine._WEIGHT_ERR
    assert worst >= sumengine._WEIGHT_ERR / 3


_BOUND_SOURCES = st.one_of(
    st.tuples(st.just("rat"), st.integers(1, 10 ** 12), st.integers(-10 ** 12, 10 ** 12)),
    st.tuples(
        st.just("surd"),
        st.integers(-20, 20),
        st.integers(1, 5),
        st.sampled_from([2, 3, 5, 7, 10, 13, 29, 47]),
        st.integers(1, 12),
    ),
    st.tuples(st.sampled_from(["pi", "e", "invpi"])),
)


def _bound_case(spec):
    """(source, mpmath alpha at 80 digits or an exact Fraction) for a drawn spec."""
    if spec[0] == "rat":
        src = ds.make_rational(spec[2], spec[1])
        return src, Fraction(src.a, src.q)
    with mpmath.workdps(80):
        if spec[0] == "surd":
            _, p, r, d, s = spec
            return ds.make_surd(p, r, d, s), (p + r * mpmath.sqrt(d)) / s
        value = {"pi": mpmath.pi, "e": mpmath.e, "invpi": 1 / mpmath.pi}[spec[0]]
        return ds.make_constant(spec[0]), +value


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=_BOUND_SOURCES,
    p=st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 4)]),
    M=st.integers(1, 300),
    start=st.one_of(
        st.integers(0, 10 ** 6), st.integers(0, 2 ** 53), st.integers(2 ** 53 - 10 ** 6, 2 ** 53)
    ),
)
def test_rounding_bound_holds_across_the_accepted_range(spec, p, M, start):
    source, alpha = _bound_case(spec)
    N = min(start, 2 ** 53 - M)
    f = ds.make_power_f(p)
    ref = mp_prefix_sums(alpha, float(p), N, M)

    def check(value, bound, m):
        assert abs(value - ref[m - 1]) <= bound + math.ulp(ref[m - 1]) / 2

    d = ds.partial_sum_direct(source, f, N, M, max_terms=2 ** 53)
    check(d.value, d.rounding_bound, M)
    trace = ds.scan_partial_sums(source, f, N, M, max_terms=2 ** 53)
    for row in trace.rows:
        check(row.value, row.rounding_bound, row.m)
    if source.kind is Kind.RATIONAL:
        r = ds.partial_sum_periodic(source.a, source.q, f, N, M, max_terms=2 ** 53)
        check(r.value, r.rounding_bound, M)


def test_window_past_2_53_is_refused():
    for call in (
        lambda: ds.partial_sum_direct(
            ds.make_surd(0, 1, 2, 1), ds.make_power_f(1), 2 ** 54, 8, max_terms=10 ** 20
        ),
        lambda: ds.scan_partial_sums(
            ds.make_constant("pi"), ds.make_power_f(1), 2 ** 53 - 1, 2, max_terms=10 ** 20
        ),
        lambda: ds.partial_sum_periodic(1, 3, ds.make_power_f(1), 2 ** 54, 8, max_terms=10 ** 20),
    ):
        with pytest.raises(ds.TermLimitError, match=r"2\^53"):
            call()


def test_window_ending_at_2_53_stays_within_bound():
    N, M = 2 ** 53 - 8, 8
    r = ds.partial_sum_direct(
        ds.make_surd(0, 1, 2, 1), ds.make_power_f(1), N, M, max_terms=2 ** 53
    )
    with mpmath.workdps(60):
        oracle = mp_partial_sum(mpmath.sqrt(2), 1.0, N, M)
    assert abs(r.value - oracle) <= r.rounding_bound + math.ulp(oracle) / 2


def test_term_cap_enforced():
    with pytest.raises(ds.TermLimitError):
        ds.partial_sum_direct(
            ds.make_constant("pi"), ds.make_power_f(1), 0, 10 ** 7, max_terms=10 ** 6
        )


def test_geometric_checkpoints_shape():
    cps = ds.geometric_checkpoints(100)
    assert cps[-1] == 100
    assert cps[0] >= 1
    assert all(a < b for a, b in zip(cps, cps[1:]))
    # halving from the top
    assert 50 in cps and 25 in cps and 13 in cps


def test_scan_rows_match_direct_sums():
    src = ds.make_rational(2, 7)
    f = ds.make_power_f(Fraction(1, 2))
    trace = ds.scan_partial_sums(src, f, 3, 4096)
    for row in trace.rows:
        ref = ds.partial_sum_direct(src, f, 3, row.m)
        assert abs(row.value - ref.value) <= row.rounding_bound + ref.rounding_bound
    assert trace.final == ds.partial_sum_direct(src, f, 3, 4096)


def test_scan_checkpoints_equal_direct_sums_bit_for_bit():
    # checkpoints on the chunk grid, then one inside a chunk: each row sums
    # the chunks and the prefix that partial_sum_direct(M=m) sums
    src = ds.make_constant("e")
    f = ds.make_power_f(Fraction(1, 2))
    N, M = 17, 8 * CHUNK + 5
    cps = [CHUNK, 3 * CHUNK, 6 * CHUNK + 1234]
    trace = ds.scan_partial_sums(src, f, N, M, cps)
    assert [row.m for row in trace.rows] == cps
    for row in trace.rows:
        assert row.value == ds.partial_sum_direct(src, f, N, row.m).value
    assert repr(trace.final) == repr(ds.partial_sum_direct(src, f, N, M))


@st.composite
def _scan_windows(draw):
    M = draw(st.integers(1, 3 * CHUNK + 100))
    on_grid = st.sampled_from(sorted({min(j * CHUNK, M) for j in range(1, 5)}))
    cps = draw(st.lists(st.one_of(st.integers(1, M), on_grid), max_size=5))
    return draw(st.integers(0, 10 ** 6)), M, sorted(set(cps))


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(spec=_BOUND_SOURCES, window=_scan_windows(), workers=st.integers(1, 3))
@example(spec=("e",), window=(17, 3 * CHUNK + 50, [CHUNK, 2 * CHUNK, 2 * CHUNK + 1]), workers=3)
def test_scan_rows_are_prefix_reads_of_the_direct_grid(monkeypatch, forks, spec, window, workers):
    # the scan sums the chunks partial_sum_direct sums, whatever checkpoints
    # it is asked for; a checkpoint inside a chunk only reads its prefix.
    # The fixtures hold for every example: the threshold stays at one chunk
    # and the fork count accumulates.
    monkeypatch.setattr(sumengine, "_FORK_TERMS", CHUNK)
    source, _ = _bound_case(spec)
    N, M, cps = window
    f = ds.make_power_f(Fraction(1, 2))
    before = len(forks)
    scan = ds.scan_partial_sums(source, f, N, M, cps, workers=workers)
    assert len(forks) - before == max(1, min(workers, M // CHUNK)) - 1
    assert repr(scan.final) == repr(ds.partial_sum_direct(source, f, N, M))
    assert [row.m for row in scan.rows] == cps
    for row in scan.rows:
        assert repr(row) == repr(ds.scan_partial_sums(source, f, N, M, [row.m]).rows[0])
        if source.kind is Kind.RATIONAL:
            # an irrational's argument error grows with N + M, so only a
            # rational row is the direct sum of the shorter window
            d = ds.partial_sum_direct(source, f, N, row.m)
            assert (row.value, row.rounding_bound) == (d.value, d.rounding_bound)


@pytest.mark.parametrize("source", [ds.make_constant("e"), ds.make_rational(3, 8)])
def test_scan_does_not_depend_on_workers(monkeypatch, forks, source):
    monkeypatch.setattr(sumengine, "_FORK_TERMS", CHUNK)
    f = ds.make_power_f(Fraction(1, 2))
    M = 8 * CHUNK + 123
    cps = ds.geometric_checkpoints(M) + [CHUNK, 5 * CHUNK + 77]
    runs = [ds.scan_partial_sums(source, f, 5, M, cps, workers=w) for w in (1, 2, 4)]
    # repr tells every two distinct doubles apart: rows and bounds are all
    # bit-identical
    assert len({repr(r) for r in runs}) == 1
    assert len(forks) == 1 + 3


# -- forked workers -------------------------------------------------------------

# three blocks of at least _FORK_TERMS terms each, and a partial last chunk
FORK_M = 3 * sumengine._FORK_TERMS + 4321


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "source, p", [(ds.make_surd(3, -2, 7, 5), Fraction(1)), (ds.make_constant("e"), Fraction(1, 2))]
)
def test_forked_workers_give_the_bits_of_one(forks, source, p):
    f = ds.make_power_f(p)
    N, chunks = 99999937, -(-FORK_M // CHUNK)
    # checkpoints at the last term of a block of two or three workers and
    # the first term of the next
    edges = [k * CHUNK + d for k in (chunks // 3, chunks // 2, 2 * chunks // 3) for d in (0, 1)]
    cps = ds.geometric_checkpoints(FORK_M) + edges
    runs = []
    for workers in (1, 2, 3):
        direct = ds.partial_sum_direct(source, f, N, FORK_M, workers=workers)
        scan = ds.scan_partial_sums(source, f, N, FORK_M, cps, workers=workers)
        assert repr(scan.final) == repr(direct)
        runs.append(repr(scan))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    # workers 2 fork once per sum, workers 3 twice
    assert len(forks) == 2 * (1 + 2)
    _assert_no_child_left()


def test_blocks_of_a_few_chunks_give_the_bits_of_one(monkeypatch, forks):
    # with the threshold at one chunk a short window forks too, into blocks
    # whose edges fall next to checkpoints
    monkeypatch.setattr(sumengine, "_FORK_TERMS", CHUNK)
    f = ds.make_power_f(Fraction(1, 3))
    M = 7 * CHUNK + 5
    cps = [m for k in range(8) for m in (k * CHUNK - 1, k * CHUNK, k * CHUNK + 1) if 1 <= m <= M]
    runs = {repr(ds.scan_partial_sums(ds.make_constant("e"), f, 3, M, cps, workers=w)) for w in range(1, 6)}
    assert len(runs) == 1
    assert len(forks) == 1 + 2 + 3 + 4
    _assert_no_child_left()


def _fail(terms, lo):
    raise FloatingPointError("injected")


def _killed(terms, lo):
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize(
    "in_child, action, error, message",
    [
        (True, _fail, RuntimeError, "a sum worker failed: FloatingPointError: injected"),
        (True, _killed, RuntimeError, f"a sum worker failed: status {-signal.SIGKILL}"),
        (False, _fail, FloatingPointError, "injected"),
    ],
    ids=["child-raises", "child-killed", "parent-raises"],
)
def test_a_failed_block_raises_and_every_child_is_reaped(monkeypatch, forks, in_child, action, error, message):
    parent, apply_signs = os.getpid(), sumengine._apply_signs

    def signs(terms, lo):
        if (os.getpid() != parent) == in_child:
            action(terms, lo)
        return apply_signs(terms, lo)

    monkeypatch.setattr(sumengine, "_apply_signs", signs)
    with pytest.raises(error, match=message):
        ds.partial_sum_direct(ds.make_constant("pi"), ds.make_power_f(1), 0, FORK_M, workers=3)
    assert len(forks) == 2
    _assert_no_child_left()


@pytest.mark.parametrize("source, p, N, M", KERNEL_WINDOWS)
def test_direct_sum_equals_scan_final_bit_for_bit(source, p, N, M):
    f = ds.make_power_f(p)
    direct = ds.partial_sum_direct(source, f, N, M, workers=2, max_terms=2 ** 53)
    scan = ds.scan_partial_sums(source, f, N, M, [M], max_terms=2 ** 53)
    assert repr(scan.final) == repr(direct)


def test_drift_prediction_against_measured_q2():
    f = ds.make_power_f(1)
    pred = ds.drift_predict(1, 2, f, 10 ** 4, 99 * 10 ** 4)
    assert pred.magnitude == pytest.approx(0.5 * math.log(100.0), rel=1e-12)
    measured = ds.partial_sum_periodic(1, 2, f, 10 ** 4, 99 * 10 ** 4)
    assert abs(measured.value - -pred.magnitude) <= pred.error_allowance


def test_drift_rejects_bad_inputs():
    f = ds.make_power_f(1)
    with pytest.raises(ValueError):
        ds.drift_predict(1, 3, f, 100, 10)  # odd q
    with pytest.raises(ValueError):
        ds.drift_predict(1, 2, f, 0, 10)  # N = 0: no f(N)
    with pytest.raises(ValueError):
        ds.drift_predict(2, 4, f, 100, 10)  # not reduced


def test_drift_sign_depends_on_parity_anchor():
    # the drift, -magnitude, is negative whichever parity the window starts on
    f = ds.make_power_f(1)
    assert ds.drift_predict(1, 2, f, 10, 100).magnitude > 0
    assert ds.drift_predict(1, 2, f, 11, 100).magnitude > 0


# The lemma checkers of tests/lemmas.py.


def test_fourier_abs_sin_known_points():
    v, err = lemmas.fourier_abs_sin(0.5, 1000)
    assert abs(v - 1.0) <= err
    # x = 0 attains the truncation bound exactly; allow float-eval noise
    v0, err0 = lemmas.fourier_abs_sin(0.0, 1000)
    assert abs(v0 - 0.0) <= err0 + 1e-12
    v3, err3 = lemmas.fourier_abs_sin(1.0 / 3.0, 500)
    assert abs(v3 - math.sin(math.pi / 3.0)) <= err3


def test_fourier_error_bound_formula():
    _, err = lemmas.fourier_abs_sin(0.25, 10 ** 4)
    assert err == pytest.approx(2.0 / (math.pi * 20001.0), rel=1e-12)


def test_geometric_sum_spec_example():
    value, bound = lemmas.geometric_sum(0.1, 5)
    assert abs(value) == pytest.approx(3.23607, abs=1e-5)
    assert abs(value) <= bound + 1e-12
    # oracle: direct complex sum
    direct = sum(complex(math.cos(2 * math.pi * n * 0.1), math.sin(2 * math.pi * n * 0.1)) for n in range(5))
    assert value == pytest.approx(direct, abs=1e-12)


def test_geometric_sum_rejects_integer_alpha():
    with pytest.raises(ValueError):
        lemmas.geometric_sum(3.0, 10)


def test_osc_integral_spec_window():
    res = lemmas.osc_integral(0.5, math.pi / 2.0, 3.0 * math.pi / 2.0)
    assert res.lemma_bound == pytest.approx(2.0 * (math.pi / 2.0) ** -0.5, rel=1e-12)
    assert res.lemma_bound == pytest.approx(1.5957691, abs=1e-6)
    assert abs(res.value) <= res.lemma_bound
    with mpmath.workdps(40):
        oracle = float(
            mpmath.quad(lambda t: mpmath.cos(t) / mpmath.sqrt(t), [math.pi / 2.0, 3.0 * math.pi / 2.0])
        )
    assert res.value == pytest.approx(oracle, abs=1e-11)


def test_osc_integral_infinite_tail_against_mpmath():
    res = lemmas.osc_integral(0.5, 1.0)
    # int_1^inf cos(t)/sqrt(t) dt = Re(i^(1/2) Gamma(1/2, -i)), in closed form
    with mpmath.workdps(40):
        half = mpmath.mpf(1) / 2
        oracle = float(mpmath.re(1j ** half * mpmath.gammainc(half, -1j)))
    assert res.value == pytest.approx(oracle, abs=1e-7)


def test_a_p_constant_half():
    r = lemmas.a_p_constant(Fraction(1, 2))
    assert r.closed_form == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)
    assert abs(r.quadrature - r.closed_form) <= 1e-6
    assert r.closed_form > r.lower_bound


def test_a_p_constant_rejects_p_one():
    with pytest.raises(ValueError):
        lemmas.a_p_constant(1)


def test_progression_sum_bound_spec_values():
    s, bound = lemmas.progression_sum_bound_check(3, 100)
    assert bound == pytest.approx(2.0 / 9.0, rel=1e-12)
    # independent enumeration over k = 3, 9, ..., 99
    oracle = sum(1.0 / (k * k - 1.0) for k in range(3, 101, 6))
    assert s == pytest.approx(oracle, rel=1e-12)
    assert s < bound
    s2, _ = lemmas.progression_sum_bound_check(3, 3)
    assert s2 == pytest.approx(0.125, rel=1e-12)
    s3, _ = lemmas.progression_sum_bound_check(10, 10 ** 4)
    assert s3 < 0.02


def test_progression_sum_rejects_bad_types():
    with pytest.raises(TypeError):
        lemmas.progression_sum_bound_check(3.0, 100)


def test_alternating_tail_within_first_term():
    f = ds.make_power_f(1)
    s, bound = lemmas.alternating_tail_check(f, 10, 20)
    assert bound == pytest.approx(0.1, rel=1e-12)
    assert abs(s) <= bound
    # inclusive range: sum over n = 10..20 starts with +f(10)
    oracle = sum((-1.0) ** n / n for n in range(10, 21))
    assert s == pytest.approx(oracle, rel=1e-12)
    # X = Y keeps the single boundary term, making the bound tight
    s2, bound2 = lemmas.alternating_tail_check(f, 10, 10)
    assert abs(s2) == pytest.approx(bound2, rel=1e-12)


def test_alternating_tail_real_endpoints():
    f = ds.make_power_f(Fraction(1, 2))
    s, bound = lemmas.alternating_tail_check(f, 10.5, 30.7)
    oracle = sum((-1.0) ** n / math.sqrt(n) for n in range(11, 31))
    assert s == pytest.approx(oracle, rel=1e-12)
    assert abs(s) <= bound


def test_trace_final_agrees_with_direct():
    src = ds.make_constant("pi")
    f = ds.make_power_f(1)
    tr = ds.scan_partial_sums(src, f, 0, 2 ** 14)
    d = ds.partial_sum_direct(src, f, 0, 2 ** 14)
    assert abs(tr.final.value - d.value) <= tr.final.rounding_bound + d.rounding_bound
