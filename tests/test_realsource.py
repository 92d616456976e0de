"""Enclosure correctness for every source kind, checked against the conftest oracles."""

import math
import sys
import threading
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import mpf_pi

import dseries as ds
from dseries import realsource
from conftest import e_fraction, pi_fraction, sqrt_fraction


def _contains(iv, x: Fraction, slack: Fraction = Fraction(0)) -> bool:
    return iv.lo - slack <= x <= iv.hi + slack


def test_rational_enclosure_is_tight():
    src = ds.make_rational(22, 7)
    iv = src.approximate(128)
    assert _contains(iv, Fraction(22, 7))
    assert iv.width <= Fraction(1, 2 ** 128)


def test_rational_reduces_and_rejects_zero_denominator():
    src = ds.make_rational(4, 6)
    assert (src.a, src.q) == (2, 3)
    with pytest.raises(ValueError):
        ds.make_rational(1, 0)


def test_pi_enclosure_matches_machin_oracle(pi_oracle):
    src = ds.make_constant("pi")
    iv = src.approximate(300)
    # oracle is within 10^-120 of pi, enclosure within 2^-300
    assert _contains(iv, pi_oracle, slack=Fraction(1, 10 ** 119))
    assert iv.width <= Fraction(1, 2 ** 300)


def test_invpi_times_pi_straddles_one():
    pi_iv = ds.make_constant("pi").approximate(200)
    inv_iv = ds.make_constant("invpi").approximate(200)
    assert pi_iv.lo * inv_iv.lo < 1 < pi_iv.hi * inv_iv.hi


def test_e_enclosure_matches_series_oracle(e_oracle):
    iv = ds.make_constant("e").approximate(300)
    assert _contains(iv, e_oracle, slack=Fraction(1, 10 ** 119))


def test_surd_enclosure_matches_isqrt_oracle(sqrt2_oracle):
    iv = ds.make_surd(0, 1, 2, 1).approximate(300)
    assert _contains(iv, sqrt2_oracle, slack=Fraction(1, 10 ** 119))


def test_surd_general_form():
    # (1 + 2*sqrt(3)) / 5
    oracle = (1 + 2 * sqrt_fraction(3, 80)) / 5
    iv = ds.make_surd(1, 2, 3, 5).approximate(200)
    assert _contains(iv, oracle, slack=Fraction(1, 10 ** 79))


def test_surd_negative_denominator_normalizes():
    a = ds.make_surd(1, 2, 3, -5)
    b = ds.make_surd(-1, -2, 3, 5)
    assert (a.p, a.r, a.d, a.s) == (b.p, b.r, b.d, b.s)


def test_surd_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        ds.make_surd(0, 1, 4, 1)  # perfect square
    with pytest.raises(ValueError):
        ds.make_surd(0, 0, 2, 1)  # rational in disguise
    with pytest.raises(ValueError):
        ds.make_surd(0, 1, 2, 0)


def test_unknown_constant_message():
    with pytest.raises(ValueError, match="pi, invpi or e"):
        ds.make_constant("tau")


def test_enclosures_are_nested_downward():
    src = ds.make_constant("pi")
    wide = src.approximate(100)
    tight = src.approximate(400)
    assert wide.lo <= tight.lo and tight.hi <= wide.hi


def test_precision_cap_raises():
    src = ds.make_constant("pi", max_bits=256)
    src.approximate(256)
    with pytest.raises(ds.PrecisionLimitError):
        src.approximate(257)


def test_work_stays_within_the_cap(monkeypatch):
    asked = []
    pi_floor = realsource._pi_floor

    def record(bits):
        asked.append(bits)
        return pi_floor(bits)

    monkeypatch.setattr(realsource, "_pi_floor", record)
    ds.make_constant("pi", max_bits=256).approximate(256)
    # pi on the 2^-(256 + 32) grid, plus _raw_constant's 6 guard bits
    assert asked and max(asked) <= 256 + 32 + 6


def test_liouville_partial_matches_direct_series():
    spec = ds.LiouvilleSpec()
    lam = Fraction(*spec.truncation(4))
    expect = sum(Fraction(1, 10 ** f) for f in (1, 2, 6, 24))
    assert lam == expect
    assert lam.denominator == 10 ** 24


def test_liouville_base_and_digits():
    spec = ds.LiouvilleSpec(base_num=1, base_den=7, digits=(1, 3), start=1)
    lam = Fraction(*spec.truncation(3))
    expect = Fraction(1, 7) + Fraction(1, 10) + Fraction(3, 100) + Fraction(1, 10 ** 6)
    assert lam == expect


def test_liouville_enclosure_contains_partial():
    spec = ds.LiouvilleSpec()
    src = ds.make_liouville(spec)
    iv = src.approximate(128)
    lam4 = Fraction(*spec.truncation(4))
    # alpha lies between lambda_4 and lambda_4 + 2*10^-120
    assert iv.lo <= lam4 + Fraction(2, 10 ** 120)
    assert iv.hi >= lam4


def test_liouville_tower_unrepresentable_level():
    spec = ds.LiouvilleSpec(schedule=ds.Schedule.TOWER100)
    with pytest.raises(ds.PrecisionLimitError):
        spec.truncation(3)


def test_pq_stream_prefix_enclosure():
    # a deep prefix certifies real bits; the exact truncation value lies inside
    big = 2 ** 32
    src = ds.make_pq_stream([0, big, big])
    iv = src.approximate(64)
    assert _contains(iv, Fraction(big, big * big + 1))
    # a shallow prefix cannot certify anything at the grid base
    with pytest.raises(ds.PrecisionLimitError):
        ds.make_pq_stream([0, 2, 4]).approximate(64)


def test_pq_stream_all_ones_tail_is_surd():
    # [1; 1, 1, ...] is the golden ratio (1 + sqrt(5))/2
    src = ds.make_pq_stream([1], all_ones_tail=True)
    assert src.kind is ds.Kind.QUADRATIC_SURD
    assert src.pqs == (1,)
    oracle = (1 + sqrt_fraction(5, 80)) / 1 / 2
    iv = src.approximate(200)
    assert _contains(iv, oracle, slack=Fraction(1, 10 ** 79))


def test_pq_stream_tail_after_prefix():
    # [0; 2, 1, 1, 1, ...] = 1/(2 + 1/phi) = phi/(2 phi + 1)
    src = ds.make_pq_stream([0, 2], all_ones_tail=True)
    phi = (1 + sqrt_fraction(5, 80)) / 2
    oracle = 1 / (2 + 1 / phi)
    iv = src.approximate(200)
    assert _contains(iv, oracle, slack=Fraction(1, 10 ** 77))


def test_only_a_cf_prefix_declares_an_all_ones_tail():
    # make_surd takes no tail: a surd's pqs is the prefix make_pq_stream read
    with pytest.raises(TypeError):
        ds.make_surd(0, 1, 2, 1, all_ones_tail=True)
    assert ds.make_surd(0, 1, 2, 1).pqs == ()
    assert ds.make_pq_stream([0, 2], all_ones_tail=True).pqs == (0, 2)


def test_pq_stream_rejects_nonpositive_quotient():
    with pytest.raises(ValueError):
        ds.make_pq_stream([1, 0, 2])


# -- integer enclosures against the 0.1.0 Fraction code --------------------------


def _ref_raw(src, level):
    """Certified enclosure with exact Fraction endpoints, as 0.1.0 computed it."""
    kind = src.kind
    if kind is ds.Kind.RATIONAL:
        v = Fraction(src.a, src.q)
        return v, v
    if kind is ds.Kind.QUADRATIC_SURD:
        t = level + abs(src.r).bit_length() + 2
        m = math.isqrt(src.d << (2 * t))
        root_lo, root_hi = Fraction(m, 1 << t), Fraction(m + 1, 1 << t)
        if src.r > 0:
            return (src.p + src.r * root_lo) / src.s, (src.p + src.r * root_hi) / src.s
        return (src.p + src.r * root_hi) / src.s, (src.p + src.r * root_lo) / src.s
    if kind is ds.Kind.NAMED_CONSTANT:
        if src.const is ds.Constant.E:
            target = Fraction(1, 1 << (level + 2))
            total, fact, k = Fraction(2), 1, 1
            while True:
                k += 1
                fact *= k
                total += Fraction(1, fact)
                tail = Fraction(k + 2, (k + 1) * fact * (k + 1))
                if tail <= target:
                    return total, total + tail

        def mpf_frac(t):
            sign, man, exp, _ = t
            v = Fraction(int(man)) * Fraction(2) ** exp
            return -v if sign else v

        prec = level + 8
        while True:
            lo, hi = mpf_frac(mpf_pi(prec, "d")), mpf_frac(mpf_pi(prec, "u"))
            if hi - lo <= Fraction(1, 1 << level):
                break
            prec *= 2
        return (lo, hi) if src.const is ds.Constant.PI else (1 / hi, 1 / lo)
    if kind is ds.Kind.LIOUVILLE:
        spec = src.liouville
        dec = int(math.ceil((level + 2) * math.log10(2.0))) + 3
        total = Fraction(spec.base_num, spec.base_den)
        k = spec.start
        while True:
            e = spec.exponent(k, dec)
            if e is None:
                break
            total += Fraction(spec.digit(k), 10 ** e)
            k += 1
        e_next = spec.exponent(k, 8 * dec)
        bound = Fraction(10, 3) / 10 ** e_next if e_next is not None else Fraction(1, 10 ** (dec + 1))
        return total, total + bound
    pm1, qm1, pm2, qm2 = 1, 0, 0, 1
    for a in src.pqs:
        pm1, pm2 = a * pm1 + pm2, pm1
        qm1, qm2 = a * qm1 + qm2, qm1
    lo, hi = sorted((Fraction(pm1, qm1), Fraction(pm1 + pm2, qm1 + qm2)))
    if hi - lo > Fraction(1, 1 << level):
        raise ds.PrecisionLimitError("prefix exhausted")
    return lo, hi


def _ref_approximate(src, bits):
    """The raw Fractions at level bits + 32, rounded outward to that grid."""
    lo, hi = _ref_raw(src, bits + 32)
    scale = 1 << (bits + 32)
    return Fraction(math.floor(lo * scale), scale), Fraction(math.ceil(hi * scale), scale)


_NON_SQUARES = [d for d in range(2, 200) if math.isqrt(d) ** 2 != d]


@st.composite
def _sources(draw):
    kind = draw(st.sampled_from(["rat", "surd", "const", "liouville", "cf", "cf_tail"]))
    if kind == "rat":
        return ds.make_rational(draw(st.integers(-10 ** 6, 10 ** 6)), draw(st.integers(1, 10 ** 6)))
    if kind == "surd":
        return ds.make_surd(
            draw(st.integers(-50, 50)),
            draw(st.integers(-9, 9).filter(bool)),
            draw(st.sampled_from(_NON_SQUARES)),
            draw(st.integers(-20, 20).filter(bool)),
        )
    if kind == "const":
        return ds.make_constant(draw(st.sampled_from(["pi", "invpi", "e"])))
    if kind == "liouville":
        base_den = draw(st.integers(1, 50))
        base_num = draw(st.integers(-100, 100).filter(lambda a: math.gcd(a, base_den) == 1))
        return ds.make_liouville(
            ds.LiouvilleSpec(
                base_num=base_num,
                base_den=base_den,
                digits=tuple(draw(st.lists(st.sampled_from([1, 3]), min_size=1, max_size=3))),
                start=draw(st.integers(1, 3)),
                schedule=draw(st.sampled_from(list(ds.Schedule))),
            )
        )
    pqs = [draw(st.integers(-5, 5))] + draw(st.lists(st.integers(1, 2 ** 60), min_size=0, max_size=12))
    return ds.make_pq_stream(pqs, all_ones_tail=kind == "cf_tail")


@settings(max_examples=250, deadline=None)
@given(src=_sources(), bits=st.one_of(st.sampled_from([1, 32, 96, 224, 480]), st.integers(1, 700)))
def test_integer_enclosures_match_fraction_reference(src, bits):
    try:
        expect = _ref_approximate(src, bits)
    except ds.PrecisionLimitError:
        with pytest.raises(ds.PrecisionLimitError):
            src.approximate(bits)
        return
    iv = src.approximate(bits)
    assert (iv.lo, iv.hi) == expect
    assert iv.exp == bits + 32


@settings(max_examples=200, deadline=None)
@given(src=_sources(), bits=st.lists(st.integers(1, 900), min_size=2, max_size=5, unique=True))
def test_enclosures_nest_as_bits_grow(src, bits):
    prev = None
    for b in sorted(bits):
        try:
            iv = src.approximate(b)
        except ds.PrecisionLimitError:
            # a prefix that cannot certify b bits cannot certify more
            for more in (x for x in bits if x > b):
                with pytest.raises(ds.PrecisionLimitError):
                    src.approximate(more)
            return
        assert iv.width <= Fraction(1, 1 << b)
        if prev is not None:
            assert prev.lo <= iv.lo and iv.hi <= prev.hi
        prev = iv


def test_dyadic_interval_validates_its_fields():
    iv = ds.DyadicInterval(-3, 5, 2)
    assert (iv.lo, iv.hi, iv.width, iv.midpoint) == (
        Fraction(-3, 4), Fraction(5, 4), Fraction(2), Fraction(1, 4)
    )
    assert Fraction(1, 2) in iv and 2 not in iv
    with pytest.raises(TypeError):
        ds.DyadicInterval(Fraction(1), 2, 0)
    with pytest.raises(ValueError):
        ds.DyadicInterval(2, 1, 0)
    with pytest.raises(ValueError):
        ds.DyadicInterval(1, 2, -1)


# -- integer pi (Chudnovsky) ---------------------------------------------------------


def _mpf_pi_floor(bits):
    """floor(pi * 2^bits) from mpmath's round-down pi at bits + 2 bits
    (pi < 4, so the mantissa's last bit is worth at least 2^-bits)."""
    _, man, exp, _ = mpf_pi(bits + 2, "d")
    return int(man) << (exp + bits)


@pytest.mark.parametrize("level", [64 << j for j in range(11)])
def test_chudnovsky_pi_floor_matches_mpmath_on_the_ladder(level):
    # a spread of power-of-two sizes from 64 to 2^16 bits, past the
    # hypothesis test's 6000
    assert realsource._chudnovsky_pi_floor(level + 6) == _mpf_pi_floor(level + 6)


@settings(max_examples=200, deadline=None)
@given(bits=st.integers(0, 6000))
def test_chudnovsky_pi_floor_matches_mpmath(bits):
    assert realsource._chudnovsky_pi_floor(bits) == _mpf_pi_floor(bits)


def test_pi_floor_serves_lower_precisions_by_shifting(monkeypatch):
    monkeypatch.setattr(realsource, "_pi_cache", (0, 3))
    assert realsource._pi_floor(3000) == _mpf_pi_floor(3000)

    def refuse(bits):
        raise AssertionError(f"pi recomputed at {bits} bits")

    monkeypatch.setattr(realsource, "_chudnovsky_pi_floor", refuse)
    assert realsource._pi_floor(1000) == _mpf_pi_floor(1000)
    assert realsource._pi_floor(3000) == _mpf_pi_floor(3000)
    assert realsource._pi_cache[0] == 3000


def test_concurrent_pi_and_invpi_requests_match_one_thread(monkeypatch):
    # more threads than cores, each asking for pi and 1/pi at its own levels
    requests = [
        [("pi", 6000), ("invpi", 300)],
        [("invpi", 9000), ("pi", 700)],
        [("pi", 2000), ("invpi", 2000)],
        [("invpi", 100), ("pi", 12000)],
    ]

    def serve(reqs, out):
        barrier.wait()
        out.extend(ds.make_constant(name).approximate(bits) for name, bits in reqs)

    monkeypatch.setattr(realsource, "_pi_cache", (0, 3))
    barrier = threading.Barrier(len(requests), timeout=60)
    results = [[] for _ in requests]
    threads = [threading.Thread(target=serve, args=(r, o)) for r, o in zip(requests, results)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    # the cache ends at the most precise level any thread asked for
    top = max(bits for reqs in requests for _, bits in reqs)
    assert realsource._pi_cache[0] == top + 32 + 6
    monkeypatch.setattr(realsource, "_pi_cache", (0, 3))
    alone = [[ds.make_constant(name).approximate(bits) for name, bits in reqs] for reqs in requests]
    assert results == alone


# -- Liouville tail decision ---------------------------------------------------------


# A valid but coarse bracket of log2(10), 3.3 < log2(10) < 3.4, which often
# cannot fix floor(n log2 10) and so exercises the exact fallback.
_COARSE_LOG2_10 = {"_LOG2_10_LO": 33, "_LOG2_10_HI": 34, "_LOG2_10_DEN": 10}
_FINE_LOG2_10 = {name: getattr(realsource, name) for name in _COARSE_LOG2_10}


@st.composite
def _tail_decisions(draw):
    """(lhs, rhs, n) as _raw_liouville builds them: lhs = (bound_num den) << level,
    rhs = bound_coef gap, and the tail bound is bound_num / (bound_coef 10^n)."""
    bound_num, bound_coef = draw(st.sampled_from([(10, 3), (1, 1)]))  # e_next / dec + 1 branch
    n = draw(st.integers(0, 600))
    level = draw(st.integers(0, 2100))
    shape = draw(st.sampled_from(["exact", "free", "near_tie"]))
    if shape == "exact":  # rem == 0
        return (bound_num * draw(st.integers(1, 10 ** 40))) << level, 0, n
    gap = draw(st.integers(1, 10 ** 40))
    if shape == "free":
        den = gap + draw(st.integers(1, 10 ** 40))
    else:
        # den chosen so that both sides agree to within a few units
        den = max(1, (bound_coef * gap * 10 ** n >> level) // bound_num + draw(st.integers(-2, 2)))
    return (bound_num * den) << level, bound_coef * gap, n


@settings(max_examples=400, deadline=None)
@given(case=_tail_decisions(), coarse=st.booleans())
def test_tail_decision_matches_exact_comparison(case, coarse):
    lhs, rhs, n = case
    with mock.patch.multiple(realsource, **(_COARSE_LOG2_10 if coarse else _FINE_LOG2_10)):
        assert realsource._exceeds_power_multiple(lhs, rhs, n) == (lhs > rhs * 10 ** n)


@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize("n", [1, 7, 301, 4000])
def test_tail_decision_on_equal_bit_lengths(n, delta):
    rhs = 3 * 12345
    lhs = rhs * 10 ** n + delta
    assert lhs.bit_length() == (rhs * 10 ** n).bit_length()
    assert realsource._exceeds_power_multiple(lhs, rhs, n) is (delta > 0)


def test_log2_10_bracket_holds():
    with mpmath.workprec(300):
        exact = mpmath.log(10, 2) * realsource._LOG2_10_DEN
        assert realsource._LOG2_10_LO < exact < realsource._LOG2_10_HI


def test_deep_tower_enclosure_matches_fraction_reference():
    src = ds.make_liouville(ds.LiouvilleSpec(digits=(3, 1), schedule=ds.Schedule.TOWER100))
    iv = src.approximate(16384)
    assert (iv.lo, iv.hi) == _ref_approximate(src, 16384)


# -- staircase truncation and exponents ----------------------------------------------


def _ref_exponent(schedule, k):
    """e_k when it is at most 10^9, else None."""
    if schedule is ds.Schedule.FACTORIAL:
        e = math.factorial(k)
        return e if e <= 10 ** 9 else None
    return {1: 1, 2: 100}.get(k)


@st.composite
def _truncation_cases(draw):
    base_den = draw(st.integers(1, 10 ** 6))
    base_num = draw(st.integers(-10 ** 6, 10 ** 6))
    g = math.gcd(base_num, base_den)
    spec = ds.LiouvilleSpec(
        base_num=base_num // g,
        base_den=base_den // g,
        digits=tuple(draw(st.lists(st.sampled_from([1, 3]), min_size=1, max_size=4))),
        start=draw(st.integers(1, 5)),
        schedule=draw(st.sampled_from(list(ds.Schedule))),
    )
    # representable levels (factorial kept to e <= 8! for speed), levels
    # below start, and levels whose exponent exceeds 10^9
    top, bad = (8, 13) if spec.schedule is ds.Schedule.FACTORIAL else (2, 3)
    level = draw(st.one_of(st.integers(0, top), st.integers(bad, bad + 10)))
    return spec, level


@settings(max_examples=200, deadline=None)
@given(case=_truncation_cases())
def test_truncation_matches_fraction_sum(case):
    spec, level = case
    ks = range(spec.start, level + 1)
    exps = [_ref_exponent(spec.schedule, k) for k in ks]
    if None in exps:
        with pytest.raises(ds.PrecisionLimitError):
            spec.truncation(level)
        return
    num, den = spec.truncation(level)
    expect = Fraction(spec.base_num, spec.base_den) + sum(
        (Fraction(spec.digit(k), 10 ** e) for k, e in zip(ks, exps)), Fraction(0)
    )
    assert Fraction(num, den) == expect
    if exps:
        assert den == spec.base_den * 10 ** exps[-1]
        assert spec.last_level(exps[-1]) == level
    else:
        assert (num, den) == (spec.base_num, spec.base_den)


def _old_exponent(spec, k, limit):
    """LiouvilleSpec.exponent with its former decimal-length tower guard."""
    if spec.schedule is ds.Schedule.FACTORIAL:
        e = math.factorial(k)
        return e if e <= limit else None
    e = 1
    for _ in range(k - 1):
        if 2 * e > len(str(limit)) + 1:
            return None
        e = 100 ** e
        if e > limit:
            return None
    return e


def test_exponent_guard_matches_the_decimal_length_guard():
    limits = {1, 2, 99, 100, 101, 10 ** 9}
    for j in (199, 200, 201, 400):
        limits |= {10 ** j - 1, 10 ** j, 10 ** j + 1}
    for j in (6, 7, 8, 660, 664, 665, 670):
        limits |= {2 ** j - 1, 2 ** j, 2 ** j + 1}
    for schedule in ds.Schedule:
        spec = ds.LiouvilleSpec(schedule=schedule)
        for k in range(1, 7):
            for limit in limits:
                assert spec.exponent(k, limit) == _old_exponent(spec, k, limit), (schedule, k, limit)


def test_last_level_is_the_top_level_within_the_limit():
    spec = ds.LiouvilleSpec(start=3)
    assert spec.last_level(5) == 2  # e_3 = 6 > 5: nothing at or after start
    assert spec.last_level(6) == 3
    assert spec.last_level(10 ** 9) == 12
    assert ds.LiouvilleSpec(schedule=ds.Schedule.TOWER100).last_level(10 ** 300) == 3


def test_power_comparison_early_exit_matches_exact_comparison():
    # lhs of at most 3n bits is below 8^n <= 10^n; check the boundary exactly
    for n in range(0, 40):
        for rhs in (1, 2, 3, 7, 10):
            near = {2 ** (3 * n) - 1, 2 ** (3 * n), 2 ** (3 * n) + 1}
            near |= {rhs * 10 ** n - 1, rhs * 10 ** n, rhs * 10 ** n + 1}
            for lhs in near - {0}:
                assert realsource._exceeds_power_multiple(lhs, rhs, n) == (lhs > rhs * 10 ** n)

