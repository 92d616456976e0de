"""Expansion and best-approximation tests against independent oracles."""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dseries as ds
from dseries import cfrac
from dseries.errors import PrecisionLimitError
from dseries.realsource import _recurrence
from conftest import cf_convergents, ends, euclid_cf


def test_sqrt2_denominators_match_known_sequence():
    exp = ds.expand(ds.make_surd(0, 1, 2, 1), 8)
    assert [c.q for c in exp.convergents] == [1, 2, 5, 12, 29, 70, 169, 408]
    assert exp.partial_quotients == (1, 2, 2, 2, 2, 2, 2, 2)


def test_pi_denominators_match_known_sequence():
    exp = ds.expand(ds.make_constant("pi"), 6)
    assert [c.q for c in exp.convergents] == [1, 7, 106, 113, 33102, 33215]


def test_pi_partial_quotients_match_machin_oracle(pi_oracle):
    exp = ds.expand(ds.make_constant("pi"), 20)
    oracle = euclid_cf(pi_oracle)[:20]
    assert list(exp.partial_quotients) == oracle


def test_e_partial_quotients_match_series_oracle(e_oracle):
    exp = ds.expand(ds.make_constant("e"), 20)
    # e = [2; 1, 2, 1, 1, 4, 1, 1, 6, ...]: the expansion drops the integer
    # part convergent because a_1 = 1, but the quotient list is complete.
    oracle = euclid_cf(e_oracle)[:21]
    assert list(exp.partial_quotients) == oracle
    assert (exp.convergents[0].a, exp.convergents[0].q) == (3, 1)


def test_rational_expansion_exact():
    exp = ds.expand(ds.make_rational(355, 113), 10)
    assert exp.exact
    assert list(exp.partial_quotients) == [3, 7, 16]
    assert [(c.a, c.q) for c in exp.convergents] == [(3, 1), (22, 7), (355, 113)]
    assert exp.convergents[-1].dist.lo_m == 0


def test_rational_last_quotient_at_least_two():
    # Euclid canonical form never ends in 1 (for non-integers)
    for a, q in [(1, 2), (2, 3), (7, 5), (100, 7)]:
        exp = ds.expand(ds.make_rational(a, q), 30)
        pqs = exp.partial_quotients
        if len(pqs) > 1:
            assert pqs[-1] >= 2


@settings(max_examples=150, deadline=None)
@given(a=st.integers(-10 ** 6, 10 ** 6), q=st.integers(1, 10 ** 6))
def test_rational_quotients_match_euclid_oracle(a, q):
    exp = ds.expand(ds.make_rational(a, q), 64)
    assert exp.exact
    assert list(exp.partial_quotients) == euclid_cf(Fraction(a, q))


@settings(max_examples=80, deadline=None)
@given(a=st.integers(1, 10 ** 4), q=st.integers(2, 10 ** 4))
def test_rational_convergent_invariants(a, q):
    exp = ds.expand(ds.make_rational(a, q), 64)
    alpha = Fraction(a, q)
    pairs = cf_convergents(list(exp.partial_quotients))
    emitted = [(c.a, c.q) for c in exp.convergents]
    # emitted list is a suffix-aligned subsequence of the oracle recurrence
    assert emitted == pairs[-len(emitted):]
    dists = []
    for c in exp.convergents:
        exact = abs(alpha * c.q - c.a)
        lo, hi = ends(c.dist)
        assert lo <= exact <= hi
        dists.append(exact)
    assert all(x > y for x, y in zip(dists, dists[1:]))


def test_distance_sandwich_against_next_denominator(pi_oracle):
    # 1/(q_{n+1} + q_n) <= |q_n alpha - p_n| <= 1/q_{n+1}
    exp = ds.expand(ds.make_constant("pi"), 12)
    convs = exp.convergents
    for cur, nxt in zip(convs, convs[1:]):
        exact = abs(pi_oracle * cur.q - cur.a)
        assert exact <= Fraction(1, nxt.q)
        assert exact >= Fraction(1, nxt.q + cur.q)


def test_golden_ratio_drops_integer_part_convergent():
    phi = ds.make_surd(1, 1, 5, 2)
    exp = ds.expand(phi, 10)
    assert exp.partial_quotients[:5] == (1, 1, 1, 1, 1)
    # first emitted convergent is 2/1, not 1/1
    assert (exp.convergents[0].a, exp.convergents[0].q) == (2, 1)
    qs = [c.q for c in exp.convergents]
    assert qs == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]


def test_expand_capped_on_prefix_stream():
    exp = ds.expand(ds.make_pq_stream([0, 2, 4, 3]), 10)
    assert exp.capped and not exp.exact
    assert exp.cap_reason
    assert list(exp.partial_quotients) == [0, 2, 4, 3]


def test_expand_capped_by_max_bits():
    exp = ds.expand(ds.make_constant("pi", max_bits=128), 40)
    assert exp.capped
    assert len(exp.convergents) < 40
    # what was emitted is still correct
    assert [c.q for c in exp.convergents][:4] == [1, 7, 106, 113]


def test_q_alpha_filters_even_doubling_denominators():
    exp = ds.expand(ds.make_surd(0, 1, 2, 1), 10)
    entries = ds.q_alpha(exp.convergents)
    assert [(e.q, e.q_next) for e in entries[:3]] == [(2, 5), (12, 29), (70, 169)]
    for e in entries:
        assert e.q % 2 == 0 and e.q_next >= 2 * e.q


def test_q_alpha_empty_for_golden_ratio():
    exp = ds.expand(ds.make_surd(1, 1, 5, 2), 30)
    assert ds.q_alpha(exp.convergents) == []


def test_invpi_q_alpha_first_entry():
    exp = ds.expand(ds.make_constant("invpi"), 12)
    entries = ds.q_alpha(exp.convergents)
    assert (entries[0].q, entries[0].q_next) == (22, 333)


def test_convergent_enclosures_certify_order(pi_oracle):
    # dist intervals of successive convergents must not overlap
    exp = ds.expand(ds.make_constant("pi"), 15)
    for cur, nxt in zip(exp.convergents, exp.convergents[1:]):
        assert ends(nxt.dist)[1] < ends(cur.dist)[0]


# -- integer expansion against the 0.1.0 Fraction code -----------------------------


def _ref_common_pqs(lo: Fraction, hi: Fraction, limit: int):
    """0.1.0 _common_pqs: Euclid on the Fraction endpoints."""
    out = []
    while len(out) < limit:
        flo, fhi = math.floor(lo), math.floor(hi)
        if flo != fhi:
            break
        out.append(flo)
        a, b = lo - flo, hi - flo
        if a == 0 or b == 0:
            break
        lo, hi = 1 / b, 1 / a
    return out


@settings(max_examples=300, deadline=None)
@given(
    lo_m=st.integers(-(2 ** 300), 2 ** 300),
    width=st.one_of(st.just(0), st.integers(0, 2 ** 40), st.integers(0, 2 ** 300)),
    exp=st.integers(0, 320),
    limit=st.integers(1, 400),
    a=st.integers(-(2 ** 200), 2 ** 200),
    q=st.integers(3, 2 ** 200).filter(lambda q: q & (q - 1)),
)
def test_common_pqs_match_fraction_euclid(lo_m, width, exp, limit, a, q):
    iv = ds.DyadicInterval(lo_m, lo_m + width, exp)
    assert cfrac._common_pqs(lo_m, lo_m + width, 1 << exp, limit) == _ref_common_pqs(*ends(iv), limit)
    # A rational is the degenerate interval [a, a] / q, q not a power of two.
    assert cfrac._common_pqs(a, a, q, q + 1) == euclid_cf(Fraction(a, q))


def _distance_image(c, lo: Fraction, hi: Fraction):
    """{|q x - p| : lo <= x <= hi} for the convergent p/q = c.a/c.q."""
    lo, hi = c.q * lo - c.a, c.q * hi - c.a
    if lo < 0 < hi:
        return Fraction(0), max(-lo, hi)
    return tuple(sorted((abs(lo), abs(hi))))


@pytest.mark.parametrize(
    "source",
    [
        ds.make_constant("pi"),
        ds.make_constant("e"),
        ds.make_surd(-9, -5, 96, 4),
        ds.make_liouville(ds.LiouvilleSpec(base_num=-2, base_den=3)),
    ],
)
def test_distances_match_fraction_image_of_the_enclosure(source):
    # |q x - p| over the enclosure, as 0.1.0 computed it with Fractions
    exp = ds.expand(source, 120)
    lo, hi = ends(source.approximate(exp.bits_used))
    for c in exp.convergents:
        assert ends(c.dist) == _distance_image(c, lo, hi)


@settings(max_examples=150, deadline=None)
@given(a=st.integers(-10 ** 18, 10 ** 18), q=st.integers(1, 10 ** 18))
def test_rational_distances_are_the_exact_distance_on_the_grid(a, q):
    alpha = Fraction(a, q)
    grid = cfrac._dist_grid_bits(alpha.denominator)
    exp = ds.expand(ds.make_rational(a, q), 200)
    assert exp.exact
    for c in exp.convergents:
        x = c.q * alpha
        exact = min(x - math.floor(x), math.ceil(x) - x)  # ||q alpha||
        scaled = exact * 2 ** grid
        assert c.dist == ds.DyadicInterval(math.floor(scaled), math.ceil(scaled), grid)


@st.composite
def _prefixes(draw):
    """Partial-quotient prefixes of 1 to 12 quotients, with a_1 = 1 or >= 2."""
    pqs = [draw(st.integers(-20, 20))]
    length = draw(st.integers(1, 12))
    if length > 1:
        pqs.append(draw(st.one_of(st.just(1), st.integers(2, 60))))
    pqs += draw(st.lists(st.integers(1, 60), min_size=length - len(pqs), max_size=length - len(pqs)))
    return pqs


@settings(max_examples=200, deadline=None)
@given(pqs=_prefixes())
def test_prefix_distances_are_the_image_of_the_exact_prefix_interval(pqs):
    # the reals whose expansion starts with pqs lie between the last
    # convergent and its mediant with the one before; each distance is the
    # image of that interval rounded outward to the grid, as 0.1.0 computed
    # it with Fractions
    (p_prev, q_prev), (p, q) = ([(1, 0)] + cf_convergents(pqs))[-2:]
    lo, hi = sorted((Fraction(p, q), Fraction(p + p_prev, q + q_prev)))
    grid = cfrac._dist_grid_bits(q + q_prev)
    lo = Fraction(math.floor(lo * 2 ** grid), 2 ** grid)
    hi = Fraction(math.ceil(hi * 2 ** grid), 2 ** grid)
    exp = ds.expand(ds.make_pq_stream(pqs), 16)
    assert exp.partial_quotients == tuple(pqs)
    for c in exp.convergents:
        assert (*ends(c.dist), c.dist.exp) == (*_distance_image(c, lo, hi), grid)


# -- resumed rounds against the loop that restarted Euclid -------------------------


def _restarting_expand(source, count):
    """expand() on an escalating source as it ran before rounds resumed:
    each round runs Euclid from the first quotient and rebuilds the (p, q)
    recurrence from a_0."""
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
        pqs = cfrac._common_pqs(lo, hi, 1 << grid, count + 4)
        start = cfrac._emit_start(pqs)
        rec = _recurrence(pqs[: start + count + 1])
        m = 0
        for k in range(min(count, len(rec) - start - 1), 0, -1):
            q_ref = rec[start + k][1]
            if (hi - lo) * (q_ref * q_ref << 25) <= 1 << grid:
                m = k
                break
        if m == count or bits >= cap:
            reason = f"precision cap {cap} bits reached"
            break
        bits = min(bits * 2, cap)
    capped = m < count
    return cfrac.Expansion(
        convergents=cfrac._emit(pqs, _recurrence(pqs), lo, hi, 1 << grid, grid, m),
        partial_quotients=tuple(pqs[: cfrac._emit_start(pqs) + m]),
        exact=False,
        capped=capped,
        cap_reason=f"{reason}; emitted {m} of {count}" if capped else None,
        bits_used=used,
    )


_NON_SQUARES = [d for d in range(2, 200) if math.isqrt(d) ** 2 != d]


@st.composite
def _escalating_sources(draw):
    """Surds, pi, 1/pi, e and Liouville numbers, with a precision cap small
    enough to stop some expansions or large enough for all."""
    max_bits = draw(st.one_of(st.integers(64, 400), st.integers(401, 20_000)))
    kind = draw(st.sampled_from(["surd", "const", "liouville"]))
    if kind == "surd":
        return ds.make_surd(
            draw(st.integers(-50, 50)),
            draw(st.integers(-9, 9).filter(bool)),
            draw(st.sampled_from(_NON_SQUARES)),
            draw(st.integers(-20, 20).filter(bool)),
            max_bits=max_bits,
        )
    if kind == "const":
        return ds.make_constant(draw(st.sampled_from(["pi", "invpi", "e"])), max_bits=max_bits)
    base_den = draw(st.integers(1, 50))
    spec = ds.LiouvilleSpec(
        base_num=draw(st.integers(-100, 100).filter(lambda a: math.gcd(a, base_den) == 1)),
        base_den=base_den,
        digits=tuple(draw(st.lists(st.sampled_from([1, 3]), min_size=1, max_size=3))),
        start=draw(st.integers(1, 3)),
        schedule=draw(st.sampled_from(list(ds.Schedule))),
    )
    return ds.make_liouville(spec, max_bits=max_bits)


@settings(max_examples=120, deadline=None)
@given(source=_escalating_sources(), count=st.integers(1, 150))
def test_resumed_rounds_match_euclid_from_scratch(source, count):
    rounds = []
    common_pqs = cfrac._common_pqs

    def recording(lo, hi, den, limit, known=(), rec=()):
        out = common_pqs(lo, hi, den, limit, known, rec)
        rounds.append((list(known), out, common_pqs(lo, hi, den, limit)))
        return out

    with mock.patch.object(cfrac, "_common_pqs", recording):
        got = cfrac.expand(source, count)
    for k, (known, resumed, scratch) in enumerate(rounds):
        assert resumed == scratch
        # each round resumes after every quotient of the round before
        assert known == (rounds[k - 1][1] if k else [])
    assert got == _restarting_expand(source, count)
    for c in got.convergents:
        assert type(c.dist.lo_m) is int and type(c.dist.hi_m) is int and c.dist.lo_m <= c.dist.hi_m


@pytest.mark.parametrize("name", ["pi", "invpi", "e"])
@pytest.mark.parametrize("max_bits", [64, 200, 1000])
def test_capped_expansion_keeps_its_reason_and_precision(name, max_bits):
    source = ds.make_constant(name, max_bits=max_bits)
    got = cfrac.expand(source, 400)
    assert got.capped and got.bits_used == max_bits
    assert got == _restarting_expand(source, 400)
