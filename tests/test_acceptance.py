"""Acceptance suite.

Eleven integration criteria, one test function each, numbered so that
`pytest -v tests/test_acceptance.py` prints exactly one pass/fail line per
criterion.  Tolerances and runtime envelopes are stated inline; every
randomized check is seeded and therefore reproducible.
"""

import math
import random
from fractions import Fraction

import pytest

import dseries as ds
import lemmas
from conftest import max_abs_running_sum, record_points_fraction, sqrt_fraction


F1 = ds.make_power_f(1)


def test_01_expansion_matches_brute_force_records(pi_oracle, sqrt2_oracle, e_oracle):
    # the convergents of expand() with q <= 1e5 are exactly the brute-force
    # records (p, q) of the 120-digit oracles, for six sources of all flavors
    cases = [
        (ds.make_constant("pi", max_bits=4096), pi_oracle),
        (ds.make_constant("invpi", max_bits=4096), 1 / pi_oracle),
        (ds.make_surd(0, 1, 2, 1, max_bits=4096), sqrt2_oracle),
        (ds.make_surd(1, 1, 5, 2, max_bits=4096), (1 + sqrt_fraction(5, 120)) / 2),
        (ds.make_constant("e", max_bits=4096), e_oracle),
        (ds.make_rational(355, 113, max_bits=4096), Fraction(355, 113)),
    ]
    for src, oracle in cases:
        brute = record_points_fraction(oracle, 10 ** 5)
        count = 32
        while True:
            exp = ds.expand(src, count)
            done = exp.exact or exp.capped or (
                exp.convergents and exp.convergents[-1].q > 10 ** 5
            )
            if done:
                break
            count *= 2
        mine = [(c.a, c.q) for c in exp.convergents if c.q <= 10 ** 5]
        assert mine == brute, src


def test_02_rational_parity_verdicts_are_exact():
    # 200 random reduced rationals: Converges iff q is odd, zero mismatches
    rng = random.Random(20260819)
    for _ in range(200):
        while True:
            q = rng.randint(2, 1000)
            a = rng.randint(1, q - 1)
            if math.gcd(a, q) == 1:
                break
        verdict = ds.classify(ds.make_rational(a, q), F1)
        expected = ds.Outcome.CONVERGES if q % 2 else ds.Outcome.DIVERGES
        assert verdict.outcome is expected, (a, q)


def test_03_odd_q_partial_sums_stay_bounded():
    # running max of |S| over ten million terms stays below q * f(N) = q/100
    for a, q in [(1, 3), (2, 5), (3, 7)]:
        peak = max_abs_running_sum(a, q, 1.0, 100, 10 ** 7)
        assert peak <= q / 100.0, (a, q, peak)


def test_04_even_q_drift_is_reproduced_within_one_percent():
    for a, q in [(1, 2), (1, 4), (3, 8)]:
        pred = ds.drift_predict(a, q, F1, 10 ** 4, 990000)
        meas = ds.partial_sum_periodic(a, q, F1, 10 ** 4, 990000)
        assert pred.sign == -1  # N = 10^4 is even, so the drift is negative
        assert meas.value < 0
        rel = abs(abs(meas.value) - pred.magnitude) / pred.magnitude
        assert rel < 0.01, (a, q, rel)
        if q == 4:
            assert abs(abs(meas.value) - 0.476862) / 0.476862 < 0.01


def test_05_fourier_identity_within_truncation_bound():
    rng = random.Random(55105)
    bound = 2.0 / (math.pi * 20001.0)
    worst = 0.0
    for _ in range(10 ** 4):
        x = rng.random()
        value, _ = lemmas.fourier_abs_sin(x, 10 ** 4)
        worst = max(worst, abs(value - abs(math.sin(math.pi * x))))
    assert worst <= bound, worst


def test_06_oscillatory_constant_two_ways():
    for p in (0.25, 0.5, 0.75):
        r = lemmas.a_p_constant(p)
        assert abs(r.closed_form - r.quadrature) <= 1.0e-6, p
        assert r.closed_form > p / (1.0 - p), p
    half = lemmas.a_p_constant(0.5)
    assert abs(half.closed_form - math.sqrt(math.pi / 2.0)) <= 1.0e-6


def test_07_inverse_pi_certificate_pipeline():
    verdict = ds.classify(
        ds.make_constant("invpi"), F1, 20,
        ["mahler"],
    )
    assert verdict.outcome is ds.Outcome.CONVERGES
    assert verdict.certificate is ds.VerdictCertificate.CRITERION_BOUNDED
    assert verdict.evidence_partial_sum < 0.05
    dominant = max(verdict.evidence, key=lambda t: t.value)
    assert (dominant.q, dominant.q_next) == (22, 333)
    assert dominant.value == pytest.approx(0.0120, abs=2e-4)


def test_08_even_denominator_index_set_structure():
    # golden ratio: no even record denominator ever doubles, structurally
    phi = ds.make_pq_stream([1], all_ones_tail=True)
    exp = ds.expand(phi, 50)
    assert len(exp.convergents) == 50
    assert ds.q_alpha(exp.convergents) == []
    verdict = ds.classify(phi, F1, 50)
    assert verdict.outcome is ds.Outcome.CONVERGES
    assert verdict.certificate is ds.VerdictCertificate.QALPHA_EMPTY_STRUCTURAL
    # sqrt(2): the index set starts (2,5), (12,29), (70,169)
    entries = ds.q_alpha(ds.expand(ds.make_surd(0, 1, 2, 1), 12).convergents)
    assert [(e.q, e.q_next) for e in entries[:3]] == [(2, 5), (12, 29), (70, 169)]


def test_09_staircase_divergence_evidence():
    spec = ds.LiouvilleSpec(
        base_num=0, base_den=1, digits=(1,), start=1,
        schedule=ds.Schedule("factorial"),
    )
    source = ds.make_liouville(spec)
    count = 24
    while True:
        exp = ds.expand(source, count)
        last_q = exp.convergents[-1].q if exp.convergents else 0
        if exp.capped or last_q >= 10 ** 600 or count >= 512:
            break
        count *= 2
    assert not exp.capped
    lam3 = Fraction(*spec.truncation(3))
    assert lam3 == Fraction(110001, 10 ** 6)
    assert (lam3.numerator, lam3.denominator) in {
        (c.a, c.q) for c in exp.convergents
    }
    assert lam3.denominator % 2 == 0
    series = ds.criterion_partial_sum(
        ds.q_alpha(exp.convergents), ds.make_power_f(Fraction(1, 2))
    )
    assert max(t.log10_value for t in series.terms) >= 10.0
    verdict = ds.classify(source, ds.make_power_f(Fraction(1, 2)))
    assert verdict.outcome is ds.Outcome.DIVERGES
    assert verdict.certificate is ds.VerdictCertificate.LIOUVILLE_FAMILY


def test_10_running_sums_settle_into_a_narrow_band():
    checkpoints = sorted({int(round(10 ** (6 + j / 12))) for j in range(13)})
    trace = ds.scan_partial_sums(
        ds.make_constant("invpi"), F1, 0, 10 ** 7, checkpoints=checkpoints
    )
    values = [row.value for row in trace.rows if 10 ** 6 <= row.m <= 10 ** 7]
    assert len(values) == len(checkpoints)
    assert max(values) - min(values) < 0.05


def test_11_lemma_bounds_survive_fuzzing():
    rng = random.Random(1103)
    trials = 10 ** 4

    for _ in range(trials):
        p = Fraction(rng.randint(1, 1000), 1000)
        f = ds.make_power_f(p)
        X = rng.uniform(1.0, 1000.0)
        Y = X + rng.uniform(0.0, 500.0)
        s, bound = lemmas.alternating_tail_check(f, X, Y)
        assert abs(s) <= bound, (float(p), X, Y)

    for _ in range(trials):
        q = rng.randint(3, 500)
        r = q + rng.randint(0, 10 ** 5)
        total, bound = lemmas.progression_sum_bound_check(q, r)
        assert total < bound, (q, r)

    for _ in range(trials):
        alpha = rng.uniform(-3.0, 3.0)
        if abs(alpha - round(alpha)) < 1e-9:
            alpha += 0.1
        N = rng.randint(1, 10 ** 5)
        value, bound = lemmas.geometric_sum(alpha, N)
        assert abs(value) <= bound, (alpha, N)

    inf_cases = 0
    for _ in range(trials):
        p = rng.uniform(0.01, 0.99)
        nu = rng.uniform(0.05, 10.0)
        if rng.random() < 0.015:
            mu = math.inf
            inf_cases += 1
        else:
            mu = nu + 10 ** rng.uniform(-1.0, 2.0)
        res = lemmas.osc_integral(p, nu, mu)
        assert abs(res.value) <= res.lemma_bound + res.quad_error, (p, nu, mu)
    assert inf_cases > 50  # the infinite-tail branch is genuinely exercised
