"""Classifier, weight descriptors, measure certificates, tail bounds."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

import dseries as ds
from dseries.cli import console_main
from dseries.criterion import FDescriptor
from conftest import pi_fraction


def test_make_power_f_validates_range():
    ds.make_power_f(1)
    ds.make_power_f(Fraction(1, 2))
    with pytest.raises(ValueError):
        ds.make_power_f(0)
    with pytest.raises(ValueError, match="absolute"):
        ds.make_power_f(Fraction(3, 2))
    with pytest.raises(ValueError):
        ds.make_power_f(-1)


@pytest.mark.parametrize("p", [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(7, 9)])
def test_power_f_matches_closure_arithmetic_bit_for_bit(p):
    # the descriptor is its exact exponent: every float weight is computed
    # from f.p where it is used
    f = ds.make_power_f(p)
    assert f == FDescriptor(p)


def test_rational_parity_verdicts():
    odd = ds.classify(ds.make_rational(2, 7), ds.make_power_f(1))
    assert odd.outcome is ds.Outcome.CONVERGES
    assert odd.certificate is ds.VerdictCertificate.RATIONAL_ODD_Q
    even = ds.classify(ds.make_rational(3, 8), ds.make_power_f(1))
    assert even.outcome is ds.Outcome.DIVERGES
    assert even.certificate is ds.VerdictCertificate.RATIONAL_EVEN_Q


def test_integer_alpha_is_odd_denominator_case():
    v = ds.classify(ds.make_rational(5, 1), ds.make_power_f(1))
    assert v.outcome is ds.Outcome.CONVERGES


def test_all_ones_tail_structural_certificate():
    phi = ds.make_pq_stream([1], all_ones_tail=True)
    v = ds.classify(phi, ds.make_power_f(1))
    assert v.outcome is ds.Outcome.CONVERGES
    assert v.certificate is ds.VerdictCertificate.QALPHA_EMPTY_STRUCTURAL


def test_criterion_partial_sum_invpi_leading_term():
    exp = ds.expand(ds.make_constant("invpi"), 12)
    entries = ds.q_alpha(exp.convergents)
    series = ds.criterion_partial_sum(entries, ds.make_power_f(1))
    # (1/22^2) * ln(333)
    assert series.terms[0].value == pytest.approx(math.log(333) / 484, rel=1e-9)
    running = 0.0
    for term in series.terms:
        running += term.value
    assert series.total == running  # accumulated in entry order, bit for bit


def test_criterion_term_log_space_for_huge_q_next():
    entry = ds.QAlphaEntry(n=1, q=10 ** 120, q_next=10 ** 600)
    series = ds.criterion_partial_sum([entry], ds.make_power_f(Fraction(1, 2)))
    t = series.terms[0]
    assert t.log10_value == pytest.approx(0.5 * 600 - math.log10(0.5) - 240, rel=1e-9)
    assert t.value == pytest.approx(10 ** (t.log10_value - 60) * 1e60, rel=1e-6)
    # past the float range the value degrades to inf but the log stays exact
    huge = ds.QAlphaEntry(n=2, q=2, q_next=10 ** 700)
    t2 = ds.criterion_partial_sum([huge], ds.make_power_f(Fraction(1, 2))).terms[0]
    assert t2.value == math.inf
    assert t2.log10_value == pytest.approx(0.5 * 700 - math.log10(0.5) - 2 * math.log10(2.0), rel=1e-9)


def test_measure_tail_bound_spec_point():
    bound = ds.measure_tail_bound(2.5, 1.0, 1, 10 ** 6)
    assert bound is not None
    assert bound < 1e-4


def test_classify_skips_certificate_with_infinite_tail():
    # at p = 39/41 + 10^-k/41 Mahler's exponent 2 - 41 (1 - p) is 10^-k, and
    # the tail bound overflows (k = 310) or its 1 - 2^(-beta/2) underflows
    # to 0 (k = 400): an infinite bound decides nothing
    for k in (310, 400):
        p = Fraction(39, 41) + Fraction(1, 41 * 10 ** k)
        assert ds.measure_tail_bound(42.0, 1.0, p) == math.inf
        v = ds.classify(ds.make_constant("invpi"), ds.make_power_f(p), certs=["mahler"])
        assert v.outcome is ds.Outcome.INCONCLUSIVE
        assert v.certificate is ds.VerdictCertificate.EVIDENCE


def test_classify_expands_once_when_a_certificate_decides_nothing(monkeypatch):
    # mahler passes the exponent test at this p but its tail bound is
    # infinite, so the Evidence rung reads the expansion the law already made
    calls, expand = [], ds.cfrac.expand
    monkeypatch.setattr(ds.cfrac, "expand", lambda *args: calls.append(args) or expand(*args))
    p = ds.make_power_f(Fraction(39, 41) + Fraction(1, 41 * 10 ** 310))
    with_law = ds.classify(ds.make_constant("pi"), p, budget=1000, certs=["mahler"])
    assert len(calls) == 1
    without = ds.classify(ds.make_constant("pi"), p, budget=1000)
    assert len(calls) == 2
    assert with_law.certificate is ds.VerdictCertificate.EVIDENCE
    assert with_law == without


@pytest.mark.parametrize(
    "cert",
    [ds.MeasureCertificate(mu=2.5, C=2.0, label="user"), ds.CERTIFICATES["mahler"], "user", "measure:42,1"],
    ids=["user-law", "table-law", "user", "measure"],
)
def test_classify_takes_only_certificate_names(cert):
    # a growth law object, even the table's own, is not a name in the table
    with pytest.raises(ValueError, match="unknown certificate"):
        ds.classify(ds.make_constant("e"), ds.make_power_f(1), certs=[cert])


def test_measure_tail_bound_not_applicable():
    assert ds.measure_tail_bound(42.0, 1.0, 0.5) is None


def test_measure_tail_bound_monotone_in_from_q():
    b1 = ds.measure_tail_bound(2.5, 1.0, 1, 10 ** 3)
    b2 = ds.measure_tail_bound(2.5, 1.0, 1, 10 ** 6)
    assert b2 < b1


def test_roth_certificate_pairing():
    cert = ds.CERTIFICATES["roth"]
    cert.check_applicable(ds.make_surd(0, 1, 2, 1))
    for other in (ds.make_constant("pi"), ds.make_rational(1, 3)):
        with pytest.raises(ds.CertificateError):
            cert.check_applicable(other)


def test_mahler_certificate_pairing():
    cert = ds.CERTIFICATES["mahler"]
    cert.check_applicable(ds.make_constant("pi"))
    cert.check_applicable(ds.make_constant("invpi"))
    for other in (ds.make_constant("e"), ds.make_surd(0, 1, 2, 1), ds.make_rational(1, 3)):
        with pytest.raises(ds.CertificateError):
            cert.check_applicable(other)


def test_mahler_growth_law_holds_on_first_1000_convergents():
    # the derived constant C = 1: q_next <= q^41 for every convergent with
    # q >= 2, on quotients shared by two rational bounds of pi (or 1/pi)
    def quotients(x, count):
        out = []
        for _ in range(count):
            out.append(math.floor(x))
            x = 1 / (x - out[-1])
        return out

    cert = ds.CERTIFICATES["mahler"]
    assert (cert.mu, cert.C, cert.eventual) == (42.0, 1.0, False)
    pi, eps = pi_fraction(1100), Fraction(20, 10 ** 1100)
    for alpha in (pi, 1 / pi):
        pqs = quotients(alpha - eps, 1001)
        assert pqs == quotients(alpha + eps, 1001)
        qs = [1, pqs[1]]
        for a in pqs[2:]:
            qs.append(a * qs[-1] + qs[-2])
        pairs = [(q, q_next) for q, q_next in zip(qs, qs[1:]) if q >= 2]
        assert len(pairs) >= 998
        assert all(q_next <= q ** 41 for q, q_next in pairs)
        # the law holds with room to spare: the largest exponent seen is below 3
        assert max(math.log(q_next) / math.log(q) for q, q_next in pairs) < 3


def test_classify_invpi_with_mahler():
    v = ds.classify(
        ds.make_constant("invpi"),
        ds.make_power_f(1),
        20,
        certs=["mahler"],
    )
    assert v.outcome is ds.Outcome.CONVERGES
    assert v.certificate is ds.VerdictCertificate.CRITERION_BOUNDED
    assert v.parameters["measure"] == "mahler"
    assert v.evidence_partial_sum < 0.05


def test_classify_sqrt2_with_roth():
    v = ds.classify(
        ds.make_surd(0, 1, 2, 1),
        ds.make_power_f(1),
        certs=["roth"],
    )
    assert v.outcome is ds.Outcome.CONVERGES
    assert v.parameters["measure"] == "roth"
    assert v.parameters["eventual"] is True


def test_classify_certificate_applicability_conflict():
    with pytest.raises(ds.CertificateError):
        ds.classify(
            ds.make_constant("e"),
            ds.make_power_f(1),
            certs=["mahler"],
        )


def test_mahler_power_applicability_window():
    # (mu-1)(1-p) < 2 with mu = 42 needs p > 39/41
    v_ok = ds.classify(
        ds.make_constant("invpi"),
        ds.make_power_f(Fraction(40, 41)),
        certs=["mahler"],
    )
    assert v_ok.certificate is ds.VerdictCertificate.CRITERION_BOUNDED
    v_no = ds.classify(
        ds.make_constant("invpi"),
        ds.make_power_f(Fraction(1, 2)),
        certs=["mahler"],
    )
    # certificate not applicable at this exponent; falls through to evidence
    assert v_no.certificate is not ds.VerdictCertificate.CRITERION_BOUNDED
    # the exact exponent test: 41 (1 - p) = 2 - 10^-50 < 2, which the
    # float product 41.0 * float(1 - p) rounds to 2
    p = Fraction(39, 41) + Fraction(1, 41 * 10 ** 50)
    v_edge = ds.classify(ds.make_constant("invpi"), ds.make_power_f(p), certs=["mahler"])
    assert v_edge.certificate is ds.VerdictCertificate.CRITERION_BOUNDED
    assert 0 < v_edge.parameters["tail_bound"] < math.inf


def test_liouville_factorial_diverges_below_one():
    src = ds.make_liouville(ds.LiouvilleSpec())
    v = ds.classify(src, ds.make_power_f(Fraction(1, 2)))
    assert v.outcome is ds.Outcome.DIVERGES
    assert v.certificate is ds.VerdictCertificate.LIOUVILLE_FAMILY


def test_liouville_factorial_p_one_is_inconclusive():
    src = ds.make_liouville(ds.LiouvilleSpec())
    v = ds.classify(src, ds.make_power_f(1))
    assert v.outcome is ds.Outcome.INCONCLUSIVE


def test_liouville_tower_diverges_at_p_one():
    src = ds.make_liouville(ds.LiouvilleSpec(schedule=ds.Schedule.TOWER100))
    v = ds.classify(src, ds.make_power_f(1))
    assert v.outcome is ds.Outcome.DIVERGES
    assert v.certificate is ds.VerdictCertificate.LIOUVILLE_FAMILY


def test_inconclusive_e_without_certificate():
    v = ds.classify(ds.make_constant("e"), ds.make_power_f(Fraction(1, 2)))
    assert v.outcome is ds.Outcome.INCONCLUSIVE
    assert v.certificate is ds.VerdictCertificate.EVIDENCE
    assert len(v.evidence) >= 0  # evidence listing may be empty but present
    assert v.notes


def test_verdict_json_dict_roundtrippable(tmp_path):
    # the CLI's classify document of a verdict
    out = tmp_path / "v.json"
    argv = ["classify", "const:invpi", "--f", "pow:1", "--cert", "mahler", "--json", str(out)]
    assert console_main(argv + ["--manifest", str(tmp_path / "m.json")]) == 0
    doc = json.loads(out.read_text())
    encoded = json.dumps(doc, sort_keys=True)
    assert json.loads(encoded) == doc
    assert doc["outcome"] == "Converges"
    assert doc["f"] == "x^-1"


def test_budget_limits_expansion_depth():
    v = ds.classify(
        ds.make_constant("e"),
        ds.make_power_f(Fraction(1, 2)),
        5,
    )
    assert v.outcome is ds.Outcome.INCONCLUSIVE


@pytest.mark.parametrize(
    "schedule, p, terms, verified",
    [
        ("factorial", "1/2", 4, "expansion"),
        ("factorial", "1", 4, "expansion"),
        ("tower100", "1/2", 3, "gap_bound"),
    ],
)
def test_staircase_levels_match_the_cli_report(tmp_path, schedule, p, terms, verified):
    from dseries.cli import _json_float

    out = tmp_path / "out.json"
    argv = ["liouville", "--schedule", schedule, "--terms", str(terms), "--p", p]
    console_main(argv + ["--json", str(out), "--manifest", str(tmp_path / "m.json")])
    report = json.loads(out.read_text())
    source = ds.make_liouville(ds.LiouvilleSpec(schedule=ds.Schedule(schedule)))
    levels, exp, error = ds.staircase_levels(source, ds.make_power_f(Fraction(p)), terms)
    assert error == report["error"]
    assert len(exp.convergents) == report["expansion"]["convergents"]
    assert len(levels) == len(report["levels"]) > 0
    for lv, row in zip(levels, report["levels"]):
        assert lv.lam == Fraction(int(row["lambda_num"]), int(row["lambda_den"]))
        assert (lv.level, lv.exponent, lv.verification) == (
            row["level"], row["exponent"], row["verification"]
        )
        assert _json_float(lv.q_next_log10_lower) == row["q_next_log10_lower"]
        assert _json_float(lv.criterion_term_log10_lower) == row["criterion_term_log10_lower"]
    assert verified in {lv.verification for lv in levels}


def test_staircase_levels_need_a_staircase_source():
    with pytest.raises(ValueError):
        ds.staircase_levels(ds.make_constant("pi"), ds.make_power_f(1), 3)


def test_staircase_levels_past_the_decimal_string_limit():
    # level 7 has q = 10^5040, so 8 q^2 has more than 4300 decimal digits
    source = ds.make_liouville(ds.LiouvilleSpec())
    levels, exp, error = ds.staircase_levels(source, ds.make_power_f(Fraction(1, 2)), 7)
    assert error is None
    assert [lv.exponent for lv in levels] == [math.factorial(k) for k in range(1, 8)]
    assert levels[-1].lam.denominator == 10 ** 5040
    assert all(lv.verification is not None for lv in levels[1:])


def test_tower_staircase_level_two_returns_promptly():
    # e_3 = 10^200: the Legendre gap test must decide without building
    # 10^(10^200).  The call runs in a child with capped memory and time, so
    # a regression fails here instead of exhausting the machine.
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "import dseries as ds\n"
        "src = ds.make_liouville(ds.LiouvilleSpec(schedule=ds.Schedule.TOWER100))\n"
        "levels, _, error = ds.staircase_levels(src, ds.make_power_f(1), 2)\n"
        "print(error, [(lv.exponent, lv.q_next_log10_lower > 1e199) for lv in levels])\n"
    )
    package_root = os.path.dirname(os.path.dirname(ds.__file__))
    paths = [package_root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "None [(1, False), (100, True)]"


@pytest.mark.parametrize("p, budget", [(Fraction(1), 309), (Fraction(99, 100), 700)])
def test_mahler_tail_bound_past_the_float_range(p, budget):
    # the square of the tail's first denominator passes 10^308, where a float
    # of it overflows
    v = ds.classify(
        ds.make_constant("invpi"), ds.make_power_f(p), budget=budget, certs=["mahler"]
    )
    assert v.outcome is ds.Outcome.CONVERGES
    assert 0 < v.parameters["tail_bound"] < math.inf
    assert v.parameters["tail_from_q"] ** 2 > 10 ** 308


def _mp_tail_formula(mu, C, p, q):
    """measure_tail_bound's formula at q, in mpmath at 50 digits."""
    with mpmath.workdps(50):
        mu, c, q = mpmath.mpf(mu), max(mpmath.mpf(C), 1), mpmath.mpf(q)
        if p == 1:
            numer = 2 * mpmath.log(c) + 2 * (mu - 1) * mpmath.log(q) + (mu - 1) * mpmath.log(2)
            return numer / q ** 2
        one_minus = 1 - mpmath.mpf(p.numerator) / p.denominator
        beta = 2 - (mu - 1) * one_minus
        return c ** one_minus / one_minus * q ** -beta / (1 - mpmath.mpf(2) ** (-beta / 2))


@pytest.mark.parametrize(
    "mu, C, p",
    [
        (42.0, 1.0, Fraction(1)),
        (42.0, 1.0, Fraction(99, 100)),
        (2.5, 3.0, Fraction(1)),
        (2.5, 7.5, Fraction(1, 3)),
    ],
)
def test_measure_tail_bound_is_never_below_its_formula(mu, C, p):
    exps = list(range(9, 400, 7)) + [500, 1000, 2000, 4999, 5000]
    for from_q in [10 ** k + d for k in exps for d in (-1, 0, 7)]:
        bound = ds.measure_tail_bound(mu, C, p, from_q)
        exact = _mp_tail_formula(mu, C, p, from_q)
        assert bound > 0, from_q
        with mpmath.workdps(50):
            assert exact <= bound <= exact * (1 + mpmath.mpf(2) ** -30) + 2.0 ** -1073, from_q
