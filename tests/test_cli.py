"""Command-line layer: grammar round-trips, cap flags, manifests,
exit codes, and the JSON/CSV payload shapes of every subcommand."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dseries as ds
from dseries import cfrac
from dseries.realsource import _recurrence
from dseries.cli import (
    _COMMANDS,
    _build_parser,
    _cf_document,
    _outward_floats,
    _round_dyadic,
    console_main,
    format_alpha,
    parse_alpha,
    parse_f,
)
import make_corpus
from conftest import cf_convergents, ends, euclid_cf, mp_partial_sum, pi_fraction


GRAMMAR_CORPUS = [
    "rat:355/113",
    "rat:-3/7",
    "surd:(0+1*sqrt(2))/1",
    "surd:(1-2*sqrt(5))/3",
    "surd:(1+1*sqrt(5))/2",
    "const:pi",
    "const:invpi",
    "const:e",
    "liouville:factorial",
    "liouville:tower100,digits=13,start=2",
    "liouville:factorial,base=1/7,digits=31",
    "cf:[3;7,15,1]",
    "cf:[0;2,4]",
    "cf:[5]",
    "cf:[1;...]",
    "cf:[0;2,1,...]",
]


def run(argv, tmp_path, name="run"):
    """console_main against throwaway manifest/json paths; returns
    (exit_code, payload dict or None, manifest dict)."""
    manifest = tmp_path / f"{name}_manifest.json"
    out = tmp_path / f"{name}_out.json"
    code = console_main(list(argv) + ["--manifest", str(manifest), "--json", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    mani = json.loads(manifest.read_text()) if manifest.exists() else None
    return code, payload, mani


# -- alpha grammar -------------------------------------------------------------


def test_alpha_roundtrip_is_identity_on_corpus():
    from dseries.realsource import Kind

    for text in GRAMMAR_CORPUS:
        first = parse_alpha(text)
        canon = format_alpha(first)
        second = parse_alpha(canon)
        assert format_alpha(second) == canon, text
        # a cf: prefix, with or without its declared tail of 1s, round-trips
        assert second.kind is first.kind and second.pqs == first.pqs, text
        if first.kind is not Kind.PQ_STREAM:  # a finite prefix caps deep enclosures
            # same number: high-precision enclosures must overlap
            (a_lo, a_hi), (b_lo, b_hi) = ends(first.approximate(96)), ends(second.approximate(96))
            assert a_lo <= b_hi and b_lo <= a_hi, text


def test_alpha_canonicalization_reduces_rationals():
    assert format_alpha(parse_alpha("rat:2/4")) == "rat:1/2"
    assert format_alpha(parse_alpha("rat:-10/4")) == "rat:-5/2"


def test_alpha_tail_stream_means_golden_ratio():
    phi = parse_alpha("cf:[1;...]")
    lo, hi = ends(phi.approximate(80))
    assert float(lo) <= (1 + math.sqrt(5)) / 2 <= float(hi)
    assert format_alpha(phi) == "cf:[1;...]"


@pytest.mark.parametrize(
    "bad",
    [
        "garbage",
        "rat:1",
        "rat:1/0",
        "surd:(1+2*sqrt(4))/3",
        "surd:(1+0*sqrt(2))/3",
        "const:sqrt2",
        "liouville:primorial",
        "liouville:factorial,foo=1",
        "liouville:factorial,digits=2",
        "liouville:factorial,base=3",
        "cf:[1;0]",
        "cf:[1;]",
        "cf:[1;2,,3]",
        "cf:[1;2,-3]",
    ],
)
def test_alpha_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_alpha(bad)


# -- f and certificate specs ---------------------------------------------------


def test_parse_f_accepts_fractions_and_decimals():
    assert parse_f("pow:1").p == 1
    assert parse_f("pow:1/2").p == Fraction(1, 2)
    assert parse_f("pow:0.75").p == Fraction(3, 4)


@pytest.mark.parametrize("bad", ["pow:0", "pow:3/2", "pow:x", "lin:1", "pow:"])
def test_parse_f_rejects(bad):
    with pytest.raises(ValueError):
        parse_f(bad)


def test_cert_names_only_the_derived_certificates(tmp_path, capsys):
    argv = ["classify", "const:invpi", "--f", "pow:1", "--cert"]
    code, payload, mani = run(argv + ["measure:2.5,1"], tmp_path, "user")
    _assert_refused_by_argparse(code, payload, mani, capsys.readouterr().err, "--cert")
    code, payload, _ = run(argv + ["mahler"], tmp_path, "mahler")
    assert code == 0 and payload["outcome"] == "Converges"
    assert payload["parameters"]["measure"] == "mahler"


# -- cap flags -----------------------------------------------------------------


def _never(*args, **kwargs):
    raise AssertionError("work started")


def _assert_refused_by_argparse(code, payload, mani, stderr, flag):
    assert code == 1 and payload is None
    assert mani["error"] == "argument parsing failed"
    assert f"argument {flag}: " in stderr


def test_config_out_of_range_flag(tmp_path, monkeypatch, capsys):
    from dseries import criterion

    monkeypatch.setattr(criterion, "classify", _never)
    code, payload, mani = run(
        ["classify", "rat:1/3", "--f", "pow:1", "--max-bits", "32"],
        tmp_path,
        "lowbits",
    )
    _assert_refused_by_argparse(code, payload, mani, capsys.readouterr().err, "--max-bits")


@pytest.mark.parametrize("extra", [["--workers", "100000"]], ids=["flag"])
def test_config_rejects_more_than_64_workers_before_summing(tmp_path, monkeypatch, capsys, extra):
    from dseries import sumengine

    monkeypatch.setattr(sumengine, "partial_sum_direct", _never)
    code, payload, mani = run(
        ["sum", "rat:1/3", "--f", "pow:1", "--M", "10", *extra], tmp_path, "manyw"
    )
    _assert_refused_by_argparse(code, payload, mani, capsys.readouterr().err, "--workers")
    argv = ["sum", "rat:1/3", "--f", "pow:1", "--M", "10", "--mode", "periodic", "--workers", "64"]
    code, _, mani = run(argv, tmp_path, "w64")
    # the periodic sum runs in one process, so its caps leave --workers out
    assert code == 0 and "workers" not in mani["caps"] and mani["parameters"]["workers"] == 64


# each subcommand's cheapest run, and the caps it reads
_CAP_RUNS = {
    "cf": (["cf", "rat:1/3"], {"max_bits"}),
    "classify": (["classify", "rat:1/3", "--f", "pow:1"], {"max_bits"}),
    "sum": (["sum", "rat:1/3", "--f", "pow:1", "--M", "10"], {"max_bits", "max_terms", "workers"}),
    "drift": (["drift", "1", "2", "--f", "pow:1", "--N", "2", "--M", "10"], {"max_terms"}),
    "liouville": (["liouville", "--schedule", "factorial", "--terms", "1"], {"max_bits"}),
}
_CAP_VALUES = {"max_bits": 100000, "max_terms": 1000, "workers": 2}


@pytest.mark.parametrize("cap", list(_CAP_VALUES))
@pytest.mark.parametrize("command", list(_CAP_RUNS))
def test_each_subcommand_accepts_only_the_caps_it_reads(tmp_path, monkeypatch, capsys, command, cap):
    from dseries import cli

    argv, reads = _CAP_RUNS[command]
    value = _CAP_VALUES[cap]
    flag = "--" + cap.replace("_", "-")
    if cap not in reads:
        monkeypatch.setattr(cli, f"_cmd_{command}", _never)
    code, payload, mani = run(argv + [flag, str(value)], tmp_path, "cap")
    if cap in reads:
        assert code == 0 and mani["error"] is None
        assert set(mani["caps"]) == reads
        assert mani["caps"][cap] == mani["parameters"][cap] == value
    else:
        assert code == 1 and payload is None
        assert mani["error"] == "argument parsing failed"
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


# -- manifests and exit codes --------------------------------------------------


def test_manifest_written_on_success(tmp_path):
    code, payload, mani = run(
        ["classify", "rat:1/3", "--f", "pow:1"], tmp_path, "ok"
    )
    assert code == 0
    assert mani["schema"] == 1
    assert mani["command"] == "classify"
    assert mani["error"] is None
    assert mani["duration_s"] > 0
    assert mani["version"] == ds.__version__
    assert mani["parameters"]["alpha"] == "rat:1/3"
    # every referenced output exists
    import pathlib

    for out in mani["outputs"]:
        assert pathlib.Path(out).exists()


def test_manifest_writes_list_parameters_as_json_lists(tmp_path):
    argv = ["classify", "const:invpi", "--f", "pow:1"]
    _, _, mani = run(argv + ["--cert", "mahler"], tmp_path, "cert")
    assert mani["parameters"]["cert"] == ["mahler"]
    _, _, mani = run(argv, tmp_path, "nocert")
    assert mani["parameters"]["cert"] is None


def test_manifest_written_on_handler_failure(tmp_path):
    code, payload, mani = run(
        ["classify", "rat:1/0", "--f", "pow:1"], tmp_path, "bad"
    )
    assert code == 1 and payload is None
    assert mani["error"]


def test_manifest_written_on_usage_failure(tmp_path):
    manifest = tmp_path / "usage_manifest.json"
    code = console_main(["classify", "--manifest", str(manifest)])
    assert code == 1
    mani = json.loads(manifest.read_text())
    assert mani["error"] == "argument parsing failed"
    assert mani["command"] is None


def test_last_manifest_wins_on_success_and_usage_failure(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["classify", "rat:1/3", "--f", "pow:1", "--json", str(tmp_path / "o.json")]
    assert console_main(argv + ["--manifest", str(a), "--manifest", str(b)]) == 0
    assert not a.exists() and json.loads(b.read_text())["error"] is None
    b.unlink()
    assert console_main(["classify", "--manifest", str(a), "--manifest", str(b)]) == 1
    assert not a.exists()
    assert json.loads(b.read_text())["error"] == "argument parsing failed"


def test_usage_failure_reads_manifest_equals_form(tmp_path):
    path = tmp_path / "eq.json"
    assert console_main(["sum", "rat:1/3", "--M", "0", f"--manifest={path}"]) == 1
    assert json.loads(path.read_text())["error"] == "argument parsing failed"


def test_manifest_flag_without_value_falls_back_to_default(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert console_main(["classify", "rat:1/3", "--f", "pow:1", "--manifest"]) == 1
    mani = json.loads((tmp_path / "dseries_manifest.json").read_text())
    assert mani["error"] == "argument parsing failed"


def test_config_file_flag_is_gone(tmp_path):
    cfgfile = tmp_path / "ds.cfg"
    cfgfile.write_text("max_bits = 512\n")
    code, payload, mani = run(
        ["classify", "rat:1/3", "--f", "pow:1", "--config", str(cfgfile)], tmp_path, "cfg"
    )
    assert code == 1 and payload is None
    assert mani["error"] == "argument parsing failed"


def test_help_and_version_exit_zero(tmp_path, capsys):
    manifest = tmp_path / "help_manifest.json"
    assert console_main(["cf", "--help", "--manifest", str(manifest)]) == 0
    assert not manifest.exists()
    assert console_main(["--version"]) == 0
    assert ds.__version__ in capsys.readouterr().out


def test_exit_code_contract(tmp_path):
    # 0 decisive
    code, payload, _ = run(["classify", "rat:1/2", "--f", "pow:1"], tmp_path, "c0")
    assert code == 0 and payload["outcome"] == "Diverges"
    assert payload["certificate"] == "RationalEvenQ"
    # 1 usage error
    code, _, _ = run(["cf", "nonsense"], tmp_path, "c1")
    assert code == 1
    # 1 invalid certificate pairing
    code, _, _ = run(
        ["classify", "const:e", "--f", "pow:1", "--cert", "mahler"], tmp_path, "c1b"
    )
    assert code == 1
    # 2 precision cap: a three-quotient prefix cannot certify ten convergents
    code, payload, _ = run(["cf", "cf:[0;2,4]", "--terms", "10"], tmp_path, "c2")
    assert code == 2 and payload["capped"]
    # 3 inconclusive
    code, payload, _ = run(["classify", "const:e", "--f", "pow:1"], tmp_path, "c3")
    assert code == 3 and payload["outcome"] == "Inconclusive"


def test_non_finite_certificate_never_yields_converges(tmp_path, monkeypatch, capsys):
    from dseries import criterion

    # the CLI takes no typed constant at all; the library's refusal of a
    # non-finite or overflowing one is tested in test_criterion
    monkeypatch.setattr(criterion, "classify", _never)
    sqrt2 = "surd:(0+1*sqrt(2))/1"
    for i, spec in enumerate(["measure:2.5,inf", "measure:inf,1", "measure:1e308,1"]):
        code, payload, mani = run(
            ["classify", sqrt2, "--f", "pow:1", "--cert", spec], tmp_path, f"nf{i}"
        )
        _assert_refused_by_argparse(code, payload, mani, capsys.readouterr().err, "--cert")


# -- cf ------------------------------------------------------------------------


def test_cf_pi_first_six_denominators(tmp_path):
    code, payload, _ = run(["cf", "const:pi", "--terms", "6"], tmp_path, "cfpi")
    assert code == 0
    assert payload["schema"] == 1
    assert not payload["capped"] and not payload["exact"]
    qs = [c["q"] for c in payload["convergents"]]
    assert qs == ["1", "7", "106", "113", "33102", "33215"]
    assert payload["partial_quotients"] == ["3", "7", "15", "1", "292", "1"]
    # dist enclosures must bracket the true distance |q*pi - a|
    pi200 = pi_fraction(120)
    for c in payload["convergents"][:4]:
        d = abs(int(c["q"]) * pi200 - int(c["a"]))
        assert Fraction(c["dist_lo"]) <= d <= Fraction(c["dist_hi"]), c


def test_cf_exact_rational(tmp_path):
    code, payload, _ = run(["cf", "rat:355/113", "--terms", "10"], tmp_path, "cfrat")
    assert code == 0
    assert payload["exact"] and not payload["capped"]
    assert payload["partial_quotients"] == ["3", "7", "16"]
    assert payload["convergents"][-1]["dist_lo"] == 0.0
    assert payload["convergents"][-1]["q"] == "113"


def test_cf_sqrt2_partial_quotients(tmp_path):
    code, payload, _ = run(
        ["cf", "surd:(0+1*sqrt(2))/1", "--terms", "5"], tmp_path, "cfsurd"
    )
    assert code == 0
    assert payload["partial_quotients"] == ["1", "2", "2", "2", "2"]


def _reference_outward_floats(iv):
    """The division-based rounding the cf writer used before: int / int
    rounds to nearest, then one step outward where that missed."""
    scale = 1 << iv.exp
    lo, hi = iv.lo_m / scale, iv.hi_m / scale
    n, d = lo.as_integer_ratio()
    if n * scale > iv.lo_m * d:
        lo = math.nextafter(lo, -math.inf)
    n, d = hi.as_integer_ratio()
    if n * scale < iv.hi_m * d:
        hi = math.nextafter(hi, math.inf)
    return lo, hi


def _reference_cf_document(alpha, terms, max_bits):
    """The cf document built as a dict and written by json.dumps."""
    source = parse_alpha(alpha, max_bits=max_bits)
    exp = cfrac.expand(source, terms)
    convs = []
    for c in exp.convergents:
        lo, hi = _reference_outward_floats(c.dist)
        convs.append(
            {"n": c.n, "a": str(c.a), "q": str(c.q), "pq": str(c.partial_quotient),
             "dist_lo": lo, "dist_hi": hi}
        )
    payload = {
        "schema": 1,
        "alpha": format_alpha(source),
        "exact": exp.exact,
        "capped": exp.capped,
        "cap_reason": exp.cap_reason,
        "partial_quotients": [str(a) for a in exp.partial_quotients],
        "convergents": convs,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "alpha, terms, max_bits",
    [
        # the four certify sources; pi's and e's tails reach dist_hi = 5e-324
        ("const:pi", 1000, ds.DEFAULT_MAX_BITS),
        ("const:e", 1000, ds.DEFAULT_MAX_BITS),
        ("const:invpi", 1000, ds.DEFAULT_MAX_BITS),
        ("surd:(-9-5*sqrt(96))/4", 1000, ds.DEFAULT_MAX_BITS),
        ("rat:355/113", 10, ds.DEFAULT_MAX_BITS),  # fewer convergents than asked
        ("cf:[0;2,4]", 10, ds.DEFAULT_MAX_BITS),  # capped, with a cap_reason
        ("cf:[5]", 12, ds.DEFAULT_MAX_BITS),  # no convergent at all
        ("liouville:tower100", 5, 1000),  # capped by --max-bits
    ],
)
def test_cf_document_is_byte_identical_to_json_dumps(tmp_path, alpha, terms, max_bits):
    out = tmp_path / "doc.json"
    argv = ["cf", alpha, "--terms", str(terms), "--max-bits", str(max_bits)]
    code = console_main(argv + ["--json", str(out), "--manifest", str(tmp_path / "m.json")])
    text = out.read_text(encoding="utf-8")
    assert text == _reference_cf_document(alpha, terms, max_bits)
    assert code == (2 if json.loads(text)["capped"] else 0)
    if alpha in ("const:pi", "const:e"):
        assert '"dist_hi": 5e-324' in text


def test_cf_writes_integers_past_the_str_digit_limit(tmp_path):
    alpha = "liouville:factorial,base=1/7,digits=31"
    out = tmp_path / "big.json"
    argv = ["cf", alpha, "--terms", "200", "--json", str(out)]
    assert console_main(argv + ["--manifest", str(tmp_path / "m.json")]) == 0
    payload = json.loads(out.read_text())
    # int(str) would hit the same limit, so read the digits through Decimal
    pqs = [int(Decimal(a)) for a in payload["partial_quotients"]]
    assert pqs == list(cfrac.expand(parse_alpha(alpha), 200).partial_quotients)
    rec = _recurrence(pqs)
    start = cfrac._emit_start(pqs)
    assert len(payload["convergents"]) == 200
    for c in payload["convergents"]:
        idx = start + c["n"] - 1
        assert (int(Decimal(c["a"])), int(Decimal(c["q"])), int(Decimal(c["pq"]))) == (
            *rec[idx], pqs[idx]
        )
    assert max(len(c["q"]) for c in payload["convergents"]) > 4300


@st.composite
def _quotient_runs(draw):
    """a_0 of either sign, then up to 2999 quotients >= 1 in runs: 1s and
    2s, small quotients, and runs of large ones, which take p_k and q_k past
    str()'s 4300 digits (14 284 bits).  Expanding the rational rounds each
    row's distance by a long division at twice q's bits, so a sequence
    stops before its rows times its bits squared pass 150 * 16 000^2."""
    rng = draw(st.randoms(use_true_random=False))
    pqs, bits = [draw(st.integers(-(1 << 80), 1 << 80))], 0
    for size, most in draw(st.lists(
        st.sampled_from([(1, 2000), (6, 500), (3000, 8)]), min_size=1, max_size=8,
    )):
        for _ in range(draw(st.integers(1, most))):
            if len(pqs) == 3000 or len(pqs) * bits ** 2 > 150 * 16_000 ** 2:
                return pqs
            pqs.append(rng.getrandbits(size) + 1)
            bits += pqs[-1].bit_length()
    return pqs


@settings(max_examples=20, deadline=None)
@given(_quotient_runs())
def test_cf_document_texts_equal_str_of_the_integer_recurrence(pqs):
    if len(pqs) > 1 and pqs[-1] == 1:  # the canonical expansion ends in a quotient >= 2
        pqs = pqs[:-2] + [pqs[-2] + 1]
    a, q = cf_convergents(pqs)[-1]
    exp = cfrac.expand(ds.make_rational(a, q), len(pqs))
    assert list(exp.partial_quotients) == pqs
    doc = json.loads(_cf_document("rat", exp))
    start = cfrac._emit_start(pqs)
    rows = [(c["a"], c["q"], c["pq"]) for c in doc["convergents"]]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # process-wide: lifted for this test's str()
    try:
        assert doc["partial_quotients"] == [str(x) for x in pqs]
        assert rows == [(str(pk), str(qk), str(x)) for (pk, qk), x in zip(cf_convergents(pqs), pqs)][start:]
    finally:
        sys.set_int_max_str_digits(limit)


def test_classify_writes_evidence_past_the_str_digit_limit(tmp_path):
    alpha = "liouville:factorial"
    out = tmp_path / "big.json"
    argv = ["classify", alpha, "--f", "pow:1", "--budget", "100", "--json", str(out)]
    assert console_main(argv + ["--manifest", str(tmp_path / "m.json")]) == 3
    evidence = json.loads(out.read_text())["evidence"]
    # lambda_7 is within 10^-40000 of alpha, so its convergents below
    # 10^5040 are alpha's
    pqs = euclid_cf(Fraction(*parse_alpha(alpha).liouville.truncation(7)))
    qs = [q for _, q in cf_convergents(pqs)]
    start = cfrac._emit_start(pqs)
    for e in evidence:
        idx = start + e["n"] - 1
        assert (int(Decimal(e["q"])), int(Decimal(e["q_next"]))) == (qs[idx], qs[idx + 1])
    assert max(len(e["q_next"]) for e in evidence) > 4300


def test_readme_cf_example_is_verbatim_output(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    m = re.search(r"```sh\ndseries (cf .*?)\n```\n\n```json\n(.*?)```", readme, re.S)
    argv = shlex.split(m.group(1))
    assert console_main(argv + ["--manifest", str(tmp_path / "m.json")]) == 0
    assert capsys.readouterr().out == m.group(2)


def _abridged_like(actual, shown):
    """actual cut to the keys and list lengths that shown has."""
    if isinstance(shown, dict) and isinstance(actual, dict):
        return {k: _abridged_like(actual[k], v) for k, v in shown.items() if k in actual}
    if isinstance(shown, list) and isinstance(actual, list):
        return [_abridged_like(a, v) for a, v in zip(actual, shown)]
    return actual


@pytest.mark.parametrize("command", ["sum", "drift", "classify"])
def test_readme_abridged_example_shows_the_output(tmp_path, capsys, command):
    # the block shows a subset of the keys, and only the first entries of a list
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    m = re.search(rf"```sh\ndseries ({command} .*?)\n```\n\n```json\n(.*?)```", readme, re.S)
    shown = json.loads(m.group(2))
    assert console_main(shlex.split(m.group(1)) + ["--manifest", str(tmp_path / "m.json")]) == 0
    assert _abridged_like(json.loads(capsys.readouterr().out), shown) == shown


# -- sum -----------------------------------------------------------------------


def test_sum_trivial_alternating_value(tmp_path):
    code, payload, _ = run(
        ["sum", "rat:1/2", "--f", "pow:1", "--N", "0", "--M", "4"], tmp_path, "s0"
    )
    assert code == 0
    assert payload["results"]["direct"]["value"] == pytest.approx(-4.0 / 3.0, abs=1e-14)


def test_sum_both_modes_agree_closely(tmp_path):
    code, payload, _ = run(
        [
            "sum", "rat:1/4", "--f", "pow:1", "--N", "10000", "--M", "990000",
            "--mode", "both",
        ],
        tmp_path,
        "sboth",
    )
    assert code == 0
    assert payload["agree"]
    assert payload["difference"] <= 1e-10
    assert payload["difference"] <= payload["combined_bound"]


def test_sum_workers_do_not_change_the_value(tmp_path, monkeypatch, forks):
    from dseries import sumengine

    # with the fork threshold at one chunk, 4 workers split 50000 terms
    # into 3 blocks, 2 of them forked
    monkeypatch.setattr(sumengine, "_FORK_TERMS", sumengine._CHUNK)
    argv = ["sum", "const:pi", "--f", "pow:1", "--N", "0", "--M", "50000"]
    _, one, _ = run(argv + ["--workers", "1"], tmp_path, "w1")
    _, four, _ = run(argv + ["--workers", "4"], tmp_path, "w4")
    assert one["results"]["direct"]["value"] == four["results"]["direct"]["value"]
    assert len(forks) == 2
    # --trace honours --workers and still writes the same bytes
    scan, seen = sumengine.scan_partial_sums, []
    monkeypatch.setattr(
        sumengine, "scan_partial_sums", lambda *a, **k: seen.append(k["workers"]) or scan(*a, **k)
    )
    for w in ("1", "4"):
        run(argv + ["--workers", w, "--trace", str(tmp_path / f"t{w}.csv")], tmp_path, "t" + w)
    assert seen == [1, 4]
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t4.csv").read_bytes()
    assert len(forks) == 2 + 2


def test_sum_stdout_is_a_function_of_argv_whatever_the_workers(tmp_path, capsys):
    # 3 * 2^20 terms and more fork at two and at three workers
    trace, mani = tmp_path / "t.csv", str(tmp_path / "m.json")
    for argv in (
        ["sum", "const:e", "--f", "pow:1/2", "--N", "12345", "--M", str(3 * 2 ** 20 + 99)],
        ["sum", "rat:5/1002", "--f", "pow:1", "--N", "777", "--M", str(3 * 2 ** 20), "--mode", "both"],
    ):
        outputs = set()
        for extra in ([], ["--workers", "1"], ["--workers", "2"], ["--workers", "3"], []):
            assert console_main(argv + extra + ["--trace", str(trace), "--manifest", mani]) == 0
            outputs.add((capsys.readouterr().out, trace.read_bytes()))
        assert len(outputs) == 1
        # the durations are the manifest's, and the results carry none
        durations = json.loads(Path(mani).read_text())["durations"]
        assert sorted(durations) == (["direct_s", "periodic_s"] if "both" in argv else ["direct_s"])
        assert all(set(r) == {"value", "rounding_bound", "terms", "mode"}
                   for r in json.loads(outputs.pop()[0])["results"].values())


def test_sum_workers_default_to_the_usable_cpus(tmp_path):
    _, _, mani = run(["sum", "rat:1/3", "--f", "pow:1", "--M", "10"], tmp_path, "wdefault")
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert mani["caps"]["workers"] == mani["parameters"]["workers"] == min(usable, 64)


def test_sum_trace_csv_shape(tmp_path):
    trace = tmp_path / "trace.csv"
    code, payload, mani = run(
        [
            "sum", "const:invpi", "--f", "pow:1", "--M", "4096",
            "--trace", str(trace),
        ],
        tmp_path,
        "strace",
    )
    assert code == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "M,S,rounding_bound"
    ms = [int(row.split(",")[0]) for row in lines[1:]]
    assert ms == sorted(ms) and ms[-1] == 4096
    final_s = float(lines[-1].split(",")[1])
    assert final_s == payload["results"]["direct"]["value"]
    assert str(trace) in mani["outputs"]
    assert payload["trace"] == str(trace)


def test_sum_periodic_needs_rational(tmp_path):
    code, payload, mani = run(
        ["sum", "const:pi", "--f", "pow:1", "--M", "100", "--mode", "periodic"],
        tmp_path,
        "sbadmode",
    )
    assert code == 1 and payload is None
    assert "rational" in mani["error"]


_NEEDS_RATIONAL = "periodic mode requires a rational alpha (rat:a/q)"


@pytest.mark.parametrize(
    "alpha, extra, error",
    [
        ("const:pi", ["--mode", "both"], _NEEDS_RATIONAL),
        ("const:pi", ["--mode", "periodic", "--trace", "t.csv"], _NEEDS_RATIONAL),
        (
            "rat:1/3",
            ["--mode", "periodic", "--trace", "t.csv"],
            "--trace records the direct sum; use --mode direct or both",
        ),
    ],
    ids=["both", "periodic_trace", "rational_periodic_trace"],
)
def test_sum_periodic_refusal_precedes_any_sum(tmp_path, monkeypatch, alpha, extra, error):
    from dseries import sumengine

    def never(*args, **kwargs):
        raise AssertionError("a sum started")

    monkeypatch.chdir(tmp_path)
    for name in ("partial_sum_direct", "scan_partial_sums", "partial_sum_periodic"):
        monkeypatch.setattr(sumengine, name, never)
    code, payload, mani = run(
        ["sum", alpha, "--f", "pow:1", "--M", "20000000", *extra], tmp_path, "early"
    )
    assert code == 1 and payload is None
    assert mani["error"] == error
    assert not (tmp_path / "t.csv").exists()


def test_sum_window_past_2_53_exits_2_with_manifest(tmp_path):
    code, payload, mani = run(
        [
            "sum", "surd:(0+1*sqrt(2))/1", "--f", "pow:1",
            "--N", str(2 ** 54), "--M", "8", "--max-terms", str(10 ** 20),
        ],
        tmp_path,
        "s2p54",
    )
    assert code == 2 and payload is None
    assert "2^53" in mani["error"]


@pytest.mark.parametrize("exc", [MemoryError("cannot allocate"), RuntimeError("kernel failed")])
def test_unexpected_exception_exits_1_with_manifest(tmp_path, monkeypatch, capsys, exc):
    from dseries import cli

    def boom(args, outputs):
        raise exc

    monkeypatch.setattr(cli, "_cmd_sum", boom)
    code, payload, mani = run(["sum", "rat:1/3", "--f", "pow:1", "--M", "10"], tmp_path, "boom")
    message = f"{type(exc).__name__}: {exc}"
    assert code == 1 and payload is None
    assert mani["error"] == message
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "rat:1/3", "--f", "pow:1"],
        ["sum", "rat:1/3", "--f", "pow:1", "--M", "0"],
    ],
)
def test_abbreviated_flags_are_refused_and_manifest_goes_to_default(tmp_path, monkeypatch, argv):
    # an abbreviation argparse accepted would put the manifest of a success
    # under a name the failure path never looks at
    monkeypatch.chdir(tmp_path)
    assert console_main(argv + ["--manif", "m.json"]) == 1
    assert not (tmp_path / "m.json").exists()
    mani = json.loads((tmp_path / "dseries_manifest.json").read_text())
    assert mani["error"] == "argument parsing failed"


def test_sum_rational_with_huge_q_needs_no_q_sized_table(tmp_path):
    q = 10 ** 12 + 1
    code, payload, mani = run(
        ["sum", f"rat:1/{q}", "--f", "pow:1", "--M", "10"], tmp_path, "bigq"
    )
    assert code == 0 and mani["error"] is None
    res = payload["results"]["direct"]
    oracle = mp_partial_sum(Fraction(1, q), 1.0, 0, 10)
    assert abs(res["value"] - oracle) <= res["rounding_bound"]


# -- drift ---------------------------------------------------------------------


def test_drift_q2_magnitude_and_sign(tmp_path):
    code, payload, _ = run(
        ["drift", "1", "2", "--f", "pow:1", "--N", "10000", "--M", "990000"],
        tmp_path,
        "d2",
    )
    assert code == 0
    assert payload["predicted"]["magnitude"] == pytest.approx(2.302585, abs=5e-6)
    assert payload["predicted"]["sign"] == -1
    assert payload["within_allowance"]
    assert payload["relative_magnitude_gap"] < 0.01


def test_drift_q4_against_quoted_target(tmp_path):
    code, payload, _ = run(
        ["drift", "1", "4", "--f", "pow:1", "--N", "10000", "--M", "990000"],
        tmp_path,
        "d4",
    )
    assert code == 0
    assert payload["predicted"]["magnitude"] == pytest.approx(0.476862, rel=0.01)
    assert payload["relative_magnitude_gap"] < 0.01


def test_drift_rejects_odd_q(tmp_path):
    code, payload, mani = run(
        ["drift", "1", "3", "--f", "pow:1", "--N", "10000", "--M", "1000"],
        tmp_path,
        "dodd",
    )
    assert code == 1 and payload is None and mani["error"]


def test_drift_honours_a_raised_term_cap(tmp_path):
    # the periodic sum and the prediction cost O(q), so a window past the
    # default cap of 10^9 terms is cheap once --max-terms allows it
    code, payload, mani = run(
        [
            "drift", "1", "2", "--f", "pow:1", "--N", "10000", "--M", "1500000000",
            "--max-terms", "2000000000",
        ],
        tmp_path,
        "dcap",
    )
    assert code == 0 and mani["error"] is None
    assert payload["within_allowance"]


def test_drift_refuses_a_window_past_a_lowered_cap_before_any_work(tmp_path, monkeypatch):
    from dseries import sumengine

    def never(*args, **kwargs):
        raise AssertionError("weights evaluated for a refused window")

    monkeypatch.setattr(sumengine, "_class_weights", never)
    code, payload, mani = run(
        ["drift", "1", "2", "--f", "pow:1", "--N", "10000", "--M", "990000", "--max-terms", "100000"],
        tmp_path,
        "dlow",
    )
    assert code == 2 and payload is None
    assert "term limit 100000" in mani["error"]


# -- liouville -----------------------------------------------------------------


def test_liouville_factorial_levels(tmp_path):
    code, payload, _ = run(
        ["liouville", "--schedule", "factorial", "--terms", "4"], tmp_path, "lf"
    )
    assert code == 0
    assert payload["schedule"] == "factorial"
    levels = payload["levels"]
    assert [e["level"] for e in levels] == [1, 2, 3, 4]
    lam3 = levels[2]
    assert (lam3["lambda_num"], lam3["lambda_den"]) == ("110001", "1000000")
    assert lam3["q_even"] and lam3["verified_convergent"]
    assert lam3["verification"] == "expansion"
    # 1/10 is genuinely not a convergent of the full number
    assert not levels[0]["verified_convergent"]
    assert payload["qalpha"]
    assert payload["classify"] == {
        "outcome": "Diverges",
        "certificate": "LiouvilleFamily",
    }
    assert payload["error"] is None


def test_liouville_tower_structured_error(tmp_path):
    code, payload, mani = run(
        ["liouville", "--schedule", "tower100", "--terms", "3"], tmp_path, "lt"
    )
    assert code == 2
    assert payload["error"] and "e_3" in payload["error"]
    assert mani["error"] == payload["error"]
    levels = payload["levels"]
    assert [e["level"] for e in levels] == [1, 2]
    assert levels[1]["verification"] == "gap_bound"
    assert levels[1]["q_even"]
    # the next denominator dwarfs everything: 10^200-scale exponent
    assert levels[1]["q_next_log10_lower"] > 1e199


@pytest.mark.parametrize(
    "extra, error",
    [
        (["--p", "1/0"], "cannot parse exponent '1/0'"),
        (["--p", "2"], "0 < p <= 1"),
        (["--base", "3"], "base must look like a/q"),
        (["--digits", "12"], "digits pattern"),
    ],
)
def test_liouville_parameters_share_the_grammar_parsers(tmp_path, extra, error):
    code, payload, mani = run(["liouville", "--schedule", "factorial", *extra], tmp_path, "lp")
    assert code == 1 and payload is None
    assert error in mani["error"]


# -- reproducibility -----------------------------------------------------------


def test_corpus_replays_in_process():
    # tests/corpus.json: see make_corpus.py, which rewrites it
    failures = make_corpus.check(make_corpus.load(), make_corpus.run_in_process)
    assert not failures, "\n".join(failures)


def test_payload_bytes_reproducible(tmp_path):
    out = tmp_path / "repro.json"
    argv = [
        "classify", "const:invpi", "--f", "pow:1", "--cert", "mahler",
        "--manifest", str(tmp_path / "m1.json"), "--json", str(out),
    ]
    assert console_main(argv) == 0
    first = out.read_bytes()
    assert console_main(argv) == 0
    assert out.read_bytes() == first


def _strip_durations(obj):
    if isinstance(obj, dict):
        return {
            k: _strip_durations(v) for k, v in obj.items() if "duration" not in k
        }
    if isinstance(obj, list):
        return [_strip_durations(v) for v in obj]
    return obj


def test_manifest_reproducible_up_to_duration(tmp_path):
    mani_path = tmp_path / "m.json"
    argv = [
        "sum", "rat:1/3", "--f", "pow:1", "--M", "1000",
        "--manifest", str(mani_path), "--json", str(tmp_path / "o.json"),
    ]
    assert console_main(argv) == 0
    first = _strip_durations(json.loads(mani_path.read_text()))
    assert console_main(argv) == 0
    second = _strip_durations(json.loads(mani_path.read_text()))
    assert first == second


def test_payload_goes_to_stdout_without_json_flag(tmp_path, capsys):
    code = console_main(
        ["cf", "rat:22/7", "--terms", "4", "--manifest", str(tmp_path / "m.json")]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1 and payload["exact"]


@pytest.mark.parametrize(
    "lo_m, hi_m, exp",
    [
        (3, 5, 2),  # both endpoints are exact doubles
        (0, 1, 1100),  # lo_m = 0; hi rounds below the smallest subnormal
        (0, 0, 0),
        (12345, 67891, 1080),  # subnormal results
        (2 ** 60 + 1, 2 ** 60 + 3, 1130),  # subnormal, not exact
        (3 ** 700, 3 ** 700 + 1, 1200),  # huge mantissas
        (-(3 ** 700) - 1, -(3 ** 700), 1100),
        (2 ** 1100 - 1, 2 ** 1100 + 1, 80),
    ],
)
def test_outward_floats_are_the_tightest_enclosing_doubles(lo_m, hi_m, exp):
    iv = ds.DyadicInterval(lo_m, hi_m, exp)
    lo, hi = _outward_floats(iv)
    assert Fraction(lo) <= ends(iv)[0] < Fraction(math.nextafter(lo, math.inf))
    assert Fraction(math.nextafter(hi, -math.inf)) < ends(iv)[1] <= Fraction(hi)


@st.composite
def _dyadic_endpoints(draw):
    """(m, exp) with |m| up to 10^4 bits, exp up to 9000 and m * 2^-exp below
    2^1022: general values, exact doubles and subnormal results."""
    kind = draw(st.sampled_from(["any", "exact", "subnormal"]))
    if kind == "exact":
        m = draw(st.integers(-(2 ** 53), 2 ** 53)) << draw(st.integers(0, 7000))
    else:
        bits = draw(st.integers(0, 10_000 if kind == "any" else 7_800))
        m = draw(st.integers(-(1 << bits), 1 << bits))
    low = max(0, m.bit_length() - 1022)
    if kind == "subnormal":
        exp = m.bit_length() + draw(st.integers(1022, 1130))
    else:
        exp = draw(st.integers(low, 9000))
    return m, exp


@settings(max_examples=400, deadline=None)
@given(_dyadic_endpoints())
def test_outward_floats_match_their_exact_definition(m_exp):
    m, exp = m_exp
    iv = ds.DyadicInterval(m, m, exp)
    lo, hi = _outward_floats(iv)
    assert Fraction(lo) <= ends(iv)[0] < Fraction(math.nextafter(lo, math.inf))
    assert Fraction(math.nextafter(hi, -math.inf)) < ends(iv)[1] <= Fraction(hi)


def test_outward_floats_keep_exact_endpoints():
    assert _outward_floats(ds.DyadicInterval(3, 5, 2)) == (0.75, 1.25)
    assert _outward_floats(ds.DyadicInterval(0, 1, 1074)) == (0.0, 5e-324)


@st.composite
def _near_subnormal_intervals(draw):
    """0 <= lo_m <= hi_m on grids of up to 10^4 bits, with ends on either
    side of 2^-1074 (the smallest subnormal) or 2^-1022 (the smallest normal)."""
    exp = draw(st.integers(1074, 10_000))
    edge = 1 << (exp - draw(st.sampled_from([1074, 1022])))
    near = st.one_of(st.integers(-3, 3), st.integers(-edge, edge))
    ends = sorted(max(0, edge + draw(near)) for _ in range(2))
    return ds.DyadicInterval(ends[0], ends[1], exp)


@settings(max_examples=400, deadline=None)
@given(_near_subnormal_intervals())
def test_outward_floats_below_the_smallest_subnormal_match_round_dyadic(iv):
    expected = _round_dyadic(iv.lo_m, iv.exp, False), _round_dyadic(iv.hi_m, iv.exp, True)
    assert _outward_floats(iv) == expected


@pytest.mark.parametrize(
    "lo_m, hi_m, exp, expected",
    [
        (0, 0, 5000, (0.0, 0.0)),
        (0, 1, 5000, (0.0, 5e-324)),
        (3 ** 2000, 3 ** 2000 + 1, 5000, (0.0, 5e-324)),  # about 2^-1830
        ((1 << 1000) - 1, 1 << 1000, 2074, (0.0, 5e-324)),  # hi = 2^-1074 exactly
        ((1 << 1000) + 1, (1 << 1000) + 1, 2074, (5e-324, 1e-323)),
    ],
    ids=["zero", "one-grid-step", "long-mantissa", "hi-at-2^-1074", "just-above-2^-1074"],
)
def test_outward_floats_at_the_smallest_subnormal(lo_m, hi_m, exp, expected):
    assert _outward_floats(ds.DyadicInterval(lo_m, hi_m, exp)) == expected


# -- the parser: one subcommand's parser per run -----------------------------------


def _subcommands_built(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


def test_a_run_builds_the_one_subcommand_parser_it_names():
    assert _subcommands_built(_build_parser(["cf", "const:pi"])) == ["cf"]
    for argv in ([], ["-h"], ["--version"], ["bogus"], ["--manifest", "m.json", "cf"]):
        assert _subcommands_built(_build_parser(argv)) == list(_COMMANDS)


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_usage_error_under_each_subcommand_writes_the_last_manifest(tmp_path, command):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = [command, "--no-such-flag", "--manifest", str(a), "--manifest", str(b)]
    assert console_main(argv) == 1
    assert not a.exists()
    mani = json.loads(b.read_text())
    assert mani["error"] == "argument parsing failed" and mani["command"] is None


def test_top_level_help_lists_every_subcommand(capsys):
    assert console_main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "{cf,classify,sum,drift,liouville}" in out
    for name, (summary, _, _) in _COMMANDS.items():
        assert re.search(rf"^    {name} +{re.escape(summary)}$", out, re.M)


def _full_parser_output(argv):
    """(exit code, stdout, stderr) of the parser with all five subcommands."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            _build_parser().parse_args(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [[c, "--no-such-flag"] for c in _COMMANDS]
    + [[c, "-h"] for c in _COMMANDS]
    + [
        ["cf"],
        ["cf", "rat:1/3", "extra"],
        ["cf", "rat:1/3", "--version"],
        ["classify", "rat:1/3"],
        ["sum", "rat:1/3", "--f", "pow:1", "--M", "0"],
        ["sum", "rat:1/3", "--f", "pow:1", "--M", "3", "--mode", "fast"],
        ["drift", "1"],
        ["liouville", "--schedule", "linear"],
    ],
)
def test_subcommand_parser_prints_what_the_full_parser_prints(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _full_parser_output(argv)
    assert console_main(argv) == (0 if code == 0 else 1)
    assert (out, err) == capsys.readouterr()
    assert "usage: dseries" in out + err


def test_python_dash_m_runs_the_cli(tmp_path):
    package_root = os.path.dirname(os.path.dirname(ds.__file__))
    paths = [package_root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-m", "dseries", "cf", "rat:3/7"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["partial_quotients"] == ["0", "2", "3"]
    manifest = json.loads((tmp_path / "dseries_manifest.json").read_text())
    assert manifest["command"] == "cf" and manifest["error"] is None


def _run_python(code, argv, cwd):
    package_root = os.path.dirname(os.path.dirname(ds.__file__))
    paths = [package_root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["cf", "const:pi", "--terms", "50"],
        ["classify", "const:invpi", "--f", "pow:1", "--cert", "mahler"],
        ["sum", "const:pi", "--f", "pow:1/2", "--M", "1000"],
    ],
)
def test_cli_runs_without_mpmath(tmp_path, argv):
    # a None entry in sys.modules makes every import of mpmath fail
    code = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from dseries.cli import console_main\n"
        "sys.exit(console_main(sys.argv[1:]))\n"
    )
    proc = _run_python(code, argv, tmp_path)
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "dseries_manifest.json").read_text())
    assert manifest["command"] == argv[0] and manifest["error"] is None


def test_cf_pi_does_not_import_mpmath(tmp_path):
    code = (
        "import sys\n"
        "from dseries.cli import console_main\n"
        "assert console_main(['cf', 'const:pi', '--terms', '1000', '--json', 'out.json']) == 0\n"
        "print('mpmath' in sys.modules)\n"
    )
    proc = _run_python(code, [], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
