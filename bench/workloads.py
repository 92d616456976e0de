"""Seeded workloads: the dseries invocations of one pass and their checks.

A workload is a fixed list of CLI invocations whose inputs (surd
coefficients, window starts N, numerators and denominators) are drawn from
fixed magnitude bands by the seed, so the cost of a pass does not depend on
the seed.  Each invocation carries a check against an independent oracle
(see oracles.py); checks never compare against stored golden output, so any
seed works.  Probes are invocations that reproduce a known defect: they run
in every pass and count as failures until the defect is fixed.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import oracles

_MIN_NORMAL = 2.2250738585072014e-308


@dataclass
class Outcome:
    """What one child process left behind."""

    code: int
    stderr: str
    payload: Optional[dict]
    manifest: Optional[dict]
    csv: Optional[str]
    payload_bytes: int
    setup_s: float
    call_s: float
    rss_mb: float
    spans: List[dict] = field(default_factory=list)


Check = Callable[[Outcome, Dict[str, Outcome]], Optional[str]]


@dataclass
class Invocation:
    name: str
    argv: List[str]
    check: Check  # returns None when the outcome is right, else the reason
    terms: Callable[[Outcome], int]  # output terms delivered, for mterm_s
    bound_rel: Optional[Callable[[Outcome], float]] = None
    defect: Optional[str] = None  # probes only: regex of the documented failure


@dataclass
class Sizes:
    M: int  # terms of each throughput sum
    M_scan: int
    cf_terms: int
    odd_q: Tuple[int, int]
    periodic_q: Tuple[int, int]
    liouville_bits: int


FULL = Sizes(10 ** 7, 4 * 10 ** 6, 1000, (5 * 10 ** 5, 10 ** 6), (10 ** 6, 105 * 10 ** 4), 262144)
TINY = Sizes(20000, 8000, 40, (5000, 10 ** 4), (10 ** 4, 10500), 4096)

WORKLOADS = ("sum_irrational", "sum_rational", "certify")


def _fail_if(cond: bool, reason: str) -> Optional[str]:
    return reason if cond else None


def _last_line(text: str) -> str:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    return lines[-1] if lines else ""


def _exit_reason(out: Outcome) -> str:
    parts = [f"exit {out.code}"]
    if out.manifest is None:
        parts.append("no manifest")
    return ", ".join(parts) + ": " + _last_line(out.stderr)


class Oracles:
    """Per-run cache, so each reference is computed once per run."""

    def __init__(self, cf_count: int):
        self.cf_count = cf_count
        self._cache: Dict[tuple, object] = {}

    def _get(self, key: tuple, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def sums(self, spec, p, N, M, marks=()):
        """{m: (S(m), bound, mass)}; a later call may ask for more marks."""
        key = ("sum", spec, p, N, M)
        have = self._cache.get(key, {})
        if M not in have or not set(marks) <= have.keys():
            have = oracles.reference_sums(spec, p, N, M, set(marks) | have.keys())
            self._cache[key] = have
        return have

    def mp_sum(self, spec, p, N, M):
        return self._get(("mp", spec, p, N, M), lambda: oracles.mp_sum(spec, p, N, M))

    def cf(self, spec):
        return self._get(("cf", spec), lambda: oracles.CfOracle(spec, self.cf_count + 8))


def _alpha_text(spec: tuple) -> str:
    if spec[0] == "rat":
        return f"rat:{spec[1]}/{spec[2]}"
    if spec[0] == "surd":
        _, p, r, d, s = spec
        return f"surd:({p}{'+' if r > 0 else '-'}{abs(r)}*sqrt({d}))/{s}"
    return f"const:{spec[1]}"


def _seeded_surd(rng: random.Random) -> tuple:
    d = rng.choice([d for d in range(2, 100) if math.isqrt(d) ** 2 != d])
    return ("surd", rng.randint(-30, 30), rng.choice([-1, 1]) * rng.randint(1, 5), d, rng.randint(1, 12))


def _coprime(rng: random.Random, q: int) -> int:
    while True:
        a = rng.randrange(1, q)
        if math.gcd(a, q) == 1:
            return a


# -- sums ---------------------------------------------------------------------------


def _within(value: float, ref: float, bound: float, ref_bound: float, what: str) -> Optional[str]:
    err = abs(value - ref)
    return _fail_if(
        not err <= bound + ref_bound,
        f"{what} {value!r} is {err:.3g} from the reference {ref!r}, beyond "
        f"rounding_bound {bound:.3g} + reference bound {ref_bound:.3g}",
    )


def _sum_results(out: Outcome) -> Dict[str, dict]:
    return out.payload["results"] if out.payload else {}


def _sum_invocation(name, ora, spec, p, N, M, *, mode="direct", workers=None, twin=None, scan=False):
    argv = ["sum", _alpha_text(spec), "--f", f"pow:{p}", "--N", str(N), "--M", str(M)]
    if mode != "direct":
        argv += ["--mode", mode]
    if workers is not None:
        argv += ["--workers", str(workers)]
    if scan:
        argv += ["--trace", "{csv}"]

    def rows(out):
        return [tuple(map(float, ln.split(","))) for ln in out.csv.strip().splitlines()[1:]]

    def check(out, done):
        if out.code != 0 or out.payload is None or out.manifest is None:
            return _exit_reason(out)
        results = _sum_results(out)
        if sorted(results) != (["direct", "periodic"] if mode == "both" else [mode]):
            return f"unexpected result modes {sorted(results)}"
        if scan and out.csv is None:
            return "no trace CSV written"
        table = rows(out) if scan else []
        refs = ora.sums(spec, p, N, M, [int(m) for m, _, _ in table])
        value, bound, _ = refs[M]
        for key, res in results.items():
            reason = _fail_if(res["terms"] != M, f"{key} reports {res['terms']} terms")
            reason = reason or _within(res["value"], value, res["rounding_bound"], bound, key)
            if reason:
                return reason
        if mode == "both" and out.payload.get("agree") is not True:
            return "--mode both did not report agree: true"
        if scan:
            if not table or int(table[-1][0]) != M:
                return "trace does not end at M"
            for m, s, b in table:
                reason = _within(s, refs[int(m)][0], b, refs[int(m)][1], f"trace row m={int(m)}")
                if reason:
                    return reason
        if twin is not None:
            other = _sum_results(done[twin]).get("direct", {})
            mine = results["direct"]
            if (other.get("value"), other.get("rounding_bound")) != (mine["value"], mine["rounding_bound"]):
                return f"value or bound differs from {twin}: not bit-identical across worker counts"
        return None

    def bound_rel(out):
        mass = ora.sums(spec, p, N, M)[M][2]
        return max(r["rounding_bound"] for r in _sum_results(out).values()) / mass

    return Invocation(
        name, argv, check,
        terms=lambda out: sum(r["terms"] for r in _sum_results(out).values()),
        bound_rel=bound_rel,
    )


def _small_sum_invocation(name, ora, spec, p, N, M, *, extra=(), mode="direct", refusal_ok=False, defect=None):
    """Short sum checked against mpmath.  refusal_ok accepts exit 2 with a
    manifest error (refusing a window the kernel cannot bound is a fix)."""
    argv = ["sum", _alpha_text(spec), "--f", f"pow:{p}", "--N", str(N), "--M", str(M), *extra]
    if mode != "direct":
        argv += ["--mode", mode]

    def check(out, done):
        if refusal_ok and out.code == 2 and out.manifest and out.manifest.get("error"):
            return None
        if out.code != 0 or out.payload is None or out.manifest is None:
            return _exit_reason(out)
        ref = ora.mp_sum(spec, p, N, M)
        for key, res in _sum_results(out).items():
            err = abs(res["value"] - ref)
            # ref is the 60-digit value rounded to a double: allow its half ulp
            if not err <= res["rounding_bound"] + math.ulp(ref) / 2:
                return (
                    f"{key} value {res['value']!r} is {err:.3g} from the mpmath value "
                    f"{ref!r}, beyond rounding_bound {res['rounding_bound']:.3g}"
                )
        return None

    return Invocation(
        name, argv, check,
        terms=lambda out: sum(r["terms"] for r in _sum_results(out).values()),
        defect=defect,
    )


def _drift_invocation(name, ora, a, q, p, N, M):
    argv = ["drift", str(a), str(q), "--f", f"pow:{p}", "--N", str(N), "--M", str(M)]

    def check(out, done):
        if out.code != 0 or out.payload is None or out.manifest is None:
            return _exit_reason(out)
        value, bound, _ = ora.sums(("rat", a, q), p, N, M)[M]
        measured, predicted = out.payload["measured"], out.payload["predicted"]
        reason = _within(measured["value"], value, measured["rounding_bound"], bound, "measured")
        gap = abs(value - predicted["value"])
        return reason or _fail_if(
            not gap <= predicted["error_allowance"] + bound,
            f"true sum is {gap:.3g} from the predicted drift, beyond its "
            f"error_allowance {predicted['error_allowance']:.3g}",
        )

    def bound_rel(out):
        return out.payload["measured"]["rounding_bound"] / ora.sums(("rat", a, q), p, N, M)[M][2]

    return Invocation(name, argv, check, terms=lambda out: M, bound_rel=bound_rel)


# -- certificates ---------------------------------------------------------------------


def _cf_invocation(name, ora, spec, terms):
    argv = ["cf", _alpha_text(spec), "--terms", str(terms)]

    def check(out, done):
        if out.payload is None or out.code != (2 if out.payload.get("capped") else 0):
            return _exit_reason(out)
        oracle = ora.cf(spec)
        pqs = [int(x) for x in out.payload["partial_quotients"]]
        if pqs != oracle.pqs[: len(pqs)] or len(pqs) > len(oracle.pqs):
            i = next((i for i, (x, y) in enumerate(zip(pqs, oracle.pqs)) if x != y), len(oracle.pqs))
            return f"partial quotient {i} differs from the exact expansion"
        convs = out.payload["convergents"]
        if not out.payload["capped"] and len(convs) != terms:
            return f"{len(convs)} convergents for --terms {terms} without a cap"
        # The best approximations skip a0/1 when a1 = 1: (a0+1)/1 is nearer.
        start = 1 if oracle.pqs[1] == 1 else 0
        exact = oracles.convergents(oracle.pqs)
        for c in convs:
            idx = start + c["n"] - 1
            a, q = exact[idx]
            if (int(c["a"]), int(c["q"]), int(c["pq"])) != (a, q, oracle.pqs[idx]):
                return f"convergent n={c['n']} is not {a}/{q}"
            lo, hi = oracle.dist_range(a, q)
            if Fraction(c["dist_lo"]) > hi or Fraction(c["dist_hi"]) < lo:
                return f"distance enclosure of convergent n={c['n']} misses |q alpha - a|"
        return None

    def bound_rel(out):
        return max(
            (c["dist_hi"] - c["dist_lo"]) / c["dist_hi"]
            for c in out.payload["convergents"]
            if c["dist_lo"] >= _MIN_NORMAL
        )

    return Invocation(
        name, argv, check,
        terms=lambda out: len(out.payload["partial_quotients"]),
        bound_rel=bound_rel,
    )


def _check_evidence(ora, spec, p, evidence) -> Optional[str]:
    denominators = ora.cf(spec).denominators()
    following = dict(zip(denominators, denominators[1:]))
    for e in evidence:
        q, q_next = int(e["q"]), int(e["q_next"])
        if following.get(q) != q_next or q % 2 or q_next < 2 * q:
            return f"evidence pair ({q}, {q_next}) is not an even q with a doubling successor"
        lg = oracles.criterion_log10(q, q_next, p)
        if not abs(e["log10_value"] - lg) <= 1e-9 * max(1.0, abs(lg)):
            return f"criterion term at q={q} has log10 {e['log10_value']}, expected {lg}"
    return None


def _classify_invocation(name, ora, spec, p, truth, extra=()):
    """truth is the mathematically right outcome; Inconclusive means no
    effective certificate is known for this input, so a decisive verdict
    would be wrong."""
    argv = ["classify", _alpha_text(spec), "--f", f"pow:{p}", *extra]
    code = 3 if truth == "Inconclusive" else 0

    def check(out, done):
        if out.payload is None or out.code != code:
            return _exit_reason(out)
        if out.payload["outcome"] != truth:
            return f"outcome {out.payload['outcome']}, but the truth is {truth}"
        return _check_evidence(ora, spec, p, out.payload["evidence"])

    return Invocation(name, argv, check, terms=lambda out: len(out.payload["evidence"]))


def _liouville_invocation(name, ora, schedule, terms, extra=(), defect=None):
    argv = ["liouville", "--schedule", schedule, "--terms", str(terms), *extra]
    spec = ("liouville", schedule)
    exponents = oracles.liouville_levels(schedule, 10 ** 9)
    # Oracle denominators are certain below 10^9000 (interval width 10^-20001).
    reliable = 10 ** 9000

    def check(out, done):
        data = out.payload
        if data is None or out.code != (2 if data.get("error") else 0):
            return _exit_reason(out)
        if not data["error"] and len(data["levels"]) != terms:
            return f"{len(data['levels'])} levels reported for --terms {terms} without an error"
        if data["classify"]["outcome"] != "Diverges":
            return f"classify outcome {data['classify']['outcome']}; the staircase diverges"
        denominators = set(ora.cf(spec).denominators())
        for entry in data["levels"]:
            k = entry["level"]
            lam = sum(Fraction(1, 10 ** e) for e in exponents[:k])
            if (entry["exponent"], int(entry["lambda_num"]), int(entry["lambda_den"]), int(entry["q"])) != (
                exponents[k - 1], lam.numerator, lam.denominator, lam.denominator
            ) or entry["q_even"] != (lam.denominator % 2 == 0):
                return f"level {k} misreports lambda_{k}"
            if entry["verified_convergent"] and lam.denominator not in denominators:
                return f"level {k} claims a convergent that is not one"
        ordered = sorted(denominators)
        following = dict(zip(ordered, ordered[1:]))
        for e in data["qalpha"]:
            q, q_next = int(e["q"]), int(e["q_next"])
            if q % 2 or q_next < 2 * q:
                return f"qalpha pair ({q}, {q_next}) is not an even q with a doubling successor"
            if q_next < reliable and following.get(q) != q_next:
                return f"qalpha pair ({q}, {q_next}) are not consecutive denominators"
        return None

    def count(out):
        return len(out.payload["levels"]) + out.payload["expansion"]["convergents"] if out.payload else 0

    return Invocation(name, argv, check, terms=count, defect=defect)


# -- the workloads ---------------------------------------------------------------------


def build(name: str, seed: int, sizes: Sizes = FULL) -> List[Invocation]:
    """Invocations of one pass of the named workload, drawn from the seed."""
    rng = random.Random(f"{name}:{seed}")
    ora = Oracles(sizes.cf_terms)
    one, half = Fraction(1), Fraction(1, 2)
    if name == "sum_irrational":
        surd = _seeded_surd(rng)
        N = rng.randrange(10 ** 8)
        invs = [
            _sum_invocation("sum.surd.w1", ora, surd, one, N, sizes.M, workers=1),
            _sum_invocation("sum.surd.w2", ora, surd, one, N, sizes.M, workers=2, twin="sum.surd.w1"),
            _sum_invocation("sum.pi", ora, ("const", "pi"), half, 0, sizes.M),
            _sum_invocation("sum.e.scan", ora, ("const", "e"), half, 0, sizes.M_scan, scan=True),
            _small_sum_invocation(
                "probe.sqrt2.n2p54", ora, ("surd", 0, 1, 2, 1), one, 2 ** 54, 8,
                extra=["--max-terms", str(10 ** 20)], refusal_ok=True,
                defect=r"beyond rounding_bound",
            ),
        ]
    elif name == "sum_rational":
        q_odd = rng.randrange(sizes.odd_q[0] | 1, sizes.odd_q[1], 2)
        q_both = rng.randrange(900, 1100, 2)
        q_drift = rng.randrange(900, 1100, 2)
        q_per = rng.randrange(*sizes.periodic_q)
        invs = [
            _sum_invocation("sum.rat.odd_q", ora, ("rat", _coprime(rng, q_odd), q_odd), half,
                            rng.randrange(10 ** 8), sizes.M),
            _sum_invocation("sum.rat.both", ora, ("rat", _coprime(rng, q_both), q_both), half,
                            rng.randrange(10 ** 8), sizes.M, mode="both"),
            _drift_invocation("drift", ora, _coprime(rng, q_drift), q_drift, half,
                              2 * rng.randrange(1, 5 * 10 ** 7), sizes.M),
            _small_sum_invocation("sum.rat.periodic", ora, ("rat", _coprime(rng, q_per), q_per), half,
                                  rng.randrange(10 ** 8), 10, mode="periodic"),
            _small_sum_invocation(
                "probe.rat.q1e12", ora, ("rat", 1, 10 ** 12 + 1), one, 0, 10,
                defect=r"exit 1, no manifest: .*MemoryError",
            ),
        ]
    elif name == "certify":
        surd = _seeded_surd(rng)
        terms = str(sizes.cf_terms)
        invs = [
            _cf_invocation("cf.pi", ora, ("const", "pi"), sizes.cf_terms),
            _cf_invocation("cf.e", ora, ("const", "e"), sizes.cf_terms),
            _cf_invocation("cf.invpi", ora, ("const", "invpi"), sizes.cf_terms),
            _cf_invocation("cf.surd", ora, surd, sizes.cf_terms),
            _classify_invocation("classify.invpi", ora, ("const", "invpi"), one, "Converges",
                                 ["--cert", "mahler"]),
            _classify_invocation("classify.surd", ora, surd, half, "Converges", ["--cert", "roth"]),
            _classify_invocation("classify.pi", ora, ("const", "pi"), half, "Inconclusive",
                                 ["--budget", terms]),
            _liouville_invocation("liouville.tower100", ora, "tower100", 3,
                                  ["--max-bits", str(sizes.liouville_bits)]),
            _liouville_invocation(
                "probe.liouville.factorial", ora, "factorial", 6,
                defect=r"exit 1: .*limit \(4300 digits\) for integer string conversion",
            ),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return invs


def defect_matches(inv: Invocation, reason: str) -> bool:
    return inv.defect is not None and re.search(inv.defect, reason) is not None
