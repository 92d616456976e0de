"""Command-line front end.

Five subcommands: cf (expansion), classify (verdict), sum (partial sums),
drift (even-denominator secular term), liouville (staircase construction
report).  Every run writes a manifest JSON next to its outputs, even when
it fails, so an experiment can be replayed from the recorded argv.

Exit codes: 0 success/decisive, 1 usage or certificate error, 2 resource
cap, 3 inconclusive classification.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import __version__, cfrac, criterion, realsource, sumengine
from .criterion import _EXACT, FDescriptor, Outcome, _decimal
from .errors import DSeriesError, ResourceLimitError
from .realsource import (
    DEFAULT_MAX_BITS,
    Kind,
    LiouvilleSpec,
    RealSource,
    Schedule,
)

__all__ = [
    "parse_alpha",
    "format_alpha",
    "parse_f",
    "console_main",
    "main",
]

_DEFAULT_MANIFEST = "dseries_manifest.json"
_MAX_WORKERS = 64  # each worker is a process with its own 512 KiB of work rows

_RAT_RE = re.compile(r"^rat:(-?\d+)/(-?\d+)$")
_SURD_RE = re.compile(r"^surd:\((-?\d+)([+-])(\d+)\*sqrt\((\d+)\)\)/(-?\d+)$")
_CONST_RE = re.compile(r"^const:(pi|invpi|e)$")
_LIOU_RE = re.compile(r"^liouville:(factorial|tower100)((?:,[a-z]+=[^,=]+)*)$")
_CF_RE = re.compile(r"^cf:\[(-?\d+)(?:;(.+))?\]$")


def parse_alpha(text: str, *, max_bits: int = DEFAULT_MAX_BITS) -> RealSource:
    """Parse the textual alpha grammar into a RealSource.

    Forms: rat:a/q, surd:(p+r*sqrt(d))/s, const:pi|invpi|e,
    liouville:SCHEDULE[,base=a/q][,digits=PATTERN][,start=M], and
    cf:[a0;a1,a2,...] where a trailing ",..." declares an all-ones tail.
    """
    m = _RAT_RE.match(text)
    if m:
        return realsource.make_rational(int(m.group(1)), int(m.group(2)), max_bits=max_bits)
    m = _SURD_RE.match(text)
    if m:
        p = int(m.group(1))
        r = int(m.group(3)) * (1 if m.group(2) == "+" else -1)
        d = int(m.group(4))
        s = int(m.group(5))
        return realsource.make_surd(p, r, d, s, max_bits=max_bits)
    m = _CONST_RE.match(text)
    if m:
        return realsource.make_constant(m.group(1), max_bits=max_bits)
    m = _LIOU_RE.match(text)
    if m:
        params: Dict[str, str] = {}
        for item in filter(None, m.group(2).split(",")):
            key, _, value = item.partition("=")
            if key not in ("base", "digits", "start"):
                raise ValueError(f"unknown liouville parameter {key!r}")
            params[key] = value
        return realsource.make_liouville(_liouville_spec(m.group(1), **params), max_bits=max_bits)
    m = _CF_RE.match(text)
    if m:
        pqs: List[int] = [int(m.group(1))]
        all_ones = False
        rest = m.group(2)
        if rest is not None:
            items = [s.strip() for s in rest.split(",")]
            if items and items[-1] == "...":
                all_ones = True
                items = items[:-1]
            if not all(items):
                raise ValueError(f"empty partial quotient in {text!r}")
            pqs.extend(int(s) for s in items)
        return realsource.make_pq_stream(pqs, all_ones_tail=all_ones, max_bits=max_bits)
    raise ValueError(
        f"unrecognized alpha spec {text!r}; expected rat:, surd:, const:, "
        "liouville: or cf:"
    )


def _liouville_spec(
    schedule: str, base: str = "0/1", digits: str = "1", start: Union[int, str] = 1
) -> LiouvilleSpec:
    """The staircase parameters of liouville:SCHEDULE[,base=a/q][,digits=..][,start=M]."""
    num_s, slash, den_s = base.partition("/")
    if not slash:
        raise ValueError(f"base must look like a/q, got {base!r}")
    if not digits or any(c not in "13" for c in digits):
        raise ValueError("digits pattern must be a nonempty string over {1,3}")
    return LiouvilleSpec(
        base_num=int(num_s),
        base_den=int(den_s),
        digits=tuple(int(c) for c in digits),
        start=int(start),
        schedule=Schedule(schedule),
    )


def format_alpha(source: RealSource) -> str:
    """Canonical textual form; parse(format(s)) describes the same number."""
    if source.pqs:
        # a cf: prefix; a surd's is followed by its declared tail of 1s
        rest = [str(a) for a in source.pqs[1:]]
        if source.kind is Kind.QUADRATIC_SURD:
            rest.append("...")
        return f"cf:[{source.pqs[0]};{','.join(rest)}]" if rest else f"cf:[{source.pqs[0]}]"
    if source.kind is Kind.RATIONAL:
        return f"rat:{source.a}/{source.q}"
    if source.kind is Kind.QUADRATIC_SURD:
        sign = "+" if source.r >= 0 else "-"
        return f"surd:({source.p}{sign}{abs(source.r)}*sqrt({source.d}))/{source.s}"
    if source.kind is Kind.NAMED_CONSTANT:
        return f"const:{source.const.value}"
    if source.kind is Kind.LIOUVILLE:
        spec = source.liouville
        out = f"liouville:{spec.schedule.value}"
        if (spec.base_num, spec.base_den) != (0, 1):
            out += f",base={spec.base_num}/{spec.base_den}"
        if spec.digits != (1,):
            out += ",digits=" + "".join(str(d) for d in spec.digits)
        if spec.start != 1:
            out += f",start={spec.start}"
        return out
    raise ValueError(f"cannot format source of kind {source.kind}")


def parse_f(text: str) -> FDescriptor:
    """Weight spec: pow:p with p a fraction or decimal in (0, 1]."""
    kind, _, param = text.partition(":")
    if kind == "pow" and param:
        try:
            p = Fraction(param)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"cannot parse exponent {param!r}") from None
        return criterion.make_power_f(p)
    raise ValueError(f"unrecognized weight spec {text!r}; expected pow:p")


def _fmt17(x: float) -> str:
    return format(x, ".17g")


def _json_float(x: float):
    return x if math.isfinite(x) else str(x)


def _round_dyadic(m: int, exp: int, up: bool) -> float:
    """m * 2^-exp rounded to a double toward +inf (up) or -inf; past the
    largest double, ldexp raises OverflowError."""
    # drop the bits of m below the result's last place (53 bits, or 2^-1074)
    shift = max(m.bit_length() - 53, exp - 1074)
    if shift <= 0:
        return math.ldexp(m, -exp)  # exact
    top = m >> shift  # floor, for either sign
    if up and top << shift != m:
        top += 1
    return math.ldexp(top, shift - exp)


def _outward_floats(iv) -> Tuple[float, float]:
    """Tightest doubles lo <= lo_m 2^-exp and hi >= hi_m 2^-exp of iv."""
    if iv.lo_m >= 0 and iv.hi_m.bit_length() <= iv.exp - 1074:
        # 0 <= lo <= hi < 2^-1074, the smallest subnormal: the distances of
        # a long expansion's later convergents
        return 0.0, (5e-324 if iv.hi_m else 0.0)
    return _round_dyadic(iv.lo_m, iv.exp, False), _round_dyadic(iv.hi_m, iv.exp, True)


def _document(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _json_list(items: List[str]) -> str:
    """A list of JSON texts laid out as a value of a top-level key."""
    return "[\n%s\n  ]" % ",\n".join(items) if items else "[]"


_CONVERGENT_ROW = """    {
      "a": "%s",
      "dist_hi": %r,
      "dist_lo": %r,
      "n": %d,
      "pq": "%s",
      "q": "%s"
    }"""


def _cf_document(alpha: str, exp: cfrac.Expansion) -> str:
    """The cf document, byte for byte _document() of its payload: json's
    indenting encoder is pure Python, so the two long lists are written
    here from one fixed layout, and json escapes the outer scalars.

    Every integer is written as str() of a Decimal, which takes linear
    time, where str() of an int is quadratic and refuses past 4300 digits.
    A row's texts come from one exact recurrence over the quotients,
    p_k = a_k p_(k-1) + p_(k-2) and q_k likewise, one fma each; the row of
    the convergent numbered n is written at quotient start + n - 1, start
    being where cfrac begins emitting."""
    convergents = exp.convergents
    start = cfrac._emit_start(exp.partial_quotients)
    fma = _EXACT.fma
    p1, p2, q1, q2 = 1, 0, 0, 1  # (p, q) at k - 1 and k - 2
    rows, quotients = [], []
    for k, a in enumerate(map(_decimal, exp.partial_quotients)):
        quotients.append('    "%s"' % a)
        p1, p2 = fma(a, p1, p2), p1
        q1, q2 = fma(a, q1, q2), q1
        if start <= k < start + len(convergents):
            c = convergents[k - start]
            lo, hi = _outward_floats(c.dist)  # finite, so %r is json's float text
            rows.append(_CONVERGENT_ROW % (p1, hi, lo, c.n, a, q1))
    return (
        '{\n  "alpha": %s,\n  "cap_reason": %s,\n  "capped": %s,\n  "convergents": %s,\n'
        '  "exact": %s,\n  "partial_quotients": %s,\n  "schema": 1\n}\n'
    ) % (
        json.dumps(alpha), json.dumps(exp.cap_reason), json.dumps(exp.capped), _json_list(rows),
        json.dumps(exp.exact), _json_list(quotients),
    )


# -- subcommands --------------------------------------------------------------

# each subcommand takes its arguments and the run's manifest, to which it may
# add output paths and durations, and returns its JSON document, exit code and
# manifest error
_Result = Tuple[str, int, Optional[str]]


def _cmd_cf(args: argparse.Namespace, manifest: dict) -> _Result:
    source = parse_alpha(args.alpha, max_bits=args.max_bits)
    exp = cfrac.expand(source, args.terms)
    return _cf_document(format_alpha(source), exp), (2 if exp.capped else 0), None


def _cmd_classify(args: argparse.Namespace, manifest: dict) -> _Result:
    source = parse_alpha(args.alpha, max_bits=args.max_bits)
    f = parse_f(args.f)
    verdict = criterion.classify(source, f, args.budget, args.cert or ())
    payload = {
        "schema": 1,
        "alpha": format_alpha(source),
        "f": f.name,
        **verdict.to_json_dict(),
    }
    return _document(payload), (0 if verdict.outcome is not Outcome.INCONCLUSIVE else 3), None


def _result_dict(r: sumengine.PartialSumResult) -> dict:
    return {"value": r.value, "rounding_bound": r.rounding_bound, "terms": r.terms, "mode": r.mode}


def _cmd_sum(args: argparse.Namespace, manifest: dict) -> _Result:
    if args.mode == "periodic":
        del manifest["caps"]["workers"]  # the periodic sum runs in one process
    source = parse_alpha(args.alpha, max_bits=args.max_bits)
    f = parse_f(args.f)
    if args.mode != "direct" and source.kind is not Kind.RATIONAL:
        raise ValueError("periodic mode requires a rational alpha (rat:a/q)")
    if args.mode == "periodic" and args.trace:
        raise ValueError("--trace records the direct sum; use --mode direct or both")
    N, M = args.N, args.M
    results: Dict[str, dict] = {}
    t0 = time.perf_counter()
    if args.trace:
        trace = sumengine.scan_partial_sums(
            source, f, N, M, max_terms=args.max_terms, workers=args.workers
        )
        rd = trace.final
    elif args.mode != "periodic":
        rd = sumengine.partial_sum_direct(
            source, f, N, M, max_terms=args.max_terms, workers=args.workers
        )
    if args.mode != "periodic":
        manifest["durations"]["direct_s"] = time.perf_counter() - t0
        results["direct"] = _result_dict(rd)
    if args.mode in ("periodic", "both"):
        t0 = time.perf_counter()
        rp = sumengine.partial_sum_periodic(source.a, source.q, f, N, M, max_terms=args.max_terms)
        manifest["durations"]["periodic_s"] = time.perf_counter() - t0
        results["periodic"] = _result_dict(rp)
    payload = {
        "schema": 1,
        "alpha": format_alpha(source),
        "f": f.name,
        "N": N,
        "M": M,
        "results": results,
    }
    if len(results) == 2:
        diff = abs(results["direct"]["value"] - results["periodic"]["value"])
        combined = (
            results["direct"]["rounding_bound"] + results["periodic"]["rounding_bound"]
        )
        payload["difference"] = diff
        payload["combined_bound"] = combined
        payload["agree"] = diff <= combined
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write("M,S,rounding_bound\n")
            for row in trace.rows:
                fh.write(f"{row.m},{_fmt17(row.value)},{_fmt17(row.rounding_bound)}\n")
        manifest["outputs"].append(args.trace)
        payload["trace"] = args.trace
    return _document(payload), 0, None


def _cmd_drift(args: argparse.Namespace, manifest: dict) -> _Result:
    f = parse_f(args.f)
    pred = sumengine.drift_predict(args.a, args.q, f, args.N, args.M, max_terms=args.max_terms)
    measured = sumengine.partial_sum_periodic(
        args.a, args.q, f, args.N, args.M, max_terms=args.max_terms
    )
    gap = abs(measured.value - pred.predicted)
    payload = {
        "schema": 1,
        "a": args.a,
        "q": args.q,
        "f": f.name,
        "N": args.N,
        "M": args.M,
        "predicted": {
            "magnitude": pred.magnitude,
            "sign": pred.sign,
            "value": pred.predicted,
            "error_allowance": pred.error_allowance,
        },
        "measured": {
            "value": measured.value,
            "rounding_bound": measured.rounding_bound,
        },
        "gap": gap,
        "within_allowance": gap <= pred.error_allowance + measured.rounding_bound,
        "relative_magnitude_gap": abs(abs(measured.value) - pred.magnitude) / pred.magnitude,
    }
    return _document(payload), 0, None


def _cmd_liouville(args: argparse.Namespace, manifest: dict) -> _Result:
    spec = _liouville_spec(args.schedule, args.base, args.digits, args.start)
    source = realsource.make_liouville(spec, max_bits=args.max_bits)
    f = parse_f(f"pow:{args.p}")
    levels, exp, error = criterion.staircase_levels(source, f, args.terms)
    qalpha = cfrac.q_alpha(exp.convergents)
    verdict = criterion.classify(source, f)
    payload = {
        "schema": 1,
        "alpha": format_alpha(source),
        "schedule": spec.schedule.value,
        "p": str(f.p),
        "levels": [
            {
                "level": lv.level,
                "exponent": lv.exponent,
                "lambda_num": str(lv.lam.numerator),
                "lambda_den": str(lv.lam.denominator),
                "q": str(lv.lam.denominator),
                "q_even": lv.lam.denominator % 2 == 0,
                "q_next_log10_lower": _json_float(lv.q_next_log10_lower),
                "criterion_term_log10_lower": _json_float(lv.criterion_term_log10_lower),
                "verified_convergent": lv.verification is not None,
                "verification": lv.verification,
            }
            for lv in levels
        ],
        "qalpha": [
            {"n": e.n, "q": str(e.q), "q_next": str(e.q_next)} for e in qalpha
        ],
        "expansion": {
            "convergents": len(exp.convergents),
            "capped": exp.capped,
            "cap_reason": exp.cap_reason,
        },
        "classify": {
            "outcome": verdict.outcome.value,
            "certificate": verdict.certificate.value,
        },
        "error": error,
    }
    return _document(payload), (2 if error else 0), error


# -- driver -------------------------------------------------------------------


def _int_in(lo: int, hi: Optional[int] = None):
    """The argparse type of an integer flag in [lo, hi], or at least lo."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            bounds = f">= {lo}" if hi is None else f"{lo} to {hi}"
            raise argparse.ArgumentTypeError(f"must be {bounds}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse


def _usable_cpus() -> int:
    """The CPUs this process may run on, at most _MAX_WORKERS."""
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(usable, _MAX_WORKERS)


# each cap a subcommand may read: its flag, type, default and help
_CAPS = {
    "max_bits": ("--max-bits", _int_in(64), DEFAULT_MAX_BITS, "precision cap in bits"),
    "max_terms": ("--max-terms", _int_in(1), sumengine.DEFAULT_MAX_TERMS, "term cap of a sum"),
    "workers": (
        "--workers", _int_in(1, _MAX_WORKERS), _usable_cpus(),
        f"worker processes of a direct sum or --trace scan (1 to {_MAX_WORKERS}; "
        "default: the CPUs this process may use)",
    ),
}


def _add_manifest(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--manifest", default=_DEFAULT_MANIFEST, help="run manifest path")


def _manifest_parser() -> argparse.ArgumentParser:
    """The parser of --manifest alone, which reads it again after a failed parse."""
    parser = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
    _add_manifest(parser)
    return parser


def _cf_arguments(s: argparse.ArgumentParser):
    s.add_argument("alpha")
    s.add_argument("--terms", type=_int_in(1), default=12)
    return _cmd_cf


def _classify_arguments(s: argparse.ArgumentParser):
    s.add_argument("alpha")
    s.add_argument("--f", required=True, help="weight spec, e.g. pow:1 or pow:1/2")
    s.add_argument("--cert", action="append", choices=list(criterion.CERTIFICATES), help="a certificate to try")
    s.add_argument("--budget", type=_int_in(1), default=24, help="expansion budget (convergents)")
    return _cmd_classify


def _sum_arguments(s: argparse.ArgumentParser):
    s.add_argument("alpha")
    s.add_argument("--f", required=True)
    s.add_argument("--N", type=_int_in(0), default=0)
    s.add_argument("--M", type=_int_in(1), required=True)
    s.add_argument("--mode", choices=["direct", "periodic", "both"], default="direct")
    s.add_argument("--trace", help="CSV trace path (geometric checkpoints)")
    return _cmd_sum


def _drift_arguments(s: argparse.ArgumentParser):
    s.add_argument("a", type=int)
    s.add_argument("q", type=int)
    s.add_argument("--f", required=True)
    s.add_argument("--N", type=_int_in(0), required=True)
    s.add_argument("--M", type=_int_in(1), required=True)
    return _cmd_drift


def _liouville_arguments(s: argparse.ArgumentParser):
    s.add_argument("--schedule", required=True, choices=["factorial", "tower100"])
    s.add_argument("--digits", default="1", help="repeating digit pattern over {1,3}")
    s.add_argument("--base", default="0/1", help="rational offset a/q")
    s.add_argument("--start", type=_int_in(1), default=1)
    s.add_argument("--terms", type=_int_in(1), default=4, help="number of staircase levels")
    s.add_argument("--p", default="1/2", help="power-weight exponent for criterion terms")
    return _cmd_liouville


# each subcommand's summary, the function that adds its own arguments and
# returns its handler, and the caps that handler reads
_COMMANDS = {
    "cf": ("continued-fraction expansion", _cf_arguments, ("max_bits",)),
    "classify": ("convergence verdict", _classify_arguments, ("max_bits",)),
    "sum": ("partial sums S(alpha; M, N)", _sum_arguments, ("max_bits", "max_terms", "workers")),
    "drift": ("even-q drift prediction vs measurement", _drift_arguments, ("max_terms",)),
    "liouville": ("staircase construction report", _liouville_arguments, ("max_bits",)),
}


def _build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The top-level parser, with the one subparser that argv[0] names, or
    with all five when it names none (help, --version, a missing or unknown
    command).

    A run parses and fails as it would under all five: a subparser does not
    depend on its siblings, and the top-level usage line, the one place
    where they all appear, spells the command list as a fixed metavar."""
    # no abbreviated flags, so a failed parse and a successful one read the
    # same --manifest: the manifest parser refuses abbreviations too
    parser = argparse.ArgumentParser(
        prog="dseries",
        allow_abbrev=False,
        description="Convergence toolkit for alternating sine-weighted series",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    names: Sequence[str] = list(_COMMANDS)
    metavar = None
    if argv and argv[0] in _COMMANDS:
        names, metavar = argv[:1], "{%s}" % ",".join(_COMMANDS)
    # the prog prefix given, argparse does not format a usage line to find it
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar, prog="dseries")
    for name in names:
        summary, add_arguments, caps = _COMMANDS[name]
        s = sub.add_parser(name, allow_abbrev=False, help=summary)
        _add_manifest(s)
        for cap in caps:
            flag, kind, default, text = _CAPS[cap]
            s.add_argument(flag, dest=cap, type=kind, default=default, help=text)
        s.add_argument("--json", dest="json_path", help="write the JSON document here instead of stdout")
        s.set_defaults(func=add_arguments(s))
    return parser


def _write_manifest(path: str, manifest: dict) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            # lists such as --cert's stay JSON lists; any other value that
            # is no JSON type is written as its str()
            json.dump(manifest, fh, sort_keys=True, indent=2, default=str)
            fh.write("\n")
    except OSError as exc:
        print(f"warning: cannot write manifest {path}: {exc}", file=sys.stderr)


def console_main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    start = time.perf_counter()
    manifest: dict = {
        "schema": 1,
        "command": None,
        "argv": argv,
        "parameters": {},
        "version": __version__,
        "caps": {},
        "outputs": [],
        "durations": {},
        "duration_s": 0.0,
        "error": None,
    }
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        code = 0 if exc.code == 0 else 1
        if code:
            # argparse drops a failed subparser's namespace, so read
            # --manifest again on its own
            try:
                manifest_path = _manifest_parser().parse_known_args(argv)[0].manifest
            except argparse.ArgumentError:
                manifest_path = _DEFAULT_MANIFEST
            manifest["error"] = "argument parsing failed"
            manifest["duration_s"] = time.perf_counter() - start
            _write_manifest(manifest_path, manifest)
        return code
    manifest["command"] = args.command
    manifest["caps"] = {cap: getattr(args, cap) for cap in _COMMANDS[args.command][2]}
    manifest["parameters"] = {k: v for k, v in vars(args).items() if k != "func"}
    code = 0
    try:
        text, code, error = args.func(args, manifest)
        if args.json_path:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            manifest["outputs"].append(args.json_path)
        else:
            sys.stdout.write(text)
        manifest["error"] = error
    except Exception as exc:
        # the boundary: every failure ends in a message, a manifest and exit
        # 1 or 2, never a traceback
        known = isinstance(exc, (DSeriesError, ValueError, OverflowError))
        message = str(exc) if known else f"{type(exc).__name__}: {exc}"
        print(f"error: {message}", file=sys.stderr)
        manifest["error"] = message
        code = 2 if isinstance(exc, ResourceLimitError) else 1
    manifest["duration_s"] = time.perf_counter() - start
    _write_manifest(args.manifest, manifest)
    return code


def main() -> None:
    sys.exit(console_main())
