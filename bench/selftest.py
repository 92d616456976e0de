"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that perturbed outputs fail their checks (a sum moved by 10x its bound, one
wrong partial quotient, a wrong verdict), that only the known-defect probes
fail, and that a seed always generates the same inputs.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys

import run
import workloads

failures = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def perturbed(meas: run.Measurement, name: str, edit) -> str:
    """Check result of the first-pass outcome of `name` after `edit`."""
    outs = {inv.name: out for inv, out in zip(meas.invs, meas.untraced[0])}
    inv = next(inv for inv in meas.invs if inv.name == name)
    out = copy.deepcopy(outs[name])
    edit(out)
    return inv.check(out, outs)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end metrics match the benchmark's own list")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per_layer metrics match the benchmark's own list")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json names the benchmark's workloads")

    for name in workloads.WORKLOADS:
        argvs = [[inv.argv for inv in workloads.build(name, seed, workloads.TINY)] for seed in (7, 7, 8)]
        expect(argvs[0] == argvs[1] and argvs[0] != argvs[2], f"{name}: same seed, same inputs; new seed, new inputs")

    measured = {}
    for name in workloads.WORKLOADS:
        for trace, units in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            meas = run.measure(name, 7, 0, trace, workloads.TINY)
            with contextlib.redirect_stdout(io.StringIO()):
                printed = run.report(name, meas, trace)
            expect({k: v["unit"] for k, v in printed.items()} == units,
                   f"{name} trace={int(trace)}: every metric printed with its unit")
            expect(not meas.unexpected(), f"{name} trace={int(trace)}: only probes fail, as documented")
            probes = sum(inv.defect is not None for inv in meas.invs)
            passes = len(meas.untraced) + len(meas.traced)
            expect(meas.failed == probes * passes, f"{name} trace={int(trace)}: failed counts one per probe per pass")
            measured[name] = meas

    def shift_sum(out):
        res = out.payload["results"]["direct"]
        res["value"] += 10 * res["rounding_bound"]

    def shift_scan_row(out):
        header, row, *rest = out.csv.splitlines()
        m, s, b = row.split(",")
        out.csv = "\n".join([header, f"{m},{float(s) + 10 * float(b)!r},{b}", *rest]) + "\n"

    def bump_quotient(out):
        pqs = out.payload["partial_quotients"]
        pqs[5] = str(int(pqs[5]) + 1)

    def flip_verdict(out):
        out.payload["outcome"] = "Diverges"

    expect(perturbed(measured["sum_irrational"], "sum.pi", shift_sum) is not None,
           "a sum moved by 10x its rounding bound fails")
    expect(perturbed(measured["sum_irrational"], "sum.e.scan", shift_scan_row) is not None,
           "a trace row moved by 10x its rounding bound fails")
    expect(perturbed(measured["sum_rational"], "sum.rat.odd_q", shift_sum) is not None,
           "a rational sum moved by 10x its rounding bound fails")
    expect(perturbed(measured["certify"], "cf.pi", bump_quotient) is not None,
           "one wrong partial quotient fails")
    expect(perturbed(measured["certify"], "cf.surd", bump_quotient) is not None,
           "one wrong surd partial quotient fails")
    expect(perturbed(measured["certify"], "classify.invpi", flip_verdict) is not None,
           "a wrong verdict fails")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
