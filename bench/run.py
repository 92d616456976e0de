"""dseries benchmark: seeded CLI workloads with end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  NAME is sum_irrational, sum_rational, certify
or all.  Each pass runs the workload's invocations one after another (a
closed loop with one caller), each in a fresh interpreter that times its own
import and its console_main call (child.py).  Passes repeat until the next
one would overrun S seconds (at least two).  With --trace 0 every pass is
untraced and the end-to-end metrics are printed; with --trace 1 untraced
and traced passes alternate and the per-layer metrics are printed.  Every
output is checked against an independent oracle on the first pass and
bit for bit against the first pass afterwards.  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import mpmath
import numpy as np

import workloads
from workloads import Invocation, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_PASSES = 2
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "mterm_s": "Mterm/s",
    "peak_rss_mb": "MB",
    "failed_frac": "fraction",
    "bound_rel": "ratio",
}

LAYER_OF = {
    "console_main": "cli",
    "parse_alpha": "cli",
    "approximate": "realsource",
    "expand": "cfrac",
    "q_alpha": "cfrac",
    "classify": "criterion",
    "criterion_partial_sum": "criterion",
    "partial_sum_direct": "sumengine",
    "partial_sum_periodic": "sumengine",
    "scan_partial_sums": "sumengine",
    "drift_predict": "sumengine",
}

PER_LAYER = {
    "cli.self_s": "s",
    "cli.payload_bytes": "bytes",
    "realsource.approximate_calls": "count",
    "realsource.approximate_s": "s",
    "realsource.bits_max": "bits",
    "cfrac.expand_calls": "count",
    "cfrac.expand_s": "s",
    "cfrac.rounds_per_expand": "count",
    "cfrac.convergents": "count",
    "criterion.classify_s": "s",
    "criterion.terms": "count",
    "sumengine.self_s": "s",
    "sumengine.direct_s": "s",
    "sumengine.direct_mterm_s.w1": "Mterm/s",
    "sumengine.direct_mterm_s.w2": "Mterm/s",
    "sumengine.scaling_eff": "ratio",
    "sumengine.scan_mterm_s": "Mterm/s",
    "sumengine.periodic_s": "s",
    "sumengine.periodic_ns_per_term": "ns",
    "trace.coverage_frac": "fraction",
    "trace.overhead_frac": "fraction",
}


# -- running children -------------------------------------------------------------


def _read_json(path: Path) -> Optional[dict]:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


class Runner:
    """Runs invocations as child processes, with files in one temporary dir."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def invoke(self, inv: Invocation, k: int, traced: bool) -> Outcome:
        files = {ext: self.tmp / f"{k}.{ext}" for ext in ("out.json", "manifest.json", "csv", "report.json")}
        for path in files.values():
            path.unlink(missing_ok=True)
        argv = [a.replace("{csv}", str(files["csv"])) for a in inv.argv]
        argv += ["--json", str(files["out.json"]), "--manifest", str(files["manifest.json"])]
        cmd = [sys.executable, str(HERE / "child.py"), str(files["report.json"]), "1" if traced else "0", *argv]
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=self.tmp, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            )
            code, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            code, stderr = -9, f"timed out after {CHILD_TIMEOUT_S} s"
        finished = time.perf_counter()
        report = _read_json(files["report.json"])
        if report is None:
            report = {"code": code, "imported": finished, "start": spawned, "end": finished,
                      "rss_kb": 0, "spans": []}
        elif not report["module"].startswith(str(SRC)):
            raise SystemExit(f"imported dseries from {report['module']}, not from {SRC}")
        csv = files["csv"].read_text(encoding="utf-8") if files["csv"].exists() else None
        return Outcome(
            code=code,
            stderr=stderr,
            payload=_read_json(files["out.json"]),
            manifest=_read_json(files["manifest.json"]),
            csv=csv,
            payload_bytes=files["out.json"].stat().st_size if files["out.json"].exists() else 0,
            setup_s=report["imported"] - spawned,
            call_s=report["end"] - report["start"],
            rss_mb=report["rss_kb"] / 1024.0,
            spans=report["spans"],
        )


def _canonical(out: Outcome) -> str:
    """Deterministic part of an outcome: timing fields are dropped."""

    def strip(x):
        if isinstance(x, dict):
            return {k: strip(v) for k, v in x.items() if k != "duration_s"}
        if isinstance(x, list):
            return [strip(v) for v in x]
        return x

    return json.dumps([out.code, strip(out.payload), out.csv], sort_keys=True)


class Measurement:
    """All passes of one run of one workload."""

    def __init__(self, invs: List[Invocation]):
        self.invs = invs
        self.untraced: List[List[Outcome]] = []
        self.traced: List[List[Outcome]] = []
        self.first: Dict[str, Tuple[str, Optional[str]]] = {}  # name -> (canonical, reason)
        self.reasons: Dict[str, List[Optional[str]]] = defaultdict(list)
        self.measured_s = 0.0

    def run_pass(self, runner: Runner, traced: bool) -> None:
        done: Dict[str, Outcome] = {}
        outs = []
        for k, inv in enumerate(self.invs):
            t0 = time.perf_counter()
            out = runner.invoke(inv, k, traced)
            self.measured_s += time.perf_counter() - t0
            done[inv.name] = out
            outs.append(out)
            self.reasons[inv.name].append(self._check(inv, out, done))
        (self.traced if traced else self.untraced).append(outs)

    def _check(self, inv: Invocation, out: Outcome, done: Dict[str, Outcome]) -> Optional[str]:
        canon = _canonical(out)
        if inv.name in self.first:
            first_canon, first_reason = self.first[inv.name]
            return first_reason if canon == first_canon else "output differs from the first pass"
        try:
            reason = inv.check(out, done)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            reason = f"malformed output: {type(exc).__name__}: {exc}"
        self.first[inv.name] = (canon, reason)
        return reason

    # -- tallies ------------------------------------------------------------------

    @property
    def attempted(self) -> int:
        return sum(len(r) for r in self.reasons.values())

    @property
    def failed(self) -> int:
        return sum(r is not None for rs in self.reasons.values() for r in rs)

    def unexpected(self) -> List[str]:
        """Failures that are not a probe failing for its documented reason."""
        bad = []
        for inv in self.invs:
            for reason in self.reasons[inv.name]:
                if reason is not None and not workloads.defect_matches(inv, reason):
                    bad.append(f"{inv.name}: {reason}")
        return bad

    def _throughput(self, outs: List[Outcome]) -> List[Tuple[Invocation, Outcome]]:
        return [(inv, out) for inv, out in zip(self.invs, outs) if inv.defect is None]

    def wall_s(self, outs: List[Outcome]) -> float:
        return sum(out.call_s for _, out in self._throughput(outs))

    def best_wall_s(self, passes: List[List[Outcome]]) -> float:
        """Sum over invocations of each one's fastest console_main time.

        Co-tenants on a shared host slow single invocations by up to about
        1.8x for seconds at a time; the fastest of several passes is the
        uncontended cost, which a slower program still raises.
        """
        columns = zip(*(self._throughput(outs) for outs in passes))
        return sum(min(out.call_s for _, out in column) for column in columns)

    # -- end-to-end ----------------------------------------------------------------

    def end_to_end(self) -> Dict[str, Tuple[float, int]]:
        """metric -> (value, sample count) over the untraced passes."""
        passes = self.untraced
        first = passes[0]
        ok = [(inv, out) for inv, out in self._throughput(first) if self.first[inv.name][1] is None]
        terms = sum(inv.terms(out) for inv, out in ok)
        bounds = [inv.bound_rel(out) for inv, out in ok if inv.bound_rel is not None]
        wall = self.best_wall_s(passes)
        setups = [out.setup_s for outs in passes for out in outs]
        return {
            "setup_s": (statistics.median(setups), len(setups)),
            "wall_s": (wall, len(passes)),
            "mterm_s": (terms / wall / 1e6, len(passes)),
            "peak_rss_mb": (
                statistics.median(max(o.rss_mb for _, o in self._throughput(outs)) for outs in passes),
                len(passes),
            ),
            "failed_frac": (self.failed / self.attempted, self.attempted),
            "bound_rel": (max(bounds, default=0.0), len(bounds)),
        }

    # -- per layer -----------------------------------------------------------------

    def per_layer(self) -> Tuple[Dict[str, Tuple[float, int]], List[str]]:
        """metric -> (median over traced passes, count), plus absence notes."""
        samples: Dict[str, List[float]] = defaultdict(list)
        absent = set()
        for outs in self.traced:
            values, missing = _layer_pass(self._throughput(outs))
            absent |= missing
            values["trace.coverage_frac"] = sum(
                values[m] for m in ("cli.self_s", "realsource.approximate_s", "cfrac.expand_s",
                                    "criterion.classify_s", "sumengine.self_s")
            ) / self.wall_s(outs)
            for name, v in values.items():
                samples[name].append(v)
        overhead = self.best_wall_s(self.traced) / self.best_wall_s(self.untraced) - 1.0
        samples["trace.overhead_frac"] = [overhead]
        notes = [f"{name}: absent, no invocation of this workload reaches it (reported as 0)"
                 for name in sorted(absent)]
        return {name: (statistics.median(v), len(v)) for name, v in samples.items()}, notes


def _rate(terms: float, seconds: float, scale: float) -> Optional[float]:
    return terms / seconds * scale if seconds > 0 else None


_KERNEL_KEY = {
    "partial_sum_direct": "direct.w{workers}",
    "scan_partial_sums": "scan",
    "partial_sum_periodic": "periodic",
}


def _layer_pass(pairs: List[Tuple[Invocation, Outcome]]) -> Tuple[Dict[str, float], set]:
    """Per-layer numbers of one traced pass from the children's spans.

    A span's self time is its duration minus that of its child spans; layer
    self times therefore partition each console_main span.
    """
    self_by_layer: Dict[str, float] = defaultdict(float)
    self_by_name: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    sums: Dict[str, float] = defaultdict(float)  # work counters and span totals
    bits_max = 0
    for _, out in pairs:
        by_id = {s["id"]: s for s in out.spans}
        child_time: Dict[int, float] = defaultdict(float)
        for s in out.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        for s in out.spans:
            name, dur = s["name"], s["end"] - s["start"]
            own = dur - child_time[s["id"]]
            self_by_layer[LAYER_OF[name]] += own
            self_by_name[name] += own
            calls[name] += 1
            if name == "approximate":
                bits_max = max(bits_max, s["bits"])
                parent = s["parent"]
                while parent is not None and by_id[parent]["name"] != "expand":
                    parent = by_id[parent]["parent"]
                sums["rounds"] += parent is not None
            elif name == "expand":
                sums["convergents"] += s["convergents"]
            elif name == "criterion_partial_sum":
                sums["criterion_terms"] += s["terms"]
            elif name in _KERNEL_KEY:
                key = _KERNEL_KEY[name].format(**s)
                sums[key + ".M"] += s["M"]
                sums[key + ".s"] += dur
    rates = {
        "sumengine.direct_mterm_s.w1": _rate(sums["direct.w1.M"], sums["direct.w1.s"], 1e-6),
        "sumengine.direct_mterm_s.w2": _rate(sums["direct.w2.M"], sums["direct.w2.s"], 1e-6),
        "sumengine.scan_mterm_s": _rate(sums["scan.M"], sums["scan.s"], 1e-6),
        "sumengine.periodic_ns_per_term": _rate(sums["periodic.s"], sums["periodic.M"], 1e9),
        "cfrac.rounds_per_expand": _rate(sums["rounds"], calls["expand"], 1.0),
    }
    w1, w2 = rates["sumengine.direct_mterm_s.w1"], rates["sumengine.direct_mterm_s.w2"]
    rates["sumengine.scaling_eff"] = w2 / (2 * w1) if w1 and w2 else None
    absent = {name for name, v in rates.items() if v is None}
    values = {name: (v if v is not None else 0.0) for name, v in rates.items()}
    values.update({
        "cli.self_s": self_by_layer["cli"],
        "cli.payload_bytes": float(sum(out.payload_bytes for _, out in pairs)),
        "realsource.approximate_calls": float(calls["approximate"]),
        "realsource.approximate_s": self_by_layer["realsource"],
        "realsource.bits_max": float(bits_max),
        "cfrac.expand_calls": float(calls["expand"]),
        "cfrac.expand_s": self_by_layer["cfrac"],
        "cfrac.convergents": sums["convergents"],
        "criterion.classify_s": self_by_layer["criterion"],
        "criterion.terms": sums["criterion_terms"],
        "sumengine.self_s": self_by_layer["sumengine"],
        "sumengine.direct_s": self_by_name["partial_sum_direct"],
        "sumengine.periodic_s": self_by_name["partial_sum_periodic"],
    })
    return values, absent


# -- environment record ---------------------------------------------------------------


def environment(seed: int) -> dict:
    """Seed, machine and versions, recorded with every result."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "dseries").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# -- entry point ---------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool, sizes=workloads.FULL) -> Measurement:
    invs = workloads.build(name, seed, sizes)
    meas = Measurement(invs)
    scratch = ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        runner = Runner(Path(tmp))
        last = 0.0
        while len(meas.untraced) + len(meas.traced) < MIN_PASSES or meas.measured_s + last <= seconds:
            before = meas.measured_s
            traced = trace and len(meas.traced) < len(meas.untraced)
            meas.run_pass(runner, traced)
            last = meas.measured_s - before
    return meas


def report(name: str, meas: Measurement, trace: bool) -> Dict[str, dict]:
    """Print one workload's results; return its metrics for the JSON line."""
    print(f"## workload {name}: {len(meas.untraced)} untraced and {len(meas.traced)} traced passes, "
          f"{meas.measured_s:.1f} s measured")
    print(f"{'invocation':28} {'exit':>4} {'median s':>9}  check (first pass)")
    for k, (inv, out) in enumerate(zip(meas.invs, meas.untraced[0])):
        call_s = statistics.median(outs[k].call_s for outs in meas.untraced)
        kind = "probe " if inv.defect else ""
        reason = meas.first[inv.name][1]
        status = "ok" if reason is None else (
            "known defect: " if workloads.defect_matches(inv, reason) else "FAILED: ") + reason
        print(f"{inv.name:28} {out.code:>4} {call_s:9.4f}  {kind}{status}")
    print("# call_s " + json.dumps({inv.name: [round(outs[k].call_s, 6) for outs in meas.untraced]
                                     for k, inv in enumerate(meas.invs)}))
    if trace:
        values, notes = meas.per_layer()
        units = PER_LAYER
    else:
        values, notes = meas.end_to_end(), []
        units = END_TO_END
    print(f"{'metric':32} {'value':>14} {'unit':9} samples")
    for metric, unit in units.items():
        value, n = values[metric]
        print(f"{metric:32} {value:14.6g} {unit:9} n={n}")
    for note in notes:
        print(f"note: {note}")
    return {metric: {"value": values[metric][0], "unit": unit} for metric, unit in units.items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dseries" / "cli.py").is_file():
        print(f"error: no dseries sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    print("# environment " + json.dumps(environment(args.seed), sort_keys=True))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: Dict[str, dict] = {}
    correct, attempted, failed = True, 0, 0
    for name in names:
        meas = measure(name, args.seed, args.seconds, bool(args.trace))
        got = report(name, meas, bool(args.trace))
        metrics.update({(f"{name}.{k}" if len(names) > 1 else k): v for k, v in got.items()})
        unexpected = meas.unexpected()
        for line in unexpected:
            print(f"unexpected failure: {line}")
        correct = correct and not unexpected
        attempted += meas.attempted
        failed += meas.failed
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
