"""Record, or check, the committed output corpus of the dseries CLI.

    python tests/make_corpus.py                          # rewrite tests/corpus.json
    python tests/make_corpus.py --check                  # replay it in this process
    python tests/make_corpus.py --check --script dseries # replay it through a command

Run from the repository root with dseries importable (PYTHONPATH=src or an
installed package).  Each entry of tests/corpus.json is one argv, run in a
fresh temporary directory with fixed relative output names (TRACE, JSON), so
that a path echoed into a document is the same on every run.  An entry
records the exit code, the last stderr line and, for stdout and each --json
or --trace file, the SHA-256 of its text, the SHA-256 of its shape (the text
with every float literal masked) and the (value, bound) pairs of a sum or
drift document or a trace.  Manifests hold timings and are not recorded.

The floats depend on the platform: sum bounds go through np.log1p and
np.expm1, a power other than 1 and 1/2 through np.power, and the floats of
classify, drift and liouville through libm.  So the corpus records the
platform it was made on, and a replay on that platform compares digests.
On any other it compares the exit code, the shapes and, under the same
Python minor version (argparse's and the runtime's messages change between
versions), the stderr line with its floats masked; and it checks that each
(value, bound) pair encloses the same true sum as the recorded one, that
is |value - recorded value| <= bound + recorded bound.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional
from unittest import mock

import numpy as np

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.json"
TRACE, JSON = "trace.csv", "out.json"
# argparse wraps its usage and help text to the terminal width
_ENV = {"COLUMNS": "80"}
# a float literal as repr, json and %.17g write it; the look-behind starts a
# match only at the start of a number, so long digit runs cost linear time
_FLOAT = re.compile(r"(?<![\w.])-?(?:\d+(?:\.\d+(?:[eE][-+]?\d+)?|[eE][-+]?\d+)|Infinity|inf\b)|NaN|\bnan\b")

# The README and CI commands, and what they leave out: every source kind
# under every command, and exits 0 to 3.  One argv per line, shell-quoted.
_COMMANDS = """
--help
--version
# README
cf 'surd:(0+1*sqrt(2))/1' --terms 2
classify const:invpi --f pow:1 --cert mahler
sum rat:1/3 --f pow:1 --M 100000
drift 1 2 --f pow:1 --N 10000 --M 990000
liouville --schedule factorial --terms 3
# CI
classify rat:2/7 --f pow:1
cf const:e --terms 1000 --json out.json
cf rat:-355/113 --terms 10 --json out.json
cf 'surd:(3-2*sqrt(7))/5' --terms 200 --json out.json
cf 'cf:[0;2,4,3]' --terms 3 --json out.json
classify liouville:factorial --f pow:1 --budget 100
classify const:invpi --f pow:1 --cert mahler --budget 400
classify 'cf:[1;2,...]' --f pow:1/2
classify const:e --f pow:1 --cert mahler
classify --manifest a.json --manifest b.json
cf rat:355/113 --terms 3 --no-such-flag
classify rat:2/7 --f pow:1 --no-such-flag
sum rat:1/3 --f pow:1 --M 10 --no-such-flag
drift 1 2 --f pow:1 --N 2 --M 10 --no-such-flag
liouville --schedule factorial --terms 3 --no-such-flag
cf const:pi --workers 2
drift 1 2 --f pow:1 --N 2 --M 10 --max-bits 64
liouville --schedule factorial --max-terms 5
classify const:pi --f pow:1 --cert measure:42,1
sum rat:1/1000000000001 --f pow:1 --M 10
sum rat:1/100003 --M 1000000 --f pow:1/2 --mode both
sum rat:5/100002 --N 5 --M 1000000 --f pow:1/2 --mode both
sum rat:12345/1000003 --N 54321 --M 10 --f pow:1/2 --mode both
sum rat:5/1002 --N 5 --M 4000000 --f pow:1/2 --mode both
sum rat:377/1000 --f pow:1/2 --N 1 --M 999999999 --mode periodic
drift 1 1000 --f pow:1/2 --N 2 --M 999999998
sum const:e --f pow:1/3 --N 12345 --M 4000000 --trace trace.csv
sum const:e --f pow:1/2 --M 200000
sum const:e --f pow:1/2 --M 200000 --trace trace.csv
# every source kind and exit code
cf rat:355/113 --terms 12
cf const:pi --terms 40
cf const:pi --terms 400 --max-bits 64
cf const:invpi --terms 30 --json out.json
cf 'surd:(1-2*sqrt(5))/3' --terms 25
cf 'cf:[0;2,1,...]' --terms 8
cf 'cf:[3;7,15,1]' --terms 3
cf 'cf:[5]'
cf liouville:tower100,digits=13,start=2 --terms 5
cf liouville:factorial,base=1/7,digits=31 --terms 6
cf rat:1/0
cf 'surd:(1+1*sqrt(4))/2'
cf nonsense:1
# cf texts: integers past Python's 4300-digit str() limit, a rational cut
# short by --terms, and an all-ones tail whose rows start at quotient 1
cf 'liouville:factorial,base=1/7,digits=31' --terms 200
cf rat:355/113 --terms 2
cf 'cf:[1;1,...]' --terms 2000
classify rat:3/8 --f pow:1/2
classify rat:-3/7 --f pow:1
classify 'surd:(1+1*sqrt(5))/2' --f pow:1/2
classify 'surd:(1-2*sqrt(5))/3' --f pow:1 --cert roth
classify const:pi --f pow:1/2 --budget 40
classify const:e --f pow:1 --budget 60
classify 'cf:[3;7,15,1]' --f pow:1
classify liouville:tower100 --f pow:1/2 --budget 8
classify const:pi --f pow:2
classify const:pi --f exp:1
sum 'cf:[1;2,...]' --f pow:1/2 --M 100000
sum 'cf:[0;2,4]' --f pow:1 --M 10
sum 'cf:[3;7,15,1]' --f pow:1 --M 1000
sum liouville:tower100,digits=13,start=2 --f pow:1 --M 1000
sum const:invpi --f pow:1 --N 1000 --M 100000 --json out.json
sum 'surd:(1-2*sqrt(5))/3' --f pow:3/4 --N 1000 --M 50000
sum rat:3/8 --f pow:1 --M 100000 --mode both --trace trace.csv
sum rat:3/8 --f pow:1 --M 100000 --mode periodic --trace trace.csv
sum const:pi --f pow:1 --M 10 --mode periodic
sum rat:1/3 --f pow:1 --M 10 --max-terms 5
sum rat:1/3 --f pow:1 --N 9007199254740990 --M 10 --max-terms 10000000000000000000
sum const:pi --f pow:1 --M 10 --max-bits 64
drift 3 10 --f pow:1/2 --N 7 --M 100000
drift 1 3 --f pow:1 --N 2 --M 10
drift 1 2 --f pow:1 --N 0 --M 10
drift 1 2 --f pow:1 --N 2 --M 10 --max-terms 5
liouville --schedule tower100 --terms 2
liouville --schedule factorial --terms 4 --digits 13 --base 1/7 --start 2 --p 1
liouville --schedule tower100 --terms 3 --max-bits 64
liouville --schedule factorial --digits 12
"""

# Windows of at least 2^21 terms, so that two or more workers fork; the
# rational one divides a table of signed weights built before the fork.
_FORKING = """
const:e --f pow:1/2 --M 4000000 --trace trace.csv
const:pi --f pow:1 --M 4000000
surd:(3-2*sqrt(7))/5 --f pow:1/2 --N 99999937 --M 4000000
const:e --f pow:1/3 --N 12345 --M 4000000
rat:12345/100003 --f pow:1/2 --N 777 --M 4000000
"""


def invocations() -> List[List[str]]:
    """The argvs of the corpus: the benchmark's workloads at full size for
    seed 1 and at tiny size for seed 2, the commands above, and each forking
    window at --workers 1, 2 and the default."""
    sys.path.insert(0, str(HERE.parent / "bench"))
    import workloads

    argvs = []
    for sizes, seed in ((workloads.FULL, 1), (workloads.TINY, 2)):
        for name in workloads.WORKLOADS:
            argvs += [[TRACE if a == "{csv}" else a for a in inv.argv] for inv in workloads.build(name, seed, sizes)]
    argvs += [shlex.split(ln) for ln in _COMMANDS.splitlines() if ln and not ln.startswith("#")]
    for window in filter(None, _FORKING.splitlines()):
        for workers in (["--workers", "1"], ["--workers", "2"], []):
            argvs.append(["sum", *window.split(), *workers])
    return [a for i, a in enumerate(argvs) if a not in argvs[:i]]


def fingerprint() -> Dict[str, object]:
    """What the floats of a run may depend on: the machine, the C library,
    the Python minor version, numpy's version and its enabled CPU features."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    features = umath.__cpu_baseline__ + umath.__cpu_dispatch__
    return {
        "machine": platform.machine(),
        "libc": " ".join(platform.libc_ver()),
        "python": "%d.%d" % sys.version_info[:2],
        "numpy": np.__version__,
        "cpu_features": [f for f in features if umath.__cpu_features__.get(f)],
    }


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _bounded(text: str) -> List[List[float]]:
    """(value, bound) pairs: each result of a sum document, the measured
    and the predicted value of a drift document, each row of a trace."""
    if text.startswith("M,S,rounding_bound\n"):
        return [[float(v), float(b)] for _, v, b in (ln.split(",") for ln in text.splitlines()[1:])]
    try:
        doc = json.loads(text)
    except ValueError:
        return []
    if not isinstance(doc, dict):
        return []
    pairs = [[r["value"], r["rounding_bound"]] for _, r in sorted(doc.get("results", {}).items())]
    if "measured" in doc:
        pairs.append([doc["measured"]["value"], doc["measured"]["rounding_bound"]])
        pairs.append([doc["predicted"]["value"], doc["predicted"]["error_allowance"]])
    return pairs


def _record(code: int, stdout: str, stderr: str, files: Dict[str, str]) -> dict:
    outputs = {}
    for name, text in {"stdout": stdout, **files}.items():
        out = {"sha256": _digest(text), "shape": _digest(_FLOAT.sub("#", text))}
        pairs = _bounded(text)
        if pairs:
            out["bounded"] = pairs
        outputs[name] = out
    return {"code": code, "stderr": _last_line(stderr), "outputs": outputs}


def _files(argv: List[str], cwd: str) -> Dict[str, str]:
    """The texts of the --json and --trace files that the run wrote."""
    out = {}
    for name in (JSON, TRACE):
        path = os.path.join(cwd, name)
        if name in argv and os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                out[name] = fh.read()
    return out


def run_in_process(argv: List[str]) -> dict:
    """The record of console_main(argv), run in a fresh temporary directory."""
    from dseries.cli import console_main

    cwd, stdout, stderr = os.getcwd(), io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, _ENV):
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = console_main(argv)
            return _record(code, stdout.getvalue(), stderr.getvalue(), _files(argv, tmp))
        finally:
            os.chdir(cwd)


def run_script(script: str, argv: List[str]) -> dict:
    """The record of the command `script argv`, run in a fresh temporary
    directory."""
    with tempfile.TemporaryDirectory() as tmp:
        run = subprocess.run(
            shlex.split(script) + argv, cwd=tmp, capture_output=True, text=True,
            env={**os.environ, **_ENV},
        )
        return _record(run.returncode, run.stdout, run.stderr, _files(argv, tmp))


def compare(recorded: dict, observed: dict, same_platform: bool, same_python: bool) -> List[str]:
    """How an observed record differs from the recorded one."""
    problems = []
    if observed["code"] != recorded["code"]:
        problems.append(f"exit code {observed['code']}, recorded {recorded['code']}")
    if same_platform:
        stderr_differs = observed["stderr"] != recorded["stderr"]
    else:
        stderr_differs = same_python and _FLOAT.sub("#", observed["stderr"]) != _FLOAT.sub("#", recorded["stderr"])
    if stderr_differs:
        problems.append(f"stderr {observed['stderr']!r}, recorded {recorded['stderr']!r}")
    if sorted(observed["outputs"]) != sorted(recorded["outputs"]):
        problems.append(f"outputs {sorted(observed['outputs'])}, recorded {sorted(recorded['outputs'])}")
        return problems
    for name, want in recorded["outputs"].items():
        got = observed["outputs"][name]
        key = "sha256" if same_platform else "shape"
        if got[key] != want[key]:
            problems.append(f"{name}: {key} differs")
            continue
        for (v, b), (v0, b0) in zip(got.get("bounded", []), want.get("bounded", [])):
            if not abs(v - v0) <= b + b0:
                problems.append(f"{name}: value {v!r} (bound {b!r}) misses the recorded {v0!r} (bound {b0!r})")
    return problems


def check(corpus: dict, run) -> List[str]:
    """One line per way in which the replay of an entry by run(argv)
    differs from its record."""
    here = fingerprint()
    same_platform = here == corpus["platform"]
    same_python = here["python"] == corpus["platform"]["python"]
    failures = []
    for entry in corpus["entries"]:
        for problem in compare(entry, run(entry["argv"]), same_platform, same_python):
            failures.append(f"{shlex.join(entry['argv'])}: {problem}")
    return failures


def load() -> dict:
    with open(CORPUS, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="compare with the corpus instead of rewriting it")
    parser.add_argument("--script", help="run each argv through this command instead of in-process")
    args = parser.parse_args(argv)

    def run(a):
        return run_script(args.script, a) if args.script else run_in_process(a)

    if args.check:
        corpus = load()
        failures = check(corpus, run)
        print("\n".join(failures + [f"{len(corpus['entries'])} entries, {len(failures)} differences"]))
        return 1 if failures else 0
    # one entry a line, so that a diff of the file names each moved invocation
    entries = [json.dumps({"argv": a, **run(a)}, sort_keys=True) for a in invocations()]
    with open(CORPUS, "w", encoding="utf-8") as fh:
        fh.write('{\n"platform": %s,\n"entries": [\n%s\n]\n}\n' % (
            json.dumps(fingerprint(), sort_keys=True), ",\n".join(entries),
        ))
    print(f"wrote {len(entries)} entries to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
