"""Run one dseries invocation in this fresh interpreter and report on it.

    python3 child.py REPORT TRACE ARG...

Times `import dseries.cli` and the call to `dseries.cli.console_main(ARGS)`,
the console-script entry point, then writes a JSON report to REPORT: exit
code, perf_counter stamps (CLOCK_MONOTONIC, comparable with the parent's),
peak RSS and, with TRACE=1, spans recorded by wrapping the program's public
functions from outside.  An exception escaping console_main ends the process
with status 1 and a traceback, as it would for the installed console script.
"""

import inspect
import json
import resource
import sys
import threading
import time
import traceback

# An address-space cap turns a runaway allocation into MemoryError at once,
# whatever the host's overcommit policy; normal runs peak near 0.6 GiB.
_ADDRESS_SPACE = 4 << 30

# (module, owner attribute or None, function, attributes recorded from the
# bound arguments and the result).  Callers look these names up at call
# time, so wrapping the module attribute also captures nested calls.
_TRACED = [
    ("cli", None, "console_main", lambda a, r: {}),
    ("cli", None, "parse_alpha", lambda a, r: {}),
    ("realsource", "RealSource", "approximate", lambda a, r: {"bits": a["bits"]}),
    ("cfrac", None, "expand", lambda a, r: {"count": a["count"], "convergents": len(r.convergents)}),
    ("cfrac", None, "q_alpha", lambda a, r: {}),
    ("criterion", None, "classify", lambda a, r: {"evidence": len(r.evidence)}),
    ("criterion", None, "criterion_partial_sum", lambda a, r: {"terms": len(r.terms)}),
    ("sumengine", None, "partial_sum_direct", lambda a, r: {"M": a["M"], "workers": a["workers"]}),
    ("sumengine", None, "partial_sum_periodic", lambda a, r: {"M": a["M"]}),
    ("sumengine", None, "scan_partial_sums", lambda a, r: {"M": a["M"]}),
    ("sumengine", None, "drift_predict", lambda a, r: {"M": a["M"]}),
]


def install_tracing(package, spans: list) -> None:
    """Wrap each traced function; spans are kept in memory in `spans`."""
    lock = threading.Lock()
    local = threading.local()

    def wrap(owner, name, record):
        fn = getattr(owner, name)
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            with lock:
                sid = len(spans)
                spans.append(None)
            span = {"id": sid, "name": name, "parent": stack[-1] if stack else None}
            stack.append(sid)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                spans[sid] = span
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.update(record(bound.arguments, result))
            return result

        setattr(owner, name, traced)

    for module, owner, name, record in _TRACED:
        target = getattr(package, module)
        wrap(getattr(target, owner) if owner else target, name, record)


def main() -> int:
    report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE, _ADDRESS_SPACE))
    import dseries
    import dseries.cli

    imported = time.perf_counter()
    spans: list = []
    if trace:
        install_tracing(dseries, spans)
    start = time.perf_counter()
    try:
        code = dseries.cli.console_main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    end = time.perf_counter()
    report = {
        "code": code,
        "module": dseries.__file__,
        "imported": imported,
        "start": start,
        "end": end,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": [s for s in spans if s is not None],
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
