"""One benchmark session: a fresh process that imports ellipkint and runs one round.

``run.py`` starts this script once per session and sends the job as JSON on
standard input: the checkout root, the workload, its generated inputs,
whether to trace and the CPU to run on.  The last line of standard output is the session's result:
set-up time, each operation's latency and outputs, peak RSS and, when traced,
per-function aggregates of the recorded spans.  Outputs are checked by
``run.py``, not here.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import os
import sys
import time
from fractions import Fraction

# Public functions traced, by defining module.  Each is wrapped under every
# name an ellipkint module binds it to, so callers that imported it directly
# go through the wrapper too.
TRACED = {
    "cli": ["main"],
    "elliptic": ["ellip_k"],
    "quadrature": ["integral_In_numeric", "tanh_sinh_integrate"],
    "closedform": ["closed_form", "In_exact_real"],
    "specialvalues": ["eval_at_special", "relation"],
    "render": ["render"],
    "verify": [
        "check_structure",
        "check_identity",
        "check_inner_closed_form",
        "check_order_swap",
        "check_derivative_step",
        "audit_published_tables",
        "check_relations",
    ],
}


class Tracer:
    """Spans (name, start, end, parent, result counts) kept in memory."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.absent: list[str] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "ellipkint"]
        for module_name, functions in TRACED.items():
            module = importlib.import_module(f"ellipkint.{module_name}")
            for fn_name in functions:
                original = getattr(module, fn_name, None)
                if not callable(original):
                    self.absent.append(f"{module_name}.{fn_name}")
                    continue
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                counts = (getattr(result, "evaluations", 0), getattr(result, "levels_used", 0))
                spans[index] = (name, start, end, parent, counts)

        return wrapper

    def aggregate(self, first: int, last: int) -> dict:
        """Per-function figures over spans[first:last] (whole call trees).

        ms counts outermost spans of a name only, so recursion is not counted
        twice.  self_ms is a span's time minus the time of descendants in
        other modules (layers), reached through same-module spans.
        """
        spans = self.spans
        layer = [s[0].split(".")[0] for s in spans]
        covered = [0.0] * len(spans)
        for i in range(last - 1, first - 1, -1):
            name, start, end, parent, _ = spans[i]
            if parent >= first:
                share = end - start if layer[i] != layer[parent] else covered[i]
                covered[parent] += share
        ancestors: dict[int, frozenset] = {}
        out: dict[str, dict] = {}
        for i in range(first, last):
            name, start, end, parent, (evaluations, levels) = spans[i]
            above = ancestors.get(parent, frozenset())
            ancestors[i] = above if name in above else above | {name}
            row = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "evaluations": 0, "levels_used": 0})
            row["calls"] += 1
            row["self_ms"] += (end - start - covered[i]) * 1e3
            if name not in above:
                row["ms"] += (end - start) * 1e3
                row["evaluations"] += evaluations
                row["levels_used"] += levels
        return out


def _mpf_json(x) -> list[int]:
    return list(x.man_exp)


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, (time.perf_counter() - start) * 1e3


def run_sweep(specs, session):
    quadrature = importlib.import_module("ellipkint.quadrature")
    precision = importlib.import_module("ellipkint.precision")
    precs = {(d, tol): precision.Precision(abs_tol=tol, dps=d) for d, tol in sorted({(s["dps"], s["abs_tol"]) for s in specs})}
    # lazy set-up: one quadrature per precision, lowest first, fills node
    # tables (and any kernel cache) before timing; the deepest spec reaches
    # every level the round uses
    for prec in precs.values():
        quadrature.integral_In_numeric(quadrature.IntegralSpec(16, Fraction(1, 10)), prec)
    work = [(quadrature.IntegralSpec(s["n"], Fraction(s["z"])), precs[s["dps"], s["abs_tol"]]) for s in specs]
    session.begin()
    ops = []
    for spec, prec in work:
        try:
            r, ms = _timed(quadrature.integral_In_numeric, spec, prec)
        except Exception as exc:  # a failed operation is counted, not fatal
            ops.append({"error": repr(exc)})
            continue
        ops.append(
            {
                "ms": ms,
                "value": _mpf_json(r.value),
                "error_estimate": float(r.error_estimate),
                "converged": bool(r.converged),
            }
        )
    return ops


def run_tables(inputs, session):
    specialvalues = importlib.import_module("ellipkint.specialvalues")
    render = importlib.import_module("ellipkint.render")
    catalog = specialvalues.CATALOG
    session.begin()
    ops = []

    def value_op(n, label):
        v = specialvalues.eval_at_special(n, catalog[label])
        return v, render.render(v, "text"), render.render(v, "latex"), render.render(v, "json")

    for n in range(inputs["max_n"] + 1):
        for label in inputs["points"]:
            try:
                (v, text, latex, js), ms = _timed(value_op, n, label)
                roundtrip = render.exact_value_from_json(json.loads(json.dumps(js))) == v
            except Exception as exc:
                ops.append({"error": repr(exc)})
                continue
            ops.append({"ms": ms, "text": text, "latex": latex, "json": js, "roundtrip": roundtrip})
    for n, m in inputs["pairs"]:
        try:
            (P, Q), ms = _timed(specialvalues.relation, n, m)
        except Exception as exc:
            ops.append({"error": repr(exc)})
            continue
        ops.append({"ms": ms, "P": str(P), "Q": str(Q)})
    return ops


def run_verify(argv, session):
    cli = importlib.import_module("ellipkint.cli")
    out = io.StringIO()
    session.begin()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        return [{"error": repr(exc)}]
    ms = (time.perf_counter() - start) * 1e3
    try:
        reports = json.loads(out.getvalue())
    except ValueError:
        reports = None
    return [{"ms": ms, "exit_code": code, "reports": reports}]


RUNNERS = {"sweep": run_sweep, "tables": run_tables, "verify": run_verify}


def peak_rss_mb() -> float:
    """This process's peak resident set since exec (VmHWM).

    getrusage's ru_maxrss would also carry the peak of the parent it was
    forked from, which here is the benchmark's own reference computation.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


class Session:
    """Set-up clock and the span index where the timed round begins."""

    def __init__(self, tracer, start: float):
        self.tracer = tracer
        self.start = start
        self.setup_s = None
        self.mark = 0

    def begin(self) -> None:
        self.setup_s = time.perf_counter() - self.start
        self.mark = len(self.tracer.spans) if self.tracer else 0


def main() -> int:
    job = json.load(sys.stdin)
    if job.get("cpu") is not None:
        os.sched_setaffinity(0, {job["cpu"]})
    start = time.perf_counter()
    sys.path.insert(0, job["src"])
    importlib.import_module("ellipkint.cli")  # the whole package
    import_s = time.perf_counter() - start
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    session = Session(tracer, start)
    ops = RUNNERS[job["workload"]](job["inputs"], session)
    result = {
        "import_s": import_s,
        "setup_s": session.setup_s,
        "ops": ops,
        "rss_mb": peak_rss_mb(),
    }
    if tracer:
        spans = tracer.spans
        first = next((s for s in spans if s[0] == "quadrature.integral_In_numeric"), None)
        result["trace"] = tracer.aggregate(session.mark, len(spans))
        result["first_call_ms"] = (first[2] - first[1]) * 1e3 if first else 0.0
        result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
