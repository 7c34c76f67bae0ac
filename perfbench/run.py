"""Benchmark of the ellipkint library and CLI.

    python3 perfbench/run.py --workload sweep|tables|verify --seed N --seconds S --trace 0|1

Each workload is a closed loop with one caller: one operation at a time, the
next when the last returns.  The loop runs in sessions, each a fresh
``worker.py`` process that imports the program from ``src/`` of this
checkout, does its set-up and one whole round of operations, so every run
attempts whole rounds and starts its set-up cold.  Sessions follow one
another until ``--seconds`` of session time has passed.  Every output is then
checked against the independent mpmath reference (``reference.py``) or a
property the method must have (``workloads.py``).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``; the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
See README.md for what each metric means and which layer moves it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath
from mpmath import mpf

import reference
import workloads
from worker import TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SESSION_TIMEOUT_S = 150


class Sweep:
    """integral_In_numeric on a stratified, seeded pool of (n, z) specs."""

    def __init__(self, seed: int, size: dict):
        self.seed = seed
        self.inputs = workloads.sweep_inputs(seed, **size)
        self.ref = None

    def prepare(self) -> None:
        self.ref = reference.sweep_reference(self.seed, self.inputs)

    def __len__(self) -> int:
        return len(self.inputs)

    def check(self, i: int, out: dict) -> str | None:
        return workloads.check_sweep(self.inputs[i], out, self.ref[i])

    def estimate_over_error(self, ops: list[dict]) -> float:
        """Median of error_estimate / |value - reference| over the round."""
        ratios = []
        with mpmath.workdps(100):
            for out, ref in zip(ops, self.ref):
                err = abs(mpf(tuple(out["value"])) - ref) if "value" in out else 0
                if err:
                    ratios.append(out["error_estimate"] / float(err))
        return statistics.median(ratios) if ratios else 0.0


class Tables:
    """Exact values at the five special points, n ascending, then relations at z = 1."""

    def __init__(self, seed: int, size: dict):
        self.inputs = workloads.tables_inputs(seed, **size)
        points = self.inputs["points"]
        self.ops = [("value", n, label) for n in range(self.inputs["max_n"] + 1) for label in points]
        self.ops += [("relation", n, m) for n, m in self.inputs["pairs"]]
        self.ref = None

    def prepare(self) -> None:
        self.ref = reference.tables_reference(self.inputs["points"], self.inputs["max_n"])

    def __len__(self) -> int:
        return len(self.ops)

    def check(self, i: int, out: dict) -> str | None:
        kind, n, other = self.ops[i]
        if kind == "value":
            return workloads.check_table_value(n, other, out, self.ref[other][n])
        return workloads.check_relation(out, self.ref["1"][n], self.ref["1"][other])


class Verify:
    """Full verdicts of `ellipkint verify --format json`, one per fresh process.

    Its input is fixed: the seed changes nothing.
    """

    def __init__(self, seed: int, size: dict):
        self.inputs = workloads.VERIFY_ARGV

    def prepare(self) -> None:
        pass

    def __len__(self) -> int:
        return 1

    def check(self, i: int, out: dict) -> str | None:
        return workloads.check_verdict(out)


WORKLOADS = {"sweep": Sweep, "tables": Tables, "verify": Verify}
SIZES = {"sweep": workloads.SWEEP_SIZE, "tables": workloads.TABLES_SIZE, "verify": {}}


def run_session(name: str, inputs, traced: bool, cpu: int | None = None) -> dict:
    """One worker process, pinned to `cpu` if given: set-up plus one round; returns its JSON result."""
    job = {"src": str(ROOT / "src"), "workload": name, "inputs": inputs, "trace": traced, "cpu": cpu}
    env = {k: v for k, v in os.environ.items() if k != "ELLIPKINT_TOL"}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        timeout=SESSION_TIMEOUT_S,
        env=env,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name} session exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def session_cpus() -> list:
    """The CPUs sessions take in turn; [None] (no pinning) where affinity is unsupported."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [None]


def run_sessions(workload, name: str, seconds: float, trace: bool) -> list[dict]:
    """Sessions until `seconds` have passed; a traced run alternates traced and plain.

    Sessions go to the CPUs in turn, two at a time, so a run samples every
    CPU alike and a traced session shares its CPU with the plain one after it.
    """
    cpus = session_cpus()
    sessions: list[dict] = []
    elapsed = 0.0
    while not sessions or elapsed < seconds or (trace and len(sessions) % 2):
        traced = trace and len(sessions) % 2 == 0
        cpu = cpus[len(sessions) // 2 % len(cpus)]
        start = time.perf_counter()
        session = run_session(name, workload.inputs, traced, cpu)
        elapsed += time.perf_counter() - start
        if len(session["ops"]) != len(workload):
            raise RuntimeError(f"{name} session returned {len(session['ops'])} of {len(workload)} operations")
        session["traced"] = traced
        sessions.append(session)
    return sessions


def check_sessions(workload, sessions: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, wrong answers): errors and wrong answers both count as failed."""
    verdicts: dict[tuple, str | None] = {}
    attempted = failed = 0
    wrong = []
    for session in sessions:
        for i, out in enumerate(session["ops"]):
            attempted += 1
            if "error" in out:
                failed += 1
                continue
            key = (i, json.dumps({k: v for k, v in out.items() if k != "ms"}, sort_keys=True))
            if key not in verdicts:
                verdicts[key] = workload.check(i, out)
            if verdicts[key] is not None:
                failed += 1
                wrong.append(f"operation {i}: {verdicts[key]}")
    return attempted, failed, wrong


def op_latencies(sessions: list[dict]) -> list[float]:
    """Each operation's mean latency over the run's sessions.

    Every session repeats the same round, so the mean weighs every moment
    of the run, on every CPU, alike.  This machine's speed drifts over
    minutes and differs between its CPUs; on recorded sessions the mean
    spread less from run to run than the median did (see README.md).
    """
    per_op = []
    for ops in zip(*(s["ops"] for s in sessions)):
        ms = [op["ms"] for op in ops if "ms" in op]
        if ms:
            per_op.append(statistics.fmean(ms))
    return per_op


def end_to_end(sessions: list[dict]) -> dict:
    ms = op_latencies(sessions)
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in sessions), "s"),
        "ops_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0], "ms"),
        "peak_rss_mb": (statistics.median(s["rss_mb"] for s in sessions), "MB"),
    }


def per_layer(workload, sessions: list[dict]) -> dict:
    traced = [s for s in sessions if s["traced"]]
    plain = [s for s in sessions if not s["traced"]]

    def fig(name: str, field: str) -> float:
        return statistics.median(s["trace"].get(name, {}).get(field, 0) for s in traced)

    def round_ms(group):
        return statistics.median(sum(op.get("ms", 0) for op in s["ops"]) for s in group)

    out = {
        "cli.import_ms": (statistics.median(s["import_s"] for s in sessions) * 1e3, "ms"),
        "cli.main.ms": (fig("cli.main", "ms"), "ms"),
        "elliptic.ellip_k.calls": (fig("elliptic.ellip_k", "calls"), "count"),
        "elliptic.ellip_k.ms": (fig("elliptic.ellip_k", "ms"), "ms"),
        "quadrature.integral_In_numeric.calls": (fig("quadrature.integral_In_numeric", "calls"), "count"),
        "quadrature.integral_In_numeric.self_ms": (fig("quadrature.integral_In_numeric", "self_ms"), "ms"),
        "quadrature.evaluations": (fig("quadrature.integral_In_numeric", "evaluations"), "count"),
        "quadrature.levels_used": (fig("quadrature.integral_In_numeric", "levels_used"), "count"),
        "quadrature.estimate_over_error": (
            workload.estimate_over_error(sessions[0]["ops"]) if isinstance(workload, Sweep) else 0.0,
            "ratio",
        ),
        "quadrature.first_call_ms": (statistics.median(s["first_call_ms"] for s in traced), "ms"),
        "quadrature.tanh_sinh_integrate.ms": (fig("quadrature.tanh_sinh_integrate", "ms"), "ms"),
        "closedform.closed_form.ms": (fig("closedform.closed_form", "ms"), "ms"),
        "closedform.In_exact_real.calls": (fig("closedform.In_exact_real", "calls"), "count"),
        "closedform.In_exact_real.ms": (fig("closedform.In_exact_real", "ms"), "ms"),
        "specialvalues.eval_at_special.calls": (fig("specialvalues.eval_at_special", "calls"), "count"),
        "specialvalues.eval_at_special.self_ms": (fig("specialvalues.eval_at_special", "self_ms"), "ms"),
        "specialvalues.relation.ms": (fig("specialvalues.relation", "ms"), "ms"),
        "render.render.calls": (fig("render.render", "calls"), "count"),
        "render.render.ms": (fig("render.render", "ms"), "ms"),
    }
    for check in TRACED["verify"]:
        out[f"verify.{check}.ms"] = (fig(f"verify.{check}", "ms"), "ms")
    out["trace.overhead_pct"] = ((round_ms(traced) / round_ms(plain) - 1) * 100, "%")
    return out


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, size: dict | None = None) -> dict:
    workload = WORKLOADS[name](seed, SIZES[name] if size is None else size)
    workload.prepare()  # reference values, before and outside the timed sessions
    sessions = run_sessions(workload, name, seconds, trace)
    attempted, failed, wrong = check_sessions(workload, sessions)
    for line in wrong[:10]:
        print(f"wrong answer: {line}", file=sys.stderr)
    absent = sorted({f for s in sessions for f in s.get("absent", [])})
    if absent:
        print(f"absent from the program, reported as 0: {', '.join(absent)}")
    metrics = per_layer(workload, sessions) if trace else end_to_end(sessions)
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ellipkint benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the session
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "ellipkint" / "__init__.py").is_file():
        print(f"error: no ellipkint package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
