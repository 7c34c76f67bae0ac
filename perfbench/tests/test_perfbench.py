"""The benchmark's own tests: each workload at a tiny size, and planted wrong answers.

Run from the repository root with

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
from mpmath import mpf

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"sweep": {"n_max": 2, "z_bins": 2}, "tables": {"max_n": 3}, "verify": {}}


def _sessions(name: str, seed: int = 5, trace: bool = False):
    workload = run.WORKLOADS[name](seed, TINY[name])
    workload.prepare()
    return workload, run.run_sessions(workload, name, 0, trace)


def test_reference_is_independent_and_matches_the_paper():
    reference.validate(reference.Reference())
    code = "import sys; import reference, run, workloads; print('ellipkint' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_inputs_follow_the_seed():
    assert workloads.sweep_inputs(3, 16, 4) == workloads.sweep_inputs(3, 16, 4)
    assert workloads.sweep_inputs(3, 16, 4) != workloads.sweep_inputs(4, 16, 4)
    specs = workloads.sweep_inputs(3, 16, 4)
    assert len(specs) == 17 * 4 + 17 * 2
    assert sum(s["dps"] == 60 for s in specs) == 34
    pairs = workloads.tables_inputs(3, 100)["pairs"]
    assert sorted(pairs) == [[n, 100 - n] for n in range(101)]
    assert pairs != workloads.tables_inputs(4, 100)["pairs"]


def test_sweep_checks_catch_a_value_off_by_ten_tolerances():
    workload, sessions = _sessions("sweep")
    assert run.check_sessions(workload, sessions) == (len(workload), 0, [])
    planted = copy.deepcopy(sessions)
    op = planted[0]["ops"][0]
    with mpmath.workdps(100):
        op["value"] = list((mpf(tuple(op["value"])) + 10 * workload.inputs[0]["abs_tol"]).man_exp)
    attempted, failed, wrong = run.check_sessions(workload, planted)
    assert (attempted, failed, len(wrong)) == (len(workload), 1, 1)


def test_tables_checks_catch_the_printed_i2_3_surd():
    workload, sessions = _sessions("tables")
    assert run.check_sessions(workload, sessions) == (len(workload), 0, [])
    i = workload.ops.index(("value", 2, "3"))
    printed = {"a": "11/2880", "b": "0/1", "d": 1}
    radicand_2 = {"radicand": {"a": "2/1", "b": "0/1", "d": 1}, "scale": "1/1"}
    for change in (
        {"text": "1/180 + 11*pi/(2880*sqrt(2))"},
        {"json": {"pi": {"coeff": printed, "surd": radicand_2}, "alg": sessions[0]["ops"][i]["json"]["alg"]}},
    ):
        planted = copy.deepcopy(sessions)
        planted[0]["ops"][i].update(change)
        attempted, failed, wrong = run.check_sessions(workload, planted)
        assert failed == 1 and len(wrong) == 1, change


def test_relation_check_catches_a_wrong_pair():
    workload, sessions = _sessions("tables")
    i = next(j for j, op in enumerate(workload.ops) if op[0] == "relation")
    planted = copy.deepcopy(sessions)
    planted[0]["ops"][i]["Q"] = str(Fraction(planted[0]["ops"][i]["Q"]) + 1)
    assert run.check_sessions(workload, planted)[1] == 1


def test_verify_checks_catch_a_failed_or_missing_mismatch():
    workload, sessions = _sessions("verify")
    assert run.check_sessions(workload, sessions) == (1, 0, [])
    verdict = sessions[0]["ops"][0]
    mismatch = next(r for r in verdict["reports"] if "MISMATCH" in r["name"])
    for plant in (
        lambda v: v.update(exit_code=3),
        lambda v: v["reports"][0].update(passed=False),
        lambda v: v["reports"].remove(next(r for r in v["reports"] if r["name"] == mismatch["name"])),
    ):
        planted = copy.deepcopy(sessions)
        plant(planted[0]["ops"][0])
        assert run.check_sessions(workload, planted)[1] == 1


def test_end_to_end_metrics_are_all_reported():
    result = run.run_benchmark("tables", 5, 0, False, TINY["tables"])
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0


def test_traced_run_reports_every_layer_with_repeatable_counts():
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = []
    for _ in range(2):
        result = run.run_benchmark("sweep", 5, 0, True, TINY["sweep"])
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
        counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["quadrature.integral_In_numeric.calls"] == len(workloads.sweep_inputs(5, **TINY["sweep"]))
    assert counts[0]["elliptic.ellip_k.calls"] == counts[0]["quadrature.evaluations"] > 0


def test_a_function_missing_from_the_program_is_reported_absent():
    code = (
        "import sys; sys.path.insert(0, 'src'); sys.path.insert(0, 'perfbench')\n"
        "import ellipkint.cli, worker\n"
        "worker.TRACED['elliptic'].append('removed_by_refactor')\n"
        "t = worker.Tracer(); t.install()\n"
        "import ellipkint.quadrature as q\n"
        "q.integral_In_numeric(q.IntegralSpec(0, 1))\n"
        "agg = t.aggregate(0, len(t.spans))\n"
        "print(t.absent, agg['quadrature.integral_In_numeric']['calls'], agg['elliptic.ellip_k']['calls'] > 0)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['elliptic.removed_by_refactor'] 1 True"


def test_run_fails_without_the_program():
    bare = BENCH / ".cache" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns(".cache", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
