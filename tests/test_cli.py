import contextlib
import hashlib
import io
import json
import os
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellipkint import DEFAULT_PRECISION, cli
from ellipkint.cli import MAX_N, main
from ellipkint.specialvalues import CATALOG
from ellipkint.verify import SuiteResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_both(capsys):
    code, out, _ = run(capsys, "eval", "--n", "0", "--z", "1", "--method", "both")
    assert code == 0
    assert "numeric" in out and "exact" in out and "difference" in out
    lines = {
        key.strip(): value.strip()
        for key, value in (
            line.split(" = ") for line in out.splitlines() if " = " in line
        )
    }
    assert abs(float(lines["numeric"]) - 0.5553603672697958) < 1e-12
    assert float(lines["difference"]) <= 1e-10


def test_eval_exact_rational_z(capsys):
    code, out, _ = run(capsys, "eval", "--n", "0", "--z", "1/3", "--method", "exact")
    assert code == 0
    assert "1.570796326794896" in out  # pi/2


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "--n", "1", "--z", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 1 and payload["z"] == "3"
    assert float(payload["difference"]) <= 1e-10


def test_eval_rejects_negative_z(capsys):
    code, _, err = run(capsys, "eval", "--n", "1", "--z", "-4")
    assert code == 2
    assert "positive" in err


def test_eval_rejects_garbage_z(capsys):
    code, _, _ = run(capsys, "eval", "--n", "1", "--z", "abc")
    assert code == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--n", "0"])  # missing --z
    assert exc.value.code == 2


def test_identity_cot_point(capsys):
    code, out, _ = run(capsys, "identity", "--n", "0", "--point", "cot2-pi-10")
    assert code == 0
    assert out.strip() == "I_0(5+2*sqrt(5)) = pi/(10*sqrt(50+22*sqrt(5)))"


def test_identity_latex(capsys):
    code, out, _ = run(
        capsys, "identity", "--n", "1", "--point", "3", "--format", "latex"
    )
    assert code == 0
    assert "\\frac{1}{72}+\\frac{7\\pi}{432\\sqrt{3}}" in out


def test_identity_unknown_point(capsys):
    code, _, err = run(capsys, "identity", "--n", "0", "--point", "cot2-pi-7")
    assert code == 2
    assert "unknown special point" in err


def test_identity_high_order_shape(capsys):
    code, out, _ = run(capsys, "identity", "--n", "5", "--point", "1")
    assert code == 0
    # a/sqrt(2) + b*pi/sqrt(2) with rationals in lowest terms
    assert out.count("sqrt(2)") == 2 and "pi" in out


def test_table_reproduces_z1_block(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "3", "--points", "1")
    assert code == 0
    assert out.splitlines() == [
        "I_0(1) = pi/(4*sqrt(2))",
        "I_1(1) = 1/(6*sqrt(2)) + pi/(8*sqrt(2))",
        "I_2(1) = 1/(6*sqrt(2)) + 19*pi/(240*sqrt(2))",
        "I_3(1) = 121/(840*sqrt(2)) + 9*pi/(160*sqrt(2))",
    ]


def test_table_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "table", "--max-n", "1", "--points", "1,3", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    assert {"n", "point", "value"} <= set(rows[0])


def test_relation(capsys):
    code, out, _ = run(capsys, "relation", "--n", "1", "--m", "0")
    assert code == 0
    assert out.strip() == "P = -1/2, Q = -1/6"


def test_relation_json(capsys):
    code, out, _ = run(capsys, "relation", "--n", "2", "--m", "0", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 2, "m": 0, "P": "-19/60", "Q": "-1/6"}


def test_out_file(tmp_path, capsys):
    target = tmp_path / "value.txt"
    code, out, _ = run(
        capsys, "identity", "--n", "0", "--point", "1", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().strip() == "I_0(1) = pi/(4*sqrt(2))"


def test_env_tolerance(monkeypatch, capsys):
    monkeypatch.setenv("ELLIPKINT_TOL", "1e-6")
    code, _, _ = run(capsys, "eval", "--n", "0", "--z", "2", "--method", "numeric")
    assert code == 0


@pytest.mark.parametrize(
    "env,argv,suite_tol,abs_tol",
    [
        (None, [], 1e-10, 1e-12),
        ("1e-6", [], 1e-6, 1e-6),
        (None, ["--tol", "1e-6"], 1e-6, 1e-6),
        ("1e-8", ["--tol", "1e-6"], 1e-6, 1e-6),
    ],
)
def test_verify_tolerance_from_env_or_flag(monkeypatch, capsys, env, argv, suite_tol, abs_tol):
    seen = []
    def fake_run_suite(tol=1e-10, prec=DEFAULT_PRECISION):
        seen.append((tol, prec))
        return SuiteResult()

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    if env is None:
        monkeypatch.delenv("ELLIPKINT_TOL", raising=False)
    else:
        monkeypatch.setenv("ELLIPKINT_TOL", env)
    code, _, _ = run(capsys, "verify", *argv)
    assert code == 0
    ((tol, prec),) = seen
    assert tol == suite_tol
    assert prec.abs_tol == abs_tol


def test_env_tolerance_not_a_number(monkeypatch, capsys):
    monkeypatch.setenv("ELLIPKINT_TOL", "abc")
    code, _, err = run(capsys, "eval", "--n", "0", "--z", "1")
    assert code == 2
    assert err.startswith("error: ") and "ELLIPKINT_TOL" in err


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1e-12"])
def test_env_tolerance_not_positive_finite(monkeypatch, capsys, value):
    monkeypatch.setenv("ELLIPKINT_TOL", value)
    code, out, err = run(capsys, "eval", "--n", "0", "--z", "1", "--method", "numeric")
    assert code == 2
    assert out == "" and err.startswith("error: ") and "abs_tol" in err


@pytest.mark.parametrize("command", [["eval", "--n", "0", "--z", "1"], ["verify"]])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_tol_flag_not_finite(capsys, command, value):
    code, out, err = run(capsys, *command, "--tol", value)
    assert code == 2
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("command", [["eval", "--n", "0", "--z", "1"], ["verify"]])
@pytest.mark.parametrize("value", ["0", "-1e-12", "-inf"])
def test_tol_flag_not_positive(capsys, command, value):
    # "--tol=-1e-12": argparse reads a separate "-1e-12" as a flag
    code, out, err = run(capsys, *command, f"--tol={value}")
    assert code == 2
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("value", ["abc", "inf", "nan", "0", "-1e-12"])
def test_verify_rejects_a_bad_env_tolerance_before_any_check(monkeypatch, capsys, value):
    # a usage error (exit 2), not a suite that runs and fails (exit 3)
    def no_suite(*args, **kwargs):
        raise AssertionError("the suite ran before the tolerance was checked")

    monkeypatch.setattr(cli, "run_suite", no_suite)
    monkeypatch.setenv("ELLIPKINT_TOL", value)
    code, out, err = run(capsys, "verify")
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_order_cap_fails_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "identity", "--n", "1500", "--point", "1")
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out == "" and err.startswith("error: ") and str(MAX_N) in err


def test_tolerance_below_one_ulp_fails_fast(capsys):
    # I_3(1e-12) is about 5e41, so at 50 digits one ulp of the sum is far
    # above abs_tol=1e-12; the quadrature stops instead of running every level
    start = time.perf_counter()
    code, out, err = run(
        capsys, "eval", "--n", "3", "--z", "1/1000000000000", "--method", "numeric"
    )
    assert time.perf_counter() - start < 2
    assert code == 3
    assert out == "" and err.startswith("numeric failure: ")


@pytest.mark.parametrize(
    "z",
    ["1e-5000", "1e999999999", "1" * 1001 + "/3", "7" * 5000],
    ids=["tiny-exponent", "huge-exponent", "long-numerator", "long-integer"],
)
def test_z_too_large_to_hold(capsys, z):
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--n", "0", "--z", z, "--method", "exact")
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--n", str(MAX_N + 1), "--z", "1"],
        ["table", "--max-n", str(MAX_N + 1), "--points", "1"],
        ["relation", "--n", "0", "--m", str(MAX_N + 1)],
        ["relation", "--n", str(MAX_N + 1), "--m", "0"],
        ["identity", "--n", "-1", "--point", "1"],
        ["eval", "--n", "-1", "--z", "1"],
        ["identity", "--n", str(MAX_N + 1), "--point", "1"],
        ["table", "--max-n", "-1", "--points", "1"],
        ["relation", "--n", "-1", "--m", "0"],
        ["relation", "--n", "0", "--m", "-1"],
    ],
)
def test_order_outside_range(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_out_file_unwritable(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "eval", "--n", "0", "--z", "1", "--out", str(target))
    assert code == 2
    assert out == "" and err.startswith("error: ")


# sha256 of the whole stdout, keyed by (max_n, format).  The n <= 12 digests
# are pinned from the output before the text and LaTeX renderers were merged
# into one, the n <= 100 digests from the output before polynomials at special
# points were evaluated over integers.
TABLE_DIGESTS = {
    (12, "text"): "cb9087f8f1ace09d92e77289fe6cb318d65a3dc5b850e7dff5c5ee4c34ab33e9",
    (12, "latex"): "ecf0048ee8e7e7922d0535bb598d4097a67fa92e539a8c550c1f0cd33b34a98e",
    (12, "json"): "b09739e255ae3b10521c84f11c613c5cc846f224d818b1b3fdaf2bfd1fd95980",
    (100, "text"): "850c9c3caa4c70390683c31e2383c9bdc09d90c4bd000a54fb56d3d43b4183a3",
    (100, "json"): "3b2df51515fd06a80defc0daa7d76ef3b1d01bdd6a499130028c4ac07ce5a012",
}


@pytest.mark.parametrize(
    "max_n, fmt",
    sorted(TABLE_DIGESTS),
    ids=[fmt if max_n == 12 else f"{fmt}-{max_n}" for max_n, fmt in sorted(TABLE_DIGESTS)],
)
def test_table_golden_digest(capsys, max_n, fmt):
    code, out, _ = run(
        capsys,
        "table",
        "--max-n",
        str(max_n),
        "--points",
        "1,3,1/3,cot2-pi-10,cot2-pi-12",
        "--format",
        fmt,
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_DIGESTS[max_n, fmt]


# -- fuzzing the exit-code contract --------------------------------------------
# n stays small (plus a few values past the cap), z at least 1/10 unless it is
# refused on parsing, and tolerances at or above 1e-30, so no generated
# quadrature needs all of its refinement levels.

ORDERS = st.one_of(
    st.integers(0, 8), st.sampled_from([-1, MAX_N + 1, 1500, 10**6])
).map(str)
Z_TEXTS = st.one_of(
    st.builds("{}/{}".format, st.integers(1, 50), st.integers(1, 10)),
    st.builds("{}e{}".format, st.integers(1, 9), st.integers(0, 1200)),
    st.sampled_from(["1", "0.25", "3.5", "0", "-2", "1/0", "", "abc", "inf", "nan"]),
    st.sampled_from(["1e-5000", "1e999999999", "1" * 1001 + "/3", "7" * 5000]),
)
TOL_TEXTS = st.one_of(
    st.floats(1e-30, 1e-1).map(repr),
    st.sampled_from(["0", "-1e-12", "1e-400", "inf", "-inf", "nan", "abc"]),
)


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(["eval", "identity", "table", "relation"]))
    argv = [command]
    if command == "eval":
        argv += ["--n", draw(ORDERS), "--z", draw(Z_TEXTS)]
        argv += ["--method", draw(st.sampled_from(["numeric", "exact", "both"]))]
        tol = draw(st.none() | TOL_TEXTS)
        if tol is not None:
            argv += ["--tol", tol]
    elif command == "identity":
        argv += ["--n", draw(ORDERS), "--point", draw(st.sampled_from([*CATALOG, "2"]))]
    elif command == "table":
        argv += ["--max-n", draw(ORDERS)]
        argv += ["--points", draw(st.sampled_from(["1", "3,1/3", "cot2-pi-12", "", "2"]))]
    else:
        argv += ["--n", draw(ORDERS), "--m", draw(ORDERS)]
    argv += ["--format", draw(st.sampled_from(["text", "json", "latex"]))]
    return argv, draw(st.none() | TOL_TEXTS)


@contextlib.contextmanager
def env_tolerance(value):
    saved = os.environ.pop("ELLIPKINT_TOL", None)
    if value is not None:
        os.environ["ELLIPKINT_TOL"] = value
    try:
        yield
    finally:
        os.environ.pop("ELLIPKINT_TOL", None)
        if saved is not None:
            os.environ["ELLIPKINT_TOL"] = saved


@given(invocations())
def test_exit_code_contract_fuzz(case):
    argv, env_tol = case
    err = io.StringIO()
    with env_tolerance(env_tol), contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects malformed arguments
                code = exc.code
    assert code in (0, 2, 3)
    if code != 0:
        assert "error: " in err.getvalue() or "numeric failure: " in err.getvalue()
