import contextlib
import hashlib
import io
import json
import os
import random
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


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_eval_difference_has_three_significant_digits(capsys, fmt):
    code, out, _ = run(capsys, "eval", "--n", "8", "--z", "1/10", "--format", fmt)
    assert code == 0
    if fmt == "json":
        difference = json.loads(out)["difference"]
    else:
        (difference,) = [line.split(" = ")[1] for line in out.splitlines() if "difference" in line]
    assert difference == "1.45e-33"


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


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["table", "--max-n", "3", "--points", "1"], ["identity", "--n", "0", "--point", "1"]],
    ids=["verify", "table", "identity"],
)
def test_unwritable_out_fails_before_any_work(monkeypatch, tmp_path, capsys, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("the output was computed before --out was opened")

    monkeypatch.setattr(cli, "run_suite", no_work)
    monkeypatch.setattr(cli, "eval_at_special", no_work)
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == "" and err == f"error: cannot write {target}: No such file or directory\n"


# sha256 of the whole stdout, keyed by (max_n, format).  The n <= 12 digests
# are pinned from the output before the text and LaTeX renderers were merged
# into one, the n <= 100 text and JSON digests from the output before
# polynomials at special points were evaluated over integers, and the n <= 100
# LaTeX digest from the output before render split each coefficient once.
TABLE_DIGESTS = {
    (12, "text"): "cb9087f8f1ace09d92e77289fe6cb318d65a3dc5b850e7dff5c5ee4c34ab33e9",
    (12, "latex"): "ecf0048ee8e7e7922d0535bb598d4097a67fa92e539a8c550c1f0cd33b34a98e",
    (12, "json"): "b09739e255ae3b10521c84f11c613c5cc846f224d818b1b3fdaf2bfd1fd95980",
    (100, "text"): "850c9c3caa4c70390683c31e2383c9bdc09d90c4bd000a54fb56d3d43b4183a3",
    (100, "json"): "3b2df51515fd06a80defc0daa7d76ef3b1d01bdd6a499130028c4ac07ce5a012",
    (100, "latex"): "2e17a5ea02780f059196c75b5c85ffa138279fe522012345b13675ac1a55ceea",
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


def invoke(argv, env_tol=None) -> tuple[int, str]:
    """main(argv) with ELLIPKINT_TOL set to env_tol (unset for None): its exit code and stderr."""
    err = io.StringIO()
    with env_tolerance(env_tol), contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects malformed arguments
                code = exc.code
    return code, err.getvalue()


@given(invocations())
def test_exit_code_contract_fuzz(case):
    code, err = invoke(*case)
    assert code in (0, 2, 3)
    if code != 0:
        assert "error: " in err or "numeric failure: " in err


# -- a seeded sweep of argument vectors ----------------------------------------
# Every vector keeps the exit-code contract with a short message: exit 0, 2 or
# 3, no traceback and at most 200 characters on stderr, whatever it echoes.

BAD_NUMBERS = [
    "", "abc", "nan", "inf", "-inf", "0", "-0", "-1", "1/0", "0x10", "1e", "1.5.2", "½",
    "1e999", "-1e999", "1e-999", "-1e-999", "1e1001", "1e999999999",
    "7" * 4000, "-" + "7" * 4000, "7" * 5000, "1/" + "3" * 1200, "x" * 1000,
]  # fmt: skip

# one valid invocation per command; each vector changes some of its flags
VALID = {
    "eval": {"--n": "0", "--z": "1", "--method": "exact"},
    "identity": {"--n": "0", "--point": "1"},
    "table": {"--max-n": "2", "--points": "1"},
    "relation": {"--n": "2", "--m": "0"},
    "verify": {},
}
INDEX_FLAGS = [("eval", "--n"), ("identity", "--n"), ("table", "--max-n"), ("relation", "--n"), ("relation", "--m")]


def vector(command, changes=()):
    """argv for `command`: its VALID flags, with `changes` ({flag: value}) applied.

    Each is one "--flag=value" word, so argparse reads "-1e999" as a value.
    """
    flags = {**VALID[command], **dict(changes)}
    return [command, *(f"{flag}={value}" for flag, value in flags.items())]


def sweep_vectors(tmp_path) -> list:
    """(argv, ELLIPKINT_TOL or None) pairs: every rule at its edges, then seeded mixtures."""
    rng = random.Random(20211)
    edges = ["0", str(MAX_N), str(MAX_N + 1)]
    cases = [
        vector(command, {flag: value})
        for command, flag in INDEX_FLAGS
        for value in edges + rng.sample(BAD_NUMBERS, 4)
    ]
    cases += [
        vector("eval", {"--z": z, "--method": method})
        for z in BAD_NUMBERS
        for method in ("numeric", "exact", "both")
    ]
    cases += [vector("eval", {"--tol": tol}) for tol in BAD_NUMBERS]
    cases += [vector(command, {"--format": fmt}) for command in VALID for fmt in ("text", "latex", "json", "x" * 300)]
    cases += [vector("identity", {"--point": point}) for point in ("2", "x" * 1000)]
    cases += [vector("table", {"--points": points}) for points in ("", ",", "1,2", "1," + "y" * 1000)]
    # unwritable: a missing directory, a directory, a name too long for the file system
    cases += [vector(command, {"--out": str(tmp_path / "missing" / "x")}) for command in VALID]
    cases += [vector("eval", {"--out": out}) for out in (str(tmp_path), str(tmp_path / ("o" * 1000)))]
    cases = [(argv, None) for argv in cases]
    cases += [(vector(rng.choice(["eval", "verify"])), tol) for tol in BAD_NUMBERS]
    # MAX_N itself only in the edge rows above: a mixture such as table --max-n
    # 500 over several points would take seconds
    values = ["0", "3", str(MAX_N + 1), *BAD_NUMBERS]
    for _ in range(40):
        command = rng.choice(sorted(VALID))
        changes = {flag: rng.choice(values) for flag in VALID[command] if rng.random() < 0.5}
        cases.append((vector(command, changes), rng.choice([None, None, "1e-6", *BAD_NUMBERS])))
    return cases


def test_cli_argument_sweep(tmp_path):
    start = time.perf_counter()
    codes = set()
    for argv, env_tol in sweep_vectors(tmp_path):
        code, err = invoke(argv, env_tol)
        codes.add(code)
        assert code in (0, 2, 3), (argv, env_tol)
        assert "Traceback" not in err and len(err) <= 200, (err, argv, env_tol)
    assert codes == {0, 2, 3}
    assert time.perf_counter() - start < 3


@pytest.mark.parametrize("z, code", [("1e-999", 3), ("-1e999", 2)])
def test_a_thousand_digit_z_is_clipped_in_the_message(capsys, z, code):
    # both messages used to carry z's 1000 digits whole
    status, _, err = run(capsys, "eval", "--n", "0", f"--z={z}")
    assert status == code
    assert len(err) <= 200 and "characters)" in err
