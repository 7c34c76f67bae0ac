import hashlib
import json

import pytest

from ellipkint.cli import main


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


def test_env_tolerance_not_a_number(monkeypatch, capsys):
    monkeypatch.setenv("ELLIPKINT_TOL", "abc")
    code, _, err = run(capsys, "eval", "--n", "0", "--z", "1")
    assert code == 2
    assert err.startswith("error: ") and "ELLIPKINT_TOL" in err


def test_out_file_unwritable(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "eval", "--n", "0", "--z", "1", "--out", str(target))
    assert code == 2
    assert out == "" and err.startswith("error: ")


# sha256 of the whole stdout, pinned from the output before the text and
# LaTeX renderers were merged into one
TABLE_DIGESTS = {
    "text": "cb9087f8f1ace09d92e77289fe6cb318d65a3dc5b850e7dff5c5ee4c34ab33e9",
    "latex": "ecf0048ee8e7e7922d0535bb598d4097a67fa92e539a8c550c1f0cd33b34a98e",
    "json": "b09739e255ae3b10521c84f11c613c5cc846f224d818b1b3fdaf2bfd1fd95980",
}


@pytest.mark.parametrize("fmt", sorted(TABLE_DIGESTS))
def test_table_golden_digest(capsys, fmt):
    code, out, _ = run(
        capsys,
        "table",
        "--max-n",
        "12",
        "--points",
        "1,3,1/3,cot2-pi-10,cot2-pi-12",
        "--format",
        fmt,
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_DIGESTS[fmt]
