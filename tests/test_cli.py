import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from jetns import cli, constraints

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, stdin="", timeout=None):
    # the child interpreter finds the package from the source tree, so the
    # suite runs without installing it or setting PYTHONPATH
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "jetns.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
    )


@pytest.mark.parametrize(
    "args, stdin",
    [
        (["reduced-system", "--constraints", "ce"], "chi01: 1"),
        (["time-symmetry", "--constraints", "ce"], "f1: 1"),
        (["euler", "--viscosity", "1/2"], "u1_[0,0,0]^2"),
        (["helmholtz", "--constraints", "cpe"], "f1: u1_[0,0,0]; f2: u2_[0,0,0]; f3: u3_[0,0,0]"),
        (["ns", "check", "--constraints", "ce"], ""),
        (["kernel", "--constraints", "ce"], ""),
        (["ns", "show", "--pressure-part", "x"], ""),
    ],
    ids=["reduced-system", "time-symmetry", "euler", "helmholtz", "ns-check", "kernel", "ns-show"],
)
def test_flag_a_command_does_not_read_is_usage_error(args, stdin, monkeypatch, capsys):
    # each input is valid for the command, so only the flag can make it exit 2
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: " + args[-2] in captured.err


def test_reduce_ce_substitution():
    proc = run_cli("reduce", "--constraints", "ce", stdin="u1_[1,0,0]")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "-u2_[0,1,0] - u3_[0,0,1]"


def test_reduce_zero():
    proc = run_cli("reduce", stdin="0")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0"


def test_malformed_input_is_usage_error():
    proc = run_cli("reduce", stdin="u1_[1,0,0] +")
    assert proc.returncode == 2
    assert "parse error" in proc.stderr


@pytest.mark.parametrize(
    "text, span", [("x1^²", "3..4"), ("x٣", "1..2")], ids=["superscript", "arabic-indic"]
)
def test_non_ascii_digit_is_a_parse_error(text, span, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert cli.main(["reduce"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: unexpected character {text[-1]!r} at {span}\n"


def test_reduce_from_file(tmp_path: Path):
    path = tmp_path / "expr.txt"
    path.write_text("p_[2,0,0] + p_[0,2,0] + p_[0,0,2]\n")
    proc = run_cli("reduce", "--constraints", "cpe", str(path))
    assert proc.returncode == 0
    # the first-direction second derivative is eliminated, leaving the
    # negated quadratic source
    assert "p_[" not in proc.stdout.split("u", 1)[0] or proc.stdout.startswith("-")


def test_tderiv_direction():
    proc = run_cli("tderiv", "--constraints", "free", "--direction", "2", stdin="u3_[0,0,0]")
    assert proc.stdout.strip() == "u3_[0,1,0]"


def test_tderiv_multi_index():
    proc = run_cli("tderiv", "--constraints", "free", "--index", "[1,1,0]", stdin="u1_[0,0,0]")
    assert proc.stdout.strip() == "u1_[1,1,0]"


@pytest.mark.parametrize("index", ["[1,0]", "[1,0,0,0]", "[-1,0,0]", "1,0,0"])
def test_tderiv_bad_index_is_parse_error(index, monkeypatch, capsys):
    # the index is read by the grammar's index rule: exactly --dim bracketed
    # entries; [1,0] at --dim 3 once printed u2_[1,0,0] and exited 0
    monkeypatch.setattr(sys, "stdin", io.StringIO("u2_[0,0,0]"))
    assert cli.main(["tderiv", "--dim", "3", "--index", index]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"parse error: .* at \d+\.\.\d+\n", captured.err)


def test_symmetry_rejects_a_padded_component_name():
    # f01 once passed validation and was then dropped, so f1 = 0 passed
    proc = run_cli("symmetry", "--constraints", "free", "-", stdin="f01: x1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "unknown component 'f01'" in proc.stderr


@pytest.mark.parametrize("dim", ["0", "-2"])
def test_tuple_command_below_dimension_one_is_usage_error(dim, monkeypatch, capsys):
    # --dim -2 once ended in an IndexError traceback with exit 1, and
    # --dim 0 printed helmholtz: 0 and exited 0
    monkeypatch.setattr(sys, "stdin", io.StringIO("f: 1"))
    assert cli.main(["helmholtz", "--dim", dim, "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: dimension {dim} is below 1\n"


def test_euler_command():
    proc = run_cli("euler", stdin="p_[0,0,0]*u1_[1,0,0] + p_[0,0,0]*u2_[0,1,0] + p_[0,0,0]*u3_[0,0,1]")
    assert proc.returncode == 0
    assert proc.stdout.strip() == (
        "f1: -p_[1,0,0]; f2: -p_[0,1,0]; f3: -p_[0,0,1]; "
        "f: u1_[1,0,0] + u2_[0,1,0] + u3_[0,0,1]"
    )


def test_helmholtz_pass_and_fail():
    proc = run_cli("helmholtz", stdin="f1: u1_[0,0,0]; f2: u2_[0,0,0]; f3: u3_[0,0,0]")
    assert proc.returncode == 0
    proc = run_cli("helmholtz", stdin="f1: u1_[1,0,0]")
    assert proc.returncode == 1
    assert "coefficient[1,1,[1,0,0]]: 2" in proc.stdout


def test_symmetry_translation_exit_zero():
    proc = run_cli(
        "symmetry",
        "--constraints",
        "cpe",
        stdin="f1: u1_[1,0,0]; f2: u2_[1,0,0]; f3: u3_[1,0,0]; f: p_[1,0,0]",
    )
    assert proc.returncode == 0
    assert "divergence: 0" in proc.stdout
    assert "pressure_poisson: 0" in proc.stdout


def test_symmetry_violation_exit_one():
    proc = run_cli("symmetry", "--constraints", "cpe", stdin="f1: u2_[0,0,0]")
    assert proc.returncode == 1


def test_current_check():
    proc = run_cli(
        "current", "--constraints", "ce", stdin="j1: u1_[0,0,0]; j2: u2_[0,0,0]; j3: u3_[0,0,0]"
    )
    assert proc.returncode == 0
    proc = run_cli("current", "--constraints", "cpe", stdin="j1: u1_[0,0,0]^2")
    assert proc.returncode == 1


def test_reduced_system_constant_tuple():
    proc = run_cli("reduced-system", stdin="chi01: 1")
    assert proc.returncode == 0


def test_time_symmetry_of_evolution_against_itself(tmp_path: Path):
    # the evolution characteristic with zero pressure part commutes with
    # itself in the velocity components but not in the pressure one
    proc = run_cli("time-symmetry", "--evolution", "ns", stdin="f1: 0")
    assert proc.returncode in (0, 1)


_EVOLUTION = "f1: x2*u1_[0,1,0]; f2: u2_[0,0,1]; f3: u3_[0,1,0]; f: p_[0,1,0] + x1"
_EVOLUTION_TEXT = [
    "velocity[1]: x1*u2_[0,0,1] - x1*x2*u2_[0,1,0]",
    "velocity[2]: 0",
    "velocity[3]: 0",
    "pressure: -p_[0,0,0] + x1*x2",
]
_EVOLUTION_STRUCTURED = [
    '{"checked": true, "name": "velocity[1]", "residual": [{"den": 1, "factors": [["x1", 1], '
    '["u2_[0,0,1]", 1]], "num": 1}, {"den": 1, "factors": [["x1", 1], ["x2", 1], '
    '["u2_[0,1,0]", 1]], "num": -1}], "zero": false}',
    '{"checked": true, "name": "velocity[2]", "residual": [], "zero": true}',
    '{"checked": true, "name": "velocity[3]", "residual": [], "zero": true}',
    '{"checked": true, "name": "pressure", "residual": [{"den": 1, "factors": [["p_[0,0,0]", 1]], '
    '"num": -1}, {"den": 1, "factors": [["x1", 1], ["x2", 1]], "num": 1}], "zero": false}',
]


@pytest.mark.parametrize(
    "fmt, expected",
    [("text", _EVOLUTION_TEXT), ("structured", _EVOLUTION_STRUCTURED)],
)
def test_time_symmetry_against_an_evolution_file(fmt, expected, tmp_path: Path, monkeypatch, capsys):
    # --evolution FILE reads the evolution characteristic and reduces it in the
    # joint setting; the outputs are those of the tuple code before it was
    # keyed by label
    path = tmp_path / "evolution.txt"
    path.write_text(_EVOLUTION)
    f = "f1: x1*u2_[0,0,0]; f2: u2_[0,1,0]; f3: x3; f: x2*p_[0,0,0]"
    monkeypatch.setattr(sys, "stdin", io.StringIO(f))
    assert cli.main(["time-symmetry", "--evolution", str(path), "--format", fmt, "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == expected
    assert captured.err == ""


def test_kernel_ce_constants():
    proc = run_cli("kernel", "--setting", "ce", "--max-order", "0", "--max-degree", "0")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["chi01: 1", "count: 1"]


def test_kernel_cpe_contains_constant():
    proc = run_cli("kernel", "--setting", "cpe", "--max-order", "0", "--max-degree", "0")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert "chi01: 1" in lines
    assert lines[-1] == "count: 1"


def test_kernel_cpe_basis_is_golden():
    proc = run_cli(
        "kernel", "--setting", "cpe", "--dim", "2",
        "--max-order", "2", "--max-degree", "2", "--max-x-degree", "1",
    )
    assert proc.returncode == 0
    assert proc.stdout == (Path(__file__).parent / "golden" / "kernel_cpe_m2.txt").read_text()


def test_kernel_cap_zero_errors():
    proc = run_cli("kernel", "--setting", "ce", "--max-unknowns", "0")
    assert proc.returncode == 2
    assert "unknown coefficients" in proc.stderr


def test_ns_check_passes():
    proc = run_cli("ns", "check")
    assert proc.returncode == 0
    assert "velocity_divergence: 0" in proc.stdout
    assert "divergence_identity_free: 0" in proc.stdout
    assert "(informational)" in proc.stdout


def test_a_second_call_rebuilds_no_context(monkeypatch, capsys):
    # contexts are interned per (setting, m), so only the first call in a
    # process may build Phi; every later one reuses that context
    calls = []
    build = constraints.phi_expr
    monkeypatch.setattr(constraints, "phi_expr", lambda m: calls.append(m) or build(m))
    assert cli.main(["ns", "check", "--dim", "3"]) == 0
    first = capsys.readouterr()
    calls.clear()
    assert cli.main(["ns", "check", "--dim", "3"]) == 0
    assert calls == []
    assert capsys.readouterr() == first


@pytest.mark.parametrize(
    "args, stdin",
    [(["ns", "check"], ""), (["ns", "show"], ""), (["time-symmetry", "-"], "f1: u1_[0,1,0]")],
    ids=["ns-check", "ns-show", "time-symmetry"],
)
def test_a_zero_denominator_viscosity_is_usage_error(args, stdin):
    # Fraction("1/0") raised ZeroDivisionError, which ended in a traceback
    # and exit 1, the code of a nonzero residual
    proc = run_cli(*args, "--viscosity", "1/0", stdin=stdin)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: viscosity 1/0 has a zero denominator\n"


def test_ns_check_structured_records():
    proc = run_cli("ns", "check", "--format", "structured")
    assert proc.returncode == 0
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    by_name = {r["name"]: r for r in records}
    assert by_name["velocity_divergence"]["zero"] is True
    assert by_name["pressure_poisson"]["checked"] is False


def test_ns_show_lists_presets():
    proc = run_cli("ns", "show")
    assert proc.returncode == 0
    assert proc.stdout.startswith("E1: ")
    assert "Phi: " in proc.stdout


def test_determinism():
    a = run_cli("ns", "check")
    b = run_cli("ns", "check")
    assert a.stdout == b.stdout
    a = run_cli("kernel", "--setting", "cpe", "--max-order", "1", "--max-degree", "1")
    b = run_cli("kernel", "--setting", "cpe", "--max-order", "1", "--max-degree", "1")
    assert a.stdout == b.stdout


def test_output_does_not_depend_on_hash_seed(monkeypatch):
    # jet variables hash by identity, so set orders change from run to run;
    # no printed order may follow them
    calls = [
        ("kernel", "--setting", "cpe", "--dim", "2", "--max-order", "1",
         "--max-degree", "2", "--max-x-degree", "1"),
        ("ns", "check", "--dim", "3"),
    ]
    for args in calls:
        outputs = []
        for seed in ("1", "2"):
            monkeypatch.setenv("PYTHONHASHSEED", seed)
            proc = run_cli(*args)
            assert proc.returncode == 0
            outputs.append(proc.stdout.encode())
        assert outputs[0] == outputs[1]


def test_structured_reduce():
    proc = run_cli("reduce", "--constraints", "ce", "--format", "structured", stdin="u1_[1,0,0]")
    record = json.loads(proc.stdout)
    assert record["result"] == [
        {"den": 1, "factors": [["u2_[0,1,0]", 1]], "num": -1},
        {"den": 1, "factors": [["u3_[0,0,1]", 1]], "num": -1},
    ]


def test_oversized_product_exits_two_quickly():
    # the 40th power has 135,751 terms; without the product guard the
    # reduction ran for more than a minute
    start = time.monotonic()
    proc = run_cli(
        "reduce", "--constraints", "cpe", "-",
        stdin="(x1+x2+x3+u2_[0,1,0]+p_[0,0,0])^40",
        timeout=10,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 2
    assert "term pairs exceeds the limit" in proc.stderr
    assert proc.stdout == ""
    assert elapsed < 1.0
