import io
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from jetns import cli, constraints, jetalgebra
from jetns.multiindex import MultiIndex

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, stdin="", timeout=None, preexec_fn=None):
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
        preexec_fn=preexec_fn,
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


def test_an_exponent_viscosity_is_usage_error(capsys):
    # Fraction("1e-300000") builds 10**300000 before any check, and the
    # report then failed on Python's digit limit; exponent notation is
    # refused before the text is read
    start = time.perf_counter()
    code = cli.main(["ns", "check", "--dim", "2", "--viscosity", "1e-300000"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: viscosity 1e-300000 uses exponent notation; give a rational like 1/100\n"
    assert elapsed < 1


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


# Runs each call of CREATION_ORDER_CALLS through cli.main, after interning the
# variables given as JSON in argv[1] in that order; prints one JSON object with
# each call's stdout and every interned variable, in rank order.
_CREATION_ORDER_CHILD = """
import contextlib, io, json, sys
from jetns import cli
from jetns.jetalgebra import JetVariable, _VARIABLES
from jetns.multiindex import MultiIndex

for kind, mu, entries in json.loads(sys.argv[1]):
    JetVariable(kind, mu, None if entries is None else MultiIndex(tuple(entries)))
outputs = []
for args, stdin in json.loads(sys.argv[2]):
    sys.stdin = io.StringIO(stdin)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(args)
    outputs.append([code, out.getvalue()])
variables = [[v.kind, v.mu, v.index and list(v.index.entries)] for v in _VARIABLES]
print(json.dumps({"outputs": outputs, "variables": variables}))
"""

CREATION_ORDER_CALLS = [
    (["kernel", "--setting", "cpe", "--dim", "2", "--max-order", "1",
      "--max-degree", "2", "--max-x-degree", "1"], ""),
    (["ns", "check", "--dim", "3"], ""),
    (["reduce", "--constraints", "cpe", "-"],
     "p_[2,0,0]*x2 - 3/2*u1_[1,0,0]^2*p_[0,1,0] + x1*u2_[0,1,1]*u3_[1,0,0] + nu*p_[3,1,0]^2 - t"),
    (["reduce", "--constraints", "cpe", "--format", "structured", "-"],
     "u1_[2,0,0]*x3^2 - p_[1,1,0]*u1_[0,0,1] + 1/3*x2*x1*p_[2,0,0]"),
]


def test_output_does_not_depend_on_creation_order():
    # a monomial stores the ranks of its variables, and ranks follow the
    # order variables are first created; no printed order may follow them
    def child(first):
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _CREATION_ORDER_CHILD, json.dumps(first),
             json.dumps(CREATION_ORDER_CALLS)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    normal = child([])
    touched = [v for v in normal["variables"] if v[0] not in ("nu", "t")]  # interned on import
    sort_key = lambda v: jetalgebra.JetVariable(
        v[0], v[1], None if v[2] is None else MultiIndex(tuple(v[2]))
    ).sort_key()
    reverse = sorted(touched, key=sort_key, reverse=True)
    reordered = child(reverse)
    assert reordered["variables"][2:len(reverse) + 2] == reverse
    assert touched != reverse and len(touched) > 50
    assert all(code == 0 for code, _ in normal["outputs"])
    assert [out.encode() for _, out in reordered["outputs"]] == [
        out.encode() for _, out in normal["outputs"]
    ]


def test_structured_reduce():
    proc = run_cli("reduce", "--constraints", "ce", "--format", "structured", stdin="u1_[1,0,0]")
    record = json.loads(proc.stdout)
    assert record["result"] == [
        {"den": 1, "factors": [["u2_[0,1,0]", 1]], "num": -1},
        {"den": 1, "factors": [["u3_[0,0,1]", 1]], "num": -1},
    ]


@pytest.mark.parametrize(
    "text, bound",
    [("x1^99999999999999999999999",
      "a power of degree 99999999999999999999999 exceeds the degree bound 10000"),
     ("(2^100000)^100000", "a power's coefficients need more than the bound of 1000000 bits"),
     ("(2^100000*x1)^10000", "a power's coefficients need more than the bound of 1000000 bits")],
    ids=["degree", "constant", "one-term"],
)
def test_an_oversized_power_exits_two_quickly(text, bound):
    # the first printed its exponent and exited 0 while a monomial held
    # (variable, exponent) pairs, and would build a tuple of that length
    # now; the second squared a 100,001-bit integer without end, and the
    # third, one term of small degree, would do the same to its
    # coefficient.  All are refused before any product.  The child's address space is capped, so
    # a guard that let either through fails fast instead of filling memory
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    start = time.monotonic()
    proc = run_cli("reduce", "-", stdin=text, timeout=20, preexec_fn=cap_memory)
    elapsed = time.monotonic() - start
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {bound}\n")
    assert elapsed < 1.0


def _decimal(n: int) -> str:
    """str(n), whatever this interpreter's limit on int-string conversion."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(n)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "text, value",
    [("2^20000", 2**20000), ("7" * 5000, 7 * (10**5000 - 1) // 9)],
    ids=["power", "literal"],
)
def test_a_long_integer_reads_and_prints_in_full(text, value):
    # CPython converts at most 4300 digits between int and str by default;
    # both exited 2 with its conversion-limit text, the first when printed
    # and the second when read
    start = time.monotonic()
    proc = run_cli("reduce", "-", stdin=text, timeout=20)
    elapsed = time.monotonic() - start
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, _decimal(value) + "\n", "")
    assert elapsed < 1.0


def test_a_literal_past_the_digit_bound_exits_two_quickly():
    # one digit more than 2^1,000,000 has, the largest coefficient a power
    # may build; refused by the tokenizer before int() reads it
    text = "1" + "0" * 301_030
    start = time.monotonic()
    proc = run_cli("reduce", "-", stdin=text, timeout=20)
    elapsed = time.monotonic() - start
    bound = "a numeric literal of 301031 digits exceeds the bound of 301030 digits at 0..301031"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"parse error: {bound}\n")
    assert elapsed < 1.0


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-string limit")
def test_only_the_cli_lifts_the_int_string_limit():
    child = (
        "import io, sys\n"
        "before = sys.get_int_max_str_digits()\n"
        "import jetns, jetns.cli\n"
        "imported = sys.get_int_max_str_digits()\n"
        "sys.stdin = io.StringIO('1')\n"
        "code = jetns.cli.main(['reduce', '-'])\n"
        "print(code, before, imported, sys.get_int_max_str_digits())\n"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True,
        env={**env, "PYTHONPATH": path}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n0 4300 4300 301030\n"


def test_the_degree_bound_refuses_parsed_input(monkeypatch, capsys):
    monkeypatch.setattr(jetalgebra, "MAX_DEGREE", 6)
    monkeypatch.setattr(sys, "stdin", io.StringIO("x1*x2^5"))
    assert cli.main(["reduce", "-"]) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO("(x1*x2)^4"))
    assert cli.main(["reduce", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == "x1*x2^5\n"
    assert err == "error: a power of degree 8 exceeds the degree bound 6\n"


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
