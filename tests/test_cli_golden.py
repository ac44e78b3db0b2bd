"""Byte-for-byte CLI stdout against a golden file.

Each call runs cli.main in process, with its input on standard input.
The stdout of all calls, each under a header naming its arguments and
followed by its exit code, is compared with tests/golden/cli_stdout.txt.
Regenerate the file only for a change that means to alter the output:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/golden/cli_stdout.txt
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from jetns import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_stdout.txt"

_NS = [
    ["ns", command, "--dim", str(m), "--format", fmt]
    for command in ("check", "show")
    for m in (2, 3, 4)
    for fmt in ("text", "structured")
]

# (arguments, standard input)
CALLS: list[tuple[list[str], str]] = [(args, "") for args in _NS] + [
    (["kernel", "--setting", "ce", "--dim", "2", "--max-order", "1",
      "--max-degree", "1", "--max-x-degree", "1"], ""),
    (["kernel", "--setting", "ce", "--dim", "2", "--max-order", "1",
      "--max-degree", "2", "--max-x-degree", "1", "--format", "structured"], ""),
    (["kernel", "--setting", "cpe", "--dim", "2", "--max-order", "1",
      "--max-degree", "2", "--max-x-degree", "1"], ""),
    (["kernel", "--setting", "cpe", "--dim", "3", "--max-degree", "1",
      "--max-x-degree", "1", "--format", "structured"], ""),
    (["kernel", "--setting", "cpe", "--dim", "2", "--max-order", "1",
      "--max-degree", "2", "--max-x-degree", "1", "--include-t"], ""),
    (["kernel", "--setting", "cpe", "--dim", "3", "--max-order", "1",
      "--max-degree", "2", "--max-x-degree", "2"], ""),
    (["kernel", "--setting", "cpe", "--dim", "4", "--max-order", "1",
      "--max-degree", "2", "--max-x-degree", "1"], ""),
    (["reduce", "--constraints", "ce", "--dim", "3"],
     "u1_[1,0,0]*u1_[2,1,0] - 3/4*u1_[0,1,0]^2*x1 + 5"),
    (["reduce", "--constraints", "cpe", "--dim", "3", "--format", "structured"],
     "1/2*p_[2,0,0]*u2_[1,0,0] + 2/3*p_[3,0,1] - nu*u1_[1,0,0]"),
    (["reduce", "--constraints", "cpe", "--dim", "2"],
     "(p_[2,1] + 1/3*u1_[1,1])^2 - 7/5*t*p_[2,0]"),
    (["tderiv", "--constraints", "cpe", "--dim", "3", "--direction", "1"],
     "1/2*p_[1,0,0]^2 + u1_[0,1,0]*u2_[1,0,0] - 2/7*x1*p_[0,1,1]"),
    (["tderiv", "--constraints", "ce", "--dim", "3", "--index", "[1,1,0]",
      "--format", "structured"],
     "3/2*u1_[0,0,1]*u3_[1,0,0] + x2^2"),
    (["tderiv", "--constraints", "free", "--dim", "2", "--direction", "2"],
     "-5/6*u2_[1,1]*p_[0,1]*x2 + nu"),
    (["tderiv", "--constraints", "free", "--dim", "3", "--index", "[0,2,1]"],
     "2/3*x2^2*u1_[1,0,0]*u3_[0,1,0] - 3/5*x3*p_[0,0,1]^2 + 7/4*x1*u2_[0,0,0]"),
    (["euler", "--dim", "3"],
     "1/2*u1_[1,0,0]^2 + 2/3*p_[0,0,0]*u2_[0,1,0] - x3*u3_[0,0,2]"),
    (["euler", "--dim", "2", "--format", "structured"],
     "-1/4*u1_[0,1]*u2_[1,0]^2 + 3*p_[1,0]*u1_[0,0]"),
    (["helmholtz", "--dim", "3"], "f1: u1_[0,0,0]; f2: u2_[0,0,0]; f3: u3_[0,0,0]"),
    (["helmholtz", "--dim", "2", "--format", "structured"],
     "f1: u1_[1,0]; f: 1/2*p_[0,1]*x1"),
    (["helmholtz", "--dim", "2"], "f1: u1_[1,0]*u2_[0,0]; f2: -2/3*u1_[0,0]^2"),
    (["symmetry", "--constraints", "free", "--dim", "2"], "f1: u2_[0,0]"),
    (["symmetry", "--constraints", "free", "--dim", "2", "--format", "structured"],
     "f1: u2_[1,0]"),
    (["symmetry", "--constraints", "ce", "--dim", "3"],
     "f1: u1_[1,0,0]; f2: u2_[1,0,0]; f3: u3_[1,0,0]"),
    (["symmetry", "--constraints", "ce", "--dim", "3", "--format", "structured"],
     "f1: u2_[0,0,0]"),
    (["symmetry", "--constraints", "cpe", "--dim", "3"],
     "f1: u1_[1,0,0]; f2: u2_[1,0,0]; f3: u3_[1,0,0]; f: p_[1,0,0]"),
    (["symmetry", "--constraints", "cpe", "--dim", "2", "--format", "structured"],
     "f1: u2_[0,0]; f: 3/2*x1"),
    (["symmetry", "--constraints", "cpe", "--dim", "2"], "f1: u2_[0,0]; f: 3/2*x1"),
    (["time-symmetry", "--dim", "2", "--viscosity", "1/100"],
     "f1: u1_[1,0]; f2: u2_[1,0]; f: p_[1,0]"),
    (["time-symmetry", "--dim", "2", "--format", "structured"], "f1: 1"),
    (["time-symmetry", "--dim", "2"], "f1: u1_[0,1]"),
    (["current", "--constraints", "cpe", "--dim", "3"], "j1: u1_[0,0,0]^2"),
    (["current", "--constraints", "cpe", "--dim", "2", "--format", "structured"],
     "j1: u1_[0,0]; j2: u2_[0,0]"),
    (["current", "--constraints", "free", "--dim", "2"], "j1: x2*u1_[0,0]; j2: -x1"),
    (["current", "--constraints", "free", "--dim", "2", "--format", "structured"],
     "j1: x2; j2: x1"),
    (["reduced-system", "--dim", "2"], "chi01: 1"),
    (["reduced-system", "--dim", "3", "--format", "structured"], "chi01: x1; chi0: 1"),
    (["reduced-system", "--dim", "2"], "chi[2,0]: u2_[0,0]; chi1: 1/2; chi0: p_[1,0]"),
    (["reduced-system", "--dim", "4"],
     "chi[2,0]: u2_[0,0,0,0]; chi[3,1]: x2; chi[4,2]: 1/3*u3_[0,1,0,0]; chi1: x3; "
     "chi0: p_[1,0,0,0]; chi01: x1*x4"),
    (["ns", "check", "--dim", "2", "--pressure-part", "-"], "0"),
    (["ns", "check", "--dim", "2", "--pressure-part", "-", "--format", "structured"],
     "2*u1_[1,0]^2"),
    (["ns", "check", "--dim", "3", "--viscosity", "1/2", "--pressure-part", "-"],
     "p_[0,0,0]"),
]


def run_all() -> str:
    """The concatenated stdout of every call, with headers and exit codes."""
    out = io.StringIO()
    stdin = sys.stdin
    try:
        for args, text in CALLS:
            out.write("$ jetns " + " ".join(args) + "\n")
            sys.stdin = io.StringIO(text)
            with contextlib.redirect_stdout(out):
                code = cli.main(args)
            out.write(f"exit {code}\n")
    finally:
        sys.stdin = stdin
    return out.getvalue()


def test_cli_stdout_matches_golden():
    assert run_all() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(run_all())
