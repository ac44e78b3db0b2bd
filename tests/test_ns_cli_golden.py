"""Byte-for-byte output of the flow-system commands against a golden file.

`ns check`, `ns show` and `time-symmetry` with the built-in evolution run
in process at m = 2, 3, 4, with symbolic viscosity and with 1/100, with
and without a pressure part where the command takes one, in both formats.
Each call's stdout, stderr and exit code are written under a header naming
its arguments; PRESSURE in a header stands for a file holding the pressure
part.  Every call runs twice in a row, and the second run, which finds the
flow system already built, must print the same record as the first.
Regenerate the file only for a change that means to alter the output:

    PYTHONPATH=src python tests/test_ns_cli_golden.py > tests/golden/ns_cli.txt
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from jetns import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "ns_cli.txt"


def _index(m: int, direction: int = 0) -> str:
    return "[" + ",".join("1" if k == direction else "0" for k in range(1, m + 1)) + "]"


def _pressure(m: int) -> str:
    return f"p_{_index(m)} + 1/2*u2_{_index(m, 1)}^2 - x1"


def _characteristic(m: int) -> str:
    """A shift along the second direction plus a term that is no symmetry."""
    parts = [f"f{mu}: u{mu}_{_index(m, 2)}" for mu in range(1, m + 1)]
    return "; ".join(parts + [f"f: p_{_index(m, 2)} + x1*u2_{_index(m)}"])


def calls() -> list[tuple[list[str], str]]:
    """(arguments, standard input) of every call, PRESSURE for the pressure file."""
    out = []
    for m in (2, 3, 4):
        for viscosity in ([], ["--viscosity", "1/100"]):
            for fmt in ("text", "structured"):
                common = ["--dim", str(m), *viscosity, "--format", fmt]
                for pressure in ([], ["--pressure-part", "PRESSURE"]):
                    out.append((["ns", "check", *common, *pressure], ""))
                    out.append(
                        (["time-symmetry", *common, *pressure, "-"], _characteristic(m))
                    )
                out.append((["ns", "show", *common], ""))
    return out


def _run(args: list[str], stdin: str, pressure_dir: Path) -> str:
    """The record of one in-process call: header, stdout, stderr and exit code."""
    out, err = io.StringIO(), io.StringIO()
    m = int(args[args.index("--dim") + 1])
    path = pressure_dir / f"pressure_{m}.txt"
    path.write_text(_pressure(m), encoding="utf-8")
    argv = [str(path) if a == "PRESSURE" else a for a in args]
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return (
        "$ jetns " + " ".join(args) + "\n"
        + out.getvalue()
        + "-- stderr\n" + err.getvalue()
        + f"exit {code}\n"
    )


def run_all(repeat: int = 1) -> list[str]:
    """The record of every call, each call run repeat times in a row."""
    with tempfile.TemporaryDirectory() as tmp:
        return [_run(args, stdin, Path(tmp)) for args, stdin in calls() for _ in range(repeat)]


def test_ns_commands_match_golden():
    records = run_all(repeat=2)
    assert records[0::2] == records[1::2]
    assert "".join(records[0::2]) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write("".join(run_all()))
