"""jetns benchmark: one seeded workload, measured in fresh worker processes.

    python3 bench/run.py --workload reduce-laws --seed 1 --seconds 20 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}: with --trace 0
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
ones.  The line before it holds the run's metadata, and both are written
to .bench_out/.  Exit code 2 when the program (src/jetns) is missing.

Set-up is timed in several fresh processes and reported as their median.
The measured run is one more worker process under a hard wall limit; when
the limit passes, the worker is killed and its unfinished ops count as
failed.  Times are wall times scaled by the worker's speed factor (see
bench/worker.py); the unscaled values are in the metadata.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import tracer
import worker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SPEC = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
OUT_DIR = ROOT / ".bench_out"

SETUP_RUNS = 7  # measured set-up processes, after one warm-up
WALL_LIMIT_S = 150.0  # whole run, set-up processes included
MAX_FAILURES_KEPT = 5

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def _worker_env() -> dict:
    # Fixed string hashing, so dict and set orders repeat between runs.
    return dict(os.environ, PYTHONHASHSEED="0")


def _worker_cmd(mode: str, workload: str, *extra: str) -> list[str]:
    return [sys.executable, "-u", str(WORKER), mode, "--workload", workload, *extra]


def measure_setup(workload: str, deadline: float) -> list[dict]:
    """Set-up records of SETUP_RUNS fresh processes, after one dropped warm-up."""
    samples = []
    for _ in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            _worker_cmd("setup", workload),
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=_worker_env(),
            timeout=max(1.0, deadline - monotonic()),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.splitlines()[-1].removeprefix("setup ")))
    return samples[1:]


def run_worker(workload: str, seed: int, seconds: float, trace: int, limit_s: float) -> dict:
    """Start the measured worker under a wall limit and parse what it printed."""
    cmd = _worker_cmd(
        "run",
        workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--out-dir", str(OUT_DIR),
    )
    timed_out = False
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, cwd=ROOT, env=_worker_env(), timeout=limit_s
        )
        stdout, stderr, code = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        timed_out = True
        stdout = exc.stdout.decode() if isinstance(exc.stdout, bytes) else exc.stdout or ""
        stderr = exc.stderr.decode() if isinstance(exc.stderr, bytes) else exc.stderr or ""
        code = None
    return parse_worker_output(stdout, stderr, code, timed_out)


def parse_worker_output(stdout: str, stderr: str, code, timed_out: bool) -> dict:
    """Ops, failures and summary from the worker's lines.

    Each op's latency is also scaled to reference units by the mean unit
    time of the reference blocks around it (see bench/worker.py).  A
    worker that did not finish (killed at the wall limit, or crashed) has
    its unfinished ops counted as failed: the op in flight, and at least
    the rest of its first pass.
    """
    planned = 0
    latencies_ns: list[int] = []
    scaled_ns: list[float] = []
    waiting: list[int] = []  # ops since the last reference block
    last_unit_ns = None
    failed = 0
    failures: list[str] = []
    summary = None

    def settle(next_unit_ns):
        known = [u for u in (last_unit_ns, next_unit_ns) if u is not None]
        unit_ns = sum(known) / len(known) if known else worker.REFERENCE_UNIT_NS
        scaled_ns.extend(ns * worker.REFERENCE_UNIT_NS / unit_ns for ns in waiting)
        waiting.clear()

    for line in stdout.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "op":
            ok, ns = rest.split()
            latencies_ns.append(int(ns))
            waiting.append(int(ns))
            failed += ok != "1"
        elif kind == "ref":
            units, ns = map(int, rest.split())
            settle(ns / units)
            last_unit_ns = ns / units
        elif kind == "fail" and len(failures) < MAX_FAILURES_KEPT:
            failures.append(rest)
        elif kind == "plan":
            planned = int(rest)
        elif kind == "done":
            summary = json.loads(rest)
    settle(None)
    finished = summary is not None and code == 0 and not timed_out
    attempted = len(latencies_ns)
    if not finished:
        unfinished = max(1, planned - attempted)
        attempted += unfinished
        failed += unfinished
        failures.append(
            "worker timed out" if timed_out else f"worker exited {code}: {stderr.strip()[-300:]}"
        )
    return {
        "finished": finished,
        "timed_out": timed_out,
        "planned": planned,
        "latencies_ns": latencies_ns,
        "scaled_ns": scaled_ns,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "summary": summary or {},
    }


def nearest_rank(sorted_values: list, percentile: float):
    """Value at the percentile, nearest-rank; None for no values."""
    if not sorted_values:
        return None
    index = max(0, math.ceil(percentile / 100 * len(sorted_values)) - 1)
    return sorted_values[index], len(sorted_values) - index - 1


def _latency_metrics(latencies_ns, tail_percentile, pass_ops: int) -> dict:
    """ops_per_s, p50 and tail; a None percentile takes the slowest op's median."""
    lat_ms = [ns / 1e6 for ns in latencies_ns]
    ordered = sorted(lat_ms)
    busy_s = sum(lat_ms) / 1e3
    if tail_percentile is None:
        per_op = [lat_ms[i::pass_ops] for i in range(pass_ops)]
        tail, beyond = max((statistics.median(x) for x in per_op if x), default=0.0), 0
    else:
        tail, beyond = nearest_rank(ordered, tail_percentile) or (0.0, 0)
    return {
        "ops_per_s": len(lat_ms) / busy_s if busy_s else 0.0,
        "op_p50_ms": statistics.median(ordered) if ordered else 0.0,
        "op_tail_ms": tail,
        "tail_beyond": beyond,
    }


def end_to_end(run: dict, setup_samples: list[dict], tail_percentile):
    """End-to-end metrics in reference units, and the unscaled values."""
    pass_ops = max(1, run["planned"])
    scaled = _latency_metrics(run["scaled_ns"], tail_percentile, pass_ops)
    raw = _latency_metrics(run["latencies_ns"], tail_percentile, pass_ops)
    del raw["tail_beyond"]
    raw["setup_s"] = (
        statistics.median(s["setup_s"] for s in setup_samples) if setup_samples else 0.0
    )
    values = {
        "setup_s": statistics.median(s["setup_s"] * s["speed_factor"] for s in setup_samples)
        if setup_samples
        else 0.0,
        "ops_per_s": scaled["ops_per_s"],
        "op_p50_ms": scaled["op_p50_ms"],
        "op_tail_ms": scaled["op_tail_ms"],
        "peak_rss_mb": run["summary"].get("rss_kb", 0) / 1024,
        "ok_ratio": 1 - run["failed"] / run["attempted"],
    }
    return values, {
        "tail_percentile": tail_percentile,
        "tail_beyond": scaled.pop("tail_beyond"),
        "unscaled": raw,
    }


def git_rev() -> str | None:
    """HEAD of the repository at ROOT, or None when ROOT is not a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one jetns benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "jetns" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'jetns'}", file=sys.stderr)
        return 2

    deadline = monotonic() + WALL_LIMIT_S
    workload = SPEC["workloads"][args.workload]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "dims": workload["dims"],
    }
    OUT_DIR.mkdir(exist_ok=True)
    try:
        setup_samples = measure_setup(args.workload, deadline)
        setup_error = None
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        setup_samples, setup_error = [], str(err)
    run = run_worker(
        args.workload, args.seed, args.seconds, args.trace, max(1.0, deadline - monotonic())
    )
    if setup_error:
        run["failures"].append(setup_error)
    correct = run["finished"] and run["failed"] == 0 and setup_error is None

    if args.trace:
        layers = run["summary"].get("layers", {})
        metrics = {
            name: {"value": layers.get(name, 0), "unit": unit}
            for name, unit in tracer.per_layer_units()
        }
    else:
        values, tail = end_to_end(run, setup_samples, workload["tail_percentile"])
        meta.update(tail)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    meta.update(
        {
            "ops": len(run["latencies_ns"]),
            "pass_ops": run["planned"],
            "passes": run["summary"].get("passes"),
            "failed_ratio": run["failed"] / run["attempted"],
            "failures": run["failures"],
            "timed_out": run["timed_out"],
            "setup_samples": setup_samples,
            "wall_limit_s": WALL_LIMIT_S,
        }
    )
    for key in ("speed_factor", "untraced_ns", "traced_ns", "traced_speed_factor", "spans_kept", "spans_dropped"):
        if key in run["summary"]:
            meta[key] = run["summary"][key]
    result = {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
