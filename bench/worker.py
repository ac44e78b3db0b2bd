"""Benchmark worker: runs in a fresh process started by bench/run.py.

    worker.py setup --workload W
        prints "setup {"setup_s": ..., "speed_factor": ...}": import jetns
        and build the workload's ReductionContext and NsInstance values,
        timed.
    worker.py run --workload W --seed N --seconds S --trace 0|1 --out-dir D
        streams one line per op ("op <ok> <ns>", plus "fail <index> <why>")
        and one per reference block ("ref <units> <ns>"), then "done <json>".
        With --trace 0 it runs whole passes over the op list until the next
        pass would end after S seconds.  With --trace 1 it runs one
        untraced pass and one traced pass, so the counts repeat, and writes
        the spans to D.

Only the standard library is imported before the timed set-up, so that
setup_s sees the program's own import cost.

Machine speed: shared hosts change speed by tens of percent over tens of
seconds, which swamps run-to-run comparisons.  So a fixed reference unit
(pure-Python dict and Fraction arithmetic, like the program's inner loops)
runs between ops for REFERENCE_DUTY of the op time, and bench/run.py scales
each op's wall time by REFERENCE_UNIT_NS over the mean unit time of the
blocks just before and after it: times are in reference-machine units, on
which the unit takes exactly REFERENCE_UNIT_NS.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Program modules each workload imports; their import is part of setup_s.
PROGRAM_MODULES = {
    "reduce-laws": ("jetns",),
    "kernel-ce": ("jetns",),
    "kernel-cpe": ("jetns",),
    "cli-mix": ("jetns", "jetns.cli"),
}


def _import_program(workload: str) -> None:
    sys.path.insert(0, str(SRC))
    for name in PROGRAM_MODULES[workload]:
        module = importlib.import_module(name)
        if not Path(module.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"{name} imported from {module.__file__}, not from {SRC}")


REFERENCE_UNIT_NS = 10_000_000
REFERENCE_DUTY = 0.10


def reference_unit() -> dict:
    """Fixed work whose time tracks the machine's speed for the program."""
    acc: dict = {}
    for i in range(2800):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 7, 3)
    return acc


class SpeedProbe:
    """Reference units interleaved with the ops, REFERENCE_DUTY of op time.

    Each block of units is reported as a "ref <units> <ns>" line, so the
    ops between two blocks can be scaled by the speed measured around them.
    """

    def __init__(self, initial_units: int = 3):
        self.units = 0
        self.unit_ns = 0
        self._owed_ns = initial_units * REFERENCE_UNIT_NS

    def after(self, busy_ns: int, force: bool = False) -> None:
        self._owed_ns += busy_ns * REFERENCE_DUTY
        if force:
            self._owed_ns = max(self._owed_ns, 1)
        units = 0
        # The unit makes no reference cycles; with the collector off, its time
        # does not depend on how many objects the program holds.
        gc.disable()
        start = perf_counter_ns()
        while self._owed_ns > 0:
            began = perf_counter_ns()
            reference_unit()
            self._owed_ns -= perf_counter_ns() - began
            units += 1
        gc.enable()
        if units:
            took = perf_counter_ns() - start
            self.units += units
            self.unit_ns += took
            _emit(f"ref {units} {took}")

    @property
    def factor(self) -> float:
        return REFERENCE_UNIT_NS * self.units / self.unit_ns


def _emit(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def run_pass(ops, probe: SpeedProbe, tracer=None) -> int:
    """Run every op once; return the summed op latency in ns."""
    busy = 0
    probe.after(0)
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        began = perf_counter_ns()
        try:
            ok = bool(op())
            why = "check failed"
        except Exception as err:  # an op that raises is a failed op; the run goes on
            ok = False
            why = f"{type(err).__name__}: {err}"
        took = perf_counter_ns() - began
        busy += took
        _emit(f"op {int(ok)} {took}")
        if not ok:
            _emit(f"fail {index} {json.dumps(why[:300])}")
        probe.after(took)
    probe.after(0, force=True)
    return busy


def timed_passes(ops, seconds: float) -> dict:
    """Whole passes until the next one would end after `seconds` of wall time."""
    gc.collect()
    probe = SpeedProbe()
    passes = 0
    start = perf_counter_ns()
    while True:
        run_pass(ops, probe)
        passes += 1
        wall = perf_counter_ns() - start
        if wall * (passes + 1) / passes > seconds * 1e9:
            return {"passes": passes, "speed_factor": probe.factor, "reference_units": probe.units}


def trace_pass(workload: str, setup, ops, out_dir: Path | None, seed: int) -> dict:
    """One untraced and one traced pass over the same ops; per-layer metrics.

    Each pass has its own speed factor, so the overhead ratio compares the
    two passes in reference units.
    """
    gc.collect()
    plain = SpeedProbe()
    untraced_ns = run_pass(ops, plain)
    tracer = tracing.Tracer()
    traced = SpeedProbe()
    tracer.install()
    try:
        setup()  # traced set-up, so context construction shows; results unused
        gc.collect()
        traced_ns = run_pass(ops, traced, tracer)
    finally:
        tracer.uninstall()
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{workload}-seed{seed}.jsonl")
    ratio = (untraced_ns * plain.factor) / (traced_ns * traced.factor)
    return {
        "layers": tracer.metrics(ratio),
        "untraced_ns": untraced_ns,
        "traced_ns": traced_ns,
        "speed_factor": plain.factor,
        "traced_speed_factor": traced.factor,
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--workload", required=True, choices=sorted(PROGRAM_MODULES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out-dir", type=Path)
    args = parser.parse_args(argv)

    started = perf_counter()
    _import_program(args.workload)
    imported = perf_counter()
    import workloads  # benchmark code; the program is already loaded

    setup_fn, ops_fn = workloads.WORKLOADS[args.workload]
    before_setup = perf_counter()
    setup = setup_fn()
    setup_s = (imported - started) + (perf_counter() - before_setup)
    if args.mode == "setup":
        reference_unit()  # the first unit of a fresh process runs cold
        probe = SpeedProbe(initial_units=5)
        probe.after(0)
        _emit("setup " + json.dumps({"setup_s": setup_s, "speed_factor": probe.factor}))
        return 0

    ops = ops_fn(args.seed, setup)
    _emit(f"plan {len(ops)}")
    summary: dict = {}
    if args.trace:
        summary.update(trace_pass(args.workload, setup_fn, ops, args.out_dir, args.seed))
    else:
        summary.update(timed_passes(ops, args.seconds))
    summary["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _emit("done " + json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
