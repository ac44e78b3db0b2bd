"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py

They check the tracer (every listed span fires on the workload named for
it, untraced runs leave jetns untouched, exact counts repeat), the worker
protocol under a wall limit, the input generator against the test suite's
own, and BENCHMARK.json against the code.
"""

import importlib.util
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Spans that must fire on each workload (the per-layer to end-to-end map).
SPANS_BY_WORKLOAD = {
    "reduce-laws": [
        "jetalgebra.mul", "jetalgebra.add", "jetalgebra.pow", "jetalgebra.subs",
        "totalderiv.derive", "constraints.restricted_derivative", "constraints.reduce",
        "constraints.context",
    ],
    "kernel-ce": [
        "reducedcomplex.kernel_search", "reducedcomplex.reduced_derivative",
        "linalg.nullspace", "linalg.row_reduce", "constraints.context",
    ],
    "kernel-cpe": [
        "jetalgebra.mul", "jetalgebra.add", "totalderiv.derive",
        "constraints.restricted_derivative", "reducedcomplex.kernel_search",
        "reducedcomplex.reduced_derivative", "linalg.nullspace", "linalg.row_reduce",
        "constraints.context",
    ],
    "cli-mix": [
        "variational.euler_operator", "variational.helmholtz_residual",
        "evolutionary.symmetry_residuals", "evolutionary.time_symmetry_residual",
        "ns_presets.ns_verify", "exprio.parse", "exprio.print", "cli.main",
        "constraints.context",
    ],
}
COUNTS_BY_WORKLOAD = {
    "reduce-laws": ["multiindex.new.calls", "jetalgebra.mul.terms_out", "jetalgebra.peak_terms",
                    "jetalgebra.pow.mul_calls", "constraints.subs_per_reduce"],
    "kernel-ce": ["linalg.rows", "linalg.cols", "linalg.rank", "linalg.nullity",
                  "reducedcomplex.unknowns"],
    "kernel-cpe": ["multiindex.new.calls", "jetalgebra.mul.terms_out", "linalg.rows",
                   "linalg.cols", "linalg.rank", "linalg.nullity", "reducedcomplex.unknowns"],
    "cli-mix": [],
}
EXACT_COUNTS = [
    "jetalgebra.pow.mul_calls", "constraints.subs_per_reduce", "linalg.rows", "linalg.cols",
    "linalg.rank", "linalg.nullity", "reducedcomplex.unknowns",
]
# Ops traced per workload: enough to reach every span, few enough to be quick.
TRACED_OPS = {"reduce-laws": 60, "kernel-ce": 1, "kernel-cpe": 3, "cli-mix": 168}


def traced_metrics(workload: str, seed: int, limit: int) -> dict:
    setup_fn, ops_fn = workloads.WORKLOADS[workload]
    setup = setup_fn()
    ops = ops_fn(seed, setup)
    if workload == "kernel-ce":  # its quicker ansatz (m=2) keeps the test short
        spec = workloads.dims(workload)["ansatz"][0]
        ops = [lambda: workloads._kernel_ce_op(setup[spec["m"]], spec)]
    t = tracer.Tracer()
    t.install()
    try:
        setup_fn()
        assert all(op() for op in ops[:limit])
    finally:
        t.uninstall()
    return t.metrics(1.0)


def snapshot() -> dict:
    return {
        (ns, attr): value
        for ns in tracer.jetns_namespaces()
        for attr, value in vars(ns).items()
    }


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.SPEC["workloads"])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == tracer.per_layer_units()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_generator_draws_like_the_test_suite():
    spec = importlib.util.spec_from_file_location("suite_conftest", ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    d = workloads.dims("reduce-laws")
    suite_pool = conftest.variable_pool(d["m"], d["u_order"], d["p_order"])
    pool = workloads.reduce_laws_pool(d["m"], d["u_order"], d["p_order"])
    assert [v for v, _ in pool] == suite_pool
    for seed in range(30):
        expected = conftest.random_expr(random.Random(seed), suite_pool, n_terms=d["terms"])
        drawn, _ = workloads.draw_expr(
            random.Random(seed), pool, d["terms"], d["max_factors"], d["max_exponent"]
        )
        assert workloads.build_expr(drawn) == expected


def test_strata_quotas_follow_the_distribution():
    d = workloads.dims("reduce-laws")
    pool = workloads.reduce_laws_pool(d["m"], d["u_order"], d["p_order"])
    shape = (d["terms"], d["max_factors"], d["max_exponent"])
    expr_p = workloads._expr_stratum_probabilities(pool, *shape)
    assert sum(expr_p.values()) == 1
    quotas = workloads.pair_quotas(pool, d["pass_ops"], *shape)
    assert sum(quotas.values()) == d["pass_ops"]
    for (a, b), quota in quotas.items():
        assert abs(quota - d["pass_ops"] * expr_p[a] * expr_p[b]) < 1
    heavy = sum(q for (a, b), q in quotas.items() if any(t[0] for t in a + b))
    assert 0 < heavy < 0.1 * d["pass_ops"]


@pytest.mark.parametrize("workload", list(SPANS_BY_WORKLOAD))
def test_listed_spans_fire_on_their_workload(workload):
    metrics = traced_metrics(workload, seed=7, limit=TRACED_OPS[workload])
    assert list(metrics) == [name for name, _ in tracer.per_layer_units()]
    silent = [s for s in SPANS_BY_WORKLOAD[workload] if metrics[f"{s}.calls"] == 0]
    silent += [c for c in COUNTS_BY_WORKLOAD[workload] if metrics[c] == 0]
    assert not silent


def test_untraced_run_leaves_jetns_untouched():
    before = snapshot()
    for workload, limit in (("reduce-laws", 5), ("kernel-cpe", 1), ("cli-mix", 24)):
        setup_fn, ops_fn = workloads.WORKLOADS[workload]
        ops = ops_fn(3, setup_fn())
        assert all(op() for op in ops[:limit])
    assert snapshot() == before
    t = tracer.Tracer()
    t.install()
    assert snapshot() != before
    t.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_aliases_are_wrapped_with_their_method():
    from jetns.jetalgebra import Expr

    t = tracer.Tracer()
    t.install()
    try:
        assert Expr.__rmul__ is Expr.__mul__ and Expr.__radd__ is Expr.__add__
        assert Expr.__mul__.__wrapped__ is not None
        2 * Expr.const(3)
        Expr.const(1) + 1
    finally:
        t.uninstall()
    assert t.calls["jetalgebra.mul"] == 1 and t.calls["jetalgebra.add"] == 1


def test_exact_counts_repeat():
    for workload in ("reduce-laws", "kernel-cpe"):
        first = traced_metrics(workload, seed=11, limit=TRACED_OPS[workload])
        second = traced_metrics(workload, seed=11, limit=TRACED_OPS[workload])
        assert {k: first[k] for k in EXACT_COUNTS} == {k: second[k] for k in EXACT_COUNTS}
    assert first["linalg.rank"] + first["linalg.nullity"] == first["linalg.cols"] > 0


def test_kernel_cpe_span_check_is_exact():
    x = {("chi01", (("x1", 1),)): Fraction(1)}
    one = {("chi01", ()): Fraction(1)}
    both = {**x, **one}
    assert workloads.in_span([both, x], one)
    assert not workloads.in_span([x], one)


def test_unfinished_ops_count_as_failed():
    lines = 'plan 5\nop 1 100\nop 0 200\nfail 1 "check failed"\n'
    parsed = run.parse_worker_output(lines, "", None, timed_out=True)
    assert (parsed["attempted"], parsed["failed"]) == (5, 4)
    assert not parsed["finished"]


def test_tail_metrics():
    assert run.nearest_rank(list(range(1, 1001)), 99) == (990, 10)
    kernel = run._latency_metrics([1e6, 5e6, 2e6, 9e6, 1e6, 7e6], None, pass_ops=2)
    assert kernel["op_tail_ms"] == 7.0  # median of the second op's 5, 9 and 7 ms


def test_wall_limit_kills_the_worker_and_fails_its_ops():
    parsed = run.run_worker("kernel-ce", seed=1, seconds=20, trace=0, limit_s=2.0)
    assert parsed["timed_out"] and not parsed["finished"]
    assert parsed["attempted"] >= 2 and parsed["failed"] == parsed["attempted"]


def test_one_run_prints_every_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cli-mix", "--seed", "5",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    meta, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.E2E_UNITS
    for key in ("seed", "git_rev", "python", "nproc", "loadavg_start", "ops", "tail_percentile"):
        assert key in meta["meta"]


def test_without_the_program_it_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kernel-ce", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
