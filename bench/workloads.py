"""The four benchmark workloads: seeded inputs, their ops and the checks.

A workload has a set-up step (the ReductionContext and NsInstance values it
uses) and a seeded op list.  An op is a zero-argument callable returning
True when the program's output passed the op's check.  Inputs come only
from the seed; the program sees the generated inputs and nothing else.

Program functions are called through their modules (``constraints.reduce``,
not a name imported here), so the outside-in tracer reaches them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from jetns import cli, constraints, exprio, jetalgebra, ns_presets, reducedcomplex, totalderiv

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR / "spec.json").read_text(encoding="utf-8"))
EXPECTED_DIR = BENCH_DIR / "expected"


def dims(name: str) -> dict:
    return SPEC["workloads"][name]["dims"]


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _indices(m: int, max_total: int) -> list[tuple[int, ...]]:
    """Multi-indices with |i| <= max_total, by total order then entries."""
    found = [e for e in itertools.product(range(max_total + 1), repeat=m) if sum(e) <= max_total]
    return sorted(found, key=lambda e: (sum(e), e))


# -- reduce-laws ---------------------------------------------------------------

# Pool categories, by what the reductions do to a jet: "T" pressure jets the
# cpe rule eliminates (first entry >= 2), "P" pressure jets whose first
# derivative it eliminates (first entry 1), "U" u1 jets the ce rule
# eliminates (first entry >= 1), "O" the rest.  They set an op's cost.


def reduce_laws_pool(m: int, u_order: int, p_order: int) -> list[tuple[object, str]]:
    """(variable, category) in the order of tests/conftest.py::variable_pool."""
    pool = [(jetalgebra.xvar(mu), "O") for mu in range(1, m + 1)]
    for i in _indices(m, u_order):
        for mu in range(1, m + 1):
            pool.append((jetalgebra.uvar(mu, i), "U" if mu == 1 and i[0] > 0 else "O"))
    for i in _indices(m, p_order):
        pool.append((jetalgebra.pvar(i), "T" if i[0] >= 2 else "P" if i[0] == 1 else "O"))
    return pool


def _term_stratum(factors: list[tuple[str, int]]) -> tuple[int, int, int]:
    """(exponent of T jets, whether U jets occur, whether P jets occur) of a term."""
    t_exp = sum(e for cat, e in factors if cat == "T")
    has_u = any(cat == "U" for cat, _ in factors)
    has_p = any(cat == "P" for cat, _ in factors)
    return (t_exp, int(has_u), int(has_p))


def draw_expr(rng: random.Random, pool, terms: int, max_factors: int, max_exponent: int):
    """The draws of tests/conftest.py::random_expr, in its order, and their stratum.

    Returns (terms as (coefficient, [(variable, exponent)]), stratum); the
    expression is built only for the draws a pass keeps.
    """
    drawn = []
    strata = []
    for _ in range(terms):
        coeff = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
        factors = []
        for _ in range(rng.randint(1, max_factors)):
            v, cat = rng.choice(pool)
            factors.append((v, cat, rng.randint(1, max_exponent)))
        drawn.append((coeff, [(v, e) for v, _, e in factors]))
        strata.append(_term_stratum([(cat, e) for _, cat, e in factors]))
    return drawn, tuple(sorted(strata))


def build_expr(drawn):
    """The expression random_expr builds from these draws."""
    total = jetalgebra.Expr.zero()
    for coeff, factors in drawn:
        term = jetalgebra.Expr.const(coeff)
        for v, e in factors:
            term = term * jetalgebra.Expr.var(v) ** e
        total = total + term
    return total


def _expr_stratum_probabilities(pool, terms: int, max_factors: int, max_exponent: int):
    """Exact probability of each expression stratum under draw_expr's draws."""
    share = Counter(cat for _, cat in pool)
    term_p: Counter = Counter()
    for k in range(1, max_factors + 1):
        outcomes = itertools.product(share, range(1, max_exponent + 1))
        for factors in itertools.product(list(outcomes), repeat=k):
            p = Fraction(1, max_factors)
            for cat, _ in factors:
                p *= Fraction(share[cat], len(pool) * max_exponent)
            term_p[_term_stratum(list(factors))] += p
    expr_p: Counter = Counter()
    for combo in itertools.product(term_p, repeat=terms):
        p = Fraction(1)
        for s in combo:
            p *= term_p[s]
        expr_p[tuple(sorted(combo))] += p
    return expr_p


def pair_quotas(pool, total: int, terms: int, max_factors: int, max_exponent: int):
    """Ops per (f stratum, g stratum): expected frequencies, largest remainder to total."""
    expr_p = _expr_stratum_probabilities(pool, terms, max_factors, max_exponent)
    expected = {(a, b): total * pa * pb for a, pa in expr_p.items() for b, pb in expr_p.items()}
    quotas = {k: int(v) for k, v in expected.items()}
    short = total - sum(quotas.values())
    by_remainder = sorted(expected, key=lambda k: (expected[k] - quotas[k], k), reverse=True)
    for k in by_remainder[:short]:
        quotas[k] += 1
    return {k: q for k, q in quotas.items() if q}


def _check_laws(ctxs, f, g) -> bool:
    reduce = constraints.reduce
    for ctx in ctxs:
        reduced = reduce(ctx, f)
        if reduce(ctx, reduced) != reduced:
            return False
        if reduce(ctx, f * g) != reduce(ctx, reduce(ctx, f) * reduce(ctx, g)):
            return False
        for mu in range(1, ctx.m + 1):
            lhs = constraints.restricted_derivative(ctx, mu, reduced)
            if lhs != reduce(ctx, totalderiv.total_derivative(mu, f)):
                return False
    return True


def reduce_laws_setup():
    d = dims("reduce-laws")
    return [constraints.ReductionContext(constraints.Setting(s), d["m"]) for s in d["settings"]]


def reduce_laws_ops(seed: int, ctxs) -> list:
    d = dims("reduce-laws")
    rng = _rng("reduce-laws", seed)
    pool = reduce_laws_pool(d["m"], d["u_order"], d["p_order"])
    shape = (d["terms"], d["max_factors"], d["max_exponent"])
    left = pair_quotas(pool, d["pass_ops"], *shape)
    pairs = []
    draws = 0
    while len(pairs) < d["pass_ops"]:
        draws += 1
        if draws > 200 * d["pass_ops"]:
            raise RuntimeError("reduce-laws quotas not filled")
        f, sf = draw_expr(rng, pool, *shape)
        g, sg = draw_expr(rng, pool, *shape)
        if left.get((sf, sg), 0):
            left[(sf, sg)] -= 1
            pairs.append((build_expr(f), build_expr(g)))
    rng.shuffle(pairs)
    return [lambda f=f, g=g: _check_laws(ctxs, f, g) for f, g in pairs]


# -- kernel-ce / kernel-cpe --------------------------------------------------------


def _ansatz(spec: dict):
    return reducedcomplex.AnsatzSpec(
        max_order=spec["max_order"],
        max_degree=spec["max_degree"],
        max_x_degree=spec["max_x_degree"],
    )


def _kernel(ctx, spec: dict) -> list:
    return reducedcomplex.kernel_search(ctx, _ansatz(spec), max_unknowns=10**6)


def expected_basis_path(spec: dict) -> Path:
    return EXPECTED_DIR / (
        f"cpe_m{spec['m']}_o{spec['max_order']}_d{spec['max_degree']}_x{spec['max_x_degree']}.txt"
    )


def printed_basis(basis) -> str:
    return "".join(exprio.print_tuple(chi) + "\n" for chi in basis)


def kernel_setup(name: str) -> dict:
    setting = constraints.Setting(dims(name)["setting"])
    return {
        spec["m"]: constraints.ReductionContext(setting, spec["m"])
        for spec in dims(name)["ansatz"]
    }


def _kernel_ce_op(ctx, spec: dict) -> bool:
    basis = _kernel(ctx, spec)
    if len(basis) != 1:
        return False
    chi = basis[0]
    constant = chi.chi01.constant_value()
    return (
        constant not in (None, 0)
        and not chi.chi_alpha
        and not chi.chi_p
        and reducedcomplex.reduced_derivative(ctx, chi).is_zero()
    )


def _coordinates(chi) -> dict:
    """A tuple as a sparse vector keyed by (component, monomial)."""
    parts = [("chi01", chi.chi01), ("chi0", chi.chi0), ("chi1", chi.chi1)]
    parts += [(("chi_alpha",) + key, expr) for key, expr in chi.chi_alpha.items()]
    return {(slot, mono): c for slot, expr in parts for mono, c in expr.items()}


def in_span(vectors: list[dict], target: dict) -> bool:
    """Whether target is a rational combination of the sparse vectors."""
    pivots: list[tuple[object, dict]] = []

    def reduced(vec: dict) -> dict:
        vec = dict(vec)
        for key, row in pivots:
            factor = vec.get(key, 0)
            if factor:
                for k, v in row.items():
                    vec[k] = vec.get(k, 0) - factor * v
                vec = {k: v for k, v in vec.items() if v}
        return vec

    for vec in vectors:
        vec = reduced(vec)
        if vec:
            key = min(vec, key=repr)
            pivots.append((key, {k: v / vec[key] for k, v in vec.items()}))
    return not reduced(target)


def _kernel_cpe_op(ctx, spec: dict, expected: str) -> bool:
    basis = _kernel(ctx, spec)
    if printed_basis(basis) != expected:
        return False
    for chi in basis:
        if not reducedcomplex.reduced_derivative(ctx, chi).is_zero():
            return False
        residuals = reducedcomplex.reduced_system_residuals(ctx, chi)
        if not all(expr.is_zero() for _, expr in residuals):
            return False
    constant = {("chi01", ()): Fraction(1)}
    return in_span([_coordinates(chi) for chi in basis], constant)


def kernel_ops(name: str, seed: int, ctxs: dict) -> list:
    specs = list(dims(name)["ansatz"])
    _rng(name, seed).shuffle(specs)
    if name == "kernel-ce":
        return [lambda s=s: _kernel_ce_op(ctxs[s["m"]], s) for s in specs]
    ops = []
    for s in specs:
        expected = expected_basis_path(s).read_text(encoding="utf-8")
        ops.append(lambda s=s, e=expected: _kernel_cpe_op(ctxs[s["m"]], s, e))
    return ops


# -- cli-mix -------------------------------------------------------------------


def run_cli(argv: list[str], stdin: str = "") -> tuple[int, str, str]:
    """One in-process jetns.cli.main call with stdin given and stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _label(kind: str, mu: int, index: tuple[int, ...]) -> str:
    entries = "[" + ",".join(map(str, index)) + "]"
    return f"u{mu}_{entries}" if kind == "u" else f"p_{entries}"


def _text_pool(m: int, u_order: int, p_order: int) -> list[str]:
    pool = [f"x{mu}" for mu in range(1, m + 1)]
    pool += [_label("u", mu, i) for i in _indices(m, u_order) for mu in range(1, m + 1)]
    pool += [_label("p", 0, i) for i in _indices(m, p_order)]
    return pool


def _text_expr(rng: random.Random, pool, d: dict) -> str:
    out = ""
    for k in range(d["terms"]):
        num = rng.randint(-4, 4) or 1
        factors = [f"{abs(num)}/{rng.randint(1, 3)}"]
        for _ in range(rng.randint(1, d["max_factors"])):
            factors.append(f"{rng.choice(pool)}^{rng.randint(1, d['max_exponent'])}")
        sign = ("-" if num < 0 else "") if k == 0 else (" - " if num < 0 else " + ")
        out += sign + "*".join(factors)
    return out


def _unit(la: int, m: int) -> tuple[int, ...]:
    return tuple(1 if k == la else 0 for k in range(1, m + 1))


def _pipeline(kind: str, m: int, rng: random.Random, pool, d: dict):
    dim = ["--dim", str(m)]
    if kind == "ns-check":
        return lambda: run_cli(["ns", "check", *dim])[0] == 0
    if kind == "euler-helmholtz":
        density = _text_expr(rng, pool, d)

        def op():
            code, cotuple, _ = run_cli(["euler", *dim, "-"], density)
            return code == 0 and run_cli(["helmholtz", *dim, "-"], cotuple)[0] == 0

        return op
    if kind == "symmetry":
        la = rng.randint(1, m)
        parts = [f"f{mu}: {_label('u', mu, _unit(la, m))}" for mu in range(1, m + 1)]
        characteristic = "; ".join(parts + [f"f: {_label('p', 0, _unit(la, m))}"])

        def op():
            sym = run_cli(["symmetry", "--constraints", "cpe", *dim, "-"], characteristic)
            return sym[0] == 0 and run_cli(["time-symmetry", *dim, "-"], characteristic)[0] == 0

        return op
    if kind == "tderiv-current":
        h = _text_expr(rng, pool, d)

        def op():
            code2, d2, _ = run_cli(["tderiv", "--direction", "2", *dim, "-"], h)
            code1, d1, _ = run_cli(["tderiv", "--direction", "1", *dim, "-"], h)
            current = f"j1: {d2.strip()}; j2: -({d1.strip()})"
            return code2 == code1 == 0 and run_cli(["current", *dim, "-"], current)[0] == 0

        return op
    if kind == "reduce-twice":
        f = _text_expr(rng, pool, d)

        def op():
            code, once, _ = run_cli(["reduce", *dim, "-"], f)
            again = run_cli(["reduce", *dim, "-"], once)
            return code == 0 and again == (0, once, "")

        return op
    if kind == "reduced-system":
        chi = f"chi01: {rng.randint(-9, 9) or 1}/{rng.randint(1, 5)}"
        return lambda: run_cli(["reduced-system", *dim, "-"], chi)[0] == 0
    raise ValueError(f"unknown pipeline {kind!r}")


def cli_mix_setup():
    out = []
    for m in sorted(set(dims("cli-mix")["dims"])):
        out.append(constraints.ReductionContext(constraints.Setting.CPE, m))
        out.append(ns_presets.ns_build(m))
    return out


def cli_mix_ops(seed: int, _setup) -> list:
    d = dims("cli-mix")
    rng = _rng("cli-mix", seed)
    pools = {m: _text_pool(m, d["u_order"], d["p_order"]) for m in set(d["dims"])}
    ops = [
        _pipeline(kind, m, rng, pools[m], d)
        for _ in range(d["blocks"])
        for kind in d["pipelines"]
        for m in d["dims"]
    ]
    rng.shuffle(ops)
    return ops


# -- registry --------------------------------------------------------------------

WORKLOADS = {
    "reduce-laws": (reduce_laws_setup, reduce_laws_ops),
    "kernel-ce": (lambda: kernel_setup("kernel-ce"), lambda s, c: kernel_ops("kernel-ce", s, c)),
    "kernel-cpe": (lambda: kernel_setup("kernel-cpe"), lambda s, c: kernel_ops("kernel-cpe", s, c)),
    "cli-mix": (cli_mix_setup, cli_mix_ops),
}
