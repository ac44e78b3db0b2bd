"""Command-line entry point.

Inputs are files (or '-' for standard input) in the expression and tuple
grammar.  Exit codes: 0 when every checked residual is zero, 1 when a
check ran and left a nonzero residual, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .constraints import (
    ReductionContext,
    Setting,
    reduce,
    restricted_derivative,
    restricted_derivative_multi,
)
from .evolutionary import (
    EvolutionField,
    symmetry_residuals,
    time_symmetry_residual,
)
from .exprio import (
    ExprSyntaxError,
    expr_to_records,
    parse_expr,
    parse_tuple,
    print_tuple,
)
from .jetalgebra import Expr
from .multiindex import MultiIndex
from .ns_presets import evolution_field, ns_build, ns_verify, preset_table
from .reducedcomplex import (
    AnsatzSpec,
    AnsatzTooLargeError,
    kernel_search,
    reduced_system_residuals,
)
from .variational import (
    current_divergence,
    euler_operator,
    helmholtz_residual,
)

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_USAGE = 2


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dim", type=int, default=3, help="spatial dimension (default 3)")
    parser.add_argument(
        "--constraints",
        choices=["free", "ce", "cpe"],
        default="cpe",
        help="constraint setting (default cpe)",
    )
    parser.add_argument(
        "--viscosity",
        default="symbolic",
        help="'symbolic' or a positive rational like 1/100",
    )
    parser.add_argument(
        "--format",
        choices=["text", "structured"],
        default="text",
        help="report format (default text)",
    )


def _context(args) -> ReductionContext:
    return ReductionContext(Setting(args.constraints), args.dim)


def _emit_residuals(entries, args, informational=()) -> int:
    """Print named residuals and return the exit code."""
    failed = False
    for name, expr in entries:
        checked = name not in informational
        if args.format == "structured":
            record = {
                "name": name,
                "zero": expr.is_zero(),
                "checked": checked,
                "residual": expr_to_records(expr),
            }
            print(json.dumps(record, sort_keys=True))
        else:
            tag = "" if checked else " (informational)"
            print(f"{name}: {expr}{tag}")
        if checked and not expr.is_zero():
            failed = True
    return EXIT_RESIDUAL if failed else EXIT_OK


def _cmd_reduce(args) -> int:
    ctx = _context(args)
    expr = parse_expr(_read_input(args.input), args.dim)
    result = reduce(ctx, expr)
    if args.format == "structured":
        print(json.dumps({"result": expr_to_records(result)}, sort_keys=True))
    else:
        print(result)
    return EXIT_OK


def _cmd_tderiv(args) -> int:
    ctx = _context(args)
    expr = reduce(ctx, parse_expr(_read_input(args.input), args.dim))
    if args.index is not None:
        entries = tuple(int(k) for k in args.index.strip("[]").split(","))
        result = restricted_derivative_multi(ctx, MultiIndex(entries), expr)
    else:
        result = restricted_derivative(ctx, args.direction, expr)
    if args.format == "structured":
        print(json.dumps({"result": expr_to_records(result)}, sort_keys=True))
    else:
        print(result)
    return EXIT_OK


def _cmd_euler(args) -> int:
    expr = parse_expr(_read_input(args.input), args.dim)
    result = euler_operator(expr, args.dim)
    if args.format == "structured":
        record = {
            "velocity": [expr_to_records(c) for c in result.velocity],
            "pressure": expr_to_records(result.pressure),
        }
        print(json.dumps(record, sort_keys=True))
    else:
        print(print_tuple(result))
    return EXIT_OK


def _cmd_helmholtz(args) -> int:
    chi = parse_tuple(_read_input(args.input), "cotuple", args.dim)
    residual = helmholtz_residual(chi, args.dim)
    entries = [
        (f"coefficient[{t},{s},{k}]", expr) for (t, s, k), expr in residual.items()
    ]
    if not entries:
        entries = [("helmholtz", Expr.zero())]
    return _emit_residuals(entries, args)


def _cmd_symmetry(args) -> int:
    ctx = _context(args)
    f = parse_tuple(_read_input(args.input), "characteristic", args.dim)
    report = symmetry_residuals(ctx, f)
    entries = report.entries or [("symmetry", Expr.zero())]
    return _emit_residuals(entries, args)


def _cmd_time_symmetry(args) -> int:
    ctx = ReductionContext(Setting.CPE, args.dim)
    f = parse_tuple(_read_input(args.input), "characteristic", args.dim)
    if args.evolution == "ns":
        inst = ns_build(args.dim, _viscosity_value(args))
        field = evolution_field(inst, _pressure_part(args))
    else:
        e = parse_tuple(_read_input(args.evolution), "characteristic", args.dim)
        field = EvolutionField(e.reduce(ctx), ctx)
    residual = time_symmetry_residual(field, f.reduce(ctx))
    entries = [
        (f"velocity[{mu}]", comp)
        for mu, comp in enumerate(residual.velocity, start=1)
    ]
    entries.append(("pressure", residual.pressure))
    entries = [(name, reduce(ctx, expr)) for name, expr in entries]
    return _emit_residuals(entries, args)


def _cmd_current(args) -> int:
    ctx = _context(args)
    current = parse_tuple(_read_input(args.input), "current", args.dim)
    residual = current_divergence(ctx, current)
    return _emit_residuals([("divergence", residual)], args)


def _cmd_reduced_system(args) -> int:
    ctx = ReductionContext(Setting.CPE, args.dim)
    chi = parse_tuple(_read_input(args.input), "chi_cpe", args.dim).reduce(ctx)
    return _emit_residuals(reduced_system_residuals(ctx, chi), args)


def _cmd_kernel(args) -> int:
    setting = args.setting or args.constraints
    if setting not in ("ce", "cpe"):
        print("kernel search requires --setting ce or cpe", file=sys.stderr)
        return EXIT_USAGE
    ctx = ReductionContext(Setting(setting), args.dim)
    ansatz = AnsatzSpec(
        max_order=args.max_order,
        max_degree=args.max_degree,
        max_x_degree=args.max_x_degree,
        include_t=args.include_t,
    )
    try:
        basis = kernel_search(ctx, ansatz, max_unknowns=args.max_unknowns)
    except AnsatzTooLargeError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "structured":
        for k, chi in enumerate(basis):
            print(json.dumps({"basis": k, "tuple": print_tuple(chi)}, sort_keys=True))
        print(json.dumps({"count": len(basis)}, sort_keys=True))
    else:
        for chi in basis:
            print(print_tuple(chi))
        print(f"count: {len(basis)}")
    return EXIT_OK


def _viscosity_value(args):
    if args.viscosity == "symbolic":
        return None
    return Fraction(args.viscosity)


def _pressure_part(args) -> Expr | None:
    path = getattr(args, "pressure_part", None)
    if path is None:
        return None
    return parse_expr(_read_input(path), args.dim)


def _cmd_ns(args) -> int:
    inst = ns_build(args.dim, _viscosity_value(args))
    if args.ns_command == "show":
        for name, expr in preset_table(inst):
            print(f"{name}: {expr}")
        return EXIT_OK
    report = ns_verify(inst, _pressure_part(args))
    informational = {e.name for e in report.entries if not e.checked}
    return _emit_residuals(
        [(e.name, e.residual) for e in report.entries], args, informational
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetns",
        description="Exact jet-space calculus for divergence-free flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        _common_flags(p)
        p.set_defaults(func=func)
        return p

    p = add("reduce", _cmd_reduce, help="reduce an expression to canonical coordinates")
    p.add_argument("input", nargs="?", default="-")

    p = add("tderiv", _cmd_tderiv, help="apply a (restricted) total derivative")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--direction", type=int, default=1)
    p.add_argument("--index", help="multi-index like [1,0,0] for an iterated derivative")

    p = add("euler", _cmd_euler, help="variational derivative of a density")
    p.add_argument("input", nargs="?", default="-")

    p = add("helmholtz", _cmd_helmholtz, help="variationality residual of a cotuple")
    p.add_argument("input", nargs="?", default="-")

    p = add("symmetry", _cmd_symmetry, help="symmetry determining residuals")
    p.add_argument("input", nargs="?", default="-")

    p = add("time-symmetry", _cmd_time_symmetry, help="evolution commutation residual")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--evolution", default="ns", help="'ns' or a characteristic file")
    p.add_argument("--pressure-part", dest="pressure_part")

    p = add("current", _cmd_current, help="divergence residual of a current")
    p.add_argument("input", nargs="?", default="-")

    p = add(
        "reduced-system",
        _cmd_reduced_system,
        help="first-order reduced system residuals of a joint-shape tuple",
    )
    p.add_argument("input", nargs="?", default="-")

    p = add("kernel", _cmd_kernel, help="bounded-order kernel basis of the reduced derivative")
    p.add_argument("--setting", choices=["ce", "cpe"])
    p.add_argument("--max-order", type=int, default=0)
    p.add_argument("--max-degree", type=int, default=0)
    p.add_argument("--max-x-degree", type=int, default=0)
    p.add_argument("--include-t", action="store_true")
    p.add_argument("--max-unknowns", type=int, default=4000)

    p = add("ns", _cmd_ns, help="flow-system checks and preset display")
    p.add_argument("ns_command", choices=["check", "show"])
    p.add_argument("--pressure-part", dest="pressure_part")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ExprSyntaxError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
