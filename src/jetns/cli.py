"""Command-line entry point.

Inputs are files (or '-' for standard input) in the expression and tuple
grammar.  Exit codes: 0 when every checked residual is zero, 1 when a
check ran and left a nonzero residual, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .constraints import (
    ReductionContext,
    Setting,
    reduce,
    restricted_derivative,
    restricted_derivative_multi,
)
from .evolutionary import (
    EvolutionField,
    ResidualReport,
    symmetry_residuals,
    time_symmetry_residual,
)
from .exprio import (
    MAX_LITERAL_DIGITS,
    ExprSyntaxError,
    expr_to_records,
    parse_expr,
    parse_index,
    parse_tuple,
    print_tuple,
)
from .jetalgebra import Expr
from .ns_presets import evolution_field, ns_build, ns_verify, preset_table
from .reducedcomplex import AnsatzSpec, kernel_search, reduced_system_residuals
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


def _context(args) -> ReductionContext:
    return ReductionContext(Setting(args.constraints), args.dim)


def _emit_residuals(report: ResidualReport, args) -> int:
    """Print named residuals and return the exit code."""
    for name, expr in report.entries:
        checked = name not in report.informational
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
    return EXIT_OK if report.passed else EXIT_RESIDUAL


def _emit_expr(result: Expr, args) -> int:
    """Print one expression result and return the exit code."""
    if args.format == "structured":
        print(json.dumps({"result": expr_to_records(result)}, sort_keys=True))
    else:
        print(result)
    return EXIT_OK


def _cmd_reduce(args) -> int:
    ctx = _context(args)
    expr = parse_expr(_read_input(args.input), args.dim)
    return _emit_expr(reduce(ctx, expr), args)


def _cmd_tderiv(args) -> int:
    ctx = _context(args)
    expr = reduce(ctx, parse_expr(_read_input(args.input), args.dim))
    if args.index is not None:
        result = restricted_derivative_multi(ctx, parse_index(args.index, args.dim), expr)
    else:
        result = restricted_derivative(ctx, args.direction, expr)
    return _emit_expr(result, args)


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
    residual = helmholtz_residual(chi)
    entries = [
        (f"coefficient[{t},{s},{k}]", expr) for (t, s, k), expr in residual.items()
    ]
    if not entries:
        entries = [("helmholtz", Expr.zero())]
    return _emit_residuals(ResidualReport(entries), args)


def _cmd_symmetry(args) -> int:
    ctx = _context(args)
    f = parse_tuple(_read_input(args.input), "characteristic", args.dim)
    entries = symmetry_residuals(ctx, f).entries or [("symmetry", Expr.zero())]
    return _emit_residuals(ResidualReport(entries), args)


def _cmd_time_symmetry(args) -> int:
    f = parse_tuple(_read_input(args.input), "characteristic", args.dim)
    if args.evolution == "ns":
        inst = ns_build(args.dim, _viscosity_value(args))
        field = evolution_field(inst, _pressure_part(args))
    else:
        ctx = ReductionContext(Setting.CPE, args.dim)
        e = parse_tuple(_read_input(args.evolution), "characteristic", args.dim)
        field = EvolutionField(e.reduce(ctx), ctx)
    residual = time_symmetry_residual(field, f)
    entries = [
        (f"velocity[{mu}]", comp)
        for mu, comp in enumerate(residual.velocity, start=1)
    ]
    entries.append(("pressure", residual.pressure))
    return _emit_residuals(ResidualReport(entries), args)


def _cmd_current(args) -> int:
    ctx = _context(args)
    current = parse_tuple(_read_input(args.input), "current", args.dim)
    residual = current_divergence(ctx, current)
    return _emit_residuals(ResidualReport([("divergence", residual)]), args)


def _cmd_reduced_system(args) -> int:
    ctx = ReductionContext(Setting.CPE, args.dim)
    chi = parse_tuple(_read_input(args.input), "chi_cpe", args.dim).reduce(ctx)
    return _emit_residuals(ResidualReport(reduced_system_residuals(ctx, chi)), args)


def _cmd_kernel(args) -> int:
    ctx = ReductionContext(Setting(args.setting), args.dim)
    ansatz = AnsatzSpec(
        max_order=args.max_order,
        max_degree=args.max_degree,
        max_x_degree=args.max_x_degree,
        include_t=args.include_t,
    )
    basis = kernel_search(ctx, ansatz, max_unknowns=args.max_unknowns)
    if args.format == "structured":
        for k, chi in enumerate(basis):
            print(json.dumps({"basis": k, "tuple": print_tuple(chi)}, sort_keys=True))
        print(json.dumps({"count": len(basis)}, sort_keys=True))
    else:
        for chi in basis:
            print(print_tuple(chi))
        print(f"count: {len(basis)}")
    return EXIT_OK


def _viscosity_value(args) -> str | None:
    """The --viscosity text for ns_build, or None for the symbolic nu."""
    return None if args.viscosity == "symbolic" else args.viscosity


def _pressure_part(args) -> Expr | None:
    if args.pressure_part is None:
        return None
    return parse_expr(_read_input(args.pressure_part), args.dim)


def _cmd_ns_check(args) -> int:
    inst = ns_build(args.dim, _viscosity_value(args))
    return _emit_residuals(ns_verify(inst, _pressure_part(args)), args)


def _cmd_ns_show(args) -> int:
    for name, expr in preset_table(ns_build(args.dim, _viscosity_value(args))):
        if args.format == "structured":
            print(json.dumps({"expr": expr_to_records(expr), "name": name}, sort_keys=True))
        else:
            print(f"{name}: {expr}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetns",
        description="Exact jet-space calculus for divergence-free flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help, *, group=sub, constraints=False, viscosity=False, input=True):
        """A subcommand of group: --dim, --format and the shared flags its handler reads."""
        p = group.add_parser(name, help=help)
        p.set_defaults(func=func)
        if input:
            p.add_argument("input", nargs="?", default="-")
        p.add_argument("--dim", type=int, default=3, help="spatial dimension (default 3)")
        if constraints:
            p.add_argument(
                "--constraints",
                choices=["free", "ce", "cpe"],
                default="cpe",
                help="constraint setting (default cpe)",
            )
        if viscosity:
            p.add_argument(
                "--viscosity",
                default="symbolic",
                help="'symbolic' or a positive rational like 1/100",
            )
        p.add_argument(
            "--format",
            choices=["text", "structured"],
            default="text",
            help="report format (default text)",
        )
        return p

    add("reduce", _cmd_reduce, "reduce an expression to canonical coordinates", constraints=True)
    p = add("tderiv", _cmd_tderiv, "apply a (restricted) total derivative", constraints=True)
    p.add_argument("--direction", type=int, default=1)
    p.add_argument("--index", help="multi-index like [1,0,0] for an iterated derivative")
    add("euler", _cmd_euler, "variational derivative of a density")
    add("helmholtz", _cmd_helmholtz, "variationality residual of a cotuple")
    add("symmetry", _cmd_symmetry, "symmetry determining residuals", constraints=True)
    p = add("time-symmetry", _cmd_time_symmetry, "evolution commutation residual", viscosity=True)
    p.add_argument("--evolution", default="ns", help="'ns' or a characteristic file")
    p.add_argument("--pressure-part", dest="pressure_part")
    add("current", _cmd_current, "divergence residual of a current", constraints=True)
    add(
        "reduced-system",
        _cmd_reduced_system,
        "first-order reduced system residuals of a joint-shape tuple",
    )

    p = add(
        "kernel",
        _cmd_kernel,
        "bounded-order kernel basis of the reduced derivative",
        input=False,
    )
    p.add_argument(
        "--setting", choices=["ce", "cpe"], default="cpe", help="constraint setting (default cpe)"
    )
    p.add_argument("--max-order", type=int, default=0)
    p.add_argument("--max-degree", type=int, default=0)
    p.add_argument("--max-x-degree", type=int, default=0)
    p.add_argument("--include-t", action="store_true")
    p.add_argument("--max-unknowns", type=int, default=4000)

    ns_parser = sub.add_parser("ns", help="flow-system checks and preset display")
    ns = ns_parser.add_subparsers(dest="ns_command", required=True)
    p = add("check", _cmd_ns_check, "flow-system residuals", group=ns, viscosity=True, input=False)
    p.add_argument("--pressure-part", dest="pressure_part")
    add("show", _cmd_ns_show, "the preset expressions", group=ns, viscosity=True, input=False)
    return parser


# argparse keeps no parse state on a parser, so one serves every call
PARSER = build_parser()


def main(argv=None) -> int:
    # CPython converts at most 4300 digits between int and str by default (0:
    # no limit, or no such limit before 3.11); the CLI reads and prints every
    # coefficient up to the literal bound
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < MAX_LITERAL_DIGITS:
        sys.set_int_max_str_digits(MAX_LITERAL_DIGITS)
    try:
        args = PARSER.parse_args(argv)
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
