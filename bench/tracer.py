"""Outside-in tracer for the jetns layers.

The tracer wraps public functions of the ``jetns`` modules from the
benchmark's side; no program file changes.  Modules bind names at import
(``from .constraints import reduce``), so a wrapped function is replaced
at every binding: each ``jetns`` module namespace and each ``jetns`` class
namespace that holds the same function object, which also covers aliases
such as ``Expr.__rmul__ = __mul__``.  ``uninstall`` puts every original
back.

Each call of a wrapped function is a span: name, start, end, parent span
and op id.  A call made directly inside a span of the same name (for
example ``parse_tuple`` calling ``parse_expr``) is part of that span and
opens none of its own.  Self time is the duration minus the time covered
by child spans, accumulated as spans close.  Spans are kept in memory, up
to ``span_cap`` of them, and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter_ns

# Span name -> (module, attribute path) of every function it covers.
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "jetalgebra.mul": (("jetns.jetalgebra", "Expr.__mul__"),),
    "jetalgebra.add": (("jetns.jetalgebra", "Expr.__add__"),),
    "jetalgebra.pow": (("jetns.jetalgebra", "Expr.__pow__"),),
    "jetalgebra.subs": (("jetns.jetalgebra", "Expr.subs"),),
    "multiindex.new": (("jetns.multiindex", "MultiIndex.__post_init__"),),
    "totalderiv.derive": (("jetns.totalderiv", "derive"),),
    "constraints.context": (("jetns.constraints", "ReductionContext.__init__"),),
    "constraints.reduce": (("jetns.constraints", "reduce"),),
    "constraints.restricted_derivative": (
        ("jetns.constraints", "restricted_derivative"),
    ),
    "reducedcomplex.kernel_search": (("jetns.reducedcomplex", "kernel_search"),),
    "reducedcomplex.reduced_derivative": (
        ("jetns.reducedcomplex", "reduced_derivative"),
    ),
    "linalg.nullspace": (("jetns.linalg", "nullspace"),),
    "linalg.row_reduce": (("jetns.linalg", "row_reduce"),),
    "variational.euler_operator": (("jetns.variational", "euler_operator"),),
    "variational.helmholtz_residual": (("jetns.variational", "helmholtz_residual"),),
    "evolutionary.symmetry_residuals": (("jetns.evolutionary", "symmetry_residuals"),),
    "evolutionary.time_symmetry_residual": (
        ("jetns.evolutionary", "time_symmetry_residual"),
    ),
    "ns_presets.ns_verify": (("jetns.ns_presets", "ns_verify"),),
    "exprio.parse": (("jetns.exprio", "parse_expr"), ("jetns.exprio", "parse_tuple")),
    "exprio.print": (
        ("jetns.exprio", "print_expr"),
        ("jetns.exprio", "print_tuple"),
        ("jetns.jetalgebra", "Expr.__str__"),
    ),
    "cli.main": (("jetns.cli", "main"),),
}

# Spans reported with calls and self time; multiindex.new reports calls only.
TIMED_SPANS = tuple(name for name in SPANS if name != "multiindex.new")

# Results of these spans are expressions whose term counts are recorded.
_EXPR_SPANS = ("jetalgebra.mul", "jetalgebra.add", "jetalgebra.pow", "jetalgebra.subs")


def per_layer_units() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric a traced run reports, in order."""
    out = []
    for span in TIMED_SPANS:
        out += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    return out + [
        ("multiindex.new.calls", "count"),
        ("jetalgebra.mul.terms_out", "count"),
        ("jetalgebra.peak_terms", "count"),
        ("jetalgebra.pow.mul_calls", "count"),
        ("constraints.subs_per_reduce", "ratio"),
        ("constraints.context.total_s", "s"),
        ("reducedcomplex.assembly_s", "s"),
        ("reducedcomplex.unknowns", "count"),
        ("linalg.rows", "count"),
        ("linalg.cols", "count"),
        ("linalg.rank", "count"),
        ("linalg.nullity", "count"),
        ("trace.ops_per_s_ratio", "ratio"),
    ]


def jetns_namespaces():
    """Every module and class namespace of the loaded jetns package."""
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "jetns" or name.startswith("jetns.")):
            continue
        yield module
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == name:
                yield value


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def _term_count(expr) -> int:
    terms = getattr(expr, "_terms", None)
    return len(terms) if terms is not None else len(expr.items())


class Tracer:
    """Span recorder over wrapped jetns functions; install, run, uninstall."""

    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op = "setup"
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.edges: Counter = Counter()  # (parent span, child span) -> calls
        self.counts: Counter = Counter()
        self.peak_terms = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name, targets in SPANS.items():
            for module, path in targets:
                original = _resolve(module, path)
                wrapper = self._wrap(name, original)
                for namespace in jetns_namespaces():
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attr, wrapper)
                            self._patched.append((namespace, attr, original))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, fn, args, kwargs)

        return wrapper

    # -- spans --------------------------------------------------------------

    def _call(self, name: str, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None and parent[0] == name:
            return fn(*args, **kwargs)
        self._next_id += 1
        frame = [name, self._next_id, 0]
        stack.append(frame)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            duration = end - start
            self.calls[name] += 1
            self.total_ns[name] += duration
            self.self_ns[name] += duration - frame[2]
            parent_name = None
            parent_id = 0
            if parent is not None:
                parent[2] += duration
                parent_name, parent_id = parent[0], parent[1]
            self.edges[(parent_name, name)] += 1
            if len(self.spans) < self.span_cap:
                self.spans.append((frame[1], parent_id, name, start, end, self.op))
            else:
                self.dropped += 1
        self._count(name, parent_name, args, result)
        return result

    def _count(self, name: str, parent_name, args, result) -> None:
        if name in _EXPR_SPANS:
            if result is NotImplemented:
                return
            terms = _term_count(result)
            if terms > self.peak_terms:
                self.peak_terms = terms
            if name == "jetalgebra.mul":
                self.counts["mul_terms_out"] += terms
        elif name == "linalg.nullspace":
            self.counts["rows"] += len(args[0])
            self.counts["cols"] += args[1]
            self.counts["nullity"] += len(result)
            if parent_name == "reducedcomplex.kernel_search":
                self.counts["unknowns"] += args[1]
        elif name == "linalg.row_reduce" and parent_name == "linalg.nullspace":
            self.counts["rank"] += len(result)

    # -- results ------------------------------------------------------------

    def metrics(self, ops_per_s_ratio: float) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        out: dict[str, float] = {}
        for span in TIMED_SPANS:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_s"] = self.self_ns[span] / 1e9
        reduces = self.calls["constraints.reduce"]
        subs_in_reduce = self.edges[("constraints.reduce", "jetalgebra.subs")]
        out.update(
            {
                "multiindex.new.calls": self.calls["multiindex.new"],
                "jetalgebra.mul.terms_out": self.counts["mul_terms_out"],
                "jetalgebra.peak_terms": self.peak_terms,
                "jetalgebra.pow.mul_calls": self.edges[
                    ("jetalgebra.pow", "jetalgebra.mul")
                ],
                "constraints.subs_per_reduce": subs_in_reduce / reduces if reduces else 0.0,
                "constraints.context.total_s": self.total_ns["constraints.context"] / 1e9,
                "reducedcomplex.assembly_s": (
                    self.total_ns["reducedcomplex.kernel_search"]
                    - self.total_ns["linalg.nullspace"]
                )
                / 1e9,
                "reducedcomplex.unknowns": self.counts["unknowns"],
                "linalg.rows": self.counts["rows"],
                "linalg.cols": self.counts["cols"],
                "linalg.rank": self.counts["rank"],
                "linalg.nullity": self.counts["nullity"],
                "trace.ops_per_s_ratio": ops_per_s_ratio,
            }
        )
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span: id, parent, name, start/end ns, op."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, op in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "op": op,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
