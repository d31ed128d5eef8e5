"""Spans around the calls into each pathpoly layer, taken from outside.

A Tracer replaces module attributes with timing wrappers for the life of a
``with`` block and restores them on exit.  Each call records a span (name,
start, end, parent index); a span's self time is its duration minus the
durations of its direct children.  Counters are computed from arguments and
results after the span has ended, inside a ``trace`` span of their own, so
that they add to the tracing overhead and not to any layer's self time.
"""
from __future__ import annotations

import time
from collections import defaultdict
from types import ModuleType
from typing import Any, Callable

# Counters that must repeat exactly across traced passes over one input set.
EXACT_COUNTERS = (
    "groebner.buchberger.calls",
    "groebner.buchberger.gens_in",
    "groebner.buchberger.basis_terms_out",
    "groebner.buchberger.unit_share",
    "compiler.terms_out",
    "compiler.max_degree",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._patched: list[tuple[ModuleType, str, Any]] = []

    # -- installation ------------------------------------------------------

    def wrap(
        self,
        module: ModuleType,
        attr: str,
        name: "str | Callable[..., str]",
        count: "Callable[[Tracer, tuple, dict, Any], None] | None" = None,
    ) -> None:
        """Replace module.attr by a spanning wrapper; note it if absent."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name(*args, **kwargs) if callable(name) else name
            result = self.call(label, fn, *args, **kwargs)
            if count is not None:
                self.call("trace", count, self, args, kwargs, result)
            return result

        self._patched.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: object) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # -- recording ---------------------------------------------------------

    def call(self, label: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        idx = len(self.spans)
        self.spans.append([label, time.perf_counter(), 0.0, self.stack[-1] if self.stack else None])
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.stack.pop()

    def add(self, counter: str, value: int) -> None:
        self.counts[counter] += value

    def peak(self, counter: str, value: int) -> None:
        self.maxima[counter] = max(self.maxima[counter], value)

    def layer_times(self) -> dict[str, tuple[int, float]]:
        """{span name: (calls, self seconds)}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _), children in zip(self.spans, child_time):
            out[name][0] += 1
            out[name][1] += end - start - children
        return {k: (v[0], v[1]) for k, v in out.items()}


# ---------------------------------------------------------------------------
# the pathpoly layers


def _count_compile(tracer: Tracer, args: tuple, kwargs: dict, ps: Any) -> None:
    polys = (*ps.row_polys, ps.phase)
    tracer.add("compiler.terms_out", sum(len(p.monomial_masks) for p in polys))
    tracer.peak("compiler.max_degree", max(p.degree for p in polys))


def _count_buchberger(dense_limit: "int | None") -> Callable[..., None]:
    def count(tracer: Tracer, args: tuple, kwargs: dict, basis: Any) -> None:
        gens, n_vars = args[0], args[1]
        tracer.add("groebner.buchberger.gens_in", len(gens))
        tracer.add("groebner.buchberger.basis_terms_out", sum(len(g) for g in basis))
        tracer.add("groebner.buchberger.unit", list(basis) == [(0,)])
        if dense_limit is not None:
            tracer.add("groebner.buchberger.dense_calls", n_vars <= dense_limit)

    return count


def _row_counts_label(*args: Any, **kwargs: Any) -> str:
    method = kwargs.get("method", args[2] if len(args) > 2 else None)
    brute = method is None or getattr(method, "value", method) == "brute"
    return "amplitudes.truth_table" if brute else "amplitudes.rows_gb"


def install(tracer: Tracer, pathpoly: dict[str, ModuleType]) -> None:
    """Wrap the layer entry points, in the namespaces their callers use.

    pathpoly.amplitudes imports the groebner and compiler entry points by
    name, so they are wrapped there; recursion inside groebner stays
    unwrapped and counts as the outer call's self time.
    """
    amp, cli, groebner = pathpoly["amplitudes"], pathpoly["cli"], pathpoly["groebner"]
    dense_limit = getattr(groebner, "DENSE_VARIABLE_LIMIT", None)
    if dense_limit is None:
        tracer.missing.append("pathpoly.groebner.DENSE_VARIABLE_LIMIT")
    for module in (cli, amp):
        tracer.wrap(module, "compile_circuit", "compiler.compile", _count_compile)
    tracer.wrap(cli, "parse_circuit", "circuit.parse")
    tracer.wrap(cli, "element", "amplitudes.element")
    tracer.wrap(cli, "full_matrix", "amplitudes.full_matrix")
    tracer.wrap(amp, "_bound_x_masks", "amplitudes.bind")
    tracer.wrap(amp, "count_bruteforce", "amplitudes.enumerate")
    tracer.wrap(amp, "row_counts", _row_counts_label)
    tracer.wrap(amp, "_gb_masks", "groebner.buchberger", _count_buchberger(dense_limit))
    tracer.wrap(amp, "_count_standard", "groebner.count_standard")
    tracer.wrap(pathpoly["oracle"], "circuit_unitary", "oracle.unitary")


def layer_metrics(tracer: Tracer, overhead_share: float) -> dict[str, "float | None"]:
    """Per-layer metric values by name; None marks a layer that never ran."""
    times = tracer.layer_times()
    counts = tracer.counts

    def calls(span: str) -> "int | None":
        return times[span][0] if span in times else None

    def self_s(span: str) -> "float | None":
        return times[span][1] if span in times else None

    gb_calls = calls("groebner.buchberger")
    return {
        "circuit.parse.calls": calls("circuit.parse"),
        "circuit.parse.self_s": self_s("circuit.parse"),
        "compiler.compile.calls": calls("compiler.compile"),
        "compiler.compile.self_s": self_s("compiler.compile"),
        "compiler.terms_out": counts.get("compiler.terms_out"),
        "compiler.max_degree": tracer.maxima.get("compiler.max_degree"),
        "amplitudes.bind.self_s": self_s("amplitudes.bind"),
        "amplitudes.enumerate.self_s": self_s("amplitudes.enumerate"),
        "amplitudes.truth_table.self_s": self_s("amplitudes.truth_table"),
        "groebner.buchberger.calls": gb_calls,
        "groebner.buchberger.self_s": self_s("groebner.buchberger"),
        "groebner.buchberger.dense_calls": counts.get("groebner.buchberger.dense_calls"),
        "groebner.buchberger.gens_in": counts.get("groebner.buchberger.gens_in"),
        "groebner.buchberger.basis_terms_out": counts.get("groebner.buchberger.basis_terms_out"),
        "groebner.buchberger.unit_share": (
            counts["groebner.buchberger.unit"] / gb_calls if gb_calls else None
        ),
        "groebner.count_standard.calls": calls("groebner.count_standard"),
        "groebner.count_standard.self_s": self_s("groebner.count_standard"),
        "cli.self_s": self_s("cli"),
        "oracle.unitary.calls": calls("oracle.unitary"),
        "oracle.unitary.self_s": self_s("oracle.unitary"),
        "trace.overhead_share": overhead_share,
    }
