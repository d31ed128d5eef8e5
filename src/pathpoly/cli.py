"""Command-line front end.

Verbs: validate, compile, count, element, matrix, gb, export.  Exit codes:
0 success, 1 syntax or validation error, 2 resource cap exceeded, 3 internal
invariant violation.  All diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .amplitudes import (
    Method,
    _compile_for_roots,
    count_paths,
    element,
    full_matrix,
    render_matrix_json,
    render_matrix_table,
)
from .circuit import Circuit, CircuitError, parse_circuit
from .compiler import CapExceeded, PolySystem, assemble_systems, compile_circuit
from .groebner import buchberger

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CAP = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with the validation code."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pathpoly", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("file", help="circuit file in the grid text format")
        return p

    add("validate", "check a circuit file and print 'ok'")
    add("compile", "print the row polynomials and phase")

    methods = [m.value for m in Method]
    for verb, help_text in (
        ("count", "print path counts N0/N1 for one (a, b)"),
        ("element", "print the exact amplitude <b|U|a>"),
    ):
        p = add(verb, help_text)
        p.add_argument("--a", required=True, help="input bits a1..aN, big-endian")
        p.add_argument("--b", required=True, help="output bits b1..bN, big-endian")
        p.add_argument("--method", choices=methods, default=Method.BRUTE.value)

    matrix = add("matrix", "print the full circuit matrix")
    matrix.add_argument("--json", action="store_true", help="machine-readable output")
    matrix.add_argument("--method", choices=methods, default=Method.BRUTE.value)

    gb = add("gb", "print reduced Groebner bases of F0 and F1")
    gb.add_argument("--bind", default=None, help="bindings like a=010,b=110 (either optional)")

    export = add("export", "print the polynomial system for computer algebra systems")
    export.add_argument("--format", choices=list(_EXPORTERS), required=True)
    return parser


def _load_circuit(path: str) -> Circuit:
    try:
        with open(path, encoding="utf-8-sig") as f:
            text = f.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    return parse_circuit(text)


def _parse_bind(spec: "str | None") -> dict[str, str]:
    bindings: dict[str, str] = {}
    if spec is None:
        return bindings
    for part in spec.split(","):
        name, eq, value = part.partition("=")
        name = name.strip()
        if eq != "=" or name not in ("a", "b") or name in bindings:
            raise ValueError(f"bad binding {part!r}; expected a=BITS or b=BITS")
        bindings[name] = value.strip()
    return bindings


# per format: how one polynomial is written, what separates two of them, and
# the text around the whole list ({body}) and the variables ({vars})
_EXPORTERS = {
    "plain": ("{name} = {poly}", "\n", "{body}\n"),
    "maple": (
        "  {poly}",
        ",\n",
        "vars := [{vars}]:\nF := [\n{body}\n]:\n"
        "# reduce over GF(2): Groebner:-Basis(F, plex(op(vars)), characteristic = 2);\n",
    ),
    "mathematica": (
        "  {poly}",
        ",\n",
        "vars = {{{vars}}};\npolys = {{\n{body}\n}};\n"
        "(* reduce over GF(2): GroebnerBasis[polys, vars, Modulus -> 2] *)\n",
    ),
}


def export_system(ps: PolySystem, fmt: str) -> str:
    """The symbolic system f_1..f_N, phi in one of the _EXPORTERS formats."""
    line, sep, template = _EXPORTERS[fmt]
    f0, _ = assemble_systems(ps)
    names = [f"f{i}" for i in range(1, ps.n + 1)] + ["phi"]
    return template.format(
        vars=", ".join(ps.universe.variables),
        body=sep.join(line.format(name=n, poly=p) for n, p in zip(names, f0)),
    )


def _run(args: argparse.Namespace) -> None:
    if args.verb == "validate":
        _load_circuit(args.file)
        print("ok")
        return
    circuit = _load_circuit(args.file)
    if args.verb == "compile":
        ps = compile_circuit(circuit)
        for i, p in enumerate(ps.row_polys, 1):
            print(f"b{i} = {p}")
        print(f"phi = {ps.phase}")
    elif args.verb == "count":
        pair = count_paths(circuit, args.a, args.b, method=Method(args.method))
        print(f"N0={pair.n0}, N1={pair.n1}")
    elif args.verb == "element":
        print(element(circuit, args.a, args.b, method=Method(args.method)).render())
    elif args.verb == "matrix":
        matrix = full_matrix(circuit, method=Method(args.method))
        if args.json:
            print(render_matrix_json(matrix))
        else:
            print(render_matrix_table(matrix, circuit.n_qubits), end="")
    elif args.verb == "gb":
        ps = _compile_for_roots(circuit)
        bind = _parse_bind(args.bind)
        f0, f1 = assemble_systems(ps, a=bind.get("a"), b=bind.get("b"))
        for label, system in (("G0", f0), ("G1", f1)):
            print(f"{label}:")
            for g in buchberger(system):
                print(g)
    elif args.verb == "export":
        print(export_system(compile_circuit(circuit), args.format), end="")
    else:  # pragma: no cover - argparse enforces the verb set
        raise AssertionError(f"unhandled verb {args.verb}")


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _run(args)
    except (CircuitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except BrokenPipeError:  # pragma: no cover - downstream closed the pipe
        return EXIT_OK
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
