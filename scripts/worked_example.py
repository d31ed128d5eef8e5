#!/usr/bin/env python3
"""Walk the bundled three-qubit circuit through the whole pipeline.

Prints the compiled polynomial system, the symbolic Groebner bases of F0/F1,
the exact circuit matrix by both counting methods, and the dense-oracle
cross-check.  Exits 1 when the methods or the oracle disagree.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from pathpoly import (
    Method,
    assemble_systems,
    buchberger,
    circuit_unitary,
    compile_circuit,
    count_paths,
    full_matrix,
    parse_circuit,
    render_matrix_table,
)

DEFAULT_CIRCUIT = Path(__file__).resolve().parent.parent / "circuits" / "demo_n3.qc"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("circuit", nargs="?", default=DEFAULT_CIRCUIT, type=Path)
    args = parser.parse_args()

    circuit = parse_circuit(args.circuit.read_text(encoding="utf-8"))
    print(f"circuit: {args.circuit.name}  N={circuit.n_qubits}  M={circuit.n_columns}  h={circuit.h}")

    ps = compile_circuit(circuit)
    print("\ncompiled system:")
    for i, p in enumerate(ps.row_polys, 1):
        print(f"  b{i} = {p}")
    print(f"  phi = {ps.phase}")

    f0, f1 = assemble_systems(ps)
    for label, system in (("G0", f0), ("G1", f1)):
        print(f"\nreduced Groebner basis {label} (lex, path variables above a and b):")
        for g in buchberger(system):
            print(f"  {g}")

    print("\nsample path counts (a=000):")
    for b in ("000", "001", "100"):
        pair = count_paths(circuit, "000", b, method=Method.GB)
        print(f"  b={b}: N0={pair.n0}, N1={pair.n1}")

    brute = full_matrix(circuit, Method.BRUTE)
    groeb = full_matrix(circuit, Method.GB)
    print("\nfull matrix (rows a, columns b):")
    print(render_matrix_table(brute, circuit.n_qubits), end="")
    agree_gb = brute == groeb
    agree_oracle = brute == circuit_unitary(circuit)
    print(f"\nbrute == groebner: {agree_gb}")
    print(f"brute == dense oracle: {agree_oracle}")
    return 0 if agree_gb and agree_oracle else 1


if __name__ == "__main__":
    sys.exit(main())
