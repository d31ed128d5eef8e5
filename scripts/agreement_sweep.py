#!/usr/bin/env python3
"""Random-circuit agreement experiment.

Samples random valid circuits, computes the full matrix by brute-force
counting, by Groebner counting and by the dense oracle, and reports exact
agreement plus timing and structural-invariant statistics.  Amplitudes
are only N0 - N1, so the N0/N1 counts of the all-zeros input row are also
compared between brute force and Groebner counting.  Exits 1 when any
matrix mismatch, count mismatch, conservation failure or unitarity failure
occurs.
"""
from __future__ import annotations

import argparse
import random
import sys
import time
from collections import Counter

from pathpoly import (
    ExactMatrix,
    Method,
    bit_label,
    circuit_unitary,
    compile_circuit,
    count_groebner,
    full_matrix,
    random_circuit,
    row_counts,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--circuits", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-qubits", type=int, default=4)
    parser.add_argument("--max-columns", type=int, default=6)
    parser.add_argument("--max-h", type=int, default=10)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    circuits = [
        random_circuit(rng, args.max_qubits, args.max_columns, args.max_h)
        for _ in range(args.circuits)
    ]
    print(f"{len(circuits)} circuits, h histogram:",
          dict(sorted(Counter(c.h for c in circuits).items())))

    timings = {}
    t0 = time.perf_counter()
    brute = [full_matrix(c, Method.BRUTE) for c in circuits]
    timings["brute"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    groeb = [full_matrix(c, Method.GB) for c in circuits]
    timings["groebner"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    oracle = [circuit_unitary(c) for c in circuits]
    timings["oracle"] = time.perf_counter() - t0

    mismatches = sum(
        not (mb == mg == tuple(u.report_rows()))
        for mb, mg, u in zip(brute, groeb, oracle)
    )
    print(f"matrix mismatches: {mismatches} / {len(circuits)}")

    conserved = counts_agree = unitary = 0
    for circuit, u in zip(circuits, oracle):
        n = circuit.n_qubits
        ps = compile_circuit(circuit)
        a = "0" * n
        pairs = row_counts(circuit, a)
        conserved += sum(p.n0 + p.n1 for p in pairs) == 1 << circuit.h
        gb = tuple(count_groebner(ps, a, bit_label(b, n)) for b in range(1 << n))
        counts_agree += gb == pairs
        unitary += (u.transpose() @ u) == ExactMatrix.identity(u.dim)
    print(f"path conservation holds: {conserved} / {len(circuits)}")
    print(f"GB counts = brute counts: {counts_agree} / {len(circuits)}")
    print(f"exact unitarity holds:   {unitary} / {len(circuits)}")
    for name, seconds in timings.items():
        print(f"{name:9s} {seconds:7.2f}s")
    failed = (
        mismatches
        or conserved < len(circuits)
        or counts_agree < len(circuits)
        or unitary < len(circuits)
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
