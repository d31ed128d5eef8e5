#!/usr/bin/env python3
"""Random-circuit agreement experiment.

Samples random valid circuits, computes the full matrix by brute-force
counting, by Groebner counting and by the dense oracle, and reports exact
agreement plus timing and structural-invariant statistics.  Amplitudes
are only N0 - N1, so the N0/N1 counts of the all-zeros input row are also
compared between brute force and Groebner counting.  Each circuit C is also
mirrored: C followed by its columns in reverse order is the identity, since
every column is its own inverse, so <a|U|a> = 1 and <b|U|a> = 0 for b != a
at twice the h.  Brute force checks that for a = 0...0 and for one drawn a,
and Groebner counting does too while the mirror's h is within --max-h, the
budget the sweep already gives Groebner counting (Buchberger has no work
bound, and some mirrors with h of 16 to 20 take minutes).  Exits 1 when any
matrix mismatch, count mismatch, conservation failure, unitarity failure or
mirror miss occurs.
"""
from __future__ import annotations

import argparse
import random
import sys
import time
from collections import Counter

from pathpoly import (
    Amplitude,
    Circuit,
    ExactMatrix,
    Method,
    bit_label,
    circuit_unitary,
    count_groebner,
    element,
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

    mismatches = sum(not (mb == mg == u) for mb, mg, u in zip(brute, groeb, oracle))
    print(f"matrix mismatches: {mismatches} / {len(circuits)}")

    conserved = counts_agree = unitary = 0
    for circuit, u in zip(circuits, oracle):
        n = circuit.n_qubits
        a = "0" * n
        pairs = row_counts(circuit, a)
        conserved += sum(p.n0 + p.n1 for p in pairs) == 1 << circuit.h
        gb = tuple(count_groebner(circuit, a, bit_label(b, n)) for b in range(1 << n))
        counts_agree += gb == pairs
        unitary += (u.transpose() @ u) == ExactMatrix.identity(u.dim)
    print(f"path conservation holds: {conserved} / {len(circuits)}")
    print(f"GB counts = brute counts: {counts_agree} / {len(circuits)}")
    print(f"exact unitarity holds:   {unitary} / {len(circuits)}")
    t0 = time.perf_counter()
    mirror_ok = mirror_checks = 0
    for c in circuits:
        n = c.n_qubits
        mirror = Circuit(n, 2 * c.n_columns, tuple(row + row[::-1] for row in c.grid))
        methods = [Method.BRUTE]
        if mirror.h <= args.max_h:
            methods.append(Method.GB)
        for a in (0, rng.randrange(1 << n)):
            b = a ^ rng.randrange(1, 1 << n)
            for method in methods:
                for out, expected in ((a, Amplitude(1)), (b, Amplitude(0))):
                    amp = element(mirror, bit_label(a, n), bit_label(out, n), method)
                    mirror_ok += amp == expected
                    mirror_checks += 1
    timings["mirror"] = time.perf_counter() - t0
    print(f"mirror identity holds: {mirror_ok} / {mirror_checks}")
    for name, seconds in timings.items():
        print(f"{name:9s} {seconds:7.2f}s")
    failed = (
        mismatches
        or conserved < len(circuits)
        or counts_agree < len(circuits)
        or unitary < len(circuits)
        or mirror_ok < mirror_checks
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
