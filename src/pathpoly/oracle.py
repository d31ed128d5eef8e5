"""Independent reference unitaries, built densely in integers.

Each H cell scales a Hadamard/Toffoli circuit's unitary by 1/sqrt(2), so
U = M / sqrt(2)^h with M an integer matrix: the product of per-column
factors, column 1 applied first.  A column factors into a multi-controlled-X
permutation per vertical chain (controls = the chain's source and multiply
rows, target = its add row) and an unscaled Hadamard [[1, 1], [1, -1]] on
every H row; the factors act on disjoint qubits, so their order is free.
Basis states are indexed big-endian: qubit 1 is the most significant bit.

This construction shares only the column decomposition (Circuit.steps) with
the sum-over-paths pipeline, and returns the same ExactMatrix (defined in
amplitudes) that amplitudes.full_matrix does, under the same qubit cap.  It
never forms a polynomial, which makes exact agreement of the two a
meaningful check of the compiler and the counting back ends.
"""
from __future__ import annotations

from .amplitudes import ExactMatrix, _check_matrix_cap
from .circuit import Circuit


def circuit_unitary(circuit: Circuit) -> ExactMatrix:
    """The full circuit unitary U = U_M ... U_1 (column 1 applied first).

    Each column left-multiplies the accumulated integer rows in place; the
    scale sqrt(2)^(-h) is attached once, at the end.
    """
    n = circuit.n_qubits
    _check_matrix_cap(n)
    dim = 1 << n
    rows = [list(row) for row in ExactMatrix.identity(dim).entries]
    for chains, hadamards in circuit.steps:
        for chain in chains:
            cmask = 0
            for r in chain.controls:
                cmask |= 1 << (n - r)
            tmask = 1 << (n - chain.target)
            for i in range(dim):
                if i & cmask == cmask and not i & tmask:
                    j = i | tmask
                    rows[i], rows[j] = rows[j], rows[i]
        for r in hadamards:
            bit = 1 << (n - r)
            for i in range(dim):
                if not i & bit:
                    j = i | bit
                    top, bottom = rows[i], rows[j]
                    rows[i] = [p + q for p, q in zip(top, bottom)]
                    rows[j] = [p - q for p, q in zip(top, bottom)]
    return ExactMatrix(tuple(map(tuple, rows)), circuit.h)
