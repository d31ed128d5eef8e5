"""Independent reference unitaries, built densely in integers.

Each H cell scales a Hadamard/Toffoli circuit's unitary by 1/sqrt(2), so
U = M / sqrt(2)^h with M an integer matrix: the product of per-column
factors, column 1 applied first.  A column factors into a multi-controlled-X
permutation per vertical chain (controls = the chain's source and multiply
rows, target = its add row) and an unscaled Hadamard [[1, 1], [1, -1]] on
every H row; the factors act on disjoint qubits, so their order is free.
Basis states are indexed big-endian: qubit 1 is the most significant bit.

This construction shares only the column decomposition (Circuit.steps) with
the sum-over-paths pipeline, and hands out its entries as Amplitudes
(report_rows).  It never forms a polynomial, which makes exact agreement of
the two a meaningful check of the compiler and the counting back ends.
"""
from __future__ import annotations

from dataclasses import dataclass

from .amplitudes import Amplitude
from .circuit import Circuit
from .errors import CapExceeded

ORACLE_QUBIT_CAP = 10


@dataclass(frozen=True)
class ExactMatrix:
    """A square matrix entries / sqrt(2)^e; entries[i][j] / sqrt(2)^e = <i|U|j>.

    Normalized as Amplitude is: while e >= 2 and every entry is even, all
    entries are halved and e drops by 2; the zero matrix has e = 0.  So
    equality of normalized matrices is exact equality over Z[1/sqrt(2)].
    """

    entries: tuple[tuple[int, ...], ...]
    e: int = 0

    def __post_init__(self) -> None:
        entries, e = self.entries, self.e
        if any(len(row) != len(entries) for row in entries):
            raise ValueError("matrix must be square")
        if e < 0:
            raise ValueError("exponent e must be nonnegative")
        bits = 0
        for row in entries:
            for m in row:
                bits |= m
        k = min((bits & -bits).bit_length() - 1, e // 2) if bits else 0
        if k:
            entries = tuple(tuple(m >> k for m in row) for row in entries)
            object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "e", e - 2 * k if bits else 0)

    @property
    def dim(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, dim: int) -> "ExactMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim)))

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        cols = tuple(zip(*other.entries))
        return ExactMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.entries
            ),
            self.e + other.e,
        )

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(tuple(zip(*self.entries)), self.e)

    def report_rows(self) -> tuple[tuple[Amplitude, ...], ...]:
        """Entries reindexed as (row a, column b) = <b|U|a>, the report layout."""
        return tuple(tuple(Amplitude(m, self.e) for m in col) for col in zip(*self.entries))

    def is_permutation(self) -> bool:
        """True when e == 0 and the rows are those of the identity, reordered."""
        return self.e == 0 and sorted(self.entries) == sorted(self.identity(self.dim).entries)


def circuit_unitary(circuit: Circuit) -> ExactMatrix:
    """The full circuit unitary U = U_M ... U_1 (column 1 applied first).

    Each column left-multiplies the accumulated integer rows in place; the
    scale sqrt(2)^(-h) is attached once, at the end.
    """
    n = circuit.n_qubits
    if n > ORACLE_QUBIT_CAP:
        raise CapExceeded(
            f"dense unitary over {n} qubits exceeds the cap of {ORACLE_QUBIT_CAP}"
        )
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
