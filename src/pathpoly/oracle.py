"""Independent reference unitaries, built densely over Z[1/sqrt(2)].

The circuit unitary is the product of per-column unitaries, column 1 applied
first.  Each column factors into a multi-controlled-X permutation per
vertical chain (controls = the chain's source and multiply rows, target =
its add row) and a Hadamard on every H row; the factors act on disjoint
qubits, so they are applied to the accumulating product in any order.
Basis states are indexed big-endian: qubit 1 is the most significant bit.

This construction shares nothing with the sum-over-paths pipeline beyond the
Amplitude ring, which makes exact agreement of the two a meaningful check.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .amplitudes import AMP_ONE, AMP_ZERO, Amplitude
from .circuit import Circuit, Gate, column_chains
from .errors import CapExceeded

ORACLE_QUBIT_CAP = 10

_HALF_SQRT2 = Amplitude(1, 1)


@dataclass(frozen=True)
class ExactMatrix:
    """A square matrix of Amplitudes; entries[i][j] = <i|U|j>."""

    entries: tuple[tuple[Amplitude, ...], ...]

    def __post_init__(self) -> None:
        if any(len(row) != len(self.entries) for row in self.entries):
            raise ValueError("matrix must be square")

    @property
    def dim(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, dim: int) -> "ExactMatrix":
        return cls(
            tuple(
                tuple(AMP_ONE if i == j else AMP_ZERO for j in range(dim))
                for i in range(dim)
            )
        )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        cols = tuple(zip(*other.entries))
        return ExactMatrix(
            tuple(
                tuple(
                    sum((a * b for a, b in zip(row, col) if not a.is_zero), AMP_ZERO)
                    for col in cols
                )
                for row in self.entries
            )
        )

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(tuple(zip(*self.entries)))

    def report_rows(self) -> tuple[tuple[Amplitude, ...], ...]:
        """Entries reindexed as (row a, column b) = <b|U|a>, the report layout."""
        return self.transpose().entries

    def is_permutation(self) -> bool:
        """True when every row and column is a 0/1 unit vector."""
        one_positions = []
        for row in self.entries:
            ones = [j for j, amp in enumerate(row) if amp == AMP_ONE]
            if len(ones) != 1 or any(not a.is_zero for a in row if a != AMP_ONE):
                return False
            one_positions.append(ones[0])
        return len(set(one_positions)) == self.dim


def _apply_column(rows: list[list[Amplitude]], column: Sequence[Gate], n: int) -> None:
    """Left-multiply the accumulated matrix by one column's unitary, in place."""
    dim = len(rows)
    for chain in column_chains(column):
        cmask = 0
        for r in chain.controls:
            cmask |= 1 << (n - r)
        tmask = 1 << (n - chain.target)
        for i in range(dim):
            if i & cmask == cmask and not i & tmask:
                j = i | tmask
                rows[i], rows[j] = rows[j], rows[i]
    for r in range(1, n + 1):
        if column[r - 1] is Gate.HADAMARD:
            bit = 1 << (n - r)
            for i in range(dim):
                if not i & bit:
                    j = i | bit
                    top, bottom = rows[i], rows[j]
                    rows[i] = [(p + q) * _HALF_SQRT2 for p, q in zip(top, bottom)]
                    rows[j] = [(p - q) * _HALF_SQRT2 for p, q in zip(top, bottom)]


def column_unitary(column: Sequence[Gate], n: int) -> ExactMatrix:
    """The 2^n x 2^n unitary of a single validated column."""
    rows = [list(row) for row in ExactMatrix.identity(1 << n).entries]
    _apply_column(rows, column, n)
    return ExactMatrix(tuple(tuple(row) for row in rows))


def circuit_unitary(circuit: Circuit) -> ExactMatrix:
    """The full circuit unitary U = U_M ... U_1 (column 1 applied first)."""
    if circuit.n_qubits > ORACLE_QUBIT_CAP:
        raise CapExceeded(
            f"dense unitary over {circuit.n_qubits} qubits exceeds the cap of "
            f"{ORACLE_QUBIT_CAP}"
        )
    n = circuit.n_qubits
    rows = [list(row) for row in ExactMatrix.identity(1 << n).entries]
    for c in range(1, circuit.n_columns + 1):
        _apply_column(rows, circuit.column(c), n)
    return ExactMatrix(tuple(tuple(row) for row in rows))
