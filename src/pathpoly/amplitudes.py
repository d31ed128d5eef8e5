"""Exact transition amplitudes <b|U|a> = (N0 - N1)/sqrt(2)^h.

N0 and N1 count the path-variable assignments x that reach output b from
input a with phase 0 and 1 respectively.  Counting is available two ways,
each with one kernel: brute force over all 2^h assignments, as 2^h-bit truth
tables of the bound row and phase polynomials, and Groebner-based root
counting: N0 + N1 from the reduced basis of the bound rows, and N0 from that
basis extended by the phase, i.e. from F0; F1 is never built.  Amplitudes
live in the subring of Z[1/sqrt(2)] of values m * sqrt(2)^(-e); all
arithmetic is exact and no floating point appears anywhere.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .circuit import Circuit
from .compiler import PolySystem, compile_circuit, parse_bits
from .errors import CapExceeded
from .gf2poly import Poly, input_var
from .groebner import _check_root_count_cap, _count_standard, _gb_masks

BRUTE_HADAMARD_CAP = 24
MATRIX_QUBIT_CAP = 10


class Method(Enum):
    """Counting back end for amplitude computations."""

    BRUTE = "brute"
    GB = "gb"


@dataclass(frozen=True)
class Amplitude:
    """Exact value m * sqrt(2)^(-e), normalized so e is minimal.

    Normalization divides out factors of 2 (two units of e at a time), so
    equality of normalized values is exact equality in Z[1/sqrt(2)].  Zero
    is canonically (0, 0).
    """

    m: int
    e: int = 0

    def __post_init__(self) -> None:
        m, e = self.m, self.e
        if e < 0:
            raise ValueError("exponent e must be nonnegative")
        if m == 0:
            m, e = 0, 0
        else:
            while e >= 2 and m % 2 == 0:
                m //= 2
                e -= 2
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "e", e)

    @property
    def is_zero(self) -> bool:
        return self.m == 0

    def __add__(self, other: "Amplitude") -> "Amplitude":
        if not isinstance(other, Amplitude):
            return NotImplemented
        if self.m == 0:
            return other
        if other.m == 0:
            return self
        if (self.e - other.e) % 2:
            raise ValueError(
                f"cannot add {self} and {other}: sqrt(2) scales of different parity"
            )
        e = max(self.e, other.e)
        return Amplitude(
            (self.m << ((e - self.e) // 2)) + (other.m << ((e - other.e) // 2)), e
        )

    def __neg__(self) -> "Amplitude":
        return Amplitude(-self.m, self.e)

    def __sub__(self, other: "Amplitude") -> "Amplitude":
        if not isinstance(other, Amplitude):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Amplitude") -> "Amplitude":
        if not isinstance(other, Amplitude):
            return NotImplemented
        return Amplitude(self.m * other.m, self.e + other.e)

    def render(self) -> str:
        """Canonical text: 0, m, m/2^j, m/sqrt2, or m/(2^j*sqrt2)."""
        if self.m == 0:
            return "0"
        if self.e == 0:
            return str(self.m)
        j, odd = divmod(self.e, 2)
        if not odd:
            return f"{self.m}/{1 << j}"
        if j == 0:
            return f"{self.m}/√2"
        return f"{self.m}/({1 << j}·√2)"

    def __str__(self) -> str:
        return self.render()


AMP_ZERO = Amplitude(0)
AMP_ONE = Amplitude(1)


@dataclass(frozen=True)
class CountPair:
    """Path counts with phase 0 (n0) and phase 1 (n1)."""

    n0: int
    n1: int

    def __post_init__(self) -> None:
        if self.n0 < 0 or self.n1 < 0:
            raise ValueError("counts must be nonnegative")


def _bound_x_masks(
    ps: PolySystem, abits: Sequence[int]
) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """Bind a into the system and project monomial masks onto the x-block.

    Path variables occupy the high bits of the circuit universe, so after
    substituting the a_i every mask shifts right by 2n into a compact
    h-variable mask space with x_k on bit h-k.
    """
    bindings = {input_var(i): bit for i, bit in enumerate(abits, 1)}
    shift = 2 * ps.n
    rows = [
        tuple(m >> shift for m in p.substitute(bindings).monomial_masks)
        for p in ps.row_polys
    ]
    phase = tuple(m >> shift for m in ps.phase.substitute(bindings).monomial_masks)
    return rows, phase


def _bits(index: int, n: int) -> tuple[int, ...]:
    """Big-endian n-bit tuple of a basis index."""
    return tuple((index >> (n - 1 - i)) & 1 for i in range(n))


def _brute_tables(
    ps: PolySystem, a: "str | Sequence[int]"
) -> tuple[list[int], int, int]:
    """Bind a and tabulate every row and the phase over all 2^h assignments.

    Returns the row truth tables, the phase truth table and the all-ones
    table; bit sigma of a table is the polynomial's value at assignment sigma.
    """
    if ps.h > BRUTE_HADAMARD_CAP:
        raise CapExceeded(
            f"brute force over 2^{ps.h} assignments exceeds cap 2^{BRUTE_HADAMARD_CAP}"
        )
    rows, phase = _bound_x_masks(ps, parse_bits(a, ps.n, "a"))
    width = 1 << ps.h
    patterns = _truth_table_patterns(ps.h)
    row_tables = [_truth_table(masks, patterns, width) for masks in rows]
    return row_tables, _truth_table(phase, patterns, width), (1 << width) - 1


def _brute_pair(
    row_tables: Sequence[int], phase_table: int, full: int, bbits: Sequence[int]
) -> CountPair:
    """Count the assignments whose rows all match b, split by phase."""
    match = full
    for table, bit in zip(row_tables, bbits):
        match &= table if bit else table ^ full
    n1 = (match & phase_table).bit_count()
    return CountPair(match.bit_count() - n1, n1)


def count_bruteforce(
    ps: PolySystem, a: "str | Sequence[int]", b: "str | Sequence[int]"
) -> CountPair:
    """Enumerate all 2^h path assignments as truth tables and look up b."""
    tables = _brute_tables(ps, a)
    return _brute_pair(*tables, parse_bits(b, ps.n, "b"))


def _toggle_constant(masks: tuple[int, ...], bit: int) -> tuple[int, ...]:
    """XOR a constant 0/1 into a mask polynomial (constant monomial has mask 0)."""
    if not bit:
        return masks
    if masks and masks[-1] == 0:
        return masks[:-1]
    return (*masks, 0)


def _gb_pair(
    rows: Sequence[tuple[int, ...]],
    phase: tuple[int, ...],
    bbits: Sequence[int],
    h: int,
) -> CountPair:
    """Root counts of the bound F0 and F1 over the h compact path variables.

    N0 + N1 is the root count of the bound rows alone, so their basis is
    computed once and, unless the rows have no root, extended by the phase
    to count N0; N1 is the difference.
    """
    _check_root_count_cap(h)
    full = (1 << h) - 1
    f = [_toggle_constant(masks, bit) for masks, bit in zip(rows, bbits)]
    rows_basis = _gb_masks(f, h)
    total = _count_standard([g[0] for g in rows_basis], full)
    if total == 0:
        return CountPair(0, 0)
    n0 = _count_standard([g[0] for g in _gb_masks([phase], h, rows_basis)], full)
    return CountPair(n0, total - n0)


def count_groebner(
    ps: PolySystem, a: "str | Sequence[int]", b: "str | Sequence[int]"
) -> CountPair:
    """Count roots of the bound rows, then of F0, via Groebner bases."""
    abits = parse_bits(a, ps.n, "a")
    bbits = parse_bits(b, ps.n, "b")
    rows, phase = _bound_x_masks(ps, abits)
    return _gb_pair(rows, phase, bbits, ps.h)


def count_paths(
    ps: PolySystem,
    a: "str | Sequence[int]",
    b: "str | Sequence[int]",
    method: Method = Method.BRUTE,
) -> CountPair:
    """Count paths by the chosen method."""
    if method is Method.BRUTE:
        return count_bruteforce(ps, a, b)
    return count_groebner(ps, a, b)


def element(
    circuit: Circuit,
    a: "str | Sequence[int]",
    b: "str | Sequence[int]",
    method: Method = Method.BRUTE,
) -> Amplitude:
    """The exact matrix element <b|U|a> = (N0 - N1) * sqrt(2)^(-h)."""
    ps = compile_circuit(circuit)
    pair = count_paths(ps, a, b, method=method)
    return Amplitude(pair.n0 - pair.n1, ps.h)


def _truth_table_patterns(h: int) -> list[int]:
    """Pattern p: bit sigma is set iff bit p of sigma is set, over 2^h points."""
    width = 1 << h
    patterns = []
    for p in range(h):
        block = 1 << p
        period = ((1 << block) - 1) << block
        repeats = ((1 << width) - 1) // ((1 << (2 * block)) - 1)
        patterns.append(period * repeats)
    return patterns


def _truth_table(masks: Sequence[int], patterns: list[int], width: int) -> int:
    full = (1 << width) - 1
    table = 0
    for m in masks:
        indicator = full
        rest = m
        while rest:
            low = rest & -rest
            rest ^= low
            indicator &= patterns[low.bit_length() - 1]
        table ^= indicator
    return table


def row_counts(
    ps: PolySystem,
    a: "str | Sequence[int]",
    method: Method = Method.BRUTE,
) -> tuple[CountPair, ...]:
    """CountPairs for all 2^N outputs b (ascending big-endian), fixed input a.

    The brute path builds the truth tables once, as count_bruteforce does,
    and each b is an AND of matched row tables; the GB path computes the
    basis of the bound rows for every b and extends it by the phase.
    """
    outputs = range(1 << ps.n)
    if method is Method.GB:
        rows, phase = _bound_x_masks(ps, parse_bits(a, ps.n, "a"))
        return tuple(_gb_pair(rows, phase, _bits(b, ps.n), ps.h) for b in outputs)
    tables = _brute_tables(ps, a)
    return tuple(_brute_pair(*tables, _bits(b, ps.n)) for b in outputs)


def full_matrix(
    circuit: Circuit, method: Method = Method.BRUTE
) -> tuple[tuple[Amplitude, ...], ...]:
    """The 2^N x 2^N matrix of <b|U|a>: rows indexed by a, columns by b."""
    if circuit.n_qubits > MATRIX_QUBIT_CAP:
        raise CapExceeded(
            f"matrix over {circuit.n_qubits} qubits exceeds the cap of {MATRIX_QUBIT_CAP}"
        )
    ps = compile_circuit(circuit)
    matrix = []
    for aidx in range(1 << ps.n):
        pairs = row_counts(ps, _bits(aidx, ps.n), method=method)
        matrix.append(tuple(Amplitude(p.n0 - p.n1, ps.h) for p in pairs))
    return tuple(matrix)


def bit_label(index: int, n: int) -> str:
    """Big-endian bit string of length n for a basis index."""
    return format(index, f"0{n}b") if n else ""


def render_matrix_table(matrix: Sequence[Sequence[Amplitude]], n: int) -> str:
    """Aligned text table: rows labeled by a, columns by b, big-endian."""
    labels = [bit_label(i, n) for i in range(1 << n)]
    cells = [[amp.render() for amp in row] for row in matrix]
    widths = [
        max(len(labels[j]), max(len(row[j]) for row in cells)) for j in range(len(labels))
    ]
    head_width = max(len("a\\b"), n)
    lines = ["  ".join(["a\\b".ljust(head_width)] + [l.rjust(w) for l, w in zip(labels, widths)])]
    for label, row in zip(labels, cells):
        lines.append("  ".join([label.ljust(head_width)] + [c.rjust(w) for c, w in zip(row, widths)]))
    return "\n".join(lines) + "\n"


def render_matrix_json(matrix: Sequence[Sequence[Amplitude]]) -> str:
    """JSON array of rows of rendered amplitude strings."""
    return json.dumps([[amp.render() for amp in row] for row in matrix], ensure_ascii=False)
