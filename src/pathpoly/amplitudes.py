"""Exact transition amplitudes <b|U|a> = (N0 - N1)/sqrt(2)^h.

N0 and N1 count the path-variable assignments x that reach output b from
input a with phase 0 and 1 respectively.  Counting is available two ways,
each with one kernel.  Brute force never compiles: it walks Circuit.steps on
2^h-bit truth tables, so it checks the compiled system independently and the
compile cap does not bind it.  Groebner-based root counting first solves the
compiled, bound rows for every path variable that one of them fixes linearly
and substitutes it away; on the residual system it takes N0 + N1 from the
reduced basis of the rows, and N0 from that basis extended by the phase,
i.e. from F0; F1 is never built.
An Amplitude is a value m * sqrt(2)^(-e) of Z[1/sqrt(2)], built once from a
count difference and kept normalized to compare and render; nothing adds or
multiplies amplitudes, and no floating point appears anywhere.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .circuit import Circuit
from .compiler import PolySystem, compile_circuit, parse_bits
from .errors import CapExceeded
from .gf2poly import _mul_mono, input_var
from .groebner import _count_standard, _gb_masks

BRUTE_HADAMARD_CAP = 24
MATRIX_QUBIT_CAP = 10
ROOT_COUNT_VARIABLE_CAP = 20


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


def _brute_tables(circuit: Circuit, abits: Sequence[int]) -> tuple[list[int], int, int]:
    """Simulate all 2^h paths at once by walking the columns on truth tables.

    Bit sigma of a table is a row's (or the phase's) value on the path with
    assignment sigma, x_k on bit h-k.  A chain XORs the AND of its controls
    into its target, and the k-th H cell adds row*x_k to the phase and sets
    its row to x_k.  The cells of a column hold distinct rows, so updating in
    place reads the column's input state.  Returns the row tables, the phase
    table and the all-ones table.
    """
    h = circuit.h
    if h > BRUTE_HADAMARD_CAP:
        raise CapExceeded(
            f"brute force over 2^{h} assignments exceeds cap 2^{BRUTE_HADAMARD_CAP}"
        )
    full = (1 << (1 << h)) - 1
    patterns = _truth_table_patterns(h)
    rows = [full if bit else 0 for bit in abits]
    phase = 0
    k = h
    for chains, hadamards in circuit.steps:
        for chain in chains:
            signal = full
            for r in chain.controls:
                signal &= rows[r - 1]
            rows[chain.target - 1] ^= signal
        for r in hadamards:
            k -= 1
            phase ^= rows[r - 1] & patterns[k]
            rows[r - 1] = patterns[k]
    return rows, phase, full


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
    circuit: Circuit, a: "str | Sequence[int]", b: "str | Sequence[int]"
) -> CountPair:
    """Simulate all 2^h paths from a as truth tables and look up b."""
    abits = parse_bits(a, circuit.n_qubits, "a")
    bbits = parse_bits(b, circuit.n_qubits, "b")
    return _brute_pair(*_brute_tables(circuit, abits), bbits)


def _substitute(p: set[int], v: int, g: set[int]) -> None:
    """Replace the one-bit monomial v by the polynomial g in p, in place.

    Each monomial m containing v becomes (m without v) * g, XOR-accumulated;
    g must not mention v.
    """
    for m in [m for m in p if m & v]:
        p.remove(m)
        p ^= _mul_mono(g, m ^ v)


def _solve_linear(
    polys: list[set[int]], phase: tuple[int, ...], h: int
) -> "tuple[list[set[int]], set[int], int] | None":
    """Solve the rows for every path variable that one of them fixes.

    A row e in which the one-bit monomial v is the only monomial containing
    v reads v + g with g free of v, so every root has v = g: e is dropped,
    v := g is substituted in the other rows and in the phase, and v leaves
    the free mask.  Each root of the residual rows over the free variables
    extends to exactly one root of the input rows, with the same phase, so
    both counts survive.  Pivots are the first solvable row and its highest
    solvable v.  Returns (residual rows, phase, free mask), or None when a
    row is the constant 1 and nothing is a root.  It consumes the row sets.
    """
    phi = set(phase)
    free = (1 << h) - 1
    while True:
        polys = [p for p in polys if p]
        if {0} in polys:
            return None
        for i, e in enumerate(polys):
            cover = 0
            for m in e:
                if m & (m - 1):
                    cover |= m
            pivots = [m for m in e if m and not m & (m - 1) and not m & cover]
            if pivots:
                break
        else:
            return polys, phi, free
        v = max(pivots)
        g = polys.pop(i)
        g.remove(v)
        free &= ~v
        for p in (*polys, phi):
            _substitute(p, v, g)


def _gb_pair(
    rows: Sequence[tuple[int, ...]],
    phase: tuple[int, ...],
    bbits: Sequence[int],
    h: int,
) -> CountPair:
    """Root counts of the bound F0 and F1 over the h compact path variables.

    The rows are first solved for the variables they fix (_solve_linear),
    and only the residual system reaches Buchberger.  N0 + N1 is the root
    count of the residual rows over the free variables, so their basis is
    computed once and, unless the rows have no root, extended by the
    substituted phase to count N0; N1 is the difference.  A free variable
    that occurs nowhere is a free leaf of the count, a factor 2.
    """
    if h > ROOT_COUNT_VARIABLE_CAP:
        raise CapExceeded(
            f"root counting over {h} variables exceeds the cap of {ROOT_COUNT_VARIABLE_CAP}"
        )
    bound = [set(masks) ^ {0} if bit else set(masks) for masks, bit in zip(rows, bbits)]
    solved = _solve_linear(bound, phase, h)
    if solved is None:
        return CountPair(0, 0)
    f, phi, free = solved
    rows_basis = _gb_masks(f, h)
    total = _count_standard([g[0] for g in rows_basis], free)
    if total == 0:
        return CountPair(0, 0)
    n0 = _count_standard([g[0] for g in _gb_masks([phi], h, rows_basis)], free)
    return CountPair(n0, total - n0)


def count_groebner(
    ps: PolySystem, a: "str | Sequence[int]", b: "str | Sequence[int]"
) -> CountPair:
    """Count roots of the bound rows, then of F0, via Groebner bases.

    The linearly fixed path variables are solved for first, so only the
    residual system reaches Buchberger (see _gb_pair).
    """
    abits = parse_bits(a, ps.n, "a")
    bbits = parse_bits(b, ps.n, "b")
    rows, phase = _bound_x_masks(ps, abits)
    return _gb_pair(rows, phase, bbits, ps.h)


def count_paths(
    circuit: Circuit,
    a: "str | Sequence[int]",
    b: "str | Sequence[int]",
    method: Method = Method.BRUTE,
) -> CountPair:
    """Count paths by the chosen method; only the Groebner method compiles."""
    if method is Method.BRUTE:
        return count_bruteforce(circuit, a, b)
    return count_groebner(compile_circuit(circuit), a, b)


def element(
    circuit: Circuit,
    a: "str | Sequence[int]",
    b: "str | Sequence[int]",
    method: Method = Method.BRUTE,
) -> Amplitude:
    """The exact matrix element <b|U|a> = (N0 - N1) * sqrt(2)^(-h)."""
    pair = count_paths(circuit, a, b, method=method)
    return Amplitude(pair.n0 - pair.n1, circuit.h)


def _truth_table_patterns(h: int) -> list[int]:
    """Pattern p: bit sigma is set iff bit p of sigma is set, over 2^h points."""
    width = 1 << h
    patterns = []
    for p in range(h):
        block = 1 << p
        pattern = ((1 << block) - 1) << block
        span = 2 * block
        while span < width:
            pattern |= pattern << span
            span *= 2
        patterns.append(pattern)
    return patterns


def row_counts(circuit: Circuit, a: "str | Sequence[int]") -> tuple[CountPair, ...]:
    """Brute-force CountPairs for all 2^N outputs b (ascending big-endian).

    The truth tables are built once, as count_bruteforce does, and each b
    is an AND of matched row tables.
    """
    n = circuit.n_qubits
    tables = _brute_tables(circuit, parse_bits(a, n, "a"))
    return tuple(_brute_pair(*tables, _bits(b, n)) for b in range(1 << n))


def _gb_row_counts(ps: PolySystem, abits: Sequence[int]) -> tuple[CountPair, ...]:
    """Groebner CountPairs for all 2^N outputs b, binding a once."""
    rows, phase = _bound_x_masks(ps, abits)
    return tuple(_gb_pair(rows, phase, _bits(b, ps.n), ps.h) for b in range(1 << ps.n))


def full_matrix(
    circuit: Circuit, method: Method = Method.BRUTE
) -> tuple[tuple[Amplitude, ...], ...]:
    """The 2^N x 2^N matrix of <b|U|a>: rows indexed by a, columns by b."""
    n, h = circuit.n_qubits, circuit.h
    if n > MATRIX_QUBIT_CAP:
        raise CapExceeded(f"matrix over {n} qubits exceeds the cap of {MATRIX_QUBIT_CAP}")
    inputs = (_bits(a, n) for a in range(1 << n))
    if method is Method.GB:
        ps = compile_circuit(circuit)
        rows = (_gb_row_counts(ps, abits) for abits in inputs)
    else:
        rows = (row_counts(circuit, abits) for abits in inputs)
    return tuple(tuple(Amplitude(p.n0 - p.n1, h) for p in pairs) for pairs in rows)


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
