"""Rectangular circuit grids over the nine elementary cell gates.

A circuit is an N x M table of gates, one row per qubit and one column per
time step.  Within a column, vertical signals implement multi-controlled-X
logic: a source cell (Iv or I^) emits its row value toward the target, pass
and multiply cells forward it, and an add cell (Av or A^) XORs it into its
own row.  Every signal must be produced and consumed exactly once, which
column_chains checks while it collects the chains.  H cells are scalar and
never interact with vertical signals.  A Circuit decodes each column once, at
construction: Circuit.steps holds its chains and Hadamard rows, and the
compiler and the dense oracle read them from there.

Gate tokens (case-sensitive): I, I+, Iv, I^, Mv, M^, Av, A^, H.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence


class Gate(Enum):
    """The nine cell-level gates."""

    IDENTITY = "I"
    CROSS = "I+"
    EMIT_DOWN = "Iv"
    EMIT_UP = "I^"
    MUL_DOWN = "Mv"
    MUL_UP = "M^"
    ADD_DOWN = "Av"
    ADD_UP = "A^"
    HADAMARD = "H"


class CircuitError(Exception):
    """Base class for circuit construction and validation failures."""


class CircuitSyntaxError(CircuitError):
    """Malformed circuit text; carries the offending line (and token column)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", token {column}"
            where += ": "
        super().__init__(where + message)


class BrokenChain(CircuitError):
    """A vertical signal was produced or consumed incorrectly.

    reason is one of: 'missing-source', 'missing-sink', 'blocked-by <token>',
    'dangling-emitter'.  Rows and columns are 1-based.
    """

    def __init__(self, column: int, row: int, reason: str):
        self.column = column
        self.row = row
        self.reason = reason
        super().__init__(f"column {column}, row {row}: {reason}")


class PlacementUnsupported(CircuitError):
    """Requested placement cannot be expressed in a single column."""


class PlacementConflict(CircuitError):
    """Requested placement would overwrite a non-identity cell."""


@dataclass(frozen=True, slots=True)
class Chain:
    """One vertical signal: source row, multiply rows, and the add-gate target.

    controls lists the rows whose values are multiplied into the signal
    (the source row plus all multiply rows), ascending.
    """

    source: int
    target: int
    controls: tuple[int, ...]
    descending: bool


# (emit, multiply, add) gates of a chain, by direction (descending or not)
_CHAIN_GATES = {
    True: (Gate.EMIT_DOWN, Gate.MUL_DOWN, Gate.ADD_DOWN),
    False: (Gate.EMIT_UP, Gate.MUL_UP, Gate.ADD_UP),
}


def _sweep(column: Sequence[Gate], column_index: int, descending: bool) -> list[Chain]:
    """Simulate one signal direction down (or up) a column, collecting chains."""
    n = len(column)
    rows = range(1, n + 1) if descending else range(n, 0, -1)
    source_gate, mul_gate, add_gate = _CHAIN_GATES[descending]
    chains: list[Chain] = []
    source: int | None = None
    muls: list[int] = []
    for r in rows:
        g = column[r - 1]
        if g is source_gate:
            if source is not None:
                raise BrokenChain(column_index, r, f"blocked-by {g.value}")
            source = r
            muls = []
        elif g is mul_gate:
            if source is None:
                raise BrokenChain(column_index, r, "missing-source")
            muls.append(r)
        elif g is add_gate:
            if source is None:
                raise BrokenChain(column_index, r, "missing-source")
            chains.append(
                Chain(source, r, tuple(sorted([source, *muls])), descending)
            )
            source = None
        elif g is Gate.CROSS:
            pass
        elif source is not None:
            raise BrokenChain(column_index, r, f"blocked-by {g.value}")
    if source is not None:
        reason = "dangling-emitter" if source == rows[-1] else "missing-sink"
        raise BrokenChain(column_index, rows[-1], reason)
    return chains


def column_chains(column: Sequence[Gate], column_index: int = 1) -> tuple[Chain, ...]:
    """All vertical chains of a column, sorted by source row.

    Raises BrokenChain unless every vertical signal is well-formed.
    """
    down = _sweep(column, column_index, descending=True)
    up = _sweep(column, column_index, descending=False)
    return tuple(sorted(down + up, key=lambda ch: ch.source))


@dataclass(frozen=True)
class Circuit:
    """An immutable N x M gate grid; grid[r][c] is qubit row r+1, column c+1.

    Construction validates every column and keeps the result in steps: per
    column, left to right, its chains and its Hadamard rows (ascending).  h
    counts the Hadamard cells; path variables are numbered 1..h column-major,
    top to bottom.
    """

    n_qubits: int
    n_columns: int
    grid: tuple[tuple[Gate, ...], ...]
    steps: tuple[tuple[tuple[Chain, ...], tuple[int, ...]], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.n_qubits < 1 or self.n_columns < 1:
            raise ValueError("circuit dimensions must be positive")
        if len(self.grid) != self.n_qubits or any(
            len(row) != self.n_columns for row in self.grid
        ):
            raise ValueError("grid shape does not match declared dimensions")
        steps = []
        for c, column in enumerate(zip(*self.grid), 1):
            hadamards = []
            for r, g in enumerate(column, 1):
                if g is Gate.HADAMARD:
                    hadamards.append(r)
                elif not isinstance(g, Gate):
                    raise ValueError(f"column {c}, row {r}: {g!r} is not a Gate")
            steps.append((column_chains(column, c), tuple(hadamards)))
        object.__setattr__(self, "steps", tuple(steps))

    @classmethod
    def empty(cls, n_qubits: int, n_columns: int) -> "Circuit":
        row = (Gate.IDENTITY,) * n_columns
        return cls(n_qubits, n_columns, (row,) * n_qubits)

    def column(self, c: int) -> tuple[Gate, ...]:
        """Gates of 1-based column c, top to bottom."""
        c = _index("column", c, self.n_columns)
        return tuple(row[c] for row in self.grid)

    def gate_at(self, row: int, column: int) -> Gate:
        return self.column(column)[_index("row", row, self.n_qubits)]

    @property
    def h(self) -> int:
        """Number of Hadamard cells."""
        return sum(len(hadamards) for _, hadamards in self.steps)


def _index(kind: str, i: int, size: int) -> int:
    """The 0-based index of a 1-based row or column i; ValueError off the grid."""
    if not 1 <= i <= size:
        raise ValueError(f"{kind} {i} out of range 1..{size}")
    return i - 1


def _place(circuit: Circuit, column: int, cells: Iterable[tuple[int, Gate]]) -> Circuit:
    """A copy of circuit with the (row, gate) cells written into one column.

    Each cell must lie on the grid and hold an identity gate.  Cells are
    checked as they come, so rows that run off the grid stop at the first one.
    """
    c = _index("column", column, circuit.n_columns)
    grid = [list(row) for row in circuit.grid]
    for r, g in cells:
        row = grid[_index("row", r, circuit.n_qubits)]
        if row[c] is not Gate.IDENTITY:
            raise PlacementConflict(f"column {column}, row {r} already holds {row[c].value}")
        row[c] = g
    return Circuit(circuit.n_qubits, circuit.n_columns, tuple(map(tuple, grid)))


def place_toffoli(circuit: Circuit, column: int, controls: Iterable[int], target: int) -> Circuit:
    """Place a multi-controlled-X as one vertical chain in the given column.

    The control farthest from the target becomes the signal source (Iv or
    I^), remaining controls multiply (Mv or M^), intervening non-control rows
    pass (I+), and the target adds (Av or A^).  The target must lie strictly
    above or strictly below every control.
    """
    ctrl = sorted(set(controls))
    if not ctrl:
        raise ValueError("at least one control row is required")
    if target in ctrl:
        raise ValueError(f"target row {target} is also a control")
    if target > ctrl[-1]:
        descending, source = True, ctrl[0]
    elif target < ctrl[0]:
        descending, source = False, ctrl[-1]
    else:
        raise PlacementUnsupported(
            f"target row {target} lies between controls {ctrl}; "
            "a single-column chain must be monotone"
        )
    emit, mul, add = _CHAIN_GATES[descending]
    ends = {source: emit, target: add}
    lo, hi = sorted(ends)
    cells = (
        (r, ends.get(r, mul if r in ctrl else Gate.CROSS)) for r in range(lo, hi + 1)
    )
    return _place(circuit, column, cells)


def place_hadamard(circuit: Circuit, column: int, row: int) -> Circuit:
    """Place an H cell on an identity cell."""
    return _place(circuit, column, [(row, Gate.HADAMARD)])


def _parse_header(line_no: int, tokens: list[str], keyword: str) -> int:
    value = 0
    if len(tokens) == 2 and tokens[0] == keyword and re.fullmatch(r"[0-9]+", tokens[1]):
        try:
            value = int(tokens[1])
        except ValueError:  # more digits than CPython's int() converts
            pass
    if value < 1:
        raise CircuitSyntaxError(f"expected '{keyword} <positive integer>'", line=line_no)
    return value


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented circuit format.

    Two header lines ('qubits N', 'columns M') followed by N rows of M
    whitespace-separated gate tokens; '#' starts a comment.
    """
    lines: list[tuple[int, list[str]]] = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            lines.append((line_no, tokens))
    if len(lines) < 2:
        raise CircuitSyntaxError("missing 'qubits' and 'columns' header lines", line=1)
    n = _parse_header(*lines[0], "qubits")
    m = _parse_header(*lines[1], "columns")
    rows = lines[2:]
    if len(rows) != n:
        bad_line = rows[n][0] if len(rows) > n else lines[-1][0]
        raise CircuitSyntaxError(f"expected {n} grid rows, found {len(rows)}", line=bad_line)
    grid: list[tuple[Gate, ...]] = []
    for line_no, tokens in rows:
        if len(tokens) != m:
            raise CircuitSyntaxError(
                f"expected {m} gate tokens, found {len(tokens)}", line=line_no
            )
        row: list[Gate] = []
        for col_no, token in enumerate(tokens, 1):
            try:
                row.append(Gate(token))
            except ValueError:
                raise CircuitSyntaxError(
                    f"unknown gate token {token!r}", line=line_no, column=col_no
                ) from None
        grid.append(tuple(row))
    return Circuit(n, m, tuple(grid))


def format_circuit(circuit: Circuit) -> str:
    """Render a circuit in the text format; parse(format(c)) == c."""
    widths = [
        max(len(circuit.grid[r][c].value) for r in range(circuit.n_qubits))
        for c in range(circuit.n_columns)
    ]
    lines = [f"qubits {circuit.n_qubits}", f"columns {circuit.n_columns}"]
    for row in circuit.grid:
        lines.append("  ".join(g.value.ljust(w) for g, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def random_circuit(
    rng: random.Random,
    max_qubits: int = 4,
    max_columns: int = 6,
    max_h: int = 10,
) -> Circuit:
    """Generate a random valid circuit by sampling column segments.

    Each column is built top-down from independent segments: identity cells,
    H cells (limited by a per-circuit budget drawn from 0..max_h), bare
    crosses, and monotone chains with random direction, multiply/pass
    interiors.  Every grammar production is exercised, including multi-control
    chains and multiple chains per column.
    """
    n = rng.randint(1, max_qubits)
    m = rng.randint(1, max_columns)
    h_left = rng.randint(0, max_h)
    columns: list[list[Gate]] = []
    for _ in range(m):
        col: list[Gate] = []
        while len(col) < n:
            room = n - len(col)
            kinds = ["I", "I", "I+"]
            if h_left > 0:
                kinds += ["H"] * 4
            if room >= 2:
                kinds += ["chain"] * 4
            kind = rng.choice(kinds)
            if kind == "chain":
                length = rng.randint(2, room)
                descending = rng.random() < 0.5
                emit, mul, add = _CHAIN_GATES[descending]
                interior = [rng.choice([Gate.CROSS, mul]) for _ in range(length - 2)]
                col += [emit, *interior, add] if descending else [add, *interior, emit]
            elif kind == "H":
                col.append(Gate.HADAMARD)
                h_left -= 1
            else:
                col.append(Gate(kind))
        columns.append(col)
    grid = tuple(tuple(columns[c][r] for c in range(m)) for r in range(n))
    return Circuit(n, m, grid)
