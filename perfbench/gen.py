"""Seeded circuit generators and an independent classical column simulator.

Nothing here imports pathpoly: the generators build circuit text and the
queries on it, and the simulator predicts row values and phases from the
benchmark's own record of each column, so outputs can be checked without
trusting the program under test.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Column:
    """One grid column: H rows, and Toffoli chains as (controls, target).

    Rows are 0-based.  Chains occupy disjoint row spans and never cover an
    H row.
    """

    hrows: tuple[int, ...]
    chains: tuple[tuple[tuple[int, ...], int], ...]


@dataclass(frozen=True)
class GenCircuit:
    n: int
    columns: tuple[Column, ...]

    @property
    def h(self) -> int:
        return sum(len(col.hrows) for col in self.columns)

    def text(self) -> str:
        """The circuit in pathpoly's grid format."""
        grid = [["I"] * len(self.columns) for _ in range(self.n)]
        for c, col in enumerate(self.columns):
            for r in col.hrows:
                grid[r][c] = "H"
            for controls, target in col.chains:
                down = target > controls[-1]
                lo, hi = (controls[0], target) if down else (target, controls[-1])
                for r in range(lo, hi + 1):
                    grid[r][c] = "I+"
                for r in controls:
                    grid[r][c] = "Mv" if down else "M^"
                grid[controls[0] if down else controls[-1]][c] = "Iv" if down else "I^"
                grid[target][c] = "Av" if down else "A^"
        body = "\n".join(" ".join(row) for row in grid)
        return f"qubits {self.n}\ncolumns {len(self.columns)}\n{body}\n"


def simulate(circ: GenCircuit, a: list[int], xs: list[int]) -> tuple[list[int], int]:
    """Row values and phase bit of the path with inputs a and H choices xs.

    Each chain XORs the AND of its controls (read from the column's input
    state) into its target; each H row takes the next path bit x_k, in
    column-major top-to-bottom order, and adds row*x_k to the phase.
    """
    state, phase, k = list(a), 0, 0
    for col in circ.columns:
        new = list(state)
        for controls, target in col.chains:
            new[target] ^= all(state[r] for r in controls)
        for r in col.hrows:
            phase ^= state[r] & xs[k]
            new[r] = xs[k]
            k += 1
        state = new
    return state, phase


def _chains(rng: random.Random, free: list[int], density: float, max_len: int) -> list:
    """Chains over maximal runs of consecutive free rows."""
    chains = []
    runs, run = [], []
    for r in free:
        if run and r != run[-1] + 1:
            runs.append(run)
            run = []
        run.append(r)
    runs.append(run)
    for run in runs:
        i = 0
        while len(run) - i >= 2:
            if rng.random() >= density:
                i += 1
                continue
            length = rng.randint(2, min(max_len, len(run) - i))
            span = run[i : i + length]
            i += length
            down = rng.random() < 0.5
            target = span[-1] if down else span[0]
            ends = span[0] if down else span[-1]
            inner = [r for r in span[1:-1] if rng.random() < 0.7]
            chains.append((tuple(sorted([ends, *inner])), target))
    return chains


def random_gen_circuit(
    rng: random.Random,
    n: int,
    m: int,
    h: int,
    density: float = 0.6,
    max_len: int = 4,
    support_cap: "int | None" = None,
) -> GenCircuit:
    """An n-qubit, m-column circuit with exactly h H cells.

    H cells land on random (row, column) cells; the remaining rows of each
    column get multi-control chains with probability density per free run.
    With support_cap, a chain is dropped when it would make its target
    depend on more than that many inputs and path variables, which bounds
    every row polynomial to 2^support_cap terms.
    """
    if h > n * m:
        raise ValueError(f"cannot place {h} H cells in a {n}x{m} grid")
    cells = rng.sample(range(n * m), h)
    hrows = [[] for _ in range(m)]
    for cell in cells:
        hrows[cell // n].append(cell % n)
    support = [1 << r for r in range(n)]  # bit r: a_{r+1}; bit n+k: x_{k+1}
    fresh = n
    columns = []
    for c in range(m):
        hs = sorted(hrows[c])
        chains = []
        new = list(support)
        for controls, target in _chains(rng, [r for r in range(n) if r not in hs], density, max_len):
            grown = support[target]
            for r in controls:
                grown |= support[r]
            if support_cap is None or grown.bit_count() <= support_cap:
                chains.append((controls, target))
                new[target] = grown
        for r in hs:
            new[r] = 1 << fresh
            fresh += 1
        support = new
        columns.append(Column(tuple(hs), tuple(chains)))
    return GenCircuit(n, tuple(columns))
