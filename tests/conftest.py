"""Shared fixtures, strategies and brute-force oracles for the test suite."""
from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import strategies as st

from pathpoly import (
    Circuit,
    Poly,
    PolySystem,
    VarUniverse,
    compile_circuit,
    parse_circuit,
    random_circuit,
)
from pathpoly.groebner import _count_standard

DEMO_TEXT = """\
qubits 3
columns 4
H  Iv  H  A^
H  Mv  I  M^
I  Av  H  I^
"""

# the worked three-qubit example: expected compiled system and matrix
DEMO_ROW_POLYS = ("x2*x4 + x3", "x2", "x4")
DEMO_PHASE = "x1*x2*x4 + x1*x3 + x1*a1 + x2*a2 + x4*a3"
DEMO_MATRIX = [
    ["1/2", "1/2", "1/2", "1/2", "0", "0", "0", "0"],
    ["1/2", "-1/2", "1/2", "-1/2", "0", "0", "0", "0"],
    ["1/2", "1/2", "-1/2", "-1/2", "0", "0", "0", "0"],
    ["1/2", "-1/2", "-1/2", "1/2", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "1/2", "1/2", "1/2", "1/2"],
    ["0", "0", "0", "0", "1/2", "-1/2", "1/2", "-1/2"],
    ["0", "0", "0", "0", "1/2", "1/2", "-1/2", "-1/2"],
    ["0", "0", "0", "0", "1/2", "-1/2", "-1/2", "1/2"],
]


@pytest.fixture(scope="session")
def demo_circuit() -> Circuit:
    return parse_circuit(DEMO_TEXT)


@pytest.fixture(scope="session")
def demo_system(demo_circuit) -> PolySystem:
    return compile_circuit(demo_circuit)


def brute_root_count(polys, universe: VarUniverse) -> int:
    """Count common roots by scanning all 2^size points of the universe."""
    count = 0
    for bits in itertools.product((0, 1), repeat=universe.size):
        point = dict(zip(universe.variables, bits))
        if all(p.evaluate(point) == 0 for p in polys):
            count += 1
    return count


def basis_root_count(basis, universe: VarUniverse, variables=None) -> int:
    """Common roots of a reduced basis over variables (default: the whole
    universe), counted from its leading monomials as amplitudes._gb_pair does."""
    var_mask = universe.mask_of(universe.variables if variables is None else variables)
    return _count_standard([g.monomial_masks[0] for g in basis], var_mask)


def path_universes(max_vars: int = 8) -> st.SearchStrategy[VarUniverse]:
    return st.integers(1, max_vars).map(VarUniverse.of_paths)


def polys_over(universe: VarUniverse, max_monomials: int = 6) -> st.SearchStrategy[Poly]:
    mask = st.integers(0, (1 << universe.size) - 1)
    return st.lists(mask, max_size=max_monomials).map(lambda ms: Poly(universe, ms))


@st.composite
def universe_and_polys(draw, max_vars: int = 8, count: int = 3, max_monomials: int = 6):
    universe = draw(path_universes(max_vars))
    polys = [draw(polys_over(universe, max_monomials)) for _ in range(count)]
    return universe, polys


def circuits(max_qubits: int = 4, max_columns: int = 6, max_h: int = 10) -> st.SearchStrategy[Circuit]:
    return st.integers(0, 2**32 - 1).map(
        lambda seed: random_circuit(random.Random(seed), max_qubits, max_columns, max_h)
    )


def points_over(universe: VarUniverse) -> st.SearchStrategy[dict]:
    return st.integers(0, (1 << universe.size) - 1).map(
        lambda bits: {
            v: (bits >> i) & 1 for i, v in enumerate(universe.variables)
        }
    )
