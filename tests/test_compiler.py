"""Sum-over-paths lowering: row polynomials, phase, system assembly."""
from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathpoly import (
    Circuit,
    Gate,
    Poly,
    assemble_systems,
    bit_label,
    compile_circuit,
    count_groebner,
    parse_bits,
    parse_circuit,
)

from conftest import DEMO_PHASE, DEMO_ROW_POLYS, circuits


def test_demo_row_polynomials(demo_system):
    assert tuple(str(p) for p in demo_system.row_polys) == DEMO_ROW_POLYS
    assert (demo_system.h, demo_system.n) == (4, 3)


def test_demo_phase(demo_system):
    assert str(demo_system.phase) == DEMO_PHASE


def test_single_hadamard():
    ps = compile_circuit(parse_circuit("qubits 1\ncolumns 1\nH\n"))
    assert str(ps.row_polys[0]) == "x1"
    assert str(ps.phase) == "x1*a1"


def test_double_hadamard_phase():
    ps = compile_circuit(parse_circuit("qubits 1\ncolumns 2\nH H\n"))
    assert str(ps.row_polys[0]) == "x2"
    assert str(ps.phase) == "x1*x2 + x1*a1"


def test_toffoli_only_is_classical():
    from pathpoly import place_toffoli

    ps = compile_circuit(place_toffoli(Circuit.empty(3, 1), 1, {1, 2}, 3))
    assert [str(p) for p in ps.row_polys] == ["a1", "a2", "a1*a2 + a3"]
    assert not ps.phase


def test_path_variables_allocated_column_major():
    # two H cells in column 1 (rows 1 and 3), one in column 2 (row 2)
    text = "qubits 3\ncolumns 2\nH I\nI H\nH I\n"
    ps = compile_circuit(parse_circuit(text))
    assert [str(p) for p in ps.row_polys] == ["x1", "x3", "x2"]


def test_assemble_symbolic(demo_system):
    f0, f1 = assemble_systems(demo_system)
    assert [str(p) for p in f0] == [
        "x2*x4 + x3 + b1",
        "x2 + b2",
        "x4 + b3",
        DEMO_PHASE,
    ]
    assert f1[:3] == f0[:3]
    assert f1[3] == Poly.parse(DEMO_PHASE + " + 1", demo_system.universe)


def test_assemble_bound_all_zero(demo_system):
    f0, f1 = assemble_systems(demo_system, a="000", b="000")
    assert [str(p) for p in f0] == ["x2*x4 + x3", "x2", "x4", "x1*x2*x4 + x1*x3"]
    universe = demo_system.universe
    paths = [universe.variables[i] for i in range(4)]
    roots0 = sum(
        all(p.evaluate(dict(zip(paths, bits))) == 0 for p in f0)
        for bits in itertools.product((0, 1), repeat=4)
    )
    roots1 = sum(
        all(p.evaluate(dict(zip(paths, bits))) == 0 for p in f1)
        for bits in itertools.product((0, 1), repeat=4)
    )
    assert (roots0, roots1) == (2, 0)


def test_assemble_partial_binding(demo_system):
    f0, _ = assemble_systems(demo_system, a="000")
    assert str(f0[0]) == "x2*x4 + x3 + b1"
    assert str(f0[3]) == "x1*x2*x4 + x1*x3"


def test_assemble_identity_circuit():
    ps = compile_circuit(Circuit.empty(3, 2))
    f0, f1 = assemble_systems(ps, a="010", b="010")
    assert not any(f0)
    assert f1[-1] == Poly(ps.universe, (0,))


def test_assemble_rejects_wrong_length(demo_system):
    with pytest.raises(ValueError):
        assemble_systems(demo_system, a="00")
    with pytest.raises(ValueError):
        assemble_systems(demo_system, b="0000")


def test_parse_bits_forms():
    assert parse_bits("011", 3) == (0, 1, 1)
    assert parse_bits([1, 0], 2) == (1, 0)
    with pytest.raises(ValueError):
        parse_bits("012", 3)
    with pytest.raises(ValueError):
        parse_bits([2, 0], 2)


def test_compile_is_deterministic(demo_circuit):
    first = compile_circuit(demo_circuit)
    second = compile_circuit(demo_circuit)
    assert first.row_polys == second.row_polys
    assert first.phase == second.phase


def strip_hadamards(c: Circuit) -> Circuit:
    grid = tuple(
        tuple(Gate.IDENTITY if g is Gate.HADAMARD else g for g in row) for row in c.grid
    )
    return Circuit(c.n_qubits, c.n_columns, grid)


@settings(max_examples=60, deadline=None)
@given(circuits(max_qubits=3))
def test_hadamard_free_circuits_are_bijections(c):
    ps = compile_circuit(strip_hadamards(c))
    assert not ps.phase
    n = ps.n
    a_vars = [f"a{i}" for i in range(1, n + 1)]
    a_mask = ps.universe.mask_of(a_vars)
    assert all(m & ~a_mask == 0 for p in ps.row_polys for m in p.monomial_masks)
    images = set()
    for bits in itertools.product((0, 1), repeat=n):
        point = dict(zip(a_vars, bits))
        images.add(tuple(p.evaluate(point) for p in ps.row_polys))
    assert len(images) == 1 << n


@settings(max_examples=30, deadline=None)
@given(circuits(max_qubits=3, max_columns=4, max_h=8), st.integers(0, 7))
def test_path_count_conservation(c, a_index):
    # every path of the compiled system ends in exactly one output b
    n = c.n_qubits
    a = [(a_index >> i) & 1 for i in range(n)]
    counts = [count_groebner(c, a, bit_label(b, n)) for b in range(1 << n)]
    assert sum(pair.n0 + pair.n1 for pair in counts) == 1 << c.h
