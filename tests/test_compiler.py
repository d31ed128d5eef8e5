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
    PolySystem,
    VarUniverse,
    assemble_systems,
    bit_label,
    compile_circuit,
    count_bruteforce,
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


BIND_UNIVERSE = VarUniverse.for_circuit(4, 3)
BIND_ROWS = ("x1*a1 + x2*a2", "x1*a1 + x1*a2 + a3", "x3")
BIND_PHASE = "x4*a3 + x1*x2*x4"


@pytest.mark.parametrize(
    "a, rows, phase",
    [
        # a1 = 1 is cleared; a2 = 0 and a3 = 0 drop the monomials holding them
        ("100", ("x1", "x1", "x3"), "x1*x2*x4"),
        # x1*a1 and x1*a2 both become x1 and cancel in pairs
        ("110", ("x1 + x2", "0", "x3"), "x1*x2*x4"),
        # a bare input bound to 1 becomes the constant 1
        ("001", ("0", "1", "x3"), "x1*x2*x4 + x4"),
        # with a unbound nothing is bound
        (None, BIND_ROWS, BIND_PHASE),
    ],
    ids=["constants_and_phase_term", "cancel_in_pairs", "bare_input_is_one", "unbound_is_identity"],
)
def test_assemble_binds_a_in_rows_and_phase(a, rows, phase):
    u = BIND_UNIVERSE
    ps = PolySystem(tuple(Poly.parse(r, u) for r in BIND_ROWS), Poly.parse(BIND_PHASE, u), 4, 3)
    f0, f1 = assemble_systems(ps, a=a, b="000")
    assert f0 == (*(Poly.parse(r, u) for r in rows), Poly.parse(phase, u))
    assert f1[3] == Poly.parse(phase + " + 1", u)


@settings(max_examples=40, deadline=None)
@given(circuits(), st.data())
def test_assemble_bound_then_evaluate_composes(c, data):
    # binding a and b, then evaluating at x, is evaluating the symbolic
    # system at (x, a, b)
    ps = compile_circuit(c)
    n = ps.n
    a = bit_label(data.draw(st.integers(0, (1 << n) - 1)), n)
    b = bit_label(data.draw(st.integers(0, (1 << n) - 1)), n)
    x = bit_label(data.draw(st.integers(0, (1 << ps.h) - 1)), ps.h)
    point = {f"x{k}": int(v) for k, v in enumerate(x, 1)}
    values = {
        **point,
        **{f"a{i}": int(v) for i, v in enumerate(a, 1)},
        **{f"b{i}": int(v) for i, v in enumerate(b, 1)},
    }
    for symbolic, bound in zip(assemble_systems(ps), assemble_systems(ps, a, b)):
        assert [f.evaluate(point) for f in bound] == [f.evaluate(values) for f in symbolic]


def test_binding_is_linear_in_the_qubit_count(monkeypatch):
    # one H on row 1 and n - 1 identity rows: binding a looks each input up
    # once per call, not once per row
    n = 300
    c = parse_circuit(f"qubits {n}\ncolumns 1\nH\n" + "I\n" * (n - 1))
    ps = compile_circuit(c)
    zeros = "0" * n
    lookups = 0
    bit = VarUniverse.bit

    def counting_bit(self, v):
        nonlocal lookups
        lookups += 1
        return bit(self, v)

    monkeypatch.setattr(VarUniverse, "bit", counting_bit)
    pair = count_groebner(c, zeros, zeros)
    assert lookups <= 3 * n
    lookups = 0
    assemble_systems(ps, a=zeros, b=zeros)
    assert lookups <= n
    assert pair == count_bruteforce(c, zeros, zeros)


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
    with pytest.raises(ValueError):
        parse_bits([Poly.parse("x2"), 0], 2)


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
