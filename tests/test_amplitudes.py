"""Exact amplitudes: normal form, counting, matrix assembly."""
from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathpoly import (
    Amplitude,
    CapExceeded,
    Circuit,
    CountPair,
    ExactMatrix,
    Method,
    Poly,
    VarUniverse,
    assemble_systems,
    bit_label,
    circuit_unitary,
    compile_circuit,
    count_bruteforce,
    count_groebner,
    count_paths,
    element,
    full_matrix,
    parse_circuit,
    random_circuit,
    render_matrix_json,
    render_matrix_table,
    row_counts,
)

from pathpoly.amplitudes import _truth_table_patterns
from conftest import DEMO_MATRIX, brute_root_count, circuits


# amplitude normal form

def test_normalization():
    assert Amplitude(2, 4) == Amplitude(1, 2)
    assert Amplitude(4, 4) == Amplitude(1, 0)
    assert Amplitude(0, 7) == Amplitude(0)
    assert Amplitude(-6, 3) == Amplitude(-3, 1)
    assert Amplitude(2, 2) == Amplitude(1)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Amplitude(1, -1)


@pytest.mark.parametrize(
    "m,e,text",
    [
        (0, 0, "0"),
        (1, 0, "1"),
        (-3, 0, "-3"),
        (1, 2, "1/2"),
        (-1, 2, "-1/2"),
        (3, 4, "3/4"),
        (1, 1, "1/√2"),
        (-3, 1, "-3/√2"),
        (3, 5, "3/(4·√2)"),
        (-3, 3, "-3/(2·√2)"),
    ],
)
def test_render(m, e, text):
    assert str(Amplitude(m, e)) == text


@given(st.integers(-50, 50), st.integers(0, 6))
def test_normalization_is_scale_invariant(m, e):
    assert Amplitude(2 * m, e + 2) == Amplitude(m, e)


def test_count_pair_rejects_negative():
    with pytest.raises(ValueError):
        CountPair(-1, 0)


# counting

def test_count_bruteforce_demo_rows(demo_circuit):
    assert count_bruteforce(demo_circuit, "000", "000") == CountPair(2, 0)
    assert count_bruteforce(demo_circuit, "000", "100") == CountPair(1, 1)


def test_count_bruteforce_double_hadamard():
    c = parse_circuit("qubits 1\ncolumns 2\nH H\n")
    assert count_bruteforce(c, "0", "1") == CountPair(1, 1)
    assert count_bruteforce(c, "0", "0") == CountPair(2, 0)


def test_count_bruteforce_cap():
    c = parse_circuit("qubits 5\ncolumns 5\n" + "H H H H H\n" * 5)
    with pytest.raises(CapExceeded):
        count_bruteforce(c, "00000", "00000")
    with pytest.raises(CapExceeded):
        count_groebner(compile_circuit(c), "00000", "00000")


def test_count_groebner_demo_rows(demo_system):
    assert count_groebner(demo_system, "000", "000") == CountPair(2, 0)
    assert count_groebner(demo_system, "011", "001") == CountPair(0, 2)


def test_count_groebner_inconsistent_system():
    ps = compile_circuit(Circuit.empty(2, 1))
    assert count_groebner(ps, "00", "01") == CountPair(0, 0)


def test_count_groebner_returns_early_when_a_row_becomes_one(monkeypatch):
    # rows x1 and x1 + a2: with b = 10, solving x1 + 1 sets x1 := 1, which
    # turns x1 + 0 into the constant 1 before any basis is computed
    c = parse_circuit("qubits 2\ncolumns 2\nH Iv\nI Av\n")
    assert count_bruteforce(c, "00", "10") == CountPair(0, 0)

    def no_basis(*args):
        raise AssertionError("_gb_masks called")

    monkeypatch.setattr("pathpoly.amplitudes._gb_masks", no_basis)
    assert count_groebner(compile_circuit(c), "00", "10") == CountPair(0, 0)


def test_count_groebner_without_hadamards():
    # h = 0: the bound rows are constants, so each b has one path or none
    ps = compile_circuit(parse_circuit("qubits 2\ncolumns 1\nIv\nAv\n"))
    assert ps.h == 0
    assert count_groebner(ps, "10", "11") == CountPair(1, 0)
    assert count_groebner(ps, "10", "10") == CountPair(0, 0)


def test_count_paths_dispatch(demo_circuit):
    assert count_paths(demo_circuit, "000", "000", Method.BRUTE) == CountPair(2, 0)
    assert count_paths(demo_circuit, "000", "000", Method.GB) == CountPair(2, 0)


# matrix elements

def test_element_demo_entries(demo_circuit):
    assert str(element(demo_circuit, "000", "000")) == "1/2"
    assert str(element(demo_circuit, "111", "101")) == "-1/2"
    assert str(element(demo_circuit, "011", "001", Method.GB)) == "-1/2"
    assert str(element(demo_circuit, "000", "100")) == "0"


def test_element_single_hadamard():
    c = parse_circuit("qubits 1\ncolumns 1\nH\n")
    assert element(c, "0", "0") == Amplitude(1, 1)
    assert element(c, "1", "1") == Amplitude(-1, 1)


def test_full_matrix_identity_circuit():
    matrix = full_matrix(Circuit.empty(2, 2))
    for i in range(4):
        for j in range(4):
            assert matrix[i][j] == (Amplitude(1) if i == j else Amplitude(0))


def test_full_matrix_single_hadamard():
    matrix = full_matrix(parse_circuit("qubits 1\ncolumns 1\nH\n"))
    r = Amplitude(1, 1)
    assert matrix == ((r, r), (r, Amplitude(-1, 1)))


def test_full_matrix_demo(demo_circuit):
    for method in Method:
        matrix = full_matrix(demo_circuit, method)
        assert [[str(x) for x in row] for row in matrix] == DEMO_MATRIX


def test_full_matrix_qubit_cap():
    with pytest.raises(CapExceeded):
        full_matrix(Circuit.empty(11, 1))


def test_full_matrix_rows_have_unit_norm(demo_circuit):
    # the rows are the columns of U, and U^T U = 1 makes them orthonormal
    u = circuit_unitary(demo_circuit)
    assert u.report_rows() == full_matrix(demo_circuit)
    assert u.transpose() @ u == ExactMatrix.identity(u.dim)


@settings(max_examples=25, deadline=None)
@given(circuits(max_qubits=3, max_columns=4, max_h=8), st.data())
def test_methods_agree_on_random_elements(c, data):
    n = c.n_qubits
    a = data.draw(st.integers(0, (1 << n) - 1))
    b = data.draw(st.integers(0, (1 << n) - 1))
    abits, bbits = bit_label(a, n), bit_label(b, n)
    assert element(c, abits, bbits, Method.BRUTE) == element(c, abits, bbits, Method.GB)


@settings(max_examples=25, deadline=None)
@given(circuits(max_qubits=3, max_columns=4, max_h=8), st.integers(0, 7))
def test_row_counts_match_per_entry_counts(c, a_index):
    ps = compile_circuit(c)
    a = bit_label(a_index % (1 << ps.n), ps.n)
    outputs = [bit_label(b, ps.n) for b in range(1 << ps.n)]
    singles = [count_bruteforce(c, a, b) for b in outputs]
    assert list(row_counts(c, a)) == singles
    assert [count_groebner(ps, a, b) for b in outputs] == singles


def test_truth_table_patterns_match_their_definition():
    for h in range(11):
        patterns = _truth_table_patterns(h)
        assert len(patterns) == h
        for p, pattern in enumerate(patterns):
            assert pattern >> (1 << h) == 0
            for sigma in range(1 << h):
                assert (pattern >> sigma) & 1 == (sigma >> p) & 1


@settings(max_examples=25, deadline=None)
@given(circuits(max_qubits=3, max_columns=4, max_h=8), st.data())
def test_compiled_system_matches_bruteforce_at_every_point(c, data):
    # the compiler's bound F0/F1, evaluated once per path, against the
    # brute-force walk over the circuit, which never compiles
    ps = compile_circuit(c)
    a = bit_label(data.draw(st.integers(0, (1 << ps.n) - 1)), ps.n)
    b = bit_label(data.draw(st.integers(0, (1 << ps.n) - 1)), ps.n)
    paths = VarUniverse.of_paths(ps.h)
    f0, f1 = (
        [Poly.parse(str(p), paths) for p in system] for system in assemble_systems(ps, a, b)
    )
    expected = CountPair(brute_root_count(f0, paths), brute_root_count(f1, paths))
    assert count_bruteforce(c, a, b) == expected


def test_gb_row_counts_match_brute_at_larger_h():
    # h = 9..12 with some outputs that no path reaches, so the GB path meets
    # both a row basis that it extends by the phase and one without roots
    rng = random.Random(11)
    kept = []
    while len(kept) < 20:
        c = random_circuit(rng, 4, 12, 12)
        if c.h >= 9:
            kept.append(c)
    for c in kept:
        ps = compile_circuit(c)
        a = bit_label(rng.randrange(1 << ps.n), ps.n)
        gb = tuple(count_groebner(ps, a, bit_label(b, ps.n)) for b in range(1 << ps.n))
        assert gb == row_counts(c, a)


def test_brute_force_never_compiles(demo_circuit, monkeypatch):
    def refuse(*args):
        raise AssertionError("the brute-force path reached the compiled system")

    monkeypatch.setattr("pathpoly.amplitudes.compile_circuit", refuse)
    monkeypatch.setattr("pathpoly.amplitudes._bound_x_masks", refuse)
    monkeypatch.setattr(Poly, "substitute", refuse)
    assert str(element(demo_circuit, "111", "101", Method.BRUTE)) == "-1/2"
    matrix = full_matrix(demo_circuit, Method.BRUTE)
    assert [[str(x) for x in row] for row in matrix] == DEMO_MATRIX


def test_mirrored_circuits_are_the_identity_past_the_oracle_cap():
    # every column is its own inverse, so C followed by its columns in
    # reverse order has <b|U|a> = [a = b], at any n
    rng = random.Random(16)
    kept = []
    while len(kept) < 10:
        c = random_circuit(rng, 14, 8, 10)
        if c.n_qubits >= 11:
            kept.append(c)
    for c in kept:
        mirror = Circuit(c.n_qubits, 2 * c.n_columns, tuple(row + row[::-1] for row in c.grid))
        a = [rng.randint(0, 1) for _ in range(c.n_qubits)]
        b = list(a)
        b[rng.randrange(c.n_qubits)] ^= 1
        assert element(mirror, a, a) == Amplitude(1)
        assert element(mirror, a, b) == Amplitude(0)


def _h_toffoli_h(rng: random.Random) -> Circuit:
    """An all-H column, 2-4 columns of Toffoli chains, an all-H column."""
    n = rng.randint(3, 4)
    columns = [["H"] * n]
    for _ in range(rng.randint(2, 4)):
        length = rng.randint(3, n)
        top = rng.randint(0, n - length)
        column = ["I"] * n
        if rng.random() < 0.5:
            column[top : top + length] = ["Iv", *["Mv"] * (length - 2), "Av"]
        else:
            column[top : top + length] = ["A^", *["M^"] * (length - 2), "I^"]
        columns.append(column)
    columns.append(["H"] * n)
    rows = "".join(" ".join(col[r] for col in columns) + "\n" for r in range(n))
    return parse_circuit(f"qubits {n}\ncolumns {len(columns)}\n{rows}")


def test_three_way_agreement_on_h_toffoli_h_circuits():
    # the linear solve removes the last column's variables; the phase left
    # over the first column's keeps the Toffoli chains' products, so the
    # residual system still goes to Buchberger on every binding
    rng = random.Random(6)
    for _ in range(12):
        c = _h_toffoli_h(rng)
        oracle = tuple(circuit_unitary(c).report_rows())
        assert full_matrix(c, Method.GB) == full_matrix(c, Method.BRUTE) == oracle


# rendering

def test_bit_label():
    assert bit_label(5, 3) == "101"
    assert bit_label(0, 2) == "00"


def test_render_matrix_table_layout(demo_circuit):
    text = render_matrix_table(full_matrix(demo_circuit), 3)
    lines = text.splitlines()
    assert lines[0].split() == ["a\\b"] + [bit_label(b, 3) for b in range(8)]
    assert len(lines) == 9
    first = lines[1].split()
    assert first == ["000", "1/2", "1/2", "1/2", "1/2", "0", "0", "0", "0"]


def test_render_matrix_json_round_trips(demo_circuit):
    matrix = full_matrix(demo_circuit)
    parsed = json.loads(render_matrix_json(matrix))
    assert parsed == [[str(x) for x in row] for row in matrix]
