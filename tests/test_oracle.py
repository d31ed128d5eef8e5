"""Dense exact unitary: the independent reference for the path pipeline."""
from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings

from pathpoly import (
    Amplitude,
    CapExceeded,
    Circuit,
    ExactMatrix,
    Gate,
    Method,
    circuit_unitary,
    element,
    full_matrix,
    parse_circuit,
    place_toffoli,
)

from conftest import circuits

CIRCUITS = Path(__file__).parent.parent / "circuits"


def column_matrix(tokens: str) -> ExactMatrix:
    """The unitary of a one-column circuit, its gates listed top to bottom."""
    gates = tokens.split()
    return circuit_unitary(Circuit(len(gates), 1, tuple((Gate(t),) for t in gates)))


def test_toffoli_column_swaps_basis_states():
    u = column_matrix("Iv Mv Av")
    for i in range(8):
        for j in range(8):
            if {i, j} == {6, 7}:
                assert u.entries[i][j] == 1
            elif i == j and i not in (6, 7):
                assert u.entries[i][j] == 1
            else:
                assert u.entries[i][j] == 0
    assert u.e == 0


def test_hadamard_column_is_h_tensor_identity():
    u = column_matrix("H I")
    assert u == ExactMatrix(((1, 0, 1, 0), (0, 1, 0, 1), (1, 0, -1, 0), (0, 1, 0, -1)), 1)


def test_normalization_halves_even_entries():
    assert ExactMatrix(((2, 0), (0, 2)), 2) == ExactMatrix.identity(2)
    assert ExactMatrix(((2, 0), (0, -2)), 3) == ExactMatrix(((1, 0), (0, -1)), 1)
    # an odd entry, or e < 2, stops the halving
    assert ExactMatrix(((2, 1), (0, 2)), 2).entries == ((2, 1), (0, 2))
    assert ExactMatrix(((2, 0), (0, 2)), 1).entries == ((2, 0), (0, 2))


def test_exact_matrix_must_be_square():
    with pytest.raises(ValueError, match="matrix must be square"):
        ExactMatrix(((1, 2),), 0)


def test_zero_matrix_has_exponent_zero():
    assert ExactMatrix(((0, 0), (0, 0)), 5).e == 0
    assert ExactMatrix(((0, 0), (0, 0)), 5) == ExactMatrix(((0, 0), (0, 0)))


def test_identity_column():
    assert column_matrix("I I") == ExactMatrix.identity(4)


def test_ascending_chain_targets_top_row():
    # CNOT with control on row 2, target on row 1: flips the MSB when LSB set
    u = column_matrix("A^ I^")
    assert u.is_permutation()
    expected = {0: 0, 1: 3, 2: 2, 3: 1}
    for src, dst in expected.items():
        assert u.entries[dst][src] == 1


def test_double_hadamard_cancels():
    c = parse_circuit("qubits 1\ncolumns 2\nH H\n")
    assert circuit_unitary(c) == ExactMatrix.identity(2)


def test_toffoli_only_circuit_is_permutation():
    c = place_toffoli(Circuit.empty(3, 2), 1, {1, 2}, 3)
    c = place_toffoli(c, 2, {3}, 1)
    u = circuit_unitary(c)
    assert u.is_permutation()


def test_hadamard_is_not_permutation():
    u = column_matrix("H")
    assert not u.is_permutation()
    # a sign or a repeated row breaks it too
    assert not ExactMatrix(((1, 0), (0, -1))).is_permutation()
    assert not ExactMatrix(((1, 0), (1, 0))).is_permutation()


def test_columns_compose_left_to_right():
    c = parse_circuit("qubits 3\ncolumns 2\nI Iv\nIv Av\nAv I+\n")
    u = circuit_unitary(c)
    assert u == column_matrix("Iv Av I+") @ column_matrix("I Iv Av")


def test_demo_circuit_matches_path_pipeline(demo_circuit):
    u = circuit_unitary(demo_circuit)
    assert u == full_matrix(demo_circuit)


def test_golden_n8_matches_brute_matrix():
    # all 256 x 256 entries of an n = 8, h = 11 circuit
    c = parse_circuit((CIRCUITS / "golden_n8.qc").read_text(encoding="utf-8"))
    assert full_matrix(c, Method.BRUTE) == circuit_unitary(c)


def test_golden_n8_mirror_is_the_identity():
    # golden_n8.qc, then its columns in reverse: each column is its own
    # inverse, so <b|U|a> = [a = b] at n = 8, h = 22
    golden = parse_circuit((CIRCUITS / "golden_n8.qc").read_text(encoding="utf-8"))
    mirror = parse_circuit((CIRCUITS / "golden_n8_mirror.qc").read_text(encoding="utf-8"))
    assert mirror == Circuit(
        golden.n_qubits, 2 * golden.n_columns, tuple(row + row[::-1] for row in golden.grid)
    )
    assert (mirror.n_qubits, mirror.n_columns, mirror.h) == (8, 82, 22)
    for a, flipped in (("00000000", "00000001"), ("10110010", "00110010")):
        assert element(mirror, a, a) == Amplitude(1)
        assert element(mirror, a, flipped) == Amplitude(0)
    assert circuit_unitary(mirror) == ExactMatrix.identity(256)
    with pytest.raises(CapExceeded, match="root counting over 22 variables"):
        element(mirror, "00000000", "00000000", Method.GB)


def test_report_rows_is_transpose():
    # H on qubit 1, then a CNOT onto it: not symmetric, scale sqrt(2)^(-1)
    c = parse_circuit("qubits 2\ncolumns 2\nH A^\nI I^\n")
    u = circuit_unitary(c)
    assert u.transpose() != u
    assert full_matrix(c) == u
    rows = u.report_rows()
    for a in range(4):
        for b in range(4):
            assert rows[a][b] == Amplitude(u.entries[b][a], 1)


def test_column_squares_to_identity():
    h = column_matrix("H")
    assert h @ h == ExactMatrix.identity(2)
    t = column_matrix("Iv Mv Av")
    assert t @ t == ExactMatrix.identity(8)


def test_matmul_requires_matching_dims():
    with pytest.raises(ValueError):
        ExactMatrix.identity(2) @ ExactMatrix.identity(4)


def test_qubit_cap():
    with pytest.raises(CapExceeded):
        circuit_unitary(Circuit.empty(11, 1))


@settings(max_examples=40, deadline=None)
@given(circuits(max_qubits=3, max_columns=5, max_h=8))
def test_exact_unitarity(c):
    u = circuit_unitary(c)
    assert u.transpose() @ u == ExactMatrix.identity(u.dim)


@settings(max_examples=30, deadline=None)
@given(circuits(max_qubits=3, max_columns=4, max_h=8))
def test_oracle_agrees_with_path_pipeline(c):
    assert circuit_unitary(c) == full_matrix(c)
