"""Exact amplitudes: counting, the amplitude ring, matrix assembly."""
from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathpoly import (
    AMP_ONE,
    AMP_ZERO,
    Amplitude,
    CapExceeded,
    Circuit,
    CountPair,
    Method,
    Poly,
    VarUniverse,
    assemble_systems,
    bit_label,
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

from conftest import DEMO_MATRIX, brute_root_count, circuits


def amplitudes(parity: int | None = None) -> st.SearchStrategy[Amplitude]:
    if parity is None:
        exponent = st.integers(0, 8)
    else:
        exponent = st.integers(0, 4).map(lambda k: 2 * k + parity)
    return st.builds(Amplitude, st.integers(-50, 50), exponent)


# the amplitude ring

def test_normalization():
    assert Amplitude(2, 4) == Amplitude(1, 2)
    assert Amplitude(4, 4) == Amplitude(1, 0)
    assert Amplitude(0, 7) == AMP_ZERO
    assert Amplitude(-6, 3) == Amplitude(-3, 1)
    assert Amplitude(2, 2) == AMP_ONE


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


def test_add_requires_matching_parity():
    with pytest.raises(ValueError):
        Amplitude(1, 1) + Amplitude(1, 2)


def test_add_with_zero_ignores_parity():
    assert AMP_ZERO + Amplitude(1, 1) == Amplitude(1, 1)
    assert Amplitude(1, 2) + AMP_ZERO == Amplitude(1, 2)


def test_add_rescales_to_common_exponent():
    assert Amplitude(1, 0) + Amplitude(1, 2) == Amplitude(3, 2)
    assert Amplitude(1, 1) + Amplitude(1, 3) == Amplitude(3, 3)


def test_mul_and_sub():
    assert Amplitude(1, 1) * Amplitude(1, 1) == Amplitude(1, 2)
    assert Amplitude(3, 2) * Amplitude(-1, 1) == Amplitude(-3, 3)
    assert Amplitude(1, 0) - Amplitude(1, 2) == Amplitude(1, 2)
    assert -Amplitude(1, 1) == Amplitude(-1, 1)


@given(st.integers(-50, 50), st.integers(0, 6))
def test_normalization_is_scale_invariant(m, e):
    assert Amplitude(2 * m, e + 2) == Amplitude(m, e)


@settings(max_examples=80)
@given(st.integers(0, 1), st.data())
def test_amplitude_ring_laws(parity, data):
    a = data.draw(amplitudes(parity))
    b = data.draw(amplitudes(parity))
    c = data.draw(amplitudes(parity))
    d = data.draw(amplitudes())
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a - a == AMP_ZERO
    assert d * (a + b) == d * a + d * b
    assert (d * a) * b == d * (a * b)
    assert d * AMP_ONE == d
    assert d * AMP_ZERO == AMP_ZERO


def test_count_pair_rejects_negative():
    with pytest.raises(ValueError):
        CountPair(-1, 0)


# counting

def test_count_bruteforce_demo_rows(demo_system):
    assert count_bruteforce(demo_system, "000", "000") == CountPair(2, 0)
    assert count_bruteforce(demo_system, "000", "100") == CountPair(1, 1)


def test_count_bruteforce_double_hadamard():
    ps = compile_circuit(parse_circuit("qubits 1\ncolumns 2\nH H\n"))
    assert count_bruteforce(ps, "0", "1") == CountPair(1, 1)
    assert count_bruteforce(ps, "0", "0") == CountPair(2, 0)


def test_count_bruteforce_cap():
    ps = compile_circuit(parse_circuit("qubits 5\ncolumns 5\n" + "H H H H H\n" * 5))
    with pytest.raises(CapExceeded):
        count_bruteforce(ps, "00000", "00000")
    with pytest.raises(CapExceeded):
        count_groebner(ps, "00000", "00000")


def test_count_groebner_demo_rows(demo_system):
    assert count_groebner(demo_system, "000", "000") == CountPair(2, 0)
    assert count_groebner(demo_system, "011", "001") == CountPair(0, 2)


def test_count_groebner_inconsistent_system():
    ps = compile_circuit(Circuit.empty(2, 1))
    assert count_groebner(ps, "00", "01") == CountPair(0, 0)


def test_count_groebner_without_hadamards():
    # h = 0: the bound rows are constants, so each b has one path or none
    ps = compile_circuit(parse_circuit("qubits 2\ncolumns 1\nIv\nAv\n"))
    assert ps.h == 0
    assert count_groebner(ps, "10", "11") == CountPair(1, 0)
    assert count_groebner(ps, "10", "10") == CountPair(0, 0)


def test_count_paths_dispatch(demo_system):
    assert count_paths(demo_system, "000", "000", Method.BRUTE) == CountPair(2, 0)
    assert count_paths(demo_system, "000", "000", Method.GB) == CountPair(2, 0)


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
            assert matrix[i][j] == (AMP_ONE if i == j else AMP_ZERO)


def test_full_matrix_single_hadamard():
    matrix = full_matrix(parse_circuit("qubits 1\ncolumns 1\nH\n"))
    r = Amplitude(1, 1)
    assert matrix == ((r, r), (r, -r))


def test_full_matrix_demo(demo_circuit):
    for method in Method:
        matrix = full_matrix(demo_circuit, method)
        assert [[str(x) for x in row] for row in matrix] == DEMO_MATRIX


def test_full_matrix_qubit_cap():
    with pytest.raises(CapExceeded):
        full_matrix(Circuit.empty(11, 1))


def test_full_matrix_rows_have_unit_norm(demo_circuit):
    for row in full_matrix(demo_circuit):
        total = AMP_ZERO
        for x in row:
            total = total + x * x
        assert total == AMP_ONE


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
    brute = row_counts(ps, a, Method.BRUTE)
    gb = row_counts(ps, a, Method.GB)
    singles = [count_bruteforce(ps, a, bit_label(b, ps.n)) for b in range(1 << ps.n)]
    assert list(brute) == singles
    assert list(gb) == singles


@settings(max_examples=25, deadline=None)
@given(circuits(max_qubits=3, max_columns=4, max_h=8), st.data())
def test_count_bruteforce_matches_point_evaluation(c, data):
    # the truth-table kernel against one evaluation per path of the bound F0/F1
    ps = compile_circuit(c)
    a = bit_label(data.draw(st.integers(0, (1 << ps.n) - 1)), ps.n)
    b = bit_label(data.draw(st.integers(0, (1 << ps.n) - 1)), ps.n)
    paths = VarUniverse.of_paths(ps.h)
    f0, f1 = (
        [Poly.parse(str(p), paths) for p in system] for system in assemble_systems(ps, a, b)
    )
    expected = CountPair(brute_root_count(f0, paths), brute_root_count(f1, paths))
    assert count_bruteforce(ps, a, b) == expected


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
        assert row_counts(ps, a, Method.GB) == row_counts(ps, a, Method.BRUTE)


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
