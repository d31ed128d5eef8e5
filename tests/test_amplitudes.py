"""Exact amplitudes: normal form, counting, matrix assembly."""
from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathpoly import amplitudes, cli
from pathpoly import (
    Amplitude,
    CapExceeded,
    Circuit,
    CountPair,
    ExactMatrix,
    Method,
    Poly,
    ROOT_COUNT_VARIABLE_CAP,
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
    place_hadamard,
    place_toffoli,
    random_circuit,
    render_matrix_json,
    render_matrix_table,
    row_counts,
)

from pathpoly.amplitudes import _bound_x_masks, _solve_linear, _truth_table_patterns
from conftest import DEMO_MATRIX, brute_root_count, circuits

CIRCUITS = Path(__file__).parent.parent / "circuits"


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


def test_count_bruteforce_cap(monkeypatch):
    c = parse_circuit("qubits 5\ncolumns 5\n" + "H H H H H\n" * 5)
    with pytest.raises(CapExceeded, match=r"brute force over 2\^25 assignments"):
        count_bruteforce(c, "00000", "00000")

    # past the root-count cap, the Groebner method refuses before compiling
    def refuse(circuit):
        raise AssertionError("compiled a circuit past the root-count cap")

    monkeypatch.setattr("pathpoly.amplitudes.compile_circuit", refuse)
    with pytest.raises(CapExceeded, match="root counting over 25 variables"):
        count_groebner(c, "00000", "00000")
    mirror = parse_circuit((CIRCUITS / "golden_n8_mirror.qc").read_text(encoding="utf-8"))
    with pytest.raises(CapExceeded, match="root counting over 22 variables"):
        element(mirror, "00000000", "00000000", Method.GB)
    wide = parse_circuit("qubits 3\ncolumns 7\n" + "H H H H H H H\n" * 3)
    with pytest.raises(CapExceeded, match="root counting over 21 variables"):
        full_matrix(wide, Method.GB)


# H on rows 1-22, then 200 Iv/Av row pairs: 446 truth tables of 2^22 bits
WIDE_BRUTE_TEXT = "qubits 422\ncolumns 2\n" + "H I\n" * 22 + "I Iv\nI Av\n" * 200


def test_brute_table_bits_cap_refuses_many_rows_of_wide_tables(tmp_path):
    c = parse_circuit(WIDE_BRUTE_TEXT)
    a = "0" * 22 + "10" * 200
    message = r"brute force over 446 truth tables of 2\^22 bits exceeds the cap"
    with pytest.raises(CapExceeded, match=message):
        count_bruteforce(c, a, a)
    with pytest.raises(CapExceeded, match=message):
        row_counts(c, a)
    path = tmp_path / "wide_brute.qc"
    path.write_text(WIDE_BRUTE_TEXT, encoding="utf-8")
    assert cli.main(["element", str(path), "--method", "brute", "--a", a, "--b", a]) == 2


def test_brute_table_bits_cap_admits_exactly_its_bound(monkeypatch):
    # n = 2, h = 3: the walk holds 2 rows, the phase, the all-ones table and
    # 3 patterns, 7 tables of 2^3 bits
    c = parse_circuit("qubits 2\ncolumns 3\nH Iv H\nH Av I\n")
    monkeypatch.setattr("pathpoly.amplitudes.BRUTE_TABLE_BITS_CAP", 7 << 3)
    assert count_bruteforce(c, "01", "10") == count_groebner(c, "01", "10")
    monkeypatch.setattr("pathpoly.amplitudes.BRUTE_TABLE_BITS_CAP", (7 << 3) - 1)
    with pytest.raises(CapExceeded, match=r"7 truth tables of 2\^3 bits"):
        count_bruteforce(c, "01", "10")


def test_count_groebner_demo_rows(demo_circuit):
    assert count_groebner(demo_circuit, "000", "000") == CountPair(2, 0)
    assert count_groebner(demo_circuit, "011", "001") == CountPair(0, 2)


def test_count_groebner_inconsistent_system():
    assert count_groebner(Circuit.empty(2, 1), "00", "01") == CountPair(0, 0)


def test_count_groebner_returns_early_when_a_row_becomes_one(monkeypatch):
    # rows x1 and x1 + a2: with b = 10, solving x1 + 1 sets x1 := 1, which
    # turns x1 + 0 into the constant 1 before any basis is computed
    c = parse_circuit("qubits 2\ncolumns 2\nH Iv\nI Av\n")
    assert count_bruteforce(c, "00", "10") == CountPair(0, 0)

    def no_basis(*args):
        raise AssertionError("_gb_masks called")

    monkeypatch.setattr("pathpoly.amplitudes._gb_masks", no_basis)
    assert count_groebner(c, "00", "10") == CountPair(0, 0)


def test_count_groebner_unit_residual_counts_zero():
    # rows 3 and 4 compile to x1*x2 + x1 + a3 and x1*x2 + x1 + a4; neither
    # has a linear pivot, so with a = 0000 and b = 0001 both reach Buchberger
    # as x1*x2 + x1 and x1*x2 + x1 + 1, whose basis is the unit basis
    c = Circuit.empty(4, 6)
    for column in (1, 6):
        for row in (1, 2):
            c = place_hadamard(c, column, row)
    c = place_toffoli(c, 2, [1, 2], 3)
    c = place_toffoli(c, 3, [1], 3)
    c = place_toffoli(c, 4, [1, 2], 4)
    c = place_toffoli(c, 5, [1], 4)
    ps = compile_circuit(c)
    assert [str(p) for p in ps.row_polys[2:]] == ["x1*x2 + x1 + a3", "x1*x2 + x1 + a4"]
    rows, phase = _bound_x_masks(ps, (0, 0, 0, 0))
    bound = [set(masks) ^ {0} if bit else set(masks) for masks, bit in zip(rows, (0, 0, 0, 1))]
    x1, x2 = 1 << 3, 1 << 2
    f, _, free = _solve_linear(bound, phase, ps.h)
    assert f == [{x1 | x2, x1}, {x1 | x2, x1, 0}]
    assert free == x1 | x2
    assert count_groebner(c, "0000", "0001") == count_bruteforce(c, "0000", "0001") == CountPair(0, 0)
    assert full_matrix(c, Method.GB) == full_matrix(c) == circuit_unitary(c)


def test_count_groebner_without_hadamards():
    # h = 0: the bound rows are constants, so each b has one path or none
    c = parse_circuit("qubits 2\ncolumns 1\nIv\nAv\n")
    assert c.h == 0
    assert count_groebner(c, "10", "11") == CountPair(1, 0)
    assert count_groebner(c, "10", "10") == CountPair(0, 0)


def _spy_gb_masks(monkeypatch) -> list:
    """Record the mask polynomials of every _gb_masks call."""
    calls = []
    real = amplitudes._gb_masks

    def spy(mask_polys, n_vars):
        calls.append(list(mask_polys))
        return real(mask_polys, n_vars)

    monkeypatch.setattr(amplitudes, "_gb_masks", spy)
    return calls


def test_balanced_phase_skips_the_phase_basis(monkeypatch):
    # the row x2 and the phase x1*x2 (a = 0); b = 1 solves x2 := 1, which
    # leaves no row and the phase x1, balanced by x1: N0 = N1 = total/2
    c = parse_circuit("qubits 1\ncolumns 2\nH H\n")
    calls = _spy_gb_masks(monkeypatch)
    assert count_groebner(c, "0", "1") == count_bruteforce(c, "0", "1") == CountPair(1, 1)
    assert calls == [[]]


@pytest.mark.parametrize(
    "text, a, b",
    [
        # the phase x1 after the solve, but x1 is also in the residual row
        # x1*x2 + x2, which has no linear pivot
        ("qubits 3\ncolumns 4\nH I  Iv H\nH Iv Mv H\nI Av Av I\n", "000", "100"),
        # the phase x1*x2 + x2: x2 is also in a product
        ("qubits 1\ncolumns 3\nH H H\n", "0", "1"),
        # the bound phase x1 would balance, but the row x1 pivots x1 := 0
        # away, so the substituted phase is 0
        ("qubits 1\ncolumns 1\nH\n", "1", "0"),
    ],
    ids=["in-a-row", "in-a-product", "pivoted"],
)
def test_unbalanced_phase_runs_both_bases(monkeypatch, text, a, b):
    c = parse_circuit(text)
    calls = _spy_gb_masks(monkeypatch)
    pair = count_groebner(c, a, b)
    assert len(calls) == 2
    assert pair == count_bruteforce(c, a, b)
    assert pair.n0 != pair.n1


def test_groebner_counts_equal_brute_counts_on_every_binding(monkeypatch):
    # N0 and N1 each, not only N0 - N1; the balanced-phase rule must fire
    # on some bindings and not on others, or this gates only one branch
    fired = []
    real = amplitudes._balanced

    def spy(*args):
        fired.append(real(*args))
        return fired[-1]

    monkeypatch.setattr(amplitudes, "_balanced", spy)
    rng = random.Random(29)
    for _ in range(40):
        c = random_circuit(rng, 4, 8, 10)
        outputs = [bit_label(v, c.n_qubits) for v in range(1 << c.n_qubits)]
        for a in outputs:
            for b in outputs:
                assert count_groebner(c, a, b) == count_bruteforce(c, a, b)
    assert any(fired) and not all(fired)


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
    assert full_matrix(Circuit.empty(2, 2)) == ExactMatrix.identity(4)


def test_full_matrix_single_hadamard():
    matrix = full_matrix(parse_circuit("qubits 1\ncolumns 1\nH\n"))
    assert matrix == ExactMatrix(((1, 1), (1, -1)), 1)


def test_full_matrix_demo(demo_circuit):
    for method in Method:
        matrix = full_matrix(demo_circuit, method)
        assert [[str(x) for x in row] for row in matrix.report_rows()] == DEMO_MATRIX


def test_full_matrix_qubit_cap():
    with pytest.raises(CapExceeded):
        full_matrix(Circuit.empty(11, 1))


def test_full_matrix_rows_have_unit_norm(demo_circuit):
    # the report rows are the columns of U, and U^T U = 1 makes them orthonormal
    u = circuit_unitary(demo_circuit)
    assert u == full_matrix(demo_circuit)
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
    n = c.n_qubits
    a = bit_label(a_index % (1 << n), n)
    outputs = [bit_label(b, n) for b in range(1 << n)]
    singles = [count_bruteforce(c, a, b) for b in outputs]
    assert list(row_counts(c, a)) == singles
    assert [count_groebner(c, a, b) for b in outputs] == singles


def test_truth_table_patterns_match_their_definition():
    for h in range(11):
        patterns = _truth_table_patterns(h)
        assert len(patterns) == h
        for p, pattern in enumerate(patterns):
            assert pattern >> (1 << h) == 0
            for sigma in range(1 << h):
                assert (pattern >> sigma) & 1 == (sigma >> p) & 1


@settings(max_examples=25, deadline=None)
@given(circuits(max_qubits=4, max_columns=6, max_h=8), st.data())
def test_compiled_system_matches_bruteforce_at_every_point(c, data):
    # the compiler's bound F0/F1, evaluated once per path, against the
    # brute-force walk over the circuit, which never compiles.  Four qubits
    # reach 3-control chains and several chains per column, where a slip in
    # the compiler's in-place row updates would show
    ps = compile_circuit(c)
    a = bit_label(data.draw(st.integers(0, (1 << ps.n) - 1)), ps.n)
    b = bit_label(data.draw(st.integers(0, (1 << ps.n) - 1)), ps.n)
    paths = VarUniverse.for_circuit(ps.h, 0)
    f0, f1 = (
        [Poly.parse(str(p), paths) for p in system] for system in assemble_systems(ps, a, b)
    )
    expected = CountPair(brute_root_count(f0, paths), brute_root_count(f1, paths))
    assert count_bruteforce(c, a, b) == expected


def test_gb_row_counts_match_brute_at_larger_h():
    # h = 9..12 with some outputs that no path reaches: every row set here
    # without a common root already ends in the linear solve, so the unit
    # residual basis is tested in test_count_groebner_unit_residual_counts_zero
    rng = random.Random(11)
    kept = []
    while len(kept) < 20:
        c = random_circuit(rng, 4, 12, 12)
        if c.h >= 9:
            kept.append(c)
    for c in kept:
        n = c.n_qubits
        a = bit_label(rng.randrange(1 << n), n)
        gb = tuple(count_groebner(c, a, bit_label(b, n)) for b in range(1 << n))
        assert gb == row_counts(c, a)


def test_brute_force_never_compiles(demo_circuit, monkeypatch):
    def refuse(*args):
        raise AssertionError("the brute-force path reached the compiled system")

    monkeypatch.setattr("pathpoly.amplitudes.compile_circuit", refuse)
    monkeypatch.setattr("pathpoly.amplitudes._bound_x_masks", refuse)
    monkeypatch.setattr("pathpoly.amplitudes._bind_a", refuse)
    monkeypatch.setattr("pathpoly.compiler._bind_a", refuse)
    assert str(element(demo_circuit, "111", "101", Method.BRUTE)) == "-1/2"
    matrix = full_matrix(demo_circuit, Method.BRUTE)
    assert [[str(x) for x in row] for row in matrix.report_rows()] == DEMO_MATRIX


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
        mirror = _mirror(c)
        a = [rng.randint(0, 1) for _ in range(c.n_qubits)]
        b = list(a)
        b[rng.randrange(c.n_qubits)] ^= 1
        assert element(mirror, a, a) == Amplitude(1)
        assert element(mirror, a, b) == Amplitude(0)


def _mirror(c: Circuit) -> Circuit:
    """C followed by its columns in reverse order: every column is its own
    inverse, so <b|U|a> = [a = b], at any n."""
    return Circuit(c.n_qubits, 2 * c.n_columns, tuple(row + row[::-1] for row in c.grid))


def _h_toffoli_h(rng: random.Random, n: int, rounds: int) -> Circuit:
    """rounds x (an all-H column, 2-3 columns of Toffoli chains), then an
    all-H column: h = n * (rounds + 1)."""
    columns = []
    for _ in range(rounds):
        columns.append(["H"] * n)
        for _ in range(rng.randint(2, 3)):
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
        c = _h_toffoli_h(rng, rng.randint(3, 4), 1)
        assert full_matrix(c, Method.GB) == full_matrix(c, Method.BRUTE) == circuit_unitary(c)


def test_layered_h_toffoli_circuits_and_their_mirrors():
    # the hard structured family: 1-3 rounds at h <= 12.  Groebner counting
    # is left out on the layered circuits themselves, where one GB matrix at
    # n = 4, h = 12 takes seconds; their mirrors (h <= 24) are the identity,
    # and those past the root-count cap are brute force's alone
    rng = random.Random(23)
    for n, rounds in ((3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1), (6, 1)):
        c = _h_toffoli_h(rng, n, rounds)
        assert c.h == n * (rounds + 1) <= 12
        assert full_matrix(c, Method.BRUTE) == circuit_unitary(c)
        mirror = _mirror(c)
        a = [rng.randint(0, 1) for _ in range(n)]
        b = list(a)
        b[rng.randrange(n)] ^= 1
        assert element(mirror, a, a) == Amplitude(1)
        assert element(mirror, a, b) == Amplitude(0)
        if mirror.h > ROOT_COUNT_VARIABLE_CAP:
            with pytest.raises(CapExceeded, match=f"root counting over {mirror.h} variables"):
                element(mirror, a, a, Method.GB)


def test_layered_n4_mirror_file_is_the_seeded_recipe():
    # the recipe in the file's header
    checked_in = parse_circuit((CIRCUITS / "layered_n4_mirror.qc").read_text(encoding="utf-8"))
    assert checked_in == _mirror(_h_toffoli_h(random.Random(4), 4, 2))
    assert (checked_in.n_qubits, checked_in.h) == (4, 24)


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
    assert parsed == [[str(x) for x in row] for row in matrix.report_rows()]
