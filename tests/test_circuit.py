"""Grid model: column validation, placement helpers, DSL round-trips."""
from __future__ import annotations

import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathpoly import (
    BrokenChain,
    Circuit,
    CircuitSyntaxError,
    Gate,
    PlacementConflict,
    PlacementUnsupported,
    column_chains,
    format_circuit,
    parse_circuit,
    place_hadamard,
    place_toffoli,
    random_circuit,
)
from pathpoly import cli

from conftest import DEMO_TEXT, circuits

CIRCUITS = Path(__file__).parent.parent / "circuits"


def col(tokens: str) -> list[Gate]:
    return [Gate(t) for t in tokens.split()]


def accepts(column: list[Gate]) -> bool:
    try:
        column_chains(column)
    except BrokenChain:
        return False
    return True


def segmentation_accepts(column: list[Gate]) -> bool:
    """Independent validity oracle: a column is a sequence of disjoint segments.

    Each segment is a single passive cell (I, H, bare I+), a descending chain
    Iv (I+|Mv)* Av, or an ascending chain written top to bottom A^ (I+|M^)* I^.
    The segment sets are prefix-unambiguous, so a greedy scan is exact.
    """
    n = len(column)
    i = 0
    while i < n:
        g = column[i]
        if g in (Gate.IDENTITY, Gate.HADAMARD, Gate.CROSS):
            i += 1
            continue
        if g is Gate.EMIT_DOWN:
            passers, end = (Gate.CROSS, Gate.MUL_DOWN), Gate.ADD_DOWN
        elif g is Gate.ADD_UP:
            passers, end = (Gate.CROSS, Gate.MUL_UP), Gate.EMIT_UP
        else:
            return False
        i += 1
        while i < n and column[i] in passers:
            i += 1
        if i == n or column[i] is not end:
            return False
        i += 1
    return True


# gate tokens

def test_gate_tokens_round_trip():
    tokens = ["I", "I+", "Iv", "I^", "Mv", "M^", "Av", "A^", "H"]
    assert [Gate(t).value for t in tokens] == tokens
    assert len(Gate) == 9


@pytest.mark.parametrize("bad", ["Qv", "i", "IV", "A", "", "H "])
def test_gate_from_token_rejects(bad):
    with pytest.raises(ValueError):
        Gate(bad)


# column validation

def test_validate_accepts_worked_toffoli_column():
    column_chains(col("Iv Mv Av"))


def test_validate_missing_source_at_top():
    with pytest.raises(BrokenChain) as e:
        column_chains(col("Mv I I"))
    assert e.value.row == 1
    assert e.value.reason == "missing-source"
    assert "column 1, row 1: missing-source" in str(e.value)


def test_validate_blocked_by_identity():
    with pytest.raises(BrokenChain) as e:
        column_chains(col("Iv I Av"))
    assert (e.value.row, e.value.reason) == (2, "blocked-by I")


def test_validate_blocked_by_hadamard():
    with pytest.raises(BrokenChain) as e:
        column_chains(col("Iv H Av"))
    assert e.value.reason == "blocked-by H"


def test_validate_blocked_by_opposing_multiplier():
    with pytest.raises(BrokenChain) as e:
        column_chains(col("Iv M^ Av"))
    assert e.value.reason == "blocked-by M^"


def test_validate_dangling_emitter_at_boundary():
    with pytest.raises(BrokenChain) as e:
        column_chains(col("I I Iv"))
    assert (e.value.row, e.value.reason) == (3, "dangling-emitter")


def test_validate_missing_sink():
    with pytest.raises(BrokenChain) as e:
        column_chains(col("Iv I+ I+"))
    assert (e.value.row, e.value.reason) == (3, "missing-sink")


def test_validate_missing_source_for_ascending():
    with pytest.raises(BrokenChain) as e:
        column_chains(col("I^ A^"))
    assert e.value.reason == "missing-source"


def test_validate_accepts_multi_control_chain():
    column_chains(col("Iv Mv Mv Av"))


def test_validate_accepts_stacked_disjoint_chains():
    column_chains(col("Iv Av A^ I^"))


def test_validate_accepts_bare_crossing():
    column_chains(col("I+ I+"))


def test_validate_checks_length():
    # a two-cell column in a three-qubit circuit, and a ragged row
    with pytest.raises(ValueError, match="grid shape"):
        Circuit(3, 1, tuple((g,) for g in col("I I")))
    with pytest.raises(ValueError, match="grid shape"):
        Circuit(2, 2, ((Gate.IDENTITY, Gate.IDENTITY), (Gate.IDENTITY,)))


def test_column_chains_reports_controls_and_target():
    chains = column_chains(col("Iv Mv Av A^ M^ I^"))
    assert len(chains) == 2
    assert [(ch.target, ch.controls) for ch in chains] == [(3, (1, 2)), (4, (5, 6))]
    # top to bottom: an upward chain above a downward one comes first
    chains = column_chains(col("A^ M^ I^ Iv Av"))
    assert [(ch.target, ch.controls) for ch in chains] == [(1, (2, 3)), (5, (4,))]


def test_validate_matches_segmentation_oracle_exhaustively():
    for n in range(1, 5):
        for column in itertools.product(Gate, repeat=n):
            column = list(column)
            assert accepts(column) == segmentation_accepts(column), column


def test_validate_matches_segmentation_oracle_random_n5():
    rng = random.Random(20314)
    gates = list(Gate)
    for _ in range(20000):
        column = [rng.choice(gates) for _ in range(5)]
        assert accepts(column) == segmentation_accepts(column), column


# placement helpers

def test_place_toffoli_descending():
    c = place_toffoli(Circuit.empty(3, 4), 2, {1, 2}, 3)
    assert c.column(2) == tuple(col("Iv Mv Av"))
    assert c.column(1) == tuple(col("I I I"))


def test_place_toffoli_ascending_cnot():
    c = place_toffoli(Circuit.empty(3, 1), 1, {3}, 1)
    assert c.column(1) == tuple(col("A^ I+ I^"))


def test_place_toffoli_target_between_controls():
    with pytest.raises(PlacementUnsupported):
        place_toffoli(Circuit.empty(3, 1), 1, {1, 3}, 2)


def test_place_toffoli_conflict_on_occupied_cell():
    c = place_hadamard(Circuit.empty(3, 1), 1, 3)
    with pytest.raises(PlacementConflict):
        place_toffoli(c, 1, {1}, 3)


def test_place_toffoli_skips_gap_rows_with_crossings():
    c = place_toffoli(Circuit.empty(4, 1), 1, {1}, 4)
    assert c.column(1) == tuple(col("Iv I+ I+ Av"))


@pytest.mark.parametrize(
    "controls,target",
    [(set(), 2), ({0}, 2), ({1}, 5), ({1}, 1)],
)
def test_place_toffoli_rejects_bad_rows(controls, target):
    with pytest.raises(ValueError):
        place_toffoli(Circuit.empty(4, 1), 1, controls, target)


@pytest.mark.parametrize("column", [0, 3])
def test_placement_rejects_column_out_of_range(column):
    with pytest.raises(ValueError, match=f"column {column} out of range 1..2"):
        place_toffoli(Circuit.empty(3, 2), column, {1}, 3)
    with pytest.raises(ValueError, match=f"column {column} out of range 1..2"):
        place_hadamard(Circuit.empty(3, 2), column, 1)


@pytest.mark.parametrize("row, column", [(0, 0), (-1, -1), (4, 5)])
def test_grid_lookups_reject_indices_off_the_grid(row, column):
    # 1-based on a 3 x 4 grid: 0 and -1 must not wrap round to the far end
    c = parse_circuit(DEMO_TEXT)
    with pytest.raises(ValueError, match=f"column {column} out of range 1..4"):
        c.column(column)
    with pytest.raises(ValueError, match=f"column {column} out of range 1..4"):
        c.gate_at(1, column)
    with pytest.raises(ValueError, match=f"row {row} out of range 1..3"):
        c.gate_at(row, 1)


def test_place_hadamard_and_conflict():
    c = place_hadamard(Circuit.empty(2, 2), 2, 1)
    assert c.gate_at(1, 2) is Gate.HADAMARD
    with pytest.raises(PlacementConflict):
        place_hadamard(c, 2, 1)


@settings(max_examples=100)
@given(st.data())
def test_placed_toffoli_always_validates(data):
    n = data.draw(st.integers(2, 6))
    rows = data.draw(st.permutations(range(1, n + 1)))
    k = data.draw(st.integers(1, n - 1))
    target_above = data.draw(st.booleans())
    chosen = sorted(rows[: k + 1])
    if target_above:
        target, controls = chosen[0], chosen[1:]
    else:
        target, controls = chosen[-1], chosen[:-1]
    c = place_toffoli(Circuit.empty(n, 1), 1, controls, target)
    chains = column_chains(c.column(1))
    assert len(chains) == 1
    assert chains[0].target == target
    assert set(chains[0].controls) == set(controls)


# DSL parse and print

def test_parse_demo_circuit():
    c = parse_circuit(DEMO_TEXT)
    assert (c.n_qubits, c.n_columns, c.h) == (3, 4, 4)
    assert c.column(2) == tuple(col("Iv Mv Av"))
    assert c.gate_at(1, 4) is Gate.ADD_UP


def test_parse_single_cell():
    c = parse_circuit("qubits 1\ncolumns 1\nH\n")
    assert (c.n_qubits, c.n_columns, c.h) == (1, 1, 1)


def test_parse_allows_comments_and_blank_lines():
    c = parse_circuit("# header\nqubits 1\n\ncolumns 2\n# body\nH H\n")
    assert c.h == 2


def test_parse_bad_token_names_it():
    # tokens are case-sensitive, and a bare A or M has no direction
    for bad in ("Qv", "i", "IV", "A"):
        with pytest.raises(CircuitSyntaxError) as e:
            parse_circuit(f"qubits 1\ncolumns 1\n{bad}\n")
        assert repr(bad) in str(e.value)
        assert e.value.line == 3


@pytest.mark.parametrize(
    "text",
    [
        "columns 1\nH\n",
        "qubits 1\nH\n",
        "qubits 0\ncolumns 1\nH\n",
        "qubits one\ncolumns 1\nH\n",
        "qubits 2\ncolumns 1\nH\n",
        "qubits 1\ncolumns 2\nH\n",
        "qubits 1\ncolumns 1\nH\nH\n",
    ],
)
def test_parse_rejects_malformed_documents(text):
    with pytest.raises(CircuitSyntaxError):
        parse_circuit(text)


@pytest.mark.parametrize(
    "text, line",
    [
        ("qubits \u00b2\ncolumns 1\nH\n", 1),
        ("qubits 1\ncolumns \u00b3\nH\n", 2),
        ("qubits \u0661\ncolumns 1\nH\n", 1),
        ("qubits " + "1" * 5000 + "\ncolumns 1\nH\n", 1),
    ],
    ids=[
        "qubits-superscript-two",
        "columns-superscript-three",
        "qubits-arabic-indic-one",
        "qubits-past-the-int-digit-limit",
    ],
)
def test_parse_header_accepts_only_ascii_digits(text, line, tmp_path, capsys):
    # str.isdigit() accepts superscripts and other scripts' digits; int() then
    # fails on some of them and silently converts the rest.  int() also fails
    # on a string of more digits than CPython converts (4300 by default)
    with pytest.raises(CircuitSyntaxError) as e:
        parse_circuit(text)
    assert e.value.line == line
    path = tmp_path / "header.qc"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 1
    assert f"line {line}:" in capsys.readouterr().err


def test_parse_propagates_validation_errors():
    with pytest.raises(BrokenChain):
        parse_circuit("qubits 2\ncolumns 1\nIv\nI\n")


def test_broken_chain_reports_its_column():
    with pytest.raises(BrokenChain) as e:
        parse_circuit("qubits 3\ncolumns 4\nH Iv Iv I\nI Mv H I\nI Av Av H\n")
    assert (e.value.column, e.value.row, e.value.reason) == (3, 2, "blocked-by H")
    assert "column 3, row 2: blocked-by H" in str(e.value)


def test_steps_hold_each_columns_chains_and_hadamard_rows():
    c = parse_circuit(DEMO_TEXT)
    assert [hadamards for _, hadamards in c.steps] == [(1, 2), (), (1, 3), ()]
    assert [chains for chains, _ in c.steps] == [
        column_chains(c.column(k), k) for k in range(1, c.n_columns + 1)
    ]


def test_format_demo_is_parseable_and_aligned():
    c = parse_circuit(DEMO_TEXT)
    text = format_circuit(c)
    assert text.startswith("qubits 3\ncolumns 4\n")
    assert parse_circuit(text) == c


@settings(max_examples=100)
@given(circuits())
def test_parse_print_round_trip(c):
    assert parse_circuit(format_circuit(c)) == c


@settings(max_examples=100)
@given(circuits())
def test_h_invariant_under_round_trip(c):
    assert parse_circuit(format_circuit(c)).h == c.h


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_random_circuit_respects_bounds(seed):
    c = random_circuit(random.Random(seed), max_qubits=4, max_columns=6, max_h=10)
    assert 1 <= c.n_qubits <= 4
    assert 1 <= c.n_columns <= 6
    assert c.h <= 10


@pytest.mark.parametrize(
    "path, seed, draw, bounds",
    [("golden_n8.qc", 21, 11, (8, 60, 12)), ("blowup_n10.qc", 1, 22, (10, 320, 60))],
)
def test_recorded_circuits_are_their_random_draws(path, seed, draw, bounds):
    rng = random.Random(seed)
    for _ in range(draw):
        c = random_circuit(rng, *bounds)
    assert parse_circuit((CIRCUITS / path).read_text(encoding="utf-8")) == c


def test_circuit_shape_validation():
    with pytest.raises(ValueError):
        Circuit(2, 1, ((Gate.IDENTITY,),))
    with pytest.raises(ValueError):
        Circuit(1, 2, ((Gate.IDENTITY,),))
    with pytest.raises(ValueError):
        Circuit(0, 0, ())


def test_circuit_rejects_cells_that_are_not_gates():
    # a CNOT written as token strings, not Gate members
    with pytest.raises(ValueError, match="column 1, row 1: 'Iv' is not a Gate"):
        Circuit(2, 1, (("Iv",), ("Av",)))
    with pytest.raises(ValueError, match="column 2, row 1: 'H' is not a Gate"):
        Circuit(1, 2, ((Gate.HADAMARD, "H"),))
