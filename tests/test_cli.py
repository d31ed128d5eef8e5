"""Command-line front-end: verbs, formats, exit codes."""
from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import re
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathpoly import (
    Amplitude,
    CapExceeded,
    CircuitError,
    Gate,
    circuit_unitary,
    cli,
    compile_circuit,
    format_circuit,
    parse_circuit,
    random_circuit,
    row_counts,
)
from pathpoly.cli import main

from conftest import DEMO_TEXT

DATA = Path(__file__).parent / "data"
CIRCUITS = Path(__file__).parent.parent / "circuits"
DEMO_PATH = str(CIRCUITS / "demo_n3.qc")
GOLDEN_N8_PATH = str(CIRCUITS / "golden_n8.qc")
BLOWUP_PATH = str(CIRCUITS / "blowup_n10.qc")
REFUSED_PATH = str(CIRCUITS / "compile_refused_n8.qc")

COMPILE_OUTPUT = """\
b1 = x2*x4 + x3
b2 = x2
b3 = x4
phi = x1*x2*x4 + x1*x3 + x1*a1 + x2*a2 + x4*a3
"""


@pytest.fixture()
def demo_path(tmp_path) -> str:
    path = tmp_path / "demo.qc"
    path.write_text(DEMO_TEXT)
    return str(path)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys, demo_path):
    code, out, err = run(capsys, "validate", demo_path)
    assert (code, out, err) == (0, "ok\n", "")


def test_validate_closes_the_circuit_file(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run(capsys, "validate", DEMO_PATH)
        gc.collect()
    assert (code, out) == (0, "ok\n")
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_circuit_file_may_start_with_a_byte_order_mark(capsys, tmp_path):
    path = tmp_path / "bom.qc"
    path.write_text("\ufeff" + DEMO_TEXT, encoding="utf-8")
    code, out, err = run(capsys, "element", str(path), "--a", "000", "--b", "001")
    assert (code, out, err) == (0, "1/2\n", "")


def test_validate_reports_broken_chain(capsys, tmp_path):
    path = tmp_path / "broken.qc"
    path.write_text("qubits 2\ncolumns 1\nIv\nI+\n")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "column 1" in err and "missing-sink" in err


def test_validate_bad_token(capsys, tmp_path):
    path = tmp_path / "bad.qc"
    path.write_text("qubits 1\ncolumns 1\nQv\n")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "Qv" in err and "line 3" in err


def test_validate_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "absent.qc"))
    assert code == 1
    assert "absent.qc" in err


def test_compile_output(capsys, demo_path):
    code, out, _ = run(capsys, "compile", demo_path)
    assert code == 0
    assert out == COMPILE_OUTPUT


def test_count_outputs(capsys, demo_path):
    assert run(capsys, "count", demo_path, "--a", "000", "--b", "000")[1] == "N0=2, N1=0\n"
    assert run(capsys, "count", demo_path, "--a", "000", "--b", "100")[1] == "N0=1, N1=1\n"
    assert run(capsys, "count", demo_path, "--a", "011", "--b", "001", "--method", "gb")[1] == "N0=0, N1=2\n"


def test_element_outputs(capsys, demo_path):
    assert run(capsys, "element", demo_path, "--a", "000", "--b", "000")[1] == "1/2\n"
    assert run(capsys, "element", demo_path, "--a", "111", "--b", "101")[1] == "-1/2\n"


def test_matrix_table_layout(capsys, demo_path):
    code, out, _ = run(capsys, "matrix", demo_path)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    assert lines[0].split() == ["a\\b", "000", "001", "010", "011", "100", "101", "110", "111"]
    assert lines[4].split() == ["011", "1/2", "-1/2", "-1/2", "1/2", "0", "0", "0", "0"]


def test_matrix_json_matches_table(capsys, demo_path):
    _, table, _ = run(capsys, "matrix", demo_path)
    _, as_json, _ = run(capsys, "matrix", demo_path, "--json")
    parsed = json.loads(as_json)
    table_rows = [line.split()[1:] for line in table.splitlines()[1:]]
    assert parsed == table_rows


@pytest.mark.parametrize("verb,extra", [
    ("count", ["--a", "010", "--b", "110"]),
    ("element", ["--a", "010", "--b", "110"]),
    ("matrix", []),
])
def test_methods_are_byte_identical(capsys, demo_path, verb, extra):
    brute = run(capsys, verb, demo_path, *extra, "--method", "brute")
    gb = run(capsys, verb, demo_path, *extra, "--method", "gb")
    assert brute == gb


def test_gb_bound(capsys, demo_path):
    code, out, _ = run(capsys, "gb", demo_path, "--bind", "a=000,b=000")
    assert code == 0
    assert out == "G0:\nx2\nx3\nx4\nG1:\n1\n"


def test_gb_symbolic_elim_contains_known_generators(capsys, demo_path):
    code, out, _ = run(capsys, "gb", demo_path)
    assert code == 0
    lines = out.splitlines()
    assert "x1*a1 + x1*b1 + a2*b2 + a3*b3" in lines
    assert "x2 + b2" in lines
    assert "x4 + b3" in lines
    assert lines.count("G0:") == 1 and lines.count("G1:") == 1


def test_gb_partial_binding(capsys, demo_path):
    code, out, _ = run(capsys, "gb", demo_path, "--bind", "a=000")
    assert code == 0
    assert out.startswith("G0:\n")


@pytest.mark.parametrize("fmt", ["plain", "maple", "mathematica"])
def test_export_matches_golden(capsys, demo_path, fmt):
    code, out, _ = run(capsys, "export", demo_path, "--format", fmt)
    assert code == 0
    assert out == (DATA / f"export_{fmt}.golden").read_text()


@pytest.mark.parametrize("argv,golden", [
    # an 8-qubit, 41-column multi-control circuit whose rows reach 108 terms
    (["compile", GOLDEN_N8_PATH], "golden_n8_compile"),
    (["export", GOLDEN_N8_PATH, "--format", "plain"], "golden_n8_export_plain"),
    (["export", GOLDEN_N8_PATH, "--format", "maple"], "golden_n8_export_maple"),
    (["export", GOLDEN_N8_PATH, "--format", "mathematica"], "golden_n8_export_mathematica"),
    (["gb", GOLDEN_N8_PATH, "--bind", "a=10110010,b=00011101"], "golden_n8_gb"),
    # the demo circuit's bases with parameters left symbolic
    (["gb", DEMO_PATH], "demo_gb"),
    (["gb", DEMO_PATH, "--bind", "a=010"], "demo_gb_a010"),
    (["gb", DEMO_PATH, "--bind", "b=110"], "demo_gb_b110"),
])
def test_outputs_at_scale_match_golden(capsys, argv, golden):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (DATA / f"{golden}.golden").read_text()


def test_compile_cap_names_the_column(capsys):
    # rows reach 8009 terms by column 40; uncapped, compiling does not finish
    code, out, err = run(capsys, "compile", BLOWUP_PATH)
    assert (code, out) == (2, "")
    assert err.startswith("error: column 40:")


def test_compile_refused_circuit_gets_a_brute_force_answer(capsys):
    # brute force walks the circuit itself, so the compile cap does not bind it
    c = parse_circuit(Path(REFUSED_PATH).read_text(encoding="utf-8"))
    with pytest.raises(CapExceeded, match="column 77"):
        compile_circuit(c)
    oracle = circuit_unitary(c).report_rows()
    for a in ("00000000", "10110010"):
        brute = tuple(Amplitude(p.n0 - p.n1, c.h) for p in row_counts(c, a))
        assert brute == oracle[int(a, 2)]
    query = ("element", REFUSED_PATH, "--a", "10110010", "--b", "00011101")
    code, out, _ = run(capsys, *query, "--method", "brute")
    assert (code, out) == (0, oracle[0b10110010][0b00011101].render() + "\n")
    code, out, err = run(capsys, *query, "--method", "gb")
    assert (code, out) == (2, "")
    assert err.startswith("error: column 77:")


def test_exit_code_validation_errors(capsys, demo_path):
    assert run(capsys, "count", demo_path, "--a", "00", "--b", "000")[0] == 1
    assert run(capsys, "count", demo_path, "--a", "002", "--b", "000")[0] == 1
    assert run(capsys, "gb", demo_path, "--bind", "c=000")[0] == 1
    assert run(capsys, "gb", demo_path, "--bind", "a=000,a=000")[0] == 1


def test_exit_code_cap_exceeded(capsys, tmp_path):
    path = tmp_path / "h25.qc"
    path.write_text("qubits 5\ncolumns 5\n" + "H H H H H\n" * 5)
    for method in ("brute", "gb"):
        code, _, err = run(capsys, "count", str(path), "--a", "00000", "--b", "00000", "--method", method)
        assert code == 2, method
        assert err.startswith("error:")
    wide = tmp_path / "n11.qc"
    wide.write_text("qubits 11\ncolumns 1\n" + "I\n" * 11)
    assert run(capsys, "matrix", str(wide))[0] == 2


def test_exit_code_usage_errors(capsys, demo_path):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate", demo_path])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["export", demo_path, "--format", "latex"])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["count", demo_path, "--a", "000"])
    assert e.value.code == 1


def test_exit_code_internal_error(capsys, demo_path, monkeypatch):
    def boom(circuit):
        raise RuntimeError("invariant violated")

    monkeypatch.setattr(cli, "compile_circuit", boom)
    code, _, err = run(capsys, "compile", demo_path)
    assert code == 3
    assert err.startswith("internal error:")


_GATE_TOKENS = tuple(g.value for g in Gate)
_SOUP_TOKENS = _GATE_TOKENS + (
    "qubits", "columns", "0", "1", "2", "3", "4", "9", "#", " ", "  ", "\t", "\n", "\n\n",
)


@st.composite
def _mutated_circuits(draw) -> str:
    """A random valid circuit's text after a few edits: a cell replaced, or a
    token or character inserted or deleted.  Whitespace runs count as tokens;
    a cell replaced by another gate keeps the grid's shape."""
    text = format_circuit(random_circuit(random.Random(draw(st.integers(0, 2**32))), 4, 5, 6))
    for _ in range(draw(st.integers(1, 3))):
        pieces = re.split(r"(\s+)", text)
        cells = [i for i, piece in enumerate(pieces) if piece in _GATE_TOKENS]
        new = draw(st.sampled_from(_GATE_TOKENS) | st.sampled_from(_SOUP_TOKENS) | st.characters())
        if cells and draw(st.booleans()):
            pieces[draw(st.sampled_from(cells))] = new
        elif draw(st.booleans()):
            pieces.insert(draw(st.integers(0, len(pieces))), new)
        else:
            del pieces[draw(st.integers(0, len(pieces) - 1))]
        text = "".join(pieces)
    return text


_soups = st.lists(st.sampled_from(_SOUP_TOKENS), max_size=40).map("".join)


@settings(max_examples=50, deadline=None)
@given(st.one_of(_mutated_circuits(), _soups))
def test_malformed_text_ends_in_a_defined_exit_code(tmp_path_factory, text):
    try:
        n = parse_circuit(text).n_qubits
    except CircuitError:
        n = 1
    path = tmp_path_factory.getbasetemp() / "fuzz.qc"
    path.write_text(text, encoding="utf-8")
    bits = "0" * n
    for argv in (
        ["validate"],
        ["compile"],
        ["export", "--format", "plain"],
        ["count", "--a", bits, "--b", bits, "--method", "gb"],
        ["gb"],
        ["matrix", "--method", "gb"],
    ):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([argv[0], str(path), *argv[1:]])
        assert code in (0, 1, 2), (argv, text)
