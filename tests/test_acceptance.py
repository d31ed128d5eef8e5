"""Acceptance gate: one test per shipped criterion, each timed at its budget.

Run with -s to see the per-criterion pass lines and timings.
"""
from __future__ import annotations

import itertools
import json
import random
import time

from pathpoly import (
    Circuit,
    ExactMatrix,
    Gate,
    Method,
    Poly,
    VarUniverse,
    assemble_systems,
    bit_label,
    buchberger,
    circuit_unitary,
    compile_circuit,
    count_bruteforce,
    count_groebner,
    format_circuit,
    full_matrix,
    is_groebner_basis,
    normal_form,
    parse_circuit,
    path_var,
    random_circuit,
    row_counts,
)
from pathpoly.cli import main

from conftest import DEMO_MATRIX, DEMO_PHASE, DEMO_ROW_POLYS, DEMO_TEXT, basis_root_count

SUITE_SEED = 20250816
UDEMO = VarUniverse.for_circuit(4, 3)

KNOWN_G0 = [
    "x1*a1 + x1*b1 + a2*b2 + a3*b3",
    "x2 + b2",
    "x3 + b2*b3 + b1",
    "x4 + b3",
]


def report(k: int, name: str, t0: float, budget: float | None) -> None:
    dt = time.perf_counter() - t0
    if budget is not None:
        assert dt < budget, f"criterion {k} took {dt:.3f}s, budget {budget}s"
    print(f"PASS criterion {k}: {name} [{dt:.3f}s]")


def random_suite(count: int = 200) -> list[Circuit]:
    rng = random.Random(SUITE_SEED)
    return [random_circuit(rng, max_qubits=4, max_columns=6, max_h=10) for _ in range(count)]


def test_criterion_1_worked_example_polynomials():
    circuit = parse_circuit(DEMO_TEXT)
    compile_circuit(circuit)  # warm path, untimed
    t0 = time.perf_counter()
    ps = compile_circuit(circuit)
    f0, _ = assemble_systems(ps)
    assert tuple(str(p) for p in ps.row_polys) == DEMO_ROW_POLYS
    assert str(ps.phase) == DEMO_PHASE
    assert [str(p) for p in f0[:3]] == ["x2*x4 + x3 + b1", "x2 + b2", "x4 + b3"]
    report(1, "worked-example polynomials", t0, 0.010)


def test_criterion_2_worked_example_matrix():
    t0 = time.perf_counter()
    circuit = parse_circuit(DEMO_TEXT)
    matrix = full_matrix(circuit)
    rendered = [[str(x) for x in row] for row in matrix]
    assert rendered == DEMO_MATRIX
    # the rows are the columns of U, and U^T U = 1 makes them orthonormal
    u = circuit_unitary(circuit)
    assert u.report_rows() == matrix
    assert u.transpose() @ u == ExactMatrix.identity(u.dim)
    report(2, "worked-example matrix, unit-norm orthogonal rows", t0, 1.0)


def test_criterion_3_groebner_reproduction():
    t0 = time.perf_counter()
    circuit = parse_circuit(DEMO_TEXT)
    ps = compile_circuit(circuit)
    f0, f1 = assemble_systems(ps)
    G0 = buchberger(f0)
    G1 = buchberger(f1)
    for text in KNOWN_G0:
        assert normal_form(Poly.parse(text, UDEMO), G0).is_zero
    g1_generators = [Poly.parse(KNOWN_G0[0], UDEMO) + 1] + [
        Poly.parse(t, UDEMO) for t in KNOWN_G0[1:]
    ]
    for g in g1_generators:
        assert normal_form(g, G1).is_zero
    assert is_groebner_basis(G0) and is_groebner_basis(G1)
    paths = [path_var(i) for i in range(1, 5)]
    for a in range(8):
        for b in range(8):
            abits, bbits = bit_label(a, 3), bit_label(b, 3)
            bound0, bound1 = assemble_systems(ps, abits, bbits)
            brute = count_bruteforce(circuit, abits, bbits)
            assert basis_root_count(buchberger(bound0), UDEMO, paths) == brute.n0
            assert basis_root_count(buchberger(bound1), UDEMO, paths) == brute.n1
    report(3, "symbolic bases reproduce known generators; 64 bound counts", t0, 5.0)


def test_criterion_4_count_conditions():
    t0 = time.perf_counter()
    circuit = parse_circuit(DEMO_TEXT)
    ps = compile_circuit(circuit)
    for bits in itertools.product((0, 1), repeat=6):
        a, b = bits[:3], bits[3:]
        c1 = a[0] ^ b[0]
        c2 = (a[1] & b[1]) ^ (a[2] & b[2])
        expected = (2, 0) if (c1, c2) == (0, 0) else (0, 2) if (c1, c2) == (0, 1) else (1, 1)
        for counter, source in ((count_bruteforce, circuit), (count_groebner, ps)):
            pair = counter(source, a, b)
            assert (pair.n0, pair.n1) == expected, (a, b, counter.__name__)
    report(4, "root counts follow the parity/product conditions on all 64 bindings", t0, None)


def test_criterion_5_three_way_oracle_equivalence():
    t0 = time.perf_counter()
    for c in random_suite(200):
        brute = full_matrix(c, Method.BRUTE)
        gb = full_matrix(c, Method.GB)
        reference = circuit_unitary(c).report_rows()
        assert brute == gb == reference
    report(5, "200 random circuits: brute = groebner = dense oracle", t0, 60.0)


def test_criterion_6_structural_invariants():
    t0 = time.perf_counter()
    suite = random_suite(200)
    for c in suite:
        for a in range(1 << c.n_qubits):
            counts = row_counts(c, bit_label(a, c.n_qubits))
            assert sum(p.n0 + p.n1 for p in counts) == 1 << c.h
        u = circuit_unitary(c)
        product = u.transpose() @ u
        for i in range(u.dim):
            for j in range(u.dim):
                assert product.entries[i][j] == int(i == j)
        assert product.e == 0
        stripped = Circuit(
            c.n_qubits,
            c.n_columns,
            tuple(
                tuple(Gate.IDENTITY if g is Gate.HADAMARD else g for g in row)
                for row in c.grid
            ),
        )
        assert circuit_unitary(stripped).is_permutation()
    for n in range(1, 5):
        text = f"qubits {n}\ncolumns 2\n" + "H H\n" * n
        c = parse_circuit(text)
        u = circuit_unitary(c)
        assert u.is_permutation()
        assert all(u.entries[i][i] == 1 for i in range(u.dim))
        assert full_matrix(c) == u.report_rows()
    report(6, "conservation, exact unitarity, permutations, H-H cancellation", t0, None)


def test_criterion_7_standalone_groebner_vs_brute():
    t0 = time.perf_counter()
    rng = random.Random(SUITE_SEED)
    for _ in range(100):
        v = rng.randint(1, 10)
        universe = VarUniverse.of_paths(v)
        width = (1 << v) - 1
        polys = [
            Poly(universe, [rng.randint(0, width) for _ in range(rng.randint(1, 4))])
            for _ in range(rng.randint(1, 8))
        ]
        G = buchberger(polys)
        assert is_groebner_basis(G)
        mask_sets = [p.monomial_masks for p in polys]
        brute = sum(
            all(
                0 == _parity(masks, point) for masks in mask_sets
            )
            for point in range(1 << v)
        )
        assert basis_root_count(G, universe) == brute
    report(7, "100 random systems: basis counts match 2^v enumeration", t0, 30.0)


def _parity(masks: tuple[int, ...], point: int) -> int:
    value = 0
    for m in masks:
        value ^= (m & ~point) == 0
    return value


def test_criterion_8_round_trips(tmp_path, capsys):
    t0 = time.perf_counter()
    rng = random.Random(SUITE_SEED)
    for c in random_suite(100):
        assert parse_circuit(format_circuit(c)) == c
    for _ in range(200):
        universe = VarUniverse.for_circuit(rng.randint(0, 6), rng.randint(1, 4))
        width = (1 << universe.size) - 1
        p = Poly(universe, [rng.randint(0, width) for _ in range(rng.randint(0, 8))])
        assert Poly.parse(str(p), universe) == p
        assert str(Poly.parse(str(p), universe)) == str(p)
    path = tmp_path / "demo.qc"
    path.write_text(DEMO_TEXT)
    assert main(["matrix", str(path)]) == 0
    table = capsys.readouterr().out
    assert main(["matrix", str(path), "--json"]) == 0
    as_json = capsys.readouterr().out
    table_rows = [line.split()[1:] for line in table.splitlines()[1:]]
    assert json.loads(as_json) == table_rows
    report(8, "DSL, polynomial text, and JSON/table round-trips", t0, None)
