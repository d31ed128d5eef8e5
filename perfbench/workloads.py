"""The benchmark's workloads: seeded rounds of pathpoly CLI calls and their checks.

A round is the fixed group of calls a workload issues for one generated
input: both methods on one element query, a GB and a brute-force matrix, or
one compile.  Sizes cycle through a fixed schedule, so every seed draws the
same mix of shapes and only the circuit contents and bindings change.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from types import ModuleType

from gen import GenCircuit, random_gen_circuit, simulate


@dataclass
class Call:
    kind: str  # metric group: brute, gb or compile
    circuit: GenCircuit
    verb: str
    options: tuple[str, ...] = ()
    path: str = ""

    def argv(self) -> list[str]:
        return [self.verb, self.path, *self.options]


@dataclass
class Round:
    calls: list[Call]
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Sizes:
    element_n: tuple[int, int]
    element_h: tuple[int, int]
    matrix_gb: tuple[tuple[int, int], tuple[int, int]]  # (n range, h range)
    matrix_brute: tuple[tuple[int, int], tuple[int, int]]
    compile_n: tuple[int, int]
    compile_m: tuple[int, int]
    compile_h: tuple[int, int]


FULL = Sizes(
    element_n=(6, 10),
    element_h=(12, 16),
    matrix_gb=((4, 4), (6, 10)),
    matrix_brute=((5, 5), (10, 14)),
    compile_n=(8, 10),
    compile_m=(40, 80),
    compile_h=(8, 12),
)
SMOKE = Sizes(
    element_n=(3, 4),
    element_h=(3, 5),
    matrix_gb=((2, 2), (2, 4)),
    matrix_brute=((3, 3), (3, 5)),
    compile_n=(3, 4),
    compile_m=(4, 6),
    compile_h=(2, 4),
)

# Element queries with n <= ORACLE_ELEMENT_N among the first ORACLE_ELEMENT_ROUNDS
# rounds are also checked against the dense oracle.
ORACLE_ELEMENT_N = 6
ORACLE_ELEMENT_ROUNDS = 100
# Most inputs and path variables one compiled row may depend on.
COMPILE_SUPPORT_CAP = 8
# Points at which each compiled system is compared with the simulator.
COMPILE_CHECK_POINTS = 8


def _cycle(i: int, lo_hi: tuple[int, int]) -> int:
    lo, hi = lo_hi
    return lo + i % (hi - lo + 1)


def _shallow(rng: random.Random, n: int, h: int) -> GenCircuit:
    """About two H cells per column, with CNOT and Toffoli chains between them."""
    return random_gen_circuit(rng, n, max(2, h // 2 + rng.randint(0, 3)), h, density=0.3, max_len=3)


def element_round(rng: random.Random, i: int, sizes: Sizes) -> Round:
    h = _cycle(i, sizes.element_h)
    n = _cycle(i // 10, sizes.element_n)
    circ = _shallow(rng, n, h)
    a = [rng.randint(0, 1) for _ in range(n)]
    reachable = i % 2 == 0
    if reachable:
        b, _ = simulate(circ, a, [rng.randint(0, 1) for _ in range(h)])
    else:
        b = [rng.randint(0, 1) for _ in range(n)]
    opts = ("--a", "".join(map(str, a)), "--b", "".join(map(str, b)))
    return Round(
        [Call(m, circ, "element", (*opts, "--method", m)) for m in ("brute", "gb")],
        {"a": int(opts[1], 2), "b": int(opts[3], 2), "oracle": n <= ORACLE_ELEMENT_N and i < ORACLE_ELEMENT_ROUNDS},
    )


def matrix_round(rng: random.Random, i: int, sizes: Sizes) -> Round:
    calls = []
    for method, (n_range, h_range) in (("gb", sizes.matrix_gb), ("brute", sizes.matrix_brute)):
        h = _cycle(i, h_range)
        n = _cycle(i // 5, n_range)
        circ = _shallow(rng, n, h)
        calls.append(Call(method, circ, "matrix", ("--json", "--method", method)))
    return Round(calls)


def compile_round(rng: random.Random, i: int, sizes: Sizes) -> Round:
    n = _cycle(i, sizes.compile_n)
    h = _cycle(i // 3, sizes.compile_h)
    m = rng.randint(*sizes.compile_m)
    circ = random_gen_circuit(rng, n, m, h, density=0.6, max_len=4, support_cap=COMPILE_SUPPORT_CAP)
    return Round([Call("compile", circ, "compile")])


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems, empty when correct


def _oracle_rows(pp: dict[str, ModuleType], circ: GenCircuit) -> list[list[str]]:
    unitary = pp["oracle"].circuit_unitary(pp["circuit"].parse_circuit(circ.text()))
    return [[amp.render() for amp in row] for row in unitary.report_rows()]


def check_element(rnd: Round, outputs: list[str], pp: dict[str, ModuleType]) -> list[str]:
    brute, gb = (out.strip() for out in outputs)
    problems = []
    if brute != gb:
        problems.append(f"brute {brute!r} != gb {gb!r}")
    if rnd.info["oracle"]:
        want = _oracle_rows(pp, rnd.calls[0].circuit)[rnd.info["a"]][rnd.info["b"]]
        if brute != want:
            problems.append(f"element {brute!r} != oracle {want!r}")
    return problems


def check_matrix(rnd: Round, outputs: list[str], pp: dict[str, ModuleType]) -> list[str]:
    problems = []
    for call, out in zip(rnd.calls, outputs):
        try:
            got = json.loads(out)
        except json.JSONDecodeError:
            problems.append(f"{call.kind} matrix output is not JSON")
            continue
        if got != _oracle_rows(pp, call.circuit):
            problems.append(f"{call.kind} matrix differs from the oracle")
    return problems


def _eval_printed(poly: str, point: dict[str, int]) -> int:
    """Value of a printed polynomial like 'x1*a2 + x3 + 1' at a 0/1 point."""
    value = 0
    for term in poly.split(" + "):
        if term == "0":
            continue
        value ^= term == "1" or all(point[v] for v in term.split("*"))
    return value


def check_compile(rnd: Round, outputs: list[str], pp: dict[str, ModuleType]) -> list[str]:
    circ = rnd.calls[0].circuit
    lines = outputs[0].splitlines()
    names = [f"b{i}" for i in range(1, circ.n + 1)] + ["phi"]
    printed = dict(line.split(" = ", 1) for line in lines if " = " in line)
    if len(lines) != len(names) or sorted(printed) != sorted(names):
        return [f"compile printed {len(lines)} lines, expected {len(names)}"]
    rng = random.Random(circ.text())
    for _ in range(COMPILE_CHECK_POINTS):
        a = [rng.randint(0, 1) for _ in range(circ.n)]
        xs = [rng.randint(0, 1) for _ in range(circ.h)]
        point = {f"a{i}": v for i, v in enumerate(a, 1)}
        point.update({f"x{k}": v for k, v in enumerate(xs, 1)})
        state, phase = simulate(circ, a, xs)
        got = [_eval_printed(printed[name], point) for name in names]
        if got != [*state, phase]:
            return [f"compiled system disagrees with the simulator at a={''.join(map(str, a))}"]
    return []


WORKLOADS = {
    "element": (element_round, check_element),
    "matrix": (matrix_round, check_matrix),
    "deep_compile": (compile_round, check_compile),
}
