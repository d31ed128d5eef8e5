"""Lower a circuit to its sum-over-paths polynomial system.

Each qubit row carries a Z2 polynomial in the inputs a_i and the path
variables x_k; each H cell replaces its row value by a fresh x_k and adds
input*x_k to the phase polynomial.  Vertical chains multiply the values of
their control rows and XOR the product into the target row.  Every cell of
a column reads the column's input state.

The compiler works on monomial-mask sets with the ring kernels of gf2poly,
as the brute-force walk in amplitudes works on truth tables, and builds a
Poly of each row and of the phase once, at the end.

The final row polynomials give the output bits b_i(x; a) and the phase gives
the sign (-1)^phi of each path, so the amplitude <b|U|a> is determined by
counting the roots of {b_i(x;a) + b_i} joint with phi = 0 or 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .circuit import Circuit
from .gf2poly import Poly, VarUniverse, _mul, _mul_mono

# Most term pairs one control-row product may form.  The benchmark's deep
# compiles (40-80 columns, up to 3 controls) form at most about 2*10^4; a
# product at the cap takes well under a second.
COMPILE_PRODUCT_CAP = 10**6


class CapExceeded(RuntimeError):
    """A resource cap (brute-force paths, matrix qubits, root-count variables
    or a compile product) was exceeded."""


@dataclass(frozen=True)
class PolySystem:
    """Compiled circuit: one polynomial per qubit row plus the phase.

    Row polynomials and phase mention only x1..xh and a1..an; the b_j
    variables of the shared universe enter in assemble_systems.
    """

    row_polys: tuple[Poly, ...]
    phase: Poly
    h: int
    n: int

    @property
    def universe(self) -> VarUniverse:
        return self.phase.universe


def compile_circuit(circuit: Circuit) -> PolySystem:
    """Compile a circuit column by column into its polynomial system.

    Rows and phase are mask sets updated in place: a chain XORs the product
    of its control rows into its target row, and the k-th H cell XORs
    row*x_k into the phase and sets its row to {x_k}.  The cells of a column
    hold distinct rows, so each cell still reads the column's input.  No row
    shares another row's set: a one-control chain's signal is the control
    row's own set, which is only read.
    """
    universe = VarUniverse.for_circuit(circuit.h, circuit.n_qubits)
    rows = [{1 << universe.bit(f"a{i}")} for i in range(1, circuit.n_qubits + 1)]
    phase: set[int] = set()
    k = 0
    for c, (chains, hadamards) in enumerate(circuit.steps, 1):
        for chain in chains:
            signal = rows[chain.controls[0] - 1]
            for r in chain.controls[1:]:
                factor = rows[r - 1]
                pairs = len(signal) * len(factor)
                if pairs > COMPILE_PRODUCT_CAP:
                    raise CapExceeded(
                        f"column {c}: control-row product of {pairs} term pairs "
                        f"exceeds the cap of {COMPILE_PRODUCT_CAP}"
                    )
                signal = _mul(signal, factor)
            rows[chain.target - 1] ^= signal
        for r in hadamards:
            k += 1
            x = 1 << universe.bit(f"x{k}")
            phase ^= _mul_mono(rows[r - 1], x)
            rows[r - 1] = {x}
    return PolySystem(
        row_polys=tuple(Poly(universe, row) for row in rows),
        phase=Poly(universe, phase),
        h=circuit.h,
        n=circuit.n_qubits,
    )


def parse_bits(bits: "str | Sequence[int]", n: int, name: str = "bits") -> tuple[int, ...]:
    """Coerce a big-endian bit string or int sequence to an n-tuple of 0/1."""
    if isinstance(bits, str):
        if not all(ch in "01" for ch in bits):
            raise ValueError(f"{name} must be a string of 0s and 1s, got {bits!r}")
        values = tuple(int(ch) for ch in bits)
    else:
        values = tuple(bits)
        if not all(v in (0, 1) for v in values):
            raise ValueError(f"{name} must contain only 0s and 1s, got {bits!r}")
    if len(values) != n:
        raise ValueError(f"{name} has length {len(values)}, expected {n}")
    return values


def assemble_systems(
    ps: PolySystem,
    a: "str | Sequence[int] | None" = None,
    b: "str | Sequence[int] | None" = None,
) -> tuple[tuple[Poly, ...], tuple[Poly, ...]]:
    """Build the root systems F0 = (f_1..f_N, phi) and F1 = (f_1..f_N, phi+1).

    f_i is row_poly_i plus the output b_i, as a constant when b is bound and
    as the variable b_i otherwise; a binds the a_i likewise.  Unbound
    parameters stay symbolic.
    """
    universe = ps.universe
    bindings: dict = {}
    if a is not None:
        for i, bit in enumerate(parse_bits(a, ps.n, "a"), 1):
            bindings[f"a{i}"] = bit
    if b is not None:
        b_terms = [(0,) if bit else () for bit in parse_bits(b, ps.n, "b")]
    else:
        b_terms = [(1 << universe.bit(f"b{i}"),) for i in range(1, ps.n + 1)]
    rows = [p.substitute(bindings) if bindings else p for p in ps.row_polys]
    phase = ps.phase.substitute(bindings) if bindings else ps.phase
    f = tuple(Poly(universe, row.monomial_masks + term) for row, term in zip(rows, b_terms))
    return (*f, phase), (*f, Poly(universe, phase.monomial_masks + (0,)))
