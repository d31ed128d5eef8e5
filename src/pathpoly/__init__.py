"""Exact circuit amplitudes from Boolean polynomial systems.

Circuits over a Hadamard/Toffoli-derived cell-gate set are lowered to
polynomial systems over Z2 (one output polynomial per qubit plus a phase
polynomial); transition amplitudes <b|U|a> = (N0 - N1)/sqrt(2)^h follow by
counting polynomial roots, either brute force or via Boolean Groebner bases,
and are cross-checked against an independent exact dense unitary.
"""
from .amplitudes import (
    Amplitude,
    BRUTE_HADAMARD_CAP,
    BRUTE_TABLE_BITS_CAP,
    CountPair,
    ExactMatrix,
    MATRIX_QUBIT_CAP,
    Method,
    ROOT_COUNT_VARIABLE_CAP,
    bit_label,
    count_bruteforce,
    count_groebner,
    count_paths,
    element,
    full_matrix,
    render_matrix_json,
    render_matrix_table,
    row_counts,
)
from .circuit import (
    BrokenChain,
    Chain,
    Circuit,
    CircuitError,
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
from .compiler import (
    COMPILE_PRODUCT_CAP,
    CapExceeded,
    PolySystem,
    assemble_systems,
    compile_circuit,
    parse_bits,
)
from .gf2poly import Poly, VarUniverse
from .groebner import (
    buchberger,
    is_groebner_basis,
    normal_form,
    s_polynomial,
)
from .oracle import circuit_unitary

__version__ = "0.1.0"

__all__ = [
    "Amplitude",
    "BRUTE_HADAMARD_CAP",
    "BRUTE_TABLE_BITS_CAP",
    "BrokenChain",
    "COMPILE_PRODUCT_CAP",
    "CapExceeded",
    "Chain",
    "Circuit",
    "CircuitError",
    "CircuitSyntaxError",
    "CountPair",
    "ExactMatrix",
    "Gate",
    "MATRIX_QUBIT_CAP",
    "Method",
    "PlacementConflict",
    "PlacementUnsupported",
    "Poly",
    "PolySystem",
    "ROOT_COUNT_VARIABLE_CAP",
    "VarUniverse",
    "assemble_systems",
    "bit_label",
    "buchberger",
    "circuit_unitary",
    "column_chains",
    "compile_circuit",
    "count_bruteforce",
    "count_groebner",
    "count_paths",
    "element",
    "format_circuit",
    "full_matrix",
    "is_groebner_basis",
    "normal_form",
    "parse_bits",
    "parse_circuit",
    "place_hadamard",
    "place_toffoli",
    "random_circuit",
    "render_matrix_json",
    "render_matrix_table",
    "row_counts",
    "s_polynomial",
]
