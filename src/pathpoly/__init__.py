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
    CountPair,
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
    PolySystem,
    assemble_systems,
    column_states,
    compile_circuit,
    parse_bits,
)
from .errors import CapExceeded
from .gf2poly import (
    Poly,
    Variable,
    VarKind,
    VarUniverse,
    input_var,
    output_var,
    path_var,
)
from .groebner import (
    buchberger,
    is_groebner_basis,
    normal_form,
    s_polynomial,
)
from .oracle import ExactMatrix, circuit_unitary

__version__ = "0.1.0"

__all__ = [
    "Amplitude",
    "BRUTE_HADAMARD_CAP",
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
    "VarKind",
    "VarUniverse",
    "Variable",
    "assemble_systems",
    "bit_label",
    "buchberger",
    "circuit_unitary",
    "column_chains",
    "column_states",
    "compile_circuit",
    "count_bruteforce",
    "count_groebner",
    "count_paths",
    "element",
    "format_circuit",
    "full_matrix",
    "input_var",
    "is_groebner_basis",
    "normal_form",
    "output_var",
    "parse_bits",
    "parse_circuit",
    "path_var",
    "place_hadamard",
    "place_toffoli",
    "random_circuit",
    "render_matrix_json",
    "render_matrix_table",
    "row_counts",
    "s_polynomial",
]
