"""Boolean polynomial ring: arithmetic, orders, rendering."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathpoly import (
    Monomial,
    Poly,
    Variable,
    VarKind,
    VarUniverse,
    input_var,
    output_var,
    path_var,
)

from conftest import path_universes, points_over, polys_over, universe_and_polys

U4 = VarUniverse.of_paths(4)
UDEMO = VarUniverse.for_circuit(4, 3)


def p(text: str, universe: VarUniverse = UDEMO) -> Poly:
    return Poly.parse(text, universe)


# variables and universes

def test_variable_parse_and_str():
    assert Variable.parse("x3") == path_var(3)
    assert Variable.parse("a1") == input_var(1)
    assert Variable.parse("b12") == output_var(12)
    assert str(path_var(7)) == "x7"
    assert path_var(2).kind is VarKind.PATH


@pytest.mark.parametrize("bad", ["x0", "c3", "x01", "x", "X1", "a-1", "1x"])
def test_variable_parse_rejects(bad):
    with pytest.raises(ValueError):
        Variable.parse(bad)


def test_universe_for_circuit_layout():
    u = VarUniverse.for_circuit(2, 1)
    assert u.variables == (path_var(1), path_var(2), input_var(1), output_var(1))
    assert u.size == 4
    assert path_var(1) in u and output_var(2) not in u


def test_universe_mask_round_trip():
    vs = (path_var(2), input_var(1))
    mask = UDEMO.mask_of(vs)
    assert set(UDEMO.variables_of(mask)) == set(vs)
    assert UDEMO.mask_of(UDEMO.variables_of(mask)) == mask


def test_universe_rejects_duplicates():
    with pytest.raises(ValueError):
        VarUniverse((path_var(1), path_var(1)))


# monomials

def test_monomial_basics():
    m = Monomial.of(UDEMO, [path_var(2), path_var(4)])
    assert m.degree == 2
    assert str(m) == "x2*x4"
    assert str(Monomial.one(UDEMO)) == "1"
    assert Monomial.one(UDEMO).divides(m)
    assert not m.divides(Monomial.of(UDEMO, [path_var(2)]))
    prod = m * Monomial.of(UDEMO, [path_var(2), input_var(1)])
    assert set(prod.variables) == {path_var(2), path_var(4), input_var(1)}


# addition

def test_add_cancels_shared_monomials():
    assert p("x1 + x2", U4) + p("x2 + x3", U4) == p("x1 + x3", U4)


def test_add_output_variable_forms_row_constraint():
    assert str(p("x2*x4 + x3") + Poly.variable(UDEMO, output_var(1))) == "x2*x4 + x3 + b1"


@given(universe_and_polys(count=1))
def test_add_self_is_zero(up):
    _, (q,) = up
    assert (q + q).is_zero


# multiplication

def test_mul_idempotent_variable_cancels():
    assert (p("x1 + 1", U4) * p("x1", U4)).is_zero


def test_mul_square_is_self():
    q = p("x1 + x2", U4)
    assert q * q == q


def test_mul_distinct_variables():
    assert str(p("x1", U4) * p("x2", U4)) == "x1*x2"


# substitution

def test_substitute_constants():
    q = p("x1*a1 + x2*a2")
    assert q.substitute({input_var(1): 1, input_var(2): 0}) == p("x1")


def test_substitute_phase_term():
    q = p("x4*a3 + x1*x2*x4")
    assert q.substitute({input_var(3): 0}) == p("x1*x2*x4")


def test_substitute_empty_is_identity():
    assert p("x1").substitute({}) == p("x1")


@pytest.mark.parametrize("value", [p("x2", U4), 2], ids=["poly", "two"])
def test_substitute_rejects_non_constants(value):
    with pytest.raises(ValueError):
        p("x1 + x2", U4).substitute({path_var(1): value})


# evaluation

def test_evaluate_examples():
    assert p("x2*x4 + x3").evaluate({path_var(2): 1, path_var(3): 1, path_var(4): 1}) == 0
    assert Poly.zero(UDEMO).evaluate({}) == 0
    phase = p("x1*a1 + x2*a2 + x1*x3 + x4*a3 + x1*x2*x4")
    zeros = {v: 0 for v in UDEMO.variables}
    assert phase.evaluate(zeros) == 0


def test_evaluate_requires_all_variables():
    with pytest.raises(ValueError):
        p("x1*x2", U4).evaluate({path_var(1): 1})


# leading monomials: lex by universe precedence

def test_leading_monomial_lex():
    assert str(p("x2*x4 + x3", U4).leading_monomial()) == "x2*x4"
    assert str(p("x1 + 1", U4).leading_monomial()) == "x1"


def test_leading_monomial_ranks_paths_above_parameters():
    # UDEMO is for_circuit(4, 3): x1..x4 rank above a1..a3 and b1..b3
    assert str(p("x1*a1 + x1*b1 + a2*b2 + a3*b3").leading_monomial()) == "x1*a1"


def test_leading_monomial_of_zero_fails():
    with pytest.raises(ValueError):
        Poly.zero(U4).leading_monomial()


def test_block_elim_differs_from_lex_when_paths_rank_low():
    # another lex order is another universe: the same text, re-parsed
    paths_low = VarUniverse((input_var(1), path_var(1)))
    paths_high = VarUniverse((path_var(1), input_var(1)))
    assert str(p("a1 + x1", paths_low).leading_monomial()) == "a1"
    assert str(p("a1 + x1", paths_high).leading_monomial()) == "x1"


def test_custom_sequence_reorders():
    # a custom variable sequence is a reordered universe
    assert str(p("x1 + x4", U4).leading_monomial()) == "x1"
    assert str(p("x1 + x4", VarUniverse(reversed(U4.variables))).leading_monomial()) == "x4"


# ring axioms on random polynomials

@settings(max_examples=60)
@given(universe_and_polys(max_vars=8, count=3))
def test_ring_axioms(up):
    universe, (f, g, r) = up
    one = Poly.one(universe)
    zero = Poly.zero(universe)
    assert (f + g) + r == f + (g + r)
    assert f + g == g + f
    assert (f * g) * r == f * (g * r)
    assert f * g == g * f
    assert f * (g + r) == f * g + f * r
    assert (f + f).is_zero
    assert f * f == f
    assert f * one == f
    assert f * zero == zero
    assert f + zero == f


@given(universe_and_polys(count=1))
def test_canonical_form_is_construction_order_independent(up):
    universe, (q,) = up
    masks = list(q.monomial_masks)
    assert Poly(universe, reversed(masks)) == q
    assert Poly(universe, masks + masks).is_zero


@settings(max_examples=60)
@given(st.data())
def test_evaluate_is_a_ring_homomorphism(data):
    universe = data.draw(path_universes(6))
    f = data.draw(polys_over(universe))
    g = data.draw(polys_over(universe))
    point = data.draw(points_over(universe))
    assert (f + g).evaluate(point) == f.evaluate(point) ^ g.evaluate(point)
    assert (f * g).evaluate(point) == f.evaluate(point) & g.evaluate(point)


@settings(max_examples=40)
@given(st.data())
def test_substitute_then_evaluate_composes(data):
    universe = data.draw(path_universes(6))
    f = data.draw(polys_over(universe))
    values = data.draw(points_over(universe))
    bound = data.draw(st.sets(st.sampled_from(universe.variables)))
    bindings = {v: b for v, b in values.items() if v in bound}
    point = {v: b for v, b in values.items() if v not in bound}
    assert f.substitute(bindings).evaluate(point) == f.evaluate(values)


# rendering and parsing

def test_str_matches_display_syntax():
    assert str(p("x3 + x1*x2*x4 + 1")) == "x1*x2*x4 + x3 + 1"
    assert str(Poly.zero(U4)) == "0"
    assert str(Poly.one(U4)) == "1"


def _scan_variables(universe: VarUniverse, mask: int) -> tuple[Variable, ...]:
    """The definition: the variables whose bits are set, in precedence order."""
    size = universe.size
    return tuple(v for i, v in enumerate(universe.variables) if mask >> (size - 1 - i) & 1)


def _reference_monomial(universe: VarUniverse, mask: int) -> str:
    return "*".join(str(v) for v in _scan_variables(universe, mask)) or "1"


@st.composite
def display_universes(draw) -> VarUniverse:
    """for_circuit universes, their reversals, and universes Poly.parse infers."""
    standard = VarUniverse.for_circuit(draw(st.integers(0, 12)), draw(st.integers(0, 6)))
    kind = draw(st.sampled_from(["for_circuit", "reversed", "parsed"]))
    if kind == "reversed":
        return VarUniverse(reversed(standard.variables))
    if kind == "parsed" and standard.size:
        mentioned = draw(st.lists(st.sampled_from(standard.variables), min_size=1, unique=True))
        return Poly.parse(" + ".join(map(str, mentioned))).universe
    return standard


@settings(max_examples=150)
@given(st.data())
def test_display_matches_precedence_scan(data):
    universe = data.draw(display_universes())
    masks = data.draw(st.lists(st.integers(0, (1 << universe.size) - 1), max_size=8))
    for mask in masks:
        assert universe.variables_of(mask) == _scan_variables(universe, mask)
        assert str(Monomial(universe, mask)) == _reference_monomial(universe, mask)
    f = Poly(universe, masks)
    expected = " + ".join(_reference_monomial(universe, m) for m in f.monomial_masks) or "0"
    assert str(f) == expected
    for bad in (-1, 1 << universe.size):
        with pytest.raises(ValueError):
            universe.variables_of(bad)


def test_parse_accepts_xor_symbol():
    assert p("x1 ⊕ x2 ⊕ 1", U4) == p("x1 + x2 + 1", U4)


def test_parse_infers_universe():
    q = Poly.parse("x2*a1 + b1")
    assert q.universe.variables == (path_var(2), input_var(1), output_var(1))


@pytest.mark.parametrize("bad", ["x1 + + x2", "x1*", "*x1", "x0 + 1", "x1 x2", ""])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        Poly.parse(bad, U4)


def test_parse_rejects_foreign_variable():
    with pytest.raises(ValueError):
        Poly.parse("a1", U4)


@settings(max_examples=80)
@given(st.data())
def test_parse_print_round_trip(data):
    universe = data.draw(path_universes(8))
    f = data.draw(polys_over(universe, max_monomials=8))
    assert Poly.parse(str(f), universe) == f


def test_sorted_descending_under_default_order():
    q = p("x3 + x2*x4 + 1")
    rendered = [str(m) for m in q.monomials]
    assert rendered == ["x2*x4", "x3", "1"]


def test_operator_coercion():
    assert p("x1", U4) + 1 == p("x1 + 1", U4)
    assert 1 + p("x1", U4) == p("x1 + 1", U4)
    assert p("x1", U4) * 0 == Poly.zero(U4)
    assert p("x1 + 1", U4) - p("x1", U4) == Poly.one(U4)


def test_mixed_universe_operations_fail():
    with pytest.raises(ValueError):
        p("x1", U4) + p("x1", UDEMO)
