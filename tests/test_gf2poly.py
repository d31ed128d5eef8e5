"""Boolean polynomial ring: the mask kernels, orders, rendering."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathpoly import Poly, VarUniverse
from pathpoly.gf2poly import _mul

from conftest import path_universes, points_over, polys_over, universe_and_polys

U4 = VarUniverse.of_paths(4)
UDEMO = VarUniverse.for_circuit(4, 3)


def p(text: str, universe: VarUniverse = UDEMO) -> Poly:
    return Poly.parse(text, universe)


def masks(text: str, universe: VarUniverse = UDEMO) -> set[int]:
    return set(p(text, universe).monomial_masks)


def lead(text: str, universe: VarUniverse) -> str:
    """The leading monomial of the parsed text: its first (largest) mask."""
    return universe.monomial_str(p(text, universe).monomial_masks[0])


# variables and universes

def test_variable_parse_and_str():
    # a variable is its name: the universe keeps it, Poly prints and parses it
    u = VarUniverse(["x3", "a1", "b12", "x7"])
    assert u.variables == ("x3", "a1", "b12", "x7")
    assert [str(Poly.parse(v, u)) for v in u.variables] == ["x3", "a1", "b12", "x7"]
    assert Poly.parse("b12 + x7 + a1 + x3").universe.variables == ("x3", "x7", "a1", "b12")


@pytest.mark.parametrize("bad", ["x0", "c3", "x01", "x", "X1", "a-1", "1x"])
def test_variable_parse_rejects(bad):
    # names are checked once, where a universe is built, and by Poly.parse
    with pytest.raises(ValueError, match="not a variable token"):
        VarUniverse(["x1", bad])
    with pytest.raises(ValueError, match="not a variable token"):
        Poly.parse(f"x1 + {bad}")
    with pytest.raises(ValueError, match="not a variable token"):
        Poly.parse(f"x1*{bad}", UDEMO)


@pytest.mark.parametrize("bad", [1, None, b"x1", ("x", 1)], ids=["int", "none", "bytes", "tuple"])
def test_universe_rejects_non_str_names(bad):
    with pytest.raises(ValueError, match="not a variable token"):
        VarUniverse(["x1", bad])


def test_universe_for_circuit_layout():
    u = VarUniverse.for_circuit(2, 1)
    assert u.variables == ("x1", "x2", "a1", "b1")
    assert u.size == 4
    assert "x1" in u and "b2" not in u


def test_universe_mask_round_trip():
    vs = ("x2", "a1")
    mask = UDEMO.mask_of(vs)
    assert set(UDEMO.variables_of(mask)) == set(vs)
    assert UDEMO.mask_of(UDEMO.variables_of(mask)) == mask


def test_universe_rejects_duplicates():
    with pytest.raises(ValueError):
        VarUniverse(("x1", "x1"))


# monomials

def test_monomial_basics():
    m = Poly(UDEMO, (UDEMO.mask_of(["x2", "x4"]),))
    assert m.degree == 2
    assert str(m) == "x2*x4"
    assert str(Poly(UDEMO, (0,))) == "1"
    prod = Poly(UDEMO, _mul(m.monomial_masks, (UDEMO.mask_of(["x2", "a1"]),)))
    assert prod.monomial_masks == (UDEMO.mask_of(["x2", "x4", "a1"]),)


# addition: symmetric difference of mask sets

def test_add_cancels_shared_monomials():
    assert masks("x1 + x2", U4) ^ masks("x2 + x3", U4) == masks("x1 + x3", U4)


def test_add_output_variable_forms_row_constraint():
    b1 = masks("b1")
    assert str(Poly(UDEMO, masks("x2*x4 + x3") ^ b1)) == "x2*x4 + x3 + b1"


@given(universe_and_polys(count=1))
def test_add_self_is_zero(up):
    _, (q,) = up
    f = set(q.monomial_masks)
    assert not f ^ f


# multiplication: _mul

def test_mul_idempotent_variable_cancels():
    assert not _mul(masks("x1 + 1", U4), masks("x1", U4))


def test_mul_square_is_self():
    q = masks("x1 + x2", U4)
    assert _mul(q, q) == q


def test_mul_distinct_variables():
    assert str(Poly(U4, _mul(masks("x1", U4), masks("x2", U4)))) == "x1*x2"


# substitution

def test_substitute_constants():
    q = p("x1*a1 + x2*a2")
    assert q.substitute({"a1": 1, "a2": 0}) == p("x1")


def test_substitute_phase_term():
    q = p("x4*a3 + x1*x2*x4")
    assert q.substitute({"a3": 0}) == p("x1*x2*x4")


def test_substitute_empty_is_identity():
    assert p("x1").substitute({}) == p("x1")


@pytest.mark.parametrize("value", [p("x2", U4), 2], ids=["poly", "two"])
def test_substitute_rejects_non_constants(value):
    with pytest.raises(ValueError):
        p("x1 + x2", U4).substitute({"x1": value})


# evaluation

def test_evaluate_examples():
    assert p("x2*x4 + x3").evaluate({"x2": 1, "x3": 1, "x4": 1}) == 0
    assert Poly(UDEMO).evaluate({}) == 0
    phase = p("x1*a1 + x2*a2 + x1*x3 + x4*a3 + x1*x2*x4")
    zeros = {v: 0 for v in UDEMO.variables}
    assert phase.evaluate(zeros) == 0


def test_evaluate_requires_all_variables():
    with pytest.raises(ValueError):
        p("x1*x2", U4).evaluate({"x1": 1})


# leading monomials: lex by universe precedence

def test_leading_monomial_lex():
    assert lead("x2*x4 + x3", U4) == "x2*x4"
    assert lead("x1 + 1", U4) == "x1"


def test_leading_monomial_ranks_paths_above_parameters():
    # UDEMO is for_circuit(4, 3): x1..x4 rank above a1..a3 and b1..b3
    assert lead("x1*a1 + x1*b1 + a2*b2 + a3*b3", UDEMO) == "x1*a1"


def test_block_elim_differs_from_lex_when_paths_rank_low():
    # another lex order is another universe: the same text, re-parsed
    paths_low = VarUniverse(("a1", "x1"))
    paths_high = VarUniverse(("x1", "a1"))
    assert lead("a1 + x1", paths_low) == "a1"
    assert lead("a1 + x1", paths_high) == "x1"


def test_custom_sequence_reorders():
    # a custom variable sequence is a reordered universe
    assert lead("x1 + x4", U4) == "x1"
    assert lead("x1 + x4", VarUniverse(reversed(U4.variables))) == "x4"


# ring axioms on random polynomials

@settings(max_examples=60)
@given(universe_and_polys(max_vars=8, count=3))
def test_ring_axioms(up):
    _, polys = up
    f, g, r = (set(q.monomial_masks) for q in polys)
    one: set[int] = {0}
    zero: set[int] = set()
    assert (f ^ g) ^ r == f ^ (g ^ r)
    assert f ^ g == g ^ f
    assert _mul(_mul(f, g), r) == _mul(f, _mul(g, r))
    assert _mul(f, g) == _mul(g, f)
    assert _mul(f, g ^ r) == _mul(f, g) ^ _mul(f, r)
    assert not f ^ f
    assert _mul(f, f) == f
    assert _mul(f, one) == f
    assert _mul(f, zero) == zero
    assert f ^ zero == f


@given(universe_and_polys(count=1))
def test_canonical_form_is_construction_order_independent(up):
    universe, (q,) = up
    masks = list(q.monomial_masks)
    assert Poly(universe, reversed(masks)) == q
    assert not Poly(universe, masks + masks)


@settings(max_examples=60)
@given(st.data())
def test_evaluate_is_a_ring_homomorphism(data):
    universe = data.draw(path_universes(6))
    f = data.draw(polys_over(universe))
    g = data.draw(polys_over(universe))
    point = data.draw(points_over(universe))
    fm, gm = f.monomial_masks, g.monomial_masks
    fv, gv = f.evaluate(point), g.evaluate(point)
    assert Poly(universe, set(fm) ^ set(gm)).evaluate(point) == fv ^ gv
    assert Poly(universe, _mul(fm, gm)).evaluate(point) == fv & gv


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
    assert str(Poly(U4)) == "0"
    assert str(Poly(U4, (0,))) == "1"


def _scan_variables(universe: VarUniverse, mask: int) -> tuple[str, ...]:
    """The definition: the variables whose bits are set, in precedence order."""
    size = universe.size
    return tuple(v for i, v in enumerate(universe.variables) if mask >> (size - 1 - i) & 1)


def _reference_monomial(universe: VarUniverse, mask: int) -> str:
    return "*".join(_scan_variables(universe, mask)) or "1"


@st.composite
def display_universes(draw) -> VarUniverse:
    """for_circuit universes, their reversals, and universes Poly.parse infers."""
    standard = VarUniverse.for_circuit(draw(st.integers(0, 12)), draw(st.integers(0, 6)))
    kind = draw(st.sampled_from(["for_circuit", "reversed", "parsed"]))
    if kind == "reversed":
        return VarUniverse(reversed(standard.variables))
    if kind == "parsed" and standard.size:
        mentioned = draw(st.lists(st.sampled_from(standard.variables), min_size=1, unique=True))
        return Poly.parse(" + ".join(mentioned)).universe
    return standard


@settings(max_examples=150)
@given(st.data())
def test_display_matches_precedence_scan(data):
    universe = data.draw(display_universes())
    masks = data.draw(st.lists(st.integers(0, (1 << universe.size) - 1), max_size=8))
    for mask in masks:
        assert universe.variables_of(mask) == _scan_variables(universe, mask)
        assert universe.monomial_str(mask) == _reference_monomial(universe, mask)
    f = Poly(universe, masks)
    expected = " + ".join(_reference_monomial(universe, m) for m in f.monomial_masks) or "0"
    assert str(f) == expected
    for bad in (-1, 1 << universe.size):
        with pytest.raises(ValueError):
            universe.variables_of(bad)


def test_parse_rejects_xor_symbol():
    # '+' is the one term separator; the circled-plus sign is not accepted
    with pytest.raises(ValueError):
        p("x1 \u2295 x2 \u2295 1", U4)


def test_parse_infers_universe():
    q = Poly.parse("x2*a1 + b1")
    assert q.universe.variables == ("x2", "a1", "b1")


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
    rendered = [q.universe.monomial_str(m) for m in q.monomial_masks]
    assert rendered == ["x2*x4", "x3", "1"]

