"""Buchberger in the Boolean ring: bases, normal forms, root counting."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathpoly import (
    Poly,
    VarUniverse,
    assemble_systems,
    buchberger,
    is_groebner_basis,
    normal_form,
    path_var,
    s_polynomial,
)
from pathpoly.groebner import _count_standard, _gb_masks

from conftest import basis_root_count, brute_root_count, polys_over, universe_and_polys

U2 = VarUniverse.of_paths(2)
U4 = VarUniverse.of_paths(4)
UDEMO = VarUniverse.for_circuit(4, 3)

KNOWN_G0_GENERATORS = [
    "x1*a1 + x1*b1 + a2*b2 + a3*b3",
    "x2 + b2",
    "x3 + b2*b3 + b1",
    "x4 + b3",
]


def p(text: str, universe: VarUniverse = U4) -> Poly:
    return Poly.parse(text, universe)


# normal forms

def test_normal_form_substitutes_leading_terms():
    assert normal_form(p("x1*x2 + 1", U2), [p("x1 + 1", U2)]) == p("x2 + 1", U2)


def test_normal_form_of_member_is_zero():
    G = buchberger([p("x1*x2 + 1", U2)])
    member = p("x1*x2 + 1", U2) * p("x2", U2) + p("x1 + 1", U2) * p("x1", U2)
    assert normal_form(member, G).is_zero


def test_normal_form_of_row_constraint_against_symbolic_basis(demo_system):
    f0, _ = assemble_systems(demo_system)
    G0 = buchberger(f0)
    assert normal_form(Poly.parse("x2*x4 + x3 + b1", UDEMO), G0).is_zero


def test_normal_form_is_idempotent_and_stable():
    G = buchberger([p("x1 + x2"), p("x3*x4 + x3")])
    q = p("x1*x3*x4 + x2 + 1")
    r = normal_form(q, G)
    assert normal_form(r, G) == r


# buchberger

def test_buchberger_splits_product_constraint():
    G = buchberger([p("x1*x2 + 1", U2)])
    assert [str(g) for g in G] == ["x1 + 1", "x2 + 1"]


def test_buchberger_of_unit_is_unit():
    G = buchberger([Poly.one(U2)])
    assert [str(g) for g in G] == ["1"]
    assert basis_root_count(G, U2) == 0


def test_buchberger_detects_hidden_inconsistency():
    G = buchberger([p("x1", U2), p("x1 + 1", U2)])
    assert [str(g) for g in G] == ["1"]


def test_buchberger_empty_and_zero_inputs():
    # no polynomial, no universe: the zero ideal over U is [Poly.zero(U)]
    with pytest.raises(ValueError):
        buchberger([])
    G = buchberger([Poly.zero(U2)])
    assert G == ()
    assert basis_root_count(G, U2) == 4


def test_buchberger_symbolic_basis_contains_known_generators(demo_system):
    f0, f1 = assemble_systems(demo_system)
    G0 = buchberger(f0)
    for text in KNOWN_G0_GENERATORS:
        assert normal_form(Poly.parse(text, UDEMO), G0).is_zero
    G1 = buchberger(f1)
    known_g1 = [Poly.parse(KNOWN_G0_GENERATORS[0], UDEMO) + 1] + [
        Poly.parse(t, UDEMO) for t in KNOWN_G0_GENERATORS[1:]
    ]
    for g in known_g1:
        assert normal_form(g, G1).is_zero
    assert is_groebner_basis(G0)
    assert is_groebner_basis(G1)
    # reduced bases are unique, so unequal bases span unequal ideals
    assert G0 != G1


def test_buchberger_requires_one_universe():
    with pytest.raises(ValueError):
        buchberger([p("x1", U2), p("x1", U4)])


def test_generators_sorted_descending_by_leading_monomial():
    G = buchberger([p("x3 + 1"), p("x1*x2 + x4")])
    keys = [g.monomial_masks[0] for g in G]
    assert keys == sorted(keys, reverse=True)


# root counts from a basis's leading monomials

def test_basis_root_count_examples(demo_system):
    f0, _ = assemble_systems(demo_system, a="000", b="000")
    G = buchberger(f0)
    assert [str(g) for g in G] == ["x2", "x3", "x4"]
    assert basis_root_count(G, UDEMO, [path_var(i) for i in range(1, 5)]) == 2
    assert basis_root_count(buchberger([Poly.one(U4)]), U4) == 0
    assert basis_root_count(buchberger([Poly.zero(U2)]), U2) == 4


# property suite against the brute-force oracle

@settings(max_examples=80, deadline=None)
@given(universe_and_polys(max_vars=8, count=4, max_monomials=5))
def test_count_matches_bruteforce(up):
    universe, polys = up
    G = buchberger(polys)
    assert basis_root_count(G, universe) == brute_root_count(polys, universe)


@settings(max_examples=50, deadline=None)
@given(universe_and_polys(max_vars=7, count=3, max_monomials=4))
def test_buchberger_criterion_holds(up):
    _, polys = up
    assert is_groebner_basis(buchberger(polys))


def test_is_groebner_basis_rejects_a_failed_field_pair_or_s_pair():
    u = VarUniverse.of_paths(3)
    x1, x2, x3 = (Poly.variable(u, path_var(i)) for i in (1, 2, 3))
    # one generator has no S-pair, but its field pair x1*(x1*x2 + x3) reduces
    # to x1*x3 + x3
    assert not is_groebner_basis((x1 * x2 + x3,))
    # the S-pair S(x1 + x2, x1 + x3) = x2 + x3 is already in normal form
    assert not is_groebner_basis((x1 + x2, x1 + x3))


@settings(max_examples=50, deadline=None)
@given(universe_and_polys(max_vars=7, count=3, max_monomials=4))
def test_buchberger_idempotent(up):
    universe, polys = up
    G = buchberger(polys)
    again = buchberger((Poly.zero(universe), *G))
    assert again == G


@settings(max_examples=40, deadline=None)
@given(universe_and_polys(max_vars=6, count=3, max_monomials=4))
def test_root_count_is_order_independent(up):
    # lex by the reversed precedence is lex over the reversed universe
    universe, polys = up
    reversed_universe = VarUniverse(reversed(universe.variables))
    reparsed = [Poly.parse(str(q), reversed_universe) for q in polys]
    assert basis_root_count(buchberger(polys), universe) == basis_root_count(
        buchberger(reparsed), reversed_universe
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_normal_form_constant_on_ideal_cosets(data):
    universe, polys = data.draw(universe_and_polys(max_vars=6, count=3, max_monomials=4))
    G = buchberger(polys)
    if not G:
        return
    q = data.draw(polys_over(universe))
    member = Poly.zero(universe)
    for g in G:
        member = member + g * data.draw(polys_over(universe, max_monomials=2))
    assert normal_form(q, G) == normal_form(q + member, G)


@settings(max_examples=60, deadline=None)
@given(universe_and_polys(max_vars=7, count=3, max_monomials=4))
def test_basis_is_reduced(up):
    _, polys = up
    G = buchberger(polys)
    lms = [g.monomial_masks[0] for g in G]
    for i, g in enumerate(G):
        for m in g.monomial_masks:
            for j, lm in enumerate(lms):
                if i != j:
                    assert (m & lm) != lm, (str(g), i, j)


@settings(max_examples=40, deadline=None)
@given(universe_and_polys(max_vars=6, count=2, max_monomials=4))
def test_s_polynomial_cancels_leading_terms(up):
    _, (f, g) = up
    if f.is_zero or g.is_zero:
        return
    s = s_polynomial(f, g)
    lcm = f.monomial_masks[0] | g.monomial_masks[0]
    if not s.is_zero:
        assert s.monomial_masks[0] < lcm


# kernel cross-checks

def _raw_systems(data, n_vars: int):
    """Draw a support of 1 to 5 of n_vars variables; return its bit positions
    and a strategy for raw systems of 1 to 3 mask polynomials over it.

    A term is a nonempty product of support variables, and the constant is a
    separate flag: drawn as a plain mask it mostly collapses the system to
    the unit ideal.  Terms may repeat, so they cancel and a polynomial may be
    zero, as when a bound row equals its b bit.  The small support keeps
    enumeration at 32 points or fewer even at 16 variables.
    """
    positions = data.draw(
        st.lists(st.integers(0, n_vars - 1), min_size=1, max_size=5, unique=True)
    )
    term = st.sets(st.sampled_from(positions), min_size=1).map(
        lambda vs: sum(1 << v for v in vs)
    )
    poly = st.builds(
        lambda terms, constant: [*terms, 0] if constant else terms,
        st.lists(term, min_size=1, max_size=4),
        st.booleans(),
    )
    return positions, st.lists(poly, min_size=1, max_size=3)


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 16), st.data())
def test_gb_masks_counts_roots_of_raw_systems(n_vars, data):
    positions, system = _raw_systems(data, n_vars)
    support = sum(1 << i for i in positions)
    systems = data.draw(system)
    basis = _gb_masks(systems, n_vars)
    for g in basis:
        assert list(g) == sorted(set(g), reverse=True)
    lms = [g[0] for g in basis]
    assert lms == sorted(set(lms), reverse=True)
    roots = sum(
        all(sum(m & point == m for m in poly) % 2 == 0 for poly in systems)
        for point in _submasks(support)
    )
    expected = roots << (n_vars - len(positions))
    assert _count_standard(lms, (1 << n_vars) - 1) == expected


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.data())
def test_count_standard_matches_flat_enumeration(n_vars, data):
    var_mask = (1 << n_vars) - 1
    lms = data.draw(st.lists(st.integers(0, var_mask), max_size=6))
    expected = sum(
        all((s & lm) != lm for lm in lms) for s in range(1 << n_vars)
    )
    assert _count_standard(lms, var_mask) == expected


def test_buchberger_root_count_matches_brute_force_over_16_variables():
    # 16 variables through the public buchberger must match brute force
    rng = random.Random(7)
    u = VarUniverse.of_paths(16)
    polys = [
        Poly(u, [rng.randrange(1 << 16) & 0b1111 for _ in range(3)]) + (i & 1)
        for i in range(3)
    ]
    G = buchberger(polys)
    # support only touches the low 4 variables, so brute force stays cheap
    support = sorted({v for q in polys for v in q.variables}, key=str)
    sub = VarUniverse(v for v in u.variables if v in set(support))
    projected = [Poly.parse(str(q), sub) for q in polys]
    assert basis_root_count(G, u) == brute_root_count(projected, sub) << (16 - sub.size)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 16), st.data())
def test_gb_masks_extends_a_seed_basis(n_vars, data):
    # a reduced basis is unique for a fixed order, so extending the basis of
    # old by new must give exactly the basis of old and new together.  The
    # zero ideal and the unit ideal are checked as seeds every time.
    _, system = _raw_systems(data, n_vars)
    old, new = data.draw(system), data.draw(system)
    for start in ([], [(0,)], old):
        seed = _gb_masks(start, n_vars)
        assert _gb_masks(new, n_vars, seed) == _gb_masks([*start, *new], n_vars)
