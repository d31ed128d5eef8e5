"""Buchberger in the Boolean ring: bases, normal forms, root counting."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathpoly import (
    CapExceeded,
    Poly,
    TermOrder,
    VarUniverse,
    assemble_systems,
    buchberger,
    count_roots,
    ideal_equal,
    is_groebner_basis,
    normal_form,
    path_var,
    s_polynomial,
)
from pathpoly.groebner import _DENSE, _SPARSE, _buchberger, _count_standard

from conftest import brute_root_count, polys_over, universe_and_polys

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
    order = TermOrder.block_elim(UDEMO)
    G0 = buchberger(f0, order)
    assert normal_form(Poly.parse("x2*x4 + x3 + b1", UDEMO), G0, order).is_zero


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
    assert count_roots(G, U2.variables) == 0


def test_buchberger_detects_hidden_inconsistency():
    G = buchberger([p("x1", U2), p("x1 + 1", U2)])
    assert [str(g) for g in G] == ["1"]


def test_buchberger_empty_and_zero_inputs():
    order = TermOrder.lex(U2)
    assert buchberger([], order).generators == ()
    assert buchberger([Poly.zero(U2)], order).generators == ()
    assert count_roots(buchberger([], order), U2.variables) == 4


def test_buchberger_symbolic_basis_contains_known_generators(demo_system):
    f0, f1 = assemble_systems(demo_system)
    order = TermOrder.block_elim(UDEMO)
    G0 = buchberger(f0, order)
    for text in KNOWN_G0_GENERATORS:
        assert normal_form(Poly.parse(text, UDEMO), G0, order).is_zero
    G1 = buchberger(f1, order)
    known_g1 = [Poly.parse(KNOWN_G0_GENERATORS[0], UDEMO) + 1] + [
        Poly.parse(t, UDEMO) for t in KNOWN_G0_GENERATORS[1:]
    ]
    for g in known_g1:
        assert normal_form(g, G1, order).is_zero
    assert is_groebner_basis(G0)
    assert is_groebner_basis(G1)
    assert not ideal_equal(G0, G1)


def test_buchberger_requires_one_universe():
    with pytest.raises(ValueError):
        buchberger([p("x1", U2), p("x1", U4)])


def test_buchberger_order_universe_must_match():
    with pytest.raises(ValueError):
        buchberger([p("x1", U2)], TermOrder.lex(U4))


def test_generators_sorted_descending_by_leading_monomial():
    G = buchberger([p("x3 + 1"), p("x1*x2 + x4")])
    keys = [G.order.key(G.order.universe.mask_of(g.leading_monomial(G.order).variables)) for g in G]
    assert keys == sorted(keys, reverse=True)


# count_roots

def test_count_roots_examples(demo_system):
    f0, _ = assemble_systems(demo_system, a="000", b="000")
    G = buchberger(f0)
    assert [str(g) for g in G] == ["x2", "x3", "x4"]
    assert count_roots(G, [path_var(i) for i in range(1, 5)]) == 2
    assert count_roots(buchberger([Poly.one(U4)]), U4.variables) == 0
    assert count_roots(buchberger([], TermOrder.lex(U2)), U2.variables) == 4


def test_count_roots_rejects_stray_variable():
    G = buchberger([p("x1 + x3")])
    with pytest.raises(ValueError) as e:
        count_roots(G, [path_var(1), path_var(2)])
    assert "x3" in str(e.value)


def test_count_roots_cap():
    u = VarUniverse.of_paths(21)
    G = buchberger([], TermOrder.lex(u))
    with pytest.raises(CapExceeded):
        count_roots(G, u.variables)


# property suite against the brute-force oracle

@settings(max_examples=80, deadline=None)
@given(universe_and_polys(max_vars=8, count=4, max_monomials=5))
def test_count_matches_bruteforce(up):
    universe, polys = up
    G = buchberger(polys)
    assert count_roots(G, universe.variables) == brute_root_count(polys, universe)


@settings(max_examples=50, deadline=None)
@given(universe_and_polys(max_vars=7, count=3, max_monomials=4))
def test_buchberger_criterion_holds(up):
    _, polys = up
    assert is_groebner_basis(buchberger(polys))


@settings(max_examples=50, deadline=None)
@given(universe_and_polys(max_vars=7, count=3, max_monomials=4))
def test_buchberger_idempotent(up):
    _, polys = up
    G = buchberger(polys)
    again = buchberger(G.generators, G.order)
    assert again == G


@settings(max_examples=40, deadline=None)
@given(universe_and_polys(max_vars=6, count=3, max_monomials=4))
def test_root_count_is_order_independent(up):
    universe, polys = up
    orders = [
        TermOrder.lex(universe),
        TermOrder.lex(universe, tuple(reversed(universe.variables))),
        TermOrder.block_elim(universe),
    ]
    counts = {count_roots(buchberger(polys, o), universe.variables) for o in orders}
    assert len(counts) == 1


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_normal_form_constant_on_ideal_cosets(data):
    universe, polys = data.draw(universe_and_polys(max_vars=6, count=3, max_monomials=4))
    G = buchberger(polys)
    if not G.generators:
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
    order = G.order
    lms = [order.universe.mask_of(g.leading_monomial(order).variables) for g in G]
    for i, g in enumerate(G):
        for m in g.monomial_masks:
            for j, lm in enumerate(lms):
                if i != j:
                    assert (m & lm) != lm, (str(g), i, j)


@settings(max_examples=40, deadline=None)
@given(universe_and_polys(max_vars=6, count=2, max_monomials=4))
def test_s_polynomial_cancels_leading_terms(up):
    universe, (f, g) = up
    if f.is_zero or g.is_zero:
        return
    order = TermOrder.lex(universe)
    s = s_polynomial(f, g, order)
    lcm = universe.mask_of(f.leading_monomial(order).variables) | universe.mask_of(
        g.leading_monomial(order).variables
    )
    if not s.is_zero:
        lm_s = universe.mask_of(s.leading_monomial(order).variables)
        assert order.key(lm_s) < order.key(lcm)


# kernel cross-checks

@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10), st.data())
def test_dense_and_sparse_kernels_agree(n_vars, data):
    mask = st.integers(0, (1 << n_vars) - 1)
    systems = data.draw(st.lists(st.lists(mask, max_size=5), min_size=1, max_size=4))
    outputs = []
    for rep in (_DENSE, _SPARSE):
        basis = _buchberger([rep.from_masks(ms) for ms in systems], rep)
        outputs.append([rep.to_masks(g) for g in basis])
    assert outputs[0] == outputs[1]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.data())
def test_count_standard_matches_flat_enumeration(n_vars, data):
    var_mask = (1 << n_vars) - 1
    lms = data.draw(st.lists(st.integers(0, var_mask), max_size=6))
    expected = sum(
        all((s & lm) != lm for lm in lms) for s in range(1 << n_vars)
    )
    assert _count_standard(lms, var_mask) == expected


def test_kernel_selection_is_transparent_at_scale():
    # 16 variables forces the sparse kernel; result must match brute force
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
    assert count_roots(G, u.variables) == brute_root_count(projected, sub) << (16 - sub.size)
