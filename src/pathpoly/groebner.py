"""Buchberger's algorithm and root counting in the Boolean quotient ring.

The ring is Z2[v1..vk] modulo the field equations v^2 = v, so arithmetic is
idempotent and every ideal is radical: the number of common roots over Z2
equals the number of standard monomials (squarefree monomials divisible by
no generator's leading monomial).  Field equations are never materialized;
instead, besides ordinary S-pairs, every generator g spawns one "field pair"
per variable v of its leading monomial, namely the Boolean product v*g,
which is the S-polynomial of g with v^2 + v after reduction by the field
relations.  Processing those pairs restores Buchberger's criterion in the
quotient ring.

One Buchberger core, _buchberger, holds the pair queue, the registration of
new generators and the final interreduction.  It runs over either of two
polynomial representations on monomial bitmasks pre-permuted by the term
order's key, so monomial comparison is integer comparison.  Both add with
XOR; each supplies its unit, leading monomial, monomial multiply and normal
form:

- dense: a polynomial is one Python integer whose bit i is the coefficient
  of the monomial with variable mask i.  The leading monomial is the top bit,
  and multiplying by a monomial ORs the mask into every bit index.
- sparse: a polynomial is a frozenset of masks.

_representation is the one place that chooses between them: dense for
universes of at most DENSE_VARIABLE_LIMIT variables, sparse above.

Pair selection uses the normal strategy (minimal lcm under the order), and
Buchberger's coprime-lcm criterion prunes ordinary pairs; both are exercised
against brute-force root enumeration in the test suite.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from .errors import CapExceeded
from .gf2poly import Monomial, Poly, TermOrder, Variable, VarUniverse

DENSE_VARIABLE_LIMIT = 14
ROOT_COUNT_VARIABLE_CAP = 20


# ---------------------------------------------------------------------------
# dense representation: polynomial = one bigint, bit index = monomial mask

def _dense_from_masks(masks: Iterable[int]) -> int:
    p = 0
    for m in masks:
        p ^= 1 << m
    return p


def _dense_to_masks(p: int) -> tuple[int, ...]:
    masks = []
    while p:
        low = p & -p
        p ^= low
        masks.append(low.bit_length() - 1)
    return tuple(reversed(masks))


def _dense_lead(p: int) -> int:
    return p.bit_length() - 1


def _dense_mul_mono(p: int, q: int) -> int:
    """Multiply a dense polynomial by the monomial with mask q."""
    if q == 0:
        return p
    out = 0
    while p:
        low = p & -p
        p ^= low
        out ^= 1 << ((low.bit_length() - 1) | q)
    return out


def _dense_nf(p: int, lms: Sequence[int], polys: Sequence[int]) -> int:
    """Full normal form: reduce every monomial of p by the first divisor found."""
    out = 0
    while p:
        mono = p.bit_length() - 1
        for lm, g in zip(lms, polys):
            if mono & lm == lm:
                p ^= _dense_mul_mono(g, mono & ~lm)
                break
        else:
            bit = 1 << mono
            p ^= bit
            out ^= bit
    return out


# ---------------------------------------------------------------------------
# sparse representation: polynomial = frozenset of masks

def _sparse_from_masks(masks: Iterable[int]) -> frozenset[int]:
    """Sum of monomials: masks that occur an even number of times cancel."""
    return _sparse_mul_mono(masks, 0)


def _sparse_to_masks(p: frozenset[int]) -> tuple[int, ...]:
    return tuple(sorted(p, reverse=True))


def _sparse_mul_mono(p: Iterable[int], q: int) -> frozenset[int]:
    out: set[int] = set()
    for m in p:
        mq = m | q
        if mq in out:
            out.discard(mq)
        else:
            out.add(mq)
    return frozenset(out)


def _sparse_nf(
    p: frozenset[int], lms: Sequence[int], polys: Sequence[frozenset[int]]
) -> frozenset[int]:
    work = set(p)
    out: set[int] = set()
    while work:
        mono = max(work)
        for lm, g in zip(lms, polys):
            if mono & lm == lm:
                q = mono & ~lm
                for mg in g:
                    t = mg | q
                    if t in work:
                        work.discard(t)
                    else:
                        work.add(t)
                break
        else:
            work.discard(mono)
            out.add(mono)
    return frozenset(out)


# ---------------------------------------------------------------------------
# the Buchberger core, generic over the representation

class _Representation(NamedTuple):
    unit: Any
    lead: Callable[[Any], int]
    mul_mono: Callable[[Any, int], Any]
    nf: Callable[[Any, Sequence[int], Sequence[Any]], Any]
    from_masks: Callable[[Iterable[int]], Any]
    to_masks: Callable[[Any], tuple[int, ...]]


_DENSE = _Representation(
    1, _dense_lead, _dense_mul_mono, _dense_nf, _dense_from_masks, _dense_to_masks
)
_SPARSE = _Representation(
    frozenset((0,)), max, _sparse_mul_mono, _sparse_nf, _sparse_from_masks, _sparse_to_masks
)


def _representation(n_vars: int) -> _Representation:
    return _DENSE if n_vars <= DENSE_VARIABLE_LIMIT else _SPARSE


def _buchberger(inputs: Iterable[Any], rep: _Representation) -> list[Any]:
    """Reduced Groebner basis, descending by leading monomial.

    Returns [] for the zero ideal and [rep.unit] for an inconsistent system.
    """
    unit, lead, mul_mono, nf = rep.unit, rep.lead, rep.mul_mono, rep.nf
    gens: list[Any] = []
    lms: list[int] = []
    pairs: list[tuple[int, int, int, int]] = []

    def register(p: Any) -> None:
        idx = len(gens)
        lm = lead(p)
        for j in range(idx):
            if lms[j] & lm:
                heapq.heappush(pairs, (lms[j] | lm, 0, j, idx))
        rest = lm
        while rest:
            low = rest & -rest
            rest ^= low
            heapq.heappush(pairs, (lm, 1, idx, low))
        gens.append(p)
        lms.append(lm)

    for p in inputs:
        p = nf(p, lms, gens)
        if p == unit:
            return [unit]
        if p:
            register(p)
    while pairs:
        _, kind, i, j = heapq.heappop(pairs)
        if kind == 0:
            lcm = lms[i] | lms[j]
            s = mul_mono(gens[i], lcm & ~lms[i]) ^ mul_mono(gens[j], lcm & ~lms[j])
        else:
            s = mul_mono(gens[i], j)
        s = nf(s, lms, gens)
        if s == unit:
            return [unit]
        if s:
            register(s)
    keep: list[int] = []
    for i in sorted(range(len(gens)), key=lambda k: lms[k]):
        if not any(lms[k] & lms[i] == lms[k] for k in keep):
            keep.append(i)
    reduced = []
    for i in keep:
        other_lms = [lms[k] for k in keep if k != i]
        other_polys = [gens[k] for k in keep if k != i]
        reduced.append(nf(gens[i], other_lms, other_polys))
    return sorted(reduced, key=lead, reverse=True)


# ---------------------------------------------------------------------------
# mask-level front door shared by this module and the amplitude solver

def _gb_masks(mask_polys: Iterable[Iterable[int]], n_vars: int) -> list[tuple[int, ...]]:
    """Reduced basis on raw mask polynomials (already in key space), descending."""
    rep = _representation(n_vars)
    basis = _buchberger((rep.from_masks(p) for p in mask_polys), rep)
    return [rep.to_masks(p) for p in basis]


def _nf_masks(
    p_masks: Iterable[int],
    basis: Sequence[tuple[int, ...]],
    n_vars: int,
) -> tuple[int, ...]:
    """Normal form on raw mask polynomials (already in key space), descending."""
    rep = _representation(n_vars)
    lms = [b[0] for b in basis]
    polys = [rep.from_masks(b) for b in basis]
    return rep.to_masks(rep.nf(rep.from_masks(p_masks), lms, polys))


def _check_root_count_cap(n_vars: int) -> None:
    """Refuse root counting over more than ROOT_COUNT_VARIABLE_CAP variables."""
    if n_vars > ROOT_COUNT_VARIABLE_CAP:
        raise CapExceeded(
            f"root counting over {n_vars} variables exceeds the cap of "
            f"{ROOT_COUNT_VARIABLE_CAP}"
        )


def _count_standard(lms: Sequence[int], var_mask: int) -> int:
    """Number of submasks of var_mask containing none of the lms as a submask.

    Branches on one variable of the first constraint: excluding it drops the
    constraints that mention it, including it shrinks them; a constraint
    reduced to the empty monomial kills its branch.  Variables never
    mentioned are free and contribute a power of two at the leaves.
    """
    lms = _minimal_antichain(lms)
    if any(lm == 0 for lm in lms):
        return 0
    if not lms:
        return 1 << var_mask.bit_count()
    v = lms[0] & -lms[0]
    rest = var_mask & ~v
    without = [lm for lm in lms if not lm & v]
    total = _count_standard(without, rest)
    with_v = []
    for lm in lms:
        t = lm & ~v
        if t == 0:
            return total
        with_v.append(t)
    return total + _count_standard(with_v, rest)


def _minimal_antichain(lms: Sequence[int]) -> list[int]:
    uniq = sorted(set(lms), key=int.bit_count)
    keep: list[int] = []
    for lm in uniq:
        if not any(k & lm == k for k in keep):
            keep.append(lm)
    return keep


# ---------------------------------------------------------------------------
# public API on Poly values

@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis: generators sorted by leading monomial descending."""

    generators: tuple[Poly, ...]
    order: TermOrder

    @property
    def universe(self) -> VarUniverse:
        return self.order.universe

    def __iter__(self):
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.generators)


def _resolve_basis(
    G: "GroebnerBasis | Iterable[Poly]", order: TermOrder | None
) -> tuple[tuple[Poly, ...], TermOrder | None]:
    if isinstance(G, GroebnerBasis):
        return G.generators, order if order is not None else G.order
    return tuple(G), order


def _require_universe(polys: Sequence[Poly], order: TermOrder | None) -> VarUniverse:
    if order is not None:
        universe = order.universe
    elif polys:
        universe = polys[0].universe
    else:
        raise ValueError("cannot infer a variable universe; pass a term order")
    for p in polys:
        if p.universe != universe:
            raise ValueError("polynomials live in different universes")
    return universe


def normal_form(
    p: Poly, G: "GroebnerBasis | Iterable[Poly]", order: TermOrder | None = None
) -> Poly:
    """Fully reduce p by G: no monomial of the result is divisible by any LM(g)."""
    gens, order = _resolve_basis(G, order)
    universe = _require_universe((p, *gens), order)
    if order is None:
        order = TermOrder.lex(universe)
    basis = [
        tuple(sorted((order.key(m) for m in g.monomial_masks), reverse=True))
        for g in gens
        if not g.is_zero
    ]
    if not basis:
        return p
    p_keys = (order.key(m) for m in p.monomial_masks)
    out = _nf_masks(p_keys, basis, universe.size)
    return Poly(universe, (order.unkey(k) for k in out))


def s_polynomial(f: Poly, g: Poly, order: TermOrder | None = None) -> Poly:
    """S-polynomial lcm/LM(f)*f + lcm/LM(g)*g in the Boolean ring."""
    universe = _require_universe((f, g), order)
    if order is None:
        order = TermOrder.lex(universe)
    if f.is_zero or g.is_zero:
        raise ValueError("S-polynomial of the zero polynomial is undefined")
    fk = [order.key(m) for m in f.monomial_masks]
    gk = [order.key(m) for m in g.monomial_masks]
    lmf, lmg = max(fk), max(gk)
    lcm = lmf | lmg
    s = _sparse_mul_mono(fk, lcm & ~lmf) ^ _sparse_mul_mono(gk, lcm & ~lmg)
    return Poly(universe, (order.unkey(k) for k in s))


def buchberger(F: Iterable[Poly], order: TermOrder | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of <F> + field equations inside the Boolean ring.

    Deterministic for a fixed order; an inconsistent system yields the basis
    (1,).  With no order given, native lex over the inputs' universe is used.
    """
    polys = tuple(F)
    universe = _require_universe(polys, order)
    if order is None:
        order = TermOrder.lex(universe)
    elif order.universe != universe:
        raise ValueError("order universe does not match the input polynomials")
    key_polys = [
        tuple(order.key(m) for m in p.monomial_masks) for p in polys if not p.is_zero
    ]
    basis_masks = _gb_masks(key_polys, universe.size)
    generators = tuple(
        Poly(universe, (order.unkey(k) for k in masks)) for masks in basis_masks
    )
    return GroebnerBasis(generators=generators, order=order)


def is_groebner_basis(G: GroebnerBasis) -> bool:
    """Check Buchberger's criterion: all S-polynomials (field pairs included)
    reduce to zero modulo G."""
    gens = [g for g in G.generators if not g.is_zero]
    for i, f in enumerate(gens):
        for g in gens[i + 1 :]:
            if not normal_form(s_polynomial(f, g, G.order), G).is_zero:
                return False
        lm = f.leading_monomial(G.order)
        for v in lm.variables:
            boolean_product = f * Monomial.of(G.universe, [v])
            if not normal_form(boolean_product, G).is_zero:
                return False
    return True


def ideal_equal(G1: GroebnerBasis, G2: "GroebnerBasis | Iterable[Poly]") -> bool:
    """Mutual containment: each side's generators normal-form to 0 against the other."""
    gens2, _ = _resolve_basis(G2, None)
    other = buchberger(gens2, G1.order) if not isinstance(G2, GroebnerBasis) else G2
    return all(normal_form(g, other).is_zero for g in G1.generators) and all(
        normal_form(g, G1).is_zero for g in other.generators
    )


def count_roots(G: GroebnerBasis, variables: Iterable[Variable]) -> int:
    """Number of common roots over Z2 = number of standard monomials.

    The basis must be fully bound: every generator's support must lie in the
    given variables (parameters substituted beforehand).  Capped at
    ROOT_COUNT_VARIABLE_CAP variables.
    """
    vs = tuple(dict.fromkeys(variables))
    var_mask = G.universe.mask_of(vs)
    _check_root_count_cap(len(vs))
    lms = []
    for g in G.generators:
        if g.is_zero:
            continue
        lm = g.leading_monomial(G.order)
        support = 0
        for m in g.monomial_masks:
            support |= m
        if support & ~var_mask:
            stray = G.universe.variables_of(support & ~var_mask)[0]
            raise ValueError(
                f"generator {g} mentions {stray}, which is not a counting variable"
            )
        lms.append(lm.mask)
    return _count_standard(lms, var_mask)
