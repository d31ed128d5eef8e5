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

One Buchberger core, _gb_masks, holds the pair queue, the registration of
new generators and the final interreduction, and returns the reduced basis
of exactly the polynomials it is handed.  A polynomial is a collection of
distinct monomial bitmasks as the universe lays them out: a descending tuple
for inputs and results (Poly.monomial_masks), a set while it is being
reduced.  The term order is lex by the universe's precedence, so monomial
comparison is integer comparison and the leading monomial is the maximum.
Addition is symmetric difference, and multiplying by a monomial ORs its mask
into every term (gf2poly._mul_mono, the mask kernel this module shares with
the compiler and the linear solve in amplitudes).

Pair selection uses the normal strategy (minimal lcm under the order), and
Buchberger's coprime-lcm criterion prunes ordinary pairs; both are exercised
against brute-force root enumeration in the test suite.

Roots are counted in one place, _count_standard over a basis's leading
monomials, which amplitudes._gb_pair drives; that module also holds the
root-count cap.  On Poly values, buchberger returns the reduced basis as
a tuple (the gb verb prints it), and normal_form, s_polynomial and
is_groebner_basis check Buchberger's criterion independently of the kernel.
"""
from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from .gf2poly import Poly, VarUniverse, _mul_mono


# ---------------------------------------------------------------------------
# the kernel: a polynomial is a collection of distinct monomial masks

def _nf(p: Iterable[int], lms: Sequence[int], polys: Sequence[Iterable[int]]) -> set[int]:
    """Full normal form: reduce every monomial of p by the first divisor found."""
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
    return out


def _gb_masks(mask_polys: Iterable[Iterable[int]], n_vars: int) -> list[tuple[int, ...]]:
    """Reduced Groebner basis of mask_polys: descending mask tuples, sorted
    descending by leading monomial.

    Returns [] for the zero ideal and [(0,)] for an inconsistent system.  The
    kernel does not use n_vars; it stays in the signature because the
    perfbench tracer reads it, with the number of mask_polys, from this call.
    """
    gens: list[Iterable[int]] = []
    lms: list[int] = []
    pairs: list[tuple[int, int, int, int]] = []

    def register(p: set[int]) -> None:
        idx = len(gens)
        lm = max(p)
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

    for raw in mask_polys:
        p = _nf(_mul_mono(raw, 0), lms, gens)
        if p == {0}:
            return [(0,)]
        if p:
            register(p)
    while pairs:
        _, kind, i, j = heapq.heappop(pairs)
        if kind == 0:
            lcm = lms[i] | lms[j]
            s = _mul_mono(gens[i], lcm & ~lms[i]) ^ _mul_mono(gens[j], lcm & ~lms[j])
        else:
            s = _mul_mono(gens[i], j)
        s = _nf(s, lms, gens)
        if s == {0}:
            return [(0,)]
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
        reduced.append(tuple(sorted(_nf(gens[i], other_lms, other_polys), reverse=True)))
    return sorted(reduced, reverse=True)


def _count_standard(lms: Sequence[int], var_mask: int) -> int:
    """Number of submasks of var_mask containing none of the lms as a submask.

    Branches on the lowest variable v of a smallest constraint: without v,
    the constraints that contain v are met and drop out; with v, v is
    cleared from every constraint.  A constraint reduced to the empty
    monomial kills its branch, and variables no constraint mentions are free
    leaves, a power of two.  The constraints need not be a minimal antichain:
    a superset constraint can never outlive a subset, since it drops out
    whenever the subset does and empties no sooner, so duplicates and
    supersets never change a count.
    """
    if 0 in lms:
        return 0
    if not lms:
        return 1 << var_mask.bit_count()
    smallest = min(lms, key=int.bit_count)
    v = smallest & -smallest
    rest = var_mask & ~v
    without = [lm for lm in lms if not lm & v]
    return _count_standard(without, rest) + _count_standard([lm & ~v for lm in lms], rest)


# ---------------------------------------------------------------------------
# Poly-level API: the gb verb's bases and the reference checks of the kernel

def _require_universe(polys: Sequence[Poly]) -> VarUniverse:
    if not polys:
        raise ValueError("cannot infer a variable universe from no polynomials")
    universe = polys[0].universe
    for p in polys:
        if p.universe != universe:
            raise ValueError("polynomials live in different universes")
    return universe


def normal_form(p: Poly, G: Sequence[Poly]) -> Poly:
    """Fully reduce p by G: no monomial of the result is divisible by any LM(g)."""
    universe = _require_universe((p, *G))
    basis = [g.monomial_masks for g in G if g]
    return Poly(universe, _nf(p.monomial_masks, [b[0] for b in basis], basis))


def s_polynomial(f: Poly, g: Poly) -> Poly:
    """S-polynomial lcm/LM(f)*f + lcm/LM(g)*g in the Boolean ring."""
    universe = _require_universe((f, g))
    if not (f and g):
        raise ValueError("S-polynomial of the zero polynomial is undefined")
    fm, gm = f.monomial_masks, g.monomial_masks
    lcm = fm[0] | gm[0]
    return Poly(universe, _mul_mono(fm, lcm & ~fm[0]) ^ _mul_mono(gm, lcm & ~gm[0]))


def buchberger(F: Iterable[Poly]) -> tuple[Poly, ...]:
    """Reduced Groebner basis of <F> + field equations inside the Boolean ring,
    sorted descending by leading monomial (lex by the universe's precedence).

    A reduced basis is unique for a fixed order, so two bases are equal
    exactly when their ideals are.  The zero ideal gives (), an inconsistent
    system (1,).  F must hold at least one polynomial, which fixes the
    universe: pass [Poly(U)] for the zero ideal over U.
    """
    polys = tuple(F)
    universe = _require_universe(polys)
    basis = _gb_masks([p.monomial_masks for p in polys if p], universe.size)
    return tuple(Poly(universe, masks) for masks in basis)


def is_groebner_basis(G: Sequence[Poly]) -> bool:
    """Check Buchberger's criterion: all S-polynomials (field pairs included)
    reduce to zero modulo G."""
    gens = [g for g in G if g]
    for i, f in enumerate(gens):
        for g in gens[i + 1 :]:
            if normal_form(s_polynomial(f, g), G):
                return False
        lm = f.monomial_masks[0]
        for bit in range(lm.bit_length()):
            if lm >> bit & 1:
                vf = Poly(f.universe, _mul_mono(f.monomial_masks, 1 << bit))
                if normal_form(vf, G):
                    return False
    return True
