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
new generators and the final interreduction.  It can start from a reduced
basis and extend it, forming only the pairs that involve a new generator.  A
polynomial is a collection of distinct monomial bitmasks as the universe lays
them out: a descending tuple for inputs and results (Poly.monomial_masks),
a set while it is being reduced.  The term order is lex by the universe's
precedence, so monomial comparison is integer comparison and the leading
monomial is the maximum.  Addition is symmetric difference, and multiplying
by a monomial ORs its mask into every term (gf2poly._mul_mono, the mask
kernel this module shares with Poly).

Pair selection uses the normal strategy (minimal lcm under the order), and
Buchberger's coprime-lcm criterion prunes ordinary pairs; both are exercised
against brute-force root enumeration in the test suite.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapExceeded
from .gf2poly import Poly, Variable, VarUniverse, _mul_mono

ROOT_COUNT_VARIABLE_CAP = 20


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


def _gb_masks(
    mask_polys: Iterable[Iterable[int]],
    n_vars: int,
    basis: Sequence[tuple[int, ...]] = (),
) -> list[tuple[int, ...]]:
    """Reduced Groebner basis of basis + mask_polys: descending mask tuples,
    sorted descending by leading monomial.

    basis must be a reduced basis as this function returns it; it seeds the
    generators, and only pairs involving a new generator are formed, since
    pairs among the seed (field pairs included) already reduce to 0 modulo
    the seed and so modulo any superset.  Returns [] for the zero ideal and
    [(0,)] for an inconsistent system.  The kernel does not use n_vars; it
    stays in the signature because the perfbench tracer reads it, with the
    number of mask_polys, from this call.
    """
    gens: list[Iterable[int]] = list(basis)
    lms: list[int] = [g[0] for g in basis]
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
    """A reduced Groebner basis: generators sorted by leading monomial descending.

    The term order is lex by the universe's precedence.
    """

    generators: tuple[Poly, ...]
    universe: VarUniverse

    def __iter__(self):
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.generators)


def _require_universe(polys: Sequence[Poly]) -> VarUniverse:
    if not polys:
        raise ValueError("cannot infer a variable universe from no polynomials")
    universe = polys[0].universe
    for p in polys:
        if p.universe != universe:
            raise ValueError("polynomials live in different universes")
    return universe


def normal_form(p: Poly, G: "GroebnerBasis | Iterable[Poly]") -> Poly:
    """Fully reduce p by G: no monomial of the result is divisible by any LM(g)."""
    gens = tuple(G)
    universe = _require_universe((p, *gens))
    basis = [g.monomial_masks for g in gens if not g.is_zero]
    return Poly(universe, _nf(p.monomial_masks, [b[0] for b in basis], basis))


def s_polynomial(f: Poly, g: Poly) -> Poly:
    """S-polynomial lcm/LM(f)*f + lcm/LM(g)*g in the Boolean ring."""
    universe = _require_universe((f, g))
    if f.is_zero or g.is_zero:
        raise ValueError("S-polynomial of the zero polynomial is undefined")
    fm, gm = f.monomial_masks, g.monomial_masks
    lcm = fm[0] | gm[0]
    return Poly(universe, _mul_mono(fm, lcm & ~fm[0]) ^ _mul_mono(gm, lcm & ~gm[0]))


def buchberger(F: Iterable[Poly]) -> GroebnerBasis:
    """Reduced Groebner basis of <F> + field equations inside the Boolean ring.

    Deterministic for a fixed universe; an inconsistent system yields the
    basis (1,).  F must hold at least one polynomial, which fixes the
    universe: pass [Poly.zero(U)] for the zero ideal over U.
    """
    polys = tuple(F)
    universe = _require_universe(polys)
    basis_masks = _gb_masks([p.monomial_masks for p in polys if not p.is_zero], universe.size)
    return GroebnerBasis(
        generators=tuple(Poly(universe, masks) for masks in basis_masks), universe=universe
    )


def is_groebner_basis(G: GroebnerBasis) -> bool:
    """Check Buchberger's criterion: all S-polynomials (field pairs included)
    reduce to zero modulo G."""
    gens = [g for g in G.generators if not g.is_zero]
    for i, f in enumerate(gens):
        for g in gens[i + 1 :]:
            if not normal_form(s_polynomial(f, g), G).is_zero:
                return False
        for v in f.leading_monomial().variables:
            if not normal_form(f * Poly.variable(G.universe, v), G).is_zero:
                return False
    return True


def ideal_equal(G1: GroebnerBasis, G2: "GroebnerBasis | Iterable[Poly]") -> bool:
    """Mutual containment: each side's generators normal-form to 0 against the other."""
    other = G2 if isinstance(G2, GroebnerBasis) else buchberger((Poly.zero(G1.universe), *G2))
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
        support = 0
        for m in g.monomial_masks:
            support |= m
        if support & ~var_mask:
            stray = G.universe.variables_of(support & ~var_mask)[0]
            raise ValueError(
                f"generator {g} mentions {stray}, which is not a counting variable"
            )
        lms.append(g.monomial_masks[0])
    return _count_standard(lms, var_mask)
