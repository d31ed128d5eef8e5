"""Multivariate polynomials over Z2 with idempotent variables (x^2 = x).

Everything lives in the Boolean quotient ring Z2[v1..vk]/<v_i^2 - v_i>, so a
monomial is a squarefree product of variables and a polynomial is an XOR of
distinct monomials.  A variable is its name: "x3" for the path variable x_3,
"a1" and "b12" for an input and an output.  A universe holds a sequence of
names, checks each once when it is built, and fixes their precedence order;
each variable is assigned one bit position, with the highest-precedence
variable on the most significant bit.  A monomial is then a bitmask, and
comparing two masks as plain integers is exactly the lexicographic order on
monomials.  That lex order is the only term order: another precedence is
another universe.  Polynomials store their masks sorted descending, which
makes the canonical form unique and the leading monomial the first entry.

This module owns the mask layout and the ring kernels.  All ring arithmetic
is done on sets of masks: addition is symmetric difference, `_mul_mono`
multiplies by a monomial (repeated terms cancel in pairs) and `_mul`
multiplies two polynomials by counting the ORs of all term pairs, keeping
the masks formed an odd number of times.  The compiler multiplies control
rows with `_mul`.  Buchberger in `groebner` multiplies only by monomials,
and the linear solve in `amplitudes` XORs in one `_mul_mono` per substituted
term, since its polynomials have a few terms and counting costs more there.
None of them computes with `Poly`.  `amplitudes._bound_x_masks` relies on
the x-block sitting above the 2n input and output bits of `for_circuit`.

`Poly` is the only polynomial type, and it is a value with no operators: it
is built, inspected, evaluated, printed and parsed; binding inputs is a
system operation (`compiler._bind_a`).  Its constructor is the one place that
cancels and sorts terms, and truthiness is its one emptiness test: the zero
polynomial is falsy.

Printing costs O(degree) per monomial, independent of the universe size: a
universe builds its bit-indexed table of names once, and a mask is read from
its top set bit down, one `int.bit_length` per variable.
"""
from __future__ import annotations

import re
from collections import Counter
from itertools import product, starmap
from operator import or_
from typing import Iterable, Mapping


# The variable names: path x_k, input a_i and output b_i, indices from 1.
_NAME = re.compile(r"[xab][1-9][0-9]*")


def _check_name(token: object) -> str:
    if not isinstance(token, str) or _NAME.fullmatch(token) is None:
        raise ValueError(f"not a variable token: {token!r}")
    return token


class VarUniverse:
    """An ordered registry of distinct variable names, highest precedence first.

    A variable is its name: x_k, a_i or b_i with an index from 1, such as
    "x3", "a1" or "b12".  Every name is checked once, here, so every variable
    a Poly can mention is well formed.  The name at position i of the
    sequence owns bit (size-1-i), so the first (highest) variable sits on the
    most significant bit and integer comparison of monomial masks realises
    the lexicographic term order.
    """

    __slots__ = ("variables", "_bits", "_by_bit")

    def __init__(self, names: Iterable[str]):
        vs = tuple(map(_check_name, names))
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate variables in universe")
        self.variables = vs
        size = len(vs)
        self._bits = {v: size - 1 - i for i, v in enumerate(vs)}
        self._by_bit = vs[::-1]

    @classmethod
    def for_circuit(cls, h: int, n: int) -> "VarUniverse":
        """The standard universe x1..xh, a1..an, b1..bn in that precedence."""
        return cls(
            [f"x{i}" for i in range(1, h + 1)]
            + [f"a{i}" for i in range(1, n + 1)]
            + [f"b{i}" for i in range(1, n + 1)]
        )

    @property
    def size(self) -> int:
        return len(self.variables)

    def __contains__(self, v: str) -> bool:
        return v in self._bits

    def bit(self, v: str) -> int:
        """Bit position owned by v (0 = least significant)."""
        try:
            return self._bits[v]
        except KeyError:
            raise ValueError(f"variable {v} not in universe") from None

    def mask_of(self, variables: Iterable[str]) -> int:
        mask = 0
        for v in variables:
            mask |= 1 << self.bit(v)
        return mask

    def variables_of(self, mask: int) -> tuple[str, ...]:
        """Variables of a monomial mask, highest precedence first."""
        return tuple(_top_down(self._by_bit, mask))

    def monomial_str(self, mask: int) -> str:
        """Display form of a monomial mask: its names joined by '*', or '1'."""
        return "*".join(_top_down(self._by_bit, mask)) if mask else "1"

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, VarUniverse) and self.variables == other.variables
        )

    def __repr__(self) -> str:
        return f"VarUniverse({', '.join(self.variables)})"


def _top_down(table: tuple, mask: int) -> list:
    """The entries of a bit-indexed table at the set bits of mask, top bit first."""
    if not 0 <= mask < 1 << len(table):
        raise ValueError(f"mask {mask:#x} has bits outside the universe")
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(table[top])
        mask ^= 1 << top
    return out


def _mul_mono(p: Iterable[int], q: int) -> set[int]:
    """The mask polynomial p times the monomial q: q is ORed into every term
    and terms that coincide cancel in pairs.  With q = 0 it sums the masks."""
    out: set[int] = set()
    for m in p:
        mq = m | q
        if mq in out:
            out.discard(mq)
        else:
            out.add(mq)
    return out


def _mul(p: Iterable[int], q: Iterable[int]) -> set[int]:
    """The mask polynomial p times q: the ORs of all term pairs, counted.

    Terms that coincide cancel in pairs, so a mask survives exactly when an
    odd number of pairs form it.  The pairs are ORed and counted in C."""
    counts = Counter(starmap(or_, product(p, q)))
    return {m for m, c in counts.items() if c & 1}


class Poly:
    """A canonical Z2 polynomial: a descending tuple of distinct monomial masks.

    Construction cancels repeated masks in pairs and sorts, so two equal
    polynomials are structurally identical.  A Poly is a value: it has no
    arithmetic operators, and code that computes on polynomials works on
    mask sets with `_mul_mono` and `_mul`, then builds a Poly of the result.
    """

    __slots__ = ("universe", "_masks")

    def __init__(self, universe: VarUniverse, masks: Iterable[int] = ()):
        self.universe = universe
        self._masks = tuple(sorted(_mul_mono(masks, 0), reverse=True))

    @property
    def monomial_masks(self) -> tuple[int, ...]:
        """Masks in descending order; the canonical internal form."""
        return self._masks

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._masks:
            return -1
        return max(m.bit_count() for m in self._masks)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly)
            and self.universe == other.universe
            and self._masks == other._masks
        )

    def __bool__(self) -> bool:
        return bool(self._masks)

    def evaluate(self, point: Mapping[str, int]) -> int:
        """Value in {0,1} at a point binding every variable of the support."""
        ones = 0
        bound = 0
        for v, val in point.items():
            if val not in (0, 1):
                raise ValueError(f"value for {v} must be 0 or 1, got {val!r}")
            if v in self.universe:
                bit = 1 << self.universe.bit(v)
                bound |= bit
                if val:
                    ones |= bit
        parity = 0
        for m in self._masks:
            unbound = m & ~bound
            if unbound:
                missing = self.universe.variables_of(unbound)[0]
                raise ValueError(f"evaluate: variable {missing} is unbound")
            parity ^= (m & ~ones) == 0
        return parity

    def __str__(self) -> str:
        if not self._masks:
            return "0"
        return " + ".join(map(self.universe.monomial_str, self._masks))

    def __repr__(self) -> str:
        return f"Poly({self})"

    @classmethod
    def parse(cls, text: str, universe: VarUniverse | None = None) -> "Poly":
        """Parse display syntax like 'x1*x2 + a1 + 1'.

        With no universe given, one is inferred from the mentioned variables
        in the standard precedence (paths, then inputs, then outputs, each by
        index).
        """
        terms: list[list[str] | None] = []
        stripped = text.strip()
        if not stripped:
            raise ValueError("empty polynomial text")
        for chunk in stripped.split("+"):
            chunk = chunk.strip()
            if not chunk:
                raise ValueError(f"empty term in polynomial text: {text!r}")
            factors = [f.strip() for f in chunk.split("*")]
            if any(not f for f in factors):
                raise ValueError(f"empty factor in term {chunk!r}")
            terms.append(factors)
        parsed: list[list[str] | int] = []
        mentioned: set[str] = set()
        for factors in terms:
            if factors == ["1"]:
                parsed.append(1)
                continue
            if factors == ["0"]:
                parsed.append(0)
                continue
            vs = [_check_name(f) for f in factors]
            mentioned.update(vs)
            parsed.append(vs)
        if universe is None:
            ordered = sorted(mentioned, key=lambda v: ("xab".index(v[0]), int(v[1:])))
            universe = VarUniverse(ordered)
        masks: list[int] = []
        for term in parsed:
            if term == 0:
                continue
            if term == 1:
                masks.append(0)
                continue
            masks.append(universe.mask_of(term))
        return cls(universe, masks)
