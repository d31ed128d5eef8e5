"""Multivariate polynomials over Z2 with idempotent variables (x^2 = x).

Everything lives in the Boolean quotient ring Z2[v1..vk]/<v_i^2 - v_i>, so a
monomial is a squarefree product of variables and a polynomial is an XOR of
distinct monomials.  A universe fixes the precedence order of its variables;
each variable is assigned one bit position, with the highest-precedence
variable on the most significant bit.  A monomial is then a bitmask, and
comparing two masks as plain integers is exactly the lexicographic order on
monomials.  That lex order is the only term order: another precedence is
another universe.  Polynomials store their masks sorted descending, which
makes the canonical form unique and the leading monomial the first entry.

`Poly` is the only polynomial type; a monomial is a one-term `Poly`, as
`Poly.leading_monomial` returns it.  This module is the one place that knows
the mask representation: `_mul_mono` (a mask polynomial times a monomial,
with repeated terms cancelling in pairs) is the kernel that `Poly`,
`groebner` and the linear solve in `amplitudes` share, and `Poly.__init__`,
through it, is the only place where `Poly` cancels and sorts terms.
`Poly.substitute` binds variables to the constants 0 and 1 only.

Printing costs O(degree) per monomial, independent of the universe size: a
universe builds its bit-indexed table of variables and names once, and a
mask is read from its top set bit down, one `int.bit_length` per variable.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Union


class VarKind(Enum):
    """The three variable families: path (x), input (a), output (b)."""

    PATH = "x"
    INPUT = "a"
    OUTPUT = "b"


@dataclass(frozen=True, slots=True)
class Variable:
    """A named indeterminate such as x3, a1 or b2.  Indices start at 1."""

    kind: VarKind
    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"variable index must be >= 1, got {self.index}")

    def __str__(self) -> str:
        return f"{self.kind.value}{self.index}"

    def __repr__(self) -> str:
        return f"Variable({self})"

    @classmethod
    def parse(cls, token: str) -> "Variable":
        """Parse a token like 'x12' into a Variable."""
        m = re.fullmatch(r"([xab])([0-9]+)", token)
        if m is None or m.group(2).startswith("0"):
            raise ValueError(f"not a variable token: {token!r}")
        return cls(VarKind(m.group(1)), int(m.group(2)))


def path_var(index: int) -> Variable:
    return Variable(VarKind.PATH, index)


def input_var(index: int) -> Variable:
    return Variable(VarKind.INPUT, index)


def output_var(index: int) -> Variable:
    return Variable(VarKind.OUTPUT, index)


class VarUniverse:
    """An ordered registry of distinct variables, highest precedence first.

    The variable at position i of the sequence owns bit (size-1-i), so the
    first (highest) variable sits on the most significant bit and integer
    comparison of monomial masks realises the lexicographic term order.
    """

    __slots__ = ("variables", "_bits", "_by_bit", "_names", "_hash")

    def __init__(self, variables: Iterable[Variable]):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate variables in universe")
        self.variables = vs
        size = len(vs)
        self._bits = {v: size - 1 - i for i, v in enumerate(vs)}
        self._by_bit = vs[::-1]
        self._names = tuple(str(v) for v in self._by_bit)
        self._hash = hash(vs)

    @classmethod
    def for_circuit(cls, h: int, n: int) -> "VarUniverse":
        """The standard universe x1..xh, a1..an, b1..bn in that precedence."""
        return cls(
            [path_var(i) for i in range(1, h + 1)]
            + [input_var(i) for i in range(1, n + 1)]
            + [output_var(i) for i in range(1, n + 1)]
        )

    @classmethod
    def of_paths(cls, h: int) -> "VarUniverse":
        """A universe holding only the path variables x1..xh."""
        return cls([path_var(i) for i in range(1, h + 1)])

    @property
    def size(self) -> int:
        return len(self.variables)

    def __contains__(self, v: Variable) -> bool:
        return v in self._bits

    def bit(self, v: Variable) -> int:
        """Bit position owned by v (0 = least significant)."""
        try:
            return self._bits[v]
        except KeyError:
            raise ValueError(f"variable {v} not in universe") from None

    def mask_of(self, variables: Iterable[Variable]) -> int:
        mask = 0
        for v in variables:
            mask |= 1 << self.bit(v)
        return mask

    def variables_of(self, mask: int) -> tuple[Variable, ...]:
        """Variables of a monomial mask, highest precedence first."""
        return tuple(_top_down(self._by_bit, mask))

    def monomial_str(self, mask: int) -> str:
        """Display form of a monomial mask: its names joined by '*', or '1'."""
        return "*".join(_top_down(self._names, mask)) if mask else "1"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VarUniverse) and self.variables == other.variables

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"VarUniverse({', '.join(map(str, self.variables))})"


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


def _check_same_universe(a: "VarUniverse", b: "VarUniverse") -> None:
    if a != b:
        raise ValueError("operands live in different universes")


PolyLike = Union["Poly", int]

_TERM_SPLIT = re.compile(r"\+|⊕")


class Poly:
    """A canonical Z2 polynomial: a descending tuple of distinct monomial masks.

    Construction cancels repeated masks in pairs and sorts, so two equal
    polynomials are structurally identical.  Addition hands both operands'
    masks to the constructor; multiplication ORs masks pairwise, which is
    exactly idempotent squarefree multiplication.
    """

    __slots__ = ("universe", "_masks")

    def __init__(self, universe: VarUniverse, masks: Iterable[int] = ()):
        self.universe = universe
        self._masks = tuple(sorted(_mul_mono(masks, 0), reverse=True))

    @classmethod
    def zero(cls, universe: VarUniverse) -> "Poly":
        return cls(universe)

    @classmethod
    def one(cls, universe: VarUniverse) -> "Poly":
        return cls(universe, (0,))

    @classmethod
    def constant(cls, universe: VarUniverse, bit: int) -> "Poly":
        if bit not in (0, 1):
            raise ValueError(f"constant must be 0 or 1, got {bit!r}")
        return cls(universe, (0,) if bit else ())

    @classmethod
    def variable(cls, universe: VarUniverse, v: Variable) -> "Poly":
        return cls(universe, (1 << universe.bit(v),))

    @property
    def monomial_masks(self) -> tuple[int, ...]:
        """Masks in descending order; the canonical internal form."""
        return self._masks

    @property
    def is_zero(self) -> bool:
        return not self._masks

    @property
    def is_one(self) -> bool:
        return self._masks == (0,)

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._masks:
            return -1
        return max(m.bit_count() for m in self._masks)

    @property
    def variables(self) -> tuple[Variable, ...]:
        """The support: variables occurring in some monomial."""
        support = 0
        for m in self._masks:
            support |= m
        return self.universe.variables_of(support)

    def leading_monomial(self) -> "Poly":
        """Largest monomial in lex by the universe's precedence, as a one-term Poly."""
        if not self._masks:
            raise ValueError("the zero polynomial has no leading monomial")
        return Poly(self.universe, self._masks[:1])

    def _coerce(self, other: PolyLike) -> "Poly | None":
        if isinstance(other, Poly):
            _check_same_universe(self.universe, other.universe)
            return other
        if isinstance(other, int):
            return Poly.constant(self.universe, other & 1) if other in (0, 1) else None
        return None

    def __add__(self, other: PolyLike) -> "Poly":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return Poly(self.universe, self._masks + p._masks)

    __radd__ = __add__
    __sub__ = __add__
    __rsub__ = __add__

    def __mul__(self, other: PolyLike) -> "Poly":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        acc: set[int] = set()
        for mb in p._masks:
            acc ^= _mul_mono(self._masks, mb)
        return Poly(self.universe, acc)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly)
            and self.universe == other.universe
            and self._masks == other._masks
        )

    def __hash__(self) -> int:
        return hash((self.universe, self._masks))

    def __bool__(self) -> bool:
        return bool(self._masks)

    def evaluate(self, point: Mapping[Variable, int]) -> int:
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

    def substitute(self, bindings: Mapping[Variable, int]) -> "Poly":
        """Bind variables to the constants 0 and 1.

        A monomial containing a variable bound to 0 drops out, and a variable
        bound to 1 is cleared from every monomial.
        """
        zeros = ones = 0
        for v, val in bindings.items():
            if val not in (0, 1):
                raise ValueError(f"binding for {v} must be 0 or 1, got {val!r}")
            bit = 1 << self.universe.bit(v)
            if val:
                ones |= bit
            else:
                zeros |= bit
        return Poly(self.universe, (m & ~ones for m in self._masks if not m & zeros))

    def __str__(self) -> str:
        if not self._masks:
            return "0"
        return " + ".join(map(self.universe.monomial_str, self._masks))

    def __repr__(self) -> str:
        return f"Poly({self})"

    @classmethod
    def parse(cls, text: str, universe: VarUniverse | None = None) -> "Poly":
        """Parse display syntax like 'x1*x2 + a1 + 1' (⊕ also accepted as +).

        With no universe given, one is inferred from the mentioned variables
        in the standard precedence (paths, then inputs, then outputs, each by
        index).
        """
        terms: list[list[str] | None] = []
        stripped = text.strip()
        if not stripped:
            raise ValueError("empty polynomial text")
        for chunk in _TERM_SPLIT.split(stripped):
            chunk = chunk.strip()
            if not chunk:
                raise ValueError(f"empty term in polynomial text: {text!r}")
            factors = [f.strip() for f in chunk.split("*")]
            if any(not f for f in factors):
                raise ValueError(f"empty factor in term {chunk!r}")
            terms.append(factors)
        parsed: list[list[Variable] | int] = []
        mentioned: set[Variable] = set()
        for factors in terms:
            if factors == ["1"]:
                parsed.append(1)
                continue
            if factors == ["0"]:
                parsed.append(0)
                continue
            vs = [Variable.parse(f) for f in factors]
            mentioned.update(vs)
            parsed.append(vs)
        if universe is None:
            ordered = sorted(mentioned, key=lambda v: (list(VarKind).index(v.kind), v.index))
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
