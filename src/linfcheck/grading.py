"""Degrees, parities, Koszul signs and permutation combinatorics.

Every sign computed anywhere in the package funnels through the conventions
fixed here:

* a permutation of n elements is a tuple of distinct 1-based images; applying
  ``sigma`` to a sequence ``s`` produces the sequence whose k-th entry is
  ``s[sigma(k)]``;
* the Koszul sign of that reordering is one factor of -1 for every crossing
  pair of odd-degree elements, i.e. for every inversion of ``sigma`` both of
  whose elements carry odd degree;
* the degree shift sends degree d to d - 1 ("lowering"); raising is its
  inverse.  An element of degree 0 lowers to degree -1 (odd), an element of
  degree 1 lowers to degree 0 (even).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence, Union

Rational = Union[int, Fraction]


def _exact(value: Rational) -> Rational:
    """Return an int or Fraction unchanged; reject anything inexact."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _as_fraction(value: Rational) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(_exact(value))


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

def check_permutation(sigma: Sequence[int]) -> tuple[int, ...]:
    """Validate a 1-based image tuple and return it as a tuple."""
    sigma = tuple(sigma)
    if set(sigma) != set(range(1, len(sigma) + 1)):
        raise ValueError(f"not a permutation of 1..{len(sigma)}: {sigma!r}")
    return sigma


def perm_sign(sigma: Sequence[int]) -> int:
    """Parity of a permutation: -1 raised to the number of inversions."""
    sigma = check_permutation(sigma)
    n = len(sigma)
    inversions = sum(
        1 for k in range(n) for l in range(k + 1, n) if sigma[k] > sigma[l]
    )
    return -1 if inversions % 2 else 1


def koszul_sign(sigma: Sequence[int], degrees: Sequence[int]) -> int:
    """Sign picked up by graded elements crossing one another.

    ``degrees[k]`` is the degree of the element at original position k + 1;
    each inversion of ``sigma`` whose two elements both have odd degree
    contributes a factor of -1.
    """
    sigma = check_permutation(sigma)
    if len(sigma) != len(degrees):
        raise ValueError(
            f"permutation length {len(sigma)} != number of degrees {len(degrees)}"
        )
    odd = [degrees[s - 1] % 2 for s in sigma]  # parities in permuted order
    n = len(sigma)
    crossings = sum(
        1
        for k in range(n)
        for l in range(k + 1, n)
        if sigma[k] > sigma[l] and odd[k] and odd[l]
    )
    return -1 if crossings % 2 else 1


def unshuffles(i: int, n: int) -> list[tuple[int, ...]]:
    """All permutations ascending within positions 1..i and within i+1..n.

    Returned in lexicographic order of the first block; there are
    binomial(n, i) of them.
    """
    if not 0 <= i <= n:
        raise ValueError(f"block size {i} out of range 0..{n}")
    universe = range(1, n + 1)
    out = []
    for head in combinations(universe, i):
        chosen = set(head)
        tail = tuple(k for k in universe if k not in chosen)
        out.append(head + tail)
    return out


# ---------------------------------------------------------------------------
# graded spaces and their elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisVector:
    """A named generator of a graded vector space."""

    space_id: str
    name: str
    degree: int

    @property
    def parity(self) -> int:
        return self.degree % 2

    def __repr__(self) -> str:  # keep test failure output readable
        return f"{self.name}"


class GradedSpace:
    """A finite ordered list of basis vectors sharing one space id."""

    def __init__(self, space_id: str, generators: Iterable[BasisVector]):
        generators = tuple(generators)
        for g in generators:
            if g.space_id != space_id:
                raise ValueError(f"generator {g.name} belongs to {g.space_id!r}")
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        self.space_id = space_id
        self.generators = generators
        self._index = {g: k for k, g in enumerate(generators)}
        self._by_name = {g.name: g for g in generators}

    def index(self, vector: BasisVector) -> int:
        try:
            return self._index[vector]
        except KeyError:
            raise ValueError(
                f"{vector!r} is not a generator of space {self.space_id!r}"
            ) from None

    def generator(self, name: str) -> BasisVector:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"no generator named {name!r} in {self.space_id!r}") from None

    def __iter__(self) -> Iterator[BasisVector]:
        return iter(self.generators)

    def __contains__(self, vector: BasisVector) -> bool:
        return vector in self._index

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedSpace):
            return NotImplemented
        return self.space_id == other.space_id and self.generators == other.generators

    def __hash__(self) -> int:
        return hash((self.space_id, self.generators))

    def __repr__(self) -> str:
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"GradedSpace({self.space_id!r}, [{gens}])"


class Element:
    """A finite linear combination of basis vectors with exact coefficients.

    Stored sparsely with int or Fraction coefficients kept as given; zero
    coefficients are pruned on construction.  ``space_id`` names the space
    every term belongs to, as read off a key by ``_space_of``; a subclass
    with other keys overrides that rule and inherits the arithmetic, and
    combinations of different spaces never add or compare equal.
    """

    __slots__ = ("space_id", "_terms")

    def __init__(self, space_id, terms: Mapping | None = None):
        self.space_id = space_id
        space_of = self._space_of
        clean = {}
        for key, coeff in (terms or {}).items():
            if space_of(key) != space_id:
                raise ValueError(
                    f"term {key!r} from space {space_of(key)!r}, expected {space_id!r}"
                )
            if _exact(coeff):
                clean[key] = coeff
        self._terms = clean

    @staticmethod
    def _space_of(vector: BasisVector) -> str:
        return vector.space_id

    @classmethod
    def basis(cls, key, coeff: Rational = 1) -> "Element":
        return cls(cls._space_of(key), {key: coeff})

    def items(self):
        return self._terms.items()

    def coefficient(self, vector: BasisVector) -> Rational:
        return self._terms.get(vector, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        if other.space_id != self.space_id:
            raise ValueError("cannot add elements of different spaces")
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            terms[key] = terms.get(key, 0) + coeff
        return type(self)(self.space_id, terms)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-1) * other

    def __neg__(self) -> "Element":
        return (-1) * self

    def __rmul__(self, scalar: Rational) -> "Element":
        scalar = _exact(scalar)
        return type(self)(self.space_id, {k: scalar * c for k, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.space_id == other.space_id and self._terms == other._terms

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for vector, coeff in sorted(self._terms.items(), key=lambda kv: kv[0].name):
            if coeff == 1:
                parts.append(f"+ {vector.name}")
            elif coeff == -1:
                parts.append(f"- {vector.name}")
            elif coeff < 0:
                parts.append(f"- {-coeff}*{vector.name}")
            else:
                parts.append(f"+ {coeff}*{vector.name}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]
