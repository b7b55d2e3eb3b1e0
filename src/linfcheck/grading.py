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

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

Rational = Union[int, Fraction]

# arity bound of a bracket table, and of the bundled examples, unless one is given
DEFAULT_MAX_ARITY = 10
# series order of the bundled examples unless one is given
DEFAULT_ORDER = 32


def _exact(value: Rational) -> Rational:
    """Return an int or Fraction unchanged; reject anything inexact."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def int_if_integral(value: Rational) -> Rational:
    """Prefer plain ints over integral Fractions in hot paths."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


def check_bound(value, least: int, what: str) -> None:
    """Raise unless the ``what`` bound ``value`` is an int >= ``least``."""
    if type(value) is not int or value < least:
        raise ValueError(f"{what} bound must be an int >= {least} (a bound below {least} "
                         f"checks nothing), got {value!r}")


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

def check_permutation(sigma: Sequence[int]) -> tuple[int, ...]:
    """Validate a 1-based image tuple and return it as a tuple."""
    sigma = tuple(sigma)
    if set(sigma) != set(range(1, len(sigma) + 1)):
        raise ValueError(f"not a permutation of 1..{len(sigma)}: {sigma!r}")
    return sigma


# The Jacobi scan asks for the same few permutations over and over (2^n
# unshuffles at arity n, on a handful of degree patterns).  The two signs
# answer from dicts keyed on their arguments as given, so a hit costs one
# lookup; a miss, or a list, is checked and keyed on tuples, and sorted with
# its 1-based images as indices (index 0 is even and unused).  Each dict is
# emptied when it reaches _SIGNS_KEPT entries, which bounds its memory.
# ``unshuffles`` answers from a bounded lru_cache.

_SIGNS_KEPT = 4096
_perm_signs: dict = {}
_koszul_signs: dict = {}


def perm_sign(sigma: Sequence[int]) -> int:
    """Parity of a permutation: -1 raised to the number of inversions."""
    try:
        return _perm_signs[sigma]
    except (KeyError, TypeError):  # not seen yet, or a list
        pass
    sigma = check_permutation(sigma)
    sign = sort_sign(list(sigma), (0,) * (len(sigma) + 1), skew=True)
    if len(_perm_signs) >= _SIGNS_KEPT:
        _perm_signs.clear()
    _perm_signs[sigma] = sign
    return sign


def koszul_sign(sigma: Sequence[int], degrees: Sequence[int]) -> int:
    """Sign picked up by graded elements crossing one another.

    ``degrees[k]`` is the degree of the element at original position k + 1;
    each inversion of ``sigma`` whose two elements both have odd degree
    contributes a factor of -1.
    """
    try:
        return _koszul_signs[sigma, degrees]
    except (KeyError, TypeError):  # not seen yet, or a list
        pass
    sigma, degrees = check_permutation(sigma), tuple(degrees)
    if len(sigma) != len(degrees):
        raise ValueError(
            f"permutation length {len(sigma)} != number of degrees {len(degrees)}"
        )
    sign = sort_sign(list(sigma), (0, *[d % 2 for d in degrees]), skew=False)
    if len(_koszul_signs) >= _SIGNS_KEPT:
        _koszul_signs.clear()
    _koszul_signs[sigma, degrees] = sign
    return sign


def unshuffles(i: int, n: int) -> list[tuple[int, ...]]:
    """All permutations ascending within positions 1..i and within i+1..n.

    Returned in lexicographic order of the first block; there are
    binomial(n, i) of them.
    """
    return list(_unshuffles(i, n))


def sort_sign(position: list[int], odd: Sequence[int], skew: bool) -> int:
    """Sort ``position`` in place, each entry moving left past the larger ones
    before it (adjacent swaps); return the reordering sign.

    ``odd[k]`` is the parity of index k.  Swapping adjacent inputs a, b flips
    the sign unless both are odd for skew inputs, and exactly when both are
    odd for symmetric ones: the sign sgn * Koszul of the skew brackets and the
    Koszul sign of the symmetric ones.
    """
    sign = 1
    for k in range(1, len(position)):
        b = position[k]
        j = k
        while j and position[j - 1] > b:  # b moves left past a
            a = position[j - 1]
            if (odd[a] and odd[b]) != skew:
                sign = -sign
            position[j] = a
            j -= 1
        position[j] = b
    return sign


@lru_cache(maxsize=256)
def _unshuffles(i: int, n: int) -> tuple[tuple[int, ...], ...]:
    if not 0 <= i <= n:
        raise ValueError(f"block size {i} out of range 0..{n}")
    universe = range(1, n + 1)
    out = []
    for head in combinations(universe, i):
        chosen = set(head)
        tail = tuple(k for k in universe if k not in chosen)
        out.append(head + tail)
    return tuple(out)


def desuspension_sign(w_degrees: Sequence[int]) -> int:
    """Sign relating an n-ary skew bracket to its degree-shifted companion.

    ``w_degrees`` are the degrees of the inputs on the shifted side.  The
    factor is the global (-1)^(n(n-1)/2) times (-1)^d for each raising
    operator moved past an element of degree d, right to left across the
    tensor factors.  The same factor converts in either direction.
    """
    n = len(w_degrees)
    exponent = n * (n - 1) // 2
    exponent += sum((n - 1 - pos) * d for pos, d in enumerate(w_degrees))
    return -1 if exponent % 2 else 1


# ---------------------------------------------------------------------------
# graded spaces and their elements
# ---------------------------------------------------------------------------

class BasisVector(NamedTuple):
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
        self.parities = tuple(g.parity for g in generators)
        self._index = {g: k for k, g in enumerate(generators)}
        self._by_name = {g.name: g for g in generators}

    def indices(self, vectors: Iterable[BasisVector]) -> tuple[int, ...]:
        """The position of each vector in ``generators``, in order."""
        try:
            return tuple(map(self._index.__getitem__, vectors))
        except KeyError as missing:
            raise ValueError(
                f"{missing.args[0]!r} is not a generator of space {self.space_id!r}"
            ) from None

    def generator(self, name: str) -> BasisVector:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"no generator named {name!r} in {self.space_id!r}") from None

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

    Stored sparsely with int or Fraction coefficients kept as given (bracket
    tables hold integral ones as ints); zero ones are pruned on construction.
    ``space_id`` names the space of every term, as read off a key by
    ``_space_of``; a subclass with other keys overrides that rule and
    inherits the arithmetic, and different spaces never add or compare equal.
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

    @classmethod
    def _from_exact(cls, space_id, terms: dict) -> "Element":
        """The trusted constructor, for values built from checked parts: exact
        coefficients on keys of ``space_id``.  It takes the caller's fresh
        ``terms`` as its own, unchecked, and copies it only to drop a zero."""
        element = object.__new__(cls)
        element.space_id = space_id
        element._terms = terms if all(terms.values()) else \
            {key: coeff for key, coeff in terms.items() if coeff}
        return element

    @staticmethod
    def _space_of(vector: BasisVector) -> str:
        return vector.space_id

    @classmethod
    def basis(cls, key, coeff: Rational = 1) -> "Element":
        return cls(cls._space_of(key), {key: coeff})

    def items(self):
        return self._terms.items()

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
        return self._from_exact(self.space_id, terms)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-1) * other

    def __neg__(self) -> "Element":
        return (-1) * self

    def __rmul__(self, scalar: Rational) -> "Element":
        scalar = _exact(scalar)
        return self._from_exact(self.space_id, {k: scalar * c for k, c in self._terms.items()})

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
