"""Sparse multilinear bracket tables and the generalized Jacobi checker.

Two symmetry types are supported:

* ``skew``      -- graded antisymmetric n-ary maps of degree 2 - n (the
                   bracket hierarchy on the unshifted space);
* ``symmetric`` -- graded symmetric n-ary maps of degree +1 (the hierarchy
                   on the degree-shifted space).

A system's table is one dict keyed by canonical key, the canonically ordered
input tuple, whose length is its arity; evaluation on any input order
multiplies by the sign the declared symmetry dictates.  Swapping two adjacent
inputs a, b contributes (``grading.sort_sign``)

    skew:       -(-1)^(parity(a) * parity(b))
    symmetric:   (-1)^(parity(a) * parity(b))

so a skew bracket vanishes on a repeated even generator and a symmetric one
on a repeated odd generator; such keys are never stored.  ``from_entries``
is the one check of a table entry; it stores a plain ``Element`` of ``int``
coefficients given on a canonical key as it is and rebuilds any other.  The
degree shift maps checked tables without checking them again.

The generalized Jacobi identities are checked tuple by tuple: for each
canonically ordered input tuple, the sum over unshuffles of the nested terms
l_j(l_i(head), tail).  The paper settles them "by degree arguments and
combinatorics": almost every nested term vanishes because its head is not a
stored key.  The few bracket values the scan needs repeat from tuple to tuple,
so each system answers each input tuple once and keeps the value; the
unshuffles and their signs come from caches too (see :mod:`linfcheck.grading`).
The heads of the (i, n - i) unshuffles, in their order, are the
i-combinations of a tuple and their tails its (n - i)-combinations in reverse
order, so both come from ``itertools.combinations``.  Each tuple is decided
on plain coefficient dicts, and the defect that decides it is the one
reported: only a counterexample's defect and weighted summands become
``Element``s.  On example2 to arity 7 the scan reads 574 tuples, 38,822
unshuffles, 77,644 sign calls and 56,264 evaluations.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import TruncationError
from .grading import (
    DEFAULT_MAX_ARITY,
    BasisVector,
    Element,
    GradedSpace,
    check_bound,
    desuspension_sign,
    int_if_integral,
    koszul_sign,
    perm_sign,
    sort_sign,
    unshuffles,
)

SKEW = "skew"
SYMMETRIC = "symmetric"

_degree = attrgetter("degree")
_INT = frozenset((int,))


def _vanishes(position: Sequence[int], odd: Sequence[int], skew: bool) -> bool:
    """Whether the symmetry forces a bracket to vanish on sorted indices: an
    input repeats and swapping it with itself would flip the sign (see
    ``sort_sign``); sorted, a repeat is two adjacent equal indices."""
    previous = -1
    for index in position:
        if index == previous and odd[index] != skew:
            return True
        previous = index
    return False


def canonical_key(
    space: GradedSpace, symmetry: str, inputs: Sequence[BasisVector]
) -> tuple[tuple[BasisVector, ...] | None, int]:
    """Sort inputs into generator order, tracking the symmetry sign.

    Returns ``(key, sign)``; ``key`` is None (with sign 0) when the declared
    symmetry forces the bracket to vanish on these inputs.
    """
    position = list(space.indices(inputs))
    skew = symmetry == SKEW
    sign = sort_sign(position, space.parities, skew)
    if _vanishes(position, space.parities, skew):
        return None, 0
    return tuple(map(space.generators.__getitem__, position)), sign


def canonical_tuples(
    space: GradedSpace, symmetry: str, arity: int
) -> Iterator[tuple[BasisVector, ...]]:
    """Canonically ordered basis tuples on which the bracket can be nonzero."""
    generators, skew = space.generators, symmetry == SKEW
    for position in combinations_with_replacement(range(len(generators)), arity):
        if not _vanishes(position, space.parities, skew):
            yield tuple(map(generators.__getitem__, position))


def canonical_order(
    space: GradedSpace, keys: Iterable[tuple[BasisVector, ...]]
) -> list[tuple[BasisVector, ...]]:
    """Keys in the canonical entry order: by arity, then by generator positions."""
    return sorted(keys, key=lambda key: (len(key), space.indices(key)))


class BracketSystem:
    """A bracket hierarchy as one sparse table, ``{canonical key: Element}``.

    Every stored entry on n inputs has degree sum(input degrees) + 2 - n
    (skew) or sum(input degrees) + 1 (symmetric).  ``from_entries`` is the
    one check of this rule and ``desuspend_system`` keeps it; a system built
    directly with ``BracketSystem(...)`` must obey it too."""

    def __init__(
        self,
        space: GradedSpace,
        symmetry: str,
        max_arity: int,
        tables: Mapping[tuple[BasisVector, ...], Element],
    ):
        self.space = space
        self.symmetry = symmetry
        self.max_arity = max_arity
        self.tables = tables
        self._zero = Element(space.space_id)
        self._values: dict[tuple, Element] = {}  # evaluate's answers, by input tuple

    @classmethod
    def from_entries(
        cls,
        space: GradedSpace,
        symmetry: str,
        entries: Iterable[tuple[Sequence[BasisVector], Element]],
        max_arity: int = DEFAULT_MAX_ARITY,
    ) -> "BracketSystem":
        """The one place an entry is checked: arity, space, key, degree,
        generators and duplicates.  Each is stored with integral coefficients
        as ints, or the Jacobi sums would spend most of their time in Fraction
        arithmetic; an output already so, on a canonical key, is kept as given."""
        if symmetry not in (SKEW, SYMMETRIC):
            raise ValueError(f"unknown symmetry {symmetry!r}")
        space_id, skew, generators = space.space_id, symmetry == SKEW, space._index.keys()
        tables: dict[tuple[BasisVector, ...], Element] = {}
        zeros = set()  # the keys of zero entries: stored nowhere, but entries all the same
        for inputs, output in entries:
            inputs = tuple(inputs)
            n = len(inputs)
            if n > max_arity:
                raise ValueError(f"entry arity {n} exceeds max_arity {max_arity}")
            if output.space_id != space_id:
                raise ValueError("output element lives in the wrong space")
            key, sign = canonical_key(space, symmetry, inputs)
            terms = output._terms
            if key is None:
                if terms:
                    raise ValueError(
                        f"symmetry forces the bracket of {inputs} to vanish"
                    )
                continue
            if not terms:
                if key in zeros or key in tables:
                    raise ValueError(f"duplicate table entry for {key}")
                zeros.add(key)
                continue
            target = (2 - n if skew else 1) + sum(map(_degree, inputs))
            for vector in terms:
                if vector.degree != target:
                    raise ValueError(
                        f"bracket of {inputs} must have degree {target}, "
                        f"got a {vector.name} term of degree {vector.degree}"
                    )
            if not terms.keys() <= generators:
                space.indices(terms)  # names the first non-generator
            if sign != 1 or type(output) is not Element or \
                    not _INT.issuperset(map(type, terms.values())):
                output = Element._from_exact(
                    space_id, {v: int_if_integral(sign * c) for v, c in terms.items()})
            if key in tables or key in zeros:
                raise ValueError(f"duplicate table entry for {key}")
            tables[key] = output
        return cls(space, symmetry, max_arity, tables)

    def evaluate(self, inputs: Sequence[BasisVector]) -> Element:
        """Bracket value on the given inputs, following the sign rules.  Each
        input tuple is worked out once and then read from ``_values``: the
        Jacobi scan asks for the same few values over and over."""
        inputs = tuple(inputs)
        value = self._values.get(inputs)
        if value is None:
            if len(inputs) > self.max_arity:
                raise TruncationError(
                    f"arity {len(inputs)} exceeds the system's bound {self.max_arity}")
            # a key the symmetry kills is None, and the table does not hold it
            key, sign = canonical_key(self.space, self.symmetry, inputs)
            value = self.tables.get(key)
            if value is None:
                value = self._zero
            elif sign == -1:
                value = Element._from_exact(value.space_id, {v: -c for v, c in value.items()})
            self._values[inputs] = value
        return value

    def entry_count(self) -> int:
        return len(self.tables)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BracketSystem):
            return NotImplemented
        return (self.space == other.space and self.symmetry == other.symmetry
                and self.tables == other.tables)


def first_difference(
    a: BracketSystem, b: BracketSystem, max_arity: int
) -> tuple | None:
    """First discrepancy between two systems through the given arity, in
    the canonical entry order (see ``canonical_order``).

    Returns ``None`` when they agree, otherwise a tuple
    ``(arity, key, value_a, value_b)``.  Systems on different spaces or of
    different symmetry have no table entries to compare: ``ValueError``.
    """
    if a.space != b.space or a.symmetry != b.symmetry:
        raise ValueError(f"cannot compare a {a.symmetry} system on {a.space!r} "
                         f"with a {b.symmetry} system on {b.space!r}")
    keys = [key for key in a.tables.keys() | b.tables.keys() if len(key) <= max_arity]
    for key in canonical_order(a.space, keys):
        va, vb = a.tables.get(key, a._zero), b.tables.get(key, b._zero)
        if va != vb:
            return (len(key), key, va, vb)
    return None


# ---------------------------------------------------------------------------
# generalized Jacobi identities
# ---------------------------------------------------------------------------

def _split_sums(system: BracketSystem, inputs: tuple) -> list[dict]:
    """The Jacobi summands on ``inputs``, i = 1 .. n in order, as coefficient
    dicts, zeros not dropped: summand i sums koszul_sign * perm_sign *
    l_j(l_i(head), tail) over the (i, n-i) unshuffles, without the weight
    (-1)^(i * (n - i)) that ``verify_jacobi`` applies.  Their heads come in
    the order of ``combinations(inputs, i)`` and their tails in the reverse
    order of ``combinations(inputs, n - i)``."""
    n = len(inputs)
    degrees = tuple(v.degree for v in inputs)
    evaluate = system.evaluate
    out = []
    for i in range(1, n + 1):
        tails = list(combinations(inputs, n - i))
        tails.reverse()
        acc: dict = {}  # coefficient of each output generator
        for sigma, head, tail in zip(unshuffles(i, n), combinations(inputs, i), tails):
            sign = perm_sign(sigma) * koszul_sign(sigma, degrees)
            inner = evaluate(head)._terms
            if not inner:
                continue
            for vector, coeff in inner.items():
                coeff *= sign
                for w, d in evaluate((vector, *tail))._terms.items():
                    acc[w] = acc.get(w, 0) + coeff * d
        out.append(acc)
    return out


class ArityCheck(NamedTuple):
    arity: int
    inputs_checked: int
    counterexample: tuple[BasisVector, ...] | None = None
    defect: Element | None = None
    # the counterexample's nonzero weighted summands, by inner arity i
    summands: dict[int, Element] | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


class JacobiReport(NamedTuple):
    checks: tuple[ArityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_jacobi(system: BracketSystem, n_max: int) -> JacobiReport:
    """Check every Jacobi identity of arity <= n_max on canonical basis tuples.

    At each arity the tuples are taken in canonical order, and the first
    with a nonzero defect is the counterexample.  Each tuple's unshuffle
    heads and tails are its combinations (see ``_split_sums``).  A tuple is
    decided on the weighted sum of its per-split coefficient dicts, which is
    the defect reported; only it and the counterexample's nonzero summands,
    each times its weight, become ``Element``s.
    """
    check_bound(n_max, 1, "arity")
    if n_max > system.max_arity:
        raise TruncationError(
            f"n_max {n_max} exceeds the system's bound {system.max_arity}"
        )
    if not system.space.generators:
        raise ValueError(f"space needs at least one generator (a space with none checks "
                         f"nothing), got {system.space!r}")
    if system.symmetry != SKEW:
        raise ValueError("Jacobi identities are stated for skew systems")
    space_id, checks = system.space.space_id, []
    for n in range(1, n_max + 1):
        weights = [-1 if (i * (n - i)) % 2 else 1 for i in range(1, n + 1)]
        counterexample = defect = summands = None
        count = 0
        for tup in canonical_tuples(system.space, system.symmetry, n):
            count += 1
            sums = _split_sums(system, tup)
            total: dict = {}  # the defect's coefficients, zeros not dropped
            for weight, acc in zip(weights, sums):
                for w, c in acc.items():
                    total[w] = total.get(w, 0) + weight * c
            if any(total.values()):
                counterexample, defect = tup, Element._from_exact(space_id, total)
                summands = {
                    i: Element._from_exact(space_id, {w: weight * c for w, c in acc.items()})
                    for i, (weight, acc) in enumerate(zip(weights, sums), 1)
                    if any(acc.values())}
                break
        checks.append(ArityCheck(n, count, counterexample, defect, summands))
    return JacobiReport(tuple(checks))


# ---------------------------------------------------------------------------
# the degree-shift functor between the two symmetries
# ---------------------------------------------------------------------------

def desuspend_system(system: BracketSystem) -> BracketSystem:
    """Convert a skew hierarchy on degrees {0, 1} into the symmetric
    degree-+1 hierarchy on the shifted space (degrees {-1, 0}).

    The shifted space has id "W".  Degree-0 generators map, in order, to
    odd generators named theta1, theta2, ...; degree-1 generators to even
    ones named x1, x2, ...
    """
    if system.symmetry != SKEW:
        raise ValueError("can only desuspend a skew system")
    prefixes = {0: "theta", 1: "x"}  # by degree
    degrees = {g.degree for g in system.space.generators}
    if not degrees <= prefixes.keys():
        raise ValueError(
            f"degree shift is implemented for spaces concentrated in degrees "
            f"{sorted(prefixes)}, got {sorted(degrees)}"
        )
    mapping = {}
    for g in system.space.generators:
        number = 1 + sum(h.degree == g.degree for h in mapping)
        mapping[g] = BasisVector("W", f"{prefixes[g.degree]}{number}", g.degree - 1)
    # Valid by construction, so from_entries is skipped: generators map in
    # order (a canonical key stays canonical, sign +1), a key repeats only the
    # parity the symmetric side allows, and every degree rule shifts alike.
    tables, signs = {}, {}  # signs: desuspension_sign by degree pattern
    for key, output in system.tables.items():
        new_key = tuple(map(mapping.__getitem__, key))
        pattern = tuple(map(_degree, new_key))
        sign = signs.get(pattern)
        if sign is None:
            sign = signs[pattern] = desuspension_sign(pattern)
        tables[new_key] = Element._from_exact(
            "W", {mapping[v]: sign * c for v, c in output._terms.items()})
    return BracketSystem(GradedSpace("W", mapping.values()), SYMMETRIC,
                         system.max_arity, tables)
