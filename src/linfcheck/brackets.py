"""Sparse multilinear bracket tables and the generalized Jacobi checker.

Two symmetry types are supported:

* ``skew``      -- graded antisymmetric n-ary maps of degree 2 - n (the
                   bracket hierarchy on the unshifted space);
* ``symmetric`` -- graded symmetric n-ary maps of degree +1 (the hierarchy
                   on the degree-shifted space).

Tables are keyed by canonically ordered input tuples; evaluation on any
input order multiplies by the sign the declared symmetry dictates.  Swapping
two adjacent inputs a, b contributes

    skew:       -(-1)^(parity(a) * parity(b))
    symmetric:   (-1)^(parity(a) * parity(b))

so a skew bracket vanishes on a repeated even generator and a symmetric one
on a repeated odd generator; such keys are never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import TruncationError
from .grading import (
    BasisVector,
    Element,
    GradedSpace,
    koszul_sign,
    perm_sign,
    unshuffles,
)

SKEW = "skew"
SYMMETRIC = "symmetric"

DEFAULT_MAX_ARITY = 10


def _swap_factor(symmetry: str, a: BasisVector, b: BasisVector) -> int:
    both_odd = a.parity and b.parity
    if symmetry == SKEW:
        return 1 if both_odd else -1
    return -1 if both_odd else 1


def _forces_zero(symmetry: str, key: Sequence[BasisVector]) -> bool:
    for a, b in zip(key, key[1:]):
        if a == b and (a.parity == 0 if symmetry == SKEW else a.parity == 1):
            return True
    return False


def canonical_key(
    space: GradedSpace, symmetry: str, inputs: Sequence[BasisVector]
) -> tuple[tuple[BasisVector, ...] | None, int]:
    """Sort inputs into generator order, tracking the symmetry sign.

    Returns ``(key, sign)``; ``key`` is None (with sign 0) when the declared
    symmetry forces the bracket to vanish on these inputs.
    """
    items = [(space.index(v), v) for v in inputs]
    sign = 1
    for k in range(1, len(items)):
        j = k
        while j > 0 and items[j - 1][0] > items[j][0]:
            sign *= _swap_factor(symmetry, items[j - 1][1], items[j][1])
            items[j - 1], items[j] = items[j], items[j - 1]
            j -= 1
    key = tuple(v for _, v in items)
    if _forces_zero(symmetry, key):
        return None, 0
    return key, sign


def canonical_tuples(
    space: GradedSpace, symmetry: str, arity: int
) -> Iterator[tuple[BasisVector, ...]]:
    """Canonically ordered basis tuples on which the bracket can be nonzero."""
    for tup in combinations_with_replacement(space.generators, arity):
        if not _forces_zero(symmetry, tup):
            yield tup


@dataclass(frozen=True)
class BracketSystem:
    """Arity-indexed sparse tables defining a bracket hierarchy."""

    space: GradedSpace
    symmetry: str
    max_arity: int
    tables: Mapping[int, Mapping[tuple[BasisVector, ...], Element]]

    @classmethod
    def from_entries(
        cls,
        space: GradedSpace,
        symmetry: str,
        entries: Iterable[tuple[Sequence[BasisVector], Element]],
        max_arity: int = DEFAULT_MAX_ARITY,
    ) -> "BracketSystem":
        if symmetry not in (SKEW, SYMMETRIC):
            raise ValueError(f"unknown symmetry {symmetry!r}")
        tables: dict[int, dict[tuple[BasisVector, ...], Element]] = {}
        for inputs, output in entries:
            inputs = tuple(inputs)
            n = len(inputs)
            if n > max_arity:
                raise ValueError(f"entry arity {n} exceeds max_arity {max_arity}")
            if output.space_id != space.space_id:
                raise ValueError("output element lives in the wrong space")
            key, sign = canonical_key(space, symmetry, inputs)
            if key is None:
                if not output.is_zero():
                    raise ValueError(
                        f"symmetry forces the bracket of {inputs} to vanish"
                    )
                continue
            if output.is_zero():
                continue
            target = (2 - n if symmetry == SKEW else 1) + sum(v.degree for v in inputs)
            for vector, _ in output.items():
                if vector.degree != target:
                    raise ValueError(
                        f"bracket of {inputs} must have degree {target}, "
                        f"got a {vector.name} term of degree {vector.degree}"
                    )
            table = tables.setdefault(n, {})
            if key in table:
                raise ValueError(f"duplicate table entry for {key}")
            table[key] = sign * output
        return cls(space, symmetry, max_arity, tables)

    def evaluate(self, inputs: Sequence[BasisVector]) -> Element:
        """Bracket value on the given inputs, following the sign rules."""
        inputs = tuple(inputs)
        n = len(inputs)
        if n > self.max_arity:
            raise TruncationError(
                f"arity {n} exceeds the system's bound {self.max_arity}"
            )
        key, sign = canonical_key(self.space, self.symmetry, inputs)
        if key is None:
            return Element(self.space.space_id)
        entry = self.tables.get(n, {}).get(key)
        if entry is None:
            return Element(self.space.space_id)
        return sign * entry

    def entry_count(self) -> int:
        return sum(len(t) for t in self.tables.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BracketSystem):
            return NotImplemented
        return (
            self.space == other.space
            and self.symmetry == other.symmetry
            and {n: dict(t) for n, t in self.tables.items() if t}
            == {n: dict(t) for n, t in other.tables.items() if t}
        )


def first_difference(
    a: BracketSystem, b: BracketSystem, max_arity: int
) -> tuple | None:
    """First discrepancy between two systems through the given arity.

    Returns ``None`` when they agree, otherwise a tuple
    ``(arity, key, value_a, value_b)`` (``key`` is None for a space or
    symmetry mismatch).
    """
    if a.space != b.space or a.symmetry != b.symmetry:
        return (0, None, a.space, b.space)
    for n in range(0, max_arity + 1):
        ta = a.tables.get(n, {})
        tb = b.tables.get(n, {})
        for key in sorted(
            set(ta) | set(tb),
            key=lambda k: tuple(a.space.index(v) for v in k),
        ):
            va = ta.get(key, Element(a.space.space_id))
            vb = tb.get(key, Element(b.space.space_id))
            if va != vb:
                return (n, key, va, vb)
    return None


# ---------------------------------------------------------------------------
# generalized Jacobi identities
# ---------------------------------------------------------------------------

def jacobi_summands(
    system: BracketSystem, inputs: Sequence[BasisVector]
) -> dict[int, Element]:
    """Per-inner-arity aggregates of the Jacobi expression on ``inputs``.

    For each split i + j = n + 1 this is the sum over (i, n-i) unshuffles of
    koszul_sign * perm_sign * l_j(l_i(head), tail), without the alternating
    prefactor; the full defect weights summand i by (-1)^(i * (n - i)).
    """
    if system.symmetry != SKEW:
        raise ValueError("Jacobi identities are stated for skew systems")
    inputs = tuple(inputs)
    n = len(inputs)
    degrees = tuple(v.degree for v in inputs)
    zero = Element(system.space.space_id)
    out: dict[int, Element] = {}
    for i in range(1, n + 1):
        acc = zero
        for sigma in unshuffles(i, n):
            sign = perm_sign(sigma) * koszul_sign(sigma, degrees)
            head = [inputs[k - 1] for k in sigma[:i]]
            tail = [inputs[k - 1] for k in sigma[i:]]
            inner = system.evaluate(head)
            if inner.is_zero():
                continue
            for vector, coeff in inner.items():
                acc = acc + (sign * coeff) * system.evaluate([vector, *tail])
        out[i] = acc
    return out


def jacobi_defect(system: BracketSystem, inputs: Sequence[BasisVector]) -> Element:
    """Left-hand side of the arity-n generalized Jacobi identity."""
    inputs = tuple(inputs)
    n = len(inputs)
    total = Element(system.space.space_id)
    for i, summand in jacobi_summands(system, inputs).items():
        sign = -1 if (i * (n - i)) % 2 else 1
        total = total + sign * summand
    return total


@dataclass(frozen=True)
class ArityCheck:
    arity: int
    inputs_checked: int
    counterexample: tuple[BasisVector, ...] | None = None
    defect: Element | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


@dataclass(frozen=True)
class JacobiReport:
    checks: tuple[ArityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def first_failure(self) -> ArityCheck | None:
        for check in self.checks:
            if not check.ok:
                return check
        return None


def verify_jacobi(system: BracketSystem, n_max: int) -> JacobiReport:
    """Check every Jacobi identity of arity <= n_max on canonical basis tuples."""
    if n_max > system.max_arity:
        raise TruncationError(
            f"n_max {n_max} exceeds the system's bound {system.max_arity}"
        )
    checks = []
    for n in range(1, n_max + 1):
        counterexample = None
        defect = None
        count = 0
        for tup in canonical_tuples(system.space, system.symmetry, n):
            count += 1
            value = jacobi_defect(system, tup)
            if not value.is_zero():
                counterexample, defect = tup, value
                break
        checks.append(ArityCheck(n, count, counterexample, defect))
    return JacobiReport(tuple(checks))


# ---------------------------------------------------------------------------
# the degree-shift functor between the two symmetries
# ---------------------------------------------------------------------------

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


def _shift_space(
    space: GradedSpace, like: GradedSpace | None, down: bool
) -> tuple[GradedSpace, dict[BasisVector, BasisVector]]:
    """Build the shifted space and the generator map, preserving order."""
    degrees = {g.degree for g in space.generators}
    expected = {0, 1} if down else {-1, 0}
    if not degrees <= expected:
        raise ValueError(
            f"degree shift is implemented for spaces concentrated in degrees "
            f"{sorted(expected)}, got {sorted(degrees)}"
        )
    if like is not None:
        if len(like.generators) != len(space.generators):
            raise ValueError("target space has the wrong number of generators")
        mapping = {}
        for old, new in zip(space.generators, like.generators):
            if new.degree != old.degree + (-1 if down else 1):
                raise ValueError(
                    f"target generator {new.name} has degree {new.degree}, "
                    f"incompatible with {old.name}"
                )
            mapping[old] = new
        return like, mapping
    shift = -1 if down else 1
    target_id = "W" if down else "V"
    odd_prefix, even_prefix = ("theta", "x") if down else ("v", "w")
    mapping = {}
    counters = {0: 0, 1: 0, -1: 0}
    for g in space.generators:
        counters[g.degree] += 1
        prefix = odd_prefix if g.degree == (0 if down else -1) else even_prefix
        mapping[g] = BasisVector(target_id, f"{prefix}{counters[g.degree]}", g.degree + shift)
    new_space = GradedSpace(target_id, (mapping[g] for g in space.generators))
    return new_space, mapping


def _shift_system(
    system: BracketSystem, like: GradedSpace | None, down: bool
) -> BracketSystem:
    space, mapping = _shift_space(system.space, like, down)
    entries = []
    for n, table in system.tables.items():
        for key, output in table.items():
            new_key = tuple(mapping[v] for v in key)
            w_degrees = [v.degree for v in (new_key if down else key)]
            sign = desuspension_sign(w_degrees)
            new_output = Element(
                space.space_id,
                {mapping[v]: sign * c for v, c in output.items()},
            )
            entries.append((new_key, new_output))
    return BracketSystem.from_entries(
        space,
        SYMMETRIC if down else SKEW,
        entries,
        max_arity=system.max_arity,
    )


def desuspend_system(
    system: BracketSystem, like: GradedSpace | None = None
) -> BracketSystem:
    """Convert a skew hierarchy on degrees {0, 1} into the symmetric
    degree-+1 hierarchy on the shifted space (degrees {-1, 0}).

    The shifted space has id "W".  Degree-0 generators map, in order, to
    odd generators named theta1, theta2, ...; degree-1 generators to even
    ones named x1, x2, ...  Pass ``like`` to reuse an existing shifted space
    instead.
    """
    if system.symmetry != SKEW:
        raise ValueError("can only desuspend a skew system")
    return _shift_system(system, like, down=True)


def suspend_system(
    system: BracketSystem, like: GradedSpace | None = None
) -> BracketSystem:
    """Inverse of :func:`desuspend_system`, onto a space with id "V"."""
    if system.symmetry != SYMMETRIC:
        raise ValueError("can only suspend a symmetric system")
    return _shift_system(system, like, down=False)
