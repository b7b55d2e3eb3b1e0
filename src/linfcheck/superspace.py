"""Supercommutative polynomials on two odd and N even generators, and the
odd differential operator assembled from generating-series data.

The algebra has odd generators theta_1, theta_2 (degree -1, squaring to
zero) and even generators x_1 .. x_N (degree 0).  A monomial is a strictly
increasing subset of the thetas times an exponent vector for the x's.

The operator is a sum of three pieces, written with all derivatives on the
right::

    D2 = 1/2 theta_c f^c(d/dx) eps_{ab} d/dtheta_b d/dtheta_a
    D1 = x_i g^i_a(d/dx) d/dtheta_a
    D0 = theta_a h^a(d/dx)

where eps_{21} = 1 = -eps_{12} and each generating function F is stored as
a one-variable series in the total momentum p_1 + ... + p_N, so that its
mixed Taylor coefficient at the multi-index m is F_{|m|} (the |m|-th
one-variable coefficient times |m|!).  Entries of g may additionally carry
the momentum-shift term + p_i, which the second bundled example uses.
Theta derivatives act from the left: d/dtheta_a picks up (-1)^k when
theta_a sits behind k other thetas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from math import comb, factorial
from typing import Callable, Iterator, Sequence

from .brackets import SYMMETRIC, BracketSystem, canonical_tuples
from .errors import ConsistencyError, TruncationError
from .grading import BasisVector, Element, GradedSpace, Rational
from .series import Series

EPS_LOWER = {(1, 2): -1, (2, 1): 1}   # eps_{ab}
EPS_UPPER = {(1, 2): 1, (2, 1): -1}   # eps^{ab}, inverse to eps_{ab}


def _normalize(value):
    """Prefer plain ints over integral Fractions in hot paths."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


@dataclass(frozen=True)
class SuperMonomial:
    """theta subset (strictly increasing) times an exponent vector."""

    fermions: tuple[int, ...]
    bosons: tuple[int, ...]

    def __post_init__(self):
        if any(a not in (1, 2) for a in self.fermions):
            raise ValueError("odd generators are indexed by 1 and 2")
        if any(a >= b for a, b in zip(self.fermions, self.fermions[1:])):
            raise ValueError("theta factors must be strictly increasing")
        if any(m < 0 for m in self.bosons):
            raise ValueError("exponents must be non-negative")

    @property
    def boson_degree(self) -> int:
        return sum(self.bosons)

    def __repr__(self) -> str:
        parts = [f"theta{a}" for a in self.fermions]
        parts += [
            f"x{i + 1}" if m == 1 else f"x{i + 1}^{m}"
            for i, m in enumerate(self.bosons)
            if m
        ]
        return "*".join(parts) if parts else "1"


def _merge_fermions(a: tuple[int, ...], b: tuple[int, ...]):
    """Sign and merged tuple for theta_a * theta_b blocks, or None if they
    share a factor (odd generators square to zero)."""
    if set(a) & set(b):
        return None
    crossings = sum(1 for p in a for q in b if p > q)
    merged = tuple(sorted(a + b))
    return (-1 if crossings % 2 else 1), merged


def _theta_derivative(fermions: tuple[int, ...], alpha: int):
    """Left derivative on the theta block: sign and remaining factors,
    or None when theta_alpha is absent."""
    if alpha not in fermions:
        return None
    j = fermions.index(alpha)
    return (-1 if j % 2 else 1), fermions[:j] + fermions[j + 1 :]


class SuperPoly(Element):
    """Sparse exact-rational combination of :class:`SuperMonomial`; its space
    is the number of even generators."""

    __slots__ = ()

    @staticmethod
    def _space_of(mono: SuperMonomial) -> int:
        return len(mono.bosons)

    @property
    def n_bosons(self) -> int:
        return self.space_id

    @classmethod
    def one(cls, n_bosons: int) -> "SuperPoly":
        return cls.basis(SuperMonomial((), (0,) * n_bosons))

    @classmethod
    def theta(cls, alpha: int, n_bosons: int) -> "SuperPoly":
        return cls.basis(SuperMonomial((alpha,), (0,) * n_bosons))

    @classmethod
    def boson(cls, i: int, n_bosons: int) -> "SuperPoly":
        exps = tuple(1 if k == i - 1 else 0 for k in range(n_bosons))
        return cls.basis(SuperMonomial((), exps))

    def __mul__(self, other):
        if not isinstance(other, SuperPoly):
            return self.__rmul__(other)
        if other.n_bosons != self.n_bosons:
            raise ValueError("mismatched numbers of even generators")
        out: dict[SuperMonomial, Rational] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                merged = _merge_fermions(ma.fermions, mb.fermions)
                if merged is None:
                    continue
                sign, fermions = merged
                bosons = tuple(p + q for p, q in zip(ma.bosons, mb.bosons))
                mono = SuperMonomial(fermions, bosons)
                out[mono] = out.get(mono, 0) + sign * ca * cb
        return SuperPoly(self.n_bosons, out)

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = [f"{c}*{m}" for m, c in sorted(self._terms.items(), key=lambda kv: repr(kv[0]))]
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# the operator specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaSpec:
    """Generating data for the odd operator D2 + D1 + D0.

    ``f`` and ``h`` hold two series each, ``g[a-1][i-1]`` the series part of
    g^i_a; all are series in the total momentum.  With ``momentum_shift``
    every g^i_a additionally contains the term + p_i.  ``selection_rule``
    asserts the degree bookkeeping that forces h to vanish.  Each monomial's
    image is computed once per spec and cached.
    """

    n_bosons: int
    f: tuple[Series, Series]
    g: tuple[tuple[Series, ...], tuple[Series, ...]]
    h: tuple[Series, Series]
    momentum_shift: bool = False
    selection_rule: bool = False
    _images: dict[SuperMonomial, SuperPoly] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.n_bosons < 1:
            raise ValueError("need at least one even generator")
        if len(self.f) != 2 or len(self.h) != 2:
            raise ValueError("f and h each need exactly two components")
        if len(self.g) != 2 or any(len(row) != self.n_bosons for row in self.g):
            raise ValueError("g must be a 2 x n_bosons array of series")
        if self.selection_rule and not all(s.is_zero() for s in self.h):
            raise ValueError("the degree selection rule forces h to vanish")

    @cached_property
    def space(self) -> GradedSpace:
        gens = [BasisVector("W", f"theta{a}", -1) for a in (1, 2)]
        gens += [BasisVector("W", f"x{i}", 0) for i in range(1, self.n_bosons + 1)]
        return GradedSpace("W", gens)

    @cached_property
    def coefficient_order(self) -> int:
        orders = [s.order for s in self.f] + [s.order for s in self.h]
        orders += [s.order for row in self.g for s in row]
        return min(orders)

    @cached_property
    def _taylor_f(self) -> tuple[list, list]:
        return tuple(_taylor_table(s) for s in self.f)

    @cached_property
    def _taylor_g(self) -> tuple[tuple[list, ...], tuple[list, ...]]:
        return tuple(tuple(_taylor_table(s) for s in row) for row in self.g)

    @cached_property
    def _taylor_h(self) -> tuple[list, list]:
        return tuple(_taylor_table(s) for s in self.h)

    def delta_monomial(self, mono: SuperMonomial) -> SuperPoly:
        """Image of a single monomial under the operator."""
        cached = self._images.get(mono)
        if cached is not None:
            return cached
        degree = mono.boson_degree
        if degree > self.coefficient_order:
            raise TruncationError(
                f"monomial of even degree {degree} needs series coefficients "
                f"beyond the stored order {self.coefficient_order}"
            )
        out: dict[SuperMonomial, Rational] = {}
        fermions, bosons = mono.fermions, mono.bosons

        def put(key: SuperMonomial, value) -> None:
            out[key] = out.get(key, 0) + value

        # D0 = theta_a h^a(d/dx)
        for alpha in (1, 2):
            table = self._taylor_h[alpha - 1]
            if not any(table):
                continue
            merged = _merge_fermions((alpha,), fermions)
            if merged is None:
                continue
            sign, new_fermions = merged
            for weight, reduced in _series_operator_terms(table, bosons):
                put(SuperMonomial(new_fermions, reduced), sign * weight)

        # D1 = x_i g^i_a(d/dx) d/dtheta_a
        for alpha in (1, 2):
            hit = _theta_derivative(fermions, alpha)
            if hit is None:
                continue
            dsign, new_fermions = hit
            for i in range(1, self.n_bosons + 1):
                table = self._taylor_g[alpha - 1][i - 1]
                if any(table):
                    for weight, reduced in _series_operator_terms(table, bosons):
                        lifted = tuple(
                            q + 1 if k == i - 1 else q for k, q in enumerate(reduced)
                        )
                        put(SuperMonomial(new_fermions, lifted), dsign * weight)
                if self.momentum_shift and bosons[i - 1]:
                    # x_i d/dp_i contributes m_i times the same monomial
                    put(SuperMonomial(new_fermions, bosons), dsign * bosons[i - 1])

        # D2 = 1/2 theta_c f^c(d/dx) eps_{ab} d/dtheta_b d/dtheta_a
        contraction = 0
        for (alpha, beta), eps in EPS_LOWER.items():
            first = _theta_derivative(fermions, alpha)
            if first is None:
                continue
            s1, rest = first
            second = _theta_derivative(rest, beta)
            if second is None:
                continue
            s2, _ = second
            contraction += eps * s1 * s2
        if contraction:
            half = _normalize(Fraction(contraction, 2))
            for gamma in (1, 2):
                table = self._taylor_f[gamma - 1]
                if not any(table):
                    continue
                for weight, reduced in _series_operator_terms(table, bosons):
                    put(SuperMonomial((gamma,), reduced), half * weight)

        image = SuperPoly(self.n_bosons, out)
        self._images[mono] = image
        return image


def _taylor_table(series: Series) -> list:
    """M-th entry is M! times the M-th series coefficient."""
    return [_normalize(factorial(m) * c) for m, c in enumerate(series.coeffs)]


def _series_operator_terms(table: list, bosons: tuple[int, ...]):
    """Terms of F(d/dx) applied to x^bosons: pairs (coefficient, exponents).

    F's Taylor coefficient at the multi-index mu is table[|mu|]; the
    derivative weight works out to the product of binomials C(m_i, mu_i).
    """
    stack = [((), 1, 0)]
    for m in bosons:
        stack = [
            (prefix + (mu,), weight * comb(m, mu), total + mu)
            for prefix, weight, total in stack
            for mu in range(m + 1)
        ]
    for exponents, weight, total in stack:
        coeff = table[total]
        if coeff:
            yield weight * coeff, tuple(
                m - mu for m, mu in zip(bosons, exponents)
            )


def apply_delta(spec: DeltaSpec, poly: SuperPoly) -> SuperPoly:
    """Image of a polynomial under the operator; exact or it raises."""
    if poly.n_bosons != spec.n_bosons:
        raise ValueError("polynomial and operator disagree on the even generators")
    out: dict[SuperMonomial, Rational] = {}
    for mono, coeff in poly.items():
        for image, value in spec.delta_monomial(mono).items():
            out[image] = out.get(image, 0) + coeff * value
    return SuperPoly(spec.n_bosons, out)


# ---------------------------------------------------------------------------
# brackets extracted from the operator
# ---------------------------------------------------------------------------

def _generator_poly(spec: DeltaSpec, vector: BasisVector) -> SuperPoly:
    if vector.space_id != spec.space.space_id or vector not in spec.space:
        raise ValueError(f"{vector!r} is not a generator of the operator's space")
    if vector.name.startswith("theta"):
        return SuperPoly.theta(int(vector.name[5:]), spec.n_bosons)
    return SuperPoly.boson(int(vector.name[1:]), spec.n_bosons)


def koszul_bracket(spec: DeltaSpec, inputs: Sequence[BasisVector]) -> Element:
    """n-th bracket of the operator: the n-fold graded commutator with the
    left multiplications by the inputs, applied to 1.

    The commutator recursion is ``[A, L_z](w) = A(z w) - (-1)^(par A * par z)
    z A(w)`` with the operator itself odd.  The result must land in the span
    of the generators; anything else signals malformed data.
    """

    def commute(op: Callable, op_parity: int, z: SuperPoly, z_parity: int):
        sign = 1 if (op_parity and z_parity) else -1

        def bracket(w: SuperPoly) -> SuperPoly:
            return op(z * w) + sign * (z * op(w))

        return bracket, (op_parity + z_parity) % 2

    op, parity = partial(apply_delta, spec), 1
    for vector in inputs:
        op, parity = commute(op, parity, _generator_poly(spec, vector), vector.parity)
    return linear_element(spec, op(SuperPoly.one(spec.n_bosons)))


def linear_element(spec: DeltaSpec, poly: SuperPoly) -> Element:
    """Read a polynomial that is linear in the generators back as an element
    of the operator's space; anything else raises :class:`ConsistencyError`."""
    terms: dict[BasisVector, Rational] = {}
    for mono, coeff in poly.items():
        if len(mono.fermions) == 1 and mono.boson_degree == 0:
            vector = spec.space.generator(f"theta{mono.fermions[0]}")
        elif not mono.fermions and mono.boson_degree == 1:
            vector = spec.space.generator(f"x{mono.bosons.index(1) + 1}")
        else:
            raise ConsistencyError(
                f"bracket value is not linear in the generators: {poly}"
            )
        terms[vector] = terms.get(vector, 0) + coeff
    return Element(spec.space.space_id, terms)


def brackets_from_delta(spec: DeltaSpec, max_arity: int) -> BracketSystem:
    """Tabulate the operator's brackets over canonical tuples through
    ``max_arity`` into a symmetric system on the operator's space."""
    entries = []
    for n in range(0, max_arity + 1):
        for tup in canonical_tuples(spec.space, SYMMETRIC, n):
            value = koszul_bracket(spec, tup)
            if not value.is_zero():
                entries.append((tup, value))
    return BracketSystem.from_entries(spec.space, SYMMETRIC, entries, max_arity)


# ---------------------------------------------------------------------------
# nilpotency
# ---------------------------------------------------------------------------

def _multi_indices(n_vars: int, max_total: int) -> Iterator[tuple[int, ...]]:
    if n_vars == 0:
        yield ()
        return
    for first in range(max_total + 1):
        for rest in _multi_indices(n_vars - 1, max_total - first):
            yield (first,) + rest


@dataclass(frozen=True)
class DeltaSquaredReport:
    passed: bool
    monomials_checked: int
    witness: SuperMonomial | None = None
    residue: SuperPoly | None = None


def delta_squared_check(spec: DeltaSpec, degree_bound: int) -> DeltaSquaredReport:
    """Apply the operator twice to every monomial of even degree up to the
    bound (all four theta sectors); pass iff every image is exactly zero."""
    if degree_bound + 1 > spec.coefficient_order:
        raise TruncationError(
            f"degree bound {degree_bound} needs coefficients through order "
            f"{degree_bound + 1}, stored through {spec.coefficient_order}"
        )
    checked = 0
    for fermions in ((), (1,), (2,), (1, 2)):
        for bosons in _multi_indices(spec.n_bosons, degree_bound):
            mono = SuperMonomial(fermions, bosons)
            residue = apply_delta(spec, spec.delta_monomial(mono))
            checked += 1
            if not residue.is_zero():
                return DeltaSquaredReport(False, checked, mono, residue)
    return DeltaSquaredReport(True, checked, None, None)


@dataclass(frozen=True)
class NilpotencyReport:
    """The three series-level conditions equivalent to the operator squaring
    to zero, as labelled residual series.

    ``closure``      g^i_c f^c + d_j(g^i_a) eps^{ab} g^j_b, per even index i;
    ``h_transport``  f^a h^c eps_{cb} + d_i(h^a) g^i_b, per pair (a, b);
    ``h_pairing``    g^i_a h^a, per even index i.

    With the momentum shift enabled, the parts of the first and third
    conditions proportional to a single momentum appear under the label
    ``p-term``.
    """

    closure: dict[str, Series]
    h_transport: dict[str, Series]
    h_pairing: dict[str, Series]

    @property
    def all_zero(self) -> bool:
        return all(
            series.is_zero()
            for group in (self.closure, self.h_transport, self.h_pairing)
            for series in group.values()
        )

    def groups(self):
        yield "closure", self.closure
        yield "h_transport", self.h_transport
        yield "h_pairing", self.h_pairing


def nilpotency_conditions(spec: DeltaSpec) -> NilpotencyReport:
    """Evaluate the three nilpotency conditions at series level.

    With every generating function a series in the total momentum P (plus the
    optional shift p_i inside g), all condition components reduce to series
    in P, except for a piece of the first and third conditions proportional
    to p_i whose coefficient is reported separately.
    """
    order = spec.coefficient_order
    if order < 1:
        raise TruncationError("nilpotency residuals need series of order >= 1")
    shift = 1 if spec.momentum_shift else 0
    p = Series.x(order)
    f, h = spec.f, spec.h
    gamma = spec.g  # series parts of g

    def column_sum(beta: int) -> Series:
        total = Series.zero(order)
        for i in range(spec.n_bosons):
            total = total + gamma[beta - 1][i]
        return total

    col = {beta: column_sum(beta) for beta in (1, 2)}

    closure: dict[str, Series] = {}
    for i in range(1, spec.n_bosons + 1):
        acc = Series.zero(order - 1)
        for c in (1, 2):
            acc = acc + gamma[c - 1][i - 1] * f[c - 1]
        for (a, b), eps in EPS_UPPER.items():
            acc = acc + eps * (
                gamma[a - 1][i - 1].derivative() * (col[b] + shift * p)
            )
            if shift:
                acc = acc + eps * shift * gamma[b - 1][i - 1]
        closure[f"i={i}"] = acc
    if shift:
        closure["p-term"] = f[0] + f[1]

    h_transport: dict[str, Series] = {}
    for a in (1, 2):
        for b in (1, 2):
            acc = Series.zero(order - 1)
            for (c, bb), eps in EPS_LOWER.items():
                if bb == b:
                    acc = acc + eps * (f[a - 1] * h[c - 1])
            acc = acc + h[a - 1].derivative() * (col[b] + shift * p)
            h_transport[f"a={a},b={b}"] = acc

    h_pairing: dict[str, Series] = {}
    for i in range(1, spec.n_bosons + 1):
        acc = Series.zero(order)
        for a in (1, 2):
            acc = acc + gamma[a - 1][i - 1] * h[a - 1]
        h_pairing[f"i={i}"] = acc
    if shift:
        h_pairing["p-term"] = h[0] + h[1]

    return NilpotencyReport(closure, h_transport, h_pairing)
