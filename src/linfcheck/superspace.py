"""Supercommutative polynomials on two odd and N even generators, and the
odd differential operator assembled from generating-series data.

The algebra has odd generators theta_1, theta_2 (degree -1, squaring to
zero) and even generators x_1 .. x_N (degree 0).  A monomial is a strictly
increasing subset of the thetas times an exponent vector for the x's, keyed
as the tuple ``(fermions, bosons)``; every construction validates both.

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
theta_a sits behind k other thetas.  D and D o D share one table form,
{(theta block in, theta block out, l): {e: Taylor table}}, each entry the
operator theta_in -> theta_out times x^l sum_e d^e S_e(P) with the theta
sign folded into S_e, and ``_image`` applies either to a monomial.  A spec
builds D once, the shift x_i d/dp_i as the series 1 at e = (i,), from its
series' stored Taylor coefficients, checked when each series was built.

The check that D squares to zero applies D to no monomial.  It composes D
with itself once, normal-ordering D o D in the Weyl algebra into a short
table of the same form, and reads the verdict off its Taylor coefficients;
only a failure applies that table to monomials, to find the first one
D o D does not kill.

The brackets of the operator are its nested graded commutators with the
multiplications by their inputs (Koszul's higher derived brackets).  They are
graded symmetric, so each is a sign times the bracket of the inputs' product
theta_T x^m.  Those commutators keep only the terms of D that differentiate
every input once: the bracket of theta_T x^m is read off the entries on
theta_T with one generator out, each one Taylor coefficient times that
theta or x, and it applies D to no monomial either.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from math import comb
from operator import add, itemgetter, sub
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .errors import TruncationError
from .grading import BasisVector, Element, GradedSpace, Rational, check_bound, int_if_integral
from .series import Series, binomial_product

if TYPE_CHECKING:
    from .brackets import BracketSystem

EPS_LOWER = {(1, 2): -1, (2, 1): 1}   # eps_{ab}
_THETA_BLOCKS = frozenset({(), (1,), (2,), (1, 2)})


class SuperMonomial(tuple):
    """theta subset (strictly increasing) times an exponent vector, stored as
    the tuple ``(fermions, bosons)``."""

    __slots__ = ()

    def __new__(cls, fermions, bosons):
        fermions, bosons = tuple(fermions), tuple(bosons)
        if fermions not in _THETA_BLOCKS:
            if any(a not in (1, 2) for a in fermions):
                raise ValueError("odd generators are indexed by 1 and 2")
            raise ValueError("theta factors must be strictly increasing")
        if any(type(m) is not int for m in bosons):  # bool is no exponent either
            raise ValueError("exponents must be ints")
        if bosons and min(bosons) < 0:
            raise ValueError("exponents must be non-negative")
        return tuple.__new__(cls, (fermions, bosons))

    def __getnewargs__(self):
        """copy and pickle rebuild a monomial through ``__new__``."""
        return tuple(self)

    fermions = property(itemgetter(0))
    bosons = property(itemgetter(1))

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


# _merge_fermions on every pair of theta blocks, for the multiplication loops
_MERGED = {(a, b): _merge_fermions(a, b) for a in _THETA_BLOCKS for b in _THETA_BLOCKS}


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

    def __mul__(self, other):
        if not isinstance(other, SuperPoly):
            return self.__rmul__(other)
        if other.n_bosons != self.n_bosons:
            raise ValueError("mismatched numbers of even generators")
        out: dict[SuperMonomial, Rational] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                merged = _MERGED[ma.fermions, mb.fermions]
                if merged is None:
                    continue
                sign, fermions = merged
                bosons = tuple(p + q for p, q in zip(ma.bosons, mb.bosons))
                mono = SuperMonomial(fermions, bosons)
                out[mono] = out.get(mono, 0) + sign * ca * cb
        return SuperPoly._from_exact(self.n_bosons, out)

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = [f"{c}*{m}" for m, c in sorted(self._terms.items(), key=lambda kv: repr(kv[0]))]
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# the operator specification
# ---------------------------------------------------------------------------

class _SpecFields(NamedTuple):
    n_bosons: int
    f: tuple[Series, Series]
    g: tuple[tuple[Series, ...], tuple[Series, ...]]
    h: tuple[Series, Series]
    momentum_shift: bool = False
    selection_rule: bool = False


class DeltaSpec(_SpecFields):
    """Generating data for the odd operator D2 + D1 + D0.

    ``f`` and ``h`` hold two series each, ``g[a-1][i-1]`` the series part of
    g^i_a; all are series in the total momentum.  With ``momentum_shift``
    every g^i_a additionally contains the term + p_i.  ``selection_rule``
    asserts the degree bookkeeping that forces h to vanish.  A spec is an
    immutable tuple of these six fields: equality, hash and repr are the
    tuple's, so a spec also equals the plain tuple of its fields, and
    assigning an attribute raises.  The operator is held as a table of
    pieces built once per spec.  ``_replace``, copy and pickle build through
    the constructor, so the result re-runs the checks.
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n_bosons < 1:
            raise ValueError("need at least one even generator")
        if len(self.f) != 2 or len(self.h) != 2:
            raise ValueError("f and h each need exactly two components")
        if len(self.g) != 2 or any(len(row) != self.n_bosons for row in self.g):
            raise ValueError("g must be a 2 x n_bosons array of series")
        if self.selection_rule and not all(s.is_zero() for s in self.h):
            raise ValueError("the degree selection rule forces h to vanish")
        return self

    @classmethod
    def _make(cls, fields) -> DeltaSpec:
        return cls(*fields)

    def __reduce__(self):
        return type(self), tuple(self)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set or delete {name!r}: a DeltaSpec is immutable")

    __delattr__ = __setattr__

    @cached_property
    def generators(self) -> dict[BasisVector, SuperMonomial]:
        """Each generator of W with its monomial, in the order theta1, theta2,
        x1 .. xN; the space and bracket extraction read their names from here."""
        zero = (0,) * self.n_bosons
        table = {BasisVector("W", f"theta{a}", -1): SuperMonomial((a,), zero) for a in (1, 2)}
        for i in range(self.n_bosons):
            x_i = SuperMonomial((), zero[:i] + (1,) + zero[i + 1 :])
            table[BasisVector("W", f"x{i + 1}", 0)] = x_i
        return table

    @cached_property
    def space(self) -> GradedSpace:
        return GradedSpace("W", self.generators)

    @cached_property
    def coefficient_order(self) -> int:
        orders = [s.order for s in self.f] + [s.order for s in self.h]
        orders += [s.order for row in self.g for s in row]
        return min(orders)

    @cached_property
    def _pieces(self) -> dict:
        """D in the table form it shares with ``_composed``'s D o D: {(fermions
        in, fermions out, l): {e: Taylor table}}, the theta sign folded into
        each table.  D0 and D2 have l = e = (), D1 has l = (i,), and its shift
        x_i d/dp_i is the table of the series 1 at e = (i,).  Each piece owns
        its keys; all-zero tables, and keys left with none, are left out."""
        pieces: dict = {}

        def put(act, l, tables) -> None:  # act: block -> (sign, block out) or None
            tables = {e: table for e, table in tables.items() if any(table)}
            for block in _THETA_BLOCKS:
                if tables and (hit := act(block)):
                    pieces[block, hit[1], l] = {e: [hit[0] * t for t in table]
                                                for e, table in tables.items()}

        def contract(block, gamma):  # the theta action of D2 for f^gamma
            total = 0
            for (alpha, beta), eps in EPS_LOWER.items():
                first = _theta_derivative(block, alpha)
                if second := first and _theta_derivative(first[1], beta):
                    total += eps * first[0] * second[0]
            return (int_if_integral(Fraction(total, 2)), (gamma,)) if total else None

        one = (int(self.momentum_shift),) + (0,) * self.coefficient_order  # the shift's series
        for alpha, series in zip((1, 2), self.h):  # D0 = theta_a h^a(d/dx)
            put(lambda block: _MERGED[(alpha,), block], (), {(): series.taylor_coeffs})
        for alpha, row in zip((1, 2), self.g):  # D1 = x_i g^i_a(d/dx) d/dtheta_a
            for i, series in enumerate(row):
                put(lambda block: _theta_derivative(block, alpha), (i,),
                    {(): series.taylor_coeffs, (i,): one})
        # D2 = 1/2 theta_c f^c(d/dx) eps_{ab} d/dtheta_b d/dtheta_a
        for gamma, series in zip((1, 2), self.f):
            put(lambda block: contract(block, gamma), (), {(): series.taylor_coeffs})
        return pieces

    def _check_degree(self, degree: int) -> None:
        """Raise unless the series reach the Taylor coefficient of ``degree``,
        which monomials of that even degree read."""
        if degree > self.coefficient_order:
            raise TruncationError(
                f"monomial of even degree {degree} needs series coefficients "
                f"beyond the stored order {self.coefficient_order}"
            )

    def delta_monomial(self, mono: SuperMonomial) -> SuperPoly:
        """Image of a single monomial under the operator: ``_image`` applies
        the pieces to it."""
        if len(mono.bosons) != self.n_bosons:
            raise ValueError(f"monomial {mono!r} has {len(mono.bosons)} exponents, but "
                             f"the operator has {self.n_bosons} even generators")
        self._check_degree(sum(mono.bosons))
        return SuperPoly._from_exact(self.n_bosons, _image(self._pieces, *mono))


def _derivative_terms(bosons: Sequence[int]) -> list:
    """The derivatives d^mu x^m for every mu <= m, as the pairs
    (prod C(m_i, mu_i), m - mu)."""
    terms = [(1, ())]
    for m in bosons:
        level = [(comb(m, mu), (m - mu,)) for mu in range(m + 1)]
        terms = [(w * c, r + e) for w, r in terms for c, e in level]
    return terms


def _coefficient(tables: dict, beta: tuple):
    """beta! times the coefficient of d^beta in sum_e d^e T_e(P), the sum over
    e <= beta of T_e[|beta| - |e|] beta!/(beta - e)!."""
    total, k = 0, sum(beta)
    for e, table in tables.items():
        falling = 1
        for n, i in enumerate(e):
            falling *= beta[i] - e[:n].count(i)
        if falling:
            total += table[k - len(e)] * falling
    return total


def _image(groups: dict, fermions: tuple[int, ...], bosons: Sequence[int]) -> dict:
    """The nonzero terms of an operator {(fermions in, fermions out, alpha):
    {e: table}} (``DeltaSpec._pieces`` or ``_composed``) applied to theta_fermions
    x^bosons: the sum over beta <= m = bosons of C(m, beta) times
    ``_coefficient(tables, beta)`` times theta_out x^(alpha + m - beta)."""
    sector = [(out, alpha, tables) for (block, out, alpha), tables in groups.items()
              if block == fermions]
    out_terms: dict[SuperMonomial, Rational] = {}
    for weight, rest in _derivative_terms(bosons):
        beta = tuple(map(sub, bosons, rest))
        for out, alpha, tables in sector:
            if value := _coefficient(tables, beta):
                exponents = list(rest)
                for i in alpha:
                    exponents[i] += 1
                mono = SuperMonomial(out, exponents)
                out_terms[mono] = out_terms.get(mono, 0) + weight * value
    return {mono: c for mono, c in out_terms.items() if c}


# ---------------------------------------------------------------------------
# brackets extracted from the operator
# ---------------------------------------------------------------------------

def koszul_bracket(spec: DeltaSpec, inputs: Sequence[BasisVector]) -> Element:
    """n-th bracket of the operator: the n-fold graded commutator with the
    left multiplications by the inputs, applied to 1.

    The bracket is graded symmetric, so it is read off the product of the
    inputs: their sign times the bracket of the monomial theta_T x^m.  The
    commutators keep only the terms of D that differentiate every input once:
    the keys of ``DeltaSpec._pieces`` on theta_T with one generator out (x_i
    for D1, theta_a for D0, theta_c for D2), each ``_coefficient`` of its
    tables at m times that generator.  That is 0 unless e <= m, so the shift
    x_i d/dp_i counts only when m = e_i.  A repeated theta gives 0, but its
    monomial is still read off, so a truncated operator raises as it would
    without the repeat.
    """
    table, sign, block, m = spec.generators, 1, (), (0,) * spec.n_bosons
    for vector in inputs:
        if vector not in table:
            raise ValueError(f"{vector!r} is not a generator of the operator's space")
        fermions, bosons = table[vector]
        swap, block = _MERGED[block, fermions] or (0, block)
        sign, m = sign * swap, tuple(map(add, m, bosons))
    spec._check_degree(sum(m))
    vectors = spec.space.generators  # theta1, theta2, x1 .. xN
    terms: dict[BasisVector, Rational] = {}
    for (fermions, out, l), tables in spec._pieces.items():
        if fermions == block and len(out) + len(l) == 1:
            vector = vectors[2 + l[0] if l else out[0] - 1]  # x_i, theta_a or theta_c
            terms[vector] = terms.get(vector, 0) + sign * _coefficient(tables, m)
    return Element._from_exact(spec.space.space_id, terms)


def brackets_from_delta(spec: DeltaSpec, max_arity: int) -> BracketSystem:
    """Tabulate the operator's brackets over canonical tuples through
    ``max_arity`` into a symmetric system on the operator's space."""
    from .brackets import SYMMETRIC, BracketSystem, canonical_tuples

    check_bound(max_arity, 0, "arity")
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
    """Every tuple of ``n_vars`` exponents with sum at most ``max_total``, in
    lexicographic order: the steps between the partial sums, a non-decreasing
    tuple, so there is no recursion per variable."""
    for sums in combinations_with_replacement(range(max_total + 1), n_vars):
        yield tuple(map(sub, sums, (0, *sums)))


class DeltaSquaredReport(NamedTuple):
    passed: bool
    monomials_checked: int
    witness: SuperMonomial | None = None
    residue: SuperPoly | None = None


def _composed(spec: DeltaSpec, degree_bound: int) -> dict:
    """D o D normal-ordered, in the table form of ``DeltaSpec._pieces``:
    {(fermions in, fermions out, alpha): {e: table}}, the operator theta_in ->
    theta_out times x^alpha sum_e d^e T_e(P), with alpha and e sorted tuples
    of boson indices (at most two each) and P = d_1 + ... + d_N.  A product
    p o q of pieces x^l d^e S(P), p's input block q's output block, is
    normal-ordered in the Weyl algebra (Coutinho, "A Primer of Algebraic
    D-modules", 1995) by [d^e S(P), x_j] = e_j d^(e - e_j) S(P) + d^e S'(P),
    where p's e and q's l hold at most one index each; on Taylor tables S T
    is ``binomial_product`` and S'_k = S_(k+1).  Tables are kept through
    index ``degree_bound``, which reads the pieces' tables through
    ``degree_bound`` + 1; all-zero tables are left out."""
    size = degree_bound + 1
    groups: dict = {}
    for (block, mid, l_q), tables_q in spec._pieces.items():
        for (fermions, out, l_p), tables_p in spec._pieces.items():
            if fermions != mid:
                continue
            for e_q, table_q in tables_q.items():
                for e_p, table_p in tables_p.items():
                    terms = [(l_p, e_p + e_q, table_p)]
                    if l_q:  # d^e S(P) x_j = x_j d^e S(P) + [d^e S(P), x_j]
                        terms = [(l_p + l_q, e_p + e_q, table_p), (l_p, e_p + e_q, table_p[1:])]
                        if e_p == l_q:
                            terms.append((l_p, e_q, table_p))
                    for alpha, e, table in terms:
                        product = binomial_product(table, table_q, size)
                        alpha, e = tuple(sorted(alpha)), tuple(sorted(e))
                        tables = groups.setdefault((block, out, alpha), {})
                        tables[e] = [a + b for a, b in zip(tables.get(e, [0] * size), product)]
    return {key: kept for key, tables in groups.items()
            if (kept := {e: table for e, table in tables.items() if any(table)})}


def _kills(tables: dict, n_bosons: int, degree_bound: int) -> bool:
    """Does sum_e d^e T_e(P) have no term d^beta with |beta| <= the bound?
    On the slice |beta| = k, ``_coefficient`` is a polynomial of degree <= 2
    in beta (a falling factorial per e).  Written in beta_1 .. beta_(N-1),
    with beta_N = k - their sum, it vanishes on the whole slice iff it does
    on the points where their sum is at most 2 (all of the slice when
    k <= 2): those points are the order-2 lattice of the simplex, on which
    a polynomial of degree <= 2 is determined by its values."""
    return not any(
        _coefficient(tables, gamma + (k - sum(gamma),))
        for k in range(degree_bound + 1)
        for gamma in _multi_indices(n_bosons - 1, min(k, 2)))


def delta_squared_check(spec: DeltaSpec, degree_bound: int) -> DeltaSquaredReport:
    """Does the operator square to zero on every monomial of even degree up to
    the bound (all four theta sectors)?  Decided on D o D itself, composed
    once by ``_composed``, without applying D to any monomial.

    Within a theta sector, D o D is sum over (theta_out, alpha) of theta_out
    x^alpha L_alpha, with L_alpha = sum_beta c_(alpha beta) d^beta.  It kills
    every x^m with |m| <= d iff each c_(alpha beta) with |beta| <= d is 0: apply
    it to x^beta in order of |beta|; once the lower c vanish, the image is
    sum_alpha c_(alpha beta) beta! theta_out x^alpha, whose monomials are
    distinct.  ``_coefficient`` gives beta! c_(alpha beta) and ``_kills`` checks
    it for every |beta| <= d.

    The report is that of a scan over the sectors (), (1,), (2,), (1, 2), then
    the exponent tuples in lexicographic order, which applies D twice to each
    monomial and stops at the first nonzero result: ``monomials_checked``
    counts every monomial up to and including that witness.  In the first
    sector with a nonzero term, the monomials are scanned in that order, and
    D o D (theta_T x^m) = sum C(m, beta) beta! c_(alpha beta) theta_out
    x^(alpha + m - beta) is the composed table's ``_image``, until it is nonzero."""
    check_bound(degree_bound, 0, "degree")
    if degree_bound + 1 > spec.coefficient_order:
        raise TruncationError(
            f"degree bound {degree_bound} needs coefficients through order "
            f"{degree_bound + 1}, stored through {spec.coefficient_order}"
        )
    composed, checked = _composed(spec, degree_bound), 0
    for fermions in ((), (1,), (2,), (1, 2)):
        if all(_kills(tables, spec.n_bosons, degree_bound)
               for (block, _, _), tables in composed.items() if block == fermions):
            checked += comb(degree_bound + spec.n_bosons, spec.n_bosons)
            continue
        for bosons in _multi_indices(spec.n_bosons, degree_bound):
            checked += 1
            if residue := _image(composed, fermions, bosons):
                return DeltaSquaredReport(False, checked, SuperMonomial(fermions, bosons),
                                          SuperPoly._from_exact(spec.n_bosons, residue))
    return DeltaSquaredReport(True, checked, None, None)


def nilpotency_conditions(spec: DeltaSpec) -> dict[str, dict[str, Series]]:
    """Evaluate the three series-level conditions equivalent to the operator
    squaring to zero, as residual series by condition and label:

    ``closure``      g^i_c f^c + d_j(g^i_a) eps^{ab} g^j_b, per even index i;
    ``h_transport``  f^a h^c eps_{cb} + d_i(h^a) g^i_b, per pair (a, b);
    ``h_pairing``    g^i_a h^a, per even index i.

    With every generating function a series in the total momentum P (plus the
    optional shift p_i inside g), all condition components reduce to series
    in P, except for a piece of the first and third conditions proportional
    to p_i, whose coefficient appears under the label ``p-term``.
    """
    order = spec.coefficient_order
    if order < 1:
        raise TruncationError("nilpotency residuals need series of order >= 1")
    shift = 1 if spec.momentum_shift else 0
    (f1, f2), (h1, h2) = spec.f, spec.h
    # col[b-1] = sum_j g^j_b, shift included: every d_j of a series in P is its
    # derivative, so d_j(F) g^j_b is F' col[b-1]
    col = [sum(row, Series.zero(order)) + shift * Series.x(order) for row in spec.g]
    # eps^{12} = 1 = -eps^{21}; d_j of the shift p_i in g^i_a leaves shift eps^{ab} g^i_b
    closure = {f"i={i}": Series.zero(order - 1) + g1 * f1 + g2 * f2
               + g1.derivative() * col[1] - g2.derivative() * col[0] + shift * (g2 - g1)
               for i, (g1, g2) in enumerate(zip(*spec.g), 1)}
    # eps_{21} = 1 = -eps_{12}: f^a h^c eps_{cb} is f^a h^2 for b = 1 and -f^a h^1 for b = 2
    h_transport = {f"a={a},b={b}": Series.zero(order - 1) + fa * hc + ha.derivative() * col[b - 1]
                   for a, fa, ha in ((1, f1, h1), (2, f2, h2))
                   for b, hc in ((1, h2), (2, -h1))}
    h_pairing = {f"i={i}": Series.zero(order) + g1 * h1 + g2 * h2
                 for i, (g1, g2) in enumerate(zip(*spec.g), 1)}
    if shift:
        closure["p-term"] = f1 + f2
        h_pairing["p-term"] = h1 + h2
    return {"closure": closure, "h_transport": h_transport, "h_pairing": h_pairing}
