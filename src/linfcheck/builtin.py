"""The two bundled example structures, in both formulations.

Each constructor returns the skew system on the unshifted space, the
symmetric system on the degree-shifted space, and the operator data, all
generated from one coefficient sequence so that perturbing a single
coefficient perturbs every formulation consistently.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, factorial
from typing import Callable, Mapping, NamedTuple

from .brackets import (
    DEFAULT_MAX_ARITY,
    SKEW,
    BracketSystem,
    desuspend_system,
    desuspension_sign,
)
from .grading import BasisVector, Element, GradedSpace, Rational
from .series import Series
from .superspace import DeltaSpec

DEFAULT_ORDER = 32


class ExampleSystems(NamedTuple):
    skew_system: BracketSystem
    symmetric_system: BracketSystem
    delta_spec: DeltaSpec


# ---------------------------------------------------------------------------
# coefficient sequences
# ---------------------------------------------------------------------------

def c1_closed(n: int) -> Fraction:
    """(-1)^((n-2)(n-3)/2) * (n-3)! for n >= 3."""
    if n < 3:
        raise ValueError("defined for n >= 3")
    sign = -1 if ((n - 2) * (n - 3) // 2) % 2 else 1
    return Fraction(sign * factorial(n - 3))


@lru_cache(maxsize=None)
def c1_recursive(n: int) -> Fraction:
    """Same sequence via C_n = (-1)^(n-1) (n-3) C_(n-1), seeded at n = 3."""
    if n < 3:
        raise ValueError("defined for n >= 3")
    if n == 3:
        return c1_closed(3)
    sign = 1 if (n - 1) % 2 == 0 else -1
    return Fraction(sign * (n - 3) * c1_recursive(n - 1))


@lru_cache(maxsize=None)
def c2_daily(n: int) -> Fraction:
    """Coefficients of the second example's arity-n bracket sector:

    C_n = (-1)^n [ -2(n-2) C_(n-1)
                   + sum_{p=3}^{n-2} (-1)^(pn+1) C(n-2, p-1) C_(n-p+1) C_p ]

    with C_3 = 1; the sum is empty through n = 4.
    """
    if n < 3:
        raise ValueError("defined for n >= 3")
    if n == 3:
        return Fraction(1)
    total = -2 * (n - 2) * c2_daily(n - 1)
    for p in range(3, n - 1):
        sign = -1 if (p * n + 1) % 2 else 1
        total += sign * comb(n - 2, p - 1) * c2_daily(n - p + 1) * c2_daily(p)
    return Fraction(total if n % 2 == 0 else -total)


def b_closed(m: int) -> Fraction:
    """(1 - M)^(M - 1) for M >= 0, with the convention 0^0 = 1."""
    if m < 0:
        raise ValueError("defined for M >= 0")
    return Fraction(1 - m) ** (m - 1)


def theta_sector_sign(n: int) -> int:
    """Degree-shift sign for the sector with one odd and n - 1 even inputs."""
    return desuspension_sign((-1,) + (0,) * (n - 1))


# ---------------------------------------------------------------------------
# first example: dim V_0 = 2, dim V_1 = 1
# ---------------------------------------------------------------------------

def example1_system(
    order: int = DEFAULT_ORDER,
    max_arity: int = DEFAULT_MAX_ARITY,
    c_values: Mapping[int, Rational] | None = None,
) -> ExampleSystems:
    """First bundled structure.

    On generators v1, v2 (degree 0) and w (degree 1):

        l1(v1) = l1(v2) = w,  l2(v1, v2) = v1,  l2(v1, w) = w,
        l_n(v2, w, ..., w) = C_n w   for n >= 3,

    everything else zero.  ``c_values`` overrides individual C_n (all three
    return values pick the change up).  Operator series carry one guard
    order beyond ``order`` so first-derivative residuals stay exact there.
    """
    series_order = order + 1
    cs = {n: c1_closed(n) for n in range(3, max(max_arity, series_order + 1) + 1)}
    if c_values:
        for n, value in c_values.items():
            if n < 3:
                raise ValueError("coefficients are indexed from 3")
            cs[n] = Fraction(value)

    v1 = BasisVector("V", "v1", 0)
    v2 = BasisVector("V", "v2", 0)
    w = BasisVector("V", "w", 1)
    space = GradedSpace("V", (v1, v2, w))
    entries = [
        ((v1,), Element.basis(w)),
        ((v2,), Element.basis(w)),
        ((v1, v2), Element.basis(v1)),
        ((v1, w), Element.basis(w)),
    ]
    for n in range(3, max_arity + 1):
        entries.append(((v2,) + (w,) * (n - 1), Element.basis(w, cs[n])))
    skew = BracketSystem.from_entries(space, SKEW, entries, max_arity)
    symmetric = desuspend_system(skew)

    # theta-sector series: b_2(0) = 1, b_2(1) = 0, and for m >= 2 the
    # degree-shift image of C_(m+1)
    def b2(m: int) -> Fraction:
        if m == 0:
            return Fraction(1)
        if m == 1:
            return Fraction(0)
        return theta_sector_sign(m + 1) * cs[m + 1]

    g1 = 1 + Series.x(series_order)
    g2 = Series.from_coeffs(
        [b2(m) / factorial(m) for m in range(series_order + 1)]
    )
    zero = Series.zero(series_order)
    spec = DeltaSpec(
        n_bosons=1,
        f=(Series.constant(-1, series_order), zero),
        g=((g1,), (g2,)),
        h=(zero, zero),
        momentum_shift=False,
        selection_rule=True,
    )
    return ExampleSystems(skew, symmetric, spec)


# ---------------------------------------------------------------------------
# second example: dim V_1 >= dim V_0, operator side on two odd generators
# ---------------------------------------------------------------------------

def _second_family_skew(
    n_v: int,
    n_w: int,
    b1: Fraction,
    c_of: Callable[[int], Fraction],
    max_arity: int,
) -> BracketSystem:
    vs = [BasisVector("V", f"v{i}", 0) for i in range(1, n_v + 1)]
    ws = [BasisVector("V", f"w{j}", 1) for j in range(1, n_w + 1)]
    space = GradedSpace("V", vs + ws)
    entries: list[tuple[tuple[BasisVector, ...], Element]] = []
    for i, v in enumerate(vs):
        entries.append(((v,), Element.basis(ws[i])))
    for i, v in enumerate(vs):
        for j, wv in enumerate(ws):
            terms: dict[BasisVector, Fraction] = {ws[i]: b1}
            terms[wv] = terms.get(wv, Fraction(0)) + 1
            entries.append(((v, wv), Element("V", terms)))
    for n in range(3, max_arity + 1):
        cn = c_of(n)
        if not cn:
            continue
        for i, v in enumerate(vs):
            for tail in combinations_with_replacement(ws, n - 1):
                entries.append(((v,) + tail, Element.basis(ws[i], cn)))
    return BracketSystem.from_entries(space, SKEW, entries, max_arity)


def example2_system(
    dim0: int = 3,
    dim1: int = 3,
    n_bosons: int = 3,
    order: int = DEFAULT_ORDER,
    max_arity: int = DEFAULT_MAX_ARITY,
    b_values: Mapping[int, Rational] | None = None,
) -> ExampleSystems:
    """Second bundled structure.

    The skew system lives on dim0 even and dim1 odd generators:

        l1(v_i) = w_i,  l2(v_i, v_j) = 0,  l2(v_i, w_j) = w_i + w_j,
        l_n(v_i, w-terms) = C_n w_i  for n >= 3,

    two or more v's always brackets to zero.  The symmetric system and the
    operator data use the two-odd-generator frame with ``n_bosons`` even
    generators, where the same sequence appears as B_M = (1 - M)^(M - 1):

        bracket(theta_a, x-terms of count M) = B_M x_a (+ x_i at M = 1),
        g^i_a = delta^i_a G(P) + p_i  with  G(P) = sum B_M P^M / M!.

    ``b_values`` overrides individual B_M (normalization B_0 = 1 is
    required); overrides propagate to C_n = sign * B_(n-1) on the skew side.
    """
    if dim1 < dim0:
        raise ValueError("need dim1 >= dim0 so every even generator has an image")
    series_order = order + 1
    bs = {m: b_closed(m) for m in range(0, max(series_order, max_arity) + 1)}
    if b_values:
        for m, value in b_values.items():
            if m < 0:
                raise ValueError("coefficients are indexed from 0")
            bs[m] = Fraction(value)
    if bs[0] != 1:
        raise ValueError("the sequence must be normalized to B_0 = 1")

    def c_of(n: int) -> Fraction:
        return theta_sector_sign(n) * bs[n - 1]

    skew = _second_family_skew(dim0, dim1, bs[1], c_of, max_arity)
    frame = _second_family_skew(2, n_bosons, bs[1], c_of, max_arity)
    symmetric = desuspend_system(frame)

    g_part = Series.from_coeffs(
        [bs[m] / factorial(m) for m in range(series_order + 1)]
    )
    zero = Series.zero(series_order)
    g = tuple(
        tuple(g_part if i == alpha else zero for i in range(1, n_bosons + 1))
        for alpha in (1, 2)
    )
    spec = DeltaSpec(
        n_bosons=n_bosons,
        f=(zero, zero),
        g=g,
        h=(zero, zero),
        momentum_shift=True,
        selection_rule=True,
    )
    return ExampleSystems(skew, symmetric, spec)
