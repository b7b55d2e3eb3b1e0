"""The two bundled example structures, in both formulations.

Each constructor returns the skew system on the unshifted space, the
symmetric system on the degree-shifted space, and the operator data, all
generated from one coefficient sequence so that perturbing a single
coefficient perturbs every formulation consistently.

The coefficient sequences need only the grading conventions.  A constructor
checks its arguments at once, but builds each of the three parts, and loads
the modules that part needs, on its first access.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations_with_replacement
from math import comb, factorial
from typing import TYPE_CHECKING, Callable, Mapping

from .grading import (
    DEFAULT_MAX_ARITY,
    DEFAULT_ORDER,
    BasisVector,
    Element,
    GradedSpace,
    Rational,
    _exact,
    desuspension_sign,
)

if TYPE_CHECKING:
    from .brackets import BracketSystem
    from .superspace import DeltaSpec


class ExampleSystems:
    """The three formulations of one structure, each built by its
    zero-argument builder on first access."""

    def __init__(
        self,
        skew_system: Callable[[], BracketSystem],
        symmetric_system: Callable[[], BracketSystem],
        delta_spec: Callable[[], DeltaSpec],
    ):
        self._build = skew_system, symmetric_system, delta_spec

    @cached_property
    def skew_system(self) -> BracketSystem:
        return self._build[0]()

    @cached_property
    def symmetric_system(self) -> BracketSystem:
        return self._build[1]()

    @cached_property
    def delta_spec(self) -> DeltaSpec:
        return self._build[2]()


# ---------------------------------------------------------------------------
# coefficient sequences
# ---------------------------------------------------------------------------

def c1_closed(n: int) -> int:
    """(-1)^((n-2)(n-3)/2) * (n-3)! for n >= 3."""
    if n < 3:
        raise ValueError("defined for n >= 3")
    sign = -1 if ((n - 2) * (n - 3) // 2) % 2 else 1
    return sign * factorial(n - 3)


_C1 = [1]  # c1_recursive's values from C_3 on, filled upward


def c1_recursive(n: int) -> int:
    """Same sequence via C_n = (-1)^(n-1) (n-3) C_(n-1), seeded at n = 3."""
    if n < 3:
        raise ValueError("defined for n >= 3")
    while len(_C1) <= n - 3:
        m = len(_C1) + 3
        _C1.append((1 if (m - 1) % 2 == 0 else -1) * (m - 3) * _C1[-1])
    return _C1[n - 3]


_C2 = [None, None, None, 1]  # c2_daily's values by n, filled upward


def c2_daily(n: int) -> int:
    """Coefficients of the second example's arity-n bracket sector:

    C_n = (-1)^n [ -2(n-2) C_(n-1)
                   + sum_{p=3}^{n-2} (-1)^(pn+1) C(n-2, p-1) C_(n-p+1) C_p ]

    with C_3 = 1; the sum is empty through n = 4.
    """
    if n < 3:
        raise ValueError("defined for n >= 3")
    while len(_C2) <= n:
        m = len(_C2)
        total = -2 * (m - 2) * _C2[m - 1]
        for p in range(3, m - 1):
            sign = -1 if (p * m + 1) % 2 else 1
            total += sign * comb(m - 2, p - 1) * _C2[m - p + 1] * _C2[p]
        _C2.append(total if m % 2 == 0 else -total)
    return _C2[n]


def b_closed(m: int) -> int:
    """(1 - M)^(M - 1) for M >= 0, with the convention 0^0 = 1."""
    if m < 0:
        raise ValueError("defined for M >= 0")
    return (1 - m) ** (m - 1) if m else 1


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
            cs[n] = _exact(value)
    if series_order < 1:  # g1 = 1 + x
        raise ValueError("the coordinate series needs order >= 1")

    def skew() -> BracketSystem:
        from .brackets import SKEW, BracketSystem

        v1 = BasisVector("V", "v1", 0)
        v2 = BasisVector("V", "v2", 0)
        w = BasisVector("V", "w", 1)
        space = GradedSpace("V", (v1, v2, w))
        # from_entries is the one check of these entries
        entries = [
            ((v1,), Element._from_exact("V", {w: 1})),
            ((v2,), Element._from_exact("V", {w: 1})),
            ((v1, v2), Element._from_exact("V", {v1: 1})),
            ((v1, w), Element._from_exact("V", {w: 1})),
        ]
        for n in range(3, max_arity + 1):
            entries.append(((v2,) + (w,) * (n - 1), Element._from_exact("V", {w: cs[n]})))
        return BracketSystem.from_entries(space, SKEW, entries, max_arity)

    def symmetric() -> BracketSystem:
        from .brackets import desuspend_system

        return desuspend_system(example.skew_system)

    # theta-sector series: b_2(0) = 1, b_2(1) = 0, and for m >= 2 the
    # degree-shift image of C_(m+1)
    def b2(m: int) -> Rational:
        if m == 0:
            return 1
        if m == 1:
            return 0
        return theta_sector_sign(m + 1) * cs[m + 1]

    def delta() -> DeltaSpec:
        from .series import Series
        from .superspace import DeltaSpec

        g1 = 1 + Series.x(series_order)
        g2 = Series.from_taylor(b2(m) for m in range(series_order + 1))
        zero = Series.zero(series_order)
        return DeltaSpec(
            n_bosons=1,
            f=(Series.constant(-1, series_order), zero),
            g=((g1,), (g2,)),
            h=(zero, zero),
            momentum_shift=False,
            selection_rule=True,
        )

    example = ExampleSystems(skew, symmetric, delta)
    return example


# ---------------------------------------------------------------------------
# second example: dim V_1 >= dim V_0, operator side on two odd generators
# ---------------------------------------------------------------------------

def _second_family_skew(
    n_v: int,
    n_w: int,
    b1: Rational,
    c_of: Callable[[int], Rational],
    max_arity: int,
) -> BracketSystem:
    from .brackets import SKEW, BracketSystem

    vs = [BasisVector("V", f"v{i}", 0) for i in range(1, n_v + 1)]
    ws = [BasisVector("V", f"w{j}", 1) for j in range(1, n_w + 1)]
    space = GradedSpace("V", vs + ws)
    # from_entries is the one check of these entries
    entries: list[tuple[tuple[BasisVector, ...], Element]] = []
    for i, v in enumerate(vs):
        entries.append(((v,), Element._from_exact("V", {ws[i]: 1})))
    for i, v in enumerate(vs):
        for j, wv in enumerate(ws):
            terms: dict[BasisVector, Rational] = {ws[i]: b1}
            terms[wv] = terms.get(wv, 0) + 1
            entries.append(((v, wv), Element._from_exact("V", terms)))
    for n in range(3, max_arity + 1):
        cn = c_of(n)
        if not cn:
            continue
        for i, v in enumerate(vs):
            for tail in combinations_with_replacement(ws, n - 1):
                entries.append(((v,) + tail, Element._from_exact("V", {ws[i]: cn})))
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
    if n_bosons < 2:
        raise ValueError("need n_bosons >= 2: the operator frame pairs each of "
                         "the two odd generators with its own even generator")
    series_order = order + 1
    bs = {m: b_closed(m) for m in range(0, max(series_order, max_arity) + 1)}
    if b_values:
        for m, value in b_values.items():
            if m < 0:
                raise ValueError("coefficients are indexed from 0")
            bs[m] = _exact(value)
    if bs[0] != 1:
        raise ValueError("the sequence must be normalized to B_0 = 1")
    if series_order < 0:  # G needs its constant coefficient
        raise ValueError("a series needs at least the constant coefficient")

    def c_of(n: int) -> Rational:
        return theta_sector_sign(n) * bs[n - 1]

    def skew() -> BracketSystem:
        return _second_family_skew(dim0, dim1, bs[1], c_of, max_arity)

    def symmetric() -> BracketSystem:
        from .brackets import desuspend_system

        return desuspend_system(_second_family_skew(2, n_bosons, bs[1], c_of, max_arity))

    def delta() -> DeltaSpec:
        from .series import Series
        from .superspace import DeltaSpec

        g_part = Series.from_taylor(bs[m] for m in range(series_order + 1))
        zero = Series.zero(series_order)
        g = tuple(
            tuple(g_part if i == alpha else zero for i in range(1, n_bosons + 1))
            for alpha in (1, 2)
        )
        return DeltaSpec(
            n_bosons=n_bosons,
            f=(zero, zero),
            g=g,
            h=(zero, zero),
            momentum_shift=True,
            selection_rule=True,
        )

    return ExampleSystems(skew, symmetric, delta)
