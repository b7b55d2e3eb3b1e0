import sys
from fractions import Fraction
from functools import cache
from math import comb, factorial

import pytest

from linfcheck import builtin
from linfcheck.brackets import desuspend_system, first_difference
from linfcheck.builtin import (
    b_closed,
    c1_closed,
    c1_recursive,
    c2_daily,
    example1_system,
    example2_system,
    theta_sector_sign,
)
from linfcheck.grading import Element
from linfcheck.series import Series, g_series
from linfcheck.superspace import koszul_bracket
from series_ops import log1p


# -- sequences ------------------------------------------------------------------

def test_c1_values():
    assert c1_closed(3) == 1
    assert c1_closed(4) == -1
    assert c1_closed(5) == -2
    assert c1_recursive(5) == -2
    with pytest.raises(ValueError):
        c1_closed(2)
    with pytest.raises(ValueError):
        c1_recursive(2)


def test_c1_closed_equals_recursive():
    for n in range(3, 21):
        assert c1_closed(n) == c1_recursive(n)


def test_c2_values():
    assert c2_daily(3) == 1
    assert c2_daily(4) == -4   # empty correction sum
    assert c2_daily(5) == -27  # single-term correction sum
    assert c2_daily(6) == 256
    assert c2_daily(7) == 3125
    with pytest.raises(ValueError):
        c2_daily(2)


@cache
def _c1_oracle(n):
    """The recursion c1_recursive replaced, one frame per n."""
    if n == 3:
        return 1
    return (1 if (n - 1) % 2 == 0 else -1) * (n - 3) * _c1_oracle(n - 1)


@cache
def _c2_oracle(n):
    """The recursion c2_daily replaced, one frame per n and term."""
    if n == 3:
        return 1
    total = -2 * (n - 2) * _c2_oracle(n - 1)
    for p in range(3, n - 1):
        sign = -1 if (p * n + 1) % 2 else 1
        total += sign * comb(n - 2, p - 1) * _c2_oracle(n - p + 1) * _c2_oracle(p)
    return total if n % 2 == 0 else -total


def test_a_first_call_far_up_needs_no_recursion(monkeypatch):
    """From empty memos, under a recursion limit 100 frames above the
    caller's, on which the old recursions fail: the recursions' values, which
    they reach here in ascending steps."""
    monkeypatch.setattr(builtin, "_C1", builtin._C1[:1])
    monkeypatch.setattr(builtin, "_C2", builtin._C2[:4])
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        got = c1_recursive(400), c2_daily(250)
    finally:
        sys.setrecursionlimit(limit)
    expected = [_c1_oracle(n) for n in range(3, 401)][-1], \
        [_c2_oracle(n) for n in range(3, 251)][-1]
    assert got == expected
    assert builtin._C1[:18] == [c1_closed(n) for n in range(3, 21)]
    assert builtin._C2[3:] == [_c2_oracle(n) for n in range(3, 251)]


def test_b_values():
    assert [b_closed(m) for m in range(5)] == [1, 1, -1, 4, -27]
    assert b_closed(1) == 1  # the 0^0 = 1 convention
    with pytest.raises(ValueError):
        b_closed(-1)


def test_b_matches_the_ode_series():
    g = g_series(12)
    for m in range(13):
        assert b_closed(m) == factorial(m) * g[m]


def test_coefficient_triangulation():
    # the skew-side sequence, pushed through the degree-shift sign, equals
    # both the closed form (2 - n)^(n - 2) and the series sequence at n - 1
    for n in range(3, 13):
        image = theta_sector_sign(n) * c2_daily(n)
        assert image == Fraction((2 - n) ** (n - 2))
        assert image == b_closed(n - 1)


# -- first example ----------------------------------------------------------------

def test_example1_generating_series():
    ex = example1_system()
    spec = ex.delta_spec
    g1, g2 = spec.g[0][0], spec.g[1][0]
    order = g1.order
    p = Series.x(order)
    assert g1 == 1 + p
    assert g2 == (1 + p) * (1 - log1p(p))
    assert spec.f[0] == Series.constant(-1, order)
    assert spec.f[1].is_zero()
    assert all(s.is_zero() for s in spec.h)
    # individual coefficients of the theta-2 sector
    assert factorial(3) * g2[3] == 1   # b at m = 3
    assert factorial(2) * g2[2] == -1
    assert g2[1] == 0                  # the m = 1 entry vanishes


def test_example1_shifted_table_values():
    ex = example1_system()
    W = ex.symmetric_system
    t1, t2, x = (W.space.generator(n) for n in ("theta1", "theta2", "x1"))
    assert W.evaluate([t1]) == Element.basis(x)
    assert W.evaluate([t2, x]).is_zero()
    assert W.evaluate([t2, x, x]) == Element.basis(x, -1)


def test_example1_consistency_between_formulations():
    ex = example1_system()
    assert first_difference(
        ex.symmetric_system, desuspend_system(ex.skew_system), 10
    ) is None
    # the theta-2 sector equals the sign-shifted skew coefficients
    W = ex.symmetric_system
    t2, x = W.space.generator("theta2"), W.space.generator("x1")
    for n in range(3, 11):
        coeff = dict(W.evaluate([t2] + [x] * (n - 1)).items()).get(x, 0)
        assert coeff == theta_sector_sign(n) * c1_closed(n)


def test_example1_override_flows_everywhere():
    ex = example1_system(c_values={5: Fraction(7, 2)})
    v2, w = ex.skew_system.space.generator("v2"), ex.skew_system.space.generator("w")
    assert ex.skew_system.evaluate([v2] + [w] * 4) == Element.basis(w, Fraction(7, 2))
    g2 = ex.delta_spec.g[1][0]
    assert factorial(4) * g2[4] == theta_sector_sign(5) * Fraction(7, 2)
    with pytest.raises(ValueError):
        example1_system(c_values={2: 1})
    with pytest.raises(ValueError, match="^the coordinate series needs order >= 1$"):
        example1_system(order=-1)


# -- second example ----------------------------------------------------------------

def test_example2_skew_tables():
    ex = example2_system()
    V = ex.skew_system
    v1, v2 = V.space.generator("v1"), V.space.generator("v2")
    w1, w2, w3 = (V.space.generator(f"w{j}") for j in (1, 2, 3))
    assert V.evaluate([v1]) == Element.basis(w1)
    assert V.evaluate([v1, v2]).is_zero()
    assert V.evaluate([v1, w2]) == Element.basis(w1) + Element.basis(w2)
    assert V.evaluate([v1, w1]) == Element.basis(w1, 2)
    assert V.evaluate([v2, w1, w3]) == Element.basis(w2)  # C_3 = 1
    assert V.evaluate([v1, v2, w1]).is_zero()


def test_example2_shifted_values():
    ex = example2_system()
    W = ex.symmetric_system
    th1 = W.space.generator("theta1")
    xs = [W.space.generator(f"x{i}") for i in (1, 2, 3)]
    value = W.evaluate([th1, xs[0], xs[1], xs[2]])
    assert value == Element.basis(xs[0], 4)  # (2 - 4)^2
    assert W.evaluate([th1, xs[2]]) == Element.basis(xs[0]) + Element.basis(xs[2])


def test_example2_operator_data():
    ex = example2_system()
    spec = ex.delta_spec
    assert spec.momentum_shift and spec.selection_rule
    for alpha in (1, 2):
        for i in (1, 2, 3):
            series = spec.g[alpha - 1][i - 1]
            assert series[0] == (1 if i == alpha else 0)  # B_0 = 1 on the diagonal
    assert all(s.is_zero() for s in spec.f)
    # the operator's binary brackets carry B_1 = 1 plus the momentum-shift unit
    theta1, x1, x3 = (spec.space.generator(n) for n in ("theta1", "x1", "x3"))
    assert koszul_bracket(spec, (theta1, x1)) == Element.basis(x1, 2)  # B_1 + shift
    assert koszul_bracket(spec, (theta1, x3)) == Element.basis(x1) + Element.basis(x3)


def test_example2_dimension_checks():
    with pytest.raises(ValueError):
        example2_system(dim0=3, dim1=2)
    with pytest.raises(ValueError):
        example2_system(b_values={0: 2})
    with pytest.raises(ValueError, match="^coefficients are indexed from 0$"):
        example2_system(b_values={-1: 1})
    with pytest.raises(ValueError, match="^a series needs at least the constant coefficient$"):
        example2_system(order=-2)
    for n_bosons in (0, 1):
        with pytest.raises(ValueError, match="n_bosons >= 2"):
            example2_system(n_bosons=n_bosons)
    wide = example2_system(dim0=2, dim1=4, n_bosons=4)
    assert len(wide.skew_system.space.generators) == 6
    assert wide.delta_spec.n_bosons == 4


def test_float_overrides_are_rejected():
    # a float is inexact: 0.1 would be stored as 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        example1_system(c_values={4: 0.1})
    with pytest.raises(TypeError):
        example2_system(b_values={2: 0.1})
    # integral overrides are stored as ints, like the sequences themselves
    ex = example2_system(b_values={2: Fraction(6, 3)})
    assert all(type(c) is int for output in ex.skew_system.tables.values()
               for _, c in output.items())


@pytest.mark.parametrize("build", [
    example1_system,
    example2_system,
    lambda: example1_system(c_values={4: Fraction(6, 3)}),
    lambda: example2_system(b_values={2: Fraction(6, 3)}),
])
def test_operator_series_and_pieces_hold_ints(build):
    # the sequences are integral, so every stored Taylor coefficient and every
    # Taylor table of the operator's pieces is an int, integral overrides too
    spec = build().delta_spec
    series = [*spec.f, *spec.h, *(s for row in spec.g for s in row)]
    assert all(type(t) is int for s in series for t in s.taylor_coeffs)
    tables = [table for tables in spec._pieces.values() for table in tables.values()]
    assert tables and all(type(t) is int for table in tables for t in table)


def test_operator_pieces_have_one_form():
    # the pieces are {(block in, block out, l): {e: Taylor table}}, the theta
    # sign folded into each table: the action times x^l d^e S(P); only the
    # shift x_i d/dp_i has an e, with e == l and the table of the series 1.
    # example1 (one boson, f^2 = h = 0, g^1_a != 0): D1 for a in {1, 2} on the
    # two blocks holding theta_a, 4 keys, and D2 for f^1 on theta1 theta2, 1
    # key; 5 tables, no shift.  example2 (three bosons, f = h = 0, only g^1_1
    # and g^2_2 != 0, shifted): D1 for a in {1, 2} and i in {0, 1, 2}, on two
    # blocks each, 12 keys, each with its shift table, 12 shifts, and the two
    # nonzero g series on two blocks each, 4 more tables: 16
    for build, keys, count, shifts in ((example1_system, 5, 5, 0),
                                       (example2_system, 12, 16, 12)):
        spec = build().delta_spec
        one = [1] + [0] * spec.coefficient_order
        assert len(spec._pieces) == keys
        pieces = [(block, out, l, e, table) for (block, out, l), tables in spec._pieces.items()
                  for e, table in tables.items()]
        assert len(pieces) == count
        for block, out, l, e, table in pieces:
            assert all(type(t) is int for t in table)
            if e:  # d/dtheta_a's sign times the series 1
                sign = -1 if block.index(*set(block) - set(out)) % 2 else 1
                assert e == l and len(l) == 1 and list(table) == [sign * t for t in one]
        assert sum(1 for *_, e, _ in pieces if e) == shifts


def test_example2_override_flows_everywhere():
    ex = example2_system(b_values={3: 0})
    V = ex.skew_system
    v1 = V.space.generator("v1")
    w1 = V.space.generator("w1")
    assert V.evaluate([v1, w1, w1, w1]).is_zero()  # C_4 = sign * B_3 = 0
    spec = ex.delta_spec
    assert spec.g[0][0][3] == 0
