import json
from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linfcheck import cli
from linfcheck.builtin import b_closed
from linfcheck.series import (
    Series,
    g_series,
    lambert_w_series,
    nilcheck_one_boson,
    solve_f1,
    solve_g2,
    wronskian,
)
from series_ops import exp, from_coeffs, log, log1p, one, truncate

ORDER = 12


def rationals(max_num=6, max_den=4):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def series_strategy(order=6, constant=None):
    head = st.just(constant) if constant is not None else rationals()
    return st.builds(
        lambda c0, tail: Series((Fraction(c0), *tail)),
        head,
        st.lists(rationals(), min_size=order, max_size=order),
    )


# -- arithmetic ---------------------------------------------------------------

def test_basic_identities():
    p = Series.x(ORDER)
    unit = one(ORDER)
    assert exp(log1p(p)) == unit + p
    assert (unit + p).inverse() == Series(tuple(Fraction((-1) ** n) for n in range(ORDER + 1)))
    f = from_coeffs([3, 1, 4, 1, 5])
    assert f.integral(0).derivative() == f
    assert f.derivative().order == f.order - 1
    assert f.integral(7).order == f.order + 1
    assert f.integral(7)[0] == 7


def test_alignment_to_smallest_order():
    a = from_coeffs([1, 2, 3])
    b = from_coeffs([1, 1])
    assert (a + b).order == 1
    assert (a * b).order == 1
    assert (a * b).coeffs == (Fraction(1), Fraction(3))


def test_argument_errors():
    p = Series.x(4)
    with pytest.raises(ValueError):
        p.inverse()
    with pytest.raises(ValueError):
        exp(1 + p)
    with pytest.raises(ValueError):
        log(p)
    with pytest.raises(ValueError):
        log1p(1 + p)
    with pytest.raises(ValueError):
        from_coeffs([1]).derivative()
    with pytest.raises(IndexError):
        p[9]
    with pytest.raises(ValueError, match="^a series needs at least the constant coefficient$"):
        Series([])


def test_repr_shows_the_first_nonzero_coefficient():
    assert repr(Series.x(3)) == "Series([0, 1, 0, 0], order=3)"
    assert repr(Series.x(9)) == "Series([0, 1, 0, 0, 0, 0, 0, 0, ...], order=9)"
    assert repr(Series.zero(9)) == "Series([0, 0, 0, 0, 0, 0, 0, 0, ...], order=9)"
    late = Series([0] * 13 + [Fraction(-3, 7)] + [0] * 19)
    assert repr(late) == f"Series([{'0, ' * 13}-3/7, ...], order=32)"
    last = Series([0] * 9 + [5])
    assert repr(last) == f"Series([{'0, ' * 9}5], order=9)"


@given(series_strategy(), series_strategy(), series_strategy())
@settings(max_examples=50, deadline=None)
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def _mul_oracle(a, b):
    """The Fraction double loop that multiplied series before the product
    convolved integer numerators."""
    n = min(a.order, b.order)
    out = [Fraction(0)] * (n + 1)
    for i, ci in enumerate(a.coeffs[: n + 1]):
        if not ci:
            continue
        for j in range(n + 1 - i):
            cj = b.coeffs[j]
            if cj:
                out[i + j] += ci * cj
    return Series(tuple(out))


@st.composite
def _factors(draw):
    """A series of order 0-12 from mixed int and Fraction values, maybe with
    a run of zeros, read as coefficients or as Taylor coefficients."""
    order = draw(st.integers(0, 12))
    value = st.one_of(st.integers(-40, 40), rationals(40, 30))
    values = draw(st.lists(value, min_size=order + 1, max_size=order + 1))
    start = draw(st.integers(0, order + 1))
    stop = draw(st.integers(start, order + 1))
    values[start:stop] = [0] * (stop - start)
    return Series.from_taylor(values) if draw(st.booleans()) else Series(values)


@given(_factors(), _factors())
@settings(max_examples=200, deadline=None)
def test_product_matches_the_fraction_double_loop(a, b):
    product, expected = a * b, _mul_oracle(a, b)
    assert product == expected
    assert product.order == expected.order == min(a.order, b.order)
    assert all(type(c) is Fraction for c in product.coeffs)


# -- the power-basis arithmetic the Taylor-coefficient store replaced, kept as
# oracles ----------------------------------------------------------------------

def _numerators(coeffs):
    """Integer numerators of ``coeffs`` over the lcm of their denominators,
    and that lcm."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _power_product(a, b):
    """Convolve the power coefficients' integer numerators over a common
    denominator and divide once per coefficient."""
    n = min(a.order, b.order)
    x, x_den = _numerators(a.coeffs[: n + 1])
    y, y_den = _numerators(b.coeffs[: n + 1])
    return Series(Fraction(sum(x[j] * y[k - j] for j in range(k + 1)), x_den * y_den)
                  for k in range(n + 1))


def _power_inverse(a):
    """1/a from a * (1/a) = 1 on power coefficients."""
    inv0 = 1 / a.coeffs[0]
    out = [inv0]
    for k in range(1, a.order + 1):
        out.append(-inv0 * sum(a.coeffs[j] * out[k - j] for j in range(1, k + 1)))
    return Series(out)


def _stored_exactly(series):
    """A series stores its Taylor coefficients as ints where integral."""
    return all(type(t) is int or (type(t) is Fraction and t.denominator != 1)
               for t in series.taylor_coeffs)


@given(_factors(), _factors())
@settings(max_examples=200, deadline=None)
def test_product_matches_the_power_basis_convolution(a, b):
    product = a * b
    assert product == _power_product(a, b) and _stored_exactly(product)


@given(_factors())
@settings(max_examples=200, deadline=None)
def test_inverse_matches_the_power_basis_recurrence(a):
    assume(a.taylor_coeffs[0])
    inverse = a.inverse()
    assert inverse == _power_inverse(a) and _stored_exactly(inverse)
    assert a * inverse == Series.constant(1, a.order)


@given(_factors(), st.one_of(st.integers(-9, 9), rationals()))
@settings(max_examples=200, deadline=None)
def test_calculus_matches_the_power_basis_formulas(a, constant):
    c = a.coeffs
    if a.order:
        assert a.derivative() == Series(k * c[k] for k in range(1, a.order + 1))
    integral = a.integral(constant)
    assert integral == Series([constant, *(ck / (k + 1) for k, ck in enumerate(c))])
    assert _stored_exactly(integral) and integral.derivative() == a


@given(_factors())
@settings(max_examples=200, deadline=None)
def test_taylor_and_power_coefficients_round_trip(a):
    taylor = [a.taylor(n) for n in range(a.order + 1)]
    assert taylor == [factorial(n) * a[n] for n in range(a.order + 1)]
    assert all(type(c) is Fraction for c in a.coeffs) and list(a.coeffs) == [
        a[n] for n in range(a.order + 1)]
    assert Series.from_taylor(taylor) == a == Series(a.coeffs)
    assert hash(Series.from_taylor(taylor)) == hash(a) == hash(Series(a.coeffs))
    assert _stored_exactly(a) and _stored_exactly(-a) and _stored_exactly(a + a)


@given(series_strategy(constant=0), series_strategy(constant=0))
@settings(max_examples=40, deadline=None)
def test_exp_is_a_homomorphism(a, b):
    assert exp(a + b) == exp(a) * exp(b)


@given(series_strategy(constant=0))
@settings(max_examples=40, deadline=None)
def test_exp_log_round_trip(a):
    assert exp(log(1 + a)) == 1 + a


# -- the one-variable pairing condition --------------------------------------

def _example_pair(order=32):
    p = Series.x(order)
    g1 = 1 + p
    g2 = (1 + p) * (1 - log1p(p))
    return g1, g2


def test_wronskian_antisymmetry_and_values():
    f = from_coeffs([2, 3, 5, 7])
    assert wronskian(f, f).is_zero()
    assert wronskian(one(4), Series.x(4)) == Series.constant(-1, 3)
    g1, g2 = _example_pair()
    assert wronskian(g1, g2) == truncate(1 + Series.x(32), 31)


def test_nilcheck_values():
    g1, g2 = _example_pair()
    zero = Series.zero(32)
    assert nilcheck_one_boson(Series.constant(-1, 32), zero, g1, g2).is_zero()
    assert nilcheck_one_boson(zero, zero, zero, zero).is_zero()
    # residual -p when g2 is replaced by the constant 1
    bad = nilcheck_one_boson(
        Series.constant(-1, 32), zero, g1, one(32)
    )
    assert bad == truncate(-Series.x(32), 31)


def test_solve_f1_cases():
    g1, g2 = _example_pair()
    assert solve_f1(g1, g2) == Series.constant(-1, 31)
    assert solve_f1(g1, g1).is_zero()
    assert solve_f1(one(8), Series.x(8)) == Series.constant(1, 7)
    with pytest.raises(ValueError):
        solve_f1(Series.x(8), one(8))


def test_solve_g2_cases():
    g1, g2 = _example_pair(33)
    f1 = Series.constant(-1, 33)
    assert solve_g2(g1, f1, 1) == g2
    assert solve_g2(g1, Series.zero(33), 5) == 5 * g1
    with pytest.raises(ValueError):
        solve_g2(Series.x(8), one(8))


def test_solvers_zero_the_residual_on_random_data():
    import random

    rng = random.Random(20250809)
    for _ in range(25):
        order = rng.randint(2, 8)
        g1 = Series(
            (Fraction(rng.choice([1, 2, -1, 3])),)
            + tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(order))
        )
        g2 = Series(
            tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(order + 1))
        )
        f1 = solve_f1(g1, g2)
        assert nilcheck_one_boson(f1, Series.zero(f1.order), g1, g2).is_zero()
        fr = Series(
            tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(order + 1))
        )
        g2b = solve_g2(g1, fr, Fraction(rng.randint(1, 3)))
        assert nilcheck_one_boson(fr, Series.zero(fr.order), g1, g2b).is_zero()


# -- the two inverse-function series ------------------------------------------

def test_lambert_w_series_coefficients():
    w = lambert_w_series(20)
    assert w[0] == 0
    assert w[1] == 1
    assert w[2] == Fraction(-1)  # (-2)^1 / 2!
    assert w[3] == Fraction(3, 2)  # (-3)^2 / 3!
    for n in range(1, 21):
        assert factorial(n) * w[n] == Fraction(-n) ** (n - 1)


def test_lambert_w_inverts_w_exp_w():
    w = lambert_w_series(20)
    assert w * exp(w) == Series.x(20)


def test_g_series_coefficients_and_identities():
    g = g_series(20)
    values = [factorial(m) * g[m] for m in range(5)]
    assert values == [1, 1, -1, 4, -27]
    w = lambert_w_series(20)
    assert g == exp(w)
    assert w * g == Series.x(20)
    # substituting back into the inverse function G ln(G) recovers the variable
    assert g * log(g) == Series.x(20)


def test_g_series_ode_residual():
    g = g_series(24)
    p = Series.x(24)
    assert (g.derivative() * (g + p) - g).is_zero()


def test_w_coefficient_ratio_near_e():
    w = lambert_w_series(41)
    ratio = abs(w[41] / w[40])
    e = 2.718281828459045
    assert abs(float(ratio) - e) / e < 0.05


# -- the fixed-point routes the recurrences replaced, kept as oracles --------

def _lambert_w_fixed_point(order):
    """w = p * exp(-w) iterated from w = p; each pass gains one exact order."""
    p = Series.x(order)
    w = p
    for _ in range(order):
        w = p * exp(-w)
    return w


def _g_fixed_point(order):
    """G = 1 + integral of G/(G + p) iterated from G = 1."""
    if order == 0:
        return one(0)
    p = Series.x(order)
    g = one(order)
    for _ in range(order):
        g = truncate((g * (g + p).inverse()).integral(1), order)
    return g


@pytest.mark.parametrize("order", range(17))
def test_recurrences_match_the_fixed_point_routes(order):
    g = g_series(order)
    assert g == _g_fixed_point(order) and g.order == order
    if order:
        w = lambert_w_series(order)
        assert w == _lambert_w_fixed_point(order) and w.order == order


def test_recurrences_match_the_closed_forms_to_order_150():
    g, w = g_series(150), lambert_w_series(150)
    assert [factorial(n) * g[n] for n in range(151)] == [b_closed(n) for n in range(151)]
    assert w[0] == 0
    assert ([factorial(n) * w[n] for n in range(1, 151)]
            == [Fraction(-n) ** (n - 1) for n in range(1, 151)])


def test_series_routes_at_their_smallest_orders():
    assert g_series(0) == one(0)
    assert lambert_w_series(1) == Series.x(1)
    with pytest.raises(ValueError):
        g_series(-1)
    with pytest.raises(ValueError):
        lambert_w_series(0)


def test_taylor_round_trip():
    values = [1, -3, Fraction(5, 2), 0, 48]
    f = Series.from_taylor(values)
    assert f.coeffs == (1, -3, Fraction(5, 4), 0, 2)
    assert [f.taylor(n) for n in range(f.order + 1)] == values
    g = from_coeffs([Fraction(1, 3), 2, Fraction(-7, 6)])
    assert Series.from_taylor(g.taylor(n) for n in range(g.order + 1)) == g
    with pytest.raises(IndexError):
        f.taylor(5)
    with pytest.raises(TypeError):
        Series.from_taylor([1.5])


def test_coefficients_check_at_order_150(capsys):
    assert cli.main(["coefficients", "b", "150", "--check", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checked"] and report["mismatches"] == [] and report["pass"]
