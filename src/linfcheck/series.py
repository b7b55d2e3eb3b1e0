"""Exact truncated power series in one variable over the rationals.

A ``Series`` knows its coefficients through a fixed order and nothing
beyond; operations return a result whose order is the largest one the
inputs can certify.  In particular the derivative of an order-N series has
order N - 1 and an integral has order N + 1, so exactness is tracked rather
than silently padded.  A series stores its Taylor coefficients n! * c_n,
ints where integral: the paper gives its generating functions by them, and
the operator's pieces, ``g_series`` and ``lambert_w_series`` read them.  On
them a product is the binomial convolution ``binomial_product``, which D o D
shares, and a derivative or an integral is a shift.  ``Series(coeffs)``,
``coeffs`` and indexing speak in the power coefficients c_n, as Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, count, repeat
from math import comb, factorial, lcm
from operator import add, mul, neg
from typing import Iterable, Sequence

from .grading import Rational, _exact, int_if_integral

_ZERO = Fraction(0)


@lru_cache(maxsize=None)
def _binomials(n: int) -> tuple[int, ...]:
    return tuple(map(comb, repeat(n), range(n + 1)))


def binomial_product(a: Sequence[Rational], b: Sequence[Rational], size: int) -> list:
    """Taylor coefficients 0 .. size - 1 of a product from those of its
    factors, (ab)_n = sum_k C(n, k) a_k b_(n-k); both hold at least ``size``.
    Fractions are put over one denominator first, so the sums run on ints."""
    den = lcm(*(t.denominator for t in chain(a, b)))  # an int's is 1
    if den > 1:
        a, b = ([t.numerator * (den // t.denominator) for t in s] for s in (a, b))
    out = [sum(map(mul, map(mul, _binomials(n), a), b[n::-1])) for n in range(size)]
    return out if den == 1 else [Fraction(v, den * den) for v in out]


def _series(taylor: Iterable[Rational]) -> "Series":
    """The series of these Taylor coefficients, unchecked, ints where integral."""
    series = object.__new__(Series)
    series.taylor_coeffs = tuple(map(int_if_integral, taylor))
    if not series.taylor_coeffs:
        raise ValueError("a series needs at least the constant coefficient")
    return series


class Series:
    __slots__ = ("taylor_coeffs",)

    def __init__(self, coeffs: Iterable[Rational]):
        factorials = accumulate(count(1), mul, initial=1)
        self.taylor_coeffs = _series(map(mul, factorials, map(_exact, coeffs))).taylor_coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.taylor_coeffs == other.taylor_coeffs

    def __hash__(self) -> int:
        return hash(self.taylor_coeffs)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_taylor(cls, values: Iterable[Rational]) -> "Series":
        """The series whose n-th coefficient is values[n] / n!."""
        return _series(map(_exact, values))

    @classmethod
    def constant(cls, value: Rational, order: int) -> "Series":
        return _series((_exact(value),) + (0,) * order)

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls.constant(0, order)

    @classmethod
    def x(cls, order: int) -> "Series":
        if order < 1:
            raise ValueError("the coordinate series needs order >= 1")
        return _series((0, 1) + (0,) * (order - 1))

    # -- basics --------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.taylor_coeffs) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power coefficients c_n = taylor_coeffs[n] / n!."""
        factorials = accumulate(count(1), mul, initial=1)
        return tuple(Fraction(t, f) if t else _ZERO
                     for t, f in zip(self.taylor_coeffs, factorials))

    def __getitem__(self, k: int) -> Fraction:
        return Fraction(self.taylor(k), factorial(k))

    def taylor(self, n: int) -> Rational:
        """The n-th Taylor coefficient, n! times the n-th coefficient."""
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond stored order {self.order}")
        return self.taylor_coeffs[n]

    def is_zero(self) -> bool:
        return not any(self.taylor_coeffs)

    def __repr__(self) -> str:
        # at least eight coefficients, and always through the first nonzero one
        n_shown = max(8, 1 + next((k for k, t in enumerate(self.taylor_coeffs) if t), 0))
        shown = ", ".join(map(str, self.coeffs[:n_shown]))
        tail = ", ..." if self.order >= n_shown else ""
        return f"Series([{shown}{tail}], order={self.order})"

    # -- ring operations (results live at the smallest input order) ----------

    def __add__(self, other):
        if isinstance(other, Series):
            return _series(map(add, self.taylor_coeffs, other.taylor_coeffs))
        return _series((self.taylor_coeffs[0] + _exact(other),) + self.taylor_coeffs[1:])

    __radd__ = __add__

    def __neg__(self):
        return _series(map(neg, self.taylor_coeffs))

    def __sub__(self, other):
        return self + (-other if isinstance(other, Series) else -_exact(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Series):
            size = 1 + min(self.order, other.order)
            return _series(binomial_product(self.taylor_coeffs, other.taylor_coeffs, size))
        value = _exact(other)
        return _series(value * t for t in self.taylor_coeffs)

    __rmul__ = __mul__

    # -- calculus: on Taylor coefficients, shifts ---------------------------------

    def derivative(self) -> "Series":
        if self.order < 1:
            raise ValueError("derivative of an order-0 series is undetermined")
        return _series(self.taylor_coeffs[1:])

    def integral(self, constant: Rational = 0) -> "Series":
        return _series((_exact(constant),) + self.taylor_coeffs)

    # -- multiplicative structure ----------------------------------------------

    def inverse(self) -> "Series":
        """On Taylor coefficients, f g = 1 reads g_0 = 1/f_0 and
        g_n = -g_0 sum_(1 <= k <= n) C(n, k) f_k g_(n-k)."""
        f = self.taylor_coeffs
        if not f[0]:
            raise ValueError("inverse needs a nonzero constant term")
        inv0 = int_if_integral(Fraction(1, f[0]))
        out = [inv0]
        for n in range(1, len(f)):
            out.append(-inv0 * sum(map(mul, map(mul, _binomials(n)[1:], f[1:]), out[::-1])))
        return _series(out)


# ---------------------------------------------------------------------------
# the pairing condition for one even variable
# ---------------------------------------------------------------------------

def wronskian(g1: Series, g2: Series) -> Series:
    """g1' * g2 - g1 * g2'."""
    return g1.derivative() * g2 - g1 * g2.derivative()


def nilcheck_one_boson(f1: Series, f2: Series, g1: Series, g2: Series) -> Series:
    """Residual g1*f1 + g2*f2 + W(g1, g2); zero iff the operator-squared
    condition holds for a single even variable through the common order."""
    return g1 * f1 + g2 * f2 + wronskian(g1, g2)


def solve_f1(g1: Series, g2: Series) -> Series:
    """The choice f1 = -W(g1, g2)/g1 (with f2 = 0) that zeroes the residual."""
    if not g1.taylor_coeffs[0]:
        raise ValueError("g1 needs a nonzero constant term")
    return -1 * (wronskian(g1, g2) * g1.inverse())


def solve_g2(g1: Series, f1: Series, ratio_at_zero: Rational = 1) -> Series:
    """The choice g2 = g1 * (ratio_at_zero + integral of f1/g1), f2 = 0.

    ``ratio_at_zero`` pins the free integration constant, i.e. the value of
    g2/g1 at the origin.
    """
    if not g1.taylor_coeffs[0]:
        raise ValueError("g1 needs a nonzero constant term")
    return g1 * (f1 * g1.inverse()).integral(ratio_at_zero)


# ---------------------------------------------------------------------------
# the two classical inverse-function series
# ---------------------------------------------------------------------------

def lambert_w_series(order: int) -> Series:
    """Taylor series of the inverse W of w * e^w, coefficient by coefficient.

    On Taylor coefficients, W = p * E and E' = -W' E (E = exp(-W), W_0 = 0,
    E_0 = 1) read W_(n+1) = (n + 1) E_n and
    E_(n+1) = -sum_(k <= n) C(n, k) W_(k+1) E_(n-k).  The closed form
    (-n)^(n-1)/n! is deliberately not used; it is an independent check.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    w, e = [0], [1]
    for n in range(order):
        w.append((n + 1) * e[n])
        e.append(-sum(comb(n, k) * w[k + 1] * e[n - k] for k in range(n + 1)))
    return Series.from_taylor(w)


def g_series(order: int) -> Series:
    """Solution of G'(G + p) = G with G(0) = 1, coefficient by coefficient.

    On Taylor coefficients a of G and b of G + p (b_0 = 1, b_1 = a_1 + 1,
    b_j = a_j otherwise): a_0 = 1 and
    a_(n+1) = a_n - sum_(k < n) C(n, k) a_(k+1) b_(n-k).  The closed form
    a_M = (1 - M)^(M-1) is deliberately not used; it is an independent check.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    a, b = [1], [1]
    for n in range(order):
        a.append(a[n] - sum(comb(n, k) * a[k + 1] * b[n - k] for k in range(n)))
        b.append(a[n + 1] + 1 if n == 0 else a[n + 1])
    return Series.from_taylor(a)
