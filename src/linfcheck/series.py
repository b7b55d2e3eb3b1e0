"""Exact truncated power series in one variable over the rationals.

A ``Series`` knows its coefficients through a fixed order and nothing
beyond; operations return a result whose order is the largest one the
inputs can certify.  In particular the derivative of an order-N series has
order N - 1 and an integral has order N + 1, so exactness is tracked rather
than silently padded.  All coefficients are ``fractions.Fraction``; a
product convolves integer numerators over a common denominator and divides
once per coefficient.
``from_taylor`` and ``taylor`` convert from and to the Taylor coefficients
n! * c_n, on which ``g_series`` and ``lambert_w_series`` solve their
functional equations in integers, independently of the closed forms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from operator import add, mul
from typing import Iterable

from .grading import Rational, _as_fraction


class Series:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational]):
        self.coeffs: tuple[Fraction, ...] = tuple(_as_fraction(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_taylor(cls, values: Iterable[Rational]) -> "Series":
        """The series whose n-th coefficient is values[n] / n!."""
        return cls(tuple(_as_fraction(v) / factorial(n) for n, v in enumerate(values)))

    @classmethod
    def constant(cls, value: Rational, order: int) -> "Series":
        return cls((_as_fraction(value),) + (Fraction(0),) * order)

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls.constant(0, order)

    @classmethod
    def x(cls, order: int) -> "Series":
        if order < 1:
            raise ValueError("the coordinate series needs order >= 1")
        return cls((Fraction(0), Fraction(1)) + (Fraction(0),) * (order - 1))

    # -- basics --------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} beyond stored order {self.order}")
        return self.coeffs[k]

    def taylor(self, n: int) -> Fraction:
        """The n-th Taylor coefficient, n! times the n-th coefficient."""
        return factorial(n) * self[n]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __repr__(self) -> str:
        # at least eight coefficients, and always through the first nonzero one
        count = max(8, 1 + next((k for k, c in enumerate(self.coeffs) if c), 0))
        shown = ", ".join(str(c) for c in self.coeffs[:count])
        tail = ", ..." if self.order >= count else ""
        return f"Series([{shown}{tail}], order={self.order})"

    # -- ring operations (results live at the smallest input order) ----------

    def __add__(self, other):
        if isinstance(other, Series):
            return Series(tuple(map(add, self.coeffs, other.coeffs)))
        value = _as_fraction(other)
        return Series((self.coeffs[0] + value,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self):
        return Series(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other if isinstance(other, Series) else -_as_fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Series):
            n = min(self.order, other.order)
            a, a_den = _numerators(self.coeffs[: n + 1])
            b, b_den = _numerators(other.coeffs[: n + 1])
            den = a_den * b_den
            return Series(tuple(Fraction(sum(map(mul, a[: k + 1], b[k::-1])), den)
                                for k in range(n + 1)))
        value = _as_fraction(other)
        return Series(tuple(value * c for c in self.coeffs))

    __rmul__ = __mul__

    # -- calculus -------------------------------------------------------------

    def derivative(self) -> "Series":
        if self.order < 1:
            raise ValueError("derivative of an order-0 series is undetermined")
        return Series(tuple(k * self.coeffs[k] for k in range(1, self.order + 1)))

    def integral(self, constant: Rational = 0) -> "Series":
        coeffs = [_as_fraction(constant)]
        coeffs.extend(c / (k + 1) for k, c in enumerate(self.coeffs))
        return Series(tuple(coeffs))

    # -- multiplicative structure ----------------------------------------------

    def inverse(self) -> "Series":
        c0 = self.coeffs[0]
        if not c0:
            raise ValueError("inverse needs a nonzero constant term")
        inv0 = 1 / c0
        out = [inv0]
        for k in range(1, self.order + 1):
            acc = Fraction(0)
            for j in range(1, k + 1):
                cj = self.coeffs[j]
                if cj:
                    acc += cj * out[k - j]
            out.append(-inv0 * acc)
        return Series(tuple(out))


def _numerators(coeffs: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """Integer numerators of ``coeffs`` over the lcm of their denominators,
    and that lcm."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


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
    if not g1.coeffs[0]:
        raise ValueError("g1 needs a nonzero constant term")
    return -1 * (wronskian(g1, g2) * g1.inverse())


def solve_g2(g1: Series, f1: Series, ratio_at_zero: Rational = 1) -> Series:
    """The choice g2 = g1 * (ratio_at_zero + integral of f1/g1), f2 = 0.

    ``ratio_at_zero`` pins the free integration constant, i.e. the value of
    g2/g1 at the origin.
    """
    if not g1.coeffs[0]:
        raise ValueError("g1 needs a nonzero constant term")
    return g1 * (f1 * g1.inverse()).integral(ratio_at_zero)


# ---------------------------------------------------------------------------
# the two classical inverse-function series
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
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
