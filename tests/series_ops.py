"""Series operations that only the tests use: exp, log, log1p, truncate
and two constructors.

``g_series`` and ``lambert_w_series`` solve their equations on integer
Taylor coefficients and need none of these; the tests use them to state
identities such as G = exp(W) and to run the fixed-point oracles.
"""

from fractions import Fraction

from linfcheck.series import Series


def from_coeffs(coeffs) -> Series:
    return Series(tuple(coeffs))


def one(order: int) -> Series:
    return Series.constant(1, order)


def truncate(series: Series, order: int) -> Series:
    if order > series.order:
        raise ValueError(f"cannot extend order {series.order} series to {order}")
    return Series(series.coeffs[: order + 1])


def exp(f: Series) -> Series:
    if f.coeffs[0]:
        raise ValueError("exp needs a zero constant term")
    # e' = e * f' solved coefficient by coefficient
    out = [Fraction(1)]
    for k in range(1, f.order + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            cj = f.coeffs[j]
            if cj:
                acc += j * cj * out[k - j]
        out.append(acc / k)
    return Series(tuple(out))


def log(f: Series) -> Series:
    if f.coeffs[0] != 1:
        raise ValueError("log needs constant term 1")
    if f.order < 1:
        return Series.zero(0)
    return (f.derivative() * f.inverse()).integral(0)


def log1p(f: Series) -> Series:
    if f.coeffs[0]:
        raise ValueError("log1p needs a zero constant term")
    return log(1 + f)
