"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line; every bound (arity, degree, order,
wall-clock limit) is pinned here and not tuned anywhere else.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

from linfcheck.brackets import first_difference, verify_jacobi
from linfcheck.builtin import (
    b_closed,
    c2_daily,
    example1_system,
    example2_system,
    theta_sector_sign,
)
from linfcheck.series import (
    Series,
    g_series,
    lambert_w_series,
    nilcheck_one_boson,
    solve_f1,
    solve_g2,
)
from linfcheck.superspace import brackets_from_delta, delta_squared_check
from series_ops import exp, log1p, truncate


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({label}): FAIL")
        raise
    else:
        print(f"criterion {number:2d} ({label}): PASS")


def test_criterion_01_first_example_jacobi():
    with criterion(1, "first example Jacobi identities through arity 8"):
        ex = example1_system()
        start = time.perf_counter()
        report = verify_jacobi(ex.skew_system, 8)
        elapsed = time.perf_counter() - start
        assert report.passed
        assert elapsed < 5.0, f"took {elapsed:.2f}s, limit 5s"

        mutated = example1_system(c_values={4: 1})
        checks = verify_jacobi(mutated.skew_system, 4).checks
        failure = next((check for check in checks if not check.ok), None)
        assert failure is not None and failure.arity == 4
        names = tuple(v.name for v in failure.counterexample)
        assert names == ("v1", "v2", "w", "w")


def test_criterion_02_first_example_nilpotency():
    with criterion(2, "first example operator squares to zero"):
        ex = example1_system(order=32)
        report = delta_squared_check(ex.delta_spec, 12)
        assert report.passed
        f1, f2 = ex.delta_spec.f
        g1, g2 = ex.delta_spec.g[0][0], ex.delta_spec.g[1][0]
        residual = nilcheck_one_boson(f1, f2, g1, g2)
        assert residual.order >= 32
        assert residual.is_zero()


def test_criterion_03_formulation_equivalence():
    with criterion(3, "operator brackets equal the shifted tables"):
        ex1 = example1_system()
        rebuilt = brackets_from_delta(ex1.delta_spec, 8)
        assert first_difference(ex1.symmetric_system, rebuilt, 8) is None
        ex2 = example2_system()
        rebuilt = brackets_from_delta(ex2.delta_spec, 6)
        assert first_difference(ex2.symmetric_system, rebuilt, 6) is None


def test_criterion_04_second_example_jacobi():
    with criterion(4, "second example Jacobi identities, dims (3,3), arity 6"):
        ex = example2_system(dim0=3, dim1=3)
        start = time.perf_counter()
        report = verify_jacobi(ex.skew_system, 6)
        elapsed = time.perf_counter() - start
        assert report.passed
        assert elapsed < 60.0, f"took {elapsed:.2f}s, limit 60s"


def test_criterion_05_ode_series_closed_form():
    with criterion(5, "ODE series coefficients equal (1-n)^(n-1)"):
        g = g_series(20)  # generated by solving G'(G + p) = G, G(0) = 1
        for n in range(0, 21):
            assert factorial(n) * g[n] == b_closed(n), f"mismatch at n={n}"


def test_criterion_06_lambert_series():
    with criterion(6, "inverse-function series coefficients equal (-n)^(n-1)"):
        w = lambert_w_series(20)  # generated by inverting w * e^w = p
        for n in range(1, 21):
            assert factorial(n) * w[n] == Fraction(-n) ** (n - 1), f"n={n}"
        g = g_series(20)
        assert g == exp(w)
        assert w * g == Series.x(20)


def test_criterion_07_coefficient_triangulation():
    with criterion(7, "three-way coefficient consistency"):
        for n in range(3, 13):
            image = theta_sector_sign(n) * c2_daily(n)
            assert image == Fraction((2 - n) ** (n - 2))
            assert image == b_closed(n - 1)


def test_criterion_08_special_case_solvers():
    with criterion(8, "solver outputs zero the pairing residual"):
        rng = random.Random(0xC0FFEE)
        for trial in range(100):
            order = rng.randint(1, 8)
            g1 = Series(
                (Fraction(rng.choice([1, -1, 2, -2, 3])),)
                + tuple(
                    Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    for _ in range(order)
                )
            )
            g2 = Series(
                tuple(
                    Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    for _ in range(order + 1)
                )
            )
            f1 = solve_f1(g1, g2)
            residual = nilcheck_one_boson(f1, Series.zero(f1.order), g1, g2)
            assert residual.is_zero(), f"solve_f1 failed on trial {trial}"

            f1b = Series(
                tuple(
                    Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    for _ in range(order + 1)
                )
            )
            g2b = solve_g2(g1, f1b, Fraction(rng.randint(1, 3), rng.randint(1, 2)))
            residual = nilcheck_one_boson(f1b, Series.zero(f1b.order), g1, g2b)
            assert residual.is_zero(), f"solve_g2 failed on trial {trial}"

        # the bundled data point: g1 = 1 + p, f1 = -1 reproduce g2 exactly
        p = Series.x(33)
        g1 = 1 + p
        f1 = Series.constant(-1, 33)
        expected = (1 + p) * (1 - log1p(p))
        assert truncate(solve_g2(g1, f1, 1), 32) == truncate(expected, 32)
        assert solve_f1(g1, expected) == Series.constant(-1, 32)


def test_criterion_09_equivalence_mutation_suite():
    with criterion(9, "Jacobi holds iff the operator squares to zero"):
        cases = [
            ("example1 intact", example1_system(), True),
            ("example1 C4", example1_system(c_values={4: 1}), False),
            ("example1 C5", example1_system(c_values={5: -3}), False),
            ("example1 C6", example1_system(c_values={6: 0}), False),
            ("example2 intact", example2_system(), True),
            ("example2 B2", example2_system(b_values={2: 1}), False),
            ("example2 B3", example2_system(b_values={3: 0}), False),
            ("example2 B4", example2_system(b_values={4: 27}), False),
        ]
        for label, ex, expected in cases:
            jacobi_ok = verify_jacobi(ex.skew_system, 6).passed
            delta_ok = delta_squared_check(ex.delta_spec, 6).passed
            assert jacobi_ok == delta_ok == expected, (
                f"{label}: jacobi={jacobi_ok} delta={delta_ok} expected={expected}"
            )


def test_criterion_10_ratio_diagnostic():
    with criterion(10, "coefficient ratio sits near e"):
        w = lambert_w_series(41)
        ratio = float(abs(w[41] / w[40]))
        e = 2.718281828459045
        assert abs(ratio - e) / e < 0.05, f"ratio {ratio:.5f}"
