"""The two formulations of one structure agree arity by arity, on random
flat operators, and the operator's two checks agree degree by degree.

For an operator ``D`` with ``h = 0``, the brackets read off ``D`` and
suspended to the skew side satisfy the Jacobi identities through arity n
exactly when ``D`` squares to zero on every monomial of at most n
generators (odd factors plus even degree).  So the first arity at which
``verify_jacobi`` fails equals the smallest generator count of a monomial
that ``D^2`` does not kill, and neither exists when the structure holds.

Curved structures (``h != 0``) are out of scope: the zeroth piece ``D0``
gives brackets of the wrong degree for the skew side (``brackets_from_delta``
rejects them) and an arity-0 bracket, which the Jacobi scan never sees.

On the operator side, ``delta_squared_check`` first fails at the lowest even
degree that a nonzero coefficient of a ``nilpotency_conditions`` residual
acts on: index k of a residual series, or k + 1 for a ``p-term``, whose
coefficients multiply one momentum p_i.
"""

import ast
import io
import json
import tempfile
from contextlib import redirect_stdout
from itertools import product
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import linfcheck
from linfcheck.brackets import first_difference, verify_jacobi
from linfcheck.builtin import b_closed, example1_system, example2_system
from linfcheck.cli import main
from linfcheck.document import save_document, system_to_document
from linfcheck.series import Series, solve_f1
from linfcheck.superspace import (
    DeltaSpec,
    SuperMonomial,
    brackets_from_delta,
    delta_squared_check,
    nilpotency_conditions,
)
from series_ops import from_coeffs
from test_brackets import _shift_oracle
from test_superspace import _orbit_scan, apply_delta

MAX_ARITY = 5
ORDER = MAX_ARITY + 1  # D^2 on degree n needs coefficients through n + 1
_SECTORS = ((), (1,), (2,), (1, 2))


def _series(draw, constant=None):
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=ORDER + 1, max_size=ORDER + 1))
    if constant is not None:
        coeffs[0] = constant
    return from_coeffs(coeffs)


@st.composite
def _solved(draw):
    """One even generator with f1 = -W(g1, g2)/g1 and f2 = 0: D^2 = 0."""
    g1 = _series(draw, constant=draw(st.sampled_from((-2, -1, 1, 2))))
    g2, zero = _series(draw), Series.zero(ORDER)
    return DeltaSpec(1, (solve_f1(g1, g2), zero), ((g1,), (g2,)), (zero, zero)), True, None


@st.composite
def _second_family(draw):
    """The second example's operator on 2 or 3 even generators, with some
    B_M replaced; B_M first enters at arity M + 1, so through MAX_ARITY it
    holds iff every replacement keeps the true value."""
    n_bosons = draw(st.integers(2, 3))
    b_values = draw(st.dictionaries(st.integers(1, MAX_ARITY - 1), st.integers(-3, 3),
                                    max_size=2))
    ex = example2_system(dim0=2, dim1=n_bosons, n_bosons=n_bosons, order=ORDER - 1,
                         max_arity=MAX_ARITY, b_values=b_values)
    intact = all(b_closed(m) == value for m, value in b_values.items())
    return ex.delta_spec, intact, ex.skew_system


@st.composite
def _constant_g(draw):
    """Constant g and f on one or two even generators, with or without the
    momentum shift; whether D^2 vanishes is left to the two checks."""
    n_bosons = draw(st.integers(1, 2))

    def constant():
        return Series.constant(draw(st.integers(-2, 2)), ORDER)

    zero = Series.zero(ORDER)
    return DeltaSpec(
        n_bosons,
        (constant(), constant()),
        tuple(tuple(constant() for _ in range(n_bosons)) for _ in (1, 2)),
        (zero, zero),
        momentum_shift=draw(st.booleans()),
    ), None, None


@st.composite
def _mutant(draw):
    """A structure that holds, with one Taylor coefficient of f or g changed."""
    spec, _, _ = draw(_solved())
    a, k = draw(st.integers(0, 1)), draw(st.integers(0, MAX_ARITY))
    change = draw(st.sampled_from((-1, 1, 2)))

    def bump(series):
        coeffs = list(series.coeffs)
        coeffs[k] += change
        return Series(tuple(coeffs))

    if draw(st.booleans()):
        f = tuple(bump(s) if b == a else s for b, s in enumerate(spec.f))
        return spec._replace(f=f), None, None
    g = tuple((bump(row[0]),) if b == a else row for b, row in enumerate(spec.g))
    return spec._replace(g=g), None, None


def _first_unkilled_count(spec):
    """Smallest generator count of a monomial on which D^2 is nonzero."""
    for count in range(MAX_ARITY + 1):
        for fermions in _SECTORS:
            degree = count - len(fermions)
            for bosons in product(range(degree + 1), repeat=spec.n_bosons):
                if sum(bosons) != degree:
                    continue
                mono = SuperMonomial(fermions, bosons)
                if not apply_delta(spec, spec.delta_monomial(mono)).is_zero():
                    return count
    return None


def _first_jacobi_failure(skew, max_arity=MAX_ARITY):
    checks = verify_jacobi(skew, max_arity).checks
    failure = next((check for check in checks if not check.ok), None)
    return None if failure is None else failure.arity


@settings(max_examples=40, deadline=None)
@given(st.one_of(_solved(), _second_family(), _constant_g(), _mutant()), st.booleans())
def test_first_jacobi_failure_is_the_first_unkilled_monomial(drawn, through_cli):
    spec, holds, declared = drawn  # holds: the known verdict, None when unknown
    skew = _shift_oracle(brackets_from_delta(spec, MAX_ARITY))
    arity = _first_jacobi_failure(skew)
    assert arity == _first_unkilled_count(spec)
    if holds is not None:
        assert (arity is None) == holds
    if declared is not None:
        # the family's own skew tables are the suspended operator brackets
        assert first_difference(declared, skew, MAX_ARITY) is None
    if through_cli:
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out):
            path = Path(tmp) / "skew.json"
            save_document(system_to_document(skew), path)
            code = main(["verify", str(path), "--max-arity", str(MAX_ARITY), "--json"])
        report = json.loads(out.getvalue())
        failed = [check["arity"] for check in report["arities"] if not check["ok"]]
        assert (code, report["pass"], failed[:1]) == (
            (0, True, []) if arity is None else (1, False, [arity])
        )


# the seed-1 mutants of the benchmark's mutants workload, and the same
# coefficients set to 0: (example, index, value) -> the arity at which both
# formulations first fail
_BUILTIN_MUTANTS = {
    ("example1", 4, -22): 4, ("example1", 4, 0): 4,
    ("example1", 5, 7): 5, ("example1", 5, 0): 5,
    ("example1", 6, 25): 6, ("example1", 6, 0): 6,
    ("example2", 2, 22): 3, ("example2", 2, 0): 3,
    ("example2", 3, 19): 4, ("example2", 3, 0): 4,
    ("example2", 4, -25): 5, ("example2", 4, 0): 5,
}


def test_both_formulations_of_a_builtin_mutant_fail_at_one_arity():
    """verify's first failing arity is |T| + |m| for delta-check's witness
    theta_T x^m: each formulation points at the same number of generators."""
    for (example, index, value), arity in _BUILTIN_MUTANTS.items():
        ex = (example1_system(c_values={index: value}) if example == "example1"
              else example2_system(b_values={index: value}))
        report = delta_squared_check(ex.delta_spec, 6)
        fermions, bosons = report.witness
        assert (_first_jacobi_failure(ex.skew_system, 6), len(fermions) + sum(bosons)) == \
            (arity, arity), (example, index, value)


def _first_failing_degree(spec, check=delta_squared_check):
    """Lowest degree bound at which ``check`` fails."""
    for degree in range(spec.coefficient_order):
        if not check(spec, degree).passed:
            return degree
    return None


def _first_residual_degree(spec):
    """Lowest even degree a nonzero residual coefficient acts on, if the
    degree scan reaches it."""
    degrees = [
        k + (key == "p-term")
        for group in nilpotency_conditions(spec).values()
        for key, series in group.items()
        for k, coeff in enumerate(series.coeffs)
        if coeff
    ]
    first = min(degrees, default=None)
    return first if first is not None and first < spec.coefficient_order else None


@settings(max_examples=40, deadline=None)
@given(st.one_of(_solved(), _second_family(), _constant_g(), _mutant()))
def test_first_failing_degree_is_the_first_nonzero_residual(drawn):
    spec, _, _ = drawn
    # the composed check, and the monomial scan it replaced
    assert _first_failing_degree(spec) == _first_residual_degree(spec)
    assert _first_failing_degree(spec, _orbit_scan) == _first_residual_degree(spec)


def _names(module):
    tree = ast.parse((Path(linfcheck.__file__).parent / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
            names.update((getattr(node, "module", None) or "").split("."))
    return names


def test_the_two_formulations_share_no_sign_code():
    """The operator check and the Jacobi check must not fail through one
    shared rule: the operator names none of the bracket side's sign and
    unshuffle functions, and the bracket side never imports the operator."""
    assert not _names("superspace") & {"sort_sign", "perm_sign", "koszul_sign", "unshuffles"}
    assert "superspace" not in _names("brackets")
