import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linfcheck.brackets import first_difference
from linfcheck.builtin import example1_system, example2_system
from linfcheck.errors import ConsistencyError, TruncationError
from linfcheck.grading import Element
from linfcheck.series import Series
from linfcheck.superspace import (
    DeltaSpec,
    DeltaSquaredReport,
    SuperMonomial,
    SuperPoly,
    apply_delta,
    brackets_from_delta,
    delta_squared_check,
    koszul_bracket,
    _theta_derivative,
    nilpotency_conditions,
)


@pytest.fixture(scope="module")
def ex1():
    return example1_system()


@pytest.fixture(scope="module")
def ex2():
    return example2_system()


def _one_boson_spec(f1=0, f2=0, g1=0, g2=0, h1=0, h2=0, order=8, **kw):
    def series(v):
        return v if isinstance(v, Series) else Series.constant(v, order)

    return DeltaSpec(
        n_bosons=1,
        f=(series(f1), series(f2)),
        g=((series(g1),), (series(g2),)),
        h=(series(h1), series(h2)),
        **kw,
    )


# -- the algebra itself ---------------------------------------------------------

def test_monomial_validation():
    with pytest.raises(ValueError):
        SuperMonomial((2, 1), (0,))
    with pytest.raises(ValueError):
        SuperMonomial((3,), (0,))
    with pytest.raises(ValueError):
        SuperMonomial((), (-1,))


def test_supercommutative_product():
    t1 = SuperPoly.theta(1, 1)
    t2 = SuperPoly.theta(2, 1)
    x = SuperPoly.boson(1, 1)
    assert t1 * t2 == -1 * (t2 * t1)
    assert (t1 * t1).is_zero()
    assert x * t1 == t1 * x
    assert (x * x).items().__len__() == 1
    m = dict((x * x * t2).items())
    assert m == {SuperMonomial((2,), (2,)): 1}
    # coefficients stay exact: a float never enters silently
    for make in (
        lambda: 0.5 * t1,
        lambda: t1 * 0.5,
        lambda: SuperPoly(1, {SuperMonomial((), (0,)): 0.25}),
    ):
        with pytest.raises(TypeError):
            make()


_SECTORS = ((), (1,), (2,), (1, 2))
_TWO_BOSON_MONOS = [
    SuperMonomial(f, (i, j)) for f in _SECTORS for i in range(3) for j in range(3)
]
_COEFFS = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-2, max_value=2, max_denominator=3)
)


def _two_boson_polys(parity=None):
    monos = [m for m in _TWO_BOSON_MONOS
             if parity is None or len(m.fermions) % 2 == parity]
    return st.dictionaries(st.sampled_from(monos), _COEFFS, max_size=4).map(
        lambda terms: SuperPoly(2, terms)
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_superpoly_arithmetic_laws(data):
    par_p, par_q = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
    p, q = data.draw(_two_boson_polys(par_p)), data.draw(_two_boson_polys(par_q))
    r = data.draw(_two_boson_polys())
    assert p * q == (-1) ** (par_p * par_q) * (q * p)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (q + r) * p == q * p + r * p
    assert (p - p).is_zero()
    for other in (SuperPoly.one(1), SuperPoly(3), Element("W")):
        with pytest.raises(ValueError):
            p + other
        with pytest.raises(ValueError):
            other + p


def test_left_theta_derivative_signs():
    ((mono, coeff),) = (SuperPoly.theta(1, 1) * SuperPoly.theta(2, 1)).items()
    assert (mono.fermions, coeff) == ((1, 2), 1)
    assert _theta_derivative(mono.fermions, 1) == (1, (2,))
    assert _theta_derivative(mono.fermions, 2) == (-1, (1,))
    assert _theta_derivative((), 1) is None


def test_three_theta_derivatives_annihilate_everything():
    # with two odd generators, any triple derivative kills every theta block
    for fermions in ((), (1,), (2,), (1, 2)):
        for order in product((1, 2), repeat=3):
            hit = (1, fermions)
            for alpha in order:
                hit = hit and _theta_derivative(hit[1], alpha)
            assert hit is None


# -- applying the operator -------------------------------------------------------

def test_apply_delta_on_unit():
    no_h = _one_boson_spec(f1=-1, g1=1, g2=1)
    assert apply_delta(no_h, SuperPoly.one(1)).is_zero()
    with_h = _one_boson_spec(h1=Fraction(2), h2=-3)
    image = apply_delta(with_h, SuperPoly.one(1))
    expected = 2 * SuperPoly.theta(1, 1) + (-3) * SuperPoly.theta(2, 1)
    assert image == expected


def test_apply_delta_example1_theta1(ex1):
    spec = ex1.delta_spec
    assert apply_delta(spec, SuperPoly.theta(1, 1)) == SuperPoly.boson(1, 1)


def test_apply_delta_is_linear(ex1):
    spec = ex1.delta_spec
    rng = random.Random(7)
    monos = [
        SuperMonomial(f, (m,))
        for f in ((), (1,), (2,), (1, 2))
        for m in range(4)
    ]
    for _ in range(10):
        p = SuperPoly(1, {m: rng.randint(-3, 3) for m in rng.sample(monos, 5)})
        q = SuperPoly(1, {m: rng.randint(-3, 3) for m in rng.sample(monos, 5)})
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        left = apply_delta(spec, a * p + b * q)
        right = a * apply_delta(spec, p) + b * apply_delta(spec, q)
        assert left == right


def test_apply_delta_truncation_guard():
    spec = _one_boson_spec(g1=1, g2=1, order=3)
    too_deep = SuperPoly.basis(SuperMonomial((1,), (4,)))
    with pytest.raises(TruncationError):
        apply_delta(spec, too_deep)


def test_selection_rule_forces_h_to_vanish():
    with pytest.raises(ValueError):
        _one_boson_spec(h1=1, selection_rule=True)


# -- brackets out of the operator -----------------------------------------------

def test_koszul_bracket_base_cases(ex1):
    spec = ex1.delta_spec
    assert koszul_bracket(spec, ()).is_zero()  # h == 0
    with_h = _one_boson_spec(h1=Fraction(1, 2))
    value = koszul_bracket(with_h, ())
    assert value == Fraction(1, 2) * Element.basis(
        with_h.space.generator("theta1")
    )


def test_koszul_bracket_example1_values(ex1):
    spec = ex1.delta_spec
    t1, t2, x = (spec.space.generator(n) for n in ("theta1", "theta2", "x1"))
    from linfcheck.grading import Element

    assert koszul_bracket(spec, (t1, t2)) == Element.basis(t1)
    assert koszul_bracket(spec, (t2, x)).is_zero()
    assert koszul_bracket(spec, (t2, x, x)) == Element.basis(x, -1)
    assert koszul_bracket(spec, (t1,)) == Element.basis(x)


def test_brackets_from_delta_matches_shifted_tables(ex1, ex2):
    rebuilt1 = brackets_from_delta(ex1.delta_spec, 8)
    assert first_difference(ex1.symmetric_system, rebuilt1, 8) is None
    rebuilt2 = brackets_from_delta(ex2.delta_spec, 6)
    assert first_difference(ex2.symmetric_system, rebuilt2, 6) is None


def test_brackets_from_delta_zero_spec_is_zero():
    spec = _one_boson_spec()
    system = brackets_from_delta(spec, 4)
    assert system.entry_count() == 0


def test_bracket_outputs_satisfy_the_parity_rule(ex1, ex2):
    for system in (brackets_from_delta(ex1.delta_spec, 4),
                   brackets_from_delta(ex2.delta_spec, 4)):
        for n, table in system.tables.items():
            for key, value in table.items():
                parity = (1 + sum(v.degree for v in key)) % 2
                for vector, _ in value.items():
                    assert vector.parity == parity


def test_rebuilt_systems_follow_the_symmetric_sign_rule(ex1, ex2):
    from itertools import permutations

    from linfcheck.brackets import canonical_tuples
    from linfcheck.grading import koszul_sign

    for spec in (ex1.delta_spec, ex2.delta_spec):
        system = brackets_from_delta(spec, 4)
        for arity in (2, 3, 4):
            for tup in canonical_tuples(system.space, system.symmetry, arity):
                base = system.evaluate(tup)
                degrees = tuple(v.degree for v in tup)
                for sigma in permutations(range(1, arity + 1)):
                    shuffled = tuple(tup[k - 1] for k in sigma)
                    sign = koszul_sign(sigma, degrees)
                    assert system.evaluate(shuffled) == sign * base


# -- nilpotency -------------------------------------------------------------------

def test_delta_squared_example1(ex1):
    report = delta_squared_check(ex1.delta_spec, 12)
    assert report.passed
    assert report.monomials_checked == 4 * 13


def test_delta_squared_catches_a_mutated_coefficient():
    mutated = example1_system(c_values={4: 1})
    report = delta_squared_check(mutated.delta_spec, 4)
    assert not report.passed
    assert report.witness is not None
    assert report.witness.fermions == (1, 2)
    assert not report.residue.is_zero()


def test_delta_squared_constant_g_identity_passes():
    spec = _one_boson_spec(g1=1, g2=1)
    assert delta_squared_check(spec, 6).passed


def _delta_squared_oracle(spec, degree_bound):
    """The double loop over ``delta_monomial`` that composed the operator
    with itself before ``delta_squared_check`` went through ``apply_delta``;
    each image comes from a fresh copy of the spec, so no cache is read."""

    def image(mono):
        return replace(spec).delta_monomial(mono)

    checked = 0
    for fermions in _SECTORS:
        for bosons in product(range(degree_bound + 1), repeat=spec.n_bosons):
            if sum(bosons) > degree_bound:
                continue
            mono = SuperMonomial(fermions, bosons)
            acc = {}
            for mid, c1 in image(mono).items():
                for final, c2 in image(mid).items():
                    acc[final] = acc.get(final, 0) + c1 * c2
            checked += 1
            residue = {m: c for m, c in acc.items() if c}
            if residue:
                return DeltaSquaredReport(
                    False, checked, mono, SuperPoly(spec.n_bosons, residue)
                )
    return DeltaSquaredReport(True, checked, None, None)


@st.composite
def _small_specs(draw):
    n_bosons = draw(st.integers(1, 2))
    order = 4

    def series():
        return Series.from_coeffs(draw(st.lists(st.integers(-2, 2),
                                                min_size=order + 1,
                                                max_size=order + 1)))

    zero = Series.zero(order)
    return DeltaSpec(
        n_bosons=n_bosons,
        f=(series(), series()),
        g=tuple(tuple(series() for _ in range(n_bosons)) for _ in (1, 2)),
        h=(series(), series()) if draw(st.booleans()) else (zero, zero),
        momentum_shift=draw(st.booleans()),
    )


@settings(max_examples=60, deadline=None)
@given(_small_specs(), st.integers(0, 3))
def test_delta_squared_check_matches_the_double_loop(spec, degree_bound):
    expected = _delta_squared_oracle(spec, degree_bound)
    assert delta_squared_check(spec, degree_bound) == expected
    assert delta_squared_check(spec, degree_bound) == expected  # warm cache


def test_operator_image_cache_is_per_spec():
    intact = example2_system().delta_spec
    mutant = example2_system(b_values={2: 1}).delta_spec
    for _ in range(2):
        assert delta_squared_check(intact, 4).passed
        assert not delta_squared_check(mutant, 4).passed
    fresh = example2_system().delta_spec
    for fermions in _SECTORS:
        for bosons in ((0, 0, 0), (1, 0, 2), (0, 3, 1), (2, 1, 1)):
            mono = SuperMonomial(fermions, bosons)
            assert intact.delta_monomial(mono) is intact.delta_monomial(mono)
            assert intact.delta_monomial(mono) == fresh.delta_monomial(mono)


def test_delta_squared_truncation_guard(ex1):
    with pytest.raises(TruncationError):
        delta_squared_check(ex1.delta_spec, ex1.delta_spec.coefficient_order)


def test_nilpotency_conditions_example1(ex1):
    report = nilpotency_conditions(ex1.delta_spec)
    assert report.all_zero
    closure = report.closure["i=1"]
    assert closure.order >= 32 and closure.is_zero()
    # with h == 0 the last two condition groups vanish identically
    assert all(s.is_zero() for s in report.h_transport.values())
    assert all(s.is_zero() for s in report.h_pairing.values())


def test_nilpotency_conditions_example2_reduce_to_the_ode(ex2):
    report = nilpotency_conditions(ex2.delta_spec)
    assert report.all_zero
    # replacing the series solution by something else leaves exactly the
    # ODE residual G'(G + p) - G in the first condition group
    order = 10
    g_bad = Series.one(order) + Series.x(order)  # G = 1 + p
    zero = Series.zero(order)
    spec = DeltaSpec(
        n_bosons=3,
        f=(zero, zero),
        g=tuple(
            tuple(g_bad if i == a else zero for i in (1, 2, 3)) for a in (1, 2)
        ),
        h=(zero, zero),
        momentum_shift=True,
        selection_rule=True,
    )
    report = nilpotency_conditions(spec)
    p = Series.x(order)
    ode_residual = g_bad.derivative() * (g_bad + p) - g_bad
    assert report.closure["i=1"] == ode_residual
    assert report.closure["i=2"] == -1 * ode_residual
    assert report.closure["i=3"].is_zero()
    assert not report.all_zero


def test_equivalence_of_monomial_scan_and_series_residuals():
    # the scan and the residuals agree on specs that pass and specs that fail
    good = example1_system().delta_spec
    assert delta_squared_check(good, 8).passed
    assert nilpotency_conditions(good).all_zero
    rng = random.Random(99)
    seen_failure = 0
    for _ in range(5):
        order = 9
        g1 = Series((Fraction(rng.choice([1, 2, -1])),) + tuple(
            Fraction(rng.randint(-3, 3)) for _ in range(order)
        ))
        g2 = Series(tuple(Fraction(rng.randint(-3, 3)) for _ in range(order + 1)))
        f1 = Series(tuple(Fraction(rng.randint(-2, 2)) for _ in range(order + 1)))
        spec = _one_boson_spec(f1=f1, g1=g1, g2=g2, order=order)
        scan = delta_squared_check(spec, 6)
        residuals = nilpotency_conditions(spec)
        truncated_zero = all(
            series.truncate(min(7, series.order)).is_zero()
            for _, group in residuals.groups()
            for series in group.values()
        )
        assert scan.passed == truncated_zero
        seen_failure += not scan.passed
    assert seen_failure  # the random data is not secretly nilpotent
    # the bundled mutations flip both checks as well
    for mutated in (
        example1_system(c_values={4: 1}),
        example2_system(b_values={2: 1}),
    ):
        assert not delta_squared_check(mutated.delta_spec, 6).passed
        assert not nilpotency_conditions(mutated.delta_spec).all_zero


def test_bracket_values_are_always_generator_linear():
    # for operators of this shape the nested commutators cancel every
    # higher-degree term; check a spec with all three pieces active
    spec = _one_boson_spec(
        f1=Series.from_coeffs([1, 2, 0, 1, 0, 0, 0, 0, 0]),
        g1=Series.from_coeffs([1, 1, 1, 0, 0, 0, 0, 0, 0]),
        g2=Series.from_coeffs([2, 0, 1, 1, 0, 0, 0, 0, 0]),
        h1=Series.from_coeffs([0, 1, 0, 1, 0, 0, 0, 0, 0]),
    )
    gens = spec.space.generators
    from itertools import combinations_with_replacement

    for n in range(0, 5):
        for tup in combinations_with_replacement(gens, n):
            if any(a == b and a.parity for a, b in zip(tup, tup[1:])):
                continue
            koszul_bracket(spec, tup)  # must not raise


def test_linear_element_rejects_higher_terms(ex1):
    from linfcheck.superspace import linear_element

    spec = ex1.delta_spec
    quadratic = SuperPoly.basis(SuperMonomial((), (2,)))
    with pytest.raises(ConsistencyError):
        linear_element(spec, quadratic)
    pair = SuperPoly.basis(SuperMonomial((1, 2), (0,)))
    with pytest.raises(ConsistencyError):
        linear_element(spec, pair)
    assert linear_element(spec, SuperPoly.theta(2, 1)) == Element.basis(
        spec.space.generator("theta2")
    )
