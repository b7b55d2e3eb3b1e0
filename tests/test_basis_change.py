"""Changes of basis of the operator's algebra do not change `delta-check`'s verdict.

An automorphism phi of the algebra carries the operator D to
D' = phi D phi^-1, whose data are again a spec; D' squares to zero iff D
does.  Each rule below states phi and the spec of D', derived by
conjugating the three pieces

    D2 = 1/2 theta_c f^c(d/dx) eps_{ab} d/dtheta_b d/dtheta_a
    D1 = x_i g^i_a(d/dx) d/dtheta_a    (+ x_i p_i d/dtheta_a with the shift)
    D0 = theta_a h^a(d/dx)

where every series is a series in the total momentum P = p_1 + ... + p_N,
p_i = d/dx_i.  The tests check the rule itself, D'(phi m) = phi(D m) on
monomials, then that the verdict of ``delta_squared_check`` and which
residuals of ``nilpotency_conditions`` vanish are the same for D and D'.
The seeded mutants keep failing.  The brackets ``compare`` rebuilds from D
transform by the same rules (see ``_assert_brackets_are_natural``).  Nothing
here detects symmetries of a spec: these tests are the independent check of
any code that does.
"""

from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linfcheck.brackets import SYMMETRIC, canonical_tuples
from linfcheck.grading import Element
from linfcheck.series import Series
from linfcheck.superspace import (
    SuperMonomial,
    SuperPoly,
    brackets_from_delta,
    delta_squared_check,
    nilpotency_conditions,
)
from structures import SECTORS, STRUCTURES, apply_delta, build, operator_specs

# theta1 <-> theta2 on each theta block: phi(theta1 theta2) = theta2 theta1 = -theta1 theta2
_SWAPPED = {(): (1, ()), (1,): (1, (2,)), (2,): (1, (1,)), (1, 2): (-1, (1, 2))}


def swap_thetas(spec):
    """phi swaps theta1 and theta2.  Conjugation sends theta_a to theta_s(a)
    and d/dtheta_a to d/dtheta_s(a), s the swap, so h -> (h2, h1) and g's
    rows swap.  In D2, eps_{s(a) s(b)} = -eps_{ab}, so f -> (-f2, -f1).  The
    shift flag stays as it is."""
    (f1, f2), (g1, g2), (h1, h2) = spec.f, spec.g, spec.h

    def phi(mono):
        sign, fermions = _SWAPPED[mono.fermions]
        return sign, SuperMonomial(fermions, mono.bosons)

    return spec._replace(f=(-f2, -f1), g=(g2, g1), h=(h2, h1)), phi


def permute_bosons(pi):
    """phi sends x_i to x_pi(i).  P and so every series is unchanged, and
    x_i g^i_a becomes x_pi(i) g^i_a: g's columns are permuted, the column of
    x_i moving to place pi(i).  The shift x_i p_i goes to x_pi(i) p_pi(i),
    so its flag stays as it is."""
    def rule(spec):
        inverse = [pi.index(j) for j in range(len(pi))]
        g = tuple(tuple(row[i] for i in inverse) for row in spec.g)

        def phi(mono):
            return 1, SuperMonomial(mono.fermions, tuple(mono.bosons[i] for i in inverse))

        return spec._replace(g=g), phi

    return rule


def rescale(lam):
    """phi sends every x_i to lam x_i, lam a nonzero rational, so p_i goes to
    p_i / lam and P^k to lam^-k P^k.  So f_k -> lam^-k f_k and h_k -> lam^-k h_k
    in D2 and D0, and D1's own factor x_i makes g_k -> lam^(1-k) g_k.  The
    shift x_i p_i is unchanged, so its flag stays as it is."""
    def scaled(series, power):
        return Series(tuple(c * lam ** (power - k) for k, c in enumerate(series.coeffs)))

    def rule(spec):
        def phi(mono):
            return lam ** sum(mono.bosons), mono

        return spec._replace(f=tuple(scaled(s, 0) for s in spec.f),
                             g=tuple(tuple(scaled(s, 1) for s in row) for row in spec.g),
                             h=tuple(scaled(s, 0) for s in spec.h)), phi

    return rule


def _rules(n_bosons):
    cycle = tuple(range(1, n_bosons)) + (0,)
    return {"swap": swap_thetas, "permute": permute_bosons(cycle),
            "rescale": rescale(Fraction(-2, 3))}


def _apply_phi(phi, poly):
    out = {}
    for mono, coeff in poly.items():
        factor, image = phi(mono)
        out[image] = out.get(image, 0) + factor * coeff
    return SuperPoly(poly.n_bosons, out)


def _zero_residuals(spec):
    """Per condition group, how many residuals vanish and how many do not;
    a change of basis may permute the labels or flip signs."""
    return {group: sorted(series.is_zero() for series in residuals.values())
            for group, residuals in nilpotency_conditions(spec).items()}


def _assert_same_verdicts(spec, transformed, degree):
    report = delta_squared_check(spec, degree)
    assert delta_squared_check(transformed, degree).passed == report.passed
    assert _zero_residuals(transformed) == _zero_residuals(spec)
    return report.passed


@settings(max_examples=40, deadline=None)
@given(operator_specs(3), st.sampled_from(("swap", "permute", "rescale")))
def test_each_rule_conjugates_the_operator(spec, name):
    transformed, phi = _rules(spec.n_bosons)[name](spec)
    for fermions in SECTORS:
        for bosons in product(range(3), repeat=spec.n_bosons):
            if sum(bosons) > 2:
                continue
            mono = SuperMonomial(fermions, bosons)
            image = _apply_phi(phi, SuperPoly.basis(mono))
            assert apply_delta(transformed, image) == _apply_phi(phi, spec.delta_monomial(mono))
    _assert_same_verdicts(spec, transformed, spec.coefficient_order - 1)


@pytest.mark.parametrize("name", ["swap", "permute", "rescale"])
@pytest.mark.parametrize("example, index, value", STRUCTURES)
def test_bundled_verdicts_survive_each_rule(example, index, value, name):
    spec = build(example, index, value).delta_spec
    transformed, _ = _rules(spec.n_bosons)[name](spec)
    assert transformed != spec or (name == "permute" and spec.n_bosons == 1)
    assert _assert_same_verdicts(spec, transformed, 6) == (index is None)


def _assert_brackets_are_natural(spec, rule, max_arity=4):
    """phi(l_n(z_1, .., z_n)) = l'_n(phi z_1, .., phi z_n), l the brackets of D
    and l' those of D' = phi D phi^-1, on the canonical tuples through
    ``max_arity``.

    phi is an algebra automorphism that keeps parity, so it carries the left
    multiplication L_z to phi L_z phi^-1 = L_(phi z), fixes 1, and carries
    [A, L_z] = A L_z - (-1)^(par A * par z) L_z A to [phi A phi^-1, L_(phi z)]
    with the same sign.  By induction on n the nested commutators of D applied
    to 1 go to those of D' on the images of the inputs.  Each rule sends a
    generator to a multiple of a generator: theta_a to theta_s(a) with factor
    1 under the swap, so a theta input brings no sign of its own, and x_i to
    lam x_i under the rescaling.  A sign on theta inputs comes only from the
    order: the image of a canonical tuple holding theta1 and theta2 lists
    theta2 first, and putting two odd inputs back in order costs -1 under the
    symmetric rule, which ``evaluate`` applies."""
    transformed, phi = rule(spec)
    vectors = {mono: vector for vector, mono in spec.generators.items()}
    images = {}  # generator -> (factor, generator)
    for vector, mono in spec.generators.items():
        factor, image = phi(mono)
        images[vector] = factor, vectors[image]
    system = brackets_from_delta(spec, max_arity)
    rebuilt = brackets_from_delta(transformed, max_arity)
    for n in range(max_arity + 1):
        for inputs in canonical_tuples(spec.space, SYMMETRIC, n):
            factor = prod(images[vector][0] for vector in inputs)
            moved = rebuilt.evaluate([images[vector][1] for vector in inputs])
            expected = {images[v][1]: images[v][0] * c for v, c in system.evaluate(inputs).items()}
            assert factor * moved == Element(spec.space.space_id, expected), inputs


@settings(max_examples=30, deadline=None)
@given(operator_specs(3, curved=False), st.sampled_from(("swap", "permute", "rescale")))
def test_rebuilt_brackets_transform_with_each_rule(spec, name):
    _assert_brackets_are_natural(spec, _rules(spec.n_bosons)[name])


@pytest.mark.parametrize("name", ["swap", "permute", "rescale"])
@pytest.mark.parametrize("example, index, value", STRUCTURES)
def test_bundled_brackets_transform_with_each_rule(example, index, value, name):
    spec = build(example, index, value).delta_spec
    _assert_brackets_are_natural(spec, _rules(spec.n_bosons)[name])
