from fractions import Fraction
from itertools import permutations, product
from math import comb

import pytest

from linfcheck.grading import (
    BasisVector,
    Element,
    GradedSpace,
    check_permutation,
    koszul_sign,
    perm_sign,
    unshuffles,
)


def _permute(seq, sigma):
    return tuple(seq[k - 1] for k in sigma)


def _compose(p, q):  # reorder by p, then by q
    return _permute(p, q)


def test_koszul_sign_identity():
    assert koszul_sign((1, 2, 3), (1, 1, 1)) == 1
    assert koszul_sign((1,), (7,)) == 1


def test_koszul_sign_swap():
    assert koszul_sign((2, 1), (1, 1)) == -1
    assert koszul_sign((2, 1), (0, 1)) == 1
    assert koszul_sign((2, 1), (0, 0)) == 1
    # only the parity of the degrees matters; negative degrees are fine
    assert koszul_sign((2, 1), (-1, -1)) == -1
    assert koszul_sign((2, 1), (-1, 2)) == 1


def test_koszul_sign_length_mismatch():
    with pytest.raises(ValueError):
        koszul_sign((1, 2), (1,))


def test_perm_sign_basics():
    assert perm_sign((1, 2, 3)) == 1
    assert perm_sign((2, 1)) == -1
    assert perm_sign((2, 3, 1)) == 1  # a 3-cycle is two transpositions


def test_bad_permutation_rejected():
    with pytest.raises(ValueError):
        check_permutation((1, 1, 2))
    with pytest.raises(ValueError):
        perm_sign((0, 1))


@pytest.mark.parametrize("n", range(1, 6))
def test_perm_sign_multiplicative(n):
    perms = [tuple(p) for p in permutations(range(1, n + 1))]
    signs = {p: perm_sign(p) for p in perms}
    for p in perms:
        for q in perms:
            assert signs[_compose(p, q)] == signs[p] * signs[q]


@pytest.mark.parametrize("n", range(1, 6))
def test_koszul_sign_multiplicative(n):
    # reordering by p then q equals reordering by the composite, with the
    # second factor evaluated at the already-permuted degrees
    perms = [tuple(p) for p in permutations(range(1, n + 1))]
    degree_tuples = list(product((0, 1), repeat=n))
    table = {
        (p, d): koszul_sign(p, d) for p in perms for d in degree_tuples
    }
    for p in perms:
        for q in perms:
            pq = _compose(p, q)
            for d in degree_tuples:
                assert table[(pq, d)] == table[(p, d)] * table[(q, _permute(d, p))]


def _unshuffles_brute(i, n):
    # independent route: filter all n! permutations by the two ascending runs
    out = []
    for p in permutations(range(1, n + 1)):
        if all(p[k] < p[k + 1] for k in range(i - 1)) and all(
            p[k] < p[k + 1] for k in range(i, n - 1)
        ):
            out.append(p)
    return out


def test_unshuffles_small_cases():
    assert unshuffles(1, 1) == [(1,)]
    assert len(unshuffles(2, 3)) == 3
    assert unshuffles(2, 3) == [(1, 2, 3), (1, 3, 2), (2, 3, 1)]


def test_unshuffles_against_brute_force():
    for n in range(0, 9):
        for i in range(0, n + 1):
            got = unshuffles(i, n)
            assert len(got) == comb(n, i)
            assert len(set(got)) == len(got)
            assert sorted(got) == got  # deterministic lexicographic order
            assert set(got) == set(_unshuffles_brute(i, n))


def test_unshuffles_rejects_bad_block():
    with pytest.raises(ValueError):
        unshuffles(4, 3)
    with pytest.raises(ValueError):
        unshuffles(-1, 3)


def test_basis_vector_parity():
    assert BasisVector("V", "v", 0).parity == 0
    assert BasisVector("V", "w", 1).parity == 1
    assert BasisVector("W", "theta", -1).parity == 1


def test_space_lookup_and_foreign_vector():
    a = BasisVector("V", "a", 0)
    b = BasisVector("V", "b", 1)
    space = GradedSpace("V", (a, b))
    assert space.index(b) == 1
    assert space.generator("a") == a
    with pytest.raises(ValueError):
        space.index(BasisVector("V", "c", 0))
    with pytest.raises(ValueError):
        GradedSpace("V", (a, BasisVector("U", "u", 0)))


def test_element_arithmetic_and_pruning():
    a = BasisVector("V", "a", 0)
    b = BasisVector("V", "b", 1)
    e = Element("V", {a: Fraction(1, 2), b: 2})
    f = Element("V", {a: Fraction(-1, 2)})
    assert (e + f).coefficient(a) == 0
    assert (e + f) == Element("V", {b: 2})
    assert (2 * f).coefficient(a) == -1
    assert (e - e).is_zero()
    assert Element("V", {a: 0}).is_zero()
    with pytest.raises(ValueError):
        Element("V", {BasisVector("U", "u", 0): 1})
    with pytest.raises(TypeError):
        0.5 * e
