import pickle
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linfcheck import grading
from linfcheck.brackets import (
    SKEW,
    BracketSystem,
    desuspend_system,
    first_difference,
    verify_jacobi,
)
from linfcheck.builtin import example1_system, example2_system
from linfcheck.document import document_to_system
from linfcheck.grading import (
    BasisVector,
    Element,
    GradedSpace,
    check_permutation,
    koszul_sign,
    perm_sign,
    unshuffles,
)
from linfcheck.superspace import SuperMonomial, SuperPoly, koszul_bracket


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


def test_unshuffle_heads_and_tails_are_combinations_in_order():
    # the Jacobi sum takes each unshuffle's head and tail from combinations
    # of its inputs, in this order
    for n in range(0, 11):
        for i in range(0, n + 1):
            sigmas = unshuffles(i, n)
            assert [sigma[:i] for sigma in sigmas] == list(combinations(range(1, n + 1), i))
            tails = list(combinations(range(1, n + 1), n - i))
            assert [sigma[i:] for sigma in sigmas] == tails[::-1]


def test_cached_signs_and_unshuffles_behave_like_fresh_ones():
    # the results come from caches: a caller's list must not reach them
    first = unshuffles(2, 3)
    first.clear()
    assert unshuffles(2, 3) == [(1, 2, 3), (1, 3, 2), (2, 3, 1)]
    assert perm_sign([2, 1]) == perm_sign((2, 1)) == -1
    assert koszul_sign([2, 1], [1, 1]) == koszul_sign((2, 1), (1, 1)) == -1
    # a list, before and after its tuple is cached, gives the tuple's sign
    assert perm_sign([3, 1, 2]) == perm_sign((3, 1, 2)) == perm_sign([3, 1, 2]) == 1
    assert koszul_sign((3, 1, 2), [1, 0, 1]) == koszul_sign([3, 1, 2], (1, 0, 1)) == -1
    for _ in range(2):  # a rejected argument is rejected every time
        with pytest.raises(ValueError):
            perm_sign((1, 1))
        with pytest.raises(ValueError):
            koszul_sign((1, 2), (1,))
    # also when it shares a part with a valid call that is cached
    for _ in range(2):
        for sigma, degrees in (((2, 1), (1,)), ((2, 1), [1, 1, 1]), ([2, 2], (1, 1))):
            with pytest.raises(ValueError):
                koszul_sign(sigma, degrees)
        with pytest.raises(ValueError):
            perm_sign([2, 2])
    with pytest.raises(TypeError):
        perm_sign(None)


def test_sign_caches_stay_bounded():
    # one tuple per arity: every unshuffle of (w, ..., w) is a new sigma, and
    # arity 14 alone has 2^14 = 4 * 4,096 of them
    w = BasisVector("V", "w", 1)
    system = BracketSystem.from_entries(GradedSpace("V", [w]), SKEW, [], 14)
    assert verify_jacobi(system, 14).passed
    assert grading._SIGNS_KEPT == 4096
    for signs in (grading._perm_signs, grading._koszul_signs):
        assert 0 < len(signs) <= 4096


def test_unshuffles_rejects_bad_block():
    with pytest.raises(ValueError):
        unshuffles(4, 3)
    with pytest.raises(ValueError):
        unshuffles(-1, 3)


def test_basis_vector_parity():
    assert BasisVector("V", "v", 0).parity == 0
    assert BasisVector("V", "w", 1).parity == 1
    assert BasisVector("W", "theta", -1).parity == 1


def test_basis_vector_pickles_from_its_fields():
    v = BasisVector("V", "v1", 0)
    payload = pickle.dumps(v)
    assert b"_hash" not in payload  # the cached hash is not carried along
    assert pickle.loads(payload) == v and hash(pickle.loads(payload)) == hash(v)


def test_space_lookup_and_foreign_vector():
    a = BasisVector("V", "a", 0)
    b = BasisVector("V", "b", 1)
    space = GradedSpace("V", (a, b))
    assert space.indices([b, a]) == (1, 0)
    assert space.generator("a") == a
    with pytest.raises(ValueError):
        space.indices([BasisVector("V", "c", 0)])
    with pytest.raises(ValueError):
        GradedSpace("V", (a, BasisVector("U", "u", 0)))


def test_element_arithmetic_and_pruning():
    a = BasisVector("V", "a", 0)
    b = BasisVector("V", "b", 1)
    e = Element("V", {a: Fraction(1, 2), b: 2})
    f = Element("V", {a: Fraction(-1, 2)})
    assert a not in dict((e + f).items())
    assert (e + f) == Element("V", {b: 2})
    assert dict((2 * f).items())[a] == -1
    assert (e - e).is_zero()
    assert Element("V", {a: 0}).is_zero()
    with pytest.raises(ValueError):
        Element("V", {BasisVector("U", "u", 0): 1})
    with pytest.raises(TypeError):
        0.5 * e


# -- the checked and the trusted constructor ---------------------------------------
#
# ``Element(...)`` checks every term; ``Element._from_exact`` trusts values built
# from checked parts and drops only zero coefficients.  Every operator goes
# through the trusted one, so each must give what the checked one gives.

_VECTORS = [BasisVector("V", name, degree) for name, degree in
            (("a", 0), ("b", 1), ("c", 0), ("d", 1))]
_EXACT = st.one_of(st.integers(-3, 3),
                   st.fractions(min_value=-2, max_value=2, max_denominator=3))
_TERMS = st.dictionaries(st.sampled_from(_VECTORS), _EXACT, max_size=4)


def _stored(element):
    """The stored terms, after checking that none of them is zero."""
    terms = dict(element.items())
    assert all(terms.values()), terms
    return terms


def _assert_operators_match_the_checked_constructor(kind, space_id, x, y, k):
    a, b = kind(space_id, x), kind(space_id, y)
    keys = x.keys() | y.keys()
    for got, terms in (
        (a + b, {key: x.get(key, 0) + y.get(key, 0) for key in keys}),
        (a - b, {key: x.get(key, 0) - y.get(key, 0) for key in keys}),
        (-a, {key: -c for key, c in x.items()}),
        (k * a, {key: k * c for key, c in x.items()}),
    ):
        assert type(got) is kind and got.space_id == space_id
        assert _stored(got) == _stored(kind(space_id, terms))


@settings(max_examples=100, deadline=None)
@given(_TERMS, _TERMS, _EXACT)
def test_every_constructor_and_operator_prunes_zeros_as_the_checked_one(x, y, k):
    checked = Element("V", x)
    assert _stored(checked) == {v: c for v, c in x.items() if c}
    assert _stored(Element._from_exact("V", dict(x))) == _stored(checked)
    _assert_operators_match_the_checked_constructor(Element, "V", x, y, k)


_SUPER_MONOS = [SuperMonomial(f, (i, j)) for f in ((), (1,), (2,), (1, 2))
                for i in range(2) for j in range(2)]
_SUPER_TERMS = st.dictionaries(st.sampled_from(_SUPER_MONOS), _EXACT, max_size=4)


@settings(max_examples=100, deadline=None)
@given(_SUPER_TERMS, _SUPER_TERMS, _EXACT)
def test_superpoly_operators_prune_zeros_as_the_checked_one(x, y, k):
    _assert_operators_match_the_checked_constructor(SuperPoly, 2, x, y, k)
    # the product against its terms' products, summed by the checked constructor
    p, q = SuperPoly(2, x), SuperPoly(2, y)
    terms = {}
    for ma, ca in x.items():
        for mb, cb in y.items():
            for mono, c in (SuperPoly.basis(ma, ca) * SuperPoly.basis(mb, cb)).items():
                terms[mono] = terms.get(mono, 0) + c
    assert _stored(p * q) == _stored(SuperPoly(2, terms))
    assert _stored(p * k) == _stored(k * p)


@settings(max_examples=100, deadline=None)
@given(_TERMS)
def test_from_exact_keeps_the_dict_unless_a_coefficient_is_zero(terms):
    passed = dict(terms)
    element = Element._from_exact("V", passed)
    assert passed == terms  # never changed
    if all(terms.values()):
        assert element._terms is passed
    else:
        assert element._terms is not passed
        assert element._terms == {v: c for v, c in terms.items() if c}


def test_arithmetic_on_checked_values_skips_the_checked_constructor(monkeypatch):
    e = Element("V", {_VECTORS[0]: 2, _VECTORS[1]: Fraction(1, 3)})
    f = Element("V", {_VECTORS[0]: -2})
    p = SuperPoly(2, {SuperMonomial((1,), (1, 0)): 3, SuperMonomial((), (0, 1)): -1})
    system = example1_system(max_arity=4).skew_system
    v1, v2, w = system.space.generators
    other = BracketSystem.from_entries(system.space, SKEW, [((v2,), Element("V", {w: 1}))], 4)
    delta = example2_system(order=6, max_arity=4).delta_spec
    inputs = tuple(delta.space.generators[:2])

    checked = Element.__init__

    def refuse(self, space_id, terms=None):
        # a new system's empty value is the one exception
        assert not terms, "the checked constructor ran on checked parts"
        checked(self, space_id)

    monkeypatch.setattr(Element, "__init__", refuse)
    for value in (e + f, e - f, -e, 3 * e, p * p, p + p, -p, koszul_bracket(delta, inputs)):
        _stored(value)
    assert _stored(system.evaluate((w, v1))) == {w: -1}
    assert first_difference(system, other, 4)[1] == (v1,)
    assert first_difference(other, system, 4)[1] == (v1,)
    desuspend_system(system)


def test_cancelling_output_terms_store_no_entry():
    doc = {
        "version": "1",
        "space": {"id": "V", "generators": [{"name": "u", "degree": 0},
                                            {"name": "v", "degree": 0},
                                            {"name": "w", "degree": 1}]},
        "symmetry": "skew",
        "max_arity": 2,
        "brackets": [
            {"inputs": ["v"], "output": [{"gen": "w", "coeff": "1/2"},
                                         {"gen": "w", "coeff": "-1/2"}]},
            {"inputs": ["v", "w"], "output": [{"gen": "w", "coeff": 3},
                                              {"gen": "w", "coeff": "-3"}]},
            {"inputs": ["u"], "output": [{"gen": "w", "coeff": "2"}]},
        ],
    }
    system, _ = document_to_system(doc)
    u, _, w = system.space.generators
    assert system.tables == {(u,): Element("V", {w: 2})}


def test_a_zeroed_builtin_coefficient_stores_no_entry():
    examples = example1_system(max_arity=6, c_values={4: 0})
    skew, symmetric = examples.skew_system, examples.symmetric_system
    arities = [[len(key) for key in system.tables] for system in (skew, symmetric)]
    assert 4 not in arities[0] and 4 not in arities[1]
    assert arities[0].count(5) == arities[1].count(5) == 1
    for system in (skew, symmetric):
        for output in system.tables.values():
            assert _stored(output)
