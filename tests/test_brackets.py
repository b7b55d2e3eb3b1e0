import json
import re
from fractions import Fraction
from itertools import permutations, product
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linfcheck.brackets import (
    SKEW,
    SYMMETRIC,
    ArityCheck,
    BracketSystem,
    JacobiReport,
    _split_sums,
    _vanishes,
    canonical_key,
    canonical_tuples,
    desuspend_system,
    desuspension_sign,
    first_difference,
    verify_jacobi,
)
from linfcheck.builtin import c1_closed, example1_system, example2_system
from linfcheck.document import (
    SCHEMA_VERSION,
    _coeff_from_json,
    _require,
    document_text,
    document_to_system,
    system_to_document,
)
from linfcheck.errors import DocumentError, TruncationError
from linfcheck.grading import (
    DEFAULT_MAX_ARITY,
    BasisVector,
    Element,
    GradedSpace,
    int_if_integral,
    koszul_sign,
    perm_sign,
    sort_sign,
    unshuffles,
)


@pytest.fixture(scope="module")
def ex1():
    return example1_system()


@pytest.fixture(scope="module")
def ex2():
    return example2_system()


def _gens(system, *names):
    return tuple(system.space.generator(n) for n in names)


def _summands(system, inputs):
    """``_split_sums`` as ``Element``s by inner arity, without the weights."""
    return {i: Element._from_exact(system.space.space_id, acc)
            for i, acc in enumerate(_split_sums(system, tuple(inputs)), 1)}


def _split_defect(system, inputs):
    """The defect on ``inputs`` and its weighted nonzero summands by inner arity."""
    n = len(inputs)
    parts = {i: (-1) ** (i * (n - i)) * summand
             for i, summand in _summands(system, inputs).items()
             if not summand.is_zero()}
    return sum(parts.values(), Element(system.space.space_id)), parts


# -- evaluation ---------------------------------------------------------------

def test_eval_example1_skew(ex1):
    V = ex1.skew_system
    v1, v2, w = _gens(V, "v1", "v2", "w")
    assert V.evaluate([v1, v2]) == Element.basis(v1)
    assert V.evaluate([v2, v1]) == -1 * Element.basis(v1)
    assert V.evaluate([v1]) == Element.basis(w)
    assert V.evaluate([v2, w, w]) == Element.basis(w)  # C_3 = 1
    assert V.evaluate([v2, w]).is_zero()
    # skew system vanishes on a repeated even generator
    assert V.evaluate([v1, v1]).is_zero()


def test_eval_example1_symmetric(ex1):
    W = ex1.symmetric_system
    t1, t2, x = _gens(W, "theta1", "theta2", "x1")
    assert W.evaluate([t1, t2]) == Element.basis(t1)
    # odd-odd swap carries the Koszul sign
    assert W.evaluate([t2, t1]) == -1 * Element.basis(t1)
    # repeated odd generator is forced to zero
    assert W.evaluate([t1, t1]).is_zero()
    assert W.evaluate([x, t1]) == W.evaluate([t1, x]) == Element.basis(x)


def test_eval_permutation_invariance(ex1, ex2):
    for system in (ex1.skew_system, ex1.symmetric_system, ex2.symmetric_system):
        for arity in (2, 3, 4):
            for tup in canonical_tuples(system.space, system.symmetry, arity):
                base = system.evaluate(tup)
                degrees = tuple(v.degree for v in tup)
                for sigma in permutations(range(1, arity + 1)):
                    shuffled = tuple(tup[k - 1] for k in sigma)
                    sign = koszul_sign(sigma, degrees)
                    if system.symmetry == SKEW:
                        sign *= perm_sign(sigma)
                    assert system.evaluate(shuffled) == sign * base


def test_eval_guards(ex1):
    V = ex1.skew_system
    v1 = V.space.generator("v1")
    with pytest.raises(TruncationError):
        V.evaluate([v1] * (V.max_arity + 1))
    with pytest.raises(ValueError):
        V.evaluate([BasisVector("V", "nope", 0)])
    bound = V.max_arity
    with pytest.raises(TruncationError, match=f"^n_max {bound + 1} exceeds the system's "
                                              f"bound {bound}$"):
        verify_jacobi(V, bound + 1)
    # the identities are stated on the skew side only
    W = ex1.symmetric_system
    with pytest.raises(ValueError, match="^Jacobi identities are stated for skew systems$"):
        verify_jacobi(W, 2)


def test_degree_rule_enforced_at_construction():
    a = BasisVector("V", "a", 0)
    b = BasisVector("V", "b", 1)
    space = GradedSpace("V", (a, b))
    # a binary skew bracket must land in degree (2 - 2) + 0 + 0 = 0
    with pytest.raises(ValueError):
        BracketSystem.from_entries(space, SKEW, [((a, a), Element.basis(b))])
    # storing on a key the symmetry kills is rejected unless zero
    with pytest.raises(ValueError):
        BracketSystem.from_entries(space, SKEW, [((a, a), Element.basis(a))])
    ok = BracketSystem.from_entries(space, SKEW, [((a, b), Element.basis(b))])
    assert ok.evaluate([b, a]) == -1 * Element.basis(b)


def test_output_terms_must_be_generators():
    """A vector with the space's id that is not one of its generators is
    rejected where the entry is checked, not when the Jacobi scan meets it."""
    a = BasisVector("V", "a", 0)
    b = BasisVector("V", "b", 1)
    ghost = BasisVector("V", "ghost", 1)
    with pytest.raises(ValueError, match="ghost is not a generator of space 'V'"):
        BracketSystem.from_entries(GradedSpace("V", (a, b)), SKEW, [((a,), Element.basis(ghost))])


def test_from_entries_messages():
    """Each check of an entry keeps its exact message; an entry with a term
    of the wrong degree and a term off the generators reports the degree."""
    a, b = BasisVector("V", "a", 0), BasisVector("V", "b", 1)
    ghost = BasisVector("V", "ghost", 1)
    space = GradedSpace("V", (a, b))
    cases = [
        ("both", [], "unknown symmetry 'both'"),
        (SKEW, [((a, b, b, b), Element.basis(b))], "entry arity 4 exceeds max_arity 3"),
        (SKEW, [((a,), Element.basis(BasisVector("W", "b", 1)))],
         "output element lives in the wrong space"),
        (SKEW, [((a, a), Element.basis(a))], "symmetry forces the bracket of (a, a) to vanish"),
        (SYMMETRIC, [((b, b), Element.basis(a))],
         "symmetry forces the bracket of (b, b) to vanish"),
        (SKEW, [((b, a), Element.basis(a))],
         "bracket of (b, a) must have degree 1, got a a term of degree 0"),
        (SKEW, [((a,), Element("V", {ghost: 1, a: 2}))],
         "bracket of (a,) must have degree 1, got a a term of degree 0"),
        (SYMMETRIC, [((a,), Element.basis(b)), ((b, a), Element.basis(ghost))],
         "bracket of (b, a) must have degree 2, got a ghost term of degree 1"),
        (SKEW, [((a,), Element("V", {b: 1, ghost: 1}))], "ghost is not a generator of space 'V'"),
        (SKEW, [((a, b), Element.basis(b)), ((b, a), Element.basis(b, 2))],
         "duplicate table entry for (a, b)"),
        (SKEW, [((a, b), Element("V", {})), ((b, a), Element.basis(b))],
         "duplicate table entry for (a, b)"),
        (SKEW, [((b, a), Element.basis(b)), ((a, b), Element("V", {}))],
         "duplicate table entry for (a, b)"),
    ]
    for symmetry, entries, message in cases:
        with pytest.raises(ValueError) as caught:
            BracketSystem.from_entries(space, symmetry, entries, max_arity=3)
        assert str(caught.value) == message


def test_entries_canonicalized_with_sign():
    a = BasisVector("V", "a", 0)
    b = BasisVector("V", "b", 1)
    space = GradedSpace("V", (a, b))
    # supply the entry in non-canonical order; evaluation must honor it
    system = BracketSystem.from_entries(space, SKEW, [((b, a), Element.basis(b))])
    assert system.evaluate([b, a]) == Element.basis(b)
    assert system.evaluate([a, b]) == -1 * Element.basis(b)


# -- the reordering sign against pair counting -----------------------------------
#
# Every bracket-side reordering sign comes from ``grading.sort_sign``, which
# sorts by adjacent swaps.  The oracle below counts pairs instead.

def _pair_sign(position, odd, skew):
    """The sign of sorting the index list ``position``, ``odd[k]`` the parity
    of index k: -1 for each inverted pair whose swap flips the sign, and 0
    when an input repeats and its swap with itself would flip it.  A swap of
    a, b flips the sign unless both are odd (skew), or exactly when both are
    odd (symmetric)."""
    sign = 1
    for k, a in enumerate(position):
        for b in position[k + 1:]:
            flips = bool(odd[a] and odd[b]) != skew
            if flips and a == b:
                return 0
            if flips and a > b:
                sign = -sign
    return sign


def _space(degrees):
    return GradedSpace("V", (BasisVector("V", f"e{k}", d) for k, d in enumerate(degrees)))


_DEGREES = st.lists(st.integers(-1, 2), min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(_DEGREES.flatmap(lambda degrees: st.tuples(
    st.just(degrees), st.lists(st.integers(0, len(degrees) - 1), max_size=7))),
    st.booleans())
def test_sort_sign_and_canonical_key_count_pairs(drawn, skew):
    degrees, position = drawn
    odd = [d % 2 for d in degrees]
    expected = _pair_sign(position, odd, skew)
    ordered = list(position)
    sign = sort_sign(ordered, odd, skew)
    assert ordered == sorted(position)
    if expected:  # sort_sign leaves the vanishing to its callers
        assert sign == expected
    space = _space(degrees)
    key, sign = canonical_key(space, SKEW if skew else SYMMETRIC,
                              [space.generators[k] for k in position])
    assert sign == expected
    assert key == (None if expected == 0 else tuple(space.generators[k] for k in ordered))


def _vanishes_oracle(position, odd, skew):
    """``_vanishes`` as written before its no-repeat test: a scan of the
    adjacent pairs."""
    return any(a == b and odd[a] != skew for a, b in zip(position, position[1:]))


@settings(max_examples=300, deadline=None)
@given(_DEGREES.flatmap(lambda degrees: st.tuples(
    st.just(degrees), st.lists(st.integers(0, len(degrees) - 1), max_size=9).map(sorted))))
def test_vanishes_matches_the_pair_scan(drawn):
    degrees, position = drawn
    odd = tuple(d % 2 for d in degrees)
    for skew in (True, False):
        expected = _vanishes_oracle(position, odd, skew)
        # canonical_key passes a list, canonical_tuples a tuple
        assert _vanishes(position, odd, skew) is expected
        assert _vanishes(tuple(position), odd, skew) is expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-1, 2), min_size=1, max_size=3), st.integers(0, 7), st.booleans())
def test_canonical_tuples_are_the_sorted_tuples_with_a_sign(degrees, arity, skew):
    odd = [d % 2 for d in degrees]
    space = _space(degrees)
    expected = [
        tuple(space.generators[k] for k in p)
        for p in product(range(len(degrees)), repeat=arity)
        if list(p) == sorted(p) and _pair_sign(p, odd, skew)
    ]
    assert list(canonical_tuples(space, SKEW if skew else SYMMETRIC, arity)) == expected


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 7).flatmap(lambda n: st.tuples(
    st.permutations(range(1, n + 1)), st.lists(st.integers(-2, 2), min_size=n, max_size=n))))
def test_perm_and_koszul_signs_count_pairs(drawn):
    sigma, degrees = drawn
    position = [s - 1 for s in sigma]
    odd = [d % 2 for d in degrees]
    assert perm_sign(sigma) == _pair_sign(position, [0] * len(sigma), skew=True)
    assert koszul_sign(sigma, degrees) == _pair_sign(position, odd, skew=False)
    # their product is the skew sign on inputs of these degrees
    assert perm_sign(sigma) * koszul_sign(sigma, degrees) == _pair_sign(position, odd, skew=True)


# -- Jacobi identities ---------------------------------------------------------

def test_defect_arity_one_is_l1_squared(ex1):
    # only the i = j = 1 split survives at arity 1
    V = ex1.skew_system
    v1, w = _gens(V, "v1", "w")
    assert V.evaluate([v1]) == Element.basis(w)
    assert _split_defect(V, (v1,))[0] == V.evaluate([w])
    assert _split_defect(V, (v1,))[0].is_zero()


def test_jacobi_example1_passes(ex1):
    report = verify_jacobi(ex1.skew_system, 8)
    assert report.passed
    assert [c.arity for c in report.checks] == list(range(1, 9))


def test_jacobi_example1_defect_zero_on_larger_tuples(ex1):
    V = ex1.skew_system
    v1, v2, w = _gens(V, "v1", "v2", "w")
    for n in range(3, 9):
        assert _split_defect(V, (v1, v2) + (w,) * (n - 2))[0].is_zero()
    # tuples skipped by the canonical enumeration are still identically zero
    assert _split_defect(V, (v1, v1, w))[0].is_zero()


def test_jacobi_mutated_c4_fails_at_the_documented_tuple():
    mutated = example1_system(c_values={4: 1})
    V = mutated.skew_system
    v1, v2, w = _gens(V, "v1", "v2", "w")
    defect = _split_defect(V, (v1, v2, w, w))[0]
    assert not defect.is_zero()
    report = verify_jacobi(V, 4)
    failure = next(check for check in report.checks if not check.ok)
    assert failure.arity == 4
    assert failure.counterexample == (v1, v2, w, w)


def test_jacobi_example2_passes(ex2):
    assert verify_jacobi(ex2.skew_system, 6).passed


def test_jacobi_zero_system_passes():
    a = BasisVector("V", "a", 0)
    b = BasisVector("V", "b", 1)
    space = GradedSpace("V", (a, b))
    zero_system = BracketSystem.from_entries(space, SKEW, [])
    assert verify_jacobi(zero_system, 5).passed


def test_summands_match_the_compact_per_split_values(ex1):
    # on (v1, v2, w, ..., w) the split-p aggregate of the unshuffle sum is
    #   p = 1:             -C_n w
    #   p = 2:        (n-2) C_(n-1) w
    #   p = n - 1:   (-1)^n C_(n-1) w
    # and every other split vanishes
    V = ex1.skew_system
    v1, v2, w = _gens(V, "v1", "v2", "w")
    for n in range(4, 9):
        inputs = (v1, v2) + (w,) * (n - 2)
        summands = _summands(V, inputs)
        assert summands[1] == -c1_closed(n) * Element.basis(w)
        assert summands[2] == (n - 2) * c1_closed(n - 1) * Element.basis(w)
        expected = (-1) ** n * c1_closed(n - 1) * Element.basis(w)
        assert summands[n - 1] == expected
        for p in range(3, n - 1):
            assert summands[p].is_zero()
        assert summands[n].is_zero()


# -- the pair scan against the tuple scan ---------------------------------------
#
# ``verify_jacobi`` walks canonical tuples through the unshuffle sum.  The
# oracle below sums the same defects over entry pairs instead: a term
# l_j(l_i(head), tail) is nonzero only when the head is the key ``a`` of an
# entry A, a generator g of A's output is an input of an entry B, and the
# tail is B's key ``b`` less that g (the Nijenhuis-Richardson composition
# l o l, written on the skew side).  The two share no sign code.

def _pair_defects(system, n_max):
    """``{n: {T: {k: coefficient}}}``: the Jacobi defects of arities
    1 .. n_max on the canonical tuples T = sorted(a + t) that some triple
    (A, g, B) reaches, all as generator indices.  Arity-0 entries take no
    part: the unshuffle sum starts at inner arity i = 1."""
    index = system.space.generators.index
    odd = [g.parity for g in system.space.generators]
    entries = [
        (tuple(index(v) for v in key), [(index(v), c) for v, c in output.items()])
        for key, output in system.tables.items() if 0 < len(key) <= n_max
    ]
    # by generator g: each entry B with g among its inputs, as (t, s_move,
    # output), where t is B's key less one g and s_move the sign of moving
    # g to the front of t
    outer = {}
    for b, output in entries:
        for g in set(b):
            k = b.index(g)
            s_move = (-1) ** sum(1 for y in b[:k] if not (odd[y] and odd[g]))
            outer.setdefault(g, []).append((b[:k] + b[k + 1:], s_move, output))
    defects = {n: {} for n in range(1, n_max + 1)}
    for a, inner in entries:
        for g, c in inner:
            for t, s_move, output in outer.get(g, ()):
                if len(a) + len(t) > n_max:
                    continue
                hit = _merge(a, t, odd)
                if hit is None:
                    continue
                T, factor = hit
                acc = defects[len(T)].setdefault(T, {})
                for k, d in output:
                    acc[k] = acc.get(k, 0) + factor * s_move * c * d
    return defects


def _merge(a, t, odd):
    """``(sorted(a + t), factor)`` for head ``a`` and tail ``t``, or None when
    the two share an even generator.  The factor is (-1)^(i(n-i)) times the
    unshuffle sign of moving ``a`` ahead of ``t``, times the number of ways
    to pick the head's positions among repeated odd generators."""
    i, n = len(a), len(a) + len(t)
    factor = -1 if (i * (n - i)) % 2 else 1
    for x in a:
        for y in t:
            if y == x and not odd[x]:
                return None
            if y < x and not (odd[x] and odd[y]):
                factor = -factor
    for v in set(a) & set(t):
        factor *= comb(a.count(v) + t.count(v), a.count(v))
    return tuple(sorted(a + t)), factor


def _verify_jacobi_by_pairs(system, n_max):
    """The report of ``verify_jacobi``, its failing tuples found by the pair
    sum; the first one's defect and summands come from the unshuffle sum."""
    defects = _pair_defects(system, n_max)
    generators = system.space.generators
    checks = []
    for n in range(1, n_max + 1):
        failing = [T for T, acc in defects[n].items() if any(acc.values())]
        first = tuple(generators[k] for k in min(failing)) if failing else None
        count = 0
        for tup in canonical_tuples(system.space, SKEW, n):
            count += 1
            if tup == first:
                break
        defect = summands = None
        if first is not None:
            defect, summands = _split_defect(system, first)
        checks.append(ArityCheck(n, count, first, defect, summands))
    return JacobiReport(tuple(checks))


def _assert_matches_oracle(system, n_max):
    report = verify_jacobi(system, n_max)
    assert report == _verify_jacobi_by_pairs(system, n_max)
    return report


def _assert_pair_defects_exact(system, n_max):
    """The pair-summed defect equals the unshuffle-sum defect on every
    canonical tuple."""
    defects = _pair_defects(system, n_max)
    space = system.space
    for n in range(1, n_max + 1):
        for tup in canonical_tuples(space, SKEW, n):
            summed = defects[n].get(space.indices(tup), {})
            value = Element(space.space_id, {space.generators[k]: c for k, c in summed.items()})
            assert value == _split_defect(system, tup)[0], tup


def _assert_evaluate_follows_canonical_key(system, n_max):
    """On every ordering of every canonical tuple, ``canonical_key`` gives
    the tuple and the pair-counted sign, and ``evaluate`` the stored entry on
    the tuple times that sign."""
    space, skew = system.space, system.symmetry == SKEW
    odd = [g.degree % 2 for g in space.generators]
    for n in range(n_max + 1):
        for tup in canonical_tuples(space, system.symmetry, n):
            entry = system.tables.get(tup)
            for order in set(permutations(tup)):
                sign = _pair_sign(space.indices(order), odd, skew)
                assert canonical_key(space, system.symmetry, order) == (tup, sign)
                expected = Element(space.space_id) if entry is None else sign * entry
                assert system.evaluate(order) == expected, order


_COEFFS = st.one_of(st.integers(-2, 2),
                    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))


@st.composite
def _random_skew_systems(draw, max_arity=5, grading=(0, 1, 0, 1, 2, -1), min_size=2):
    """Random tables on ``min_size`` to four generators with degrees drawn
    from ``grading``, by default -1 .. 2: odd generators repeat in the keys,
    and a degree-2 generator admits arity-0 entries."""
    degrees = draw(st.lists(st.sampled_from(grading), min_size=min_size, max_size=4))
    space = _space(degrees)
    entries = []
    for n in range(max_arity + 1):
        keys = list(canonical_tuples(space, SKEW, n))
        if not keys:
            continue
        for key in draw(st.lists(st.sampled_from(keys), unique=True, min_size=1, max_size=6)):
            target = 2 - n + sum(v.degree for v in key)
            outputs = [g for g in space.generators if g.degree == target]
            if outputs:
                chosen = draw(st.lists(st.sampled_from(outputs), unique=True, min_size=1))
                entries.append((key, Element("V", {g: draw(_COEFFS) for g in chosen})))
    return BracketSystem.from_entries(space, SKEW, entries, max_arity)


@st.composite
def _perturbed_examples(draw):
    """The bundled structures, whose defects cancel, with one coefficient
    replaced by a drawn (possibly Fraction) value."""
    if draw(st.booleans()):
        index = draw(st.integers(3, 5))
        return example1_system(max_arity=5, c_values={index: draw(_COEFFS)}).skew_system
    dim0 = draw(st.integers(1, 2))
    index = draw(st.integers(1, 4))
    return example2_system(dim0, draw(st.integers(dim0, 2)), n_bosons=2, order=4,
                           max_arity=5, b_values={index: draw(_COEFFS)}).skew_system


def _basis_change(system, lower):
    """l'_n(u_1 .. u_n) = A l_n(A^-1 u_1, ..., A^-1 u_n), built through
    ``from_entries``, for the integer unitriangular A = 1 + N inside each
    degree, ``lower`` mapping each (i, j), i > j, of N's support to its
    entry.  A linear L-infinity isomorphism: l' passes exactly where l does,
    on tables that no longer depend on the total momentum alone."""
    space = system.space
    generators = space.generators
    forward, inverse = {}, {}  # the columns of A and of its inverse
    for j, g in enumerate(generators):
        forward[g] = [(g, 1)] + [(generators[i], c) for (i, k), c in lower.items()
                                 if k == j and c]
        column = {j: 1}  # forward substitution: A x = e_j
        for i in range(j + 1, len(generators)):
            if x := -sum(lower.get((i, k), 0) * column.get(k, 0) for k in range(j, i)):
                column[i] = x
        inverse[g] = [(generators[i], c) for i, c in column.items()]
    entries = []
    for n in range(system.max_arity + 1):
        for key in canonical_tuples(space, SKEW, n):
            out = {}
            for choice in product(*map(inverse.__getitem__, key)):
                weight = prod(c for _, c in choice)
                for w, d in system.evaluate(tuple(v for v, _ in choice)).items():
                    for x, a in forward[w]:
                        out[x] = out.get(x, 0) + weight * d * a
            entries.append((key, Element(space.space_id, out)))
    return BracketSystem.from_entries(space, SKEW, entries, system.max_arity)


@st.composite
def _basis_changed_examples(draw):
    """example2 at dims (2, 2) or (3, 3) after a drawn unitriangular change of
    basis: passing tables of another shape than the examples'."""
    dim = draw(st.sampled_from((2, 3)))
    lower = {(i, j): draw(st.integers(-2, 2)) for block in (range(dim), range(dim, 2 * dim))
             for i in block for j in block if i > j}
    return _basis_change(example2_system(dim, dim, max_arity=5).skew_system, lower)


@settings(max_examples=100, deadline=None)
@given(st.one_of(_random_skew_systems(), _perturbed_examples(), _basis_changed_examples()))
def test_pair_scan_matches_the_tuple_scan_on_random_systems(system):
    _assert_evaluate_follows_canonical_key(system, 4)
    _assert_pair_defects_exact(system, 5)
    _assert_matches_oracle(system, 5)


@pytest.mark.parametrize("example, index, value", [
    # the seed-1 mutants of the benchmark's mutants workload
    ("example1", 4, -22), ("example1", 5, 7), ("example1", 6, 25),
    ("example2", 2, 22), ("example2", 3, 19), ("example2", 4, -25),
])
def test_pair_scan_matches_the_tuple_scan_on_mutants(example, index, value):
    if example == "example1":
        system = example1_system(c_values={index: value}).skew_system
    else:
        system = example2_system(b_values={index: value}).skew_system
    assert not _assert_matches_oracle(system, 6).passed


def test_a_basis_changed_example_passes_both_scans_and_a_mutant_fails_both():
    example = example2_system(3, 3, max_arity=6).skew_system
    lower = {(1, 0): 1, (2, 0): -2, (2, 1): 1, (4, 3): -1, (5, 3): 2, (5, 4): 1}
    system = _basis_change(example, lower)
    assert system != example
    assert _assert_matches_oracle(system, 6).passed
    # l'_1(v1) holds w1, so a change of l'_6(v2, w1, ..., w1) shows in the
    # defect of (v1, v2, w1, ..., w1)
    v1, v2, _, w1 = system.space.generators[:4]
    key = (v2,) + (w1,) * 5
    changed = system.tables[key] + Element("V", {w1: 1})
    entries = [(k, changed if k == key else value) for k, value in system.tables.items()]
    mutant = BracketSystem.from_entries(system.space, SKEW, entries, 6)
    report = _assert_matches_oracle(mutant, 6)
    assert [check.ok for check in report.checks] == [True] * 5 + [False]
    assert report.checks[-1].counterexample == (v1, v2) + (w1,) * 4


def test_pair_scan_matches_the_tuple_scan_on_example2_dims_4_4():
    system = example2_system(4, 4).skew_system
    _assert_pair_defects_exact(system, 5)
    assert _assert_matches_oracle(system, 5).passed


# -- the unshuffle sum against its first form -------------------------------------
#
# ``verify_jacobi`` takes each unshuffle's head and tail from the combinations
# of the tuple, in the unshuffles' order.  The oracles below are the scan
# before that: every head and tail rebuilt from the unshuffle, for every tuple.

def _jacobi_summands_oracle(system, inputs):
    inputs = tuple(inputs)
    n = len(inputs)
    degrees = tuple(v.degree for v in inputs)
    at = (None, *inputs).__getitem__  # sigma's images are 1-based
    evaluate = system.evaluate
    out = {}
    for i in range(1, n + 1):
        acc = {}  # coefficient of each output generator
        for sigma in unshuffles(i, n):
            sign = perm_sign(sigma) * koszul_sign(sigma, degrees)
            inner = evaluate(tuple(map(at, sigma[:i])))
            if inner.is_zero():
                continue
            tail = tuple(map(at, sigma[i:]))
            for vector, coeff in inner.items():
                coeff *= sign
                for w, d in evaluate((vector, *tail)).items():
                    acc[w] = acc.get(w, 0) + coeff * d
        out[i] = Element._from_exact(system.space.space_id, acc)
    return out


def _verify_jacobi_oracle(system, n_max):
    checks = []
    for n in range(1, n_max + 1):
        counterexample = defect = summands = None
        count = 0
        for tup in canonical_tuples(system.space, SKEW, n):
            count += 1
            parts = {i: (-1) ** (i * (n - i)) * summand
                     for i, summand in _jacobi_summands_oracle(system, tup).items()
                     if not summand.is_zero()}
            value = sum(parts.values(), Element(system.space.space_id))
            if not value.is_zero():
                counterexample, defect, summands = tup, value, parts
                break
        checks.append(ArityCheck(n, count, counterexample, defect, summands))
    return JacobiReport(tuple(checks))


def _assert_summands_match_oracle(system, n_max):
    """The one summation path, ``_split_sums``, gives the oracle's summands
    on every canonical tuple."""
    for n in range(1, n_max + 1):
        for tup in canonical_tuples(system.space, SKEW, n):
            assert _summands(system, tup) == _jacobi_summands_oracle(system, tup), tup


@settings(max_examples=100, deadline=None)
@given(st.one_of(_random_skew_systems(), _perturbed_examples(), _basis_changed_examples()))
def test_summands_and_reports_match_the_rebuilding_oracle(system):
    _assert_summands_match_oracle(system, 5)
    assert verify_jacobi(system, 5) == _verify_jacobi_oracle(system, 5)


def test_mutants_give_the_oracles_counterexamples():
    """Seeded mutants: the report, counterexample summands included, is the
    oracle's, and some counterexamples come after the first tuple of their
    arity, so the scan reached them past tuples that passed."""
    late = 0
    for system in (
        *(example1_system(c_values={k: v}).skew_system
          for k, v in ((4, -22), (5, 7), (6, 25), (4, 0), (5, 0), (6, 0))),
        *(example2_system(b_values={k: v}).skew_system
          for k, v in ((2, 22), (3, 19), (4, -25), (2, 0), (3, 0), (4, 0))),
    ):
        report = verify_jacobi(system, 6)
        assert not report.passed
        assert report == _verify_jacobi_oracle(system, 6)
        failure = next(check for check in report.checks if not check.ok)
        assert failure.summands and sum(failure.summands.values(), Element("V")) == failure.defect
        late += failure.inputs_checked > 1
    assert late


def test_a_tuple_passes_on_the_weighted_sum_of_its_summands(ex2):
    """The defect is the weighted sum over the splits i: on example2 some
    passing tuples have nonzero summands that cancel, so a check that wanted
    every split to vanish would fail there."""
    system = ex2.skew_system
    assert verify_jacobi(system, 6).passed
    cancelling = []
    for n in range(1, 7):
        for tup in canonical_tuples(system.space, SKEW, n):
            value, parts = _split_defect(system, tup)
            assert value.is_zero()
            if parts:
                cancelling.append(tup)
    v1, v2, w1, w2 = _gens(ex2.skew_system, "v1", "v2", "w1", "w2")
    assert cancelling[0] == (v1, v2, w1)
    difference = Element.basis(w1) - Element.basis(w2)
    assert _split_defect(system, (v1, v2, w1))[1] == {1: difference, 2: -difference}


@pytest.mark.parametrize("bound", [0, -3, True, False, 2.0, "3", None])
def test_verify_jacobi_rejects_a_bound_that_checks_nothing(ex1, bound):
    # a bound below 1 checks nothing, and a bool or a float is no arity
    with pytest.raises(ValueError, match=r"^arity bound must be an int >= 1 \(a bound below "
                                         r"1 checks nothing\), got "):
        verify_jacobi(ex1.skew_system, bound)


def test_verify_jacobi_rejects_a_space_with_no_generators():
    # no tuple at any arity: a PASS would check nothing
    system = BracketSystem.from_entries(GradedSpace("V", []), SKEW, [], 4)
    with pytest.raises(ValueError, match=r"^space needs at least one generator \(a space with "
                                         r"none checks nothing\), got GradedSpace\('V', \[\]\)$"):
        verify_jacobi(system, 4)


# -- evaluate's value table ------------------------------------------------------
#
# ``evaluate`` works each input tuple out once per system.  The oracle below is
# its body before that table: the index map, the sorted lookup and the sign.

def _evaluate_oracle(system, inputs):
    inputs = tuple(inputs)
    if len(inputs) > system.max_arity:
        raise TruncationError(
            f"arity {len(inputs)} exceeds the system's bound {system.max_arity}")
    by_index = {system.space.indices(key): entry for key, entry in system.tables.items()}
    position = system.space.indices(inputs)
    entry = by_index.get(tuple(sorted(position)))
    if entry is None:
        return Element(system.space.space_id)
    sign = sort_sign(list(position), system.space.parities, system.symmetry == SKEW)
    return entry if sign == 1 else -entry


@st.composite
def _systems_and_calls(draw):
    """A random or perturbed skew system, or its desuspension, and a list of
    input sequences holding each drawn sequence twice, in random order."""
    system = draw(st.one_of(_random_skew_systems(), _perturbed_examples()))
    if {g.degree for g in system.space.generators} <= {0, 1} and draw(st.booleans()):
        system = desuspend_system(system)
    generators = st.sampled_from(system.space.generators)
    ghost = BasisVector(system.space.space_id, "ghost", 0)
    stored = list(system.tables)
    kinds = [
        # repeats and every arity up to the bound
        st.lists(generators, max_size=system.max_arity),
        # a non-generator somewhere among generators
        st.tuples(st.lists(generators, max_size=3), st.integers(0, 3)).map(
            lambda drawn: (*drawn[0][:drawn[1]], ghost, *drawn[0][drawn[1]:])),
        # over the arity bound
        st.lists(generators, min_size=system.max_arity + 1, max_size=system.max_arity + 2),
    ]
    groups = [st.lists(kind, max_size=4) for kind in kinds]
    if stored:  # several reorderings of one stored key
        groups.append(st.sampled_from(stored).flatmap(
            lambda key: st.lists(st.permutations(key), max_size=4)))
    calls = [inputs for group in groups for inputs in draw(group)]
    return system, draw(st.permutations(calls + calls))


@settings(max_examples=100, deadline=None)
@given(_systems_and_calls())
def test_evaluate_matches_the_oracle_in_any_order(drawn):
    system, calls = drawn
    answers = {}
    for inputs in calls:
        try:
            expected = _evaluate_oracle(system, inputs)
        except (TruncationError, ValueError) as exc:
            before = dict(system._values)
            with pytest.raises(type(exc), match="^" + re.escape(str(exc)) + "$"):
                system.evaluate(inputs)
            assert system._values == before
            continue
        value = system.evaluate(inputs)
        assert value == expected, inputs
        # a repeat gets the very object the first call returned
        assert answers.setdefault(tuple(inputs), value) is value
    if system.symmetry == SKEW:  # a warm table gives the report a fresh system gives
        fresh = BracketSystem(system.space, system.symmetry, system.max_arity, system.tables)
        assert verify_jacobi(system, 4) == verify_jacobi(fresh, 4)


def test_verify_jacobi_twice_gives_a_fresh_systems_report():
    for make in (lambda: example1_system(c_values={4: 1}).skew_system,
                 lambda: example2_system().skew_system):
        system = make()
        first = verify_jacobi(system, 6)
        assert verify_jacobi(system, 6) == first == verify_jacobi(make(), 6)


# -- degree shift ---------------------------------------------------------------

def test_desuspension_sign_values():
    # one odd input, n - 1 even inputs
    assert desuspension_sign((-1,)) == 1
    assert desuspension_sign((-1, -1)) == 1
    assert desuspension_sign((-1, 0, 0)) == -1  # n = 3: (-1)^3 * (-1)^2
    for n in range(1, 12):
        degrees = (-1,) + (0,) * (n - 1)
        expected = (-1) ** (n * (n - 1) // 2) * (-1) ** (n - 1)
        assert desuspension_sign(degrees) == expected


def test_desuspended_tables_match_published_values(ex1, ex2):
    W = ex1.symmetric_system
    t1, t2, x = _gens(W, "theta1", "theta2", "x1")
    assert W.evaluate([t1]) == W.evaluate([t2]) == Element.basis(x)
    assert W.evaluate([t1, t2]) == Element.basis(t1)
    for n in range(3, 11):
        sign = -1 if n % 2 else 1
        from math import factorial

        expected = Element.basis(x, Fraction(sign * factorial(n - 3)))
        assert W.evaluate([t2] + [x] * (n - 1)) == expected

    W2 = ex2.symmetric_system
    th = W2.space.generator("theta1")
    xs = [W2.space.generator(f"x{i}") for i in (1, 2, 3)]
    assert W2.evaluate([th, xs[1]]) == Element.basis(xs[0]) + Element.basis(xs[1])
    for n in range(3, 11):
        tail = [xs[(k % 3)] for k in range(n - 1)]
        expected = Element.basis(xs[0], Fraction((2 - n) ** (n - 2)))
        assert W2.evaluate([th] + tail) == expected


def _by_position(system):
    """A system with its generators replaced by their positions: the degrees,
    and each table entry keyed by index tuple with coefficients by index."""
    index = system.space.generators.index
    tables = {tuple(map(index, key)): {index(v): c for v, c in output.items()}
              for key, output in system.tables.items()}
    return [g.degree for g in system.space.generators], system.symmetry, tables


def _assert_round_trip(system):
    """Raising the lowered system gives the system back up to generator
    names, and lowering it again gives exactly the first lowered system."""
    lowered = desuspend_system(system)
    raised = _shift_oracle(lowered)
    assert _by_position(raised) == _by_position(system)
    assert desuspend_system(raised) == lowered


def test_round_trip_through_the_shift(ex1, ex2):
    for system in (ex1.skew_system, ex2.skew_system):
        _assert_round_trip(system)
    # and the symmetric side round-trips too
    lowered = ex1.symmetric_system
    raised = _shift_oracle(lowered)
    assert desuspend_system(raised) == lowered


@settings(max_examples=100, deadline=None)
@given(_random_skew_systems(grading=(0, 1), min_size=1))
def test_round_trip_through_the_shift_on_random_systems(system):
    _assert_round_trip(system)


def _assert_document_round_trip(system):
    """The written document has one line per bracket entry and reads back as
    the system, with no operator; so does the same document in json's
    indent=2 layout, in which documents were once written."""
    doc = system_to_document(system)
    text = document_text(doc)
    entries = [f"    {json.dumps(entry)}" for entry in doc["brackets"]]
    assert text.splitlines()[9:-2] == [f"{line}," for line in entries[:-1]] + entries[-1:]
    for text in (text, json.dumps(doc, indent=2)):
        read, delta = document_to_system(json.loads(text))
        assert (read, read.max_arity, delta) == (system, system.max_arity, None)
        assert _typed_tables(read) == _typed_tables(system)


@settings(max_examples=100, deadline=None)
@given(st.one_of(_random_skew_systems(), _random_skew_systems(grading=(0, 1), min_size=1)))
def test_documents_round_trip_on_random_systems(system):
    _assert_document_round_trip(system)
    if {g.degree for g in system.space.generators} <= {0, 1}:
        _assert_document_round_trip(desuspend_system(system))


def _shift_oracle(system):
    """The degree shift as it was written before the tables were mapped
    directly: shifted entries, checked again by ``from_entries``.  The
    symmetry sets the direction: skew down to "W", as ``desuspend_system``
    goes, and symmetric up to "V", the tests' one route back to the skew side."""
    down = system.symmetry == SKEW
    prefixes = {0: "theta", 1: "x"} if down else {-1: "v", 0: "w"}
    target_id, shift = ("W", -1) if down else ("V", 1)
    mapping = {}
    for g in system.space.generators:
        number = 1 + sum(h.degree == g.degree for h in mapping)
        mapping[g] = BasisVector(target_id, f"{prefixes[g.degree]}{number}", g.degree + shift)
    entries = []
    for key, output in system.tables.items():
        new_key = tuple(mapping[v] for v in key)
        sign = desuspension_sign([v.degree for v in (new_key if down else key)])
        entries.append((new_key, Element(
            target_id, {mapping[v]: sign * c for v, c in output.items()})))
    return BracketSystem.from_entries(GradedSpace(target_id, mapping.values()),
                                      SYMMETRIC if down else SKEW, entries,
                                      max_arity=system.max_arity)


def _typed_tables(system):
    """Each table entry's coefficients with their types, by key."""
    return {key: {v: (c, type(c)) for v, c in output.items()}
            for key, output in system.tables.items()}


def _assert_shift_matches_oracle(system):
    lowered, expected = desuspend_system(system), _shift_oracle(system)
    assert (lowered.space, lowered.symmetry, lowered.max_arity) == \
        (expected.space, expected.symmetry, expected.max_arity)
    assert _typed_tables(lowered) == _typed_tables(expected)


@settings(max_examples=100, deadline=None)
@given(st.one_of(_random_skew_systems(grading=(0, 1), min_size=1), _perturbed_examples()))
def test_shift_matches_the_checked_oracle(system):
    _assert_shift_matches_oracle(system)


def test_shift_matches_the_checked_oracle_on_the_builtins(ex1, ex2):
    for example in (ex1, ex2):
        _assert_shift_matches_oracle(example.skew_system)


# -- the table layer against its earlier bodies -------------------------------------
#
# ``from_entries`` keeps an entry's ``Element`` when it is already what it would
# build, ``desuspend_system`` memoises its sign per degree pattern, the document
# reader finds generators by name in one dict and the writer sorts only
# outputs of more than one term. The oracles below are the bodies these
# replaced, kept to check them against.

def _from_entries_oracle(space, symmetry, entries, max_arity=DEFAULT_MAX_ARITY):
    """``BracketSystem.from_entries`` as it was written before it kept the
    given elements: every entry rebuilt term by term."""
    if symmetry not in (SKEW, SYMMETRIC):
        raise ValueError(f"unknown symmetry {symmetry!r}")
    space_id, skew = space.space_id, symmetry == SKEW
    tables, zeros = {}, set()
    for inputs, output in entries:
        inputs = tuple(inputs)
        n = len(inputs)
        if n > max_arity:
            raise ValueError(f"entry arity {n} exceeds max_arity {max_arity}")
        if output.space_id != space_id:
            raise ValueError("output element lives in the wrong space")
        key, sign = canonical_key(space, symmetry, inputs)
        if key is None:
            if not output.is_zero():
                raise ValueError(f"symmetry forces the bracket of {inputs} to vanish")
            continue
        if output.is_zero():
            if key in zeros or key in tables:
                raise ValueError(f"duplicate table entry for {key}")
            zeros.add(key)
            continue
        target = (2 - n if skew else 1) + sum(v.degree for v in inputs)
        terms = {}
        for vector, coeff in output.items():
            if vector.degree != target:
                raise ValueError(
                    f"bracket of {inputs} must have degree {target}, "
                    f"got a {vector.name} term of degree {vector.degree}"
                )
            terms[vector] = int_if_integral(sign * coeff)
        space.indices(terms)  # ValueError on a non-generator
        if key in tables or key in zeros:
            raise ValueError(f"duplicate table entry for {key}")
        tables[key] = Element._from_exact(space_id, terms)
    return BracketSystem(space, symmetry, max_arity, tables)


def _shift_system_oracle(system):
    """``desuspend_system`` as it was written before it memoised the sign: one
    ``desuspension_sign`` call per entry."""
    prefixes = {0: "theta", 1: "x"}
    degrees = {g.degree for g in system.space.generators}
    if not degrees <= prefixes.keys():
        raise ValueError(
            f"degree shift is implemented for spaces concentrated in degrees "
            f"{sorted(prefixes)}, got {sorted(degrees)}"
        )
    mapping = {}
    for g in system.space.generators:
        number = 1 + sum(h.degree == g.degree for h in mapping)
        mapping[g] = BasisVector("W", f"{prefixes[g.degree]}{number}", g.degree - 1)
    tables = {}
    for key, output in system.tables.items():
        new_key = tuple(map(mapping.__getitem__, key))
        sign = desuspension_sign(tuple(v.degree for v in new_key))
        tables[new_key] = Element._from_exact(
            "W", {mapping[v]: sign * c for v, c in output.items()})
    return BracketSystem(GradedSpace("W", mapping.values()), SYMMETRIC,
                         system.max_arity, tables)


def _system_to_document_oracle(system):
    """The brackets of ``system_to_document`` as they were written before the
    writer sorted only outputs of more than one term."""
    doc = {
        "version": SCHEMA_VERSION,
        "space": {
            "id": system.space.space_id,
            "generators": [
                {"name": g.name, "degree": g.degree} for g in system.space.generators
            ],
        },
        "symmetry": system.symmetry,
        "max_arity": system.max_arity,
        "brackets": [],
    }
    for n in sorted({len(key) for key in system.tables}):
        keys = [key for key in system.tables if len(key) == n]
        for key in sorted(keys, key=system.space.indices):
            output = system.tables[key]
            doc["brackets"].append(
                {
                    "inputs": [v.name for v in key],
                    "output": [
                        {"gen": v.name, "coeff": str(c)}
                        for v, c in sorted(output.items(), key=lambda vc: vc[0].name)
                    ],
                }
            )
    return doc


def _document_to_system_oracle(doc):
    """``document_to_system`` as it was written before it looked names up in
    one dict, for documents without a "delta" section."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    version = _require(doc, "version", str)
    if version != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema version {version!r}")

    space_doc = _require(doc, "space", dict)
    space_id = _require(space_doc, "id", str, "space")
    generators = []
    for gen in _require(space_doc, "generators", list, "space"):
        name = _require(gen, "name", str, "generator")
        degree = _require(gen, "degree", int, "generator")
        generators.append(BasisVector(space_id, name, degree))
    if not generators:
        raise DocumentError("space needs at least one generator")
    try:
        space = GradedSpace(space_id, generators)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None

    symmetry = _require(doc, "symmetry", str)
    if symmetry not in (SKEW, SYMMETRIC):
        raise DocumentError(f"symmetry must be 'skew' or 'symmetric', got {symmetry!r}")
    max_arity = _require(doc, "max_arity", int)

    def lookup(name):
        if not isinstance(name, str):
            raise DocumentError(f"generator names must be strings, got {name!r}")
        try:
            return space.generator(name)
        except ValueError as exc:
            raise DocumentError(str(exc)) from None

    entries = []
    for number, item in enumerate(_require(doc, "brackets", list), 1):
        inputs = [lookup(name) for name in _require(item, "inputs", list, "bracket entry")]
        terms = {}
        for term, part in enumerate(_require(item, "output", list, "bracket entry"), 1):
            vector = lookup(_require(part, "gen", str, "output term"))
            coeff = _coeff_from_json(_require(part, "coeff", (str, int), "output term"),
                                     f"bracket entry {number}, output term {term}")
            terms[vector] = terms.get(vector, 0) + coeff
        entries.append((tuple(inputs), Element._from_exact(space_id, terms)))
    try:
        system = BracketSystem.from_entries(space, symmetry, entries, max_arity)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    return system, None


def _outcome(build, *args):
    """What ``build(*args)`` gives: ("ok", result), or the type and message
    of the error it raises."""
    try:
        return "ok", build(*args)
    except (ValueError, DocumentError) as exc:
        return type(exc), str(exc)


def _assert_same_tables(got, expected):
    """The same system, with the same coefficient types, every stored value
    a plain ``Element``."""
    assert (got.space, got.symmetry, got.max_arity) == \
        (expected.space, expected.symmetry, expected.max_arity)
    assert _typed_tables(got) == _typed_tables(expected)
    assert all(type(value) is Element for value in got.tables.values())


class _Tagged(Element):
    """A subclass whose instances ``from_entries`` must not store."""


_GHOST = BasisVector("V", "ghost", 1)


@st.composite
def _entry_lists(draw):
    """A space, a symmetry, a bound and entries for ``from_entries``: inputs in
    any order (so the sign may be -1), outputs of the right degree with int
    and integral or non-integral Fraction coefficients, and now and then a
    zero output, a key the symmetry kills, a duplicate, a ghost generator, a
    wrong degree, the wrong space or an ``Element`` subclass."""
    degrees = draw(st.lists(st.sampled_from((0, 1, 0, 1, 2, -1)), min_size=1, max_size=4))
    space = _space(degrees)
    symmetry = draw(st.sampled_from((SKEW, SYMMETRIC)))
    max_arity = draw(st.integers(1, 4))
    rare = st.integers(0, 39).map(lambda k: k == 0)  # true one time in forty
    entries, keys = [], set()
    for _ in range(draw(st.integers(0, 8))):
        if entries and draw(rare):  # the last key again, reordered
            inputs = tuple(draw(st.permutations(entries[-1][0])))
        else:
            n = max_arity + 1 if draw(rare) else draw(st.integers(0, max_arity))
            inputs = tuple(draw(st.lists(st.sampled_from(space.generators),
                                         min_size=n, max_size=n)))
            if draw(st.booleans()):  # drawn lists lean towards sorted ones
                inputs = inputs[::-1]
            if tuple(sorted(space.indices(inputs))) in keys:
                continue
            keys.add(tuple(sorted(space.indices(inputs))))
        if draw(rare):
            inputs += (_GHOST,)
        target = (2 - len(inputs) if symmetry == SKEW else 1) + sum(v.degree for v in inputs)
        outputs = [g for g in space.generators if g.degree == target]
        if draw(rare):
            outputs = [*space.generators, _GHOST]
        chosen = [] if not outputs or draw(rare) else \
            draw(st.lists(st.sampled_from(outputs), unique=True, min_size=1, max_size=3))
        space_id = "W" if draw(rare) else "V"
        kind = _Tagged if draw(rare) else Element
        terms = {BasisVector(space_id, g.name, g.degree): draw(_COEFFS) for g in chosen}
        entries.append((inputs, kind(space_id, terms)))
    return space, symmetry, entries, max_arity


@settings(max_examples=400, deadline=None)
@given(_entry_lists())
def test_from_entries_matches_the_rebuilding_oracle(drawn):
    space, symmetry, entries, max_arity = drawn
    given_terms = [dict(output.items()) for _, output in entries]
    got = _outcome(BracketSystem.from_entries, space, symmetry, entries, max_arity)
    expected = _outcome(_from_entries_oracle, space, symmetry, entries, max_arity)
    assert got[0] == expected[0]
    if got[0] == "ok":
        _assert_same_tables(got[1], expected[1])
    else:
        assert got == expected
    # no entry, stored as given or rebuilt with a sign, changes the caller's element
    assert [dict(output.items()) for _, output in entries] == given_terms


def test_from_entries_keeps_only_plain_int_elements_in_canonical_order():
    a, b = BasisVector("V", "a", 0), BasisVector("V", "b", 1)
    space = GradedSpace("V", (a, b))
    plain, tagged = Element("V", {b: 2}), _Tagged("V", {b: 2})
    halves = Element("V", {b: Fraction(4, 2)})
    system = BracketSystem.from_entries(
        space, SKEW, [((a, b), plain), ((a,), tagged), ((b, b, a), halves)])
    assert system.tables[(a, b)] is plain
    stored = [system.tables[(a,)], system.tables[(a, b, b)]]
    assert [(type(value), value) for value in stored] == [(Element, plain)] * 2
    assert [type(c) for value in stored for _, c in value.items()] == [int, int]
    swapped = BracketSystem.from_entries(space, SKEW, [((b, a), plain)])
    assert swapped.tables[(a, b)] == Element("V", {b: -2})
    assert plain == Element("V", {b: 2})


@settings(max_examples=100, deadline=None)
@given(_random_skew_systems(), st.data())
def test_from_entries_keeps_or_rebuilds_the_entries_of_random_systems(system, data):
    """Stored entries with int coefficients come back as the same objects;
    shuffled, every entry is rebuilt with its sign, and the stored ones stay
    as they were."""
    entries = list(system.tables.items())
    kept = BracketSystem.from_entries(system.space, SKEW, entries, system.max_arity)
    _assert_same_tables(kept, system)
    for key, value in entries:
        if all(type(c) is int for _, c in value.items()):
            assert kept.tables[key] is value
    before = _typed_tables(system)
    shuffled = [(data.draw(st.permutations(key)), value) for key, value in entries]
    _assert_same_tables(
        BracketSystem.from_entries(system.space, SKEW, shuffled, system.max_arity),
        _from_entries_oracle(system.space, SKEW, shuffled, system.max_arity))
    assert _typed_tables(system) == before


@settings(max_examples=100, deadline=None)
@given(st.one_of(_random_skew_systems(), _random_skew_systems(grading=(0, 1), min_size=1),
                 _perturbed_examples()))
def test_shift_document_reader_and_writer_match_their_oracles(system):
    """On random systems and, where the grading allows, their desuspensions:
    the shift, and a document written and read back."""
    systems = [system]
    got = _outcome(desuspend_system, system)
    expected = _outcome(_shift_system_oracle, system)
    assert got[0] == expected[0]
    if got[0] == "ok":
        _assert_same_tables(got[1], expected[1])
        systems.append(got[1])
    else:
        assert got == expected
    for source in systems:
        doc = system_to_document(source)
        assert doc == _system_to_document_oracle(source)
        assert document_text(doc) == document_text(_system_to_document_oracle(source))
        read, _ = document_to_system(json.loads(json.dumps(doc)))
        _assert_same_tables(read, _document_to_system_oracle(doc)[0])


def _document_of(space, symmetry, entries, max_arity):
    """``entries`` written as a document by name, coefficients as strings."""
    return {
        "version": "1", "symmetry": symmetry, "max_arity": max_arity,
        "space": {"id": space.space_id,
                  "generators": [{"name": g.name, "degree": g.degree} for g in space.generators]},
        "brackets": [{"inputs": [v.name for v in inputs],
                      "output": [{"gen": v.name, "coeff": str(c)} for v, c in output.items()]}
                     for inputs, output in entries],
    }


_BAD_NAMES = st.sampled_from([5, None, True, ["e0"], {"e0": 1}, "nope", "e0 "])
_BAD_COEFFS = st.sampled_from([1.5, True, None, "1/0", "1.5", " 3", "3_0", ["1"], 7, "-4/6"])


@settings(max_examples=300, deadline=None)
@given(_entry_lists(), st.data())
def test_document_reader_matches_its_oracle_on_drawn_documents(drawn, data):
    """Documents of drawn entry lists, now and then with a name or a
    coefficient replaced: the same tables, or the same error."""
    doc = _document_of(*drawn)
    for item in doc["brackets"]:
        for k in range(len(item["inputs"])):
            if data.draw(st.integers(0, 7)) == 0:
                item["inputs"][k] = data.draw(_BAD_NAMES)
        for part in item["output"]:
            if data.draw(st.integers(0, 14)) == 0:
                part["gen"] = data.draw(_BAD_NAMES)
            if data.draw(st.integers(0, 14)) == 0:
                part["coeff"] = data.draw(_BAD_COEFFS)
    got = _outcome(document_to_system, doc)
    expected = _outcome(_document_to_system_oracle, doc)
    assert got[0] == expected[0]
    if got[0] == "ok":
        _assert_same_tables(got[1][0], expected[1][0])
        assert got[1][1] is None
    else:
        assert got == expected


# -- coefficient representation ---------------------------------------------------

def _assert_ints_where_integral(system):
    """Integral coefficients are stored as ints, the others as Fractions, and
    evaluate hands out the stored entries themselves."""
    for key, output in system.tables.items():
        for _, c in output.items():
            assert type(c) is (int if Fraction(c).denominator == 1 else Fraction), (key, c)
        assert system.evaluate(key) is output


@settings(max_examples=100, deadline=None)
@given(st.one_of(_random_skew_systems(), _perturbed_examples()))
def test_tables_hold_ints_where_integral(system):
    _assert_ints_where_integral(system)
    if {g.degree for g in system.space.generators} <= {0, 1}:
        lowered = desuspend_system(system)
        _assert_ints_where_integral(lowered)
        _assert_ints_where_integral(_shift_oracle(lowered))


def test_builtin_tables_hold_ints(ex1, ex2):
    for example in (ex1, ex2):
        for system in (example.skew_system, example.symmetric_system):
            _assert_ints_where_integral(system)
            assert all(type(c) is int for output in system.tables.values()
                       for _, c in output.items())


def test_entry_count_is_the_number_of_written_entries(ex1, ex2):
    """One entry per stored key, as in the written document: example2's two
    formulations are two structures, with tables of different sizes."""
    for system, count in ((ex1.skew_system, 12), (ex1.symmetric_system, 12),
                          (ex2.skew_system, 660), (ex2.symmetric_system, 440)):
        assert system.entry_count() == len(system_to_document(system)["brackets"]) == count


def test_shift_requires_the_two_band_grading():
    a = BasisVector("V", "a", 2)
    space = GradedSpace("V", (a,))
    system = BracketSystem.from_entries(space, SKEW, [])
    with pytest.raises(ValueError):
        desuspend_system(system)


def test_shift_direction_follows_the_symmetry(ex1):
    with pytest.raises(ValueError, match="can only desuspend a skew system"):
        desuspend_system(ex1.symmetric_system)


def test_first_difference_reports_location(ex1):
    W = ex1.symmetric_system
    t2, x = _gens(W, "theta2", "x1")
    entries = [(key, value) for key, value in W.tables.items() if len(key) != 3]
    pruned = BracketSystem.from_entries(W.space, SYMMETRIC, entries, W.max_arity)
    diff = first_difference(W, pruned, 8)
    assert diff is not None
    arity, key, left, right = diff
    assert arity == 3
    assert key == (t2, x, x)
    assert right.is_zero() and not left.is_zero()
    # the bound is the last arity compared: below the first differing one,
    # the systems agree, and at it the same discrepancy shows
    assert first_difference(W, pruned, 2) is None
    assert first_difference(W, pruned, 3) == (3, (t2, x, x), left, right)
    assert first_difference(W, W, 10) is None
    # systems on different spaces or of different symmetry have nothing to compare
    for other in (ex1.skew_system, BracketSystem.from_entries(W.space, SKEW, [])):
        with pytest.raises(ValueError, match="cannot compare"):
            first_difference(W, other, 8)
