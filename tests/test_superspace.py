import copy
import json
import pickle
import random
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations, product
from math import comb, factorial, prod
from operator import add, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linfcheck.brackets import SYMMETRIC, BracketSystem, canonical_tuples, first_difference
from linfcheck.builtin import example1_system, example2_system
from linfcheck.document import document_to_system, system_to_document
from linfcheck.errors import TruncationError
from linfcheck.grading import BasisVector, Element
from linfcheck.series import Series
from linfcheck.superspace import (
    DeltaSpec,
    DeltaSquaredReport,
    SuperMonomial,
    SuperPoly,
    brackets_from_delta,
    delta_squared_check,
    koszul_bracket,
    EPS_LOWER,
    _MERGED,
    _coefficient,
    _derivative_terms,
    _kills,
    _merge_fermions,
    _multi_indices,
    _theta_derivative,
    nilpotency_conditions,
)
from series_ops import from_coeffs, one, truncate
from structures import MUTANTS, SECTORS, STRUCTURES, apply_delta, build, operator_specs
from test_basis_change import permute_bosons, swap_thetas


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
    for fermions, message in (
        ((1, 1), "theta factors must be strictly increasing"),
        ((2, 1), "theta factors must be strictly increasing"),
        ((3,), "odd generators are indexed by 1 and 2"),
        ((0,), "odd generators are indexed by 1 and 2"),
    ):
        with pytest.raises(ValueError, match=message):
            SuperMonomial(fermions, (0,))
    for bosons in ((-1,), (-1, 0, 0), (0, -2, 0), (0, 0, -1)):
        with pytest.raises(ValueError, match="exponents must be non-negative"):
            SuperMonomial((1,), bosons)
    # exponents are ints, as a document's integer fields are: not bools, not
    # floats, not Fractions, even when they are integral
    for bosons in ((1.5, 0, 0), (1.0,), (True, 0), (0, False), (Fraction(1),), ("1",)):
        with pytest.raises(ValueError, match="exponents must be ints"):
            SuperMonomial((1,), bosons)
    mono = SuperMonomial([1, 2], [0, 0, 1])
    assert (mono.fermions, mono.bosons) == ((1, 2), (0, 0, 1))
    assert type(mono.fermions) is tuple and type(mono.bosons) is tuple
    twin = SuperMonomial((1, 2), (0, 0, 1))
    assert mono == twin and hash(mono) == hash(twin)
    assert hash(mono) == hash(((1, 2), (0, 0, 1)))
    assert copy.copy(mono) == mono and pickle.loads(pickle.dumps(mono)) == mono
    for name in ("fermions", "bosons", "other"):
        with pytest.raises(AttributeError):
            setattr(mono, name, ())
    assert repr(mono) == "theta1*theta2*x3"
    assert repr(SuperMonomial((), (0, 0))) == "1"


def test_supercommutative_product():
    t1 = SuperPoly.basis(SuperMonomial((1,), (0,)))
    t2 = SuperPoly.basis(SuperMonomial((2,), (0,)))
    x = SuperPoly.basis(SuperMonomial((), (1,)))
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


_TWO_BOSON_MONOS = [
    SuperMonomial(f, (i, j)) for f in SECTORS for i in range(3) for j in range(3)
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
    for other in (SuperPoly.basis(SuperMonomial((), (0,))), SuperPoly(3), Element("W")):
        with pytest.raises(ValueError):
            p + other
        with pytest.raises(ValueError):
            other + p


def test_left_theta_derivative_signs():
    t1, t2 = (SuperPoly.basis(SuperMonomial((a,), (0,))) for a in (1, 2))
    ((mono, coeff),) = (t1 * t2).items()
    assert (mono.fermions, coeff) == ((1, 2), 1)
    assert _theta_derivative(mono.fermions, 1) == (1, (2,))
    assert _theta_derivative(mono.fermions, 2) == (-1, (1,))
    assert _theta_derivative((), 1) is None


def test_three_theta_derivatives_annihilate_everything():
    # with two odd generators, any triple derivative kills every theta block
    for fermions in SECTORS:
        for order in product((1, 2), repeat=3):
            hit = (1, fermions)
            for alpha in order:
                hit = hit and _theta_derivative(hit[1], alpha)
            assert hit is None


# -- applying the operator -------------------------------------------------------

def _linear_element(spec, poly):
    """A polynomial that is linear in the generators, read back as an element
    of the operator's space; anything else raises ``ValueError``."""
    vectors = {mono: vector for vector, mono in spec.generators.items()}
    try:
        terms = {vectors[mono]: coeff for mono, coeff in poly.items()}
    except KeyError:
        raise ValueError(f"bracket value is not linear in the generators: {poly}") from None
    return Element(spec.space.space_id, terms)


@contextmanager
def _images_recorded():
    """The monomials ``delta_monomial`` is called on inside the block."""
    calls, compute = [], DeltaSpec.delta_monomial
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DeltaSpec, "delta_monomial",
                      lambda spec, mono: calls.append(mono) or compute(spec, mono))
        yield calls


def test_apply_delta_on_unit():
    no_h = _one_boson_spec(f1=-1, g1=1, g2=1)
    assert apply_delta(no_h, SuperPoly.basis(SuperMonomial((), (0,)))).is_zero()
    with_h = _one_boson_spec(h1=Fraction(2), h2=-3)
    image = apply_delta(with_h, SuperPoly.basis(SuperMonomial((), (0,))))
    t1, t2 = (SuperPoly.basis(SuperMonomial((a,), (0,))) for a in (1, 2))
    expected = 2 * t1 + (-3) * t2
    assert image == expected


def test_apply_delta_example1_theta1(ex1):
    spec = ex1.delta_spec
    theta1 = SuperPoly.basis(SuperMonomial((1,), (0,)))
    assert apply_delta(spec, theta1) == SuperPoly.basis(SuperMonomial((), (1,)))


def test_apply_delta_is_linear(ex1):
    spec = ex1.delta_spec
    rng = random.Random(7)
    monos = [SuperMonomial(f, (m,)) for f in SECTORS for m in range(4)]
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


def test_delta_monomial_rejects_a_monomial_of_another_width(ex1, ex2):
    for spec, mono in ((ex1.delta_spec, SuperMonomial((2,), (1, 1))),
                       (ex2.delta_spec, SuperMonomial((1,), (1, 0))),
                       (ex2.delta_spec, SuperMonomial((), (0, 0, 0, 1)))):
        with pytest.raises(ValueError, match="exponents, but the operator has"):
            spec.delta_monomial(mono)


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
        for key, value in system.tables.items():
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
    with itself before ``delta_squared_check`` went through ``apply_delta``."""
    checked = 0
    for fermions in SECTORS:
        for bosons in product(range(degree_bound + 1), repeat=spec.n_bosons):
            if sum(bosons) > degree_bound:
                continue
            mono = SuperMonomial(fermions, bosons)
            acc = {}
            for mid, c1 in spec.delta_monomial(mono).items():
                for final, c2 in spec.delta_monomial(mid).items():
                    acc[final] = acc.get(final, 0) + c1 * c2
            checked += 1
            residue = {m: c for m, c in acc.items() if c}
            if residue:
                return DeltaSquaredReport(
                    False, checked, mono, SuperPoly(spec.n_bosons, residue)
                )
    return DeltaSquaredReport(True, checked, None, None)


def _symmetry(spec):
    """The operator's symmetry group, read off the spec by exact series
    equality: the classes of bosons with equal ``g`` columns, each permuted
    freely, and, if theta1 <-> theta2 is a symmetry, the boson map of its
    coset (``swapped[j] = bosons[partner[j]]``), else None.

    A change of basis phi carries D to D' = phi D phi^-1, again a spec.
    Every series is one in the total momentum and the shift x_i p_i, if
    present, is present for every i, so permuting the bosons only permutes
    g's columns.  The swap sends f to (-f2, -f1) (eps_{21} = -eps_{12}), h to
    (h2, h1) and g's rows to each other, so with a boson map pi it is a
    symmetry iff f == (-f2, -f1), h == (h2, h1) and g^i_2 = g^pi(i)_1,
    g^i_1 = g^pi(i)_2 for every i: the classes pair up by swapped columns."""
    columns, classes = list(zip(*spec.g)), []

    def class_of(column):  # compared, not hashed: a Fraction's hash is slow
        return next((members for members in classes if columns[members[0]] == column), [])

    for i, column in enumerate(columns):
        members = class_of(column)
        if not members:
            classes.append(members)
        members.append(i)
    (f1, f2), (h1, h2) = spec.f, spec.h
    if f1 != -f2 or h1 != h2:
        return classes, None
    partner = [0] * spec.n_bosons
    for members in classes:
        mirror = class_of(columns[members[0]][::-1])
        if len(mirror) != len(members):
            return classes, None
        for j, i in zip(mirror, members):
            partner[j] = i
    return classes, partner


def _orbit_leader(spec):
    """The test ``leads(sector rank, bosons)``: is the monomial first in its
    symmetry orbit in scan order?  None when the group is trivial.  The
    orbit minimum is the smaller of two cosets' minima, each the exponents
    sorted ascending within every class."""
    classes, partner = _symmetry(spec)
    blocks = [members for members in classes if len(members) > 1]
    if not blocks and partner is None:
        return None

    def least(bosons):  # the minimum over the permutations within classes
        out = list(bosons)
        for members in blocks:
            for i, m in zip(members, sorted([bosons[i] for i in members])):
                out[i] = m
        return tuple(out)

    def leads(rank, bosons):
        if blocks and least(bosons) != bosons:
            return False
        # the swap exchanges the sectors (1,) and (2,), ranks 1 and 2
        return partner is None or (rank, bosons) <= (
            (0, 2, 1, 3)[rank], least(tuple(map(bosons.__getitem__, partner))))

    return leads


def _orbit_scan(spec, degree_bound):
    """``delta_squared_check`` by monomials: D applied twice, on dense ids of
    the monomials, to the lex-leader of each orbit of the spec's symmetry
    group only (Crawford-Ginsberg-Luks-Roy).  A symmetry phi has D = phi D
    phi^-1, so a monomial fails iff its whole orbit does and the first
    failing monomial leads its orbit."""
    ids, monos, rows, acc = {}, [], [], []

    def ident(mono):
        if mono not in ids:
            ids[mono] = len(monos)
            monos.append(mono)
            rows.append(None)
            acc.append(0)
        return ids[mono]

    def row(i):
        terms = spec.delta_monomial(monos[i]).items()
        rows[i] = [ids[m] if m in ids else ident(m) for m, _ in terms], [c for _, c in terms]
        return rows[i]

    leads = _orbit_leader(spec)
    checked = 0
    for rank, fermions in enumerate(SECTORS):
        for bosons in _multi_indices(spec.n_bosons, degree_bound):
            checked += 1
            if leads and not leads(rank, bosons):
                continue
            mono = SuperMonomial(fermions, bosons)
            i = ident(mono)
            mids, firsts = rows[i] or row(i)
            touched = set()
            for mid, c1 in zip(mids, firsts):
                finals, seconds = rows[mid] or row(mid)
                touched.update(finals)
                for final, c2 in zip(finals, seconds):
                    acc[final] += c1 * c2
            if any(map(acc.__getitem__, touched)):
                residue = {monos[f]: acc[f] for f in touched if acc[f]}
                return DeltaSquaredReport(False, checked, mono,
                                          SuperPoly(spec.n_bosons, residue))
    return DeltaSquaredReport(True, checked, None, None)


def _assert_matches_the_oracles(spec, degree_bound):
    """``delta_squared_check`` gives the double loop's report, as the orbit
    scan does, without computing an operator image; a failure's residue is
    D(D(witness))."""
    expected = _delta_squared_oracle(spec, degree_bound)
    assert _orbit_scan(spec, degree_bound) == expected
    with _images_recorded() as calls:
        report = delta_squared_check(spec, degree_bound)
    assert report == expected and calls == []
    if not report.passed:
        witness = SuperPoly(spec.n_bosons, {report.witness: 1})
        assert report.residue == apply_delta(spec, apply_delta(spec, witness))
    return report


@settings(max_examples=60, deadline=None)
@given(operator_specs(2), st.integers(0, 3))
def test_delta_squared_check_matches_the_double_loop(spec, degree_bound):
    _assert_matches_the_oracles(spec, degree_bound)


@pytest.mark.parametrize("example, index, value", MUTANTS)
def test_delta_squared_check_matches_the_double_loop_on_mutants(example, index, value):
    spec = build(example, index, value).delta_spec
    assert not _assert_matches_the_oracles(spec, 6).passed


@st.composite
def _zero_operator_tables(draw, degree=5):
    """Tables {e: T_e} of sum_e d^e T_e(P) on 1 to 4 bosons that represent
    the zero operator: sums of d^l (sum_i d_i T(P) - P T(P)), where P T(P)
    has the Taylor table k T[k - 1].  Half of them get one more term
    c d^e P^k / k!, which is nonzero below the bound iff k + |e| <= degree."""
    n_bosons, size, tables = draw(st.integers(1, 4)), degree + 1, {}
    indices = [()] + [(i,) for i in range(n_bosons)]

    def add(e, table):
        tables[e] = [a + b for a, b in zip(tables.get(e, [0] * size), table)]

    for _ in range(draw(st.integers(1, 3))):
        t = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
        lead = draw(st.sampled_from(indices))
        add(lead, [-k * t[k - 1] if k else 0 for k in range(size)])
        for i in range(n_bosons):
            add(tuple(sorted(lead + (i,))), t)
    changed = draw(st.booleans())
    if changed:
        e = draw(st.sampled_from(indices + [(i, j) for i in range(n_bosons)
                                             for j in range(i, n_bosons)]))
        k, c = draw(st.integers(0, degree)), draw(st.sampled_from((-1, 1, 2)))
        add(e, [c * (m == k) for m in range(size)])
        changed = k + len(e) <= degree
    return n_bosons, degree, tables, changed


def _multi_indices_oracle(n_vars, max_total):
    """The recursion ``_multi_indices`` replaced: one frame per variable."""
    if n_vars == 0:
        yield ()
        return
    for first in range(max_total + 1):
        for rest in _multi_indices_oracle(n_vars - 1, max_total - first):
            yield (first,) + rest


def test_multi_indices_match_the_recursion():
    """The same tuples in the same order, on which the witness and
    ``monomials_checked`` of a failing check depend; and no recursion, so
    1,500 variables enumerate."""
    for n_vars in range(7):
        for max_total in range(9):
            assert list(_multi_indices(n_vars, max_total)) == \
                list(_multi_indices_oracle(n_vars, max_total)), (n_vars, max_total)
    assert len(list(_multi_indices(1500, 1))) == 1501


@settings(max_examples=150, deadline=None)
@given(_zero_operator_tables())
def test_kills_reads_each_slice_off_its_order_two_lattice(drawn):
    """``_kills`` looks at a few points of each slice |beta| = k; it agrees
    with every beta through the bound, on tables whose terms cancel only
    across the slice."""
    n_bosons, degree, tables, changed = drawn
    every_beta = not any(_coefficient(tables, beta)
                         for beta in _multi_indices(n_bosons, degree))
    assert _kills(tables, n_bosons, degree) == every_beta == (not changed)


@pytest.mark.parametrize("bound", [-1, True, False, 2.0, "3", None])
def test_delta_squared_check_rejects_a_bound_that_checks_nothing(ex1, bound):
    # a negative bound checks nothing, and a bool or a float is no degree
    with pytest.raises(ValueError, match="degree bound"):
        delta_squared_check(ex1.delta_spec, bound)


@pytest.mark.parametrize("bound", [-1, True, False, 2.0, "3", None])
def test_brackets_from_delta_rejects_a_bound_that_checks_nothing(ex1, bound):
    # a negative bound tabulates nothing, and a bool or a float is no arity
    with pytest.raises(ValueError, match=r"^arity bound must be an int >= 0 \(a bound below "
                                         r"0 checks nothing\), got "):
        brackets_from_delta(ex1.delta_spec, bound)


@st.composite
def _symmetric_specs(draw, order=4):
    """Specs whose operator commutes with (theta1, x1) <-> (theta2, x2) and
    with the permutations of x3 .. xN: g's first two columns mirror each
    other, f1 = -f2, h1 = h2 and the trailing columns are equal.  A trailing
    column whose two rows differ keeps only the permutations.  Now and then
    one coefficient is changed, which breaks or keeps each symmetry."""
    n_bosons = draw(st.integers(1, 4))

    def coeffs():
        if draw(st.booleans()):  # a constant series: more specs pass
            return [draw(st.integers(-2, 2))] + [0] * order
        return draw(st.lists(st.integers(-2, 2), min_size=order + 1, max_size=order + 1))

    a, b, c = coeffs(), coeffs(), coeffs()
    d = c if draw(st.booleans()) else coeffs()
    f = coeffs() if draw(st.booleans()) else [0] * (order + 1)
    h = coeffs() if draw(st.booleans()) else [0] * (order + 1)
    columns = [(a, a)] if n_bosons == 1 else [(a, b), (b, a)] + [(c, d)] * (n_bosons - 2)
    slots = [f, [-x for x in f], h, h] + [column[r] for r in (0, 1) for column in columns]
    slots = [list(coefficients) for coefficients in slots]
    if draw(st.integers(0, 3)) == 0:
        slots[draw(st.integers(0, len(slots) - 1))][draw(st.integers(0, order))] += 1
    series = [from_coeffs(coefficients) for coefficients in slots]
    return DeltaSpec(n_bosons=n_bosons, f=tuple(series[:2]), h=tuple(series[2:4]),
                     g=(tuple(series[4:4 + n_bosons]), tuple(series[4 + n_bosons:])),
                     momentum_shift=draw(st.booleans()))


@settings(max_examples=80, deadline=None)
@given(_symmetric_specs(), st.integers(0, 3))
def test_delta_squared_check_matches_the_double_loop_on_symmetric_specs(spec, degree_bound):
    _assert_matches_the_oracles(spec, degree_bound)


@pytest.mark.parametrize("n_bosons, degree", [(2, 6), (3, 6), (4, 6), (5, 5)])
@pytest.mark.parametrize("changes", [{}, {3: 19}, {5: 1}])
def test_delta_squared_check_matches_the_double_loop_on_example2(n_bosons, degree, changes):
    spec = example2_system(n_bosons=n_bosons, order=degree, b_values=changes).delta_spec
    assert _assert_matches_the_oracles(spec, degree).passed == (not changes)


_RANK = {block: rank for rank, block in enumerate(SECTORS)}  # the scan order of the sectors


def _brute_force_group(spec):
    """Every (pi, swap) whose change of basis, by the rules of
    ``test_basis_change``, gives back the spec itself."""
    group = []
    for pi in permutations(range(spec.n_bosons)):
        for swap in (False, True):
            transformed = swap_thetas(spec)[0] if swap else spec
            if permute_bosons(pi)(transformed)[0] == spec:
                group.append((pi, swap))
    return group


def _is_orbit_minimum(group, fermions, bosons):
    """Is the monomial the scan-order minimum of its orbit under the group?"""
    images = []
    for pi, swap in group:
        moved = [0] * len(bosons)
        for i, m in enumerate(bosons):
            moved[pi[i]] = m  # x_i goes to x_pi(i)
        block = {(1,): (2,), (2,): (1,)}.get(fermions, fermions) if swap else fermions
        images.append((_RANK[block], tuple(moved)))
    return (_RANK[fermions], bosons) == min(images)


def _assert_detector_matches_brute_force(spec):
    """The group ``_symmetry`` describes, spelled out as every (pi, swap) it
    allows, is the brute-force group, and the leader test picks exactly the
    brute-force orbit minima through degree 3."""
    group, (classes, partner) = _brute_force_group(spec), _symmetry(spec)
    class_of = {i: k for k, members in enumerate(classes) for i in members}
    assert sorted(i for members in classes for i in members) == list(range(spec.n_bosons))
    detected = set()
    for pi in permutations(range(spec.n_bosons)):
        if all(class_of[pi[i]] == class_of[i] for i in range(spec.n_bosons)):
            detected.add((pi, False))
        if partner is not None and all(class_of[pi[partner[j]]] == class_of[j]
                                       for j in range(spec.n_bosons)):
            detected.add((pi, True))
    assert detected == set(group)
    leads = _orbit_leader(spec)
    assert (leads is None) == (len(group) == 1)
    for rank, fermions in enumerate(SECTORS):
        for bosons in product(range(4), repeat=spec.n_bosons):
            if sum(bosons) <= 3:
                expected = _is_orbit_minimum(group, fermions, bosons)
                assert (leads is None or leads(rank, bosons)) == expected


@settings(max_examples=60, deadline=None)
@given(_symmetric_specs())
def test_symmetry_detection_matches_brute_force(spec):
    _assert_detector_matches_brute_force(spec)


@pytest.mark.parametrize("n_bosons", [2, 3, 4])
def test_symmetry_detection_matches_brute_force_on_example2(n_bosons):
    _assert_detector_matches_brute_force(example2_system(n_bosons=n_bosons, order=4).delta_spec)


def test_symmetry_of_the_bundled_operators(ex1):
    assert _symmetry(ex1.delta_spec) == ([[0]], None)
    assert _orbit_leader(ex1.delta_spec) is None
    spec = example2_system(n_bosons=5).delta_spec
    # the swap with x1 <-> x2, and the class {x3 .. x5}
    assert _symmetry(spec) == ([[0], [1], [2, 3, 4]], [1, 0, 2, 3, 4])
    g1 = spec.g[0][0]
    changed = from_coeffs(g1.coeffs[:2] + (g1.coeffs[2] + 1,) + g1.coeffs[3:])
    spec = spec._replace(g=((changed,) + spec.g[0][1:], spec.g[1]))
    assert _symmetry(spec) == ([[0], [1], [2, 3, 4]], None)


@dataclass(frozen=True)
class _OracleMonomial:
    """A validated frozen-dataclass monomial, independent of the tuple keys
    the operator uses."""

    fermions: tuple
    bosons: tuple

    def __post_init__(self):
        if any(a not in (1, 2) for a in self.fermions):
            raise ValueError("odd generators are indexed by 1 and 2")
        if any(a >= b for a, b in zip(self.fermions, self.fermions[1:])):
            raise ValueError("theta factors must be strictly increasing")
        if any(m < 0 for m in self.bosons):
            raise ValueError("exponents must be non-negative")


def _oracle_operator_terms(table, bosons):
    """F(d/dx) on x^bosons, rebuilding the binomial stack for every table."""
    stack = [((), 1, 0)]
    for m in bosons:
        stack = [
            (prefix + (mu,), weight * comb(m, mu), total + mu)
            for prefix, weight, total in stack
            for mu in range(m + 1)
        ]
    for exponents, weight, total in stack:
        coeff = table[total]
        if coeff:
            yield weight * coeff, tuple(m - mu for m, mu in zip(bosons, exponents))


def _oracle_image(spec, fermions, bosons):
    """Image of one monomial as a dict ``{(fermions, bosons): coeff}`` of its
    nonzero terms, computed term by term from the spec's series with no cache."""

    def taylor(series):
        return [factorial(m) * c for m, c in enumerate(series.coeffs)]

    out = {}

    def put(fermions, bosons, value):
        key = _OracleMonomial(fermions, bosons)
        out[key] = out.get(key, 0) + value

    for alpha in (1, 2):  # D0
        table = taylor(spec.h[alpha - 1])
        merged = _merge_fermions((alpha,), fermions)
        if any(table) and merged is not None:
            for weight, reduced in _oracle_operator_terms(table, bosons):
                put(merged[1], reduced, merged[0] * weight)
    for alpha in (1, 2):  # D1
        hit = _theta_derivative(fermions, alpha)
        if hit is None:
            continue
        dsign, rest = hit
        for i in range(spec.n_bosons):
            table = taylor(spec.g[alpha - 1][i])
            for weight, reduced in _oracle_operator_terms(table, bosons):
                lifted = tuple(q + (k == i) for k, q in enumerate(reduced))
                put(rest, lifted, dsign * weight)
            if spec.momentum_shift and bosons[i]:
                put(rest, bosons, dsign * bosons[i])
    contraction = 0  # D2
    for (alpha, beta), eps in EPS_LOWER.items():
        first = _theta_derivative(fermions, alpha)
        second = first and _theta_derivative(first[1], beta)
        if second:
            contraction += eps * first[0] * second[0]
    for gamma in (1, 2) if contraction else ():
        table = taylor(spec.f[gamma - 1])
        for weight, reduced in _oracle_operator_terms(table, bosons):
            put((gamma,), reduced, Fraction(contraction, 2) * weight)
    return {(m.fermions, m.bosons): c for m, c in out.items() if c}


@settings(max_examples=80, deadline=None)
@given(operator_specs(2), st.data())
def test_delta_monomial_matches_the_dataclass_oracle(spec, data):
    exponents = st.lists(st.integers(0, 3), min_size=spec.n_bosons,
                         max_size=spec.n_bosons)
    exponents = exponents.filter(lambda b: sum(b) <= 3).map(tuple)
    monomials = data.draw(st.lists(st.tuples(st.sampled_from(SECTORS), exponents),
                                   min_size=1, max_size=4))
    for fermions, bosons in monomials:  # one spec, several monomials
        image = spec.delta_monomial(SuperMonomial(fermions, bosons))
        assert {(m.fermions, m.bosons): c for m, c in image.items()} == (
            _oracle_image(spec, fermions, bosons)
        )
        for mono, _ in image.items():
            assert type(mono) is SuperMonomial
            assert mono.fermions in SECTORS
            assert len(mono.bosons) == spec.n_bosons and min(mono.bosons) >= 0


def test_brackets_compute_no_operator_image():
    spec = example2_system().delta_spec
    gen = spec.space.generator
    inputs = tuple(gen(name) for name in ("x3", "x1", "theta1", "x2", "x1", "x3"))
    with _images_recorded() as calls:
        value = koszul_bracket(spec, inputs)
        system = brackets_from_delta(spec, 8)
    # read off the operator's pieces: no image of theta1 x1^2 x2 x3^2, of its
    # sub-multisets or of any monomial through arity 8 is computed
    assert not value.is_zero() and calls == []
    assert brackets_from_delta(spec._replace(), 8) == system
    for copied in (spec._replace(), copy.copy(spec), copy.deepcopy(spec),
                   pickle.loads(pickle.dumps(spec))):
        assert copied == spec and koszul_bracket(copied, inputs) == value


def _assert_images_are_exact(spec, degree_bound):
    """What ``delta_monomial`` builds its images on without checking them, on
    every monomial through the bound: every coefficient a nonzero int or
    Fraction, every key a :class:`SuperMonomial` on ``n_bosons`` exponents."""
    images = [spec.delta_monomial(SuperMonomial(fermions, bosons)) for fermions in SECTORS
              for bosons in _multi_indices(spec.n_bosons, degree_bound)]
    assert len(images) == 4 * comb(degree_bound + spec.n_bosons, spec.n_bosons)
    for image in images:
        assert type(image) is SuperPoly and image.n_bosons == spec.n_bosons
        assert image == SuperPoly(spec.n_bosons, dict(image.items()))
        for key, coeff in image.items():
            assert type(coeff) in (int, Fraction) and coeff != 0
            assert type(key) is SuperMonomial and len(key.bosons) == spec.n_bosons
            assert SuperMonomial(*key) == key
    return images


@settings(max_examples=40, deadline=None)
@given(operator_specs(2), st.integers(0, 3))
def test_images_hold_exact_nonzero_terms_on_interned_keys(spec, degree_bound):
    _assert_images_are_exact(spec, degree_bound)


def test_example2_images_hold_exact_nonzero_terms_on_interned_keys():
    images = _assert_images_are_exact(example2_system().delta_spec, 4)
    assert not all(image.is_zero() for image in images)


def test_delta_spec_is_an_immutable_value():
    zero = Series.zero(6)
    spec = _one_boson_spec(f1=-1, g1=1, g2=1, order=6)
    twin = spec._replace()
    assert "space" not in vars(spec) and "_pieces" not in vars(spec)
    spec.delta_monomial(SuperMonomial((1, 2), (2,)))
    spec.space  # fill the cached properties
    assert "space" in vars(spec) and "_pieces" in vars(spec)
    # they take no part in ==, hash and repr
    assert spec == twin and hash(spec) == hash(twin) and repr(spec) == repr(twin)
    assert repr(spec).startswith("DeltaSpec(n_bosons=1, f=(Series(")
    assert "_pieces" not in repr(spec)
    # they are the tuple's: a spec equals the plain tuple of its six fields
    fields = (1, spec.f, spec.g, spec.h, False, False)
    assert tuple(spec) == fields and spec == fields and hash(spec) == hash(fields)
    # each field takes part on its own (n_bosons cannot change without g)
    for name, value in (("f", (zero, zero)), ("g", ((zero,), (zero,))),
                        ("h", (Series.constant(1, 6), zero)),
                        ("momentum_shift", True), ("selection_rule", True)):
        assert spec._replace(**{name: value}) != spec, name
    assert spec != _one_boson_spec(f1=-1, g1=1, g2=1, order=7)
    # assigning or deleting a field raises, so no cache can go stale
    for name in ("n_bosons", "f", "g", "h", "momentum_shift", "selection_rule",
                 "_pieces", "other"):
        with pytest.raises(AttributeError):
            setattr(spec, name, getattr(spec, name))
        with pytest.raises(AttributeError):
            delattr(spec, name)
    # a copy is equal and starts without the cached properties
    for copied in (spec._replace(), DeltaSpec._make(fields), copy.copy(spec),
                   copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert type(copied) is DeltaSpec and copied == spec
        assert "space" not in vars(copied) and "_pieces" not in vars(copied)
    # the four checks of the constructor, which _replace runs again
    for kwargs, message in (
        (dict(n_bosons=0, g=((), ())), "need at least one even generator"),
        (dict(f=(zero,)), "f and h each need exactly two components"),
        (dict(g=((zero, zero), (zero,))), "g must be a 2 x n_bosons array"),
        (dict(h=(Series.constant(1, 6), zero), selection_rule=True),
         "the degree selection rule forces h to vanish"),
    ):
        with pytest.raises(ValueError, match=message):
            spec._replace(**kwargs)


def test_delta_squared_truncation_guard(ex1):
    with pytest.raises(TruncationError):
        delta_squared_check(ex1.delta_spec, ex1.delta_spec.coefficient_order)


def _all_zero(conditions):
    """Every residual series of ``nilpotency_conditions`` is zero."""
    return all(series.is_zero() for group in conditions.values() for series in group.values())


def test_nilpotency_conditions_example1(ex1):
    report = nilpotency_conditions(ex1.delta_spec)
    assert _all_zero(report)
    closure = report["closure"]["i=1"]
    assert closure.order >= 32 and closure.is_zero()
    # with h == 0 the last two condition groups vanish identically
    assert all(s.is_zero() for s in report["h_transport"].values())
    assert all(s.is_zero() for s in report["h_pairing"].values())


def test_nilpotency_conditions_example2_reduce_to_the_ode(ex2):
    report = nilpotency_conditions(ex2.delta_spec)
    assert _all_zero(report)
    # replacing the series solution by something else leaves exactly the
    # ODE residual G'(G + p) - G in the first condition group
    order = 10
    g_bad = one(order) + Series.x(order)  # G = 1 + p
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
    assert report["closure"]["i=1"] == ode_residual
    assert report["closure"]["i=2"] == -1 * ode_residual
    assert report["closure"]["i=3"].is_zero()
    assert not _all_zero(report)


def _nilpotency_oracle(spec):
    """``nilpotency_conditions`` as it summed each condition over the eps
    tables, term by term, before it was written as its three formulas."""
    eps_upper = {(1, 2): 1, (2, 1): -1}  # eps^{ab}, inverse to eps_{ab}
    order = spec.coefficient_order
    shift = 1 if spec.momentum_shift else 0
    p = Series.x(order)
    f, h, gamma = spec.f, spec.h, spec.g
    col = {beta: sum(gamma[beta - 1], Series.zero(order)) for beta in (1, 2)}
    closure = {}
    for i in range(1, spec.n_bosons + 1):
        acc = Series.zero(order - 1)
        for c in (1, 2):
            acc = acc + gamma[c - 1][i - 1] * f[c - 1]
        for (a, b), eps in eps_upper.items():
            acc = acc + eps * (gamma[a - 1][i - 1].derivative() * (col[b] + shift * p))
            if shift:
                acc = acc + eps * shift * gamma[b - 1][i - 1]
        closure[f"i={i}"] = acc
    if shift:
        closure["p-term"] = f[0] + f[1]
    h_transport = {}
    for a in (1, 2):
        for b in (1, 2):
            acc = Series.zero(order - 1)
            for (c, bb), eps in EPS_LOWER.items():
                if bb == b:
                    acc = acc + eps * (f[a - 1] * h[c - 1])
            acc = acc + h[a - 1].derivative() * (col[b] + shift * p)
            h_transport[f"a={a},b={b}"] = acc
    h_pairing = {}
    for i in range(1, spec.n_bosons + 1):
        acc = Series.zero(order)
        for a in (1, 2):
            acc = acc + gamma[a - 1][i - 1] * h[a - 1]
        h_pairing[f"i={i}"] = acc
    if shift:
        h_pairing["p-term"] = h[0] + h[1]
    return {"closure": closure, "h_transport": h_transport, "h_pairing": h_pairing}


def _flat_residuals(conditions):
    """Every residual as (group, label, order, coefficients), in order."""
    return [(group, label, series.order, series.coeffs)
            for group, residuals in conditions.items()
            for label, series in residuals.items()]


@st.composite
def _uneven_specs(draw):
    """1 to 3 even generators, each series of its own order 1 .. 6, with or
    without the shift, and h zero or not."""
    n_bosons = draw(st.integers(1, 3))

    def series(zero=False):
        order = draw(st.integers(1, 6))
        if zero:
            return Series.zero(order)
        return from_coeffs(draw(st.lists(st.integers(-3, 3), min_size=order + 1,
                                         max_size=order + 1)))

    h_zero = draw(st.booleans())
    return DeltaSpec(
        n_bosons=n_bosons,
        f=(series(), series()),
        g=tuple(tuple(series() for _ in range(n_bosons)) for _ in (1, 2)),
        h=(series(h_zero), series(h_zero)),
        momentum_shift=draw(st.booleans()),
    )


@settings(max_examples=150, deadline=None)
@given(_uneven_specs())
def test_nilpotency_conditions_match_the_term_by_term_oracle(spec):
    assert _flat_residuals(nilpotency_conditions(spec)) == _flat_residuals(
        _nilpotency_oracle(spec))


@pytest.mark.parametrize("example, index, value", STRUCTURES)
def test_nilpotency_conditions_match_the_oracle_on_the_seed1_documents(example, index, value):
    """The operator documents of the benchmark's seed-1 mutants workload,
    through a save and a load."""
    ex = build(example, index, value)
    _, spec = document_to_system(json.loads(json.dumps(
        system_to_document(ex.symmetric_system, ex.delta_spec))))
    assert spec == ex.delta_spec
    residuals = nilpotency_conditions(spec)
    assert _flat_residuals(residuals) == _flat_residuals(_nilpotency_oracle(spec))
    assert _all_zero(residuals) == (index is None)


def test_equivalence_of_monomial_scan_and_series_residuals():
    # the scan and the residuals agree on specs that pass and specs that fail
    good = example1_system().delta_spec
    assert delta_squared_check(good, 8).passed
    assert _all_zero(nilpotency_conditions(good))
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
            truncate(series, min(7, series.order)).is_zero()
            for group in residuals.values()
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
        assert not _all_zero(nilpotency_conditions(mutated.delta_spec))


def test_bracket_values_are_always_generator_linear():
    # for operators of this shape the nested commutators cancel every
    # higher-degree term; check a spec with all three pieces active
    spec = _one_boson_spec(
        f1=from_coeffs([1, 2, 0, 1, 0, 0, 0, 0, 0]),
        g1=from_coeffs([1, 1, 1, 0, 0, 0, 0, 0, 0]),
        g2=from_coeffs([2, 0, 1, 1, 0, 0, 0, 0, 0]),
        h1=from_coeffs([0, 1, 0, 1, 0, 0, 0, 0, 0]),
    )
    gens = spec.space.generators
    from itertools import combinations_with_replacement

    for n in range(0, 5):
        for tup in combinations_with_replacement(gens, n):
            if any(a == b and a.parity for a, b in zip(tup, tup[1:])):
                continue
            koszul_bracket(spec, tup)  # must not raise


@pytest.mark.parametrize("n_bosons", [1, 2, 3, 4])
def test_generator_table_is_the_frame_of_the_operator(n_bosons):
    zero = Series.zero(4)
    spec = DeltaSpec(n_bosons, (zero, zero), ((zero,) * n_bosons,) * 2, (zero, zero))
    units = [tuple(int(k == i) for k in range(n_bosons)) for i in range(n_bosons)]
    expected = [(BasisVector("W", f"theta{a}", -1), SuperMonomial((a,), (0,) * n_bosons))
                for a in (1, 2)]
    expected += [(BasisVector("W", f"x{i + 1}", 0), SuperMonomial((), unit))
                 for i, unit in enumerate(units)]
    assert list(spec.generators.items()) == expected
    assert tuple(spec.generators) == spec.space.generators
    # an operator whose one bracket is the generator: D0 = theta_a h^a on
    # (), or D1 = x_i g^i_1 d/dtheta_1 on (theta1,)
    one, theta1 = Series.constant(1, 4), spec.space.generator("theta1")
    for vector, (fermions, bosons) in spec.generators.items():
        if fermions:
            h = (one, zero) if fermions == (1,) else (zero, one)
            only, inputs = spec._replace(h=h), ()
        else:
            row = tuple(one if k else zero for k in bosons)
            only, inputs = spec._replace(g=(row, spec.g[1])), (theta1,)
        assert koszul_bracket(only, inputs) == Element.basis(vector)
    # a valid name with the wrong space id or degree, or an index beyond N
    for foreign in (BasisVector("V", "x1", 0), BasisVector("W", "theta1", 0),
                    BasisVector("W", f"x{n_bosons + 1}", 0)):
        with pytest.raises(ValueError, match="not a generator of the operator's space"):
            koszul_bracket(spec, (foreign,))


# -- bracket extraction against the commutator recursion -------------------------

def _koszul_bracket_oracle(spec, inputs):
    """The nested graded commutators that ``koszul_bracket`` sums in closed
    form: ``[A, L_z](w) = A(z w) - (-1)^(par A * par z) z A(w)``, the operator
    odd, applied to 1.  Its algebra is only ``apply_delta`` and products of
    polynomials, so it applies the operator 2^n times per input sequence."""

    def commute(op, op_parity, z, z_parity):
        sign = 1 if (op_parity and z_parity) else -1

        def bracket(w):
            return op(z * w) + sign * (z * op(w))

        return bracket, (op_parity + z_parity) % 2

    op, parity = (lambda w: apply_delta(spec, w)), 1
    for vector in inputs:
        if vector not in spec.generators:
            raise ValueError(f"{vector!r} is not a generator of the operator's space")
        z = SuperPoly.basis(spec.generators[vector])
        op, parity = commute(op, parity, z, vector.parity)
    return _linear_element(spec, op(SuperPoly.basis(SuperMonomial((), (0,) * spec.n_bosons))))


def _closed_form_bracket(spec, inputs):
    """The nested graded commutators summed in closed form: over the subsets
    T of the odd inputs and the mu <= m, m the multi-index of the even
    inputs, of C(m, mu) (-1)^|m - mu| eps_T theta_out x^(m - mu)
    D(theta_T x^mu).  D's argument multiplies the inputs inside it in input
    order, theta_out the others in reverse input order, and each input left
    outside gives a sign: -1 if even, (-1)^j (a factor of eps_T) if odd with
    j odd inputs before it.  It looks up one image per term, where
    ``koszul_bracket`` looks up one per bracket."""
    thetas, m = [], (0,) * spec.n_bosons
    for vector in inputs:
        if vector not in spec.generators:
            raise ValueError(f"{vector!r} is not a generator of the operator's space")
        fermions, bosons = spec.generators[vector]
        thetas, m = thetas + list(fermions), tuple(map(add, m, bosons))
    # a repeated theta gives sign 0, but D still runs on the split
    splits = [(1, (), ())]
    for j, alpha in enumerate(thetas):
        grown = []
        for sign, inside, outside in splits:
            s_in, t_in = _merge_fermions(inside, (alpha,)) or (0, inside)
            s_out, t_out = _merge_fermions((alpha,), outside) or (0, outside)
            grown += [(sign * s_in, t_in, outside), ((-1) ** j * sign * s_out, inside, t_out)]
        splits = grown
    out = {}
    for sign, inside, outside in splits:
        for mu in product(*(range(k + 1) for k in m)):
            coeff = (-1) ** (sum(m) - sum(mu)) * sign * prod(map(comb, m, mu))
            rest = tuple(k - i for k, i in zip(m, mu))
            image = spec.delta_monomial(SuperMonomial(inside, mu))
            for (fermions, bosons), value in image.items():
                if merged := _merge_fermions(outside, fermions):
                    key = SuperMonomial(merged[1], tuple(map(add, rest, bosons)))
                    out[key] = out.get(key, 0) + merged[0] * coeff * value
    return _linear_element(spec, SuperPoly(spec.n_bosons, out))


def _relation_bracket(spec, fermions, bosons, splits, brackets):
    """Bracket of theta_T x^m from Koszul's relation D(theta_T x^m) = sum over
    the sub-multisets (T', mu) of C(m, mu) eps bracket(theta_T' x^mu)
    theta_(T - T') x^(m - mu), solved for its top term: the one image
    D(theta_T x^m) less the lower brackets' terms.  ``splits`` lists each
    block's splits theta_T = eps theta_T' theta_(T - T') as (T', T - T',
    eps); ``brackets`` keeps each bracket as {(fermions, bosons): coeff}."""
    key = (fermions, bosons)
    if key not in brackets:
        out = dict(spec.delta_monomial(SuperMonomial(fermions, bosons)).items())
        for weight, rest in _derivative_terms(bosons):
            mu = tuple(map(sub, bosons, rest))
            for inner, outer, eps in splits[fermions]:
                if (inner, mu) == key:  # the top term itself
                    continue
                for (f, b), c in _relation_bracket(spec, inner, mu, splits, brackets).items():
                    if merged := _merge_fermions(f, outer):
                        term = merged[1], tuple(map(add, b, rest))
                        out[term] = out.get(term, 0) - merged[0] * eps * weight * c
        brackets[key] = {term: c for term, c in out.items() if c}
    return brackets[key]


def _outcome(bracket, spec, inputs):
    """The bracket's value, or the type of the exception it raises."""
    try:
        return bracket(spec, inputs)
    except (ValueError, TruncationError) as exc:
        return type(exc)


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 4).flatmap(lambda order: operator_specs(2, order=order)), st.data())
def test_koszul_bracket_matches_the_commutator_recursion(spec, data):
    # any order, repeats (repeated thetas too), now and then a foreign vector;
    # more even inputs than the stored order hit the truncation guard
    pool = spec.space.generators + (BasisVector("W", "x3", 0),)
    vectors = st.sampled_from(pool[:-1]) | st.sampled_from(pool)
    for inputs in data.draw(st.lists(st.lists(vectors, max_size=5), min_size=1, max_size=6)):
        expected = _outcome(_koszul_bracket_oracle, spec, inputs)
        assert _outcome(koszul_bracket, spec, inputs) == expected, inputs


@settings(max_examples=40, deadline=None)
@given(operator_specs(2), st.data())
def test_koszul_relation_rebuilds_the_operator(spec, data):
    """Koszul's relation D(a_1 ... a_n) = sum over the subsets I of the input
    positions of eps_I bracket(a_I) a_(I^c), with a_I a_(I^c) = eps_I a_1 ...
    a_n, on every monomial through arity 4, its inputs in a drawn order; on
    the same inputs ``koszul_bracket`` equals the closed form and the
    relation solved for its top term."""
    unit = SuperPoly.basis(SuperMonomial((), (0,) * spec.n_bosons))
    splits = {block: [(a, b, merged[0]) for (a, b), merged in _MERGED.items()
                      if merged and merged[1] == block] for block in SECTORS}
    relation = {}

    def times(vectors):
        return reduce(mul, (SuperPoly.basis(spec.generators[v]) for v in vectors), unit)

    for fermions in SECTORS:
        for bosons in product(range(5), repeat=spec.n_bosons):
            if len(fermions) + sum(bosons) > 4:
                continue
            names = [f"theta{a}" for a in fermions]
            names += [f"x{i + 1}" for i, k in enumerate(bosons) for _ in range(k)]
            inputs = data.draw(st.permutations([spec.space.generator(n) for n in names]))
            total = times(inputs)
            (mono, sign), = total.items()
            rebuilt = SuperPoly(spec.n_bosons)
            for size in range(len(inputs) + 1):
                for inside in combinations(range(len(inputs)), size):
                    outside = [v for k, v in enumerate(inputs) if k not in inside]
                    inside = [inputs[k] for k in inside]
                    eps = sign * dict((times(inside) * times(outside)).items())[mono]
                    value = koszul_bracket(spec, inside)
                    poly = SuperPoly(spec.n_bosons,
                                     {spec.generators[v]: c for v, c in value.items()})
                    rebuilt = rebuilt + eps * (poly * times(outside))
            assert rebuilt == apply_delta(spec, total), names
            solved = _relation_bracket(spec, *mono, splits, relation)
            solved = _linear_element(spec, SuperPoly(spec.n_bosons, {
                SuperMonomial(*term): sign * c for term, c in solved.items()}))
            closed_form = _closed_form_bracket(spec, inputs)
            assert koszul_bracket(spec, inputs) == closed_form == solved, names


def test_koszul_bracket_on_unordered_and_repeated_inputs(ex2):
    spec = ex2.delta_spec
    gen = spec.space.generator
    for names in (("x3", "theta2", "theta1"), ("theta2", "theta2"),
                  ("theta1", "x3"), ("x2", "theta1", "x2"), ("theta2", "x1", "theta1", "x1"),
                  ("theta1", "theta2", "theta1")):
        inputs = tuple(gen(name) for name in names)
        assert koszul_bracket(spec, inputs) == _koszul_bracket_oracle(spec, inputs), names
    with pytest.raises(ValueError):
        koszul_bracket(spec, (BasisVector("V", "x1", 0),))
    # three even inputs need order 3: both raise, repeated thetas or not
    short = _one_boson_spec(g1=1, g2=1, order=2)
    theta1, x1 = short.space.generator("theta1"), short.space.generator("x1")
    for inputs in ((x1,) * 3, (theta1, x1, theta1, x1, x1)):
        for bracket in (koszul_bracket, _koszul_bracket_oracle):
            with pytest.raises(TruncationError):
                bracket(short, inputs)


def _oracle_tables(spec, max_arity):
    entries = [
        (tup, _koszul_bracket_oracle(spec, tup))
        for n in range(max_arity + 1)
        for tup in canonical_tuples(spec.space, SYMMETRIC, n)
    ]
    return BracketSystem.from_entries(spec.space, SYMMETRIC, entries, max_arity)


def test_brackets_from_delta_match_oracle_tables(ex1, ex2):
    for ex, max_arity in ((ex1, 8), (ex2, 6)):
        spec = ex.delta_spec
        rebuilt = brackets_from_delta(spec, max_arity)
        assert rebuilt == _oracle_tables(spec, max_arity)
        assert rebuilt.entry_count() > 0
