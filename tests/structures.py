"""The structures and spec strategy the suite shares; pytest does not collect this module.

A mutant is a builtin example with one coefficient replaced: example1's
C_index or example2's B_index set to ``value``.  ``MUTANTS`` are the values
the benchmark's ``mutants`` workload draws at seed 1, and ``write_seed1``
writes the documents that workload reads, byte for byte.  Both formulations
of a mutant fail at one arity: ``verify``'s first failing arity is the size
of ``delta-check``'s witness.
"""

from pathlib import Path

from linfcheck.builtin import example1_system, example2_system
from linfcheck.document import save_document, system_to_document
from linfcheck.series import Series
from linfcheck.superspace import DeltaSpec, SuperPoly
from series_ops import from_coeffs

# (example, index, value)
MUTANTS = [
    ("example1", 4, -22), ("example1", 5, 7), ("example1", 6, 25),
    ("example2", 2, 22), ("example2", 3, 19), ("example2", 4, -25),
]
# each intact example, then its mutants: the order of the mutants workload
STRUCTURES = [("example1", None, None), *MUTANTS[:3], ("example2", None, None), *MUTANTS[3:]]

# the theta blocks of the operator's algebra, in the order the scans take them
SECTORS = ((), (1,), (2,), (1, 2))


def build(example, index=None, value=None):
    """The builtin ``example``, with coefficient ``index`` set to ``value`` unless it is None."""
    changes = {} if index is None else {index: value}
    if example == "example1":
        return example1_system(c_values=changes)
    return example2_system(b_values=changes)


def write_seed1(directory) -> list[Path]:
    """Write LABEL.jacobi.json and LABEL.operator.json for each of ``STRUCTURES``,
    LABEL as ``example1-intact`` or ``example2-B3``; return DIR/LABEL, in that order."""
    stems = []
    for example, index, value in STRUCTURES:
        label = "intact" if index is None else f"{'C' if example == 'example1' else 'B'}{index}"
        stem = Path(directory) / f"{example}-{label}"
        ex = build(example, index, value)
        save_document(system_to_document(ex.skew_system), f"{stem}.jacobi.json")
        save_document(system_to_document(ex.symmetric_system, ex.delta_spec),
                      f"{stem}.operator.json")
        stems.append(stem)
    return stems


def operator_specs(max_bosons, curved=True, order=4):
    """Hypothesis strategy: specs on 1 to ``max_bosons`` even generators, each
    series with Taylor coefficients in -2..2 through ``order``, the shift on
    or off, and h zero or, when ``curved``, also drawn."""
    # imported here: deep_checks.py imports this module, and each child it
    # spawns starts its peak RSS at its parent's, which hypothesis would raise
    from hypothesis import strategies as st

    @st.composite
    def specs(draw):
        n_bosons = draw(st.integers(1, max_bosons))

        def series():
            return from_coeffs(draw(st.lists(st.integers(-2, 2), min_size=order + 1,
                                             max_size=order + 1)))

        zero = Series.zero(order)
        return DeltaSpec(
            n_bosons=n_bosons,
            f=(series(), series()),
            g=tuple(tuple(series() for _ in range(n_bosons)) for _ in (1, 2)),
            h=(series(), series()) if curved and draw(st.booleans()) else (zero, zero),
            momentum_shift=draw(st.booleans()),
        )

    return specs()


def apply_delta(spec, poly):
    """Image of a polynomial under the operator, one ``delta_monomial`` per
    term: the monomial-level oracle the composed routes are checked against."""
    if poly.n_bosons != spec.n_bosons:
        raise ValueError("polynomial and operator disagree on the even generators")
    out = {}
    for mono, coeff in poly.items():
        for image, value in spec.delta_monomial(mono).items():
            out[image] = out.get(image, 0) + coeff * value
    return SuperPoly(spec.n_bosons, out)
