"""An operator-spec helper that only the tests use."""

from linfcheck.superspace import DeltaSpec

FIELDS = ("n_bosons", "f", "g", "h", "momentum_shift", "selection_rule")


def respec(spec: DeltaSpec, **changes) -> DeltaSpec:
    """A spec with the fields of ``spec`` except ``changes``, built through
    the constructor, so it is checked again and starts with empty tables."""
    return DeltaSpec(**{**{name: getattr(spec, name) for name in FIELDS}, **changes})
