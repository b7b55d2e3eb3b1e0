"""JSON interchange for bracket systems and operator data.

Schema (version "1"); rationals travel as JSON integers or as strings of
the form -?[0-9]+(/[0-9]+)? such as "3" or "-5/7", series as coefficient
arrays indexed by power::

    {
      "version": "1",
      "space": {"id": "V", "generators": [{"name": "v1", "degree": 0}, ...]},
      "symmetry": "skew" | "symmetric",
      "max_arity": 10,
      "brackets": [
        {"inputs": ["v1", "v2"], "output": [{"gen": "v1", "coeff": "1"}]},
        ...
      ],
      "delta": {                      # optional
        "bosons": 1,
        "momentum_shift": false,
        "selection_rule": true,
        "f": [series, series],
        "g": [[series, ...], [series, ...]],   # g[a-1][i-1]
        "h": [series, series]
      }
    }
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .brackets import SKEW, SYMMETRIC, BracketSystem, canonical_order
from .errors import DocumentError
from .grading import BasisVector, Element, GradedSpace, Rational, int_if_integral

if TYPE_CHECKING:  # the operator modules load only for a "delta" section
    from .series import Series
    from .superspace import DeltaSpec

SCHEMA_VERSION = "1"
_name = attrgetter("name")
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _coeff_from_json(value: Any, where: str, *at) -> Rational:
    """An int, or a normalised Fraction when the value is not integral; an
    error names the value and where it stands, ``where % at``, built only then."""
    if isinstance(value, bool) or isinstance(value, float):
        raise DocumentError(f"coefficients must be exact strings, got {value!r} in {where % at}")
    if isinstance(value, int):
        return value
    # the pattern keeps out " 3 ", "3_000", "1.5" and "1e5000000" (seconds for
    # Fraction); on the schema's forms int's digit limit applies
    if not (isinstance(value, str) and _RATIONAL.fullmatch(value)):
        raise DocumentError(f"bad rational {value!r} in {where % at}")
    numerator, _, denominator = value.partition("/")
    try:
        if not denominator:
            return int(numerator)
        return int_if_integral(Fraction(int(numerator), int(denominator)))
    except ZeroDivisionError as exc:
        raise DocumentError(f"bad rational {value!r} in {where % at}: {exc}") from None
    except ValueError:  # int's digit limit: show only the start of the value
        raise DocumentError(f"bad rational '{value[:20]}...' ({len(value):,} characters) in "
                            f"{where % at}: more than {sys.get_int_max_str_digits():,} digits "
                            "on a side of the '/'") from None


def _series_to_json(series: Series, where: str) -> list[str]:
    coeffs: list[str] = []
    try:
        for c in series.coeffs:
            coeffs.append(str(c))
    except ValueError:  # int's digit limit on printing: name the first value past it
        raise ValueError(f"{where}, coefficient {len(coeffs)}, has more than "
                         f"{sys.get_int_max_str_digits():,} digits on a side of the '/'") from None
    return coeffs


def _series_from_json(data: Any, where: str) -> Series:
    from .series import Series

    if not isinstance(data, list) or not data:
        raise DocumentError(f"{where}: a series is a non-empty array of rationals")
    return Series(_coeff_from_json(c, "%s, coefficient %d", where, k) for k, c in enumerate(data))


def system_to_document(
    system: BracketSystem, delta: DeltaSpec | None = None
) -> dict:
    doc: dict[str, Any] = {
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
    brackets, tables = doc["brackets"], system.tables
    for key in canonical_order(system.space, tables):
        terms = tables[key].items()
        if len(terms) > 1:
            terms = sorted(terms, key=lambda vc: vc[0].name)
        brackets.append({"inputs": list(map(_name, key)),
                         "output": [{"gen": v.name, "coeff": str(c)} for v, c in terms]})
    if delta is not None:
        doc["delta"] = {
            "bosons": delta.n_bosons,
            "momentum_shift": delta.momentum_shift,
            "selection_rule": delta.selection_rule,
            "f": [_series_to_json(s, f"delta f[{a}]") for a, s in enumerate(delta.f)],
            "g": [[_series_to_json(s, f"delta g[{a}][{i}]") for i, s in enumerate(row)]
                  for a, row in enumerate(delta.g)],
            "h": [_series_to_json(s, f"delta h[{a}]") for a, s in enumerate(delta.h)],
        }
    return doc


def _require(doc: Any, key: str, kind, where: str = "document") -> Any:
    if not isinstance(doc, dict):
        raise DocumentError(f"{where} must be a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise DocumentError(f"{where} is missing the {key!r} field")
    value = doc[key]
    kinds = kind if isinstance(kind, tuple) else (kind,)
    # JSON true/false load as bool, a subclass of int
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        names = "/".join(k.__name__ for k in kinds)
        raise DocumentError(f"{where} field {key!r} must be {names}")
    return value


def _flag(data: dict, key: str) -> bool:
    """An optional boolean field of the delta section, False when absent."""
    return _require(data, key, bool, "delta") if key in data else False


def document_to_system(doc: dict) -> tuple[BracketSystem, DeltaSpec | None]:
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
    if not generators:  # no tuple to check at any arity
        raise DocumentError("space needs at least one generator")
    try:
        space = GradedSpace(space_id, generators)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None

    symmetry = _require(doc, "symmetry", str)
    if symmetry not in (SKEW, SYMMETRIC):
        raise DocumentError(f"symmetry must be 'skew' or 'symmetric', got {symmetry!r}")
    max_arity = _require(doc, "max_arity", int)

    by_name = space._by_name.__getitem__

    def lookup(name) -> BasisVector:
        """The generator named ``name``, which ``by_name`` missed; a miss raises."""
        if not isinstance(name, str):
            raise DocumentError(f"generator names must be strings, got {name!r}")
        return space.generator(name)  # its ValueError becomes a DocumentError below

    entries = []
    try:
        for number, item in enumerate(_require(doc, "brackets", list), 1):
            names = _require(item, "inputs", list, "bracket entry")
            try:
                inputs = tuple(map(by_name, names))
            except (KeyError, TypeError):  # a TypeError is an unhashable name
                inputs = tuple(map(lookup, names))
            terms: dict[BasisVector, Rational] = {}
            for term, part in enumerate(_require(item, "output", list, "bracket entry"), 1):
                name = _require(part, "gen", str, "output term")
                try:
                    vector = by_name(name)
                except KeyError:
                    vector = lookup(name)
                coeff = _coeff_from_json(_require(part, "coeff", (str, int), "output term"),
                                         "bracket entry %d, output term %d", number, term)
                terms[vector] = terms.get(vector, 0) + coeff
            # names and coefficients are checked above, the rest by from_entries
            entries.append((inputs, Element._from_exact(space_id, terms)))
        system = BracketSystem.from_entries(space, symmetry, entries, max_arity)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None

    delta = None
    if "delta" in doc:
        delta = _delta_from_json(_require(doc, "delta", dict))
    return system, delta


def _delta_from_json(data: dict) -> DeltaSpec:
    from .superspace import DeltaSpec

    n_bosons = _require(data, "bosons", int, "delta")
    f = _require(data, "f", list, "delta")
    g = _require(data, "g", list, "delta")
    h = _require(data, "h", list, "delta")
    if len(f) != 2 or len(h) != 2 or len(g) != 2:
        raise DocumentError("delta needs two f series, two h series, two g rows")
    if not all(isinstance(row, list) for row in g):
        raise DocumentError("each g row must be an array of series")
    try:
        return DeltaSpec(
            n_bosons=n_bosons,
            f=tuple(_series_from_json(s, f"delta f[{a}]") for a, s in enumerate(f)),
            g=tuple(tuple(_series_from_json(s, f"delta g[{a}][{i}]") for i, s in enumerate(row))
                    for a, row in enumerate(g)),
            h=tuple(_series_from_json(s, f"delta h[{a}]") for a, s in enumerate(h)),
            momentum_shift=_flag(data, "momentum_shift"),
            selection_rule=_flag(data, "selection_rule"),
        )
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def load_document(path: str | Path) -> tuple[BracketSystem, DeltaSpec | None]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError:
        raise DocumentError(f"{path} is not UTF-8 text") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from None
    except ValueError:  # int's limit on the digits of a JSON integer
        raise DocumentError(f"{path} holds a number with too many digits") from None
    except RecursionError:
        raise DocumentError(f"{path} is nested too deeply") from None
    return document_to_system(doc)


def document_text(doc: dict) -> str:
    """``doc`` as JSON text, one line per member of the document object and
    of the objects and arrays directly inside it, indented by two spaces:
    one line per top-level field, per ``space`` and ``delta`` field and per
    bracket entry.  Each deeper value is one ``json.dumps`` call."""
    return _members(doc, "\n", lambda value: _members(value, "\n  ", json.dumps))


def _members(value: Any, newline: str, write) -> str:
    """A dict or list with each member on a line of its own, written by
    ``write`` and indented two spaces past ``newline``; any other value is
    ``json.dumps``'s.  A key that is not a str is a TypeError, not a bare
    ``1`` or ``null`` key, which is not JSON."""
    if isinstance(value, dict):
        if bad := [key for key in value if type(key) is not str]:
            raise TypeError(f"document keys must be str, got {bad[0]!r}")
        members, ends = [f"{json.dumps(key)}: {write(item)}" for key, item in value.items()], "{}"
    elif isinstance(value, list):
        members, ends = list(map(write, value)), "[]"
    else:
        return json.dumps(value)
    if not members:
        return ends
    inner = newline + "  "
    return ends[0] + inner + ("," + inner).join(members) + newline + ends[1]


def save_document(doc: dict, path: str | Path) -> None:
    try:
        Path(path).write_text(document_text(doc) + "\n")
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc}") from None
