"""JSON interchange for bracket systems and operator data.

Schema (version "1"); rationals travel as strings like "3" or "-5/7",
series as coefficient arrays indexed by power::

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
from fractions import Fraction
from pathlib import Path
from typing import Any

from .brackets import SKEW, SYMMETRIC, BracketSystem
from .errors import DocumentError
from .grading import BasisVector, Element, GradedSpace
from .series import Series
from .superspace import DeltaSpec

SCHEMA_VERSION = "1"


def _coeff_to_json(value: Fraction) -> str:
    return str(Fraction(value))


def _coeff_from_json(value: Any) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise DocumentError(f"coefficients must be exact strings, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"bad rational {value!r}: {exc}") from None
    raise DocumentError(f"bad rational {value!r}")


def _series_to_json(series: Series) -> list[str]:
    return [_coeff_to_json(c) for c in series.coeffs]


def _series_from_json(data: Any) -> Series:
    if not isinstance(data, list) or not data:
        raise DocumentError("a series is a non-empty array of rationals")
    return Series(tuple(_coeff_from_json(c) for c in data))


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
    for n in sorted(system.tables):
        table = system.tables[n]
        for key in sorted(table, key=lambda k: tuple(system.space.index(v) for v in k)):
            output = table[key]
            doc["brackets"].append(
                {
                    "inputs": [v.name for v in key],
                    "output": [
                        {"gen": v.name, "coeff": _coeff_to_json(c)}
                        for v, c in sorted(output.items(), key=lambda vc: vc[0].name)
                    ],
                }
            )
    if delta is not None:
        doc["delta"] = {
            "bosons": delta.n_bosons,
            "momentum_shift": delta.momentum_shift,
            "selection_rule": delta.selection_rule,
            "f": [_series_to_json(s) for s in delta.f],
            "g": [[_series_to_json(s) for s in row] for row in delta.g],
            "h": [_series_to_json(s) for s in delta.h],
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
    try:
        space = GradedSpace(space_id, generators)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None

    symmetry = _require(doc, "symmetry", str)
    if symmetry not in (SKEW, SYMMETRIC):
        raise DocumentError(f"symmetry must be 'skew' or 'symmetric', got {symmetry!r}")
    max_arity = _require(doc, "max_arity", int)

    def lookup(name) -> BasisVector:
        if not isinstance(name, str):
            raise DocumentError(f"generator names must be strings, got {name!r}")
        try:
            return space.generator(name)
        except ValueError as exc:
            raise DocumentError(str(exc)) from None

    entries = []
    for item in _require(doc, "brackets", list):
        inputs = [
            lookup(name)
            for name in _require(item, "inputs", list, "bracket entry")
        ]
        terms: dict[BasisVector, Fraction] = {}
        for part in _require(item, "output", list, "bracket entry"):
            vector = lookup(_require(part, "gen", str, "output term"))
            coeff = _coeff_from_json(_require(part, "coeff", (str, int), "output term"))
            terms[vector] = terms.get(vector, Fraction(0)) + coeff
        entries.append((tuple(inputs), Element(space_id, terms)))
    try:
        system = BracketSystem.from_entries(space, symmetry, entries, max_arity)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None

    delta = None
    if "delta" in doc:
        delta = _delta_from_json(_require(doc, "delta", dict))
    return system, delta


def _delta_from_json(data: dict) -> DeltaSpec:
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
            f=tuple(_series_from_json(s) for s in f),
            g=tuple(tuple(_series_from_json(s) for s in row) for row in g),
            h=tuple(_series_from_json(s) for s in h),
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
    return document_to_system(doc)


def save_document(doc: dict, path: str | Path) -> None:
    try:
        Path(path).write_text(json.dumps(doc, indent=2) + "\n")
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc}") from None
