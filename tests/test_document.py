import json

import pytest

from linfcheck.builtin import example1_system, example2_system
from linfcheck.document import (
    document_to_system,
    load_document,
    save_document,
    system_to_document,
)
from linfcheck.errors import DocumentError


@pytest.fixture(scope="module")
def ex1():
    return example1_system()


def test_round_trip_skew(ex1):
    doc = system_to_document(ex1.skew_system)
    system, delta = document_to_system(doc)
    assert system == ex1.skew_system
    assert delta is None


def test_round_trip_symmetric_with_delta(ex1):
    doc = system_to_document(ex1.symmetric_system, ex1.delta_spec)
    system, delta = document_to_system(doc)
    assert system == ex1.symmetric_system
    assert delta == ex1.delta_spec


def test_round_trip_example2_through_a_file(tmp_path):
    ex = example2_system()
    path = tmp_path / "ex2.json"
    save_document(system_to_document(ex.symmetric_system, ex.delta_spec), path)
    system, delta = load_document(path)
    assert system == ex.symmetric_system
    assert delta == ex.delta_spec


def test_rationals_travel_as_strings(ex1):
    doc = system_to_document(ex1.symmetric_system, ex1.delta_spec)
    text = json.dumps(doc)
    coeffs = [
        part["coeff"]
        for entry in doc["brackets"]
        for part in entry["output"]
    ]
    assert all(isinstance(c, str) for c in coeffs)
    assert "-1/2" in text  # a genuinely fractional series coefficient


def test_bad_documents_are_rejected(tmp_path, ex1):
    base = system_to_document(ex1.skew_system)

    wrong_version = dict(base, version="99")
    with pytest.raises(DocumentError):
        document_to_system(wrong_version)

    with pytest.raises(DocumentError):
        document_to_system({"version": "1"})

    float_coeff = json.loads(json.dumps(base))
    float_coeff["brackets"][0]["output"][0]["coeff"] = 0.5
    with pytest.raises(DocumentError):
        document_to_system(float_coeff)

    # strings Fraction reads but the schema's -?[0-9]+(/[0-9]+)? does not; the
    # last would take seconds to parse
    for text in (" 3 ", "3_000", "1.5", "1e5000000"):
        odd_coeff = json.loads(json.dumps(base))
        odd_coeff["brackets"][0]["output"][0]["coeff"] = text
        with pytest.raises(DocumentError, match="bad rational"):
            document_to_system(odd_coeff)

    unknown_gen = json.loads(json.dumps(base))
    unknown_gen["brackets"][0]["inputs"] = ["bogus"]
    with pytest.raises(DocumentError):
        document_to_system(unknown_gen)

    bad_symmetry = dict(base, symmetry="both")
    with pytest.raises(DocumentError):
        document_to_system(bad_symmetry)

    # a space without generators has no tuple to check at any arity
    empty_space = {"version": "1", "space": {"id": "V", "generators": []},
                   "symmetry": "skew", "max_arity": 4, "brackets": []}
    with pytest.raises(DocumentError, match="at least one generator"):
        document_to_system(empty_space)

    # a number where an object belongs, and a bool where an int belongs
    for mangle in (
        lambda d: d["space"]["generators"].__setitem__(0, 5),
        lambda d: d["brackets"][0]["output"].__setitem__(0, 5),
        lambda d: d["brackets"].__setitem__(0, 5),
        lambda d: d.__setitem__("max_arity", True),
        lambda d: d["space"]["generators"][0].__setitem__("degree", False),
    ):
        mangled = json.loads(json.dumps(base))
        mangle(mangled)
        with pytest.raises(DocumentError):
            document_to_system(mangled)

    # the operator flags are JSON booleans, not strings; bosons is an int
    with_delta = system_to_document(ex1.symmetric_system, ex1.delta_spec)
    for key, value in (("momentum_shift", "false"), ("selection_rule", 1),
                       ("bosons", True)):
        mangled = json.loads(json.dumps(with_delta))
        mangled["delta"][key] = value
        with pytest.raises(DocumentError):
            document_to_system(mangled)
    # series coefficients read through the same rule
    series_coeff = json.loads(json.dumps(with_delta))
    series_coeff["delta"]["f"][0][0] = "1.5"
    with pytest.raises(DocumentError, match="bad rational"):
        document_to_system(series_coeff)

    missing = tmp_path / "missing.json"
    with pytest.raises(DocumentError):
        load_document(missing)

    broken = tmp_path / "broken.json"
    broken.write_text("{")
    with pytest.raises(DocumentError):
        load_document(broken)


def test_degree_rule_violations_rejected_at_load(ex1):
    doc = system_to_document(ex1.skew_system)
    # rewire l1(v1) to land in degree 0 instead of 1
    mangled = json.loads(json.dumps(doc))
    for entry in mangled["brackets"]:
        if entry["inputs"] == ["v1"]:
            entry["output"] = [{"gen": "v2", "coeff": "1"}]
    with pytest.raises(DocumentError):
        document_to_system(mangled)


def test_selection_rule_violations_rejected_at_load(ex1):
    doc = system_to_document(ex1.symmetric_system, ex1.delta_spec)
    mangled = json.loads(json.dumps(doc))
    mangled["delta"]["h"][0][0] = "1"  # nonzero h under the selection rule
    with pytest.raises(DocumentError):
        document_to_system(mangled)
