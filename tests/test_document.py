import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from linfcheck.builtin import example1_system, example2_system
from linfcheck.cli import main
from linfcheck.document import (
    _coeff_from_json,
    document_text,
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

    # an input name after a good one that names no generator, or is not a
    # str (an unhashable one too), and an output name that names none
    for where, name, message in (
        ("inputs", "bogus", "no generator named 'bogus' in 'V'"),
        ("inputs", 1, "generator names must be strings, got 1"),
        ("inputs", ["v1"], r"generator names must be strings, got \['v1'\]"),
        ("inputs", {"v1": 1}, r"generator names must be strings, got \{'v1': 1\}"),
        ("output", "bogus", "no generator named 'bogus' in 'V'"),
    ):
        unknown_gen = json.loads(json.dumps(base))
        entry = unknown_gen["brackets"][0]
        if where == "inputs":
            entry["inputs"] = entry["inputs"][:1] + [name]
        else:
            entry["output"][0]["gen"] = name
        with pytest.raises(DocumentError, match=rf"^{message}$"):
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

    # one bracket entry twice, one copy with no terms, in either order
    first = base["brackets"][0]
    for pair in ([dict(first, output=[]), first], [first, dict(first, output=[])]):
        twice = json.loads(json.dumps(base))
        twice["brackets"][:1] = pair
        with pytest.raises(DocumentError, match=r"^duplicate table entry for \(v1,\)$"):
            document_to_system(twice)

    # a generator name twice, and a delta section of the wrong shape
    duplicate = json.loads(json.dumps(base))
    duplicate["space"]["generators"][1]["name"] = duplicate["space"]["generators"][0]["name"]
    with pytest.raises(DocumentError, match="^duplicate generator names$"):
        document_to_system(duplicate)
    for section, value in (("f", [["1"]]), ("h", [["1"], ["1"], ["1"]]), ("g", [[]])):
        mangled = json.loads(json.dumps(with_delta))
        mangled["delta"][section] = value
        with pytest.raises(DocumentError, match="^delta needs two f series, two h series, "
                                                "two g rows$"):
            document_to_system(mangled)
    g_row = json.loads(json.dumps(with_delta))
    g_row["delta"]["g"][1] = "1"
    with pytest.raises(DocumentError, match="^each g row must be an array of series$"):
        document_to_system(g_row)

    # the top level is an object, and the error names what it got
    for value, kind in (([], "list"), ("{}", "str"), (3, "int"), (None, "NoneType")):
        with pytest.raises(DocumentError, match=f"^document must be a JSON object, got {kind}$"):
            document_to_system(value)

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


# -- coefficient representation ----------------------------------------------------

def test_rationals_load_as_ints_where_integral():
    def read(text):
        return _coeff_from_json(text, "bracket entry 1, output term 1")

    for text, value in (("-0", 0), ("007", 7), ("4/2", 2), ("-6/3", -2), ("0/5", 0), (12, 12)):
        assert type(read(text)) is int and read(text) == value, text
    third = read("1/3")
    assert type(third) is Fraction and third == Fraction(1, 3)
    assert read("-4/6") == Fraction(-2, 3)


def test_loaded_tables_hold_ints_where_integral(tmp_path, ex1):
    doc = system_to_document(ex1.skew_system)
    doc["brackets"][0]["output"][0]["coeff"] = "4/2"
    doc["brackets"][1]["output"][0]["coeff"] = "5/3"
    path = tmp_path / "mixed.json"
    save_document(doc, path)
    system, _ = load_document(path)
    coeffs = [c for output in system.tables.values() for _, c in output.items()]
    assert Fraction(5, 3) in coeffs and 2 in coeffs
    for c in coeffs:
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction), c
    for key, output in system.tables.items():
        assert system.evaluate(key) is output


def test_coefficients_keep_to_the_digit_limit(capsys, tmp_path, ex1):
    """Up to 4,300 digits a side load; more give one short error line that
    names the limit, not the whole value."""
    base = system_to_document(ex1.skew_system)
    for value, code in (("9" * 4300, 1), ("1/" + "7" * 4300, 1),
                        ("9" * 4301, 2), ("9" * 5000, 2), ("1/" + "9" * 5000, 2)):
        doc = json.loads(json.dumps(base))
        doc["brackets"][0]["output"][0]["coeff"] = value
        path = tmp_path / "coeff.json"
        save_document(doc, path)
        assert main(["verify", str(path), "--max-arity", "2"]) == code, len(value)
        err = capsys.readouterr().err
        if code == 2:
            assert len(err.splitlines()) == 1 and err.startswith("error: bad rational")
            assert "4,300 digits" in err and len(err) < 200, err
            assert "set_int_max_str_digits" not in err
        else:
            assert err == ""


@pytest.mark.parametrize("place, value, message", [
    (("brackets", 2, "output", 0, "coeff"), "1/0",
     "bad rational '1/0' in bracket entry 3, output term 1: Fraction(1, 0)"),
    (("brackets", 0, "output", 1, "coeff"), "x",
     "bad rational 'x' in bracket entry 1, output term 2"),
    (("delta", "f", 1, 2), 0.5,
     "coefficients must be exact strings, got 0.5 in delta f[1], coefficient 2"),
    (("delta", "g", 0, 0, 3), "1/0",
     "bad rational '1/0' in delta g[0][0], coefficient 3: Fraction(1, 0)"),
    (("delta", "h", 1, 0), "1.5", "bad rational '1.5' in delta h[1], coefficient 0"),
    (("delta", "g", 0, 0), [], "delta g[0][0]: a series is a non-empty array of rationals"),
    (("delta", "f", 1), "0", "delta f[1]: a series is a non-empty array of rationals"),
])
def test_bad_coefficients_name_their_place(capsys, tmp_path, ex1, place, value, message):
    """A bad coefficient's one error line says which bracket entry and output
    term (counted from 1), or which delta series and power, it stands in; a
    series that is empty or not an array names the series."""
    doc = system_to_document(ex1.symmetric_system, ex1.delta_spec)
    doc["brackets"][0]["output"].append({"gen": "theta1", "coeff": "0"})
    *path, last = place
    parent = doc
    for step in path:
        parent = parent[step]
    parent[last] = value
    file = tmp_path / "coeff.json"
    save_document(doc, file)
    assert main(["delta-check", str(file), "--degree", "2"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_output_terms_off_the_generators_exit_2(capsys, tmp_path, ex1):
    """The loader looks every output name up in the space, so a document
    cannot name a vector that is not a generator."""
    doc = system_to_document(ex1.skew_system)
    doc["brackets"][0]["output"][0]["gen"] = "ghost"
    path = tmp_path / "ghost.json"
    save_document(doc, path)
    assert main(["verify", str(path), "--max-arity", "2"]) == 2
    assert capsys.readouterr().err == "error: no generator named 'ghost' in 'V'\n"


def _indent_2(text):
    """``text`` in the layout documents had before they were written one
    line per entry: ``json.dumps(..., indent=2)``, which the content pins
    below were taken on."""
    return json.dumps(json.loads(text), indent=2) + "\n"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the documents written by ``export <builtin> --formulation <f> -o``
# in json's indent=2 layout; a change to how tables are built or stored must
# not move a byte.  Beside it, the sha256 of the bytes written
EXPORTED = {
    ("example1", "jacobi"): "b9e137e512be2d14257d0a3eb7e7e2d28c26cb62ef0ddde687680f67e44a4c49",
    ("example1", "operator"): "9fbdebf6adee62999f4cfa6a77d323ea0e297eccc3ff1508e020c700a3006aa2",
    ("example2", "jacobi"): "de9e7cacd6b0f7225afbe4c3a5351146fcfc5803573b2c1f9a1bd9b7c1c129e9",
    ("example2", "operator"): "9f0634d85ffb7c6bc9db7bc41d5ae5fae9e0365a2edc118d370d1da0186a0f2a",
}
EXPORTED_BYTES = {
    ("example1", "jacobi"): "e03513f025c08cead510e5979ad5ea9e76b41b36537fef542afe9cdd76d13d68",
    ("example1", "operator"): "b618cfbd11cca14776e62d02d15c5fa145fecfae915a28620ee747ccc46e4e24",
    ("example2", "jacobi"): "0a936c370e6d03e5e9bc0267b5d3988a131aae6ffeea0423826a16168d704076",
    ("example2", "operator"): "d595deb2a64e5a75871ef9c792e74fd85a315dd06d6211e2bb8897ff1ae13f69",
}


@pytest.mark.parametrize("builtin, formulation", sorted(EXPORTED))
def test_exported_documents_are_pinned(capsys, tmp_path, builtin, formulation):
    path = tmp_path / "out.json"
    assert main(["export", builtin, "--formulation", formulation, "-o", str(path)]) == 0
    capsys.readouterr()
    text = path.read_text()
    assert _sha256(_indent_2(text)) == EXPORTED[builtin, formulation]
    assert _sha256(text) == EXPORTED_BYTES[builtin, formulation]


# sha256 of save_document's output, in json's indent=2 layout and as written,
# for structures the exports do not cover: example2 with B_3 replaced, and
# example1 with a Fraction C_5
SAVED_STRUCTURES = {
    "example2-B3": lambda: example2_system(b_values={3: 5}),
    "example1-C5-fraction": lambda: example1_system(c_values={5: Fraction(-7, 3)}),
}
SAVED = {
    ("example2-B3", "jacobi"): "1e968527c180b5dfb3b1c9ca6b4e80a4502ecd832489941f4b458fd217a2cf02",
    ("example2-B3", "operator"): "baeaeb524cc2ebcc48d239e2c6ff4e2236304b57a854ec5eb3c952228d4b30d9",
    ("example1-C5-fraction", "jacobi"):
        "e82db799d230fa1e026df98142fee55ee745880d1ce92918d5b87ad0257b25ae",
    ("example1-C5-fraction", "operator"):
        "6cfd2bdc35f7039d4818e76dfca585ed8766b09cebcf755ce7d4f69d97fd8817",
}
SAVED_BYTES = {
    ("example2-B3", "jacobi"): "0b85436d547c47db54426ae2952f99222d9b4f7dcd6fa002417bcb66522a684e",
    ("example2-B3", "operator"): "a80408e317d2c140b7b7dd7c46070d9149c0fb96dad5f394369b884f38026cee",
    ("example1-C5-fraction", "jacobi"):
        "e1b175aa4c78695123c1af4ab36cf6cd20182ac82a22db45578c480ff531b2ee",
    ("example1-C5-fraction", "operator"):
        "4e5d380a7daf1cec891895747f3bfc047657c59e47a4ce40f94878479030a803",
}


@pytest.mark.parametrize("structure, formulation", sorted(SAVED))
def test_saved_documents_are_pinned(tmp_path, structure, formulation):
    ex = SAVED_STRUCTURES[structure]()
    doc = (system_to_document(ex.skew_system) if formulation == "jacobi"
           else system_to_document(ex.symmetric_system, ex.delta_spec))
    path = tmp_path / "saved.json"
    save_document(doc, path)
    text = path.read_text()
    assert _sha256(_indent_2(text)) == SAVED[structure, formulation]
    assert _sha256(text) == SAVED_BYTES[structure, formulation]


# sha256 of ``delta-check --json`` on operator documents whose series have
# non-integral Taylor coefficients: the report a failing check prints, pinned
# when series stored their power coefficients
NON_INTEGRAL_REPORTS = {
    "example1-C5-fraction":
        ("8", "d7c9cdb24756e6f749625e4277af0f0958ec3b52ca19bfb13f79aa3208317bcc"),
    "example2-g-fractions":
        ("6", "9d04a4aa137499faae13d00836a26ecf3705cca8310540ac6fc7f52e7f6c909e"),
}


def _non_integral_document(structure):
    if structure == "example1-C5-fraction":  # b_2(4) = -7/3 in the theta sector
        ex = SAVED_STRUCTURES[structure]()
        return system_to_document(ex.symmetric_system, ex.delta_spec)
    ex = example2_system()
    doc = system_to_document(ex.symmetric_system, ex.delta_spec)
    doc["delta"]["g"][0][0][3] = "1/7"  # Taylor coefficient 6/7
    doc["delta"]["g"][1][1][5] = "-5/9"  # Taylor coefficient -200/3
    return doc


@pytest.mark.parametrize("structure", sorted(NON_INTEGRAL_REPORTS))
def test_non_integral_taylor_coefficients_keep_their_report(capsys, tmp_path, structure):
    path = tmp_path / "operator.json"
    save_document(_non_integral_document(structure), path)
    degree, digest = NON_INTEGRAL_REPORTS[structure]
    assert main(["delta-check", str(path), "--degree", degree, "--json"]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    spec = load_document(path)[1]
    assert any(type(t) is Fraction for s in spec.g[0] + spec.g[1] for t in s.taylor_coeffs)


def test_deeply_nested_documents_exit_2(capsys, tmp_path, ex1):
    """A document nested past the JSON reader's recursion limit is a
    document error, not an internal one; one nested just below it loads and
    is rejected by the schema."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(DocumentError, match="nested too deeply"):
        load_document(deep)
    doc = system_to_document(ex1.symmetric_system, ex1.delta_spec)
    doc["delta"]["f"][0] = json.loads("[" * 500 + "]" * 500)
    below = tmp_path / "below.json"
    save_document(doc, below)
    for command in ("verify", "delta-check", "compare"):
        for path, message in ((deep, "is nested too deeply"), (below, "delta f[0]")):
            assert main([command, str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err, err


def _json_paths(node, path=()):
    """Every node of a JSON document as its path of keys and indices."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in children:
        yield from _json_paths(child, path + (key,))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.text(max_size=3)
    | st.sampled_from(["0", "1", "-1/2", "3/0", "theta1", "x1", "v1", "w1", "skew"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=2),
    max_leaves=4,
)


# _JSON_VALUES widened with what a writer can get wrong: any text (non-ASCII,
# quotes, backslashes, control characters), ints past 2**64, floats, nested
# empty containers and tuples; keys are str, as in every document
_ESCAPES = st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600a ', max_size=6)
_WRITER_VALUES = st.recursive(
    _JSON_VALUES | st.text() | _ESCAPES | st.integers() | st.integers(2**64 - 2, 2**200)
    | st.integers(-2**200, -2**64) | st.floats()
    | st.sampled_from([[], {}, [[]], [{}], {"": []}, {"a": {"b": []}}, ()]),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=3) | _ESCAPES, inner, max_size=3),
    max_leaves=12,
)


def _document_text_oracle(value, depth=0):
    """The layout, written out by nesting depth: the members of a non-empty
    dict or list at depth 0 or 1 on lines of their own, indented two spaces
    a level; any other value as ``json.dumps`` writes it."""
    if depth == 2 or not isinstance(value, (dict, list)) or not value:
        return json.dumps(value)
    if isinstance(value, dict):
        members = [json.dumps(key) + ": " + _document_text_oracle(item, depth + 1)
                   for key, item in value.items()]
    else:
        members = [_document_text_oracle(item, depth + 1) for item in value]
    indent = "\n" + "  " * depth
    ends = "{}" if isinstance(value, dict) else "[]"
    return ends[0] + indent + "  " + f",{indent}  ".join(members) + indent + ends[1]


@settings(max_examples=500, deadline=None)
@given(_WRITER_VALUES)
def test_document_text_is_its_layout_of_json_dumps(value):
    """Written in the layout, and the same value: re-indented, the text is
    ``json.dumps(value, indent=2)`` exactly."""
    text = document_text(value)
    assert text == _document_text_oracle(value)
    assert json.dumps(json.loads(text), indent=2) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [{1: "a"}, {"a": {None: []}}, [{"a": 1, True: 2}]])
def test_document_text_rejects_keys_that_are_not_str(value):
    """json.dumps writes such a key bare, as ``1``, ``null`` or ``true``,
    which is not JSON."""
    with pytest.raises(TypeError, match="document keys must be str"):
        document_text(value)


def test_document_text_on_deep_and_exported_values():
    """The 500-deep list is one json.dumps call below the second level.  An
    export to stdout prints the bytes that ``-o`` writes: one line per
    top-level field, per ``space`` and ``delta`` field and per bracket entry."""
    deep = json.loads("[" * 500 + "]" * 500)
    assert document_text(deep) == "[\n  [\n    " + json.dumps(deep[0][0]) + "\n  ]\n]"
    for (builtin, formulation), digest in EXPORTED.items():
        text = _exported(builtin, formulation)
        assert _sha256(text) == EXPORTED_BYTES[builtin, formulation]
        assert _sha256(_indent_2(text)) == digest
        doc = json.loads(text)
        lines = [f"    {json.dumps(entry)}," for entry in doc["brackets"]]
        lines[-1] = lines[-1][:-1]
        assert lines == text.splitlines()[9:9 + len(lines)]
        fields = len(doc) + len(doc["space"]) + len(doc.get("delta", ()))
        # "{", a line per field and per entry, and the closing lines of
        # space, brackets, delta (if present) and the document
        closing = 3 + ("delta" in doc)
        assert len(text.splitlines()) == 1 + fields + len(lines) + closing


def test_readme_schema_example_is_in_the_written_layout():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme[readme.index("## Document schema"):]
    example = section[section.index("```json\n") + 8:section.index("```\n")]
    assert document_text(json.loads(example)) + "\n" == example


@cache
def _exported(builtin, formulation):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["export", builtin, "--formulation", formulation]) == 0
    return out.getvalue()


@pytest.mark.parametrize("builtin, formulation", sorted(EXPORTED))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_changed_node_gives_a_verdict_or_exit_2(tmp_path, builtin, formulation, data):
    """Replace, delete or duplicate one node of an exported document: every
    command gives a verdict (exit 0 or 1) or one error line with exit 2,
    never an internal error."""
    doc = json.loads(_exported(builtin, formulation))
    *where, last = data.draw(st.sampled_from(list(_json_paths(doc))[1:]))
    parent = doc
    for step in where:
        parent = parent[step]
    change = data.draw(st.sampled_from(("replace", "delete", "duplicate")))
    if change == "replace":
        parent[last] = data.draw(_JSON_VALUES)
    elif change == "delete":
        del parent[last]
    elif isinstance(parent, list):
        parent.insert(last, json.loads(json.dumps(parent[last])))
    else:
        parent[last + "_"] = parent[last]
    path = tmp_path / "changed.json"
    save_document(doc, path)
    for argv in (["verify", "--max-arity", "4"], ["delta-check", "--degree", "3"],
                 ["compare", "--max-arity", "4"]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([argv[0], str(path), *argv[1:]])
        message = err.getvalue()
        assert "internal error" not in message, (argv, message)
        if code == 2:
            assert message.startswith("error: ") and message.count("\n") == 1, message
        else:
            assert code in (0, 1) and ("PASS" if code == 0 else "FAIL") in out.getvalue()
