import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linfcheck.builtin import example1_system, example2_system
from linfcheck.cli import main
from linfcheck.document import load_document, save_document, system_to_document
from linfcheck.errors import DocumentError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_builtin_passes(capsys):
    code, out, _ = run(capsys, "verify", "example1", "--max-arity", "8")
    assert code == 0
    assert "PASS" in out


def test_verify_mutated_document_fails_with_counterexample(capsys, tmp_path):
    mutated = example1_system(c_values={4: 1})
    path = tmp_path / "mutated.json"
    save_document(system_to_document(mutated.skew_system), path)
    code, out, _ = run(capsys, "verify", str(path), "--max-arity", "4")
    assert code == 1
    assert "v1, v2, w, w" in out


def test_verify_zero_system_passes(capsys, tmp_path):
    doc = {
        "version": "1",
        "space": {"id": "V", "generators": [{"name": "a", "degree": 0}]},
        "symmetry": "skew",
        "max_arity": 6,
        "brackets": [],
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0


def test_verify_rejects_symmetric_document(capsys, tmp_path):
    ex = example1_system()
    path = tmp_path / "sym.json"
    save_document(system_to_document(ex.symmetric_system), path)
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "skew" in err


def test_parse_failure_exits_2(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("not json at all")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "error" in err


def test_usage_error_exits_2(capsys, tmp_path):
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2
    code, _, _ = run(capsys, "coefficients", "c1", "2")
    assert code == 2  # below the first defined index
    # a bound that checks nothing is a usage error, not a pass
    doc = system_to_document(example1_system().skew_system)
    doc.update(max_arity=0, brackets=[])
    path = tmp_path / "arity0.json"
    save_document(doc, path)
    for argv in (
        ("verify", "example1", "--max-arity", "0"),
        ("verify", str(path), "--max-arity", "8"),  # clamped to the document's 0
        ("compare", "example1", "--max-arity", "-1"),
        ("delta-check", "example1", "--degree", "-5"),
        ("coefficients", "lambert", "0"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "checks nothing" in err, argv
    # document I/O errors name the file and are not internal errors
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"version": "1", "space": "\xe9"}')
    unwritable = tmp_path / "no-such-dir" / "x.json"
    for argv, path, fragment in (
        (("export", "example1", "-o", str(unwritable)), unwritable, "cannot write"),
        (("verify", str(latin1)), latin1, "is not UTF-8 text"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert str(path) in err and fragment in err, argv
        assert "internal error" not in err, argv


def test_delta_check_builtins(capsys):
    code, out, _ = run(capsys, "delta-check", "example1", "--degree", "12")
    assert code == 0
    assert "PASS" in out
    code, out, _ = run(capsys, "delta-check", "example2", "--degree", "10")
    assert code == 0


def test_delta_check_mutated_fails_with_witness(capsys, tmp_path):
    mutated = example2_system(b_values={2: 1})
    path = tmp_path / "mutated2.json"
    save_document(
        system_to_document(mutated.symmetric_system, mutated.delta_spec), path
    )
    code, out, _ = run(capsys, "delta-check", str(path), "--degree", "5")
    assert code == 1
    assert "theta1*theta2" in out


def test_delta_check_requires_operator_data(capsys, tmp_path):
    ex = example1_system()
    path = tmp_path / "nodelta.json"
    save_document(system_to_document(ex.symmetric_system), path)
    code, _, err = run(capsys, "delta-check", str(path))
    assert code == 2


def test_compare_builtins(capsys):
    code, out, _ = run(capsys, "compare", "example1", "--max-arity", "8")
    assert code == 0
    code, out, _ = run(capsys, "compare", "example2", "--max-arity", "6")
    assert code == 0


def test_compare_zeroed_delta_fails(capsys, tmp_path):
    ex = example1_system()
    doc = system_to_document(ex.symmetric_system, ex.delta_spec)
    order = len(doc["delta"]["f"][0]) - 1
    zero = ["0"] * (order + 1)
    doc["delta"]["f"] = [list(zero), list(zero)]
    doc["delta"]["g"] = [[list(zero)], [list(zero)]]
    doc["delta"]["h"] = [list(zero), list(zero)]
    path = tmp_path / "zeroed.json"
    save_document(doc, path)
    code, out, _ = run(capsys, "compare", str(path), "--max-arity", "4")
    assert code == 1
    assert "FAIL" in out


def test_coefficients_tables(capsys):
    code, out, _ = run(capsys, "coefficients", "b", "4")
    assert code == 0
    assert [line.split("\t")[1] for line in out.strip().splitlines()] == [
        "1", "1", "-1", "4", "-27",
    ]
    code, out, _ = run(capsys, "coefficients", "lambert", "3")
    assert [line.split("\t")[1] for line in out.strip().splitlines()] == [
        "1", "-2", "9",
    ]


def test_coefficients_check_routes(capsys):
    for which, n in (("c1", "12"), ("c2", "10"), ("b", "10"), ("lambert", "10")):
        code, out, _ = run(capsys, "coefficients", which, n, "--check")
        assert code == 0, which
        assert "PASS" in out


def test_json_reports_are_machine_readable(capsys):
    code, out, _ = run(capsys, "verify", "example1", "--json")
    payload = json.loads(out)
    assert payload["pass"] is True and payload["command"] == "verify"
    code, out, _ = run(capsys, "delta-check", "example1", "--degree", "6", "--json")
    payload = json.loads(out)
    assert payload["pass"] is True
    assert "closure" in payload["residuals"]
    code, out, _ = run(capsys, "coefficients", "b", "4", "--json")
    payload = json.loads(out)
    assert payload["values"]["4"] == "-27"


def test_export_round_trip(capsys, tmp_path):
    path = tmp_path / "ex1.json"
    code, out, _ = run(capsys, "export", "example1", "-o", str(path))
    assert code == 0
    system, delta = load_document(path)
    ex = example1_system()
    assert system == ex.symmetric_system
    assert delta == ex.delta_spec
    # the exported document drives every other command
    code, _, _ = run(capsys, "compare", str(path), "--max-arity", "6")
    assert code == 0
    code, _, _ = run(capsys, "delta-check", str(path), "--degree", "6")
    assert code == 0

    jac = tmp_path / "ex1-skew.json"
    code, _, _ = run(capsys, "export", "example1", "--formulation", "jacobi", "-o", str(jac))
    assert code == 0
    system, delta = load_document(jac)
    assert system == ex.skew_system and delta is None
    code, _, _ = run(capsys, "verify", str(jac), "--max-arity", "6")
    assert code == 0


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _paths(child, prefix + (key,))


_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["", "0", "1", "-1/2", "1/0", "v1", "w", "theta1", "x1", "skew"]),
    st.just([]),
    st.just({}),
)


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    ex = example1_system(order=6)
    return tmp_path_factory.mktemp("fuzz"), {
        "jacobi": system_to_document(ex.skew_system),
        "operator": system_to_document(ex.symmetric_system, ex.delta_spec),
    }


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_documents_keep_the_exit_code_contract(exported, data):
    workdir, docs = exported
    formulation = data.draw(st.sampled_from(sorted(docs)))
    doc = json.loads(json.dumps(docs[formulation]))
    path = data.draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_JSON_VALUES)
    target = workdir / f"{formulation}.json"
    target.write_text(json.dumps(doc))
    try:
        load_document(target)
        loaded = True
    except DocumentError:
        loaded = False
    argv = (["verify", str(target), "--max-arity", "3"] if formulation == "jacobi"
            else ["delta-check", str(target), "--degree", "3"])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert "internal error" not in err.getvalue(), err.getvalue()
    assert code != 1 or loaded
