import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import linfcheck
from linfcheck import builtin, cli, series, superspace
from linfcheck.builtin import b_closed, example1_system, example2_system
from linfcheck.cli import main
from linfcheck.document import load_document, save_document, system_to_document
from linfcheck.superspace import DeltaSpec
import startup
from structures import STRUCTURES, build


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
    # the JSON names the inner splits that carry the defect; they sum to it
    code, out, _ = run(capsys, "verify", str(path), "--max-arity", "4", "--json")
    (failure,) = [check for check in json.loads(out)["arities"] if not check["ok"]]
    assert (code, failure["counterexample"]) == (1, ["v1", "v2", "w", "w"])
    assert failure["summands"] == {"1": "w", "2": "2*w", "3": "-w"}
    assert failure["defect"] == "2*w"


def _arity_results(capsys, path):
    code, out, _ = run(capsys, "verify", str(path), "--max-arity", "6", "--json")
    arities = json.loads(out)["arities"]
    return code, [check["ok"] for check in arities], \
        {check["arity"]: check["tuples"] for check in arities if check["ok"]}


@pytest.mark.parametrize("example, index, value", STRUCTURES)
def test_verify_does_not_depend_on_the_generator_order(capsys, tmp_path, example, index, value):
    """Listing the generators of a skew document in another order is a change
    of basis, and changes no verdict.  The entries stay as written, so most
    keys are out of order in the new basis and are sorted, with their signs,
    on loading.  A passing arity checks the same number of canonical tuples,
    which depends only on the degrees; a failing one may stop at another."""
    doc = system_to_document(build(example, index, value).skew_system)
    path = tmp_path / "doc.json"
    save_document(doc, path)
    expected = _arity_results(capsys, path)
    assert expected[0] == (0 if index is None else 1)
    generators = doc["space"]["generators"]
    rng = random.Random(f"{example}{index}")
    for _ in range(3):
        shuffled = generators[:]
        while shuffled == generators:
            rng.shuffle(shuffled)
        save_document(dict(doc, space=dict(doc["space"], generators=shuffled)), path)
        assert _arity_results(capsys, path) == expected, shuffled


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


@pytest.mark.parametrize("degrees, tuples", [((1,), [1] * 12), ((1, 3), list(range(2, 12)))],
                         ids=["one", "two"])
def test_verify_odd_generators_without_brackets_pass(capsys, tmp_path, degrees, tuples):
    # every tuple of odd generators is canonical: (w1, ..., w1) alone on one,
    # n + 1 tuples of arity n on two; every nested term of a tuple's 2^n
    # unshuffles is zero, and the scan is exponential in the arity here, so
    # keep such documents at or below arity 16 on one generator, 14 on two
    max_arity = len(tuples)
    generators = [{"name": f"w{k}", "degree": d} for k, d in enumerate(degrees, 1)]
    doc = {"version": "1", "space": {"id": "V", "generators": generators},
           "symmetry": "skew", "max_arity": max_arity, "brackets": []}
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path), "--max-arity", str(max_arity), "--json")
    report = json.loads(out)
    assert (code, report["pass"], report["max_arity"]) == (0, True, max_arity)
    assert report["arities"] == [{"arity": n, "ok": True, "tuples": count}
                                 for n, count in enumerate(tuples, 1)]


def test_verify_on_a_space_without_generators_is_a_usage_error(capsys, tmp_path):
    doc = {"version": "1", "space": {"id": "V", "generators": []},
           "symmetry": "skew", "max_arity": 4, "brackets": []}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    for flags in ((), ("--json",)):
        code, out, err = run(capsys, "verify", str(path), *flags)
        assert (code, out) == (2, ""), flags
        assert err.startswith("error:") and "at least one generator" in err


def test_verify_ignores_arity_zero_entries(capsys, tmp_path):
    # l0 = c (c of degree 2) could pair with l2(a, c) = c into an arity-1
    # term on (a); the Jacobi sum starts at inner arity 1, so the only
    # failure is l2(a, l1(b)) on (a, b)
    doc = {
        "version": "1",
        "space": {"id": "V", "generators": [
            {"name": "a", "degree": 0}, {"name": "b", "degree": 1}, {"name": "c", "degree": 2}]},
        "symmetry": "skew",
        "max_arity": 4,
        "brackets": [
            {"inputs": [], "output": [{"gen": "c", "coeff": "1"}]},
            {"inputs": ["a", "c"], "output": [{"gen": "c", "coeff": "1"}]},
            {"inputs": ["b"], "output": [{"gen": "c", "coeff": "1"}]},
        ],
    }
    path = tmp_path / "arity0.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path), "--max-arity", "4")
    assert (code, out) == (1, (
        "arity 1: ok (3 tuples)\n"
        "arity 2: FAIL on (a, b): defect = -c\n"
        "arity 3: ok (4 tuples)\n"
        "arity 4: ok (4 tuples)\n"
        "FAIL: at least one Jacobi identity is violated\n"))


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
    # a document carries its own series orders; --order would be ignored
    operator_doc = tmp_path / "operator.json"
    save_document(system_to_document(example1_system().symmetric_system,
                                     example1_system().delta_spec), operator_doc)
    code, out, err = run(capsys, "delta-check", str(operator_doc), "--order", "10")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "--order" in err
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
    # a JSON integer past int's digit limit
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(system_to_document(example1_system().skew_system))
                    .replace('"max_arity": 10', '"max_arity": ' + "9" * 5000))
    for argv, path, fragment in (
        (("export", "example1", "-o", str(unwritable)), unwritable, "cannot write"),
        (("verify", str(latin1)), latin1, "is not UTF-8 text"),
        (("verify", str(huge)), huge, "too many digits"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1 and err.startswith("error:"), argv
        assert str(path) in err and fragment in err, argv
        assert "internal error" not in err and "set_int_max_str_digits" not in err, argv


def test_compare_on_a_curved_operator_is_a_document_error(capsys, tmp_path):
    # example1's operator with selection_rule false and h^1 = 1 (the
    # delta-check-curved golden document) or h^1 = P^5
    ex = example1_system()
    paths = {}
    for power in (0, 5):
        doc = system_to_document(ex.symmetric_system, ex.delta_spec)
        doc["delta"]["selection_rule"] = False
        doc["delta"]["h"][0] = ["1" if m == power else "0"
                                for m in range(len(doc["delta"]["h"][0]))]
        paths[power] = tmp_path / f"curved{power}.json"
        save_document(doc, paths[power])
    for power, tup in ((0, "()"), (5, "(x1, x1, x1, x1, x1)")):
        code, out, err = run(capsys, "compare", str(paths[power]), "--max-arity", "8")
        assert (code, out) == (2, ""), power
        assert len(err.splitlines()) == 1 and err.startswith("error:"), power
        assert "curved (nonzero h)" in err and "delta-check" in err, power
        assert f"bracket of {tup} " in err and "internal error" not in err, power
    # below the arity at which h^1 = P^5 enters, the brackets still compare
    code, out, _ = run(capsys, "compare", str(paths[5]), "--max-arity", "2")
    assert code == 0 and out.startswith("PASS")


def test_compare_on_a_truncated_operator_exits_2(capsys, tmp_path):
    # example1's operator document with every series cut to order 3: the
    # brackets through arity 3 compare, arity 4 reads the order-4 coefficient
    ex = example1_system()
    doc = system_to_document(ex.symmetric_system, ex.delta_spec)
    delta = doc["delta"]
    for key in ("f", "h"):
        delta[key] = [coeffs[:4] for coeffs in delta[key]]
    delta["g"] = [[coeffs[:4] for coeffs in row] for row in delta["g"]]
    path = tmp_path / "order3.json"
    save_document(doc, path)
    code, out, _ = run(capsys, "compare", str(path), "--max-arity", "3")
    assert code == 0 and out.startswith("PASS")
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "compare", str(path), "--max-arity", "4", *extra)
        assert (code, out) == (2, ""), extra
        assert err == ("error: monomial of even degree 4 needs series coefficients "
                       "beyond the stored order 3\n"), extra


def test_compare_rejects_a_frame_mismatch_before_rebuilding(capsys, tmp_path, monkeypatch):
    # example1's operator document with its space reversed or renamed: the
    # declared brackets live on another space than the operator's
    calls = Counter()

    def counting(*args, _original=superspace.brackets_from_delta, **kwargs):
        calls["brackets_from_delta"] += 1
        return _original(*args, **kwargs)

    monkeypatch.setattr(superspace, "brackets_from_delta", counting)
    ex = example1_system()
    for frame in ("reversed", "renamed"):
        doc = system_to_document(ex.symmetric_system, ex.delta_spec)
        if frame == "reversed":
            doc["space"]["generators"].reverse()
        else:
            doc["space"]["id"] = "U"
        path = tmp_path / f"{frame}.json"
        save_document(doc, path)
        symmetric, delta = load_document(path)
        for extra in ((), ("--json",)):
            code, out, err = run(capsys, "compare", str(path), "--max-arity", "8", *extra)
            assert (code, out) == (2, ""), frame
            assert err.startswith("error:") and len(err.splitlines()) == 1, frame
            assert repr(symmetric.space) in err and repr(delta.space) in err, frame
    assert calls == {}


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
    # the JSON report states the bounds and the residue the text shows
    lines = out.splitlines()
    code, out, _ = run(capsys, "delta-check", str(path), "--degree", "5", "--json")
    payload = json.loads(out)
    assert code == 1 and payload["pass"] is False
    assert payload["degree"] == 5
    assert payload["order"] == len(json.loads(path.read_text())["delta"]["f"][0]) - 1
    assert lines[-2] == (f"FAIL: squared operator is nonzero on "
                         f"{payload['witness']}: {payload['residue']}")
    pairing = next(line for line in lines if line.startswith("residual h_pairing[i=1]"))
    assert f"(order {payload['residual_orders']['h_pairing']['i=1']})" in pairing


def test_delta_check_shows_a_late_nonzero_residual_coefficient(capsys, tmp_path):
    # C_15 = 5 leaves the closure residual zero below index 13
    mutated = example1_system(c_values={15: 5})
    path = tmp_path / "late.json"
    save_document(system_to_document(mutated.symmetric_system, mutated.delta_spec), path)
    code, out, _ = run(capsys, "delta-check", str(path), "--degree", "8", "--json")
    residual = json.loads(out)["residuals"]["closure"]["i=1"]
    assert code == 1
    assert residual.startswith("Series([" + "0, " * 13) and residual.endswith(", ...], order=32)")
    assert residual.split(", ")[13] != "0"


def test_delta_check_on_many_even_generators_matches_three(capsys, tmp_path):
    """f^1 = g^1_1 = 1 + p and every other series zero, on 1,500 even
    generators: the check enumerates exponent tuples of that length without
    a recursion per generator, and reads the verdict, witness and residue it
    reads on 3."""
    reports = []
    for n_bosons in (1500, 3):
        zero, one = ["0", "0"], ["1", "1"]
        doc = system_to_document(example1_system().symmetric_system)
        doc["delta"] = {"bosons": n_bosons, "f": [one, zero], "h": [zero, zero],
                        "g": [[one] + [zero] * (n_bosons - 1), [zero] * n_bosons]}
        path = tmp_path / f"bosons{n_bosons}.json"
        save_document(doc, path)
        code, out, err = run(capsys, "delta-check", str(path), "--degree", "0", "--json")
        report = json.loads(out)
        reports.append((code, err, *(report[key] for key in (
            "pass", "degree", "order", "monomials_checked", "witness", "residue"))))
    assert reports[0] == reports[1] == (1, "", False, 0, 1, 4, "theta1*theta2", "-1*x1")


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


@pytest.mark.parametrize("max_arity, pinned", [(8, 489), (10, 891)])
def test_compare_reads_one_bracket_per_canonical_tuple(capsys, monkeypatch, max_arity, pinned):
    # example2's operator space has 2 odd generators, which a graded
    # symmetric tuple holds at most once each, and 3 even ones, which it may
    # repeat: C(2, j) C(n - j + 2, 2) canonical tuples of arity n hold j odd
    # ones. compare reads one bracket per tuple and applies D to no monomial
    tuples = sum(comb(2, j) * comb(n - j + 2, 2)
                 for n in range(max_arity + 1) for j in range(min(n, 2) + 1))
    assert tuples == pinned
    calls = Counter()

    def counting(*args, _original=superspace.koszul_bracket):
        calls["koszul_bracket"] += 1
        return _original(*args)

    def image(*args, _original=DeltaSpec.delta_monomial):
        calls["delta_monomial"] += 1
        return _original(*args)

    monkeypatch.setattr(superspace, "koszul_bracket", counting)
    monkeypatch.setattr(DeltaSpec, "delta_monomial", image)
    code, out, _ = run(capsys, "compare", "example2", "--max-arity", str(max_arity))
    assert code == 0 and "PASS" in out
    assert calls == {"koszul_bracket": tuples}


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


def test_compare_clamps_to_the_documents_bound_as_verify_does(capsys, tmp_path):
    ex = example1_system()
    doc = system_to_document(ex.symmetric_system, ex.delta_spec)
    doc["max_arity"] = 3
    doc["brackets"] = [b for b in doc["brackets"] if len(b["inputs"]) <= 3]
    path = tmp_path / "arity3.json"
    save_document(doc, path)
    code, out, _ = run(capsys, "compare", str(path), "--max-arity", "8")
    assert (code, out) == (0, "note: document stores arities up to 3; checking that far\n"
                               "PASS: operator brackets match the declared tables through "
                               "arity 3\n")
    code, out, _ = run(capsys, "compare", str(path), "--max-arity", "8", "--json")
    payload = json.loads(out)
    assert (code, payload["pass"], payload["max_arity"], payload["requested_max_arity"]) == (
        0, True, 3, 8)
    # no note when nothing was clamped
    code, out, _ = run(capsys, "compare", str(path), "--max-arity", "3")
    assert code == 0 and out.startswith("PASS:")


def test_a_clamp_that_checks_nothing_names_both_bounds(capsys, tmp_path):
    """When the document's bound, not the flag, leaves nothing to check, the
    error names both; an unclamped bound keeps its message."""
    ex = example1_system()
    skew = system_to_document(ex.skew_system)
    skew.update(max_arity=0, brackets=[])
    operator = system_to_document(ex.symmetric_system, ex.delta_spec)
    operator.update(max_arity=-2, brackets=[])
    paths = {}
    for name, doc in (("skew", skew), ("operator", operator)):
        paths[name] = str(tmp_path / f"{name}.json")
        save_document(doc, paths[name])
    cases = [
        (("verify", paths["skew"], "--max-arity", "8"),
         "error: document stores arities up to 0, so --max-arity 8 checks nothing "
         "(the effective bound must be >= 1)\n"),
        (("compare", paths["operator"], "--max-arity", "3"),
         "error: document stores arities up to -2, so --max-arity 3 checks nothing "
         "(the effective bound must be >= 0)\n"),
        (("verify", paths["skew"], "--max-arity", "-1"),
         "error: --max-arity -1 checks nothing (the effective bound must be >= 1)\n"),
        (("compare", paths["operator"], "--max-arity", "-3"),
         "error: --max-arity -3 checks nothing (the effective bound must be >= 0)\n"),
        (("compare", "example1", "--max-arity", "-1"),
         "error: --max-arity -1 checks nothing (the effective bound must be >= 0)\n"),
    ]
    for argv, message in cases:
        for mode in ((), ("--json",)):
            assert run(capsys, *argv, *mode) == (2, "", message), (argv, mode)


def test_clamp_note_names_the_kind_of_input(capsys, tmp_path):
    """A builtin's note names the builtin; a document's keeps its wording."""
    note = "note: builtin example1 stores arities up to 10; checking that far\n"
    for command in ("verify", "compare"):
        code, out, _ = run(capsys, command, "example1", "--max-arity", "11")
        assert code == 0 and out.startswith(note) and out.count("note:") == 1, out
    doc = system_to_document(example1_system(max_arity=3).skew_system)
    path = tmp_path / "arity3.json"
    save_document(doc, path)
    code, out, _ = run(capsys, "verify", str(path), "--max-arity", "11")
    assert code == 0
    assert out.startswith("note: document stores arities up to 3; checking that far\n"
                          "arity 1: ok"), out
    # the note is text only: the JSON report carries both bounds instead
    code, out, _ = run(capsys, "verify", "example1", "--max-arity", "11", "--json")
    assert "note" not in out and json.loads(out)["requested_max_arity"] == 11


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


def test_coefficients_past_the_digit_limit_name_the_first_value(capsys):
    # a value too long for str() is one usage error naming where it is, not
    # Python's advice to raise the limit
    limit = sys.get_int_max_str_digits()
    for which in ("b", "lambert"):
        _, value, _ = cli.COEFFICIENTS[which]
        first = next(n for n in range(1, 1501) if max(
            abs((v := Fraction(value(n))).numerator), v.denominator) >= 10 ** limit)
        for flags in ((), ("--check",), ("--json",)):
            code, out, err = run(capsys, "coefficients", which, "1500", *flags)
            assert (code, out) == (2, ""), (which, flags)
            assert err == (f"error: coefficients {which}: the value at n={first} has more "
                           f"than {limit:,} digits on a side of the '/'\n"), (which, flags)


def test_export_past_the_digit_limit_names_the_series_and_coefficient(capsys, tmp_path):
    # at order 1500 example2's g[0][0] is the first series with a value too long
    # for str(): one usage error naming where it is, as the reader does, and no file
    limit, target = sys.get_int_max_str_digits(), tmp_path / "out.json"
    first = next(k for k, c in enumerate(example2_system(order=1500).delta_spec.g[0][0].coeffs)
                 if max(abs(c.numerator), c.denominator) >= 10 ** limit)
    for flags in ((), ("--json",), ("-o", str(target)), ("-o", str(target), "--json")):
        code, out, err = run(capsys, "export", "example2", "--order", "1500", *flags)
        assert (code, out) == (2, ""), flags
        assert err == (f"error: delta g[0][0], coefficient {first}, has more than {limit:,} "
                       "digits on a side of the '/'\n"), flags
    assert not target.exists()


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
    assert payload["checked"] is False
    code, out, _ = run(capsys, "coefficients", "b", "4", "--check", "--json")
    payload = json.loads(out)
    assert (payload["checked"], payload["mismatches"]) == (True, [])
    # the effective bounds after clamping to what the document stores
    code, out, _ = run(capsys, "verify", "example1", "--max-arity", "11", "--json")
    payload = json.loads(out)
    assert (payload["max_arity"], payload["requested_max_arity"]) == (10, 11)
    code, out, _ = run(capsys, "compare", "example1", "--max-arity", "3", "--json")
    payload = json.loads(out)
    assert (code, payload["pass"], payload["max_arity"]) == (0, True, 3)


def test_no_command_computes_an_operator_image(capsys, monkeypatch):
    calls = []
    compute = DeltaSpec.delta_monomial

    def recording(spec, mono):
        calls.append((mono.fermions, mono.bosons))
        return compute(spec, mono)

    monkeypatch.setattr(DeltaSpec, "delta_monomial", recording)
    # D o D is composed and each bracket read off the operator's pieces: no
    # command applies D to a monomial
    for argv in (
        ("delta-check", "example1", "--degree", "12"),
        ("delta-check", "example2", "--degree", "4"),
        ("compare", "example1"),
        ("compare", "example2", "--max-arity", "8"),
        ("compare", "example2", "--max-arity", "10"),
        ("delta-check", "example2", "--degree", "18", "--order", "24"),
    ):
        calls.clear()
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0, argv
        assert "images" not in json.loads(out) and calls == [], argv


def test_json_pins_the_operator_work_counts(capsys, monkeypatch):
    # 4 theta sectors x C(6 + 3, 3) exponent vectors of degree <= 6 are
    # checked, and no operator image is computed: the verdict is read off D o D,
    # composed once from the pieces.  With h = 0 only theta1 theta2 -> 1
    # survives (D1 after D1 or after D2), times x1 or x2, each with the tables
    # of 1, d1, d2 and d3: moving a piece or a normal-ordering rule moves these
    calls = []
    monkeypatch.setattr(DeltaSpec, "delta_monomial", lambda spec, mono: calls.append(mono))
    code, out, _ = run(capsys, "delta-check", "example2", "--degree", "6", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["pass"] is True
    assert (payload["monomials_checked"], calls) == (336, [])
    composed = superspace._composed(example2_system().delta_spec, 6)
    assert sorted(composed) == [((1, 2), (), (0,)), ((1, 2), (), (1,))]
    assert [sorted(tables) for tables in composed.values()] == [[(), (0,), (1,), (2,)]] * 2


def test_coefficients_check_reports_a_mismatch(capsys, monkeypatch):
    def off_by_one_at_3(n_max):
        return lambda n: b_closed(n) + (n == 3)

    monkeypatch.setitem(cli.COEFFICIENTS, "b", (0, b_closed, off_by_one_at_3))
    mismatch = "n=3: printed 4 != independent route 5"
    code, out, _ = run(capsys, "coefficients", "b", "4", "--check")
    assert code == 1
    assert out.splitlines()[-2:] == [f"MISMATCH {mismatch}", "FAIL"]
    code, out, _ = run(capsys, "coefficients", "b", "4", "--check", "--json")
    payload = json.loads(out)
    assert code == 1 and payload["pass"] is False
    assert payload["mismatches"] == [mismatch]


def test_export_round_trip(capsys, tmp_path):
    path = tmp_path / "ex1.json"
    code, out, _ = run(capsys, "export", "example1", "-o", str(path))
    assert code == 0
    code, out, _ = run(capsys, "export", "example1", "-o", str(path), "--json")
    assert code == 0
    assert json.loads(out) == {"command": "export", "pass": True, "wrote": str(path)}
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


@pytest.mark.parametrize("argv", [("coefficients", "b", "1000"),
                                  ("export", "example2", "--order", "200")],
                         ids=["coefficients", "export"])
def test_a_closed_stdout_is_a_usage_error(argv):
    # the reader takes 10 bytes of a report far larger than a pipe buffer
    # (1.4 MB and 188 KB; example2's default export, 54 KB, fits in a 64 KiB
    # pipe and could be written whole before the close), off the pipe itself,
    # since a buffered read would take 8 KiB
    src = Path(linfcheck.__file__).resolve().parents[1]
    child = subprocess.Popen(
        [sys.executable, "-m", "linfcheck.cli", *argv], env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    os.read(child.stdout.fileno(), 10)
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait(timeout=60) == 2, err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("argv, needed, unused", [
    (("coefficients", "b", "10", "--check"), {"linfcheck.series"},
     {"linfcheck.brackets", "linfcheck.superspace", "linfcheck.document", "dataclasses"}),
    (("verify", "{skew}"), {"linfcheck.brackets", "linfcheck.document"},
     {"linfcheck.superspace", "linfcheck.series", "linfcheck.builtin", "dataclasses"}),
    (("verify", "example1"), {"linfcheck.brackets"},
     {"linfcheck.superspace", "linfcheck.series", "dataclasses"}),
    (("delta-check", "example2", "--degree", "2"), {"linfcheck.superspace"},
     {"dataclasses", "inspect"}),
    (("compare", "{operator}"), {"linfcheck.superspace", "linfcheck.document"},
     {"linfcheck.builtin", "dataclasses", "inspect"}),
    (("coefficients", "lambert", "10", "--check"), {"linfcheck.series"},
     {"linfcheck.builtin", "linfcheck.brackets", "linfcheck.superspace", "linfcheck.document"}),
    (("delta-check", "{operator}"), {"linfcheck.document", "linfcheck.superspace"},
     {"linfcheck.builtin"}),
    (("export", "example2", "-o", "{out}"),
     {"linfcheck.builtin", "linfcheck.brackets", "linfcheck.superspace", "linfcheck.series",
      "linfcheck.document"}, {"dataclasses", "inspect"}),
], ids=["coefficients", "verify-document", "verify-builtin", "delta-check-builtin",
        "compare-document", "coefficients-lambert", "delta-check-document", "export"])
def test_a_command_imports_only_what_it_runs(tmp_path, monkeypatch, argv, needed, unused):
    ex = example1_system()
    skew, operator = tmp_path / "skew.json", tmp_path / "operator.json"
    save_document(system_to_document(ex.skew_system), skew)
    save_document(system_to_document(ex.symmetric_system, ex.delta_spec), operator)
    monkeypatch.setenv("PYTHONPATH", str(Path(linfcheck.__file__).resolve().parents[1]))
    code, modules, self_us = startup.run(
        *(a.format(skew=skew, operator=operator, out=tmp_path / "out.json") for a in argv))
    assert code == 0, modules
    loaded = set(modules)
    assert needed <= loaded
    assert not unused & loaded
    # the start-up sums count every linfcheck module the command loads
    assert {name for name in loaded if name.startswith("linfcheck")} <= set(self_us)


def test_commands_resolve_engine_functions_when_called(capsys, monkeypatch):
    calls = Counter()
    for module, name in ((series, "g_series"), (builtin, "example2_system"),
                         (superspace, "delta_squared_check")):
        def counting(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    assert run(capsys, "coefficients", "b", "6", "--check")[0] == 0
    assert run(capsys, "delta-check", "example2", "--degree", "2")[0] == 0
    assert calls == {"g_series": 1, "example2_system": 1, "delta_squared_check": 1}


def test_package_names_resolve_on_first_access():
    namespace = {}
    exec("from linfcheck import *", namespace)
    assert set(linfcheck.__all__) <= set(namespace) & set(dir(linfcheck))
    assert namespace["g_series"] is series.g_series
    # a made-up name does not resolve, nor do the names that left the package
    for name in ("no_such_name", "suspend_system", "jacobi_summands"):
        with pytest.raises(AttributeError):
            getattr(linfcheck, name)
