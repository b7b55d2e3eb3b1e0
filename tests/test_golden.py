"""Exact text-mode stdout, stderr and exit code of the CLI on a fixed set of
commands.

The expected stdout of each case is stored in ``tests/golden/<case>.txt``,
with the temporary directory written as ``{tmp}``. The files were produced
by the CLI before its text output was rendered from the JSON report
(``delta-check-curved`` before the operator was held as a table of pieces,
``export-example1-jacobi`` when documents came to be written one line per
bracket entry), so a difference here is a change in what users see.
"""

from pathlib import Path

import pytest

from linfcheck.builtin import example1_system, example2_system
from linfcheck.cli import main
from linfcheck.document import save_document, system_to_document

GOLDEN = Path(__file__).parent / "golden"

# case -> (argv, exit code); "{name}" is a document built below
CASES = {
    "verify-example1": (("verify", "example1", "--max-arity", "8"), 0),
    "verify-c4-mutant": (("verify", "{c4_mutant}", "--max-arity", "4"), 1),
    "verify-clamped": (("verify", "{skew_arity3}", "--max-arity", "8"), 0),
    "delta-check-example1": (("delta-check", "example1", "--degree", "12"), 0),
    "delta-check-b2-mutant": (("delta-check", "{b2_mutant}", "--degree", "5"), 1),
    "delta-check-curved": (("delta-check", "{curved}", "--degree", "4"), 1),
    "compare-example1": (("compare", "example1", "--max-arity", "8"), 0),
    "compare-zeroed": (("compare", "{zeroed}", "--max-arity", "4"), 1),
    "compare-mixed": (("compare", "{mixed}", "--max-arity", "6"), 1),
    **{
        f"coefficients-{which}{suffix}": (("coefficients", which, n, *flags), 0)
        for which, n in (("c1", "12"), ("c2", "10"), ("b", "10"), ("lambert", "10"))
        for suffix, flags in (("", ()), ("-check", ("--check",)))
    },
    "export-example1": (("export", "example1", "-o", "{tmp}/example1.json"), 0),
    # the layout of a document: one line per field and per bracket entry
    "export-example1-jacobi": (("export", "example1", "--formulation", "jacobi"), 0),
}


def _documents(tmp: Path) -> dict[str, str]:
    ex = example1_system()
    ex2 = example2_system()
    b2 = example2_system(b_values={2: 1})
    b3 = example2_system(b_values={3: 5})
    docs = {
        "c4_mutant": system_to_document(example1_system(c_values={4: 1}).skew_system),
        "skew_arity3": system_to_document(ex.skew_system),
        "b2_mutant": system_to_document(b2.symmetric_system, b2.delta_spec),
        "zeroed": system_to_document(ex.symmetric_system, ex.delta_spec),
        "curved": system_to_document(ex.symmetric_system, ex.delta_spec),
        # example2's declared tables beside the operator of its B3 = 5 mutant
        "mixed": system_to_document(ex2.symmetric_system, b3.delta_spec),
    }
    trimmed = docs["skew_arity3"]
    trimmed["max_arity"] = 3
    trimmed["brackets"] = [b for b in trimmed["brackets"] if len(b["inputs"]) <= 3]
    delta = docs["zeroed"]["delta"]
    zero = ["0"] * len(delta["f"][0])
    delta["f"] = [list(zero), list(zero)]
    delta["g"] = [[list(zero)], [list(zero)]]
    delta["h"] = [list(zero), list(zero)]
    # example1's operator with a constant h^1 = 1, which reaches D0
    curved = docs["curved"]["delta"]
    curved["selection_rule"] = False
    curved["h"][0] = ["1"] + zero[1:]
    paths = {"tmp": str(tmp)}
    for name, doc in docs.items():
        paths[name] = str(tmp / f"{name}.json")
        save_document(doc, paths[name])
    return paths


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    return _documents(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_text_output_matches_golden(case, documents, capsys):
    argv, expected_code = CASES[case]
    code = main([arg.format(**documents) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.err) == (expected_code, "")
    expected = (GOLDEN / f"{case}.txt").read_text()
    assert captured.out.replace(documents["tmp"], "{tmp}") == expected

