"""Workloads of the linfcheck benchmark and the known answers they are checked against.

A workload is a list of commands for ``python -m linfcheck.cli``; one pass
through the list is one sample. Every command carries its expected exit code
and a check of its ``--json`` report. The expected answers are derived here,
independently of the program: tuple counts from the generator dimensions,
monomial counts from the number of even generators, coefficient tables from
their closed forms, and mutant verdicts from the construction of the mutant.

Only ``mutants`` depends on the seed. Its seed fixes the replacement value of
each mutated coefficient; which coefficients are mutated is fixed, so every
seed does the same amount of work.

Run as a script, this module writes the ``mutants`` documents:

    PYTHONPATH=src python3 perfbench/workloads.py --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from math import comb, factorial
from pathlib import Path
from typing import Callable

WORKLOADS = ("jacobi", "operator", "compare", "series", "mutants")

# verify example2 --max-arity 7: canonical tuples per arity (574 in all)
JACOBI_TUPLES = (6, 18, 38, 66, 102, 146, 198)
OPERATOR_DEGREE = 12
SERIES_ORDER = 60

# mutants: checked bounds, and the coefficients a mutant may replace
MUTANT_ARITY = 6
MUTANT_DEGREE = 6
MUTABLE = {"example1": (4, 5, 6), "example2": (2, 3, 4)}
REPLACEMENTS = range(-30, 31)

# generators of the skew side (even, odd) and even generators of the operator side
SHAPES = {"example1": ((2, 1), 1), "example2": ((3, 3), 3)}


def c1_true(n: int) -> int:
    """example1's C_n = (-1)^((n-2)(n-3)/2) (n-3)!."""
    return (-1) ** ((n - 2) * (n - 3) // 2) * factorial(n - 3)


def b_true(m: int) -> int:
    """example2's B_M = (1 - M)^(M - 1), with 0^0 = 1."""
    return 1 if m == 0 else (1 - m) ** (m - 1)


TRUE_VALUE = {"example1": c1_true, "example2": b_true}


def canonical_tuple_count(n_even: int, n_odd: int, arity: int) -> int:
    """Input tuples a skew bracket can be nonzero on: even generators at most
    once each, odd ones repeated freely."""
    return sum(
        comb(n_even, k) * comb(n_odd + arity - k - 1, arity - k)
        for k in range(min(n_even, arity) + 1)
    )


def monomial_count(n_bosons: int, degree: int) -> int:
    """Monomials of even degree <= degree, in each of the four odd sectors."""
    return 4 * comb(degree + n_bosons, n_bosons)


# ---------------------------------------------------------------------------
# checks of a single --json report; each returns a problem or None
# ---------------------------------------------------------------------------

Check = Callable[[dict], "str | None"]


def check_verify(n_even: int, n_odd: int, max_arity: int, passes: bool) -> Check:
    def check(report: dict) -> str | None:
        if report.get("pass") is not passes:
            return f"verdict {report.get('pass')}, expected {passes}"
        arities = report.get("arities", [])
        if [a.get("arity") for a in arities] != list(range(1, max_arity + 1)):
            return f"arities checked are not 1..{max_arity}"
        for a in arities:
            n = a["arity"]
            if a.get("ok"):
                want = canonical_tuple_count(n_even, n_odd, n)
                if a.get("tuples") != want:
                    return f"arity {n}: {a.get('tuples')} tuples, expected {want}"
            elif passes or len(a.get("counterexample") or ()) != n:
                return f"arity {n}: unexpected failure report {a}"
        return None

    return check


def check_delta(n_bosons: int, degree: int, passes: bool) -> Check:
    total = monomial_count(n_bosons, degree)

    def check(report: dict) -> str | None:
        if report.get("pass") is not passes:
            return f"verdict {report.get('pass')}, expected {passes}"
        checked = report.get("monomials_checked")
        if not passes:
            if report.get("witness") is None or not 1 <= checked <= total:
                return f"failure without a witness among {total} monomials"
            return None
        if checked != total:
            return f"{checked} monomials checked, expected {total}"
        for group in report.get("residuals", {}).values():
            if any(value != "0" for value in group.values()):
                return "nonzero residual series"
        return None

    return check


def check_compare(report: dict) -> str | None:
    return None if report.get("pass") is True else "brackets differ"


def closed_form_values(which: str, n_max: int) -> dict[str, str]:
    if which == "b":
        return {str(m): str(b_true(m)) for m in range(n_max + 1)}
    return {str(n): str((-n) ** (n - 1)) for n in range(1, n_max + 1)}


def check_coefficients(which: str, n_max: int) -> Check:
    expected = closed_form_values(which, n_max)

    def check(report: dict) -> str | None:
        if report.get("pass") is not True:
            return "cross-check failed"
        if report.get("values") != expected:
            return f"{which} values differ from the closed form"
        return None

    return check


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    exit_code: int
    check: Check


def judge(command: Command, exit_code: int, stdout: str) -> str | None:
    """Problem with one finished command, or None when it gave the known answer."""
    label = " ".join(command.args[:2])
    if exit_code != command.exit_code:
        return f"{label}: exit {exit_code}, expected {command.exit_code}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return f"{label}: output is not a JSON report"
    try:
        problem = command.check(report)
    except (AttributeError, KeyError, TypeError):
        problem = "malformed report"
    return None if problem is None else f"{label}: {problem}"


# ---------------------------------------------------------------------------
# mutants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Structure:
    example: str
    index: int | None = None  # mutated coefficient, None when intact
    value: int | None = None

    @property
    def label(self) -> str:
        if self.index is None:
            return f"{self.example}-intact"
        letter = "C" if self.example == "example1" else "B"
        return f"{self.example}-{letter}{self.index}"


def draw_structures(seed: int) -> list[Structure]:
    """The intact examples, then one mutant per mutable coefficient with a
    seeded replacement different from the true value."""
    rng = random.Random(seed)
    out = []
    for example, indices in MUTABLE.items():
        out.append(Structure(example))
        for index in indices:
            true = TRUE_VALUE[example](index)
            out.append(Structure(example, index, rng.choice(
                [v for v in REPLACEMENTS if v != true])))
    return out


def document_paths(workdir: Path, structure: Structure) -> tuple[Path, Path]:
    """Skew (Jacobi) document and symmetric-plus-operator document."""
    return (workdir / f"{structure.label}.jacobi.json",
            workdir / f"{structure.label}.operator.json")


def write_documents(seed: int, workdir: Path) -> None:
    """Write both formulations of every drawn structure with the public API."""
    from linfcheck import example1_system, example2_system
    from linfcheck.document import save_document, system_to_document

    for s in draw_structures(seed):
        if s.example == "example1":
            ex = example1_system(c_values=None if s.index is None else {s.index: s.value})
        else:
            ex = example2_system(b_values=None if s.index is None else {s.index: s.value})
        jacobi_path, operator_path = document_paths(workdir, s)
        save_document(system_to_document(ex.skew_system), jacobi_path)
        save_document(system_to_document(ex.symmetric_system, ex.delta_spec), operator_path)


def commands(workload: str, seed: int, workdir: Path) -> list[Command]:
    """One pass of the workload; ``workdir`` holds the documents of ``mutants``."""
    if workload == "jacobi":
        return [Command(("verify", "example2", "--max-arity", str(len(JACOBI_TUPLES)),
                         "--json"), 0, check_verify(3, 3, len(JACOBI_TUPLES), True))]
    if workload == "operator":
        return [Command(("delta-check", "example2", "--degree", str(OPERATOR_DEGREE),
                         "--json"), 0, check_delta(3, OPERATOR_DEGREE, True))]
    if workload == "compare":
        return [Command(("compare", "example2", "--max-arity", "8", "--json"),
                        0, check_compare)]
    if workload == "series":
        return [Command(("coefficients", which, str(SERIES_ORDER), "--check", "--json"),
                        0, check_coefficients(which, SERIES_ORDER))
                for which in ("b", "lambert")]
    if workload == "mutants":
        out = []
        for s in draw_structures(seed):
            (n_even, n_odd), n_bosons = SHAPES[s.example]
            intact = s.index is None
            jacobi_path, operator_path = document_paths(workdir, s)
            out.append(Command(
                ("verify", str(jacobi_path), "--max-arity", str(MUTANT_ARITY), "--json"),
                0 if intact else 1, check_verify(n_even, n_odd, MUTANT_ARITY, intact)))
            out.append(Command(
                ("delta-check", str(operator_path), "--degree", str(MUTANT_DEGREE), "--json"),
                0 if intact else 1, check_delta(n_bosons, MUTANT_DEGREE, intact)))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description="write the mutants documents")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    write_documents(args.seed, args.out)


if __name__ == "__main__":
    main()
