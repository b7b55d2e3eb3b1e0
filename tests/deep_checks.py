"""Deep checks of linfcheck against counts from closed forms: ``PYTHONPATH=src python3
tests/deep_checks.py DIR`` writes into DIR, prints one ``ok`` or ``FAILED`` line per check
and exits 1 if any fails. ``tests/test_deep_checks.py`` runs ``main`` at small bounds."""

import json
import os
import sys
import tempfile
import time
from math import comb
from pathlib import Path

import linfcheck
from linfcheck.document import save_document, system_to_document

# the structures of the benchmark's mutants workload at seed 1
STRUCTURES = {"example1-intact": {}, "example1-C4": {"c_values": {4: -22}},
              "example1-C5": {"c_values": {5: 7}}, "example1-C6": {"c_values": {6: 25}},
              "example2-intact": {}, "example2-B2": {"b_values": {2: 22}},
              "example2-B3": {"b_values": {3: 19}}, "example2-B4": {"b_values": {4: -25}}}

COUNTS = {"export": ("wrote", lambda r: r["wrote"]),
          "verify": ("tuples", lambda r: sum(a["tuples"] for a in r["arities"])),
          "delta-check": ("monomials", lambda r: r["monomials_checked"]),
          "compare": ("(pass, max_arity)", lambda r: (r["pass"], r["max_arity"]))}


def tuples(n_even: int, n_odd: int, max_arity: int) -> int:
    """Canonical tuples to ``max_arity``: even generators once at most, odd ones freely."""
    return sum(comb(n_even, k) * comb(n_odd + n - k - 1, n - k)
               for n in range(1, max_arity + 1) for k in range(min(n_even, n) + 1))


def monomials(n_bosons: int, degree: int) -> int:
    """Monomials of even degree <= ``degree``, in each of the four odd sectors."""
    return 4 * comb(degree + n_bosons, n_bosons)


def witness_size(witness: str) -> int:
    """|T| + |m| of a witness theta_T x^m such as ``theta1*x2^3``."""
    return sum(1 if factor.startswith("theta") else int(factor.partition("^")[2] or 1)
               for factor in witness.split("*") if factor != "1")


def run(*args: str) -> tuple[int, dict | None, float, float, str]:
    """``linfcheck ARGS --json`` in a child: exit code, report, wall s, peak RSS MB, stderr."""
    argv = [sys.executable, "-m", "linfcheck.cli", *args, "--json"]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=[
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
        _, status, usage = os.wait4(pid, 0)
        wall, code = time.perf_counter() - start, os.waitstatus_to_exitcode(status)
        out.seek(0), err.seek(0)
        return (code, json.load(out) if code in (0, 1) else None, wall,
                usage.ru_maxrss / 1024, err.read().decode().strip())  # ru_maxrss in KiB


def check(args: list[str], want, label: str = "", peak: bool = False) -> bool:
    """Run ``args``: it passes when it exits 0 with ``want`` as its COUNTS entry."""
    code, report, wall, peak_mb, err = run(*args)
    what, count = COUNTS[args[0]]
    got = count(report) if code == 0 else None
    rss = f", {peak_mb:.1f} MB peak RSS" if peak else ""
    print(label or " ".join(args[:2]), "ok" if got == want else "FAILED", f"exit {code},",
          f"{what} {got} (want {want}), {wall:.2f} s wall{rss}", err)
    return got == want


def check_structure(tmp: str, label: str, values: dict, degree: int, arity: int) -> bool:
    """Intact ones pass both checks; mutants fail both, the witness of the failing arity's size."""
    ex, doc = getattr(linfcheck, label.split("-")[0] + "_system")(**values), f"{tmp}/{label}"
    save_document(system_to_document(ex.skew_system), f"{doc}.jacobi.json")
    save_document(system_to_document(ex.symmetric_system, ex.delta_spec), f"{doc}.operator.json")
    (d_code, delta, d_wall, _, d_err), (v_code, verify, v_wall, _, v_err) = (
        run("delta-check", f"{doc}.operator.json", "--degree", str(degree)),
        run("verify", f"{doc}.jacobi.json", "--max-arity", str(arity)))
    want, codes, note = 1 if values else 0, (d_code, v_code), ""
    ok = codes == (want, want)
    if ok and want:
        size = witness_size(delta["witness"])
        first = next(a["arity"] for a in verify["arities"] if not a["ok"])
        ok = size == first
        note = f", witness {delta['witness']} (size {size}), first failing arity {first}"
    print(label, "ok" if ok else "FAILED", f"exits {codes} (want {want}, {want}){note},",
          f"{d_wall + v_wall:.2f} s wall", d_err, v_err)
    return ok


def main(tmp: str, arity: int = 10, degrees=((18, 24), (30, 32)), structure_bounds=(18, 6),
         odd_arities=(16, 14)) -> int:
    """Every check at the given bounds, CI's by default: 0 if all pass, else 1."""
    checks = []
    # no brackets, 2^n unshuffles per tuple; run first, since a child's peak RSS starts at ours
    for label, degs, top in zip(("one-generator", "two-generator"), ([1], [1, 3]), odd_arities):
        generators = [{"name": f"w{k}", "degree": d} for k, d in enumerate(degs, 1)]
        save_document({"version": "1", "symmetry": "skew", "max_arity": top, "brackets": [],
                       "space": {"id": "V", "generators": generators}}, f"{tmp}/{label}.json")
        checks.append(check(["verify", f"{tmp}/{label}.json", "--max-arity", str(top)],
                            tuples(0, len(degs), top), f"verify {label}", peak=True))
    # example2 at (degree, series order) pairs, then its exports, whose series order is 33
    jacobi, operator, n = f"{tmp}/example2.jacobi.json", f"{tmp}/example2.operator.json", str(arity)
    checks += [check(["export", "example2", "--formulation", "jacobi", "-o", jacobi], jacobi),
               check(["export", "example2", "-o", operator], operator),
               check(["verify", "example2", "--max-arity", n], tuples(3, 3, arity)),
               *[check(["delta-check", "example2", "--degree", str(d), "--order", str(k)],
                       monomials(3, d)) for d, k in degrees],
               check(["compare", "example2", "--max-arity", n], (True, arity)),
               check(["verify", jacobi, "--max-arity", n], tuples(3, 3, arity)),
               check(["compare", operator, "--max-arity", n], (True, arity)),
               *[check(["delta-check", operator, "--degree", str(d)], monomials(3, d))
                 for d, _ in degrees]]
    for path in filter(os.path.exists, (jacobi, operator)):  # one line per field and entry
        data = Path(path).read_bytes()
        print(f"{path.replace(tmp, 'DIR')}: {len(data):,} bytes,", data.count(b"\n"), "lines")
    checks += [check_structure(tmp, label, values, *structure_bounds)
               for label, values in STRUCTURES.items()]
    return 0 if all(checks) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
