"""CI's tooling: ``tests/deep_checks.py``, its parts and all of it at small bounds, and
``tests/startup.py`` at small bounds."""

import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

import deep_checks
import linfcheck
import startup


@pytest.fixture
def children_import_this_tree(monkeypatch):
    """Children import linfcheck from the same tree as this process."""
    monkeypatch.setenv("PYTHONPATH", str(Path(linfcheck.__file__).resolve().parents[1]))


def test_every_check_passes_at_small_bounds(tmp_path, children_import_this_tree, capsys):
    # a directory that does not exist yet: main creates it
    code = deep_checks.main(str(tmp_path / "deep"), arity=6, degrees=[(8, 8)],
                            structure_bounds=(8, 6), odd_arities=(8, 8))
    lines = capsys.readouterr().out.splitlines()
    checks = [line for line in lines if not line.startswith("DIR/")]
    # 2 odd-generator, 2 export, 6 example2 (3 on the builtin, 3 on its exports) and 8 structures
    assert len(checks) == 18 and len(lines) == 20, lines
    assert all(re.match(r"((verify|export|compare|delta-check) )?\S+ ok ", line)
               for line in checks), lines
    assert code == 0
    assert "tuples 8 (want 8)" in checks[0] and "tuples 44 (want 44)" in checks[1]
    assert "tuples 376 (want 376)" in checks[4] and "monomials 660 (want 660)" in checks[5]
    assert "witness theta1*theta2*x1^4 (size 6), first failing arity 6" in lines[-5]


def test_startup_counts_what_each_command_loads_at_small_bounds(tmp_path, monkeypatch, capsys,
                                                                children_import_this_tree):
    logged, run = {}, startup.run  # each child's arguments, and what it returned
    monkeypatch.setattr(startup, "run", lambda *a, **kw: logged.setdefault(a, run(*a, **kw)))
    assert startup.main(str(tmp_path / "startup"), arity=3, degree=2, n_max=6) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "verify", "delta-check", "compare", "coefficients", "coefficients", "verify",
        "delta-check", "export", "import"], lines
    assert all(line.endswith(" ms of imports (exit 0)") for line in lines), lines
    # two exports write the documents, then a child per line; each counts every linfcheck
    # module it loads, builtin too where it reads example2
    assert len(logged) == 2 + 9 and all(
        {name for name in modules if name.startswith("linfcheck")} <= set(self_us)
        and ("example2" not in args or "linfcheck.builtin" in self_us)
        for args, (_, modules, self_us) in logged.items())


@pytest.mark.parametrize("witness, size", [("1", 0), ("x1", 1), ("theta1*theta2", 2),
                                           ("theta1*x2^3", 4)])
def test_witness_size_counts_thetas_and_powers(witness, size):
    assert deep_checks.witness_size(witness) == size


def test_closed_forms_give_the_counts_ci_pins():
    assert deep_checks.tuples(3, 3, 7) == 574 and deep_checks.tuples(3, 3, 10) == 1560
    assert deep_checks.monomials(3, 18) == 5320 and deep_checks.monomials(3, 30) == 21824
    assert deep_checks.tuples(0, 1, 16) == 16 and deep_checks.tuples(0, 2, 14) == 119


def test_without_a_directory_it_prints_its_usage_and_exits_2(children_import_this_tree):
    done = subprocess.run([sys.executable, deep_checks.__file__], capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("usage: ") and done.stderr.count("\n") == 1, done.stderr


def test_no_module_under_tests_imports_or_names_perfbench():
    """The suite's pins do not hang on the benchmark's code, which a rewrite of
    the benchmark may change: no module under tests/ names its directory, so
    none imports it or reads a file of it.  This test's own source, which
    names it to look for it, is left out of its module."""
    own = inspect.getsource(test_no_module_under_tests_imports_or_names_perfbench)
    modules = sorted(Path(__file__).parent.rglob("*.py"))
    assert Path(deep_checks.__file__) in modules and Path(__file__) in modules
    named = [path.name for path in modules if "perfbench" in path.read_text().replace(own, "")]
    assert named == []
