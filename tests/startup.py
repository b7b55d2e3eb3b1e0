"""Start-up cost of each command the benchmark's workloads run: ``PYTHONPATH=src python3
tests/startup.py DIR`` writes example2's two documents into DIR, creating it if missing, and
prints per command the summed ``-X importtime`` self times of the ``linfcheck.*`` modules and
of the whole start-up, and its exit code.  A command runs linfcheck.cli as ``__main__``, so
its compile is only in the last line, the import of linfcheck.cli.  It exits 1 if a command
does not exit 0, 2 without DIR; ``tests/test_deep_checks.py`` runs ``main`` at small bounds."""

import subprocess
import sys
from pathlib import Path

# a child runs STATEMENT, then lists its sys.modules on stderr
_CHILD = ("import sys\ntry:\n    {}\nfinally:\n"
          "    print('sys.modules:', *sorted(sys.modules), file=sys.stderr)")
_AS_MAIN = "import runpy; runpy.run_module('linfcheck.cli', run_name='__main__', alter_sys=True)"


def run(*args: str, statement: str = _AS_MAIN) -> tuple[int, list[str], dict[str, int]]:
    """``linfcheck ARGS`` in a child under ``-X importtime``, run as ``python -m linfcheck.cli``
    runs it (or ``statement``): its exit code, its sorted ``sys.modules`` and the self time in
    microseconds of each module the log names."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", _CHILD.format(statement),
                           *args], capture_output=True, text=True, timeout=300)
    modules, self_us = [], {}
    for line in done.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if line.startswith("sys.modules: "):
            modules = line.split()[1:]
        elif len(fields) == 3 and fields[0].strip().isdigit():
            self_us[fields[2].strip()] = int(fields[0])
    return done.returncode, modules, self_us


def main(docs: str, arity: int = 7, degree: int = 12, n_max: int = 60) -> int:
    """The workloads' commands, at their bounds by default: example2 to ``arity`` (compare one
    more) and ``degree``, its documents one arity and half the degree lower, series to n_max."""
    Path(docs).mkdir(parents=True, exist_ok=True)
    jacobi, operator = (f"{docs}/example2-intact.{kind}.json" for kind in ("jacobi", "operator"))
    run("export", "example2", "--formulation", "jacobi", "-o", jacobi)
    run("export", "example2", "-o", operator)
    commands = [["verify", "example2", "--max-arity", str(arity)],
                ["delta-check", "example2", "--degree", str(degree)],
                ["compare", "example2", "--max-arity", str(arity + 1)],
                ["coefficients", "b", str(n_max), "--check"],
                ["coefficients", "lambert", str(n_max), "--check"],
                ["verify", jacobi, "--max-arity", str(arity - 1)],
                ["delta-check", operator, "--degree", str(degree // 2)],
                # the setup child of the jacobi, operator, compare and mutants workloads
                ["export", "example2", "-o", f"{docs}/example2.export.json"]]
    runs = [(" ".join(args).replace(docs, "DIR"), run(*args, "--json")) for args in commands]
    runs.append(("import linfcheck.cli", run(statement="import linfcheck.cli")))
    for label, (code, _, self_us) in runs:
        own = sum(us for name, us in self_us.items() if name.startswith("linfcheck"))
        print(f"{label}: linfcheck.* {own / 1000:.1f} ms, whole start-up "
              f"{sum(self_us.values()) / 1000:.1f} ms of imports (exit {code})")
    return 0 if all(code == 0 for _, (code, _, _) in runs) else 1


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: PYTHONPATH=src python3 tests/startup.py DIR", file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1]))
