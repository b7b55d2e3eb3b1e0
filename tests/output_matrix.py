"""A fixed matrix of CLI commands and the sha-256 of what each one prints.

Each row runs ``linfcheck.cli.main`` in-process and hashes its exit code,
stdout and stderr, with the temporary directory written as ``{tmp}``; a row
that writes a file also hashes the file's bytes. The rows cover:

* ``verify example1``/``example2`` at arities 1-10;
* ``delta-check`` on both builtins at degrees 0-12 and 30;
* ``compare`` on both builtins at arities 0-10;
* ``coefficients`` for each table, with and without ``--check``;
* ``export`` of both builtins in both formulations, to stdout and to a file;
* the commands of ``tests/test_golden.py`` on its documents, and the bytes
  of those documents;
* the 16 seed-1 ``mutants`` commands of ``perfbench/workloads.py`` on the
  documents it writes, and the bytes of those documents.

Every command runs in text and with ``--json``. Rows whose text depends on
the Python version (argparse usage errors, int's digit limit) are left out.
The hashes live in ``tests/output_matrix.sha256`` and change only with an
intended output change. Regenerate them with

    PYTHONPATH=src python tests/output_matrix.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from linfcheck.cli import main

HERE = Path(__file__).parent
HASHES = HERE / "output_matrix.sha256"
MUTANTS_SEED = 1


def _workloads():
    """``perfbench/workloads.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", HERE.parent / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclass
    spec.loader.exec_module(module)
    return module


def _commands(tmp: Path) -> list[tuple[str, ...]]:
    """Every command of the matrix without ``--json``; writes the documents
    they read into ``tmp``."""
    from test_golden import CASES, _documents

    commands = []
    for example in ("example1", "example2"):
        commands += [("verify", example, "--max-arity", str(n)) for n in range(1, 11)]
        commands += [("delta-check", example, "--degree", str(d))
                     for d in (*range(13), 30)]
        commands += [("compare", example, "--max-arity", str(n)) for n in range(11)]
        for formulation in ("jacobi", "operator"):
            export = ("export", example, "--formulation", formulation)
            commands += [export, (*export, "-o", f"{{tmp}}/{example}.{formulation}.json")]
    for which, n in (("c1", 20), ("c2", 20), ("b", 60), ("lambert", 60)):
        commands += [("coefficients", which, str(n)), ("coefficients", which, str(n), "--check")]
    documents = _documents(tmp)
    commands += [tuple(arg.format(**documents) for arg in argv)
                 for argv, _ in (CASES[case] for case in sorted(CASES))]
    workloads = _workloads()
    workloads.write_documents(MUTANTS_SEED, tmp)
    for command in workloads.commands("mutants", MUTANTS_SEED, tmp):
        commands.append(tuple(arg for arg in command.args if arg != "--json"))
    return [tuple(arg.replace(str(tmp), "{tmp}") for arg in argv) for argv in commands]


def _digest(*parts) -> str:
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


def output_hashes(tmp: Path) -> dict[str, str]:
    """Row label -> sha-256, for every row of the matrix, run in ``tmp``."""
    commands = _commands(tmp)
    hashes = {}
    for file in sorted(tmp.glob("*.json")):  # the documents the commands read
        hashes[f"file {{tmp}}/{file.name}"] = hashlib.sha256(file.read_bytes()).hexdigest()
    for command in commands:
        for argv in (command, (*command, "--json")):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([arg.replace("{tmp}", str(tmp)) for arg in argv])
            texts = [s.getvalue().replace(str(tmp), "{tmp}") for s in (out, err)]
            written = []
            if "-o" in argv:
                path = Path(argv[argv.index("-o") + 1].replace("{tmp}", str(tmp)))
                written.append(hashlib.sha256(path.read_bytes()).hexdigest())
            hashes[" ".join(argv)] = _digest(code, *texts, *written)
    return hashes


def read_hashes(path: Path = HASHES) -> dict[str, str]:
    rows = (line.split("  ", 1) for line in path.read_text().splitlines())
    return {label: digest for digest, label in rows}


def write_hashes(hashes: dict[str, str], path: Path = HASHES) -> None:
    path.write_text("".join(f"{digest}  {label}\n" for label, digest in hashes.items()))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        hashes = output_hashes(Path(tmp))
    write_hashes(hashes)
    print(f"wrote {len(hashes)} rows to {HASHES}")
