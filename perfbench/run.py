"""Benchmark of linfcheck: wall time to an exact verdict, end to end and per layer.

    python3 perfbench/run.py --workload jacobi --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from ``src``.

``--trace 0`` times the real CLI. Commands run as child processes, one at a
time, in a closed loop: the next command starts when the previous one has
exited. One sample is one pass through the workload's commands (see
``workloads.py``), and passes repeat until ``--seconds`` would be exceeded.
Every command's exit code, verdict and work counts are checked against a
known answer; a crash, a timeout or a wrong answer counts as failed.

The speed of a shared machine drifts by a third and more within minutes, far
more than the regressions the benchmark has to catch. So the benchmark and
its children are pinned to one processor, a fixed pure-Python reference loop
runs there before the first sample and after each one, and every time
(``verdict_s``, ``verdict_cpu_s``, ``setup_s``) is multiplied by
REFERENCE_NOMINAL_S over the mean of the two references around it. On a
2-vCPU VM this cut the run-to-run spread of the ``jacobi`` median from 0.14 to
0.06. The unscaled median and the reference time are on the detail line.

``--trace 1`` uses the same inputs in ``layers.py``: one fresh process per
pass, with timing and counting wrappers installed, alternating with passes of
the same process without wrappers. Per-layer times are medians over the
traced passes; counts must repeat exactly from one traced pass to the next.

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it gives the sample count, the
failures with ``failed_share``, the environment (Python version, commit or
source digest, processor count, load average at start) and ``verdict_s.tail``
with its percentile. The tail is the highest sample with ten samples above it,
or the smallest sample when a run has ten or fewer. It is not a gated metric:
a run has 4 to 21 samples, too few for a tail above the median, and the
minimum of a few samples spreads more from run to run than any allowed bound.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# metric names and units, untraced (end_to_end) and traced (per_layer)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_REPEATS = 5
REFERENCE_STEPS = 60000
REFERENCE_NOMINAL_S = 0.2  # times are reported as on a machine whose reference takes this long
COMMAND_TIMEOUT_S = 60.0
DEADLINE_S = 150.0  # no command starts later than this into the run
TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest sample with at least ten samples above it, and its percentile.

    With ``n`` samples that is the ``n - 10``-th smallest, the ``100 (n - 10)
    / n`` percentile. With ten samples or fewer no percentile qualifies, and
    the smallest sample is reported with its percentile ``100 / n``.
    """
    ordered = sorted(samples)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


@dataclass
class Tally:
    """Commands attempted and failed; a failure keeps its first few reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problem)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    exit_code: int
    stdout: str
    timed_out: bool

    def problem(self, command: workloads.Command | None = None) -> str | None:
        if self.timed_out:
            return f"timed out after {self.wall_s:.1f} s"
        if command is None:
            return None if self.exit_code == 0 else f"exit {self.exit_code}"
        return workloads.judge(command, self.exit_code, self.stdout)


def run_child(argv: list[str], timeout: float, workdir: Path) -> ChildRun:
    """Run one child to completion; wall time from spawn to exit, CPU and
    peak memory from its rusage. A child still running at ``timeout`` is killed."""
    # a fixed hash seed removes one source of run-to-run variation
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    timed_out = threading.Event()
    with tempfile.TemporaryFile(dir=workdir) as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.DEVNULL)

        def kill() -> None:
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        out.seek(0)
        stdout = out.read().decode(errors="replace")
    return ChildRun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                    proc.returncode, stdout, timed_out.is_set())


class Clock:
    """Run-wide deadline: how long the next child may take, or None when no
    child may start any more."""

    def __init__(self):
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def timeout(self) -> float | None:
        left = DEADLINE_S - self.elapsed()
        return min(COMMAND_TIMEOUT_S, left) if left > 0 else None


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop over exact rationals in a dict."""
    start = time.perf_counter()
    acc = {}
    for i in range(REFERENCE_STEPS):
        key = (i % 89, i % 7)
        acc[key] = acc.get(key, 0) + Fraction(i % 11 - 5, 1 + i % 9)
    return time.perf_counter() - start


class Yardstick:
    """Rescales times measured on a machine whose speed drifts.

    The reference loop runs before the first measurement and after each one,
    on the same processor as the children. A measurement is scaled by
    REFERENCE_NOMINAL_S over the mean of the references on either side of it.
    The program under test never runs the reference, so a faster program reads
    faster by the same factor.
    """

    def __init__(self):
        self.references = [reference_s()]

    def scale(self, *values: float) -> list[float]:
        self.references.append(reference_s())
        factor = 2 * REFERENCE_NOMINAL_S / sum(self.references[-2:])
        return [v * factor for v in values]


def cli_argv(args: tuple[str, ...]) -> list[str]:
    return [sys.executable, "-m", "linfcheck.cli", *args]


def setup(workload: str, seed: int, workdir: Path, clock: Clock, tally: Tally,
          yardstick: Yardstick) -> float:
    """Prepare the workload's inputs SETUP_REPEATS times after one untimed
    warm-up of the file cache; the median scaled wall time."""
    if workload == "mutants":
        argv = [sys.executable, str(HERE / "workloads.py"), "--seed", str(seed),
                "--out", str(workdir)]
        outputs = [p for s in workloads.draw_structures(seed)
                   for p in workloads.document_paths(workdir, s)]
    else:
        export = workdir / "example2.json"
        argv = cli_argv(("export", "example2", "-o", str(export), "--json"))
        outputs = [export]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        timeout = clock.timeout()
        if timeout is None:
            break
        for path in outputs:
            path.unlink(missing_ok=True)
        run = run_child(argv, timeout, workdir)
        problem = run.problem() or check_documents(outputs)
        tally.record(problem)
        if problem:
            break
        times.extend(yardstick.scale(run.wall_s))
    return statistics.median(times[1:] or times or [0.0])


def check_documents(paths: list[Path]) -> str | None:
    for path in paths:
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            return f"setup wrote no readable document {path.name}"
        if not isinstance(doc, dict) or doc.get("version") != "1" or not doc.get("brackets"):
            return f"setup wrote a malformed document {path.name}"
    return None


def timed(workload: str, seed: int, seconds: float, workdir: Path, clock: Clock,
          tally: Tally, yardstick: Yardstick, detail: dict) -> dict[str, float]:
    commands = workloads.commands(workload, seed, workdir)
    raw, walls, cpus, peak_kb = [], [], [], 0
    loop_start = clock.elapsed()
    while True:
        wall = cpu = 0.0
        for command in commands:
            timeout = clock.timeout()
            if timeout is None:
                tally.record(f"{' '.join(command.args[:2])}: not started before the deadline")
                continue
            run = run_child(cli_argv(command.args), timeout, workdir)
            wall += run.wall_s
            cpu += run.cpu_s
            peak_kb = max(peak_kb, run.maxrss_kb)
            tally.record(run.problem(command))
        raw.append(wall)
        wall, cpu = yardstick.scale(wall, cpu)
        walls.append(wall)
        cpus.append(cpu)
        spent = clock.elapsed() - loop_start
        next_sample = statistics.median(raw) + yardstick.references[-1]
        if spent + next_sample > seconds or clock.timeout() is None:
            break
    tail_value, percentile = tail(walls)
    detail.update({"samples": len(walls), "verdict_s.tail": tail_value,
                   "tail_percentile": percentile,
                   "tail_beyond": min(TAIL_BEYOND, len(walls) - 1),
                   "verdict_samples_s": walls,
                   "unscaled_verdict_s": statistics.median(raw),
                   "reference_s": statistics.median(yardstick.references)})
    return {
        "verdict_s": statistics.median(walls),
        "verdict_cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def traced(workload: str, seed: int, seconds: float, workdir: Path, clock: Clock,
           tally: Tally, detail: dict) -> dict[str, float]:
    base = [sys.executable, str(HERE / "layers.py"), "--workload", workload,
            "--seed", str(seed), "--workdir", str(workdir)]
    walls = {True: [], False: []}
    layers, imports = [], []
    loop_start = clock.elapsed()
    wrapped = True
    while True:
        timeout = clock.timeout()
        if timeout is None:
            tally.record("traced pass not started before the deadline")
            break
        run = run_child(base if wrapped else base + ["--bare"], timeout, workdir)
        problem = run.problem()
        try:
            result = json.loads(run.stdout.splitlines()[-1]) if not problem else None
        except (IndexError, ValueError):
            problem = "traced pass printed no result"
        if problem:
            tally.record(problem)
            break
        for item in result["problems"]:
            tally.record(item)
        for _ in range(result["attempted"] - len(result["problems"])):
            tally.record(None)
        walls[wrapped].append(run.wall_s)
        imports.append(result["import_s"])
        if wrapped:
            layers.append(result["layers"])
        wrapped = not wrapped
        spent = clock.elapsed() - loop_start
        if (len(walls[True]) >= 2 and walls[False]
                and spent + statistics.median(walls[wrapped]) > seconds):
            break
    if not layers or not walls[False]:
        return {}
    counts = [{k: v for k, v in m.items() if not k.endswith("_s")} for m in layers]
    if any(c != counts[0] for c in counts):
        tally.record("per-layer counts differ between traced passes")
    detail.update(samples=len(layers), bare_samples=len(walls[False]))
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics.update(counts[0])
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                   - statistics.median(walls[False]))
    return metrics


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                  capture_output=True, text=True)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "linfcheck" / "cli.py").is_file():
        print(f"error: no linfcheck sources under {SRC}", file=sys.stderr)
        return 2
    # stop on SIGTERM through the clean-up below, which also stops the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # the reference and every child share one processor, so they see the same load
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "cpu": cpu, "environment": environment()}
    clock, tally, yardstick = Clock(), Tally(), Yardstick()
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        setup_s = setup(args.workload, args.seed, workdir, clock, tally, yardstick)
        if tally.failed:
            metrics = {}
        elif args.trace:
            metrics = traced(args.workload, args.seed, args.seconds, workdir,
                             clock, tally, detail)
        else:
            metrics = timed(args.workload, args.seed, args.seconds, workdir,
                            clock, tally, yardstick, detail)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    metrics["setup_s"] = setup_s
    names = [(m["name"], m["unit"]) for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    detail.update(failed_share=tally.failed_share, problems=tally.problems)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
