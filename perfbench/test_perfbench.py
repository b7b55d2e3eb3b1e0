"""Tests of the benchmark's own arithmetic, known answers and tracing.

    python3 -m unittest discover -s perfbench -v
"""

import io
import json
import os
import random
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        samples = [float(v) for v in range(1, 101)]
        random.Random(0).shuffle(samples)
        value, percentile = run.tail(samples)
        self.assertEqual(value, 90.0)
        self.assertEqual(percentile, 90.0)
        self.assertEqual(sum(s > value for s in samples), 10)

    def test_eleven_and_twelve_samples(self):
        self.assertEqual(run.tail([float(v) for v in range(11, 0, -1)]), (1.0, 100 / 11))
        self.assertEqual(run.tail([float(v) for v in range(12)])[0], 1.0)

    def test_too_few_samples_give_the_minimum(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0, 5.0, 4.0]), (1.0, 20.0))
        self.assertEqual(run.tail([7.0]), (7.0, 100.0))


class FailedShareTest(unittest.TestCase):
    """An unexpected exit code, a timeout and a wrong work count each fail."""

    jacobi = workloads.commands("jacobi", 0, Path("."))[0]

    def child(self, code: str, timeout: float = 30.0) -> run.ChildRun:
        with tempfile.TemporaryDirectory() as tmp:
            return run.run_child([sys.executable, "-c", code], timeout, Path(tmp))

    def correct_report(self) -> dict:
        return {"command": "verify", "pass": True, "arities": [
            {"arity": n, "ok": True, "tuples": t}
            for n, t in enumerate(workloads.JACOBI_TUPLES, start=1)]}

    def test_correct_answer_passes(self):
        self.assertIsNone(workloads.judge(self.jacobi, 0, json.dumps(self.correct_report())))

    def test_unexpected_exit_code(self):
        report = json.dumps(self.correct_report())
        done = self.child(f"import sys; print({report!r}); sys.exit(1)")
        self.assertEqual(done.exit_code, 1)
        self.assertIn("exit 1", done.problem(self.jacobi))

    def test_timeout(self):
        done = self.child("import time; time.sleep(30)", timeout=0.5)
        self.assertTrue(done.timed_out)
        self.assertLess(done.wall_s, 10)
        self.assertIn("timed out", done.problem(self.jacobi))

    def test_wrong_work_count(self):
        report = self.correct_report()
        report["arities"][3]["tuples"] -= 1
        self.assertIn("tuples", workloads.judge(self.jacobi, 0, json.dumps(report)))

    def test_wrong_verdict_and_garbled_output(self):
        report = self.correct_report()
        report["pass"] = False
        self.assertIsNotNone(workloads.judge(self.jacobi, 0, json.dumps(report)))
        self.assertIsNotNone(workloads.judge(self.jacobi, 0, "PASS"))
        self.assertIsNotNone(workloads.judge(self.jacobi, 0, "[1]"))
        report["pass"], report["arities"] = True, [None]
        self.assertIsNotNone(workloads.judge(self.jacobi, 0, json.dumps(report)))

    def test_share(self):
        tally = run.Tally()
        for problem in (None, "exit 1", "timed out", "4 tuples, expected 5"):
            tally.record(problem)
        self.assertEqual((tally.attempted, tally.failed), (4, 3))
        self.assertEqual(tally.failed_share, 0.75)


class KnownAnswerTest(unittest.TestCase):
    def test_pinned_counts_follow_from_the_dimensions(self):
        counts = [workloads.canonical_tuple_count(3, 3, n) for n in range(1, 8)]
        self.assertEqual(tuple(counts), workloads.JACOBI_TUPLES)
        self.assertEqual(sum(counts), 574)
        self.assertEqual(workloads.monomial_count(3, 12), 1820)

    def test_closed_forms(self):
        self.assertEqual(list(workloads.closed_form_values("b", 4).values()),
                         ["1", "1", "-1", "4", "-27"])
        self.assertEqual(list(workloads.closed_form_values("lambert", 4).values()),
                         ["1", "-2", "9", "-64"])


class MutantTest(unittest.TestCase):
    def test_draw_is_seeded_and_in_range(self):
        first = workloads.draw_structures(7)
        self.assertEqual(first, workloads.draw_structures(7))
        self.assertNotEqual(first, workloads.draw_structures(8))
        mutated = [s for s in first if s.index is not None]
        self.assertEqual(sorted((s.example, s.index) for s in mutated),
                         [(e, i) for e, idx in workloads.MUTABLE.items() for i in idx])
        for s in mutated:
            self.assertIn(s.value, workloads.REPLACEMENTS)
            self.assertNotEqual(s.value, workloads.TRUE_VALUE[s.example](s.index))

    def test_mutants_rejected_and_intact_accepted_by_both_formulations(self):
        from linfcheck.cli import main

        for seed in (1, 2, 3):
            with tempfile.TemporaryDirectory() as tmp:
                workloads.write_documents(seed, Path(tmp))
                for command in workloads.commands("mutants", seed, Path(tmp)):
                    out = io.StringIO()
                    with redirect_stdout(out):
                        code = main(list(command.args))
                    with self.subTest(seed=seed, args=command.args[:2]):
                        self.assertIsNone(workloads.judge(command, code, out.getvalue()))


class TraceTest(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in run.SPEC["workloads"]],
                         list(workloads.WORKLOADS))

    def test_traced_jacobi_counts(self):
        """Wrappers sit at the names callers resolve, so the counts are the
        pinned work of verify example2 --max-arity 7."""
        with tempfile.TemporaryDirectory() as tmp:
            done = subprocess.run(
                [sys.executable, str(HERE / "layers.py"), "--workload", "jacobi",
                 "--seed", "0", "--workdir", tmp],
                env=dict(os.environ, PYTHONPATH=str(HERE.parent / "src")),
                capture_output=True, text=True, timeout=120, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertEqual(result["problems"], [])
        self.assertEqual(set(result["layers"]) | {"cli.import_s", "trace.overhead_s"},
                         {m["name"] for m in run.SPEC["per_layer"]})
        layers = result["layers"]
        self.assertEqual(layers["brackets.tuples"], 574)
        self.assertEqual(layers["grading.unshuffles"], 38822)
        self.assertEqual(layers["grading.sign_calls"], 2 * 38822)
        self.assertEqual(layers["brackets.evaluate_calls"], 56264)


if __name__ == "__main__":
    unittest.main()
