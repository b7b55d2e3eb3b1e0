"""Traced run of one benchmark workload: per-layer times and work counts.

Runs one pass of a workload in this fresh process, calling
``linfcheck.cli.main`` once per command, so no ``lru_cache`` is warm at the
start. Unless ``--bare`` is given, it first wraps public functions of every
linfcheck module (layer) with timing and counting wrappers. A wrapper replaces
every module binding of its function, so ``linfcheck.brackets.perm_sign`` is
wrapped as well as ``linfcheck.grading.perm_sign``; a method is replaced on its
class. Times are self times: the time inside a wrapped function minus the time
inside wrapped functions it called.

The last line of standard output is a JSON object with ``import_s``,
``attempted``, ``problems`` and, when traced, ``layers``:

    PYTHONPATH=src python3 perfbench/layers.py --workload jacobi --seed 1 --workdir DIR
"""

import time

_start = time.perf_counter()
import linfcheck.cli  # noqa: E402  (timed: the start-up cost of every command)

IMPORT_S = time.perf_counter() - _start

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from functools import wraps  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


class Tracer:
    """Call counts, self times and result counts of the wrapped functions."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []  # time spent in wrapped callees, one slot per open call
        self._seen = set()  # distinct operator arguments of the current command

    def wrap(self, key, fn, on_call=None, on_result=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if on_call is not None:
                on_call(args)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[key] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def end_command(self) -> None:
        self.counts["delta_distinct"] += len(self._seen)
        self._seen.clear()

    def install(self) -> None:
        import linfcheck.brackets as brackets
        import linfcheck.builtin as builtin
        import linfcheck.document as document
        import linfcheck.grading as grading
        import linfcheck.series as series
        import linfcheck.superspace as superspace

        counts = self.counts

        def count(name, measure):
            def on_result(result):
                counts[name] += measure(result)
            return on_result

        def note_order(args):
            counts["order"] = max(counts["order"], args[0])

        functions = [
            ("build", builtin.example1_system, {}),
            ("build", builtin.example2_system, {}),
            ("load", document.load_document,
             {"on_result": count("entries", lambda r: r[0].entry_count())}),
            ("verify_jacobi", brackets.verify_jacobi,
             {"on_result": count("tuples", lambda r: sum(c.inputs_checked for c in r.checks))}),
            ("canonical_key", brackets.canonical_key, {}),
            ("first_difference", brackets.first_difference, {}),
            ("unshuffles", grading.unshuffles,
             {"on_result": count("unshuffles", len)}),
            ("sign", grading.perm_sign, {}),
            ("sign", grading.koszul_sign, {}),
            ("delta_squared", superspace.delta_squared_check,
             {"on_result": count("monomials", lambda r: r.monomials_checked)}),
            ("koszul_bracket", superspace.koszul_bracket, {}),
            ("nilpotency", superspace.nilpotency_conditions, {}),
            ("g_series", series.g_series, {"on_call": note_order}),
            ("lambert", series.lambert_w_series, {"on_call": note_order}),
        ]
        methods = [
            ("evaluate", brackets.BracketSystem, "evaluate",
             {"on_result": count("nonzero", lambda r: not r.is_zero())}),
            ("element_add", grading.Element, "__add__", {}),
            ("element", grading.Element, "__sub__", {}),
            ("element", grading.Element, "__neg__", {}),
            ("element", grading.Element, "__rmul__", {}),
            ("delta_monomial", superspace.DeltaSpec, "delta_monomial",
             {"on_call": lambda args: self._seen.add(args[1])}),
            ("superpoly_mul", superspace.SuperPoly, "__mul__", {}),
            ("series_mul", series.Series, "__mul__", {}),
            ("inverse", series.Series, "inverse", {}),
        ]
        modules = [m for name, m in sys.modules.items()
                   if name == "linfcheck" or name.startswith("linfcheck.")]
        for key, fn, hooks in functions:
            wrapper = self.wrap(key, fn, **hooks)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, name, wrapper)
        for key, cls, attr, hooks in methods:
            fn = cls.__dict__[attr]
            wrapper = self.wrap(key, fn, **hooks)
            for name, value in list(vars(cls).items()):
                if value is fn:  # also aliases such as Series.__rmul__
                    setattr(cls, name, wrapper)

    def metrics(self) -> dict:
        calls, s, counts = self.calls, self.self_s, self.counts

        def ratio(part, whole):
            return part / whole if whole else 0.0

        return {
            "builtin.build_s": s["build"],
            "document.load_s": s["load"],
            "document.entries": counts["entries"],
            "brackets.verify_jacobi_s": s["verify_jacobi"],
            "brackets.tuples": counts["tuples"],
            "brackets.evaluate_calls": calls["evaluate"],
            "brackets.evaluate_s": s["evaluate"],
            "brackets.evaluate_nonzero_ratio": ratio(counts["nonzero"], calls["evaluate"]),
            "brackets.canonical_key_calls": calls["canonical_key"],
            "brackets.first_difference_s": s["first_difference"],
            "grading.unshuffles": counts["unshuffles"],
            "grading.sign_calls": calls["sign"],
            "grading.sign_s": s["sign"],
            "grading.element_add_calls": calls["element_add"],
            "grading.element_s": s["element_add"] + s["element"],
            "superspace.delta_monomial_calls": calls["delta_monomial"],
            "superspace.delta_monomial_distinct": counts["delta_distinct"],
            "superspace.delta_image_reuse": ratio(counts["delta_distinct"],
                                                  calls["delta_monomial"]),
            "superspace.delta_monomial_s": s["delta_monomial"],
            "superspace.delta_squared_s": s["delta_squared"],
            "superspace.monomials_checked": counts["monomials"],
            "superspace.koszul_bracket_calls": calls["koszul_bracket"],
            "superspace.koszul_bracket_s": s["koszul_bracket"],
            "superspace.mul_calls": calls["superpoly_mul"],
            "superspace.mul_s": s["superpoly_mul"],
            "superspace.nilpotency_s": s["nilpotency"],
            "series.g_series_s": s["g_series"],
            "series.lambert_s": s["lambert"],
            "series.mul_calls": calls["series_mul"],
            "series.mul_s": s["series_mul"],
            "series.inverse_s": s["inverse"],
            "series.order": counts["order"],
        }


def run_pass(workload: str, seed: int, workdir: Path, tracer: Tracer | None) -> dict:
    problems = []
    cmds = workloads.commands(workload, seed, workdir)
    for command in cmds:
        out = io.StringIO()
        try:
            with redirect_stdout(out):
                code = linfcheck.cli.main(list(command.args))
        except Exception as exc:  # a crash is a failed command, not a failed run
            problems.append(f"{' '.join(command.args[:2])}: {type(exc).__name__}: {exc}")
        else:
            problem = workloads.judge(command, code, out.getvalue())
            if problem:
                problems.append(problem)
        if tracer is not None:
            tracer.end_command()
    result = {"import_s": IMPORT_S, "attempted": len(cmds), "problems": problems}
    if tracer is not None:
        result["layers"] = tracer.metrics()
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--bare", action="store_true",
                        help="install no wrappers (the baseline of trace.overhead_s)")
    args = parser.parse_args()
    tracer = None
    if not args.bare:
        tracer = Tracer()
        tracer.install()
    result = run_pass(args.workload, args.seed, args.workdir, tracer)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
