"""Command-line front end.

Exit codes are the machine contract: 0 for a verified property, 1 for a
property that was checked and found false, 2 for usage or document errors.
Each command returns one report of JSON values; ``main`` prints it as JSON
with --json and otherwise as text rendered from the same report.

A command loads and builds only what it runs: each ``cmd_*`` imports its
engine modules in its body, and a builtin builds each formulation on first
access. Engine functions are resolved when called, never when this module is
imported or a table is built; the entries of ``BUILTINS`` and
``COEFFICIENTS`` look them up as module attributes at call time. So a
wrapper bound to a module attribute sees every call.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from .errors import DocumentError, TruncationError
from .grading import DEFAULT_ORDER


def _module(name: str):
    """The package's module ``name``, imported by the first route that needs it
    through ``__import__``, as an ``import`` statement is, so that ``-X importtime``
    logs it; that log leaves out what ``importlib.import_module`` imports."""
    __import__(f"{__package__}.{name}")
    return sys.modules[f"{__package__}.{name}"]


BUILTINS = {
    "example1": lambda order: _module("builtin").example1_system(order=order),
    "example2": lambda order: _module("builtin").example2_system(order=order),
}

PASS, FAIL, USAGE = 0, 1, 2


def _load_input(name: str, order: int | None = None):
    """Resolve a builtin name or a document path to an object with the
    attributes skew_system, symmetric_system and delta_spec, None where a
    document has no such part. ``order`` is the series order of a builtin
    (default DEFAULT_ORDER); a builtin builds each part on first access."""
    if name in BUILTINS:
        return BUILTINS[name](DEFAULT_ORDER if order is None else order)
    if order is not None:
        raise DocumentError("--order applies to builtin inputs only; "
                            "a document carries its own series orders")
    from .brackets import SKEW, SYMMETRIC
    from .document import load_document

    system, delta = load_document(name)
    return SimpleNamespace(
        skew_system=system if system.symmetry == SKEW else None,
        symmetric_system=system if system.symmetry == SYMMETRIC else None,
        delta_spec=delta,
    )


def _require_bound(flag: str, value: int, least: int) -> None:
    """A bound below ``least`` checks nothing, which is a usage error."""
    if value < least:
        raise DocumentError(
            f"{flag} {value} checks nothing (the effective bound must be >= {least})"
        )


def _stored(args) -> str:
    """What stores the bracket tables: the builtin by name, or the document."""
    return f"builtin {args.input}" if args.input in BUILTINS else "document"


def _clamped_arity(args, stored: int, least: int) -> int:
    """--max-arity clamped to the arity bound the input stores; a bound below
    ``least`` is a usage error, which names both bounds when the clamp caused it."""
    if min(args.max_arity, stored) < least <= args.max_arity:
        raise DocumentError(
            f"{_stored(args)} stores arities up to {stored}, so --max-arity "
            f"{args.max_arity} checks nothing (the effective bound must be >= {least})"
        )
    _require_bound("--max-arity", args.max_arity, least)
    return min(args.max_arity, stored)


def cmd_verify(args) -> dict:
    from .brackets import verify_jacobi

    skew = _load_input(args.input).skew_system
    if skew is None:
        raise DocumentError("verify needs a skew system (use a skew document)")
    n_max = _clamped_arity(args, skew.max_arity, 1)
    report = verify_jacobi(skew, n_max)
    arities = [
        {"arity": check.arity, "ok": True, "tuples": check.inputs_checked}
        if check.ok else
        {"arity": check.arity, "ok": False,
         "counterexample": [v.name for v in check.counterexample],
         "defect": str(check.defect),
         "summands": {str(i): str(part) for i, part in check.summands.items()}}
        for check in report.checks
    ]
    return {"command": "verify", "pass": report.passed, "max_arity": n_max,
            "requested_max_arity": args.max_arity, "arities": arities}


def _clamp_note(report: dict, args):
    """The note that opens the text of a verify or compare report whose
    --max-arity was clamped to the bound its input stores."""
    requested = report.get("requested_max_arity")
    if requested is not None and requested != report["max_arity"]:
        yield (f"note: {_stored(args)} stores arities up to {report['max_arity']}; "
               "checking that far")


def _verify_text(report: dict):
    for check in report["arities"]:
        if check["ok"]:
            yield f"arity {check['arity']}: ok ({check['tuples']} tuples)"
        else:
            inputs = ", ".join(check["counterexample"])
            yield (f"arity {check['arity']}: FAIL on ({inputs}): "
                   f"defect = {check['defect']}")
    if report["pass"]:
        yield f"PASS: all Jacobi identities hold through arity {report['max_arity']}"
    else:
        yield "FAIL: at least one Jacobi identity is violated"


def cmd_delta_check(args) -> dict:
    from .superspace import delta_squared_check, nilpotency_conditions

    delta = _load_input(args.input, args.order).delta_spec
    if delta is None:
        raise DocumentError("delta-check needs operator data (a 'delta' section)")
    _require_bound("--degree", args.degree, 0)
    report = delta_squared_check(delta, args.degree)
    residuals, residual_orders, all_zero = {}, {}, True
    for label, group in nilpotency_conditions(delta).items():
        residuals[label] = {key: "0" if series.is_zero() else str(series)
                            for key, series in group.items()}
        residual_orders[label] = {key: series.order for key, series in group.items()}
        all_zero = all_zero and all(series.is_zero() for series in group.values())
    return {
        "command": "delta-check",
        "pass": report.passed and all_zero,
        "degree": args.degree,
        "order": delta.coefficient_order,
        "monomials_checked": report.monomials_checked,
        "witness": str(report.witness) if report.witness else None,
        "residue": None if report.passed else str(report.residue),
        "residuals": residuals,
        "residual_orders": residual_orders,
    }


def _delta_check_text(report: dict):
    for label, group in report["residuals"].items():
        for key, value in group.items():
            state = "zero" if value == "0" else f"NONZERO {value}"
            order = report["residual_orders"][label][key]
            yield f"residual {label}[{key}] (order {order}): {state}"
    if report["residue"] is None:
        yield (f"squared operator vanishes on all {report['monomials_checked']} "
               f"monomials through degree {report['degree']}")
    else:
        yield (f"FAIL: squared operator is nonzero on {report['witness']}: "
               f"{report['residue']}")
    yield "PASS" if report["pass"] else "FAIL"


def cmd_compare(args) -> dict:
    from .brackets import first_difference
    from .superspace import brackets_from_delta

    loaded = _load_input(args.input)
    symmetric, delta = loaded.symmetric_system, loaded.delta_spec
    if delta is None or symmetric is None:
        raise DocumentError(
            "compare needs both a symmetric system and a 'delta' section"
        )
    if symmetric.space != delta.space:
        raise DocumentError(f"the brackets are declared on {symmetric.space!r}, but the "
                            f"operator acts on {delta.space!r}")
    n_max = _clamped_arity(args, symmetric.max_arity, 0)
    try:
        rebuilt = brackets_from_delta(delta, n_max)
    except ValueError as exc:  # a rebuilt bracket of the wrong degree
        if all(series.is_zero() for series in delta.h):
            raise
        raise DocumentError(
            f"the operator is curved (nonzero h), so compare cannot rebuild "
            f"brackets from it; delta-check can check it ({exc})"
        ) from exc
    diff = first_difference(symmetric, rebuilt, n_max)
    report = {"command": "compare", "pass": diff is None, "max_arity": n_max,
              "requested_max_arity": args.max_arity}
    if diff is not None:
        arity, key, declared, recovered = diff
        report.update(arity=arity, inputs=[v.name for v in key],
                      declared=str(declared), recovered=str(recovered))
    return report


def _compare_text(report: dict):
    if report["pass"]:
        yield ("PASS: operator brackets match the declared tables through "
               f"arity {report['max_arity']}")
        return
    yield f"FAIL at arity {report['arity']}, inputs ({', '.join(report['inputs'])}):"
    yield f"  declared:  {report['declared']}"
    yield f"  recovered: {report['recovered']}"


# which -> (first index, printed value, independent route given the bound);
# --check cross-validates each printed value against the route, and each
# series is generated once, to the bound
COEFFICIENTS = {
    "c1": (3, lambda n: _module("builtin").c1_closed(n),
           lambda n_max: _module("builtin").c1_recursive),
    "c2": (3, lambda n: _module("builtin").c2_daily(n),
           lambda n_max: lambda n: (_module("builtin").theta_sector_sign(n)
                                    * _module("builtin").b_closed(n - 1))),
    "b": (0, lambda n: _module("builtin").b_closed(n),
          lambda n_max: _module("series").g_series(max(n_max, 1)).taylor),
    # the integer values n! * [p^n] of the inverse-of-we^w series
    "lambert": (1, lambda n: Fraction(-n) ** (n - 1),
                lambda n_max: _module("series").lambert_w_series(max(n_max, 1)).taylor),
}


def cmd_coefficients(args) -> dict:
    first, value, route = COEFFICIENTS[args.which]
    _require_bound("n_max", args.n_max, first)
    rows = [(n, value(n)) for n in range(first, args.n_max + 1)]
    values = {}
    for n, v in rows:
        try:
            values[str(n)] = str(v)
        except ValueError:  # int's digit limit on printing
            raise ValueError(f"coefficients {args.which}: the value at n={n} has more than "
                             f"{sys.get_int_max_str_digits():,} digits on a side of the "
                             "'/'") from None
    mismatches: list[str] = []
    if args.check:
        independent = route(args.n_max)
        for n, v in rows:
            other = independent(n)
            if v != other:
                mismatches.append(f"n={n}: printed {v} != independent route {other}")
    return {
        "command": "coefficients",
        "which": args.which,
        "values": values,
        "checked": args.check,
        "mismatches": mismatches,
        "pass": not mismatches,
    }


def _coefficients_text(report: dict):
    for n, v in report["values"].items():
        yield f"{n}\t{v}"
    if report["checked"]:
        yield from (f"MISMATCH {m}" for m in report["mismatches"])
        yield "PASS: cross-check agrees" if report["pass"] else "FAIL"


def cmd_export(args) -> dict:
    from .document import save_document, system_to_document

    ex = BUILTINS[args.builtin](args.order)
    if args.formulation == "jacobi":
        doc = system_to_document(ex.skew_system)
    else:
        doc = system_to_document(ex.symmetric_system, ex.delta_spec)
    if not args.output:
        return {"command": "export", "pass": True, "document": doc}
    save_document(doc, args.output)
    return {"command": "export", "pass": True, "wrote": args.output}


def _export_text(report: dict):
    yield f"wrote {report['wrote']}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linfcheck",
        description="Verify homotopy Lie bracket hierarchies exactly, in both "
        "the Jacobi-identity and the odd-operator formulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check generalized Jacobi identities")
    p.add_argument("input", help="builtin name (example1, example2) or document path")
    p.add_argument("--max-arity", type=int, default=8)
    p.set_defaults(fn=cmd_verify, text=_verify_text)

    p = sub.add_parser("delta-check", help="check that the odd operator squares to zero")
    p.add_argument("input", help="builtin name or document path")
    p.add_argument("--degree", type=int, default=10, help="even-degree bound for monomials")
    p.add_argument("--order", type=int, default=None,
                   help="series order for builtin inputs")
    p.set_defaults(fn=cmd_delta_check, text=_delta_check_text)

    p = sub.add_parser("compare", help="rebuild brackets from the operator and diff")
    p.add_argument("input", help="builtin name or document path")
    p.add_argument("--max-arity", type=int, default=8)
    p.set_defaults(fn=cmd_compare, text=_compare_text)

    p = sub.add_parser("coefficients", help="print coefficient tables")
    p.add_argument("which", choices=COEFFICIENTS)
    p.add_argument("n_max", type=int)
    p.add_argument("--check", action="store_true",
                   help="cross-validate against an independent route")
    p.set_defaults(fn=cmd_coefficients, text=_coefficients_text)

    p = sub.add_parser("export", help="write a builtin system as a JSON document")
    p.add_argument("builtin", choices=BUILTINS)
    p.add_argument("--formulation", choices=("jacobi", "operator"), default="operator")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_export, text=_export_text)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="machine-readable report")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code else PASS
    try:
        report = args.fn(args)
        if "document" in report:  # an export to stdout prints it in both modes
            from .document import document_text

            text = document_text(report["document"])
        elif args.json:
            text = json.dumps(report, indent=2)
        else:
            text = "\n".join([*_clamp_note(report, args), *args.text(report)])
        print(text)
        sys.stdout.flush()
    except (DocumentError, TruncationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except BrokenPipeError:  # no verdict was read; the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before the report was written", file=sys.stderr)
        return USAGE
    except Exception as exc:  # a bug must not read as exit 1, "checked and false"
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return USAGE
    return PASS if report["pass"] else FAIL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
