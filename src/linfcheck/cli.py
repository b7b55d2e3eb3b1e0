"""Command-line front end.

Exit codes are the machine contract: 0 for a verified property, 1 for a
property that was checked and found false, 2 for usage or document errors.
Pass --json for a machine-readable report on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import factorial

from .brackets import SKEW, SYMMETRIC, first_difference, verify_jacobi
from .builtin import (
    DEFAULT_ORDER,
    b_closed,
    c1_closed,
    c1_recursive,
    c2_daily,
    example1_system,
    example2_system,
    theta_sector_sign,
)
from .document import load_document, save_document, system_to_document
from .errors import ConsistencyError, DocumentError, TruncationError
from .series import g_series, lambert_w_series
from .superspace import (
    brackets_from_delta,
    delta_squared_check,
    nilpotency_conditions,
)

# Table entries look their functions up when called, not when the table is
# built, so a wrapper bound to the module-level name sees every call.
BUILTINS = {
    "example1": lambda order: example1_system(order=order),
    "example2": lambda order: example2_system(order=order),
}

PASS, FAIL, USAGE = 0, 1, 2


def _load_input(name: str, order: int):
    """Resolve a builtin name or a document path to (skew, symmetric, delta)."""
    if name in BUILTINS:
        ex = BUILTINS[name](order)
        return ex.skew_system, ex.symmetric_system, ex.delta_spec
    system, delta = load_document(name)
    skew = system if system.symmetry == SKEW else None
    symmetric = system if system.symmetry == SYMMETRIC else None
    return skew, symmetric, delta


def _require_bound(flag: str, value: int, least: int) -> None:
    """A bound below ``least`` checks nothing, which is a usage error."""
    if value < least:
        raise DocumentError(
            f"{flag} {value} checks nothing (the effective bound must be >= {least})"
        )


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        for line in lines:
            print(line)


def cmd_verify(args) -> int:
    skew, _, _ = _load_input(args.input, DEFAULT_ORDER)
    if skew is None:
        raise DocumentError("verify needs a skew system (use a skew document)")
    n_max = min(args.max_arity, skew.max_arity)
    _require_bound("--max-arity", n_max, 1)
    report = verify_jacobi(skew, n_max)
    lines = []
    if n_max < args.max_arity:
        lines.append(f"note: document stores arities up to {n_max}; checking that far")
    arities = []
    for check in report.checks:
        if check.ok:
            lines.append(f"arity {check.arity}: ok ({check.inputs_checked} tuples)")
            arities.append({"arity": check.arity, "ok": True,
                            "tuples": check.inputs_checked})
        else:
            inputs = ", ".join(v.name for v in check.counterexample)
            lines.append(
                f"arity {check.arity}: FAIL on ({inputs}): defect = {check.defect}"
            )
            arities.append({
                "arity": check.arity,
                "ok": False,
                "counterexample": [v.name for v in check.counterexample],
                "defect": str(check.defect),
            })
    if report.passed:
        lines.append(f"PASS: all Jacobi identities hold through arity {n_max}")
    else:
        lines.append("FAIL: at least one Jacobi identity is violated")
    _emit(args, {"command": "verify", "pass": report.passed, "arities": arities}, lines)
    return PASS if report.passed else FAIL


def cmd_delta_check(args) -> int:
    _, _, delta = _load_input(args.input, args.order)
    if delta is None:
        raise DocumentError("delta-check needs operator data (a 'delta' section)")
    _require_bound("--degree", args.degree, 0)
    report = delta_squared_check(delta, args.degree)
    residuals = nilpotency_conditions(delta)
    lines = []
    res_payload = {}
    for label, group in residuals.groups():
        entries = {}
        for key, series in group.items():
            entries[key] = "0" if series.is_zero() else str(series)
            state = "zero" if series.is_zero() else f"NONZERO {series}"
            lines.append(f"residual {label}[{key}] (order {series.order}): {state}")
        res_payload[label] = entries
    if report.passed:
        lines.append(
            f"squared operator vanishes on all {report.monomials_checked} "
            f"monomials through degree {args.degree}"
        )
    else:
        lines.append(
            f"FAIL: squared operator is nonzero on {report.witness}: {report.residue}"
        )
    ok = report.passed and residuals.all_zero
    lines.append("PASS" if ok else "FAIL")
    _emit(
        args,
        {
            "command": "delta-check",
            "pass": ok,
            "monomials_checked": report.monomials_checked,
            "witness": str(report.witness) if report.witness else None,
            "residuals": res_payload,
        },
        lines,
    )
    return PASS if ok else FAIL


def cmd_compare(args) -> int:
    _, symmetric, delta = _load_input(args.input, DEFAULT_ORDER)
    if delta is None or symmetric is None:
        raise DocumentError(
            "compare needs both a symmetric system and a 'delta' section"
        )
    n_max = min(args.max_arity, symmetric.max_arity)
    _require_bound("--max-arity", n_max, 0)
    rebuilt = brackets_from_delta(delta, n_max)
    diff = first_difference(symmetric, rebuilt, n_max)
    if diff is None:
        lines = [
            f"PASS: operator brackets match the declared tables through "
            f"arity {n_max}"
        ]
        payload = {"command": "compare", "pass": True}
        _emit(args, payload, lines)
        return PASS
    arity, key, declared, recovered = diff
    where = "space/symmetry" if key is None else "(" + ", ".join(v.name for v in key) + ")"
    lines = [
        f"FAIL at arity {arity}, inputs {where}:",
        f"  declared:  {declared}",
        f"  recovered: {recovered}",
    ]
    payload = {
        "command": "compare",
        "pass": False,
        "arity": arity,
        "inputs": None if key is None else [v.name for v in key],
        "declared": str(declared),
        "recovered": str(recovered),
    }
    _emit(args, payload, lines)
    return FAIL


def _scaled(series):
    """n! times the n-th coefficient: the integer sequence the series encodes."""
    return lambda n: factorial(n) * series[n]


# which -> (first index, printed value, independent route given the bound);
# --check cross-validates each printed value against the route, and each
# series is generated once, to the bound
COEFFICIENTS = {
    "c1": (3, c1_closed, lambda n_max: c1_recursive),
    "c2": (3, c2_daily,
           lambda n_max: lambda n: theta_sector_sign(n) * b_closed(n - 1)),
    "b": (0, b_closed, lambda n_max: _scaled(g_series(max(n_max, 1)))),
    # the integer values n! * [p^n] of the inverse-of-we^w series
    "lambert": (1, lambda n: Fraction(-n) ** (n - 1),
                lambda n_max: _scaled(lambert_w_series(max(n_max, 1)))),
}


def cmd_coefficients(args) -> int:
    first, value, route = COEFFICIENTS[args.which]
    _require_bound("n_max", args.n_max, first)
    rows = [(n, value(n)) for n in range(first, args.n_max + 1)]
    lines = [f"{n}\t{v}" for n, v in rows]
    problems: list[str] = []
    if args.check:
        independent = route(args.n_max)
        for n, v in rows:
            other = independent(n)
            if v != other:
                problems.append(f"n={n}: printed {v} != independent route {other}")
        lines += [f"MISMATCH {p}" for p in problems]
        lines.append("PASS: cross-check agrees" if not problems else "FAIL")
    _emit(
        args,
        {
            "command": "coefficients",
            "which": args.which,
            "values": {str(n): str(v) for n, v in rows},
            "pass": not problems,
        },
        lines,
    )
    return PASS if not problems else FAIL


def cmd_export(args) -> int:
    ex = BUILTINS[args.builtin](args.order)
    if args.formulation == "jacobi":
        doc = system_to_document(ex.skew_system)
    else:
        doc = system_to_document(ex.symmetric_system, ex.delta_spec)
    if args.output:
        save_document(doc, args.output)
        if not args.json:
            print(f"wrote {args.output}")
    else:
        print(json.dumps(doc, indent=2))
    return PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linfcheck",
        description="Verify homotopy Lie bracket hierarchies exactly, in both "
        "the Jacobi-identity and the odd-operator formulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true", help="machine-readable report")

    p = sub.add_parser("verify", help="check generalized Jacobi identities")
    p.add_argument("input", help="builtin name (example1, example2) or document path")
    p.add_argument("--max-arity", type=int, default=8)
    add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("delta-check", help="check that the odd operator squares to zero")
    p.add_argument("input", help="builtin name or document path")
    p.add_argument("--degree", type=int, default=10, help="even-degree bound for monomials")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER,
                   help="series order for builtin inputs")
    add_common(p)
    p.set_defaults(fn=cmd_delta_check)

    p = sub.add_parser("compare", help="rebuild brackets from the operator and diff")
    p.add_argument("input", help="builtin name or document path")
    p.add_argument("--max-arity", type=int, default=8)
    add_common(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("coefficients", help="print coefficient tables")
    p.add_argument("which", choices=COEFFICIENTS)
    p.add_argument("n_max", type=int)
    p.add_argument("--check", action="store_true",
                   help="cross-validate against an independent route")
    add_common(p)
    p.set_defaults(fn=cmd_coefficients)

    p = sub.add_parser("export", help="write a builtin system as a JSON document")
    p.add_argument("builtin", choices=BUILTINS)
    p.add_argument("--formulation", choices=("jacobi", "operator"), default="operator")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("-o", "--output", default=None)
    add_common(p)
    p.set_defaults(fn=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code else PASS
    try:
        return args.fn(args)
    except (DocumentError, TruncationError, ConsistencyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except Exception as exc:  # a bug must not read as exit 1, "checked and false"
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
