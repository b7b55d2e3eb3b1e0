"""Exact verification engine for finite-dimensional homotopy Lie structures.

Two formulations of the same data are implemented and cross-checked: skew
bracket hierarchies verified through generalized Jacobi identities, and
symmetric hierarchies on the degree-shifted space encoded by an odd
differential operator whose square must vanish.
"""

import sys

# each public name and the module that defines it; the module is imported on
# the first access of one of its names (PEP 562), so importing the package,
# or one command's modules, loads nothing else
_HOME = {
    name: module
    for module, names in {
        "brackets": ("SKEW", "SYMMETRIC", "BracketSystem", "JacobiReport",
                     "desuspend_system", "first_difference", "verify_jacobi"),
        "builtin": ("ExampleSystems", "b_closed", "c1_closed", "c1_recursive",
                    "c2_daily", "example1_system", "example2_system",
                    "theta_sector_sign"),
        "errors": ("DocumentError", "TruncationError"),
        "grading": ("BasisVector", "Element", "GradedSpace", "desuspension_sign",
                    "koszul_sign", "perm_sign", "unshuffles"),
        "series": ("Series", "g_series", "lambert_w_series", "nilcheck_one_boson",
                   "solve_f1", "solve_g2", "wronskian"),
        "superspace": ("DeltaSpec", "DeltaSquaredReport", "SuperMonomial",
                       "SuperPoly", "brackets_from_delta", "delta_squared_check",
                       "koszul_bracket", "nilpotency_conditions"),
    }.items()
    for name in names
}


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(module := f"{__name__}.{_HOME[name]}")
    return getattr(sys.modules[module], name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = sorted(_HOME)
