"""Exact verification engine for finite-dimensional homotopy Lie structures.

Two formulations of the same data are implemented and cross-checked: skew
bracket hierarchies verified through generalized Jacobi identities, and
symmetric hierarchies on the degree-shifted space encoded by an odd
differential operator whose square must vanish.
"""

from .brackets import (
    SKEW,
    SYMMETRIC,
    BracketSystem,
    JacobiReport,
    desuspend_system,
    desuspension_sign,
    first_difference,
    jacobi_defect,
    jacobi_summands,
    suspend_system,
    verify_jacobi,
)
from .builtin import (
    ExampleSystems,
    b_closed,
    c1_closed,
    c1_recursive,
    c2_daily,
    example1_system,
    example2_system,
    theta_sector_sign,
)
from .errors import ConsistencyError, DocumentError, TruncationError
from .grading import (
    BasisVector,
    Element,
    GradedSpace,
    koszul_sign,
    perm_sign,
    unshuffles,
)
from .series import (
    Series,
    g_series,
    lambert_w_series,
    nilcheck_one_boson,
    solve_f1,
    solve_g2,
    wronskian,
)
from .superspace import (
    DeltaSpec,
    DeltaSquaredReport,
    NilpotencyReport,
    SuperMonomial,
    SuperPoly,
    apply_delta,
    brackets_from_delta,
    delta_squared_check,
    koszul_bracket,
    nilpotency_conditions,
)

__version__ = "0.1.0"

__all__ = [
    "BasisVector",
    "BracketSystem",
    "ConsistencyError",
    "DeltaSpec",
    "DeltaSquaredReport",
    "DocumentError",
    "Element",
    "ExampleSystems",
    "GradedSpace",
    "JacobiReport",
    "NilpotencyReport",
    "SKEW",
    "SYMMETRIC",
    "Series",
    "SuperMonomial",
    "SuperPoly",
    "TruncationError",
    "apply_delta",
    "b_closed",
    "brackets_from_delta",
    "c1_closed",
    "c1_recursive",
    "c2_daily",
    "delta_squared_check",
    "desuspend_system",
    "desuspension_sign",
    "example1_system",
    "example2_system",
    "first_difference",
    "g_series",
    "jacobi_defect",
    "jacobi_summands",
    "koszul_bracket",
    "koszul_sign",
    "lambert_w_series",
    "nilcheck_one_boson",
    "nilpotency_conditions",
    "perm_sign",
    "solve_f1",
    "solve_g2",
    "suspend_system",
    "theta_sector_sign",
    "unshuffles",
    "verify_jacobi",
    "wronskian",
]
